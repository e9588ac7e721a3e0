"""Typed exact linear maps between tensor products of labeled spaces.

A LinMap carries its domain and codomain as ordered tuples of Space labels;
the matrix is stored sparsely as {(row, col): Scalar} but the external
contract (from_rows, and the workspace codec in cli) is a dense row-major
matrix.  Basis order of a tensor product is lexicographic with the leftmost
factor most significant — every equality downstream depends on this
convention.

Composition is `g * f` (apply f first) and tensoring is `f @ g`; both
build string diagrams, and run_pipeline, this module's evaluator, is the
one that evaluates them.  `f @ g` is a pending one-row diagram, and
`g * f` is the pending diagram whose first row is f alone, below g's
rows: only the later operand lends its rows.  So `c * b * a` is the rows
[[a], [b], [c]], a seed s pushed through `lhs * s` pushes its own columns
only, and a composite that is also another's input is one factor there,
evaluated once and kept on its own object.  A pending map is evaluated
by run_pipeline the first time its entries are read, and the result is
kept.  In a later row a pending tensor is applied factor by factor and
never built; as the first row of a composite it stays one factor.  A
first row of several factors is written down as their Kronecker product,
entry for entry what the kernel would build from the identity on their
domain strands.  rebind relabels a map's strands; a relabelled pending
map stays pending, one opaque factor wherever it goes.

A boundary mismatch raises ShapeError at the operator; a scalar error,
such as ConductorMixError, raises at the first read.  The rows of Phi's
split diagram (datum._phi_layers) are the one diagram kept as a row
list, because it is cut at a stated row and pushed in blocks
(pipeline_as_linmap).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .scalars import (SCALAR_TYPES, InputError, Scalar, ZERO, ONE,
                      as_scalar, reciprocal)


class Space(NamedTuple):
    name: str
    dim: int


SpaceList = Tuple[Space, ...]
UNIT: SpaceList = ()  # the tensor unit k


class ShapeError(InputError, ValueError):
    """Boundary mismatch in a composition or construction.  slot names the
    map a boundary check refused; module, when a provider registers several
    modules, is the index of the one that failed."""

    slot: Optional[str] = None
    module: Optional[int] = None


class ConfigurationError(InputError, ValueError):
    """A braiding provider was asked about an unregistered space."""


def _strands(spaces: SpaceList) -> str:
    return " (x) ".join(s.name for s in spaces) or "k"


def require_boundaries(*slots) -> None:
    """The one boundary check of every bundle of maps: each slot is
    (name, f, dom, cod), and f must map the strands dom -> cod.  A slot
    whose f is None passes; the first that fails raises ShapeError naming
    the slot, the strands it needs and the strands f has."""
    for name, f, dom, cod in slots:
        if f is not None and (f.dom, f.cod) != (dom, cod):
            err = ShapeError(
                f"{name} must map {_strands(dom)} -> {_strands(cod)}, "
                f"not {_strands(f.dom)} -> {_strands(f.cod)}")
            err.slot = name
            raise err


def dim_of(spaces: SpaceList) -> int:
    d = 1
    for s in spaces:
        d *= s.dim
    return d


def flatten(idx: Tuple[int, ...], dims: Tuple[int, ...]) -> int:
    """Multi-index -> flat index, leftmost factor most significant."""
    flat = 0
    for i, d in zip(idx, dims):
        flat = flat * d + i
    return flat


def unflatten(flat: int, dims: Tuple[int, ...]) -> Tuple[int, ...]:
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


class LinMap:
    __slots__ = ("dom", "cod", "entries", "_cols", "_ones", "_fn")

    def __init__(self, dom: Iterable[Space], cod: Iterable[Space], entries=None):
        self.dom: SpaceList = tuple(dom)
        self.cod: SpaceList = tuple(cod)
        pruned: Dict[Tuple[int, int], Scalar] = {}
        if entries:
            nr, nc = dim_of(self.cod), dim_of(self.dom)
            for (r, c), v in entries.items():
                if not (0 <= r < nr and 0 <= c < nc):
                    raise ShapeError(f"entry ({r},{c}) outside {nr}x{nc} matrix")
                if type(v) not in SCALAR_TYPES:
                    raise TypeError(f"not an exact scalar: {v!r}")
                if v:
                    pruned[(r, c)] = v
        self.entries = pruned
        self._cols: Optional[Dict[int, Dict[int, Scalar]]] = None
        self._ones: Optional[bool] = None
        self._fn = None

    @classmethod
    def _trusted(cls, dom: SpaceList, cod: SpaceList,
                 entries: Dict[Tuple[int, int], Scalar],
                 ones: Optional[bool] = None) -> "LinMap":
        """A map from entries already in range and nonzero (no checks)."""
        f = object.__new__(cls)
        f.dom, f.cod, f.entries = dom, cod, entries
        f._cols = f._fn = None
        f._ones = ones
        return f

    # -- basics ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return dim_of(self.cod)

    @property
    def ncols(self) -> int:
        return dim_of(self.dom)

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and self.entries == other.entries)

    def __repr__(self):
        d = ",".join(s.name for s in self.dom) or "k"
        c = ",".join(s.name for s in self.cod) or "k"
        return f"LinMap({d} -> {c}, {len(self.entries)} entries)"

    def entry(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), ZERO)

    def by_col(self) -> Dict[int, Dict[int, Scalar]]:
        if self._cols is None:
            cols: Dict[int, Dict[int, Scalar]] = {}
            for (r, c), v in self.entries.items():
                cols.setdefault(c, {})[r] = v
            self._cols = cols
        return self._cols

    def by_row(self) -> Dict[int, Dict[int, Scalar]]:
        rows: Dict[int, Dict[int, Scalar]] = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        return rows

    def is_ones(self) -> bool:
        """True when every nonzero entry is exactly 1: a 0/1 matrix, such as
        an identity, a permutation or the product of a group algebra.
        Multiplying by its entries is then the identity on scalars."""
        if self._ones is None:
            self._ones = all(v == ONE for v in self.entries.values())
        return self._ones

    def column(self, c: int) -> Dict[int, Scalar]:
        return self.by_col().get(c, {})

    def first_difference(self, other: "LinMap"):
        """First (row, col) where the matrices differ, scanning row-major."""
        keys = sorted(set(self.entries) | set(other.entries))
        for k in keys:
            a, b = self.entry(*k), other.entry(*k)
            if a != b:
                return k, a, b
        return None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(spaces: Iterable[Space]) -> "LinMap":
        spaces = tuple(spaces)
        n = dim_of(spaces)
        f = LinMap._trusted(spaces, spaces, {(i, i): ONE for i in range(n)},
                            True)
        f._fn = (range(n), True, True)
        return f

    @staticmethod
    def from_rows(dom: Iterable[Space], cod: Iterable[Space], rows) -> "LinMap":
        dom, cod = tuple(dom), tuple(cod)
        nr, nc = dim_of(cod), dim_of(dom)
        if len(rows) != nr or any(len(row) != nc for row in rows):
            raise ShapeError(f"matrix must be {nr}x{nc}")
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                v = as_scalar(v)
                if v:
                    entries[(r, c)] = v
        return LinMap(dom, cod, entries)

    # -- algebra -----------------------------------------------------------

    def compose(self, f: "LinMap") -> "LinMap":
        """self after f: the pending diagram whose input is f, one factor,
        below self's rows."""
        if f.cod != self.dom:
            raise ShapeError(
                f"cannot compose: inner boundaries differ "
                f"({[s.name for s in f.cod]} vs {[s.name for s in self.dom]})")
        return _Pending._diagram(f.dom, self.cod, [[f]] + _lent_rows(self))

    def __mul__(self, other):
        if isinstance(other, LinMap):
            return self.compose(other)
        return NotImplemented

    def tensor(self, other: "LinMap") -> "LinMap":
        """self (x) other: the pending one-row diagram, a pending tensor
        operand giving its factors."""
        return _Pending._diagram(self.dom + other.dom, self.cod + other.cod,
                                 [_row_factors(self) + _row_factors(other)])

    def __matmul__(self, other: "LinMap") -> "LinMap":
        return self.tensor(other)


class _Pending(LinMap):
    """A diagram built by `*`, `@` or rebind and not yet evaluated: its
    rows, bottom first, as run_pipeline takes them.  Its entries slot stays
    unset until the first read, which evaluates the rows with
    run_pipeline and keeps the result; the rows are then dropped."""

    __slots__ = ("_rows",)

    @classmethod
    def _diagram(cls, dom: SpaceList, cod: SpaceList,
                 rows: List[List[LinMap]]) -> "_Pending":
        f = object.__new__(cls)
        f.dom, f.cod, f._rows = dom, cod, rows
        f._cols = f._ones = f._fn = None
        return f

    def __getattr__(self, name):
        # reached only while a slot is unset, and entries is the one
        # slot a pending map leaves unset
        if name != "entries":
            raise AttributeError(name)
        m = run_pipeline(self._rows)
        self.entries = m.entries
        self._cols, self._ones, self._rows = m._cols, m._ones, None
        return self.entries


def _pending_rows(f: LinMap) -> Optional[List[List[LinMap]]]:
    """The rows of f while f is pending, else None."""
    return f._rows if f.__class__ is _Pending else None


def _lent_rows(f: LinMap) -> List[List[LinMap]]:
    """The rows f gives a composite whose later operand it is: a pending
    composite's own rows, else f as one factor."""
    rows = _pending_rows(f)
    return rows if rows is not None and len(rows) > 1 else [[f]]


def _row_factors(f: LinMap) -> List[LinMap]:
    """The factors f stands for in a row: a pending tensor's own factors,
    else f itself.  A relabel is one row of one factor on other strands."""
    rows = _pending_rows(f)
    return (rows[0] if rows is not None and len(rows) == 1
            and len(rows[0]) > 1 else [f])


def rebind(f: LinMap, dom, cod, tag: str = "map") -> LinMap:
    """The map f regrouped onto the strands dom -> cod.

    The lexicographic flat indices are unchanged by the regrouping, so the
    entries carry over as they are, shared with f; the strands must
    multiply out to f's size.  A pending f stays pending: the relabel is a
    pending map whose one row holds f alone, and it never lends that row
    or unwraps it, because f's strands keep their old names and apply_at
    checks strand names.  Its first read evaluates f and shares f's
    entries.
    """
    dom, cod = tuple(dom), tuple(cod)
    if f.ncols != dim_of(dom) or f.nrows != dim_of(cod):
        names = " (x) ".join(s.name for s in dom + cod)
        raise ShapeError(f"{tag} is {f.nrows}x{f.ncols}, cannot be rebound "
                         f"onto {dim_of(cod)}x{dim_of(dom)} over {names}")
    if _pending_rows(f) is not None:
        return _Pending._diagram(dom, cod, [[f]])
    return LinMap._trusted(dom, cod, f.entries, f._ones)


def _subtract(row: Dict[int, Scalar], factor: Scalar,
              other: Dict[int, Scalar]) -> None:
    """row -= factor * other, in place, keeping row free of zeros."""
    for c, v in other.items():
        cur = row.get(c, ZERO) - factor * v
        if cur:
            row[c] = cur
        else:
            row.pop(c, None)


def _reduce_step(pivots: Dict[int, Dict[int, Scalar]],
                 row: Dict[int, Scalar]) -> Optional[int]:
    """One row of reduce_rows: reduce a copy of row against pivots and, when
    something is left, make it a pivot row, clear its pivot from the other
    rows and return its pivot column.  None means row is in their span."""
    row = {c: v for c, v in row.items() if v}
    # Pivot rows never mention other pivots, so subtracting them only
    # brings in non-pivot columns and one pass over the row suffices.
    for col in [c for c in row if c in pivots]:
        _subtract(row, row.pop(col), pivots[col])
    if not row:
        return None
    lead = min(row)
    inv = reciprocal(row.pop(lead))
    row = {c: inv * v for c, v in row.items()}
    for prow in pivots.values():
        if lead in prow:
            _subtract(prow, prow.pop(lead), row)
    pivots[lead] = row
    return lead


def reduce_rows(rows: Iterable[Dict[int, Scalar]]
                ) -> Dict[int, Dict[int, Scalar]]:
    """Sparse exact Gauss-Jordan elimination of rows given as {col: Scalar}.

    Returns {pivot col: {other col: coeff}}: each pivot row is scaled so
    that its pivot entry is 1 (left implicit) and mentions no other pivot
    column.  Sorted by pivot, these rows are the reduced row echelon form.
    """
    pivots: Dict[int, Dict[int, Scalar]] = {}
    for row in rows:
        _reduce_step(pivots, row)
    return pivots


# ---------------------------------------------------------------------------
# wire rerouting
# ---------------------------------------------------------------------------

def flip(x: Space, y: Space) -> LinMap:
    """The crossing x (x) y -> y (x) x: e_i (x) e_j goes to e_j (x) e_i."""
    dx, dy = x.dim, y.dim
    return LinMap._trusted((x, y), (y, x), {
        (j * dx + i, i * dy + j): ONE for i in range(dx) for j in range(dy)},
        True)


# ---------------------------------------------------------------------------
# braiding providers
# ---------------------------------------------------------------------------

class BraidingProvider:
    """The braiding of two lists of strands, assembled from a provider's
    braiding(x, y) of one strand past another."""

    def braiding_list(self, xs: SpaceList, ys: SpaceList) -> LinMap:
        # Psi_{X (x) X', Y} = (Psi_{X,Y} (x) id) o (id (x) Psi_{X',Y}) and
        # Psi_{X, Y (x) Y'} = (id (x) Psi_{X,Y'}) o (Psi_{X,Y} (x) id): the
        # last x crosses the ys first, each x crossing them left to right;
        # x_i meets y_j with x_0..x_(i-1), y_0..y_(j-1) on its left; with
        # no strand on one side nothing crosses
        if not xs or not ys:
            return LinMap.identity(tuple(xs) + tuple(ys))
        ix = [LinMap.identity((x,)) for x in xs]
        iy = [LinMap.identity((y,)) for y in ys]
        return run_pipeline([
            ix[:i] + iy[:j] + [self.braiding(x, y)] + iy[j + 1:] + ix[i + 1:]
            for i, x in reversed(list(enumerate(xs)))
            for j, y in enumerate(ys)])


class VectFlip(BraidingProvider):
    """The symmetric braiding of plain vector spaces: transposition."""

    kind = "VectFlip"

    def __eq__(self, other):
        return type(other) is VectFlip

    def __hash__(self):
        return hash(self.kind)

    def braiding(self, x: Space, y: Space) -> LinMap:
        return flip(x, y)


# the default braiding of every function and bundle that takes one
FLIP = VectFlip()


class YetterDrinfeld(BraidingProvider):
    """Braiding from action / coaction data over a host Hopf algebra, on
    the provider's side: on the right, from X (x) H -> X and X -> X (x) H,
    Psi(x (x) y) = y_(0) (x) (x <| y_(1)); on the left (LeftYetterDrinfeld),
    from H (x) X -> X and X -> H (x) X, Psi(x (x) y) = (x_(-1) |> y) (x) x_(0).

    Registration is per space; braidings of composite objects are assembled
    from the pairwise ones (diagonal structure), so the provider stays finite.
    """

    side = "right"

    def __init__(self, host_space: Space):
        self.host = host_space
        self._reg: Dict[Space, Tuple[LinMap, LinMap]] = {}

    def register(self, space: Space, act: LinMap, coact: LinMap):
        X, H = (space,), (self.host,)
        XH = X + H if self.side == "right" else H + X
        tag = self.side[0]
        require_boundaries((f"act_{tag}", act, XH, X),
                           (f"coact_{tag}", coact, X, XH))
        self._reg[space] = (act, coact)

    def _lookup(self, space: Space):
        if space not in self._reg:
            raise ConfigurationError(f"space {space.name} not registered")
        return self._reg[space]

    def braiding(self, x: Space, y: Space) -> LinMap:
        # a is acted on and c coacts: on the right a = x and c = y,
        # X (x) Y -> X (x) Y (x) H -> Y (x) X (x) H -> Y (x) X; on the left
        # a = y and c = x, and each row is the mirror image
        a, c = (x, y) if self.side == "right" else (y, x)
        act_a = self._lookup(a)[0]
        coact_c = self._lookup(c)[1]
        rows = [[LinMap.identity((a,)), coact_c],
                [flip(x, y), LinMap.identity((self.host,))],
                [LinMap.identity((c,)), act_a]]
        if self.side == "left":
            rows = [row[::-1] for row in rows]
        return run_pipeline(rows)


class LeftYetterDrinfeld(YetterDrinfeld):
    """The left-sided provider: a left action H (x) Y -> Y and a left
    coaction X -> H (x) X braid Psi(x (x) y) = (x_(-1) |> y) (x) x_(0)."""

    side = "left"


# ---------------------------------------------------------------------------
# the whiskered strand kernel: string diagrams without identity padding
# ---------------------------------------------------------------------------

def _function_rows(f: LinMap):
    """f's shape in the kernel, kept on f: False unless f is 0/1 with
    exactly one entry in every column, else (rows, injective, identity)
    with rows[b] the row of column b's one entry.  identity needs equal
    strands as well as rows[b] == b, so a relabelled identity onto other
    strands is none.  It is read off f's entries once, with no by_col;
    LinMap.identity sets it when it builds the map."""
    if f._fn is None:
        n = f.ncols
        fn = False
        if len(f.entries) == n and f.is_ones():
            rows = [-1] * n
            for r, c in f.entries:
                rows[c] = r
            if -1 not in rows:
                fn = (rows, len(set(rows)) == n,
                      f.dom == f.cod and rows == list(range(n)))
        f._fn = fn
    return f._fn


def _is_identity(f: LinMap) -> bool:
    """f is the identity on its strands, a factor the kernel skips: the
    identity flag of its kept shape (_function_rows)."""
    fn = _function_rows(f)
    return fn is not False and fn[2]


def apply_at(m: LinMap, f: LinMap, pos: int) -> LinMap:
    """(id (x) f (x) id) o m for f on m's codomain strands from pos on,
    without building the padded tensor: with D, C the dims of f's domain
    and codomain and R that of the strands right of f, row (a*D + b)*R + c
    of m goes to (a*C + r)*R + c for each entry r of f's column b.

    An identity f returns m.  An injective 0/1 f with one entry in each
    column (a crossing under the flip, a unit insertion) sends each entry
    of m to one entry and no two to the same: the push is a relabelling
    of m's rows, one dict comprehension with no sum and no prune, and its
    image is 0/1 exactly when m is.  Any other f runs the general loop,
    where a 0/1 factor takes no scalar product.  Products of nonzero
    scalars are nonzero, so only a sum can leave a zero to prune.  When f
    and m are both 0/1 every term is 1 and every sum is at least 2, so
    nothing is pruned, and the image is 0/1 exactly when no sum happened:
    its flag is set either way, never left to a scan.  Both paths give
    the same entries in the same order."""
    k = len(f.dom)
    if m.cod[pos:pos + k] != f.dom:
        raise ShapeError(f"cannot apply at strand {pos}: strands differ")
    fn = _function_rows(f)
    if fn is not False and fn[2]:
        return m
    cod = m.cod[:pos] + f.cod + m.cod[pos + k:]
    R = dim_of(m.cod[pos + k:])
    D, C = f.ncols, f.nrows
    DR, CR = D * R, C * R
    if fn is not False and fn[1]:
        rr = [r * R for r in fn[0]]
        out = {(row // DR * CR + rr[row % DR // R] + row % R, col): v
               for (row, col), v in m.entries.items()}
        return LinMap._trusted(m.dom, cod, out,
                               True if m.is_ones() else None)
    fcols = f.by_col()
    f_ones, m_ones = f.is_ones(), m.is_ones()
    out: Dict[Tuple[int, int], Scalar] = {}
    get = out.get
    summed = False
    for (row, col), v in m.entries.items():
        rest = row % DR
        fcol = fcols.get(rest // R)
        if not fcol:
            continue
        base = row // DR * CR + rest % R
        for r, fv in fcol.items():
            key = (base + r * R, col)
            term = v if f_ones else fv if m_ones else fv * v
            cur = get(key)
            if cur is None:
                out[key] = term
            else:
                out[key] = cur + term
                summed = True
    ones = f_ones and m_ones
    if summed and not ones:
        out = {key: v for key, v in out.items() if v}
    return LinMap._trusted(m.dom, cod, out,
                           not summed if ones else None)


def _first_row(factors: List[LinMap]) -> LinMap:
    """f_1 (x) ... (x) f_n, written down entry by entry as the kernel
    would push it from the identity on the factors' domain strands.

    The factors are taken right to left.  Entry (row, col) = v of the
    product so far, of dims C x D, and entry (r, b) = fv of the next
    factor give entry (r*C + row, b*D + col).  Its value is v when the
    factor is 0/1, fv when the product so far is 0/1 (read with is_ones,
    as apply_at reads it) and fv * v otherwise; an identity factor, which
    the kernel skips, leaves the 0/1 flag as it was, and its entries
    (b, b) for b in range(f.ncols) are written without reading its
    columns.  Columns come in ascending order and each column's rows in
    the kernel's order, so even the insertion order of the entries is the
    kernel's."""
    out = {(0, 0): ONE}             # the product so far, by column
    D = C = 1                       # its domain and codomain dims
    ones = True
    for f in reversed(factors):
        if _is_identity(f):
            out = {(b * C + row, b * D + col): v for b in range(f.ncols)
                   for (row, col), v in out.items()}
        else:
            f_ones = f.is_ones()
            m_ones = ones or all(v == ONE for v in out.values())
            ones = f_ones and m_ones
            fcols = sorted(f.by_col().items())
            if f_ones:
                out = {(r * C + row, b * D + col): v for b, fcol in fcols
                       for (row, col), v in out.items() for r in fcol}
            elif m_ones:
                out = {(r * C + row, b * D + col): fv for b, fcol in fcols
                       for row, col in out for r, fv in fcol.items()}
            else:
                out = {(r * C + row, b * D + col): fv * v
                       for b, fcol in fcols for (row, col), v in out.items()
                       for r, fv in fcol.items()}
        D, C = D * f.ncols, C * f.nrows
    return LinMap._trusted(tuple(s for f in factors for s in f.dom),
                           tuple(s for f in factors for s in f.cod),
                           out, True if ones else None)


def run_pipeline(layers: List[List[LinMap]]) -> LinMap:
    """Evaluate a string diagram given as rows of side-by-side factors,
    bottom row first.

    A first row of one factor is the diagram's input as it is; any other
    first row is the tensor product of its factors.  Each later row must
    consume the strands below it exactly.  Its factors are applied right
    to left, so the strands of those still to come keep their positions,
    and a pending tensor among them is applied factor by factor.
    """
    first = layers[0]
    m = first[0] if len(first) == 1 else _first_row(first)
    for layer in layers[1:]:
        pos = len(m.cod)
        if sum(len(f.dom) for f in layer) != pos:
            raise ShapeError(f"layer does not consume all {pos} strands")
        for f in reversed(layer):
            for g in (reversed(_row_factors(f)) if f.__class__ is _Pending
                      else (f,)):
                pos -= len(g.dom)
                m = apply_at(m, g, pos)
    return m


# First-row columns per run of pipeline_as_linmap.  A block shares the
# kernel's per-call set-up among its columns; a fixed small one bounds the
# maps in flight, which matters for the pushes of Phi at dim 64 (phi_apply
# of Delta o m on Radford(8,1,8,1) peaked at 105 MB blocked, 202 MB
# unbounded).
PIPELINE_BLOCK = 32


def pipeline_as_linmap(layers: List[List[LinMap]]) -> LinMap:
    """Materialize a pipeline as a LinMap, PIPELINE_BLOCK columns at a
    time.  The first row is written down once, as run_pipeline writes it;
    its nonzero columns, in ascending order, are then pushed through the
    later rows PIPELINE_BLOCK at a time, and each block's image holds the
    result's entries in its columns.  The kernel never mixes columns, so
    a column's entries, their scalar types and their order do not depend
    on the block it rides in, and a zero column has no image to push."""
    first = run_pipeline(layers[:1])
    cod = tuple(s for f in layers[-1] for s in f.cod)
    cols = sorted(first.by_col().items())
    entries: Dict[Tuple[int, int], Scalar] = {}
    for lo in range(0, len(cols), PIPELINE_BLOCK):
        block = LinMap._trusted(first.dom, first.cod, {
            (r, c): v for c, col in cols[lo:lo + PIPELINE_BLOCK]
            for r, v in col.items()}, True if first._ones else None)
        entries.update(run_pipeline([[block]] + layers[1:]).entries)
    return LinMap._trusted(first.dom, cod, entries)

