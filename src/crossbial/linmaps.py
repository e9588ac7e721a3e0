"""Typed exact linear maps between tensor products of labeled spaces.

A LinMap carries its domain and codomain as ordered tuples of Space labels;
the matrix is stored sparsely as {(row, col): Scalar} but the external
contract (JSON, to_rows) is a dense row-major matrix.  Basis order of a
tensor product is lexicographic with the leftmost factor most significant —
every equality downstream depends on this convention.

Composition is `g * f` (apply f first), tensoring is `f @ g`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .scalars import Scalar, ZERO, ONE, as_scalar, scalar_from_json, scalar_to_json


class Space(NamedTuple):
    name: str
    dim: int


SpaceList = Tuple[Space, ...]
UNIT: SpaceList = ()  # the tensor unit k


class ShapeError(ValueError):
    """Boundary mismatch in a composition or construction."""


class NotInvertibleError(ValueError):
    def __init__(self, msg, rank=None):
        super().__init__(msg)
        self.rank = rank


class ConfigurationError(ValueError):
    """A braiding provider was asked about an unregistered space."""


def dim_of(spaces: SpaceList) -> int:
    d = 1
    for s in spaces:
        d *= s.dim
    return d


def _dims(spaces: SpaceList) -> Tuple[int, ...]:
    return tuple(s.dim for s in spaces)


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
    __slots__ = ("dom", "cod", "entries", "_cols", "_rows", "_ones")

    def __init__(self, dom: Iterable[Space], cod: Iterable[Space], entries=None):
        self.dom: SpaceList = tuple(dom)
        self.cod: SpaceList = tuple(cod)
        pruned: Dict[Tuple[int, int], Scalar] = {}
        if entries:
            nr, nc = dim_of(self.cod), dim_of(self.dom)
            for (r, c), v in entries.items():
                if not (0 <= r < nr and 0 <= c < nc):
                    raise ShapeError(f"entry ({r},{c}) outside {nr}x{nc} matrix")
                if v:
                    pruned[(r, c)] = v
        self.entries = pruned
        self._cols: Optional[Dict[int, Dict[int, Scalar]]] = None
        self._rows = None
        self._ones: Optional[bool] = None

    @classmethod
    def _trusted(cls, dom: SpaceList, cod: SpaceList,
                 entries: Dict[Tuple[int, int], Scalar],
                 ones: Optional[bool] = None) -> "LinMap":
        """A map from entries already in range and nonzero (no checks)."""
        f = object.__new__(cls)
        f.dom, f.cod, f.entries = dom, cod, entries
        f._cols = f._rows = None
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
        if self._rows is None:
            rows: Dict[int, Dict[int, Scalar]] = {}
            for (r, c), v in self.entries.items():
                rows.setdefault(r, {})[c] = v
            self._rows = rows
        return self._rows

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
        return LinMap._trusted(spaces, spaces, {(i, i): ONE for i in range(n)},
                               True)

    @staticmethod
    def zero(dom: Iterable[Space], cod: Iterable[Space]) -> "LinMap":
        return LinMap(dom, cod, {})

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

    def to_rows(self) -> List[List[Scalar]]:
        nr, nc = self.nrows, self.ncols
        rows = [[ZERO] * nc for _ in range(nr)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    # -- algebra -----------------------------------------------------------

    def compose(self, f: "LinMap") -> "LinMap":
        """self after f."""
        if f.cod != self.dom:
            raise ShapeError(
                f"cannot compose: inner boundaries differ "
                f"({[s.name for s in f.cod]} vs {[s.name for s in self.dom]})")
        out: Dict[Tuple[int, int], Scalar] = {}
        gcols = self.by_col()
        # A 0/1 factor contributes the other factor's entry unmultiplied;
        # sums of such terms can still cancel, so zeros are pruned below.
        g_ones, f_ones = self.is_ones(), f.is_ones()
        for (k, c), v in f.entries.items():
            col = gcols.get(k)
            if not col:
                continue
            for r, gv in col.items():
                key = (r, c)
                term = v if g_ones else gv if f_ones else gv * v
                cur = out.get(key)
                out[key] = term if cur is None else cur + term
        return LinMap._trusted(f.dom, self.cod,
                               {k: v for k, v in out.items() if v})

    def __mul__(self, other):
        if isinstance(other, LinMap):
            return self.compose(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "LinMap":
        s = as_scalar(s)
        if not s:
            return LinMap.zero(self.dom, self.cod)
        return LinMap(self.dom, self.cod,
                      {k: s * v for k, v in self.entries.items()})

    def tensor(self, other: "LinMap") -> "LinMap":
        # Indices are in range by construction and a product of nonzero
        # field elements is nonzero, so the result needs no checks.  A 0/1
        # factor contributes no product: 1 * x is x exactly.
        nr2, nc2 = other.nrows, other.ncols
        e1, e2 = self.entries.items(), other.entries.items()
        ones1, ones2 = self.is_ones(), other.is_ones()
        if ones2:
            out = {(r1 * nr2 + r2, c1 * nc2 + c2): v1
                   for (r1, c1), v1 in e1 for (r2, c2) in other.entries}
        elif ones1:
            out = {(r1 * nr2 + r2, c1 * nc2 + c2): v2
                   for (r1, c1) in self.entries for (r2, c2), v2 in e2}
        else:
            out = {(r1 * nr2 + r2, c1 * nc2 + c2): v1 * v2
                   for (r1, c1), v1 in e1 for (r2, c2), v2 in e2}
        return LinMap._trusted(self.dom + other.dom, self.cod + other.cod, out,
                               True if ones1 and ones2 else None)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        return self.tensor(other)

    def __add__(self, other: "LinMap") -> "LinMap":
        if self.dom != other.dom or self.cod != other.cod:
            raise ShapeError("sum of maps with different boundaries")
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return LinMap(self.dom, self.cod, out)

    def __sub__(self, other: "LinMap") -> "LinMap":
        return self + (-other)

    def __neg__(self) -> "LinMap":
        return LinMap(self.dom, self.cod, {k: -v for k, v in self.entries.items()})

    def transpose(self) -> "LinMap":
        return LinMap(self.cod, self.dom,
                      {(c, r): v for (r, c), v in self.entries.items()})

    # -- inversion / solving ----------------------------------------------

    def invert(self) -> "LinMap":
        """Exact two-sided inverse, read off the reduced form of [A | I]."""
        n, m = self.nrows, self.ncols
        if n != m:
            raise NotInvertibleError(f"matrix is {n}x{m}, not square")
        rows = self.by_row()
        red = reduce_rows({**rows.get(i, {}), n + i: ONE} for i in range(n))
        rank = sum(1 for c in red if c < n)
        if rank < n:
            raise NotInvertibleError(f"singular matrix (rank {rank} of {n})",
                                     rank=rank)
        return LinMap(self.cod, self.dom, {(i, c - n): v
                                           for i, row in red.items()
                                           for c, v in row.items()})


def _subtract(row: Dict[int, Scalar], factor: Scalar,
              other: Dict[int, Scalar]) -> None:
    """row -= factor * other, in place, keeping row free of zeros."""
    for c, v in other.items():
        cur = row.get(c, ZERO) - factor * v
        if cur:
            row[c] = cur
        else:
            row.pop(c, None)


def reduce_rows(rows: Iterable[Dict[int, Scalar]]
                ) -> Dict[int, Dict[int, Scalar]]:
    """Sparse exact Gauss-Jordan elimination of rows given as {col: Scalar}.

    Returns {pivot col: {other col: coeff}}: each pivot row is scaled so
    that its pivot entry is 1 (left implicit) and mentions no other pivot
    column.  Sorted by pivot, these rows are the reduced row echelon form.
    """
    pivots: Dict[int, Dict[int, Scalar]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        # Pivot rows never mention other pivots, so subtracting them only
        # brings in non-pivot columns and one pass over the row suffices.
        for col in [c for c in row if c in pivots]:
            _subtract(row, row.pop(col), pivots[col])
        if not row:
            continue
        lead = min(row)
        inv = ONE / row.pop(lead)
        row = {c: inv * v for c, v in row.items()}
        for prow in pivots.values():
            if lead in prow:
                _subtract(prow, prow.pop(lead), row)
        pivots[lead] = row
    return pivots


# ---------------------------------------------------------------------------
# wire rerouting
# ---------------------------------------------------------------------------

def permutation(spaces: Iterable[Space], perm: Iterable[int]) -> LinMap:
    """Basis-permutation map; strand i of the domain goes to slot perm[i]."""
    spaces = tuple(spaces)
    perm = tuple(perm)
    k = len(spaces)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a bijection on {k} positions: {perm}")
    cod = [None] * k
    for i, p in enumerate(perm):
        cod[p] = spaces[i]
    cod = tuple(cod)
    ddims, cdims = _dims(spaces), _dims(cod)
    entries = {}
    for flat in range(dim_of(spaces)):
        idx = unflatten(flat, ddims)
        out = [0] * k
        for i, p in enumerate(perm):
            out[p] = idx[i]
        entries[(flatten(tuple(out), cdims), flat)] = ONE
    return LinMap._trusted(spaces, cod, entries, True)


def flip(x: Space, y: Space) -> LinMap:
    return permutation((x, y), (1, 0))


# ---------------------------------------------------------------------------
# braiding providers
# ---------------------------------------------------------------------------

class VectFlip:
    """The symmetric braiding of plain vector spaces: transposition."""

    kind = "VectFlip"

    def __eq__(self, other):
        return type(other) is VectFlip

    def __hash__(self):
        return hash(self.kind)

    def braiding(self, x: Space, y: Space) -> LinMap:
        return flip(x, y)

    def braiding_inverse(self, x: Space, y: Space) -> LinMap:
        return flip(y, x)

    def braiding_list(self, xs: SpaceList, ys: SpaceList) -> LinMap:
        xs, ys = tuple(xs), tuple(ys)
        k, l = len(xs), len(ys)
        perm = tuple(range(l, l + k)) + tuple(range(l))
        return permutation(xs + ys, perm)

    def braiding_list_inverse(self, xs: SpaceList, ys: SpaceList) -> LinMap:
        # the flip is symmetric: Psi^{-1}_{X,Y} = Psi_{Y,X}
        return self.braiding_list(ys, xs)


class YetterDrinfeld:
    """Braiding from right action / right coaction data over a host Hopf
    algebra: Psi(x (x) y) = y_(0) (x) (x <| y_(1)).

    Registration is per space; braidings of composite objects are assembled
    from the pairwise ones (diagonal structure), so the provider stays finite.
    """

    kind = "YetterDrinfeld"

    def __init__(self, host_space: Space):
        self.host = host_space
        self._reg: Dict[Space, Tuple[LinMap, LinMap]] = {}

    def register(self, space: Space, act_r: LinMap, coact_r: LinMap):
        if act_r.dom != (space, self.host) or act_r.cod != (space,):
            raise ShapeError("right action must be X (x) H -> X")
        if coact_r.dom != (space,) or coact_r.cod != (space, self.host):
            raise ShapeError("right coaction must be X -> X (x) H")
        self._reg[space] = (act_r, coact_r)

    def _lookup(self, space: Space):
        if space not in self._reg:
            raise ConfigurationError(f"space {space.name} not registered")
        return self._reg[space]

    def braiding(self, x: Space, y: Space) -> LinMap:
        act_x, _ = self._lookup(x)
        _, coact_y = self._lookup(y)
        idx, idy = LinMap.identity((x,)), LinMap.identity((y,))
        idh = LinMap.identity((self.host,))
        step1 = idx @ coact_y                  # X (x) Y -> X (x) Y (x) H
        step2 = flip(x, y) @ idh               # -> Y (x) X (x) H
        step3 = idy @ act_x                    # -> Y (x) X
        return step3 * step2 * step1

    def braiding_inverse(self, x: Space, y: Space) -> LinMap:
        return self.braiding(x, y).invert()

    def braiding_list(self, xs: SpaceList, ys: SpaceList) -> LinMap:
        xs, ys = tuple(xs), tuple(ys)
        if not xs:
            return LinMap.identity(ys)
        if not ys:
            return LinMap.identity(xs)
        if len(xs) == 1 and len(ys) == 1:
            return self.braiding(xs[0], ys[0])
        if len(xs) > 1:
            # Psi_{X (x) X', Y} = (Psi_{X,Y} (x) id) o (id (x) Psi_{X',Y})
            head, tail = xs[:1], xs[1:]
            inner = LinMap.identity(head) @ self.braiding_list(tail, ys)
            outer = self.braiding_list(head, ys) @ LinMap.identity(tail)
            return outer * inner
        # single x, several ys: Psi_{X, Y (x) Y'} = (id (x) Psi_{X,Y'}) o (Psi_{X,Y} (x) id)
        head, tail = ys[:1], ys[1:]
        first = self.braiding_list(xs, head) @ LinMap.identity(tail)
        second = LinMap.identity(head) @ self.braiding_list(xs, tail)
        return second * first

    def braiding_list_inverse(self, xs: SpaceList, ys: SpaceList) -> LinMap:
        return self.braiding_list(xs, ys).invert()


class LeftYetterDrinfeld(YetterDrinfeld):
    """Left-sided variant: Psi(x (x) y) = (x_(-1) |> y) (x) x_(0), from a
    left action H (x) Y -> Y and a left coaction X -> H (x) X."""

    kind = "LeftYetterDrinfeld"

    def register(self, space: Space, act_l: LinMap, coact_l: LinMap):
        if act_l.dom != (self.host, space) or act_l.cod != (space,):
            raise ShapeError("left action must be H (x) X -> X")
        if coact_l.dom != (space,) or coact_l.cod != (self.host, space):
            raise ShapeError("left coaction must be X -> H (x) X")
        self._reg[space] = (act_l, coact_l)

    def braiding(self, x: Space, y: Space) -> LinMap:
        act_y = self._lookup(y)[0]
        coact_x = self._lookup(x)[1]
        idx, idy = LinMap.identity((x,)), LinMap.identity((y,))
        idh = LinMap.identity((self.host,))
        step1 = coact_x @ idy                  # X (x) Y -> H (x) X (x) Y
        step2 = idh @ flip(x, y)               # -> H (x) Y (x) X
        step3 = act_y @ idx                    # -> Y (x) X
        return step3 * step2 * step1


# ---------------------------------------------------------------------------
# sparse layer pipelines (for tall diagram evaluation)
# ---------------------------------------------------------------------------

def apply_factor_layer(factors: List[LinMap], vec: Dict[Tuple[int, ...], Scalar]):
    """Apply a horizontal row of maps to a vector keyed by per-strand indices.

    The factors consume the strands left to right; strand counts must add up.
    """
    dspans = [len(f.dom) for f in factors]
    fdims = [_dims(f.dom) for f in factors]
    cdims = [_dims(f.cod) for f in factors]
    ones = [f.is_ones() for f in factors]
    out: Dict[Tuple[int, ...], Scalar] = {}
    for key, val in vec.items():
        terms = [((), val)]
        pos = 0
        for f, span, fd, cd, f_ones in zip(factors, dspans, fdims, cdims, ones):
            sub = key[pos:pos + span]
            pos += span
            col = f.column(flatten(sub, fd))
            if not col:
                terms = []
                break
            # a 0/1 factor passes coef through unmultiplied
            terms = [(prefix + unflatten(r, cd), coef if f_ones else coef * rv)
                     for prefix, coef in terms for r, rv in col.items()]
        for tup, coef in terms:
            cur = out.get(tup)
            out[tup] = coef if cur is None else cur + coef
    return {k: v for k, v in out.items() if v}


def run_pipeline(layers: List[List[LinMap]], vec):
    for layer in layers:
        vec = apply_factor_layer(layer, vec)
        if not vec:
            break
    return vec


def pipeline_as_linmap(layers: List[List[LinMap]]) -> LinMap:
    """Materialize a pipeline as a LinMap (domain read off the first layer)."""
    dom = tuple(s for f in layers[0] for s in f.dom)
    cod = tuple(s for f in layers[-1] for s in f.cod)
    ddims, cdims = _dims(dom), _dims(cod)
    entries = {}
    for c in range(dim_of(dom)):
        vec = {unflatten(c, ddims): ONE}
        for tup, v in run_pipeline(layers, vec).items():
            entries[(flatten(tup, cdims), c)] = v
    return LinMap(dom, cod, entries)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def json_int(x) -> int:
    """x itself if it is a JSON integer; a float, bool or string is refused
    with ValueError rather than truncated or parsed."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def linmap_to_json(f: LinMap) -> dict:
    return {
        "dom": [s.name for s in f.dom],
        "cod": [s.name for s in f.cod],
        "matrix": [[scalar_to_json(v) for v in row] for row in f.to_rows()],
    }


def linmap_from_json(obj: dict, spaces: Dict[str, Space]) -> LinMap:
    try:
        dom = tuple(spaces[n] for n in obj["dom"])
        cod = tuple(spaces[n] for n in obj["cod"])
        matrix = obj["matrix"]
    except KeyError as e:
        raise ShapeError(f"bad LinMap encoding: missing {e}") from e
    rows = [[scalar_from_json(v) for v in row] for row in matrix]
    return LinMap.from_rows(dom, cod, rows)
