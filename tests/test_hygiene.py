"""Source hygiene: every imported name in the package and the tests is used,
every parameter of a package function is read by its body, every private
function of the package is named somewhere in it, every public one has a
reader outside the tests, a private name crosses from one module of the
package to another only where listed, only linmaps evaluates a
diagram's rows, no diagram starts from a built identity, the package
never divides with `/`, every verified failure it raises is built by
CheckReport.require, so carries the report of the check that failed, and
a braiding is taken only where listed."""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from crossbial.datum import HopfDatum
from crossbial.scalars import InputError, VerifiedFailure

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "crossbial").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by an import statement and never read afterwards."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_scanner_flags_an_unused_import():
    src = "import os.path\nfrom a import b, c as d\nx = b.attr\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str):
    """(function, line, parameter) of each parameter, self and cls aside,
    that its function's body never reads; a nested function's reads count
    for the function around it too."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(getattr(fn, "name", "<lambda>"), fn.lineno, p.arg)
                  for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return sorted(found)


# twisting._cocycle_report when its callers still passed the comultiplication
# of B (x) B that only _chi_dot_m reads, abridged
UNREAD_DELTA2 = """\
def _cocycle_report(c: TwoCocycle, bp, delta2: LinMap, chi_m: LinMap
                    ) -> CheckReport:
    b = c.host
    idb = b.id_map()
    g = _generators(chi_m, b.space) if bp == FLIP else None
    return CheckReport([
        _law("2cocycle1", [[idb, chi_m], [c.chi]], [[chi_m, idb], [c.chi]],
             _light_test(chi_m, g))])
"""


def test_the_scanner_flags_an_unread_parameter():
    assert unread_parameters(UNREAD_DELTA2) == [
        ("_cocycle_report", 1, "delta2")]
    src = ("class K:\n    def m(self, x, *args, y=0, **kw):\n"
           "        return lambda z: x + kw['a']\n"
           "    @classmethod\n    def c(cls, u):\n"
           "        def inner(v):\n            return u\n"
           "        return inner\n")
    assert unread_parameters(src) == [
        ("<lambda>", 3, "z"), ("inner", 6, "v"), ("m", 2, "args"),
        ("m", 2, "y")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def divisions(source: str):
    """The line of each `/` or `/=` in source."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, (ast.BinOp, ast.AugAssign))
                  and isinstance(n.op, ast.Div))


def test_the_scanner_flags_a_division():
    src = "a = 1 / 2\nb = 7 // 2\nb /= 3\nc = '1 / 2'\n"
    assert divisions(src) == [1, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_the_package_never_divides_with_a_slash(path):
    # `int / int` is a float; every scalar division of the package goes
    # through scalars.reciprocal, and every integer one is `//`
    assert divisions(path.read_text()) == []


def unreferenced_private(sources):
    """(file, name) of each function or method named with one leading
    underscore whose name is read nowhere in `sources` ({file: text})."""
    trees = {f: ast.parse(text) for f, text in sources.items()}
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return sorted(
        (f, n.name) for f, tree in trees.items() for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.name.startswith("_") and not n.name.startswith("__")
        and n.name not in used)


def test_the_scanner_flags_an_uncalled_private_function():
    srcs = {"a.py": "def _dead(): pass\ndef _used(): pass\n"
                    "class K:\n    def __init__(self): self._m()\n"
                    "    def _m(self): pass\n    def _gone(self): pass\n",
            "b.py": "from a import _used\n_used()\n"}
    assert unreferenced_private(srcs) == [("a.py", "_dead"),
                                          ("a.py", "_gone")]


def test_no_uncalled_private_functions():
    assert unreferenced_private(
        {p.name: p.read_text() for p in PACKAGE}) == []


def names_read(source: str):
    """Every name, attribute and string constant in source: the names a
    reader can reach a definition by, getattr with a string included."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def public_definitions(source: str):
    """(qualified name, name) of each top-level public function and class,
    and of each public method of a public class."""
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub.name)
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_"))


def unread_public(package, readers):
    """(file, qualified name) of each public definition in package
    ({file: text}) whose name no text of readers reads."""
    used = set().union(*map(names_read, readers))
    return sorted((f, q) for f, text in package.items()
                  for q, name in public_definitions(text) if name not in used)


def test_the_scanner_flags_an_unread_public_name():
    package = {"a.py": "def used(): pass\ndef dead(): pass\n"
                       "class K:\n    def m(self): pass\n"
                       "    def gone(self): pass\n    def _p(self): pass\n"
                       "def by_string(): pass\n"}
    readers = ["from a import used, K\nused()\nK().m()\n",
               "getattr(a, 'by_string')\n"]
    assert unread_public(package, readers) == [("a.py", "K.gone"),
                                               ("a.py", "dead")]


def private_imports(sources):
    """(file, module, name) of each private name, one leading underscore,
    that a module of the package imports from another: `from .m import _x`
    or `from crossbial.m import _x`, the module as written."""
    found = set()
    for f, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            if not isinstance(n, ast.ImportFrom) or not (
                    n.level or (n.module or "").startswith("crossbial")):
                continue
            mod = "." * n.level + (n.module or "")
            found.update((f, mod, a.name) for a in n.names
                         if a.name.startswith("_")
                         and not a.name.startswith("__"))
    return sorted(found)


def test_the_scanner_lists_private_imports():
    srcs = {"a.py": "from __future__ import annotations\n"
                    "from .b import _x, y, __all__\n"
                    "from crossbial.c import _z as w\nfrom os import _exit\n"
                    "def f():\n    from .b import _late\n",
            "b.py": "from . import _p\n"}
    assert private_imports(srcs) == [
        ("a.py", ".b", "_late"), ("a.py", ".b", "_x"),
        ("a.py", "crossbial.c", "_z"), ("b.py", ".", "_p")]


# The private names one module of the package reads from another.  Each is
# a core that the importer runs on data it has already verified, or a
# shared helper of one layer; a new one is a decision that has leaked out
# of its module.  How a datum induces its product (_mixed_maps) and its
# trivial pairs (_trivial_forms) stay inside datum, behind
# HopfDatum.product and the omitted pairs of HopfDatum.
PRIVATE_IMPORTS = [
    ("datum.py", ".structures", "_action_report"),
    ("structures.py", ".linmaps", "_reduce_step"),
    ("twisting.py", ".datum", "_datum_laws"),
    ("twisting.py", ".structures", "_convolution_inverse"),
    ("twisting.py", ".structures", "_generators"),
    ("twisting.py", ".structures", "_inverse_report"),
    ("twisting.py", ".structures", "_law"),
    ("twisting.py", ".structures", "_light_test"),
    ("twisting.py", ".structures", "_yd_providers"),
]


def test_private_names_cross_modules_only_where_listed():
    assert private_imports(
        {p.name: p.read_text() for p in PACKAGE}) == PRIVATE_IMPORTS


# The workspace format is one module's decision: every function or method
# whose name holds "json" is defined in cli.py, or in scalars.py, whose
# scalar encoding the workspace codec and the reports share.  The one
# exception is the report format that perfbench/run.py reads.
JSON_HOMES = ("cli.py", "scalars.py")
JSON_ALLOWED = [("structures.py", "CheckReport.to_json")]


def json_definitions(package):
    """(file, qualified name) of each function or method, nested ones too,
    whose name contains "json", in package ({file: text})."""
    found = []

    def visit(f, node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                if not isinstance(sub, ast.ClassDef) and "json" in sub.name:
                    found.append((f, prefix + sub.name))
                visit(f, sub, prefix + sub.name + ".")
            else:
                visit(f, sub, prefix)

    for f, text in package.items():
        visit(f, ast.parse(text), "")
    return sorted(found)


def misplaced_codecs(package):
    return [d for d in json_definitions(package)
            if d[0] not in JSON_HOMES and d not in JSON_ALLOWED]


def test_the_scanner_flags_a_codec_outside_its_home():
    package = {"a.py": "def map_to_json(): pass\n"
                       "class K:\n    def from_json(self):\n"
                       "        def _json_part(): pass\n"
                       "if True:\n    def guarded_json(): pass\n"
                       "class JsonBox: pass\n",
               "cli.py": "def load_json(): pass\n",
               "structures.py": "class CheckReport:\n"
                                "    def to_json(self): pass\n"}
    assert misplaced_codecs(package) == [
        ("a.py", "K.from_json"), ("a.py", "K.from_json._json_part"),
        ("a.py", "guarded_json"), ("a.py", "map_to_json")]


def test_the_workspace_format_lives_in_cli():
    assert misplaced_codecs({p.name: p.read_text() for p in PACKAGE}) == []


def readme_python_tour():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.S)


# Public names that nothing outside the tests reads, and why each stays.
UNREAD_ALLOWED = {
    ("linmaps.py", "LinMap.from_rows"):
        "the dense constructor; the module docstring names dense row-major "
        "matrices as the external contract",
}


def test_every_public_name_has_a_reader():
    readers = [p.read_text() for p in PACKAGE + sorted(
        (ROOT / "perfbench").glob("*.py")) + sorted(
        (ROOT / "tools").glob("*.py"))] + readme_python_tour()
    unread = unread_public({p.name: p.read_text() for p in PACKAGE}, readers)
    assert unread == sorted(UNREAD_ALLOWED)


# Only linmaps evaluates a diagram's rows: every other module of the
# package writes its diagrams with `*` and `@`, and linmaps' run_pipeline
# evaluates them; Phi's top half, too, is a `*` expression lent to the
# push from each inner side.  A pending tensor in a later row is applied
# factor by factor, and
# tests/test_linmaps.py::test_the_doubled_product_map_never_builds_the_padded_permutation
# guards that cost of `@`.
ROW_EVALUATORS = ("run_pipeline", "apply_at")
ROW_EVALUATIONS = []


def row_evaluations(source: str):
    """(function, name) of each read of run_pipeline or apply_at, called
    by name or as an attribute or passed on, in source; the function is
    the innermost one around it, "<module>" at module level.  An import
    is no read."""
    tree = ast.parse(source)
    owner = {}
    # a nested function is walked after the one around it, so it wins
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for n in ast.walk(fn):
                owner[n] = fn.name
    return sorted(
        (owner.get(n, "<module>"), name) for n in ast.walk(tree)
        for name in [getattr(n, "id", None) or getattr(n, "attr", None)]
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load) and name in ROW_EVALUATORS)


def test_the_scanner_flags_a_row_evaluation():
    src = ("from .linmaps import apply_at, run_pipeline\n"
           "def a(f, g):\n    return run_pipeline([[f], [g]])\n"
           "def b(m, f):\n    def c():\n"
           "        return linmaps.apply_at(m, f, 0)\n"
           "    return list(map(run_pipeline, [m]))\n"
           "def d(f, g):\n    return g * (f @ f)\n"
           "evaluate = apply_at\n")
    assert row_evaluations(src) == [
        ("<module>", "apply_at"), ("a", "run_pipeline"),
        ("b", "run_pipeline"), ("c", "apply_at")]


@pytest.mark.parametrize("path", [p for p in PACKAGE
                                  if p.name != "linmaps.py"],
                         ids=lambda p: p.name)
def test_only_linmaps_evaluates_rows(path):
    assert [(path.name, *site) for site in row_evaluations(
        path.read_text())] == [e for e in ROW_EVALUATIONS
                               if e[0] == path.name]


def _is_linmap_identity(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "identity"
            and isinstance(node.value, ast.Name)
            and node.value.id == "LinMap")


def _is_identity_call(node) -> bool:
    return isinstance(node, ast.Call) and _is_linmap_identity(node.func)


def _is_partial_identity_call(node) -> bool:
    """A hand-built partial identity: LinMap._trusted(dom, dom, {(c, c):
    ...}), the same strands twice and a dict comprehension on the
    diagonal.  An injection onto other strands, or keyed off the diagonal,
    is none."""
    if not (isinstance(node, ast.Call) and len(node.args) >= 3
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_trusted"
            and getattr(node.func.value, "id", None) == "LinMap"):
        return False
    dom, cod, entries = node.args[:3]
    return (ast.dump(dom) == ast.dump(cod)
            and isinstance(entries, ast.DictComp)
            and isinstance(entries.key, ast.Tuple)
            and len(entries.key.elts) == 2
            and ast.dump(entries.key.elts[0]) == ast.dump(entries.key.elts[1]))


def _first_row_factor(node):
    """x, when node is the rows [[x]] or [[x]] + rest of a diagram."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        node = node.left
    if (isinstance(node, ast.List) and node.elts
            and isinstance(node.elts[0], ast.List)
            and len(node.elts[0].elts) == 1):
        return node.elts[0].elts[0]
    return None


def _called(node, name) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name
        or getattr(node.func, "attr", None) == name)


def _is_product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def identity_seeded_diagrams(source: str):
    """(function, line) of each diagram started from a built identity: a
    `*` chain whose rightmost operand, the input, is a LinMap.identity(...)
    call or a name the function binds to one; an apply_at call whose input
    is one of those; a run_pipeline call whose first row is one
    hand-built partial identity (LinMap._trusted on the diagonal), written
    inline or bound to a name first; and any LinMap.identity in the body of
    run_pipeline, whose first row is the tensor product of its factors.
    A nested function reports its own name."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigns = [(t.id, n.value) for n in ast.walk(fn)
                   if isinstance(n, ast.Assign)
                   for t in n.targets if isinstance(t, ast.Name)]
        seeds = {name for name, v in assigns if _is_identity_call(v)}
        partial = {name for name, v in assigns
                   if _is_partial_identity_call(v)}
        # the left operand of a `*` is the rest of its chain, not an input
        inner = {n.left for n in ast.walk(fn) if _is_product(n)}
        for n in ast.walk(fn):
            if _is_product(n) and n not in inner and (
                    _is_identity_call(n.right)
                    or getattr(n.right, "id", None) in seeds):
                found[n.lineno] = fn.name
            elif fn.name == "run_pipeline" and _is_linmap_identity(n):
                found[n.lineno] = fn.name
            elif (_called(n, "apply_at") and n.args
                  and (_is_identity_call(n.args[0])
                       or getattr(n.args[0], "id", None) in seeds)):
                found[n.lineno] = fn.name
            elif _called(n, "run_pipeline") and n.args:
                x = _first_row_factor(n.args[0])
                if x is not None and (_is_partial_identity_call(x)
                                      or getattr(x, "id", None) in partial):
                    found[n.lineno] = fn.name
    return sorted((name, line) for line, name in found.items())


# the three identity-seeded diagrams of linmaps.py before first rows were
# built as tensor products, abridged
IDENTITY_SEEDED = """\
class YetterDrinfeld:
    def braiding(self, x, y):
        act_x, _ = self._lookup(x)
        _, coact_y = self._lookup(y)
        m = apply_at(LinMap.identity((x, y)), coact_y, 1)
        return apply_at(apply_at(m, flip(x, y), 0), act_x, 1)

class LeftYetterDrinfeld(YetterDrinfeld):
    def braiding(self, x, y):
        act_y = self._lookup(y)[0]
        coact_x = self._lookup(x)[1]
        m = apply_at(LinMap.identity((x, y)), coact_x, 0)
        return apply_at(apply_at(m, flip(x, y), 1), act_y, 0)

def run_pipeline(layers):
    if len(layers[0]) == 1:
        m, layers = layers[0][0], layers[1:]
    else:
        m = LinMap.identity(tuple(s for f in layers[0] for s in f.dom))
    return m
"""


def test_the_scanner_flags_an_identity_seeded_diagram():
    assert identity_seeded_diagrams(IDENTITY_SEEDED) == [
        ("braiding", 5), ("braiding", 12), ("run_pipeline", 19)]
    src = ("def a(m, f):\n    return apply_at(m, LinMap.identity(f), 0)\n"
           "def b(f):\n    def c():\n"
           "        return linmaps.apply_at(LinMap.identity(f), f, 0)\n"
           "    return LinMap.identity(f)\n")
    assert identity_seeded_diagrams(src) == [("c", 5)]
    # the seed bound to a name first, as YetterDrinfeld.braiding_list had
    # it before its crossings were rows of one pipeline; an identity that
    # is a factor, not the input, is no seed
    src = ("def braiding_list(self, xs, ys):\n"
           "    out = LinMap.identity(xs + ys)\n"
           "    for i in reversed(range(len(xs))):\n"
           "        out = apply_at(out, self.braiding(xs[i], ys[0]), i)\n"
           "    return out\n"
           "def pad(m, f):\n"
           "    i = LinMap.identity(f)\n"
           "    return apply_at(m, i, 0)\n")
    assert identity_seeded_diagrams(src) == [("braiding_list", 4)]


def test_the_scanner_flags_an_expression_seeded_with_an_identity():
    # the rightmost operand of a `*` chain is its input: an identity there,
    # called inline or bound to a name first, seeds the diagram; one that
    # is a middle operand or a factor of a row is none
    src = ("def a(f, xs):\n    return f * LinMap.identity(xs)\n"
           "def b(f, g, xs):\n    i = LinMap.identity(xs)\n"
           "    return (g @ i) * f * (i @ g)\n"
           "def c(f, g, xs):\n    i = LinMap.identity(xs)\n"
           "    return g * (f * i)\n"
           "def d(f, g, xs):\n    i = LinMap.identity(xs)\n"
           "    return (g * i\n            * f)\n")
    assert identity_seeded_diagrams(src) == [("a", 2), ("c", 8)]


# pipeline_as_linmap before its first row was written down once, and the
# per-side block of build_phi_superoperator, abridged: the first pushes a
# partial identity through the first row's factors; the second is an
# injection of the quad onto one inner side, which is no identity
BLOCK_SEEDED = """\
def pipeline_as_linmap(layers):
    entries = {}
    for lo in range(0, n, PIPELINE_BLOCK):
        seed = LinMap._trusted(dom, dom, {
            (c, c): ONE for c in range(lo, min(lo + PIPELINE_BLOCK, n))}, True)
        entries.update(run_pipeline([[seed]] + layers).entries)
    return LinMap._trusted(dom, cod, entries)

def build_phi_superoperator(d):
    for (p, q), terms in bots.items():
        block = LinMap._trusted(d.quad, (s2, s1) + d.quad + (s2, s1), {
            ((p * dV + i) * n + q, i): ONE for i in range(dV)}, True)
        image = run_pipeline([[block]] + inner)
"""


def test_the_scanner_flags_a_partial_identity_first_row():
    assert identity_seeded_diagrams(BLOCK_SEEDED) == [
        ("pipeline_as_linmap", 6)]
    # written inline, as the whole diagram or its first row; a diagonal
    # map between other strands is no identity
    src = ("def a(dom, layers):\n"
           "    return linmaps.run_pipeline([[LinMap._trusted(dom, dom, {\n"
           "        (c, c): ONE for c in range(4)})]])\n"
           "def b(dom, cod, layers):\n"
           "    return run_pipeline([[LinMap._trusted(dom, cod, {\n"
           "        (c, c): ONE for c in range(4)})]] + layers)\n"
           "def c(dom, f, layers):\n"
           "    return run_pipeline([[LinMap._trusted(dom, dom, {\n"
           "        (c, c): ONE for c in range(4)}), f]] + layers)\n")
    assert identity_seeded_diagrams(src) == [("a", 2)]


def test_no_diagram_starts_from_a_built_identity():
    assert [(p.name, *site) for p in PACKAGE
            for site in identity_seeded_diagrams(p.read_text())] == []


def package_exceptions():
    """Every exception class the package defines, the two bases excepted,
    sorted by name."""
    mods = [importlib.import_module(f"crossbial.{p.stem}") for p in PACKAGE
            if p.name != "__init__.py"]
    found = {cls for mod in mods for cls in vars(mod).values()
             if isinstance(cls, type) and issubclass(cls, BaseException)
             and cls.__module__ == mod.__name__}
    return sorted(found - {VerifiedFailure, InputError},
                  key=lambda cls: cls.__name__)


def test_each_exception_has_exactly_one_exit_code_base():
    # VerifiedFailure means exit 1, InputError exit 2 (see cli.main)
    classes = package_exceptions()
    assert classes
    assert [cls.__name__ for cls in classes
            if issubclass(cls, VerifiedFailure) == issubclass(
                cls, InputError)] == []


def named_failures(source: str, names):
    """(line, class) of each call of a class in names, by name or as an
    attribute, whatever its arguments."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in names:
                found.append((n.lineno, name))
    return sorted(found)


# crossproduct.decompose's refusals when they were bare messages, abridged,
# then build_cross_product's hand-built refusal with its report and one
# with report=None
BARE_DECOMPOSE = """\
def decompose(A, sys, braiding=FLIP):
    check_axioms(A, "bialgebra", braiding).require("ambient fails {}")
    if p1 * i1 != LinMap.identity(s1):
        raise InvalidSystemError("p1 o i1 is not the identity")
    if p2 * i2 != LinMap.identity(s2):
        raise InvalidSystemError("p2 o i2 is not the identity")
    for tag, f, src, dst, want in morphisms:
        verdicts.append(classify_morphism(f, src, dst))
        if not verdicts[-1][want]:
            kind = want.split("_")[1]
            raise InvalidSystemError(f"{tag} is not a {kind} morphism")
    if phi_inv * phi != LinMap.identity(s1 + s2):
        raise crossproduct.NotASplittingError("not mutually inverse")
    raise NotABATError("not a BAT", report=verdict)
    raise NotABATError("not a BAT", report=None)
"""


def verified_failure_names():
    return {"VerifiedFailure"} | {cls.__name__ for cls in package_exceptions()
                                  if issubclass(cls, VerifiedFailure)}


def test_the_scanner_flags_a_verified_failure_without_a_report():
    # a refusal built by name is flagged with a report or without one
    assert named_failures(BARE_DECOMPOSE, verified_failure_names()) == [
        (4, "InvalidSystemError"), (6, "InvalidSystemError"),
        (11, "InvalidSystemError"), (13, "NotASplittingError"),
        (14, "NotABATError"), (15, "NotABATError")]


def test_every_verified_failure_carries_a_report():
    # the package builds a verified failure only in CheckReport.require,
    # which raises its error argument (no class name) with report=self;
    # exit 1 always prints a "failing:" line, and a "witness:" line when
    # the entry its message names has a witness
    names = verified_failure_names()
    assert [(p.name, *site) for p in PACKAGE
            for site in named_failures(p.read_text(), names)] == []


# the cached properties of a HopfDatum, kept in its __dict__
KEPT = ("_report", "_induced", "_bottom", "_phi")


def memo_accesses(source: str):
    """(function, line) of each read or write of what a HopfDatum keeps:
    an attribute `x._report`, `x._induced`, `x._bottom` or `x._phi`, or
    one of those names as a string anywhere (getattr, vars(x)[...]).  The
    function is the innermost one around it, "<module>" at module level;
    a property's definition in a class body is neither."""
    tree = ast.parse(source)
    owner = {}
    # a nested function is walked after the one around it, so it wins
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.Lambda)):
            for n in ast.walk(fn):
                if n is not fn:
                    owner[n] = getattr(fn, "name", "<lambda>")
    return sorted(
        (owner.get(n, "<module>"), n.lineno) for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and n.attr in KEPT)
        or (isinstance(n, ast.Constant) and n.value in KEPT))


def test_the_scanner_flags_a_memo_access():
    src = ("class D:\n    @cached_property\n    def _phi(self):\n"
           "        return 1\n"
           "def peek(d):\n    return d._report\n"
           "def poke(d):\n    def inner():\n"
           "        vars(d)['_phi'].clear()\n    return inner\n"
           "x = getattr(D(), '_bottom')\n")
    assert memo_accesses(src) == [("<module>", 11), ("inner", 9),
                                  ("peek", 6)]


def test_only_the_datum_module_touches_the_memo():
    # what a datum keeps is its cached properties, read by five functions
    # of its own module alone; their contract (the maps are immutable, ==,
    # hash and repr ignore them, dataclasses.replace starts afresh) is
    # stated on HopfDatum
    assert all(isinstance(vars(HopfDatum)[k], functools.cached_property)
               for k in KEPT)
    found = {p.name: memo_accesses(p.read_text())
             for p in PACKAGE + SOURCES + sorted(
                 (ROOT / "perfbench").glob("*.py")) + sorted(
                 (ROOT / "tools").glob("*.py"))
             if p.name != Path(__file__).name}
    assert {f for f, sites in found.items() if sites} == {"datum.py"}
    assert {fn for fn, _ in found["datum.py"]} == {
        "check_hopf_datum", "induced_structures", "phi_apply",
        "build_phi_superoperator", "_build_phi_superoperator"}


BRAIDING_NAMES = ("bp", "braiding", "psi")


def braiding_slots(source: str):
    """(owner, name) of each function parameter and annotated class
    attribute (a dataclass field) named bp, braiding or psi; a method's
    owner is Class.method, a lambda's <lambda>.  A method named braiding
    is no slot."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                found.extend(
                    (child.name, st.target.id) for st in child.body
                    if isinstance(st, ast.AnnAssign)
                    and isinstance(st.target, ast.Name)
                    and st.target.id in BRAIDING_NAMES)
                visit(child, child.name + ".")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                a = child.args
                owner = prefix + getattr(child, "name", "<lambda>")
                found.extend((owner, p.arg) for p in
                             a.posonlyargs + a.args + a.kwonlyargs
                             if p.arg in BRAIDING_NAMES)
                visit(child, "")
                continue
            visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_scanner_lists_braiding_slots():
    src = ("@dataclass\nclass D:\n    braiding: object = None\n"
           "    psi = None\n"
           "    def braiding(self, x, y):\n        bp = x\n        return bp\n"
           "    def m(self, *, psi=None):\n"
           "        return lambda bp: bp\n"
           "def f(s, kind, bp=FLIP):\n    def inner(braiding):\n"
           "        return braiding\n    return inner\n")
    assert braiding_slots(src) == [
        ("<lambda>", "bp"), ("D", "braiding"), ("D.m", "psi"),
        ("f", "bp"), ("inner", "braiding")]


# The package's readers of a braiding: the axiom checker, which takes it
# or a fused crossing psi, the Hopf datum and the BAT, which carry theirs,
# and the splitting of a BAT.  Twisting, dual pairings, tensor products
# and the double biproduct live over the flip and take none.
BRAIDING_SLOTS = [
    ("crossproduct.py", "BAT", "braiding"),
    ("crossproduct.py", "decompose", "braiding"),
    ("crossproduct.py", "verify_trivalent_equivalences", "braiding"),
    ("datum.py", "HopfDatum", "braiding"),
    ("datum.py", "trivial_datum", "braiding"),
    ("structures.py", "check_axioms", "bp"),
    ("structures.py", "check_axioms", "psi"),
]


def test_a_braiding_is_taken_only_where_listed():
    assert [(p.name, *slot) for p in PACKAGE
            for slot in braiding_slots(p.read_text())] == BRAIDING_SLOTS
