"""Module boundaries and dead code: no hqz module imports another module's
private names, every definition in hqz is referenced by name, and by the
program itself outside the named references for the unit tests unless it
is one of them, every optional parameter is passed by some call, and by the
program itself unless it is a named seam for the unit tests, and every hqz
name and keyword the benchmark under bench/ uses exists."""

import ast
import importlib
import inspect
from pathlib import Path

import hqz

PACKAGE = Path(hqz.__file__).parent
REPO = PACKAGE.parent.parent


def private_imports(path: Path) -> list[str]:
    """`_name`s that ``path`` imports from other hqz modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "hqz"
        if not inside:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
    return found


def test_no_private_imports_between_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules for hit in private_imports(path)]
    assert found == []


def test_detects_a_private_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .functionals import _hidden, public\n"
                    "from hqz.series import _arr\n"
                    "from numpy import _private_ok\n")
    assert private_imports(path) == ["probe.py:1: functionals._hidden",
                                     "probe.py:2: hqz.series._arr"]


def definitions(path: Path):
    """(qualified name, node) of every module-level function and class in
    ``path`` and of every non-dunder method of those classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield (node.name,), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.endswith("__"):
                    yield (node.name, item.name), item


def outside_modules(tree: ast.Module) -> set[str]:
    """Names that ``import <module>`` binds to a module outside hqz."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "hqz"}


class _Uses(ast.NodeVisitor):
    """Every name and attribute read, with the definitions enclosing it and
    whether it is an attribute, and every call, keyed by the called name.  An attribute of a module outside
    hqz (``O.name`` after ``import oracles as O``) belongs to that module, so
    reading or calling it does not count as a use of an hqz definition."""

    def __init__(self, path: Path, tree: ast.Module, refs: list, calls: dict):
        self.path, self.scope, self.refs, self.calls = path, (), refs, calls
        self.outside = outside_modules(tree)

    def _enter(self, node):
        outer, self.scope = self.scope, self.scope + (node.name,)
        self.generic_visit(node)
        self.scope = outer

    visit_FunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node):
        self.refs.append((self.path, self.scope, node.id, False))

    def _outside(self, node) -> bool:
        return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in self.outside

    def visit_Attribute(self, node):
        if not self._outside(node):
            self.refs.append((self.path, self.scope, node.attr, True))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if not self._outside(func):
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            self.calls.setdefault(name, []).append(node)
        self.generic_visit(node)


def uses(paths: list[Path]) -> tuple[list, dict]:
    refs, calls = [], {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _Uses(path, tree, refs, calls).visit(tree)
    return refs, calls


def inside(path: Path, scope: tuple, names) -> bool:
    """Whether ``scope`` of ``path`` lies in one of the definitions ``names``
    ('module.name' or 'module.Class.method')."""
    return any(f"{path.stem}.{'.'.join(scope[:k])}" in names for k in range(1, len(scope) + 1))


def unreferenced(defining: list[Path], using: list[Path], references=()) -> list[str]:
    """Definitions in ``defining`` whose name no code in ``using`` reads
    outside the definition itself and outside the ``references``; a method
    counts as read only through an attribute (``x.name``), so a local
    variable of the same name hides nothing."""
    refs, _ = uses(using)
    refs = [ref for ref in refs if not inside(ref[0], ref[1], references)]
    found = []
    for path in defining:
        for qual, node in definitions(path):
            method = len(qual) == 2
            if not any(name == qual[-1] and (attr or not method)
                       and not (where == path and scope[:len(qual)] == qual)
                       for where, scope, name, attr in refs):
                found.append(f"{path.name}:{node.lineno}: {'.'.join(qual)}")
    return found


def passed(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter at positional ``index`` (None
    for keyword-only) or named ``name``."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(defining: list[Path], using: list[Path]) -> list[str]:
    """Optional parameters of the functions and methods in ``defining`` that
    no call in ``using`` passes, positionally or by keyword."""
    _, calls = uses(using)
    found = []
    for path in defining:
        for qual, node in definitions(path):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            if len(qual) == 2 and not any(getattr(d, "id", "") == "staticmethod"
                                          for d in node.decorator_list):
                positional = positional[1:]  # self or cls is bound, not passed
            first = len(positional) - len(args.defaults)
            optional = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            optional += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
            for index, name in optional:
                if not any(passed(c, index, name) for c in calls.get(qual[-1], ())):
                    found.append(f"{path.name}:{node.lineno}: {'.'.join(qual)}({name})")
    return found


def trees() -> tuple[list[Path], list[Path]]:
    """(hqz modules, every Python file of hqz, tests/ and bench/)."""
    modules = sorted(PACKAGE.glob("*.py"))
    return modules, modules + sorted((REPO / "tests").rglob("*.py")) + sorted(
        (REPO / "bench").rglob("*.py"))


def test_every_definition_is_referenced():
    modules, everything = trees()
    assert len(modules) > 5 and (REPO / "bench" / "run.py") in everything
    assert unreferenced(modules, everything) == []


PLANTED = """\
def used(a, b=1, *, c=2):
    return a + b + c


def only_recursive(x):
    return only_recursive(x - 1) if x else "only_recursive"


class Box:
    def put(self, item, label=None):
        return item

    def unused_method(self):
        return "unused_method"

    def __repr__(self):
        return "Box"

    def size(self):
        return 0


def recurse(n, depth=0):
    return recurse(n - 1, depth + 1) if n else depth


def measure(items):
    size = len(items)
    return size


used(1, 2)
Box().put(1)
recurse(3)
measure([])
"""


def test_detects_an_unreferenced_definition(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(PLANTED)
    # a string, a call from inside its own body or a local variable named
    # like a method (size in measure) does not count
    assert unreferenced([path], [path]) == ["probe.py:5: only_recursive",
                                            "probe.py:13: Box.unused_method",
                                            "probe.py:19: Box.size"]
    caller = tmp_path / "caller.py"
    caller.write_text("from probe import Box, only_recursive\n"
                      "Box().unused_method()\nonly_recursive(2)\nBox().size()\n")
    assert unreferenced([path], [path, caller]) == []
    # an attribute of a module outside hqz is that module's own name;
    # one of an hqz module is a read
    oracles = tmp_path / "oracles_user.py"
    oracles.write_text("import some_oracles as O\nimport hqz.probe\n"
                       "O.only_recursive(2)\nhqz.probe.Box().unused_method()\n")
    assert unreferenced([path], [path, oracles]) == ["probe.py:5: only_recursive",
                                                     "probe.py:19: Box.size"]


def test_detects_an_unset_optional_parameter(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(PLANTED)
    # b is passed positionally; keyword-only c and Box.put's label (after
    # the bound self) are not; recurse passes its own depth, which counts
    assert unset_parameters([path], [path]) == ["probe.py:1: used(c)",
                                                "probe.py:10: Box.put(label)"]
    caller = tmp_path / "caller.py"
    caller.write_text("used(0, c=3)\nBox().put(1, 'x')\n")
    assert unset_parameters([path], [path, caller]) == []
    # a call of a module outside hqz passes nothing to hqz
    oracles = tmp_path / "oracles_user.py"
    oracles.write_text("import some_oracles as O\nO.used(0, c=3)\n")
    assert unset_parameters([path], [path, oracles]) == ["probe.py:1: used(c)",
                                                         "probe.py:10: Box.put(label)"]


#: definitions that the program never reaches, kept because unit tests check
#: them, or other code against them: (module.name or module.Class.method, why)
REFERENCES = (
    ("ball.AffineBallMap.value", "f(x) = c e_1 + a x; the unit tests evaluate the "
                                 "family with it"),
    ("ball.laplacian_abs_affine", "lap|f| on the ball from the radial field; equals "
                                  "laplacian_abs_f at n = 2"),
    ("functionals.calderon_square", "G[H] at one point by Gauss-Legendre; pins the "
                                    "definition that calderon_norms sums in closed form"),
    ("laplacian.laplacian_abs_f", "pointwise closed form of lap|f|; the audit's stencils "
                                  "are checked against it"),
    ("laplacian.laplacian_ulogu", "pointwise closed form of lap(u log u); the audit's "
                                  "stencils are checked against it"),
    ("planar.jacobian", "|g'|^2 - |h'|^2; shows that random_qr_map is sense-preserving"),
    ("planar.map_from_json", "reads the witness column that fuzz_search writes with "
                             "map_to_json"),
)


def traffic(repo: Path) -> list[Path]:
    """The program: hqz and its CLI scenarios, the benchmark under bench/,
    and the acceptance suite."""
    return (sorted((repo / "src" / "hqz").glob("*.py")) + sorted((repo / "bench").glob("*.py"))
            + [repo / "tests" / "test_acceptance.py"])


def dotted(hit: str) -> str:
    """'ball.py:204: laplacian_abs_affine' -> 'ball.laplacian_abs_affine'."""
    where, qual = hit.split(": ")
    return f"{where.split('.py:')[0]}.{qual}"


def test_every_definition_serves_the_program():
    modules, everything = trees()
    program = traffic(REPO)
    assert modules[0] in program and (REPO / "bench" / "workloads.py") in program
    names = [name for name, _ in REFERENCES]
    assert sorted(dotted(hit) for hit in unreferenced(modules, program, names)) == names
    # and each reference still has a unit test that reads it
    refs, _ = uses([path for path in everything if path not in program])
    read = {name for _, _, name, _ in refs}
    assert [name for name in names if name.split(".")[-1] not in read] == []


#: optional parameters that the program never passes, kept as seams for the
#: unit tests: (module.function(parameter), why)
SEAMS = (
    ("cli.main(argv)", "tests pass an argument list; the console script passes none, "
                       "so main reads sys.argv"),
)


def test_every_optional_parameter_is_passed():
    modules, everything = trees()
    assert unset_parameters(modules, everything) == []
    # and the program passes each one except the seams
    assert sorted(dotted(hit) for hit in unset_parameters(modules, traffic(REPO))) == [
        name for name, _ in SEAMS]


def test_detects_a_definition_only_unit_tests_use(tmp_path):
    (tmp_path / "src" / "hqz").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "tests").mkdir()
    probe = tmp_path / "src" / "hqz" / "probe.py"
    probe.write_text("def accepted():\n    pass\n\n\n"
                     "def benched():\n    pass\n\n\n"
                     "def unit_only():\n    return helper()\n\n\n"
                     "def helper():\n    pass\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("from hqz.probe import accepted\n"
                                                           "accepted()\n")
    (tmp_path / "bench" / "run.py").write_text("from hqz import probe\nprobe.benched()\n")
    (tmp_path / "tests" / "test_probe.py").write_text("from hqz.probe import unit_only\n"
                                                      "unit_only()\n")
    assert unreferenced([probe], traffic(tmp_path)) == ["probe.py:9: unit_only"]
    # a helper that only a reference reads serves no more than the reference
    assert unreferenced([probe], traffic(tmp_path), ["probe.unit_only"]) == [
        "probe.py:9: unit_only", "probe.py:13: helper"]
    assert unreferenced([probe], traffic(tmp_path) + [tmp_path / "tests" / "test_probe.py"]) == []


def bench_contract(paths: list[Path]) -> list[str]:
    """Attributes of hqz modules, classes and functions that ``paths`` read
    and hqz lacks, and keywords they pass to hqz callables whose
    signatures lack them."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the hqz object it was imported as
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update({a.asname or a.name.split(".")[0]: importlib.import_module("hqz")
                              for a in node.names if a.name.split(".")[0] == "hqz"})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hqz":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        bound[alias.asname or alias.name] = getattr(module, alias.name)
                    else:
                        found.append((path.name, node.lineno, f"{path.name}:{node.lineno}: "
                                                   f"{node.module}.{alias.name}"))

        def resolve(expr):
            if isinstance(expr, ast.Name):
                return bound.get(expr.id)
            owner = resolve(expr.value) if isinstance(expr, ast.Attribute) else None
            return None if owner is None else getattr(owner, expr.attr, None)

        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}: "
            if isinstance(node, ast.Attribute):
                owner = resolve(node.value)
                if owner is not None and not hasattr(owner, node.attr):
                    found.append((path.name, node.lineno, where + ast.unparse(node)))
            elif isinstance(node, ast.Call) and callable(fn := resolve(node.func)):
                try:
                    params = inspect.signature(fn).parameters
                except ValueError:  # exception classes take *args
                    continue
                if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                    continue
                found.extend((path.name, node.lineno, where + f"{ast.unparse(node.func)}({kw.arg}=)")
                             for kw in node.keywords if kw.arg and kw.arg not in params)
    return [text for _, _, text in sorted(found)]


def test_bench_uses_only_what_hqz_has():
    paths = sorted((REPO / "bench").glob("*.py"))
    assert (REPO / "bench" / "workloads.py") in paths
    assert bench_contract(paths) == []


def test_detects_a_broken_bench_contract(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from hqz import planar, theorems\n"
                    "from hqz.planar import gone_helper, map_to_json\n"
                    "import hqz\n"
                    "planar.dilatation_sup(None)\n"
                    "planar.no_such_function(1).also_missing\n"
                    "theorems.verify_T2(None, 1.0, None, K=1.0, bogus=2)\n"
                    "theorems.CORPUS_DILATATION_GRID.circle_nodes\n"
                    "hqz.series.ComplexSeries.missing\n"
                    "theorems.fuzz_search(3, 0.5, 16, r=1.0, positivity_margin=0.05)\n"
                    "planar.PlanarHarmonicMap(g=None, h=None, k=0.1)\n")
    assert bench_contract([path]) == ["probe.py:2: hqz.planar.gone_helper",
                                      "probe.py:5: planar.no_such_function",
                                      "probe.py:6: theorems.verify_T2(bogus=)",
                                      "probe.py:8: hqz.series.ComplexSeries.missing",
                                      "probe.py:10: planar.PlanarHarmonicMap(k=)"]
