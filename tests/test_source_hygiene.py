"""Source hygiene of the gpcal package, checked on its syntax trees.

Every imported name is used or re-exported through ``__all__``, every
private module-level function or class and every private method is
referenced somewhere in the package outside its own definition, and every
private module-level constant is read somewhere in the package, so that a
deletion leaves no orphan behind.  Every public module-level function is
called from the package outside its own definition, from the benchmark
(``perfbench``) or the demos, or named in the README; every other public
class or method is either listed in an ``__all__`` or referenced from those
places.  Code that only the tests call does not belong in the package, and
an ``__all__`` entry does not excuse a function.
Every private name cited in backticks in a docstring, a comment or the
README names something the package defines, so that prose does not
outlive the code it describes.  The package calls scipy.linalg only
through its LAPACK and BLAS wrappers (``scipy.linalg.lapack``,
``scipy.linalg.blas``): the front-ends such as ``solve_triangular``,
``cholesky`` or ``cho_solve`` check and batch their arguments at a cost of
several microseconds a call, more than a solve at the sizes gpcal runs.
No module reads the environment (``os.environ``, ``os.getenv``), imports
``concurrent.futures`` or ``multiprocessing``, or constructs a
``threading.Thread``: a call's result depends on its arguments alone, and
it runs on the caller's thread (``blas`` may hold a ``threading.Lock``).
A ``FittedGp`` is constructed only in ``gp._solve``, and only gp.py calls
``factor_covariance`` and ``solve_gls``: every solved model, whether for
``fit_gp``, a fit's evaluation or a calibration, is assembled one way.
Every defaulted parameter of a public function or method, and every
defaulted field of a public dataclass, is passed by some call in the
package, the benchmark or the demos, by keyword or by position: a default
that no caller sets is a constant of its module, not a knob.
"""

import ast
import math
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpcal"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) \
    + sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(node) -> Counter:
    """Identifiers read under node: bare names and attribute names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _dunder_all(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree, keep) -> list:
    """Module-level functions and classes, and methods of module-level
    classes, whose names pass keep."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs) and keep(node.name):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [m for m in node.body
                    if isinstance(m, defs[:2]) and keep(m.name)]
    return out


def _private_constants(tree) -> list:
    """Names bound by module-level assignments that pass _private."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and _private(sub.id):
                    out.append(sub.id)
    return out


def _reads(trees) -> Counter:
    """Identifiers loaded in trees: bare names and attribute names."""
    out = Counter()
    for tree in trees:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out[sub.id] += 1
            elif isinstance(sub, ast.Attribute) and \
                    isinstance(sub.ctx, ast.Load):
                out[sub.attr] += 1
    return out


def _references(trees) -> Counter:
    """Identifiers read in trees, names imported from a module included."""
    refs = Counter()
    for tree in trees:
        refs += _names(tree)
        refs += Counter(a.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        for a in node.names)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used(path):
    tree = _tree(path)
    used = _names(tree)
    exported = _dunder_all(tree)
    unused = [name for name in _imported(tree)
              if not used[name] and name not in exported]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_private_definitions_are_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    refs = _references(trees.values())
    orphans = [f"{name}: {node.name}"
               for name, tree in trees.items()
               for node in _definitions(tree, _private)
               if refs[node.name] <= _names(node)[node.name]]
    assert not orphans, f"unreferenced private definitions: {orphans}"


def _uncalled_functions(trees: dict, callers: list, readme: str) -> list:
    """Public module-level functions of trees, as "module: name", that no
    code in trees or callers reads outside their own definition and that
    readme does not name.  Names imported from a module do not count, so
    neither does a re-export or an ``__all__`` entry."""
    calls = Counter()
    for tree in [*trees.values(), *callers]:
        calls += _names(tree)
    return [f"{name}: {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and calls[node.name] <= _names(node)[node.name]
            and not re.search(rf"\b{node.name}\b", readme)]


def test_public_definitions_are_exported_or_used():
    trees = {path.name: _tree(path) for path in MODULES}
    callers = list(map(_tree, CALLERS))
    refs = _references([*trees.values(), *callers])
    exported = set().union(*map(_dunder_all, trees.values()))
    unused = [f"{name}: {node.name}"
              for name, tree in trees.items()
              for node in _definitions(tree, lambda n: not n.startswith("_"))
              if node.name not in exported
              and refs[node.name] <= _names(node)[node.name]]
    unused += _uncalled_functions(trees, callers, README)
    assert not unused, f"public definitions only tests use: {unused}"


def test_function_rule_ignores_all_entries():
    module = ast.parse(
        '__all__ = ["helper", "used", "benched", "documented"]\n'
        "def helper(x):\n    return helper(x - 1) if x else 0\n"
        "def used():\n    pass\n"
        "def benched():\n    pass\n"
        "def documented():\n    pass\n"
        "def _private():\n    return used()\n")
    caller = ast.parse("from gpcal.m import benched, helper\nbenched()\n")
    assert _uncalled_functions({"m.py": module}, [caller],
                               "Call `documented()` first.") \
        == ["m.py: helper"]


def test_private_constants_are_read():
    trees = {path.name: _tree(path) for path in MODULES}
    reads = _reads(trees.values())
    constants = [(name, const) for name, tree in trees.items()
                 for const in _private_constants(tree)]
    assert constants
    orphans = [f"{name}: {const}" for name, const in constants
               if not reads[const]]
    assert not orphans, f"private constants never read: {orphans}"


def _bound_names(tree) -> set:
    """Every name a tree binds: functions, classes, arguments, assigned
    names and assigned attributes."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            out.add(sub.name)
        elif isinstance(sub, ast.arg):
            out.add(sub.arg)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.ctx, ast.Store):
            out.add(sub.attr)
    return out


def _prose(path) -> str:
    """The docstrings and comments of a module."""
    tree = _tree(path)
    docs = [ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    with tokenize.open(path) as fh:
        comments = [tok.string for tok in tokenize.generate_tokens(fh.readline)
                    if tok.type == tokenize.COMMENT]
    return "\n".join(docs + comments)


def _cited_private_names(text: str) -> set:
    """Private names in backticked dotted names of text, such as
    ``rpie._brent`` or `_Side.refine()`."""
    spans = re.findall(r"`+([^`]+?)`+", text)
    return {part for span in spans
            if re.fullmatch(r"[A-Za-z_][\w.]*(\(\))?", span)
            for part in span.removesuffix("()").split(".") if _private(part)}


def test_cited_private_names_are_defined():
    defined = set().union(*(_bound_names(_tree(path)) for path in MODULES))
    sources = [(path.name, _prose(path)) for path in MODULES] \
        + [("README.md", (ROOT / "README.md").read_text())]
    cited = [(name, part) for name, text in sources
             for part in _cited_private_names(text)]
    assert cited
    stale = sorted(f"{name}: {part}" for name, part in cited
                   if part not in defined)
    assert not stale, f"backticked private names with no definition: {stale}"


# What the package may read from scipy.linalg: the raw LAPACK and BLAS
# wrappers, and the error class numpy and scipy raise.
_LINALG_ALLOWED = {"lapack", "blas", "LinAlgError"}


def _linalg_front_end_calls(tree) -> list:
    """Calls and imports of scipy.linalg routines other than its LAPACK
    and BLAS wrappers, as "line: name"."""
    aliases, scipys, out = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "scipy.linalg" and a.asname:
                    aliases.add(a.asname)
                elif a.name.split(".")[0] == "scipy" and not a.asname:
                    scipys.add("scipy")
                elif a.name == "scipy":
                    scipys.add(a.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "scipy":
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "linalg"}
            elif node.module == "scipy.linalg":
                out += [f"{node.lineno}: {a.name}" for a in node.names
                        if a.name not in _LINALG_ALLOWED]

    def is_linalg(value) -> bool:
        if isinstance(value, ast.Name):
            return value.id in aliases
        return isinstance(value, ast.Attribute) and value.attr == "linalg" \
            and isinstance(value.value, ast.Name) \
            and value.value.id in scipys

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                is_linalg(node.func.value) and \
                node.func.attr not in _LINALG_ALLOWED:
            out.append(f"{node.lineno}: {node.func.attr}")
    return out


@pytest.mark.parametrize("source", [
    "from scipy import linalg\nlinalg.solve_triangular(a, b)",
    "from scipy import linalg as sl\nsl.cho_solve((c, True), b)",
    "import scipy.linalg\nscipy.linalg.cholesky(a)",
    "import scipy.linalg as sla\nsla.solve(a, b)",
    "from scipy.linalg import cho_factor",
])
def test_linalg_rule_flags_front_ends(source):
    assert _linalg_front_end_calls(ast.parse(source))


def test_linalg_rule_allows_lapack_and_blas():
    source = ("from scipy import linalg\n"
              "from scipy.linalg import blas\n"
              "linalg.lapack.dtrtrs(a, b)\nblas.dtrmm(1.0, a, b)\n"
              "try:\n    pass\nexcept linalg.LinAlgError:\n    pass\n")
    assert not _linalg_front_end_calls(ast.parse(source))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_linalg_front_ends(path):
    calls = _linalg_front_end_calls(_tree(path))
    assert not calls, f"{path.name}: scipy.linalg front-ends {calls}"


_POOL_MODULES = {"concurrent", "multiprocessing"}
_ENVIRONMENT = {"environ", "getenv"}


def _environment_and_threads(tree) -> list:
    """Reads of the environment, imports of process or thread pools and
    references to ``threading.Thread``, as "line: name".  Any attribute
    named environ, getenv or Thread counts, whatever module alias it is
    read through."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [f"{node.lineno}: {a.name}" for a in node.names
                    if a.name.split(".")[0] in _POOL_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            out += [f"{node.lineno}: {node.module}.{a.name}"
                    for a in node.names
                    if root in _POOL_MODULES
                    or (root == "os" and a.name in _ENVIRONMENT)
                    or (root == "threading" and a.name == "Thread")]
        elif isinstance(node, ast.Attribute) and \
                (node.attr in _ENVIRONMENT or node.attr == "Thread"):
            out.append(f"{node.lineno}: .{node.attr}")
    return out


@pytest.mark.parametrize("source", [
    'import os\nos.environ.get("RPIE_THREADS", "")',
    'import os\nos.getenv("HOME")',
    "from os import environ",
    "from concurrent.futures import ThreadPoolExecutor",
    "import concurrent.futures",
    "import multiprocessing as mp",
    "from multiprocessing.pool import Pool",
    "import threading\nthreading.Thread(target=print).start()",
    "import threading as th\nclass Worker(th.Thread):\n    pass",
    "from threading import Thread",
])
def test_environment_and_thread_rule_flags(source):
    assert _environment_and_threads(ast.parse(source))


def test_environment_and_thread_rule_allows_lock_and_paths():
    source = ("import os\nimport threading\n_lock = threading.Lock()\n"
              'os.path.join(os.path.dirname("a"), "b")\n')
    assert not _environment_and_threads(ast.parse(source))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads_or_threads(path):
    found = _environment_and_threads(_tree(path))
    assert not found, f"{path.name}: environment reads or threads {found}"


# The two steps of a solved model, which only gp.py may call.
_ASSEMBLY_STEPS = {"factor_covariance", "solve_gls"}


def _called(node) -> str | None:
    """The name a call calls, bare or as an attribute."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _assembly_outside_solve(tree, module: str) -> list:
    """Constructions of ``FittedGp`` outside ``gp._solve`` and calls of
    ``factor_covariance`` or ``solve_gls`` outside gp.py, as "line:
    name", so that every solved model is assembled in one place."""
    out = []
    for top in tree.body:
        in_solve = module == "gp.py" and isinstance(top, ast.FunctionDef) \
            and top.name == "_solve"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = _called(node)
            if (name == "FittedGp" and not in_solve) or \
                    (name in _ASSEMBLY_STEPS and module != "gp.py"):
                out.append(f"{node.lineno}: {name}")
    return out


@pytest.mark.parametrize("module, source", [
    ("gp.py", "def fit_gp(ds, k, t):\n"
              "    K, L, j = factor_covariance(g, k.nugget, k.sigma2)\n"
              "    return FittedGp(dataset=ds, K=K, gls=solve_gls(F, L, y))"),
    ("gp.py", "class Cache:\n    def model(self):\n"
              "        return FittedGp(**self.parts)"),
    ("bench.py", "from . import gp\nL = gp.factor_covariance(g, 0, 1)[1]"),
    # The assemblies estimation and rpie made for themselves before
    # gp._solve: the fit loop's and the zero-nugget lambda state's.
    ("estimation.py",
     "class _Design:\n"
     "    def fit(self, kernel):\n"
     "        K, L, jitter = factor_covariance(kernel.sigma2 * r,\n"
     "                                         kernel.nugget,\n"
     "                                         kernel.sigma2)\n"
     "        model = FittedGp(dataset=self.dataset, kernel=kernel,\n"
     "                         trend=self.trend, F=self.F, K=K,\n"
     "                         gls=solve_gls(self.F, L, self.dataset.y),\n"
     "                         jitter_used=jitter)\n"
     "        return model, h, r\n"),
    ("rpie.py",
     "class _LambdaState:\n"
     "    def __init__(self, cal, lam):\n"
     "        self.R, L, _ = factor_covariance(self.R, 0.0, 1.0)\n"
     "        gls = solve_gls(cal.F, L, self._y)\n"),
])
def test_assembly_rule_flags(module, source):
    assert _assembly_outside_solve(ast.parse(source), module)


@pytest.mark.parametrize("module, source", [
    ("gp.py", "def _solve(dataset, kernel, trend, F, gram):\n"
              "    K, L, jitter = factor_covariance(gram, kernel.nugget,\n"
              "                                     kernel.sigma2)\n"
              "    return FittedGp(dataset=dataset, K=K,\n"
              "                    gls=solve_gls(F, L, dataset.y))\n"
              "def check():\n    return factor_covariance(g, 0.0, 1.0)"),
    ("estimation.py", "def fit(self, kernel) -> FittedGp:\n"
                      "    return _solve(self.dataset, kernel, self.trend,\n"
                      "                  self.F, kernel.sigma2 * r)"),
    ("rpie.py", "def f(model: FittedGp):\n"
                "    return isinstance(model, FittedGp)"),
])
def test_assembly_rule_allows(module, source):
    assert not _assembly_outside_solve(ast.parse(source), module)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_model_assembly(path):
    found = _assembly_outside_solve(_tree(path), path.name)
    assert not found, f"{path.name}: a model assembled outside " \
        f"gp._solve {found}"


def _is_dataclass(node) -> bool:
    """Whether a class is decorated with dataclass, bare or called, by
    name or as ``dataclasses.dataclass``."""
    targets = [dec.func if isinstance(dec, ast.Call) else dec
               for dec in node.decorator_list]
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass"
               for t in targets)


def _defaults(tree) -> list:
    """(owner, parameter, the name calls call it by, its positional slot
    or None) of each defaulted parameter of a public function or method
    and each defaulted field of a public dataclass.  A method's slots
    count from the argument after self or cls."""
    out = []

    def function(node, owner, bound):
        if node.name.startswith("_"):
            return
        args = node.args
        positional = [*args.posonlyargs, *args.args][bound:]
        first = len(positional) - len(args.defaults)
        out.extend((owner + node.name, arg.arg, node.name, slot)
                   for slot, arg in enumerate(positional[first:], first))
        out.extend((owner + node.name, arg.arg, node.name, None)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None)

    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            function(top, "", 0)
        if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
            continue
        for node in top.body:
            if isinstance(node, ast.FunctionDef):
                static = any(isinstance(dec, ast.Name)
                             and dec.id == "staticmethod"
                             for dec in node.decorator_list)
                function(node, top.name + ".", 0 if static else 1)
        if _is_dataclass(top):
            fields = [node for node in top.body
                      if isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)]
            out.extend((top.name, field.target.id, top.name, slot)
                       for slot, field in enumerate(fields)
                       if field.value is not None
                       and not field.target.id.startswith("_"))
    return out


def _unset_defaults(trees: dict, callers: list) -> list:
    """Defaulted parameters and dataclass fields of trees, as "module:
    owner.name", that no call in trees or callers passes by keyword or
    by position.  Calls match by the name they call; a ``**mapping``
    passes every keyword and a ``*sequence`` every position."""
    keywords, positions = {}, Counter()
    for tree in [*trees.values(), *callers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called(node):
                name = _called(node)
                keywords.setdefault(name, set()).update(
                    kw.arg for kw in node.keywords)
                starred = any(isinstance(arg, ast.Starred)
                              for arg in node.args)
                positions[name] = max(positions[name], math.inf if starred
                                      else len(node.args))
    return [f"{module}: {owner}.{param}"
            for module, tree in trees.items()
            for owner, param, name, slot in _defaults(tree)
            if not keywords.get(name, set()) & {param, None}
            and (slot is None or positions[name] <= slot)]


@pytest.mark.parametrize("source, caller, flagged", [
    ("def fit_mle(ds, nugget=0.0, n_starts=5, seed=0):\n    pass",
     "fit_mle(ds, nugget=1e-4, seed=3)", ["m.py: fit_mle.n_starts"]),
    ("def fit(ds, *, starts=5):\n    pass", "fit(ds)", ["m.py: fit.starts"]),
    ("class Model:\n    def predict(self, x, batch=64):\n        pass",
     "model.predict(x)", ["m.py: Model.predict.batch"]),
    ("from dataclasses import dataclass\n"
     "@dataclass(frozen=True)\nclass McmcConfig:\n"
     "    n_samples: int = 2000\n    burn_in: int = 500\n"
     "    proposal_scale: float = 0.1\n    seed: int = 0",
     "McmcConfig(seed=seed)",
     ["m.py: McmcConfig.n_samples", "m.py: McmcConfig.burn_in",
      "m.py: McmcConfig.proposal_scale"]),
    # A call of another name sets nothing.
    ("def predict(x, alpha=0.1):\n    pass", "other(x, alpha=0.2)",
     ["m.py: predict.alpha"]),
])
def test_unset_default_rule_flags(source, caller, flagged):
    assert _unset_defaults({"m.py": ast.parse(source)},
                           [ast.parse(caller)]) == flagged


@pytest.mark.parametrize("source, caller", [
    # A positional argument sets the field in its slot.
    ("import dataclasses\n"
     "@dataclasses.dataclass(frozen=True)\nclass SmoothingParams:\n"
     "    delta: float = 1e-2", "SmoothingParams(args.delta)"),
    ("def fit(ds, nugget=0.0, seed=0):\n    pass",
     "fit(ds, 1e-4)\nfit(ds, seed=2)"),
    ("class Model:\n    def predict(self, x, batch=64):\n        pass",
     "model.predict(x, 16)"),
    ("def run(name, alpha=0.1):\n    pass", "run(*argv)"),
    ("def run(name, alpha=0.1):\n    pass", "run(name, **options)"),
    # Private functions and classes, and plain classes' fields.
    ("def _helper(x, k=2):\n    pass\n"
     "class _Design:\n    def fit(self, kernel, cache=None):\n"
     "        pass\n"
     "class Report:\n    rows: list = None", "_helper(1)"),
])
def test_unset_default_rule_allows(source, caller):
    assert not _unset_defaults({"m.py": ast.parse(source)},
                               [ast.parse(caller)])


def test_every_default_is_set_by_a_caller():
    trees = {path.name: _tree(path) for path in MODULES}
    unset = _unset_defaults(trees, list(map(_tree, CALLERS)))
    assert not unset, f"defaults no package, benchmark or demo call " \
        f"sets: {unset}"
