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
"""

import ast
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
