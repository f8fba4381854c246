"""Source hygiene of the gpcal package, checked on its syntax trees.

Every imported name is used or re-exported through ``__all__``, every
private module-level function or class and every private method is
referenced somewhere in the package outside its own definition, and every
private module-level constant is read somewhere in the package, so that a
deletion leaves no orphan behind.  Every public one is either listed in an
``__all__`` or referenced from the package, the benchmark (``perfbench``)
or the demos: code that only the tests call does not belong in the package.
Every private name cited in backticks in a docstring, a comment or the
README names something the package defines, so that prose does not
outlive the code it describes.
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


def test_public_definitions_are_exported_or_used():
    trees = {path.name: _tree(path) for path in MODULES}
    refs = _references([*trees.values(), *map(_tree, CALLERS)])
    exported = set().union(*map(_dunder_all, trees.values()))
    unused = [f"{name}: {node.name}"
              for name, tree in trees.items()
              for node in _definitions(tree, lambda n: not n.startswith("_"))
              if node.name not in exported
              and refs[node.name] <= _names(node)[node.name]]
    assert not unused, f"public definitions only tests use: {unused}"


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
