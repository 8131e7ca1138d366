"""Static checks on the package source: no module-level import goes unused,
every name that ``gridcode.__all__`` exports exists, every module-level
function and class and every class member is read somewhere, and every
runtime dependency is imported."""

import ast
import re
from pathlib import Path

import pytest

import gridcode

SOURCES = sorted(Path(gridcode.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
READERS = sorted(p for folder in ("src", "tests", "bench") for p in (ROOT / folder).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that the module never
    reads (``__all__`` entries count as reads, for re-exports)."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_all_names_resolve():
    assert len(set(gridcode.__all__)) == len(gridcode.__all__)
    assert [name for name in gridcode.__all__ if not hasattr(gridcode, name)] == []


def _reads(tree: ast.Module, members: bool = False) -> list[tuple[str, int]]:
    """(name, line) of every name the module reads: loaded names, attributes,
    imported names and string constants (``__all__`` entries, names looked
    up by string).  A class member is read only through an attribute or a
    string, so with ``members`` the loaded and imported names are left out."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
        elif members:
            continue
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(a.name, node.lineno) for a in node.names]
    return out


def _unread(definitions, members: bool = False) -> list[str]:
    """Labels of the (path, label, name, node) definitions whose name nothing
    in ``READERS`` reads outside the definition itself."""
    reads = {path: _reads(ast.parse(path.read_text()), members) for path in READERS}
    unread = []
    for path, label, name, node in definitions:
        span = range(node.lineno, node.end_lineno + 1)
        if not any(read == name and (where != path or line not in span)
                   for where in READERS for read, line in reads[where]):
            unread.append(f"{path.name}:{label}")
    return unread


def test_module_level_definitions_are_read():
    assert _unread(
        (path, node.name, node.name, node)
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ) == []


def _members(cls: ast.ClassDef):
    """(name, node) of a class's methods, properties and annotated fields
    (dataclass and NamedTuple), dunder names left out."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield name, node


def test_class_members_are_read():
    assert _unread((
        (path, f"{cls.name}.{name}", name, node)
        for path in SOURCES
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for name, node in _members(cls)
    ), members=True) == []


def test_runtime_dependencies_are_imported():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    required = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(required - imported) == []
