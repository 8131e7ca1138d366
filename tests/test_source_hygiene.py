"""Static checks on the package source: no module-level import goes unused,
every name that ``gridcode.__all__`` exports exists, and every module-level
function and class is read somewhere."""

import ast
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


def _reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name the module reads: loaded names, attributes,
    imported names and string constants (``__all__`` entries, names looked
    up by string)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def test_module_level_definitions_are_read():
    reads = {path: _reads(ast.parse(path.read_text())) for path in READERS}
    unread = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (where != path or line not in span)
                       for where in READERS for name, line in reads[where]):
                unread.append(f"{path.name}:{node.name}")
    assert unread == []
