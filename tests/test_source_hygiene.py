"""Static checks on the package source: no module-level import goes unused,
and every name that ``gridcode.__all__`` exports exists."""

import ast
from pathlib import Path

import pytest

import gridcode

SOURCES = sorted(Path(gridcode.__file__).parent.glob("*.py"))


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
