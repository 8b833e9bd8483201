"""Every module-level import of a gevlab module is used in that module.

Parses the sources with `ast`, so it needs no lint tool.  `__init__.py`
re-exports its imports and is left out.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "gevlab"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [n for n in _imported_names(tree) if n not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
