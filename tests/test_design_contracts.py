"""Design contracts that hold for the whole source tree: `src/` imports only
the standard library and uses every name it imports, and actors (the CLI
bots and the demos) drive the engine through its public API."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "shieldbridge").glob("*.py"))
ACTOR_FILES = [ROOT / "src" / "shieldbridge" / "simcli.py",
               *sorted((ROOT / "demos").glob("*.py"))]
ENGINE_NAMES = {"engine", "eng"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_src_is_stdlib_only(path):
    foreign = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


@pytest.mark.parametrize("path", ACTOR_FILES, ids=lambda p: p.name)
def test_actors_use_public_engine_api(path):
    private = [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and isinstance(node.value, ast.Name) and node.value.id in ENGINE_NAMES]
    assert private == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_src_imports_are_used(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {(a.asname or a.name): node.lineno for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used] == []
