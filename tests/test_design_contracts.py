"""Design contracts that hold for the whole source tree: `src/` imports only
the standard library and uses every name it imports, every hash goes
through `notes.digest` with a literal domain tag, honest relaying happens
only in chain listeners, actors (the CLI bots and the demos) drive the
engine through its public API, and README's
scenario-key and role tables state what the schema and the bots do."""

import ast
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "shieldbridge").glob("*.py"))
ACTOR_FILES = [ROOT / "src" / "shieldbridge" / "simcli.py",
               *sorted((ROOT / "demos").glob("*.py"))]
ENGINE_NAMES = {"engine", "eng"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _absolute_imports(path: Path):
    """(line, top-level package) of each absolute import in the file."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_src_is_stdlib_only(path):
    assert [f"{path.name}:{line} {name}" for line, name in _absolute_imports(path)
            if name not in sys.stdlib_module_names] == []


def test_only_notes_imports_hash_modules():
    # every other module hashes through `notes.digest`, which the
    # benchmark's tracer counts by tag
    assert {path.name for path in SOURCES for _, name in _absolute_imports(path)
            if name in ("hashlib", "hmac")} == {"notes.py"}


def _bytes_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, bytes)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_digest_tags_are_bytes_literals(path):
    # a literal tag keeps `notes._TAG_STATES` to one entry per domain; the
    # one indirect use is `map(digest, repeat(<tag>), ...)` over a tree row
    tree = _tree(path)
    allowed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "digest"
                and node.args and _bytes_literal(node.args[0])):
            allowed.add(node.func)
        elif (isinstance(node.func, ast.Name) and node.func.id == "map"
              and len(node.args) > 1 and isinstance(node.args[0], ast.Name)
              and node.args[0].id == "digest" and isinstance(node.args[1], ast.Call)
              and isinstance(node.args[1].func, ast.Name)
              and node.args[1].func.id == "repeat" and len(node.args[1].args) == 1
              and _bytes_literal(node.args[1].args[0])):
            allowed.add(node.args[0])
    loose = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "digest"
             and isinstance(node.ctx, ast.Load) and node not in allowed]
    assert loose == []


@pytest.mark.parametrize("path", ACTOR_FILES, ids=lambda p: p.name)
def test_actors_use_public_engine_api(path):
    private = [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and isinstance(node.value, ast.Name) and node.value.id in ENGINE_NAMES]
    assert private == []


def _calls(node: ast.AST, method: str) -> list[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == method]


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_honest_relaying_happens_only_in_chain_listeners():
    # a chain listener hears every block the main chain takes, the side
    # blocks a reorg applies included; a header relayed by hand is one a
    # reorg can leave behind
    protocol = _tree(ROOT / "src" / "shieldbridge" / "protocol.py")
    listener = _function(protocol, "_relay_block")
    relayed = _calls(protocol, "submit_header")
    assert len(relayed) == 1 and relayed == _calls(listener, "submit_header")
    assert [ast.unparse(call.args[0]) for call in _calls(
        _function(protocol, "__init__"), "on_block")] == ["self._scan_block", "self._relay_block"]
    safety = _function(_tree(ROOT / "src" / "shieldbridge" / "simcli.py"), "run_relay_safety")
    in_listeners = [relay for registration in _calls(safety, "on_block")
                    for relay in _calls(registration.args[0], "submit_header")]
    assert len(in_listeners) == 1 and _calls(safety, "submit_header") == in_listeners


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


def _readme_table(first_header: str) -> list[list[str]]:
    """The rows of the README table whose header row starts with
    `first_header`, each a list of its cells."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_header} |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_key_table_matches_scenario_keys():
    from shieldbridge.simcli import SCENARIO_KEYS

    documented = {}
    for key, target, default in _readme_table("key"):
        if key.strip("`") in SCENARIO_KEYS:
            documented[key.strip("`")] = (target, default)
    assert sorted(documented) == sorted(SCENARIO_KEYS)
    for key, (cls, name) in SCENARIO_KEYS.items():
        target, default = documented[key]
        field = next(f for f in fields(cls) if f.name == name)
        assert target.split(" (")[0] == f"`{cls.__name__}.{name}`", key
        assert default == ("required" if field.default is MISSING else str(field.default)), key


def test_readme_role_table_matches_bot_strategies():
    from shieldbridge.simcli import ROLES

    rows = _readme_table("role")
    assert [role.strip("`") for role, _, _ in rows] == list(ROLES)
    single = [(role.strip("`"), bots, strategies) for role, bots, strategies in rows
              if len(ROLES[role.strip("`")]) == 1]
    assert len(single) == 3
    for role, bots, strategies in single:
        (bot,) = ROLES[role]
        assert bots == f"`{bot.__name__}`", role
        assert strategies.split(", ") == list(bot.STRATEGIES), role
