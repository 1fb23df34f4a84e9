"""The mutation sweep's table of declared survivors stays in step with
the source: every entry names exactly one mutant site. The sweep itself
(`tests/mutation_sweep.py`) is opt-in and runs no test here."""

import mutation_sweep
import pytest


def test_modules_cover_the_package():
    package = mutation_sweep.ROOT / mutation_sweep.PACKAGE
    assert sorted(mutation_sweep.MODULES) == sorted(
        path.stem for path in package.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("key", sorted(mutation_sweep.DECLARED), ids=" ".join)
def test_declared_entry_names_one_site(key):
    module = key[0]
    matches = [m for m in mutation_sweep.mutants(module) if m.key == key]
    assert len(matches) == 1, [str(m) for m in matches]
    assert mutation_sweep.DECLARED[key].strip()


def test_each_mutant_replaces_only_its_text():
    source = ("def f(a, b):\n"
              "    if a and (b or\n"
              "              a):\n"
              "        return 1\n"
              "    return 0\n")
    assert [(m.kind, m.function, m.text, m.replacement, m.apply(source).splitlines()[1:3])
            for m in mutation_sweep.sites("m", source)] == [
        ("guard", "f", "a and (b or\n              a)", "False",
         ["    if False:", "        return 1"]),
        ("operand", "f", "a", "True", ["    if True and (b or", "              a):"]),
        ("operand", "f", "b or\n              a", "True", ["    if a and (True):",
                                                            "        return 1"]),
        ("operand", "f", "b", "False", ["    if a and (False or", "              a):"]),
        ("operand", "f", "a", "False", ["    if a and (b or", "              False):"]),
    ]
