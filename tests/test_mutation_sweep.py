"""The mutation sweep's table of declared survivors stays in step with
the source: every entry names exactly one mutant site, and the fast
subset deselects only tests that exist. The sweep itself
(`tests/mutation_sweep.py`) is opt-in; the one run here is stopped by
SIGTERM during its first pytest and must clean up after itself."""

import ast
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

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


def test_fast_subset_deselects_existing_tests():
    for arg in mutation_sweep.FAST_SUBSET:
        if not arg.startswith("--deselect="):
            continue
        path, *scopes = arg.removeprefix("--deselect=").split("[")[0].split("::")
        body = ast.parse((mutation_sweep.ROOT / path).read_text()).body
        for name in scopes:
            body = next(node.body for node in body
                        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                        and node.name == name)


def _processes_in(directory: Path) -> list[int]:
    """The pids of the processes whose working directory is in `directory`."""
    pids = []
    for proc in Path("/proc").iterdir():
        with suppress(OSError):  # gone, a zombie, or not ours to read
            if proc.name.isdigit() and Path(os.readlink(proc / "cwd")).is_relative_to(
                    directory):
                pids.append(int(proc.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/cwd").exists(),
                    reason="finds the sweep's pytest processes through /proc")
def test_sigterm_kills_the_tests_and_removes_the_trees(tmp_path):
    # the sweep's first pytest (the unmutated tree's suite) runs in its copy
    # of the tree, under the private TMPDIR
    tmp = tmp_path.resolve()
    sweep = subprocess.Popen(
        [sys.executable, str(mutation_sweep.ROOT / "tests" / "mutation_sweep.py"),
         "--modules", "oracle", "--workers", "1"],
        cwd=mutation_sweep.ROOT, env=dict(os.environ, TMPDIR=str(tmp)),
        stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not _processes_in(tmp):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        sweep.send_signal(signal.SIGTERM)
        assert sweep.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait()
    assert list(tmp.glob("mutation-sweep-*")) == []
    assert _processes_in(tmp) == []
