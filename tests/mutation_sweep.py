"""Opt-in mutation sweep over the guards of the bridge's modules.

Two kinds of mutant (DeMillo, Lipton & Sayward 1978), one per site:

- guard: an `if` whose body ends in `return` or `raise` has its test
  replaced by `False`, so the guard never fires;
- operand: one operand of an `and`/`or` is replaced by its neutral value
  (`True` in an `and`, `False` in an `or`), so the condition no longer
  reads it.

Each mutant is applied to a copy of the repository (never to `src/` in
place) and run first against a fast subset of the tests, stopping at the
first failure; each mutant that survives it is run again against the full
tier-1 suite, less the tests that read the source text. A survivor of
both is a guard no test needs. It must either
go, get a test that kills it, or be listed in `DECLARED` below with the
reason it stays (most are equivalent: no input tells them from the
original). The
script prints every survivor missing from `DECLARED` and exits 1 if there
is any.

Run it from the repository root; it uses only the standard library, and
pytest does not collect it:

    python3 tests/mutation_sweep.py                    # all modules, 2 workers
    python3 tests/mutation_sweep.py --modules relay notes --workers 1
    python3 tests/mutation_sweep.py --list             # the sites, no test runs

Over the eight modules the sweep takes about 20 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "shieldbridge"
MODULES = ("protocol", "relay", "vault_registry", "issuing_chain", "zcash_chain",
           "notes", "oracle", "simcli")

# Tests that read the source text instead of running it: a mutant that
# drops an imported name's last use, or a DECLARED site's text, fails them
# without being any less correct.
SOURCE_READERS = ("--ignore=tests/test_design_contracts.py",
                  "--ignore=tests/test_mutation_sweep.py")
# The fast subset: tier-1 without its slowest tests, none of which is the
# only one to need a guard of the modules above (the full re-run checks).
FAST_SUBSET = (
    "tests", *SOURCE_READERS,
    "--ignore=tests/test_splitting.py",
    "--ignore=tests/test_demos.py",
    "--ignore=tests/test_perfbench_smoke.py",
    "--deselect=tests/test_acceptance.py::test_criterion_5_monte_carlo_matches_exact",
    "--deselect=tests/test_acceptance.py::test_criterion_6_protocol_conformance_episodes",
    "--deselect=tests/test_acceptance.py::test_criterion_8_relay_safety",
)
FULL_SUITE = ("tests", *SOURCE_READERS)
TIMEOUT_S = 900  # a mutant that hangs the suite counts as killed

# (module, enclosing function, kind, mutated source text) -> why the
# survivor stays: no input tells it from the original, or its fix moves a
# count the benchmark pins
DECLARED = {
    ("protocol", "Engine.start", "guard", "isinstance(result, Rejection)"):
        "the genesis tx has no spends and commits its own outputs, so the "
        "chain cannot reject it",
    ("protocol", "Engine._close", "operand", "request.pending_txid is not None"):
        "the lock-note bug's condition: crediting the lock note on a "
        "mint-timeout close is the fix that waits for the golden re-record",
    ("protocol", "Engine._check_true_chain", "operand",
     "cm_digest in self.zcash.pool.leaf_index"):
        "without a hash collision, a relay-verified path into a main-chain "
        "block means the leaf is in the tree",
    ("protocol", "ops_by_request", "operand", "op in LIFECYCLE"):
        "an ok row with a request id is always a lifecycle row",
    ("protocol", "ops_by_request", "operand", "request_id"):
        "an ok lifecycle row always carries a request id",
    ("simcli", "IssueBot._run", "operand", "block is not None"):
        "Relay.is_final(None) is False",
    ("simcli", "VaultBot._step_redeem", "operand", "block is not None"):
        "Relay.is_final(None) is False",
}


@dataclass(frozen=True)
class Mutant:
    module: str
    function: str
    kind: str     # "guard" | "operand"
    text: str     # the source text the mutant replaces
    line: int
    start: tuple[int, int]  # (line, column) of the replaced text
    end: tuple[int, int]
    replacement: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return self.module, self.function, self.kind, self.text

    def __str__(self) -> str:
        return (f"{self.module}.py:{self.line} {self.function} {self.kind} "
                f"{self.text!r} -> {self.replacement}")

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        offsets = [0]
        for line in lines:
            offsets.append(offsets[-1] + len(line.encode()))
        raw = source.encode()
        start = offsets[self.start[0] - 1] + self.start[1]
        end = offsets[self.end[0] - 1] + self.end[1]
        return (raw[:start] + self.replacement.encode() + raw[end:]).decode()


class _Sites(ast.NodeVisitor):
    def __init__(self, module: str, source: str):
        self.module = module
        self.source = source
        self.scope: list[str] = []
        self.mutants: list[Mutant] = []

    def _add(self, kind: str, node: ast.expr, replacement: str) -> None:
        self.mutants.append(Mutant(
            self.module, ".".join(self.scope) or "<module>", kind,
            ast.get_source_segment(self.source, node), node.lineno,
            (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset),
            replacement))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_If(self, node: ast.If) -> None:
        if isinstance(node.body[-1], (ast.Return, ast.Raise)):
            self._add("guard", node.test, "False")
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        neutral = "True" if isinstance(node.op, ast.And) else "False"
        for operand in node.values:
            self._add("operand", operand, neutral)
        self.generic_visit(node)


def sites(module: str, source: str) -> list[Mutant]:
    """Every guard and operand mutant of one module's source, in source order."""
    visitor = _Sites(module, source)
    visitor.visit(ast.parse(source))
    return sorted(visitor.mutants, key=lambda m: (m.start, m.kind))


@cache
def mutants(module: str) -> list[Mutant]:
    return sites(module, (ROOT / PACKAGE / f"{module}.py").read_text())


def _copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
    return dest


def _passes(tree: Path, suite: tuple[str, ...]) -> bool:
    """Whether the suite passes in the copied tree (a timeout is a failure)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *suite],
            cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def _survives(tree: Path, mutant: Mutant, suite: tuple[str, ...]) -> bool:
    """Write the mutant into a copied tree, run the suite, undo the mutant."""
    path = tree / PACKAGE / f"{mutant.module}.py"
    original = path.read_text()
    path.write_text(mutant.apply(original))
    try:
        return _passes(tree, suite)
    finally:
        path.write_text(original)


def _run_all(trees: list[Path], todo: list[Mutant], suite, label: str) -> list[Mutant]:
    """The mutants of `todo` that survive `suite`, in `todo`'s order; each
    copied tree runs one mutant at a time."""
    free = list(trees)
    started = time.monotonic()

    def run(mutant: Mutant) -> bool:
        tree = free.pop()
        try:
            return _survives(tree, mutant, suite)
        finally:
            free.append(tree)

    survivors = []
    with ThreadPoolExecutor(len(trees)) as pool:
        for n, (mutant, survived) in enumerate(zip(todo, pool.map(run, todo)), start=1):
            if survived:
                survivors.append(mutant)
            print(f"[{label} {n}/{len(todo)} {time.monotonic() - started:.0f}s] "
                  f"{'SURVIVED' if survived else 'killed'}  {mutant}", flush=True)
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=list(MODULES), choices=MODULES)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--list", action="store_true", help="print the sites and exit")
    args = parser.parse_args(argv)
    if not 1 <= args.workers <= (os.cpu_count() or 1):
        parser.error(f"--workers must be between 1 and os.cpu_count() = {os.cpu_count()}")

    todo = [m for module in args.modules for m in mutants(module)]
    if args.list:
        for mutant in todo:
            print(mutant)
        return 0
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as scratch:
        trees = [_copy_tree(Path(scratch) / f"w{i}") for i in range(args.workers)]
        if not _passes(trees[0], FULL_SUITE):
            print("the unmutated tree fails the suite; fix that first", file=sys.stderr)
            return 2
        fast = _run_all(trees, todo, FAST_SUBSET, "fast")
        survivors = _run_all(trees, fast, FULL_SUITE, "full")

    print(f"\n{len(todo)} mutants, {len(fast)} survived the fast subset, "
          f"{len(survivors)} survived the full suite")
    for module in args.modules:
        kinds = {kind: sum(m.module == module and m.kind == kind for m in todo)
                 for kind in ("guard", "operand")}
        alive = {kind: sum(m.module == module and m.kind == kind for m in survivors)
                 for kind in ("guard", "operand")}
        print(f"  {module:15s} guard {alive['guard']}/{kinds['guard']}  "
              f"operand {alive['operand']}/{kinds['operand']}")
    unsettled = [m for m in survivors if m.key not in DECLARED]
    for mutant in survivors:
        if mutant.key in DECLARED:
            print(f"declared  {mutant}: {DECLARED[mutant.key]}")
    for mutant in unsettled:
        print(f"UNSETTLED {mutant}")
    print(f"{len(unsettled)} unsettled survivors")
    return 1 if unsettled else 0


if __name__ == "__main__":
    sys.exit(main())
