"""Scenario runner and command-line interface.

Scenarios are flat `key = value` files with dotted sections. A scenario
declares protocol parameters, an oracle script, actors with strategies, a
tick horizon, a seed, and `expect.*` assertions on the run's metrics. The
config dataclasses are the schema (`SCENARIO_KEYS` maps each key to a field,
whose type and default apply), and `ROLES` gives each role the bots whose
`STRATEGIES` it may use. One scenario is one event loop; identical (config,
seed) produces byte-identical trace and metrics files. The issuer, redeemer
and eclipse bots are per-tick scripts; after each step, a bot's `phase`
("stalled", "done" or None while running) and `request_id` are what the
benchmark's workloads and the `privacy` run read. A byzantine bot applies
its own misbehaviour (`corrupt_ciphertext`) to what the engine builds.

Subcommands:
    run          execute a scenario file (or bundled name): trace.csv, metrics.csv
    privacy      splitting bound reports plus an end-to-end split-and-issue run
    check-bounds exhaustive splitting bound verification, report to stdout

Exit status is 0 when every scenario assertion and bound check passes, 1
when one fails, and 2 on a config error (one `config error:` line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from importlib import resources
from itertools import groupby, repeat
from operator import itemgetter
from pathlib import Path
from random import Random
from typing import Optional, get_type_hints

from .issuing_chain import LIQUIDATION_POOL, BurnTransfer, MintTransfer
from .notes import VALUE_WIDTH, Note, NoteCommitment, commit_note, rng_bytes
from .protocol import (
    AWAIT_ISSUE_CONFIRM,
    OK,
    SYSTEM,
    Engine,
    ProtocolConfig,
    ProtocolError,
    conformance_errors,
)
from .relay import Relay
from .splitting import (
    DESK_SCALE_LIMIT,
    BoundsReport,
    SplitConfig,
    SplittingError,
    check_bounds,
    exact_conditional_expectation,
    sample_prior,
    split,
)
from .vault_registry import RegistryParams
from .zcash_chain import BlockHeader, ChainState, CommitmentTree, Rejection


class ConfigError(ValueError):
    pass


# --- config parsing ----------------------------------------------------------------


def parse_config(text: str) -> dict[str, str]:
    """Flat `key = value` parser; malformed lines fail with their number."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


@dataclass
class ActorSpec:
    name: str
    role: str            # a key of ROLES
    strategy: str = "honest"  # one of the role's bots' STRATEGIES
    zec: int = 0
    i: int = 0
    collateral: int = 0
    vault: str = ""
    amount: int = 0
    at: int = 1
    amount2: int = 0     # a user's redeem half, or a redeemer's second round
    at2: int = 0

    def __post_init__(self):
        for name in ("zec", "i", "collateral", "amount", "at", "amount2", "at2"):
            if getattr(self, name) < 0:
                raise ValueError(f"actor.{self.name}.{name} must be >= 0")
        if self.zec >= 1 << 8 * VALUE_WIDTH:  # one genesis note of 64-bit value
            raise ValueError(f"actor.{self.name}.zec must be < 2**{8 * VALUE_WIDTH}")


@dataclass
class ScenarioConfig:
    seed: int
    ticks: int
    protocol: ProtocolConfig
    oracle_script: list[tuple[int, Fraction]]
    actors: list[ActorSpec]
    expects: dict[str, str]
    mute_relayer_at: int = 0  # tick the eclipse attack starts; 0: never

    def __post_init__(self):
        for key, value in (("ticks", self.ticks), ("relay.mute_honest_at", self.mute_relayer_at)):
            if value < 0:
                raise ValueError(f"{key} must be >= 0")


# Scenario key -> (config dataclass, field); the field's type picks the
# key's parser and its default fills a missing key. The other keys are
# actor.<name>.<ActorSpec field>, oracle.rate.<tick> and expect.<metric>.
SCENARIO_KEYS = {
    "seed": (ScenarioConfig, "seed"),
    "ticks": (ScenarioConfig, "ticks"),
    **{f"params.{f.name}": (RegistryParams, f.name) for f in fields(RegistryParams)},
    "relay.k": (ProtocolConfig, "relay_k"),
    "relay.mute_honest_at": (ScenarioConfig, "mute_relayer_at"),
    "protocol.delta_mint": (ProtocolConfig, "delta_mint"),
    "protocol.delta_confirm_issue": (ProtocolConfig, "delta_confirm_issue"),
    "protocol.delta_confirm_redeem": (ProtocolConfig, "delta_confirm_redeem"),
    "zcash.fee": (ProtocolConfig, "zc_fee"),
    "zcash.tree_depth": (ProtocolConfig, "tree_depth"),
}
_PARSERS = {
    int: (int, "an integer"),
    str: (str, "a string"),
    Fraction: (lambda raw: Fraction(*map(int, raw.split("/", 1))), "a rational"),
}


def _parse(key: str, raw: str, kind: type):
    parse, what = _PARSERS[kind]
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: not {what}: {raw!r}") from exc


def _build(cls, values: dict):
    """cls(**values); a field with neither a value nor a default is a
    missing key, and a value the dataclass rejects is a config error."""
    for f in fields(cls):
        if f.name not in values and f.default is MISSING:
            key = next(k for k, target in SCENARIO_KEYS.items() if target == (cls, f.name))
            raise ConfigError(f"missing required key {key!r}")
    try:
        return cls(**values)
    except ValueError as exc:  # a field's range check
        raise ConfigError(str(exc)) from exc


def load_scenario(text: str) -> ScenarioConfig:
    """One pass over the entries builds the configs; actors are then
    checked against ROLES. A misspelled key is an error, never ignored."""
    entries = parse_config(text)
    actor_types = {k: t for k, t in get_type_hints(ActorSpec).items() if k != "name"}
    values = {ScenarioConfig: {}, RegistryParams: {}, ProtocolConfig: {}}
    actors: dict[str, dict] = {}
    oracle_script, expects = [], {}
    for key, raw in entries.items():
        section, _, rest = key.partition(".")
        name, _, attr = rest.partition(".")
        if key in SCENARIO_KEYS:
            cls, attr = SCENARIO_KEYS[key]
            values[cls][attr] = _parse(key, raw, get_type_hints(cls)[attr])
        elif section == "expect" and rest:
            expects[rest] = raw
        elif section == "oracle" and name == "rate":
            if not (attr.isascii() and attr.isdigit() and str(int(attr)) == attr):
                raise ConfigError(f"{key}: the tick must be ASCII digits without leading zeros")
            rate = _parse(key, raw, Fraction)
            if rate <= 0:
                raise ConfigError(f"{key}: rate must be positive, got {rate}")
            oracle_script.append((int(attr), rate))
        elif section == "actor" and attr in actor_types:
            actors.setdefault(name, {})[attr] = _parse(key, raw, actor_types[attr])
        else:
            raise ConfigError(f"unrecognized key {key!r}")
    params = _build(RegistryParams, values[RegistryParams])
    protocol = _build(ProtocolConfig, {"params": params, **values[ProtocolConfig]})
    if 0 not in dict(oracle_script):
        raise ConfigError("missing oracle.rate.0: the oracle script must start at tick 0")
    for name, given in actors.items():
        if name == SYSTEM:
            raise ConfigError(f"actor.{name}.role: {SYSTEM!r} is the actor name of the "
                              f"engine's timeout rows; choose another actor name")
        if "role" not in given:
            raise ConfigError(f"actor.{name}.{next(iter(given))}: "
                              f"actor {name!r} has no actor.{name}.role")
    order = list(entries)  # actors run in the order of their role lines
    specs = [_build(ActorSpec, {"name": name, **actors[name]})
             for name in sorted(actors, key=lambda n: order.index(f"actor.{n}.role"))]
    vaults = {spec.name for spec in specs if spec.role == "vault"}
    for spec in specs:
        prefix = f"actor.{spec.name}."
        if spec.role not in ROLES:
            raise ConfigError(f"{prefix}role: unknown role {spec.role!r}; "
                              f"roles: {', '.join(ROLES)}")
        strategies = set().union(*(bot.STRATEGIES for bot in ROLES[spec.role]))
        if spec.strategy not in strategies:
            raise ConfigError(f"{prefix}strategy: role {spec.role!r} has no strategy "
                              f"{spec.strategy!r}; strategies: {', '.join(sorted(strategies))}")
        if spec.role != "vault" and spec.vault not in vaults:
            raise ConfigError(f"{prefix}vault: {spec.vault!r} names no vault actor")
        if spec.role != "vault" and "collateral" in actors[spec.name]:
            raise ConfigError(f"{prefix}collateral: only a vault locks collateral; "
                              f"{spec.name!r} has role {spec.role!r}")
        if spec.collateral > spec.i:  # past the check above, only a vault's is above 0
            raise ConfigError(f"{prefix}collateral: {spec.collateral} exceeds "
                              f"{prefix}i = {spec.i}")
    return _build(ScenarioConfig, {
        **values[ScenarioConfig], "protocol": protocol,
        "oracle_script": sorted(oracle_script), "actors": specs, "expects": expects})


# --- actor strategies ----------------------------------------------------------------


def corrupt_ciphertext(transfer: MintTransfer | BurnTransfer) -> MintTransfer | BurnTransfer:
    """`transfer` with its ciphertext's first byte flipped, so it fails authentication."""
    ct = transfer.statement.ciphertext
    ct = replace(ct, payload=bytes([ct.payload[0] ^ 0xFF]) + ct.payload[1:])
    return replace(transfer, statement=replace(transfer.statement, ciphertext=ct))


class _ScriptBot:
    """Steps `_run(engine)`, a script that yields once per tick; one that
    yields "stalled" is never resumed, and one that returns is "done"."""

    phase: Optional[str] = None
    request_id: Optional[str] = None  # the request the script last opened
    _script = None

    def step(self, engine: Engine) -> None:
        if self._script is None:
            self._script = self._run(engine)
        if self.phase != "stalled":
            self.phase = next(self._script, "done")


class IssueBot(_ScriptBot):
    """Plays one Issue procedure; the other strategies model byzantine issuers."""

    STRATEGIES = ("honest", "no_lock", "no_mint", "random_rcm", "wrong_ciphertext",
                  "wrong_relation", "replay_lock")
    step = _ScriptBot.step  # perfbench's tracer times each bot class's own step

    def __init__(self, spec: ActorSpec):
        self.spec = spec

    def _run(self, engine: Engine):
        spec, strategy = self.spec, self.spec.strategy
        replayed = None  # replay_lock's second round mints again from the first lock
        while True:
            while engine.now < spec.at or isinstance(
                    request := engine.request_lock(spec.name, spec.vault), Rejection):
                yield
            self.request_id = request.request_id
            if strategy == "no_lock":
                yield "stalled"
            if replayed is None:
                engine.do_lock(spec.name, request.request_id, spec.amount,
                               tamper_random_rcm=strategy == "random_rcm")
            yield
            if strategy == "no_mint":
                yield "stalled"
            lock_note = replayed or request.lock_note
            while not request.terminal:
                block = lock_note and engine.block_of(commit_note(lock_note).digest)
                if block is not None and engine.relay.is_final(block):
                    break
                yield
            if request.terminal:
                return
            transfer = engine.build_mint(request.request_id,
                                         wrong_relation=strategy == "wrong_relation",
                                         lock_note_override=replayed)
            if strategy == "wrong_ciphertext":
                transfer = corrupt_ciphertext(transfer)
            if isinstance(engine.do_mint(spec.name, request.request_id, transfer), Rejection):
                yield "stalled"  # the deadline will close the request
            yield
            while not request.terminal:
                yield
            if strategy != "replay_lock":  # the replay round stalls at its refused mint
                return
            replayed = request.lock_note
            yield  # the replay round opens its request on the next tick


class RedeemBot(_ScriptBot):
    """Plays one Redeem procedure, or two for double_redeem and reuse_release."""

    STRATEGIES = ("honest", "wrong_ciphertext", "redeem_wrong_ciphertext",
                  "reuse_release", "double_redeem")
    step = _ScriptBot.step  # perfbench's tracer times each bot class's own step

    def __init__(self, spec: ActorSpec):
        if spec.role == "user":  # a user's redeem half starts at at2 with amount2
            spec = replace(spec, at=spec.at2, amount=spec.amount2)
        self.spec = spec

    def _run(self, engine: Engine):
        spec, strategy = self.spec, self.spec.strategy
        rounds = [(spec.at, spec.amount)]
        if strategy in ("double_redeem", "reuse_release"):  # burn again once the first closes
            rounds.append((spec.at2, spec.amount2 or spec.amount))
        request = reuse = None
        for start, amount in rounds:
            if request is not None:
                yield  # a round starts on the tick after the previous one closed
            while engine.now < start or engine.actors[spec.name].wzec.balance() < amount:
                yield
            transfer, release_note = engine.build_burn(spec.name, spec.vault, amount,
                                                       reuse_note=reuse)
            if strategy in ("wrong_ciphertext", "redeem_wrong_ciphertext"):
                transfer = corrupt_ciphertext(transfer)
            request = engine.do_burn(spec.name, spec.vault, transfer)
            if isinstance(request, Rejection):
                return
            self.request_id = request.request_id
            if strategy == "reuse_release":
                reuse = release_note
            yield
            while not request.terminal:
                yield


class VaultBot:
    """Vault behaviour: honest confirm/challenge, or scripted misbehaviour."""

    STRATEGIES = ("honest", "silent", "spurious_challenge", "proof_replayer",
                  "stale_proof", "wrong_note")

    def __init__(self, spec: ActorSpec):
        self.spec = spec
        self._stale_proof: Optional[tuple] = None
        self._stale_attempted: set[str] = set()

    def step(self, engine: Engine) -> None:
        name = self.spec.name
        if self.spec.strategy == "silent":
            return
        record = engine.registry.vaults.get(name)
        if record is None:
            return
        # a slot holds an open request (a close frees it first), and an open
        # redeem is always in AwaitRedeemConfirm
        if record.active_issue:
            self._step_issue(engine, engine.requests[record.active_issue])
        if record.active_redeem:
            self._step_redeem(engine, engine.requests[record.active_redeem])

    def _step_issue(self, engine: Engine, request) -> None:
        name = self.spec.name
        if request.state != AWAIT_ISSUE_CONFIRM:
            return
        if self.spec.strategy == "spurious_challenge":
            engine.challenge_issue(name, request.request_id)
            return
        if engine.vault_note(request) is not None:
            engine.confirm_issue(name, request.request_id)
        else:
            engine.challenge_issue(name, request.request_id)

    def _step_redeem(self, engine: Engine, request) -> None:
        name, release_cm = self.spec.name, request.transfer.statement.release_cm
        if self.spec.strategy == "proof_replayer":
            # confirm against an already-mined identical commitment, skipping
            # the release entirely (works only when the redeemer reused values)
            if engine.block_of(release_cm.digest) is not None:
                engine.confirm_redeem(name, request.request_id)
                return
        if self._stale_proof is not None:  # only a stale_proof vault keeps one
            # replay an old release proof against a fresh burn; the relay
            # rejects it because the redeemer chose a fresh commitment
            if request.request_id not in self._stale_attempted:
                self._stale_attempted.add(request.request_id)
                engine.confirm_redeem(name, request.request_id,
                                      proof=self._stale_proof)
            return
        note = engine.vault_note(request)
        if note is None:
            engine.challenge_redeem(name, request.request_id)
            return
        if not request.released:  # a wrong_note vault pays one unit short
            short = (Note(note.address, max(0, note.value - 1), note.rcm)
                     if self.spec.strategy == "wrong_note" else None)
            engine.do_release(name, request.request_id, note_override=short)
        else:
            block = engine.block_of(release_cm.digest)
            if block is not None and engine.relay.is_final(block):
                result = engine.confirm_redeem(name, request.request_id)
                if result == OK and self.spec.strategy == "stale_proof":
                    self._stale_proof = (engine.zcash.merkle_path(release_cm, block), block)


# role -> the bots that play it; a user issues, then redeems
ROLES = {"vault": (VaultBot,), "issuer": (IssueBot,), "redeemer": (RedeemBot,),
         "user": (IssueBot, RedeemBot)}


class EclipseBot(_ScriptBot):
    """Header-withholding attack: mutes honest relaying, feeds the relay a
    forged branch, then presents an inclusion proof for a commitment the
    true chain never contained."""

    def __init__(self, at: int, rng: Random):
        self.at = at
        self.rng = rng

    def _run(self, engine: Engine):
        while engine.now < self.at:
            yield
        engine.relayer_muted = True
        fake_cm = NoteCommitment(rng_bytes(self.rng, 32))
        tree = CommitmentTree(depth=engine.zcash.pool.tree.depth)
        tree.append(fake_cm)
        parent = engine.relay.headers[engine.relay.best_tip]
        forged = BlockHeader(parent.height + 1, parent.hash, tree.root(), 1, nonce=10**6)
        engine.relay.submit_header(forged)
        tip = forged
        while True:
            yield
            tip = BlockHeader(tip.height + 1, tip.hash, tip.tree_root, 1,
                              nonce=10**6 + tip.height)
            engine.relay.submit_header(tip)
            if engine.relay.is_final(forged.hash):
                break
        verdict = engine.check_inclusion_claim(fake_cm, tree.path_at(0, 1), forged.hash)
        if isinstance(verdict, Rejection):
            raise ProtocolError(f"final forged branch, yet the claim was rejected:{verdict.reason}")


# --- scenario execution ---------------------------------------------------------------


@dataclass
class ScenarioResult:
    metrics: dict
    trace_csv: str
    metrics_csv: str
    failures: list[str] = field(default_factory=list)
    engine: Optional[Engine] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def run_scenario(cfg: ScenarioConfig, seed: Optional[int] = None) -> ScenarioResult:
    seed = cfg.seed if seed is None else seed
    engine = Engine(cfg.protocol, seed)
    for tick, rate in cfg.oracle_script:
        engine.oracle.set_rate(tick, rate)

    bots = []
    for spec in cfg.actors:
        engine.add_actor(spec.name,
                         zec_notes=(spec.zec,) if spec.zec else (),
                         i_balance=spec.i)
        bots.extend(bot(spec) for bot in ROLES[spec.role])
    engine.start()
    for spec in cfg.actors:
        if spec.role == "vault":
            engine.register_vault(spec.name, spec.collateral)
            engine.submit_poc(spec.name)
    if cfg.mute_relayer_at:
        bots.append(EclipseBot(cfg.mute_relayer_at, Random(seed ^ 0x5EED)))

    def actor_phase(eng: Engine) -> None:
        for bot in bots:
            bot.step(eng)

    engine.run_until(cfg.ticks, actor_phase)

    metrics = collect_metrics(engine)
    failures = check_expects(cfg.expects, metrics)
    failures += conformance_errors(engine)
    return ScenarioResult(metrics, trace_to_csv(engine.trace_rows()),
                          _metrics_csv(engine, metrics), failures, engine)


def collect_metrics(engine: Engine) -> dict:
    """The run's final figures; the counts are read off the events and the trace."""
    kinds = Counter(event[1] for event in engine.events)
    rejected = [row[6] for row in engine.trace if row[6].startswith("rejected:")]
    locked, released = engine.zec_totals()
    out = {
        "final_supply": engine.issuing.supply,
        "pool_value": engine.issuing.pool_value(),
        "slash_count": kinds["slash"],
        "challenge_upheld": kinds["challenge"],
        "challenge_rejected": rejected.count("rejected:challenge-not-upheld"),
        "replay_rejections": sum("replay" in outcome for outcome in rejected),
        "relay_violations": kinds["relay-violation"],
        "liquidation_count": kinds["liquidation"],
        "zec_locked_total": locked,
        "zec_released_total": released,
        "finality_flips": engine.relay.metrics.finality_flips,
        "relay_headers_accepted": len(engine.relay.headers) - 1,  # all but the checkpoint
        "liquidation_pool": engine.issuing.i_ledger.balance(LIQUIDATION_POOL),
        "total_i": engine.total_i(),
        "backing_deficit": max(0, engine.issuing.supply - (locked - released)),
    }
    for vault_id in sorted(engine.registry.vaults):
        out[f"collateral.{vault_id}"] = engine.issuing.i_ledger.collateral_of(vault_id)
        out[f"obligations.{vault_id}"] = engine.registry.witness_obligations(vault_id)
    for name in sorted(engine.actors):
        out[f"balance_i.{name}"] = engine.issuing.i_ledger.balance(name)
    return out


def check_expects(expects: dict[str, str], metrics: dict) -> list[str]:
    failures = []
    for key, expected in expects.items():
        if key not in metrics:
            failures.append(f"expect.{key}: no such metric")
            continue
        actual = str(metrics[key])
        if actual != expected:
            failures.append(f"expect.{key}: wanted {expected}, got {actual}")
    return failures


# --- output files ------------------------------------------------------------------


EACH = "\0"  # a block row's field that takes each value; no other field holds a NUL
CSV_CHUNK = 1 << 12  # values per joined piece of a block: about 2 MB of report text


def _csv_lines(header: str, rows=(), blocks=()) -> Iterator[str]:
    """The header line, then one line per row of comma-joined fields, each
    ending in a newline: written to a file as it comes, or joined. Then
    each block (rows, values): its rows once per value, in order, with the
    value in each `EACH` field. A block's lines are formatted once, and
    come in pieces of one join over up to CSV_CHUNK values."""
    yield header + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"
    for block_rows, values in blocks:
        segments = "".join(",".join(map(str, row)) + "\n" for row in block_rows).split(EACH)
        for start in range(0, len(values), CSV_CHUNK):
            yield "".join(map(str.join, map(str, values[start:start + CSV_CHUNK]),
                              repeat(segments)))


def _csv(header: str, rows) -> str:
    return "".join(_csv_lines(header, rows))


def trace_to_csv(rows: list[tuple]) -> str:
    return _csv("tick,actor,op,request_id,state_before,state_after,outcome", rows)


def metrics_to_csv(engine: Engine) -> str:
    return _metrics_csv(engine, collect_metrics(engine))


def _metrics_csv(engine: Engine, metrics: dict) -> str:
    return _csv("tick,name,value", [
        *((tick, kind, ";".join(map(str, details))) for tick, kind, *details in engine.events),
        *((tick, "supply", supply) for tick, supply in engine.supply_series),
        *(("final", key, value) for key, value in sorted(metrics.items()))])


def bounds_report_csv(report: BoundsReport) -> str:
    return "".join(bounds_report_lines(report))


def bounds_report_lines(report: BoundsReport) -> Iterator[str]:
    """The report's rows, one CSV block per report block: each block's
    fields are formatted once, however many totals it holds."""
    return _csv_lines("claim,param_j,param_t,lhs,rhs,pass", blocks=(
        (tuple((row.claim, row.param_j, EACH, row.lhs, row.rhs, str(row.passed).lower())
               for row in rows), totals)
        for rows, totals in report.blocks))


def distribution_csv(cfg: SplitConfig) -> str:
    return "".join(distribution_lines(cfg))


def distribution_lines(cfg: SplitConfig) -> Iterator[str]:
    """Each total's conditional E[X_j | T=t]; a run of totals that share
    one conditional is one CSV block."""
    conditionals = ((t, exact_conditional_expectation(t, cfg)) for t in range(1, cfg.t_max + 1))
    return _csv_lines("t,j,expectation_num,expectation_den", blocks=(
        (tuple((EACH, j, value.numerator, value.denominator)
               for j, value in enumerate(dist.values)), [t for t, _ in run])
        for dist, run in groupby(conditionals, key=itemgetter(1))))


# --- privacy analysis -----------------------------------------------------------------


def _split_config(h: int, k: int, total: Optional[int] = None) -> SplitConfig:
    """The SplitConfig of an exhaustive check; bad parameters or total are config errors.
    `h` is compared with the limit's exponent, so a huge `h` never builds `2**h`."""
    h_max = DESK_SCALE_LIMIT.bit_length() - 1
    if h > h_max:
        raise ConfigError(f"h = {h} exceeds the desk-scale limit 2^{h_max} = "
                          f"{DESK_SCALE_LIMIT}; use h <= {h_max}")
    try:
        cfg = SplitConfig(h, k)
        if total is not None:
            cfg.check_total(total)
    except SplittingError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def run_privacy_analysis(h: int, k: int, seed: int = 1,
                         total: Optional[int] = None) -> dict:
    """Bound verification plus an end-to-end run: one user splits a total
    across k vaults, one `IssueBot` per piece against an honest `VaultBot`
    per vault; each vault's observer view ends up containing exactly one
    piece value and never the total. An unconfirmed issue is a bug."""
    cfg = _split_config(h, k, total)
    report = check_bounds(cfg)
    rng = Random(seed)
    t = total if total is not None else sample_prior(h, rng)
    result = split(t, cfg, rng)
    pieces = list(result.pieces)
    rng.shuffle(pieces)

    params = RegistryParams(v_max=10**9, f=Fraction(2, 100),
                            sigma_std=Fraction(3, 2), i_w=5)
    protocol = ProtocolConfig(params, relay_k=4, delta_mint=16,
                              delta_confirm_redeem=16, tree_depth=10)
    engine = Engine(protocol, seed)
    engine.oracle.set_rate(0, Fraction(2, 1))
    collateral = 2 * 10**9 * 3  # comfortably above the capacity threshold
    vaults = [f"V{i+1}" for i in range(k)]
    for vault in vaults:
        engine.add_actor(vault, i_balance=collateral)
    # one funding note per piece: the locks all happen in the same tick, so
    # each must be spendable independently of the others' change
    note_value = 2**cfg.m + protocol.zc_fee + 1
    engine.add_actor("user", zec_notes=(note_value,) * k, i_balance=5 * k)
    engine.start()
    for vault in vaults:
        engine.register_vault(vault, collateral)
        engine.submit_poc(vault)
    issuers = [IssueBot(ActorSpec("user", "issuer", vault=vault, amount=piece))
               for vault, piece in zip(vaults, pieces)]
    bots = [*(VaultBot(ActorSpec(vault, "vault")) for vault in vaults), *issuers]

    def actor_phase(eng: Engine) -> None:
        for bot in bots:
            bot.step(eng)

    for _ in range(protocol.delta_mint + protocol.delta_confirm_issue + 2):
        if all(bot.phase in ("done", "stalled") for bot in issuers):
            break
        engine.tick(actor_phase)
    unclosed = [f"{bot.request_id} ({bot.phase})" for bot in issuers
                if engine.requests[bot.request_id].close_reason != "confirmed"]
    if unclosed:
        raise ProtocolError(f"privacy run: not confirmed: {', '.join(unclosed)}")

    # a confirmed issue credits the vault its lock note, the piece it sees
    vault_views = {vault: next(iter(engine.actors[vault].zcash.unspent.values())).value
                   for vault in vaults}

    return {
        "cfg": cfg,
        "report": report,
        "total": t,
        "withheld": result.withheld,
        "pieces": pieces,
        "vault_views": vault_views,
        "trace_csv": trace_to_csv(engine.trace_rows()),
        "engine": engine,
    }


def vault_views_csv(vault_views: dict[str, int]) -> str:
    return _csv("vault,observed_piece", sorted(vault_views.items()))


# --- relay safety harness ---------------------------------------------------------------


def run_relay_safety(n_blocks: int, alpha: float, k: int, seed: int,
                     restart_behind: int = 12) -> dict:
    """Honest relaying against a private-fork adversary with hash share
    alpha.

    Each attack round the adversary forks one block below the public tip
    (trying to revert it) and mines privately; it publishes the branch the
    moment it outweighs the public chain, which reorgs every honest block
    above the fork point, and gives up once it falls restart_behind blocks
    behind. Deeper reorgs than the adversary's current deficit are always
    possible in this model, just gambler's-ruin unlikely. Reports each
    reorg's depth (the honest blocks it orphaned) plus the relay's finality
    flips: a depth-d reorg flips the max(0, d - k) final heights it
    reverts.
    """
    rng = Random(seed)
    chain = ChainState(depth=4, fee=0)
    relay = Relay(chain.tip.header, finality_depth=k, tree_depth=4)
    chain.on_block(lambda block: relay.submit_header(block.header))
    adv_tip: Optional[bytes] = None
    adv_blocks = 0
    reorg_depths = []
    for _ in range(n_blocks):
        if rng.random() < alpha:
            if adv_tip is None:
                tip_block = chain.blocks[chain.main[-1]]
                if tip_block.header.height == 0:
                    continue  # nothing to revert yet; idle this slot
                # new round: attack the current tip from its parent
                parent = tip_block.header.parent
            else:
                parent = adv_tip
            header = chain.mine_block(parent_hash=parent, txs=[])
            adv_tip = header.hash
            adv_blocks += 1
            if chain.blocks[adv_tip].header.height > chain.height:
                # publish: the reorg relays the branch's headers, oldest first
                height = chain.height
                reorg_depths.append(height - chain.reorg_to(adv_tip).fork_height)
                adv_tip = None
        else:
            chain.mine_block()
            if adv_tip is not None and (chain.height
                                        - chain.blocks[adv_tip].header.height) > restart_behind:
                adv_tip = None  # give up, restart against the new tip
    return {
        "blocks": n_blocks,
        "adversary_blocks": adv_blocks,
        "reorgs": len(reorg_depths),
        "reorg_depths": reorg_depths,
        "deepest_reorg": max(reorg_depths, default=0),
        "finality_flips": relay.metrics.finality_flips,
        "tip_switches": relay.metrics.tip_switches,
        # liveness: the relay must have tracked the chain the whole run
        "chain_height": chain.height,
        "relay_height": relay.headers[relay.best_tip].height,
    }


# --- bundled scenarios --------------------------------------------------------------------


def bundled_scenario_names() -> list[str]:
    root = resources.files("shieldbridge") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_bundled_scenario(name: str) -> str:
    path = resources.files("shieldbridge") / "scenarios" / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"no bundled scenario {name!r}; "
                          f"available: {', '.join(bundled_scenario_names())}")
    return path.read_text()


def resolve_scenario_text(ref: str) -> str:
    path = Path(ref)
    if path.is_file():
        return path.read_text()
    return load_bundled_scenario(ref)


# --- CLI -------------------------------------------------------------------------------


def _write(out_dir: Path, name: str, lines: Iterable[str]) -> None:
    """Write the lines as they come, so a large CSV is never held whole."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w") as fh:
        fh.writelines(lines)


def cmd_run(args) -> int:
    text = resolve_scenario_text(args.scenario)
    cfg = load_scenario(text)
    result = run_scenario(cfg, seed=args.seed)
    if args.out:
        out = Path(args.out)
        _write(out, "trace.csv", (result.trace_csv,))
        _write(out, "metrics.csv", (result.metrics_csv,))
    for failure in result.failures:
        print(f"FAIL {failure}")
    status = "pass" if result.ok else "FAIL"
    print(f"scenario {args.scenario}: {status} "
          f"(supply={result.metrics['final_supply']}, "
          f"slashes={result.metrics['slash_count']}, "
          f"violations={result.metrics['relay_violations']})")
    return 0 if result.ok else 1


def cmd_privacy(args) -> int:
    analysis = run_privacy_analysis(args.h, args.k, seed=args.seed, total=args.t)
    report: BoundsReport = analysis["report"]
    if args.out:
        out = Path(args.out)
        _write(out, "bounds_report.csv", bounds_report_lines(report))
        _write(out, "distribution.csv", distribution_lines(analysis["cfg"]))
        _write(out, "trace.csv", (analysis["trace_csv"],))
        _write(out, "vault_views.csv", (vault_views_csv(analysis["vault_views"]),))
    pieces = analysis["pieces"]
    print(f"total={analysis['total']} split into {pieces} "
          f"(withheld {analysis['withheld']})")
    print(f"vault views: {analysis['vault_views']}")
    failures = report.unattributed_failures()
    failed = sum(count[1] for count in report.tally().values())
    print(f"bound checks: {len(report.rows)} rows, {failed} failures, "
          f"{len(failures)} outside documented readings")
    return 0 if report.all_pass else 1


def cmd_check_bounds(args) -> int:
    report = check_bounds(_split_config(args.h, args.k))
    for claim, (rows, failed) in sorted(report.tally().items()):
        status = "pass" if not failed else f"FAIL ({failed}/{rows})"
        print(f"{claim:32s} {status}")
    print(f"overall: {'pass' if report.all_pass else 'FAIL'} "
          f"(alternate-reading rows excluded)")
    return 0 if report.all_pass else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shieldbridge",
        description="Deterministic bridge-protocol simulator and splitting "
                    "privacy analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or bundled name")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--out", default=None, help="directory for csv outputs")
    p_run.set_defaults(func=cmd_run)

    p_priv = sub.add_parser("privacy", help="splitting bound reports plus an "
                                            "end-to-end split-and-issue run")
    p_priv.add_argument("--h", type=int, required=True)
    p_priv.add_argument("--k", type=int, required=True)
    p_priv.add_argument("--t", type=int, default=None,
                        help="total to split (default: sampled from the prior)")
    p_priv.add_argument("--seed", type=int, default=1)
    p_priv.add_argument("--out", default=None)
    p_priv.set_defaults(func=cmd_privacy)

    p_chk = sub.add_parser("check-bounds", help="exhaustive bound verification")
    p_chk.add_argument("--h", type=int, required=True)
    p_chk.add_argument("--k", type=int, required=True)
    p_chk.set_defaults(func=cmd_check_bounds)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
