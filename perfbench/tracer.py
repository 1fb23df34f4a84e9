"""Per-layer tracing for the benchmark's traced run.

`install` rebinds, in this process only, the public functions and methods
of each shieldbridge module to wrappers that count calls, time them and
keep one span (id, name, start, end, parent id) per call in memory. Nothing
in the program is edited: class attributes are replaced on the class, and a
module-level function is replaced at every module binding that names it,
because `from .notes import digest` gives `zcash_chain` and
`issuing_chain` their own binding to look up. `uninstall` restores every
original.

`digest` is only counted, by domain tag: it runs millions of times, and a
span per call would swamp the run. A few other hot calls (`split`,
`exact_conditional_expectation`, `Relay.is_final`, `RateFeed.get_rate`,
`CommitmentTree.append`) are timed but keep no span. Self time is a call's
duration minus the time its wrapped callees took, tracked on a stack. The
scaled clock's reference samples interrupt traced calls; their time is
taken out of every call they interrupted, so traced times are host seconds
of simulator work, unscaled.
"""

from __future__ import annotations

import itertools
from collections import Counter
from time import perf_counter

import clock
from shieldbridge import (
    issuing_chain,
    notes,
    oracle,
    protocol,
    relay,
    simcli,
    splitting,
    vault_registry,
    zcash_chain,
)
import shieldbridge

MODULES = (shieldbridge, notes, zcash_chain, relay, oracle, vault_registry,
           issuing_chain, protocol, splitting, simcli)
MAX_SPANS = 2_000_000

REQUEST_OPS = ("request_lock", "do_lock", "do_mint", "confirm_issue", "challenge_issue",
               "do_burn", "do_release", "confirm_redeem", "challenge_redeem")
TIMEOUT_EVENTS = {"mint-timeout", "confirm-issue-timeout", "confirm-redeem-timeout"}


class Stat:
    __slots__ = ("calls", "s", "self_s", "rejected")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.rejected = 0


def _is_rejection(result) -> bool:
    return isinstance(result, zcash_chain.Rejection)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.digest_tags: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.origin = perf_counter()
        self._stack = [[0.0, -1]]  # frames: [time of wrapped callees, span id]
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self.paused_s = 0.0  # time spent in the clock's reference samples

    # -- wrapping --

    def timed(self, name: str, fn, span: bool = True, rejections: bool = False,
              before=None, after=None):
        """Wrap fn under stat `name`. `before(args)` runs first and its
        value goes to `after(args, result, state)`."""
        stat = self.stats.setdefault(name, Stat())
        stack, spans, ids = self._stack, self.spans, self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = next(ids)
            frame = [0.0, sid]
            parent = stack[-1][1]
            stack.append(frame)
            paused = tracer.paused_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0 - (tracer.paused_s - paused)
                stack[-1][0] += duration
                stat.calls += 1
                stat.s += duration
                stat.self_s += duration - frame[0]
                if span:
                    if len(spans) < MAX_SPANS:
                        spans.append((sid, name, t0, t1, parent))
                    else:
                        tracer.dropped_spans += 1
            if rejections and _is_rejection(result):
                stat.rejected += 1
            if after is not None:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_method(self, cls, attr: str, name: str, **options) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.timed(name, original, **options))

    def rebind(self, original, replacement) -> None:
        """Point every module binding of `original` at `replacement`."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent_id\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(f"{sid},{name},{t0 - self.origin:.9f},{t1 - self.origin:.9f},"
                         f"{parent}\n")


def install(tracer: Tracer) -> None:
    counts, tags = tracer.counts, tracer.digest_tags
    patch = tracer.patch_method

    on_alarm = clock.Clock.__dict__["_on_alarm"]

    def paused_on_alarm(self, signum, frame):
        t0 = perf_counter()
        on_alarm(self, signum, frame)
        tracer.paused_s += perf_counter() - t0

    tracer._patches.append((clock.Clock, "_on_alarm", on_alarm))
    clock.Clock._on_alarm = paused_on_alarm

    original_digest = notes.digest

    def counted_digest(tag, *parts):
        tags[tag] += 1
        return original_digest(tag, *parts)

    tracer.rebind(original_digest, counted_digest)
    for module, fn_name, span in ((notes, "encrypt_note", True), (notes, "decrypt_note", True),
                                  (splitting, "split", False),
                                  (splitting, "exact_conditional_expectation", False),
                                  (splitting, "marginal_expectation", True)):
        original = getattr(module, fn_name)
        tracer.rebind(original, tracer.timed(f"{module.__name__.split('.')[-1]}.{fn_name}",
                                             original, span=span))

    def claims(args, report, state):
        counts["check_bounds.claims"] += len(report.rows)

    tracer.rebind(splitting.check_bounds,
                  tracer.timed("splitting.check_bounds", splitting.check_bounds,
                               after=claims))

    # commitment tree: tree-node digests per root and per path
    def node_count(args):
        return tags[b"tree-node"]

    def nodes_into(key):
        def after(args, result, before):
            counts[key] += tags[b"tree-node"] - before
        return after

    tree = zcash_chain.CommitmentTree
    patch(tree, "append", "zcash_chain.tree.append", span=False)
    patch(tree, "root_at", "zcash_chain.tree.root_at", before=node_count,
          after=nodes_into("root_nodes"))
    patch(tree, "path_at", "zcash_chain.tree.path_at", before=node_count,
          after=nodes_into("path_nodes"))
    patch(tree, "truncate", "zcash_chain.tree.truncate")

    chain = zcash_chain.ChainState

    def chain_created(args, result, state):
        counts["chains"] += 1

    def height_before(args):
        return args[0].height

    def reorg_depth(args, report, height):
        if isinstance(report, zcash_chain.ReorgReport):
            counts["reorg_depth_max"] = max(counts["reorg_depth_max"],
                                            height - report.fork_height)

    patch(chain, "__init__", "zcash_chain.ChainState.__init__", after=chain_created)
    patch(chain, "mine_block", "zcash_chain.mine_block")
    patch(chain, "reorg_to", "zcash_chain.reorg_to", rejections=True,
          before=height_before, after=reorg_depth)
    patch(chain, "submit_shielded_tx", "zcash_chain.submit_shielded_tx", rejections=True)
    patch(chain, "merkle_path", "zcash_chain.merkle_path", rejections=True)

    def relay_before(args):
        metrics = args[0].metrics
        return metrics.tip_switches, metrics.finality_flips

    def relay_after(args, result, state):
        metrics = args[0].metrics
        counts["tip_switches"] += metrics.tip_switches - state[0]
        counts["finality_flips"] += metrics.finality_flips - state[1]

    patch(relay.Relay, "submit_header", "relay.submit_header", rejections=True,
          before=relay_before, after=relay_after)
    patch(relay.Relay, "verify_note_inclusion", "relay.verify_note_inclusion",
          rejections=True)
    patch(relay.Relay, "is_final", "relay.is_final", span=False)

    issuing = issuing_chain.IssuingChain
    patch(issuing, "submit_mint_tx", "issuing_chain.submit_mint_tx", rejections=True)
    patch(issuing, "submit_burn_tx", "issuing_chain.submit_burn_tx", rejections=True)
    patch(issuing, "finalize_tx", "issuing_chain.finalize_tx")
    registry = vault_registry.VaultRegistry
    patch(registry, "submit_poc", "vault_registry.submit_poc", rejections=True)
    patch(registry, "check_liquidation", "vault_registry.check_liquidation")
    patch(oracle.RateFeed, "get_rate", "oracle.get_rate", span=False)

    def after_tick(args, events, state):
        counts["deadline_scan_requests"] += len(args[0].requests)
        counts["deadlines_fired"] += sum(1 for e in events if e[1] in TIMEOUT_EVENTS)

    engine = protocol.Engine
    patch(engine, "__init__", "protocol.engine_init")
    patch(engine, "tick", "protocol.tick", after=after_tick)
    for op in REQUEST_OPS:
        patch(engine, op, "protocol.ops", rejections=True)
    for bot in (simcli.IssueBot, simcli.RedeemBot, simcli.VaultBot):
        patch(bot, "step", "simcli.bot_step")


# name -> (unit, value from a tracer); a stat field is "<stat>.<field>"
def _field(stat: str, attr: str):
    return lambda t: getattr(t.stats[stat], attr) if stat in t.stats else 0


def _ratio(numerator, denominator):
    def value(t):
        d = denominator(t)
        return numerator(t) / d if d else 0.0
    return value


def _tag(tag: bytes):
    return lambda t: t.digest_tags[tag]


def _count(key: str):
    return lambda t: t.counts[key]


def _stat_metrics(stat: str, *fields: str) -> list[tuple]:
    units = {"calls": "count", "rejected": "count", "s": "s", "self_s": "s"}
    return [(f"{stat}.{f}", units[f], _field(stat, f)) for f in fields]


PER_LAYER = [
    ("notes.digest.calls", "count", lambda t: sum(t.digest_tags.values())),
    ("notes.digest.tree_node.calls", "count", _tag(b"tree-node")),
    ("notes.digest.block_header.calls", "count", _tag(b"block-header")),
    *_stat_metrics("notes.encrypt_note", "calls", "s"),
    *_stat_metrics("notes.decrypt_note", "calls", "s"),
    *_stat_metrics("zcash_chain.tree.append", "calls"),
    *_stat_metrics("zcash_chain.tree.root_at", "calls", "s"),
    *_stat_metrics("zcash_chain.tree.path_at", "calls", "s"),
    *_stat_metrics("zcash_chain.tree.truncate", "calls", "s"),
    ("zcash_chain.tree.nodes_per_root", "nodes/call",
     _ratio(_count("root_nodes"), _field("zcash_chain.tree.root_at", "calls"))),
    ("zcash_chain.tree.nodes_per_path", "nodes/call",
     _ratio(_count("path_nodes"), _field("zcash_chain.tree.path_at", "calls"))),
    *_stat_metrics("zcash_chain.mine_block", "calls", "s"),
    ("zcash_chain.header_hashes_per_block", "hashes/block",
     _ratio(_tag(b"block-header"),
            lambda t: _field("zcash_chain.mine_block", "calls")(t) + t.counts["chains"])),
    *_stat_metrics("zcash_chain.reorg_to", "calls", "s"),
    ("zcash_chain.reorg_to.depth_max", "blocks", _count("reorg_depth_max")),
    *_stat_metrics("zcash_chain.submit_shielded_tx", "calls", "s", "rejected"),
    *_stat_metrics("zcash_chain.merkle_path", "calls", "s"),
    *_stat_metrics("relay.submit_header", "calls", "s", "rejected"),
    *_stat_metrics("relay.verify_note_inclusion", "calls", "s", "rejected"),
    *_stat_metrics("relay.is_final", "calls"),
    ("relay.tip_switches", "count", _count("tip_switches")),
    ("relay.finality_flips", "count", _count("finality_flips")),
    *_stat_metrics("issuing_chain.submit_mint_tx", "calls", "s", "rejected"),
    *_stat_metrics("issuing_chain.submit_burn_tx", "calls", "s", "rejected"),
    *_stat_metrics("issuing_chain.finalize_tx", "calls", "s"),
    *_stat_metrics("vault_registry.submit_poc", "calls", "s"),
    *_stat_metrics("vault_registry.check_liquidation", "calls", "s"),
    *_stat_metrics("oracle.get_rate", "calls"),
    *_stat_metrics("protocol.tick", "self_s"),
    *_stat_metrics("protocol.ops", "calls", "s", "rejected"),
    ("protocol.deadline_scan.requests", "count", _count("deadline_scan_requests")),
    ("protocol.deadlines_fired", "count", _count("deadlines_fired")),
    *_stat_metrics("protocol.engine_init", "s"),
    *_stat_metrics("splitting.split", "calls", "s"),
    *_stat_metrics("splitting.exact_conditional_expectation", "calls", "s"),
    *_stat_metrics("splitting.marginal_expectation", "s"),
    *_stat_metrics("splitting.check_bounds", "self_s"),
    ("splitting.check_bounds.claims", "count", _count("check_bounds.claims")),
    *_stat_metrics("simcli.bot_step", "s"),
]

# Metrics whose value repeats exactly for the same inputs; all others are times.
EXACT_UNITS = {"count", "nodes/call", "hashes/block", "blocks"}


def layer_metrics(tracer: Tracer) -> dict[str, tuple]:
    return {name: (value(tracer), unit) for name, unit, value in PER_LAYER}
