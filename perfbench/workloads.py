"""The four benchmark workloads.

Each workload is a closed loop in simulated time: the next step starts only
when the previous one has finished, and nothing is scheduled on host time.
A workload is a sequence of jobs of fixed size. Job 0 runs cold; later
jobs repeat the workload's unit of work with fresh inputs until the run's
time is up. `job_s` is the median job time, or job 0's alone where it
differs in kind (`cold_job`). Every job's inputs come from the run seed and
the job index only.

A job returns a `JobResult`. `ops` is the unit counted by `ops_per_s`,
`steps_s` the seconds of each step timed for `step_ms_p50/p99` and
`wall_s` the job's timed seconds, both scaled by `clock.Clock`,
`attempted`/`failed` the operations checked for correctness, `errors` the
first few invariant violations, and `digest` a SHA-256 over the job's
outputs, compared against recorded values at the default seed. Only the
first `digest_jobs` jobs compute a digest; that prefix is also what a
traced run executes.

The program's modules are looked up through their module objects at call
time (`splitting.split`, `simcli.IssueBot`, ...), so the tracer's rebinding
at start-up is seen by every call made from here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from shieldbridge import issuing_chain, notes, protocol, relay, simcli, splitting
from shieldbridge import vault_registry, zcash_chain

from clock import Clock

MAX_ERRORS = 10


@dataclass
class JobResult:
    ops: int = 0
    steps_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digest: str = ""
    wall_s: float = 0.0  # the job's timed seconds, scaled
    raw_s: float = 0.0  # the same, unscaled host seconds

    def timed(self, clock: Clock) -> None:
        self.steps_s, self.wall_s = clock.finish()
        self.raw_s = clock.raw_s

    def error(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def job_seed(seed: int, job: int) -> int:
    return seed * 1_000_003 + job


def sha256_text(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


# --- bridge_load ------------------------------------------------------------------


@dataclass(frozen=True)
class LoadScale:
    pairs: int
    ticks: int
    tail: int  # last ticks that start no new cycle, so every request closes


class BridgeLoad:
    """One engine with N honest vault/user pairs; each user cycles
    issue -> redeem against its own vault, a fresh IssueBot/RedeemBot per
    cycle, start ticks and gaps drawn from the seed.

    The backing chain's commitment tree grows for the whole run and every
    tick scans every request ever made, so this is where tree hashing and
    deadline handling cost most. Staggered starts keep ticks comparable:
    synchronised cycles make a few ticks carry every pair's proofs.
    """

    name = "bridge_load"
    unit = "terminal requests"
    step = "Engine.tick"
    digest_jobs = 1
    min_jobs = 1
    cold_job = False  # job_s is the median over all jobs
    scales = {"default": LoadScale(pairs=8, ticks=1000, tail=60),
              "tiny": LoadScale(pairs=2, ticks=120, tail=60)}

    PARAMS = vault_registry.RegistryParams(
        v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2), i_w=5,
        poc_validity=10**6, pob_period=100)
    COLLATERAL = 10_000

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = self.scales[scale]

    def inputs(self, job: int) -> dict:
        rng = Random(job_seed(self.seed, job))
        pairs = []
        for _ in range(self.scale.pairs):
            # a cycle takes at least 2k + 4 ticks, so 200 outlast any horizon used
            pairs.append({
                "start": rng.randrange(2, 22),
                "amounts": [rng.randrange(2, self.PARAMS.v_max + 1) for _ in range(200)],
                "gaps": [rng.randrange(0, 5) for _ in range(200)],
            })
        return {"engine_seed": rng.getrandbits(32), "pairs": pairs}

    def run_job(self, job: int) -> JobResult:
        spec = self.inputs(job)
        scale = self.scale
        out = JobResult()
        clock = Clock()
        t0 = clock.start()
        config = protocol.ProtocolConfig(self.PARAMS, relay_k=6, delta_mint=24,
                                         delta_confirm_issue=6, delta_confirm_redeem=24,
                                         zc_fee=1)
        engine = protocol.Engine(config, spec["engine_seed"])
        engine.oracle.set_rate(0, Fraction(2, 1))
        cycles = []
        for index, pair in enumerate(spec["pairs"]):
            vault, user = f"V{index}", f"U{index}"
            engine.add_actor(vault, zec_notes=(1_000,), i_balance=self.COLLATERAL)
            engine.add_actor(user, zec_notes=(20_000,), i_balance=100)
            cycles.append(_Cycle(vault, user, pair, simcli.VaultBot(
                simcli.ActorSpec(vault, "vault", "honest"))))
        engine.start()
        for cycle in cycles:
            engine.register_vault(cycle.vault, self.COLLATERAL)
            engine.submit_poc(cycle.vault)
        initial_i = engine.total_i()
        last_start = scale.ticks - scale.tail

        def phase(eng):
            for cycle in cycles:
                cycle.step(eng, last_start)

        clock.stop(t0, step=False)
        tick = engine.tick
        for _ in range(scale.ticks):
            t0 = clock.start()
            tick(phase)
            clock.stop(t0)
        out.timed(clock)

        for request_id, request in engine.requests.items():
            out.attempted += 1
            if not request.terminal or request.close_reason != "confirmed":
                out.error(f"{request_id}: closed as {request.close_reason}")
            else:
                out.ops += 1
        for message in protocol.conformance_errors(engine):
            out.attempted += 1
            out.error(message)
        if engine.issuing.pool_value() != engine.issuing.supply:
            out.error("supply law broken at end of run")
        if engine.total_i() != initial_i:
            out.error("i not conserved")
        if any(c.stuck for c in cycles):
            out.error("a cycle stalled")
        if job < self.digest_jobs:
            out.digest = sha256_text(simcli.trace_to_csv(engine.trace_rows()),
                                     simcli.metrics_to_csv(engine))
        return out


class _Cycle:
    """issue -> redeem, repeated, for one user against one vault."""

    def __init__(self, vault: str, user: str, pair: dict, vault_bot):
        self.vault, self.user = vault, user
        self.amounts = iter(pair["amounts"])
        self.gaps = iter(pair["gaps"])
        self.next_start = pair["start"]
        self.vault_bot = vault_bot
        self.bot = None
        self.minted = 0
        self.stuck = False

    def step(self, engine, last_start: int) -> None:
        self.vault_bot.step(engine)
        if self.bot is None:
            if engine.now < self.next_start or engine.now > last_start:
                return
            amount = next(self.amounts)
            self.minted = issuing_chain.post_fee_amount(amount, engine.config.params.f)
            self.bot = simcli.IssueBot(simcli.ActorSpec(
                self.user, "issuer", "honest", vault=self.vault, amount=amount,
                at=engine.now))
        self.bot.step(engine)
        if self.bot.phase == "stalled":
            self.stuck = True
        if self.bot.phase != "done":
            return
        if self.bot.request_id is None:
            self.stuck = True  # the bot gave up before it had a request
        if isinstance(self.bot, simcli.IssueBot):
            self.bot = simcli.RedeemBot(simcli.ActorSpec(
                self.user, "redeemer", "honest", vault=self.vault, amount=self.minted,
                at=engine.now + 1))
        else:
            self.bot = None
            self.next_start = engine.now + 1 + next(self.gaps)


# --- bridge_episodes --------------------------------------------------------------


ISSUER_STRATEGIES = ["honest", "honest", "honest", "no_lock", "no_mint",
                     "wrong_ciphertext", "wrong_relation", "random_rcm"]
VAULT_STRATEGIES = ["honest", "honest", "honest", "silent",
                    "spurious_challenge", "wrong_note"]
REDEEM_STRATEGIES = ["honest", "honest", "redeem_wrong_ciphertext"]
EPISODE_TICKS = 34


class BridgeEpisodes:
    """Many short seeded engines, each 34 ticks at tree depth 6, with the
    honest/byzantine issuer, vault and redeemer mix of the protocol
    conformance criterion; supply law and i conservation checked every tick.

    Engine set-up, header hashing, relay submission, challenge and decrypt
    paths and per-operation guards dominate here, while the commitment tree
    stays tiny: the mechanism workload for header and lifecycle work, and
    the bypass for tree work.
    """

    name = "bridge_episodes"
    unit = "episodes"
    step = "episode"
    digest_jobs = 1
    min_jobs = 3  # at least 1000 episodes, so p99 has 10 beyond it
    cold_job = False
    scales = {"default": 400, "tiny": 20}

    PARAMS = vault_registry.RegistryParams(
        v_max=100, f=Fraction(2, 100), sigma_std=Fraction(3, 2), i_w=5,
        poc_validity=100, pob_period=100)

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.episodes = self.scales[scale]

    def inputs(self, job: int) -> list[dict]:
        rng = Random(job_seed(self.seed, job))
        specs = []
        for _ in range(self.episodes):
            amount = rng.choice([0, 1, 37, 50, 100])
            specs.append({
                "engine_seed": rng.getrandbits(32),
                "relay_k": rng.choice([2, 3]),
                "delta_confirm_issue": rng.choice([2, 3]),
                "vault": rng.choice(VAULT_STRATEGIES),
                "issuer": rng.choice(ISSUER_STRATEGIES),
                "amount": amount,
                "redeemer": (rng.choice(REDEEM_STRATEGIES) if rng.random() < 0.5
                             else None),
                "pob_tick": rng.randrange(3, 30) if rng.random() < 0.25 else None,
                "poi_tick": rng.randrange(3, 30) if rng.random() < 0.25 else None,
            })
        return specs

    def run_job(self, job: int) -> JobResult:
        specs = self.inputs(job)
        out = JobResult()
        digest = hashlib.sha256()
        clock = Clock()
        for spec in specs:
            t0 = clock.start()
            engine, errors = self._episode(spec)
            clock.stop(t0)
            out.attempted += 1
            if errors:
                out.error(f"episode {spec['engine_seed']}: {errors[0]}")
            else:
                out.ops += 1
            if job < self.digest_jobs:
                digest.update(simcli.trace_to_csv(engine.trace_rows()).encode())
                digest.update(simcli.metrics_to_csv(engine).encode())
        out.timed(clock)
        out.digest = digest.hexdigest()
        return out

    def _episode(self, spec: dict):
        params = self.PARAMS
        config = protocol.ProtocolConfig(params, relay_k=spec["relay_k"], delta_mint=8,
                                         delta_confirm_issue=spec["delta_confirm_issue"],
                                         delta_confirm_redeem=8, zc_fee=1, tree_depth=6)
        engine = protocol.Engine(config, spec["engine_seed"])
        engine.oracle.set_rate(0, Fraction(2, 1))
        engine.add_actor("V1", zec_notes=(500,), i_balance=344)
        engine.add_actor("A1", zec_notes=(400,), i_balance=50)
        amount = spec["amount"]
        bots = [simcli.VaultBot(simcli.ActorSpec("V1", "vault", spec["vault"])),
                simcli.IssueBot(simcli.ActorSpec("A1", "issuer", spec["issuer"],
                                                 vault="V1", amount=amount, at=2))]
        if spec["redeemer"] is not None:
            bots.append(simcli.RedeemBot(simcli.ActorSpec(
                "A1", "redeemer", spec["redeemer"], vault="V1",
                amount=max(1, amount // 2), at=16)))
        pob_tick, poi_tick = spec["pob_tick"], spec["poi_tick"]
        engine.start()
        engine.register_vault("V1", 294)  # exactly the capacity boundary
        engine.submit_poc("V1")

        def phase(eng):
            if eng.now == pob_tick:
                eng.submit_pob("V1")
            if eng.now == poi_tick:
                eng.submit_poi("V1")
            for bot in bots:
                bot.step(eng)

        errors = []
        total_i = engine.total_i()
        for _ in range(EPISODE_TICKS):
            engine.tick(phase)
            if engine.issuing.pool_value() != engine.issuing.supply:
                errors.append(f"supply law broken at tick {engine.now}")
            if engine.total_i() != total_i:
                errors.append(f"i not conserved at tick {engine.now}")
        errors.extend(protocol.conformance_errors(engine))
        for rec in engine.registry.accepted_poc_log:
            free = rec["collateral"] - rec["obligations"] * params.sigma_std * rec["rate"]
            if free < params.v_max * (1 - params.f) * params.sigma_std * rec["rate"]:
                errors.append("capacity inequality violated after accepted POC")
        return engine, errors


# --- splitting --------------------------------------------------------------------


@dataclass(frozen=True)
class SplitScale:
    h: int
    k: int
    draws: int  # split() calls per draw job, each one timed step


class Splitting:
    """Job 0 is one cold `check_bounds(SplitConfig(14, 8))`; every later job
    is a fixed number of `split()` draws over totals from `sample_prior`.

    The only workload that runs the splitting module, and one that runs no
    chain code: it should move for a splitting change and for nothing else.
    """

    name = "splitting"
    unit = "split() draws"
    step = "split() call"
    digest_jobs = 2
    min_jobs = 2
    cold_job = True  # job_s is job 0 alone, the cold check_bounds
    scales = {"default": SplitScale(h=14, k=8, draws=100_000),
              "tiny": SplitScale(h=7, k=4, draws=2_000)}

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = self.scales[scale]
        self.cfg = splitting.SplitConfig(self.scale.h, self.scale.k)

    def inputs(self, job: int):
        if job == 0:
            return self.cfg  # the bounds check reads nothing else
        rng = Random(job_seed(self.seed, job))
        totals = [splitting.sample_prior(self.scale.h, rng) for _ in range(self.scale.draws)]
        return totals, rng.getrandbits(32)

    def run_job(self, job: int) -> JobResult:
        return self._bounds_job() if job == 0 else self._draw_job(job)

    def _bounds_job(self) -> JobResult:
        out = JobResult()
        clock = Clock()
        t0 = clock.start()
        report = splitting.check_bounds(self.cfg)
        clock.stop(t0, step=False)
        out.timed(clock)
        out.attempted = len(report.rows)
        for row in report.unattributed_failures():
            out.error(f"{row.claim} j={row.param_j} t={row.param_t}: {row.lhs} > {row.rhs}")
        out.digest = sha256_text(simcli.bounds_report_csv(report))
        return out

    def _draw_job(self, job: int) -> JobResult:
        totals, draw_seed = self.inputs(job)
        cfg = self.cfg
        rng = Random(draw_seed)
        split = splitting.split
        out = JobResult()
        digest = hashlib.sha256() if job < self.digest_jobs else None
        cap = 1 << cfg.m
        clock = Clock()
        start, stop = clock.start, clock.stop
        # each result is checked and dropped at once: retaining them would
        # make garbage collections inside the timed calls grow with the job
        for t in totals:
            t0 = start()
            result = split(t, cfg, rng)
            stop(t0)
            out.attempted += 1
            pieces = result.pieces
            if (len(pieces) != cfg.k or sum(pieces) + result.withheld != t
                    or any(p & (p - 1) or p > cap for p in pieces)):
                out.error(f"split({t}) broke the structural laws: {result}")
            else:
                out.ops += 1
            if digest is not None:
                digest.update(repr(result).encode())
        out.timed(clock)
        if digest is not None:
            out.digest = digest.hexdigest()
        return out


# --- chain_reorg ------------------------------------------------------------------


@dataclass(frozen=True)
class ReorgScale:
    slots: int
    wallets: int
    alpha: float
    k: int


class ChainReorg:
    """`ChainState` and `Relay` only. Honest blocks carry shielded transfers
    among seeded wallets; a private-fork adversary with hash share alpha
    mines side blocks (in alpha of the slots, at seeded places) carrying its
    own output-only transactions, and publishes when its branch outweighs
    the main chain. It abandons a fork
    once the fork point sinks k - 1 below the tip, so every reorg is
    shallower than the relay's finality depth. Every commitment gets a
    `merkle_path` and a relay `verify_note_inclusion` once its block is
    final, and only then may its owner spend it.

    The only workload that reorgs, truncates the tree, mines side blocks
    with a body and switches the relay's tip.
    """

    name = "chain_reorg"
    unit = "blocks"
    step = "block slot"
    digest_jobs = 1
    min_jobs = 1
    cold_job = False
    scales = {"default": ReorgScale(slots=1000, wallets=8, alpha=0.35, k=6),
              "tiny": ReorgScale(slots=80, wallets=4, alpha=0.35, k=6)}
    FUNDING = 1_000_000
    FEE = 1

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = self.scales[scale]

    def inputs(self, job: int) -> dict:
        rng = Random(job_seed(self.seed, job))
        # a fixed number of adversary slots, so jobs differ in where the
        # adversary mines but not in how much
        adversary = set(rng.sample(range(self.scale.slots),
                                   round(self.scale.alpha * self.scale.slots)))
        slots = []
        for index in range(self.scale.slots):
            slots.append({
                "adversary": index in adversary,
                "sender": rng.randrange(self.scale.wallets),
                "recipient": rng.randrange(self.scale.wallets),
                "value": rng.randrange(1, 5_000),
            })
        return {"chain_seed": rng.getrandbits(32), "slots": slots}

    def run_job(self, job: int) -> JobResult:
        spec = self.inputs(job)
        scale = self.scale
        out = JobResult()
        clock = Clock()
        t0 = clock.start()
        rng = Random(spec["chain_seed"])
        chain = zcash_chain.ChainState(fee=self.FEE)
        rly = relay.Relay(chain.tip.header, finality_depth=scale.k)
        directory = notes.SharedSecretDirectory(notes.rng_bytes(rng, 32))
        wallets = [zcash_chain.Wallet(f"W{i}", notes.random_address(rng),
                                      notes.rng_bytes(rng, 32))
                   for i in range(scale.wallets)]
        cm_block: dict[bytes, bytes] = {}
        pending: dict[bytes, tuple] = {}  # cm -> (wallet, note) awaiting finality
        verified: list[tuple[bytes, bytes]] = []
        reorgs: list[tuple[int, int]] = []

        def scan(block):
            for tx in block.txs:
                for out_desc in tx.outputs:
                    cm_block[out_desc.cm.digest] = block.header.hash

        chain.on_block(scan)
        funding = _output_tx([(w.address, self.FUNDING) for w in wallets], directory, rng)
        if not isinstance(chain.submit_shielded_tx(funding, allow_unbacked=True), str):
            out.error("funding transaction rejected")
        for wallet, desc in zip(wallets, funding.outputs):
            pending[desc.cm.digest] = (wallet, desc.note_witness)
        rly.submit_header(chain.mine_block())

        adv_tip = None
        fork_height = 0
        clock.stop(t0, step=False)
        for slot in spec["slots"]:
            t0 = clock.start()
            if slot["adversary"]:
                if adv_tip is None and chain.height > 1:
                    parent = chain.tip.header.parent  # never below the funding block
                    fork_height = chain.height - 1
                else:
                    parent = adv_tip
                if parent is not None:
                    body = _output_tx([(notes.random_address(rng), slot["value"])],
                                      directory, rng)
                    adv_tip = chain.mine_block(parent_hash=parent, txs=[body]).hash
                    out.ops += 1
                    if chain.blocks[adv_tip].cum_work > chain.main_work():
                        branch = []
                        cursor = adv_tip
                        while not chain.block_on_main(cursor):
                            branch.append(chain.blocks[cursor].header)
                            cursor = chain.blocks[cursor].header.parent
                        for header in reversed(branch):
                            rly.submit_header(header)
                        depth = chain.height - fork_height
                        report = chain.reorg_to(adv_tip)
                        reorgs.append((depth, len(report.orphaned_txids)))
                        adv_tip = None
            else:
                sender = wallets[slot["sender"]]
                if sender.balance() > slot["value"] + self.FEE:
                    recipient = wallets[slot["recipient"]]
                    tx, created = zcash_chain.build_transfer(
                        sender, [(recipient.address, slot["value"],
                                  notes.rng_bytes(rng, 32))],
                        self.FEE, directory, rng)
                    out.attempted += 1
                    result = chain.submit_shielded_tx(tx)
                    if isinstance(result, zcash_chain.Rejection):
                        out.error(f"transfer rejected: {result.reason}")
                    else:
                        sender.mark_spent([s.witness.note for s in tx.spends])
                        owners = [recipient, sender]
                        for owner, note in zip(owners, created):
                            pending[notes.commit_note(note).digest] = (owner, note)
                rly.submit_header(chain.mine_block())
                out.ops += 1
                if adv_tip is not None and chain.height - fork_height >= scale.k - 1:
                    adv_tip = None  # too deep to stay below finality: give up
            for cm, (owner, note) in list(pending.items()):
                block_hash = cm_block.get(cm)
                if block_hash is None or not rly.is_final(block_hash):
                    continue
                del pending[cm]
                out.attempted += 1
                commitment = notes.NoteCommitment(cm)
                path = chain.merkle_path(commitment, block_hash)
                if isinstance(path, zcash_chain.Rejection):
                    out.error(f"merkle_path rejected: {path.reason}")
                    continue
                verdict = rly.verify_note_inclusion(commitment, path, block_hash)
                if isinstance(verdict, zcash_chain.Rejection):
                    out.error(f"inclusion proof rejected: {verdict.reason}")
                    continue
                owner.credit(note)
                verified.append((cm, block_hash))
            clock.stop(t0)
        out.timed(clock)

        root, size, nullifiers = chain.replay_from_genesis()
        if (root, size, nullifiers) != (chain.pool.tree.root(), len(chain.pool.tree),
                                        chain.pool.nullifiers):
            out.error("incremental pool state differs from a replay from genesis")
        if rly.best_tip != chain.main[-1]:
            out.error("relay tip is not the chain tip")
        if rly.metrics.finality_flips:
            out.error(f"{rly.metrics.finality_flips} finality flips")
        if not reorgs:
            out.error("no reorg happened")
        if len(verified) < scale.wallets:
            out.error("the funding notes never became spendable")
        out.digest = sha256_text(
            ",".join(h.hex() for h in chain.main), root.hex(),
            ",".join(f"{cm.hex()}@{b.hex()}" for cm, b in verified),
            ",".join(f"{d}/{n}" for d, n in reorgs))
        return out


def _output_tx(payments, directory, rng):
    """Output-only transaction creating fresh notes from nothing."""
    outputs = []
    for address, value in payments:
        note = notes.Note(address, value, notes.rng_bytes(rng, 32))
        epk = directory.new_ephemeral(rng)
        ct = notes.encrypt_note(note, address, directory.secret_for(epk, address), epk)
        outputs.append(zcash_chain.OutputDescription(notes.commit_note(note), ct, note))
    return zcash_chain.ShieldedTx((), tuple(outputs), 0)


WORKLOADS = {w.name: w for w in (BridgeLoad, BridgeEpisodes, Splitting, ChainReorg)}
