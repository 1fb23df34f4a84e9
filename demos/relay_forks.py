"""Chain forks, depth-k finality, and why the relay is only as safe as its
header feed.

Run:  python demos/relay_forks.py
"""

from shieldbridge import ChainState, Relay
from shieldbridge.simcli import run_relay_safety

print("== depth-k finality on a live fork ==")
chain = ChainState(depth=6, fee=0)
relay = Relay(chain.tip.header, finality_depth=4, tree_depth=6)
first = chain.mine_block()
relay.submit_header(first)
for _ in range(3):
    relay.submit_header(chain.mine_block())
print(f"block at depth {relay.depth_of(first.hash)}: "
      f"final = {relay.is_final(first.hash)} (one below the threshold)")
relay.submit_header(chain.mine_block())
print(f"block at depth {relay.depth_of(first.hash)}: "
      f"final = {relay.is_final(first.hash)}")

print("\n== a private fork overtakes the tip, finality holds ==")
fork_from = chain.main[-3]
tip = fork_from
for _ in range(4):
    header = chain.mine_block(parent_hash=tip, txs=[])
    relay.submit_header(header)
    tip = header.hash
print(f"side branch submitted; relay switched tips "
      f"{relay.metrics.tip_switches} time(s), finality flips: "
      f"{relay.metrics.finality_flips}")
print(f"the deep block stayed final: {relay.is_final(first.hash)}")

print("\n== adversary at 33% hash share, honest relaying, 10^4 blocks ==")
for seed in range(3):
    stats = run_relay_safety(n_blocks=10_000, alpha=0.33, k=24, seed=seed,
                             restart_behind=72)
    print(f"  seed {seed}: adversary mined {stats['adversary_blocks']} blocks, "
          f"finality flips: {stats['finality_flips']}")
print("shallow churn is constant, but nothing at depth >= 24 ever moved")

print("\n== the same adversary with the honest relayers muted ==")
print("run the bundled scenario and watch the violation flag:")
print("    shieldbridge run --scenario relay_eclipse --out /tmp/eclipse")
from shieldbridge.simcli import load_bundled_scenario, load_scenario, run_scenario
result = run_scenario(load_scenario(load_bundled_scenario("relay_eclipse")))
print(f"relay violations flagged: {result.metrics['relay_violations']} "
      f"(a forged inclusion proof was accepted)")
