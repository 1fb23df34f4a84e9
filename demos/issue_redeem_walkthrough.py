"""Walkthrough: one issuer wraps 50 ZEC through a collateralised vault,
then redeems the full wrapped amount back to the backing chain.

Run:  python demos/issue_redeem_walkthrough.py
"""

from fractions import Fraction

from shieldbridge import Engine, ProtocolConfig, RegistryParams

ZEC = 10**8  # base units per coin


def fmt(amount):
    return f"{amount / ZEC:.5f} ZEC"


params = RegistryParams(v_max=100 * ZEC, f=Fraction(2, 100),
                        sigma_std=Fraction(3, 2), i_w=5)
config = ProtocolConfig(params, relay_k=6, tree_depth=10)
engine = Engine(config, seed=2024)
engine.oracle.set_rate(0, Fraction(2, 1))  # 1 ZEC = 2 i

engine.add_actor("vault", zec_notes=(200 * ZEC,), i_balance=29_400_000_100)
engine.add_actor("alice", zec_notes=(100 * ZEC,), i_balance=100)
engine.start()

print("== setup ==")
print("vault registers with collateral at the capacity boundary:",
      engine.register_vault("vault", 29_400_000_000))
print("capacity statement:", engine.submit_poc("vault"))

print("\n== issue: lock 50 ZEC, mint the post-fee amount ==")
request = engine.request_lock("alice", "vault")
print(f"lock permit granted, request {request.request_id}, "
      f"mint deadline tick {request.deadline_mint}")
engine.do_lock("alice", request.request_id, 50 * ZEC)
print("lock transaction submitted; waiting for relay finality "
      f"(depth {config.relay_k})")
for _ in range(config.relay_k + 1):
    engine.tick()
transfer = engine.build_mint(request.request_id)
engine.do_mint("alice", request.request_id, transfer)
print(f"mint pending at tick {engine.now}; "
      f"vault decrypts the mint's ciphertext and confirms")
engine.confirm_issue("vault", request.request_id)
print(f"request state: {request.state}")
print(f"wrapped supply: {fmt(engine.issuing.supply)} "
      f"(= 50 ZEC less the 2% fee, floored)")
print(f"vault obligations: {fmt(engine.registry.witness_obligations('vault'))}")

print("\n== redeem: burn the wrapped coins, vault releases ZEC ==")
minted = engine.issuing.supply
transfer, release_note = engine.build_burn("alice", "vault", minted)
redeem = engine.do_burn("alice", "vault", transfer)
print(f"burn pending, request {redeem.request_id}; redeemer asked for "
      f"{fmt(release_note.value)}")
engine.do_release("vault", redeem.request_id)
print("vault created the redeemer's exact note; waiting for finality")
for _ in range(config.relay_k + 1):
    engine.tick()
engine.confirm_redeem("vault", redeem.request_id)
print(f"request state: {redeem.state}")
print(f"wrapped supply: {fmt(engine.issuing.supply)}")
print(f"vault obligations: {fmt(engine.registry.witness_obligations('vault'))} "
      "(the gap to zero is the fee the vault earned implicitly)")

print("\n== the public trace the observer saw ==")
print("tick,actor,op,request,before,after,outcome")
for row in engine.trace_rows():
    print(",".join(str(x) for x in row))
print("\nNote: no amount ever appears in the trace.")
