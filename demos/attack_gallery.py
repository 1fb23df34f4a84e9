"""Gallery of every scenario bundled with the package: what each one plays,
told by the header comment of its .cfg file, and how the protocol settles it.

Run:  python demos/attack_gallery.py
"""

from itertools import takewhile
from textwrap import fill

from shieldbridge.simcli import (
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    run_scenario,
)

for name in bundled_scenario_names():
    text = load_bundled_scenario(name)
    header = takewhile(lambda line: line.startswith("#"), text.splitlines())
    result = run_scenario(load_scenario(text))
    m = result.metrics
    print(f"{name:26s} [{'ok' if result.ok else 'UNEXPECTED'}]")
    print(fill(" ".join(line.lstrip("# ") for line in header), 78,
               initial_indent="    ", subsequent_indent="    "))
    print(f"    supply={m['final_supply']} slashes={m['slash_count']} "
          f"challenges={m['challenge_upheld']} replays_blocked={m['replay_rejections']} "
          f"liquidations={m['liquidation_count']} relay_violations={m['relay_violations']}")
    for failure in result.failures:
        print(f"    !! {failure}")
print("\nEvery scenario settled exactly as its expectations pin down.")
