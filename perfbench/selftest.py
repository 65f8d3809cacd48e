"""Self-test of the traced run.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it makes two traced
runs with different seeds and asserts that

* both runs are correct;
* every function the workload is mapped to (``workloads.CALLED``) recorded
  at least one call;
* no function under a prefix the workload bypasses (``workloads.NOT_CALLED``)
  recorded any;
* the exact counts (``run.EXACT``) are identical in both runs.

Prints one line per failed assertion and exits 1 if there was any.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import EXACT, HERE, OUT_DIR, ROOT
from workloads import CALLED, NOT_CALLED, WORKLOADS

SEEDS = (11, 12)
# One untraced and one traced pass per run is enough to see every call.
SECONDS = 1


def traced_layers(workload: str, seed: int) -> tuple[bool, dict]:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    report = json.loads((OUT_DIR / f"{workload}-trace1-seed{seed}.json").read_text(encoding="ascii"))
    return report["correct"], report["detail"]["layers"][0]


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        runs = [traced_layers(workload, seed) for seed in SEEDS]
        for seed, (correct, layers) in zip(SEEDS, runs):
            if not correct:
                failures.append(f"{workload} seed {seed}: run not correct")
            for name in CALLED[workload]:
                if not layers.get(name, {}).get("calls"):
                    failures.append(f"{workload}: {name} was never called")
            for name, stat in layers.items():
                if stat.get("calls") and name.startswith(NOT_CALLED[workload]):
                    failures.append(f"{workload}: {name} called {stat['calls']} times")
        (_, first), (_, second) = runs
        for name, field in EXACT:
            a = first.get(name, {}).get(field, 0)
            b = second.get(name, {}).get(field, 0)
            if a != b:
                failures.append(f"{workload}: {name}.{field} is {a} with seed {SEEDS[0]}, {b} with seed {SEEDS[1]}")
    for line in failures:
        print(f"selftest: FAIL {line}")
    print(f"selftest: {'FAILED' if failures else 'ok'} ({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
