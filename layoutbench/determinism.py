"""Check that two runs of one seed agree on every deterministic metric.

Usage (from the repository root)::

    python3 layoutbench/determinism.py --seed 1 [--seconds 5] [--limit N]

Runs each workload twice untraced and twice traced with the same seed
and compares ``code_cycles``, ``code_instrs`` and, on the workloads
whose work does not depend on thread timing, every per-layer count.
Prints each value that differs; exits 1 if any did.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from layoutbench.layers import EXACT_UNITS, unit_of  # noqa: E402
from layoutbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int, limit) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if limit is not None:
        command += ["--limit", str(limit)]
    proc = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def deterministic(workload: str, name: str, trace: int) -> bool:
    if not trace:
        return name in ("code_cycles", "code_instrs")
    return WORKLOADS[workload].deterministic_counts and unit_of(name) in EXACT_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.1)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    differing = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, second = (
                run_once(workload, args.seed, args.seconds, trace, args.limit)
                for _ in range(2)
            )
            for name, metric in first.items():
                if not deterministic(workload, name, trace):
                    continue
                if metric["value"] != second[name]["value"]:
                    differing += 1
                    print(
                        f"DIFFERS {workload} {name}: "
                        f"{metric['value']} != {second[name]['value']}"
                    )
    print(f"{differing} deterministic metric(s) differ between two runs of seed {args.seed}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
