"""Run every workload once and print each metric by name and unit.

From the root of a jumpsde source tree:

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Exits 1 if any workload's output check failed (or its run did not finish).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    all_correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode}): {proc.stderr.strip()}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
