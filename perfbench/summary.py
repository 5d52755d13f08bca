"""Run every workload once and print each metric by name, unit and direction.

    python3 perfbench/summary.py [--seed 1] [--seconds 20] [--trace]

Runs ``run.py`` for each workload in turn, one child at a time, untraced
(end-to-end metrics) and, with ``--trace``, traced as well (per-layer
metrics). ``failed_frac`` is printed beside the end-to-end metrics as
failed / attempted invocations, the complement of ``ok_frac``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for trace in (0, 1) if args.trace else (0,):
        for workload in (w["name"] for w in spec["workloads"]):
            argv = [*spec["command"][1:], "--workload", workload, "--seed", str(args.seed)]
            argv += ["--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} (trace {trace}): exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(
                f"\n== {workload} (trace {trace}, seed {args.seed}) correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']:<6s} {better[name]}")
            if not trace:
                failed_frac = result["failed"] / result["attempted"]
                print(f"  {'failed_frac':42s} {failed_frac:>16.6g} {'ratio':<6s} lower")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
