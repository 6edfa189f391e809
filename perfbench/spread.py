"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload optimal-mix --seeds 0-9 --seconds 10 [--trace 1]

Runs are made one after another, each in its own process, from the root of
the checkout. The spread is the distance between the first and third
quartile of the values, as a share of their median, which is what the
bounds in BENCHMARK.json are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + json.dumps({k: round(v[-1], 6) for k, v in values.items()}),
              flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = stats.relative_spread(vals) if len(vals) > 1 and med else None
        summary[name] = {"median": med, "spread": spread, "unit": units[name], "runs": len(vals)}
        shown = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:34s} median {med:14.6f} {units[name]:6s} spread {shown}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
