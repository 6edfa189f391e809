"""Record optimal-mix's expected lengths, which later runs check their results against.

    python3 perfbench/record_reference.py --seeds 0-19

Writes reference_lengths.json next to this file: for each seed, the
expected length of every optimal-mix instance in plan order, rounded to
1e-12 nats. Optimal expected lengths are unique even where tie-breaks
differ, so a faster search must reproduce them; re-record only when the
workload's inputs change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads as wl
from spread import parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    lengths = {}
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        M = run.import_package()
        for seed in parse_seeds(args.seeds):
            plan = wl.optimal_mix(wl.Context(M, seed, wl.FULL, scratch, spans.Tracer()))
            lengths[str(seed)] = [round(op.run().expected_length, 12) for op in plan.ops]
            print(f"seed {seed}: {len(plan.ops)} instances", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    text = "{\n" + ",\n".join(f'"{s}": {json.dumps(v)}' for s, v in lengths.items()) + "\n}\n"
    wl.REFERENCE_FILE.write_text(text, "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
