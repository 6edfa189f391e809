"""mchuff benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload optimal-mix --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
A run sets up ``SETUP_REPEATS`` times (import plus input generation), then
runs whole passes over the workload's operations back to back, one caller
in a closed loop, until ``--seconds`` of passes have been measured. Every
output is checked after its pass, outside the timed region. End-to-end
times and rates are scaled to nominal host speed by a reference task timed
between operations (``stats.HostSpeed``); the raw figures are printed too.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans
import stats
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PACKAGE_MODULES = ("core", "search", "heuristics", "huffman", "tree", "codec", "digits",
                   "estimator", "cli", "tables")
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "encode_sym_per_s": "sym/s",
    "decode_sym_per_s": "sym/s",
    "peak_rss_mb": "MB",
    "redundancy_nats": "nats",
}

#: Span name -> where the traced function is defined. Self time per span
#: name is reported as "<name>_s".
SPAN_TARGETS = {
    "core.from_masses": [("core.Distribution", "from_masses")],
    "core.entropy": [("core", "entropy")],
    "core.kraft_sum": [("core", "kraft_sum")],
    "search.optimal_search": [("search", "optimal_search")],
    "search.replay": [("search", "replay_sequence")],
    "heuristics.pruned_search": [("heuristics", "pruned_search")],
    "huffman.build_single": [("huffman", "build_single_huffman")],
    "huffman.expected_length": [("huffman", "huffman_expected_length")],
    "tree.codebook": [("tree", "codebook_from_tree")],
    "tree.validate": [("tree", "validate_tree")],
    "tree.expected_length": [("tree", "expected_length")],
    "tree.local_redundancy": [("tree", "local_redundancy")],
    "tree.serialize": [("tree", "tree_to_obj"), ("tree", "tree_from_obj"),
                       ("tree", "map_classes")],
    "codec.encode": [("codec", "encode")],
    "codec.decode": [("codec", "decode")],
    "estimator.fit": [("estimator.MultiChannelHuffmanCoder", "fit")],
    "estimator.transform": [("estimator.MultiChannelHuffmanCoder", "transform")],
    "estimator.inverse_transform": [("estimator.MultiChannelHuffmanCoder", "inverse_transform")],
}
#: Spans the workloads open themselves, around their calls into the CLI.
CLI_SPANS = ("cli.analyze", "cli.build", "cli.encode", "cli.decode")
#: Root span of every traced pass; its self time is the benchmark loop's own.
LOOP_SPAN = "bench.loop"

WORK_COUNTS = ("search.subproblems", "heuristics.states", "heuristics.sequences",
               "heuristics.survivors", "tree.nodes", "tree.max_depth", "codec.digits", "codec.typed_errors",
               "cli.json_bytes")

PER_LAYER = {
    **{f"{name}_s": "s" for name in (*SPAN_TARGETS, *CLI_SPANS, LOOP_SPAN)},
    "bench.measured_s": "s",
    **{name: "count" for name in WORK_COUNTS},
    "heuristics.survivor_ratio": "ratio",
    "cli.deep_tree_failures": "count",
    "trace.overhead_ops_per_s": "1/s",
    "trace.overhead_share": "ratio",
    "bench.error_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the checkout has no package source."""


def import_package() -> SimpleNamespace:
    """Import mchuff afresh from the checkout's src/, and nothing else."""
    if not (SRC / "mchuff" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'mchuff'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mchuff" or n.startswith("mchuff.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mchuff")
    if Path(pkg.__file__).resolve().parent != (SRC / "mchuff").resolve():
        raise BenchError(f"imported mchuff from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        pkg=pkg, **{n: importlib.import_module(f"mchuff.{n}") for n in PACKAGE_MODULES})


def span_targets(M) -> dict[str, list[tuple[object, str]]]:
    def owner(path: str):
        obj = M
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    return {name: [(owner(path), attr) for path, attr in places]
            for name, places in SPAN_TARGETS.items()}


def run_pass(ops, speed: stats.HostSpeed | None = None):
    """Every operation once, back to back; (outputs, start times, latencies, wall time).

    With ``speed``, the reference task runs after every operation; its time
    is left out of the latencies and of the wall time.
    """
    outputs, starts, latencies = [], [], []
    sampled = 0.0
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            out = wl.Crash(exc, traceback.format_exc())
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        outputs.append(out)
        if speed is not None:
            sampled += speed.sample()
    return outputs, starts, latencies, time.perf_counter() - start - sampled


def check_pass(ops, outputs) -> list[wl.Outcome]:
    outcomes = []
    for op, out in zip(ops, outputs):
        try:
            outcomes.append(op.check(out))
        except Exception:  # a check that cannot finish fails its operation
            outcomes.append(wl.Outcome(problem=f"check raised:\n{traceback.format_exc()}"))
    return outcomes


class Run:
    """Passes measured so far, and what their checks found."""

    def __init__(self, plan: wl.Plan):
        self.plan = plan
        self.first: list[wl.Outcome] | None = None
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.wall = 0.0
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.codec_calls: list[tuple[float, float, str, int]] = []

    def measure(self, timed_pass=run_pass) -> None:
        """One pass, then its checks; the codec clock covers both."""
        self.plan.clock = wl.CodecClock()
        outputs, starts, latencies, wall = timed_pass(self.plan.ops)
        outcomes = check_pass(self.plan.ops, outputs)
        wl.run_roundtrips(self.plan)
        if self.first is None:
            self.first = outcomes
        failed = 0
        for i, (op, got) in enumerate(zip(self.plan.ops, outcomes)):
            problem = got.problem
            ref = self.first[i]
            if problem is None and (got.work, got.redundancy) != (ref.work, ref.redundancy):
                problem = "work counts or redundancy differ from the first pass"
            if problem is not None:
                failed += 1
                self.problems.append(f"op {i} ({op.kind} {op.size}): {problem}")
        self.codec_calls += self.plan.clock.calls
        self.passes += 1
        self.attempted += len(outputs)
        self.failed += failed
        self.starts += starts
        self.latencies += latencies
        self.wall += wall

    def durations(self, speed: stats.HostSpeed | None = None) -> list[float]:
        """Operation latencies; with ``speed``, as on a host at nominal speed."""
        if speed is None:
            return self.latencies
        return [speed.scaled(t, d) for t, d in zip(self.starts, self.latencies)]

    def ops_per_s(self, speed: stats.HostSpeed | None = None) -> float:
        """Operations that passed their checks, per second of the measured passes.

        With ``speed``, the seconds are the operations' own, scaled.
        """
        seconds = self.wall if speed is None else sum(self.durations(speed))
        return (self.attempted - self.failed) / seconds

    def symbols_per_s(self, direction: str, speed: stats.HostSpeed | None = None) -> float:
        calls = [c for c in self.codec_calls if c[2] == direction]
        seconds = sum(d if speed is None else speed.scaled(t, d) for t, d, _, _ in calls)
        return sum(c[3] for c in calls) / seconds if seconds else 0.0

    def work(self) -> dict[str, float]:
        """Work counts of one pass (every pass is checked to repeat them)."""
        total = dict.fromkeys(WORK_COUNTS, 0)
        for got in self.first:
            for key, value in got.work.items():
                total[key] = max(total[key], value) if key == "tree.max_depth" else total[key] + value
        return total

    def redundancy(self) -> float:
        return statistics.fmean(got.redundancy for got in self.first if got.redundancy is not None)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: wl.Scale = wl.FULL) -> dict:
    """One benchmark run; returns the result object the command prints last.

    With ``trace``, untraced and traced passes alternate until the traced
    ones have taken ``seconds / 2``; the per-layer figures come from the
    traced passes and the overhead from comparing the two kinds.
    """
    build = wl.WORKLOADS[name]
    tracer = spans.Tracer()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        speed = stats.HostSpeed()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            M = import_package()
            plan = build(wl.Context(M, seed, scale, scratch, tracer))
            setups.append((t0, time.perf_counter() - t0))
            if not trace:
                for _ in range(stats.HostSpeed.NEAREST):
                    speed.sample()
        modules = [M.pkg, *(getattr(M, n) for n in PACKAGE_MODULES)]
        targets = span_targets(M)
        # the inputs live for the whole run; keep the collector from walking
        # them, so that collections cost what the package's own objects cost
        gc.freeze()

        def traced_pass(ops):
            tracer.install(modules, targets)
            try:
                with tracer.span(LOOP_SPAN):
                    return run_pass(ops)
            finally:
                tracer.uninstall()

        plain, traced = Run(plan), Run(plan)
        while not plain.passes or (traced.wall < seconds / 2 if trace else plain.wall < seconds):
            if trace:  # per-layer figures are raw; both kinds of pass skip the reference
                plain.measure()
                traced.measure(traced_pass)
            else:
                plan.speed = speed
                plain.measure(lambda ops: run_pass(ops, speed))
        deep_failures = wl.deep_tree_failures(M, scratch)
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)

    runs = (plain, traced) if trace else (plain,)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for problem in [p for r in runs for p in r.problems][:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    work = plain.work()
    if trace and traced.work() != work:
        failed += 1
        print("FAILED traced and untraced passes did different work", file=sys.stderr)

    if trace:
        self_time = spans.self_times(tracer.spans)
        metrics = {f"{span}_s": self_time.get(span, 0.0) / traced.passes
                   for span in (*SPAN_TARGETS, *CLI_SPANS, LOOP_SPAN)}
        metrics["bench.measured_s"] = spans.root_time(tracer.spans) / traced.passes
        metrics.update({key: work[key] for key in WORK_COUNTS})
        sequences = work["heuristics.sequences"]
        metrics["heuristics.survivor_ratio"] = (
            work["heuristics.survivors"] / sequences if sequences else 0.0)
        metrics["cli.deep_tree_failures"] = deep_failures
        overhead = plain.ops_per_s() - traced.ops_per_s()
        metrics["trace.overhead_ops_per_s"] = overhead
        metrics["trace.overhead_share"] = overhead / plain.ops_per_s()
        metrics["bench.error_rate"] = stats.error_rate(attempted, failed)
        units = PER_LAYER
    else:
        def figures(speed):
            """End-to-end times and rates; with ``speed``, as at nominal host speed."""
            durations = plain.durations(speed)
            return {
                "setup_s": statistics.median(
                    d if speed is None else speed.scaled(t, d) for t, d in setups),
                "ops_per_s": plain.ops_per_s(speed),
                "op_p50_ms": statistics.median(durations) * 1e3,
                "op_p90_ms": stats.percentile(durations, 0.9) * 1e3,
                "encode_sym_per_s": plain.symbols_per_s("encode", speed),
                "decode_sym_per_s": plain.symbols_per_s("decode", speed),
            }

        metrics = figures(speed)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["redundancy_nats"] = plain.redundancy()
        print(f"mean host slowdown {speed.slowdown:.4f}; as timed: " + json.dumps(figures(None)))
        units = END_TO_END
    print(f"{name} seed={seed}: {plain.passes} untraced and {traced.passes} traced passes "
          f"of {len(plan.ops)} ops ({len(plain.latencies)} latency samples), "
          f"{SETUP_REPEATS} setups, deep-tree failures {deep_failures}, "
          f"error rate {stats.error_rate(attempted, failed)}")
    print("work per pass: " + json.dumps(work, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
