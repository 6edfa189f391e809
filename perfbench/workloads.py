"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

A workload is built as a Plan: a fixed list of operations making up one
pass. The seed changes the masses and symbols, never the number, kind or
size of the operations, so every seed does the same mix of work. Each
operation has a check that runs after the pass, outside the timed region.

Operations call the package through module attributes (``M.search.
optimal_search``), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import stats

#: Tolerance for comparing expected lengths and entropies, in nats.
EPS = 1e-9

#: The two kinds of masses every search instance uses, half each.
MASS_KINDS = ("counts", "fine")

#: Symbols per round-trip message when a search workload checks its codes.
CHECK_MESSAGE = 3000


@dataclass(frozen=True)
class Scale:
    """Input sizes. Only tests use anything but FULL; op counts never change."""

    max_m: int | None  # cap on search instance sizes
    text_symbols: int  # stream-estimator text length
    cli_m: tuple[int, int]  # smallest and largest CLI alphabet
    cli_symbols: int  # CLI message length, plus 2 m


FULL = Scale(max_m=None, text_symbols=1_000_000, cli_m=(256, 4096), cli_symbols=4_000)
TINY = Scale(max_m=7, text_symbols=20_000, cli_m=(48, 96), cli_symbols=300)


@dataclass
class Context:
    """What a workload builder gets: the package's modules and where to put files."""

    M: object  # namespace of mchuff modules
    seed: int
    scale: Scale
    scratch: Path  # directory for files, inside the checkout
    tracer: object  # spans.Tracer; its span() records only in the traced passes


@dataclass
class Outcome:
    """What a check found: a problem (None if the output is right), work counts, L - H."""

    problem: str | None = None
    work: dict[str, int] = field(default_factory=dict)
    redundancy: float | None = None


@dataclass
class Op:
    kind: str
    size: tuple  # seed-independent description of the instance
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class CodecClock:
    """Time spent in encode and decode calls during one pass and its checks."""

    #: (start, seconds, "encode" or "decode", symbols), one per timed call
    calls: list[tuple[float, float, str, int]] = field(default_factory=list)

    def timed(self, direction: str, symbols: int, call):
        """``call()``, recording when it started, how long it took and ``symbols``."""
        start = time.perf_counter()
        out = call()
        self.calls.append((start, time.perf_counter() - start, direction, symbols))
        return out


def _sample(speed: stats.HostSpeed | None) -> None:
    for _ in range(stats.HostSpeed.NEAREST if speed is not None else 0):
        speed.sample()


class Crash:
    """Output of an operation that raised where no exception was expected."""

    def __init__(self, exc: BaseException, trace: str):
        self.exc = exc
        self.trace = trace

    def __repr__(self) -> str:
        return f"Crash({self.exc!r})"


@dataclass
class Plan:
    ops: list[Op]
    clock: CodecClock = field(default_factory=CodecClock)
    #: (outcome, encode, decode, message) queued by checks for run_roundtrips
    roundtrips: list[tuple] = field(default_factory=list)
    #: set by the untraced run: the round-trip blocks time the reference task too
    speed: stats.HostSpeed | None = None


def run_roundtrips(plan: Plan) -> None:
    """Round-trip the messages the checks queued, timing all encodes, then all decodes.

    Two contiguous blocks time more steadily than many short calls between
    checks. The reference task runs after each block, for the host speed.
    An outcome whose message does not come back is marked failed.
    """
    queued, plan.roundtrips = plan.roundtrips, []
    symbols = sum(len(message) for *_, message in queued)
    try:
        streams = plan.clock.timed("encode", symbols, lambda: [enc() for _, enc, _, _ in queued])
        _sample(plan.speed)
        back = plan.clock.timed("decode", symbols,
                                lambda: [dec(s) for (_, _, dec, _), s in zip(queued, streams)])
        _sample(plan.speed)
    except Exception as exc:  # one broken code fails every queued round trip
        back = [Crash(exc, "")] * len(queued)
    for (outcome, _, _, message), got in zip(queued, back):
        if got != message and outcome.problem is None:
            outcome.problem = f"the round-trip message did not come back: {got!r:.200}"


# --------------------------------------------------------------------------
# input generation


def count_masses(rng: random.Random, m: int) -> list[Fraction]:
    """Masses c/4m from a small sample: small denominators, many ties."""
    total = 4 * m
    counts = [1] * m
    for _ in range(total - m):
        counts[rng.randrange(m)] += 1
    return [Fraction(c, total) for c in counts]


def fine_masses(rng: random.Random, m: int) -> list[Fraction]:
    """Masses with denominators near 10^6 m: few ties."""
    weights = [rng.randint(1, 10**6) for _ in range(m)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def geometric_masses(m: int) -> list[Fraction]:
    """1/2, 1/4, ..., with the last mass doubled: the Huffman tree has depth m - 1."""
    masses = [Fraction(1, 2**j) for j in range(1, m)]
    return masses + [masses[-1]]


def zipf_weights(m: int, exponent: float) -> list[float]:
    return [1.0 / (r**exponent) for r in range(1, m + 1)]


def _capped(m: int, scale: Scale) -> int:
    return m if scale.max_m is None else min(m, scale.max_m)


def search_instances(profiles, scale: Scale, replicas: int) -> list[tuple]:
    """(sizes, m, mass kind) for every m in each profile's range."""
    out = []
    for sizes, lo, hi in profiles:
        for m in range(lo, hi + 1):
            for kind in MASS_KINDS:
                out.extend([(sizes, _capped(m, scale), kind)] * replicas)
    return out


def _distribution(M, rng: random.Random, m: int, kind: str):
    make = count_masses if kind == "counts" else fine_masses
    return M.core.Distribution.from_masses(make(rng, m))


def _message(rng: random.Random, dist, length: int) -> list[int]:
    return rng.choices(range(dist.m), weights=[float(p) for p in dist.masses], k=length)


# --------------------------------------------------------------------------
# checks shared by the search workloads


def tree_shape(M, root) -> tuple[int, int]:
    """(node count, depth) of a decoding tree, without recursion."""
    nodes = depth = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if isinstance(node, M.tree.Internal):
            stack.extend((child, d + 1) for child in node.children)
    return nodes, depth


def _queue_roundtrip(M, plan: Plan, outcome: Outcome, result, profile, message) -> Outcome:
    """Queue a round trip of ``message`` through the built code, unless the check failed."""
    if outcome.problem is None:
        book = M.tree.codebook_from_tree(result.tree, profile)
        plan.roundtrips.append((
            outcome,
            lambda: M.codec.encode(book, message),
            lambda streams: M.codec.decode(result.tree, streams, count=len(message)),
            message,
        ))
    return outcome


def _check_code(M, result, dist, profile) -> str | None:
    problems = M.tree.validate_tree(result.tree, profile, dist.m)
    if problems:
        return f"invalid tree: {problems[0]}"
    length = result.expected_length
    realized = M.tree.expected_length(result.tree, dist)
    if abs(realized - length) > EPS:
        return f"tree has expected length {realized}, result claims {length}"
    if length < M.core.entropy(dist) - EPS:
        return f"expected length {length} is below the entropy"
    return None


def _huffman_floor(M, dist, profile) -> float:
    return min(M.huffman.huffman_expected_length(dist.masses, q) for q in set(profile.sizes))


def _crashed(output) -> Outcome | None:
    if isinstance(output, Crash):
        return Outcome(problem=f"raised {output.exc!r}\n{output.trace}")
    return None


# --------------------------------------------------------------------------
# optimal-mix

#: (sizes, smallest m, largest m). Costs grow exponentially in m, so the
#: largest sizes are kept where a handful of instances does not dominate a
#: pass; three replicas of every size and kind average out the seed.
OPTIMAL_PROFILES = (((2, 3), 12, 20), ((2, 3, 5), 10, 17), ((3, 4), 14, 26))


REFERENCE_FILE = Path(__file__).with_name("reference_lengths.json")


def reference_lengths(seed: int, scale: Scale) -> list[float] | None:
    """Optimal expected lengths recorded for this seed's optimal-mix, if any."""
    if scale != FULL or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text("utf-8")).get(str(seed))


def optimal_mix(ctx: Context) -> Plan:
    """``optimal_search`` on (2,3), (2,3,5) and (3,4) instances, three of each size and kind."""
    M = ctx.M
    rng = random.Random(f"{ctx.seed}:optimal-mix")
    plan = Plan(ops=[])
    instances = search_instances(OPTIMAL_PROFILES, ctx.scale, replicas=3)
    references = reference_lengths(ctx.seed, ctx.scale)
    for i, (sizes, m, kind) in enumerate(instances):
        profile = M.core.ChannelProfile.from_sizes(sizes)
        dist = _distribution(M, rng, m, kind)
        message = _message(rng, dist, CHECK_MESSAGE)
        reference = None if references is None else references[i]

        def run(dist=dist, profile=profile):
            return M.search.optimal_search(dist, profile)

        def check(result, dist=dist, profile=profile, message=message, reference=reference):
            crashed = _crashed(result)
            if crashed:
                return crashed
            length = result.expected_length
            entropy = M.core.entropy(dist)
            problem = _check_code(M, result, dist, profile)
            if problem is None and length >= entropy + math.log(profile.sizes[0]):
                problem = f"expected length {length} reaches H + ln q1"
            if problem is None and length > _huffman_floor(M, dist, profile) + EPS:
                problem = f"expected length {length} exceeds a single-channel Huffman code"
            if problem is None and reference is not None and abs(length - reference) > EPS:
                problem = f"expected length {length} differs from the recorded {reference}"
            nodes, depth = tree_shape(M, result.tree)
            work = {"search.subproblems": result.subproblem_count, "tree.nodes": nodes,
                    "tree.max_depth": depth}
            return _queue_roundtrip(M, plan, Outcome(problem, work, length - entropy),
                                    result, profile, message)

        plan.ops.append(Op("optimal_search", (sizes, m, kind), run, check))
    return plan


# --------------------------------------------------------------------------
# pruned-mix

PRUNED_PROFILES = (((2, 3), 10, 16), ((2, 3, 5), 8, 13))


def pruned_mix(ctx: Context) -> Plan:
    """``pruned_search`` over every size, mass kind and metric once."""
    M = ctx.M
    rng = random.Random(f"{ctx.seed}:pruned-mix")
    metrics = M.heuristics.METRICS
    plan = Plan(ops=[])
    for sizes, m, kind in search_instances(PRUNED_PROFILES, ctx.scale, replicas=1):
        for metric in metrics:
            profile = M.core.ChannelProfile.from_sizes(sizes)
            dist = _distribution(M, rng, m, kind)
            message = _message(rng, dist, CHECK_MESSAGE)

            def run(dist=dist, profile=profile, metric=metric):
                return M.heuristics.pruned_search(dist, profile, metric)

            def check(output, dist=dist, profile=profile, metric=metric, message=message):
                crashed = _crashed(output)
                if crashed:
                    return crashed
                result, trace = output
                problem = _check_code(M, result, dist, profile)
                if (problem is None and metric == "huffman_completion"
                        and result.expected_length > _huffman_floor(M, dist, profile) + EPS):
                    problem = "huffman_completion is longer than a single-channel Huffman code"
                nodes, depth = tree_shape(M, result.tree)
                work = {"heuristics.states": result.subproblem_count,
                        "heuristics.sequences": len(trace.sequences),
                        "heuristics.survivors": len(trace.survivors),
                        "tree.nodes": nodes, "tree.max_depth": depth}
                outcome = Outcome(problem, work, result.expected_length - M.core.entropy(dist))
                return _queue_roundtrip(M, plan, outcome, result, profile, message)

            plan.ops.append(Op("pruned_search", (sizes, m, kind, metric), run, check))
    return plan


# --------------------------------------------------------------------------
# stream-estimator

STREAM_CHANNELS = (3, 2)
STREAM_ALPHABET = "abcdefghijklmnopqrst"
STREAM_CHUNKS = 100
#: Every MALFORMED_EVERY-th chunk is also decoded damaged, cycling through these.
MALFORMED_EVERY = 16
MALFORMED = ("truncated", "corrupted", "trailing")


def _damage(streams: tuple[str, ...], how: str) -> tuple[str, ...]:
    """Streams in canonical channel order, broken so decoding ``count`` symbols must raise."""
    out = list(streams)
    i = 0 if out[0] else 1
    if how == "truncated":
        out[i] = out[i][:-1]
    elif how == "corrupted":
        mid = len(out[i]) // 2
        out[i] = out[i][:mid] + "z" + out[i][mid + 1:]
    else:
        out[i] = out[i] + "0"
    return tuple(out)


def stream_estimator(ctx: Context) -> Plan:
    """Fit ``MultiChannelHuffmanCoder((3, 2))`` on Zipf text, then stream it chunk by chunk.

    One operation round-trips one chunk (``transform`` then
    ``inverse_transform``); the two calls are timed apart for the encode
    and decode rates.
    """
    M = ctx.M
    rng = random.Random(f"{ctx.seed}:stream-estimator")
    text = rng.choices(STREAM_ALPHABET, weights=zipf_weights(len(STREAM_ALPHABET), 1.1),
                       k=ctx.scale.text_symbols)
    # chunk c has about 2c + 1 hundredths of a percent of the text: sizes grow
    # linearly, so latencies spread evenly and the median is not a cliff edge
    # between two clusters when the machine's speed changes
    cuts = [len(text) * c * c // STREAM_CHUNKS**2 for c in range(STREAM_CHUNKS + 1)]
    chunks = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    expected_error = {
        "truncated": M.codec.TruncationError,
        "corrupted": M.codec.CorruptionError,
        "trailing": M.codec.TrailingDataError,
    }
    state: dict = {}
    plan = Plan(ops=[])

    def fit():
        state["coder"] = M.estimator.MultiChannelHuffmanCoder(STREAM_CHANNELS, method="optimal")
        return state["coder"].fit(text)

    def check_fit(coder):
        crashed = _crashed(coder)
        if crashed:
            return crashed
        fitted = SimpleNamespace(tree=coder.tree_, expected_length=coder.expected_length_)
        problem = _check_code(M, fitted, coder.distribution_, coder.profile_)
        reference = M.search.optimal_search(coder.distribution_, coder.profile_)
        if problem is None and reference.sequence != coder.merge_sequence_:
            problem = f"fit chose {coder.merge_sequence_}, optimal_search {reference.sequence}"
        nodes, depth = tree_shape(M, coder.tree_)
        work = {"search.subproblems": reference.subproblem_count, "tree.nodes": nodes,
                "tree.max_depth": depth}
        return Outcome(problem, work, coder.expected_length_ - coder.entropy_)

    plan.ops.append(Op("fit", (len(text),), fit, check_fit))

    for c, chunk in enumerate(chunks):
        def roundtrip(c=c, chunk=chunk):
            coder = state["coder"]
            n = len(chunk)
            state[c] = plan.clock.timed("encode", n, lambda: coder.transform(chunk))
            return state[c], plan.clock.timed("decode", n, lambda: coder.inverse_transform(state[c]))

        def check_roundtrip(output, chunk=chunk):
            crashed = _crashed(output)
            if crashed:
                return crashed
            streams, back = output
            digits = sum(M.digits.length(s, q) for s, q in zip(streams, STREAM_CHANNELS))
            return Outcome(None if back == chunk else "decoded chunk differs from the input",
                           work={"codec.digits": digits})

        plan.ops.append(Op("roundtrip", (len(chunk),), roundtrip, check_roundtrip))

        if c % MALFORMED_EVERY == MALFORMED_EVERY // 2:
            how = MALFORMED[(c // MALFORMED_EVERY) % len(MALFORMED)]

            def malformed(c=c, n=len(chunk), how=how):
                coder = state["coder"]
                canonical = tuple(state[c][u] for u in coder.profile_.user_order)
                try:
                    return M.codec.decode(coder.tree_, _damage(canonical, how), count=n)
                except M.codec.CodecError as exc:
                    return exc

            def check_malformed(output, how=how):
                crashed = _crashed(output)
                if crashed:
                    return crashed
                if type(output) is not expected_error[how]:
                    return Outcome(f"{how} chunk gave {output!r}, not {expected_error[how].__name__}")
                return Outcome(work={"codec.typed_errors": 1})

            plan.ops.append(Op("malformed", (how,), malformed, check_malformed))
    return plan


# --------------------------------------------------------------------------
# cli-large-alphabet

CLI_INSTANCES = 26
#: (channels as the user lists them, 1-based channel for ``single=``).
#: q = 40 takes the comma-separated digit path; several lists are out of order.
CLI_CHANNELS = (([2, 40], 2), ([40, 3], 1), ([3, 2], 2), ([2, 40], 1), ([5, 2, 3], 1))


def cli_sizes(scale: Scale) -> list[int]:
    """Alphabet sizes from lo to hi, denser at the small end so that a pass stays short."""
    lo, hi = scale.cli_m
    last = CLI_INSTANCES - 1
    return [round(lo * (hi / lo) ** ((i / last) ** 2)) for i in range(CLI_INSTANCES)]


def run_cli(M, argv: list[str]) -> tuple[int, str, str]:
    """``mchuff.cli.main`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = M.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_large_alphabet(ctx: Context) -> Plan:
    """analyze, build ``single=``, encode, decode through the CLI on large alphabets."""
    M = ctx.M
    rng = random.Random(f"{ctx.seed}:cli-large-alphabet")
    plan = Plan(ops=[])
    for i, m in enumerate(cli_sizes(ctx.scale)):
        channels, single = CLI_CHANNELS[i % len(CLI_CHANNELS)]
        q = channels[single - 1]
        # messages grow with the alphabet, so encode and decode latencies spread
        # out instead of piling up at one value next to the median
        n = ctx.scale.cli_symbols + 2 * m
        message = list(range(m)) + rng.choices(range(m), weights=zipf_weights(m, 1.0), k=n - m)
        rng.shuffle(message)
        counts = [0] * m
        for s in message:
            counts[s] += 1
        order = sorted(range(m), key=lambda j: (counts[j], j))
        canonical = [0] * m
        for j, s in enumerate(order):
            canonical[s] = j
        symbols = [canonical[s] for s in message]
        entropy = -sum(c / n * math.log(c / n) for c in counts)

        base = ctx.scratch / f"cli{i}"
        base.mkdir(parents=True, exist_ok=True)
        dist_file, sym_file = base / "dist.json", base / "symbols.txt"
        out_dir, streams_file, decoded_file = base / "out", base / "streams.json", base / "decoded.txt"
        dist_file.write_text(json.dumps(
            {"masses": [str(Fraction(c, n)) for c in counts], "channels": channels}), "utf-8")
        sym_file.write_text(" ".join(map(str, symbols)) + "\n", "utf-8")
        size = (m, tuple(channels), single)

        def command(name, argv, direction=None):
            def call():
                with ctx.tracer.span(f"cli.{name}"):
                    return run_cli(M, argv)

            if direction is None:
                return call
            return lambda n=n: plan.clock.timed(direction, n, call)

        def exited(output, name) -> Outcome | None:
            crashed = _crashed(output)
            if crashed:
                return crashed
            code, _, err = output
            if code != 0:
                return Outcome(f"{name} exited {code}: {err.strip()}")
            return None

        def check_analyze(output, m=m, entropy=entropy):
            bad = exited(output, "analyze")
            if bad:
                return bad
            lines = dict(line.split(": ", 1) for line in output[1].splitlines() if ": " in line)
            if lines.get("masses") != str(m):
                return Outcome(f"analyze reports {lines.get('masses')} masses, not {m}")
            printed = float(lines["entropy"].split()[0])
            if abs(printed - entropy) > EPS:
                return Outcome(f"analyze reports entropy {printed}, expected {entropy:.10f}")
            return Outcome()

        def check_build(output, out_dir=out_dir, order=order, q=q, entropy=entropy):
            bad = exited(output, "build")
            if bad:
                return bad
            stats = json.loads((out_dir / "stats.json").read_text("utf-8"))
            book = json.loads((out_dir / "codebook.json").read_text("utf-8"))
            tree = json.loads((out_dir / "tree.json").read_text("utf-8"))
            length = stats["expected_length_nats"]
            problem = None
            if book["input_index"] != order:
                problem = "codebook input_index is not the canonical order"
            elif not entropy - EPS <= length < entropy + math.log(q):
                problem = f"expected length {length} outside [H, H + ln {q})"
            nodes, depth = tree_shape(M, M.tree.tree_from_obj(tree["root"]))
            json_bytes = sum((out_dir / f).stat().st_size
                             for f in ("tree.json", "codebook.json", "stats.json"))
            work = {"tree.nodes": nodes, "tree.max_depth": depth, "cli.json_bytes": json_bytes}
            return Outcome(problem, work, length - entropy)

        def check_encode(output, streams_file=streams_file, channels=channels):
            bad = exited(output, "encode")
            if bad:
                return bad
            streams = json.loads(streams_file.read_text("utf-8"))["streams"]
            digits = sum(M.digits.length(s, q) for s, q in zip(streams, channels))
            return Outcome(work={"cli.json_bytes": streams_file.stat().st_size,
                                 "codec.digits": digits})

        def check_decode(output, decoded_file=decoded_file, symbols=symbols):
            bad = exited(output, "decode")
            if bad:
                return bad
            got = [int(t) for t in decoded_file.read_text("utf-8").split()]
            return Outcome(None if got == symbols else "decoded symbols differ from the input")

        plan.ops += [
            Op("analyze", size, command("analyze", ["analyze", str(dist_file)]), check_analyze),
            Op("build", size, command("build", ["build", str(dist_file), "--method",
                                                f"single={single}", "--out-dir", str(out_dir)]),
               check_build),
            Op("encode", size, command("encode", ["encode", str(out_dir / "codebook.json"),
                                                  str(sym_file), "--out", str(streams_file)],
                                       "encode"),
               check_encode),
            Op("decode", size, command("decode", ["decode", str(out_dir / "tree.json"),
                                                  str(streams_file), "--out", str(decoded_file)],
                                       "decode"),
               check_decode),
        ]
    return plan


# --------------------------------------------------------------------------
# deep-tree probe

DEEP_TREE_M = 1200


def deep_tree_failures(M, scratch: Path) -> int:
    """1 if a single-channel code on geometric masses (depth m - 1) cannot be built,
    extracted and decoded through the CLI, else 0. Runs untimed, once per run."""
    base = scratch / "deep"
    base.mkdir(parents=True, exist_ok=True)
    masses = geometric_masses(DEEP_TREE_M)
    (base / "dist.json").write_text(json.dumps(
        {"masses": [str(p) for p in masses], "channels": [2]}), "utf-8")
    symbols = list(range(DEEP_TREE_M))
    (base / "symbols.txt").write_text(" ".join(map(str, symbols)), "utf-8")
    steps = (
        ["build", str(base / "dist.json"), "--method", "single=1", "--out-dir", str(base)],
        ["encode", str(base / "codebook.json"), str(base / "symbols.txt"),
         "--out", str(base / "streams.json")],
        ["decode", str(base / "tree.json"), str(base / "streams.json"),
         "--out", str(base / "decoded.txt")],
    )
    try:
        for argv in steps:
            if run_cli(M, argv)[0] != 0:
                return 1
    except Exception as exc:  # the probe records any failure; RecursionError is today's
        print(f"deep-tree probe: {exc!r}", file=sys.stderr)
        return 1
    decoded = (base / "decoded.txt").read_text("utf-8").split()
    return 0 if [int(t) for t in decoded] == symbols else 1


WORKLOADS = {
    "optimal-mix": optimal_mix,
    "pruned-mix": pruned_mix,
    "stream-estimator": stream_estimator,
    "cli-large-alphabet": cli_large_alphabet,
}
