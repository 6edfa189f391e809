"""Pruning strategies over merge sequences and the guaranteed suboptimal build.

Exhaustive merge-sequence search is exponential, so these searches keep,
whenever two partial constructions leave reduced multisets of the same
size, only the one scoring best under a chosen metric. Four natural
metrics (redundancy so far, expected length so far, entropy of the
remaining masses, and the sum of the last two) can each discard the true
optimum. Scoring instead by accumulated length plus the best
single-channel completion of the remaining masses yields a code that is
never longer than any single-channel Huffman code, because every such
code's merge pattern is dominated by one of the candidate sequences from
the very first round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .core import ChannelProfile, Distribution, NATS_EPS, entropy, ordered_sum
from .huffman import huffman_merge_sequence, huffman_merged_total
from .search import (
    SearchResult,
    merge_options,
    merge_prefixes,
    merge_smallest,
    optimal_search,
    replay_sequence,
)
from .tree import Leaf
from .tree import expected_length as tree_expected_length

METRICS = (
    "redundancy",
    "expected_length",
    "entropy",
    "expected_plus_entropy",
    "huffman_completion",
)

#: Most merge-sequence prefixes ``pruned_search`` walks. A prefix's record and trace cells
#: take about 1.25 kB (tracemalloc, channels (2, 3), m=24), so the cap is about 1.25 GB.
MAX_PREFIXES = 10**6


def _scorer(metric: str, profile: ChannelProfile, scale: int):
    """The metric as a function of a prefix's (remaining weights, length, redundancy).

    Weights are integers over ``scale``; lower is better for every metric.
    """
    if metric == "redundancy":
        return lambda weights, length, redundancy: redundancy
    if metric == "expected_length":
        return lambda weights, length, redundancy: length
    if metric == "entropy":
        return lambda weights, length, redundancy: entropy([c / scale for c in weights])
    if metric == "expected_plus_entropy":
        return lambda weights, length, redundancy: length + entropy([c / scale for c in weights])
    if metric == "huffman_completion":
        costs = [(q, math.log(q)) for q in set(profile.sizes)]
        return lambda weights, length, redundancy: length + min(
            huffman_merged_total(weights, q) / scale * ln_q for q, ln_q in costs
        )
    raise ValueError(f"unknown metric {metric!r}; choose one of {METRICS}")


def prefix_count(first, later) -> int:
    """How many prefixes ``merge_prefixes`` yields for the ``merge_options`` table ``(first, later)``."""
    m = len(later)
    # below[c]: the prefixes extending one that leaves c masses
    below = [0] * m
    for c in range(2, m):
        below[c] = sum(1 + below[c - k + 1] for k, _ in later[c])
    return sum(1 + below[m - k + 1] for k, _ in first)


@dataclass
class TraceTable:
    """Column-by-column record of a pruned search, one row per merge sequence.

    ``values[(seq, count)]`` holds the metric after the prefix of ``seq``
    that left ``count`` masses. Rows are filled past their pruning point
    too, so the table shows what discarded alternatives would have scored;
    ``cell`` flags those entries. Sequences skipping a count simply have no
    cell there.
    """

    metric: str
    sequences: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    values: dict[tuple[tuple[int, ...], int], float]
    pruned_at: dict[tuple[int, ...], int | None]
    survivors: tuple[tuple[int, ...], ...]
    winner: tuple[int, ...]

    def cell(self, sequence, count: int) -> tuple[float, bool] | None:
        """(value, pruned flag) for a populated cell, else None."""
        seq = tuple(sequence)
        v = self.values.get((seq, count))
        if v is None:
            return None
        col = self.pruned_at.get(seq)
        return v, col is not None and count <= col

    def to_tsv(self) -> str:
        lines = ["merge sequence\t" + "\t".join(str(c) for c in self.counts)]
        for seq in self.sequences:
            cells = []
            for c in self.counts:
                got = self.cell(seq, c)
                if got is None:
                    cells.append("")
                else:
                    v, pruned = got
                    cells.append(f"{v:.10f}" + ("*" if pruned else ""))
            lines.append("(" + ",".join(str(k) for k in seq) + ")\t" + "\t".join(cells))
        return "\n".join(lines) + "\n"


def pruned_search(
    dist: Distribution, profile: ChannelProfile, metric: str
) -> tuple[SearchResult, TraceTable]:
    """Column-wise pruning over merge sequences, keeping metric minimizers.

    Remaining-mass counts are processed in decreasing order; at each count
    every live state landing there is compared and only those within
    NATS_EPS of the minimum survive (ties are all retained). Final
    survivors are settled by realized expected length, then lexicographic
    sequence order. Sources with more than ``MAX_PREFIXES`` merge-sequence
    prefixes are refused with ``ValueError`` before the walk.
    """
    score = _scorer(metric, profile, dist.scale)
    if dist.m < 2:
        raise ValueError("pruned search needs at least two masses")
    first, later = merge_options(dist.m, profile)
    total = prefix_count(first, later)
    if total > MAX_PREFIXES:
        raise ValueError(
            f"pruned search on {dist.m} masses would walk {Decimal(total):.2e} merge-sequence "
            f"prefixes, more than {MAX_PREFIXES:,}"
        )
    first_ln_q = dict(first)
    scale = dist.scale
    # per prefix: (remaining weights, length, redundancy), its metric value and its parent's index;
    # the walk is depth-first, so the parent ends ``path``
    states = [(dist.weights, 0.0, 0.0)]
    values = [0.0]
    parents = [0]
    by_count: dict[int, list[int]] = {}
    complete: dict[int, tuple[int, ...]] = {}
    path = [0]
    for prefix, count in merge_prefixes(dist.m, profile):
        del path[len(prefix):]
        parent = path[-1]
        weights, length, redundancy = states[parent]
        k = prefix[-1]
        picked = weights[:k]
        merged = sum(picked)
        s = merged / scale
        added_length = s * (first_ln_q[k] if len(prefix) == 1 else math.log(k))
        # r = s*(ln q - h) with s*h = s*ln s - sum(c*ln c) over the merged children;
        # a mass whose float rounds to 0.0 adds x ln x = 0, as in ``entropy``
        added_red = added_length - (s * math.log(s) if s else 0.0) + ordered_sum(
            f * math.log(f) for c in picked if (f := c / scale)
        )
        rest = list(weights)
        merge_smallest(rest, k, merged)
        i = len(states)
        states.append((tuple(rest), length + added_length, redundancy + added_red))
        values.append(score(*states[i]))
        parents.append(parent)
        path.append(i)
        by_count.setdefault(count, []).append(i)
        if count == 1:
            complete[i] = prefix

    # a prefix competes while its parent lives; died[i] is the count where it or an ancestor was pruned
    died: list[int | None] = [None] * len(states)
    for c in range(dist.m - 1, 0, -1):
        live = []
        for i in by_count.get(c, ()):
            died[i] = died[parents[i]]
            if died[i] is None:
                live.append(i)
        if live:
            floor = min(values[i] for i in live)
            for i in live:
                if values[i] > floor + NATS_EPS:
                    died[i] = c

    pruned_at = {seq: died[i] for i, seq in complete.items()}
    cellvals: dict[tuple[tuple[int, ...], int], float] = {}
    for i, seq in complete.items():
        j = i
        while j:
            cellvals[(seq, len(states[j][0]))] = values[j]
            j = parents[j]
    kept = [i for i in complete if died[i] is None]
    if not kept:
        raise RuntimeError("pruning eliminated every sequence")
    winner = kept[0]
    for i in kept[1:]:
        if states[i][1] < states[winner][1] - NATS_EPS:
            winner = i

    trace = TraceTable(
        metric=metric,
        sequences=tuple(pruned_at),
        counts=tuple(range(dist.m - 1, 0, -1)),
        values=cellvals,
        pruned_at=pruned_at,
        survivors=tuple(complete[i] for i in kept),
        winner=complete[winner],
    )
    root, steps = replay_sequence(dist, profile, complete[winner])
    return SearchResult(root, steps, states[winner][1], len(states) - 1), trace


def suboptimal_build(dist: Distribution, profile: ChannelProfile) -> SearchResult:
    """Construction guaranteed no longer than any single-channel Huffman code."""
    if dist.m == 1:
        return SearchResult(tree=Leaf(0), steps=(), expected_length=0.0, subproblem_count=0)
    result, _ = pruned_search(dist, profile, "huffman_completion")
    return result


def construct(
    dist: Distribution, profile: ChannelProfile, method: str, *,
    metric: str = "huffman_completion", channel: int = 0,
) -> SearchResult:
    """Build a code with one of the package's constructions.

    ``method`` is ``"optimal"`` (exhaustive merge-sequence search),
    ``"suboptimal"`` (never worse than any single-channel Huffman code),
    ``"prune"`` (pruned search under ``metric``, one of METRICS) or
    ``"single"`` (q-ary Huffman on ``channel``, a 0-based index in the
    caller's channel order; the other channels stay unused).
    """
    if method == "optimal":
        return optimal_search(dist, profile)
    if method == "suboptimal":
        return suboptimal_build(dist, profile)
    if method == "prune":
        return pruned_search(dist, profile, metric)[0]
    if method != "single":
        raise ValueError(
            f"method must be one of ('optimal', 'suboptimal', 'prune', 'single'), got {method!r}"
        )
    if not 0 <= channel < profile.n:
        raise ValueError(f"channel must index into channels, got {channel!r}")
    canon = profile.canonical_index[channel]
    seq = huffman_merge_sequence(dist.m, profile.sizes[canon])
    root, steps = replay_sequence(dist, profile, seq, classes=(canon,) * len(seq))
    return SearchResult(root, steps, tree_expected_length(root, dist), subproblem_count=0)
