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

from .core import ChannelProfile, Distribution, NATS_EPS, entropy, ordered_sum
from .huffman import huffman_merge_sequence, huffman_merged_total
from .search import (
    SearchResult,
    merge_prefixes,
    merge_smallest,
    optimal_search,
    replay_sequence,
    step_class,
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


@dataclass(frozen=True)
class MergeState:
    """Partial construction: merges applied so far and the reduced multiset.

    ``weights`` are the remaining masses as integers; mass ``c`` is the
    probability ``c / scale``, with ``scale`` the source's ``Distribution.scale``.
    """

    weights: tuple[int, ...]
    scale: int
    sequence: tuple[int, ...]
    accumulated_length: float
    accumulated_redundancy: float


def initial_state(dist: Distribution) -> MergeState:
    return MergeState(dist.weights, dist.scale, (), 0.0, 0.0)


def apply_merge(state: MergeState, k: int, profile: ChannelProfile) -> MergeState:
    """Merge the k smallest masses under the channel the search rules assign."""
    if not 2 <= k <= len(state.weights):
        raise ValueError(f"cannot merge {k} of {len(state.weights)} masses")
    ci, _ = step_class(profile, k, first=not state.sequence)
    q = profile.sizes[ci]
    scale = state.scale
    picked = state.weights[:k]
    merged = sum(picked)
    s = merged / scale
    added_length = s * math.log(q)
    # r = s*(ln q - h) with s*h = s*ln s - sum(c*ln c) over the merged children;
    # a mass whose float rounds to 0.0 adds x ln x = 0, as in ``entropy``
    added_red = added_length - (s * math.log(s) if s else 0.0) + ordered_sum(
        f * math.log(f) for c in picked if (f := c / scale)
    )
    rest = list(state.weights)
    merge_smallest(rest, k, merged)
    return MergeState(
        tuple(rest),
        scale,
        state.sequence + (k,),
        state.accumulated_length + added_length,
        state.accumulated_redundancy + added_red,
    )


def metric_value(state: MergeState, metric: str, profile: ChannelProfile) -> float:
    """Score a partial construction; lower is better for every metric."""
    if metric == "redundancy":
        return state.accumulated_redundancy
    if metric == "expected_length":
        return state.accumulated_length
    if metric == "entropy":
        return entropy([c / state.scale for c in state.weights])
    if metric == "expected_plus_entropy":
        return state.accumulated_length + entropy([c / state.scale for c in state.weights])
    if metric == "huffman_completion":
        best = min(
            huffman_merged_total(state.weights, q) / state.scale * math.log(q)
            for q in set(profile.sizes)
        )
        return state.accumulated_length + best
    raise ValueError(f"unknown metric {metric!r}; choose one of {METRICS}")


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
    sequence order.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose one of {METRICS}")
    if dist.m < 2:
        raise ValueError("pruned search needs at least two masses")
    # every prefix's state, built from its parent's; the walk is depth-first, so the parent ends ``path``
    states = [initial_state(dist)]
    parents = [0]
    values = [0.0]
    by_count: dict[int, list[int]] = {}
    path = [0]
    for prefix, count in merge_prefixes(dist.m, profile):
        del path[len(prefix):]
        parents.append(path[-1])
        state = apply_merge(states[path[-1]], prefix[-1], profile)
        path.append(len(states))
        by_count.setdefault(count, []).append(len(states))
        states.append(state)
        values.append(metric_value(state, metric, profile))

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

    complete = by_count[1]
    pruned_at: dict[tuple[int, ...], int | None] = {}
    cellvals: dict[tuple[tuple[int, ...], int], float] = {}
    for i in complete:
        seq = states[i].sequence
        pruned_at[seq] = died[i]
        j = i
        while j:
            cellvals[(seq, len(states[j].weights))] = values[j]
            j = parents[j]
    kept = [states[i] for i in complete if died[i] is None]
    if not kept:
        raise RuntimeError("pruning eliminated every sequence")
    winner = kept[0]
    for state in kept[1:]:
        if state.accumulated_length < winner.accumulated_length - NATS_EPS:
            winner = state

    trace = TraceTable(
        metric=metric,
        sequences=tuple(pruned_at),
        counts=tuple(range(dist.m - 1, 0, -1)),
        values=cellvals,
        pruned_at=pruned_at,
        survivors=tuple(state.sequence for state in kept),
        winner=winner.sequence,
    )
    root, steps = replay_sequence(dist, profile, winner.sequence)
    return SearchResult(root, steps, winner.accumulated_length, len(states) - 1), trace


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
