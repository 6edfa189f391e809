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

Each metric comes in two parts, a ``(term, step)`` pair from
``_scorer``: the term is what the merge and the multiset it leaves decide,
and the step finishes a child's value from its parent's value, the term
and the length. ``pruned_search`` scores every prefix for its trace, so it
caps their number at ``MAX_PREFIXES``; prefixes leaving the same multiset
share its children and their terms, computed once per count.
``suboptimal_build`` and ``construct``'s ``"prune"`` reach the same winner
by ``search._sweep``, which extends only live prefixes, one per remaining
multiset, with no trace and no cap.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from operator import itemgetter

from .core import ChannelProfile, Distribution, NATS_EPS, entropy, ordered_sum
from .huffman import huffman_merge_sequence, huffman_merged_total
from .search import (
    SearchResult,
    _sweep,
    merge_options,
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

#: Most merge-sequence prefixes ``pruned_search`` scores. A prefix's record and trace cell
#: take about 0.34 kB (tracemalloc peak, channels (2, 3), m=24), so the cap is about 340 MB.
MAX_PREFIXES = 10**6


def _scorer(metric: str, profile: ChannelProfile, scale: int):
    """The metric in two parts: a ``(term, step)`` pair of functions.

    ``term(merged weights, remaining weights, added length)`` is the part of
    a child's value that the merge and the multiset it leaves decide, so
    prefixes leaving the same parent multiset share it; ``step(parent value,
    term, length)`` finishes the child's value. Weights are integers over
    ``scale``, the root's value is 0.0, and lower is better for every metric.
    """
    if metric == "redundancy":
        # r = s*(ln q - h) with s*h = s*ln s - sum(w*ln w) over the merged children;
        # a mass whose float rounds to 0.0 adds x ln x = 0, as in ``entropy``. r >= 0, so a
        # rounding error below zero is clamped and the sum never goes negative
        return (
            lambda picked, rest, added: max(
                0.0,
                added - (s * math.log(s) if (s := sum(picked) / scale) else 0.0)
                + ordered_sum(f * math.log(f) for w in picked if (f := w / scale)),
            ),
            lambda value, term, length: value + term,
        )
    if metric == "expected_length":
        return lambda picked, rest, added: None, lambda value, term, length: length
    if metric in ("entropy", "expected_plus_entropy"):
        def rest_entropy(picked, rest, added):
            return entropy([c / scale for c in rest])

        if metric == "entropy":
            return rest_entropy, lambda value, term, length: term
        return rest_entropy, lambda value, term, length: length + term
    if metric == "huffman_completion":
        costs = [(q, math.log(q)) for q in set(profile.sizes)]
        return (
            lambda picked, rest, added: min(
                huffman_merged_total(rest, q) / scale * ln_q for q, ln_q in costs
            ),
            lambda value, term, length: length + term,
        )
    raise ValueError(f"unknown metric {metric!r}; choose one of {METRICS}")


def prefix_count(first, later) -> int:
    """How many prefixes ``pruned_search`` scores for the ``merge_options`` table ``(first, later)``."""
    m = len(later)
    # below[c]: the prefixes extending one that leaves c masses
    below = [0] * m
    for c in range(2, m):
        below[c] = sum(1 + below[c - k + 1] for k, _ in later[c])
    return sum(1 + below[m - k + 1] for k, _ in first)


@dataclass
class TraceTable:
    """Column-by-column record of a pruned search, one row per merge sequence.

    ``sequences`` are sorted, and ``rows`` and ``pruned_at`` are aligned with
    them. ``rows[i]`` holds the metric after each prefix of ``sequences[i]``,
    in sequence order; the prefix ending with merge k leaves k - 1 masses
    fewer than the one before it, and the whole sequence leaves one.
    ``pruned_at[i]`` is the count where ``sequences[i]`` or a prefix of it
    was pruned, or None for a survivor. Rows are filled past their pruning
    point too, so the table shows what discarded alternatives would have
    scored; ``cell`` flags those entries. Sequences skipping a count simply
    have no cell there.
    """

    metric: str
    sequences: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]
    pruned_at: tuple[int | None, ...]
    survivors: tuple[tuple[int, ...], ...]
    winner: tuple[int, ...]

    @staticmethod
    def _cells(seq, row, died):
        """(count left, value, pruned flag) per prefix of ``seq``, the whole sequence first."""
        count = 1
        for k, value in zip(reversed(seq), reversed(row)):
            yield count, value, died is not None and count <= died
            count += k - 1

    def cell(self, sequence, count: int) -> tuple[float, bool] | None:
        """(value, pruned flag) for a populated cell, else None."""
        seq = tuple(sequence)
        i = bisect_left(self.sequences, seq)
        if i == len(self.sequences) or self.sequences[i] != seq:
            return None
        for c, value, pruned in self._cells(seq, self.rows[i], self.pruned_at[i]):
            if c == count:
                return value, pruned
        return None

    def to_tsv(self) -> str:
        column = {c: i for i, c in enumerate(self.counts)}
        lines = ["merge sequence\t" + "\t".join(str(c) for c in self.counts)]
        for seq, row, died in zip(self.sequences, self.rows, self.pruned_at):
            cells = [""] * len(self.counts)
            for count, value, pruned in self._cells(seq, row, died):
                cells[column[count]] = f"{value:.10f}" + ("*" if pruned else "")
            lines.append("(" + ",".join(str(k) for k in seq) + ")\t" + "\t".join(cells))
        return "\n".join(lines) + "\n"


def pruned_search(
    dist: Distribution, profile: ChannelProfile, metric: str
) -> tuple[SearchResult, TraceTable]:
    """Column-wise pruning over merge sequences, keeping metric minimizers.

    One sweep over remaining-mass counts c = m, ..., 1: the live prefixes
    leaving c masses are compared and those more than NATS_EPS above their
    minimum are pruned (ties are all retained); then every prefix at c,
    pruned or not, is extended by the merges ``merge_options`` lists for c,
    so the trace also scores what discarded alternatives would have. The
    first prefix at c leaving a multiset makes its children and their
    metric terms, the others leaving it reuse them, and each prefix only
    adds its length and takes the metric's step per child. Each prefix
    links to its parent's, and at count 1 one walk of a complete
    sequence's links spells the sequence and collects its trace row, the
    value after each prefix. Sorted by sequence, the records unzip into
    the trace's aligned columns: sequences, rows and pruning counts. Final
    survivors are settled by realized expected length, then lexicographic
    sequence order. Sources with more than ``MAX_PREFIXES`` merge-sequence
    prefixes are refused with ``ValueError`` before the sweep.
    """
    term, step = _scorer(metric, profile, dist.scale)
    if dist.m < 2:
        raise ValueError("pruned search needs at least two masses")
    m, scale = dist.m, dist.scale
    first, later = merge_options(m, profile)
    total = prefix_count(first, later)
    if total > MAX_PREFIXES:
        raise ValueError(
            f"pruned search on {m} masses would walk {Decimal(total):.2e} merge-sequence "
            f"prefixes, more than {MAX_PREFIXES:,}"
        )
    later.append(first)  # the root's merges, at count m
    # at[c]: the prefixes leaving c masses as (remaining weights, length, metric value, count where
    # it or an ancestor was pruned, link); a link is (k, value, parent's link)
    at = [[] for _ in range(m)] + [[(dist.weights, 0.0, 0.0, None, None)]]
    scored = -1  # the root is not a prefix
    rows = []
    for c in range(m, 0, -1):
        here, at[c] = at[c], None
        scored += len(here)
        floor = min((value for _, _, value, died, _ in here if died is None), default=math.inf)
        # children[weights]: (k, remaining weights, added length, metric term) per merge, made by
        # the first prefix at c leaving ``weights`` and shared by the others
        children = {}
        for weights, length, value, died, link in here:
            if died is None and value > floor + NATS_EPS:
                died = c
            if c == 1:
                seq, row = [], []
                while link is not None:
                    k, v, link = link
                    seq.append(k)
                    row.append(v)
                seq.reverse()
                row.reverse()
                rows.append((tuple(seq), tuple(row), died, length))
                continue
            merges = children.get(weights)
            if merges is None:
                merges = children[weights] = []
                for k, ln_q in later[c]:
                    picked = weights[:k]
                    merged = sum(picked)
                    added = merged / scale * ln_q
                    rest = list(weights)
                    merge_smallest(rest, k, merged)
                    rest = tuple(rest)
                    merges.append((k, rest, added, term(picked, rest, added)))
            for k, rest, added, t in merges:
                total = length + added
                v = step(value, t, total)
                at[c - k + 1].append((rest, total, v, died, (k, v, link)))

    rows.sort(key=itemgetter(0))  # sequences are distinct
    sequences, rows, died, lengths = zip(*rows)
    kept = []
    for seq, col, length in zip(sequences, died, lengths):
        if col is None:
            if not kept or length < best - NATS_EPS:
                winner, best = seq, length
            kept.append(seq)
    if not kept:
        raise RuntimeError("pruning eliminated every sequence")

    trace = TraceTable(
        metric=metric,
        sequences=sequences,
        counts=tuple(range(m - 1, 0, -1)),
        rows=rows,
        pruned_at=died,
        survivors=tuple(kept),
        winner=winner,
    )
    root, steps = replay_sequence(dist, profile, winner)
    return SearchResult(root, steps, best, scored), trace


def suboptimal_build(dist: Distribution, profile: ChannelProfile) -> SearchResult:
    """Construction guaranteed no longer than any single-channel Huffman code.

    ``pruned_search``'s winner and length under ``huffman_completion``,
    found by ``search._sweep``; ``subproblem_count`` counts multisets.
    """
    if dist.m == 1:
        return SearchResult(tree=Leaf(0), steps=(), expected_length=0.0, subproblem_count=0)
    return _sweep(dist, profile, _scorer("huffman_completion", profile, dist.scale))


def construct(
    dist: Distribution, profile: ChannelProfile, method: str, *,
    metric: str = "huffman_completion", channel: int = 0,
) -> SearchResult:
    """Build a code with one of the package's constructions.

    ``method`` is ``"optimal"`` (exhaustive merge-sequence search),
    ``"suboptimal"`` (never worse than any single-channel Huffman code),
    ``"prune"`` (``pruned_search``'s winner under ``metric``, one of
    METRICS, found as ``suboptimal_build`` finds its own) or ``"single"``
    (q-ary Huffman on ``channel``, a 0-based index in the caller's channel
    order; the other channels stay unused).
    """
    if method == "optimal":
        return optimal_search(dist, profile)
    if method == "suboptimal":
        return suboptimal_build(dist, profile)
    if method == "prune":
        return _sweep(dist, profile, _scorer(metric, profile, dist.scale))
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
