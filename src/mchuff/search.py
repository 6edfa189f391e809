"""Optimal tree-decodable codes via merge-sequence search.

Every candidate construction repeatedly merges the smallest current
masses; the only freedom is how many to merge per round. The first round
may pad a channel's slots with dummy (zero-probability) masses; later
rounds must fill a channel exactly, which confines all dummies to the
deepest node. Memoizing subproblems on the exact reduced multiset makes
the exponentially many sequences collapse onto shared work. The multiset
is held as the integer weights of ``Distribution.weights``, all over the
one denominator ``Distribution.scale``: memo keys are int tuples, a cost
is ``merged / scale * ln q``, and every merge in the package (searches,
replays into trees, Huffman totals) goes through ``merge_smallest``.
Which merges are admissible is stated once, in the table ``merge_options``,
which lists a merge only if the count it leaves can still end in one mass;
``optimal_search`` and the depth-first walk ``merge_prefixes`` follow it.

The search is pure and single-threaded; the memo table is an ordinary
dict whose values are idempotent, so concurrent evaluation would only
need an insert-if-absent map to produce identical results.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .core import ChannelProfile, Distribution, NATS_EPS
from .tree import DummyLeaf, Internal, Leaf, Node


@dataclass(frozen=True)
class MergeStep:
    """One round: ``k`` real masses merged under channel ``class_index``.

    ``dummies`` is the number of padding slots used (possible only in the
    first round). ``replay_sequence`` makes steps from integer weights.
    """

    k: int
    class_index: int
    dummies: int


@dataclass(frozen=True)
class SearchResult:
    tree: Node
    steps: tuple[MergeStep, ...]
    expected_length: float
    subproblem_count: int

    @property
    def sequence(self) -> tuple[int, ...]:
        return tuple(step.k for step in self.steps)

    @property
    def dummy_leaves(self) -> int:
        return sum(step.dummies for step in self.steps)


def step_class(profile: ChannelProfile, k: int, first: bool) -> tuple[int, int]:
    """Channel for a merge of k real masses: the smallest alphabet that fits.

    Returns (class index, padding slots). Later rounds must match a
    channel's alphabet size exactly.
    """
    if first:
        for i, q in enumerate(profile.sizes):
            if q >= k:
                return i, q - k
        raise ValueError(f"cannot merge {k} masses: largest alphabet is {profile.sizes[-1]}")
    for i, q in enumerate(profile.sizes):
        if q == k:
            return i, 0
    raise ValueError(f"no channel of alphabet size {k} for a later-round merge")


def merge_options(
    m: int, profile: ChannelProfile
) -> tuple[list[tuple[int, float]], list[list[tuple[int, float]]]]:
    """The admissible merges: the first round's on m masses, and a later round's on each count.

    Returns ``(first, later)`` with ``later[c]`` for c < m; every merge is
    a ``(k, ln q)`` pair, in increasing k, for the channel of alphabet q it
    uses. The first round may merge any 2..q_n masses, padding the smallest
    channel that fits; later rounds merge exactly some channel's alphabet
    size. A merge is listed only if later rounds can take the count it
    leaves down to one mass. This table is the one place the package
    states which merges are admissible.
    """
    if m < 2:
        raise ValueError("need at least two masses to merge")
    inner = [(k, math.log(k)) for k in sorted(set(profile.sizes))]
    # merging all c masses ends a sequence; otherwise the c - k + 1 left need a listed merge
    later: list[list[tuple[int, float]]] = [[], []]
    for c in range(2, m):
        later.append([(k, ln_q) for k, ln_q in inner if k == c or k < c and later[c - k + 1]])
    first = [
        (k, math.log(profile.sizes[step_class(profile, k, first=True)[0]]))
        for k in range(2, min(profile.sizes[-1], m) + 1)
        if k == m or later[m - k + 1]
    ]
    return first, later


def merge_prefixes(m: int, profile: ChannelProfile) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every prefix of an admissible merge sequence and the masses it leaves, in lexicographic order.

    The walk follows ``merge_options``, so every prefix can still end in
    one mass and the prefixes leaving one mass are the admissible
    sequences. It is depth-first and yields a prefix before its extensions.
    """
    first, later = merge_options(m, profile)
    # pushed largest merge first so the smallest pops first
    stack = [((k,), m - k + 1) for k, _ in reversed(first)]
    while stack:
        prefix, count = stack.pop()
        yield prefix, count
        stack.extend((prefix + (k,), count - k + 1) for k, _ in reversed(later[count]))


def merge_smallest(items: list, k: int, merged) -> None:
    """Replace the ``k`` smallest entries of the sorted list ``items`` by ``merged``, in place.

    The generalized Huffman step: ``merged`` stands for the first ``k``
    entries (their exact sum, or a tuple led by it), which callers have
    already computed. It is inserted after any equal entries, so ties keep
    their order and the list stays sorted.
    """
    del items[:k]
    bisect.insort(items, merged)


def optimal_search(dist: Distribution, profile: ChannelProfile) -> SearchResult:
    """Globally optimal tree-decodable code over all admissible merge sequences.

    Subproblems are memoized on the exact sorted multiset of remaining
    integer weights; below the first round no dummies are needed, so one
    table suffices. The merges tried come from ``merge_options``, so every
    subproblem can be finished. Ties within NATS_EPS resolve to the
    lexicographically smallest sequence (smaller merge count first). With
    a single channel this reproduces the classic Huffman code.
    """
    if dist.m == 1:
        return SearchResult(tree=Leaf(0), steps=(), expected_length=0.0, subproblem_count=0)

    first, later = merge_options(dist.m, profile)
    scale = dist.scale
    # the one mass every sequence ends in costs nothing more
    memo: dict[tuple[int, ...], tuple[float, tuple[int, ...]]] = {(scale,): (0.0, ())}

    def solve(masses: tuple[int, ...], options: list[tuple[int, float]]) -> tuple[float, tuple[int, ...]]:
        best = math.inf
        best_seq: tuple[int, ...] = ()
        for k, ln_q in options:
            merged = sum(masses[:k])
            rest = list(masses)
            merge_smallest(rest, k, merged)
            key = tuple(rest)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = solve(key, later[len(key)])
            cand = hit[0] + merged / scale * ln_q
            if cand < best - NATS_EPS:
                best, best_seq = cand, (k,) + hit[1]
        return best, best_seq

    best, best_seq = solve(dist.weights, first)
    root, steps = replay_sequence(dist, profile, best_seq)
    return SearchResult(tree=root, steps=steps, expected_length=best, subproblem_count=len(memo) - 1)


def replay_sequence(
    dist: Distribution,
    profile: ChannelProfile,
    sequence: Sequence[int],
    classes: Sequence[int] | None = None,
) -> tuple[Node, tuple[MergeStep, ...]]:
    """Rebuild the decoding tree a merge sequence describes.

    ``classes`` optionally forces the channel per step (used to realize a
    single-channel code on a channel other than the smallest fitting one).
    Merged children keep their draw order, dummies fill the trailing slots.
    Entries merge as ``(weight, order, node)`` with a unique ``order``, so
    weight ties break by symbol, then production order, never by node.
    """
    items: list[tuple[int, int, Node]] = [(x, j, Leaf(j)) for j, x in enumerate(dist.weights)]
    counter = dist.m
    steps: list[MergeStep] = []
    for t, k in enumerate(sequence):
        if k < 2 or k > len(items):
            raise ValueError(f"step {t}: cannot merge {k} of {len(items)} masses")
        if classes is None:
            ci, w = step_class(profile, k, first=(t == 0))
        else:
            ci = classes[t]
            w = profile.sizes[ci] - k
            if w < 0:
                raise ValueError(
                    f"step {t}: channel {ci} (q={profile.sizes[ci]}) cannot merge {k} masses"
                )
            if t > 0 and w:
                raise ValueError(f"step {t}: only the first round may use dummy slots")
        picked = items[:k]
        merged = sum(weight for weight, _, _ in picked)
        children = tuple(node for _, _, node in picked) + tuple(DummyLeaf() for _ in range(w))
        merge_smallest(items, k, (merged, counter, Internal(ci, children)))
        counter += 1
        steps.append(MergeStep(k=k, class_index=ci, dummies=w))
    if len(items) != 1:
        raise ValueError("merge sequence does not reduce the masses to one")
    return items[0][2], tuple(steps)
