"""Optimal tree-decodable codes via merge-sequence search.

Every candidate construction repeatedly merges the smallest current
masses; the only freedom is how many to merge per round. The first round
may pad a channel's slots with dummy (zero-probability) masses; later
rounds must fill a channel exactly, which confines all dummies to the
deepest node. Two merge-sequence prefixes that leave the same reduced
multiset have the same completions, so one forward sweep over falling
mass counts keeps each multiset once, with its shortest prefix, and the
exponentially many sequences collapse onto shared work. The multiset is
held as the integer weights of ``Distribution.weights``, all over the one
denominator ``Distribution.scale``: sweep keys are int tuples, a cost is
``merged / scale * ln q``, and the searches and Huffman totals merge
through ``merge_smallest``, which keeps one sorted list. A replay into a
tree (``replay_sequence``) and ``huffman.huffman_lengths`` make the same
merges in linear time from two queues: the sorted masses, read through a
pointer, and the merged entries, kept sorted in a list read from a head
pointer. Each round takes its k entries from the two heads, a mass
winning a weight tie, which is the ``(weight, order)`` order of the one
sorted list.
Which merges are admissible is stated once, in the table ``merge_options``,
which lists a merge only if the count it leaves can still end in one mass;
the sweep and the depth-first walk ``merge_prefixes`` follow it.
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


def _unlink(links: list[tuple[int, float, int]], link: int) -> tuple[tuple[int, ...], float]:
    """The merge sequence ``link`` spells in a sweep's ``links``, and its costs summed last merge first."""
    seq, length = [], 0.0
    while link:
        k, added, link = links[link]
        seq.append(k)
        length += added
    seq.reverse()
    return tuple(seq), length


def _sweep(dist: Distribution, profile: ChannelProfile, scorer=None) -> SearchResult:
    """The shortest merge sequence, by one sweep over falling counts of distinct multisets.

    Count c = m, ..., 2 maps each remaining multiset of integer weights to
    ``(length, metric value, link)``, where ``links[link]`` is ``(k, added
    length, parent's link)`` and link 0 is the root. Prefixes leaving the
    same multiset have the same completions, and every metric of
    ``heuristics.METRICS`` values them apart by their length difference or
    not at all, so a multiset keeps its shortest prefix, or within NATS_EPS
    the lexicographically smaller. Without ``scorer`` every entry is
    extended, and the length is summed last merge first, as a recursion
    over completions adds it. With it, a ``(term, step)`` pair from
    ``heuristics._scorer``, a child's value is ``step(parent value,
    term(merged weights, remaining weights, added length), length)``,
    computed when the sweep reaches the child's count, so a child that a
    shorter prefix replaces is never scored; only entries within NATS_EPS
    of their count's minimum are extended, as ``heuristics.pruned_search``
    prunes. ``subproblem_count`` is the number of multisets kept below the
    root.
    """
    m, scale = dist.m, dist.scale
    first, later = merge_options(m, profile)
    later.append(first)  # the root's merges, at count m
    links = [(0, 0.0, 0)]  # only ints and floats, so the collector stops tracking them
    at: list[dict] = [{} for _ in range(m)] + [{dist.weights: (0.0, 0.0, 0)}]
    for c in range(m, 1, -1):
        here = at[c]
        if scorer and c < m:
            term, step = scorer
            # until now an entry held (parent value, merged weights) in place of its value
            for key, (length, (value, picked), link) in here.items():
                here[key] = (length, step(value, term(picked, key, links[link][1]), length), link)
        # with a scorer, only entries within NATS_EPS of the count's best value are extended
        limit = min((value for _, value, _ in here.values()), default=0.0) + NATS_EPS if scorer else math.inf
        for weights, (length, value, link) in here.items():
            if value > limit:
                continue
            for k, ln_q in later[c]:
                picked = weights[:k]
                merged = sum(picked)
                added = merged / scale * ln_q
                rest = list(weights)
                merge_smallest(rest, k, merged)
                key = tuple(rest)
                total = length + added
                slot = at[c - k + 1]
                kept = slot.get(key)
                if kept is not None and (
                    total > kept[0] + NATS_EPS
                    or total >= kept[0] - NATS_EPS
                    and _unlink(links, link)[0] + (k,) >= _unlink(links, kept[2])[0]
                ):
                    continue
                slot[key] = (total, (value, picked) if scorer else 0.0, len(links))
                links.append((k, added, link))
    length, _, link = at[1][(scale,)]
    seq, resummed = _unlink(links, link)
    root, steps = replay_sequence(dist, profile, seq)
    return SearchResult(root, steps, length if scorer else resummed, sum(map(len, at[2:m])))


def optimal_search(dist: Distribution, profile: ChannelProfile) -> SearchResult:
    """Globally optimal tree-decodable code over all admissible merge sequences.

    One sweep over the distinct remaining multisets of integer weights,
    count by count (``_sweep`` without a scorer); below the first round no
    dummies are needed, so one multiset key suffices. The merges tried
    come from ``merge_options``, so every multiset can be finished. Ties
    within NATS_EPS resolve to the lexicographically smallest sequence
    (smaller merge count first). With a single channel this reproduces the
    classic Huffman code.
    """
    if dist.m == 1:
        return SearchResult(tree=Leaf(0), steps=(), expected_length=0.0, subproblem_count=0)
    return _sweep(dist, profile)


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
    Masses and merged entries wait in two queues (see the module
    docstring), so weight ties break by symbol, then production order.
    """
    weights, m = dist.weights, dist.m
    # originals are read from weights[i], merged entries from sums[h] and nodes[h]; each queue
    # ends in a sentinel heavier than any entry, so a round compares heads without bounds checks
    top = dist.scale + 1
    weights += (top,)
    sums, nodes = [top], [None]
    i = h = 0
    steps: list[MergeStep] = []
    step = None
    for t, k in enumerate(sequence):
        left = m - i + len(sums) - 1 - h
        if k < 2 or k > left:
            raise ValueError(f"step {t}: cannot merge {k} of {left} masses")
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
        merged = 0
        children: list[Node] = []
        for _ in range(k):
            if weights[i] <= sums[h]:  # an original wins a tie: its order is lower
                merged += weights[i]
                children.append(Leaf(i))
                i += 1
            else:
                merged += sums[h]
                children.append(nodes[h])
                h += 1
        if w:
            children += [DummyLeaf() for _ in range(w)]
        # a multi-channel sum can fall below one still waiting; it goes after equal sums, as the latest made
        at = bisect.bisect_right(sums, merged, h)
        sums.insert(at, merged)
        nodes.insert(at, Internal(ci, tuple(children)))
        if step is None or (step.k, step.class_index, step.dummies) != (k, ci, w):
            step = MergeStep(k=k, class_index=ci, dummies=w)  # equal steps share one frozen object
        steps.append(step)
    if m - i + len(sums) - 1 - h != 1:
        raise ValueError("merge sequence does not reduce the masses to one")
    return (Leaf(i) if i < m else nodes[h]), tuple(steps)
