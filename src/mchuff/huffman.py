"""Single-channel q-ary Huffman codes and their multi-channel embedding.

Codes are replayed from the q-ary merge sequence and read off the tree
by ``tree.leaf_codewords``, the one codeword walk. Lengths alone
(``huffman_lengths``) merge in the replay's two queues without building a
tree, and merged totals (``huffman_merged_total``) through
``search.merge_smallest``. The lengths break ties as the replay does, so
they are the code's, and
``code_length_nats``, which ``build_single_huffman`` also calls, turns
them into the code's expected length.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TypeVar

from .core import ChannelProfile, Distribution, ordered_sum
from .search import merge_smallest, replay_sequence
from .tree import Codebook, leaf_codewords

Mass = TypeVar("Mass", int, Fraction)


def dummy_count(m: int, q: int) -> int:
    """Zero-probability symbols padded in so full q-way merges reach one mass.

    Smallest w >= 0 with m + w congruent to 1 modulo q - 1; always 0 for
    binary alphabets.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if q < 2:
        raise ValueError("q must be at least 2")
    return (q - 1 - ((m - 1) % (q - 1))) % (q - 1)


def huffman_merge_sequence(m: int, q: int) -> tuple[int, ...]:
    """Per-iteration counts of real masses merged by the q-ary procedure."""
    if m == 1:
        return ()
    first = q - dummy_count(m, q)
    seq = [first]
    count = m - first + 1
    while count > 1:
        seq.append(q)
        count -= q - 1
    return tuple(seq)


@dataclass(frozen=True)
class SingleChannelCode:
    """An optimal q-ary prefix code.

    ``lengths`` and ``codewords`` follow the distribution's canonical
    (mass-ascending) symbol order. ``dummy_lengths`` are the depths of the
    padding leaves; together with the real codewords they complete the
    Kraft sum to exactly 1.
    """

    q: int
    lengths: tuple[int, ...]
    codewords: tuple[str, ...]
    expected_length: float
    dummy_lengths: tuple[int, ...]
    merge_ks: tuple[int, ...]


def build_single_huffman(dist: Distribution, q: int) -> SingleChannelCode:
    """Classic Huffman construction, deterministic under mass ties.

    The tree is the one ``replay_sequence`` builds for the q-ary merge
    sequence: masses tie-break by canonical symbol order, merged nodes by
    production order, children take digits 0..q-1 in the order they were
    drawn, and padding fills the last slots of the first merge.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    m = dist.m
    root, steps = replay_sequence(dist, ChannelProfile((q,), (0,)), huffman_merge_sequence(m, q))
    words, lengths, dummy_lengths = leaf_codewords(root, (q,), m)
    expected = code_length_nats(dist, lengths, q)
    merge_ks = tuple(step.k for step in steps)
    codewords = tuple(word for (word,) in words)
    return SingleChannelCode(q, tuple(lengths), codewords, expected, tuple(dummy_lengths), merge_ks)


def huffman_lengths(dist: Distribution, q: int) -> list[int]:
    """Codeword lengths of ``build_single_huffman(dist, q)``, by symbol, without building its tree.

    Merges in two queues as ``replay_sequence`` does, where symbol j has
    order j and the t-th merge order m + t, so ties break as there. A
    Huffman run's merged sums never fall, so each is appended. Each merge
    records itself as its entries' parent; a parent is made after its
    children, so depths read back in reverse order of making, with no
    recursion.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    m = dist.m
    # each queue ends in a sentinel heavier than any entry, as in replay_sequence
    top = dist.scale + 1
    weights = dist.weights + (top,)
    sums = [top]
    parent = [0] * m
    i = h = 0
    for k in huffman_merge_sequence(m, q):
        made = len(parent)
        merged = 0
        for _ in range(k):
            if weights[i] <= sums[h]:
                merged += weights[i]
                parent[i] = made
                i += 1
            else:
                merged += sums[h]
                parent[m + h] = made
                h += 1
        sums.insert(-1, merged)
        parent.append(0)  # the merged entry's own parent, set when it is merged in turn
    depth = [0] * len(parent)
    for order in range(len(parent) - 2, -1, -1):
        depth[order] = depth[parent[order]] + 1
    return depth[:m]


def code_length_nats(dist: Distribution, lengths: Sequence[int], q: int) -> float:
    """Expected length in nats of a q-ary code with these per-symbol lengths."""
    return ordered_sum(w / dist.scale * l for w, l in zip(dist.weights, lengths)) * math.log(q)


def huffman_merged_total(masses: Sequence[Mass], q: int) -> Mass | int:
    """Sum of the merged masses over the rounds of the q-ary Huffman procedure.

    That sum is the expected codeword length in q-ary digits. It is exact
    for exact masses: ``Fraction`` probabilities, or integer weights over a
    common denominator (then the total is over that denominator too).
    """
    items = [0] * dummy_count(len(masses), q) + sorted(masses)
    total = 0
    while len(items) > 1:
        s = sum(items[:q])
        total += s
        merge_smallest(items, q, s)
    return total


def huffman_expected_length(masses: Sequence[Fraction], q: int) -> float:
    """Expected length in nats of an optimal q-ary code, without building it."""
    return float(huffman_merged_total(masses, q)) * math.log(q)


def trivial_extension(code: SingleChannelCode, channel_index: int, profile: ChannelProfile) -> Codebook:
    """Embed a single-channel code: its words keep their digits on one channel, all other components empty.

    Description lengths are conserved, so the embedded code is exactly as
    good as the single-channel one.
    """
    if not 0 <= channel_index < profile.n:
        raise ValueError(f"channel index {channel_index} out of range for {profile.n} channels")
    if profile.sizes[channel_index] != code.q:
        raise ValueError(
            f"code alphabet size {code.q} does not match channel {channel_index} "
            f"(q={profile.sizes[channel_index]})"
        )
    words = tuple(
        tuple(cw if i == channel_index else "" for i in range(profile.n))
        for cw in code.codewords
    )
    return Codebook(words=words, sizes=profile.sizes)
