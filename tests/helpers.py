"""Shared generators and reference oracles for tests.

All randomness is seeded from the MCHUFF_SEED environment variable
(default 0) so test vectors are reproducible.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import heapq
import io
import itertools
import json
import math
import os
import random
import re
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from mchuff import (
    METRICS,
    NATS_EPS,
    ChannelProfile,
    CorruptionError,
    DegenerateCodeError,
    Distribution,
    DummyLeaf,
    Internal,
    Leaf,
    SearchResult,
    TraceTable,
    TrailingDataError,
    TruncationError,
    build_single_huffman,
    codebook_from_tree,
    dummy_bound,
    dummy_count,
    entropy,
    expected_length,
    kraft_sum,
    local_redundancy,
    optimal_search,
    pruned_search,
    replay_sequence,
)
from mchuff import digits
from mchuff.cli import main as cli_main
from mchuff.core import SUM_TOLERANCE, ordered_sum
from mchuff.heuristics import MAX_PREFIXES, prefix_count
from mchuff.huffman import huffman_merge_sequence, huffman_merged_total
from mchuff.search import MergeStep, merge_options, merge_prefixes, merge_smallest, step_class

SEED = os.environ.get("MCHUFF_SEED", "0")

PROFILES = [(2, 3), (2, 4), (3, 4), (2, 2, 3)]

#: Channel lists the searches are checked against their oracles on.
ORACLE_CHANNELS = ((2,), (3,), (2, 3), (2, 3, 5), (3, 4), (2, 4), (3, 5), (4, 6), (2, 2, 3))


def make_rng(tag: str, seed: str = SEED) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def heap_merged_total(masses, q: int):
    """Sum of the merged masses of the q-ary Huffman procedure, merging on a heap.

    The reference ``huffman_merged_total`` is checked against.
    """
    m = len(masses)
    if m == 1:
        return 0
    heap = [0] * dummy_count(m, q) + sorted(masses)
    heapq.heapify(heap)
    total = 0
    while len(heap) > 1:
        s = sum(heapq.heappop(heap) for _ in range(q))
        total += s
        heapq.heappush(heap, s)
    return total


def insort_replay_sequence(dist: Distribution, profile: ChannelProfile, sequence, classes=None):
    """``replay_sequence`` merging in one sorted list, the reference its two queues are checked against.

    Entries are ``(weight, order, node)`` with a unique ``order``, and each
    round replaces the k smallest by their merge through ``merge_smallest``.
    """
    items = [(x, j, Leaf(j)) for j, x in enumerate(dist.weights)]
    counter = dist.m
    steps = []
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
        children = tuple(node for _, _, node in picked) + tuple(DummyLeaf() for _ in range(w))
        merge_smallest(items, k, (sum(weight for weight, _, _ in picked), counter, Internal(ci, children)))
        counter += 1
        steps.append(MergeStep(k=k, class_index=ci, dummies=w))
    if len(items) != 1:
        raise ValueError("merge sequence does not reduce the masses to one")
    return items[0][2], tuple(steps)


def insort_huffman_lengths(dist: Distribution, q: int) -> list[int]:
    """``huffman_lengths`` merging ``(weight, order)`` pairs in one sorted list, the reference for its two queues."""
    m = dist.m
    items = list(zip(dist.weights, range(m)))
    parent = [0] * m
    for k in huffman_merge_sequence(m, q):
        picked = items[:k]
        for _, order in picked:
            parent[order] = len(parent)
        merge_smallest(items, k, (sum(weight for weight, _ in picked), len(parent)))
        parent.append(0)
    depth = [0] * len(parent)
    for order in range(len(parent) - 2, -1, -1):
        depth[order] = depth[parent[order]] + 1
    return depth[:m]


def falling_merges(weights, sequence) -> int:
    """Rounds of a merge sequence whose sum is below that of an earlier merge still waiting.

    There a two-queue replay inserts the new sum among the merged entries
    instead of appending it.
    """
    items = [(w, False) for w in weights]
    falls = 0
    for k in sequence:
        merged = sum(w for w, _ in items[:k])
        del items[:k]
        falls += any(made and w > merged for w, made in items)
        bisect.insort(items, (merged, True))
    return falls


def random_distribution(rng: random.Random, m: int) -> Distribution:
    weights = [rng.randint(1, 100) for _ in range(m)]
    total = sum(weights)
    return Distribution.from_masses([Fraction(w, total) for w in weights])


def feasible_counts(profile: ChannelProfile, limit: int) -> set[int]:
    """Mass counts from which later-round merges can still reach a single mass."""
    inner = sorted(set(profile.sizes))
    ok = {1}
    for c in range(2, limit + 1):
        if any(k <= c and (c - k + 1) in ok for k in inner):
            ok.add(c)
    return ok


def random_sequence(rng: random.Random, m: int, profile: ChannelProfile) -> tuple[int, ...]:
    ok = feasible_counts(profile, m)
    inner = sorted(set(profile.sizes))
    first = [k for k in range(2, min(profile.sizes[-1], m) + 1) if (m - k + 1) in ok]
    seq = [rng.choice(first)]
    count = m - seq[0] + 1
    while count > 1:
        options = [k for k in inner if k <= count and (count - k + 1) in ok]
        k = rng.choice(options)
        seq.append(k)
        count -= k - 1
    return tuple(seq)


def random_tree(rng: random.Random, dist: Distribution, profile: ChannelProfile):
    """A valid decoding tree built from a random admissible merge sequence."""
    return replay_sequence(dist, profile, random_sequence(rng, dist.m, profile))


def random_shape_tree(rng: random.Random, sizes: tuple[int, ...], m: int):
    """A decoding tree for symbols 0..m-1 of any shape, padding slots anywhere.

    Merges random groups of the pending nodes under a random channel,
    fills the rest of the slots with padding and shuffles them, until one
    internal node is left; it makes no use of a merge sequence.
    """
    pending = [Leaf(j) for j in range(m)]
    while len(pending) > 1 or not isinstance(pending[0], Internal):
        c = rng.randrange(len(sizes))
        rng.shuffle(pending)
        take = rng.randint(1, min(sizes[c], len(pending)))
        slots = pending[:take] + [DummyLeaf()] * (sizes[c] - take)
        rng.shuffle(slots)
        pending[:take] = [Internal(c, tuple(slots))]
    return pending[0]


def dummy_length_tuples(root, n: int) -> list[tuple[int, ...]]:
    """Per-channel depths of the padding leaves, in the form ``kraft_sum`` takes."""
    out = []
    stack = [(root, (0,) * n)]
    while stack:
        node, depths = stack.pop()
        if isinstance(node, DummyLeaf):
            out.append(depths)
        elif isinstance(node, Internal):
            i = node.class_index
            below = depths[:i] + (depths[i] + 1,) + depths[i + 1:]
            stack.extend((child, below) for child in node.children)
    return out


def eager_codebook_check(words, sizes) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Check a codebook word by word, parsing every component; returns the parsed words.

    The loop ``Codebook`` ran on construction before it checked a column
    at a time; it is the oracle for that check's verdicts and messages.
    """
    parsed = []
    for j, word in enumerate(words):
        if len(word) != len(sizes):
            raise ValueError(f"word {j} has {len(word)} components for {len(sizes)} channels")
        parsed.append(tuple(map(digits.parse, word, sizes)))
    if any(q < 2 for q in sizes):
        raise ValueError("every channel alphabet size must be at least 2")
    return tuple(parsed)


def fraction_from_masses(values) -> Distribution:
    """``Distribution.from_masses`` as it was when it made one ``Fraction`` per mass.

    The oracle for the integer-pair reading of masses: every value, weight,
    order, flag and error message must come out the same.
    """
    raw: list[Fraction] = []
    for idx, v in enumerate(values):
        if isinstance(v, bool):
            raise ValueError(f"masses[{idx}]: a boolean is not a mass, got {v!r}")
        try:
            if type(v) is str and v.isascii():
                p, slash, q = v.partition("/")
                if slash and p.isdigit() and q.isdigit():
                    f = Fraction(int(p), int(q))
                else:
                    f = Fraction(v)
            else:
                f = Fraction(str(v)) if isinstance(v, float) else Fraction(v)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ValueError(f"masses[{idx}]: cannot parse {v!r} as a rational") from exc
        if f.numerator <= 0:
            raise ValueError(f"masses[{idx}]: mass must be positive, got {f}")
        raw.append(f)
    if not raw:
        raise ValueError("a distribution needs at least one mass")
    scale = math.lcm(*(f.denominator for f in raw))
    weights = [f.numerator * (scale // f.denominator) for f in raw]
    total = sum(weights)
    rescaled = False
    if total != scale:
        if abs(total - scale) * SUM_TOLERANCE.denominator > scale * SUM_TOLERANCE.numerator:
            try:
                approx = total / scale
            except OverflowError:  # a total beyond the float range, as from "9e999"
                approx = math.inf
            raise ValueError(
                f"masses sum to {Fraction(total, scale)} ~ {approx}, too far from 1 to rescale"
            )
        weights[-1] += scale - total
        if weights[-1] <= 0:
            raise ValueError("rescaling the total to 1 made the last mass non-positive")
        g = math.gcd(scale, *weights)
        scale //= g
        weights = [w // g for w in weights]
        rescaled = True
    order = sorted(range(len(weights)), key=weights.__getitem__)  # stable: ties keep input order
    return Distribution(tuple(weights[j] for j in order), scale, tuple(order), rescaled)


# the one pattern that found a decimal list render never writes, before digits split the
# check into a deletion of digits and commas and a search for empty or zero-led tokens
NONCANONICAL_DECIMAL = re.compile(r"[^0-9,]|(?:^|,)(?:,|$|0[0-9])")


def pattern_parse(text: str, q: int) -> tuple[int, ...]:
    """``digits.parse`` for q > 36 as it was with ``NONCANONICAL_DECIMAL``; the oracle for its verdicts."""
    if not text:
        return ()
    if NONCANONICAL_DECIMAL.search(text):
        raise ValueError(f"invalid digit list {text!r} for alphabet size {q}")
    vals = tuple(map(int, text.split(",")))
    for v in vals:
        if not 0 <= v < q:
            raise ValueError(f"digit {v} out of range for alphabet size {q}")
    return vals


def reference_codewords(root, sizes) -> tuple[dict[int, tuple[str, ...]], list[int]]:
    """Codewords by symbol and padding-leaf depths, read off a tree by recursion.

    The extractor ``codebook_from_tree`` used before its one iterative
    walk, kept as the reference that walk is checked against: every node
    copies its per-channel digit tuples, and every leaf renders them.
    A padding leaf's depth counts the digits read on all channels.
    """
    words: dict[int, tuple[str, ...]] = {}
    dummy_depths: list[int] = []

    def walk(node, acc: tuple[tuple[int, ...], ...]) -> None:
        if isinstance(node, Leaf):
            words[node.symbol] = tuple(digits.render(acc[i], sizes[i]) for i in range(len(sizes)))
        elif isinstance(node, DummyLeaf):
            dummy_depths.append(sum(len(a) for a in acc))
        else:
            for digit, child in enumerate(node.children):
                nxt = list(acc)
                nxt[node.class_index] = acc[node.class_index] + (digit,)
                walk(child, tuple(nxt))

    walk(root, tuple(() for _ in sizes))
    return words, dummy_depths


def walking_encode(cb, symbols) -> tuple[str, ...]:
    """``codec.encode`` as it was before its column joins: one check and one lookup per symbol.

    Every symbol is checked in a Python loop, and each channel's stream
    joins the nonempty components of the symbols' words. It is the oracle
    for the column-wise encoder's streams, exception types and messages.
    """
    m = cb.m
    if m == 1:
        raise DegenerateCodeError("a one-symbol code has an empty codeword and cannot be streamed")
    idx = list(symbols)
    for pos, s in enumerate(idx):
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < m:
            raise ValueError(f"symbols[{pos}]: index {s!r} out of range 0..{m - 1}")
    streams = []
    for i, q in enumerate(cb.sizes):
        nonempty = [p for p in (cb.words[s][i] for s in idx) if p]
        streams.append("".join(nonempty) if q <= 36 else ",".join(nonempty))
    return tuple(streams)


def walking_decode(root, streams, count: int | None = None) -> list[int]:
    """``codec.decode`` as it was before its lookahead tables: one digit per step.

    Every stream is parsed to ints up front, and each symbol walks from the
    root one internal node at a time. It is the oracle for the table-driven
    decoder's outputs, exception types and messages.
    """
    if count is not None and count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(root, (Leaf, DummyLeaf)):
        raise DegenerateCodeError("decoding tree has no internal node; the code cannot be streamed")
    streams = tuple(streams)
    sizes: list[int | None] = [None] * len(streams)
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            if not 0 <= node.class_index < len(streams):
                raise ValueError(
                    f"tree reads channel {node.class_index} but only {len(streams)} streams were given"
                    if node.class_index >= 0 else f"tree reads negative channel {node.class_index}"
                )
            q = len(node.children)
            if sizes[node.class_index] not in (None, q):
                raise ValueError(f"channel {node.class_index} is read with inconsistent alphabet sizes")
            sizes[node.class_index] = q
            stack.extend(node.children)
    parsed: list[tuple[int, ...]] = []
    for i, text in enumerate(streams):
        if sizes[i] is None:
            if text:
                raise TrailingDataError(f"stream {i} carries digits but the tree never reads channel {i}")
            parsed.append(())
            continue
        try:
            parsed.append(digits.parse(text, sizes[i]))
        except ValueError as exc:
            raise CorruptionError(f"stream {i}: {exc}") from exc

    pos = [0] * len(streams)
    out: list[int] = []
    while True:
        if count is not None:
            if len(out) == count:
                break
        elif all(p == len(d) for p, d in zip(pos, parsed)):
            break
        node = root
        ch = -1
        while isinstance(node, Internal):
            ch = node.class_index
            if pos[ch] >= len(parsed[ch]):
                raise TruncationError(f"stream {ch} exhausted inside codeword {len(out)}")
            digit = parsed[ch][pos[ch]]
            pos[ch] += 1
            node = node.children[digit]
        if isinstance(node, DummyLeaf):
            raise CorruptionError(
                f"codeword {len(out)} routed to a padding slot (channel {ch}, offset {pos[ch] - 1})"
            )
        out.append(node.symbol)
    leftovers = [i for i in range(len(streams)) if pos[i] != len(parsed[i])]
    if leftovers:
        raise TrailingDataError(f"streams {leftovers} have digits left after {len(out)} symbols")
    return out


def recursive_tree_from_obj(obj):
    """``tree.tree_from_obj`` as it was before it read trees in one walk: one call per node.

    It is the oracle for the loader's trees and for its error messages,
    which name the first bad node in pre-order.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"tree node must be an object, got {type(obj).__name__}")
    keys = len(obj)
    if keys == 1 and "symbol" in obj:
        sym = obj["symbol"]
        if not isinstance(sym, int) or isinstance(sym, bool):
            raise ValueError("leaf symbol must be an integer")
        return Leaf(sym)
    if keys == 1 and obj.get("dummy") is True:
        return DummyLeaf()
    if keys == 2 and "class" in obj and "children" in obj:
        ci = obj["class"]
        if not isinstance(ci, int) or isinstance(ci, bool):
            raise ValueError("node class must be an integer")
        children = obj["children"]
        if not isinstance(children, list) or not children:
            raise ValueError("children must be a non-empty list")
        return Internal(ci, tuple(recursive_tree_from_obj(c) for c in children))
    raise ValueError(f"unrecognized tree node object with keys {sorted(obj)}")


#: Channel lists the decoders are checked on damaged streams over: three channels, and q > 36.
DECODE_CHANNELS = (
    (2,), (3,), (5,), (36,), (37,), (40,), (2, 3), (3, 2), (2, 40), (37, 3), (5, 2, 3), (36, 2, 40),
)
DAMAGES = ("none", "truncated", "cut", "flipped", "padding", "appended", "invalid", "missing")


def padding_paths(root, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Per-channel digits that lead from the root to each padding slot."""
    out = []
    stack = [(root, ((),) * n)]
    while stack:
        node, path = stack.pop()
        if isinstance(node, DummyLeaf):
            out.append(path)
        elif isinstance(node, Internal):
            c = node.class_index
            for d, child in enumerate(node.children):
                stack.append((child, path[:c] + (path[c] + (d,),) + path[c + 1:]))
    return out


def invalid_token(rng, q: int) -> str:
    """A digit, or for q > 36 a list token, that ``digits.parse`` rejects on a q-ary channel."""
    if q > 36:
        return rng.choice(["", "01", "-1", "+2", " 3", "1_0", str(q), str(q + 7)])
    return rng.choice("Z-_ " + (digits.render([q], 36) if q < 36 else ""))


def damaged_code(rng, sizes=None):
    """A random code over ``sizes`` (drawn from DECODE_CHANNELS if None): its tree and codewords."""
    sizes = rng.choice(DECODE_CHANNELS) if sizes is None else sizes
    m = rng.randint(2, 30)
    root = random_shape_tree(rng, sizes, m)
    words, _ = reference_codewords(root, sizes)
    return sizes, root, words


def damaged_streams(rng, root, sizes, words, damages=DAMAGES):
    """A message encoded in a ``damaged_code``, then maybe damaged, and a count to decode."""
    length = rng.choice([rng.randint(0, 6), rng.randint(0, 120), rng.randint(400, 2500)])
    seq = [rng.randrange(len(words)) for _ in range(length)]
    parts = [tuple(map(digits.parse, words[s], sizes)) for s in seq]
    how = rng.choice(damages)
    if how == "padding":
        parts.insert(rng.randint(0, len(parts)), rng.choice(padding_paths(root, len(sizes)) or [((),) * len(sizes)]))
    streams = [[d for part in parts for d in part[i]] for i in range(len(sizes))]
    i = rng.randrange(len(sizes))
    s = streams[i]
    if how == "truncated" and s:
        s.pop()
    elif how == "cut" and s:
        del s[rng.randrange(len(s))]
    elif how == "flipped" and s:
        s[rng.randrange(len(s))] = rng.randrange(sizes[i])
    elif how == "appended":
        s += [rng.randrange(sizes[i]) for _ in range(rng.randint(1, 3))]
    texts = [digits.render(s, q) for s, q in zip(streams, sizes)]
    if how == "invalid":
        if sizes[i] > 36:
            tokens = texts[i].split(",") if texts[i] else []
            tokens.insert(rng.randint(0, len(tokens)), invalid_token(rng, sizes[i]))
            texts[i] = ",".join(tokens)
        else:
            at = rng.randint(0, len(texts[i]))
            texts[i] = texts[i][:at] + invalid_token(rng, sizes[i]) + texts[i][at:]
    if how == "missing":
        del texts[-1]
    count = rng.choice([None, len(seq), len(seq) + 1, len(seq) - 1 if seq else None])
    return tuple(texts), count


def damaged_case(rng):
    """A random code, a message encoded in it, then maybe damaged, and a count to decode."""
    sizes, root, words = damaged_code(rng)
    return (root, *damaged_streams(rng, root, sizes, words))


def outcome(decoder, root, streams, count):
    """Decoded symbols, or the type and message of the exception raised."""
    try:
        return decoder(root, streams, count)
    except Exception as exc:  # noqa: BLE001 - every exception must match the oracle's
        return type(exc), str(exc)


def count_dummies(root) -> int:
    if isinstance(root, DummyLeaf):
        return 1
    if isinstance(root, Internal):
        return sum(count_dummies(c) for c in root.children)
    return 0


def brute_force_oracle(dist: Distribution, profile: ChannelProfile, max_m: int = 5) -> float:
    """Minimum expected length over exhaustively enumerated decoding trees.

    Independent check for the merge-sequence search: enumerates every tree
    shape with ``m`` real leaves, fewer padding leaves than dummy_bound and
    at most ``2 m`` internal nodes, then tries every assignment of masses
    to leaves. Cost is exponential in m times m!, hence the ``max_m``
    guard.
    """
    if dist.m > max_m:
        raise ValueError(f"oracle limited to m <= {max_m}, got {dist.m}")
    if dist.m == 1:
        return 0.0
    qs = sorted(set(profile.sizes))
    budget = dummy_bound(profile) - 1
    cap = 2 * dist.m
    memo: dict[tuple[int, int], frozenset] = {}

    def shapes(r: int, dummies: int) -> frozenset:
        """(sorted leaf depths in nats, dummies used, internal nodes) over r-leaf subtrees."""
        key = (r, dummies)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc: set[tuple[tuple[float, ...], int, int]] = set()
        if r == 1:
            acc.add(((0.0,), 0, 0))
        for q in qs:
            lnq = math.log(q)
            for parts in _compositions(r, q):
                zeros = parts.count(0)
                if zeros > dummies:
                    continue
                combos: list[tuple[tuple[float, ...], int, int]] = [((), zeros, 1)]
                for part in parts:
                    if part == 0:
                        continue
                    nxt = []
                    for depths, used, nodes in combos:
                        for cd, cu, cn in shapes(part, dummies - used):
                            if used + cu <= dummies and nodes + cn <= cap:
                                nxt.append((depths + cd, used + cu, nodes + cn))
                    combos = nxt
                    if not combos:
                        break
                for depths, used, nodes in combos:
                    acc.add((tuple(sorted(d + lnq for d in depths)), used, nodes))
        result = frozenset(acc)
        memo[key] = result
        return result

    depth_sets = {depths for depths, _, _ in shapes(dist.m, budget)}
    masses = [float(p) for p in dist.masses]
    best = math.inf
    for depths in depth_sets:
        for perm in itertools.permutations(masses):
            value = sum(p * d for p, d in zip(perm, depths))
            if value < best:
                best = value
    return best


def enumerate_merge_sequences(m: int, profile: ChannelProfile) -> list[tuple[int, ...]]:
    """All merge sequences that reduce m masses to one, in lexicographic order.

    The prefixes of ``merge_prefixes`` that leave one mass. For two
    channels of sizes 2 and 3 the count grows like the Fibonacci numbers.
    """
    return [prefix for prefix, count in merge_prefixes(m, profile) if count == 1]


def memo_optimal_search(dist: Distribution, profile: ChannelProfile) -> SearchResult:
    """``optimal_search`` as the recursion it was before its forward sweep.

    The reference the sweep is checked against: each reduced multiset's
    best completion is memoized, options are tried in increasing k and a
    later one wins only if it is more than NATS_EPS shorter. The length is
    summed last merge first, and the subproblem count is the memo's size
    less the final one mass.
    """
    if dist.m == 1:
        return SearchResult(tree=Leaf(0), steps=(), expected_length=0.0, subproblem_count=0)
    first, later = merge_options(dist.m, profile)
    scale = dist.scale
    memo: dict[tuple[int, ...], tuple[float, tuple[int, ...]]] = {(scale,): (0.0, ())}

    def solve(masses, options):
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


def reference_scorer(metric: str, profile: ChannelProfile, scale: int):
    """A metric as a function of a prefix's (remaining weights, length, redundancy).

    The scorer ``enumerating_pruned_search`` uses, kept apart from the
    package's step scorers so that the oracle shares no scoring code with
    what it checks.
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


def enumerating_pruned_search(
    dist: Distribution, profile: ChannelProfile, metric: str
) -> tuple[SearchResult, TraceTable]:
    """``pruned_search`` as a depth-first walk of ``merge_prefixes``, then a pruning pass.

    The reference the count-by-count sweep of ``pruned_search`` is checked
    against: every prefix is recorded with its parent's index while
    ``merge_prefixes`` walks them, counts are then processed in decreasing
    order, and each complete sequence's trace row is rebuilt by walking
    its ancestors. It returns the same ``(result, trace)``.
    """
    score = reference_scorer(metric, profile, dist.scale)
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
        # a mass whose float rounds to 0.0 adds x ln x = 0, as in ``entropy``; r >= 0
        added_red = max(0.0, added_length - (s * math.log(s) if s else 0.0) + ordered_sum(
            f * math.log(f) for c in picked if (f := c / scale)
        ))
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

    rows = []
    for i in complete:
        row, j = [], i
        while j:
            row.append(values[j])
            j = parents[j]
        rows.append(tuple(reversed(row)))
    kept = [i for i in complete if died[i] is None]
    if not kept:
        raise RuntimeError("pruning eliminated every sequence")
    winner = kept[0]
    for i in kept[1:]:
        if states[i][1] < states[winner][1] - NATS_EPS:
            winner = i

    trace = TraceTable(
        metric=metric,
        sequences=tuple(complete.values()),
        counts=tuple(range(dist.m - 1, 0, -1)),
        rows=tuple(rows),
        pruned_at=tuple(died[i] for i in complete),
        survivors=tuple(complete[i] for i in kept),
        winner=complete[winner],
    )
    root, steps = replay_sequence(dist, profile, complete[winner])
    return SearchResult(root, steps, states[winner][1], len(states) - 1), trace


def brute_force_merge_sequences(m: int, profile: ChannelProfile) -> list[tuple[int, ...]]:
    """Admissible merge sequences for m masses, sorted, by filtering compositions.

    Rounds merging k_1..k_r masses take m masses to one when the k_t - 1
    add up to m - 1, so the k_t - 2 are a composition of m - 1 - r into r
    parts. Such a sequence is admissible when k_1 <= q_n and every later
    k_t is an alphabet size; each round then has enough masses, because
    1 + sum over s >= t of (k_s - 1) are left before round t.
    """
    sizes = set(profile.sizes)
    out = []
    for r in range(1, m):
        for parts in _compositions(m - 1 - r, r):
            seq = tuple(part + 2 for part in parts)
            if seq[0] <= profile.sizes[-1] and all(k in sizes for k in seq[1:]):
                out.append(seq)
    return sorted(out)


def _compositions(total: int, parts: int):
    """Ordered splits of ``total`` into ``parts`` nonnegative integers."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


#: Channel lists of the pinned search results (tests/golden/search_results.tsv).
GOLDEN_SEARCH_CHANNELS = ((2,), (2, 3), (2, 3, 5), (3, 4))


def search_results_tsv() -> str:
    """Search outputs on fixed seeded instances, one row per instance and method.

    Instances are drawn from seed "0" whatever MCHUFF_SEED says, so the text
    can be compared with the recorded golden file. For every channel list
    and mass kind ("counts": weights 1..4, many ties; "fine": weights
    1..10^6) there are 8 sources with 2 <= m <= 12.
    The ``optimal`` row holds ``optimal_search``'s sequence, expected length
    as a float hex string and subproblem count; each metric row holds
    ``pruned_search``'s sequence, expected length, state count, survivor
    count and the sha256 of its trace table. Record the file with
    ``PYTHONPATH=src:tests python3 -c "import helpers, sys;
    sys.stdout.write(helpers.search_results_tsv())"``.
    """
    rng = make_rng("search-golden", seed="0")
    rows = ["channels\tmasses\tmethod\tsequence\texpected_length\tsubproblems\tsurvivors\ttrace_sha256"]
    for sizes in GOLDEN_SEARCH_CHANNELS:
        profile = ChannelProfile.from_sizes(sizes)
        for top in (4, 10**6):
            for _ in range(8):
                weights = [rng.randint(1, top) for _ in range(rng.randint(2, 12))]
                dist = Distribution.from_masses([Fraction(w, sum(weights)) for w in weights])
                lead = f"{','.join(map(str, sizes))}\t{','.join(map(str, dist.masses))}"
                res = optimal_search(dist, profile)
                rows.append(f"{lead}\toptimal\t{_seq(res.sequence)}\t"
                            f"{res.expected_length.hex()}\t{res.subproblem_count}\t-\t-")
                for metric in METRICS:
                    res, trace = pruned_search(dist, profile, metric)
                    digest = hashlib.sha256(trace.to_tsv().encode()).hexdigest()
                    rows.append(f"{lead}\t{metric}\t{_seq(res.sequence)}\t"
                                f"{res.expected_length.hex()}\t{res.subproblem_count}\t"
                                f"{len(trace.survivors)}\t{digest}")
    return "\n".join(rows) + "\n"


def _seq(sequence) -> str:
    return ",".join(map(str, sequence))


#: Channel lists of the pinned tree analyses (tests/golden/tree_results.tsv).
GOLDEN_TREE_CHANNELS = ((2,), (2, 3), (3, 2), (2, 3, 5), (2, 40))


def tree_results_tsv() -> str:
    """Tree analyses of trees replayed from random sequences, one row per instance.

    Instances are drawn from seed "0" whatever MCHUFF_SEED says. For every
    channel list and mass kind ("counts": weights 1..4; "fine": weights
    1..10^6) there are 6 sources with 2 <= m <= 64, each replayed from a
    random admissible merge sequence. A row holds ``expected_length`` as a
    float hex string; the sha256 of ``local_redundancy``'s node records
    (path and hex values) and its three totals in hex; the codebook's
    exact Kraft sum; and, per channel in the caller's order,
    ``build_single_huffman``'s lengths and expected length in hex. Record
    the file with ``PYTHONPATH=src:tests python3 -c "import helpers, sys;
    sys.stdout.write(helpers.tree_results_tsv())"``.
    """
    rng = make_rng("tree-golden", seed="0")
    rows = ["channels\tm\tsequence\texpected_length\tnodes_sha256\ttotals\tkraft_sum\thuffman"]
    for sizes in GOLDEN_TREE_CHANNELS:
        profile = ChannelProfile.from_sizes(sizes)
        for top in (4, 10**6):
            for _ in range(6):
                weights = [rng.randint(1, top) for _ in range(rng.randint(2, 64))]
                dist = Distribution.from_masses([Fraction(w, sum(weights)) for w in weights])
                sequence = random_sequence(rng, dist.m, profile)
                root, _ = replay_sequence(dist, profile, sequence)
                report = local_redundancy(root, dist)
                records = "".join(
                    f"{n.path} {n.reaching_probability.hex()} {n.branching_entropy.hex()} "
                    f"{n.alphabet_size} {n.local_redundancy.hex()}\n"
                    for n in report.nodes
                )
                totals = (report.expected_length, report.entropy, report.total_redundancy)
                kraft = kraft_sum(codebook_from_tree(root, profile).length_tuples(), profile)
                codes = [build_single_huffman(dist, q) for q in profile.user_sizes]
                rows.append("\t".join((
                    _seq(sizes),
                    str(dist.m),
                    _seq(sequence),
                    expected_length(root, dist).hex(),
                    hashlib.sha256(records.encode()).hexdigest(),
                    ",".join(t.hex() for t in totals),
                    str(kraft),
                    " ".join(f"{_seq(c.lengths)}:{c.expected_length.hex()}" for c in codes),
                )))
    return "\n".join(rows) + "\n"


#: Source and channel lists of the pinned build outputs (tests/golden/build_sha256.tsv);
#: six masses, so single-channel codes on q = 3 and q = 5 need padding slots.
PADDED_SIX = ["0.05", "0.1", "0.12", "0.18", "0.25", "0.3"]
BUILD_CHANNELS = ([3, 2], [2, 3, 5])
BUILD_FILES = ("tree.json", "codebook.json", "stats.json")


def build_hashes() -> str:
    """sha256 of each ``mchuff build`` output file, one TSV line per channel list, method and file.

    Record the file with ``PYTHONPATH=src:tests python3 -c "import helpers,
    sys; sys.stdout.write(helpers.build_hashes())"``.
    """
    lines = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        dist, out = Path(tmp) / "d.json", Path(tmp) / "out"
        for channels in BUILD_CHANNELS:
            dist.write_text(json.dumps({"masses": PADDED_SIX, "channels": channels}))
            methods = ["optimal", "suboptimal"] + [f"prune={metric}" for metric in METRICS]
            methods += [f"single={c}" for c in range(1, len(channels) + 1)]
            for method in methods:
                lines += _build_lines(dist, out, method, ",".join(map(str, channels)))
    return "\n".join(lines) + "\n"


def _build_lines(dist: Path, out: Path, method: str, lead: str) -> list[str]:
    """Run ``mchuff build`` and return ``lead``, method, file name and sha256 per output file."""
    if cli_main(["build", str(dist), "--method", method, "--out-dir", str(out)]) != 0:
        raise RuntimeError(f"build --method {method} failed on {lead!r}")
    return [
        f"{lead}\t{method}\t{name}\t{hashlib.sha256((out / name).read_bytes()).hexdigest()}"
        for name in BUILD_FILES
    ]


#: Alphabet sizes and channel lists of the pinned large-alphabet outputs
#: (tests/golden/large_alphabet_sha256.tsv); q = 40 takes the comma-separated digits.
LARGE_SIZES = (512, 2048)
LARGE_CHANNELS = ([2, 40], [5, 2, 3])

#: 1/2, ..., 1/2**1199, 1/2**1199: the smallest masses underflow a float, the Huffman tree is 1199 deep.
GEOMETRIC_1200 = [f"1/{2**j}" for j in range(1, 1200)] + [f"1/{2**1199}"]

#: Zipf masses over 256 symbols: weights round(10**6 / j**1.1) for j = 1..256, over their sum.
ZIPF_WEIGHTS_256 = [round(10**6 / j**1.1) for j in range(1, 257)]
ZIPF_256 = [Fraction(w, sum(ZIPF_WEIGHTS_256)) for w in ZIPF_WEIGHTS_256]


def large_alphabet_hashes() -> str:
    """sha256 of ``mchuff analyze`` stdout and of every ``build --method single=k`` file.

    Sources are symbol counts drawn from seed "0" whatever MCHUFF_SEED says,
    heavy at the low symbols and with many ties. One TSV line per size,
    channel list, command and output. Record the file with
    ``PYTHONPATH=src:tests python3 -c "import helpers, sys;
    sys.stdout.write(helpers.large_alphabet_hashes())"``.
    """
    rng = make_rng("large-alphabet-golden", seed="0")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        dist, out = Path(tmp) / "d.json", Path(tmp) / "out"
        for m in LARGE_SIZES:
            counts = [rng.randint(1, 1 + 4 * m // (j + 1)) for j in range(m)]
            masses = [str(Fraction(c, sum(counts))) for c in counts]
            for channels in LARGE_CHANNELS:
                lead = f"{m}\t{','.join(map(str, channels))}"
                dist.write_text(json.dumps({"masses": masses, "channels": channels}))
                with contextlib.redirect_stdout(io.StringIO()) as stdout:
                    if cli_main(["analyze", str(dist)]) != 0:
                        raise RuntimeError(f"analyze failed at m={m} on channels {channels}")
                    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                    lines.append(f"{lead}\tanalyze\tstdout\t{digest}")
                    for c in range(1, len(channels) + 1):
                        lines += _build_lines(dist, out, f"single={c}", lead)
    return "\n".join(lines) + "\n"
