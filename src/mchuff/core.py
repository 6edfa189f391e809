"""Exact-arithmetic domain types and information measures.

Probability masses are parsed as exact rationals and then held only as
integer weights over one common denominator, ``Distribution.scale``.
Parsing, the searches, the replay of a sequence into a tree, the tree
analyses and the Kraft sums add, compare and hash integers, which is
exact and much cheaper than rational arithmetic. Floating point enters
only through logarithms and the divisions ``w / scale`` that feed them,
which round exactly as ``float(Fraction(w, scale))`` does, and float
totals add left to right (``ordered_sum``) on every Python version.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

#: Expected lengths and entropies (in nats) closer than this count as ties.
NATS_EPS = 1e-12

#: Mass totals may miss 1 by at most this before the input is rejected.
SUM_TOLERANCE = Fraction(1, 10**9)


def as_sizes(profile_or_sizes) -> tuple[int, ...]:
    """Accept either a ChannelProfile or a plain sequence of alphabet sizes."""
    return tuple(getattr(profile_or_sizes, "sizes", profile_or_sizes))


@dataclass(frozen=True)
class Distribution:
    """Multiset of positive probability masses, sorted nondecreasing.

    Mass ``j`` is ``weights[j] / scale``: the weights are positive integers
    summing to ``scale``, in lowest terms (no common factor with ``scale``),
    so ``scale`` is the least common multiple of the mass denominators.
    ``input_order[j]`` is the position mass ``j`` held in the sequence the
    distribution was built from, letting callers report results under their
    own symbol numbering. ``rescaled`` is set when the input total missed 1
    by a tiny residue and the last input mass absorbed it.
    """

    weights: tuple[int, ...]
    scale: int
    input_order: tuple[int, ...]
    rescaled: bool = False

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("a distribution needs at least one mass")
        if any(w <= 0 for w in self.weights):
            raise ValueError("all masses must be positive")
        if any(a > b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("masses must be nondecreasing")
        if sum(self.weights) != self.scale:
            raise ValueError("masses must sum to exactly 1")
        if math.gcd(self.scale, *self.weights) != 1:
            raise ValueError("weights and scale must be in lowest terms")
        if sorted(self.input_order) != list(range(self.m)):
            raise ValueError("input_order must be a permutation of the mass indices")

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        """The masses as exact rationals, ``weights[j] / scale``."""
        return tuple(Fraction(w, self.scale) for w in self.weights)

    @classmethod
    def from_masses(cls, values: Iterable[Fraction | str | int | float]) -> "Distribution":
        """Build a distribution from masses given in any order.

        Accepts exact rationals or strings such as ``"0.199"`` or ``"1/6"``;
        decimals are read exactly (0.199 becomes 199/1000). A total within
        SUM_TOLERANCE of 1 is repaired by adjusting the last input mass.
        Strings ``"p/q"`` of nonzero ASCII digit strings, ints and Fractions are
        read as reduced integer pairs, with no ``Fraction`` made per mass.
        """
        nums: list[int] = []
        dens: list[int] = []
        for idx, v in enumerate(values):
            if isinstance(v, bool):
                raise ValueError(f"masses[{idx}]: a boolean is not a mass, got {v!r}")
            try:
                if type(v) is str and v.isascii():
                    p, slash, q = v.partition("/")
                    # a 0 on either side is left to Fraction, for its value or its refusal
                    if slash and p.isdigit() and q.isdigit() and (a := int(p)) and (b := int(q)):
                        g = math.gcd(a, b)
                        nums.append(a // g)
                        dens.append(b // g)
                        continue
                    f = Fraction(v)
                elif type(v) is int or type(v) is Fraction:
                    f = v
                else:
                    f = Fraction(str(v)) if isinstance(v, float) else Fraction(v)
            # OverflowError: Fraction(Decimal("Infinity")), of either sign
            except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
                raise ValueError(f"masses[{idx}]: cannot parse {v!r} as a rational") from exc
            if f.numerator <= 0:
                raise ValueError(f"masses[{idx}]: mass must be positive, got {f}")
            nums.append(f.numerator)
            dens.append(f.denominator)
        if not nums:
            raise ValueError("a distribution needs at least one mass")
        scale = math.lcm(*dens)
        weights = [n * (scale // d) for n, d in zip(nums, dens)]
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
        return cls(tuple(weights[j] for j in order), scale, tuple(order), rescaled)


@dataclass(frozen=True)
class ChannelProfile:
    """Channel alphabet sizes q_1 <= ... <= q_n.

    All computation runs against this canonical order; ``user_order[i]``
    remembers where channel ``i`` sat in the caller's ordering so reports
    can translate back.
    """

    sizes: tuple[int, ...]
    user_order: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a profile needs at least one channel")
        for idx, q in enumerate(self.sizes):
            if not isinstance(q, int) or isinstance(q, bool):
                raise ValueError(f"sizes[{idx}]: alphabet size must be an integer, got {q!r}")
        if any(q < 2 for q in self.sizes):
            raise ValueError("every channel alphabet size must be at least 2")
        if any(a > b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be nondecreasing")
        if sorted(self.user_order) != list(range(len(self.sizes))):
            raise ValueError("user_order must be a permutation of the channel indices")

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def canonical_index(self) -> tuple[int, ...]:
        """``canonical_index[u]`` is the canonical position of the caller's channel ``u``."""
        return tuple(sorted(range(self.n), key=self.user_order.__getitem__))

    @property
    def user_sizes(self) -> tuple[int, ...]:
        """Alphabet sizes in the caller's channel order."""
        return tuple(self.sizes[c] for c in self.canonical_index)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "ChannelProfile":
        raw = list(sizes)
        if not raw:
            raise ValueError("a profile needs at least one channel")
        for idx, q in enumerate(raw):
            if not isinstance(q, int) or isinstance(q, bool) or q < 2:
                raise ValueError(f"channels[{idx}]: alphabet size must be an integer >= 2, got {q!r}")
        order = sorted(range(len(raw)), key=lambda i: (raw[i], i))
        return cls(tuple(raw[i] for i in order), tuple(order))


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum: the builtin ``sum`` up to 3.11 (3.12 compensates rounding)."""
    total = 0.0
    for v in values:
        total += v
    return total


def entropy(dist) -> float:
    """Entropy in nats of a Distribution, or of a sequence of masses summing to 1.

    A mass whose float rounds to 0.0 (below about 2**-1075) would add
    exactly 0.0, so it is skipped rather than passed to ``log``.
    """
    if isinstance(dist, Distribution):
        return entropy([w / dist.scale for w in dist.weights])
    # + 0.0 normalizes the -0.0 a deterministic single-mass source produces
    return -ordered_sum(f * math.log(f) for f in map(float, dist) if f) + 0.0


def description_length(lengths: Sequence[int], profile) -> float:
    """Size in nats of a codeword with the given per-channel symbol counts."""
    sizes = as_sizes(profile)
    if len(lengths) != len(sizes):
        raise ValueError(f"length tuple has {len(lengths)} components for {len(sizes)} channels")
    if any(l < 0 for l in lengths):
        raise ValueError("codeword lengths cannot be negative")
    return ordered_sum(l * math.log(q) for l, q in zip(lengths, sizes))


def kraft_sum(length_tuples: Iterable[Sequence[int]], profile) -> Fraction:
    """Exact value of sum over codewords of prod_i q_i^(-l_i), added over prod_i q_i^(max l_i).

    Equal tuples are checked once and counted, so the cost follows the few
    distinct tuples a code has, not its word count.
    """
    sizes = as_sizes(profile)
    counts: dict[tuple[int, ...], int] = {}
    for j, lt in enumerate(length_tuples):
        key = tuple(lt)
        seen = counts.get(key)
        if seen is None:
            if len(key) != len(sizes):
                raise ValueError(f"length tuple {j} has {len(key)} components for {len(sizes)} channels")
            if any(l < 0 for l in key):
                raise ValueError(f"length tuple {j} has a negative component")
            seen = 0
        counts[key] = seen + 1
    longest = [max(column) for column in zip(*counts)]
    total = sum(
        count * math.prod(q ** (top - l) for l, q, top in zip(lt, sizes, longest))
        for lt, count in counts.items()
    )
    return Fraction(total, math.prod(q**top for q, top in zip(sizes, longest)))


def dummy_bound(profile) -> int:
    """Strict upper bound on the padding leaves any optimal decoding tree needs.

    The bound is the largest jump between consecutive alphabet sizes, with
    an implicit size-1 channel in front; a bound of 1 forces zero padding.
    """
    sizes = as_sizes(profile)
    prev = 1
    best = 0
    for q in sizes:
        best = max(best, q - prev)
        prev = q
    return best


def tight_example(q1: int, k: int) -> Distribution:
    """A q1-mass source whose optimal code approaches the H + ln(q1) bound as k grows."""
    if q1 < 2:
        raise ValueError("q1 must be at least 2")
    if k < q1:
        raise ValueError("k must be at least q1")
    small = Fraction(1, k)
    big = 1 - (q1 - 1) * small
    return Distribution.from_masses([big] + [small] * (q1 - 1))
