"""Property tests over random rational sources and channel lists.

Examples are derandomized, so every run checks the same inputs.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mchuff import (
    NATS_EPS,
    ChannelProfile,
    Distribution,
    codebook_from_tree,
    entropy,
    huffman_expected_length,
    kraft_sum,
    optimal_search,
    suboptimal_build,
)
from mchuff.huffman import huffman_merged_total

from helpers import GOLDEN_SEARCH_CHANNELS, dummy_length_tuples, heap_merged_total, random_tree

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)

# each mass is a random rational share; normalizing makes the denominators differ
shares = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)
normalized = st.lists(shares, min_size=1, max_size=10).map(lambda xs: [x / sum(xs) for x in xs])
sources = normalized.map(Distribution.from_masses)
# masses written to 12 decimals miss a total of 1 by under 10**-9, so many are rescaled
rounded_sources = normalized.map(
    lambda ps: Distribution.from_masses([f"{float(p):.12f}" for p in ps])
)
profiles = st.sampled_from(GOLDEN_SEARCH_CHANNELS).map(ChannelProfile.from_sizes)


@PROPERTY_SETTINGS
@given(sources)
def test_weights_are_the_masses_over_scale(dist):
    assert sum(dist.weights) == dist.scale
    assert all(Fraction(w, dist.scale) == p for w, p in zip(dist.weights, dist.masses))


@PROPERTY_SETTINGS
@given(st.one_of(sources, rounded_sources))
def test_weights_are_in_lowest_terms(dist):
    assert math.gcd(dist.scale, *dist.weights) == 1
    assert dist.scale == math.lcm(*(p.denominator for p in dist.masses))


@PROPERTY_SETTINGS
@given(normalized.flatmap(lambda ps: st.tuples(st.just(ps), st.permutations(ps))))
def test_weights_do_not_depend_on_input_order(masses_and_shuffled):
    masses, shuffled = masses_and_shuffled
    dist = Distribution.from_masses(masses)
    again = Distribution.from_masses(shuffled)
    assert (again.weights, again.scale) == (dist.weights, dist.scale)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=256), st.sampled_from((2, 3, 5, 40)))
def test_huffman_total_matches_heap_oracle(weights, q):
    """Tie-heavy masses, as integers and as probabilities."""
    assert huffman_merged_total(weights, q) == heap_merged_total(weights, q)
    masses = [Fraction(w, sum(weights)) for w in weights]
    assert huffman_merged_total(masses, q) == heap_merged_total(masses, q)


@PROPERTY_SETTINGS
@given(sources, profiles)
def test_optimal_length_within_entropy_bounds(dist, profile):
    h = entropy(dist)
    length = optimal_search(dist, profile).expected_length
    assert h - NATS_EPS <= length < h + math.log(profile.sizes[0])


@PROPERTY_SETTINGS
@given(sources, profiles)
def test_suboptimal_between_optimal_and_single_channel(dist, profile):
    optimal = optimal_search(dist, profile).expected_length
    suboptimal = suboptimal_build(dist, profile).expected_length
    single = min(huffman_expected_length(dist.masses, q) for q in profile.sizes)
    assert optimal <= suboptimal + NATS_EPS
    assert suboptimal <= single + NATS_EPS


@PROPERTY_SETTINGS
@given(sources.filter(lambda dist: dist.m > 1), profiles, st.randoms(use_true_random=False))
def test_kraft_sum_with_dummies_is_one(dist, profile, rng):
    root, _ = random_tree(rng, dist, profile)
    lengths = codebook_from_tree(root, profile).length_tuples()
    assert kraft_sum(lengths + tuple(dummy_length_tuples(root, profile.n)), profile) == 1
