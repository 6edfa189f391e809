import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from mchuff import (
    ChannelProfile,
    Distribution,
    build_single_huffman,
    codebook_from_tree,
    construct,
    description_length,
    dummy_count,
    entropy,
    huffman_expected_length,
    huffman_merge_sequence,
    trivial_extension,
)

from mchuff import digits, replay_sequence
from mchuff.huffman import huffman_lengths

from helpers import GEOMETRIC_1200, make_rng, random_distribution, reference_codewords


def kraft_feasible_minimum(dist: Distribution, q: int) -> float:
    """Independent oracle: cheapest Kraft-feasible length vector.

    Enumerates nondecreasing length vectors (depth at most m-1 suffices);
    by the rearrangement inequality the best assignment pairs the largest
    masses with the shortest lengths, i.e. reverses the vector against the
    mass-ascending distribution.
    """
    m = dist.m
    best = math.inf
    powers = [Fraction(1, q**l) for l in range(m)]
    for lengths in combinations_with_replacement(range(m), m):
        if sum(powers[l] for l in lengths) <= 1:
            value = sum(float(p) * l for p, l in zip(dist.masses, reversed(lengths)))
            best = min(best, value)
    return best * math.log(q)


class TestDummyCount:
    def test_examples(self):
        assert dummy_count(5, 3) == 0
        assert dummy_count(6, 3) == 1
        for m in range(1, 30):
            assert dummy_count(m, 2) == 0

    def test_range_and_congruence(self):
        for q in range(2, 7):
            for m in range(1, 40):
                w = dummy_count(m, q)
                assert 0 <= w < q - 1 or (q == 2 and w == 0)
                assert (m + w - 1) % (q - 1) == 0


class TestBuildSingleHuffman:
    def test_reference_lengths(self):
        d1 = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])
        assert build_single_huffman(d1, 2).expected_length == pytest.approx(1.38629436112, abs=1e-9)
        d2 = Distribution.from_masses(["1/6", "1/6", "1/6", "1/2"])
        assert build_single_huffman(d2, 3).expected_length == pytest.approx(1.46481638489, abs=1e-9)
        assert build_single_huffman(d2, 2).expected_length == pytest.approx(1.27076983103, abs=1e-9)

    def test_single_mass(self):
        code = build_single_huffman(Distribution.from_masses([1]), 3)
        assert code.codewords == ("",)
        assert code.expected_length == 0.0

    def test_deterministic_under_ties(self):
        d = Distribution.from_masses([Fraction(1, 4)] * 4)
        a = build_single_huffman(d, 2)
        b = build_single_huffman(d, 2)
        assert a == b
        assert sorted(a.lengths) == [2, 2, 2, 2]

    def test_codewords_prefix_free_and_kraft_complete(self):
        rng = make_rng("huffman-kraft")
        for _ in range(30):
            q = rng.choice([2, 3, 4])
            d = random_distribution(rng, rng.randint(2, 9))
            code = build_single_huffman(d, q)
            words = sorted(code.codewords)
            for a, b in zip(words, words[1:]):
                assert not b.startswith(a)
            total = sum(Fraction(1, q**l) for l in code.lengths)
            with_dummies = total + sum(Fraction(1, q**l) for l in code.dummy_lengths)
            assert with_dummies == 1
            assert total <= 1

    def test_entropy_bound_per_channel(self):
        rng = make_rng("huffman-bound")
        for _ in range(40):
            q = rng.choice([2, 3, 4])
            d = random_distribution(rng, rng.randint(1, 10))
            code = build_single_huffman(d, q)
            h = entropy(d)
            assert h - 1e-9 <= code.expected_length < h + math.log(q)

    def test_larger_masses_get_shorter_words(self):
        rng = make_rng("huffman-exchange")
        for _ in range(40):
            q = rng.choice([2, 3, 4])
            d = random_distribution(rng, rng.randint(2, 10))
            lengths = build_single_huffman(d, q).lengths
            # masses ascend, so lengths must descend (weakly)
            assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_matches_kraft_feasible_minimum(self):
        rng = make_rng("huffman-oracle")
        for _ in range(30):
            q = rng.choice([2, 3, 4])
            d = random_distribution(rng, rng.randint(1, 8))
            code = build_single_huffman(d, q)
            assert code.expected_length == pytest.approx(kraft_feasible_minimum(d, q), abs=1e-9)

    def test_fast_length_agrees(self):
        rng = make_rng("huffman-fast")
        for _ in range(40):
            q = rng.choice([2, 3, 4, 5])
            d = random_distribution(rng, rng.randint(1, 10))
            assert huffman_expected_length(d.masses, q) == pytest.approx(
                build_single_huffman(d, q).expected_length, abs=1e-12
            )

    def test_merge_sequence_helper(self):
        assert huffman_merge_sequence(1, 3) == ()
        assert huffman_merge_sequence(5, 3) == (3, 3)
        assert huffman_merge_sequence(6, 3) == (2, 3, 3)
        assert huffman_merge_sequence(4, 2) == (2, 2, 2)

    def test_codewords_match_single_channel_construction(self):
        rng = make_rng("huffman-construct")
        padded = 0
        for _ in range(40):
            sizes = rng.choice([(2, 3), (3, 5), (4, 2, 3)])
            profile = ChannelProfile.from_sizes(sizes)
            d = random_distribution(rng, rng.randint(2, 12))
            for user, q in enumerate(sizes):
                padded += dummy_count(d.m, q) > 0
                result = construct(d, profile, "single", channel=user)
                book = codebook_from_tree(result.tree, profile)
                words = tuple(word[profile.canonical_index[user]] for word in book.words)
                assert build_single_huffman(d, q).codewords == words
        assert padded > 0

    def test_codewords_on_comma_separated_alphabets(self):
        """q > 36 writes digits as comma-separated integers; several digits deep they still match."""
        rng = make_rng("huffman-wide")
        profile = ChannelProfile.from_sizes((40, 2))
        for m in (41, 120, 1700):
            d = random_distribution(rng, m)
            book = codebook_from_tree(construct(d, profile, "single", channel=0).tree, profile)
            words = tuple(word[profile.canonical_index[0]] for word in book.words)
            code = build_single_huffman(d, 40)
            assert code.codewords == words
            assert max(word.count(",") for word in code.codewords) >= 1

    def test_deep_tree_without_recursion_limit(self):
        m = 1200
        masses = [Fraction(1, 2**j) for j in range(1, m)]
        code = build_single_huffman(Distribution.from_masses(masses + [masses[-1]]), 2)
        assert max(code.lengths) == m - 1
        assert code.merge_ks == (2,) * (m - 1)

    def test_lengths_alone_on_a_deep_tree(self):
        dist = Distribution.from_masses(GEOMETRIC_1200)
        lengths = huffman_lengths(dist, 2)
        assert tuple(lengths) == build_single_huffman(dist, 2).lengths
        assert max(lengths) == 1199


class TestTrivialExtension:
    def test_places_words_on_one_channel(self):
        d = Distribution.from_masses(["1/4", "1/4", "1/2"])
        profile = ChannelProfile.from_sizes((2, 2, 3))
        code = build_single_huffman(d, 2)
        cb = trivial_extension(code, 0, profile)
        assert all(word[1] == "" and word[2] == "" for word in cb.words)
        assert tuple(word[0] for word in cb.words) == code.codewords

    def test_alphabet_mismatch(self):
        d = Distribution.from_masses(["1/4", "1/4", "1/2"])
        profile = ChannelProfile.from_sizes((2, 2, 3))
        code = build_single_huffman(d, 2)
        with pytest.raises(ValueError):
            trivial_extension(code, 2, profile)

    def test_single_channel_identity(self):
        d = Distribution.from_masses(["1/4", "1/4", "1/2"])
        profile = ChannelProfile.from_sizes((2,))
        code = build_single_huffman(d, 2)
        cb = trivial_extension(code, 0, profile)
        assert tuple(word[0] for word in cb.words) == code.codewords

    def test_conserves_expected_length(self):
        d = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])
        profile = ChannelProfile.from_sizes((2, 3))
        code = build_single_huffman(d, 2)
        cb = trivial_extension(code, 0, profile)
        total = sum(
            float(p) * description_length(lt, profile)
            for p, lt in zip(d.masses, cb.length_tuples())
        )
        assert total == pytest.approx(1.38629436112, abs=1e-9)
        assert total == pytest.approx(code.expected_length, abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5, 40])
def test_codewords_match_recursive_reference(q):
    rng = make_rng(f"huffman-walk-{q}")
    profile = ChannelProfile.from_sizes((q,))
    for _ in range(25):
        dist = random_distribution(rng, rng.randint(1, 90))
        code = build_single_huffman(dist, q)
        root, _ = replay_sequence(dist, profile, huffman_merge_sequence(dist.m, q))
        words, dummy_depths = reference_codewords(root, (q,))
        assert code.codewords == tuple(words[j][0] for j in range(dist.m))
        assert code.lengths == tuple(digits.length(word, q) for word in code.codewords)
        assert sorted(code.dummy_lengths) == sorted(dummy_depths)
