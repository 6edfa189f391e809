import math
from decimal import Decimal
from fractions import Fraction

import pytest

from mchuff import (
    ChannelProfile,
    Distribution,
    description_length,
    dummy_bound,
    entropy,
    kraft_sum,
    tight_example,
)

from helpers import make_rng, random_distribution

# weights and scale of the masses 1/4 and 3/4
QUARTER = ((1, 3), 4)


class TestDistribution:
    def test_canonical_order_and_input_order(self):
        d = Distribution.from_masses(["1/3", "1/6", "1/2"])
        assert d.masses == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
        assert d.input_order == (1, 0, 2)
        assert not d.rescaled

    def test_decimal_strings_parse_exactly(self):
        d = Distribution.from_masses(["0.13", "0.199", "0.212", "0.217", "0.242"])
        assert d.masses[0] == Fraction(13, 100)
        assert sum(d.masses) == 1

    def test_rescale_within_tolerance(self):
        d = Distribution.from_masses(["0.3333333333", "0.3333333333", "0.3333333333"])
        assert d.rescaled
        assert sum(d.masses) == 1

    def test_rejects_bad_totals_and_masses(self):
        with pytest.raises(ValueError):
            Distribution.from_masses(["0.4", "0.4"])
        with pytest.raises(ValueError, match=r"masses\[1\]"):
            Distribution.from_masses(["0.5", "zebra"])
        with pytest.raises(ValueError):
            Distribution.from_masses([])
        with pytest.raises(ValueError, match=r"masses\[0\]"):
            Distribution.from_masses(["-0.5", "1.5"])

    def test_rejects_booleans(self):
        with pytest.raises(ValueError, match=r"masses\[0\]"):
            Distribution.from_masses([True])
        with pytest.raises(ValueError, match=r"masses\[1\]"):
            Distribution.from_masses([Fraction(1, 2), False, Fraction(1, 2)])

    def test_integer_weights_over_common_denominator(self):
        d = Distribution.from_masses(["1/3", "1/6", "1/4", "1/4"])
        assert d.scale == 12
        assert d.weights == (2, 3, 3, 4)
        assert Distribution.from_masses([1]).weights == (1,)
        with pytest.raises(ValueError, match="sum to exactly 1"):
            Distribution((1, 1), 3, (0, 1))

    @pytest.mark.parametrize(
        "weights, scale, message",
        [
            ((0, 1), 1, "positive"),
            ((-1, 2), 1, "positive"),
            ((2, 1), 3, "nondecreasing"),
            ((2, 2), 4, "lowest terms"),
            ((2, 4), 6, "lowest terms"),
        ],
    )
    def test_rejects_bad_weights(self, weights, scale, message):
        with pytest.raises(ValueError, match=message):
            Distribution(weights, scale, (0, 1))

    def test_rejects_input_order_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            Distribution((1, 2), 3, (0, 0))

    def test_rescale_reduces_to_lowest_terms(self):
        # the totals miss 1 by 10**-10; the last mass absorbs it and the 10**10 scale reduces
        d = Distribution.from_masses(["0.3", "0.3", "0.4000000001"])
        assert d.rescaled
        assert (d.weights, d.scale, d.input_order) == ((3, 3, 4), 10, (0, 1, 2))
        d = Distribution.from_masses(["0.2", "0.2", "0.6000000001"])
        assert (d.weights, d.scale) == ((1, 1, 3), 5)

    @pytest.mark.parametrize(
        "first, expected",
        [
            ("1/4", QUARTER),
            ("004/016", QUARTER),
            ("٣/12", QUARTER),
            (" 1/4 ", QUARTER),
            ("+1/4", QUARTER),
            ("0.25", QUARTER),
            ("25e-2", QUARTER),
            ("0/5", "masses[0]: mass must be positive, got 0"),
            ("-1/4", "masses[0]: mass must be positive, got -1/4"),
            ("1/0", "masses[0]: cannot parse '1/0' as a rational"),
            ("1/4/1", "masses[0]: cannot parse '1/4/1' as a rational"),
            ("/4", "masses[0]: cannot parse '/4' as a rational"),
            ("1/", "masses[0]: cannot parse '1/' as a rational"),
        ],
    )
    def test_mass_strings(self, first, expected):
        # the same rational (or error) through the "p/q" shortcut and through Fraction(str);
        # underscores are left to the property test, as Fraction reads them only from Python 3.11
        try:
            d = Distribution.from_masses([first, "3/4"])
            got = (d.weights, d.scale)
        except ValueError as exc:
            got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity"])
    def test_infinite_decimal_is_unparsable(self, text):
        message = rf"^masses\[0\]: cannot parse Decimal\('{text}'\) as a rational$"
        with pytest.raises(ValueError, match=message):
            Distribution.from_masses([Decimal(text)])

    def test_total_beyond_float_range(self):
        with pytest.raises(ValueError, match=r"^masses sum to 180{998}1/2 ~ inf, too far from 1 to rescale$"):
            Distribution.from_masses(["9e999", "1/2"])


class TestChannelProfile:
    def test_canonicalizes_with_user_order(self):
        p = ChannelProfile.from_sizes([3, 2])
        assert p.sizes == (2, 3)
        assert p.user_order == (1, 0)
        p = ChannelProfile.from_sizes([5, 2, 3])
        assert p.user_order == (1, 2, 0)
        assert p.canonical_index == (2, 0, 1)
        assert p.user_sizes == (5, 2, 3)

    def test_rejects_small_alphabets(self):
        with pytest.raises(ValueError, match=r"channels\[1\]"):
            ChannelProfile.from_sizes([2, 1])
        with pytest.raises(ValueError):
            ChannelProfile.from_sizes([])

    @pytest.mark.parametrize("size", [2.5, 2.0, True, "3", None])
    def test_rejects_non_integer_sizes(self, size):
        with pytest.raises(ValueError, match=r"^sizes\[0\]: alphabet size must be an integer, got "):
            ChannelProfile((size, 3), (0, 1))


class TestEntropy:
    def test_example_values(self):
        d = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])
        assert entropy(d) == pytest.approx(1.32966134885, abs=1e-9)
        assert entropy(Distribution.from_masses([1])) == 0.0
        d5 = Distribution.from_masses(["0.13", "0.199", "0.212", "0.217", "0.242"])
        assert entropy(d5) == pytest.approx(1.5902511945, abs=1e-9)
        assert entropy(d5.masses) == entropy(d5)

    def test_masses_below_float_range_are_skipped(self):
        masses = [Fraction(1, 2**j) for j in range(1, 1200)]
        d = Distribution.from_masses(masses + [masses[-1]])
        assert float(d.masses[0]) == 0.0
        assert entropy(d) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_permutation_invariant_and_uniform_max(self):
        rng = make_rng("entropy")
        for _ in range(50):
            m = rng.randint(2, 10)
            d = random_distribution(rng, m)
            shuffled = list(d.masses)
            rng.shuffle(shuffled)
            assert entropy(Distribution.from_masses(shuffled)) == pytest.approx(entropy(d), abs=1e-12)
            uniform = Distribution.from_masses([Fraction(1, m)] * m)
            assert entropy(d) <= entropy(uniform) + 1e-12
            assert entropy(uniform) == pytest.approx(math.log(m), abs=1e-12)


class TestDescriptionLength:
    def test_example_values(self):
        p = ChannelProfile.from_sizes((2, 3))
        assert description_length((1, 1), p) == pytest.approx(math.log(2) + math.log(3), abs=1e-12)
        assert description_length((0, 0), p) == 0.0
        assert description_length((3, 0), p) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_additive_and_monotone(self):
        p = ChannelProfile.from_sizes((2, 3, 5))
        base = description_length((1, 2, 1), p)
        assert description_length((2, 2, 1), p) > base
        parts = description_length((1, 0, 0), p) + description_length((0, 2, 0), p) + \
            description_length((0, 0, 1), p)
        assert parts == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            description_length((1, 1, 1), ChannelProfile.from_sizes((2, 3)))


class TestKraftSum:
    def test_example_values(self):
        p = ChannelProfile.from_sizes((2, 3))
        complete = [(1, 1), (1, 1), (0, 1), (0, 1)]
        assert kraft_sum(complete, p) == 1
        three = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        assert kraft_sum(three, ChannelProfile.from_sizes((2, 2, 2))) == Fraction(3, 4)
        assert kraft_sum([(0, 0)], p) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kraft_sum([(1,)], ChannelProfile.from_sizes((2, 3)))

    def test_repeated_tuples_count_and_errors_name_the_first_bad_one(self):
        p = ChannelProfile.from_sizes((2, 3))
        assert kraft_sum([(1, 1), [1, 1], (0, 1), [0, 1], (1, 1)], p) == Fraction(7, 6)
        with pytest.raises(ValueError, match="length tuple 2 has a negative component"):
            kraft_sum([(1, 0), [1, 0], (1, -1), (1,)], p)
        with pytest.raises(ValueError, match="length tuple 3 has 1 components for 2 channels"):
            kraft_sum([(1, 0), (1, 0), [0, 1], (1,), (0, -1)], p)


class TestDummyBound:
    def test_example_values(self):
        assert dummy_bound(ChannelProfile.from_sizes((2, 3))) == 1
        assert dummy_bound(ChannelProfile.from_sizes((2,))) == 1
        assert dummy_bound(ChannelProfile.from_sizes((2, 5))) == 3


class TestTightExample:
    def test_example_values(self):
        assert tight_example(2, 2).masses == (Fraction(1, 2), Fraction(1, 2))
        assert tight_example(2, 1000).masses == (Fraction(1, 1000), Fraction(999, 1000))
        assert tight_example(3, 4).masses == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))

    def test_rejects_k_below_q1(self):
        with pytest.raises(ValueError):
            tight_example(3, 2)
