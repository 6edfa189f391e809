import time

import pytest

from mchuff import (
    ChannelProfile,
    Codebook,
    CorruptionError,
    DegenerateCodeError,
    Distribution,
    DummyLeaf,
    Internal,
    Leaf,
    TrailingDataError,
    TruncationError,
    codebook_from_tree,
    decode,
    encode,
    optimal_search,
    prefix_free,
    replay_sequence,
)
from mchuff import digits
from mchuff.codec import _Reader

from helpers import (
    PROFILES,
    damaged_case,
    make_rng,
    outcome,
    random_distribution,
    random_tree,
    walking_decode,
)

PROFILE_23 = ChannelProfile.from_sizes((2, 3))
DIST_A = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])
A_TREE, _ = replay_sequence(DIST_A, PROFILE_23, (2, 3))
A_BOOK = codebook_from_tree(A_TREE, PROFILE_23)

DIST_B = Distribution.from_masses(["1/6", "1/6", "1/6", "1/2"])
B_TREE, _ = replay_sequence(DIST_B, PROFILE_23, (3, 2))


class TestPrefixFree:
    def test_three_channel_example_is_prefix_free(self):
        cb = Codebook(words=(("0", "0", ""), ("1", "", "0"), ("", "1", "1")), sizes=(2, 2, 2))
        assert prefix_free(cb) is None

    def test_empty_components_collide(self):
        cb = Codebook(words=(("0", ""), ("", "0")), sizes=(2, 2))
        assert prefix_free(cb) == (0, 1)

    def test_same_channel_prefixes_collide(self):
        cb = Codebook(words=(("0", "0"), ("01", "01")), sizes=(2, 2))
        assert prefix_free(cb) == (0, 1)

    def test_tree_codebooks_pass(self):
        assert prefix_free(A_BOOK) is None


class TestEncode:
    def test_single_symbol(self):
        assert encode(A_BOOK, [2]) == ("", "0")

    def test_empty_sequence(self):
        assert encode(A_BOOK, []) == ("", "")

    def test_stream_lengths_add_up(self):
        streams = encode(A_BOOK, [0, 2])
        assert (len(streams[0]), len(streams[1])) == (1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"symbols\[1\]"):
            encode(A_BOOK, [0, 9])

    def test_rejects_degenerate_code(self):
        cb = Codebook(words=(("", ""),), sizes=(2, 3))
        with pytest.raises(DegenerateCodeError):
            encode(cb, [0])

    def test_lengths_exact_on_random_codes(self):
        rng = make_rng("codec-lengths")
        for _ in range(40):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 9))
            root, _ = random_tree(rng, dist, profile)
            cb = codebook_from_tree(root, profile)
            seq = [rng.randrange(dist.m) for _ in range(rng.randint(0, 40))]
            streams = encode(cb, seq)
            lts = cb.length_tuples()
            for i in range(profile.n):
                assert len(streams[i]) == sum(lts[s][i] for s in seq)


class TestDecode:
    def test_roundtrip_reference_code(self):
        rng = make_rng("codec-rt")
        seq = [rng.randrange(4) for _ in range(1000)]
        assert decode(A_TREE, encode(A_BOOK, seq)) == seq

    def test_codeword_with_empty_second_component(self):
        assert decode(B_TREE, ("0", "")) == [3]

    def test_truncation(self):
        with pytest.raises(TruncationError):
            decode(A_TREE, ("0", ""))

    def test_corruption_via_dummy_slot(self):
        dist = Distribution.from_masses(["1/2", "1/2"])
        profile = ChannelProfile.from_sizes((3, 4))
        root, steps = replay_sequence(dist, profile, (2,))
        assert steps[0].dummies == 1
        with pytest.raises(CorruptionError):
            decode(root, ("2", ""))

    def test_corruption_via_bad_digit(self):
        with pytest.raises(CorruptionError):
            decode(A_TREE, ("0", "9"))

    def test_count_and_trailing_data(self):
        streams = encode(A_BOOK, [0, 2, 3])
        assert decode(A_TREE, streams, count=3) == [0, 2, 3]
        with pytest.raises(TrailingDataError):
            decode(A_TREE, streams, count=2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            decode(A_TREE, encode(A_BOOK, [0, 2, 3]), count=-1)

    def test_rejects_negative_channel(self):
        # a negative index would read a stream counted from the end
        root = Internal(-1, (Leaf(0), Leaf(1)))
        with pytest.raises(ValueError, match=r"^tree reads negative channel -1$"):
            decode(root, ("", "01"))
        with pytest.raises(ValueError, match=r"^tree reads negative channel -1$"):
            _Reader(root, 2)
        assert outcome(walking_decode, root, ("", "01"), None) == outcome(decode, root, ("", "01"), None)

    def test_rejects_single_leaf_tree(self):
        with pytest.raises(DegenerateCodeError):
            decode(Leaf(0), ("", ""))

    def test_roundtrip_random_optimal_codes(self):
        rng = make_rng("codec-random")
        for _ in range(50):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 10))
            result = optimal_search(dist, profile)
            cb = codebook_from_tree(result.tree, profile)
            for _ in range(10):
                seq = [rng.randrange(dist.m) for _ in range(rng.randint(0, 60))]
                assert decode(result.tree, encode(cb, seq)) == seq


# digit lists render never writes; int() reads every token of the first ten
NONCANONICAL = ["+3", " 3", "3 ", "1_0", "07", "00", "-0", "\uff13", "1,+0", "1, 2", "1,", ",1", "1,,2"]
# reads channel 1 (q = 40) once: digits 0..2 are symbols 0..2, the rest padding
FORTY_TREE = Internal(1, (Leaf(0), Leaf(1), Leaf(2)) + (DummyLeaf(),) * 37)


class TestLargeAlphabetDigits:
    def test_parse_reads_what_render_writes(self):
        for values in [(0,), (39,), (10, 0, 39, 7)]:
            assert digits.parse(digits.render(values, 40), 40) == values
        assert decode(FORTY_TREE, ("", "0,1,2")) == [0, 1, 2]

    @pytest.mark.parametrize("text", NONCANONICAL)
    def test_parse_rejects_noncanonical_tokens(self, text):
        with pytest.raises(ValueError, match="invalid digit"):
            digits.parse(text, 40)
        with pytest.raises(ValueError):
            Codebook(words=(("", text),), sizes=(2, 40))

    @pytest.mark.parametrize("text", NONCANONICAL)
    def test_decode_reports_noncanonical_stream_as_corrupt(self, text):
        with pytest.raises(CorruptionError):
            decode(FORTY_TREE, ("", text))


# reads channel 0 (q = 2), then channel 1 (q = 3 or 40) after a 1; channel 2 is never read
def two_channel_tree(q: int) -> Internal:
    return Internal(0, (Leaf(0), Internal(1, (Leaf(1), Leaf(2)) + (DummyLeaf(),) * (q - 2))))


class TestNonStringStreams:
    """A stream that is not a str raises one TypeError, on a channel read or not, at every alphabet size."""

    @pytest.mark.parametrize("q", [3, 40])
    @pytest.mark.parametrize("bad", [None, 0, [], b"0"], ids=repr)
    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_decode_and_reader_raise_type_error(self, q, bad, channel):
        root = two_channel_tree(q)
        streams = ["0110", digits.render((0, 1), q), ""]  # symbols 0, 1, 2, 0
        assert decode(root, streams) == [0, 1, 2, 0]
        streams[channel] = bad
        message = f"a digit string must be a str, got {bad!r}"
        kept = _Reader(root, 3)
        for count in (None, 3):
            assert outcome(decode, root, tuple(streams), count) == (TypeError, message)
            assert outcome(lambda _, s, c: kept.read(s, c), root, tuple(streams), count) == (TypeError, message)


class TestDecodeOracle:
    def test_matches_walking_decoder_on_damaged_streams(self):
        rng = make_rng("decode-oracle")
        kinds = set()
        for _ in range(400):
            root, streams, count = damaged_case(rng)
            expected = outcome(walking_decode, root, streams, count)
            assert outcome(decode, root, streams, count) == expected, (streams, count)
            kinds.add(expected[0] if isinstance(expected, tuple) else list)
            if isinstance(expected, tuple) and "padding slot" in expected[1]:
                kinds.add("padding slot")
        assert kinds == {list, ValueError, TruncationError, CorruptionError, TrailingDataError, "padding slot"}

    def test_deep_caterpillar_tree(self):
        """Depth 1,199 on one binary channel: symbol j is j ones then a zero, the last 1,199 ones.

        All 1,200 symbols are decoded in one call, then every tenth in a call
        of its own. Tables made to the limit on every visited node would cost
        about 25 million entries over the short calls, so the time bound holds
        only while a call's entries stay within its digits.
        """
        m = 1200
        root = Leaf(m - 1)
        for j in range(m - 2, -1, -1):
            root = Internal(0, (Leaf(j), root))
        words = [("1" * j + "0",) for j in range(m - 1)] + [("1" * (m - 1),)]
        whole = ("".join(word for word, in words),)
        start = time.perf_counter()
        symbols = decode(root, whole)
        one_by_one = [decode(root, word) for word in words[::10]]
        elapsed = time.perf_counter() - start
        assert symbols == walking_decode(root, whole) == list(range(m))
        assert one_by_one == [walking_decode(root, word) for word in words[::10]] == [[j] for j in range(0, m, 10)]
        assert elapsed < 1.0
