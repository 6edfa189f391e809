import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from mchuff import (
    METRICS,
    ChannelProfile,
    Codebook,
    Distribution,
    DummyLeaf,
    Internal,
    Leaf,
    PrefixFreeViolation,
    codebook_from_tree,
    construct,
    decode,
    description_length,
    encode,
    entropy,
    expected_length,
    huffman_merge_sequence,
    kraft_sum,
    local_redundancy,
    map_classes,
    prefix_free,
    replay_sequence,
    tree_from_codebook,
    tree_from_obj,
    tree_to_obj,
    validate_tree,
)
from mchuff import digits
from mchuff.tree import leaf_codewords, redundancy_totals, tree_to_json

from helpers import (
    DECODE_CHANNELS,
    GEOMETRIC_1200,
    PROFILES,
    count_dummies,
    make_rng,
    random_distribution,
    random_shape_tree,
    random_tree,
    reference_codewords,
    tree_results_tsv,
)

TREE_GOLDEN = Path(__file__).parent / "golden" / "tree_results.tsv"

PROFILE_23 = ChannelProfile.from_sizes((2, 3))

# root reads the ternary channel; one branch reads the binary channel
TWO_SIXTHS_TREE = Internal(1, (Internal(0, (Leaf(0), Leaf(1))), Leaf(2), Leaf(3)))
DIST_A = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])

# root reads the binary channel; one branch reads the ternary channel
HALF_TREE = Internal(0, (Leaf(3), Internal(1, (Leaf(0), Leaf(1), Leaf(2)))))
DIST_B = Distribution.from_masses(["1/6", "1/6", "1/6", "1/2"])

EXAMPLE_THREE_CHANNEL = Codebook(
    words=(("0", "0", ""), ("1", "", "0"), ("", "1", "1")), sizes=(2, 2, 2)
)


class TestCodebook:
    def test_length_tuples_are_each_components_digit_count(self):
        """Counted a column at a time, as ``digits.length`` counts each component: empty ones and q > 36 too."""
        rng = make_rng("length-tuples")
        books = [
            Codebook(words=(("", "1,2,39"), ("01", ""), ("", ""), ("z", "0")), sizes=(36, 40)),
            Codebook(words=((), ()), sizes=()),
            Codebook(words=(), sizes=(2, 40)),
        ]
        for sizes in DECODE_CHANNELS:
            books.append(codebook_from_tree(random_shape_tree(rng, sizes, rng.randint(1, 40)), sizes))
        for cb in books:
            assert cb.length_tuples() == tuple(tuple(map(digits.length, word, cb.sizes)) for word in cb.words)

    def test_digits_are_parsed_once_and_not_compared(self):
        cb = Codebook(words=(("10", ""), ("", "0,39")), sizes=(2, 40))
        assert cb.length_tuples() == ((2, 0), (0, 2))
        assert cb == Codebook(words=(("10", ""), ("", "0,39")), sizes=(2, 40))

    @pytest.mark.parametrize("q", [2, 40])
    @pytest.mark.parametrize("bad", [0, None, False, (), [], ("0", "1"), 1])
    def test_components_must_be_strings(self, q, bad):
        # falsy ones once parsed as empty, and a tuple of digit characters as its digits
        with pytest.raises(TypeError, match=r"^a digit string must be a str, got "):
            Codebook(words=((bad, "1"), ("1", "0"), ("0", "1")), sizes=(q, 2))
        with pytest.raises(TypeError):
            digits.parse(bad, q)

    @pytest.mark.parametrize(
        "q, message",
        [
            (2.0, "must be an integer, got (2.0,)"),
            (2.5, "must be an integer, got (2.5,)"),
            (1.5, "must be at least 2"),
        ],
    )
    def test_sizes_must_be_ints_from_2(self, q, message):
        with pytest.raises(ValueError, match=r"^every channel alphabet size " + re.escape(message) + "$"):
            Codebook(words=(("0",), ("1",)), sizes=(q,))


class TestValidateTree:
    def test_reference_tree_is_valid(self):
        assert validate_tree(TWO_SIXTHS_TREE, PROFILE_23, 4) == []
        assert validate_tree(HALF_TREE, PROFILE_23, 4) == []

    def test_slot_count_breach(self):
        bad = Internal(0, (Leaf(0), Leaf(1), Leaf(2)))
        problems = validate_tree(bad, PROFILE_23, 3)
        assert any("child slots" in p for p in problems)

    def test_duplicate_symbol(self):
        bad = Internal(1, (Leaf(0), Leaf(2), Leaf(2)))
        problems = validate_tree(bad, PROFILE_23, 3)
        assert any("already placed" in p for p in problems)

    def test_all_dummy_subtree(self):
        bad = Internal(0, (Leaf(0), Internal(0, (DummyLeaf(), DummyLeaf()))))
        problems = validate_tree(bad, PROFILE_23, 1)
        assert any("non-dummy descendant" in p for p in problems)

    def test_missing_symbol(self):
        problems = validate_tree(TWO_SIXTHS_TREE, PROFILE_23, 5)
        assert any("missing" in p for p in problems)

    @pytest.mark.parametrize(
        "deep, middle, shallow, m, expected",
        [
            pytest.param(
                (Leaf(0), Leaf(1), Leaf(2)), Leaf(3), Leaf(4), 7,
                ["symbols missing from tree: [5, 6]"],
                id="missing-symbols",
            ),
            pytest.param(
                (Leaf(0), Leaf(1), Leaf(9)), Leaf(3), Leaf(4), 5,
                ["root.children[0].children[0].children[2]: symbol 9 out of range 0..4"],
                id="symbol-out-of-range",
            ),
            pytest.param(
                (Leaf(0), Leaf(1), Leaf(4)), Leaf(3), Leaf(4), 5,
                ["root.children[1]: symbol 4 already placed at root.children[0].children[0].children[2]"],
                id="duplicate-symbol",
            ),
            pytest.param(
                (Leaf(0), "leaf", Leaf(2)), Leaf(3), Leaf(4), 5,
                ["root.children[0].children[0].children[1]: unknown node type str"],
                id="unknown-node-type",
            ),
            pytest.param(
                (Leaf(0), Leaf(1)), Leaf(3), Leaf(4), 5,
                ["root.children[0].children[0]: class 1 needs exactly 3 child slots, has 2"],
                id="slot-count",
            ),
            pytest.param(
                (Leaf(0), Leaf(1), Leaf(2)),
                Internal(0, (DummyLeaf(), Internal(1, (DummyLeaf(),) * 4))),
                Leaf(4), 5,
                [
                    "root.children[0].children[1]: internal node has no non-dummy descendant",
                    "root.children[0].children[1].children[1]: class 1 needs exactly 3 child slots, has 4",
                    "root.children[0].children[1].children[1]: internal node has no non-dummy descendant",
                ],
                id="no-real-leaf-ahead-of-subtree",
            ),
            pytest.param(
                (Leaf(5), Leaf(1), Leaf(1), DummyLeaf()),
                Internal(7, (Leaf(9),)),
                Internal(0, (DummyLeaf(), ())),
                4,
                [
                    "root.children[0].children[0]: class 1 needs exactly 3 child slots, has 4",
                    "root.children[0].children[0].children[0]: symbol 5 out of range 0..3",
                    "root.children[0].children[0].children[2]: symbol 1 already placed at "
                    "root.children[0].children[0].children[1]",
                    "root.children[0].children[1]: class 7 out of range for 2 channels",
                    "root.children[1]: internal node has no non-dummy descendant",
                    "root.children[1].children[1]: unknown node type tuple",
                ],
                id="every-kind-in-walk-order",
            ),
        ],
    )
    def test_exact_messages_three_levels_deep(self, deep, middle, shallow, m, expected):
        # root (class 1) -> children[0] (class 0) -> children[0] (class 1) -> leaves
        root = Internal(1, (Internal(0, (Internal(1, deep), middle)), shallow, DummyLeaf()))
        assert validate_tree(root, PROFILE_23, m) == expected


class TestCodebookFromTree:
    def test_reference_length_tuples(self):
        cb = codebook_from_tree(TWO_SIXTHS_TREE, PROFILE_23)
        assert sorted(cb.length_tuples()) == [(0, 1), (0, 1), (1, 1), (1, 1)]
        cb2 = codebook_from_tree(HALF_TREE, PROFILE_23)
        assert sorted(cb2.length_tuples()) == [(1, 0), (1, 1), (1, 1), (1, 1)]

    def test_single_leaf(self):
        cb = codebook_from_tree(Leaf(0), PROFILE_23)
        assert cb.words == (("", ""),)

    def test_rejects_invalid_tree(self):
        with pytest.raises(ValueError):
            codebook_from_tree(Internal(0, (Leaf(0),)), PROFILE_23)

    def test_extracted_codebooks_are_prefix_free(self):
        rng = make_rng("tree-prefix")
        for _ in range(60):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 10))
            root, _ = random_tree(rng, dist, profile)
            cb = codebook_from_tree(root, profile)
            assert prefix_free(cb) is None


class TestCodewordWalk:
    @pytest.mark.parametrize("sizes", [(2, 40), (40, 3), (5, 2, 3), (2, 2, 3)])
    def test_codebook_matches_recursive_reference(self, sizes):
        rng = make_rng(f"codeword-walk-{sizes}")
        profile = ChannelProfile.from_sizes(sizes)
        padded = 0
        for _ in range(25):
            dist = random_distribution(rng, rng.randint(2, 60))
            root, steps = random_tree(rng, dist, profile)
            padded += steps[0].dummies > 0
            words, _ = reference_codewords(root, profile.sizes)
            assert codebook_from_tree(root, profile).words == tuple(words[j] for j in range(dist.m))
        # a first merge of k masses pads unless some alphabet has exactly k letters
        assert padded or set(sizes) >= set(range(2, max(sizes) + 1))

    def test_large_alphabet_digit_after_another_channel(self):
        # the 40-ary channel reads a digit, the binary one reads one, then the 40-ary one again
        pad = (DummyLeaf(),) * 38
        inner = Internal(1, (Leaf(0), Leaf(1)) + pad)
        root = Internal(1, (Internal(0, (inner, Leaf(2))), Leaf(3)) + pad)
        profile = ChannelProfile.from_sizes((2, 40))
        words, dummy_depths = reference_codewords(root, profile.sizes)
        expected = (("0", "0,0"), ("0", "0,1"), ("1", "0"), ("", "1"))
        assert tuple(words[j] for j in range(4)) == expected
        assert codebook_from_tree(root, profile).words == expected
        assert sorted(leaf_codewords(root, profile.sizes, 4)[2]) == sorted(dummy_depths)


class TestExpectedLength:
    def test_reference_values(self):
        assert expected_length(TWO_SIXTHS_TREE, DIST_A) == pytest.approx(1.32966134885, abs=1e-9)
        assert expected_length(HALF_TREE, DIST_B) == pytest.approx(1.24245332489, abs=1e-9)
        assert expected_length(Leaf(0), Distribution.from_masses([1])) == 0.0

    def test_node_sum_equals_codeword_sum(self):
        rng = make_rng("tree-length")
        for _ in range(200):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 12))
            root, _ = random_tree(rng, dist, profile)
            direct = sum(
                float(p) * description_length(lt, profile)
                for p, lt in zip(dist.masses, codebook_from_tree(root, profile).length_tuples())
            )
            assert expected_length(root, dist) == pytest.approx(direct, abs=1e-9)

    def test_symbol_mismatch(self):
        with pytest.raises(ValueError):
            expected_length(TWO_SIXTHS_TREE, Distribution.from_masses(["1/2", "1/2"]))


class TestLocalRedundancy:
    def test_entropy_achieving_tree_has_zero_redundancy(self):
        report = local_redundancy(TWO_SIXTHS_TREE, DIST_A)
        assert report.total_redundancy == pytest.approx(0.0, abs=1e-9)
        assert all(node.local_redundancy >= -1e-12 for node in report.nodes)

    def test_binary_huffman_on_benchmark(self):
        dist = Distribution.from_masses(["0.13", "0.199", "0.212", "0.217", "0.242"])
        root, _ = replay_sequence(dist, PROFILE_23, (2, 2, 2, 2))
        report = local_redundancy(root, dist)
        assert report.total_redundancy == pytest.approx(0.024088589, abs=1e-9)

    def test_dyadic_uniform_is_tight(self):
        dist = Distribution.from_masses([Fraction(1, 4)] * 4)
        root = Internal(0, (Internal(0, (Leaf(0), Leaf(1))), Internal(0, (Leaf(2), Leaf(3)))))
        report = local_redundancy(root, dist)
        assert report.total_redundancy == pytest.approx(0.0, abs=1e-12)

    def test_identities_on_random_trees(self):
        rng = make_rng("tree-red")
        for _ in range(300):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(1, 12))
            root, _ = random_tree(rng, dist, profile) if dist.m > 1 else (Leaf(0), ())
            report = local_redundancy(root, dist)
            s_h = sum(n.reaching_probability * n.branching_entropy for n in report.nodes)
            assert s_h == pytest.approx(entropy(dist), abs=1e-9)
            assert report.expected_length - report.entropy == pytest.approx(
                report.total_redundancy, abs=1e-9
            )
            assert all(n.local_redundancy >= -1e-12 for n in report.nodes)

    @pytest.mark.parametrize(
        "method, kwargs",
        [("optimal", {}), ("suboptimal", {}), *(("prune", {"metric": metric}) for metric in METRICS),
         ("single", {"channel": 0}), ("single", {"channel": 1})],
        ids=lambda x: x if isinstance(x, str) else ",".join(map(str, x.values())),
    )
    def test_totals_are_the_reports_bit_for_bit(self, method, kwargs):
        rng = make_rng(f"redundancy-totals:{method}")
        for _ in range(15):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 9))
            tree = construct(dist, profile, method, **kwargs).tree
            report = local_redundancy(tree, dist)
            totals = redundancy_totals(tree, dist)
            assert [x.hex() for x in totals] == [report.entropy.hex(), report.total_redundancy.hex()]

    def test_totals_make_the_reports_cross_check(self):
        """Weights that add up to 4/5 of their scale: the branching entropies miss the source entropy."""

        class Unchecked(Distribution):
            def __post_init__(self) -> None:
                pass

        dist = Unchecked(weights=(1, 1, 2), scale=5, input_order=(0, 1, 2))
        root = Internal(0, (Leaf(2), Internal(0, (Leaf(0), Leaf(1)))))
        with pytest.raises(ArithmeticError, match="^conditional branching entropies sum to ") as report:
            local_redundancy(root, dist)
        with pytest.raises(ArithmeticError) as totals:
            redundancy_totals(root, dist)
        assert str(totals.value) == str(report.value)

    def test_kraft_tracks_dummy_leaves_exactly(self):
        rng = make_rng("tree-kraft")
        for _ in range(100):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 10))
            root, _ = random_tree(rng, dist, profile)
            cb = codebook_from_tree(root, profile)
            total = kraft_sum(cb.length_tuples(), profile)
            dummy_terms = _dummy_kraft(root, profile.sizes)
            assert total + dummy_terms == 1
            assert (total == 1) == (count_dummies(root) == 0)


def _dummy_kraft(root, sizes, depths=None):
    if depths is None:
        depths = tuple(0 for _ in sizes)
    if isinstance(root, DummyLeaf):
        term = Fraction(1)
        for d, q in zip(depths, sizes):
            term /= Fraction(q) ** d
        return term
    if isinstance(root, Leaf):
        return Fraction(0)
    total = Fraction(0)
    for child in root.children:
        bumped = tuple(
            d + 1 if i == root.class_index else d for i, d in enumerate(depths)
        )
        total += _dummy_kraft(child, sizes, bumped)
    return total


NOT_TREE_DECODABLE = (
    "code is not tree-decodable (every channel has a codeword with an empty component); cannot decode"
)


class TestNecessaryTreeCheck:
    """A decoding tree's root reads a channel that is non-empty in every codeword."""

    def test_three_channel_counterexample(self):
        assert prefix_free(EXAMPLE_THREE_CHANNEL) is None
        with pytest.raises(ValueError, match=f"^{re.escape(NOT_TREE_DECODABLE)}$"):
            tree_from_codebook(EXAMPLE_THREE_CHANNEL)

    def test_half_tree_codebook(self):
        cb = codebook_from_tree(HALF_TREE, PROFILE_23)
        assert tree_from_codebook(cb).class_index == 0

    def test_contains_root_class(self):
        rng = make_rng("tree-necessary")
        for _ in range(40):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 9))
            root, _ = random_tree(rng, dist, profile)
            cb = codebook_from_tree(root, profile)
            # the rebuilt root reads the lowest such channel
            lowest = min(c for c in range(profile.n) if all(word[c] for word in cb.words))
            assert tree_from_codebook(cb).class_index == lowest <= root.class_index


class TestTreeFromCodebook:
    def test_recursion_structure(self):
        cb = Codebook(words=(("0", "0"), ("1", "0"), ("1", "1")), sizes=(2, 2))
        root = tree_from_codebook(cb)
        assert isinstance(root, Internal) and root.class_index == 0
        branch = root.children[1]
        assert isinstance(branch, Internal) and branch.class_index == 1

    def test_single_codeword_becomes_leaf(self):
        # the leaf sits where the word's digits run out, padding beside it
        cb = Codebook(words=(("01", ""),), sizes=(2, 2))
        assert tree_from_codebook(cb) == Internal(0, (Internal(0, (DummyLeaf(), Leaf(0))), DummyLeaf()))
        assert tree_from_codebook(Codebook(words=(("", ""),), sizes=(2, 2))) == Leaf(0)

    def test_word_alone_with_digits_left_is_read_to_its_end(self):
        cb = Codebook(words=(("00", ""), ("1", "")), sizes=(2, 2))
        root = tree_from_codebook(cb)
        assert root == Internal(0, (Internal(0, (Leaf(0), DummyLeaf())), Leaf(1)))
        assert decode(root, encode(cb, [0, 1])) == [0, 1]

    def test_not_prefix_free_reports_pair(self):
        cb = Codebook(words=(("0", ""), ("", "0")), sizes=(2, 2))
        with pytest.raises(PrefixFreeViolation) as err:
            tree_from_codebook(cb)
        assert err.value.pair == (0, 1)

    def test_three_channels(self):
        with pytest.raises(ValueError, match=f"^{re.escape(NOT_TREE_DECODABLE)}$") as err:
            tree_from_codebook(EXAMPLE_THREE_CHANNEL)
        assert not isinstance(err.value, PrefixFreeViolation)
        profile = ChannelProfile.from_sizes((2, 3, 5))
        root = construct(Distribution.from_masses(["1/10"] * 10), profile, "suboptimal").tree
        cb = codebook_from_tree(root, profile)
        assert codebook_from_tree(tree_from_codebook(cb), profile).words == cb.words

    def test_roundtrip_preserves_tree_codebooks(self):
        rng = make_rng("tree-roundtrip")
        two_channel = [(2, 3), (2, 4), (3, 4), (2, 2), (3, 3)]
        for _ in range(60):
            profile = ChannelProfile.from_sizes(rng.choice(two_channel))
            dist = random_distribution(rng, rng.randint(1, 10))
            root, _ = random_tree(rng, dist, profile) if dist.m > 1 else (Leaf(0), ())
            cb = codebook_from_tree(root, profile)
            rebuilt = tree_from_codebook(cb)
            # identical words mean identical length tuples, hence the
            # expected length is preserved exactly
            assert codebook_from_tree(rebuilt, profile).words == cb.words
            assert expected_length(rebuilt, dist) == pytest.approx(
                expected_length(root, dist), abs=1e-12
            )


class TestSerialization:
    def test_roundtrip(self):
        rng = make_rng("tree-json")
        for _ in range(30):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 10))
            root, _ = random_tree(rng, dist, profile)
            assert tree_from_obj(tree_to_obj(root)) == root

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            tree_from_obj({"leaf": 1})
        with pytest.raises(ValueError):
            tree_from_obj({"class": 0, "children": []})
        with pytest.raises(ValueError):
            tree_from_obj([1, 2])

    @pytest.mark.parametrize("obj", [
        {"symbol": 0, "dummy": True},
        {"symbol": 0, "junk": 1},
        {"dummy": True, "class": 0},
        {"class": 0, "children": [{"symbol": 0}, {"symbol": 1}], "junk": 1},
        {"class": 0, "children": [{"symbol": 0}, {"symbol": 1}], "symbol": 2},
    ])
    def test_rejects_extra_keys(self, obj):
        with pytest.raises(ValueError, match=f"^unrecognized tree node object with keys {re.escape(str(sorted(obj)))}$"):
            tree_from_obj(obj)

    @pytest.mark.parametrize("flag", [1, "no", [0], False, None])
    def test_dummy_flag_is_true_only(self, flag):
        assert tree_from_obj({"dummy": True}) == DummyLeaf()
        with pytest.raises(ValueError, match=r"^unrecognized tree node object with keys \['dummy'\]$"):
            tree_from_obj({"dummy": flag})


def test_tree_json_on_deep_trees():
    """At depth 400 the writer matches ``json.dumps``; at depth 1199, past its recursion, it still returns."""
    masses = [Fraction(1, 2**j) for j in range(1, 401)]
    dist = Distribution.from_masses(masses + masses[-1:])
    profile = ChannelProfile.from_sizes((3, 2))
    root, _ = replay_sequence(dist, profile, (2,) * 400)
    user_root = map_classes(root, profile.user_order)
    expected = json.dumps({"channels": [3, 2], "root": tree_to_obj(user_root)}, indent=2, sort_keys=True)
    assert tree_to_json(root, profile.user_sizes, profile.user_order) == expected

    deep = Distribution.from_masses(GEOMETRIC_1200)
    root, _ = replay_sequence(deep, ChannelProfile.from_sizes((2,)), huffman_merge_sequence(1200, 2))
    text = tree_to_json(root, (2,), (0,))
    assert text.count('"symbol": ') == 1200
    assert text.count('"class": 0') == 1199
    deepest = "  " * (2 * 1199 + 2) + '"symbol": '
    assert text.count("\n" + deepest) == 2


def test_tree_results_match_golden():
    """Tree analyses, Kraft sums and Huffman codes are pinned (tests/golden/tree_results.tsv)."""
    assert tree_results_tsv() == TREE_GOLDEN.read_text()


def test_deep_tree_passes():
    """Geometric masses 1/2, ..., 1/2**449, 1/2**449 give a binary tree 449 levels deep.

    Codebooks are compared rather than trees, because dataclass ``==``
    recurses through the whole tree.
    """
    masses = [Fraction(1, 2**j) for j in range(1, 450)]
    dist = Distribution.from_masses(masses + masses[-1:])
    profile = ChannelProfile.from_sizes((3, 2))
    result = construct(dist, profile, "single", channel=1)
    assert validate_tree(result.tree, profile, dist.m) == []
    book = codebook_from_tree(result.tree, profile)
    assert max(len(word[0]) for word in book.words) == 449
    assert local_redundancy(result.tree, dist).expected_length == result.expected_length
    user_root = tree_from_obj(tree_to_obj(map_classes(result.tree, profile.user_order)))
    assert codebook_from_tree(map_classes(user_root, profile.canonical_index), profile) == book
    symbols = list(range(dist.m)) * 2
    assert decode(result.tree, encode(book, symbols)) == symbols
