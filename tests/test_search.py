import math
from fractions import Fraction
from pathlib import Path

import pytest

from mchuff import (
    ChannelProfile,
    Distribution,
    DummyLeaf,
    Internal,
    Leaf,
    build_single_huffman,
    codebook_from_tree,
    description_length,
    dummy_bound,
    entropy,
    expected_length,
    huffman_expected_length,
    optimal_search,
    pruned_search,
    replay_sequence,
)
from mchuff.search import merge_options, merge_prefixes

from helpers import (
    GEOMETRIC_1200,
    PROFILES,
    brute_force_merge_sequences,
    brute_force_oracle,
    enumerate_merge_sequences,
    make_rng,
    random_distribution,
    search_results_tsv,
)

PROFILE_23 = ChannelProfile.from_sizes((2, 3))
SEARCH_GOLDEN = Path(__file__).parent / "golden" / "search_results.tsv"


class TestEnumerateMergeSequences:
    def test_five_masses(self):
        assert enumerate_merge_sequences(5, PROFILE_23) == [
            (2, 2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3),
        ]

    def test_two_masses(self):
        assert enumerate_merge_sequences(2, PROFILE_23) == [(2,)]

    def test_rejects_single_mass(self):
        with pytest.raises(ValueError):
            enumerate_merge_sequences(1, PROFILE_23)

    def test_counts_follow_the_fibonacci_recurrence(self):
        counts = {m: len(enumerate_merge_sequences(m, PROFILE_23)) for m in range(2, 21)}
        assert counts[2] == 1 and counts[3] == 2
        for m in range(4, 21):
            assert counts[m] == counts[m - 1] + counts[m - 2]
        assert counts[10] == 55

    def test_drops_stuck_prefixes(self):
        profile = ChannelProfile.from_sizes((3, 4))
        # first-round merges cap at q_n = 4; prefixes stranding two masses
        # ((4,...) and (2,3,...)) have no continuation and are dropped
        seqs = enumerate_merge_sequences(5, profile)
        assert seqs == [(2, 4), (3, 3)]
        for seq in seqs:
            assert 5 - sum(k - 1 for k in seq) == 1


# (3, 4), (3, 5), (4,) and (4, 6) strand some mass counts; (2, 3) and (2, 3, 5) strand none
WALK_CHANNELS = [(3, 4), (3, 5), (4,), (4, 6), (2, 3), (2, 3, 5)]


class TestMergePrefixes:
    @pytest.mark.parametrize("sizes", WALK_CHANNELS)
    def test_walks_exactly_the_prefixes_of_the_sequences(self, sizes):
        profile = ChannelProfile.from_sizes(sizes)
        rng = make_rng(f"merge-prefixes-{sizes}")
        for m in range(2, 15):
            seqs = enumerate_merge_sequences(m, profile)
            walked = list(merge_prefixes(m, profile))
            prefixes = {seq[:t] for seq in seqs for t in range(1, len(seq) + 1)}
            assert [prefix for prefix, _ in walked] == sorted(prefixes)
            assert all(count == m - sum(k - 1 for k in prefix) for prefix, count in walked)
            if m <= 10:
                result, _ = pruned_search(random_distribution(rng, m), profile, "entropy")
                assert result.subproblem_count == len(prefixes)

    @pytest.mark.parametrize("sizes", WALK_CHANNELS)
    def test_sequences_match_brute_force(self, sizes):
        profile = ChannelProfile.from_sizes(sizes)
        for m in range(2, 15):
            assert enumerate_merge_sequences(m, profile) == brute_force_merge_sequences(m, profile)


class TestMergeOptions:
    @pytest.mark.parametrize("sizes", WALK_CHANNELS + [(2,), (3,)])
    def test_lists_exactly_the_merges_some_sequence_takes(self, sizes):
        profile = ChannelProfile.from_sizes(sizes)
        taken_later = set()
        for m in range(2, 15):
            seqs = brute_force_merge_sequences(m, profile)
            for seq in seqs:
                count = m - seq[0] + 1
                for k in seq[1:]:
                    taken_later.add((count, k))
                    count -= k - 1
            first, later = merge_options(m, profile)
            first_ks = sorted({seq[0] for seq in seqs})
            assert first == [(k, math.log(min(q for q in sizes if q >= k))) for k in first_ks]
            # a merge at count c < m is taken by some sequence of c + 1 masses that first merges 2
            assert len(later) == m
            assert [(c, k) for c in range(m) for k, _ in later[c]] == sorted(taken_later)
            assert all(ln_q == math.log(k) for options in later for k, ln_q in options)

    @pytest.mark.parametrize("sizes", WALK_CHANNELS)
    def test_subproblems_are_the_reduced_multisets(self, sizes):
        profile = ChannelProfile.from_sizes(sizes)
        rng = make_rng(f"optimal-subproblems-{sizes}")
        for m in range(2, 11):
            dist = random_distribution(rng, m)
            multisets = set()
            for prefix, count in merge_prefixes(m, profile):
                if count > 1:
                    items = list(dist.weights)
                    for k in prefix:
                        items = sorted(items[k:] + [sum(items[:k])])
                    multisets.add(tuple(items))
            assert optimal_search(dist, profile).subproblem_count == len(multisets)


class TestOptimalSearch:
    def test_entropy_achieving_example(self):
        dist = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])
        result = optimal_search(dist, PROFILE_23)
        assert result.expected_length == pytest.approx(1.32966134885, abs=1e-9)
        assert result.sequence == (2, 3)

    def test_benchmark_winner(self):
        dist = Distribution.from_masses(["0.13", "0.199", "0.212", "0.217", "0.242"])
        result = optimal_search(dist, PROFILE_23)
        assert result.sequence == (3, 2, 2)
        assert result.expected_length == pytest.approx(1.6056509846, abs=1e-9)
        assert result.subproblem_count > 0

    def test_two_masses(self):
        dist = Distribution.from_masses(["1/2", "1/2"])
        result = optimal_search(dist, PROFILE_23)
        assert result.sequence == (2,)
        assert result.expected_length == pytest.approx(math.log(2), abs=1e-12)

    def test_single_mass(self):
        result = optimal_search(Distribution.from_masses([1]), PROFILE_23)
        assert result.tree == Leaf(0)
        assert result.expected_length == 0.0

    def test_geometric_source_on_one_channel(self):
        # 1,199 merges deep: the sweep keeps one multiset per count and never recurses
        dist = Distribution.from_masses(GEOMETRIC_1200)
        result = optimal_search(dist, ChannelProfile.from_sizes((2,)))
        assert result.sequence == (2,) * 1199
        assert result.subproblem_count == 1198

    def test_matches_tree_expected_length(self):
        rng = make_rng("search-length")
        for _ in range(100):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(1, 12))
            result = optimal_search(dist, profile)
            assert result.expected_length == pytest.approx(
                expected_length(result.tree, dist), abs=1e-12
            )

    def test_single_channel_reproduces_huffman(self):
        rng = make_rng("search-single")
        for _ in range(60):
            q = rng.choice([2, 3, 4, 5])
            dist = random_distribution(rng, rng.randint(1, 10))
            result = optimal_search(dist, ChannelProfile.from_sizes((q,)))
            code = build_single_huffman(dist, q)
            assert result.expected_length == pytest.approx(code.expected_length, abs=1e-12)
            assert sorted(l for l in _leaf_depths(result.tree)) == sorted(code.lengths)
            assert result.sequence == code.merge_ks

    def test_shorter_words_carry_larger_masses(self):
        rng = make_rng("search-exchange")
        for _ in range(80):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 10))
            result = optimal_search(dist, profile)
            lts = codebook_from_tree(result.tree, profile).length_tuples()
            lengths = [description_length(lt, profile) for lt in lts]
            # masses ascend with the symbol index, so lengths must descend
            assert all(a >= b - 1e-9 for a, b in zip(lengths, lengths[1:]))

    def test_dummies_bounded_and_siblings(self):
        rng = make_rng("search-dummies")
        for _ in range(120):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 10))
            result = optimal_search(dist, profile)
            w = result.dummy_leaves
            assert 0 <= w < dummy_bound(profile)
            assert w == sum(s.dummies for s in result.steps)
            assert all(s.dummies == 0 for s in result.steps[1:])
            holders = _nodes_with_dummies(result.tree)
            assert len(holders) <= 1
            if holders:
                assert sum(isinstance(c, DummyLeaf) for c in holders[0].children) == w

    def test_entropy_and_single_channel_bounds(self):
        rng = make_rng("search-bounds")
        for _ in range(150):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(1, 12))
            result = optimal_search(dist, profile)
            h = entropy(dist)
            assert h - 1e-9 <= result.expected_length < h + math.log(profile.sizes[0])
            best_single = min(
                huffman_expected_length(dist.masses, q) for q in set(profile.sizes)
            )
            assert result.expected_length <= best_single + 1e-9


def _leaf_depths(root, depth=0):
    if isinstance(root, Leaf):
        return [depth]
    if isinstance(root, DummyLeaf):
        return []
    out = []
    for child in root.children:
        out.extend(_leaf_depths(child, depth + 1))
    return out


def _nodes_with_dummies(root):
    if not isinstance(root, Internal):
        return []
    out = []
    if any(isinstance(c, DummyLeaf) for c in root.children):
        out.append(root)
    for child in root.children:
        out.extend(_nodes_with_dummies(child))
    return out


def test_search_results_match_golden():
    """Sequences, length bits, work counts and trace tables are pinned (tests/golden/search_results.tsv)."""
    assert search_results_tsv() == SEARCH_GOLDEN.read_text()


class TestReplaySequence:
    def test_infeasible_sequences_rejected(self):
        dist = Distribution.from_masses(["1/4", "1/4", "1/2"])
        with pytest.raises(ValueError):
            replay_sequence(dist, PROFILE_23, (2,))
        with pytest.raises(ValueError):
            replay_sequence(dist, PROFILE_23, (3, 2))

    def test_merge_count_error_counts_both_queues(self):
        # after (2, 3) the original 6/10 and the merged 4/10 wait: two masses in all
        dist = Distribution.from_masses(["1/10"] * 4 + ["6/10"])
        with pytest.raises(ValueError, match=r"^step 2: cannot merge 3 of 2 masses$"):
            replay_sequence(dist, PROFILE_23, (2, 3, 3))

    def test_forced_class_allows_padded_single_channel(self):
        # the ternary code for four masses pads its first merge with one dummy
        dist = Distribution.from_masses(["1/8", "1/8", "1/4", "1/2"])
        root, steps = replay_sequence(dist, PROFILE_23, (2, 3), classes=(1, 1))
        assert steps[0].dummies == 1
        assert steps[1].dummies == 0
        assert all(n.class_index == 1 for n in _internals(root))

    def test_forced_class_rejects_late_padding(self):
        dist = Distribution.from_masses(["1/4", "1/4", "1/2"])
        with pytest.raises(ValueError, match="first round"):
            replay_sequence(dist, PROFILE_23, (2, 2), classes=(1, 1))

    @pytest.mark.parametrize("classes, bad", [((-1, 1), "-1"), ((True, 1), "True"), ((2, 0), "2")])
    def test_forced_class_outside_profile_is_refused(self, classes, bad):
        # -1 used to merge on the last channel, True on channel 1, and 2 raised IndexError
        dist = Distribution.from_masses(["1/8", "1/8", "1/4", "1/2"])
        with pytest.raises(ValueError, match=rf"^step 0: channel {bad} is not one of 0\.\.1$"):
            replay_sequence(dist, PROFILE_23, (2, 3), classes=classes)

    def test_forced_class_is_checked_before_any_merge(self):
        # step 0 asks for too many masses, but the bad class of step 1 is reported first
        dist = Distribution.from_masses(["1/4", "1/4", "1/2"])
        with pytest.raises(ValueError, match=r"^step 1: channel 1\.0 is not"):
            replay_sequence(dist, PROFILE_23, (4, 2), classes=(1, 1.0))


def _internals(root):
    if not isinstance(root, Internal):
        return []
    out = [root]
    for child in root.children:
        out.extend(_internals(child))
    return out


class TestBruteForceOracle:
    def test_reference_values(self):
        dist = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])
        assert brute_force_oracle(dist, PROFILE_23) == pytest.approx(1.32966134885, abs=1e-9)
        assert brute_force_oracle(Distribution.from_masses([1]), PROFILE_23) == 0.0
        bench = Distribution.from_masses(["0.13", "0.199", "0.212", "0.217", "0.242"])
        assert brute_force_oracle(bench, PROFILE_23) == pytest.approx(1.6056509846, abs=1e-9)

    def test_guard(self):
        dist = random_distribution(make_rng("oracle-guard"), 6)
        with pytest.raises(ValueError):
            brute_force_oracle(dist, PROFILE_23)

    def test_agrees_with_search_on_small_instances(self):
        rng = make_rng("oracle-small")
        for _ in range(40):
            profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
            dist = random_distribution(rng, rng.randint(2, 5))
            assert brute_force_oracle(dist, profile) == pytest.approx(
                optimal_search(dist, profile).expected_length, abs=1e-9
            )
