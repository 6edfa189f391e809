import math
from fractions import Fraction

import pytest

from mchuff import (
    METRICS,
    ChannelProfile,
    Distribution,
    construct,
    entropy,
    huffman_expected_length,
    optimal_search,
    pruned_search,
    suboptimal_build,
)
from mchuff import heuristics
from mchuff.search import merge_options, merge_prefixes, merge_smallest

import helpers
from helpers import (
    GEOMETRIC_1200,
    ORACLE_CHANNELS,
    PROFILES,
    ZIPF_256,
    enumerating_pruned_search,
    make_rng,
    random_distribution,
)
from expected_tables import (
    BENCHMARK_CHANNELS,
    BENCHMARK_MASSES,
    FINAL_LENGTHS,
    SURVIVORS,
    TRACES,
    WINNERS,
)

PROFILE = ChannelProfile.from_sizes(BENCHMARK_CHANNELS)
BENCHMARK = Distribution.from_masses(BENCHMARK_MASSES)


def uniform(m):
    """m equal masses."""
    return Distribution.from_masses([Fraction(1, m)] * m)


def two_valued(m):
    """m masses, the first m // 2 of weight 1 and the rest of weight 2."""
    weights = [1] * (m // 2) + [2] * (m - m // 2)
    return Distribution.from_masses([Fraction(w, sum(weights)) for w in weights])


def first_merge_value(metric, sequence, count):
    """The metric after the first merge of ``sequence``, which leaves ``count`` masses."""
    value, _ = pruned_search(BENCHMARK, PROFILE, metric)[1].cell(sequence, count)
    return value


class TestMetricValue:
    def test_values_after_first_merges(self):
        assert first_merge_value("expected_length", (2, 2, 2, 2), 4) == pytest.approx(
            0.2280454224, abs=1e-9
        )
        assert first_merge_value("expected_length", (3, 2, 2), 3) == pytest.approx(
            0.5943492482, abs=1e-9
        )
        assert first_merge_value("huffman_completion", (2, 2, 2, 2), 4) == pytest.approx(
            1.6143397835, abs=1e-9
        )

    def test_entropy_and_sum_metrics(self):
        ent = first_merge_value("entropy", (2, 2, 2, 2), 4)
        assert ent == pytest.approx(1.3694953333, abs=1e-9)
        assert first_merge_value("expected_plus_entropy", (2, 2, 2, 2), 4) == pytest.approx(
            first_merge_value("expected_length", (2, 2, 2, 2), 4) + ent, abs=1e-12
        )

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric 'vibes'"):
            pruned_search(BENCHMARK, PROFILE, "vibes")


class TestPrunedSearchOnBenchmark:
    @pytest.mark.parametrize("metric", METRICS)
    def test_trace_matches_frozen_cells(self, metric):
        _, trace = pruned_search(BENCHMARK, PROFILE, metric)
        expected = TRACES[metric]
        assert set(trace.sequences) == set(expected)
        assert trace.counts == (4, 3, 2, 1)
        for seq, cols in expected.items():
            for count in trace.counts:
                got = trace.cell(seq, count)
                if count not in cols:
                    assert got is None, (metric, seq, count)
                    continue
                want_value, want_flag = cols[count]
                assert got is not None, (metric, seq, count)
                assert got[0] == pytest.approx(want_value, abs=1e-9), (metric, seq, count)
                assert got[1] == want_flag, (metric, seq, count)

    @pytest.mark.parametrize("metric", METRICS)
    def test_winner_and_survivors(self, metric):
        result, trace = pruned_search(BENCHMARK, PROFILE, metric)
        assert trace.winner == WINNERS[metric]
        assert trace.survivors == SURVIVORS[metric]
        assert result.sequence == WINNERS[metric]
        assert result.expected_length == pytest.approx(FINAL_LENGTHS[metric], abs=1e-9)

    def test_only_completion_metric_finds_the_optimum(self):
        best = optimal_search(BENCHMARK, PROFILE).sequence
        assert best == (3, 2, 2)
        for metric in METRICS:
            winner = pruned_search(BENCHMARK, PROFILE, metric)[1].winner
            if metric == "huffman_completion":
                assert winner == best
            else:
                assert winner != best

    def test_tsv_layout(self):
        _, trace = pruned_search(BENCHMARK, PROFILE, "redundancy")
        lines = trace.to_tsv().splitlines()
        assert lines[0] == "merge sequence\t4\t3\t2\t1"
        assert lines[1].startswith("(2,2,2,2)\t0.0072895611\t0.0073186993\t")
        assert lines[1].endswith("*")  # pruned cells carry a star
        row = dict(zip(("label", "4", "3", "2", "1"), lines[2].split("\t")))
        assert row["label"] == "(2,2,3)" and row["2"] == ""

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pruned_search(BENCHMARK, PROFILE, "nope")
        with pytest.raises(ValueError):
            pruned_search(Distribution.from_masses([1]), PROFILE, "redundancy")


class TestPrunedSearchProperties:
    def test_never_beats_exhaustive_search(self):
        rng = make_rng("heur-vs-opt")
        for trial in range(500):
            profile = ChannelProfile.from_sizes(PROFILES[trial % len(PROFILES)])
            dist = random_distribution(rng, rng.randint(2, 8))
            best = optimal_search(dist, profile).expected_length
            metric = METRICS[trial % len(METRICS)]
            pruned = pruned_search(dist, profile, metric)[0].expected_length
            assert best <= pruned + 1e-9

    def test_redundancy_never_below_zero(self):
        # merging 1/13 with 1/13 on a binary channel achieves the entropy: its local
        # redundancy is exactly 0, and its float, -5.55e-17, must not reach the trace
        dist = Distribution.from_masses(["1/13", "1/13", "2/13", "2/13", "3/13", "4/13"])
        _, trace = pruned_search(dist, ChannelProfile.from_sizes((2, 2, 3)), "redundancy")
        assert [trace.cell((2, 2, 2, 2, 2), c)[0] for c in (5, 4)] == [0.0, 0.0]
        assert all(math.copysign(1.0, v) == 1.0 for row in trace.rows for v in row)
        assert "-0.0000000000" not in trace.to_tsv()

    @pytest.mark.parametrize("metric", ["redundancy", "expected_length"])
    def test_masses_below_float_range(self, metric):
        # the last masses are 2**-1199, whose floats round to 0.0
        dist = Distribution.from_masses(GEOMETRIC_1200)
        result, _ = pruned_search(dist, ChannelProfile.from_sizes((2,)), metric)
        assert result.sequence == (2,) * 1199


class TestAgainstEnumeratingOracle:
    """The count-by-count sweep against the depth-first enumeration it replaced."""

    CHANNELS = ORACLE_CHANNELS

    @staticmethod
    def assert_same(dist, profile, metric):
        result, trace = pruned_search(dist, profile, metric)
        want, want_trace = enumerating_pruned_search(dist, profile, metric)
        case = (profile.user_sizes, dist.masses, metric)
        assert result.sequence == want.sequence, case
        assert result.steps == want.steps, case
        assert result.expected_length.hex() == want.expected_length.hex(), case
        assert result.subproblem_count == want.subproblem_count, case
        assert trace.sequences == want_trace.sequences, case
        assert trace.survivors == want_trace.survivors, case
        assert trace.winner == want_trace.winner, case
        assert trace.pruned_at == want_trace.pruned_at, case
        # hex tells -0.0 from 0.0, which == on the values does not
        hexes = [[v.hex() for v in row] for row in trace.rows]
        assert hexes == [[v.hex() for v in row] for row in want_trace.rows], case
        assert trace.to_tsv() == want_trace.to_tsv(), case

    def test_random_sources(self):
        rng = make_rng("pruned-oracle")
        # 45 = 9 channel lists x 5 metrics, every pair once; weights alternate 1..4 (ties) and 1..10^6
        for trial in range(45):
            profile = ChannelProfile.from_sizes(self.CHANNELS[trial % len(self.CHANNELS)])
            top = 4 if trial % 2 else 10**6
            weights = [rng.randint(1, top) for _ in range(rng.randint(2, 13))]
            dist = Distribution.from_masses([Fraction(w, sum(weights)) for w in weights])
            self.assert_same(dist, profile, METRICS[trial % len(METRICS)])

    def test_geometric_source(self):
        masses = [Fraction(1, 2**j) for j in range(1, 300)] + [Fraction(1, 2**299)]
        dist = Distribution.from_masses(masses)
        for metric in METRICS:
            self.assert_same(dist, ChannelProfile.from_sizes((2,)), metric)

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 3, 5), (3, 4)])
    def test_tie_saturated_sources(self, sizes):
        # many prefixes leave each multiset here, so their shared children are reused most
        profile = ChannelProfile.from_sizes(sizes)
        for m in range(10, 14):
            for dist in (uniform(m), two_valued(m)):
                for metric in METRICS:
                    self.assert_same(dist, profile, metric)

    def test_oracle_scores_apart(self):
        # the oracle scores with its own code, so a fault in the package's term/step split shows
        assert heuristics._scorer not in vars(helpers).values()
        for oracle in (helpers.enumerating_pruned_search, helpers.reference_scorer):
            assert "_scorer" not in oracle.__code__.co_names


class TestSharedChildren:
    """``pruned_search`` merges and scores once per (count, parent multiset, merge), not per prefix."""

    @staticmethod
    def distinct_merges(dist, profile) -> int:
        """How many distinct (count, parent multiset, merge) the merge-sequence prefixes make."""
        left = {(): dist.weights}
        merges = set()
        for prefix, _ in merge_prefixes(dist.m, profile):
            parent, k = left[prefix[:-1]], prefix[-1]
            rest = list(parent)
            merge_smallest(rest, k, sum(parent[:k]))
            left[prefix] = tuple(rest)
            merges.add((len(parent), parent, k))
        return len(merges)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dist", [uniform(12), two_valued(12)], ids=["uniform", "two-valued"])
    def test_terms_once_per_parent_multiset(self, monkeypatch, dist, metric):
        (result, _), terms, steps = TestScoredOnce.scored(
            monkeypatch, lambda: pruned_search(dist, PROFILE, metric)
        )
        assert terms == self.distinct_merges(dist, PROFILE) < steps == result.subproblem_count
        TestAgainstEnumeratingOracle.assert_same(dist, PROFILE, metric)


class TestPrefixCap:
    def test_count_matches_the_walk(self):
        rng = make_rng("prefix-count")
        for trial in range(60):
            profile = ChannelProfile.from_sizes(PROFILES[trial % len(PROFILES)])
            dist = random_distribution(rng, rng.randint(2, 14))
            counted = heuristics.prefix_count(*merge_options(dist.m, profile))
            assert counted == pruned_search(dist, profile, "redundancy")[0].subproblem_count

    def test_known_counts(self):
        profile = ChannelProfile.from_sizes((2, 3))
        counts = {m: heuristics.prefix_count(*merge_options(m, profile)) for m in (20, 24, 28)}
        assert counts == {20: 17_709, 24: 121_391, 28: 832_038}

    def test_refuses_above_the_cap(self, monkeypatch):
        dist = Distribution.from_masses(["1/10"] * 10)
        total = heuristics.prefix_count(*merge_options(10, PROFILE))
        monkeypatch.setattr(heuristics, "MAX_PREFIXES", total)
        assert pruned_search(dist, PROFILE, "entropy")[0].subproblem_count == total
        monkeypatch.setattr(heuristics, "MAX_PREFIXES", total - 1)
        with pytest.raises(ValueError, match=f"more than {total - 1:,}"):
            pruned_search(dist, PROFILE, "entropy")

    def test_geometric_source_on_two_channels(self):
        dist = Distribution.from_masses(GEOMETRIC_1200)
        with pytest.raises(ValueError, match=r"7\.\d\de\+250 merge-sequence prefixes"):
            pruned_search(dist, PROFILE, "huffman_completion")
        # the sweep behind suboptimal_build walks no prefixes, so the cap does not apply to it
        assert len(suboptimal_build(dist, PROFILE).steps) == 1199


class TestSuboptimalBuild:
    def test_benchmark_beats_binary_huffman(self):
        result = suboptimal_build(BENCHMARK, PROFILE)
        assert result.sequence == (3, 2, 2)
        assert result.expected_length == pytest.approx(1.6056509846, abs=1e-9)
        assert result.expected_length <= 1.6143397835

    def test_entropy_achieving_source(self):
        dist = Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"])
        result = suboptimal_build(dist, PROFILE)
        assert result.expected_length == pytest.approx(1.32966134885, abs=1e-9)

    def test_two_masses(self):
        dist = Distribution.from_masses(["1/2", "1/2"])
        result = suboptimal_build(dist, PROFILE)
        assert result.expected_length == pytest.approx(0.6931471806, abs=1e-9)

    def test_single_mass(self):
        result = suboptimal_build(Distribution.from_masses([1]), PROFILE)
        assert result.expected_length == 0.0

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 3, 5)])
    def test_zipf_source_at_256_masses(self, sizes):
        profile = ChannelProfile.from_sizes(sizes)
        dist = Distribution.from_masses(ZIPF_256)
        length = suboptimal_build(dist, profile).expected_length
        single = min(huffman_expected_length(dist.masses, q) for q in sizes)
        assert entropy(dist) <= length <= single
        if sizes == (2, 3):
            assert length < single - 1e-3

    def test_never_worse_than_single_channel(self):
        rng = make_rng("heur-guarantee")
        for trial in range(300):
            profile = ChannelProfile.from_sizes(PROFILES[trial % len(PROFILES)])
            dist = random_distribution(rng, rng.randint(2, 10))
            result = suboptimal_build(dist, profile)
            floor = min(huffman_expected_length(dist.masses, q) for q in set(profile.sizes))
            assert result.expected_length <= floor + 1e-9


class TestScoredOnce:
    """The sweep scores each multiset it keeps once, when its count is reached."""

    @staticmethod
    def scored(monkeypatch, build) -> tuple:
        """``build()``'s result and how often the metric's terms and steps it made were called."""
        terms, steps = [], []
        make_scorer = heuristics._scorer

        def counting_scorer(*args):
            term, step = make_scorer(*args)

            def counted_term(*term_args):
                terms.append(term_args)
                return term(*term_args)

            def counted_step(*step_args):
                steps.append(step_args)
                return step(*step_args)

            return counted_term, counted_step

        monkeypatch.setattr(heuristics, "_scorer", counting_scorer)
        return build(), len(terms), len(steps)

    def test_geometric_source_on_two_channels(self, monkeypatch):
        dist = Distribution.from_masses(GEOMETRIC_1200)
        result, terms, steps = self.scored(monkeypatch, lambda: suboptimal_build(dist, PROFILE))
        assert terms == steps == result.subproblem_count == 1198

    def test_random_sources(self, monkeypatch):
        rng = make_rng("scored-once")
        for trial in range(90):
            profile = ChannelProfile.from_sizes(ORACLE_CHANNELS[trial % len(ORACLE_CHANNELS)])
            dist = random_distribution(rng, rng.randint(2, 12))
            metric = METRICS[trial % len(METRICS)]
            result, terms, steps = self.scored(
                monkeypatch, lambda: construct(dist, profile, "prune", metric=metric)
            )
            assert terms == steps == result.subproblem_count, (profile.sizes, dist.masses, metric)


class TestConstruct:
    @staticmethod
    def assert_prune_matches(dist, profile):
        """``construct``'s ``"prune"`` and ``pruned_search`` agree to the bit under every metric."""
        for metric in METRICS:
            # subproblem_count differs: the sweep counts multisets, pruned_search prefixes
            got = construct(dist, profile, "prune", metric=metric)
            want = pruned_search(dist, profile, metric)[0]
            case = (profile.user_sizes, dist.masses, metric)
            assert got.sequence == want.sequence, case
            assert got.steps == want.steps, case
            assert got.expected_length.hex() == want.expected_length.hex(), case

    def test_dispatches_each_method(self):
        assert construct(BENCHMARK, PROFILE, "optimal") == optimal_search(BENCHMARK, PROFILE)
        assert construct(BENCHMARK, PROFILE, "suboptimal") == suboptimal_build(BENCHMARK, PROFILE)
        self.assert_prune_matches(BENCHMARK, PROFILE)

    def test_prune_matches_pruned_search(self):
        rng = make_rng("prune-vs-pruned")
        # 36 = 9 channel lists x 2 mass kinds, twice; weights 1..3 (ties) or 1..10^6
        for trial in range(36):
            profile = ChannelProfile.from_sizes(ORACLE_CHANNELS[trial % len(ORACLE_CHANNELS)])
            top = 3 if trial // len(ORACLE_CHANNELS) % 2 else 10**6
            weights = [rng.randint(1, top) for _ in range(rng.randint(2, 12))]
            self.assert_prune_matches(
                Distribution.from_masses([Fraction(w, sum(weights)) for w in weights]), profile
            )

    def test_single_reads_channel_in_caller_order(self):
        profile = ChannelProfile.from_sizes((3, 2))
        result = construct(BENCHMARK, profile, "single", channel=0)
        assert {step.class_index for step in result.steps} == {1}
        assert result.expected_length == pytest.approx(
            huffman_expected_length(BENCHMARK.masses, 3), abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="method"):
            construct(BENCHMARK, PROFILE, "best")
        with pytest.raises(ValueError, match="metric"):
            construct(BENCHMARK, PROFILE, "prune", metric="vibes")
        with pytest.raises(ValueError, match="channel"):
            construct(BENCHMARK, PROFILE, "single", channel=2)

    @pytest.mark.parametrize("channel", [True, 1.0])
    def test_single_channel_must_be_a_plain_int(self, channel):
        # True used to build on channel 1, and 1.0 raised TypeError
        with pytest.raises(ValueError, match=rf"^channel must index into channels, got {channel!r}$"):
            construct(BENCHMARK, PROFILE, "single", channel=channel)
