"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Randomized criteria are seeded through MCHUFF_SEED (default 0).
"""

import math
import time
from fractions import Fraction

import pytest

from mchuff import (
    METRICS,
    ChannelProfile,
    Codebook,
    CorruptionError,
    Distribution,
    TruncationError,
    build_single_huffman,
    codebook_from_tree,
    decode,
    encode,
    entropy,
    expected_length,
    huffman_expected_length,
    kraft_sum,
    local_redundancy,
    optimal_search,
    prefix_free,
    pruned_search,
    replay_sequence,
    suboptimal_build,
    tight_example,
    tree_from_codebook,
)

from helpers import (
    PROFILES,
    brute_force_oracle,
    enumerate_merge_sequences,
    make_rng,
    random_distribution,
    random_tree,
)
from expected_tables import BENCHMARK_CHANNELS, BENCHMARK_MASSES, TRACES, WINNERS

PROFILE_23 = ChannelProfile.from_sizes((2, 3))
BENCHMARK = Distribution.from_masses(BENCHMARK_MASSES)

TABLE_ONE = {
    ("1/6", "1/6", "1/3", "1/3"): (1.32966134885, 1.38629436112, 1.46481638489),
    ("1/6", "1/6", "1/6", "1/2"): (1.24245332489, 1.27076983103, 1.46481638489),
}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def bound_instances():
    """1000 random instances (m <= 12) shared by criteria 5 and 6."""
    rng = make_rng("acceptance-bounds")
    instances = []
    for trial in range(1000):
        profile = ChannelProfile.from_sizes(PROFILES[trial % len(PROFILES)])
        dist = random_distribution(rng, rng.randint(1, 12))
        instances.append((dist, profile))
    return instances


def test_criterion_1_table_one_reproduction():
    start = time.perf_counter()
    errors = []
    for masses, (multi, binary, ternary) in TABLE_ONE.items():
        dist = Distribution.from_masses(masses)
        got_multi = optimal_search(dist, PROFILE_23).expected_length
        got_bin = build_single_huffman(dist, 2).expected_length
        got_ter = build_single_huffman(dist, 3).expected_length
        for got, want in ((got_multi, multi), (got_bin, binary), (got_ter, ternary)):
            if abs(got - want) > 1e-9:
                errors.append((masses, got, want))
    elapsed = time.perf_counter() - start
    ok = not errors and elapsed < 1.0
    report(1, ok, f"six reference lengths within 1e-9 in {elapsed:.3f}s")
    assert not errors
    assert elapsed < 1.0


def test_criterion_2_benchmark_winner():
    result = optimal_search(BENCHMARK, PROFILE_23)
    ok = result.sequence == (3, 2, 2) and abs(result.expected_length - 1.6056509846) <= 1e-9
    report(2, ok, f"optimal merge sequence {result.sequence}, L={result.expected_length:.10f}")
    assert result.sequence == (3, 2, 2)
    assert result.expected_length == pytest.approx(1.6056509846, abs=1e-9)


def test_criterion_3_trace_tables():
    start = time.perf_counter()
    cell_errors = []
    winner_errors = []
    for metric in METRICS:
        _, trace = pruned_search(BENCHMARK, PROFILE_23, metric)
        for seq, cols in TRACES[metric].items():
            for count in (4, 3, 2, 1):
                got = trace.cell(seq, count)
                if count not in cols:
                    if got is not None:
                        cell_errors.append((metric, seq, count, "unexpected cell"))
                    continue
                want_value, want_flag = cols[count]
                if got is None or abs(got[0] - want_value) > 1e-9 or got[1] != want_flag:
                    cell_errors.append((metric, seq, count, got))
        if trace.winner != WINNERS[metric]:
            winner_errors.append((metric, trace.winner))
        if metric == "huffman_completion":
            if trace.winner != (3, 2, 2):
                winner_errors.append((metric, "should find the optimum"))
        elif trace.winner == (3, 2, 2):
            winner_errors.append((metric, "should not find the optimum"))
    elapsed = time.perf_counter() - start
    ok = not cell_errors and not winner_errors and elapsed < 1.0
    report(3, ok, f"all populated cells, flags and winners match in {elapsed:.3f}s")
    assert not cell_errors
    assert not winner_errors
    assert elapsed < 1.0


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = make_rng("acceptance-oracle")
    worst = 0.0
    for trial in range(200):
        profile = ChannelProfile.from_sizes(PROFILES[trial % len(PROFILES)])
        dist = random_distribution(rng, rng.randint(2, 5))
        a = optimal_search(dist, profile).expected_length
        b = brute_force_oracle(dist, profile, max_m=5)
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 300.0
    report(4, ok, f"200 instances, worst |search - oracle| = {worst:.2e} in {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 300.0


def test_criterion_5_bound_suite(bound_instances):
    failures = []
    for dist, profile in bound_instances:
        result = optimal_search(dist, profile)
        h = entropy(dist)
        if not (h - 1e-9 <= result.expected_length < h + math.log(profile.sizes[0])):
            failures.append("entropy bound")
        best_single = min(huffman_expected_length(dist.masses, q) for q in set(profile.sizes))
        if result.expected_length > best_single + 1e-9:
            failures.append("single-channel bound")
        rep = local_redundancy(result.tree, dist)
        if abs(result.expected_length - h - rep.total_redundancy) >= 1e-9:
            failures.append("redundancy identity")
        cb = codebook_from_tree(result.tree, profile)
        ks = kraft_sum(cb.length_tuples(), profile)
        if ks > 1 or (ks == 1) != (result.dummy_leaves == 0):
            failures.append("kraft accounting")
    report(5, not failures, f"1000 instances, {len(failures)} bound violations")
    assert not failures


def test_criterion_6_suboptimality_guarantee(bound_instances):
    violations = 0
    for dist, profile in bound_instances:
        sub = suboptimal_build(dist, profile)
        floor = min(huffman_expected_length(dist.masses, q) for q in set(profile.sizes))
        if sub.expected_length > floor + 1e-9:
            violations += 1
    report(6, violations == 0, f"1000 instances, {violations} guarantee violations")
    assert violations == 0


def test_criterion_7_tightness_trend():
    gaps = []
    for k in (10, 100, 1000):
        dist = tight_example(2, k)
        result = optimal_search(dist, PROFILE_23)
        gaps.append(entropy(dist) + math.log(2) - result.expected_length)
    ok = all(g > 0 for g in gaps) and gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.01
    report(7, ok, f"gaps to H + ln 2: {gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f} < 0.01")
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_criterion_8_merge_sequence_census():
    counts = {m: len(enumerate_merge_sequences(m, PROFILE_23)) for m in range(2, 21)}
    recurrence_ok = all(counts[m] == counts[m - 1] + counts[m - 2] for m in range(4, 21))
    five = enumerate_merge_sequences(5, PROFILE_23)
    five_ok = five == [(2, 2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3)]
    ok = recurrence_ok and counts[2] == 1 and counts[3] == 2 and five_ok
    report(8, ok, f"counts m=2..20 follow c(m)=c(m-1)+c(m-2); m=5 set of {len(five)} matches")
    assert recurrence_ok
    assert (counts[2], counts[3]) == (1, 2)
    assert five_ok


def test_criterion_9_structural_fixtures():
    example = Codebook(words=(("0", "0", ""), ("1", "", "0"), ("", "1", "1")), sizes=(2, 2, 2))
    try:
        tree_from_codebook(example)
    except ValueError as exc:
        refused = str(exc).startswith("code is not tree-decodable")
    else:
        refused = False
    example_ok = prefix_free(example) is None and refused

    rng = make_rng("acceptance-roundtrip")
    two_channel = [(2, 3), (2, 4), (3, 4), (2, 2), (3, 3)]
    mismatches = 0
    for trial in range(100):
        profile = ChannelProfile.from_sizes(two_channel[trial % len(two_channel)])
        dist = random_distribution(rng, rng.randint(2, 10))
        root, _ = random_tree(rng, dist, profile)
        cb = codebook_from_tree(root, profile)
        rebuilt = tree_from_codebook(cb)
        # identical words <=> identical length tuples <=> expected length
        # preserved exactly
        if codebook_from_tree(rebuilt, profile).words != cb.words:
            mismatches += 1
        elif abs(expected_length(rebuilt, dist) - expected_length(root, dist)) > 1e-12:
            mismatches += 1
    ok = example_ok and mismatches == 0
    report(9, ok, f"3-channel counterexample detected; {100 - mismatches}/100 roundtrips exact")
    assert example_ok
    assert mismatches == 0


def test_criterion_10_codec_roundtrip():
    rng = make_rng("acceptance-codec")
    sequences = 0
    for _ in range(100):
        profile = ChannelProfile.from_sizes(rng.choice(PROFILES))
        dist = random_distribution(rng, rng.randint(2, 10))
        result = optimal_search(dist, profile)
        cb = codebook_from_tree(result.tree, profile)
        for _ in range(100):
            seq = [rng.randrange(dist.m) for _ in range(rng.randint(0, 30))]
            assert decode(result.tree, encode(cb, seq)) == seq
            sequences += 1

    # error paths: truncation and corruption
    a_tree, _ = replay_sequence(
        Distribution.from_masses(["1/6", "1/6", "1/3", "1/3"]), PROFILE_23, (2, 3)
    )
    with pytest.raises(TruncationError):
        decode(a_tree, ("0", ""))
    dummy_dist = Distribution.from_masses(["1/2", "1/2"])
    dummy_tree, _ = replay_sequence(dummy_dist, ChannelProfile.from_sizes((3, 4)), (2,))
    with pytest.raises(CorruptionError):
        decode(dummy_tree, ("2", ""))

    report(10, True, f"{sequences} random sequences round-tripped; error paths raised")
    assert sequences == 10000
