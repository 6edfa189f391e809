"""Property tests over random rational sources and channel lists.

Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import copy
import functools
import io
import itertools
import json
import math
import operator
import tempfile
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mchuff import (
    METRICS,
    NATS_EPS,
    ChannelProfile,
    Codebook,
    CodecError,
    Distribution,
    MultiChannelHuffmanCoder,
    build_single_huffman,
    codebook_from_tree,
    construct,
    decode,
    encode,
    entropy,
    huffman_expected_length,
    kraft_sum,
    map_classes,
    optimal_search,
    pruned_search,
    replay_sequence,
    suboptimal_build,
    tree_from_codebook,
    tree_from_obj,
    tree_to_obj,
)
from mchuff import digits
from mchuff.cli import _codebook_json, _json_text
from mchuff.cli import main as cli_main
from mchuff.codec import _Reader
from mchuff.huffman import code_length_nats, huffman_lengths, huffman_merged_total
from mchuff.search import merge_options
from mchuff.tree import _read_tree, count_leaves, tree_to_json, validate_tree

from helpers import (
    DAMAGES,
    DECODE_CHANNELS,
    GOLDEN_SEARCH_CHANNELS,
    ORACLE_CHANNELS,
    damaged_code,
    damaged_streams,
    dummy_length_tuples,
    eager_codebook_check,
    falling_merges,
    fraction_from_masses,
    heap_merged_total,
    insort_huffman_lengths,
    insort_replay_sequence,
    make_rng,
    memo_optimal_search,
    outcome,
    pattern_parse,
    random_sequence,
    random_shape_tree,
    random_tree,
    recursive_tree_from_obj,
    reference_codewords,
    walking_decode,
    walking_encode,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)
# for properties whose examples each build a tree and write, parse or dump it
TREE_IO_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=40)

# each mass is a random rational share; normalizing makes the denominators differ
shares = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)
normalized = st.lists(shares, min_size=1, max_size=10).map(lambda xs: [x / sum(xs) for x in xs])
sources = normalized.map(Distribution.from_masses)
# masses written to 12 decimals miss a total of 1 by under 10**-9, so many are rescaled
rounded_sources = normalized.map(
    lambda ps: Distribution.from_masses([f"{float(p):.12f}" for p in ps])
)
profiles = st.sampled_from(GOLDEN_SEARCH_CHANNELS).map(ChannelProfile.from_sizes)


# comma-separated decimal tokens, some with a sign, space, underscore, leading zero or
# full-width digit, and strings of base-36 characters
decimal_tokens = st.one_of(
    st.integers(0, 39).map(str), st.text(alphabet="0123456789+- _\uff13", min_size=1, max_size=3)
)
digit_texts = st.one_of(
    st.lists(decimal_tokens, min_size=1, max_size=4).map(",".join),
    st.text(alphabet="0123456789az,", max_size=8),
)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.sampled_from([2, 10, 36, 37, 40, 1000]), digit_texts)
def test_accepted_digit_texts_render_back(q, text):
    try:
        values = digits.parse(text, q)
    except ValueError:
        return
    assert digits.render(values, q) == text


def parse_outcome(parse, text: str, q: int):
    try:
        return parse(text, q)
    except ValueError as exc:
        return str(exc)


@settings(PROPERTY_SETTINGS, max_examples=300)
@example(",1", 40)
@example("1,", 40)
@example("01", 40)
@example("1,,2", 40)
@example(" 1", 40)
@example("1,\n", 40)
@example("1,٣", 40)
@example("²", 40)
@example("３", 40)
@given(st.text(alphabet="0123456789,+- _|٣²３", max_size=14), st.sampled_from([37, 40, 1000]))
def test_decimal_lists_checked_as_the_single_pattern(text, q):
    """parse and all_valid give the verdicts and messages they gave with one regular expression."""
    assert parse_outcome(digits.parse, text, q) == parse_outcome(pattern_parse, text, q)
    texts = text.split("|")
    assert digits.all_valid(texts, q) == all(
        not isinstance(parse_outcome(pattern_parse, t, q), str) for t in texts
    )


# alphabet sizes on both sides of the switch from base-36 letters to decimal lists
DIGIT_FORM_SIZES = [2, 3, 36, 37, 40]


@st.composite
def digit_columns(draw) -> tuple[int, list[tuple[int, ...]]]:
    """An alphabet size and a column of digit tuples, some of them empty."""
    q = draw(st.sampled_from(DIGIT_FORM_SIZES))
    return q, draw(st.lists(st.lists(st.integers(0, q - 1), max_size=4).map(tuple), max_size=6))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(digit_columns())
def test_digit_forms_agree_with_render_parse_and_length(column):
    """join, lengths, labels and to_letters say what render, parse and length say."""
    q, values = column
    texts = [digits.render(v, q) for v in values]
    assert digits.join(texts, q) == digits.render([d for v in values for d in v], q)
    assert list(digits.lengths(texts, q)) == [digits.length(t, q) for t in texts]
    letters, letter_value, tokens = digits.alphabet(q)
    assert len(letters) == len(letter_value) == q
    if q > 36:
        assert tokens == {digits.render((d,), q): letters[d] for d in range(q)}
    first, later = digits.labels(q)
    for text, v in zip(texts, values):
        assert tuple(letter_value[c] for c in digits.to_letters(text, q)) == digits.parse(text, q) == v
        for d in (0, q - 1):
            assert text + (later if text else first)[d] == digits.render(v + (d,), q)


# components a codebook check must reject: decimal lists that render never writes, characters
# outside every alphabet and non-strings
REJECTED_COMPONENTS = (",1", "1,", "01", "1,,2", " 1", "+1", "1_0", "\uff13", "A", "0,", 0, 10)


def faulty_components(q: int):
    """Components a q-ary channel may reject, among them digits q and up after a valid one."""
    past = st.integers(q, q + 2).map(lambda v: f"0,{v}" if q > 36 else digits.render((0, min(v, 35)), 36))
    return st.one_of(st.sampled_from(REJECTED_COMPONENTS), digit_texts, past)


def result_or_error(f, *args):
    """``(None, f(*args))``, or the type and message of the exception it raises."""
    try:
        return None, f(*args)
    except Exception as exc:  # noqa: BLE001 - every exception must match parse's
        return type(exc), str(exc)


@settings(PROPERTY_SETTINGS, max_examples=300)
@example(None, 3)
@example(0, 40)
@example([], 40)
@example(b"0", 3)
@example("", 40)
@example("1,,2", 40)
@example("40", 40)
@example("2", 2)
@given(st.one_of(digit_texts, st.sampled_from(REJECTED_COMPONENTS), st.sampled_from([None, [], b"0"])),
       st.sampled_from(DIGIT_FORM_SIZES))
def test_to_letters_fails_as_parse_fails(text, q):
    """On what parse accepts, to_letters gives a letter per digit; on anything else, parse's exception."""
    kind, expected = result_or_error(digits.parse, text, q)
    got = result_or_error(digits.to_letters, text, q)
    if kind is None:
        assert got[0] is None and tuple(map(digits.alphabet(q).values.__getitem__, got[1])) == expected
    else:
        assert got == (kind, expected)


@st.composite
def codebook_inputs(draw) -> tuple[tuple, tuple[int, ...]]:
    """Words and alphabet sizes; about half of the books have a fault somewhere."""
    sizes = tuple(draw(st.lists(st.sampled_from((2, 3, 10, 36, 37, 40, 1000)), min_size=1, max_size=3)))
    if draw(st.integers(0, 9)) == 0:
        sizes = tuple(draw(st.permutations(sizes + (draw(st.sampled_from((0, 1))),))))
    valid = [st.lists(st.integers(0, max(q, 2) - 1), max_size=5).map(
        lambda vs, q=q: digits.render(vs, max(q, 2))) for q in sizes]
    words = [[draw(v) for v in valid] for _ in range(draw(st.integers(0, 6)))]
    if words and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            word = draw(st.sampled_from(words))
            i, kind = draw(st.integers(0, len(sizes) - 1)), draw(st.integers(0, 9))
            if kind == 0:
                word.append("")
            elif kind == 1:
                del word[i:]
            elif i < len(word):
                word[i] = draw(faulty_components(sizes[i]))
    return tuple(map(tuple, words)), sizes


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(codebook_inputs())
def test_codebook_checks_as_the_eager_loop(book):
    """Both accept, or both raise the same exception; an accepted book parses as the loop did."""
    words, sizes = book
    try:
        parsed = eager_codebook_check(words, sizes)
    except (TypeError, ValueError) as expected:
        with pytest.raises(type(expected)) as raised:
            Codebook(words=words, sizes=sizes)
        assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))
        return
    cb = Codebook(words=words, sizes=sizes)
    assert cb.length_tuples() == tuple(tuple(map(len, word)) for word in parsed)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(
    st.integers(1, 600),
    st.sampled_from((4, 10**6)),
    st.sampled_from((2, 3, 5, 36, 37, 40, 64)),
    st.randoms(use_true_random=False),
)
def test_huffman_lengths_are_the_codes(m, top, q, rng):
    """Tie-heavy (weights 1..4) and fine (1..10**6) masses; most q need padding for some m."""
    weights = [rng.randint(1, top) for _ in range(m)]
    dist = Distribution.from_masses([Fraction(w, sum(weights)) for w in weights])
    code = build_single_huffman(dist, q)
    lengths = huffman_lengths(dist, q)
    assert tuple(lengths) == code.lengths
    assert code_length_nats(dist, lengths, q).hex() == code.expected_length.hex()


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.integers(2, 64), st.lists(st.integers(2, 16), min_size=1, max_size=4))
def test_every_source_has_an_admissible_first_merge(m, sizes):
    # the first round can pad: some k in 2..min(q, m) leaves a count q-ary merges finish
    first, _ = merge_options(m, ChannelProfile.from_sizes(sizes))
    assert first


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


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# ways to write a mass p/q: most keep its value, the float and decimal ones up to rounding;
# the two Arabic-Indic ones and p // q do not
mass_styles = st.sampled_from([
    lambda p, q: f"{p}/{q}",
    lambda p, q: f" {p}/{q}\n",
    lambda p, q: f"+{p}/{q}",
    lambda p, q: f"{p} / {q}",
    lambda p, q: f"00{p}/00{q}",
    lambda p, q: f"{p}_0/{q}0",
    lambda p, q: f"{p * 3}/{q * 3}",
    lambda p, q: f"{p}/{q}".translate(ARABIC_INDIC),
    lambda p, q: f"{p}/{q}".translate(ARABIC_INDIC)[:1] + f"{p}/{q}"[1:],
    lambda p, q: f"{p / q:.12f}",
    lambda p, q: f"{p / q:.6e}",
    lambda p, q: Fraction(p, q),
    lambda p, q: p // q,
    lambda p, q: p / q,
    lambda p, q: Decimal(p) / Decimal(q),
])
# masses that Fraction refuses or reads as non-positive, or that take its slow path
odd_masses = st.one_of(
    st.sampled_from(["0/5", "1/0", "-1/2", "1/-2", "1.0/2", "1e0/2", "/", "1/2/3", "", " ", "½", "٣/4",
                     "1 / 2", "1_000/3", "1__0/3", "0.25", "-0", "1e-3", "2E-1", "9e999", "inf", "nan",
                     "0x1/2", "00/1", "1/00", "0/0"]),
    st.text(alphabet="0123456789/._+-eE ٣", max_size=6),
    st.sampled_from([Fraction(0), Fraction(-1, 2), Fraction(3, 4), 0, -3, 1, 2, True, False, 0.0, -0.5,
                     0.25, math.nan, math.inf, Decimal(0), Decimal(-1), Decimal("0.25"), Decimal("NaN"),
                     None, [1]]),
)


def mass_outcome(parse):
    """What a parse gives: the distribution's fields, or the text of the ValueError it raises."""
    try:
        dist = parse()
    except ValueError as exc:
        return str(exc)
    return dist.weights, dist.scale, dist.input_order, dist.rescaled


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(normalized, st.data())
def test_mass_strings_read_as_fraction_reads_them(masses, data):
    """from_masses reads every kind of mass as the one-Fraction-per-mass reading did."""
    values = [data.draw(mass_styles)(p.numerator, p.denominator) for p in masses]
    for _ in range(data.draw(st.integers(0, 2))):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(odd_masses)
    reference = mass_outcome(lambda: fraction_from_masses(values))
    assert mass_outcome(lambda: Distribution.from_masses(values)) == reference


@PROPERTY_SETTINGS
@given(normalized.flatmap(lambda ps: st.tuples(st.just(ps), st.lists(st.integers(1, 6), min_size=len(ps),
                                                                     max_size=len(ps)))))
def test_unreduced_mass_strings_read_in_lowest_terms(masses_and_factors):
    """A "p/q" string with a common factor gives the weights and scale of its reduced form."""
    masses, factors = masses_and_factors
    strings = [f"{p.numerator * k}/{p.denominator * k}" for p, k in zip(masses, factors)]
    assert mass_outcome(lambda: Distribution.from_masses(strings)) == mass_outcome(
        lambda: fraction_from_masses(strings)
    ) == mass_outcome(lambda: Distribution.from_masses(masses))


def replay_outcome(replay):
    """What a replay gives: its tree and steps, or the text of the ValueError it raises."""
    try:
        return replay()
    except ValueError as exc:
        return str(exc)


def test_replay_matches_insort_oracle():
    """Trees, steps and error texts, on tie-heavy and fine masses, with and without forced channels.

    Some sequences are damaged (a round dropped, added or changed), so the
    errors are met with merged entries still waiting, and some rounds merge
    a sum below that of an earlier merge still waiting.
    """
    falls = []

    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(
        st.integers(1, 40),
        st.sampled_from((4, 10**6)),
        st.sampled_from(ORACLE_CHANNELS),
        st.booleans(),
        st.sampled_from(("none", "none", "none", "drop", "add", "change")),
        st.randoms(use_true_random=False),
    )
    def check(m, top, sizes, forced, damage, rng):
        weights = [rng.randint(1, top) for _ in range(m)]
        total = sum(weights)
        dist = Distribution.from_masses([Fraction(w, total) for w in weights])
        profile = ChannelProfile.from_sizes(sizes)
        sequence = list(random_sequence(rng, m, profile)) if m > 1 else []
        if damage == "drop" and sequence:
            del sequence[rng.randrange(len(sequence))]
        elif damage == "add":
            sequence.insert(rng.randint(0, len(sequence)), rng.choice(profile.sizes))
        elif damage == "change" and sequence:
            sequence[rng.randrange(len(sequence))] = rng.randint(1, 6)
        classes = None
        if forced:
            fits = [[c for c, q in enumerate(profile.sizes) if q == k or t == 0 and q > k]
                    for t, k in enumerate(sequence)]
            classes = [rng.choice(cs) if cs else rng.randrange(profile.n) for cs in fits]
        assert replay_outcome(lambda: replay_sequence(dist, profile, sequence, classes)) == replay_outcome(
            lambda: insort_replay_sequence(dist, profile, sequence, classes)
        )
        if damage == "none":
            falls.append(falling_merges(dist.weights, sequence))

    check()
    assert any(falls)


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(
    st.integers(1, 16_384),
    st.sampled_from((2, 3, 5, 40)),
    st.sampled_from((10, 1000, 10**6)),
    st.sampled_from((0.8, 1.0, 1.5)),
)
@example(16_384, 2, 1000, 1.0)
@example(16_384, 40, 10**6, 0.8)
def test_huffman_lengths_match_insort_oracle(m, q, top, s):
    """Zipf counts max(1, round(top / j**s)): the tail of a large alphabet ties at small counts."""
    counts = [max(1, round(top / j**s)) for j in range(1, m + 1)]
    total = sum(counts)
    dist = Distribution.from_masses([Fraction(c, total) for c in counts])
    assert huffman_lengths(dist, q) == insort_huffman_lengths(dist, q)


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


# 2..13 masses whose weights are 1..4 (many ties) or 1..10**6
searched_sources = st.sampled_from((4, 10**6)).flatmap(
    lambda top: st.lists(st.integers(1, top), min_size=2, max_size=13)
).map(lambda ws: Distribution.from_masses([Fraction(w, sum(ws)) for w in ws]))


@pytest.mark.parametrize("sizes", ORACLE_CHANNELS, ids=lambda sizes: ",".join(map(str, sizes)))
@settings(PROPERTY_SETTINGS, max_examples=25)
@given(searched_sources)
def test_optimal_search_is_the_memo(sizes, dist):
    profile = ChannelProfile.from_sizes(sizes)
    got, want = optimal_search(dist, profile), memo_optimal_search(dist, profile)
    assert got.sequence == want.sequence
    assert got.steps == want.steps
    assert got.expected_length.hex() == want.expected_length.hex()
    assert got.subproblem_count == want.subproblem_count


@pytest.mark.parametrize("sizes", ORACLE_CHANNELS, ids=lambda sizes: ",".join(map(str, sizes)))
@settings(PROPERTY_SETTINGS, max_examples=25)
@given(searched_sources)
def test_sweep_reaches_the_pruned_winner(sizes, dist):
    profile = ChannelProfile.from_sizes(sizes)
    for metric in METRICS:
        want, _ = pruned_search(dist, profile, metric)
        built = [construct(dist, profile, "prune", metric=metric)]
        if metric == "huffman_completion":
            built.append(suboptimal_build(dist, profile))
        for got in built:
            assert got.sequence == want.sequence, metric
            assert got.steps == want.steps, metric
            assert got.expected_length.hex() == want.expected_length.hex(), metric


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(searched_sources, st.sampled_from(ORACLE_CHANNELS))
def test_trace_rows_read_as_cells(dist, sizes):
    profile = ChannelProfile.from_sizes(sizes)
    for metric in METRICS:
        _, trace = pruned_search(dist, profile, metric)
        # sorted distinct sequences, each with its row of one value per merge and its pruning count
        assert list(trace.sequences) == sorted(set(trace.sequences))
        assert len(trace.rows) == len(trace.pruned_at) == len(trace.sequences)
        assert all(len(row) == len(seq) for seq, row in zip(trace.sequences, trace.rows))
        assert trace.survivors == tuple(
            seq for seq, died in zip(trace.sequences, trace.pruned_at) if died is None
        )
        assert all(died is None or died in trace.counts for died in trace.pruned_at)
        for seq, row, died in zip(trace.sequences, trace.rows, trace.pruned_at):
            # the counts its prefixes leave, counted down from m, each with the value after it
            left = itertools.accumulate((k - 1 for k in seq), operator.sub, initial=dist.m)
            want = {c: (v, died is not None and c <= died) for c, v in zip(list(left)[1:], row)}
            for c in trace.counts:
                assert trace.cell(seq, c) == want.get(c), (metric, seq, c)
            assert trace.cell(list(seq), 1) == want[1]
        # a sequence the table lacks, before or after every row, has no cells
        assert trace.cell((), 1) is None
        assert trace.cell((dist.m + 1,), 1) is None
        if metric == "redundancy":  # a sum of nonnegative local redundancies, not even -0.0
            assert all(math.copysign(1.0, v) == 1.0 for row in trace.rows for v in row)


@PROPERTY_SETTINGS
@given(sources.filter(lambda dist: dist.m > 1), profiles, st.randoms(use_true_random=False))
def test_kraft_sum_with_dummies_is_one(dist, profile, rng):
    root, _ = random_tree(rng, dist, profile)
    lengths = codebook_from_tree(root, profile).length_tuples()
    assert kraft_sum(lengths + tuple(dummy_length_tuples(root, profile.n)), profile) == 1


# caller's channel orders, three channels or more, or one of 40 letters
REBUILT_CHANNELS = ((2, 3, 5), (3, 2, 5), (3, 4, 7), (2, 2, 3), (3, 40), (2, 40, 3))


@PROPERTY_SETTINGS
@given(
    st.sampled_from(REBUILT_CHANNELS).map(ChannelProfile.from_sizes),
    st.sampled_from(("optimal", "suboptimal", "single")),
    searched_sources.filter(lambda dist: dist.m <= 12),
    st.randoms(use_true_random=False),
)
def test_codebook_rebuilds_a_tree_that_decodes_as_the_built_one(profile, method, dist, rng):
    """A built code's codebook, in the caller's channel order as codebook.json holds it."""
    channel = rng.randrange(profile.n) if method == "single" else 0
    root = map_classes(construct(dist, profile, method, channel=channel).tree, profile.user_order)
    cb = codebook_from_tree(root, profile.user_sizes)
    rebuilt = tree_from_codebook(cb)
    assert codebook_from_tree(rebuilt, cb.sizes).words == cb.words
    symbols = [rng.randrange(dist.m) for _ in range(rng.randint(0, 40))]
    streams = encode(cb, symbols)
    assert decode(rebuilt, streams) == decode(root, streams) == symbols


# caller's channel orders, out of order too; q = 40 writes comma-separated digits
WRITER_CHANNELS = ((40, 2), (5, 2, 3), (3, 2), (2, 40), (40,))


@TREE_IO_SETTINGS
@given(
    st.sampled_from(WRITER_CHANNELS).map(ChannelProfile.from_sizes),
    st.integers(2, 401),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_tree_json_matches_json_dumps(profile, m, geometric, rng):
    """Doubling weights merge into a chain, one level per merge; small counts leave many ties."""
    weights = [2**j for j in range(m)] if geometric else [rng.randint(1, 4) for _ in range(m)]
    dist = Distribution.from_masses([Fraction(w, sum(weights)) for w in weights])
    root, _ = random_tree(rng, dist, profile)
    user_root = map_classes(root, profile.user_order)
    expected = json.dumps(
        {"channels": list(profile.user_sizes), "root": tree_to_obj(user_root)}, indent=2, sort_keys=True
    )
    assert tree_to_json(root, profile.user_sizes, profile.user_order) == expected


@PROPERTY_SETTINGS
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.integers(2, 40), min_size=n, max_size=n),
        st.lists(st.lists(st.text(max_size=4), min_size=n, max_size=n), min_size=1, max_size=30),
    )),
    st.randoms(use_true_random=False),
)
def test_codebook_json_matches_json_dumps(channels_and_words, rng):
    """Any strings, escapes and non-ASCII characters included, not only digit strings."""
    channels, words = channels_and_words
    input_index = rng.sample(range(len(words)), len(words))
    expected = json.dumps(
        {"channels": channels, "words": words, "input_index": input_index}, indent=2, sort_keys=True
    )
    assert _codebook_json(channels, words, input_index) == expected


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))


@PROPERTY_SETTINGS
@given(st.dictionaries(st.text(max_size=6), json_scalars | st.lists(json_scalars, max_size=5), min_size=1, max_size=8))
def test_flat_json_text_matches_json_dumps(obj):
    """Any non-empty flat object: empty arrays, escapes, non-ASCII text, NaN and infinities too."""
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


CODEC_CHANNELS = ((2,), (2, 3), (2, 40), (5, 2, 3))
# digits of every alphabet, the separator of large ones, and characters no alphabet has
digit_strings = st.one_of(
    st.text(alphabet="0123456789az,- Z", max_size=30),
    st.lists(st.integers(-2, 45), max_size=12).map(lambda ds: ",".join(map(str, ds))),
)


@TREE_IO_SETTINGS
@given(
    sources.filter(lambda dist: dist.m > 1),
    st.sampled_from(CODEC_CHANNELS).map(ChannelProfile.from_sizes),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_decode_raises_only_codec_errors(dist, profile, rng, data):
    root, _ = random_tree(rng, dist, profile)
    streams = data.draw(st.tuples(*(digit_strings for _ in profile.sizes)))
    count = data.draw(st.none() | st.integers(0, 12))
    try:
        symbols = decode(root, streams, count=count)
    except CodecError:
        return
    assert all(0 <= s < dist.m for s in symbols)


# a kept reader is made for its tree's number of streams, so none goes missing
KEPT_DAMAGES = tuple(how for how in DAMAGES if how != "missing")


@pytest.mark.parametrize("sizes", DECODE_CHANNELS)
@settings(PROPERTY_SETTINGS, max_examples=3)
@given(st.integers(0, 2**32))
def test_kept_reader_is_the_walking_decoder(sizes, seed):
    """Many reads through one reader: damaged streams with and without count, each followed by a clean read.

    Every read must give what a fresh walk gives: the symbols, or the
    exception's type and message. From the reader's second read on, reads
    without count go through the root window, so the clean reads, made
    without count, also check the runs it records.
    """
    rng = make_rng(f"kept-reader:{seed}")  # thousands of draws: too many for hypothesis to make
    _, root, words = damaged_code(rng, sizes)
    reader = _Reader(root, len(sizes))

    def kept(root, streams, count):
        return reader.read(streams, count)

    for _ in range(10):
        streams, count = damaged_streams(rng, root, sizes, words, KEPT_DAMAGES)
        assert outcome(kept, root, streams, count) == outcome(walking_decode, root, streams, count)
        clean, _ = damaged_streams(rng, root, sizes, words, ("none",))
        assert outcome(kept, root, clean, None) == outcome(walking_decode, root, clean, None)


def test_kept_reader_on_a_three_channel_zipf_code():
    """A (2,3,5) suboptimal code on Zipf text: 500-symbol chunks through one coder, each as ``decode`` reads it.

    Its codewords read a third channel right after digits inside the root
    window, so a window run that held such a codeword would misplace the
    next one and raise on a clean chunk.
    """
    rng = make_rng("kept-reader-zipf")
    text = rng.choices(range(64), weights=[1 / j**1.1 for j in range(1, 65)], k=50_000)
    coder = MultiChannelHuffmanCoder((2, 3, 5), method="suboptimal").fit(text)
    canonical = coder.profile_.user_order
    for start in range(0, len(text), 500):
        chunk = text[start:start + 500]
        streams = coder.transform(chunk)
        assert coder.inverse_transform(streams) == chunk
        indices = decode(coder.tree_, [streams[u] for u in canonical])
        assert [coder.classes_[j] for j in indices] == chunk


# symbols of several types, none equal to another (1 == True == 1.0 would merge)
SYMBOL_POOL = ("a", "b", "é", "", 0, 7, -3, 2**70, 2.5, None, (1, "a"), (), frozenset({4}), b"x", "0", "7")


@pytest.mark.parametrize("channels", ((2, 3), (3, 2, 5), (2, 40)))
@pytest.mark.parametrize("method", ("optimal", "suboptimal", "single"))
@settings(PROPERTY_SETTINGS, max_examples=4)
@given(st.integers(0, 2**32))
def test_estimator_is_the_walking_codec(channels, method, seed):
    """``transform`` and ``inverse_transform`` on chunks fed twice, so the second pass reads through the root window.

    The streams are the walking encoder's on the symbols' indices, in the
    caller's channel order, and the symbols decode as the walking decoder's
    indices named by ``classes_``. Damaged streams raise what the estimator
    raised before it read symbols: the type and message of a reader that
    returns indices, labelled with the caller's channels.
    """
    rng = make_rng(f"estimator-codec:{seed}")
    m = rng.randint(2, 9 if method == "optimal" else 60)
    labels = rng.sample(SYMBOL_POOL, min(m, len(SYMBOL_POOL))) + [f"s{j}" for j in range(m - len(SYMBOL_POOL))]
    coder = MultiChannelHuffmanCoder(channels, method=method).fit(
        {sym: rng.randint(1, 30) for sym in labels}
    )
    classes, profile = coder.classes_, coder.profile_
    index = {sym: j for j, sym in enumerate(classes)}

    def canonical(streams):
        return tuple(streams[u] for u in profile.user_order)

    def caller(streams):
        return tuple(streams[c] for c in profile.canonical_index)

    text = rng.choices(labels, weights=[1 / j**1.1 for j in range(1, m + 1)], k=rng.randint(0, 3000))
    cuts = sorted(rng.sample(range(len(text) + 1), min(6, len(text) + 1)))
    chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    for chunk in chunks * 2:
        streams = coder.transform(chunk)
        assert streams == caller(walking_encode(coder.codebook_, [index[sym] for sym in chunk]))
        decoded = coder.inverse_transform(streams)
        assert decoded == [classes[j] for j in walking_decode(coder.tree_, canonical(streams))] == chunk

    words, _ = reference_codewords(coder.tree_, profile.sizes)

    def estimator(root, streams, count):
        return coder.inverse_transform(caller(streams))

    def index_reader(root, streams, count):
        return [classes[j] for j in _Reader(root, profile.n, profile.user_order).read(streams)]

    for _ in range(6):
        streams, _ = damaged_streams(rng, coder.tree_, profile.sizes, words, KEPT_DAMAGES)
        assert outcome(estimator, coder.tree_, streams, None) == outcome(index_reader, coder.tree_, streams, None)


# three channels, and a q > 36 channel that some words leave empty
ENCODE_CHANNELS = ((2, 2, 3), (2, 3, 5), (2, 40), (2, 3, 40))


class Symbol(IntEnum):
    FIRST = 0
    SECOND = 1


# symbols encode must walk to judge: rejected ones ("m" stands for the codebook's size)
# and an int subclass it accepts whenever the code has two or more words
ODD_SYMBOLS = (True, -1, "m", 2**70, 1.0, "1", None, Symbol.SECOND)


@st.composite
def encode_inputs(draw):
    """A codebook, tree-built or of random words (none at all, some empty), and its symbols."""
    sizes = draw(st.sampled_from(ENCODE_CHANNELS))
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        cb = codebook_from_tree(random_shape_tree(rng, sizes, draw(st.integers(2, 12))), sizes)
    else:
        component = [
            st.lists(st.integers(0, q - 1), max_size=3).map(lambda vs, q=q: digits.render(vs, q))
            for q in sizes
        ]
        cb = Codebook(words=tuple(draw(st.lists(st.tuples(*component), max_size=8))), sizes=sizes)
    symbols = draw(st.lists(st.integers(0, cb.m - 1), max_size=40)) if cb.m else []
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from(ODD_SYMBOLS))
        symbols.insert(draw(st.integers(0, len(symbols))), cb.m if odd == "m" else odd)
    return cb, symbols, draw(st.sampled_from((list, tuple, iter)))


def encode_outcome(encoder, cb, symbols, form):
    try:
        return encoder(cb, form(symbols))
    except (ValueError, CodecError) as exc:
        return type(exc), str(exc)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(encode_inputs())
def test_encode_is_the_walking_encoder(case):
    """Same streams byte for byte, or the same exception type and message, for lists and generators."""
    cb, symbols, form = case
    assert encode_outcome(encode, cb, symbols, form) == encode_outcome(walking_encode, cb, symbols, form)


TREE_MUTATIONS = (
    "not-an-object", "symbol-type", "class-type", "children-type", "missing-key",
    "bad-class", "child-count", "bad-symbol", "channels", "extra-key",
)


def break_tree_file(doc: dict, how: str, rng) -> None:
    """Change one part of a tree.json document so that it no longer describes a valid tree."""
    nodes = []  # (node, its parent's children list or None for the root, index there)
    stack = [(doc["root"], None, 0)]
    while stack:
        node, parent, slot = stack.pop()
        nodes.append((node, parent, slot))
        stack.extend((child, node["children"], i) for i, child in enumerate(node.get("children", ())))
    leaves = [node for node, _, _ in nodes if "symbol" in node]
    internal = [node for node, _, _ in nodes if "children" in node]
    if how == "not-an-object":
        _, parent, slot = rng.choice(nodes)
        value = rng.choice([0, "x", None, [], [{"dummy": True}]])
        if parent is None:
            doc["root"] = value
        else:
            parent[slot] = value
    elif how == "symbol-type":
        rng.choice(leaves)["symbol"] = rng.choice(["0", 1.5, True, None, [0]])
    elif how == "class-type":
        rng.choice(internal)["class"] = rng.choice(["0", 0.5, False, None, [0]])
    elif how == "children-type":
        rng.choice(internal)["children"] = rng.choice([[], {}, "ab", None, 2])
    elif how == "missing-key":
        node = rng.choice(nodes)[0]
        del node[rng.choice(sorted(node))]
    elif how == "bad-class":
        rng.choice(internal)["class"] = rng.choice([-1, len(doc["channels"]), 99])
    elif how == "child-count":
        children = rng.choice(internal)["children"]
        if rng.random() < 0.5:
            children.pop(rng.randrange(len(children)))
        else:
            children.append({"dummy": True})
    elif how == "bad-symbol":
        leaf = rng.choice(leaves)
        others = [other["symbol"] for other in leaves if other is not leaf]
        leaf["symbol"] = rng.choice([-1, len(leaves), rng.choice(others)])
    elif how == "extra-key":
        node = rng.choice(nodes)[0]
        key = rng.choice([key for key in ("symbol", "dummy", "class", "children", "junk") if key not in node])
        node[key] = rng.choice([0, True, [], None])
    elif how == "hollow":  # every slot of a node becomes padding
        children = rng.choice(internal)["children"]
        children[:] = [{"dummy": True} for _ in children]
    elif how == "missing-symbol":  # a leaf becomes padding
        _, parent, slot = rng.choice([(node, parent, slot) for node, parent, slot in nodes if "symbol" in node])
        if parent is None:
            doc["root"] = {"dummy": True}
        else:
            parent[slot] = {"dummy": True}
    else:
        value = rng.choice(["2", [1, 2], [2.5], None, [True], "missing"])
        if value == "missing":
            del doc["channels"]
        else:
            doc["channels"] = value


@TREE_IO_SETTINGS
@given(
    sources.filter(lambda dist: dist.m > 1),
    st.sampled_from(CODEC_CHANNELS).map(ChannelProfile.from_sizes),
    st.sampled_from(TREE_MUTATIONS),
    st.randoms(use_true_random=False),
)
def test_decode_cli_rejects_broken_tree_files(dist, profile, how, rng):
    root, _ = random_tree(rng, dist, profile)
    symbols = [rng.randrange(dist.m) for _ in range(20)]
    streams = encode(codebook_from_tree(root, profile), symbols)
    doc = {"channels": list(profile.sizes), "root": tree_to_obj(root)}
    break_tree_file(doc, how, rng)
    with tempfile.TemporaryDirectory() as tmp:
        tree_file, streams_file = Path(tmp) / "tree.json", Path(tmp) / "streams.json"
        tree_file.write_text(json.dumps(doc))
        streams_file.write_text(json.dumps({"streams": list(streams)}))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["decode", str(tree_file), str(streams_file)])
    assert code in (2, 3, 4)


# every mutation but the channels array's: the loader reads nodes, and the CLI checks channels first
LOADER_MUTATIONS = ("none", *(how for how in TREE_MUTATIONS if how != "channels"), "hollow", "missing-symbol")


def loaded(reader, obj):
    """What ``reader`` returns for ``obj``, or the type and message of the exception it raises."""
    try:
        return reader(obj)
    except Exception as exc:  # compared with the oracle's
        return type(exc), str(exc)


@pytest.mark.parametrize("sizes", DECODE_CHANNELS)
@settings(PROPERTY_SETTINGS, max_examples=3)
@given(st.integers(0, 2**32))
def test_tree_loader_is_the_recursive_parse_then_validation(sizes, seed):
    """Random trees of any shape, whole and with one fault each, read by the loader, the oracle and ``mchuff decode``.

    The loader gives the oracle's tree or raises its error, and calls a
    tree clean exactly when ``validate_tree`` finds nothing. ``mchuff
    decode`` prints the line the oracle and ``validate_tree`` word.
    """
    rng = make_rng(f"tree-loader:{seed}")
    for how in LOADER_MUTATIONS:
        doc = {"channels": list(sizes), "root": tree_to_obj(random_shape_tree(rng, sizes, rng.randint(2, 30)))}
        if how != "none":
            break_tree_file(doc, how, rng)
        expected = loaded(recursive_tree_from_obj, doc["root"])
        assert loaded(tree_from_obj, doc["root"]) == expected, how
        got = loaded(lambda obj: _read_tree(obj, sizes), doc["root"])
        if isinstance(expected, tuple):
            assert got == expected, how
            line = expected[1]
        else:
            problems = validate_tree(expected, sizes, count_leaves(expected))
            assert got == (expected, not problems), how
            line = f"invalid tree: {problems[0]}" if problems else None
        assert how != "none" or line is None
        with tempfile.TemporaryDirectory() as tmp:
            tree_file, streams_file = Path(tmp) / "tree.json", Path(tmp) / "streams.json"
            tree_file.write_text(json.dumps(doc))
            streams_file.write_text(json.dumps({"streams": [""] * len(sizes)}))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_main(["decode", str(tree_file), str(streams_file)])
        assert (code, err.getvalue()) == ((0, "") if line is None else (2, f"error: {tree_file}: {line}\n")), how


# JSON values a malformed file holds where a well-formed one has something else
json_junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 41), st.floats(-1e3, 1e3),
        st.text(alphabet="0123456789/.,-e az٣", max_size=5),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["masses", "channels", "words", "root", "class", "children",
                                         "symbol", "dummy", "streams"]), inner, max_size=3),
    ),
    max_leaves=6,
)
# file contents that are not JSON objects, or not text
raw_junk = st.sampled_from([b"", b"{", b"[]", b"null", b'"x"', b"\xff\xfe", b'{"masses": [1e99999]}'])
symbol_texts = st.lists(
    st.one_of(st.integers(-2, 7).map(str), st.text(alphabet="0123456789x.-٣", min_size=1, max_size=3)),
    max_size=12,
).map(" ".join)
BUILD_METHODS = ("optimal", "suboptimal", "prune=entropy", "prune=vibes", "single=1", "single=2",
                 "single=0", "single=x", "magic")
# the well-formed files come from a source on base-36 channels and one with a 40-ary (decimal-digit) channel
CLI_SOURCES = (
    ({"masses": ["0.13", "0.199", "0.212", "0.217", "0.242"], "channels": [2, 3]}, "optimal"),
    ({"masses": ["1/6", "1/6", "1/6", "1/2"], "channels": [40, 2]}, "single=1"),
)


@functools.cache
def cli_documents(source: int) -> dict[str, object]:
    """A well-formed distribution, tree, codebook and streams file, parsed, and the symbols text."""
    dist, method = CLI_SOURCES[source]
    symbols = "3 0 2 1 1 0"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "d.json").write_text(json.dumps(dist))
        (out / "s.txt").write_text(symbols)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["build", str(out / "d.json"), "--method", method, "--out-dir", str(out)]) == 0
            assert cli_main(["encode", str(out / "codebook.json"), str(out / "s.txt"),
                             "--out", str(out / "streams.json")]) == 0
        docs = {name: json.loads((out / f"{name}.json").read_text())
                for name in ("tree", "codebook", "streams")}
    return {"dist": dist, "symbols": symbols, **docs}


def broken_json(data, doc) -> object:
    """``doc`` with one value replaced by junk, removed or cut short, or the whole document junk."""
    doc = copy.deepcopy(doc)
    places = [(None, None)]  # (container, key); None stands for the document itself
    stack = [doc]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            places.append((node, key))
            stack.append(value)
    container, key = data.draw(st.sampled_from(places))
    how = data.draw(st.sampled_from(["replace", "remove", "cut"]))
    if container is None:
        return data.draw(json_junk)
    if how == "remove":
        del container[key]
    elif how == "cut" and isinstance(container[key], (str, list)):
        container[key] = container[key][:-1]
    else:
        container[key] = data.draw(json_junk)
    return doc


def write_input(data, path: Path, well_formed) -> None:
    """Write ``well_formed``, a broken copy of it, raw junk, or nothing at all, to ``path``."""
    how = data.draw(st.sampled_from(["keep", "keep", "break", "break", "break", "raw", "missing"]))
    if how == "raw":
        path.write_bytes(data.draw(raw_junk))
    elif how == "missing":
        return
    elif isinstance(well_formed, str):
        path.write_text(well_formed if how == "keep" else data.draw(symbol_texts), "utf-8")
    else:
        path.write_text(json.dumps(well_formed if how == "keep" else broken_json(data, well_formed)), "utf-8")


@settings(PROPERTY_SETTINGS, max_examples=250)
@given(st.sampled_from(["analyze", "build", "encode", "decode", "enumerate"]), st.integers(0, 1), st.data())
def test_cli_ends_every_malformed_call_with_an_exit_code(command, source, data):
    """0, or 2, 3 or 4 with one stderr line ``error: ...``; no exception leaves ``main``."""
    docs = cli_documents(source)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "enumerate":
            channels = data.draw(st.one_of(st.just("2,3"), st.text(alphabet="0123456789,-x ", max_size=5)))
            argv = [command, f"--m={data.draw(st.integers(-1, 7))}", f"--channels={channels}"]
        elif command in ("analyze", "build"):
            write_input(data, tmp / "d.json", docs["dist"])
            argv = [command, str(tmp / "d.json")]
            if command == "build":
                argv += ["--method", data.draw(st.sampled_from(BUILD_METHODS)), "--out-dir", str(tmp / "out")]
        elif command == "encode":
            write_input(data, tmp / "codebook.json", docs["codebook"])
            write_input(data, tmp / "s.txt", docs["symbols"])
            argv = [command, str(tmp / "codebook.json"), str(tmp / "s.txt")]
        else:
            decoder = data.draw(st.sampled_from(["tree", "codebook"]))
            write_input(data, tmp / "tree.json", docs[decoder])
            write_input(data, tmp / "streams.json", docs["streams"])
            argv = [command, str(tmp / "tree.json"), str(tmp / "streams.json")]
            count = data.draw(st.one_of(st.none(), st.integers(-2, 8)))
            argv += [] if count is None else [f"--count={count}"]
        if data.draw(st.booleans()) and command in ("encode", "decode"):
            argv += ["--out", str(tmp / "out.txt")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli_main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
