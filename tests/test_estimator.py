import copy
import pickle
import sys
import threading

import pytest

from mchuff import (
    CorruptionError,
    MultiChannelHuffmanCoder,
    NotFittedError,
    TrailingDataError,
    TruncationError,
    decode,
    encode,
)

from helpers import make_rng


def zipf_text(tag: str, m: int, k: int) -> list[int]:
    """k symbols 1..m drawn with weights 1 / j**1.1."""
    return make_rng(tag).choices(range(1, m + 1), weights=[1 / j**1.1 for j in range(1, m + 1)], k=k)


def chunked(coder, text, size: int) -> list[tuple[str, ...]]:
    return [coder.transform(text[i:i + size]) for i in range(0, len(text), size)]


class TestFitTransform:
    def test_roundtrip(self):
        data = list("abracadabra")
        coder = MultiChannelHuffmanCoder(channels=(2, 3))
        streams = coder.fit_transform(data)
        assert len(streams) == 2
        assert coder.inverse_transform(streams) == data

    def test_generator_and_str_encode_as_the_list(self):
        data = list("abracadabra")
        coder = MultiChannelHuffmanCoder(channels=(2, 3)).fit(data)
        streams = coder.transform(data)
        assert coder.transform(sym for sym in data) == coder.transform("abracadabra") == streams

    def test_classes_sorted_by_frequency(self):
        coder = MultiChannelHuffmanCoder(channels=(2, 3)).fit("aaabbc")
        assert coder.classes_[-1] == "a"
        assert set(coder.classes_) == {"a", "b", "c"}

    def test_tied_counts_keep_first_seen_order(self):
        coder = MultiChannelHuffmanCoder(channels=(2, 3)).fit("bbaacd")
        assert coder.classes_ == ("c", "d", "b", "a")
        coder = MultiChannelHuffmanCoder(channels=(2, 3)).fit(iter(["x", "y", "y", "x", "z"]))
        assert coder.classes_ == ("z", "x", "y")

    def test_fit_from_weight_mapping(self):
        coder = MultiChannelHuffmanCoder(channels=(2, 3)).fit(
            {"x": 1, "y": 1, "z": 2, "w": 2}
        )
        assert coder.expected_length_ == pytest.approx(1.32966134885, abs=1e-9)
        assert coder.merge_sequence_ == (2, 3)

    def test_channel_order_respected(self):
        data = list("mississippi")
        forward = MultiChannelHuffmanCoder(channels=(2, 3)).fit(data)
        flipped = MultiChannelHuffmanCoder(channels=(3, 2)).fit(data)
        assert forward.transform(data) == tuple(reversed(flipped.transform(data)))
        assert flipped.inverse_transform(flipped.transform(data)) == data

    def test_methods_agree_on_roundtrip(self):
        rng = make_rng("estimator-methods")
        data = [rng.choice("abcdef") for _ in range(300)]
        for method in ("optimal", "suboptimal", "prune", "single"):
            coder = MultiChannelHuffmanCoder(channels=(2, 3), method=method, channel=1)
            streams = coder.fit_transform(data)
            assert coder.inverse_transform(streams) == data

    def test_suboptimal_on_a_zipf_text(self):
        # symbol j of 256 occurs about 1000 / j**1.1 times, at least twice
        rng = make_rng("estimator-zipf")
        data = [j for j in range(1, 257) for _ in range(round(1000 / j**1.1))]
        rng.shuffle(data)
        coder = MultiChannelHuffmanCoder(channels=(2, 3), method="suboptimal")
        streams = coder.fit_transform(data)
        assert len(coder.classes_) == 256
        assert coder.inverse_transform(streams) == data

    def test_suboptimal_never_beats_optimal(self):
        rng = make_rng("estimator-compare")
        data = [rng.choice("abcdefgh") for _ in range(500)]
        opt = MultiChannelHuffmanCoder(channels=(2, 3), method="optimal").fit(data)
        sub = MultiChannelHuffmanCoder(channels=(2, 3), method="suboptimal").fit(data)
        assert opt.expected_length_ <= sub.expected_length_ + 1e-9
        assert opt.entropy_ - 1e-9 <= opt.expected_length_


class TestKeptReader:
    """inverse_transform keeps one reader per fitted tree; its calls must read as ``decode`` does."""

    def test_refit_decodes_with_the_new_tree(self):
        coder = MultiChannelHuffmanCoder(channels=(2, 3))
        for channels, tag in (((2, 3), "first"), ((2, 3), "second"), ((3, 2, 5), "third")):
            text = zipf_text(f"estimator-refit-{tag}", 14, 3000)
            coder.set_params(channels=channels).fit(text)
            chunks = [text[i:i + 300] for i in range(0, len(text), 300)]
            # the first call of a reader makes its window, the later ones read through it
            assert [coder.inverse_transform(coder.transform(c)) for c in chunks * 2] == chunks * 2
            assert coder._reader.root is coder.tree_

    def test_a_replaced_tree_is_read_with_a_new_reader(self):
        text = zipf_text("estimator-replaced", 14, 3000)
        coder = MultiChannelHuffmanCoder(channels=(2, 3)).fit(text)
        other = MultiChannelHuffmanCoder(channels=(2, 3), method="single").fit(text)
        streams = chunked(other, text, 300)
        coder.inverse_transform(coder.transform(text))  # the kept reader has read once
        coder.tree_ = other.tree_
        canonical = [tuple(s[u] for u in coder.profile_.user_order) for s in streams]
        assert [coder.inverse_transform(s) for s in streams] == [
            [coder.classes_[j] for j in decode(other.tree_, c)] for c in canonical
        ]

    def test_replaced_classes_are_read_and_written_anew(self):
        text = zipf_text("estimator-replaced-classes", 14, 3000)
        coder = MultiChannelHuffmanCoder(channels=(3, 2, 5), method="suboptimal").fit(text)
        streams = chunked(coder, text, 300)
        for s in streams:  # the kept reader reads through its window from the second chunk on
            coder.inverse_transform(s)
        permuted = list(coder.classes_)
        make_rng("estimator-permuted").shuffle(permuted)
        coder.classes_ = tuple(permuted)
        index = {sym: j for j, sym in enumerate(permuted)}
        order = coder.profile_.user_order
        for start in range(0, len(text), 300):
            chunk = text[start:start + 300]
            canonical = encode(coder.codebook_, [index[sym] for sym in chunk])
            assert coder.transform(chunk) == tuple(canonical[c] for c in coder.profile_.canonical_index)
        assert [coder.inverse_transform(s) for s in streams] == [
            [permuted[j] for j in decode(coder.tree_, [s[u] for u in order])] for s in streams
        ]

    def test_a_replaced_codebook_is_written_anew(self):
        text = zipf_text("estimator-replaced-codebook", 14, 3000)
        coder = MultiChannelHuffmanCoder(channels=(2, 3)).fit(text)
        other = MultiChannelHuffmanCoder(channels=(2, 3), method="single", channel=1).fit(text)
        assert other.classes_ == coder.classes_ and other.codebook_ != coder.codebook_
        coder.transform(text)  # the kept dicts have joined once
        coder.codebook_ = other.codebook_
        assert chunked(coder, text, 300) == chunked(other, text, 300)

    def test_pickle_and_deepcopy_decode_identically(self):
        text = zipf_text("estimator-copies", 40, 4000)
        coder = MultiChannelHuffmanCoder(channels=(3, 2), method="suboptimal").fit(text)
        streams = chunked(coder, text, 400)
        cut = (streams[0][0], streams[0][1][:-1])
        expected = [coder.inverse_transform(s) for s in streams]
        with pytest.raises(TruncationError) as raised:
            coder.inverse_transform(cut)
        for twin in (pickle.loads(pickle.dumps(coder)), copy.deepcopy(coder)):
            assert twin.tree_ == coder.tree_ and twin._reader.root is twin.tree_
            # the kept dicts and reader come along, keyed to the twin's own attributes
            book, classes, _ = twin._columns
            assert book is twin.codebook_ and classes is twin.classes_ is twin._reader.classes
            assert chunked(twin, text, 400) == streams
            assert [twin.inverse_transform(s) for s in streams] == expected
            with pytest.raises(TruncationError) as again:
                twin.inverse_transform(cut)
            assert str(again.value) == str(raised.value)

    def test_threads_sharing_a_coder_get_the_serial_results(self):
        text = zipf_text("estimator-threads", 256, 40_000)
        shared = MultiChannelHuffmanCoder(channels=(2, 3), method="suboptimal").fit(text)
        streams = chunked(shared, text, 100)
        serial = MultiChannelHuffmanCoder(channels=(2, 3), method="suboptimal").fit(text)
        expected = [serial.inverse_transform(s) for s in streams]
        results: dict[int, list] = {}
        start = threading.Barrier(4, timeout=60)

        def work(t: int) -> None:
            start.wait()
            results[t] = [shared.inverse_transform(s) for s in streams[t::4]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, also while a table is being made
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[t] == expected[t::4] for t in range(4))
        # no update of the table budget was lost: it is the digits read less the entries made
        reader = shared._reader
        made = sum(len(table[0]) for table in reader.tables if table is not None)
        assert reader.budget == sum(len(s) for chunk in streams for s in chunk) - made

    def test_errors_name_the_callers_streams(self):
        coder = MultiChannelHuffmanCoder(channels=(3, 2)).fit("abracadabra alakazam")
        ternary, binary = coder.transform("abracadabra alakazam")
        cases = [
            ((ternary[:-1], binary), TruncationError, "stream 0 exhausted inside codeword 19"),
            ((ternary, "2" + binary), CorruptionError, "stream 1: digit 2 out of range for alphabet size 2"),
        ]
        for streams, error, message in cases:
            with pytest.raises(error) as raised:
                coder.inverse_transform(streams)
            assert str(raised.value) == message
        # codec.decode reads the canonical order, binary first, and names its streams so
        with pytest.raises(TruncationError, match="^stream 1 exhausted inside codeword 19$"):
            decode(coder.tree_, (binary, ternary[:-1]))

        single = MultiChannelHuffmanCoder(channels=(3, 2), method="single", channel=1).fit("abracadabra alakazam")
        with pytest.raises(TrailingDataError) as raised:
            single.inverse_transform(("1", single.transform("abracadabra alakazam")[1]))
        assert str(raised.value) == "stream 0 carries digits but the tree never reads channel 0"

        # the ternary channel, canonical channel 0, is the caller's channel 1; its digit 2 is padding
        padded = MultiChannelHuffmanCoder(channels=(5, 3)).fit("aab")
        with pytest.raises(CorruptionError) as raised:
            padded.inverse_transform(("", "012"))
        assert str(raised.value) == "codeword 2 routed to a padding slot (channel 1, offset 2)"


class TestValidation:
    def test_unfitted_raises(self):
        coder = MultiChannelHuffmanCoder()
        with pytest.raises(NotFittedError):
            coder.transform("abc")
        with pytest.raises(NotFittedError):
            coder.inverse_transform(("", ""))

    def test_unknown_symbol(self):
        coder = MultiChannelHuffmanCoder().fit("aabb")
        with pytest.raises(ValueError, match="position 1"):
            coder.transform(["a", "z"])

    def test_first_of_several_unknown_symbols_is_named(self):
        coder = MultiChannelHuffmanCoder().fit("aabbc")
        with pytest.raises(ValueError) as raised:
            coder.transform(iter(["a", "y", "b", "z", "y"]))
        assert str(raised.value) == "symbol 'y' at position 1 was not seen during fit"

    def test_unhashable_symbol(self):
        coder = MultiChannelHuffmanCoder().fit("aabbc")
        with pytest.raises(TypeError, match="unhashable"):
            coder.transform(["a", ["b"], "z"])
        # a symbol never seen before it is reported first, as the symbols are read in order
        with pytest.raises(ValueError, match="position 1"):
            coder.transform(["a", "z", ["b"]])

    def test_degenerate_data(self):
        with pytest.raises(ValueError):
            MultiChannelHuffmanCoder().fit("aaaa")
        with pytest.raises(ValueError):
            MultiChannelHuffmanCoder().fit("")

    def test_bad_method_and_metric(self):
        with pytest.raises(ValueError):
            MultiChannelHuffmanCoder(method="best").fit("aabb")
        with pytest.raises(ValueError):
            MultiChannelHuffmanCoder(method="prune", metric="vibes").fit("aabb")

    @pytest.mark.parametrize("channel", [True, 1.0])
    def test_single_channel_must_be_a_plain_int(self, channel):
        # passed through to construct, which used to build on channel 1 for True and raise TypeError for 1.0
        coder = MultiChannelHuffmanCoder((2, 3), method="single", channel=channel)
        with pytest.raises(ValueError, match=rf"^channel must index into channels, got {channel!r}$"):
            coder.fit("aabbc")

    @pytest.mark.parametrize("q", [3, 40])
    @pytest.mark.parametrize("bad", [None, 0, [], b"0"], ids=repr)
    def test_non_string_stream_raises_type_error(self, q, bad):
        text = zipf_text("non-string-stream", 60, 3000)
        coder = MultiChannelHuffmanCoder((q, 2), method="suboptimal").fit(text)
        streams = coder.transform(text[:50])
        for channel in range(2):
            broken = list(streams)
            broken[channel] = bad
            with pytest.raises(TypeError) as info:
                coder.inverse_transform(broken)
            assert str(info.value) == f"a digit string must be a str, got {bad!r}"
        assert coder.inverse_transform(streams) == text[:50]


class TestSklearnProtocol:
    def test_get_set_params_clone_style(self):
        coder = MultiChannelHuffmanCoder(channels=(2, 4), method="prune", metric="entropy")
        params = coder.get_params()
        clone = MultiChannelHuffmanCoder(**{"channels": params["channels"]}).set_params(
            **{k: v for k, v in params.items() if k != "channels"}
        )
        assert clone.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            MultiChannelHuffmanCoder().set_params(depth=3)

    def test_repr_mentions_params(self):
        text = repr(MultiChannelHuffmanCoder(channels=(3, 2)))
        assert "channels=(3, 2)" in text
