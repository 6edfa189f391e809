import pytest

from mchuff import MultiChannelHuffmanCoder, NotFittedError

from helpers import make_rng


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
