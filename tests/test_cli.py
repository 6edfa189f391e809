import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mchuff.cli import main

from helpers import GEOMETRIC_1200, build_hashes, large_alphabet_hashes, make_rng

GOLDEN = Path(__file__).parent / "golden" / "tables.tsv"
BUILD_GOLDEN = Path(__file__).parent / "golden" / "build_sha256.tsv"
LARGE_GOLDEN = Path(__file__).parent / "golden" / "large_alphabet_sha256.tsv"
SRC = Path(__file__).parent.parent / "src"

BENCHMARK = {"masses": ["0.13", "0.199", "0.212", "0.217", "0.242"], "channels": [2, 3]}
ENTROPY_ROW = {"masses": ["1/6", "1/6", "1/3", "1/3"], "channels": [2, 3]}
EXAMPLE_THREE = {"channels": [2, 2, 2], "words": [["0", "0", ""], ["1", "", "0"], ["", "1", "1"]]}


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


class TestAnalyze:
    def test_reference_values(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", ENTROPY_ROW)
        assert main(["analyze", str(dist)]) == 0
        out = capsys.readouterr().out
        assert "entropy: 1.3296613489 nats" in out
        assert "huffman length 1.3862943611" in out
        assert "huffman length 1.4648163849" in out

    def test_single_mass(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", {"masses": ["1"], "channels": [2]})
        assert main(["analyze", str(dist)]) == 0
        assert "entropy: 0.0000000000 nats" in capsys.readouterr().out

    def test_benchmark_entropy(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        assert main(["analyze", str(dist)]) == 0
        out = capsys.readouterr().out
        assert "entropy: 1.5902511946 nats" in out

    def test_rescale_warning(self, tmp_path, capsys):
        dist = write_json(
            tmp_path / "d.json",
            {"masses": ["0.3333333333", "0.3333333333", "0.3333333333"], "channels": [2, 3]},
        )
        assert main(["analyze", str(dist)]) == 0
        assert "rescaled" in capsys.readouterr().out

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "d.json").write_bytes(b"\xff\xfe")
        assert main(["analyze", str(tmp_path / "d.json")]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_non_utf8_file_message(self, tmp_path, capsys):
        (tmp_path / "d.json").write_bytes(b"\xff\xfe")
        assert main(["analyze", str(tmp_path / "d.json")]) == 2
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_parse_error_exits_2(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", {"masses": ["0.5", "oops"], "channels": [2, 3]})
        assert main(["analyze", str(dist)]) == 2
        assert "masses[1]" in capsys.readouterr().err

    def test_boolean_mass_exits_2(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", {"masses": [True], "channels": [2]})
        assert main(["analyze", str(dist)]) == 2
        assert "masses[0]" in capsys.readouterr().err

    def test_total_beyond_float_range_exits_2(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", {"masses": ["9e999", "0.5"], "channels": [2, 3]})
        assert main(["analyze", str(dist)]) == 2
        assert capsys.readouterr().err.endswith(" ~ inf, too far from 1 to rescale\n")

    def test_masses_below_float_range(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", {"masses": GEOMETRIC_1200, "channels": [2]})
        assert main(["analyze", str(dist)]) == 0
        assert "entropy: 1.3862943611 nats" in capsys.readouterr().out


class TestBuild:
    def test_optimal_benchmark(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        assert main(["build", str(dist), "--method", "optimal", "--out-dir", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["merge_sequence"] == [3, 2, 2]
        assert abs(stats["expected_length_nats"] - 1.6056509846) < 1e-9
        assert stats["kraft_sum"] == "1"

    def test_prune_method(self, tmp_path):
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        assert main(
            ["build", str(dist), "--method", "prune=expected_length", "--out-dir", str(tmp_path)]
        ) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["merge_sequence"] == [2, 2, 2, 2]
        assert abs(stats["expected_length_nats"] - 1.6143397835) < 1e-9

    def test_optimal_entropy_row2(self, tmp_path):
        dist = write_json(
            tmp_path / "d.json", {"masses": ["1/6", "1/6", "1/6", "1/2"], "channels": [2, 3]}
        )
        assert main(["build", str(dist), "--method", "optimal", "--out-dir", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert abs(stats["expected_length_nats"] - 1.24245332489) < 1e-9

    def test_single_channel_method(self, tmp_path):
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        assert main(["build", str(dist), "--method", "single=2", "--out-dir", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert abs(stats["expected_length_nats"] - 1.6929615368) < 1e-9
        tree = json.loads((tmp_path / "tree.json").read_text())
        assert tree["root"]["class"] == 1  # the ternary channel as the user listed it

    def test_deterministic_bytes(self, tmp_path):
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert main(["build", str(dist), "--method", "optimal", "--out-dir", str(out)]) == 0
        for name in ("tree.json", "codebook.json", "stats.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_output_bytes_match_golden(self):
        """Every method's output files hash to the recorded values (tests/golden/build_sha256.tsv)."""
        assert build_hashes() == BUILD_GOLDEN.read_text()

    def test_large_alphabet_bytes_match_golden(self):
        """analyze output and single-channel builds at m = 512 and 2048 (tests/golden/large_alphabet_sha256.tsv)."""
        assert large_alphabet_hashes() == LARGE_GOLDEN.read_text()

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        assert main(["build", str(dist), "--method", "magic", "--out-dir", str(tmp_path)]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_unsorted_channels_reported_in_user_order(self, tmp_path):
        dist = write_json(
            tmp_path / "d.json", {"masses": ["1/6", "1/6", "1/3", "1/3"], "channels": [3, 2]}
        )
        assert main(["build", str(dist), "--method", "optimal", "--out-dir", str(tmp_path)]) == 0
        tree = json.loads((tmp_path / "tree.json").read_text())
        assert tree["channels"] == [3, 2]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert abs(stats["expected_length_nats"] - 1.32966134885) < 1e-9

    @pytest.mark.parametrize(
        "method, masses, message",
        [
            ("prune=entropy", ["1"], "at least two masses"),
            ("prune=vibes", ["1/2", "1/2"], "unknown metric 'vibes'"),
        ],
        ids=["prune-one-mass", "prune-unknown-metric"],
    )
    def test_rejected_construction_exits_2(self, tmp_path, capsys, method, masses, message):
        dist = write_json(tmp_path / "d.json", {"masses": masses, "channels": [2]})
        assert main(["build", str(dist), "--method", method, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "tree.json").exists()

    @pytest.mark.parametrize(
        "method, masses, line",
        [
            ("prune=entropy", ["1"], "need at least two masses to merge"),
            ("prune=vibes", ["1/2", "1/2"], "unknown metric 'vibes'; choose one of ('redundancy', "
             "'expected_length', 'entropy', 'expected_plus_entropy', 'huffman_completion')"),
        ],
        ids=["prune-one-mass", "prune-unknown-metric"],
    )
    def test_rejected_construction_message(self, tmp_path, capsys, method, masses, line):
        dist = write_json(tmp_path / "d.json", {"masses": masses, "channels": [2]})
        assert main(["build", str(dist), "--method", method, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_out_dir_is_a_file_exits_2(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        assert main(["build", str(dist), "--out-dir", str(dist)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTooDeep:
    """Inputs whose trees or merge sequences are 1,199 levels deep."""

    @pytest.mark.parametrize(
        "argv, channels",
        [
            (["build", "{dist}", "--method", "single=1", "--out-dir", "{out}"], [2]),
            (["build", "{dist}", "--method", "optimal", "--out-dir", "{out}"], [2]),
            (["build", "{dist}", "--method", "prune=redundancy", "--out-dir", "{out}"], [2]),
            # the sweep builds the 1,199-deep code, then validate_tree's recursive walk exceeds the limit
            (["build", "{dist}", "--method", "suboptimal", "--out-dir", "{out}"], [2, 3]),
        ],
        ids=["build-single", "build-optimal", "build-prune", "build-suboptimal-2-3"],
    )
    def test_exits_2_without_traceback(self, tmp_path, capsys, argv, channels):
        dist = write_json(tmp_path / "d.json", {"masses": GEOMETRIC_1200, "channels": channels})
        argv = [a.format(dist=dist, out=tmp_path / "out") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_enumerate_lists_the_one_sequence(self, capsys):
        assert main(["enumerate", "--m", "1200", "--channels", "2"]) == 0
        assert capsys.readouterr().out == ",".join(["2"] * 1199) + "\n"


class TestTables:
    def test_matches_golden(self, capsys):
        assert main(["tables"]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_missing_out_dir_exits_2(self, tmp_path, capsys):
        assert main(["tables", "--out", str(tmp_path / "nodir" / "x.tsv")]) == 2
        assert "nodir" in capsys.readouterr().err


class TestEnumerate:
    def test_five_masses(self, capsys):
        assert main(["enumerate", "--m", "5", "--channels", "2,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["2,2,2,2", "2,2,3", "2,3,2", "3,2,2", "3,3"]

    def test_bad_m_exits_2(self, capsys):
        assert main(["enumerate", "--m", "1", "--channels", "2,3"]) == 2

    @pytest.mark.parametrize(
        "m, channels, line",
        [
            ("1", "2,3", "need at least two masses to merge"),
            ("5", "1", "channels[0]: alphabet size must be an integer >= 2, got 1"),
            ("5", "2,x", "--channels must be comma-separated integers, got '2,x'"),
        ],
        ids=["one-mass", "one-letter-channel", "not-an-integer"],
    )
    def test_rejected_request_message(self, capsys, m, channels, line):
        assert main(["enumerate", "--m", m, "--channels", channels]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")


class TestCodecCommands:
    def build(self, tmp_path) -> Path:
        dist = write_json(tmp_path / "d.json", ENTROPY_ROW)
        assert main(["build", str(dist), "--method", "optimal", "--out-dir", str(tmp_path)]) == 0
        return tmp_path

    def test_roundtrip_via_files(self, tmp_path, capsys):
        out = self.build(tmp_path)
        rng = make_rng("cli-roundtrip")
        symbols = " ".join(str(rng.randrange(4)) for _ in range(1000))
        (tmp_path / "syms.txt").write_text(symbols + "\n")
        assert main(
            ["encode", str(out / "codebook.json"), str(tmp_path / "syms.txt"),
             "--out", str(tmp_path / "streams.json")]
        ) == 0
        assert main(
            ["decode", str(out / "tree.json"), str(tmp_path / "streams.json"),
             "--out", str(tmp_path / "decoded.txt")]
        ) == 0
        assert (tmp_path / "decoded.txt").read_text().strip() == symbols

    def test_truncated_stream_exits_4(self, tmp_path, capsys):
        out = self.build(tmp_path)
        (tmp_path / "syms.txt").write_text("0 1\n")
        assert main(
            ["encode", str(out / "codebook.json"), str(tmp_path / "syms.txt"),
             "--out", str(tmp_path / "streams.json")]
        ) == 0
        streams = json.loads((tmp_path / "streams.json").read_text())["streams"]
        chopped = [streams[0], streams[1][:-1]]
        write_json(tmp_path / "bad.json", {"streams": chopped})
        assert main(["decode", str(out / "tree.json"), str(tmp_path / "bad.json")]) == 4

    def test_corrupt_stream_exits_3(self, tmp_path, capsys):
        dist = write_json(tmp_path / "d.json", {"masses": ["1/2", "1/2"], "channels": [3, 4]})
        assert main(["build", str(dist), "--method", "optimal", "--out-dir", str(tmp_path)]) == 0
        write_json(tmp_path / "bad.json", {"streams": ["2", ""]})
        assert main(["decode", str(tmp_path / "tree.json"), str(tmp_path / "bad.json")]) == 3

    def test_decode_from_two_channel_codebook(self, tmp_path):
        out = self.build(tmp_path)
        (tmp_path / "syms.txt").write_text("3 0 2\n")
        assert main(
            ["encode", str(out / "codebook.json"), str(tmp_path / "syms.txt"),
             "--out", str(tmp_path / "streams.json")]
        ) == 0
        assert main(
            ["decode", str(out / "codebook.json"), str(tmp_path / "streams.json"),
             "--out", str(tmp_path / "decoded.txt")]
        ) == 0
        assert (tmp_path / "decoded.txt").read_text().strip() == "3 0 2"

    def test_three_channel_codebook_encodes_but_wont_decode(self, tmp_path, capsys):
        book = write_json(tmp_path / "cb.json", EXAMPLE_THREE)
        (tmp_path / "syms.txt").write_text("0 1 2\n")
        assert main(
            ["encode", str(book), str(tmp_path / "syms.txt"),
             "--out", str(tmp_path / "streams.json")]
        ) == 0
        assert main(["decode", str(book), str(tmp_path / "streams.json")]) == 2
        assert "not tree-decodable" in capsys.readouterr().err

    def test_words_must_be_arrays(self, tmp_path, capsys):
        book = write_json(tmp_path / "cb.json", {"channels": [2, 2], "words": ["01", "10"]})
        (tmp_path / "syms.txt").write_text("0 1\n")
        assert main(["encode", str(book), str(tmp_path / "syms.txt")]) == 2
        assert "words[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["encode", "decode"])
    @pytest.mark.parametrize(
        "words, bad",
        [([[0, 1], [1, 0]], 0), ([[10, ""], ["", 1]], 0)],
        ids=["ints", "ten"],
    )
    def test_word_components_must_be_strings(self, tmp_path, capsys, command, words, bad):
        book = write_json(tmp_path / "cb.json", {"channels": [2, 2], "words": words})
        (tmp_path / "syms.txt").write_text("0 1\n")
        write_json(tmp_path / "streams.json", {"streams": ["01", "10"]})
        data = tmp_path / ("syms.txt" if command == "encode" else "streams.json")
        assert main([command, str(book), str(data)]) == 2
        assert f"words[{bad}]" in capsys.readouterr().err

    def test_noncanonical_large_alphabet_codebook_exits_2(self, tmp_path, capsys):
        words = [["", "+0"], ["1", "1"], ["0", " 2"]]
        book = write_json(tmp_path / "cb.json", {"channels": [2, 40], "words": words})
        (tmp_path / "syms.txt").write_text("0 1 2\n")
        assert main(["encode", str(book), str(tmp_path / "syms.txt")]) == 2
        assert "'+0'" in capsys.readouterr().err

    @pytest.mark.parametrize("stream, code", [("0,1,2", 0), ("+0,1, 2", 3), ("00,1", 3)])
    def test_noncanonical_large_alphabet_stream_exits_3(self, tmp_path, capsys, stream, code):
        words = [["", "0"], ["", "1"], ["", "2"]]
        book = write_json(tmp_path / "cb.json", {"channels": [2, 40], "words": words})
        write_json(tmp_path / "streams.json", {"streams": ["", stream]})
        assert main(["decode", str(book), str(tmp_path / "streams.json")]) == code

    def test_missing_symbols_file_exits_2(self, tmp_path, capsys):
        out = self.build(tmp_path)
        assert main(["encode", str(out / "codebook.json"), str(tmp_path / "missing.txt")]) == 2
        assert "missing.txt" in capsys.readouterr().err

    def test_negative_count_exits_2(self, tmp_path, capsys):
        out = self.build(tmp_path)
        (tmp_path / "syms.txt").write_text("0 1 2\n")
        assert main(
            ["encode", str(out / "codebook.json"), str(tmp_path / "syms.txt"),
             "--out", str(tmp_path / "streams.json")]
        ) == 0
        assert main(
            ["decode", str(out / "tree.json"), str(tmp_path / "streams.json"), "--count", "-1"]
        ) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_negative_count_message(self, tmp_path, capsys):
        out = self.build(tmp_path)
        write_json(tmp_path / "streams.json", {"streams": ["0", "1"]})
        capsys.readouterr()
        assert main(
            ["decode", str(out / "tree.json"), str(tmp_path / "streams.json"), "--count", "-1"]
        ) == 2
        assert capsys.readouterr() == ("", "error: count must be non-negative, got -1\n")

    def test_out_of_range_symbol_exits_2(self, tmp_path, capsys):
        out = self.build(tmp_path)
        (tmp_path / "syms.txt").write_text("0 4 1\n")
        streams = tmp_path / "streams.json"
        capsys.readouterr()
        assert main(
            ["encode", str(out / "codebook.json"), str(tmp_path / "syms.txt"), "--out", str(streams)]
        ) == 2
        assert capsys.readouterr() == ("", "error: symbols[1]: index 4 out of range 0..3\n")
        assert not streams.exists()

    def test_count_mismatch_exits_3(self, tmp_path):
        out = self.build(tmp_path)
        (tmp_path / "syms.txt").write_text("0 1 2\n")
        assert main(
            ["encode", str(out / "codebook.json"), str(tmp_path / "syms.txt"),
             "--out", str(tmp_path / "streams.json")]
        ) == 0
        assert main(
            ["decode", str(out / "tree.json"), str(tmp_path / "streams.json"), "--count", "2"]
        ) == 3

    def test_bad_symbol_token_named(self, tmp_path, capsys):
        out = self.build(tmp_path)
        (tmp_path / "syms.txt").write_text("0 ٣ 1\n2 x 1.0 3\n")
        assert main(["encode", str(out / "codebook.json"), str(tmp_path / "syms.txt")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'syms.txt'}: 'x' is not a symbol index\n"


class TestOneProcess:
    """``main`` keeps nothing that shows from one call to the next: each output equals a fresh process's.

    The parser is built once per process and shared by every call.
    """

    def fresh(self, argv: list[str]) -> tuple[int, str, str]:
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from mchuff.cli import main; sys.exit(main())", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
        )
        return run.returncode, run.stdout, run.stderr

    def in_process(self, argv: list[str], capsys) -> tuple[int, str, str]:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_calls_in_sequence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal's width
        dist = write_json(tmp_path / "d.json", BENCHMARK)
        (tmp_path / "syms.txt").write_text("4 0 3 1 2 2 4 0 1 3\n")
        single, default, streams = tmp_path / "single", tmp_path / "default", tmp_path / "s.json"
        book = str(default / "codebook.json")
        # a number where a digit string belongs, in words[1]
        numbered = write_json(tmp_path / "n.json", {"channels": [2, 3], "words": [["0", ""], ["1", 2]]})
        calls = [  # each command line and the files it writes
            (["build", str(dist), "--method", "single=1", "--out-dir", str(single)],
             [single / name for name in ("tree.json", "codebook.json", "stats.json")]),
            (["build", str(dist), "--out-dir", str(default)],
             [default / name for name in ("tree.json", "codebook.json", "stats.json")]),
            (["encode", book, str(tmp_path / "syms.txt"), "--out", str(streams)], [streams]),
            (["encode", book, str(tmp_path / "syms.txt")], []),
            (["decode", str(default / "tree.json"), str(streams), "--count", "3"], []),
            (["decode", str(default / "tree.json"), str(streams)], []),
            (["encode", "--no-such-option"], []),
            (["analyze", str(dist)], []),
            (["--help"], []),
            (["build", "--help"], []),
            (["encode", str(numbered), str(tmp_path / "syms.txt")], []),
        ]
        outputs = []
        for argv, files in calls:
            got = self.in_process(argv, capsys), [path.read_bytes() for path in files]
            assert (self.fresh(argv), [path.read_bytes() for path in files]) == got, argv
            outputs.append(got[0])
        assert outputs[5][1] == "4 0 3 1 2 2 4 0 1 3\n"  # to the end of the streams, not 3 symbols
        assert outputs[6][0] == 2
        assert outputs[8][0] == outputs[9][0] == 0 and outputs[9][1].startswith("usage: mchuff build")
        named = f"error: {numbered}: words[1]: must be an array of per-channel digit strings\n"
        assert outputs[10] == (2, "", named)
