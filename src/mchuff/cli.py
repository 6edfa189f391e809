"""Command-line surface: analysis, code construction, table regeneration, codec.

File formats (all UTF-8 JSON except the TSV table output):

- distribution: ``{"masses": ["0.13", ...], "channels": [2, 3]}``
- tree: ``{"channels": [...], "root": {"class": i, "children": [...]}}``
  with leaves ``{"symbol": j}`` and padding slots ``{"dummy": true}``;
  ``class`` indexes the file's own ``channels`` array
- codebook: ``{"channels": [...], "words": [["0", "1"], ...]}``
- streams: ``{"streams": ["0110", "2012"]}``

Channels appear in the caller's order everywhere; command output labels
them 1-based. Symbol indices refer to masses sorted nondecreasing (the
``input_index`` field of a codebook maps them back to the input file).
Exit codes: 0 ok, 2 bad input (including files that cannot be read or
written, codebook words whose components are not digit strings,
construction requests ``construct`` rejects, such as an unknown pruning
metric or a pruned search on one mass, and inputs whose trees nest too
deeply for Python's recursion limit), 3 corrupt streams, 4 truncated
streams. ``main`` is the one place that maps exceptions to exit codes:
every ``ValueError`` the library raises becomes exit 2 with its own
message; the command functions wrap one only to prefix a file path.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Sequence
from pathlib import Path

from . import tables
from .codec import (
    CorruptionError,
    DegenerateCodeError,
    TrailingDataError,
    TruncationError,
    decode,
    encode,
)
from .core import ChannelProfile, Distribution, entropy, kraft_sum
from .heuristics import construct
from .huffman import code_length_nats, dummy_count, huffman_lengths
from .search import SearchResult, merge_prefixes
from .tree import (
    Codebook,
    codebook_from_tree,
    count_leaves,
    local_redundancy,
    necessary_tree_check,
    tree_from_obj,
    tree_from_two_channel_prefix,
    tree_to_json,
    validate_tree,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CORRUPTION = 3
EXIT_TRUNCATION = 4


class CliError(Exception):
    pass


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path}: top level must be a JSON object")
    return data


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | Path | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is unset."""
    if out:
        Path(out).write_text(text, "utf-8")
    else:
        print(text, end="")


def _channels(path: Path, data: dict) -> list[int]:
    channels = data.get("channels")
    if not isinstance(channels, list) or not all(isinstance(q, int) and q >= 2 for q in channels):
        raise CliError(f'{path}: "channels" must be an array of integers >= 2')
    return channels


def _codebook_json(
    channels: Sequence[int], words: Sequence[Sequence[str]], input_index: Sequence[int]
) -> str:
    """codebook.json text, assembled from pieces that C code encodes and joins.

    Equals ``json.dumps({"channels": list(channels), "words": [list(w) for w
    in words], "input_index": list(input_index)}, indent=2, sort_keys=True)``
    for non-empty ``words`` of ``len(channels)`` strings each; before Python
    3.13 that call runs json's pure-Python encoder once per string.
    """
    separators = [",\n      "] * (len(channels) - 1) + ["\n    ],\n    [\n      "]
    separators *= len(words)
    separators[-1] = "\n    ]\n  ]\n}"
    strings = map(json.encoder.encode_basestring_ascii, itertools.chain.from_iterable(words))
    return "".join([
        '{\n  "channels": [\n    ', ",\n    ".join(map(str, channels)),
        '\n  ],\n  "input_index": [\n    ', ",\n    ".join(map(str, input_index)),
        '\n  ],\n  "words": [\n    [\n      ', *itertools.chain.from_iterable(zip(strings, separators)),
    ])


def _load_distribution(path: Path) -> tuple[Distribution, ChannelProfile]:
    data = _read_json(path)
    masses = data.get("masses")
    channels = data.get("channels")
    if not isinstance(masses, list) or not masses:
        raise CliError(f'{path}: "masses" must be a non-empty array')
    if not isinstance(channels, list) or not channels:
        raise CliError(f'{path}: "channels" must be a non-empty array')
    try:
        dist = Distribution.from_masses(masses)
        profile = ChannelProfile.from_sizes(channels)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return dist, profile


def _load_codebook(path: Path, data: dict) -> Codebook:
    channels = _channels(path, data)
    words = data.get("words")
    if not isinstance(words, list) or not words:
        raise CliError(f'{path}: "words" must be a non-empty array')
    # the shapes are checked at C speed; the words are walked only to name the first bad one
    components = itertools.chain.from_iterable(words)
    if not set(map(type, words)) <= {list} or not set(map(type, components)) <= {str}:
        for j, word in enumerate(words):
            if not isinstance(word, list) or not all(isinstance(c, str) for c in word):
                raise CliError(f"{path}: words[{j}]: must be an array of per-channel digit strings")
    try:
        return Codebook(words=tuple(map(tuple, words)), sizes=tuple(channels))
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_analyze(args) -> int:
    dist, profile = _load_distribution(Path(args.distribution))
    h = entropy(dist)
    print(f"masses: {dist.m}")
    print("channels: " + ",".join(str(q) for q in profile.user_sizes))
    if dist.rescaled:
        print("warning: masses rescaled to sum exactly to 1 (last input mass absorbed the residue)")
    print(f"entropy: {h:.10f} nats")
    print(
        f"optimal expected length bounds: {h:.10f} <= L < {h + math.log(profile.sizes[0]):.10f} nats"
    )
    for user, q in enumerate(profile.user_sizes):
        lengths = huffman_lengths(dist, q)
        expected = code_length_nats(dist, lengths, q)
        real_kraft = kraft_sum(((l,) for l in lengths), (q,))
        print(
            f"channel {user + 1} (q={q}): huffman length {expected:.10f} nats, "
            f"kraft sum {real_kraft}, dummies {dummy_count(dist.m, q)}"
        )
    return EXIT_OK


def _construct(dist: Distribution, profile: ChannelProfile, method: str) -> SearchResult:
    """Translate a ``--method`` value into a ``construct`` call."""
    if method in ("optimal", "suboptimal"):
        kwargs = {}
    elif method.startswith("prune="):
        method, kwargs = "prune", {"metric": method[len("prune="):]}
    elif method.startswith("single="):
        try:
            user_channel = int(method[len("single="):])
        except ValueError:
            raise CliError(f"method {method!r}: channel must be an integer") from None
        if not 1 <= user_channel <= profile.n:
            raise CliError(f"channel {user_channel} out of range 1..{profile.n}")
        method, kwargs = "single", {"channel": user_channel - 1}
    else:
        raise CliError(f"unknown method {method!r}")
    return construct(dist, profile, method, **kwargs)


def cmd_build(args) -> int:
    dist, profile = _load_distribution(Path(args.distribution))
    result = _construct(dist, profile, args.method)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    codebook = codebook_from_tree(result.tree, profile)
    report = local_redundancy(result.tree, dist)
    user_sizes = profile.user_sizes
    canon = profile.canonical_index
    user_words = [[word[c] for c in canon] for word in codebook.words]

    _emit(tree_to_json(result.tree, user_sizes, profile.user_order) + "\n", out_dir / "tree.json")
    _emit(_codebook_json(user_sizes, user_words, dist.input_order) + "\n", out_dir / "codebook.json")
    stats = {
        "method": args.method,
        "expected_length_nats": result.expected_length,
        "entropy_nats": report.entropy,
        "redundancy_nats": report.total_redundancy,
        "merge_sequence": list(result.sequence),
        "merge_channels": [profile.user_order[s.class_index] + 1 for s in result.steps],
        "dummy_leaves": result.dummy_leaves,
        "kraft_sum": str(kraft_sum(codebook.length_tuples(), profile)),
        "rescaled": dist.rescaled,
    }
    _emit(_json_text(stats), out_dir / "stats.json")
    print(f"expected length: {result.expected_length:.10f} nats")
    print("merge sequence: " + ",".join(str(k) for k in result.sequence))
    print(f"wrote {out_dir / 'tree.json'}, {out_dir / 'codebook.json'}, {out_dir / 'stats.json'}")
    return EXIT_OK


def cmd_tables(args) -> int:
    _emit(tables.render_all(), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        sizes = [int(tok) for tok in args.channels.split(",")]
    except ValueError:
        raise CliError(f"--channels must be comma-separated integers, got {args.channels!r}") from None
    for prefix, count in merge_prefixes(args.m, ChannelProfile.from_sizes(sizes)):
        if count == 1:
            print(",".join(str(k) for k in prefix))
    return EXIT_OK


def cmd_encode(args) -> int:
    path = Path(args.codebook)
    cb = _load_codebook(path, _read_json(path))
    text = Path(args.symbols).read_text("utf-8")
    try:
        symbols = list(map(int, text.split()))
    except ValueError:
        for tok in text.split():
            try:
                int(tok)
            except ValueError:
                raise CliError(f"{args.symbols}: {tok!r} is not a symbol index") from None
        raise
    _emit(_json_text({"streams": list(encode(cb, symbols))}), args.out)
    return EXIT_OK


def _decoding_tree(path: Path):
    data = _read_json(path)
    if "root" in data:
        channels = _channels(path, data)
        try:
            root = tree_from_obj(data["root"])
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
        problems = validate_tree(root, channels, count_leaves(root))
        if problems:
            raise CliError(f"{path}: invalid tree: {problems[0]}")
        return root, len(channels)
    if "words" in data:
        cb = _load_codebook(path, data)
        if cb.n == 2:
            try:
                return tree_from_two_channel_prefix(cb), cb.n
            except ValueError as exc:
                raise CliError(f"{path}: {exc}") from exc
        if not necessary_tree_check(cb):
            raise CliError(
                f"{path}: code is not tree-decodable "
                "(every channel has a codeword with an empty component); cannot decode"
            )
        raise CliError(
            f"{path}: decoding straight from a codebook is only supported for 2 channels; "
            "pass a tree file instead"
        )
    raise CliError(f"{path}: file is neither a tree nor a codebook")


def cmd_decode(args) -> int:
    root, n = _decoding_tree(Path(args.tree))
    data = _read_json(Path(args.streams))
    streams = data.get("streams")
    if not isinstance(streams, list) or not all(isinstance(s, str) for s in streams):
        raise CliError(f'{args.streams}: "streams" must be an array of strings')
    if len(streams) != n:
        raise CliError(f"{args.streams}: expected {n} streams, got {len(streams)}")
    symbols = decode(root, tuple(streams), count=args.count)
    _emit(" ".join(map(str, symbols)) + "\n", args.out)
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was and fills a fresh Namespace per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mchuff",
        description="Multi-channel Huffman codes for channels with unequal alphabet sizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="entropy, per-channel Huffman lengths, bounds, Kraft data")
    p.add_argument("distribution", help="distribution JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build", help="construct a code and write tree/codebook/stats JSON")
    p.add_argument("distribution", help="distribution JSON file")
    p.add_argument(
        "--method",
        default="optimal",
        help="optimal | suboptimal | prune=<metric> | single=<channel> (1-based channel)",
    )
    p.add_argument("--out-dir", default=".", help="directory for the output files")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("tables", help="regenerate the reference tables as TSV")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("enumerate", help="list admissible merge sequences")
    p.add_argument("--m", type=int, required=True, help="number of probability masses")
    p.add_argument("--channels", required=True, help="comma-separated alphabet sizes, e.g. 2,3")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("encode", help="encode symbol indices into channel streams")
    p.add_argument("codebook", help="codebook JSON file")
    p.add_argument("symbols", help="text file of whitespace-separated symbol indices")
    p.add_argument("--out", help="write streams JSON here instead of stdout")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode channel streams back into symbol indices")
    p.add_argument("tree", help="tree JSON file (or 2-channel codebook JSON)")
    p.add_argument("streams", help="streams JSON file")
    p.add_argument("--count", type=int, default=None, help="decode exactly this many symbols")
    p.add_argument("--out", help="write symbols here instead of stdout")
    p.set_defaults(func=cmd_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DegenerateCodeError, OSError, RecursionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (CorruptionError, TrailingDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPTION


if __name__ == "__main__":
    sys.exit(main())
