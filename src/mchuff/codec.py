"""Multi-channel encoder/decoder and prefix-freeness verification."""

from __future__ import annotations

from . import digits
from .tree import Codebook, DummyLeaf, Internal, Leaf, Node


class CodecError(Exception):
    """Base class for encode/decode failures."""


class DegenerateCodeError(CodecError):
    """One-symbol codes have an empty codeword and cannot be framed in a stream."""


class TruncationError(CodecError):
    """A stream ran out of digits in the middle of a codeword."""


class CorruptionError(CodecError):
    """A digit routed the decoder to a padding slot or fell outside the alphabet."""


class TrailingDataError(CodecError):
    """Digits remained after the requested number of symbols was decoded."""


def prefix_free(cb: Codebook) -> tuple[int, int] | None:
    """First pair of codewords that is not prefix-free, or None for a prefix code.

    Two words are prefix-free when at least one channel separates them,
    i.e. neither component there is a prefix of the other. Cost is
    O(m^2 * n * max length).
    """
    parsed = cb.parsed
    for j1 in range(len(parsed)):
        for j2 in range(j1 + 1, len(parsed)):
            if not _separated(parsed[j1], parsed[j2]):
                return (j1, j2)
    return None


def _separated(a: tuple, b: tuple) -> bool:
    for x, y in zip(a, b):
        k = min(len(x), len(y))
        if x[:k] != y[:k]:
            return True
    return False


def encode(cb: Codebook, symbols) -> tuple[str, ...]:
    """Concatenate the symbols' codewords channel-wise."""
    if cb.m == 1:
        raise DegenerateCodeError("a one-symbol code has an empty codeword and cannot be streamed")
    idx = list(symbols)
    for pos, s in enumerate(idx):
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < cb.m:
            raise ValueError(f"symbols[{pos}]: index {s!r} out of range 0..{cb.m - 1}")
    return tuple(
        digits.concat((cb.words[s][i] for s in idx), q) for i, q in enumerate(cb.sizes)
    )


def _infer_sizes(root: Node, n: int) -> list[int | None]:
    sizes: list[int | None] = [None] * n
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            if node.class_index >= n:
                raise ValueError(
                    f"tree reads channel {node.class_index} but only {n} streams were given"
                )
            q = len(node.children)
            if sizes[node.class_index] not in (None, q):
                raise ValueError(f"channel {node.class_index} is read with inconsistent alphabet sizes")
            sizes[node.class_index] = q
            stack.extend(node.children)
    return sizes


def decode(root: Node, streams, count: int | None = None) -> list[int]:
    """Decode channel streams back into symbol indices.

    Each symbol is read by walking from the root and consuming one digit of
    the current node's channel per internal node. Without ``count``,
    decoding stops exactly when every stream is exhausted at a codeword
    boundary; with ``count``, exactly that many symbols are read and any
    leftover digits are an error. Decoding is strictly sequential: no
    lookahead past the current codeword.
    """
    if count is not None and count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(root, (Leaf, DummyLeaf)):
        raise DegenerateCodeError("decoding tree has no internal node; the code cannot be streamed")
    streams = tuple(streams)
    sizes = _infer_sizes(root, len(streams))
    parsed: list[tuple[int, ...]] = []
    for i, text in enumerate(streams):
        if sizes[i] is None:
            if text:
                raise TrailingDataError(f"stream {i} carries digits but the tree never reads channel {i}")
            parsed.append(())
            continue
        try:
            parsed.append(digits.parse(text, sizes[i]))
        except ValueError as exc:
            raise CorruptionError(f"stream {i}: {exc}") from exc

    pos = [0] * len(streams)
    out: list[int] = []
    while True:
        if count is not None:
            if len(out) == count:
                break
        elif all(p == len(d) for p, d in zip(pos, parsed)):
            break
        node: Node = root
        ch = -1
        while isinstance(node, Internal):
            ch = node.class_index
            if pos[ch] >= len(parsed[ch]):
                raise TruncationError(f"stream {ch} exhausted inside codeword {len(out)}")
            digit = parsed[ch][pos[ch]]
            pos[ch] += 1
            node = node.children[digit]
        if isinstance(node, DummyLeaf):
            raise CorruptionError(
                f"codeword {len(out)} routed to a padding slot (channel {ch}, offset {pos[ch] - 1})"
            )
        out.append(node.symbol)
    leftovers = [i for i in range(len(streams)) if pos[i] != len(parsed[i])]
    if leftovers:
        raise TrailingDataError(f"streams {leftovers} have digits left after {len(out)} symbols")
    return out
