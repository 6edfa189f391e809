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
    """Concatenate the symbols' codewords channel-wise, one join per codebook column.

    Symbols are walked one by one only if a pass at C speed finds one that is not a
    plain int in range: the walk accepts int subclasses but bool, and names the first bad one.
    """
    m = cb.m
    if m == 1:
        raise DegenerateCodeError("a one-symbol code has an empty codeword and cannot be streamed")
    idx = list(symbols)
    distinct = set(idx) if set(map(type, idx)) <= {int} else None
    if distinct is None or distinct and not 0 <= min(distinct) <= max(distinct) < m:
        for pos, s in enumerate(idx):
            if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < m:
                raise ValueError(f"symbols[{pos}]: index {s!r} out of range 0..{m - 1}")
    return tuple(
        "".join(map(column.__getitem__, idx)) if q <= 36
        else ",".join(filter(None, map(column.__getitem__, idx)))
        for column, q in zip(cb.columns, cb.sizes)
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


# a lookahead table covers at most this many strings of its channel's next k digits
TABLE_LIMIT = 4096


def _digit_chars(q: int) -> str:
    """One character per digit of a q-ary alphabet, as decode reads its streams."""
    return digits.render(range(q), q) if q <= 36 else "".join(map(chr, range(q)))


def decode(root: Node, streams, count: int | None = None) -> list[int]:
    """Decode channel streams back into symbol indices.

    Each symbol is read by walking from the root and consuming one digit of
    the current node's channel per internal node. Without ``count``,
    decoding stops exactly when every stream is exhausted at a codeword
    boundary; with ``count``, exactly that many symbols are read and any
    leftover digits are an error.

    The walk is table-driven (Moffat & Turpin, 1997). On its first visit in
    a call, an internal node gets a table from its channel's next k digits
    to where its same-channel region is left: a leaf, or a node that reads
    another channel or lies k digits down. q^k is at most ``TABLE_LIMIT``
    and k at most the region's depth. So the decoder reads ahead up to k
    digits to choose a codeword, and consumes only that codeword's digits.
    A lookahead that runs past a stream's end or into a padding slot misses
    the table, and the rest of that codeword is walked a digit at a time,
    which reports any error. Tables live for one call, and their entries
    add up to at most the streams' digits.
    """
    if count is not None and count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(root, (Leaf, DummyLeaf)):
        raise DegenerateCodeError("decoding tree has no internal node; the code cannot be streamed")
    streams = tuple(streams)
    n = len(streams)
    sizes = _infer_sizes(root, n)

    # one character per digit: a base-36 stream as it is, a decimal list through chr
    texts: list[str] = []
    for i, text in enumerate(streams):
        if sizes[i] is None:
            if text:
                raise TrailingDataError(f"stream {i} carries digits but the tree never reads channel {i}")
            texts.append("")
            continue
        try:
            if not text:
                texts.append("")
            elif sizes[i] > 36:
                texts.append("".join(map(chr, digits.parse(text, sizes[i]))))
            elif digits.all_valid((text,), sizes[i]):
                texts.append(text)
            else:
                digits.parse(text, sizes[i])  # raises the reason
        except ValueError as exc:
            raise CorruptionError(f"stream {i}: {exc}") from exc
    alphabets = [_digit_chars(q) if q else "" for q in sizes]
    values = [dict(zip(chars, range(len(chars)))) for chars in alphabets]

    # a table's exits are ids: 0, 1, ... into nodes (the root is 0) and ~0, ~1, ... into
    # symbols, given as the table is made; a tree's node is the exit of one table at most
    nodes: list[Internal] = [root]
    symbols: list = []
    tables: list[tuple[dict, int, int] | None] = [None]
    tails = [[[""]] for _ in range(n)]  # per channel, its digit strings of each length
    ends = [len(t) for t in texts]
    budget = sum(ends)

    def exit_id(node: Node) -> int:
        if isinstance(node, Internal):
            nodes.append(node)
            tables.append(None)
            return len(nodes) - 1
        symbols.append(node.symbol)
        return ~(len(symbols) - 1)

    def table(i: int) -> tuple[dict, int, int]:
        """(lookahead table, channel, k) of node i, within what is left of the budget."""
        nonlocal budget
        c = nodes[i].class_index
        chars = alphabets[c]
        cap = min(TABLE_LIMIT, budget)
        k = 0
        frontier = [("", nodes[i])]  # digits read so far on channel c, and the node they reach
        done = []  # (digits read, node, how many) where the region is left
        while frontier and len(chars) ** (k + 1) <= cap:
            k += 1
            deeper = []
            for key, node in frontier:
                for d, child in zip(chars, node.children):
                    if isinstance(child, Internal) and child.class_index == c:
                        deeper.append((key + d, child))
                    elif not isinstance(child, DummyLeaf):
                        done.append((key + d, child, k))
            frontier = deeper
        if k:
            done += [(key, node, k) for key, node in frontier]
        lengths = tails[c]
        while len(lengths) < k:
            lengths.append([t + d for t in lengths[-1] for d in chars])
        entries = {}
        for key, node, used in done:
            hit = (exit_id(node), used)
            if used == k:
                entries[key] = hit
            else:
                entries.update(dict.fromkeys([key + t for t in lengths[k - used]], hit))
        budget -= len(entries)
        return entries, c, k

    pos = [0] * n
    out: list = []
    while pos != ends if count is None else len(out) != count:
        i = 0
        while True:
            entry = tables[i]
            if entry is None:
                entry = tables[i] = table(i)
            lookahead, c, k = entry
            p = pos[c]
            hit = lookahead.get(texts[c][p:p + k])
            if hit is None:
                break
            i, used = hit
            pos[c] = p + used
            if i < 0:
                break
        if hit is not None:
            out.append(symbols[~i])
            continue
        node: Node = nodes[i]  # the rest of the codeword, a digit at a time
        while isinstance(node, Internal):
            c = node.class_index
            p = pos[c]
            if p >= ends[c]:
                raise TruncationError(f"stream {c} exhausted inside codeword {len(out)}")
            node = node.children[values[c][texts[c][p]]]
            pos[c] = p + 1
        if isinstance(node, DummyLeaf):
            raise CorruptionError(f"codeword {len(out)} routed to a padding slot (channel {c}, offset {p})")
        out.append(node.symbol)
    leftovers = [i for i in range(n) if pos[i] != ends[i]]
    if leftovers:
        raise TrailingDataError(f"streams {leftovers} have digits left after {len(out)} symbols")
    return out
