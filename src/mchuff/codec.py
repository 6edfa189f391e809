"""Multi-channel encoder/decoder and prefix-freeness check; ``digits`` alone states the digit format."""

from __future__ import annotations

import functools
import threading

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
    i.e. neither component there is a prefix of the other, compared in
    ``digits.to_letters``' form. Cost is O(m^2 * n * max length).
    """
    words = [tuple(map(digits.to_letters, word, cb.sizes)) for word in cb.words]
    for j1 in range(len(words)):
        for j2 in range(j1 + 1, len(words)):
            if not _separated(words[j1], words[j2]):
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
    return tuple(digits.join(map(column.__getitem__, idx), q) for column, q in zip(cb.columns, cb.sizes))


def _infer_sizes(root: Node, n: int) -> list[int | None]:
    sizes: list[int | None] = [None] * n
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            if not 0 <= node.class_index < n:
                raise ValueError(
                    f"tree reads channel {node.class_index} but only {n} streams were given"
                    if node.class_index >= 0 else f"tree reads negative channel {node.class_index}"
                )
            q = len(node.children)
            if sizes[node.class_index] not in (None, q):
                raise ValueError(f"channel {node.class_index} is read with inconsistent alphabet sizes")
            sizes[node.class_index] = q
            stack.extend(node.children)
    return sizes


# a lookahead table covers at most this many strings of its channel's next k digits
TABLE_LIMIT = 4096


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
    which reports any error. A call is one read of a fresh ``_Reader``: it
    walks the tree once, its tables live for the call, and their entries
    add up to at most the streams' digits. The root window that a kept
    reader reads through from its second read on, with at most
    ``TABLE_LIMIT`` keys, is never filled for one call.
    """
    if count is not None and count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(root, (Leaf, DummyLeaf)):
        raise DegenerateCodeError("decoding tree has no internal node; the code cannot be streamed")
    streams = tuple(streams)
    return _Reader(root, len(streams)).read(streams, count)


def _window_widths(qa: int, qb: int) -> tuple[int, int]:
    """(ka, kb), grown in turn while qa^ka * qb^kb stays within ``TABLE_LIMIT``."""
    ka = kb = 0
    grown = True
    while grown:
        grown = False
        if qa ** (ka + 1) * qb**kb <= TABLE_LIMIT:
            ka, grown = ka + 1, True
        if qa**ka * qb ** (kb + 1) <= TABLE_LIMIT:
            kb, grown = kb + 1, True
    return ka, kb


class _Reader:
    """A decoder kept for one tree, whose root is internal, and n streams, over many reads.

    It walks the tree once (``_infer_sizes``) and keeps ``decode``'s lazily
    built per-node tables across reads; their entries add up to at most the
    digits the reader has read so far. From its second read on, a read
    without ``count`` first goes through a root window, if the tree reads
    two channels: a dict keyed on the next ka digits of the root's channel a
    and the next kb digits of the first other channel b the tree reads,
    where ka and kb grow in turn while qa^ka * qb^kb stays within
    ``TABLE_LIMIT``, the bound on the window's keys. A key maps to the run
    of whole codewords it spells and the digits the run uses on a and on b,
    so one lookup reads several codewords. A key that misses is read by the
    node tables, and its run is recorded then: it holds only codewords that
    read nothing outside a and b and lie wholly inside the window, and only
    a full-width key is stored. Where a stream has too few digits left for a
    full key, the rest is read a codeword at a time.

    Errors name channel c as ``labels[c]``. With ``classes``, a leaf for
    symbol index j reads out as ``classes[j]``: the tables, the window runs
    and the digit-at-a-time walk all record ``classes[j]``, so a read returns
    those values with no pass over indices; without it, a read returns the
    indices. Tables are made under a lock, so threads may share a reader; a
    copy or a pickle is a fresh reader for the same tree, labels and classes.
    """

    def __init__(
        self, root: Internal, n: int, labels: tuple[int, ...] | None = None, classes: tuple | None = None
    ) -> None:
        self.root, self.n, self.classes = root, n, classes
        self.labels = tuple(range(n)) if labels is None else tuple(labels)
        self.sizes = sizes = _infer_sizes(root, n)
        # per channel, ``digits.alphabet``'s letters and their values; none for a channel never read
        self.alphabets, self.values = zip(*[digits.alphabet(q or 0)[:2] for q in sizes])
        # a table's exits are ids: 0, 1, ... into nodes (the root is 0) and ~0, ~1, ... into
        # what its leaves read out as (``classes[j]`` or j), given as the table is made; a tree's
        # node is the exit of one table at most
        self.nodes: list[Internal] = [root]
        self.symbols: list = []
        self.tables: list[tuple[dict, int, int] | None] = [None]
        self.tails = [[[""]] for _ in range(n)]  # per channel, its digit strings of each length
        self.budget = 0  # table entries still allowed: the digits read less the entries made
        self.lock = threading.Lock()
        self.window: dict | None = None  # made by the first read, used from the second

    def __reduce__(self):
        return type(self), (self.root, self.n, self.labels, self.classes)

    @functools.cached_property
    def shape(self) -> tuple[int, int, int, int] | None:
        """(a, b, ka, kb) of the root window, or None if the tree reads one channel."""
        a = self.root.class_index
        b = next((c for c, q in enumerate(self.sizes) if q and c != a), None)
        if b is None:
            return None
        ka, kb = _window_widths(self.sizes[a], self.sizes[b])
        return (a, b, ka, kb) if ka else None

    def read(self, streams: tuple, count: int | None = None) -> list:
        """Decode ``streams``, n of them, as ``decode`` does, with errors naming the labels.

        Leaves read out as ``classes`` names them, if the reader has classes.
        Streams are read in ``digits.to_letters``' form, so one that is not a
        str raises TypeError; a channel the tree never reads must have none.
        """
        texts: list[str] = []
        for label, q, text in zip(self.labels, self.sizes, streams):
            if q is None and isinstance(text, str) and text:
                raise TrailingDataError(
                    f"stream {label} carries digits but the tree never reads channel {label}"
                )
            try:
                texts.append(digits.to_letters(text, 2 if q is None else q))
            except ValueError as exc:
                raise CorruptionError(f"stream {label}: {exc}") from exc
        ends = [len(t) for t in texts]
        with self.lock:
            self.budget += sum(ends)
        pos = [0] * self.n
        out: list = []
        if self.window is None:
            self.window = {}
        elif count is None and self.shape:
            self._read_window(texts, ends, pos, out)
        self._walk(texts, ends, count, pos, out)
        leftovers = sorted([self.labels[i] for i in range(self.n) if pos[i] != ends[i]])
        if leftovers:
            raise TrailingDataError(f"streams {leftovers} have digits left after {len(out)} symbols")
        return out

    def _table(self, i: int) -> tuple[dict, int, int]:
        """(lookahead table, channel, k) of node i, made once within what is left of the budget."""
        with self.lock:
            if self.tables[i] is not None:
                return self.tables[i]
            nodes, symbols, tables, classes = self.nodes, self.symbols, self.tables, self.classes

            def exit_id(node: Node) -> int:
                if isinstance(node, Internal):
                    nodes.append(node)
                    tables.append(None)
                    return len(nodes) - 1
                symbols.append(node.symbol if classes is None else classes[node.symbol])
                return ~(len(symbols) - 1)

            c = nodes[i].class_index
            chars = self.alphabets[c]
            cap = min(TABLE_LIMIT, self.budget)
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
            lengths = self.tails[c]
            while len(lengths) < k:
                lengths.append([t + d for t in lengths[-1] for d in chars])
            entries = {}
            for key, node, used in done:
                hit = (exit_id(node), used)
                if used == k:
                    entries[key] = hit
                else:
                    entries.update(dict.fromkeys([key + t for t in lengths[k - used]], hit))
            self.budget -= len(entries)
            tables[i] = (entries, c, k)
            return tables[i]

    def _walk(self, texts: list[str], ends: list[int], count: int | None, pos: list[int], out: list) -> None:
        """Read codewords through the node tables until the streams end at a boundary, or ``count`` are out."""
        tables, nodes, symbols, values, labels = self.tables, self.nodes, self.symbols, self.values, self.labels
        while pos != ends if count is None else len(out) != count:
            i = 0
            while True:
                entry = tables[i]
                if entry is None:
                    entry = self._table(i)
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
                    raise TruncationError(f"stream {labels[c]} exhausted inside codeword {len(out)}")
                node = node.children[values[c][texts[c][p]]]
                pos[c] = p + 1
            if isinstance(node, DummyLeaf):
                raise CorruptionError(
                    f"codeword {len(out)} routed to a padding slot (channel {labels[c]}, offset {p})"
                )
            out.append(node.symbol if self.classes is None else self.classes[node.symbol])

    def _read_window(self, texts: list[str], ends: list[int], pos: list[int], out: list) -> None:
        """Read whole runs of codewords through the root window until a key falls short."""
        a, b, ka, kb = self.shape
        width = ka + kb
        window = self.window
        get = window.get
        ta, tb = texts[a], texts[b]
        while True:
            pa, pb = pos[a], pos[b]
            key = ta[pa:pa + ka] + tb[pb:pb + kb]
            hit = get(key)
            while hit is not None:
                run, ua, ub = hit
                out += run
                pa += ua
                pb += ub
                key = ta[pa:pa + ka] + tb[pb:pb + kb]
                hit = get(key)
            pos[a], pos[b] = pa, pb
            if len(key) < width:
                return
            # a miss: codewords one at a time until one leaves the window or reads a third channel
            start, others = len(out), sum(pos) - pa - pb
            while pos != ends:
                la, lb = pos[a], pos[b]
                self._walk(texts, ends, len(out) + 1, pos, out)
                if pos[a] > pa + ka or pos[b] > pb + kb or sum(pos) - pos[a] - pos[b] != others:
                    if len(out) - 1 > start:
                        window[key] = (tuple(out[start:-1]), la - pa, lb - pb)
                    break
