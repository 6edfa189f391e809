"""Decoding trees for multi-channel codes and their analysis.

An internal node of class ``i`` reads one symbol from channel ``i`` and
has exactly ``q_i`` child slots; unused slots hold explicit dummy leaves
so Kraft accounting stays visible. Nodes are frozen dataclasses, so trees
are immutable and safe to share. Codewords come from one iterative walk,
``leaf_codewords``, which carries each node's per-channel digit strings
down the tree; ``digits``, the one module that states how a digit is
written, labels, counts and reads them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from . import digits
from .core import Distribution, as_sizes, entropy, ordered_sum


@dataclass(frozen=True)
class Leaf:
    symbol: int


@dataclass(frozen=True)
class DummyLeaf:
    pass


@dataclass(frozen=True)
class Internal:
    class_index: int
    children: tuple["Node", ...]


Node = Internal | Leaf | DummyLeaf


@dataclass(frozen=True)
class Codebook:
    """Per-symbol codewords; ``words[j][i]`` is symbol j's digits on channel i.

    Construction checks every word, a channel's column at a time.
    ``columns[i]`` holds channel i's strings as a list (fast to index; never changed).
    """

    words: tuple[tuple[str, ...], ...]
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.sizes)
        try:
            valid = (
                all(type(q) is int and q >= 2 for q in self.sizes)
                and all(len(word) == n for word in self.words)
                and all(map(digits.all_valid, zip(*self.words), self.sizes))
            )
        except (TypeError, ValueError):  # a non-string component, or a decimal digit too long for int
            valid = False
        if valid:
            return
        # word by word, so that the first fault is the one reported
        for j, word in enumerate(self.words):
            if len(word) != len(self.sizes):
                raise ValueError(f"word {j} has {len(word)} components for {len(self.sizes)} channels")
            tuple(map(digits.parse, word, self.sizes))
        if any(q < 2 for q in self.sizes):
            raise ValueError("every channel alphabet size must be at least 2")
        if any(type(q) is not int for q in self.sizes):
            raise ValueError(f"every channel alphabet size must be an integer, got {self.sizes!r}")

    @functools.cached_property
    def columns(self) -> tuple[list[str], ...]:
        return tuple([word[i] for word in self.words] for i in range(len(self.sizes)))

    @property
    def m(self) -> int:
        return len(self.words)

    @property
    def n(self) -> int:
        return len(self.sizes)

    def length_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Each word's ``digits.length`` per channel, counted a column at a time."""
        counts = list(map(digits.lengths, self.columns, self.sizes))
        return tuple(zip(*counts)) if counts else ((),) * self.m


@dataclass(frozen=True)
class _Opened:
    """Below a node's children on ``validate_tree``'s stack: its path, message count and real leaves so far."""

    path: str
    at: int
    reals: int


def validate_tree(root: Node, profile, m: int) -> list[str]:
    """Check structural invariants; returns violations with node paths (empty list = valid).

    One walk without recursion carries each node's path down; messages come in
    pre-order. A node without a real leaf below it is reported when its ``_Opened``
    record, pushed below its children, comes off the stack, ahead of their messages.
    """
    sizes = as_sizes(profile)
    violations: list[str] = []
    seen: dict[int, str] = {}
    reals = 0  # real leaves walked so far, and those under nodes of an unknown class
    stack: list = [(root, "root")]
    while stack:
        item = stack.pop()
        if type(item) is _Opened:
            if reals == item.reals:
                violations.insert(item.at, f"{item.path}: internal node has no non-dummy descendant")
            continue
        node, path = item
        if isinstance(node, Leaf):
            reals += 1
            if not 0 <= node.symbol < m:
                violations.append(f"{path}: symbol {node.symbol} out of range 0..{m - 1}")
            elif node.symbol in seen:
                violations.append(f"{path}: symbol {node.symbol} already placed at {seen[node.symbol]}")
            else:
                seen[node.symbol] = path
        elif isinstance(node, Internal):
            if not 0 <= node.class_index < len(sizes):
                violations.append(f"{path}: class {node.class_index} out of range for {len(sizes)} channels")
                reals += count_leaves(node)
                continue
            q = sizes[node.class_index]
            if len(node.children) != q:
                violations.append(
                    f"{path}: class {node.class_index} needs exactly {q} child slots, has {len(node.children)}"
                )
            stack.append(_Opened(path, len(violations), reals))
            stack += reversed([(child, f"{path}.children[{k}]") for k, child in enumerate(node.children)])
        elif not isinstance(node, DummyLeaf):
            violations.append(f"{path}: unknown node type {type(node).__name__}")
    # with no violations every placed symbol is in range and placed once
    if not violations and len(seen) < m:
        missing = sorted(set(range(m)) - set(seen))
        violations.append(f"symbols missing from tree: {missing}")
    return violations


def count_leaves(root: Node) -> int:
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            count += 1
        elif isinstance(node, Internal):
            stack.extend(node.children)
    return count


def leaf_codewords(
    root: Node, sizes: Sequence[int], m: int
) -> tuple[list[tuple[str, ...]], list[int], list[int]]:
    """Per-channel digit strings along each root-to-leaf path, in one walk without recursion.

    ``root`` must hold leaves for exactly the symbols 0..m-1. Returns the
    codewords indexed by symbol, each leaf's depth (the digits read on all
    channels) and the padding leaves' depths. A child's string on its
    parent's channel is the parent's plus one digit's label from
    ``digits.labels``.
    """
    labels: list = [None] * len(sizes)  # per channel: labels of a first digit and of later ones
    words: list[tuple[str, ...]] = [()] * m
    depths = [0] * m
    dummy_depths: list[int] = []
    stack = [(root, 0, ("",) * len(sizes))]
    while stack:
        node, depth, word = stack.pop()
        if type(node) is Leaf:
            words[node.symbol] = word
            depths[node.symbol] = depth
        elif type(node) is DummyLeaf:
            dummy_depths.append(depth)
        else:
            i = node.class_index
            if labels[i] is None:
                labels[i] = digits.labels(sizes[i])
            head, digits_so_far, tail = word[:i], word[i], word[i + 1:]
            depth += 1
            stack += [
                (child, depth, head + (digits_so_far + label,) + tail)
                for child, label in zip(node.children, labels[i][1 if digits_so_far else 0])
            ]
    return words, depths, dummy_depths


def codebook_from_tree(root: Node, profile) -> Codebook:
    """Concatenate branch digits per channel along each root-to-leaf path.

    Dummy leaves produce no codeword; the extracted code is always a prefix
    code because any two leaves diverge at their lowest common ancestor.
    """
    sizes = as_sizes(profile)
    m = count_leaves(root)
    problems = validate_tree(root, sizes, m)
    if problems:
        raise ValueError("invalid decoding tree: " + problems[0])
    words, _, _ = leaf_codewords(root, sizes, m)
    return Codebook(words=tuple(words), sizes=sizes)


def _post_order(root: Node, dist: Distribution, visit, paths: bool = False) -> None:
    """Call ``visit(path, weight, child weights)`` at each internal node, in post-order.

    Weights are ints over ``dist.scale``; paths are built only if ``paths`` is set.
    A leaf set other than the distribution's symbols raises after the walk,
    in which out-of-range symbols weigh 0.
    """
    symbols: list[int] = []
    weights, m = dist.weights, dist.m

    def walk(node: Node, path: str) -> int:
        if isinstance(node, Leaf):
            symbols.append(node.symbol)
            return weights[node.symbol] if 0 <= node.symbol < m else 0
        if isinstance(node, DummyLeaf):
            return 0
        child_weights = []
        for i, c in enumerate(node.children):
            child_weights.append(walk(c, f"{path}.children[{i}]" if paths else path))
        s = sum(child_weights)
        visit(path, s, child_weights)
        return s

    walk(root, "root")
    if sorted(symbols) != list(range(m)):
        raise ValueError("tree leaves do not match the distribution's symbols")


def expected_length(root: Node, dist: Distribution) -> float:
    """Expected codeword length in nats.

    Sums, over internal nodes, the probability of reaching the node times
    the log of its branch count; bookkeeping-wise this equals the direct
    mass-weighted sum of codeword description lengths.
    """
    terms: list[float] = []
    _post_order(root, dist, lambda _, s, cws: terms.append(s / dist.scale * math.log(len(cws))))
    return ordered_sum(terms)


@dataclass(frozen=True)
class NodeRedundancy:
    path: str
    reaching_probability: float
    branching_entropy: float
    alphabet_size: int
    local_redundancy: float


@dataclass(frozen=True)
class RedundancyReport:
    nodes: tuple[NodeRedundancy, ...]
    expected_length: float
    entropy: float
    total_redundancy: float


def local_redundancy(root: Node, dist: Distribution) -> RedundancyReport:
    """Per-node waste ``r = s (ln alpha - h)`` and the totals it decomposes.

    ``s`` is the probability of reaching the node and ``h`` the entropy of
    its conditional branching distribution, so the redundancies sum to the
    gap between expected length and source entropy. The conditional
    entropies are cross-checked against the source entropy and the call
    refuses to return inconsistent numbers.
    """
    paths, terms, h_source, total_r = _redundancy(root, dist, paths=True)
    records = tuple(NodeRedundancy(path, *term) for path, term in zip(paths, terms))
    length_total = ordered_sum(n.reaching_probability * math.log(n.alphabet_size) for n in records)
    return RedundancyReport(records, length_total, h_source, total_r)


def redundancy_totals(root: Node, dist: Distribution) -> tuple[float, float]:
    """``local_redundancy``'s ``entropy`` and ``total_redundancy``, bit for bit, without its per-node records."""
    return _redundancy(root, dist)[2:]


def _redundancy(root: Node, dist: Distribution, paths: bool = False):
    """``local_redundancy``'s arithmetic: per internal node in post-order, its path (only if
    ``paths`` is set) and ``(s, h, alpha, r)``; then the source entropy and the summed
    redundancy, once the branching entropies are seen to add up to the former.
    """
    names: list[str] = []
    terms: list[tuple[float, float, int, float]] = []

    def record(path: str, s: int, child_weights: list[int]) -> None:
        sf = s / dist.scale
        alpha = len(child_weights)
        # the branching entropy as ``entropy`` adds it: left to right, skipping 0.0
        total = 0.0
        for cw in child_weights:
            if cw and (f := cw / s):
                total += f * math.log(f)
        h = -total + 0.0
        if paths:
            names.append(path)
        terms.append((sf, h, alpha, sf * (math.log(alpha) - h)))

    _post_order(root, dist, record, paths)
    entropy_total = ordered_sum(s * h for s, h, _, _ in terms)
    h_source = entropy(dist)
    if abs(entropy_total - h_source) > 1e-9:
        raise ArithmeticError(
            f"conditional branching entropies sum to {entropy_total}, "
            f"but the source entropy is {h_source}"
        )
    return names, terms, h_source, ordered_sum(r for _, _, _, r in terms)


class PrefixFreeViolation(ValueError):
    """A claimed prefix code contains a pair that is not prefix-free."""

    def __init__(self, first: int, second: int):
        super().__init__(f"codewords {first} and {second} are not prefix-free")
        self.pair = (first, second)


def tree_from_codebook(cb: Codebook) -> Node:
    """A decoding tree for a codebook of any channel count, built without recursion.

    Each group of words is split by its first digit on the lowest channel
    that every word of the group has digits left on, an empty part becoming
    a dummy leaf, until it is one word with no digits left, a leaf. A tree
    that decodes the group can always read such a channel first, so the
    rule finds a tree whenever one exists. Groups are visited depth first in
    digit order. At the first group of two or more words with no such
    channel, one or two channels prove the code is not prefix-free, and the
    error names a pair of its words; on three or more channels the code is
    not tree-decodable.
    """
    if cb.m == 0:
        raise ValueError("empty codebook")
    sizes = cb.sizes
    # per channel: each word's digits, one letter each, their count, and a letter's value
    words = [[digits.to_letters(c, q) for c in column] for column, q in zip(cb.columns, sizes)]
    lengths = [list(map(len, column)) for column in words]
    values = [digits.alphabet(q).values for q in sizes]
    built: list[Node] = []
    # a group is its word indices, ascending, and the digits read on each channel; an int i
    # marks where the q_i nodes on top of ``built`` become the children of a node reading i
    stack: list = [(range(cb.m), (0,) * cb.n)]
    while stack:
        item = stack.pop()
        if type(item) is int:
            children = tuple(built[-sizes[item]:])
            del built[-sizes[item]:]
            built.append(Internal(item, children))
            continue
        group, read = item
        if not group:
            built.append(DummyLeaf())
            continue
        i = next((i for i, d in enumerate(read) if min(map(lengths[i].__getitem__, group)) > d), None)
        if i is None and len(group) == 1:
            built.append(Leaf(group[0]))
            continue
        if i is None and cb.n > 2:
            raise ValueError(
                "code is not tree-decodable "
                "(every channel has a codeword with an empty component); cannot decode"
            )
        if i is None:
            # a word with no digit left and the first other, or the first with none left on each channel
            spent = [{j for j in group if lengths[c][j] == d} for c, d in enumerate(read)]
            both = set(group).intersection(*spent)
            if both:
                pair = (group[0], group[1] if group[0] in both else min(both))
            else:
                pair = sorted(map(min, spent))
            raise PrefixFreeViolation(*pair)
        parts: list[list[int]] = [[] for _ in range(sizes[i])]
        column, value, d = words[i], values[i], read[i]
        for j in group:
            parts[value[column[j][d]]].append(j)
        stack.append(i)
        stack += [(part, read[:i] + (d + 1,) + read[i + 1:]) for part in reversed(parts)]
    return built[0]


def tree_to_obj(root: Node) -> dict:
    """Tree as JSON-ready nested objects."""
    if isinstance(root, Leaf):
        return {"symbol": root.symbol}
    if isinstance(root, DummyLeaf):
        return {"dummy": True}
    return {"class": root.class_index, "children": [tree_to_obj(c) for c in root.children]}


def tree_to_json(root: Node, channels: Sequence[int], mapping: Sequence[int]) -> str:
    """tree.json text, written in one walk of the tree without recursion.

    For a tree whose internal nodes have children, as every tree built here
    does, this equals ``json.dumps({"channels": list(channels), "root":
    tree_to_obj(map_classes(root, mapping))}, indent=2, sort_keys=True)``
    without building the mapped tree or its dict form; before Python 3.13
    that call also indents in json's pure-Python encoder.
    """
    items = ",\n    ".join(str(q) for q in channels)
    pieces = ['{\n  "channels": [\n    ', items, '\n  ],\n  "root": ']
    # the object of a node at depth d is indented 2 d + 1 levels deep
    levels: list[tuple[str, ...]] = []
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        node, depth = item
        if depth == len(levels):
            outer, inner, child = ("  " * (2 * depth + k) for k in (1, 2, 3))
            levels.append((
                f'{{\n{inner}"symbol": ',
                f"\n{outer}}}",
                f'{{\n{inner}"dummy": true\n{outer}}}',
                f'{{\n{inner}"children": [\n{child}',
                f",\n{child}",
                f'\n{inner}],\n{inner}"class": ',
            ))
        leaf, closing, dummy, internal, separator, class_key = levels[depth]
        if isinstance(node, Leaf):
            pieces += (leaf, str(node.symbol), closing)
        elif isinstance(node, DummyLeaf):
            pieces.append(dummy)
        else:
            pieces.append(internal)
            stack.append(f"{class_key}{mapping[node.class_index]}{closing}")
            for child in reversed(node.children[1:]):
                stack += ((child, depth + 1), separator)
            stack.append((node.children[0], depth + 1))
    pieces.append("\n}")
    return "".join(pieces)


def tree_from_obj(obj) -> Node:
    """Parse the nested-object form back into a tree, in one walk without recursion.

    A node object holds exactly the keys of its shape: ``symbol`` for a
    leaf, ``dummy`` for a padding leaf, ``class`` and ``children`` for an
    internal node. Any other key set is rejected. Nodes are checked in
    pre-order, so the error raised is the first bad node's.
    """
    return _read_tree(obj, ())[0]


# a padding slot as tree.json writes it, and the one padding leaf every read shares
_PADDING_OBJ = {"dummy": True}
_PADDING = DummyLeaf()
# on ``_read_tree``'s stack: the children above it are built, so their parent can be
_CLOSE = object()


def _read_tree(obj, sizes: Sequence[int]) -> tuple[Node, bool]:
    """``tree_from_obj``'s tree, and whether ``validate_tree(tree, sizes, count_leaves(tree))`` finds nothing.

    The walk gathers what validation judges: each internal node's class
    and child count, whether a node's slots are all padding, and the leaf
    symbols. The tree is valid exactly when every class is in range with as
    many children as its channel's size, no node's slots are all padding
    (the lowest node of a subtree without a real leaf would be one), and
    the symbols are 0..L-1 for L leaves.
    """
    built: list[Node] = []
    opened: list[tuple[int, int]] = []  # (class, child count) of the nodes whose children are being read
    shapes: set[tuple[int, int]] = set()
    symbols: list[int] = []
    hollow = False
    stack = [obj]
    # the exact types json.loads makes are let through before the general checks
    pop, extend, put, add_symbol = stack.pop, stack.extend, built.append, symbols.append
    while stack:
        obj = pop()
        if obj is _CLOSE:
            ci, k = opened.pop()
            children = tuple(built[-k:])
            del built[-k:]
            put(Internal(ci, children))
            continue
        if type(obj) is not dict and not isinstance(obj, dict):
            raise ValueError(f"tree node must be an object, got {type(obj).__name__}")
        keys = len(obj)
        if keys == 1 and "symbol" in obj:
            sym = obj["symbol"]
            if type(sym) is not int and (not isinstance(sym, int) or isinstance(sym, bool)):
                raise ValueError("leaf symbol must be an integer")
            add_symbol(sym)
            put(Leaf(sym))
        elif keys == 1 and obj.get("dummy") is True:
            put(_PADDING)
        elif keys == 2 and "class" in obj and "children" in obj:
            ci = obj["class"]
            if type(ci) is not int and (not isinstance(ci, int) or isinstance(ci, bool)):
                raise ValueError("node class must be an integer")
            children = obj["children"]
            if not isinstance(children, list) or not children:
                raise ValueError("children must be a non-empty list")
            shape = (ci, len(children))
            opened.append(shape)
            shapes.add(shape)
            # a padding slot's object equals _PADDING_OBJ; any other equal object fails its own check
            hollow = hollow or children.count(_PADDING_OBJ) == shape[1]
            stack.append(_CLOSE)
            extend(reversed(children))
        else:
            raise ValueError(f"unrecognized tree node object with keys {sorted(obj)}")
    clean = (
        not hollow
        and all(0 <= ci < len(sizes) and sizes[ci] == k for ci, k in shapes)
        and set(symbols) == set(range(len(symbols)))
    )
    return built[0], clean


def map_classes(root: Node, mapping: Sequence[int]) -> Node:
    """Relabel internal-node channels, e.g. canonical order back to a caller's order."""
    if isinstance(root, Internal):
        return Internal(mapping[root.class_index], tuple(map_classes(c, mapping) for c in root.children))
    return root
