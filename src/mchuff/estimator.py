"""Scikit-learn style front door: fit a code on symbol data, transform to streams.

The class follows sklearn conventions (constructor parameters mirrored by
``get_params``/``set_params``, fitted attributes with a trailing
underscore) so it slots into sklearn pipelines, without requiring
scikit-learn itself.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

from . import digits
from .codec import _Reader
from .core import ChannelProfile, Distribution, entropy
from .heuristics import construct
from .tree import Codebook, leaf_codewords


def _columns_by_symbol(codebook, classes: tuple) -> tuple:
    """(codebook, classes, one dict per canonical channel from ``classes[j]`` to symbol j's component)."""
    return codebook, classes, [dict(zip(classes, column)) for column in codebook.columns]


class NotFittedError(ValueError):
    """transform/inverse_transform called before fit."""


class MultiChannelHuffmanCoder:
    """Build a tree-decodable code from symbol data and encode it channel-wise.

    Parameters
    ----------
    channels:
        Alphabet size per channel, e.g. ``(2, 3)`` for one binary and one
        ternary stream.
    method, metric, channel:
        Passed to ``construct``, which documents them. The default,
        ``method="optimal"``, searches every admissible merge sequence, so
        its time grows exponentially with the number of distinct symbols: a
        fit on channels ``(3, 2, 5)`` with 40 distinct symbols ran for over
        90 s. For large alphabets use ``method="suboptimal"``, which is
        never worse than any single-channel Huffman code.

    Attributes set by fit: ``classes_`` (symbols, least frequent first),
    ``distribution_``, ``profile_``, ``tree_``, ``codebook_``,
    ``merge_sequence_``, ``expected_length_``, ``entropy_``.
    """

    def __init__(self, channels=(2, 3), *, method="optimal", metric="huffman_completion", channel=0):
        self.channels = channels
        self.method = method
        self.metric = metric
        self.channel = channel

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(channels={tuple(self.channels)!r}, method={self.method!r}, "
            f"metric={self.metric!r}, channel={self.channel!r})"
        )

    # sklearn-compatible parameter plumbing
    def get_params(self, deep: bool = True) -> dict:
        return {
            "channels": self.channels,
            "method": self.method,
            "metric": self.metric,
            "channel": self.channel,
        }

    def set_params(self, **params) -> "MultiChannelHuffmanCoder":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def fit(self, X, y=None) -> "MultiChannelHuffmanCoder":
        """Learn a code from a symbol sequence or a symbol -> weight mapping."""
        symbols, weights = self._tally(X)
        profile = ChannelProfile.from_sizes(tuple(self.channels))
        total = sum(weights, Fraction(0))
        dist = Distribution.from_masses([w / total for w in weights])
        result = construct(dist, profile, self.method, metric=self.metric, channel=self.channel)

        self.profile_ = profile
        self.distribution_ = dist
        self.classes_ = tuple(symbols[dist.input_order[j]] for j in range(dist.m))
        self.tree_ = result.tree
        self._reader = _Reader(result.tree, profile.n, profile.user_order, self.classes_)
        # construct's tree holds exactly the symbols 0..m-1, so its codewords need no tree check
        self.codebook_ = Codebook(tuple(leaf_codewords(result.tree, profile.sizes, dist.m)[0]), profile.sizes)
        self._columns = _columns_by_symbol(self.codebook_, self.classes_)
        self.merge_sequence_ = result.sequence
        self.expected_length_ = result.expected_length
        self.entropy_ = entropy(dist)
        return self

    def transform(self, X) -> tuple[str, ...]:
        """Encode symbols into one digit string per channel, in the caller's channel order.

        Each fit keeps one dict per channel from fitted symbol to its
        codeword component, so every stream is joined straight from the
        symbols. The dicts are remade when ``codebook_`` or ``classes_`` has
        been replaced, told by identity.
        """
        self._check_fitted()
        symbols = list(X)
        book, classes, columns = self._columns
        if book is not self.codebook_ or classes is not self.classes_:
            book, classes, columns = self._columns = _columns_by_symbol(self.codebook_, self.classes_)
        try:
            canonical = [digits.join(map(column.__getitem__, symbols), q)
                         for column, q in zip(columns, book.sizes)]
        except KeyError:
            seen = columns[0]
            pos, sym = next((pos, sym) for pos, sym in enumerate(symbols) if sym not in seen)
            raise ValueError(f"symbol {sym!r} at position {pos} was not seen during fit") from None
        return tuple(canonical[c] for c in self.profile_.canonical_index)

    def inverse_transform(self, streams) -> list:
        """Decode channel streams (caller's channel order) back into symbols.

        Each fit keeps one reader, so its lookahead tables and root window
        serve every later call; its leaves read out as the fitted symbols, so
        its result is returned as it is. It is remade when ``tree_`` or
        ``classes_`` has been replaced, told by identity. Errors name the
        caller's streams.
        """
        self._check_fitted()
        streams = tuple(streams)
        n, order = self.profile_.n, self.profile_.user_order
        if len(streams) != n:
            raise ValueError(f"expected {n} streams, got {len(streams)}")
        reader = self._reader
        # told by identity: tree hashing recurses, and a tuple compare is a pass over the classes
        if reader.root is not self.tree_ or reader.classes is not self.classes_:
            reader = self._reader = _Reader(self.tree_, n, order, self.classes_)
        return reader.read(tuple(streams[u] for u in order))

    def fit_transform(self, X, y=None) -> tuple[str, ...]:
        return self.fit(X, y).transform(X)

    @staticmethod
    def _tally(X) -> tuple[list, list[Fraction]]:
        if isinstance(X, Mapping):
            pairs = [(sym, Fraction(w)) for sym, w in X.items()]
            if any(w <= 0 for _, w in pairs):
                raise ValueError("symbol weights must be positive")
        else:
            pairs = [(sym, Fraction(c)) for sym, c in Counter(X).items()]
        if not pairs:
            raise ValueError("cannot fit on an empty symbol sequence")
        if len(pairs) < 2:
            raise ValueError("need at least two distinct symbols to build a streamable code")
        symbols = [sym for sym, _ in pairs]
        weights = [w for _, w in pairs]
        return symbols, weights

    def _check_fitted(self) -> None:
        if not hasattr(self, "tree_"):
            raise NotFittedError(f"{type(self).__name__} is not fitted yet; call fit first")
