"""How a digit string is written: the one module that states the format.

Alphabets with up to 36 letters use one base-36 character per digit
("0"-"9" then "a"-"z"); larger alphabets fall back to comma-separated
decimal digits so fixtures stay printable either way. Other modules join,
count, label and read digit strings only through the functions here, and
read them in one form, ``to_letters``': one character per digit.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from typing import NamedTuple

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_VALUE = {c: v for v, c in enumerate(_ALPHABET)}
# per alphabet size q <= 36, a translation that deletes the q digit characters
_DELETE_DIGITS = [str.maketrans("", "", _ALPHABET[:q]) for q in range(37)]


def render(values: Iterable[int], q: int) -> str:
    vals = list(values)
    for v in vals:
        if not 0 <= v < q:
            raise ValueError(f"digit {v} out of range for alphabet size {q}")
    if q <= 36:
        return "".join(_ALPHABET[v] for v in vals)
    return ",".join(str(v) for v in vals)


def parse(text: str, q: int) -> tuple[int, ...]:
    if not isinstance(text, str):
        raise TypeError(f"a digit string must be a str, got {text!r}")
    if not text:
        return ()
    if q <= 36:
        try:
            vals = tuple(_CHAR_VALUE[c] for c in text)
        except KeyError as exc:
            raise ValueError(f"invalid digit {exc.args[0]!r} for alphabet size {q}") from None
    else:
        tokens = text.split(",")
        if not all(map(_decimal_digit, set(tokens))):
            raise ValueError(f"invalid digit list {text!r} for alphabet size {q}")
        vals = tuple(map(int, tokens))
    if vals and max(vals) >= q:  # every digit read is at least 0
        bad = next(v for v in vals if v >= q)
        raise ValueError(f"digit {bad} out of range for alphabet size {q}")
    return vals


def all_valid(texts: Iterable[str], q: int) -> bool:
    """Whether ``parse`` accepts every string of ``texts`` on an alphabet of int size q >= 2.

    The strings are checked joined: base-36 digits all lie among the first
    q letters, at C speed; decimal lists are joined with commas, and each
    distinct token is judged once, as ``parse`` judges it, and must be
    below q. A non-string raises TypeError, and a decimal digit too long
    for ``int`` ValueError.
    """
    if q <= 36:
        return not "".join(texts).translate(_DELETE_DIGITS[q])
    joined = ",".join(filter(str.__len__, texts))  # drops empty strings; a non-string raises TypeError
    return not joined or all(_decimal_digit(t) and int(t) < q for t in set(joined.split(",")))


def _decimal_digit(token: str) -> bool:
    """Whether ``token`` is one digit as ``render`` writes it above 36 letters: ASCII, no leading 0."""
    return token.isascii() and token.isdigit() and (token[0] != "0" or token == "0")


def length(text: str, q: int) -> int:
    """Number of alphabet symbols a digit string encodes."""
    return len(text) if q <= 36 else text.count(",") + bool(text)


def lengths(texts: list[str], q: int) -> Iterable[int]:
    """``length`` of each string of ``texts``, counted at C speed."""
    if q <= 36:
        return map(len, texts)
    # a comma before every digit but the first; an empty string has none
    return map(int.__add__, map(str.count, texts, itertools.repeat(",")), map(bool, texts))


def join(parts: Iterable[str], q: int) -> str:
    """The digit string of ``parts``' digits in order: ``render`` of their values concatenated."""
    return "".join(parts) if q <= 36 else ",".join(filter(None, parts))


def labels(q: int) -> tuple[list[str], list[str]]:
    """What appending digit d adds to a string: ``first[d]`` to an empty one, ``later[d]`` to any other."""
    first = [render((d,), q) for d in range(q)]
    return first, first if q <= 36 else ["," + label for label in first]


class Alphabet(NamedTuple):
    """A q-ary alphabet in ``to_letters``' form, as ``alphabet`` makes it."""

    letters: str  # one per digit, in digit order
    values: dict[str, int]  # each letter's digit
    tokens: dict[str, str]  # each decimal token's letter, read above 36 letters


@functools.lru_cache(maxsize=16)  # a process meets few alphabet sizes; callers only read the dicts
def alphabet(q: int) -> Alphabet:
    letters = _ALPHABET[:q] if q <= 36 else "".join(map(chr, range(q)))
    return Alphabet(letters, dict(zip(letters, range(q))), dict(zip(map(str, range(q)), letters)))


def to_letters(text: str, q: int) -> str:
    """``text`` with one letter of ``alphabet(q)`` per digit; raises as ``parse`` raises on what it rejects.

    A base-36 string is checked at C speed and kept, a decimal list read through ``tokens``.
    """
    if isinstance(text, str):
        try:
            if q > 36:
                return text and "".join(map(alphabet(q).tokens.__getitem__, text.split(",")))
            if not text.translate(_DELETE_DIGITS[q]):
                return text
        except KeyError:
            pass
    # parse raises the reason: not a str, a bad digit, or one out of range
    return "".join(map(alphabet(q).letters.__getitem__, parse(text, q)))
