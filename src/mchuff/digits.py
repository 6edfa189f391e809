"""Digit-string rendering for channel alphabets.

Alphabets with up to 36 letters use one base-36 character per digit
("0"-"9" then "a"-"z"); larger alphabets fall back to comma-separated
decimal digits so fixtures stay printable either way.
"""

from __future__ import annotations

from collections.abc import Iterable

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


def tokens(text: str, q: int):
    """A digit string as a sequence of one item per digit: itself up to 36 letters, its tokens above."""
    return text if q <= 36 else tuple(filter(None, text.split(",")))


def length(text: str, q: int) -> int:
    """Number of alphabet symbols a digit string encodes."""
    if not text:
        return 0
    return len(text) if q <= 36 else text.count(",") + 1

