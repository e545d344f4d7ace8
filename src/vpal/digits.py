"""Exact base-10 digit manipulation: reversal, generalized repunits, repeated concatenation.

All values are arbitrary-precision ints; digit strings are derived views,
never the source of truth.
"""

from __future__ import annotations

import re
import sys

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _lift_str_digit_limit() -> None:
    # CPython >= 3.10.7 caps int<->str conversions; this package works with
    # concatenations whose decimal length exceeds the default cap.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def decimal_string(n: int) -> str:
    """Decimal representation of ``n``, regardless of interpreter digit caps."""
    try:
        return str(n)
    except ValueError:
        _lift_str_digit_limit()
        return str(n)


def parse_decimal(s: str) -> int:
    """Parse a decimal string of unbounded length.

    Only ASCII digits with an optional sign and surrounding whitespace are
    accepted; unlike int(), no underscores and no non-ASCII digits.
    """
    s = s.strip()
    if not _DECIMAL.fullmatch(s):
        raise ValueError(f"not a decimal integer: {s!r}")
    try:
        return int(s)
    except ValueError:  # longer than the interpreter's int/str conversion cap
        _lift_str_digit_limit()
        return int(s)


def digit_count(n: int) -> int:
    """Number of decimal digits of a positive integer."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return len(decimal_string(n))


def digits_of(n: int) -> tuple[int, ...]:
    """Base-10 digits of ``n``, least significant first; leading digit is nonzero."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return tuple(int(c) for c in reversed(decimal_string(n)))


def reverse_digits(n: int) -> int:
    """Digit reversal of ``n``; trailing zeros of ``n`` collapse (100 -> 1)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    # ASCII digits, read by int() under the cap decimal_string lifted if n needed it
    return int(decimal_string(n)[::-1])


def repunit(k: int, block_len: int = 1) -> int:
    """The integer written as ``k`` ones separated by ``block_len - 1`` zeros.

    Equals (10**(block_len*k) - 1) // (10**block_len - 1): the base-10**block_len
    repunit with k ones. Multiplying an L-digit integer by repunit(k, L) repeats
    its digit string k times.
    """
    if k < 1 or block_len < 1:
        raise ValueError(f"expected k, block_len >= 1, got k={k}, block_len={block_len}")
    base = 10**block_len
    return (base**k - 1) // (base - 1)


def repeat_concat(n: int, k: int) -> int:
    """The integer whose decimal string is that of ``n`` written ``k`` times."""
    if n < 1 or k < 1:
        raise ValueError(f"expected n, k >= 1, got n={n}, k={k}")
    return n * repunit(k, digit_count(n))
