"""Exact base-10 digit manipulation: reversal, generalized repunits, repeated concatenation.

All values are arbitrary-precision ints; digit strings are derived views,
never the source of truth. Importing this module lifts CPython's int/str
conversion cap, so str() and int() serve every length.
"""

from __future__ import annotations

import re
import sys

# CPython >= 3.10.7 caps int<->str conversions at 4,300 digits (CVE-2020-10735).
# n(k), its cofactors and the messages that name them run past it, also outside
# this module, so the cap is lifted once, at import, for the whole process.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def decimal_string(n: int) -> str:
    """Decimal representation of ``n``, of any length."""
    return str(n)


def parse_decimal(s: str) -> int:
    """Parse a decimal string of unbounded length.

    Only ASCII digits with an optional sign and surrounding whitespace are
    accepted; unlike int(), no underscores and no non-ASCII digits.
    """
    s = s.strip()
    if not _DECIMAL.fullmatch(s):
        raise ValueError(f"not a decimal integer: {s!r}")
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
