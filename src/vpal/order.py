"""Multiplicative orders and repunit entry orders.

For a prime p not in {2, 5}, repunit_order(p, alpha, L) is h(alpha), the
least k >= 1 such that p**alpha divides repunit(k, L). It is always >= 2.

Entry orders have a closed form, computed from the prime itself, factoring
only p - 1. Let t = ord_p(10), a divisor of p - 1, and d = t / gcd(L, t),
the order of 10**L modulo p. As repunit(k, L) * (10**L - 1) = 10**(kL) - 1,
p divides repunit(k, L) only if d | k. For such k, lifting the exponent
(p odd, p | 10**(dL) - 1) gives

    v_p(repunit(k, L)) = v_p(repunit(d, L)) + v_p(k / d) = v_p(repunit(d, L)) + v_p(k),

as p does not divide d | p - 1. So h(alpha) = d * p**max(0, alpha - x_d)
with x_d = v_p(repunit(d, L)). If d > 1, p divides 10**(dL) - 1 but not
10**L - 1, so x_d = v_p(10**(dL) - 1) >= 1 and h(1) = d. If d = 1,
x_d = 0, h(1) = p and v_p(repunit(p, L)) = 1 by the same lift. Either way,
with x = v_p(repunit(h(1), L)) = repunit_valuation(p, h(1), L),

    h(alpha) = h(1) * p**max(0, alpha - x).

Each factorize() here spends from the meter of the running call (see
factor.metered), so the caller's budget covers these factorizations too:
per command, and per n in a sweep; the meter keeps them for the rest of the
call. Only repunit_order's cache outlives a call.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .factor import factorize, metered


def _order_dividing(g: int, modulus: int, exponent: int) -> int:
    """Least e >= 1 with g**e == 1 (mod modulus), given g**exponent == 1 (mod modulus)."""
    order = exponent
    for q, _ in factorize(exponent):
        while order % q == 0 and pow(g, order // q, modulus) == 1:
            order //= q
    return order


@metered
def multiplicative_order(g: int, modulus: int, budget=None) -> int:
    """Least e >= 1 with g**e == 1 (mod modulus); g must be a unit.

    ``budget`` (a factor.Budget, or None) bounds both factorizations, of
    modulus and of Euler's phi(modulus), together.
    """
    if modulus < 2:
        raise ValueError(f"expected modulus >= 2, got {modulus}")
    g %= modulus
    if math.gcd(g, modulus) != 1:
        raise ValueError(f"{g} is not a unit modulo {modulus}")
    if g == 1:
        return 1
    phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(modulus))
    return _order_dividing(g, modulus, phi)


def _require_coprime_to_ten(p: int) -> None:
    if p in (2, 5):
        raise ValueError(f"undefined for p = {p} (not coprime to 10)")
    if p < 2:
        raise ValueError(f"expected a prime, got {p}")


def ten_power_valuation(p: int, L: int) -> int:
    """ord_p(10**L - 1) for a prime p not in {2, 5}, without building 10**L - 1."""
    _require_coprime_to_ten(p)
    if L < 1:
        raise ValueError(f"expected L >= 1, got {L}")
    return _ten_power_valuation(p, L)


def _ten_power_valuation(p: int, L: int, c: int = 0) -> int:
    """ten_power_valuation on arguments already checked, counting up from a c
    with p**c known to divide 10**L - 1."""
    while pow(10, L, p ** (c + 1)) == 1:
        c += 1
    return c


@lru_cache(maxsize=None)
def repunit_order(p: int, alpha: int, L: int) -> int:
    """Least k with p**alpha dividing repunit(k, L), in the closed form above.

    At alpha = 1, factorize(p) checks that p is prime and factorize(p - 1)
    gives ord_p(10). For alpha >= 2 it reads h(1) through this cache, and x
    from repunit_valuation as above. The oracle's rows (oracle._oracle_rows)
    hold h(1) and h(2) of each crucial prime, found by its own scan of the
    divisors of p - 1: the independent side of the check that compares them.
    """
    _require_coprime_to_ten(p)
    if alpha < 1 or L < 1:
        raise ValueError(f"expected alpha, L >= 1, got alpha={alpha}, L={L}")
    if alpha > 1:
        h = repunit_order(p, 1, L)
        return h * p ** max(0, alpha - repunit_valuation(p, h, L))
    if factorize(p) != ((p, 1),):
        raise ValueError(f"expected a prime, got {p}")
    t = _order_dividing(10, p, p - 1)
    d = t // math.gcd(L, t)
    return d if d > 1 else p


def repunit_valuation(p: int, k: int, block_len: int = 1) -> int:
    """ord_p(repunit(k, block_len)) = ord_p(10**(k*block_len) - 1) - ord_p(10**block_len - 1).

    Zero for p in {2, 5}: repunits end in 1. Zero after one modular power when
    p does not divide 10**(k*block_len) - 1, a multiple of the repunit; when it
    does, that power is the first step of the count, which goes on from 1.
    """
    if k < 1 or block_len < 1:
        raise ValueError(f"expected k, block_len >= 1, got k={k}, block_len={block_len}")
    if p in (2, 5):
        return 0
    _require_coprime_to_ten(p)
    kL = k * block_len
    if pow(10, kL, p) != 1:
        return 0
    return _ten_power_valuation(p, kL, 1) - _ten_power_valuation(p, block_len)


def repunit_order_rescaled(p: int, alpha: int, k: int, L: int) -> int:
    """repunit_order at block length L*k, computed from values at block length L.

    Uses the rescaling identity: with x = ord_p(repunit(k, L)) and
    H = repunit_order(p, alpha + x, L), the order at block length L*k is
    H / gcd(k, H). Must agree with repunit_order(p, alpha, L*k).
    """
    _require_coprime_to_ten(p)
    if alpha < 1 or k < 1 or L < 1:
        raise ValueError("expected alpha, k, L >= 1")
    x = repunit_valuation(p, k, L)
    big = repunit_order(p, alpha + x, L)
    return big // math.gcd(k, big)
