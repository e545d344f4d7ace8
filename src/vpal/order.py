"""Multiplicative orders and repunit entry orders.

For a prime p not in {2, 5}, repunit_order(p, alpha, L) is the order of
10**L in the unit group modulo p**(alpha + c) with c the p-adic valuation of
10**L - 1. Equivalently (and this is how the rest of the package uses it):
the least k >= 1 such that p**alpha divides repunit(k, L). It is always >= 2.

Entry orders are computed from the prime itself, factoring only p - 1. The
order d of g = 10**L modulo p is ord_p(10) / gcd(L, ord_p(10)), and ord_p(10)
divides p - 1. The order of g modulo p**e is then d * p**j for the least j
with g**(d * p**j) == 1 (mod p**e), and j <= e - 1. Proof: reduction mod p
sends g to an element of order d, so d divides ord(g) and ord(g) =
d * ord(g**d); g**d lies in the kernel of (Z/p**e)^x -> (Z/p)^x, a group of
order p**(e-1), so ord(g**d) = p**j with j <= e - 1.

Each factorize() here spends from the meter of the running call (see
factor.metered), so the caller's budget covers these factorizations too:
per command, and per n in a sweep. ord_p(10) is kept per prime once found,
under whichever meter found it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .factor import Factorization, factorize, is_probable_prime, metered

# p -> ord_p(10) for primes p outside {2, 5}.
_ORDER_OF_TEN: dict[int, int] = {}


def _carmichael(f: Factorization) -> int:
    """Carmichael function (group exponent of the units) from a factorization."""
    lam = 1
    for p, e in f:
        if p == 2:
            part = 1 if e == 1 else 2 if e == 2 else 2 ** (e - 2)
        else:
            part = p ** (e - 1) * (p - 1)
        lam = math.lcm(lam, part)
    return lam


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
    modulus and of its Carmichael exponent, together.
    """
    if modulus < 2:
        raise ValueError(f"expected modulus >= 2, got {modulus}")
    g %= modulus
    if math.gcd(g, modulus) != 1:
        raise ValueError(f"{g} is not a unit modulo {modulus}")
    if g == 1:
        return 1
    return _order_dividing(g, modulus, _carmichael(factorize(modulus)))


def _require_coprime_to_ten(p: int) -> None:
    if p in (2, 5):
        raise ValueError(f"undefined for p = {p} (not coprime to 10)")
    if p < 2:
        raise ValueError(f"expected a prime, got {p}")


def _order_of_ten(p: int) -> int:
    """ord_p(10) for a prime p outside {2, 5}, from factorize(p - 1)."""
    order = _ORDER_OF_TEN.get(p)
    if order is None:
        if not is_probable_prime(p):
            raise ValueError(f"expected a prime, got {p}")
        order = _ORDER_OF_TEN[p] = _order_dividing(10, p, p - 1)
    return order


def ten_power_valuation(p: int, L: int) -> int:
    """ord_p(10**L - 1) for a prime p not in {2, 5}, without building 10**L - 1."""
    _require_coprime_to_ten(p)
    if L < 1:
        raise ValueError(f"expected L >= 1, got {L}")
    return _ten_power_valuation(p, L)


def _ten_power_valuation(p: int, L: int) -> int:
    """ten_power_valuation on arguments already checked."""
    c = 0
    while pow(10, L, p ** (c + 1)) == 1:
        c += 1
    return c


@lru_cache(maxsize=None)
def repunit_order(p: int, alpha: int, L: int) -> int:
    """Least k with p**alpha dividing repunit(k, L); order of 10**L as described above.

    Starts from the order of 10**L modulo p and multiplies by p until 10**L
    raised to it is 1 modulo p**e, e = alpha + ten_power_valuation(p, L): at
    most e - 1 steps, since the units that are 1 modulo p form a p-group of
    order p**(e-1) (proof in the module docstring).
    """
    _require_coprime_to_ten(p)
    if alpha < 1 or L < 1:
        raise ValueError(f"expected alpha, L >= 1, got alpha={alpha}, L={L}")
    modulus = p ** (alpha + ten_power_valuation(p, L))
    g = pow(10, L, modulus)
    t = _order_of_ten(p)
    order = t // math.gcd(L, t)
    while pow(g, order, modulus) != 1:
        order *= p
    return order


def repunit_valuation(p: int, k: int, block_len: int = 1) -> int:
    """ord_p(repunit(k, block_len)) = ord_p(10**(k*block_len) - 1) - ord_p(10**block_len - 1).

    Zero for p in {2, 5}: repunits end in 1. Zero after one modular power when
    p does not divide 10**(k*block_len) - 1, a multiple of the repunit.
    """
    if k < 1 or block_len < 1:
        raise ValueError(f"expected k, block_len >= 1, got k={k}, block_len={block_len}")
    if p in (2, 5):
        return 0
    _require_coprime_to_ten(p)
    if pow(10, k * block_len, p) != 1:
        return 0
    return _ten_power_valuation(p, k * block_len) - _ten_power_valuation(p, block_len)


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
