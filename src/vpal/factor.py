"""Budgeted integer factorization, p-adic valuation, and the arithmetic function v.

v(n) sums p + a over prime-power divisors p**a with a >= 2 and p over primes
of exponent 1; v(1) = 0. In every factorization this module returns, the
product reconstructs the input exactly and each recorded prime passes
is_probable_prime: a proof below psi_13 ~ 3.3e24, BPSW-probable above.

Factorization pipeline: trial division by the primes below 10**4 (one at a
time through the first block of 32 primes, then one gcd per block that skips
the blocks sharing no factor with the cofactor), the primality test
(Miller-Rabin with the first t prime bases below psi_t, joined by a strong
Lucas test above psi_13), then Pollard-Brent rho with deterministic parameter
restarts under a wall-clock plus iteration budget.

One budget bounds all the factoring of a call: a public entry point decorated
with ``metered`` starts one meter for its ``budget`` argument, and every
factorize() below it spends from that meter. This module alone decides what a
budget covers; the layers in between take no budget.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from bisect import bisect_right
from contextvars import ContextVar
from dataclasses import dataclass

from .digits import repunit

_TRIAL_LIMIT = 10_000


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(_TRIAL_LIMIT)

# Trial division walks the first _BLOCK primes one at a time, then takes the
# rest as (first prime, primes, their product) for runs of _BLOCK primes. A
# cofactor below the square of a block's first prime is 1 or prime, so inputs
# below 137**2 = 18769 stop inside the first block and never reach a gcd.
_BLOCK = 32
_FIRST_BLOCK = _SMALL_PRIMES[:_BLOCK]
_TRIAL_BLOCKS = tuple(
    (block[0], block, math.prod(block))
    for block in (_SMALL_PRIMES[i : i + _BLOCK] for i in range(_BLOCK, len(_SMALL_PRIMES), _BLOCK))
)


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit (limit capped by the trial-division sieve)."""
    if limit > _TRIAL_LIMIT:
        raise ValueError(f"limit {limit} exceeds the sieve bound {_TRIAL_LIMIT}")
    return [p for p in _SMALL_PRIMES if p <= limit]


# psi_t (OEIS A014233) is the least strong pseudoprime to each of the first
# t prime bases (Jaeschke 1993, Sorenson & Webster 2015), so below psi_t those
# t bases are a primality proof. Above psi_13 no fixed set of bases suffices
# (Arnault 1995 built a 397-digit composite that passes every prime base below
# 307), so a strong Lucas test joins the 13 bases and makes the test
# Baillie-PSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)


class BudgetExhausted(Exception):
    """Raised when a factorization budget runs out.

    ``cofactor`` is the composite left unfactored; callers that scan corpora
    should record a skip rather than guess.
    """

    def __init__(self, cofactor: int, message: str | None = None):
        self.cofactor = cofactor
        super().__init__(message or f"budget exhausted on composite cofactor {cofactor}")


@dataclass(frozen=True)
class Budget:
    """Wall-clock and iteration cap on all the factoring of one call of a
    public entry point: per command, and per n in a sweep."""

    seconds: float = 10.0
    iterations: int = 20_000_000

    def __post_init__(self):
        if self.seconds <= 0 or self.iterations <= 0:
            raise ValueError("budget must be positive")


DEFAULT_BUDGET = Budget()


class _Clock:
    def __init__(self, budget: Budget):
        self.deadline = time.monotonic() + budget.seconds
        self.remaining = budget.iterations

    def spend(self, cost: int, cofactor: int) -> None:
        self.remaining -= cost
        if self.remaining <= 0 or time.monotonic() > self.deadline:
            raise BudgetExhausted(cofactor)


# The meter of the running entry point; None outside every metered call.
_METER: ContextVar[_Clock | None] = ContextVar("vpal_meter", default=None)


def metered(fn):
    """Make fn an entry point whose ``budget`` argument bounds all its factoring.

    A call with an explicit budget starts a new meter that every factorize()
    below it spends from. With budget None it joins the meter already
    running, or starts a default one if none is.
    """
    position = list(inspect.signature(fn).parameters).index("budget")

    @functools.wraps(fn)
    def call(*args, **kwargs):
        budget = args[position] if len(args) > position else kwargs.get("budget")
        if budget is None and _METER.get() is not None:
            return fn(*args, **kwargs)
        token = _METER.set(_Clock(budget or DEFAULT_BUDGET))
        try:
            return fn(*args, **kwargs)
        finally:
            _METER.reset(token)

    return call


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first t prime bases for the least t with n < psi_t
    (for example 2..17 below psi_7 ~ 3.4e14, 2..41 up to psi_13 ~ 3.3e24), then
    Baillie-PSW: bases 2..41 and a strong Lucas test.

    A proof of primality below psi_13; BPSW-probable above it, where no
    composite that passes is known.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI[-1] or _strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, odd n > 1.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4 (Baillie & Wagstaff 1980). With n + 1 = d * 2**s, n passes
    when U_d = 0 or V_(d * 2**r) = 0 (mod n) for some r < s.
    """
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:  # D shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    half = lambda x: (x if x % 2 == 0 else x + n) // 2 % n
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q**1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # index doubles
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n  # index grows by 1
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n."""
    if n < 2:
        return n
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(root, exponent>=2) if n is a perfect power, else None.

    n must have no prime factor below 10**4, as every cofactor left after
    trial division has: then a root r of n = r**k exceeds 10**4 > 2**13, so
    n.bit_length() > 13*k and no exponent above n.bit_length() // 13 is tried.
    """
    for k in range(2, n.bit_length() // 13 + 1):
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return None


def _pollard_brent(n: int, c: int, clock: _Clock) -> int | None:
    """One Brent-cycle attempt with increment c; None if the cycle degenerates."""
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    while g == 1:
        x = y
        done = 0
        while done < r:
            step = min(1024, r - done)
            for _ in range(step):
                y = (y * y + c) % n
            done += step
            clock.spend(step, n)
        k = 0
        while k < r and g == 1:
            ys = y
            chunk = min(128, r - k)
            for _ in range(chunk):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += chunk
            clock.spend(chunk, n)
        r *= 2
    if g == n:
        # The batched gcd collapsed; replay one step at a time.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            clock.spend(1, n)
    return g if g != n else None


@dataclass(frozen=True)
class Factorization:
    """Prime factorization: ((p1, e1), ...) with primes ascending."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.entries]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(e < 1 for _, e in self.entries):
            raise ValueError("exponents must be >= 1")

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.entries:
            out *= p**e
        return out

    def exponent(self, p: int) -> int:
        for q, e in self.entries:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def merge(self, other: "Factorization") -> "Factorization":
        """Factorization of the product: exponent-wise sum."""
        counts = dict(self.entries)
        for p, e in other.entries:
            counts[p] = counts.get(p, 0) + e
        return Factorization(tuple(sorted(counts.items())))

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.entries)


def factorize(n: int, budget: Budget | None = None) -> Factorization:
    """Complete factorization of n >= 1, or BudgetExhausted; its primes are
    proven below psi_13 and BPSW-probable above.

    An explicit budget bounds this call alone; with None it spends from the
    running meter (see metered), or from a default budget if none is running.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    # Inlined rather than metered: nothing below factorize() factors.
    clock = _METER.get() if budget is None else None
    if clock is None:
        clock = _Clock(budget or DEFAULT_BUDGET)
    counts: dict[int, int] = {}
    m = n
    for p in _FIRST_BLOCK:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    else:
        for first, primes, product in _TRIAL_BLOCKS:
            if first * first > m:
                break
            if math.gcd(m, product) == 1:
                continue
            for p in primes:
                if p * p > m:
                    break
                while m % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    m //= p
    if m > 1:
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT:
            # Survived trial division past sqrt(m), hence prime.
            counts[m] = counts.get(m, 0) + 1
        else:
            stack = [m]
            while stack:
                m = stack.pop()
                if is_probable_prime(m):
                    counts[m] = counts.get(m, 0) + 1
                    continue
                power = _perfect_power(m)
                if power is not None:
                    root, exp = power
                    stack.extend([root] * exp)
                    continue
                d = None
                c = 1
                while d is None:
                    d = _pollard_brent(m, c, clock)  # raises BudgetExhausted
                    c += 1
                stack.append(d)
                stack.append(m // d)
    return Factorization(tuple(sorted(counts.items())))


def valuation(p: int, n: int) -> int:
    """p-adic valuation: the greatest a with p**a dividing n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"expected p >= 2, got {p}")
    n = abs(n)
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def v_of_factorization(f: Factorization) -> int:
    """v of the factored integer: sum of p + e over entries with e >= 2, p otherwise."""
    return sum(p + e if e >= 2 else p for p, e in f.entries)


def v_value(n: int, budget: Budget | None = None) -> int:
    """The arithmetic function v; v(1) = 0."""
    return v_of_factorization(factorize(n, budget))


# --- generalized-repunit factorization via cyclotomic splitting ---------------
#
# 10**(L*k) - 1 factors as the product of Phi_d(10) over divisors d of L*k, so
# repunit(k, L) = (10**(L*k) - 1)/(10**L - 1) is the product of Phi_d(10) over
# d | L*k with d not dividing L. Each piece is far smaller than the repunit
# itself and is factored once, process-wide.

_phi10_done: dict[int, Factorization] = {}


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for i in range(1, math.isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
    return small + large[::-1]


def _mobius(n: int) -> int:
    mu = 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
    if n > 1:
        mu = -mu
    return mu


def _cyclotomic_at_ten(d: int) -> int:
    """Phi_d evaluated at 10, via the Moebius product over divisors."""
    num = den = 1
    for e in _divisors(d):
        mu = _mobius(d // e)
        if mu == 1:
            num *= 10**e - 1
        elif mu == -1:
            den *= 10**e - 1
    return num // den


def _phi10_factorization(d: int) -> Factorization:
    f = _phi10_done.get(d)
    if f is None:
        f = _phi10_done[d] = factorize(_cyclotomic_at_ten(d))
    return f


@metered
def factor_repunit(k: int, block_len: int = 1, budget: Budget | None = None) -> Factorization:
    """Factorization of repunit(k, block_len) through its cyclotomic pieces."""
    if k < 1 or block_len < 1:
        raise ValueError(f"expected k, block_len >= 1, got k={k}, block_len={block_len}")
    out = Factorization(())
    for d in _divisors(block_len * k):
        if block_len % d != 0:
            out = out.merge(_phi10_factorization(d))
    assert out.value == repunit(k, block_len)
    return out
