import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime, nextprime, prevprime, primerange
from sympy.ntheory.primetest import is_strong_lucas_prp

from vpal import factor
from vpal.digits import repunit
from vpal.factor import (
    Budget,
    BudgetExhausted,
    factor_repunit,
    factorize,
    is_probable_prime,
    primes_up_to,
    v_of_factorization,
    v_value,
    valuation,
)


def test_factorize_examples():
    assert factorize(18) == ((2, 1), (3, 2))
    assert factorize(1) == ()
    assert factorize(8181) == ((3, 4), (101, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


# The last prime divided one at a time, the first two of the gcd's walk and
# the last two below 10**4.
_BOUNDARY_PRIMES = [131, 137, 139, 9967, 9973]


def _prime_above(low, high):
    # nextprime(q) < 2q, so the prime stays below 2 * high
    return st.integers(low, high).map(nextprime)


@given(st.one_of(
    st.integers(1, 10**20 - 1),
    st.builds(lambda ps, m: math.prod(ps) * m,
              st.lists(st.sampled_from(_BOUNDARY_PRIMES), min_size=1, max_size=4),
              st.integers(1, 10**4)),
    st.just(9973**2 * 10007),
    st.builds(lambda q: 9967 * 9973 * q, _prime_above(10**4, 10**9)),  # the walk's far end
    st.integers(1, 5).flatmap(  # k = 5 draws only 10007**5, of 21 digits
        lambda k: _prime_above(10**4, max(10**4, 10 ** (20 // k) // 2)).map(lambda q: q**k)),
    st.builds(lambda p, q: p * q, _prime_above(10**4, 10**9), _prime_above(10**4, 10**9)),
))
@settings(max_examples=300, deadline=None)
def test_factorize_matches_sympy(n):
    # 1 to 20 digits; the special draws cross both ends of the gcd's walk,
    # reach the perfect-power test with roots above 10**4, and split by rho.
    entries = factorize(n)
    assert dict(entries) == factorint(n)
    # the pairs are returned as factorize builds them, with no check after
    assert all(p < q for (p, _), (q, _) in zip(entries, entries[1:]))
    assert all(e >= 1 for _, e in entries)


@pytest.mark.parametrize("n, calls", [(17159, 0), (17167, 0), (137 * 139, 1), (9967 * 9973 * 1000000007, 1)])
def test_trial_division_takes_at_most_one_gcd(monkeypatch, n, calls):
    # The primes 17159 < 131**2 and 17167 < 137**2 stop after the first 32
    # primes; a larger cofactor takes one gcd, which one walk splits.
    counted, real_gcd = [], math.gcd
    monkeypatch.setattr(factor.math, "gcd", lambda *a: counted.append(a) or real_gcd(*a))
    entries = factorize(n)
    assert len(counted) == calls
    monkeypatch.undo()
    assert dict(entries) == factorint(n)


def test_an_exhausted_budget_on_an_input_past_the_int_str_cap():
    # A fresh interpreter: an earlier test may have lifted the cap in this one.
    # The message of BudgetExhausted names a cofactor of over 5,000 digits.
    code = """
import sys
import vpal
from vpal.factor import Budget, BudgetExhausted, factorize, v_value
assert sys.get_int_max_str_digits() == 0
n = 7**6000 * 11 + 2
for f in (factorize, v_value):
    try:
        f(n, Budget(seconds=1e-9))
    except BudgetExhausted as exc:
        assert n % exc.cofactor == 0, f
    else:
        raise AssertionError(f)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(factor.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


@given(st.integers(2, 10**9), st.integers(2, 10**9))
@settings(max_examples=100)
def test_factorize_products_reconstruct(a, b):
    f = factorize(a * b)
    assert math.prod(p**e for p, e in f) == a * b
    assert all(is_probable_prime(p) for p, _ in f)


def test_factorize_large_smooth_and_semiprime():
    # 25 digits, all small factors
    n = 2**10 * 3**7 * 7**5 * 11**4 * 101**3 * 9901
    assert math.prod(p**e for p, e in factorize(n)) == n
    # 20-digit semiprime with 10-digit factors: within Brent range
    p, q = 9999999967, 9999999943
    assert factorize(p * q) == ((q, 1), (p, 1))


# psi_12 and psi_13: the least strong pseudoprimes to every prime base up to
# 37 and up to 41 (Sorenson & Webster 2015).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


# psi_t for t = 1..13 (OEIS A014233): the least strong pseudoprime to each of
# the first t prime bases.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, PSI_12, PSI_13)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("t", range(1, 14))
def test_psi_table_is_tight(t):
    # psi_t passes the first t prime bases, so is_probable_prime must use more
    # of them there; just below psi_t, t bases are a proof.
    psi = PSI[t - 1]
    assert not isprime(psi)
    assert all(_strong_probable_prime(psi, a) for a in list(primerange(2, 42))[:t])
    assert not is_probable_prime(psi)
    assert is_probable_prime(prevprime(psi))


def test_strong_pseudoprimes_to_the_first_prime_bases_are_composite():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_probable_prime(PSI_12)
    assert not is_probable_prime(PSI_13)
    assert factorize(PSI_12) == ((399165290221, 1), (798330580441, 1))


# Arnault's strong pseudoprimes to many prime bases, as listed in sympy's
# sympy/ntheory/tests/test_primetest.py: a 337-digit number (1993) and a
# 397-digit one (1995), which passes every prime base below 307.
ARNAULT_1993 = int(
    "803837457453639491257079614341942108138837688287558145837488917522297"
    "427376533365218650233616396004545791504202360320876656996676098728404"
    "396540823292873879185086916685732826776177102938969773947016708230428"
    "687109997439976544144845341155872450633409279022275296229414984230688"
    "1685404326457534018329786111298960644845216191652872597534901"
)
ARNAULT_1995 = int(
    "288714823805077121267142959713039399197760945927972270092651602419743"
    "230379915273311632898314463922594197780311092934965557841894944174093"
    "380561511397999942154241693397290542371100275104208013496673175515285"
    "922696291677532547504444585610194940420003990443211677661994962953925"
    "045269871932907037356403227370127845389912612030924484149472897688540"
    "6024976768122077071687938121709811322297802059565867"
)


@pytest.mark.parametrize("x, digits", [(ARNAULT_1993, 337), (ARNAULT_1995, 397)],
                         ids=["arnault_1993", "arnault_1995"])
def test_strong_pseudoprimes_to_many_bases_are_composite(x, digits):
    # Both pass Miller-Rabin at every base up to 97; the strong Lucas test
    # rejects them.
    assert len(str(x)) == digits
    assert not is_probable_prime(x)
    with pytest.raises(BudgetExhausted) as exc:
        factorize(x, Budget(iterations=10**4))
    assert exc.value.cofactor == x


def test_strong_lucas_test_matches_sympy():
    # Every odd n below 2 * 10**4, composites that pass it (5459, 5777, ...) included.
    for n in range(3, 20_000, 2):
        assert factor._strong_lucas_prp(n) == is_strong_lucas_prp(n), n


@given(st.one_of(st.integers(10**24, 10**60 - 1).map(lambda x: x | 1),
                 st.integers(10**24, 10**59).map(nextprime)))
@settings(max_examples=300, deadline=None)
def test_is_probable_prime_matches_sympy_on_25_to_60_digits(n):
    assert is_probable_prime(n) == isprime(n)


def test_budget_exhaustion_names_composite_cofactor():
    # Two 30-digit primes; no budget can split this quickly.
    p = 100000000000000000000000000319
    q = 100000000000000000000000000379
    assert is_probable_prime(p) and is_probable_prime(q)
    with pytest.raises(BudgetExhausted) as exc:
        factorize(p * q, Budget(seconds=0.2, iterations=50_000))
    cofactor = exc.value.cofactor
    assert cofactor == p * q
    assert not is_probable_prime(cofactor)


@pytest.mark.parametrize("n, on_time, powers", [(10**9 + 7, 1, 0), (1_000_003**2, 2, 1)],
                         ids=["primality_test", "perfect_power_scan"])
def test_the_deadline_bounds_more_than_rho(monkeypatch, n, on_time, powers):
    # The clock reads 0 on_time times, the first setting the deadline at 1,
    # then 2. Trial division reads no clock, so the prime 10**9 + 7 runs out
    # before its first Miller-Rabin base, and 1_000_003**2, which base 2 shows
    # composite, before the perfect-power scan takes its first root.
    readings = iter([0.0] * on_time)
    monkeypatch.setattr(factor, "time", SimpleNamespace(monotonic=lambda: next(readings, 2.0)))
    calls = Counter()
    real_iroot = factor._iroot
    monkeypatch.setattr(factor, "pow", lambda *a: calls.update(["pow"]) or pow(*a), raising=False)
    monkeypatch.setattr(factor, "_iroot", lambda *a: calls.update(["root"]) or real_iroot(*a))
    with pytest.raises(BudgetExhausted) as exc:
        factorize(n, Budget(seconds=1))
    assert exc.value.cofactor == n
    assert calls == Counter(pow=powers)


@pytest.mark.parametrize("cap", [{"seconds": math.nan}, {"iterations": math.nan},
                                 {"seconds": 0}, {"iterations": -1}],
                         ids=["nan_seconds", "nan_iterations", "zero_seconds", "negative_iterations"])
def test_budget_rejects_a_cap_that_is_not_positive(cap):
    # NaN is neither <= 0 nor > 0: a cap of NaN would never fire
    with pytest.raises(ValueError):
        Budget(**cap)


def test_budget_accepts_an_unbounded_time_cap():
    assert Budget(seconds=math.inf).seconds == math.inf


def test_a_metered_call_factors_each_integer_once():
    # factorize(n) needs 13,054 rho iterations: twice would overrun 13,500.
    n = 860334011495401

    @factor.metered
    def twice(budget=None):
        return factorize(n), factorize(n)

    first, second = twice(budget=Budget(seconds=1e9, iterations=13_500))
    assert first is second and math.prod(p**e for p, e in first) == n
    # The kept factorization goes with the meter: a new call factors afresh.
    assert twice(budget=Budget(seconds=1e9, iterations=13_500))[0] is not first


def test_an_explicit_budget_is_its_own_meter():
    # The outer meter keeps the factorization of n, but factorize with an
    # explicit budget starts a meter of its own, which reads none of it and
    # runs out at its one rho iteration; the outer meter is then running again,
    # keeping what it kept.
    n = 860334011495401

    @factor.metered
    def outer(budget=None):
        clock = factor._METER.get()
        first = factorize(n)
        kept = dict(clock.factored)
        with pytest.raises(BudgetExhausted):
            factorize(n, Budget(seconds=1e9, iterations=1))
        assert factor._METER.get() is clock
        assert clock.factored == kept and clock.factored[n] is first and math.prod(p**e for p, e in first) == n

    outer()


def test_a_metered_call_reads_a_kept_composite_cofactor(monkeypatch):
    # Trial division leaves 2 * n with the cofactor n, whose factorization the
    # meter kept from the first call: the second call spends no rho iteration.
    n = 1000003 * 10000019
    spent = []
    real_spend = factor._Clock.spend

    def spend(clock, cost, cofactor):
        spent.append(cost)
        real_spend(clock, cost, cofactor)

    monkeypatch.setattr(factor._Clock, "spend", spend)

    @factor.metered
    def both(budget=None):
        first = factorize(n)
        iterations = sum(spent)
        return first, iterations, factorize(2 * n)

    first, iterations, second = both()
    assert first == ((1000003, 1), (10000019, 1)) and iterations > 0
    assert second == ((2, 1),) + first
    assert sum(spent) == iterations


def test_a_rho_piece_below_10_to_the_8_is_prime_untested(monkeypatch):
    # Only the cofactor 10007 * 99991 is tested: the pieces rho splits off are
    # below 10**8 and free of the primes below 10**4, so prime.
    tested, real_test = [], factor.is_probable_prime
    monkeypatch.setattr(factor, "is_probable_prime",
                        lambda m, clock=None: tested.append(m) or real_test(m, clock))
    assert factorize(10007 * 99991) == ((10007, 1), (99991, 1))
    assert tested == [10007 * 99991]


def test_a_metered_call_keeps_the_prime_cofactor_of_trial_division():
    # Trial division of 2 * 99991 leaves 99991, below 10**8 and free of the
    # primes below 10**4, so prime; that of 2 * 1009 stops at 1009 < 37**2,
    # so prime too. The meter keeps either, and a later factorize of it in
    # the call reads it instead of dividing again.
    @factor.metered
    def both(q, budget=None):
        factorize(2 * q)
        return factor._METER.get().factored.get(q), factorize(q)

    for q in (99991, 1009):
        kept, again = both(q)
        assert kept is again and kept == ((q, 1),)


def test_valuation():
    assert valuation(3, 18) == 2
    assert valuation(7, 18) == 0
    assert valuation(3, 8181) == 4
    assert valuation(2, -24) == 3
    with pytest.raises(ValueError):
        valuation(3, 0)


def test_v_examples():
    assert v_value(18) == 7
    assert v_value(81) == 7
    assert v_value(1) == 0
    assert v_value(12) == 7
    assert v_value(21) == 10


def test_v_on_prime_powers():
    for p in primes_up_to(1000):
        assert v_value(p) == p
        for e in range(2, 5):
            assert v_value(p**e) == p + e


@given(st.integers(2, 10**6), st.integers(2, 10**6))
@settings(max_examples=200)
def test_v_additive_on_coprime_pairs(m, n):
    if math.gcd(m, n) != 1:
        m, n = m, m + 1  # consecutive integers are coprime
    assert v_value(m * n) == v_value(m) + v_value(n)


def test_factorization_type_invariants():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


@pytest.mark.parametrize(
    "k,L,expected",
    [(3, 1, ((3, 1), (37, 1))), (2, 2, ((101, 1),)), (1, 5, ())],
)
def test_factor_repunit_examples(k, L, expected):
    assert factor_repunit(k, L) == expected


@given(st.integers(1, 16), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_factor_repunit_agrees_with_direct_factorization(k, L):
    assert dict(factor_repunit(k, L)) == factorint(repunit(k, L))


def test_factor_repunit_failure_is_not_cached():
    # Each call's budget bounds its own factoring alone: neither a failure
    # nor a completed factorization carries over to a later call.
    small, large = Budget(seconds=1e9, iterations=50), Budget(seconds=1e9, iterations=10**8)
    with pytest.raises(BudgetExhausted):
        factor_repunit(37, 1, small)
    f = factor_repunit(37, 1, large)
    assert f == ((2028119, 1), (247629013, 1), (2212394296770203368013, 1))
    with pytest.raises(BudgetExhausted):
        factor_repunit(37, 1, small)


@pytest.mark.parametrize("fn, args, message", [
    (primes_up_to, (factor._TRIAL_LIMIT + 1,), "exceeds the sieve bound"),
    (valuation, (1, 5), "expected p >= 2"),
    (factor_repunit, (0,), "expected k, block_len >= 1"),
])
def test_arguments_outside_the_domain_raise(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_is_probable_prime_below_200_matches_sympy():
    # 0 and 1 included: neither is prime
    assert [n for n in range(200) if is_probable_prime(n)] == list(primerange(200))
