import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from vpal import factor
from vpal.digits import repunit
from vpal.factor import Budget, BudgetExhausted, factorize, metered, primes_up_to, valuation
from vpal.order import (
    multiplicative_order,
    repunit_order,
    repunit_order_rescaled,
    repunit_valuation,
    ten_power_valuation,
)
from vpal.procedure import run_procedure

ODD_PRIMES = [p for p in primes_up_to(100) if p not in (2, 5)]


def _order_brute(g, m):
    x = g % m
    for e in range(1, m + 1):
        if x == 1:
            return e
        x = x * g % m
    raise AssertionError("no order found")


def test_multiplicative_order_examples():
    assert multiplicative_order(10, 7) == 6
    assert multiplicative_order(10, 27) == 3
    assert multiplicative_order(1, 9) == 1
    # Prime powers, including 2**k, whose unit group is not cyclic for k >= 3.
    for m in [q**k for q in (2, 3) for k in range(1, 13)]:
        for g in (2, 3, 5, 7, 10, m - 1):
            if math.gcd(g, m) == 1:
                assert multiplicative_order(g, m) == _order_brute(g, m), (g, m)


def test_multiplicative_order_rejects_non_units():
    with pytest.raises(ValueError):
        multiplicative_order(10, 15)
    with pytest.raises(ValueError):
        multiplicative_order(3, 1)


@given(st.integers(2, 2000), st.integers(2, 2000))
@settings(max_examples=300)
def test_multiplicative_order_matches_brute_force(g, m):
    assume(math.gcd(g, m) == 1)
    assert multiplicative_order(g, m) == _order_brute(g, m)


def test_ten_power_valuation_small_vs_lte():
    # both the explicit-integer route (small L) and the lifted route (large L)
    for p in (3, 7, 11, 13, 37, 41):
        for L in (1, 2, 3, 6, 12, 60, 63, 100, 123):
            direct = valuation(p, 10**L - 1)
            assert ten_power_valuation(p, L) == direct, (p, L)
    # 487**2 divides 10**486 - 1 (ord_487(10) = 486), so the lifted route starts at 2.
    for L in (486, 486 * 487):
        assert ten_power_valuation(487, L) == valuation(487, 10**L - 1), L


def test_repunit_order_examples():
    assert repunit_order(7, 1, 1) == 6
    assert repunit_order(3, 1, 1) == 3
    assert repunit_order(3, 2, 1) == 9
    assert repunit_order(13, 1, 2) == 3
    assert repunit_order(13, 2, 2) == 39
    assert repunit_order(31, 1, 2) == 15
    assert repunit_order(31, 2, 2) == 465


def test_repunit_order_cache_is_shared_across_budgets():
    @metered
    def entry_order(budget):
        return repunit_order(1000003, 1, 12)

    repunit_order.cache_clear()
    assert entry_order(Budget(seconds=1e9, iterations=10**6)) == entry_order(Budget(seconds=5.0))
    assert repunit_order.cache_info().hits == 1


def test_repunit_order_rejects_2_and_5():
    for p in (2, 5):
        with pytest.raises(ValueError):
            repunit_order(p, 1, 1)


def test_repunit_order_rejects_composites():
    for m in (9, 21, 91):
        with pytest.raises(ValueError):
            repunit_order(m, 2, 1)


def test_repunit_order_rejects_a_composite_its_meter_has_factored():
    @metered
    def order_after_factoring(m, budget=None):
        factorize(m)
        return repunit_order(m, 3, 1)

    for m in (9, 21, 91):
        with pytest.raises(ValueError):
            order_after_factoring(m, Budget())


@pytest.mark.parametrize("n, copies, proved", [
    # no solution, so no entry order: n and the cofactor 86599 * 5697161 of r(n)
    # are tested once, and the primes rho splits off them, below 10**8, never
    (860334011495401, 2, {86599, 5697161, 9097349, 94569749}),
    # 994665943 is proved while factoring n, then needs entry orders
    (396871711257, 3, {994665943}),
])
def test_a_metered_call_tests_each_integer_for_primality_once(monkeypatch, n, copies, proved):
    calls = Counter()

    def counted(m, clock=None, _real=factor.is_probable_prime):
        calls[m] += 1
        return _real(m, clock)

    monkeypatch.setattr(factor, "is_probable_prime", counted)
    repunit_order.cache_clear()
    result = run_procedure(n, copies=copies, budget=Budget())
    assert proved <= {cp.p for cp in result.crucial}
    assert all(calls[p] == (p >= 10**8) for p in proved)
    assert max(calls.values()) == 1, calls


def test_a_warm_process_lends_no_budget_to_the_next_call():
    # 790917492420783298197729579853 is an emirp whose p - 1 needs rho: a call
    # that must factor it again does not fit 50 iterations, whatever ran before.
    n = 790917492420783298197729579853
    run_procedure(n, budget=Budget(seconds=1e9, iterations=10**7))
    repunit_order.cache_clear()
    with pytest.raises(BudgetExhausted):
        run_procedure(n, budget=Budget(seconds=1e9, iterations=50))


@given(
    st.sampled_from([p for p in primes_up_to(10**4) if p not in (2, 5)]),
    st.integers(1, 4),
    st.integers(1, 8),
)
@settings(max_examples=300, deadline=None)
def test_repunit_order_matches_generic_order(p, alpha, L):
    # The closed form against the generic order of 10**L modulo
    # p**(alpha + v_p(10**L - 1)), reduced from Euler's phi of that modulus.
    m = p ** (alpha + ten_power_valuation(p, L))
    assert repunit_order(p, alpha, L) == multiplicative_order(pow(10, L, m), m)


@pytest.mark.parametrize("p", [3, 487, 56598313, 7, 11, 13])
def test_repunit_order_at_wieferich_primes_and_block_length_p(p):
    # Where x = v_p(repunit(h(1), L)) reaches 2, h(2) = h(1). The base-10
    # Wieferich primes 3, 487 and 56598313 have p**2 | 10**(p-1) - 1: at 487
    # and 56598313 that makes h(2) = h(1) at every L here, while 3 divides
    # 10**L - 1 and h(alpha) = 3**alpha. At L = p, p**2 divides
    # 10**(h(1) L) - 1 by lifting the exponent, so 7, 11 and 13 have
    # h(2) = h(1) there with no Wieferich prime.
    for alpha in (1, 2, 3):
        for L in sorted({1, 2, 3, p}):
            m = p ** (alpha + ten_power_valuation(p, L))
            assert repunit_order(p, alpha, L) == multiplicative_order(pow(10, L, m), m), (alpha, L)


def test_repunit_order_is_entry_point():
    # h is the least k with p**alpha | repunit(k, L): check by direct scan.
    for p in (3, 7, 11, 13):
        for alpha in (1, 2):
            for L in (1, 2, 3):
                h = repunit_order(p, alpha, L)
                assert h >= 2
                assert repunit(h, L) % p**alpha == 0
                for k in range(1, h):
                    assert repunit(k, L) % p**alpha != 0, (p, alpha, L, k)


def test_repunit_valuation_matches_direct():
    for p in ODD_PRIMES[:12]:
        for k in range(1, 30):
            for L in (1, 2, 3):
                assert repunit_valuation(p, k, L) == valuation(p, repunit(k, L)), (p, k, L)
    assert repunit_valuation(2, 12, 1) == 0
    assert repunit_valuation(5, 10, 2) == 0


def test_repunit_valuation_counts_past_the_first_power_at_a_wieferich_prime():
    # 487**2 divides 10**486 - 1 while 487 does not divide 10**3 - 1: the count
    # that starts at 1 after the mod-p check must take one more step.
    assert repunit_valuation(487, 162, 3) == valuation(487, repunit(162, 3)) == 2


def test_rescaling_identity_examples():
    assert repunit_order_rescaled(3, 1, 2, 1) == 3 == repunit_order(3, 1, 2)
    assert repunit_order_rescaled(3, 1, 3, 1) == 3 == repunit_order(3, 1, 3)
    assert repunit_order_rescaled(7, 1, 1, 1) == 6 == repunit_order(7, 1, 1)


@given(
    st.sampled_from([p for p in primes_up_to(50) if p not in (2, 5)]),
    st.integers(1, 2),
    st.integers(1, 12),
    st.integers(1, 4),
)
@settings(max_examples=250, deadline=None)
def test_rescaling_identity_property(p, alpha, k, L):
    assert repunit_order_rescaled(p, alpha, k, L) == repunit_order(p, alpha, L * k)


@pytest.mark.parametrize("fn, args, message", [
    (repunit_order, (1, 1, 1), "expected a prime"),
    (ten_power_valuation, (3, 0), "expected L >= 1"),
    (repunit_order, (3, 0, 1), "expected alpha, L >= 1"),
    (repunit_valuation, (3, 0), "expected k, block_len >= 1"),
    (repunit_order_rescaled, (3, 0, 1, 1), "expected alpha, k, L >= 1"),
])
def test_arguments_outside_the_domain_raise(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
