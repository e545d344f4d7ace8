import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from vpal.digits import repunit
from vpal.factor import Budget, metered, primes_up_to, valuation
from vpal.order import (
    multiplicative_order,
    repunit_order,
    repunit_order_rescaled,
    repunit_valuation,
    ten_power_valuation,
)

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


@given(
    st.sampled_from([p for p in primes_up_to(10**4) if p not in (2, 5)]),
    st.integers(1, 4),
    st.integers(1, 8),
)
@settings(max_examples=300, deadline=None)
def test_repunit_order_matches_generic_order(p, alpha, L):
    # The lift from ord_p against the generic order, which factors p**e and its
    # Carmichael exponent.
    m = p ** (alpha + ten_power_valuation(p, L))
    assert repunit_order(p, alpha, L) == multiplicative_order(pow(10, L, m), m)


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
