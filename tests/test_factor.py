import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from vpal import factor
from vpal.digits import repunit
from vpal.factor import (
    Budget,
    BudgetExhausted,
    Factorization,
    factor_repunit,
    factorize,
    is_probable_prime,
    primes_up_to,
    v_of_factorization,
    v_value,
    valuation,
)


def test_factorize_examples():
    assert factorize(18).entries == ((2, 1), (3, 2))
    assert factorize(1).entries == ()
    assert factorize(8181).entries == ((3, 4), (101, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(1, 10**12))
@settings(max_examples=300)
def test_factorize_matches_sympy(n):
    ours = dict(factorize(n).entries)
    assert ours == factorint(n)


@given(st.integers(2, 10**9), st.integers(2, 10**9))
@settings(max_examples=100)
def test_factorize_products_reconstruct(a, b):
    f = factorize(a * b)
    assert f.value == a * b
    assert all(is_probable_prime(p) for p, _ in f)


def test_factorize_large_smooth_and_semiprime():
    # 25 digits, all small factors
    n = 2**10 * 3**7 * 7**5 * 11**4 * 101**3 * 9901
    assert factorize(n).value == n
    # 20-digit semiprime with 10-digit factors: within Brent range
    p, q = 9999999967, 9999999943
    assert factorize(p * q).entries == ((q, 1), (p, 1))


# psi_12 and psi_13: the least strong pseudoprimes to every prime base up to
# 37 and up to 41 (Sorenson & Webster 2015).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_strong_pseudoprimes_to_the_first_prime_bases_are_composite():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_probable_prime(PSI_12)
    assert not is_probable_prime(PSI_13)
    assert factorize(PSI_12).entries == ((399165290221, 1), (798330580441, 1))


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
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        Factorization(((2, 0),))
    f = factorize(360)
    assert f.exponent(2) == 3 and f.exponent(5) == 1 and f.exponent(11) == 0
    assert str(f) == "2^3 * 3^2 * 5"
    assert f.merge(factorize(77)).value == 360 * 77


@pytest.mark.parametrize(
    "k,L,expected",
    [(3, 1, ((3, 1), (37, 1))), (2, 2, ((101, 1),)), (1, 5, ())],
)
def test_factor_repunit_examples(k, L, expected):
    assert factor_repunit(k, L).entries == expected


@given(st.integers(1, 16), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_factor_repunit_agrees_with_direct_factorization(k, L):
    # k * L kept small enough that every cyclotomic piece factors quickly
    via_pieces = factor_repunit(k, L)
    direct = factorize(repunit(k, L))
    assert via_pieces == direct


def test_factor_repunit_failure_is_not_cached(monkeypatch):
    # A budget failure on a cyclotomic piece must not decide a later, larger budget.
    monkeypatch.setattr(factor, "_phi10_done", {})
    with pytest.raises(BudgetExhausted):
        factor_repunit(37, 1, Budget(seconds=1e9, iterations=50))
    f = factor_repunit(37, 1, Budget(seconds=1e9, iterations=10**8))
    assert f.entries == ((2028119, 1), (247629013, 1), (2212394296770203368013, 1))
