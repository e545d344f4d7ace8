import pytest
from hypothesis import given, strategies as st

from vpal.digits import (
    decimal_string,
    digit_count,
    digits_of,
    parse_decimal,
    repeat_concat,
    repunit,
    reverse_digits,
)

positive = st.integers(min_value=1, max_value=10**40)


def test_digits_of_examples():
    assert digits_of(7) == (7,)
    assert digits_of(123) == (3, 2, 1)
    assert digits_of(100) == (0, 0, 1)
    assert digit_count(7) == 1
    assert digit_count(123) == 3
    assert digit_count(100) == 3


@pytest.mark.parametrize("bad", [0, -1, -17])
def test_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        digits_of(bad)
    with pytest.raises(ValueError):
        reverse_digits(bad)


@given(positive)
def test_digits_reconstruct_value(n):
    ds = digits_of(n)
    assert ds[-1] != 0
    assert sum(d * 10**i for i, d in enumerate(ds)) == n


def test_reverse_examples():
    assert reverse_digits(123) == 321
    assert reverse_digits(18) == 81
    assert reverse_digits(100) == 1


@given(positive.filter(lambda n: n % 10 != 0))
def test_double_reverse_is_identity(n):
    assert reverse_digits(reverse_digits(n)) == n


def test_repunit_examples():
    assert repunit(1, 1) == 1
    assert repunit(1, 7) == 1
    assert repunit(3, 2) == 10101
    assert repunit(3, 1) == 111


@given(st.integers(1, 40), st.integers(1, 12))
def test_repunit_shape_and_closed_form(k, L):
    r = repunit(k, L)
    s = str(r)
    assert len(s) == L * (k - 1) + 1
    assert s == "1" + ("0" * (L - 1) + "1") * (k - 1)
    assert r * (10**L - 1) == 10 ** (L * k) - 1


def test_repeat_concat_examples():
    assert repeat_concat(18, 2) == 1818
    assert repeat_concat(7, 3) == 777
    assert repeat_concat(123, 1) == 123


@given(positive, st.integers(1, 8))
def test_repeat_concat_is_string_repetition(n, k):
    assert str(repeat_concat(n, k)) == str(n) * k


@given(positive.filter(lambda n: n % 10 != 0), st.integers(1, 8))
def test_reverse_commutes_with_concatenation(n, k):
    assert reverse_digits(repeat_concat(n, k)) == repeat_concat(reverse_digits(n), k)


def test_unbounded_decimal_strings_round_trip():
    n = repeat_concat(123456789, 700)  # far past any int/str conversion cap
    s = decimal_string(n)
    assert len(s) == 6300
    assert parse_decimal(s) == n
    with pytest.raises(ValueError):
        parse_decimal("12x3")


@pytest.mark.parametrize("s", ["1_3", "\u0661\u0663", "\uff11\uff13", "", "+", "+-1", "1 3", "0x13"])
def test_parse_decimal_accepts_ascii_digits_only(s):
    # int() reads "1_3", Arabic-Indic and fullwidth digits as 13
    with pytest.raises(ValueError):
        parse_decimal(s)


def test_parse_decimal_sign_and_whitespace():
    assert parse_decimal(" +13\n") == 13
    assert parse_decimal("-7") == -7
    assert parse_decimal("0013") == 13


@pytest.mark.parametrize("fn, args, message", [
    (digit_count, (0,), "expected a positive integer"),
    (repunit, (0,), "expected k, block_len >= 1"),
    (repunit, (1, 0), "expected k, block_len >= 1"),
    (repeat_concat, (0, 1), "expected n, k >= 1"),
])
def test_arguments_outside_the_domain_raise(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
