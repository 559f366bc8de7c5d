import re
import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgbern.exactnum import (
    CompositionSpec,
    binom,
    cauchy_product,
    enumerate_compositions,
    enumerate_partition_vectors,
    falling,
    format_rational,
    parse_rational,
    rising,
)
from oracles import (
    brute_compositions,
    naive_cauchy_product,
    partition_count,
    stirling1_unsigned,
)


def test_binom_conventions():
    assert binom(-1, 0) == 1
    assert binom(3, 5) == 0
    assert binom(5, 2) == 10
    # negative upper arguments follow the falling-factorial definition
    assert binom(-1, 2) == 1
    assert binom(-2, 1) == -2
    assert binom(-3, 0) == 1


def test_binom_rejects_negative_k():
    with pytest.raises(ValueError):
        binom(4, -1)


@given(st.integers(-40, 40), st.integers(0, 8))
def test_binom_is_falling_over_factorial(a, k):
    assert binom(a, k) * factorial(k) == falling(a, k)


@given(st.integers(0, 60), st.integers(0, 12))
def test_binom_matches_comb_on_classical_domain(n, k):
    assert binom(n, k) == (comb(n, k) if k <= n else 0)


def test_falling_rising_values():
    assert falling(4, 2) == 12
    assert falling(17, 0) == 1
    assert falling(-3, 0) == 1
    assert rising(1, 4) == 24
    assert rising(3, 2) == 12
    assert rising(-9, 0) == 1


def test_falling_rising_edge_cases():
    for a in range(-6, 7):
        for k in range(8):
            fall = rise = 1
            for i in range(k):
                fall *= a - i
                rise *= a + i
            assert (falling(a, k), rising(a, k)) == (fall, rise), (a, k)
    assert falling(-3, 2) == 12 and rising(-3, 3) == -6 and rising(-2, 4) == 0
    assert falling(2, 5) == 0 and falling(0, 0) == rising(0, 0) == 1
    for f in (falling, rising):
        with pytest.raises(ValueError, match="k must be >= 0"):
            f(3, -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            f(-3, -2)


def test_falling_index_shift_identity():
    # (2n-j-1)_k + k (2n-j-1)_{k-1} = (2n-j)_k at (n, j, k) = (3, 1, 2)
    assert falling(4, 2) + 2 * falling(4, 1) == falling(5, 2) == 20


@given(st.integers(-25, 25), st.integers(0, 8))
def test_falling_reflection(a, k):
    assert falling(a, k) == (-1) ** k * falling(-a + k - 1, k)


@given(st.integers(-25, 25), st.integers(0, 8))
def test_rising_is_shifted_falling(a, k):
    assert rising(a, k) == falling(a + k - 1, k)


def test_stirling_small_values():
    # from expanding (N+1)(N+2) = 2 + 3N + N^2
    assert stirling1_unsigned(3, 1) == 2
    assert stirling1_unsigned(3, 2) == 3
    assert stirling1_unsigned(0, 0) == 1
    assert stirling1_unsigned(2, 5) == 0
    assert stirling1_unsigned(4, 2) == 11


@pytest.mark.parametrize("N", range(0, 6))
@pytest.mark.parametrize("m", range(1, 11))
def test_stirling_product_expansion(m, N):
    prod = 1
    for l in range(1, m + 1):
        prod *= N + l
    total = sum(stirling1_unsigned(m + 1, i) * N ** (i - 1) for i in range(1, m + 2))
    assert prod == total


def test_composition_examples():
    assert list(enumerate_compositions(CompositionSpec(3, 2))) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert set(enumerate_compositions(CompositionSpec(1, 2))) == {(1, 0), (0, 1)}
    assert list(enumerate_compositions(CompositionSpec(0, 3))) == [(0, 0, 0)]
    assert list(enumerate_compositions(CompositionSpec(5, 1))) == [(5,)]


def test_composition_order_is_lexicographic():
    got = list(enumerate_compositions(CompositionSpec(4, 3)))
    assert got == sorted(got)


def test_composition_counts_match_closed_form():
    for total in range(0, 13):
        for parts in range(1, 13):
            spec = CompositionSpec(total, parts)
            listed = list(enumerate_compositions(spec))
            assert len(listed) == spec.count()
            assert len(set(listed)) == len(listed)
            assert all(sum(c) == total and min(c) >= 0 for c in listed)


def test_compositions_match_brute_force():
    for total in range(0, 7):
        for parts in range(1, 5):
            spec = CompositionSpec(total, parts)
            assert set(enumerate_compositions(spec)) == brute_compositions(total, parts, 0)


def test_partition_vector_examples():
    assert list(enumerate_partition_vectors(2)) == [(0, 1), (2, 0)]
    assert list(enumerate_partition_vectors(1)) == [(1,)]
    assert list(enumerate_partition_vectors(3)) == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
    assert len(list(enumerate_partition_vectors(4))) == 5


@pytest.mark.parametrize("m", range(1, 21))
def test_partition_vector_count_is_partition_number(m):
    vectors = list(enumerate_partition_vectors(m))
    assert len(vectors) == partition_count(m)
    # strictly ascending lexicographically by (t_1, t_2, ...), so all distinct
    assert all(a < b for a, b in zip(vectors, vectors[1:]))
    for v in vectors:
        assert type(v) is tuple
        assert len(v) == m
        assert all(t >= 0 for t in v)
        assert sum(i * t for i, t in enumerate(v, start=1)) == m


def test_format_rational_keeps_denominator_explicit():
    assert format_rational(Fraction(7)) == "7/1"
    assert format_rational(Fraction(-1, 270)) == "-1/270"
    assert format_rational(0) == "0/1"


def test_parse_rational():
    assert parse_rational("7/1") == 7
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("+5/10") == Fraction(1, 2)
    assert parse_rational("42") == 42
    for text, message in [
        ("1/0", "zero denominator in '1/0'"),
        ("1/-00", "zero denominator in '1/-00'"),
        ("a/b", "not a rational literal: 'a/b'"),
        ("1/2/3", "not a rational literal: '1/2/3'"),
        ("1.5", "not a rational literal: '1.5'"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_rational(text)


def test_rationals_past_the_int_digit_limit(int_digit_limit):
    # converted in halves, with the interpreter's limit left as it is
    q = Fraction(10**5000 + 1, 3)
    text = format_rational(q)
    assert text == "1" + "0" * 4999 + "1/3"
    assert parse_rational(text) == q and parse_rational(f" +{text} ") == q
    values = [
        Fraction(-(7**9000), 10**4301 + 3),
        Fraction(2**20000 - 1),
        Fraction(-(10**4300)),
        Fraction(10**12000 + 7, 11**5000),
    ]
    texts = [format_rational(v) for v in values]
    assert [parse_rational(t) for t in texts] == values
    assert parse_rational("0" * 5000 + "12/" + "0" * 5000 + "8") == Fraction(3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/" + "0" * 5000)
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational("1" * 5000 + "x")
    assert sys.get_int_max_str_digits() == int_digit_limit
    sys.set_int_max_str_digits(0)  # the fixture puts the limit back
    assert texts == [f"{v.numerator}/{v.denominator}" for v in values]


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.fractions(), st.fractions())
def test_fraction_arithmetic_round_trips(a, b):
    assert (a + b) - b == a


integers = st.integers(-10**12, 10**12)


@given(
    st.lists(integers, min_size=1, max_size=6),
    st.lists(integers, min_size=1, max_size=6),
)
def test_cauchy_product_matches_double_sum(xs, ys):
    got = cauchy_product(xs, ys)
    limit = min(len(xs), len(ys))
    assert len(got) == limit
    for e in range(limit):
        assert got[e] == sum(xs[i] * ys[e - i] for i in range(e + 1))


@given(st.lists(integers, max_size=12), st.lists(integers, max_size=12))
def test_cauchy_product_matches_naive_fraction_loop(xs, ys):
    got = cauchy_product(xs, ys)
    assert got == naive_cauchy_product(xs, ys)
    assert all(type(v) is int for v in got)
