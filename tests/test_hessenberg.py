from fractions import Fraction
from math import factorial, lcm
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgbern.altforms import mr
from hgbern.hbnum import classical, hb, hb_higher
from hgbern.hessenberg import (
    CommonDenominator,
    InversionVerdict,
    hb_higher_det,
    inversion_pair_check,
    toeplitz_hessenberg_det,
    trudi_expand,
    weight_row,
)
from oracles import cofactor_det, naive_toeplitz_hessenberg_det, toeplitz_hessenberg_matrix


def random_case(rng: Random, m: int) -> tuple[Fraction, list[Fraction]]:
    def frac() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    return frac(), [frac() for _ in range(m)]


def cofactor_reference(a0, entries) -> Fraction:
    return cofactor_det(toeplitz_hessenberg_matrix(a0, entries))


def test_one_by_one():
    assert toeplitz_hessenberg_det(1, [Fraction(5, 7)]) == Fraction(5, 7)


def test_classical_two_by_two():
    # [[1/2, 1], [1/6, 1/2]] -> 1/12; times (-1)^2 2! gives B_2 = 1/6
    entries = [Fraction(1, 2), Fraction(1, 6)]
    det = toeplitz_hessenberg_det(1, entries)
    assert det == Fraction(1, 12)
    assert 2 * det == classical(2)
    assert cofactor_reference(1, entries) == det


def test_matrix_layout():
    assert toeplitz_hessenberg_matrix(7, [1, 2, 3]) == [
        [Fraction(1), Fraction(7), Fraction(0)],
        [Fraction(2), Fraction(1), Fraction(7)],
        [Fraction(3), Fraction(2), Fraction(1)],
    ]


def test_determinant_matches_cofactor_oracle():
    rng = Random(20240817)
    for m in range(1, 7):
        for _ in range(10):
            a0, entries = random_case(rng, m)
            assert toeplitz_hessenberg_det(a0, entries) == cofactor_reference(a0, entries)


@pytest.mark.parametrize("a0", (0, 2))
def test_kernels_take_plain_int_lists(a0):
    # a0 and the entries as ints in a plain list, no Fraction anywhere
    rng = Random(7)
    for m in range(1, 7):
        entries = [rng.randint(-9, 9) for _ in range(m)]
        det = toeplitz_hessenberg_det(a0, entries)
        assert type(det) is Fraction and type(trudi_expand(a0, entries)) is Fraction
        assert det == trudi_expand(a0, entries) == cofactor_reference(a0, entries)
    leading = []
    assert toeplitz_hessenberg_det(a0, [3, -1, 4], leading) == cofactor_reference(a0, [3, -1, 4])
    assert leading[:2] == [1, 3] and all(type(d) is Fraction for d in leading)


rationals = st.one_of(st.integers(-1000, 1000), st.fractions(max_denominator=1000))
# zero, negative and non-unit superdiagonals as well as the unit one
superdiagonals = st.one_of(st.sampled_from([0, 1, -1, 2, Fraction(-3, 7)]), rationals)


@given(superdiagonals, st.lists(rationals, max_size=12))
def test_determinant_matches_naive_fraction_recursion(a0, entries):
    det = toeplitz_hessenberg_det(a0, entries)
    assert type(det) is Fraction
    assert det == naive_toeplitz_hessenberg_det(a0, entries)


wide_rationals = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6))


@given(st.lists(wide_rationals, max_size=10), st.lists(wide_rationals, max_size=10))
def test_common_denominator_holds_values_over_their_lcm(head, tail):
    held = CommonDenominator(head)
    for v in tail:
        held.append(v)
    values = head + tail
    assert held.den == lcm(*(Fraction(v).denominator for v in values))
    assert [Fraction(x, held.den) for x in held.nums] == values
    # extend takes a list over its own lcm: the same numerators and lcm
    extended = CommonDenominator(head)
    extended.extend(tail)
    extended.extend([])
    assert (extended.den, extended.nums) == (held.den, held.nums)


def test_empty_determinant_is_one():
    for a0 in (0, 1, -2, Fraction(5, 3)):
        det = toeplitz_hessenberg_det(a0, [])
        assert det == 1 and type(det) is Fraction


def test_zero_superdiagonal_gives_product_of_diagonal():
    # a0 = 0 makes the matrix lower triangular with a1 on the diagonal
    assert toeplitz_hessenberg_det(0, [Fraction(-2, 3), 7, Fraction(1, 5)]) == Fraction(-8, 27)


@pytest.mark.parametrize("a0", (1, 0, -1, Fraction(3, 7)))
def test_leading_determinants_are_the_prefix_determinants(a0):
    # D_0..D_m of one walk are the determinants of the k-entry prefixes
    rng = Random(2026)
    for m in [0, 1, 12] + [rng.randint(2, 11) for _ in range(5)]:
        entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)]
        leading = [Fraction(-5)]  # appended to, not replaced
        det = toeplitz_hessenberg_det(a0, entries, leading)
        assert leading[0] == -5 and len(leading) == m + 2 and leading[-1] == det
        for k, value in enumerate(leading[1:]):
            assert value == toeplitz_hessenberg_det(a0, entries[:k])
            assert value == naive_toeplitz_hessenberg_det(a0, entries[:k])
            assert value == cofactor_reference(a0, entries[:k])


def test_trudi_expand_simple_cases():
    assert trudi_expand(1, [Fraction(3, 4)]) == Fraction(3, 4)
    assert trudi_expand(1, [Fraction(1, 2), Fraction(1, 6)]) == Fraction(1, 12)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        trudi_expand(1, [])


def test_trudi_expand_matches_determinant():
    rng = Random(5)
    for m in range(1, 8):
        for _ in range(10):
            a0, entries = random_case(rng, m)
            assert trudi_expand(a0, entries) == toeplitz_hessenberg_det(a0, entries)


def test_trudi_expand_non_unit_superdiagonal():
    # a0 != 1 exercises the general (Trudi, not just Brioschi) weights
    rng = Random(99)
    for _ in range(20):
        a0, entries = random_case(rng, 4)
        assert trudi_expand(a0, entries) == cofactor_reference(a0, entries)
    assert trudi_expand(2, [1, 1, 1, 1]) == cofactor_reference(2, [1, 1, 1, 1])


@pytest.mark.parametrize("a0", (0, -1, Fraction(-3, 7)))
def test_trudi_expand_zero_and_negative_superdiagonal(a0):
    # a0 = 0 keeps only the all-ones partition, a1^m; a negative a0 makes
    # every group factor (-a0)^(m-k) positive
    rng = Random(17)
    for m in range(1, 8):
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        assert trudi_expand(a0, entries) == naive_toeplitz_hessenberg_det(a0, entries)
    assert trudi_expand(0, [Fraction(-2, 3), 7, 5]) == Fraction(-8, 27)


_non_integral = st.fractions(max_denominator=12).filter(lambda q: q.denominator > 1)


@given(
    a0=st.fractions(max_denominator=12).filter(lambda q: q != 1),
    entries=st.lists(_non_integral, min_size=1, max_size=9),
)
def test_trudi_expand_matches_determinant_off_brioschi(a0, entries):
    # a0 != 1 and non-integral entries: the multinomials and (-a0)^(m-k)
    # factors meet reduced denominators in every group
    assert trudi_expand(a0, entries) == toeplitz_hessenberg_det(a0, entries)


def test_hb_det_values():
    assert hb_higher_det(2, 1, 4) == Fraction(-1, 270)
    assert hb_higher_det(1, 1, 6) == Fraction(1, 42)
    assert hb_higher_det(1, 2, 1) == -1
    with pytest.raises(ValueError):
        hb_higher_det(1, 1, 0)


def test_determinant_route_matches_recurrence():
    for N in range(1, 5):
        for n in range(1, 13):
            assert hb_higher_det(N, 1, n) == hb(N, n)
    for N in (1, 2, 3):
        for r in (2, 3):
            for n in range(1, 10):
                assert hb_higher_det(N, r, n) == hb_higher(N, r, n)


@pytest.mark.parametrize(
    "r, upto, message",
    # the indices are checked as HBKey(N, r, upto), which names upto as its n
    [(0, 3, "r must be >= 1"), (-1, 3, "r must be >= 1"), (2, -1, "n must be >= 0")],
)
def test_weight_row_refuses_an_order_or_a_depth_out_of_range(r, upto, message):
    # at r = 0 the row used to come back as the r = 1 row, [1, 1/3, 1/12, 1/60] at (2, 0, 3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        weight_row(2, r, upto)


def test_determinant_row_equals_per_point_determinants():
    for N in range(1, 6):
        for r in range(1, 5):
            row = []
            top = hb_higher_det(N, r, 30, row)
            assert len(row) == 31 and row[0] == 1 and row[30] == top
            assert row[1:] == [hb_higher_det(N, r, n) for n in range(1, 31)]
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        hb_higher_det(0, 1, 5, [])
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        hb_higher_det(2, 1, -1, [])
    assert hb_higher_det(2, 1, 4, []) == Fraction(-1, 270)


def test_inversion_pair_with_number_weights():
    for N, r in ((2, 1), (1, 2), (3, 2)):
        alphas = [(-1) ** k * hb_higher(N, r, k) / factorial(k) for k in range(1, 6)]
        rs = [mr(N, r, e) for e in range(1, 6)]
        verdict = inversion_pair_check(alphas, rs)
        assert bool(verdict), verdict.failures


def test_inversion_pair_zero_sequences():
    verdict = inversion_pair_check([Fraction(0)] * 5, [Fraction(0)] * 5)
    assert bool(verdict)


def test_inversion_pair_random_r():
    rng = Random(123)
    rs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)]
    # build alpha by the determinant direction, then everything must verify
    alphas = [toeplitz_hessenberg_det(1, rs[:m]) for m in range(1, 7)]
    verdict = inversion_pair_check(alphas, rs)
    assert bool(verdict), verdict.failures


def test_inversion_pair_reports_failure():
    rs = [mr(2, 1, e) for e in range(1, 5)]
    alphas = [(-1) ** k * hb(2, k) / factorial(k) for k in range(1, 5)]
    alphas[2] += 1
    verdict = inversion_pair_check(alphas, rs)
    assert not verdict
    assert "convolution" in verdict.failures
    assert isinstance(verdict, InversionVerdict)
    with pytest.raises(ValueError):
        inversion_pair_check(alphas, rs[:-1])


def banded_product(a, rr):
    """The product of the banded unit-lower-triangular matrices (a_{i-j}) and
    ((-1)^(i-j) rr_{i-j}), built entry by entry."""
    size = len(a)
    lower = [[a[i - j] if j <= i else 0 for j in range(size)] for i in range(size)]
    signed = [
        [(-1) ** (i - j) * rr[i - j] if j <= i else 0 for j in range(size)] for i in range(size)
    ]
    return [
        [sum(lower[i][k] * signed[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def is_identity(matrix) -> bool:
    return all(x == (i == j) for i, row in enumerate(matrix) for j, x in enumerate(row))


@pytest.mark.parametrize("side", ["alpha", "R"])
@pytest.mark.parametrize("index", range(5))
def test_inversion_pair_fails_the_directions_per_prefix_determinants_fail(side, index):
    # one entry off: each of the three views must fail exactly where its own
    # reference does -- the determinants of the prefixes by cofactor
    # expansion, and the banded matrix product for the convolution
    alphas = [(-1) ** k * hb(2, k) / factorial(k) for k in range(1, 6)]
    rs = [mr(2, 1, e) for e in range(1, 6)]
    (alphas if side == "alpha" else rs)[index] += Fraction(1, 3)
    a, rr = [Fraction(1), *alphas], [Fraction(1), *rs]

    def prefixes_give(entries, targets):
        return all(cofactor_reference(1, entries[1 : m + 1]) == targets[m] for m in range(1, 6))

    verdict = inversion_pair_check(alphas, rs)
    assert verdict.alpha_from_r_ok == prefixes_give(rr, a)
    assert verdict.r_from_alpha_ok == prefixes_give(a, rr)
    assert verdict.convolution_ok == is_identity(banded_product(a, rr))
    assert not verdict.alpha_from_r_ok and not verdict.r_from_alpha_ok
    assert not verdict.convolution_ok
    assert verdict.failures == (
        "convolution",
        "alpha-from-R determinant",
        "R-from-alpha determinant",
    )


def test_banded_matrix_inverse_identity():
    # the banded product is the identity exactly when the convolution holds,
    # for the true pair and for one with an entry off
    for N, r in ((2, 1), (2, 2)):
        n = 12
        alphas = [(-1) ** k * hb_higher(N, r, k) / factorial(k) for k in range(1, n + 1)]
        rs = [mr(N, r, e) for e in range(1, n + 1)]
        for off in (0, Fraction(1, 5)):
            alphas[n - 1] += off
            verdict = inversion_pair_check(alphas, rs)
            identity = is_identity(banded_product([1, *alphas], [1, *rs]))
            assert identity == verdict.convolution_ok == (off == 0)
