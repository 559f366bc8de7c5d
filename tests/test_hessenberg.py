from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgbern.altforms import mr
from hgbern.hbnum import classical, hb, hb_higher
from hgbern.hessenberg import (
    InversionVerdict,
    ToeplitzHessenbergSpec,
    hb_det,
    hb_higher_det,
    inversion_pair_check,
    toeplitz_hessenberg_det,
    trudi_expand,
)
from oracles import cofactor_det, naive_toeplitz_hessenberg_det


def random_spec(rng: Random, m: int, a0_one: bool = False) -> ToeplitzHessenbergSpec:
    def frac() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    a0 = Fraction(1) if a0_one else frac()
    return ToeplitzHessenbergSpec(a0, tuple(frac() for _ in range(m)))


def test_one_by_one():
    spec = ToeplitzHessenbergSpec(Fraction(1), (Fraction(5, 7),))
    assert toeplitz_hessenberg_det(spec) == Fraction(5, 7)


def test_classical_two_by_two():
    # [[1/2, 1], [1/6, 1/2]] -> 1/12; times (-1)^2 2! gives B_2 = 1/6
    spec = ToeplitzHessenbergSpec(Fraction(1), (Fraction(1, 2), Fraction(1, 6)))
    det = toeplitz_hessenberg_det(spec)
    assert det == Fraction(1, 12)
    assert 2 * det == classical(2)
    assert cofactor_det(spec.matrix()) == det


def test_matrix_layout():
    spec = ToeplitzHessenbergSpec(Fraction(7), (1, 2, 3))
    assert spec.matrix() == [
        [Fraction(1), Fraction(7), Fraction(0)],
        [Fraction(2), Fraction(1), Fraction(7)],
        [Fraction(3), Fraction(2), Fraction(1)],
    ]


def test_determinant_matches_cofactor_oracle():
    rng = Random(20240817)
    for m in range(1, 7):
        for _ in range(10):
            spec = random_spec(rng, m)
            assert toeplitz_hessenberg_det(spec) == cofactor_det(spec.matrix())


rationals = st.one_of(st.integers(-1000, 1000), st.fractions(max_denominator=1000))
# zero, negative and non-unit superdiagonals as well as the unit one
superdiagonals = st.one_of(st.sampled_from([0, 1, -1, 2, Fraction(-3, 7)]), rationals)


@given(superdiagonals, st.lists(rationals, max_size=12))
def test_determinant_matches_naive_fraction_recursion(a0, entries):
    spec = ToeplitzHessenbergSpec(a0, tuple(entries))
    det = toeplitz_hessenberg_det(spec)
    assert type(det) is Fraction
    assert det == naive_toeplitz_hessenberg_det(a0, entries)


def test_empty_determinant_is_one():
    for a0 in (0, 1, -2, Fraction(5, 3)):
        det = toeplitz_hessenberg_det(ToeplitzHessenbergSpec(a0, ()))
        assert det == 1 and type(det) is Fraction


def test_zero_superdiagonal_gives_product_of_diagonal():
    # a0 = 0 makes the matrix lower triangular with a1 on the diagonal
    spec = ToeplitzHessenbergSpec(0, (Fraction(-2, 3), Fraction(7), Fraction(1, 5)))
    assert toeplitz_hessenberg_det(spec) == Fraction(-8, 27)


@pytest.mark.parametrize("a0", (1, 0, -1, Fraction(3, 7)))
def test_leading_determinants_are_the_prefix_determinants(a0):
    # D_0..D_m of one walk are the determinants of the k-prefix specs
    rng = Random(2026)
    for m in [0, 1, 12] + [rng.randint(2, 11) for _ in range(5)]:
        entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)]
        leading = [Fraction(-5)]  # appended to, not replaced
        det = toeplitz_hessenberg_det(ToeplitzHessenbergSpec(a0, entries), leading)
        assert leading[0] == -5 and len(leading) == m + 2 and leading[-1] == det
        for k, value in enumerate(leading[1:]):
            prefix = ToeplitzHessenbergSpec(a0, entries[:k])
            assert value == toeplitz_hessenberg_det(prefix)
            assert value == naive_toeplitz_hessenberg_det(a0, entries[:k])
            assert value == cofactor_det(prefix.matrix())


def test_trudi_expand_simple_cases():
    assert trudi_expand(ToeplitzHessenbergSpec(Fraction(1), (Fraction(3, 4),))) == Fraction(3, 4)
    spec = ToeplitzHessenbergSpec(Fraction(1), (Fraction(1, 2), Fraction(1, 6)))
    assert trudi_expand(spec) == Fraction(1, 12)


def test_trudi_expand_matches_determinant():
    rng = Random(5)
    for m in range(1, 8):
        for _ in range(10):
            spec = random_spec(rng, m)
            assert trudi_expand(spec) == toeplitz_hessenberg_det(spec)


def test_trudi_expand_non_unit_superdiagonal():
    # a0 != 1 exercises the general (Trudi, not just Brioschi) weights
    rng = Random(99)
    for _ in range(20):
        spec = random_spec(rng, 4)
        assert trudi_expand(spec) == cofactor_det(spec.matrix())
    spec = ToeplitzHessenbergSpec(Fraction(2), (1, 1, 1, 1))
    assert trudi_expand(spec) == cofactor_det(spec.matrix())


@pytest.mark.parametrize("a0", (0, -1, Fraction(-3, 7)))
def test_trudi_expand_zero_and_negative_superdiagonal(a0):
    # a0 = 0 keeps only the all-ones partition, a1^m; a negative a0 makes
    # every group factor (-a0)^(m-k) positive
    rng = Random(17)
    for m in range(1, 8):
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        spec = ToeplitzHessenbergSpec(a0, entries)
        assert trudi_expand(spec) == naive_toeplitz_hessenberg_det(a0, entries)
    assert trudi_expand(ToeplitzHessenbergSpec(0, (Fraction(-2, 3), 7, 5))) == Fraction(-8, 27)


_non_integral = st.fractions(max_denominator=12).filter(lambda q: q.denominator > 1)


@given(
    a0=st.fractions(max_denominator=12).filter(lambda q: q != 1),
    entries=st.lists(_non_integral, min_size=1, max_size=9),
)
def test_trudi_expand_matches_determinant_off_brioschi(a0, entries):
    # a0 != 1 and non-integral entries: the multinomials and (-a0)^(m-k)
    # factors meet reduced denominators in every group
    spec = ToeplitzHessenbergSpec(a0, entries)
    assert trudi_expand(spec) == toeplitz_hessenberg_det(spec)


def test_hb_det_values():
    assert hb_det(2, 4) == Fraction(-1, 270)
    assert hb_det(1, 6) == Fraction(1, 42)
    assert hb_higher_det(1, 2, 1) == -1
    with pytest.raises(ValueError):
        hb_det(1, 0)


def test_determinant_route_matches_recurrence():
    for N in range(1, 5):
        for n in range(1, 13):
            assert hb_det(N, n) == hb(N, n)
    for N in (1, 2, 3):
        for r in (2, 3):
            for n in range(1, 10):
                assert hb_higher_det(N, r, n) == hb_higher(N, r, n)


def test_determinant_row_equals_per_point_determinants():
    for N in range(1, 6):
        for r in range(1, 5):
            row = []
            top = hb_higher_det(N, r, 30, row)
            assert len(row) == 31 and row[0] == 1 and row[30] == top
            assert row[1:] == [hb_higher_det(N, r, n) for n in range(1, 31)]
    with pytest.raises(ValueError, match="N, r and n must be >= 1"):
        hb_higher_det(0, 1, 5, [])
    assert hb_det(2, 4) == hb_higher_det(2, 1, 4, []) == Fraction(-1, 270)


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
    alphas = [
        toeplitz_hessenberg_det(ToeplitzHessenbergSpec(Fraction(1), tuple(rs[:m])))
        for m in range(1, 7)
    ]
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


@pytest.mark.parametrize("side", ["alpha", "R"])
@pytest.mark.parametrize("index", range(5))
def test_inversion_pair_fails_the_directions_per_prefix_determinants_fail(side, index):
    # one entry off: each determinant direction must fail exactly where the
    # determinants of the prefixes, by cofactor expansion, disagree
    alphas = [(-1) ** k * hb(2, k) / factorial(k) for k in range(1, 6)]
    rs = [mr(2, 1, e) for e in range(1, 6)]
    (alphas if side == "alpha" else rs)[index] += Fraction(1, 3)
    a, rr = [Fraction(1), *alphas], [Fraction(1), *rs]

    def prefixes_give(entries, targets):
        return all(
            cofactor_det(ToeplitzHessenbergSpec(Fraction(1), tuple(entries[1 : m + 1])).matrix())
            == targets[m]
            for m in range(1, 6)
        )

    verdict = inversion_pair_check(alphas, rs)
    assert verdict.alpha_from_r_ok == prefixes_give(rr, a)
    assert verdict.r_from_alpha_ok == prefixes_give(a, rr)
    assert not verdict.alpha_from_r_ok and not verdict.r_from_alpha_ok


def test_banded_matrix_inverse_identity():
    for N, r in ((2, 1), (2, 2)):
        n = 12
        alphas = [(-1) ** k * hb_higher(N, r, k) / factorial(k) for k in range(1, n + 1)]
        rs = [mr(N, r, e) for e in range(1, n + 1)]
        verdict = inversion_pair_check(alphas, rs)
        assert verdict.product_ok
