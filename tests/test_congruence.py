from fractions import Fraction
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgbern.congruence import (
    HypothesisViolation,
    congruent,
    hb_factorial_congruence,
    hb_kummer_corollary,
    hb_kummer_pair,
    is_prime,
    kummer_classical,
    ord_threshold,
    ordp,
    residue,
)
from hgbern.hbnum import classical, hb


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(101)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(10**6 + 4)
    assert is_prime(2**61 - 1)  # beyond the trial-division window
    assert not is_prime(2**67 - 1)  # Mersenne composite
    # 399165290221 * 798330580441: strong pseudoprime to every base up to 37
    assert not is_prime(318665857834031151167461)


def test_ordp_values():
    assert ordp(Fraction(3, 4), 2) == -2
    assert ordp(0, 7) == inf
    assert ordp(Fraction(1, 252), 5) == 0  # 252 = 2^2 * 3^2 * 7
    assert ordp(50, 5) == 2
    assert ordp(Fraction(-125, 3), 5) == 3


def test_ordp_rejects_composite_modulus():
    with pytest.raises(ValueError):
        ordp(Fraction(1, 2), 6)


nonzero_fractions = st.fractions().filter(lambda q: q != 0)
primes = st.sampled_from([2, 3, 5, 7, 11, 13])


@given(nonzero_fractions, nonzero_fractions, primes)
def test_ordp_is_additive_on_products(x, y, p):
    assert ordp(x * y, p) == ordp(x, p) + ordp(y, p)


@given(nonzero_fractions, nonzero_fractions, primes)
def test_ordp_ultrametric(x, y, p):
    vx, vy = ordp(x, p), ordp(y, p)
    vs = ordp(x + y, p)
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


def test_residue():
    assert residue(Fraction(1, 252), 5, 1) == 3
    assert residue(Fraction(1, 5), 5, 1) is None
    assert residue(8, 5, 1) == 3
    assert residue(Fraction(-1, 3), 5, 2) == 8


def test_congruent_examples():
    v = congruent(Fraction(1, 252), 3, 5, 1)
    assert v.holds and v.lhs_residue == v.rhs_residue == 3
    v = congruent(Fraction(2, 7), Fraction(2, 7), 5, 9)
    assert v.holds and v.difference_ord == inf
    v = congruent(Fraction(1, 5), 0, 5, 1)
    assert not v.holds and v.difference_ord == -1 and v.lhs_residue is None


def test_kummer_classical_base_example():
    v = kummer_classical(5, 6, 2, 0)
    assert v.holds
    assert v.lhs_residue == v.rhs_residue == 3
    assert v.difference_ord >= 1


def test_kummer_classical_higher_power():
    v = kummer_classical(5, 22, 2, 1)  # 22 == 2 (mod 20), check mod 25
    assert v.holds and v.modulus_exponent == 2
    v = kummer_classical(7, 8, 8, 3)  # m = n holds at any nu
    assert v.holds


def test_kummer_classical_hypothesis_errors():
    with pytest.raises(HypothesisViolation, match="positive even"):
        kummer_classical(5, 7, 3, 0)
    with pytest.raises(HypothesisViolation, match=r"0 \(mod p-1\)"):
        kummer_classical(5, 8, 4, 0)
    with pytest.raises(HypothesisViolation, match="m ≡ n"):
        kummer_classical(5, 6, 2, 1)  # 6 - 2 = 4 is not a multiple of 20


def test_ord_threshold_values():
    assert ord_threshold(5, 6, 0) == 4
    assert ord_threshold(5, 2, 1, m=22) == 48
    assert ord_threshold(7, 2, 0) == 1  # no factor of 7 in 1! 2! 3!, ord_7(2) = 0


def test_factorial_congruence_trivial_cases():
    v = hb_factorial_congruence(5, 26, 0)  # n = 0: both sides 1
    assert v.holds
    v = hb_factorial_congruence(7, 1, 9)  # N = 1: exact equality
    assert v.holds and v.modulus_exponent == inf


def test_factorial_congruence_example():
    v = hb_factorial_congruence(5, 26, 4)  # ord_5(25) = 2
    assert v.holds and v.modulus_exponent == 2 and v.difference_ord >= 2


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("t", (1, 2))
def test_factorial_congruence_grid(p, t):
    N = 1 + p**t
    for n in range(0, 9):
        v = hb_factorial_congruence(p, N, n)
        assert v.holds, (p, t, n)
        assert v.modulus_exponent == t


def test_corollary_first_worked_example():
    N = 1 + 5**4
    v = hb_kummer_corollary(5, N, 6, 0)
    assert v.holds and v.lhs_residue == v.rhs_residue == 3
    v = hb_kummer_corollary(5, N, 2, 0)
    assert v.holds and v.lhs_residue == v.rhs_residue == 3
    # and the two agree with each other, not just with the classical side
    assert residue(hb(N, 6) / 6, 5, 1) == residue(hb(N, 2) / 2, 5, 1) == 3


def test_corollary_exact_at_parameter_one():
    v = hb_kummer_corollary(5, 1, 6, 0)
    assert v.holds
    assert hb(1, 6) == classical(6)


def test_corollary_threshold_enforced():
    with pytest.raises(HypothesisViolation, match="ord_5"):
        hb_kummer_corollary(5, 1 + 5**3, 6, 0)  # needs ord >= 4
    with pytest.raises(HypothesisViolation, match=r"≢ 0 \(mod p-1\)"):
        hb_kummer_corollary(5, 1 + 5**8, 4, 0)


def test_pair_second_worked_example():
    N = 1 + 5**48
    v = hb_kummer_pair(5, N, 22, 2, 0)
    assert v.holds
    # displayed residue 8 is canonical 3 mod 5
    assert v.lhs_residue == v.rhs_residue == 8 % 5 == 3
    # at nu = 1 (which is where the 48 threshold comes from) the canonical
    # residue mod 25 is literally 8
    v = hb_kummer_pair(5, N, 22, 2, 1)
    assert v.holds and v.modulus_exponent == 2
    assert v.lhs_residue == v.rhs_residue == 8


def test_pair_small_case():
    v = hb_kummer_pair(5, 1 + 5**4, 6, 2, 0)
    assert v.holds and v.lhs_residue == 3
    v = hb_kummer_pair(7, 1 + 7**10, 8, 8, 0)  # m = n
    assert v.holds


def test_pair_hypothesis_errors():
    with pytest.raises(HypothesisViolation, match="m >= n"):
        hb_kummer_pair(5, 1 + 5**10, 2, 6, 0)
    with pytest.raises(HypothesisViolation, match="ord_5"):
        hb_kummer_pair(5, 626, 22, 2, 0)
