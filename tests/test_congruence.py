import dataclasses
import random
import sys
from fractions import Fraction
from math import factorial, inf, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgbern import congruence
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
from hgbern.hbnum import MemoStore, classical, hb
from oracles import reference_verdict


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(101)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(10**6 + 4)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # Mersenne composite
    # 399165290221 * 798330580441: strong pseudoprime to every base up to 37
    assert not is_prime(318665857834031151167461)
    # Carmichael numbers (1152271 = 43 * 127 * 211 has no factor up to 41, so
    # Miller-Rabin, not division, must reject it), and 151 * 751 * 28351, a
    # strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 1152271, 3215031751):
        assert not is_prime(n), n
    # primes, and a product of two, past 10^12
    assert is_prime(999999999989) and is_prime(10**12 + 39)
    assert not is_prime(999999999989 * 1000003)


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, limit, i))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_cost_does_not_grow_with_the_candidate():
    # 13 divisions, then Miller-Rabin: a prime near 10^12 runs about a hundred
    # lines of is_prime; trial division to its square root would run 10^5 and more
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if frame.f_code is not is_prime.__code__:
            return None
        lines += event == "line"
        return count

    before = sys.gettrace()
    sys.settrace(count)
    try:
        assert is_prime(10**12 + 39)
    finally:
        sys.settrace(before)
    assert 0 < lines < 1000


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


@pytest.mark.parametrize("k", (-1, True, False, 1.5, -inf))
def test_exponent_must_be_a_nonnegative_integer_or_inf(k):
    with pytest.raises(ValueError, match=r"^k must be a nonnegative integer or inf$"):
        residue(Fraction(1, 3), 5, k)
    with pytest.raises(ValueError, match=r"^k must be a nonnegative integer or inf$"):
        congruent(1, 1, 5, k)


def test_residue_at_infinite_exponent_is_omitted_as_in_a_verdict():
    assert residue(Fraction(1, 3), 5, inf) is None


def test_residue_rejects_a_composite_modulus():
    with pytest.raises(ValueError, match=r"^p must be prime, got 1$"):
        residue(Fraction(1, 3), 1, 2)
    with pytest.raises(ValueError, match=r"^p must be prime, got 6$"):
        residue(Fraction(1, 5), 6, 1)


# A float is not read as its binary expansion: 0.2 is not 1/5 (ord_5 = -1,
# no residue), and its expansion would give ord 0 and residue 8 mod 25.
NOT_RATIONAL = (0.2, 1.0, float("nan"), complex(1, 0), "1/5")


@pytest.mark.parametrize("x", NOT_RATIONAL, ids=repr)
def test_ordp_rejects_a_value_that_is_not_rational(x):
    with pytest.raises(ValueError, match=r"^x must be a rational number \(int or Fraction\), got "):
        ordp(x, 5)


@pytest.mark.parametrize("x", NOT_RATIONAL, ids=repr)
def test_residue_rejects_a_value_that_is_not_rational(x):
    with pytest.raises(ValueError, match=r"^x must be a rational number \(int or Fraction\), got "):
        residue(x, 5, 2)


@pytest.mark.parametrize("x", NOT_RATIONAL, ids=repr)
def test_congruent_rejects_a_value_that_is_not_rational(x):
    with pytest.raises(ValueError, match=r"^a must be a rational number \(int or Fraction\), got "):
        congruent(x, Fraction(1, 5), 5, 1)
    with pytest.raises(ValueError, match=r"^b must be a rational number \(int or Fraction\), got "):
        congruent(Fraction(1, 5), x, 5, 1)


def test_rational_values_of_every_kind_are_accepted():
    assert ordp(True, 5) == 0 and ordp(Fraction(2, 25), 5) == -2 and ordp(-50, 5) == 2
    assert residue(Fraction(5, 10), 5, 2) == 13  # 1/2 mod 25
    assert congruent(Fraction(6, 5), Fraction(1, 5), 5, 0).difference_ord == 0


# Verdicts against the plain Fraction reference: ord_p of the reduced
# difference and the residues of the reduced sides.


def _random_pairs(rng):
    """Pairs of rationals: p in either denominator or both, equal sides,
    zero on either side, negative values, differences divisible by p^j."""
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7, 13))
        a = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        a *= Fraction(p) ** rng.randint(-3, 3)
        b = rng.choice(
            (
                a,
                -a,
                0,
                a + p ** rng.randint(0, 8),
                a + Fraction(rng.randint(-99, 99), p ** rng.randint(1, 4)),
                Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)),
            )
        )
        yield (a, b, p) if rng.random() < 0.5 else (b, a, p)
    yield 0, 0, 5
    yield Fraction(-3, 25), Fraction(-3, 25), 5


def test_congruent_matches_the_fraction_reference_on_random_pairs():
    for a, b, p in _random_pairs(random.Random(20)):
        for k in (0, 1, 3, inf):
            expected = reference_verdict(a, b, p, k)
            assert dataclasses.astuple(congruent(a, b, p, k)) == expected, (a, b, p, k)


def _unreduced_side(rng, p):
    """An unreduced (numerator, positive denominator) pair: a random value,
    sometimes zero or with powers of p in its denominator, whose numerator
    and denominator are multiplied by a common factor that often holds powers
    of p, so the verdict has to strip them."""
    num = rng.choice((0, rng.randint(-10**9, 10**9), rng.randint(-99, 99)))
    den = rng.randint(1, 10**6) * p ** rng.choice((0, 0, 1, 3))
    common = p ** rng.randint(0, 5) * rng.randint(1, 10**4)
    return num * common, den * common


def test_verdict_kernel_matches_the_fraction_reference_on_unreduced_pairs():
    rng = random.Random(22)
    stripped = p_left = zeros = negatives = 0
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7))
        an, ad = _unreduced_side(rng, p)
        bn, bd = rng.choice(
            (
                _unreduced_side(rng, p),
                (an * 3, ad * 3),  # the same value, scaled otherwise
                (-an * p**2, ad * p**2),
                (an + ad * p ** rng.randint(0, 6), ad),  # a difference divisible by p^j
            )
        )
        a, b = Fraction(an, ad), Fraction(bn, bd)
        for k in (0, 1, 3, inf):
            verdict = congruence._verdict(an, ad, bn, bd, p, k)
            assert dataclasses.astuple(verdict) == reference_verdict(a, b, p, k), (an, ad, bn, bd)
        stripped += ad % p == 0 and a.denominator % p != 0
        p_left += a.denominator % p == 0
        zeros += an == 0
        negatives += an < 0
    assert min(stripped, p_left, zeros, negatives) > 100


def _kummer_side(p, m, value):
    return (1 - p ** (m - 1)) * value / m


def _workload_checks():
    """Every Kummer-grid, pair, corollary and ladder check of the benchmark's
    cf-kummer workload, with its two sides built the plain way: a call, the
    statement's sides, p and the modulus exponent."""
    for p in (5, 7, 11, 13):
        for nu in (0, 1):
            step = (p - 1) * p**nu
            for n in range(2, 121, 2):
                if n % (p - 1) == 0:
                    continue
                for m in range(n, 121, 2):
                    if m % (p - 1) != 0 and (m - n) % step == 0:
                        sides = _kummer_side(p, m, classical(m)), _kummer_side(p, n, classical(n))
                        yield (kummer_classical, (p, m, n, nu)), sides, p, nu + 1
    for p, N, m, n, nus in ((5, 1 + 5**48, 22, 2, (0, 1)), (7, 1 + 7**131, 44, 2, (1,))):
        for nu in nus:
            sides = _kummer_side(p, m, hb(N, m)), _kummer_side(p, n, hb(N, n))
            yield (hb_kummer_pair, (p, N, m, n, nu)), sides, p, nu + 1
    for n in (6, 2):
        sides = hb(1 + 5**4, n) / n, classical(n) / n
        yield (hb_kummer_corollary, (5, 1 + 5**4, n, 0)), sides, 5, 1
    for p in (3, 5, 7):
        for t in range(4):
            N = 1 + p**t if t else 1
            for n in (2, 4, 6, 8, 10):
                lhs, rhs = hb(N, n), classical(n)
                for k in range(n + 1):
                    lhs *= prod(range(N + 1, N + k + 1))
                    rhs *= factorial(k + 1)
                yield (hb_factorial_congruence, (p, N, n)), (lhs, rhs), p, t if t else inf


def test_statement_verdicts_match_the_fraction_reference_on_the_workload_checks():
    store = MemoStore()
    count = 0
    for (statement, args), (lhs, rhs), p, k in _workload_checks():
        verdict = statement(*args, store)
        assert dataclasses.astuple(verdict) == reference_verdict(lhs, rhs, p, k), args
        assert verdict.holds
        count += 1
    assert count == 1757 + 3 + 2 + 60


@pytest.mark.parametrize(
    "statement, args, message",
    [
        (kummer_classical, (5, 7, 3, 0), "hypothesis m positive even violated: m = 7"),
        (kummer_classical, (5, 8, 4, 0), "hypothesis m ≢ 0 (mod p-1) violated: 8 ≡ 0 (mod 4)"),
        (
            kummer_classical,
            (5, 6, 2, 1),
            "hypothesis m ≡ n (mod (p-1)p^nu) violated: 6 ≢ 2 (mod 20)",
        ),
        (hb_kummer_pair, (5, 1 + 5**10, 2, 6, 0), "hypothesis m >= n violated: m = 2, n = 6"),
        (
            hb_kummer_pair,
            (5, 626, 22, 2, 0),
            "hypothesis ord_5(N-1) >= 47 violated: ord_5(N-1) = 4",
        ),
        (
            hb_kummer_corollary,
            (5, 126, 6, 0),
            "hypothesis ord_5(N-1) >= 4 violated: ord_5(N-1) = 3",
        ),
        (
            hb_kummer_corollary,
            (5, 1 + 5**8, 4, 0),
            "hypothesis n ≢ 0 (mod p-1) violated: 4 ≡ 0 (mod 4)",
        ),
    ],
)
def test_hypothesis_violation_texts(statement, args, message):
    with pytest.raises(HypothesisViolation) as raised:
        statement(*args)
    assert str(raised.value) == message
