"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (tolerance zero); run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines and timings.
"""

import time
from fractions import Fraction
from math import factorial
from random import Random

from hgbern.altforms import (
    hb_descent_nested,
    hb_descent_step,
    hb_explicit_binom,
    hb_explicit_comp,
    hb_higher_convolution,
    hb_higher_explicit,
    hb_trudi,
    mr,
    recover_mr_det,
)
from hgbern.congruence import (
    hb_kummer_corollary,
    hb_kummer_pair,
    kummer_classical,
    ord_threshold,
)
from hgbern.contfrac import (
    approximation_defect,
    classical_identity,
    convergent_closed,
    convergent_rec,
    identity_even,
    identity_odd,
)
from hgbern.hbnum import MemoStore, hb, hb_higher
from hgbern.hessenberg import (
    hb_higher_det,
    inversion_pair_check,
    toeplitz_hessenberg_det,
    trudi_expand,
)
from oracles import cofactor_det, reference_verdict, toeplitz_hessenberg_matrix


def _report(number: int, started: float, detail: str) -> None:
    elapsed = time.time() - started
    print(f"\ncriterion {number}: PASS ({elapsed:.1f}s) - {detail}")


def test_criterion_1_fixture_row():
    started = time.time()
    expected = [Fraction(1), Fraction(-1, 3), Fraction(1, 18), Fraction(1, 90), Fraction(-1, 270)]
    assert [hb(2, n) for n in range(5)] == expected
    _report(1, started, "parameter-2 values for n = 0..4 match the fixture row exactly")


def test_criterion_2_symbolic_spot_checks():
    started = time.time()
    for N in range(1, 11):
        assert hb(N, 1) == Fraction(-1, N + 1)
        assert hb(N, 2) == Fraction(2, (N + 1) ** 2 * (N + 2))
        assert hb(N, 3) == Fraction(6 * (N - 1), (N + 1) ** 3 * (N + 2) * (N + 3))
    _report(2, started, "hb(N,1), hb(N,2), hb(N,3) closed forms hold for N = 1..10")


def test_criterion_3_route_agreement_sweep():
    started = time.time()
    store = MemoStore()
    points = 0
    for N in range(1, 6):
        # the rows the relations read, each family's built once
        base = [hb(N, i, store) for i in range(15)]
        prev = [hb(N - 1, i, store) for i in range(15)] if N >= 2 else []
        for r in range(1, 4):
            for n in range(1, 15):
                reference = hb_higher(N, r, n, store)
                assert hb_higher_explicit(N, r, n) == reference, (N, r, n, "explicit")
                assert hb_trudi(N, r, n) == reference, (N, r, n, "trudi")
                assert hb_higher_det(N, r, n) == reference, (N, r, n, "det")
                assert hb_higher_convolution(base[: n + 1], r) == reference, (N, r, n, "conv")
                if r == 1:
                    assert hb_explicit_comp(N, n) == reference, (N, n, "comp")
                    assert hb_explicit_binom(N, n) == reference, (N, n, "binom")
                    if N >= 2:
                        step = hb_descent_step(prev[: n + 1], base[:n], N)
                        assert step == reference, (N, n, "descent")
                        assert hb_descent_nested(prev[: n + 1], N) == reference, (N, n, "nested")
                points += 1
    # determinant route is O(n^2); push it deeper against the recurrence
    for N in range(1, 6):
        for r in range(1, 4):
            for n in range(15, 21):
                assert hb_higher_det(N, r, n) == hb_higher(N, r, n, store)
                points += 1
    _report(3, started, f"all routes agree on {points} grid points (n <= 14, det to n = 20)")


def test_criterion_4_inversion_duality():
    started = time.time()
    store = MemoStore()
    for N in range(1, 5):
        for r in range(1, 4):
            row = [hb_higher(N, r, k, store) for k in range(11)]
            for n in range(1, 11):
                assert recover_mr_det(row[: n + 1]) == mr(N, r, n), (N, r, n)
    # the alternating convolution (the banded matrices are inverse) and both
    # determinant directions at n = 12
    for N, r in ((1, 1), (2, 1), (2, 2), (3, 3)):
        n = 12
        alphas = [(-1) ** k * hb_higher(N, r, k) / factorial(k) for k in range(1, n + 1)]
        rs = [mr(N, r, e) for e in range(1, n + 1)]
        verdict = inversion_pair_check(alphas, rs)
        assert bool(verdict), (N, r, verdict.failures)
    _report(4, started, "weights recovered by determinants; banded matrices are mutually inverse")


def test_criterion_5_convergents():
    started = time.time()
    for N in range(1, 7):
        for n in range(0, 13):
            rec_pair = convergent_rec(N, n)
            closed_pair = convergent_closed(N, n)
            assert rec_pair.P == closed_pair.P and rec_pair.Q == closed_pair.Q, (N, n)
            assert approximation_defect(rec_pair).is_zero(), (N, n)
            assert approximation_defect(closed_pair).is_zero(), (N, n)
    _report(5, started, "recurrence = closed form and defect series vanish for N <= 6, n <= 12")


def test_criterion_6_identity_families():
    started = time.time()
    for N in range(1, 5):
        for n in range(1, 9):
            for h in range(0, 2 * n + 1):
                lhs, rhs = identity_even(N, n, h)
                assert lhs == rhs, ("even", N, n, h)
            for h in range(0, 2 * n):
                lhs, rhs = identity_odd(N, n, h)
                assert lhs == rhs, ("odd", N, n, h)
    for n in range(1, 9):
        for h in range(0, 2 * n + 1):
            lhs, rhs = classical_identity("even", n, h)
            assert lhs == rhs, ("even", n, h)
        for h in range(0, 2 * n):
            lhs, rhs = classical_identity("odd", n, h)
            assert lhs == rhs, ("odd", n, h)
        for h in range(1, 2 * n + 2):
            lhs, rhs = classical_identity("even-reduced", n, h)
            assert lhs == rhs, ("even-reduced", n, h)
        for h in range(1, 2 * n + 1):
            lhs, rhs = classical_identity("odd-reduced", n, h)
            assert lhs == rhs, ("odd-reduced", n, h)
    _report(6, started, "both identity families and all four classical variants hold (n <= 8)")


def test_criterion_7_congruence_reproduction():
    started = time.time()
    assert ord_threshold(5, 6, 0) == 4
    assert ord_threshold(5, 2, 1, m=22) == 48

    N = 1 + 5**4
    first = hb_kummer_corollary(5, N, 6, 0)
    second = hb_kummer_corollary(5, N, 2, 0)
    assert first.holds and second.holds
    assert first.lhs_residue == second.lhs_residue == 3
    assert reference_verdict(hb(N, 6) / 6, hb(N, 2) / 2, 5, 1)[4:] == (3, 3)

    N = 1 + 5**48
    pair = hb_kummer_pair(5, N, 22, 2, 0)
    assert pair.holds
    assert pair.lhs_residue == pair.rhs_residue == 3  # displayed as 8, canonically 3
    pair = hb_kummer_pair(5, N, 22, 2, 1)  # the 48 threshold belongs to nu = 1
    assert pair.holds and pair.lhs_residue == pair.rhs_residue == 8
    _report(7, started, "both worked congruence examples reproduce with thresholds 4 and 48")


def test_criterion_8_classical_kummer_grid():
    started = time.time()
    checked = 0
    for p in (5, 7, 11):
        for nu in (0, 1, 2):
            step = (p - 1) * p**nu
            for n in range(2, 41, 2):
                if n % (p - 1) == 0:
                    continue
                for m in range(n, 41, 2):
                    if m % (p - 1) == 0 or (m - n) % step != 0:
                        continue
                    verdict = kummer_classical(p, m, n, nu)
                    assert verdict.holds, (p, m, n, nu)
                    checked += 1
    _report(8, started, f"classical Kummer congruence holds on {checked} hypothesis-satisfying cases")


def test_criterion_9_brute_force_oracles():
    started = time.time()
    rng = Random(20250810)

    def frac() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    # 200 random matrices: structural determinant vs Trudi expansion (m <= 7)
    for _ in range(200):
        m = rng.randint(1, 7)
        a0, entries = frac(), [frac() for _ in range(m)]
        assert toeplitz_hessenberg_det(a0, entries) == trudi_expand(a0, entries)
    # cofactor brute force (m <= 6), including non-unit superdiagonals
    for _ in range(60):
        m = rng.randint(1, 6)
        a0, entries = frac(), [frac() for _ in range(m)]
        brute = cofactor_det(toeplitz_hessenberg_matrix(a0, entries))
        assert toeplitz_hessenberg_det(a0, entries) == brute
        assert trudi_expand(a0, entries) == brute
    _report(9, started, "determinant recursion, Trudi expansion and cofactor oracle all agree")
