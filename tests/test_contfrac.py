import inspect
import random
import re
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest

from hgbern.contfrac import (
    CLASSICAL_VARIANTS,
    ConvergentPair,
    Poly,
    Series,
    _series_row,
    approximation_defect,
    classical_identity,
    convergent_closed,
    convergent_rec,
    identity_even,
    identity_odd,
)
from hgbern import cli, contfrac
from hgbern.hbnum import CacheError, HBKey, MemoStore, hb, hb_higher
from hgbern.hessenberg import CommonDenominator
from oracles import (
    naive_classical_reduced,
    naive_convergent,
    naive_defect,
    naive_hb_series,
    naive_product_coefficient,
    naive_q_coefficient,
    stirling1_unsigned,
)


def test_poly_basics():
    p = Poly([1, 2, 0, 0])
    assert p.coefficients == (1, 2)
    assert p.degree == 1
    assert p[0] == 1 and p[5] == 0
    assert Poly([]).degree == -1
    assert not Poly([0, 0])
    q = Poly([0, 1])
    assert (p + q).coefficients == (1, 3)
    assert (p * q).coefficients == (0, 1, 2)


def test_poly_str():
    assert str(Poly([3, -1])) == "3 - x"
    assert str(Poly([6, 1])) == "6 + x"
    assert str(Poly([6, -2])) == "6 - 2x"
    assert str(Poly([1])) == "1"
    assert str(Poly([])) == "0"
    assert str(Poly([0, 0, Fraction(1, 2)])) == "1/2x^2"
    assert str(Poly([-1, 0, 2])) == "-1 + 2x^2"


def test_poly_text_past_the_int_digit_limit(int_digit_limit):
    # str and repr of a coefficient past the default limit, without lifting it
    big = 10**int_digit_limit
    digits = "1" + "0" * int_digit_limit
    assert str(Poly([big, 0, -big])) == f"{digits} - {digits}x^2"
    assert str(Poly([0, Fraction(3, big)])) == f"3/{digits}x"
    assert repr(Poly([-big, Fraction(1, big)])) == (
        f"Poly([Fraction(-{digits}, 1), Fraction(1, {digits})])"
    )
    # below the limit, the text of the coefficient list's own repr
    assert repr(Poly([1, Fraction(-1, 2)])) == "Poly([Fraction(1, 1), Fraction(-1, 2)])"
    assert repr(Poly([])) == "Poly([])"


def test_initial_convergents():
    pair = convergent_rec(2, 1)
    assert str(pair.P) == "3 - x" and str(pair.Q) == "3"
    pair = convergent_rec(3, 0)
    assert pair.P == Poly([1]) and pair.Q == Poly([1])


def test_recurrence_step_example():
    pair = convergent_rec(1, 2)
    assert pair.P == Poly([6, -2])
    assert pair.Q == Poly([6, 1])


def test_closed_form_examples():
    pair = convergent_closed(1, 2)
    assert pair.P == Poly([6, -2])
    assert pair.Q == Poly([6, 1])  # the n! x^n leading coefficient shows up here
    rec = convergent_rec(2, 3)
    closed = convergent_closed(2, 3)
    assert closed.P == rec.P and closed.Q == rec.Q


@pytest.mark.parametrize("N", range(1, 7))
def test_closed_equals_recurrence(N):
    for n in range(0, 13):
        a = convergent_rec(N, n)
        b = convergent_closed(N, n)
        assert a.P == b.P and a.Q == b.Q


BIG_N = 1 + 5**48


def test_closed_equals_recurrence_at_large_parameter():
    for n in range(0, 81):
        a = convergent_rec(BIG_N, n)
        b = convergent_closed(BIG_N, n)
        assert a.P == b.P and a.Q == b.Q, n


@pytest.mark.parametrize("N", [*range(1, 7), BIG_N])
def test_q_coefficient_matches_term_by_term_sum(N):
    # j = m + 1 - odd is one past the degree; k = j = m meets binom(-1, 0),
    # and every k >= 2m - j - odd meets the empty product
    for m in range(0, 41):
        for odd in (0, 1):
            for j in range(m + 2 - odd):
                expected = naive_q_coefficient(N, m, odd, j)
                assert contfrac._q_coefficient(N, m, odd, j) == expected, (m, odd, j)
            if m >= 1:
                assert expected == 0, (m, odd)


@pytest.mark.parametrize("N", range(1, 7))
def test_degree_pattern(N):
    for n in range(0, 13):
        pair = convergent_rec(N, n)
        m = (n + 1) // 2
        assert pair.P.degree == m
        expected_q = m if n % 2 == 0 else m - 1
        if N == 1 and n % 2 == 1 and m % 2 == 0:
            # the generic leading coefficient of Q carries a factor N-1 here
            expected_q -= 1
        assert pair.Q.degree == expected_q, (N, n)
        assert pair.Q[0] != 0


def test_series_validation():
    assert Series((Fraction(0), Fraction(0))).is_zero()
    assert not Series((Fraction(0), Fraction(1, 3))).is_zero()


def test_convergent_pair_rejects_vanishing_denominator():
    with pytest.raises(ValueError):
        ConvergentPair(1, Poly([1]), Poly([0, 1]), 1)


def test_defect_hand_expansion():
    # N=1, n=2: x^2 coefficient of Q*S - P is 6*(1/12) + 1*(-1/2) = 0
    pair = convergent_rec(1, 2)
    defect = approximation_defect(pair)
    assert len(defect.coefficients) == 3
    assert defect.coefficients == (0, 0, 0)


def test_defect_trivial_at_index_zero():
    assert approximation_defect(convergent_rec(3, 0)).is_zero()


@pytest.mark.parametrize("N", range(1, 7))
def test_defect_vanishes_for_both_routes(N):
    for n in range(0, 13):
        assert approximation_defect(convergent_rec(N, n)).is_zero()
        assert approximation_defect(convergent_closed(N, n)).is_zero()


def test_defect_fills_the_store_with_its_row():
    # the entries one hb call per term would leave, and no others
    store = MemoStore()
    assert approximation_defect(convergent_rec(3, 9), store).is_zero()
    assert store.items() == [(HBKey(3, 1, k), hb(3, k)) for k in range(10)]


def test_identity_even_examples():
    lhs, rhs = identity_even(2, 1, 0)
    assert lhs == rhs == 12  # (N+1)(N+2) at N=2
    lhs, rhs = identity_even(1, 2, 3)
    assert lhs == rhs == 0
    lhs, rhs = identity_even(2, 3, 2)
    assert lhs == rhs


def test_identity_odd_examples():
    lhs, rhs = identity_odd(1, 1, 0)
    assert lhs == rhs == 2
    lhs, rhs = identity_odd(3, 2, 4)  # h = 2n lies beyond the guaranteed range
    assert (lhs, rhs) == (Fraction(-1, 105), Fraction(0))
    lhs, rhs = identity_odd(1, 3, 3)
    assert lhs == rhs


@pytest.mark.parametrize("N", range(1, 5))
def test_identity_families_hold_on_guaranteed_ranges(N):
    for n in range(1, 9):
        for h in range(0, 2 * n + 1):
            lhs, rhs = identity_even(N, n, h)
            assert lhs == rhs, ("even", N, n, h)
        for h in range(0, 2 * n):
            lhs, rhs = identity_odd(N, n, h)
            assert lhs == rhs, ("odd", N, n, h)


def test_classical_identity_examples():
    lhs, rhs = classical_identity("even", 2, 0)
    assert lhs == rhs == 1
    lhs, rhs = classical_identity("odd-reduced", 2, 4)
    assert lhs == rhs == 0
    lhs, rhs = classical_identity("even", 3, 2)
    assert lhs == rhs


def test_classical_identity_ranges():
    for n in range(1, 9):
        for h in range(0, 2 * n + 1):
            lhs, rhs = classical_identity("even", n, h)
            assert lhs == rhs, ("even", n, h)
        for h in range(0, 2 * n):
            lhs, rhs = classical_identity("odd", n, h)
            assert lhs == rhs, ("odd", n, h)
        # reduced forms extend one step further
        for h in range(1, 2 * n + 2):
            lhs, rhs = classical_identity("even-reduced", n, h)
            assert lhs == rhs, ("even-reduced", n, h)
        for h in range(1, 2 * n + 1):
            lhs, rhs = classical_identity("odd-reduced", n, h)
            assert lhs == rhs, ("odd-reduced", n, h)


def test_classical_identities_are_the_n_one_identities_over_a_factorial():
    # "even" / "odd" divide both N = 1 sides by (2n-h+1)! resp. (2n-h)!,
    # which leaves the bare signed binomial on the right; each side, built
    # once over that scale, equals the reduced N = 1 side divided by it
    for n in range(1, 16):
        for variant, family, top in (
            ("even", identity_even, 2 * n + 1),
            ("odd", identity_odd, 2 * n),
        ):
            for h in range(0, top + 1):
                lhs, rhs = classical_identity(variant, n, h)
                scale = factorial(top - h)
                assert (lhs, rhs) == tuple(side / scale for side in family(1, n, h))
                assert rhs == ((-1) ** h * comb(n, h) if h <= n else 0)


def test_classical_identity_validation():
    with pytest.raises(ValueError):
        classical_identity("sideways", 2, 1)
    with pytest.raises(ValueError):
        classical_identity("even", 2, 6)  # 2n+1 = 5 is the cap
    with pytest.raises(ValueError):
        classical_identity("even-reduced", 2, 0)
    with pytest.raises(ValueError):
        classical_identity("odd-reduced", 2, 5)
    assert set(CLASSICAL_VARIANTS) == {"even", "odd", "even-reduced", "odd-reduced"}


@pytest.mark.parametrize("N", range(1, 5))
def test_stirling_rewriting_of_products(N):
    # prod_{l=1..2n-j-1} (N+l) rewritten through unsigned Stirling numbers
    for n in range(1, 9):
        for j in range(0, n + 1):
            m = 2 * n - j - 1
            prod = 1
            for l in range(1, m + 1):
                prod *= N + l
            total = sum(
                stirling1_unsigned(m + 1, i) * N ** (i - 1) for i in range(1, m + 2)
            )
            assert prod == total


def test_identity_input_validation():
    with pytest.raises(ValueError):
        identity_even(1, 0, 0)
    with pytest.raises(ValueError):
        identity_odd(1, 2, -1)
    with pytest.raises(ValueError):
        identity_even(0, 2, 1)


@pytest.mark.parametrize(
    "call, args",
    [
        (identity_even, (True, 2, 1)),
        (identity_even, (2, 2, False)),
        (identity_odd, (2.0, 2, 1)),
        (identity_odd, (2, 2.0, 1)),
        (identity_odd, (2, 2, 1.0)),
        (classical_identity, ("even-reduced", 2, 2.0)),
        (classical_identity, ("odd-reduced", True, 1)),
        (classical_identity, ("even", 2.0, 1)),
        (classical_identity, ("odd", 2, True)),
        (convergent_rec, (True, 3)),
        (convergent_rec, (2, 3.0)),
        (convergent_closed, (2.0, 3)),
        (convergent_closed, (2, False)),
        # the oracle and its rows take the same guard, HBKey
        (hb, (2.0, 3)),
        (hb, (True, 2)),
        (hb, (2, 3.5)),
        (hb_higher, (2, 1.0, 3)),
        (_series_row, (2.0, 3)),
        (approximation_defect, (replace(convergent_rec(2, 3), N=2.0),)),
        # h is named as h, not as the row index it becomes
        (identity_odd, (2, 2, 1.0)),
        (identity_odd, (1, 2, -1)),
        (classical_identity, ("odd", 2, "1")),
    ],
)
def test_checks_refuse_a_bool_or_non_int_index_before_touching_the_store(call, args):
    # a float or a bool hashes equal to an int key, so it would read that
    # key's value and kept data; it is refused up front instead, by the name
    # of the first index that is not an int >= 0
    if call is approximation_defect:
        indices = {"N": args[0].N}
    else:
        indices = dict(zip(inspect.signature(call).parameters, args))
        indices.pop("variant", None)
    name, value = next((k, v) for k, v in indices.items() if type(v) is not int or v < 0)
    message = f"{name} must be an int, got {value!r}"
    if type(value) is int:
        message = f"{name} must be >= 0"
    store = MemoStore()
    for h in range(5):
        identity_even(2, 2, h, store)
        identity_odd(2, 2, h, store)
    for h in range(1, 5):
        classical_identity("odd-reduced", 2, h, store)
        classical_identity("even-reduced", 2, h, store)
    before = (store.items(), dict(store._kept))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args) if call in (convergent_rec, convergent_closed) else call(*args, store)
    assert (store.items(), store._kept) == before


def test_lhs_uses_generating_series_values():
    # the even identity at h <= n is the x^h coefficient match of Q*S = P
    N, n, h = 2, 2, 1
    lhs, rhs = identity_even(N, n, h)
    pair = convergent_closed(N, 2 * n)
    direct = sum(
        (pair.Q[j] * hb(N, h - j) / factorial(h - j) for j in range(h + 1)),
        Fraction(0),
    )
    assert lhs == direct == pair.P[h] == rhs


# The integer sums over one row against term-by-term Fraction references
# built without contfrac code.


@pytest.mark.parametrize("N", range(1, 6))
def test_identities_equal_the_term_by_term_reference(N):
    store = MemoStore()
    for n in range(1, 13):
        series = naive_hb_series(N, 2 * n + 3)
        for odd, family in ((0, identity_even), (1, identity_odd)):
            P, Q = naive_convergent(N, 2 * n - odd)
            for h in range(2 * n + 3):
                expected = (
                    naive_product_coefficient(Q, series, h),
                    P[h] if h < len(P) else Fraction(0),
                )
                assert family(N, n, h, store) == expected, (N, n, h, odd)
    if N == 3:  # the pinned non-identity: h = 2n lies beyond the odd family's range
        P, Q = naive_convergent(3, 3)
        assert naive_product_coefficient(Q, naive_hb_series(3, 5), 4) == Fraction(-1, 105)
        assert len(P) <= 4 and identity_odd(3, 2, 4, store) == (Fraction(-1, 105), 0)


def test_classical_identities_equal_the_term_by_term_reference():
    store = MemoStore()
    series = naive_hb_series(1, 2 * 12 + 3)
    for n in range(1, 13):
        for variant, odd in (("even", 0), ("odd", 1)):
            P, Q = naive_convergent(1, 2 * n - odd)
            top = 2 * n + 1 - odd
            for h in range(top + 1):
                scale = factorial(top - h)
                lhs = naive_product_coefficient(Q, series, h) / scale
                rhs = (P[h] if h < len(P) else 0) / scale
                assert classical_identity(variant, n, h, store) == (lhs, rhs), (variant, n, h)
            with pytest.raises(ValueError, match=f"needs 0 <= h <= {top}"):
                classical_identity(variant, n, top + 1, store)
        for variant, top in (("even-reduced", 2 * n + 1), ("odd-reduced", 2 * n)):
            for h in range(1, top + 1):
                expected = naive_classical_reduced(variant, n, h)
                assert classical_identity(variant, n, h, store) == expected, (variant, n, h)
            for h in (0, top + 1):
                with pytest.raises(ValueError, match=f"variant '{variant}' needs 1 <= h"):
                    classical_identity(variant, n, h, store)


def _perturbed(pair, which, power, delta):
    coeffs = list(getattr(pair, which).coefficients)
    coeffs += [Fraction(0)] * (power + 1 - len(coeffs))
    coeffs[power] += delta
    polys = {"P": pair.P, "Q": pair.Q, which: Poly(coeffs)}
    return ConvergentPair(pair.n, polys["P"], polys["Q"], pair.N)


@pytest.mark.parametrize("N", range(1, 5))
def test_defects_equal_the_term_by_term_reference(N):
    store = MemoStore()
    for n in range(25):
        pair = convergent_rec(N, n)
        P, Q = pair.P.coefficients, pair.Q.coefficients
        assert list(approximation_defect(pair, store).coefficients) == naive_defect(
            P, Q, N, n + 1
        ) == [0] * (n + 1)
        # non-integral coefficients, first nonzero exactly where perturbed
        power = n // 2
        for which, delta in (("P", Fraction(-5, 11)), ("Q", Fraction(1, 3))):
            bad = _perturbed(pair, which, power, delta)
            defect = approximation_defect(bad, store).coefficients
            assert list(defect) == naive_defect(bad.P.coefficients, bad.Q.coefficients, N, n + 1)
            assert next(h for h, c in enumerate(defect) if c != 0) == power
            assert defect[power] == (-delta if which == "P" else delta)


def test_defect_validation_is_unchanged():
    # the row's key checks the pair's indices: N first, then n = order - 1
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        approximation_defect(ConvergentPair(2, Poly([1]), Poly([1]), 0))
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        approximation_defect(ConvergentPair(-1, Poly([1]), Poly([1]), 0))
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        approximation_defect(ConvergentPair(-1, Poly([1]), Poly([1]), 2))


def test_cli_reports_a_perturbed_defect_at_its_first_coefficient(capsys, monkeypatch):
    real = contfrac.convergent_rec
    monkeypatch.setattr(
        contfrac, "convergent_rec", lambda N, n: _perturbed(real(N, n), "Q", 2, Fraction(1, 3))
    )
    assert cli.main(["convergents", "-N", "2", "-n", "6", "--check"]) == cli.EXIT_VERIFY
    assert capsys.readouterr().out == (
        "P = 20160 - 7560x + 1080x^2 - 60x^3, Q = 20160 - 840x + 721/3x^2 + 6x^3\n"
        "defect ≠ 0 mod x^7: coefficient of x^2 is 1/3\n"
    )


# Kept rows: on a store, each family's row over its lcm is built once and
# kept; checks read it (or a longer kept row) instead of rebuilding it.


def _checks(n):
    """Every identity and classical check at index n, on its guaranteed range."""
    for N in (1, 2, 4):
        yield from ((identity_even, (N, n, h)) for h in range(2 * n + 1))
        yield from ((identity_odd, (N, n, h)) for h in range(2 * n))
    for variant, lo, hi in (
        ("even", 0, 2 * n),
        ("odd", 0, 2 * n - 1),
        ("even-reduced", 1, 2 * n + 1),
        ("odd-reduced", 1, 2 * n),
    ):
        yield from ((classical_identity, (variant, n, h)) for h in range(lo, hi + 1))


def test_checks_agree_with_and_without_a_store_in_any_order_of_h():
    checks = [check for n in (1, 4, 7) for check in _checks(n)]
    checks.append((identity_odd, (3, 2, 4)))  # beyond its range: the sides differ
    alone = {check: check[0](*check[1]) for check in checks}
    by_h = sorted(checks, key=lambda check: check[1][-1])
    for order in (checks, by_h, by_h[::-1]):  # as listed, shorter h first, longer h first
        expected = [alone[check] for check in order]
        assert [fn(*args, MemoStore()) for fn, args in order] == expected
        store = MemoStore()
        assert [fn(*args, store) for fn, args in order] == expected
    pairs = [convergent_rec(N, k) for N in (1, 2, 3) for k in range(16)]
    defects = [approximation_defect(pair) for pair in pairs]
    assert [approximation_defect(pair, store) for pair in pairs[::-1]] == defects[::-1]
    store = MemoStore()
    assert [approximation_defect(pair, store) for pair in pairs] == defects


def test_a_changed_value_inside_a_kept_row_reaches_the_next_check():
    store = MemoStore()
    assert identity_even(2, 4, 8, store) == identity_even(2, 4, 8)
    assert classical_identity("odd-reduced", 4, 8, store) == classical_identity("odd-reduced", 4, 8)
    store.put(HBKey(2, 1, 4), hb(2, 4) + 1)
    series = [store.get(HBKey(2, 1, i)) / factorial(i) for i in range(9)]
    P, Q = naive_convergent(2, 8)
    for h in (5, 8):  # a shorter h than the kept row's, and its full length
        lhs, rhs = identity_even(2, 4, h, store)
        assert lhs == naive_product_coefficient(Q, series, h) != rhs
    # the change dropped everything kept: the N = 1 family builds its row
    # again from values that did not change, and putting the true value back
    # is a change too, which the next check reads
    assert classical_identity("odd-reduced", 4, 8, store) == classical_identity("odd-reduced", 4, 8)
    store.put(HBKey(2, 1, 4), hb(2, 4))
    assert identity_even(2, 4, 8, store) == identity_even(2, 4, 8)


def test_only_a_changed_value_empties_what_the_store_keeps():
    checks = [(identity_even, (N, 4, h)) for N in (2, 3) for h in range(9)]
    checks += [(identity_odd, (N, 4, h)) for N in (2, 3) for h in range(8)]
    checks += [(classical_identity, ("even-reduced", 4, h)) for h in range(1, 10)]
    checks += [(classical_identity, ("odd-reduced", 4, h)) for h in range(1, 9)]
    store = MemoStore()
    for fn, args in checks:
        fn(*args, store)
    kept = dict(store._kept)
    assert {key[0] for key in kept} == {"row", "P", "Q", "even-reduced", "odd-reduced"}
    store.put(HBKey(3, 1, 20), hb(3, 20))  # a new key
    store.put(HBKey(2, 1, 4), hb(2, 4))  # an equal value
    assert store._kept.keys() == kept.keys()
    assert all(store._kept[key] is value for key, value in kept.items())
    store.put(HBKey(3, 1, 5), hb(3, 5) + 1)  # a changed value
    assert store._kept == {}
    fresh = MemoStore()
    for key, value in store.items():
        fresh.put(key, value)
    after = [fn(*args, store) for fn, args in checks]
    assert after == [fn(*args, fresh) for fn, args in checks]
    assert identity_even(3, 4, 5, store) != identity_even(3, 4, 5)  # the change is read


def test_a_conflicting_load_leaves_a_kept_row_as_it_was(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("3 1 4 1/7\n")
    store = MemoStore(path)
    expected = identity_odd(3, 3, 5)
    assert identity_odd(3, 3, 5, store) == expected
    with pytest.raises(CacheError, match="3 1 4 conflicts"):
        store.load(audit_samples=0)
    assert identity_odd(3, 3, 5, store) == expected


def test_kept_rows_stay_out_of_the_store_entries_and_its_file(tmp_path):
    plain, checked = MemoStore(tmp_path / "plain.txt"), MemoStore(tmp_path / "checked.txt")
    for store in (plain, checked):
        for N in range(1, 5):
            hb(N, 13, store)
    for fn, args in _checks(6):
        fn(*args, checked)
    approximation_defect(convergent_closed(3, 11), checked)
    assert checked._kept  # the checks kept their rows, P, Q and weight lists on the store
    assert len(checked) == len(plain) == 56
    assert checked.items() == plain.items()
    plain.save()
    checked.save()
    assert checked.path.read_bytes() == plain.path.read_bytes()


def test_series_row_is_the_row_over_its_lcm_and_kept_on_a_store():
    values = [hb(3, m) for m in range(9)]
    alone = _series_row(3, 8, MemoStore())
    assert [Fraction(x, alone.den) for x in alone.nums] == values
    store = MemoStore()
    kept = _series_row(3, 5, store)
    assert [Fraction(x, kept.den) for x in kept.nums] == values[:6]
    assert _series_row(3, 2, store) is kept  # a longer kept row serves
    longer = _series_row(3, 8, store)
    assert [Fraction(x, longer.den) for x in longer.nums] == values
    assert longer is kept  # grown in place, at its end
    assert _series_row(3, 7, store) is longer
    store.put(HBKey(3, 1, 9), Fraction(1))  # past the kept row: it stays
    assert _series_row(3, 8, store) is longer
    store.put(HBKey(3, 1, 8), values[8])  # an equal value: it stays
    assert _series_row(3, 8, store) is longer
    store.put(HBKey(3, 1, 8), Fraction(1))  # inside it, changed: built again
    again = _series_row(3, 8, store)
    assert again is not longer and Fraction(again.nums[8], again.den) == 1
    with pytest.raises(ValueError, match="n must be >= 0"):
        _series_row(3, -1, MemoStore())


@pytest.mark.parametrize("N", [1, 3, 1 + 5**20])
def test_a_row_grown_over_several_walks_is_the_row_over_its_lcm(N):
    # each walk adds its new values over their own lcm with one rescale of
    # the held numerators; the result is the one-shot row over its lcm
    store = MemoStore()
    for n in (0, 1, 2, 9, 40, 41, 150, 300):
        kept = _series_row(N, n, store)
        row = [store.get(HBKey(N, 1, m)) for m in range(n + 1)]
        whole = CommonDenominator(row)
        assert (kept.den, kept.nums) == (whole.den, whole.nums), n
    assert len(kept.nums) == 301


def test_a_family_on_one_store_builds_each_row_over_its_lcm_once(monkeypatch):
    n = 6
    expected = {
        (N, odd, h): family(N, n, h)
        for N in range(1, 4)
        for odd, family in ((0, identity_even), (1, identity_odd))
        for h in range(2 * n + 1 - odd)
    }
    built = []
    init = CommonDenominator.__init__

    def counting(self, values):
        values = list(values)
        built.append(values)
        init(self, values)

    monkeypatch.setattr(CommonDenominator, "__init__", counting)
    store = MemoStore()
    for N in range(1, 4):
        hb(N, 2 * n, store)  # every value stored, so no check computes one
        built.clear()
        for h in range(2 * n + 1):  # h up: the kept row grows by extend
            assert identity_even(N, n, h, store) == expected[N, 0, h]
        for h in range(2 * n - 1, -1, -1):  # h down: the kept row serves as it is
            assert identity_odd(N, n, h, store) == expected[N, 1, h]
        # the kept row is the only lcm holder the checks build: once per N,
        # empty, then grown by extend and never rebuilt
        assert built == [[]], N
        assert len(store._kept["row", N, 1].nums) == 2 * n + 1, N


# Kept Q lists: on a store, the coefficient list of Q_{2n-odd} for j <= n is
# built once per (N, n, odd) and every h of the family reads it.


def _counting(monkeypatch, name):
    """Count the calls of ``contfrac.<name>`` by their arguments."""
    calls = {}
    plain = getattr(contfrac, name)

    def counting(*args):
        calls[args] = calls.get(args, 0) + 1
        return plain(*args)

    monkeypatch.setattr(contfrac, name, counting)
    return calls


def test_a_family_on_one_store_builds_each_q_list_once(monkeypatch):
    calls = _counting(monkeypatch, "_q_coefficient")
    store = MemoStore()
    families = [(N, n, odd) for N in (1, 3, 5) for n in (1, 2, 7, 12) for odd in (0, 1)]
    for N, n, odd in families:
        family = identity_odd if odd else identity_even
        for h in range(2 * n + 1):
            family(N, n, h, store)
    assert calls == {(*family, j): 1 for family in families for j in range(family[1] + 1)}
    # a second store builds its own lists; the first one's serve it nothing
    calls.clear()
    other = MemoStore()
    for h in range(2 * 7 + 1):
        identity_even(3, 7, h, other)
        identity_even(3, 7, h, store)
    assert calls == {(3, 7, 0, j): 1 for j in range(8)}


# Kept P lists and reduced weights: on a store, the coefficient list of
# P_{2n-odd} is built once per (N, n, odd) and a reduced classical variant's
# weights once per (variant, n), to its widest h.


def test_a_family_on_one_store_builds_each_p_list_and_weight_list_once(monkeypatch):
    p_lists = _counting(monkeypatch, "_p_list")
    weights = _counting(monkeypatch, "_reduced_weights")
    store = MemoStore()
    indices = (1, 2, 7, 12)
    families = [(N, n, odd) for N in (1, 3, 5) for n in indices for odd in (0, 1)]
    for N, n, odd in families:
        family = identity_odd if odd else identity_even
        for h in range(2 * n + 1):
            family(N, n, h, store)
    for n in indices:
        for variant, top in (("even-reduced", 2 * n + 1), ("odd-reduced", 2 * n)):
            for h in range(1, top + 1):
                classical_identity(variant, n, h, store)
        for variant, top in (("even", 2 * n), ("odd", 2 * n - 1)):
            for h in range(top, -1, -1):
                classical_identity(variant, n, h, store)
    # the classical variants read the N = 1 families' P lists
    assert p_lists == {family: 1 for family in families}
    assert weights == {
        (variant, n, 2 * n + 1 - odd): 1
        for n in indices
        for variant, odd in (("even-reduced", 0), ("odd-reduced", 1))
    }
    # a second store builds its own lists; the first one's serve it nothing
    p_lists.clear()
    weights.clear()
    other = MemoStore()
    for h in range(1, 2 * 7 + 1):
        for target in (store, other):
            identity_odd(3, 7, h, target)
            classical_identity("odd-reduced", 7, h, target)
    assert p_lists == {(3, 7, 1): 1, (1, 7, 1): 1}
    assert weights == {("odd-reduced", 7, 14): 1}


def test_checks_agree_with_no_store_a_fresh_store_and_one_shared_store_in_any_order():
    checks = []
    for n in range(1, 22):
        for N in range(1, 6):
            # one h past each family's range, where the sides are computed but may differ
            checks += [(identity_even, (N, n, h)) for h in range(2 * n + 2)]
            checks += [(identity_odd, (N, n, h)) for h in range(2 * n + 1)]
        for variant, lo, hi in (
            ("even", 0, 2 * n),
            ("odd", 0, 2 * n - 1),
            ("even-reduced", 1, 2 * n + 1),
            ("odd-reduced", 1, 2 * n),
        ):
            checks += [(classical_identity, (variant, n, h)) for h in range(lo, hi + 1)]
    alone = [fn(*args) for fn, args in checks]
    assert [fn(*args, MemoStore()) for fn, args in checks] == alone
    shuffled = list(range(len(checks)))
    random.Random(21).shuffle(shuffled)
    by_h = sorted(range(len(checks)), key=lambda i: checks[i][1][-1])
    # shuffled, shorter h first and longer h first: the first check of a
    # family that builds a kept P list or weight list may sit at any h
    for order in (shuffled, by_h, by_h[::-1]):
        shared = MemoStore()
        assert {i: checks[i][0](*checks[i][1], shared) for i in order} == dict(enumerate(alone))
        # one row per N, one P and one Q list per (N, n, odd), one weight
        # list per reduced (variant, n)
        assert set(shared._kept) == {("row", N, 1) for N in range(1, 6)} | {
            (kind, N, n, odd)
            for kind in "PQ"
            for N in range(1, 6)
            for n in range(1, 22)
            for odd in (0, 1)
        } | {(variant, n) for variant in ("even-reduced", "odd-reduced") for n in range(1, 22)}
