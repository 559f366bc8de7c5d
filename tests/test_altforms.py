import ast
import inspect
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from hgbern import altforms
from hgbern.altforms import (
    RoutePreconditionError,
    hb_descent_nested,
    hb_descent_step,
    hb_explicit_binom,
    hb_explicit_comp,
    hb_higher_convolution,
    hb_higher_explicit,
    hb_trudi,
    mr,
    reciprocal_binom_inverse,
    recover_mr_det,
)
from hgbern.exactnum import binom, rising
from hgbern.hbnum import classical, hb, hb_higher
from hgbern.hessenberg import weight_row
from oracles import (
    naive_hb_descent_nested,
    naive_hb_explicit_comp,
    naive_hb_higher_convolution,
    naive_hb_higher_explicit,
    naive_hb_trudi,
    naive_mr,
    naive_reciprocal_binom_inverse,
    weak_composition_weight_sum,
)


def _values(N, n, r=1):
    """The row B^(r)_{N,0..n} a relation reads, from one walk of the family."""
    row = []
    hb_higher(N, r, n, None, row)
    return row


def test_mr_values():
    assert mr(1, 2, 1) == 1  # compositions (1,0) and (0,1), each worth 1/2
    for N in range(1, 5):
        assert mr(N, 3, 0) == 1
        for e in range(0, 6):
            assert mr(N, 1, e) == Fraction(1, rising(N + 1, e))


def test_weight_row_matches_literal_enumeration():
    for N in (1, 2, 4):
        for r in (1, 2, 3):
            table = weight_row(N, r, 8)
            assert len(table) == 9 and table[0] == 1
            for e in range(9):
                assert table[e] == mr(N, r, e)


def test_explicit_comp_values():
    assert hb_explicit_comp(2, 3) == Fraction(1, 90)
    assert hb_explicit_comp(4, 1) == Fraction(-1, 5)
    assert hb_explicit_comp(3, 6) == hb(3, 6)


def test_explicit_binom_values():
    assert hb_explicit_binom(2, 2) == Fraction(1, 18)
    assert hb_explicit_binom(1, 4) == Fraction(-1, 30)
    with pytest.raises(ValueError):
        hb_explicit_binom(5, 0)


def test_explicit_binom_inner_sums_match_literal_enumeration():
    # the Cauchy-power grouping must equal the raw weak-composition sum
    for N in (1, 3):
        for n in range(1, 7):
            grouped = hb_explicit_binom(N, n)
            literal = factorial(n) * sum(
                (
                    Fraction((-1) ** k * binom(n + 1, k + 1))
                    * weak_composition_weight_sum(N, n, k)
                    for k in range(1, n + 1)
                ),
                Fraction(0),
            )
            assert grouped == literal


def test_reciprocal_binom_inverse():
    assert reciprocal_binom_inverse(_values(2, 1)) == Fraction(1, 3)
    assert reciprocal_binom_inverse(_values(1, 2)) == Fraction(1, 3)
    assert reciprocal_binom_inverse(_values(2, 3)) == Fraction(1, 10)
    for N in range(1, 7):
        row = _values(N, 10)
        for n in range(1, 11):
            assert reciprocal_binom_inverse(row[: n + 1]) * binom(N + n, N) == 1


def test_higher_explicit_values():
    assert hb_higher_explicit(1, 2, 1) == -1
    assert hb_higher_explicit(2, 1, 2) == Fraction(1, 18)
    assert hb_higher_explicit(2, 3, 4) == hb_higher(2, 3, 4)


def test_convolution_route():
    assert hb_higher_convolution(_values(1, 1), 3) == Fraction(-3, 2)  # r * B_{N,1}
    for N in (1, 2, 3):
        base = _values(N, 7)
        for n in range(0, 8):
            assert hb_higher_convolution(base[: n + 1], 1) == hb(N, n)
    assert hb_higher_convolution(_values(2, 2), 2) == hb_higher(2, 2, 2)
    # r B_{N,2} + r(r-1) B_{N,1}^2, the quadratic convolution shape
    for N in (1, 2):
        base = _values(N, 2)
        for r in (2, 3, 4):
            assert hb_higher_convolution(base, r) == r * hb(N, 2) + r * (r - 1) * hb(N, 1) ** 2


def test_descent_step():
    # N/(N+1) * B_{N-1,1}
    assert hb_descent_step(_values(2, 1), _values(3, 0), 3) == Fraction(-1, 4)
    assert hb_descent_step(_values(1, 2), _values(2, 1), 2) == Fraction(1, 18)
    assert hb_descent_step(_values(3, 7), _values(4, 6), 4) == hb(4, 7)


def test_descent_nested():
    # hand expansion: (1/2) B_2 + (1/3) B_1 B_2
    expected = Fraction(1, 2) * classical(2) + Fraction(1, 3) * classical(1) * classical(2)
    assert hb_descent_nested(_values(1, 2), 2) == expected == Fraction(1, 18)
    # (3/5) B_2^2 + (2/5) B_1 B_2^2
    expected = Fraction(3, 5) * classical(2) ** 2 + Fraction(2, 5) * classical(1) * classical(2) ** 2
    assert hb_descent_nested(_values(1, 3), 2) == expected == Fraction(1, 90)
    assert hb_descent_nested(_values(2, 4), 3) == hb(3, 4)


def test_trudi_route():
    # two partition vectors of 2: t1=2 and t2=1
    for N in range(1, 6):
        expected = Fraction(2, (N + 1) ** 2 * (N + 2))
        assert hb_trudi(N, 1, 2) == expected
    assert hb_trudi(1, 1, 2) == Fraction(1, 6)
    assert hb_trudi(1, 1, 4) == Fraction(-1, 30)
    assert hb_trudi(2, 2, 3) == hb_higher(2, 2, 3)


def test_recover_mr_det():
    assert recover_mr_det(_values(1, 2)) == Fraction(1, 6)  # 1/3!
    assert recover_mr_det(_values(4, 1)) == Fraction(1, 5)
    assert recover_mr_det(_values(2, 3, r=2)) == mr(2, 2, 3)
    # a row of ints stays exact: entries -1, 1/2, -1/6 give -1/6, not a float's
    assert recover_mr_det([1, 1, 1, 1]) == Fraction(-1, 6)
    # order-one case collapses to the shifted factorial reciprocal
    for N in range(1, 5):
        row = _values(N, 6)
        for n in range(1, 7):
            assert recover_mr_det(row[: n + 1]) == Fraction(1, rising(N + 1, n))
    # classical case: 1/(n+1)!
    row = _values(1, 8)
    for n in range(1, 9):
        assert recover_mr_det(row[: n + 1]) == Fraction(1, factorial(n + 1))


@pytest.mark.parametrize("N", (1, 2, 3))
@pytest.mark.parametrize("r", (1, 2))
def test_route_agreement_small_grid(N, r):
    base = _values(N, 8)
    prev = _values(N - 1, 8) if N >= 2 else None
    for n in range(1, 9):
        reference = hb_higher(N, r, n)
        assert hb_higher_explicit(N, r, n) == reference
        assert hb_trudi(N, r, n) == reference
        assert hb_higher_convolution(base[: n + 1], r) == reference
        if r == 1:
            assert hb_explicit_comp(N, n) == reference
            assert hb_explicit_binom(N, n) == reference
            if N >= 2:
                assert hb_descent_step(prev[: n + 1], base[:n], N) == reference
                assert hb_descent_nested(prev[: n + 1], N) == reference


def test_relations_read_only_the_rows_they_are_given():
    # altforms imports nothing from the oracle's module, and no public route
    # takes a store: a relation's values come in as its row argument
    tree = ast.parse(Path(altforms.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not [name for name in imported if "hbnum" in name.split(".")]
    functions = [getattr(altforms, name) for name in altforms.__all__]
    functions = [f for f in functions if inspect.isfunction(f)]
    relations = {
        reciprocal_binom_inverse, hb_higher_convolution, hb_descent_step, hb_descent_nested,
        recover_mr_det,
    }
    assert relations <= set(functions)
    for function in functions:
        assert "store" not in inspect.signature(function).parameters, function.__name__


ONE = [Fraction(1)]  # a row with n = 0
STEP_N = (RoutePreconditionError, "descent requires N >= 2")
NESTED_N = (RoutePreconditionError, "descent-nested requires N >= 2")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: reciprocal_binom_inverse(ONE), ValueError, "n must be >= 1", id="inverse-n"
        ),
        pytest.param(
            lambda: hb_higher_convolution([], 2), ValueError, "n must be >= 0", id="conv-n"
        ),
        pytest.param(
            lambda: hb_higher_convolution(_values(2, 3), 0), ValueError, "r must be >= 1",
            id="conv-r",
        ),
        pytest.param(
            lambda: hb_descent_step(ONE, [], 2), ValueError, "n must be >= 1", id="step-n"
        ),
        pytest.param(
            lambda: hb_descent_step(_values(2, 3), _values(2, 2), 1), *STEP_N, id="step-N"
        ),
        pytest.param(
            lambda: hb_descent_nested(ONE, 2), ValueError, "n must be >= 1", id="nested-n"
        ),
        pytest.param(lambda: hb_descent_nested(_values(2, 3), 1), *NESTED_N, id="nested-N"),
        pytest.param(lambda: recover_mr_det(ONE), ValueError, "n must be >= 1", id="recover-n"),
    ],
)
def test_relations_reject_rows_outside_their_domain(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("short", range(3))
def test_descent_step_rejects_a_short_row(short):
    # prev = B_{2,0..3} fixes n = 3, so row must be B_{3,0..2}; a shorter one
    # raises rather than reading a value that is not there
    prev = _values(2, 3)
    with pytest.raises(ValueError, match=r"^row must hold B_\(N,0\.\.2\)"):
        hb_descent_step(prev, _values(3, 3)[:short], 3)
    assert hb_descent_step(prev, _values(3, 2), 3) == hb(3, 3)


class _Started(Exception):
    """Raised by a patched helper: the route has begun its work."""


@pytest.mark.parametrize(
    "call, helper, limit, name",
    [
        pytest.param(lambda n: hb_explicit_comp(5, n), "mr", 22, "comp", id="comp"),
        pytest.param(
            lambda n: hb_descent_nested(_values(2, n), 3), "_chain_products", 22,
            "descent-nested", id="descent-nested",
        ),
        pytest.param(
            lambda n: hb_trudi(5, 10, n), "mr", altforms._trudi_max_n(10), "trudi", id="trudi"
        ),
        # the library's order-r walk: comp's limit binds at r = 2, trudi's at r = 10
        pytest.param(
            lambda n: hb_higher_explicit(5, 2, n), "mr", 22, "hb_higher_explicit",
            id="higher-explicit-r2",
        ),
        pytest.param(
            lambda n: hb_higher_explicit(5, 10, n), "mr", altforms._trudi_max_n(10),
            "hb_higher_explicit", id="higher-explicit-r10",
        ),
    ],
)
def test_exponential_routes_refuse_past_their_limit_before_any_work(
    call, helper, limit, name, monkeypatch
):
    # the limits the CLI refuses with exit 3 hold in library use too: one
    # past the limit raises before the route's first helper call
    def started(*args):
        raise _Started

    monkeypatch.setattr(altforms, helper, started)
    with pytest.raises(_Started):
        call(limit)
    with pytest.raises(RoutePreconditionError, match=f"^{name} requires n <= {limit}$"):
        call(limit + 1)


def test_mr_refuses_past_the_step_budget_before_any_composition(monkeypatch):
    # C(e+r-1, r-1) compositions: C(35, 29) = 1623160 at (r, e) = (30, 6) is
    # within 5e6 steps and C(36, 29) = 8347680 is not; mr(1, 30, 30) would
    # enumerate C(59, 29), about 5.9e16
    def started(*args):
        raise _Started

    monkeypatch.setattr(altforms, "enumerate_compositions", started)
    with pytest.raises(_Started):
        mr(1, 30, 6)
    for e in (7, 30):
        with pytest.raises(
            RoutePreconditionError, match=r"^mr requires C\(e\+r-1, r-1\) <= 5000000 compositions$"
        ):
            mr(1, 30, e)


def test_validation():
    with pytest.raises(ValueError):
        mr(0, 1, 2)
    with pytest.raises(ValueError):
        mr(1, 0, 2)
    with pytest.raises(ValueError):
        hb_trudi(1, 1, 0)
    with pytest.raises(ValueError):
        hb_higher_explicit(1, 1, 0)


# The witness routes sum integer numerators over one denominator per call and
# build one Fraction per group; the naive references multiply Fractions term
# by term over the same index sets.


@pytest.mark.parametrize("N", (1, 2, 3, 4))
def test_mr_matches_per_term_fraction_loop(N):
    for r in (1, 2, 3):
        for e in range(11):
            assert mr(N, r, e) == naive_mr(N, r, e)


@pytest.mark.parametrize("N", (1, 2, 3, 4))
def test_explicit_comp_matches_per_term_fraction_loop(N):
    for n in range(1, 11):
        assert hb_explicit_comp(N, n) == naive_hb_explicit_comp(N, n)


@pytest.mark.parametrize("N", (1, 2, 3, 4))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_trudi_matches_per_term_fraction_loop(N, r):
    for n in range(1, 11):
        assert hb_trudi(N, r, n) == naive_hb_trudi(N, r, n)


@pytest.mark.parametrize("N", (2, 3, 4))
def test_descent_nested_matches_per_term_fraction_loop(N):
    prev = [hb(N - 1, i) for i in range(11)]
    for n in range(1, 11):
        assert hb_descent_nested(prev[: n + 1], N) == naive_hb_descent_nested(prev, N, n)


def test_witness_routes_at_n_one():
    # one composition, one partition vector, one chain: the bare first weight
    for N in range(1, 6):
        assert hb_explicit_comp(N, 1) == Fraction(-1, N + 1) == naive_hb_explicit_comp(N, 1)
        for r in (1, 2, 3):
            assert hb_trudi(N, r, 1) == -mr(N, r, 1) == naive_hb_trudi(N, r, 1)
            assert mr(N, r, 1) == Fraction(r, N + 1)
        if N >= 2:
            prev = [hb(N - 1, i) for i in range(2)]
            assert hb_descent_nested(prev, N) == hb(N, 1) == naive_hb_descent_nested(prev, N, 1)


@pytest.mark.parametrize("N", (1, 2, 3, 4))
@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_higher_explicit_matches_per_term_fraction_loop(N, r):
    for n in range(1, 11):
        assert hb_higher_explicit(N, r, n) == naive_hb_higher_explicit(N, r, n)


@pytest.mark.parametrize("N", (1, 2, 3, 4))
def test_convolutions_match_per_term_fraction_loops(N):
    values = [hb(N, i) for i in range(11)]
    for n in range(0, 11):
        for r in (1, 2, 3, 4):
            assert hb_higher_convolution(values[: n + 1], r) == naive_hb_higher_convolution(
                values, r, n
            )
        if n >= 1:
            assert reciprocal_binom_inverse(values[: n + 1]) == naive_reciprocal_binom_inverse(
                values, n
            )


def test_convolution_route_is_polynomial_in_r():
    # C(27, 7) = 888030 weak compositions: 21.8 s as a per-term Fraction loop
    assert hb_higher_convolution(_values(1, 20), 8) == hb_higher(1, 8, 20)


class _CountedGroups(list):
    """A walk's groups that count every add into them."""

    adds = 0

    def __setitem__(self, index, value):
        self.adds += 1
        super().__setitem__(index, value)


def _counted_walk(monkeypatch, name):
    """Patch the walk ``altforms.<name>`` to record its calls, and the adds
    into the groups of each top call; returns the two lists."""
    walk = getattr(altforms, name)
    calls, adds = [], []

    def counted(*args):
        calls.append(args)
        *rest, groups = args
        if type(groups) is _CountedGroups:
            return walk(*args)
        counting = _CountedGroups(groups)  # the route's top call
        walk(*rest, counting)
        groups[:] = counting
        adds.append(counting.adds)

    monkeypatch.setattr(altforms, name, counted)
    return calls, adds


def _walk_calls(n, first_calls):
    """One call up to _LEAF, then `first_calls` at _LEAF + 1, doubling with n."""
    leaf = altforms._LEAF
    return 1 if n <= leaf else first_calls * 2 ** (n - leaf - 1)


def test_explicit_sum_visits_every_composition(monkeypatch):
    # each of the 2^(n-1) compositions of n is its own add into its group, a
    # prefix's product times its remainder's table entry; a walk that merged
    # prefixes with equal remainders would make about n^2 adds.  The walk
    # calls itself once per next part while more than _LEAF remains
    calls, adds = _counted_walk(monkeypatch, "_composition_products")
    for n in range(1, 17):
        for r, route in (
            (1, lambda: hb_explicit_comp(2, n)), (3, lambda: hb_higher_explicit(2, 3, n))
        ):
            calls.clear()
            adds.clear()
            assert route() == hb_higher(2, r, n)
            assert len(calls) == _walk_calls(n, altforms._LEAF + 2)
            assert adds == [2 ** (n - 1)]


def test_nested_descent_visits_every_chain(monkeypatch):
    # each of the 2^(n-1) decreasing chains from n is its own add into its
    # group; a walk that merged chains with equal ends would make about n^2
    # adds.  The walk calls itself once per next link while the chain ends
    # above _LEAF
    calls, adds = _counted_walk(monkeypatch, "_chain_products")
    prev = _values(2, 16)
    for n in range(1, 17):
        calls.clear()
        adds.clear()
        assert hb_descent_nested(prev[: n + 1], 3) == hb(3, n)
        assert len(calls) == _walk_calls(n, altforms._LEAF + 1)
        assert adds == [2 ** (n - 1)]


@pytest.mark.parametrize("N", (1, 2, 1 + 5**48))
def test_walks_are_exact_around_the_table_size(N):
    # the walks switch from calls to table entries at _LEAF: up to _LEAF a
    # walk reads one table row, at _LEAF + 1 one level of calls over the
    # table, and at 2 _LEAF several levels
    leaf = altforms._LEAF
    prev = _values(N - 1, 2 * leaf) if N >= 2 else None
    for n in (leaf - 1, leaf, leaf + 1, 2 * leaf):
        for r in (1, 2, 3):
            assert hb_higher_explicit(N, r, n) == naive_hb_higher_explicit(N, r, n)
        if prev is not None:
            assert hb_descent_nested(prev[: n + 1], N) == naive_hb_descent_nested(prev, N, n)


def test_higher_explicit_matches_per_term_fraction_loop_at_huge_N():
    N = 1 + 5**48  # the parameter of the worked congruence transfer
    for r in (1, 2, 3):
        for n in range(1, 11):
            assert hb_higher_explicit(N, r, n) == naive_hb_higher_explicit(N, r, n)
