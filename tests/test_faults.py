"""Which check catches which kernel fault.  ``FAULTS`` puts one canonical fault
into one kernel, at every binding of it; each of ``CHECKS`` runs a check a user
runs, in-process on a small grid, and returns the failures it reports.  ``CAUGHT``
pins them, leaving out each check that passes; README prints the matrix."""

import io
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from itertools import chain, product
from math import gcd
from pathlib import Path
from random import Random

import pytest

import hgbern
from hgbern import cli, congruence, contfrac, hessenberg
from hgbern.cli import EXIT_OK, main
from hgbern.hbnum import HBKey, MemoStore, hb_higher


def _fault(bump, when=lambda *args: True):
    """A kernel's result becomes `bump(result)` where `when(*args)` holds, unless that is None."""
    return lambda kernel, hits: lambda *args: _bumped(kernel(*args), args, bump, when, hits)


def _bumped(out, args, bump, when, hits):
    if when(*args) and (faulty := bump(out)) is not None:
        hits.append(args)
        return faulty
    return out


def _entry_1(out):
    """The list `out` with 1 added to its entry 1; None if it has none."""
    if len(out) > 1:
        out[1] += 1
        return out


def _top_row(table):
    """A walk's table with 1 added to the first product of its last row, the
    row a walk to at most the table's size reads; None if that row is empty."""
    if table[-1]:
        parts, product = table[-1][0]
        table[-1][0] = parts, product + 1
        return table


def _skip_first(items):
    next(items)
    return items


def _wrong_r1_walk(row, hits):
    """+1 on B_{N,5} where the r = 1 walk computes it, in the store too."""

    def wrong(N, r, n, store):
        computes = r == 1 and n >= 5 and (store is None or HBKey(N, 1, 5) not in store)
        values = row(N, r, n, store)
        if computes:
            hits.append(N)
            values[5] += 1
            if store is not None:
                store.put(HBKey(N, 1, 5), values[5])
        return values

    return wrong


def _forgetful_append(append, hits):
    def wrong(self, value):  # forgets to rescale the numerators it holds
        grow = value.denominator // gcd(value.denominator, self.den)
        if grow != 1:
            hits.append(value)
        self.den *= grow
        self.nums.append(value.numerator * self.den // value.denominator)

    return wrong


# kernel, as a dotted path from hgbern -> its canonical fault
FAULTS = {
    "clean": None,
    "hbnum._row": _wrong_r1_walk,
    "hbnum._weights": _fault(lambda weights: _entry_1(weights[1]) and weights),
    "hbnum._order_step": _fault(_entry_1),
    "exactnum.cauchy_product": _fault(_entry_1),
    "exactnum.enumerate_compositions": _fault(_skip_first),
    "exactnum.enumerate_partition_vectors": _fault(_skip_first),
    "altforms._composition_table": _fault(_top_row),
    "altforms._chain_table": _fault(_top_row),
    "hessenberg._convolution": _fault(_entry_1),
    # the table convolves its base row, this same list, into each next power
    "hessenberg._weight_powers": _fault(
        lambda rows: chain([_entry_1(next(rows))], rows), lambda N, upto: upto > 0
    ),
    "hessenberg.weight_row": _fault(_entry_1),
    "hessenberg.CommonDenominator.append": _forgetful_append,
    "hessenberg.trudi_expand": _fault(lambda det: det + 1),
    "contfrac.convergent_rec": _fault(
        lambda pair: contfrac.ConvergentPair(pair.n, pair.P + contfrac.Poly([1]), pair.Q, pair.N)
    ),
    "contfrac._q_coefficient": _fault(lambda c: c + 1, lambda N, m, odd, j: j == 1),
    # a new row with B_{N,1} + 1: the kept row stays right
    "contfrac._series_row": _fault(lambda kept: hessenberg.CommonDenominator(
        [Fraction(x, kept.den) + (i == 1) for i, x in enumerate(kept.nums)]
    )),
    "congruence.ordp": _fault(lambda v: v + 1),
}


def _oracle_rows():
    values = []
    for N, r in product((1, 2, 3), repeat=2):
        hb_higher(N, r, 12, None, values)
    return values


def _verdicts():
    """The worked congruence examples that CI runs."""
    return [
        congruence.kummer_classical(5, 6, 2, 0),
        congruence.hb_kummer_corollary(5, 626, 6, 0),
        congruence.hb_kummer_corollary(5, 626, 2, 0),
        congruence.hb_factorial_congruence(3, 10, 6),
        congruence.hb_factorial_congruence(5, 26, 6),
        congruence.hb_kummer_pair(5, 1 + 5**48, 22, 2, 1),
    ]


# computed at import, before any fault
_CLEAN_ROWS, _CLEAN_VERDICTS = _oracle_rows(), _verdicts()
_rng = Random(19)
_ENTRY_LISTS = [
    (a0, [Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(m)])
    for a0, m in product((0, 1, 2, Fraction(-1, 3)), range(1, 11))
]
_CONVERGENTS = list(product((1, 2, 3), range(9)))


def _sweep(big_n, r, n, routes):
    _, _, mismatches = cli.run_sweep(big_n, r, n, routes, MemoStore())
    return Counter(route for _, _, _, route, _ in mismatches)


def _audit(*grid):
    """``table``, ``cache-audit``, a reload's spot audit: MISMATCH lines, + 1 if that fails."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()) as out:
        cache_file = ("--cache", str(Path(tmp, "cache.txt")))
        main(["table", *grid, *cache_file])
        main(["cache-audit", *cache_file])
        with redirect_stderr(io.StringIO()):
            spot = main(["table", *grid, *cache_file])
    return out.getvalue().count("MISMATCH") + (spot != EXIT_OK)


def _identities():
    checks = []
    for n in range(1, 5):
        for N in (1, 2, 3):
            checks += [(contfrac.identity_even, N, n, h) for h in range(2 * n + 1)]
            checks += [(contfrac.identity_odd, N, n, h) for h in range(2 * n)]
        for variant, lo, hi in (
            ("even", 0, 2 * n), ("odd", 0, 2 * n - 1),
            ("even-reduced", 1, 2 * n + 1), ("odd-reduced", 1, 2 * n),
        ):
            checks += [(contfrac.classical_identity, variant, n, h) for h in range(lo, hi + 1)]
    return sum(lhs != rhs for lhs, rhs in (check(*args) for check, *args in checks))


CHECKS = {
    "sweep": lambda: _sweep((1, 2), (1, 2, 3), range(9), tuple(cli.ROUTES)),
    "deep": lambda: _sweep((1, 2, 3), (1, 2, 3), range(21), ("recurrence", "det")),
    "oracle": lambda: sum(a != b for a, b in zip(_oracle_rows(), _CLEAN_ROWS)),
    "audit r=1": lambda: _audit("-N", "1..3", "-n", "0..12"),
    "audit r≤3": lambda: _audit("-N", "1..2", "-r", "1..3", "-n", "0..10"),
    "defect": lambda: sum(
        not contfrac.approximation_defect(route(N, n)).is_zero()
        for route in (contfrac.convergent_rec, contfrac.convergent_closed)
        for N, n in _CONVERGENTS
    ),
    "closed = rec": lambda: sum(
        contfrac.convergent_closed(N, n) != contfrac.convergent_rec(N, n) for N, n in _CONVERGENTS
    ),
    "identities": _identities,
    "congruences": lambda: sum(a != b for a, b in zip(_verdicts(), _CLEAN_VERDICTS)),
    "trudi = det": lambda: sum(
        hessenberg.trudi_expand(*case) != hessenberg.toeplitz_hessenberg_det(*case)
        for case in _ENTRY_LISTS
    ),
}

# A wrong oracle weight row fails all 120 deep r >= 2 values past n = 0; its r <= 3 audit
# is 40 MISMATCH lines and the spot audit.  The r = 1-only audit reruns the walk that wrote
# its file (ROADMAP item 21).  No fault in the routes' power table or lcm holder reaches the oracle.
CAUGHT = {
    "clean": {},
    "hbnum._row": {"sweep": {"comp": 2, "binom": 2, "trudi": 2, "det": 2, "descent": 4,
                             "descent-nested": 4, "convolution": 21}, "deep": {"det": 3},
                   "oracle": 3, "audit r≤3": 11, "defect": 24, "identities": 49},
    "hbnum._weights": {"sweep": {"trudi": 32, "det": 32, "convolution": 32},
                       "deep": {"det": 120}, "oracle": 72, "audit r≤3": 41},
    "hbnum._order_step": {"audit r≤3": 6},
    "exactnum.cauchy_product": {"sweep": {"trudi": 32, "det": 32, "convolution": 32},
                                "deep": {"det": 120}, "oracle": 72, "audit r≤3": 41},
    "exactnum.enumerate_compositions": {"sweep": {"comp": 13, "trudi": 45}},
    "exactnum.enumerate_partition_vectors": {"sweep": {"trudi": 48}, "trudi = det": 30},
    "altforms._composition_table": {"sweep": {"comp": 16}},
    "altforms._chain_table": {"sweep": {"descent-nested": 8}},
    "hessenberg._convolution": {"sweep": {"binom": 12, "det": 32}, "deep": {"det": 120}},
    "hessenberg._weight_powers": {"sweep": {"comp": 16, "binom": 16, "trudi": 48, "det": 48},
                                  "deep": {"det": 180}},
    "hessenberg.weight_row": {"sweep": {"det": 48}, "deep": {"det": 180}},
    "hessenberg.CommonDenominator.append": {"sweep": {"det": 40}, "deep": {"det": 169},
                                            "trudi = det": 25},
    "hessenberg.trudi_expand": {"sweep": {"trudi": 48}, "trudi = det": 40},
    "contfrac.convergent_rec": {"defect": 27, "closed = rec": 27},
    "contfrac._q_coefficient": {"defect": 24, "closed = rec": 24, "identities": 126},
    "contfrac._series_row": {"defect": 48, "identities": 106},
    "congruence.ordp": {"congruences": 6},
}

WHY = {
    "hbnum._order_step": "it *is* the r ≥ 2 audit, so its fault shows as a false MISMATCH",
    "exactnum.enumerate_compositions": "only `mr` reads it, and only `comp` and `trudi` read `mr`",
    "altforms._composition_table": "only `comp`'s walk reads it",
    "altforms._chain_table": "only `descent-nested`'s walk reads it",
    "congruence.ordp": "only the congruence statements take a valuation",
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_fault_is_caught_by_the_checks_its_row_names(fault, monkeypatch, patch_every_binding):
    hits = []
    if FAULTS[fault] is not None:
        *path, attr = fault.split(".")
        owner = reduce(getattr, path, hgbern)
        original = getattr(owner, attr)
        wrong = FAULTS[fault](original, hits)
        monkeypatch.setattr(owner, attr, wrong)
        patch_every_binding(original, wrong)
    found = {name: check() for name, check in CHECKS.items()}
    assert {name: count for name, count in found.items() if count} == CAUGHT[fault]
    # the fault ran, so a renamed kernel cannot leave a silent clean row
    assert bool(hits) == (fault != "clean")


def test_the_readme_prints_the_matrix_and_each_single_catch_says_why():
    assert {fault for fault, caught in CAUGHT.items() if len(caught) < 2} - {"clean"} == set(WHY)
    lines = ["| kernel | caught by | why fewer than two |", "|---|---|---|"]
    for fault, caught in list(CAUGHT.items())[1:]:
        names = ", ".join(name for name in CHECKS if name in caught)
        lines.append(f"| `{fault}` | {names} | {WHY.get(fault, '')} |")
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert "\n".join(lines) in readme
