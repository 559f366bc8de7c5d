import ast
import csv
import dataclasses
import hashlib
import io
import json
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hgbern
from hgbern import altforms, cli, hbnum, hessenberg
from hgbern.altforms import RoutePreconditionError
from hgbern.cli import EXIT_OK, EXIT_ROUTE, EXIT_USAGE, EXIT_VERIFY, main
from hgbern.congruence import (
    CongruenceVerdict,
    _verdict,
    hb_kummer_corollary,
    hb_kummer_pair,
    ord_threshold,
)
from hgbern.exactnum import format_rational, parse_rational
from hgbern.hbnum import hb_higher


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_basic(capsys):
    code, out, _ = run(capsys, "compute", "-N", "2", "-n", "4")
    assert code == EXIT_OK and out.strip() == "-1/270"
    code, out, _ = run(capsys, "compute", "-N", "1", "-n", "1")
    assert code == EXIT_OK and out.strip() == "-1/2"


def test_compute_route_selection(capsys):
    code, out, _ = run(capsys, "compute", "-N", "2", "-n", "3", "--route", "descent-nested")
    assert code == EXIT_OK and out.strip() == "1/90"
    code, out, _ = run(capsys, "compute", "-N", "3", "-n", "5", "--route", "det")
    assert code == EXIT_OK
    assert parse_rational(out.strip()) == hb_higher(3, 1, 5)


def test_compute_decimal_display(capsys):
    code, out, _ = run(capsys, "compute", "-N", "2", "-n", "4", "--decimal", "6")
    assert code == EXIT_OK
    assert out.strip().startswith("-1/270 ≈ -0.003703")


@pytest.mark.parametrize("digits", ["-2", "x"])
def test_compute_decimal_rejects_bad_digit_count(digits, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-N", "2", "-n", "4", "--decimal", digits])
    assert exc.value.code == EXIT_USAGE
    assert "expected an integer >= 0" in capsys.readouterr().err


def test_compute_exit_codes(capsys):
    code, _, err = run(capsys, "compute", "-N", "0", "-n", "3")
    assert code == EXIT_USAGE and "N must be >= 1" in err
    code, _, err = run(capsys, "compute", "-N", "1", "-n", "3", "--route", "descent")
    assert code == EXIT_ROUTE and "requires N >= 2" in err
    code, _, err = run(capsys, "compute", "-N", "2", "-n", "3", "-r", "2", "--route", "comp")
    assert code == EXIT_ROUTE and "requires r = 1" in err
    # the domain is checked in the order r, N, n
    code, _, err = run(
        capsys, "compute", "-N", "1", "-n", "0", "-r", "2", "--route", "descent"
    )
    assert code == EXIT_ROUTE and err == "error: route 'descent' requires r = 1\n"
    code, _, err = run(capsys, "compute", "-N", "1", "-n", "0", "--route", "descent-nested")
    assert code == EXIT_ROUTE and err == "error: route 'descent-nested' requires N >= 2\n"
    code, _, err = run(capsys, "compute", "-N", "1", "-n", "0", "--route", "det")
    assert code == EXIT_ROUTE and err == "error: route 'det' requires n >= 1\n"
    # the exponential witnesses refuse n beyond their measured limits
    code, _, err = run(capsys, "compute", "-N", "2", "-n", "23", "--route", "comp")
    assert code == EXIT_ROUTE and err == "error: route 'comp' requires n <= 22\n"
    code, _, err = run(capsys, "compute", "-N", "2", "-n", "23", "--route", "descent-nested")
    assert code == EXIT_ROUTE and err == "error: route 'descent-nested' requires n <= 22\n"
    code, _, err = run(capsys, "compute", "-N", "1", "-n", "53", "-r", "2", "--route", "trudi")
    assert code == EXIT_ROUTE and err == "error: route 'trudi' requires n <= 52\n"


@pytest.mark.parametrize(
    "r, n, limit", [(3, 53, 52), (4, 53, 52), (5, 48, 47), (10, 20, 15), (10**7, 1, 0)]
)
def test_trudi_limit_falls_with_r(r, n, limit, capsys):
    # each weight mr(N, r, e) enumerates C(e+r-1, r-1) compositions
    code, out, err = run(
        capsys, "compute", "-N", "1", "-n", str(n), "-r", str(r), "--route", "trudi"
    )
    assert code == EXIT_ROUTE and out == ""
    assert err == f"error: route 'trudi' requires n <= {limit}\n"


def test_trudi_limit_leaves_r_below_one_to_the_route(capsys):
    for r in ("0", "-60"):
        code, _, err = run(
            capsys, "verify", "-N", "1", "-r", r, "-n", "3", "--routes", "recurrence,trudi"
        )
        assert code == EXIT_USAGE and err == "error: r must be >= 1\n"


def test_route_table_and_library_refusals_say_the_same():
    # one past each limit the library refuses, before any work, with the
    # route's name and the reason the route table gives for that point; at the
    # limit itself the table admits the point (and the route is not run there)
    prev = [hbnum.hb(1, i) for i in range(24)]  # B_{1,0..23}
    cases = [
        ("comp", 2, 1, 22, lambda n: altforms.hb_explicit_comp(2, n)),
        ("descent-nested", 2, 1, 22, lambda n: altforms.hb_descent_nested(prev[: n + 1], 2)),
    ]
    cases += [
        ("trudi", 2, r, altforms._trudi_max_n(r), lambda n, r=r: altforms.hb_trudi(2, r, n))
        for r in range(1, 21)
    ]
    for name, N, r, limit, call in cases:
        assert cli.ROUTES[name].violation(N, r, limit) is None
        why = cli.ROUTES[name].violation(N, r, limit + 1)
        with pytest.raises(RoutePreconditionError, match=f"^{re.escape(f'{name} {why}')}$"):
            call(limit + 1)
    # descent and descent-nested at N = 1, where N = 2 is admitted
    for name, call in [
        ("descent", lambda: altforms.hb_descent_step(prev[:4], prev[:3], 1)),
        ("descent-nested", lambda: altforms.hb_descent_nested(prev[:4], 1)),
    ]:
        assert cli.ROUTES[name].violation(2, 1, 3) is None
        why = cli.ROUTES[name].violation(1, 1, 3)
        with pytest.raises(RoutePreconditionError, match=f"^{re.escape(f'{name} {why}')}$"):
            call()


def test_output_is_deterministic(capsys):
    first = run(capsys, "table", "-N", "1..2", "-n", "0..5", "--format", "json")
    second = run(capsys, "table", "-N", "1..2", "-n", "0..5", "--format", "json")
    assert first == second


def test_table_csv_round_trip(capsys):
    code, out, _ = run(capsys, "table", "-N", "2", "-n", "0..4", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert [row["value"] for row in rows] == ["1/1", "-1/3", "1/18", "1/90", "-1/270"]
    for row in rows:
        recomputed = hb_higher(int(row["N"]), int(row["r"]), int(row["n"]))
        assert parse_rational(row["value"]) == recomputed


def test_table_single_row(capsys):
    code, out, _ = run(capsys, "table", "-N", "1", "-n", "0..0")
    assert code == EXIT_OK
    assert out.splitlines() == ["N,r,n,value", "1,1,0,1/1"]


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "-N", "1..2", "-n", "0..2", "--format", "json")
    assert code == EXIT_OK
    records = json.loads(out)
    assert len(records) == 6
    # deterministic (N, r, n) ordering
    assert [(rec["N"], rec["n"]) for rec in records] == [
        (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
    ]
    for rec in records:
        assert parse_rational(rec["value"]) == hb_higher(rec["N"], rec["r"], rec["n"])


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "-N", "2", "-n", "0..2", "-o", str(target))
    assert code == EXIT_OK and out == ""
    assert target.read_text().startswith("N,r,n,value\n")


def test_table_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "-N", "5..2", "-n", "0..3"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "table -N 1..5 -n 0..200",
            "251f6b55d1965e425a1d9ca42a77122826f226866820d3c3c7319985c2cf239c",
        ),
        (
            "table -N 1..5 -r 2..3 -n 0..60",
            "cd31772e59eaccce2a6b5bae02c3ca42c73c1ea6367a957ca960f7e0b52cf01f",
        ),
    ],
)
def test_deep_table_output_is_pinned(argv, digest, capsys):
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_cache_holds_the_walked_row(tmp_path, capsys):
    cache = tmp_path / "f"
    code, out, _ = run(capsys, "table", "-N", "2", "-r", "2", "-n", "5..9", "--cache", str(cache))
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [
        "2,2,5,1/63", "2,2,6,11/810", "2,2,7,-8/1215", "2,2,8,-41/2430", "2,2,9,1/66825",
    ]
    # the walk to n = 9 stores the whole row, keys 0..9
    values = [
        "1/1", "-2/3", "1/3", "-4/45", "-1/54",
        "1/63", "11/810", "-8/1215", "-41/2430", "1/66825",
    ]
    assert cache.read_text() == "".join(f"2 2 {n} {v}\n" for n, v in enumerate(values))


def test_table_cache_file_is_pinned(tmp_path, capsys):
    cache = tmp_path / "c.txt"
    argv = "table -N 1..5 -r 1..3 -n 0..60 --cache".split()
    assert run(capsys, *argv, str(cache))[0] == EXIT_OK
    digest = "30eb7dd3adc3771b5ef067ea6b50cd4b4dac9e7cc2f3ba3e8f8362df563f7d1f"
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == digest


def test_values_past_the_int_digit_limit_print_and_round_trip(tmp_path, capsys):
    cache = tmp_path / "big.txt"
    N = 10**1000
    code, out, err = run(capsys, "compute", "-N", str(N), "-n", "5", "--cache", str(cache))
    assert (code, err) == (EXIT_OK, "")
    value = parse_rational(out)
    assert len(str(value.denominator)) > 4300 and value == hb_higher(N, 1, 5)
    assert run(capsys, "cache-audit", "--cache", str(cache)) == (
        EXIT_OK,
        "audited 6 entries: all match\n",
        "",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        ("table -N 0 -n 0..3", "N must be >= 1"),
        ("table -N 1 -r 0 -n 0..3", "r must be >= 1"),
        ("table -N 1 -n=-3..2", "n must be >= 0"),
        ("table -N 1..2 -r 0..1 -n=-1..2", "r must be >= 1"),
        ("verify -N 0 --routes det,recurrence", "N must be >= 1"),
        ("verify -N 0 -n 1..3 --routes det,recurrence", "N must be >= 1"),
        # the grid's keys are checked whatever the routes, before any runs
        ("verify -N 0..2 -n 1..3 --routes descent,descent-nested", "N must be >= 1"),
        ("verify -N 2 -r 0..1 -n 1..3 --routes comp,binom", "r must be >= 1"),
        ("verify -N 0..2 -n 1..3 -r 1 --routes comp,descent", "N must be >= 1"),
        # before "nothing to compare", which a grid of bad keys would also give
        ("verify -N 0 -n 0 --routes recurrence,det", "N must be >= 1"),
        ("verify -N 1 -r 0 -n 0 --routes recurrence,det", "r must be >= 1"),
        ("verify -N 0 -r 0 -n 1 --routes comp,descent", "N must be >= 1"),
    ],
)
def test_invalid_grids_raise_their_first_error(argv, message, capsys):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_verify_skips_negative_indices(capsys):
    code, out, err = run(
        capsys, "verify", "-N", "1", "-n=-2..3", "--routes", "recurrence,convolution"
    )
    assert code == EXIT_OK and err == ""
    assert out == "OK: routes recurrence,convolution agree on 18 grid points (12 comparisons)\n"


def _count_calls(monkeypatch, name, module=hbnum):
    """Record the first two arguments, the (N, r) of a family, of every call
    to <module>.<name>."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_table_walks_each_family_once(capsys, monkeypatch):
    walks = _count_calls(monkeypatch, "_row")
    weight_rows = _count_calls(monkeypatch, "_weights")
    code, _, _ = run(capsys, "table", "-N", "1..2", "-r", "1..3", "-n", "0..30")
    assert code == EXIT_OK
    assert walks == [(N, r) for N in (1, 2) for r in (1, 2, 3)]
    assert weight_rows == [(N, r) for N in (1, 2) for r in (2, 3)]


def test_verify_walks_no_family_where_one_route_applies(capsys, monkeypatch):
    # comp applies only at r = 1, so the r = 2 and 3 families compare nothing
    walks = _count_calls(monkeypatch, "_row")
    code, out, _ = run(
        capsys, "verify", "-N", "1", "-r", "1..3", "-n", "0..5", "--routes", "recurrence,comp"
    )
    assert code == EXIT_OK
    assert out == "OK: routes recurrence,comp agree on 18 grid points (5 comparisons)\n"
    assert walks == [(1, 1)]


def _entered(call) -> set[tuple[str, str]]:
    """(file name, function name) of every hgbern function that `call()`
    enters, leaving out lambdas, comprehensions and generator expressions."""
    home = str(Path(hgbern.__file__).parent)
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and not code.co_name.startswith("<"):
            path = Path(code.co_filename)
            if str(path.parent) == home:
                entered.add((path.name, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return entered


# the row that _oracle_row reads from the oracle for a relation route; the
# relations share it until they read rows from a source of their own
# (ROADMAP item 2)
_RELATION_ROW = {
    ("hbnum.py", name) for name in ("__contains__", "_cached_or_row", "_row", "get", "put")
}
# HBKey.__new__: every route checks its indices with the oracle's own guard,
# which does no arithmetic
_INDEX_GUARD = {("exactnum.py", "__new__")}


# what each route but the oracle itself shares with the oracle, traced
_SHARED_WITH_THE_ORACLE = {
    "comp": _INDEX_GUARD,
    "binom": _INDEX_GUARD,
    "trudi": _INDEX_GUARD,
    "det": _INDEX_GUARD,
    "descent": _RELATION_ROW | _INDEX_GUARD,
    "descent-nested": _RELATION_ROW | _INDEX_GUARD,
    "convolution": _RELATION_ROW | _INDEX_GUARD,
}


@pytest.mark.parametrize("route", list(_SHARED_WITH_THE_ORACLE))
def test_each_route_shares_with_the_oracle_only_what_is_pinned(route):
    # every package function a route enters, traced, against those the
    # oracle enters at the same point; each store is built outside the trace
    assert set(_SHARED_WITH_THE_ORACLE) == set(cli.ROUTES) - {"recurrence"}
    found = set()
    for N, r, n in ((3, 1, 6), (3, 2, 6)):
        if cli.ROUTES[route].violation(N, r, n) is not None:
            continue
        store = hbnum.MemoStore()
        used = _entered(lambda: cli.ROUTES[route].compute(N, r, n, store))
        fresh = hbnum.MemoStore()
        oracle = _entered(lambda: hbnum.hb_higher(N, r, n, fresh))
        found |= used & oracle
    assert found == _SHARED_WITH_THE_ORACLE[route]
    # and the oracle's module reaches for no route's or check's helper
    tree = ast.parse(Path(hbnum.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named |= {*(node.module or "").split("."), *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            named |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & {"hessenberg", "altforms", "contfrac", "CommonDenominator", "_over_lcm"}


# public names no module or benchmark file calls yet: paper relations that
# only the tests check so far
_PUBLIC_WITHOUT_A_CALLER = {
    "inversion_pair_check",
    "reciprocal_binom_inverse",
    "recover_mr_det",
    "recurrence_residual",
}


def test_every_public_name_has_a_caller_outside_tests():
    # each public name serves a route, a check or a benchmark operation; a
    # wrapper that only tests call is surface to keep, not a result
    assert len(hgbern.__all__) == len(set(hgbern.__all__))
    bench = Path(__file__).parents[1] / "bench"
    src = Path(hgbern.__file__).parent
    paths = [
        *(path for path in src.glob("*.py") if path.name != "__init__.py"),
        *(path for path in bench.glob("*.py") if not path.name.startswith("test_")),
    ]
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert set(hgbern.__all__) - named == _PUBLIC_WITHOUT_A_CALLER


def test_verify_walks_the_oracle_once_per_family(capsys, monkeypatch):
    walks = _count_calls(monkeypatch, "_row")
    code, out, _ = run(
        capsys, "verify", "-N", "1..2", "-r", "1..3", "-n", "0..12", "--routes", "recurrence,det"
    )
    assert code == EXIT_OK and out.startswith("OK:")
    assert walks == [(N, r) for N in (1, 2) for r in (1, 2, 3)]


def test_verify_walks_det_once_per_family(capsys, monkeypatch):
    # one determinant and one weight row per (N, r) family, not one per n
    # (one per n made 180 determinants here)
    dets = _count_calls(monkeypatch, "toeplitz_hessenberg_det", hessenberg)
    weight_rows = _count_calls(monkeypatch, "weight_row", hessenberg)
    code, out, _ = run(
        capsys, "verify", "-N", "1..2", "-r", "1..3", "-n", "0..30", "--routes", "recurrence,det"
    )
    assert code == EXIT_OK
    assert out == "OK: routes recurrence,det agree on 186 grid points (180 comparisons)\n"
    assert len(dets) == 6
    assert weight_rows == [(N, r) for N in (1, 2) for r in (1, 2, 3)]


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "-N", "1..3", "-r", "1..2", "-n", "0..6")
    assert code == EXIT_OK and out.startswith("OK:")


def test_verify_determinant_route_deep(capsys):
    # the two O(n^2) routes support a deeper sweep than the exponential ones
    code, out, _ = run(
        capsys, "verify", "-N", "1..3", "-r", "1..2", "-n", "0..20",
        "--routes", "recurrence,det",
    )
    assert code == EXIT_OK and out.startswith("OK:")


def test_verify_default_sweep(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    assert out == (
        "OK: routes recurrence,comp,binom,trudi,det,descent,descent-nested,convolution "
        "agree on 225 grid points (897 comparisons)\n"
    )


def test_verify_needs_two_routes(capsys):
    code, _, err = run(capsys, "verify", "--routes", "recurrence")
    assert code == EXIT_USAGE and "two routes" in err


def _corrupted_store(N, r, n):
    """A store holding the (N, r) row through n, with the entry at n off by one."""
    store = hbnum.MemoStore()
    value = hb_higher(N, r, n, store)
    store.put(hbnum.HBKey(N, r, n), value + 1)
    return store


def test_verify_locates_injected_fault():
    points, comparisons, mismatches = cli.run_sweep(
        (1, 2, 3), (1,), (0, 1, 2, 3, 4, 5), tuple(cli.ROUTES), _corrupted_store(2, 1, 3)
    )
    assert (points, comparisons) == (18, 98)
    # the corrupted entry feeds later points through the store; none before it fails
    assert min(point for point, *_ in mismatches) == (2, 1, 3)


def test_verify_reports_every_mismatch():
    # a corrupted entry of the caller's store feeds the recurrence at its own
    # n and the next; comp and descent never read that store, so both give
    # the true values there, and each failing comparison is its own record
    store = _corrupted_store(2, 1, 3)
    routes = ("recurrence", "comp", "descent")
    _, _, mismatches = cli.run_sweep((2,), (1,), (0, 1, 2, 3, 4), routes, store)
    F = Fraction
    assert mismatches == [
        ((2, 1, 3), "recurrence", F(91, 90), "comp", F(1, 90)),
        ((2, 1, 3), "recurrence", F(91, 90), "descent", F(1, 90)),
        ((2, 1, 4), "recurrence", F(-361, 270), "comp", F(-1, 270)),
        ((2, 1, 4), "recurrence", F(-361, 270), "descent", F(-1, 270)),
    ]


def _inject_fault(monkeypatch, route, point):
    """Make `route` give its value plus one at the (N, r, n) `point`, where a
    sweep reads it: in the row of its family walk if it has one, else from
    ``compute``."""
    entry = cli.ROUTES[route]
    if entry.walk is None:

        def faulty(N, r, n, store):
            value = entry.compute(N, r, n, store)
            return value + 1 if (N, r, n) == point else value

        faulty_entry = dataclasses.replace(entry, compute=faulty)
    else:

        def faulty_walk(N, r, top, store, row):
            start = len(row)
            value = entry.walk(N, r, top, store, row)
            if (N, r) == point[:2] and point[2] <= top:
                row[start + point[2]] += 1
            return value

        faulty_entry = dataclasses.replace(entry, walk=faulty_walk)
    monkeypatch.setitem(cli.ROUTES, route, faulty_entry)


@pytest.mark.parametrize("route", sorted(cli.ROUTES))
def test_verify_names_the_faulty_route_and_point(route, capsys, monkeypatch):
    _inject_fault(monkeypatch, route, (2, 1, 3))
    code, out, _ = run(capsys, "verify", "-N", "1..3", "-r", "1", "-n", "0..5")
    assert code == EXIT_VERIFY
    lines = [line for line in out.splitlines() if line.startswith("MISMATCH")]
    assert lines
    for line in lines:
        point, _, sides = line.partition(": ")
        assert point == "MISMATCH at N=2 r=1 n=3"
        assert route in [side.split(" = ")[0] for side in sides.split(", ")]


@pytest.mark.parametrize("n", [20, 40])
def test_verify_reads_each_det_point_from_its_family_row(n, capsys, monkeypatch):
    # a fault inside the row (n = 20) and at its top (n = 40) is reported at
    # exactly its own point
    _inject_fault(monkeypatch, "det", (2, 2, n))
    code, out, err = run(
        capsys, "verify", "-N", "1..3", "-r", "1..3", "-n", "0..40", "--routes", "recurrence,det"
    )
    value = hb_higher(2, 2, n)
    assert (code, err) == (EXIT_VERIFY, "")
    assert out == (
        f"MISMATCH at N=2 r=2 n={n}: recurrence = {format_rational(value)}, "
        f"det = {format_rational(value + 1)}\n"
    )


def test_verify_rejects_vacuous_sweeps(capsys):
    code, out, err = run(capsys, "verify", "--routes", "det,det")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: routes listed more than once: det\n"
    code, out, err = run(capsys, "verify", "-N", "1", "-r", "2", "--routes", "comp,descent")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: no grid point has two applicable routes: nothing to compare\n"


def test_sweep_validation():
    store = hbnum.MemoStore()
    with pytest.raises(ValueError, match="must be nonempty"):
        cli.run_sweep((1,), (1,), (), ("recurrence", "det"), store)
    with pytest.raises(ValueError, match="at least two routes"):
        cli.run_sweep((1,), (1,), (1,), ("recurrence",), store)
    with pytest.raises(ValueError, match="unknown routes: nonsense"):
        cli.run_sweep((1,), (1,), (1,), ("recurrence", "nonsense"), store)
    # an empty name, as "--routes recurrence," gives, is named visibly
    with pytest.raises(ValueError, match="^unknown routes: nonsense, ''$"):
        cli.run_sweep((1,), (1,), (1,), ("recurrence", "nonsense", ""), store)
    with pytest.raises(ValueError, match="more than once"):
        cli.run_sweep((1,), (1,), (1,), ("recurrence", "det", "recurrence"), store)
    # n = 0 leaves det outside its domain, so nothing is compared
    with pytest.raises(ValueError, match="two applicable routes"):
        cli.run_sweep((1, 2), (1,), (0,), ("recurrence", "det"), store)
    # N = 1 comes first in the grid, but no family is walked before N = 0 raises
    with pytest.raises(ValueError, match="N must be >= 1"):
        cli.run_sweep((1, 0), (1,), (0, 1, 2), ("recurrence", "det"), store)
    assert len(store) == 0  # each refusal came before any route ran


@pytest.mark.parametrize(
    "N, r, n_values, routes, compared",
    [
        (2, 1, (22, 23), ("recurrence", "comp", "descent-nested"), [22, 22]),
        (1, 10, (15, 16), ("recurrence", "trudi", "convolution"), [15, 15, 16]),
        (5, 3, (52, 53), ("recurrence", "trudi"), [52]),
    ],
)
def test_sweep_skips_exponential_routes_beyond_their_limits(
    N, r, n_values, routes, compared, monkeypatch
):
    # every route but the walked recurrence records the n it is asked for and
    # gives the oracle's value, so no exponential walk runs at its limit
    asked = []
    for name in routes[1:]:
        monkeypatch.setitem(
            cli.ROUTES,
            name,
            dataclasses.replace(
                cli.ROUTES[name],
                compute=lambda N, r, n, store: asked.append(n) or hb_higher(N, r, n),
            ),
        )
    assert cli.run_sweep((N,), (r,), n_values, routes, hbnum.MemoStore()) == (2, len(compared), [])
    assert asked == compared


# N in three size classes: small, up to 10^30, and 1 + p^t, whose N - 1 is
# divisible by a high power of a small prime
_SIZE_CLASSES = st.one_of(
    st.integers(1, 50),
    st.integers(1, 10**30),
    st.builds(lambda p, t: 1 + p**t, st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(0, 60)),
)


def _every_route_agrees_across_size_classes():
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_SIZE_CLASSES, st.integers(1, 6), st.integers(0, 12))
    def prop(N, r, n):
        _, _, mismatches = cli.run_sweep((N,), (r,), (n,), tuple(cli.ROUTES), hbnum.MemoStore())
        # the commands that reproduce each mismatch: its reference route, then its route
        replay = [
            f"hgbern compute -N {N} -r {r} -n {n} --route {route}"
            for (N, r, n), ref, _, name, _ in mismatches
            for route in (ref, name)
        ]
        assert mismatches == [], "\n".join(replay)

    prop()


def test_every_route_agrees_across_size_classes():
    _every_route_agrees_across_size_classes()


def test_the_size_class_property_catches_a_fault_only_at_huge_n(monkeypatch):
    trudi = altforms.hb_trudi
    monkeypatch.setattr(
        altforms, "hb_trudi", lambda N, r, n: trudi(N, r, n) + (N > 10**9 and n >= 5)
    )
    with pytest.raises(AssertionError) as raised:
        _every_route_agrees_across_size_classes()
    # the message names the command that shows the fault, at an N past 10^9
    assert re.search(r"hgbern compute -N \d{10,} -r \d+ -n \d+ --route trudi\b", str(raised.value))


def test_congruence_hb_kummer(capsys):
    code, out, _ = run(
        capsys, "congruence", "hb-kummer", "-p", "5", "-n", "6", "--nu", "0",
        "--ordp-target", "4",
    )
    assert code == EXIT_OK
    assert "threshold: ord_5(N-1) >= 4" in out
    assert "holds; residue 3 (mod 5)" in out


def test_congruence_classical(capsys):
    code, out, _ = run(
        capsys, "congruence", "classical", "-p", "5", "-m", "22", "-n", "2", "--nu", "1"
    )
    assert code == EXIT_OK and out.startswith("holds")
    assert "(mod 25)" in out


def test_congruence_pair(capsys):
    code, out, _ = run(
        capsys, "congruence", "hb-pair", "-p", "5", "-m", "22", "-n", "2",
        "--nu", "1", "--ordp-target", "48",
    )
    assert code == EXIT_OK
    assert "threshold: ord_5(N-1) >= 48" in out
    assert "residue 8 (mod 25)" in out
    code, out, _ = run(
        capsys, "congruence", "hb-pair", "-p", "5", "-m", "22", "-n", "2",
        "--nu", "0", "--ordp-target", "48",
    )
    assert code == EXIT_OK
    assert "residue 3 (mod 5)" in out


@pytest.mark.parametrize(
    "statement, target, lines",
    [
        (
            "hb-kummer -p 5 -n 6 --nu 0",
            4,
            ["threshold: ord_5(N-1) >= 4", "holds; residue 3 (mod 5); ord_5(lhs-rhs) = 3"],
        ),
        (
            "hb-pair -p 5 -m 22 -n 2 --nu 1",
            48,
            ["threshold: ord_5(N-1) >= 48", "holds; residue 8 (mod 25); ord_5(lhs-rhs) = 2"],
        ),
    ],
)
def test_congruence_transfer_takes_exactly_one_of_N_and_ordp_target(
    statement, target, lines, capsys
):
    argv = ["congruence", *statement.split()]
    expected = (EXIT_OK, "".join(f"{line}\n" for line in lines), "")
    assert run(capsys, *argv, "--ordp-target", str(target)) == expected
    assert run(capsys, *argv, "-N", str(1 + 5**target)) == expected
    for extra in (["-N", "3", "--ordp-target", str(target)], []):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: hgbern congruence")
        assert "-N" in err.splitlines()[-1] and "--ordp-target" in err.splitlines()[-1]


def test_ordp_target_must_be_at_least_zero(capsys):
    argv = ["congruence", "hb-kummer", "-p", "5", "-n", "6", "--nu", "0"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--ordp-target", "-1"])
    assert exc.value.code == EXIT_USAGE
    assert "argument --ordp-target: expected an integer >= 0, got '-1'" in (
        capsys.readouterr().err
    )
    # T = 0 gives N = 1 + 5^0 = 2, where ord_5(N-1) = 0 is true
    assert run(capsys, *argv, "--ordp-target", "0") == run(capsys, *argv, "-N", "2") == (
        EXIT_USAGE,
        "",
        "error: hypothesis ord_5(N-1) >= 4 violated: ord_5(N-1) = 0\n",
    )


@pytest.mark.parametrize("N", ["0", "-4"])
def test_invalid_transfer_statement_leaves_stdout_empty(N, capsys):
    # the threshold is printed only once the verdict stands
    assert run(capsys, "congruence", "hb-kummer", "-p", "5", "-n", "6", f"-N={N}") == (
        EXIT_USAGE,
        "",
        "error: N must be >= 1\n",
    )


def test_congruence_factorial(capsys):
    code, out, _ = run(capsys, "congruence", "factorial", "-p", "5", "-N", "26", "-n", "4")
    assert code == EXIT_OK and out.startswith("holds")


def test_congruence_verdict_lines_for_exact_equality_and_differing_residues(capsys):
    # at N = 1 = 1 + 3^0 the factorial ladder is an equality, with no residues
    assert run(capsys, "congruence", "factorial", "-p", "3", "-N", "1", "-n", "6") == (
        EXIT_OK,
        "holds; exact equality required; ord_3(lhs-rhs) = inf\n",
        "",
    )
    failing = CongruenceVerdict(
        holds=False, p=5, modulus_exponent=2, difference_ord=1, lhs_residue=3, rhs_residue=8
    )
    assert cli._verdict_line(failing) == "FAILS; lhs ≡ 3, rhs ≡ 8 (mod 25); ord_5(lhs-rhs) = 1"
    # lhs = 1/5 has no residue mod 25, so its side says why
    assert cli._verdict_line(_verdict(1, 5, 3, 1, 5, 2)) == (
        "FAILS; lhs has 5 in its denominator, rhs ≡ 3 (mod 25); ord_5(lhs-rhs) = -1"
    )


def test_congruence_hypothesis_violation_exit(capsys):
    code, _, err = run(
        capsys, "congruence", "hb-kummer", "-p", "5", "-n", "4", "--nu", "0",
        "--ordp-target", "8",
    )
    assert code == EXIT_USAGE
    assert "hypothesis n ≢ 0 (mod p-1) violated" in err
    # the pair's m >= n in the library's words, from ord_threshold, which the
    # statement checks first
    assert run(capsys, "congruence", "hb-pair", "-p", "5", "-m", "2", "-n", "6", "-N", "626") == (
        EXIT_USAGE,
        "",
        "error: hypothesis m >= n violated: m = 2, n = 6\n",
    )


def _transfer_invocations():
    """Every hb-kummer and hb-pair invocation of a grid that mixes valid and
    invalid p, N, m, n and nu, as (argv, p, statement, bound): the CLI's
    arguments, the library call, and the bound on ord_p(N-1) it requires.
    Each value is joined to its option with `=`, so a negative one parses."""
    for p, N, n, nu in product((4, 5), (0, 1, 2, 626, 1 + 5**48), (0, 2, 4, 6), (-1, 0, 1)):
        argv = [f"-p={p}", f"-N={N}", f"-n={n}", f"--nu={nu}"]
        yield (
            ["hb-kummer", *argv],
            p,
            lambda p=p, N=N, n=n, nu=nu: hb_kummer_corollary(p, N, n, nu),
            lambda p=p, n=n, nu=nu: ord_threshold(p, n, nu),
        )
        for m in (0, 2, 6, 22):
            yield (
                ["hb-pair", f"-m={m}", *argv],
                p,
                lambda p=p, N=N, m=m, n=n, nu=nu: hb_kummer_pair(p, N, m, n, nu),
                lambda p=p, m=m, n=n, nu=nu: ord_threshold(p, n, nu, m=m),
            )


def test_transfer_statements_name_the_same_first_error_in_the_cli_and_the_library(capsys):
    invocations = list(_transfer_invocations())
    assert Counter(argv[0] for argv, *_ in invocations) == {"hb-kummer": 120, "hb-pair": 480}
    disagree, valid = [], 0
    for argv, p, statement, bound in invocations:
        try:
            verdict = statement()
        except ValueError as exc:  # a HypothesisViolation too: stdout stays empty
            expected = (EXIT_USAGE, "", f"error: {exc}\n")
        else:
            valid += 1
            out = f"threshold: ord_{p}(N-1) >= {bound()}\n{cli._verdict_line(verdict)}\n"
            expected = (EXIT_OK if verdict.holds else EXIT_VERIFY, out, "")
        if run(capsys, "congruence", *argv) != expected:
            disagree.append(argv)
    assert disagree == [], f"{len(disagree)} of {len(invocations)} invocations disagree"
    assert valid > 0


def test_convergents_output(capsys):
    code, out, _ = run(capsys, "convergents", "-N", "2", "-n", "1")
    assert code == EXIT_OK and out.strip() == "P = 3 - x, Q = 3"
    code, out, _ = run(capsys, "convergents", "-N", "1", "-n", "0")
    assert code == EXIT_OK and out.strip() == "P = 1, Q = 1"


def test_convergents_check(capsys):
    code, out, _ = run(capsys, "convergents", "-N", "1", "-n", "2", "--check")
    assert code == EXIT_OK
    assert "defect ≡ 0 mod x^3" in out
    code, out, _ = run(capsys, "convergents", "-N", "4", "-n", "9", "--route", "closed", "--check")
    assert code == EXIT_OK


def test_cache_round_trip_via_cli(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    code, out, _ = run(capsys, "compute", "-N", "2", "-n", "4", "--cache", str(cache))
    assert code == EXIT_OK
    text = cache.read_text()
    assert "2 1 4 -1/270" in text

    code, out, _ = run(capsys, "cache-audit", "--cache", str(cache))
    assert code == EXIT_OK and "all match" in out

    # corrupt one line and the audit must locate it
    lines = text.splitlines()
    lines[-1] = "2 1 4 1/270"
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "cache-audit", "--cache", str(cache))
    assert code == EXIT_VERIFY


@pytest.mark.parametrize(
    "data, line",
    [
        (b"1 1 0 1/1\r\n1 1 1 -1/2\r\n", 1),
        (b"2 1 0 1/1\n1_0 1 0 1/1\n", 2),
        ("2 1 0 1/1\n2 1 1 -1/3\n١ 1 1 -1/2\n".encode(), 3),
        (b"2 1 0 1/1\n2 1 0 1/1\n", 2),
    ],
)
def test_a_cache_file_not_as_save_writes_it_fails_at_its_line(tmp_path, capsys, data, line):
    cache = tmp_path / "cache.txt"
    cache.write_bytes(data)
    for argv in (["cache-audit"], ["compute", "-N", "2", "-n", "3"]):
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (EXIT_VERIFY, "")
        assert err.startswith(f"error: {cache}:{line}: ")
    assert cache.read_bytes() == data


@pytest.mark.parametrize(
    "route, families",
    [("descent", ((2, 6), (3, 5))), ("descent-nested", ((2, 6),)), ("convolution", ((3, 6),))],
)
def test_relation_routes_read_their_rows_through_the_cache(route, families, tmp_path, capsys):
    # a relation takes the rows it reads, filled from the oracle through the
    # caller's store, so the cache holds exactly those rows: B_{2,0..6} for
    # the descents, with B_{3,0..5} for the one-step descent, and B_{3,0..6}
    # for the convolution
    cache = tmp_path / "cache.txt"
    code, out, err = run(
        capsys, "compute", "-N", "3", "-n", "6", "--route", route, "--cache", str(cache)
    )
    assert (code, out, err) == (EXIT_OK, f"{format_rational(hb_higher(3, 1, 6))}\n", "")
    assert cache.read_text() == "".join(
        f"{N} 1 {n} {format_rational(hb_higher(N, 1, n))}\n"
        for N, top in families
        for n in range(top + 1)
    )


def test_a_corrupted_cache_record_fails_recurrence_against_convolution(tmp_path, capsys):
    # at r = 1 convolution returns its base row's top value; the sweep fills
    # that row on its own store, not from the cache the recurrence reads, so
    # the bad record is compared with the true value
    cache = tmp_path / "cache.txt"
    code, _, _ = run(
        capsys, "table", "-N", "1..3", "-r", "1", "-n", "0..12", "--cache", str(cache)
    )
    assert code == EXIT_OK
    text = cache.read_text()
    record = f"2 1 5 {format_rational(hb_higher(2, 1, 5))}\n"
    assert record in text
    cache.write_text(text.replace(record, "2 1 5 1/7\n"))
    code, out, _ = run(
        capsys, "verify", "-N", "1..3", "-r", "1", "-n", "0..12",
        "--routes", "recurrence,convolution", "--cache", str(cache),
    )
    assert code == EXIT_VERIFY
    assert "MISMATCH at N=2 r=1 n=5: recurrence = 1/7" in out


def test_cache_audit_reports_every_mismatch_in_key_order(tmp_path, capsys):
    # with three records a three-sample spot audit at load would draw both bad
    # ones and stop at whichever came first; the full audit reports both
    cache = tmp_path / "cache.txt"
    cache.write_text("3 2 2 5/7\n2 1 1 -1/3\n2 1 4 1/270\n")
    for _ in range(5):
        code, out, err = run(capsys, "cache-audit", "--cache", str(cache))
        assert code == EXIT_VERIFY and err == ""
        assert out.splitlines() == [
            "MISMATCH at 2 1 4: cached 1/270, recomputed -1/270",
            "MISMATCH at 3 2 2: cached 5/7, recomputed 7/40",
        ]


def test_cache_audit_walks_each_family_once(tmp_path, capsys, monkeypatch):
    # one storeless r = 1 walk per N, by the oracle's own walk, to the deepest
    # n of that N; the r >= 2 families take order steps from it and build no
    # weight row
    cache = tmp_path / "cache.txt"
    code, _, _ = run(
        capsys, "table", "-N", "1..2", "-r", "1..3", "-n", "0..12", "--cache", str(cache)
    )
    assert code == EXIT_OK
    walks = _count_calls(monkeypatch, "_row")
    weight_rows = _count_calls(monkeypatch, "_weights")
    code, out, _ = run(capsys, "cache-audit", "--cache", str(cache))
    assert code == EXIT_OK and out == "audited 78 entries: all match\n"
    assert sorted(walks) == [(N, 1) for N in (1, 2)]
    assert weight_rows == []


def test_cache_audit_catches_a_wrong_r1_walk_at_every_entry_that_reads_it(
    tmp_path, capsys, monkeypatch
):
    # B^(s+1)_m reads B^(s)_m and B^(s)_{m-1}, so a wrong B_{2,5} in the
    # audit's r = 1 walk reaches (2, 2, 5..6) and (2, 3, 5..7) and no other
    # entry: the order steps check the walk they start from
    cache = tmp_path / "cache.txt"
    code, _, _ = run(
        capsys, "table", "-N", "2", "-r", "1..3", "-n", "0..10", "--cache", str(cache)
    )
    assert code == EXIT_OK
    cached = dict(line.rsplit(" ", 1) for line in cache.read_text().splitlines())
    truth = hb_higher(2, 1, 5)
    original = hbnum._row

    def wrong(N, r, n, store):
        row = original(N, r, n, store)
        if (N, r, store) == (2, 1, None) and n >= 5:
            row[5] += 1
        return row

    monkeypatch.setattr(hbnum, "_row", wrong)
    code, out, err = run(capsys, "cache-audit", "--cache", str(cache))
    assert (code, err) == (EXIT_VERIFY, "")
    lines = out.splitlines()
    reached = [(1, 5), (2, 5), (2, 6), (3, 5), (3, 6), (3, 7)]
    assert [line.split(", recomputed ")[0] for line in lines] == [
        f"MISMATCH at 2 {r} {n}: cached {cached[f'2 {r} {n}']}" for r, n in reached
    ]
    assert lines[0].endswith(f", recomputed {format_rational(truth + 1)}")


def test_cache_written_only_when_an_entry_is_added(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.txt"
    code, _, _ = run(capsys, "compute", "-N", "2", "-n", "6", "--cache", str(cache))
    assert code == EXIT_OK
    before = cache.read_bytes()

    def failing_replace(src, dst):
        raise OSError("no write expected")

    monkeypatch.setattr(hbnum.os, "replace", failing_replace)
    for argv in (
        ["compute", "-N", "2", "-n", "4"],
        ["compute", "-N", "2", "-n", "3", "--route", "det"],
        ["table", "-N", "2", "-n", "0..6"],
    ):
        code, out, _ = run(capsys, *argv, "--cache", str(cache))
        assert code == EXIT_OK and out
    assert cache.read_bytes() == before

    fresh = tmp_path / "fresh.txt"
    code, out, _ = run(
        capsys, "compute", "-N", "2", "-n", "3", "--route", "det", "--cache", str(fresh)
    )
    assert code == EXIT_OK and out.strip() == "1/90"
    assert not fresh.exists()


def _cache_with_a_wrong_record(path, n):
    """A cache file holding the (2, 2) row through n = 9, its 2 2 n record wrong;
    returns the keys in file order."""
    store = hbnum.MemoStore(path)
    hb_higher(2, 2, 9, store)
    store.put(hbnum.HBKey(2, 2, n), Fraction(1))
    store.save()
    return [hbnum.HBKey(2, 2, k) for k in range(10)]


def test_load_audit_gives_the_same_result_every_run(tmp_path, capsys):
    # the default draw is Random(0).sample of the keys in file order
    drawn = Random(0).sample(range(10), 3)
    hit = drawn[0]
    miss = next(n for n in range(5, 10) if n not in drawn)
    argv = ["table", "-N", "2", "-r", "2", "-n", "5..9", "--cache"]

    cache = tmp_path / "hit.txt"
    _cache_with_a_wrong_record(cache, hit)
    recomputed = format_rational(hb_higher(2, 2, hit))
    for _ in range(3):
        assert run(capsys, *argv, str(cache)) == (
            EXIT_VERIFY,
            "",
            f"error: cache audit failed at 2 2 {hit}: stored 1/1, recomputed {recomputed}\n",
        )

    cache = tmp_path / "miss.txt"
    _cache_with_a_wrong_record(cache, miss)
    for _ in range(3):
        code, out, err = run(capsys, *argv, str(cache))
        assert (code, err) == (EXIT_OK, "") and f"2,2,{miss},1/1\n" in out


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env-cache.txt"
    monkeypatch.setenv("HGBERN_CACHE", str(cache))
    code, _, _ = run(capsys, "compute", "-N", "3", "-n", "3")
    assert code == EXIT_OK
    assert cache.exists()
    code, out, _ = run(capsys, "cache-audit")
    assert code == EXIT_OK and "all match" in out


def test_cache_audit_of_a_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "cache-audit", "--cache", str(missing))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_unwritable_cache_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "nodir" / "x.cache"
    code, out, err = run(capsys, "compute", "-N", "2", "-n", "3", "--cache", str(cache))
    assert (code, out) == (EXIT_USAGE, "1/90\n")
    # the value is printed before the save fails on its temporary file
    assert err.startswith(f"error: [Errno 2] No such file or directory: '{cache.parent}/.x.cache.")
    assert list(tmp_path.iterdir()) == []


def test_failed_cache_save_is_a_usage_error_and_leaves_no_temporary_file(
    tmp_path, capsys, monkeypatch
):
    def failing_replace(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr(hbnum.os, "replace", failing_replace)
    cache = tmp_path / "x.cache"
    code, out, err = run(capsys, "table", "-N", "2", "-n", "0..3", "--cache", str(cache))
    assert (code, err) == (EXIT_USAGE, "error: no space left\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        "compute", "table", "verify", "congruence classical", "congruence hb-kummer",
        "congruence hb-pair", "congruence factorial", "convergents", "cache-audit",
    ],
)
def test_every_subcommand_takes_a_cache_path(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert "[--cache PATH]" in out and "cache file (default: $HGBERN_CACHE)" in out


def test_cache_audit_requires_path(capsys):
    code, _, err = run(capsys, "cache-audit")
    assert code == EXIT_USAGE and "HGBERN_CACHE" in err
