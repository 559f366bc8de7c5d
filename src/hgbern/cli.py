"""Command-line front end.

Subcommands: ``compute`` (one value by any route), ``table`` (CSV/JSON value
tables), ``verify`` (cross-route agreement sweeps), ``congruence`` (p-adic
checks), ``convergents`` (continued-fraction convergents and their defect),
and ``cache-audit`` (full recomputation of a cache file from one r = 1 row
per N, with one ``MISMATCH`` line per differing entry in key order).

``ROUTES`` declares each route once, with its domain; that declaration gives
both the precondition error of ``compute --route`` and the routes a
``verify`` sweep compares at each grid point (by default every route, in
declaration order).  The bounds N, r >= 1 that every route shares are
``HBKey``'s, which ``table`` and ``verify`` check once per grid before any
work.  The exponential witnesses ``comp``, ``trudi`` and ``descent-nested``
declare a largest n, given r, as part of their domain.  The O(n^2) routes
``recurrence`` and ``det`` also declare a family walk, so a sweep takes each
(N, r) family's values from one walk on the caller's store to the deepest n;
the other routes compute each point on a store of the sweep's own.
``run_sweep`` returns what a sweep found as data (grid points, comparisons,
mismatches); ``cmd_verify`` prints it and picks the exit code.

Exit codes: 0 success, 1 verification/audit failure, 2 usage or hypothesis
error or a file that cannot be read or written, 3 route precondition
violation.

Values print as exact ``num/den``.  Every subcommand takes ``--cache PATH``;
without it the ``HGBERN_CACHE`` environment variable names the cache file,
and with neither everything stays in memory.  ``congruence hb-kummer`` and
``hb-pair`` take exactly one of ``-N`` and ``--ordp-target T`` (N = 1 + p^T,
T >= 0).  A congruence statement's hypotheses, their order and its
threshold on ord_p(N-1) are the library's; the CLI prints the verdict or
error it gets back.  An option that several subcommands share is declared
once, in a parent parser.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import inf
from typing import Callable, Sequence

from . import altforms, congruence, contfrac, hbnum, hessenberg
from .altforms import RoutePreconditionError
from .congruence import CongruenceVerdict, HypothesisViolation
from .exactnum import HBKey, format_rational
from .hbnum import CacheError, MemoStore

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_ROUTE = 3

# exit code of each error class main reports, checked in this order
_ERROR_EXITS = {
    RoutePreconditionError: EXIT_ROUTE,
    HypothesisViolation: EXIT_USAGE,
    CacheError: EXIT_VERIFY,
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,  # a cache or output file that cannot be read or written
}


@dataclass(frozen=True)
class Route:
    """One route to B_{N,n}^(r) with its domain, declared once.

    ``compute`` looks its target up through the module at call time, so a
    module-level rebinding (a tracer or a test double) reaches every call.
    ``walk(N, r, top, store, row)``, where given, appends the (N, r) family's
    values at n = 0..top to `row` in one walk; a sweep then reads every n of
    the family from that row instead of calling ``compute`` once per n.
    ``max_n(r)`` is the limit an exponential route's function in
    :mod:`altforms` declares and refuses past, read from there, so
    ``compute`` refuses it with the route's name before the call and a sweep
    leaves such points out.
    The relations ``descent``, ``descent-nested`` and ``convolution`` read
    rows that ``_oracle_row`` fills from the oracle through the store given.
    """

    compute: Callable[[int, int, int, MemoStore], Fraction]
    walk: Callable[[int, int, int, MemoStore, list[Fraction]], Fraction] | None = None
    r_one_only: bool = False
    min_N: int = 0
    min_n: int = 0
    max_n: Callable[[int], int] | None = None

    def violation(self, N: int, r: int, n: int) -> str | None:
        """Why (N, r, n) is outside the domain, checked in the order r, N, n."""
        if self.r_one_only and r != 1:
            return "requires r = 1"
        if N < self.min_N:
            return f"requires N >= {self.min_N}"
        if n < self.min_n:
            return f"requires n >= {self.min_n}"
        if self.max_n is not None and n > (limit := self.max_n(r)):
            return f"requires n <= {limit}"
        return None


def _oracle_row(N: int, n: int, store: MemoStore) -> list[Fraction]:
    """B_{N,0..n} from the oracle through `store`, the top index read first,
    so a family missing from the store is walked once."""
    return [hbnum.hb(N, i, store) for i in range(n, -1, -1)][::-1]


ROUTES = {
    "recurrence": Route(
        lambda N, r, n, store: hbnum.hb_higher(N, r, n, store),
        walk=lambda N, r, top, store, row: hbnum.hb_higher(N, r, top, store, row),
    ),
    "comp": Route(
        lambda N, r, n, store: altforms.hb_explicit_comp(N, n),
        r_one_only=True, min_n=1, max_n=lambda r: altforms._COMP_MAX_N,
    ),
    "binom": Route(
        lambda N, r, n, store: altforms.hb_explicit_binom(N, n), r_one_only=True, min_n=1
    ),
    "trudi": Route(
        lambda N, r, n, store: altforms.hb_trudi(N, r, n),
        min_n=1, max_n=altforms._trudi_max_n,
    ),
    "det": Route(
        lambda N, r, n, store: hessenberg.hb_higher_det(N, r, n),
        walk=lambda N, r, top, store, row: hessenberg.hb_higher_det(N, r, top, row),
        min_n=1,
    ),
    "descent": Route(
        lambda N, r, n, store: altforms.hb_descent_step(
            _oracle_row(N - 1, n, store), _oracle_row(N, n - 1, store), N
        ),
        r_one_only=True, min_N=2, min_n=1,
    ),
    "descent-nested": Route(
        lambda N, r, n, store: altforms.hb_descent_nested(_oracle_row(N - 1, n, store), N),
        r_one_only=True, min_N=2, min_n=1, max_n=lambda r: altforms._DESCENT_NESTED_MAX_N,
    ),
    "convolution": Route(
        lambda N, r, n, store: altforms.hb_higher_convolution(_oracle_row(N, n, store), r)
    ),
}


# one failing comparison: ((N, r, n), reference route, its value, route, its value)
Mismatch = tuple[tuple[int, int, int], str, Fraction, str, Fraction]


def run_sweep(
    big_n_values: Sequence[int], r_values: Sequence[int], n_values: Sequence[int],
    routes: Sequence[str], store: MemoStore,
) -> tuple[int, int, list[Mismatch]]:
    """Evaluate the named routes on every (N, r, n) grid point and compare.

    The route list and then each (N, r) of the grid, as an ``HBKey``, are
    checked before the plan is built, so an N or r below 1 raises whatever
    the routes; no route's domain holds a negative n.  At each point the first
    applicable route is the reference; a point where fewer than two apply
    computes nothing.  A route with a ``walk`` is walked on `store` once per
    (N, r) family, to the deepest n of the grid; every other route computes
    each point on one store the sweep creates, so a relation checks `store`
    against rows it did not read from it.  Returns (grid points,
    comparisons, mismatches), one mismatch per disagreeing route, in order.
    """
    if not n_values or not r_values or not big_n_values:
        raise ValueError("sweep ranges must be nonempty")
    if len(routes) < 2:
        raise ValueError("a comparison sweep needs at least two routes")
    unknown = [r for r in routes if r not in ROUTES]
    if unknown:
        raise ValueError(f"unknown routes: {', '.join(r or repr(r) for r in unknown)}")
    repeated = sorted({r for r in routes if routes.count(r) > 1})
    if repeated:
        raise ValueError(f"routes listed more than once: {', '.join(repeated)}")
    for N, r in product(big_n_values, r_values):
        HBKey(N, r, 0)
    # each point with the selected routes whose domain holds it, in selection order
    plan = [
        (point, [name for name in routes if ROUTES[name].violation(*point) is None])
        for point in product(big_n_values, r_values, n_values)
    ]
    if all(len(names) < 2 for _, names in plan):
        raise ValueError("no grid point has two applicable routes: nothing to compare")
    own = MemoStore()
    top = max(n_values)
    comparisons = 0
    mismatches: list[Mismatch] = []
    rows: dict[tuple[str, int, int], list[Fraction]] = {}  # (route, N, r) -> values 0..top
    for (N, r, n), names in plan:
        if len(names) < 2:
            continue
        values = {}
        for name in names:
            route = ROUTES[name]
            if route.walk is None:
                values[name] = route.compute(N, r, n, own)
                continue
            if (name, N, r) not in rows:
                row: list[Fraction] = []
                route.walk(N, r, top, store, row)
                rows[name, N, r] = row
            values[name] = rows[name, N, r][n]
        for name in names[1:]:
            comparisons += 1
            ref, value = values[names[0]], values[name]
            if value != ref:
                mismatches.append(((N, r, n), names[0], ref, name, value))
    return len(plan), comparisons, mismatches


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or LO..HI, got {text!r}") from None


def _digit_count(text: str) -> int:
    try:
        digits = int(text)
        if digits < 0:
            raise ValueError
        return digits
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}") from None


def _decimal_string(value: Fraction, digits: int) -> str:
    """Fixed-point rendering with `digits` fractional digits, truncated toward
    zero; display only, derived from the exact value with integer arithmetic."""
    sign = "-" if value < 0 else ""
    mag = abs(value)
    scaled = mag.numerator * 10**digits // mag.denominator
    if digits == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _cache_path(args: argparse.Namespace) -> str | None:
    return args.cache or os.environ.get("HGBERN_CACHE")


def _make_store(args: argparse.Namespace) -> MemoStore:
    store = MemoStore(_cache_path(args))
    if store.path is not None and store.path.exists():
        store.load()
    return store


def _save_if_backed(store: MemoStore) -> None:
    if store.path is not None:
        store.save()


def cmd_compute(args: argparse.Namespace) -> int:
    store = _make_store(args)
    key = HBKey(args.N, args.r, args.n)
    route = ROUTES[args.route]
    why = route.violation(key.N, key.r, key.n)
    if why is not None:
        raise RoutePreconditionError(f"route {args.route!r} {why}")
    value = route.compute(key.N, key.r, key.n, store)
    line = format_rational(value)
    if args.decimal is not None:
        line += f" ≈ {_decimal_string(value, args.decimal)}"
    print(line)
    _save_if_backed(store)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    store = _make_store(args)
    HBKey(args.N[0], args.r[0], args.n[0])  # the least indices, as the ranges ascend
    rows = []
    for N, r in product(args.N, args.r):
        row: list[Fraction] = []
        hbnum.hb_higher(N, r, max(args.n), store, row)  # one walk to the deepest n
        rows += [(N, r, n, format_rational(row[n])) for n in args.n]
    with (
        open(args.output, "w", encoding="utf-8", newline="")
        if args.output
        else contextlib.nullcontext(sys.stdout)
    ) as out:
        if args.format == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["N", "r", "n", "value"])
            writer.writerows(rows)
        else:
            records = [{"N": N, "r": r, "n": n, "value": v} for N, r, n, v in rows]
            json.dump(records, out, indent=2)
            out.write("\n")
    _save_if_backed(store)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    routes = args.routes.split(",")
    points, comparisons, mismatches = run_sweep(args.N, args.r, args.n, routes, _make_store(args))
    for (N, r, n), ref_name, ref, name, value in mismatches:
        print(
            f"MISMATCH at N={N} r={r} n={n}: {ref_name} = {format_rational(ref)}, "
            f"{name} = {format_rational(value)}"
        )
    if mismatches:
        return EXIT_VERIFY
    print(
        f"OK: routes {','.join(routes)} agree on {points} grid points ({comparisons} comparisons)"
    )
    return EXIT_OK


def _verdict_line(verdict: CongruenceVerdict) -> str:
    status = "holds" if verdict.holds else "FAILS"
    parts = [status]
    if verdict.modulus_exponent == inf:
        parts.append("exact equality required")
    else:
        modulus = verdict.p ** int(verdict.modulus_exponent)
        lhs, rhs = verdict.lhs_residue, verdict.rhs_residue
        if lhs is not None and lhs == rhs:
            parts.append(f"residue {lhs} (mod {modulus})")
        elif lhs is not None or rhs is not None:
            # a side without a residue has p in its reduced denominator
            sides = (
                f"{side} ≡ {residue}" if residue is not None
                else f"{side} has {verdict.p} in its denominator"
                for side, residue in (("lhs", lhs), ("rhs", rhs))
            )
            parts.append(f"{', '.join(sides)} (mod {modulus})")
    parts.append(f"ord_{verdict.p}(lhs-rhs) = {verdict.difference_ord}")
    return "; ".join(parts)


def cmd_congruence(args: argparse.Namespace) -> int:
    """Resolve ``--ordp-target`` to N = 1 + p^T, then print the verdict of
    the statement bound by the subcommand, after the threshold it carries if
    any.  Nothing prints before the statement returns, so an invalid one
    leaves stdout empty and its error is the library's."""
    store = _make_store(args)
    if getattr(args, "ordp_target", None) is not None:
        args.N = 1 + args.p**args.ordp_target
    verdict = args.verdict(args, store)
    if verdict.threshold is not None:
        print(f"threshold: ord_{args.p}(N-1) >= {verdict.threshold}")
    print(_verdict_line(verdict))
    return EXIT_OK if verdict.holds else EXIT_VERIFY


def cmd_convergents(args: argparse.Namespace) -> int:
    if args.route == "closed":
        pair = contfrac.convergent_closed(args.N, args.n)
    else:
        pair = contfrac.convergent_rec(args.N, args.n)
    print(f"P = {pair.P}, Q = {pair.Q}")
    if not args.check:
        return EXIT_OK
    store = _make_store(args)
    defect = contfrac.approximation_defect(pair, store)
    if defect.is_zero():
        print(f"defect ≡ 0 mod x^{args.n + 1}")
        return EXIT_OK
    first = next(i for i, c in enumerate(defect.coefficients) if c != 0)
    print(
        f"defect ≠ 0 mod x^{args.n + 1}: coefficient of x^{first} is "
        f"{format_rational(defect.coefficients[first])}"
    )
    return EXIT_VERIFY


def cmd_cache_audit(args: argparse.Namespace) -> int:
    path = _cache_path(args)
    if not path:
        raise ValueError("cache-audit needs --cache PATH or HGBERN_CACHE")
    store = MemoStore(path)
    count = store.load(audit_samples=0)
    mismatches = store.mismatches([key for key, _ in store.items()])
    if mismatches:
        for key, value, fresh in mismatches:
            print(
                f"MISMATCH at {key.N} {key.r} {key.n}: cached "
                f"{format_rational(value)}, recomputed {format_rational(fresh)}"
            )
        return EXIT_VERIFY
    print(f"audited {count} entries: all match")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgbern",
        description="Exact hypergeometric Bernoulli numbers: values, tables, "
        "cross-route verification, congruences, convergents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", metavar="PATH", help="cache file (default: $HGBERN_CACHE)")

    p = sub.add_parser("compute", help="compute one value by a chosen route", parents=[cache])
    p.add_argument("-N", type=int, required=True, help="parameter N >= 1")
    p.add_argument("-n", type=int, required=True, help="index n >= 0")
    p.add_argument("-r", type=int, default=1, help="order r >= 1 (default 1)")
    p.add_argument("--route", choices=sorted(ROUTES), default="recurrence")
    p.add_argument(
        "--decimal", type=_digit_count, metavar="K", help="also print K >= 0 decimal digits"
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="emit a table of values", parents=[cache])
    p.add_argument("-N", type=_parse_range, required=True, metavar="RANGE")
    p.add_argument("-n", type=_parse_range, required=True, metavar="RANGE")
    p.add_argument("-r", type=_parse_range, default=(1,), metavar="RANGE")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="cross-route agreement sweep", parents=[cache])
    p.add_argument("-N", type=_parse_range, default=tuple(range(1, 6)), metavar="RANGE")
    p.add_argument("-n", type=_parse_range, default=tuple(range(0, 15)), metavar="RANGE")
    p.add_argument("-r", type=_parse_range, default=tuple(range(1, 4)), metavar="RANGE")
    p.add_argument(
        "--routes", default=",".join(ROUTES), help="comma-separated route names (at least two)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("congruence", help="p-adic congruence checks")
    p.set_defaults(func=cmd_congruence)
    csub = p.add_subparsers(dest="subcommand", required=True)
    # the statements' shared options, each a parent of the next: every
    # statement takes -p and -n, the Kummer ones --nu, the transfer ones N
    statement = argparse.ArgumentParser(add_help=False, parents=[cache])
    statement.add_argument("-p", type=int, required=True)
    statement.add_argument("-n", type=int, required=True)
    kummer = argparse.ArgumentParser(add_help=False, parents=[statement])
    kummer.add_argument("--nu", type=int, default=0)
    transfer = argparse.ArgumentParser(add_help=False, parents=[kummer])
    family = transfer.add_mutually_exclusive_group(required=True)
    family.add_argument("-N", type=int, help="parameter N (explicit)")
    family.add_argument(
        "--ordp-target", type=_digit_count, metavar="T", help="use N = 1 + p^T (T >= 0)"
    )

    c = csub.add_parser(
        "classical", help="Kummer congruence for classical Bernoulli numbers", parents=[kummer]
    )
    c.add_argument("-m", type=int, required=True)
    c.set_defaults(
        verdict=lambda a, store: congruence.kummer_classical(a.p, a.m, a.n, a.nu, store)
    )

    c = csub.add_parser("hb-kummer", help="single-index transfer congruence", parents=[transfer])
    c.set_defaults(
        verdict=lambda a, store: congruence.hb_kummer_corollary(a.p, a.N, a.n, a.nu, store)
    )

    c = csub.add_parser(
        "hb-pair", help="Kummer pairing within one parameter family", parents=[transfer]
    )
    c.add_argument("-m", type=int, required=True)
    c.set_defaults(
        verdict=lambda a, store: congruence.hb_kummer_pair(a.p, a.N, a.m, a.n, a.nu, store)
    )

    c = csub.add_parser(
        "factorial", help="factorial-ladder congruence mod p^ord_p(N-1)", parents=[statement]
    )
    c.add_argument("-N", type=int, required=True)
    c.set_defaults(
        verdict=lambda a, store: congruence.hb_factorial_congruence(a.p, a.N, a.n, store)
    )

    p = sub.add_parser("convergents", help="continued-fraction convergents", parents=[cache])
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--route", choices=("rec", "closed"), default="rec")
    p.add_argument("--check", action="store_true", help="verify the defect series vanishes")
    p.set_defaults(func=cmd_convergents)

    p = sub.add_parser(
        "cache-audit", help="recompute every entry of a cache file", parents=[cache]
    )
    p.set_defaults(func=cmd_cache_audit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it, and each
    build leaves a large cyclic graph for the garbage collector."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # values outgrow Python's 4300-digit default for int <-> str conversion
        sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
