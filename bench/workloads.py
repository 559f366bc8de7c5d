"""The benchmark's four workloads and the exact checks on their outputs.

Each workload is a fixed list of operations run as one closed loop: a single
caller, one process, the next operation only after the previous returns.
The operations go through public entry points only (``hgbern.cli.main``,
``MemoStore`` and the public functions of ``congruence``/``contfrac``), and
are looked up on their module at call time so that a traced run sees them.
Why each workload exists is in README.md next to this file.

An operation returns its output; ``Op.check`` compares it exactly with the
expected value and is cheap enough to stay inside the timed pass.  Checks
that cost real time (independent witnesses, the full re-audit of ``warm``'s
cache file) run in ``Workload.after_pass``, outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from hgbern import cli, congruence, contfrac, hbnum
from hgbern.exactnum import parse_rational
from hgbern.hbnum import HBKey, MemoStore

import witness


@dataclass
class Op:
    """One timed operation and the exact check of what it returned."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        """Generate the inputs from the seed (and any files the passes read)."""

    def before_pass(self) -> None:
        """Restore any state a pass changes, so that every pass is identical."""

    def make_ops(self) -> list[Op]:
        raise NotImplementedError

    def after_pass(self, outputs: list[Any]) -> list[tuple[str, bool]]:
        """Expensive exact checks of a pass's outputs, outside the timing."""
        return []

    def record(self) -> dict:
        """What makes a pass reproducible, for the run's record file."""
        return {}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``hgbern <argv>`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def witness_mismatches(csv_text: str) -> int:
    """N = 1 rows of a ``table`` CSV that disagree with the independent witness."""
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    wanted: dict[int, int] = {}
    for N, r, n, _ in rows:
        if N == "1":
            wanted[int(r)] = max(wanted.get(int(r), 0), int(n))
    truth = {r: witness.higher_order_bernoulli(r, upto) for r, upto in wanted.items()}
    return sum(
        1
        for N, r, n, value in rows
        if N == "1" and parse_rational(value) != truth[int(r)][int(n)]
    )


# Both CLI workloads split each command into one invocation per N and r or n.
# The work is the same as one invocation per command, but no operation lasts
# long enough to sit wholly inside one of the machine's slow spells, so each
# operation's median time over the passes is steady.


def verify_report(routes: str, points: int, comparisons: int) -> str:
    return f"OK: routes {routes} agree on {points} grid points ({comparisons} comparisons)\n"


# ---------------------------------------------------------------- sweep

SWEEP_ROUTES = "recurrence,comp,binom,trudi,det,descent,descent-nested,convolution"
SWEEP_POINTS = [(N, n) for N in range(1, 6) for n in range(15)]


def sweep_comparisons(N: int, n: int) -> int:
    """Comparisons at (N, n) over r = 1..3 on the default grid.

    n = 0 leaves recurrence and convolution; r >= 2 drops comp, binom and
    both descents; N = 1 drops the descents.  Summed over the grid this is
    the 897 of ``hgbern verify``.
    """
    if n == 0:
        return 3
    return (7 if N >= 2 else 5) + 2 * 3


class Sweep(Workload):
    """``hgbern verify``: the default all-route agreement sweep, one (N, n) at a time."""

    name = "sweep"

    def make_ops(self) -> list[Op]:
        return [
            Op(
                f"verify -N {N} -n {n}",
                lambda a=["verify", "-N", str(N), "-n", str(n)]: run_cli(a),
                lambda out, want=verify_report(SWEEP_ROUTES, 3, sweep_comparisons(N, n)): (
                    out == (0, want)
                ),
            )
            for N, n in SWEEP_POINTS
        ]


# ---------------------------------------------------------------- deep

TABLE_HEADER = "N,r,n,value\n"
# (command, its (N, r) pieces, n range, sha256 of the command's whole output
# at the commit that defined this benchmark).  The pieces' rows, joined under
# one header, are byte for byte the command's output.  Its N = 1 rows are
# also checked against witness.py.
DEEP_TABLES = [
    (
        "table -N 1..5 -n 0..200",
        [(N, 1) for N in range(1, 6)],
        (0, 200),
        "251f6b55d1965e425a1d9ca42a77122826f226866820d3c3c7319985c2cf239c",
    ),
    (
        "table -N 1..5 -r 2..3 -n 0..60",
        [(N, r) for N in range(1, 6) for r in (2, 3)],
        (0, 60),
        "cd31772e59eaccce2a6b5bae02c3ca42c73c1ea6367a957ca960f7e0b52cf01f",
    ),
]
# verify -N 1..5 -r 1..3 -n 0..40 --routes recurrence,det: 615 points, 600 comparisons
DEEP_VERIFY = [(N, r) for N in range(1, 6) for r in range(1, 4)]
DEEP_VERIFY_REPORT = verify_report("recurrence,det", 41, 40)


def _table_piece_ok(out: tuple[int, str], rows: int) -> bool:
    return out[0] == 0 and out[1].startswith(TABLE_HEADER) and out[1].count("\n") == rows + 1


class Deep(Workload):
    """O(n^2) exact kernels only: two deep tables and a recurrence/det sweep."""

    name = "deep"

    def __init__(self) -> None:
        self._witnessed: dict[str, int] = {}

    def make_ops(self) -> list[Op]:
        ops = []
        for _, pieces, (lo, hi), _ in DEEP_TABLES:
            for N, r in pieces:
                argv = ["table", "-N", str(N), "-r", str(r), "-n", f"{lo}..{hi}"]
                ops.append(
                    Op(
                        " ".join(argv),
                        lambda argv=argv: run_cli(argv),
                        lambda out, rows=hi - lo + 1: _table_piece_ok(out, rows),
                    )
                )
        for N, r in DEEP_VERIFY:
            argv = ["verify", "-N", str(N), "-r", str(r), "-n", "0..40"]
            argv += ["--routes", "recurrence,det"]
            ops.append(
                Op(
                    " ".join(argv),
                    lambda argv=argv: run_cli(argv),
                    lambda out: out == (0, DEEP_VERIFY_REPORT),
                )
            )
        return ops

    def after_pass(self, outputs: list[Any]) -> list[tuple[str, bool]]:
        """Each table's pinned digest and its N = 1 rows against the witness."""
        results = []
        start = 0
        for command, pieces, _, pinned in DEEP_TABLES:
            parts = outputs[start : start + len(pieces)]
            start += len(pieces)
            if any(out is None for out in parts):
                results.append((f"{command} output", False))
                continue
            text = TABLE_HEADER + "".join(out[1][len(TABLE_HEADER) :] for out in parts)
            digest = sha256(text)
            if digest not in self._witnessed:
                self._witnessed[digest] = witness_mismatches(text)
            results.append((f"{command} output digest", digest == pinned))
            witnessed = self._witnessed[digest] == 0
            results.append((f"{command} N=1 rows against the witness", witnessed))
        return results


# ---------------------------------------------------------------- warm

WARM_FAMILIES = [(N, r) for N in range(1, 6) for r in range(1, 4)]
WARM_SEED_DEPTH = 60
WARM_INVOCATIONS = 160
WARM_KINDS = ("cached", "extend", "pair", "convergent")
# hgbern congruence hb-pair -p 5 -m 22 -n 2 --nu 1 --ordp-target 48: residue 8 mod 25
WARM_PAIR = (5, 1 + 5**48, 22, 2, 1)
WARM_PAIR_RESIDUE = 8


class RecordingRandom(random.Random):
    """A seeded generator that remembers what ``MemoStore.audit`` drew."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.drawn: list = []

    def sample(self, population, k, **kwargs):
        chosen = super().sample(population, k, **kwargs)
        self.drawn.extend(chosen)
        return chosen


class Warm(Workload):
    """Repeated ``hgbern ... --cache`` invocations against a warm cache file."""

    name = "warm"

    def setup(self, seed: int, workdir: Path) -> None:
        self.path = workdir / f"warm-seed{seed}.cache"
        rng = random.Random(seed)
        kinds = list(WARM_KINDS) * (WARM_INVOCATIONS // len(WARM_KINDS))
        rng.shuffle(kinds)
        # extensions cycle through the families, so every family grows
        order = list(WARM_FAMILIES)
        rng.shuffle(order)
        depth = dict.fromkeys(WARM_FAMILIES, WARM_SEED_DEPTH)
        self.queries: list[tuple[str, tuple, int]] = []
        extensions = 0
        for kind in kinds:
            if kind == "cached":
                arg: tuple = (rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, WARM_SEED_DEPTH))
            elif kind == "extend":
                family = order[extensions % len(order)]
                extensions += 1
                depth[family] += 1
                arg = (*family, depth[family])
            elif kind == "pair":
                arg = WARM_PAIR
            else:
                arg = (rng.randint(1, 5), rng.randint(0, 50))
            self.queries.append((kind, arg, rng.getrandbits(64)))

        full = MemoStore()
        for N, r in WARM_FAMILIES:
            hbnum.hb_higher(N, r, depth[(N, r)], full)
        self.expected = dict(full.items())
        seed_store = MemoStore(self.path)
        for key, value in full.items():
            if key.n <= WARM_SEED_DEPTH:
                seed_store.put(key, value)
        seed_store.save()
        self.seed_bytes = self.path.read_bytes()
        self.final_keys = set(self.expected) | {
            HBKey(WARM_PAIR[1], 1, n) for n in range(WARM_PAIR[2] + 1)
        }
        self.drawn: list = []
        self.first_draws: str | None = None

    def before_pass(self) -> None:
        self.path.write_bytes(self.seed_bytes)
        self.drawn = []

    def _invoke(self, kind: str, arg: tuple, audit_seed: int) -> Any:
        store = MemoStore(self.path)
        rng = RecordingRandom(audit_seed)
        store.load(audit_samples=3, rng=rng)
        self.drawn.append(rng.drawn)
        if kind in ("cached", "extend"):
            result = hbnum.hb_higher(*arg, store)
        elif kind == "pair":
            result = congruence.hb_kummer_pair(*arg, store)
        else:
            result = contfrac.approximation_defect(contfrac.convergent_rec(*arg), store)
        store.save()
        return result

    def _check(self, kind: str, arg: tuple, result: Any) -> bool:
        if kind in ("cached", "extend"):
            return result == self.expected[HBKey(*arg)]
        if kind == "pair":
            return (
                result.holds
                and result.modulus_exponent == WARM_PAIR[4] + 1
                and result.lhs_residue == result.rhs_residue == WARM_PAIR_RESIDUE
            )
        return result.is_zero()

    def make_ops(self) -> list[Op]:
        return [
            Op(
                f"{kind} {arg}",
                lambda q=(kind, arg, audit_seed): self._invoke(*q),
                lambda result, kind=kind, arg=arg: self._check(kind, arg, result),
            )
            for kind, arg, audit_seed in self.queries
        ]

    def after_pass(self, outputs: list[Any]) -> list[tuple[str, bool]]:
        """Full re-audit of the final cache file against fresh recomputation."""
        final = MemoStore(self.path)
        final.load(audit_samples=0)
        entries = dict(final.items())
        ok = set(entries) == self.final_keys
        depth: dict[tuple[int, int], int] = {}
        for key in entries:
            depth[(key.N, key.r)] = max(depth.get((key.N, key.r), 0), key.n)
        for (N, r), top in depth.items():
            fresh = MemoStore()
            hbnum.hb_higher(N, r, top, fresh)
            truth = witness.higher_order_bernoulli(r, top) if N == 1 else None
            for n in range(top + 1):
                key = HBKey(N, r, n)
                if key in entries:
                    ok = ok and entries[key] == fresh.get(key)
                    ok = ok and (truth is None or entries[key] == truth[n])
        draws = sha256(repr(self.drawn))
        if self.first_draws is None:
            self.first_draws = draws
        return [
            ("full re-audit of the final cache file", ok),
            ("audit draws equal to the first pass's", draws == self.first_draws),
        ]

    def record(self) -> dict:
        drawn = [[(k.N, k.r, k.n) for k in keys] for keys in self.drawn]
        return {
            "queries_sha256": sha256(repr(self.queries)),
            "audited_keys_sha256": sha256(repr(drawn)),
            "audited_keys": drawn,
        }


# ---------------------------------------------------------------- cf-kummer

KUMMER_PRIMES = (5, 7, 11, 13)
KUMMER_NUS = (0, 1)
KUMMER_MAX = 120
CONVERGENT_N = range(1, 6)
CONVERGENT_MAX = 50
IDENTITY_MAX = 15
# (p, t): factorial ladders at N = 1 + p^t; t = 0 means N = 1, exact equality
LADDERS = [(p, t) for p in (3, 5, 7) for t in (0, 1, 2, 3)]
LADDER_INDICES = (2, 4, 6, 8, 10)


def kummer_grid() -> list[tuple[int, int, int, int]]:
    """(p, m, n, nu) with m, n even, not divisible by p-1, m = n mod (p-1)p^nu."""
    grid = []
    for p in KUMMER_PRIMES:
        for nu in KUMMER_NUS:
            step = (p - 1) * p**nu
            for n in range(2, KUMMER_MAX + 1, 2):
                if n % (p - 1) == 0:
                    continue
                for m in range(n, KUMMER_MAX + 1, 2):
                    if m % (p - 1) != 0 and (m - n) % step == 0:
                        grid.append((p, m, n, nu))
    return grid


def _holds_with(residue: int | None, modulus_exponent):
    def check(verdict) -> bool:
        if not verdict.holds or verdict.modulus_exponent != modulus_exponent:
            return False
        return residue is None or verdict.lhs_residue == verdict.rhs_residue == residue

    return check


def _equal_sides(out: tuple) -> bool:
    return out[0] == out[1]


class CfKummer(Workload):
    """The paper's second half: convergents, identity families, congruences."""

    name = "cf-kummer"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.grid = kummer_grid()

    def make_ops(self) -> list[Op]:
        store = MemoStore()
        ops = [
            Op(
                f"kummer p={p} m={m} n={n} nu={nu}",
                lambda a=(p, m, n, nu): congruence.kummer_classical(*a, store),
                _holds_with(None, nu + 1),
            )
            for p, m, n, nu in self.grid
        ]
        # the paper's worked transfer examples
        ops.append(Op("threshold 4", lambda: congruence.ord_threshold(5, 6, 0), lambda t: t == 4))
        ops.append(
            Op("threshold 48", lambda: congruence.ord_threshold(5, 2, 1, m=22), lambda t: t == 48)
        )
        for n in (6, 2):
            ops.append(
                Op(
                    f"corollary N=1+5^4 n={n}",
                    lambda n=n: congruence.hb_kummer_corollary(5, 1 + 5**4, n, 0, store),
                    _holds_with(3, 1),
                )
            )
        for nu, residue in ((0, 3), (1, 8)):
            ops.append(
                Op(
                    f"pair N=1+5^48 (22, 2) nu={nu}",
                    lambda nu=nu: congruence.hb_kummer_pair(5, 1 + 5**48, 22, 2, nu, store),
                    _holds_with(residue, nu + 1),
                )
            )
        for p, t in LADDERS:
            N = 1 + p**t if t else 1
            for n in LADDER_INDICES:
                ops.append(
                    Op(
                        f"ladder p={p} N={N} n={n}",
                        lambda a=(p, N, n): congruence.hb_factorial_congruence(*a, store),
                        _holds_with(None, t if t else float("inf")),
                    )
                )
        for N in CONVERGENT_N:
            for n in range(CONVERGENT_MAX + 1):
                ops.append(
                    Op(
                        f"convergent N={N} n={n}",
                        lambda a=(N, n): self._convergent(*a, store),
                        bool,
                    )
                )
        for N in CONVERGENT_N:
            for n in range(1, IDENTITY_MAX + 1):
                for h in range(2 * n + 1):
                    ops.append(
                        Op(
                            f"identity_even N={N} n={n} h={h}",
                            lambda a=(N, n, h): contfrac.identity_even(*a, store),
                            _equal_sides,
                        )
                    )
                for h in range(2 * n):
                    ops.append(
                        Op(
                            f"identity_odd N={N} n={n} h={h}",
                            lambda a=(N, n, h): contfrac.identity_odd(*a, store),
                            _equal_sides,
                        )
                    )
        for n in range(1, IDENTITY_MAX + 1):
            for variant, lo, hi in (
                ("even", 0, 2 * n),
                ("odd", 0, 2 * n - 1),
                ("even-reduced", 1, 2 * n + 1),
                ("odd-reduced", 1, 2 * n),
            ):
                for h in range(lo, hi + 1):
                    ops.append(
                        Op(
                            f"classical {variant} n={n} h={h}",
                            lambda a=(variant, n, h): contfrac.classical_identity(*a, store),
                            _equal_sides,
                        )
                    )
        # the seed fixes the order; every pass shares one fresh store
        random.Random(self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _convergent(N: int, n: int, store: MemoStore) -> bool:
        rec = contfrac.convergent_rec(N, n)
        closed = contfrac.convergent_closed(N, n)
        if rec.P != closed.P or rec.Q != closed.Q:
            return False
        return contfrac.approximation_defect(rec, store).is_zero()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Sweep, Deep, Warm, CfKummer)
}
