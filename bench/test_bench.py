"""The benchmark's own checks: a perturbed output must count as failed.

    python3 -m pytest -q bench
"""

import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import spans  # noqa: E402
import speed  # noqa: E402
import witness  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from hgbern import congruence  # noqa: E402
from hgbern.hbnum import HBKey, MemoStore  # noqa: E402


class Fixed(workloads.Workload):
    """Operations with known outputs, standing in for a real workload."""

    name = "deep"

    def __init__(self, ops):
        self.ops = ops

    def make_ops(self):
        return self.ops


def test_witness_matches_known_values():
    assert witness.classical_bernoulli(6) == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)
    ]
    # (x / (e^x - 1))^2 = 1 - x + (5/12) x^2 + ...
    assert witness.higher_order_bernoulli(2, 2) == [1, -1, Fraction(5, 6)]


def test_times_scale_with_the_reference_kernel():
    ref = speed.REFERENCE_S
    assert speed.scaled(1.5, ref, ref) == 1.5
    # twice as slow a machine: twice the seconds, the same reference seconds
    assert speed.scaled(3.0, 2 * ref, 2 * ref) == 1.5


def test_wrong_and_raising_ops_count_as_failed():
    def boom():
        raise ValueError("boom")

    ops = [
        workloads.Op("right", lambda: 2, lambda out: out == 2),
        workloads.Op("perturbed", lambda: 3, lambda out: out == 2),
        workloads.Op("raises", boom, lambda out: True),
    ]
    failures = []
    result = worker.run_pass(Fixed(ops), speed.Speed(), failures)
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert [f.split(":")[0] for f in failures] == ["perturbed", "raises"]


def test_perturbed_cli_outputs_fail_their_checks():
    points = workloads.SWEEP_POINTS
    assert sum(workloads.sweep_comparisons(N, n) for N, n in points) == 897
    assert 3 * len(points) == 225
    sweep = workloads.Sweep().make_ops()[-1]
    right = workloads.verify_report(workloads.SWEEP_ROUTES, 3, 13)
    assert sweep.check((0, right))
    assert not sweep.check((0, right.replace("(13 ", "(12 ")))
    assert not sweep.check((1, right))
    deep = workloads.Deep()
    ops = deep.make_ops()
    assert len(ops) == 5 + 10 + 15
    assert not ops[0].check((0, "N,r,n,value\n1,1,0,1/1\n"))
    # a pass whose table outputs are right except for one value
    outputs = [op.run() if op.label.startswith("table -N 1 -r 1") else None for op in ops]
    assert ops[0].check(outputs[0])
    perturbed = (0, outputs[0][1].replace("\n1,1,2,1/6\n", "\n1,1,2,1/7\n"))
    assert ops[0].check(perturbed)  # same shape, so only the untimed checks can tell
    full = deep.after_pass([perturbed] + [(0, workloads.TABLE_HEADER)] * 4 + [None] * 25)
    assert dict(full)["table -N 1..5 -n 0..200 output digest"] is False
    assert dict(full)["table -N 1..5 -n 0..200 N=1 rows against the witness"] is False
    assert dict(full)["table -N 1..5 -r 2..3 -n 0..60 output"] is False


def test_witness_catches_a_perturbed_table_row():
    rows = "N,r,n,value\n1,1,0,1/1\n1,1,1,-1/2\n1,1,2,1/6\n2,1,1,-1/3\n1,2,2,5/6\n"
    assert workloads.witness_mismatches(rows) == 0
    assert workloads.witness_mismatches(rows.replace("1,1,2,1/6", "1,1,2,1/7")) == 1
    assert workloads.witness_mismatches(rows.replace("5/6", "5/7")) == 1


def test_perturbed_warm_and_kummer_verdicts_fail():
    warm = workloads.Warm()
    warm.expected = {HBKey(2, 1, 4): Fraction(-1, 270)}
    assert warm._check("cached", (2, 1, 4), Fraction(-1, 270))
    assert not warm._check("cached", (2, 1, 4), Fraction(-1, 271))
    N = 1 + 5**4
    right = congruence.hb_kummer_corollary(5, N, 6, 0)
    assert workloads._holds_with(3, 1)(right)
    assert not workloads._holds_with(4, 1)(right)
    assert not workloads._holds_with(3, 2)(right)


def test_tracer_sees_calls_through_every_binding_and_uninstalls():
    from hgbern import altforms, exactnum, hbnum

    original = exactnum.cauchy_product
    tracer = spans.Tracer()
    tracer.install()
    try:
        # hb_higher reaches cauchy_product through hbnum's own binding
        hbnum.hb_higher(2, 2, 5, MemoStore())
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["exactnum.cauchy_product.calls"] == 1
    assert metrics["exactnum.cauchy_product.terms"] == 6 * 7 // 2
    assert metrics["hbnum.hb_higher.calls"] == 1
    assert metrics["hbnum.store.misses"] == metrics["hbnum.store.entries"] == 6
    assert tracer.self_time_total() >= metrics["hbnum.hb_higher.self_s"]
    assert hbnum.cauchy_product is altforms.cauchy_product is original


def test_traced_run_fails_loudly_on_a_span_without_calls():
    ops = [workloads.Op("nothing", lambda: 1, lambda out: out == 1)]
    result = worker.trace(Fixed(ops), speed.Speed(), None, "test", [])
    assert "span cli.main recorded no call" in result["problems"]
    assert result["failed"] == 0
