"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import pipelines  # noqa: E402
import workloads  # noqa: E402
from run import worker_env  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import depth_exponent, hd_quantile, run_ops  # noqa: E402

from afkit import bratteli, dimgroup, elliott, ordgrp, perturb  # noqa: E402


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


# -- tracer -------------------------------------------------------------------


@pytest.mark.parametrize("gaps", [1, 5, 17])
def test_path_matrix_makes_one_compose_per_gap(tracer, gaps):
    d = bratteli.gen_car(gaps + 3)
    bratteli.path_matrix(d, 2, 2 + gaps)
    values = tracer.layer_values()
    assert values["bratteli.path_matrix.calls"] == 1
    assert values["ordgrp.compose.calls"] == gaps
    assert values["ordgrp.compose.mul_adds"] == gaps  # 1x1 . 1x1


@pytest.mark.parametrize("n", [1, 4, 9])
def test_delta0_recursion_count(tracer, n):
    perturb.delta0(Fraction(1, 3), n)
    assert tracer.layer_values()["perturb.delta0.calls"] == n


def test_wrappers_rebind_every_consumer_and_restore():
    original = ordgrp.compose
    tr = Tracer()
    tr.install()
    try:
        assert bratteli.compose is not original
        assert bratteli.compose is ordgrp.compose is elliott.compose
        assert bratteli.compose.__wrapped__ is original
    finally:
        tr.uninstall()
    assert bratteli.compose is original and ordgrp.compose is original
    assert not hasattr(dimgroup.DimCertificate.bond_product, "__wrapped__")


def test_path_matrix_distinct_counts_diagrams_apart(tracer):
    a, b = bratteli.gen_car(4), bratteli.gen_car(5)
    for d in (a, b, a):
        bratteli.path_matrix(d, 0, 2)
    assert tracer.layer_values()["bratteli.path_matrix.distinct"] == 2
    summary = tracer.summary("child")
    parent = Tracer()
    parent.add_summary(summary)
    parent.add_summary(json.loads(json.dumps(tracer.summary("other child"))))
    assert parent.layer_values()["bratteli.path_matrix.distinct"] == 4


def test_self_time_excludes_children(tracer):
    d = bratteli.gen_car(60)
    half = bratteli.telescope(d, range(0, 61, 2))
    bratteli.equivalence_search(d, half)
    v = tracer.layer_values()
    total = sum(v[m] for m in v if m.endswith(".self_s"))
    assert 0 < v["bratteli.equivalence_search.self_s"] < total
    assert v["bratteli.path_matrix.distinct"] <= v["bratteli.path_matrix.calls"]
    # Every span closed, and parents precede children.
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert all(p < i for i, p in enumerate(tracer.parent))


def test_traced_deep_rung_keeps_its_verdict():
    ops = workloads.deep_tower(0, workloads.Golden()).ops
    rung = op_named(ops, "zigzag-T800")
    tr = Tracer()
    tr.install()
    try:
        _, (outcome,) = run_ops([rung], tr)
    finally:
        tr.uninstall()
    assert outcome.reason is None


# -- gates and failure accounting ---------------------------------------------


def test_failing_operation_is_counted_and_the_run_goes_on():
    ops = workloads.deep_tower(0, workloads.Golden()).ops
    crash = op_named(ops, f"zigzag-car-T{workloads.CRASH_DEPTH}")
    after = op_named(ops, "shen")
    _, outcomes = run_ops([crash, after])
    assert outcomes[0].reason == "raised RecursionError" and not outcomes[0].wrong
    assert outcomes[1].reason is None


def test_wrong_output_is_caught():
    golden = workloads.Golden()
    car, half = workloads.car_half(50)
    witness = bratteli.equivalence_search(car, half)
    gate = workloads.equivalence_gate(car, half, golden, "car-half-equiv-T50")
    assert gate(witness) is None
    assert gate(bratteli.EquivalenceWitness(())) == "equivalence witness does not replay"
    assert golden.canonical("car-half-equiv-T50", {"steps": []}).startswith("output differs")


# -- smoke runs of every workload at tiny size --------------------------------


@pytest.mark.parametrize("name", sorted(workloads.IN_PROCESS))
def test_in_process_workload_smoke(name):
    w = workloads.IN_PROCESS[name](5, workloads.Golden())
    _, outcomes = run_ops(w.warmup)
    assert [o.reason for o in outcomes] == [None] * len(outcomes)


def test_probe_ladder_smoke():
    ladder = workloads.probe_ops(5, workloads.Golden())
    small = [op for op in ladder if op.depth <= 100]
    _, outcomes = run_ops(small)
    assert all(o.reason is None for o in outcomes)
    slope, rungs = depth_exponent(outcomes, {op.name: op.depth for op in small if op.family == "query"})
    assert rungs == [100] and math.isnan(slope)  # one rung: no fit


def test_cli_pipeline_smoke(tmp_path):
    executor = pipelines.Executor(BENCH.parent, tmp_path, worker_env(), workloads.Golden())
    results = executor.run(pipelines.car_pipeline(6), trace=True)
    assert [r.reason for r in results] == [None] * len(results)
    assert all(r.trace is not None and r.trace["calls"] for r in results)


def test_run_reports_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "numeric", "--seconds", "1", "--seed", "3"],
        capture_output=True,
        text=True,
        cwd=BENCH.parent,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_harrell_davis_quantile():
    samples = [float(x) for x in range(101)]
    assert hd_quantile(samples, 0.5) == pytest.approx(50.0, abs=1e-6)
    assert 73 < hd_quantile(samples, 0.75) < 77
    # Between two clusters of equal size the estimate sits near their midpoint.
    assert 4 < hd_quantile([1.0] * 20 + [9.0] * 20, 0.5) < 6
