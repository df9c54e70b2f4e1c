"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The traced-count test runs the sweep twice with one BLAS thread: the
counts it compares do not depend on the thread count, and the
single-thread run is about ten times faster on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _runner(tmp_path, workload: str, seed: int = 0) -> run.Runner:
    return run.Runner(workload, seed, str(tmp_path),
                      deadline=time.monotonic() + run.RUN_BUDGET_S)


def test_generators_are_deterministic_per_seed():
    first = workloads.build_inputs("wire-obc", 7, 1)["energies"]
    again = workloads.build_inputs("wire-obc", 7, 1)["energies"]
    other = workloads.build_inputs("wire-obc", 8, 1)["energies"]
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert workloads.grid_shifts(0, 3) == [0.0, 0.0, 0.0]
    assert workloads.grid_shifts(7, 3)[0] == \
        np.random.default_rng(7).uniform()
    assert workloads.grid_shifts(7, 2) == workloads.grid_shifts(7, 3)[:2]
    solve = workloads.build_inputs("wire-solve", 7, 0)["energies"]
    assert solve.shape == (32,)
    assert workloads.build_inputs("sweep", 1, 0)["e_window"] == \
        workloads.build_inputs("sweep", 2, 3)["e_window"]


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_METRICS
    ops = [{"setup_s": 1.0, "time_to_solution_s": 2.0, "cpu_s": 3.0,
            "peak_rss_mb": 4.0, "error": None}]
    printed = run.e2e_metrics(ops)
    assert {k: v["unit"] for k, v in printed.items()} == e2e
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.PER_LAYER_METRICS


def test_wrong_output_fails_the_operation_and_the_run():
    good = {"outputs": {"current": workloads.SWEEP_REFERENCE_CURRENT_A,
                        "store_checked": 25, "store_corrupt": 0}}
    bad = {"outputs": dict(good["outputs"], current=3.7e-06)}
    assert run.check_operation("sweep", good, None) is None
    assert "relative" in run.check_operation("sweep", bad, None)
    runner = run.Runner("sweep", 0, "", deadline=0.0)
    correct, failed, notes = run.judge(runner, [good, bad], [0, 1])
    assert (correct, failed) == (False, 1)
    assert notes[0].startswith("op 1: WRONG OUTPUT")


def test_injected_failure_counts_once_and_is_not_retried(tmp_path):
    runner = _runner(tmp_path, "wire-obc")
    result = run.measured_run(runner, seconds=0.0, inject_failure=True)
    # every operation fails, so the run stops at the cap
    ops = run.MAX_OPS
    assert (result["attempted"], result["failed"]) == (ops, ops)
    assert result["correct"]
    assert result["notes"] == [f"op {i}: FAILED RuntimeError: injected "
                               "failure" for i in range(ops)]
    # one launch per operation: no retry, and no reference run for
    # grids nobody solved
    assert runner.launches == ops


def test_traced_counts_repeat_exactly(tmp_path):
    runner = _runner(tmp_path, "sweep")
    blas1 = {"OPENBLAS_NUM_THREADS": "1"}
    first = runner.child("trace", extra_env=blas1)
    second = runner.child("trace", extra_env=blas1)
    for op in (first, second):
        assert op["error"] is None
        assert run.check_operation("sweep", op, None) is None
        assert set(op["layers"]) == set(layers.METRICS)
    counts = layers.COUNT_METRICS
    assert {"parallel.tasks", "cache.records_written",
            "hamiltonian.build_calls", "obc.flops"} <= set(counts)
    assert {k: first["layers"][k] for k in counts} == \
        {k: second["layers"][k] for k in counts}
    assert first["layers"]["parallel.tasks"] > 0
    assert first["layers"]["poisson.solve_calls"] == 1
