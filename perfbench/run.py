"""End-to-end benchmark of the transport program: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wire-obc --seed 1 --seconds 20 --trace 0

Every operation runs in a fresh interpreter (``child.py``).  With
``--trace 0`` the run times operations with tracing off until
``MIN_OPS`` of them have succeeded and ``--seconds`` have passed, and
reports the end-to-end metrics as medians; with ``--trace 1`` it runs
one untraced and one traced operation plus the ungated reference lines
and reports the per-layer metrics.  Output checks run outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from provenance import host_provenance  # noqa: E402

#: end-to-end metric name -> unit, in report order
E2E_METRICS = {"time_to_solution_s": "s", "setup_s": "s", "cpu_s": "s",
               "peak_rss_mb": "MB"}

#: measured operations per run: until this many have succeeded and
#: --seconds have passed, at most MAX_OPS.  Each operation also gives
#: one set-up sample.
MIN_OPS = {"wire-obc": 3, "wire-solve": 2, "sweep": 3}
MAX_OPS = 5
#: concurrent children computing the dense-OBC reference; it is not
#: timed, so it may use every core
REFERENCE_PROCS = 2
#: a run must finish within 180 s; children are killed past this
RUN_BUDGET_S = 170.0

#: environment of the single-BLAS-thread children only
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1"}

#: ungated reference lines of a traced run: metric -> (workload, child
#: options).  The single-BLAS-thread baseline, and the sweep on the
#: oversubscribed worker count it is not gated on.
REFERENCE_LINES = {
    "ref.wire-obc.blas1_time_to_solution_s":
        ("wire-obc", {"extra_env": BLAS1_ENV}),
    "ref.sweep.blas1_time_to_solution_s":
        ("sweep", {"extra_env": BLAS1_ENV}),
    "ref.sweep.workers2_time_to_solution_s":
        ("sweep", {"sweep_workers": workloads.SWEEP_OVERSUBSCRIBED_WORKERS}),
}

#: per-layer metric name -> unit: the traced operation's layers, the
#: tracing overhead and the reference lines
PER_LAYER_METRICS = dict(layers.METRICS, **{"trace.overhead": "ratio"},
                         **{name: "s" for name in REFERENCE_LINES})


class Runner:
    """Starts child interpreters for one benchmark run."""

    def __init__(self, workload: str, seed: int, work_dir: str,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.launches = 0

    def child(self, mode: str, **options) -> dict:
        """Run ``child.py`` once; a crash or timeout comes back as an
        ``error`` entry, never as an exception, and is never retried."""
        return self._finish(self._start(mode, **options))

    def children(self, mode: str, options: list) -> list:
        """Run several children at once; one result per options dict."""
        return [self._finish(p) for p in
                [self._start(mode, **o) for o in options]]

    def _start(self, mode: str, op=0, workload: str | None = None,
               extra_env: dict | None = None,
               sweep_workers: int | None = None,
               inject_failure: bool = False):
        env = dict(os.environ)
        env.update(extra_env or {})
        ops = op if isinstance(op, list) else [op]
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--root", ROOT, "--mode", mode,
               "--workload", workload or self.workload,
               "--seed", str(self.seed), "--work-dir", self.work_dir,
               "--op", *[str(i) for i in ops]]
        if sweep_workers is not None:
            cmd += ["--sweep-workers", str(sweep_workers)]
        if inject_failure:
            cmd.append("--inject-failure")
        self.launches += 1
        return mode, subprocess.Popen(
            cmd + ["--spawned-at", repr(time.monotonic())], env=env,
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)

    def _finish(self, started) -> dict:
        mode, proc = started
        timeout = max(self.deadline - time.monotonic(), 1.0)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # the child's own pool workers share its session
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": {"type": "Timeout",
                              "message": f"{mode} exceeded {timeout:.0f} s"}}
        finally:
            _reap_group(proc.pid)
        lines = [ln for ln in out.splitlines() if ln.strip()]
        if proc.returncode != 0 or not lines:
            tail = err.strip().splitlines()[-3:]
            return {"error": {"type": "ChildFailed",
                              "message": f"exit {proc.returncode}: "
                                         + " | ".join(tail)}}
        return json.loads(lines[-1])


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check_operation(workload: str, op: dict, reference) -> str | None:
    """Why an operation's output is wrong, or None when it is right.

    ``reference`` is the dense-OBC mode-count list of the operation's
    grid (``wire-*``) and ignored for ``sweep``.
    """
    out = op["outputs"]
    if workload == "sweep":
        ref = workloads.SWEEP_REFERENCE_CURRENT_A
        rel = abs(out["current"] - ref) / abs(ref)
        if rel > workloads.SWEEP_CURRENT_RTOL:
            return (f"current {out['current']!r} A is {rel:.2e} relative "
                    f"from the serial value {ref!r} A")
        if out["store_corrupt"] or out["store_checked"] < 1:
            return (f"result store verify: {out['store_corrupt']} bad of "
                    f"{out['store_checked']} records")
        return None
    if reference is None:
        return "no dense-OBC reference"
    if out["mode_counts"] != reference:
        bad = sum(a != b for a, b in zip(out["mode_counts"], reference))
        return f"mode counts differ from dense OBC at {bad} energies"
    if out["max_abs_t_minus_modes"] > workloads.TRANSMISSION_ATOL:
        return (f"max |T - modes| = {out['max_abs_t_minus_modes']:.2e} "
                f"> {workloads.TRANSMISSION_ATOL:g}")
    return None


def judge(runner: Runner, ops: list, grids: list) -> tuple:
    """Check every operation; returns (correct, failed, notes).

    ``grids[i]`` is the operation index whose grid ``ops[i]`` solved.
    An operation that raised counts as failed; one whose output is
    wrong counts as failed and makes the run incorrect.
    """
    modes = {}
    solved = sorted({g for g, op in zip(grids, ops)
                     if op.get("error") is None})
    if runner.workload != "sweep" and solved:
        shares = [solved[i::REFERENCE_PROCS] for i in range(REFERENCE_PROCS)]
        shares = [share for share in shares if share]
        refs = runner.children("reference", [
            {"op": share, "extra_env": BLAS1_ENV} for share in shares])
        for share, ref in zip(shares, refs):
            if ref.get("error") is None:
                modes.update(zip(share, ref["modes"]))
    correct, failed, notes = True, 0, []
    for i, op in enumerate(ops):
        err = op.get("error")
        if err is not None:
            failed += 1
            notes.append(f"op {i}: FAILED {err['type']}: {err['message']}")
            continue
        why = check_operation(runner.workload, op, modes.get(grids[i]))
        if why is not None:
            failed += 1
            correct = False
            notes.append(f"op {i}: WRONG OUTPUT {why}")
    return correct, failed, notes


def _median_of(ops: list, key: str) -> float:
    """Median over the operations that succeeded, else over all."""
    good = [op[key] for op in ops if op.get("error") is None and key in op]
    return statistics.median(good or [op[key] for op in ops if key in op])


def e2e_metrics(ops: list) -> dict:
    values = {"setup_s": statistics.median(
        [op["setup_s"] for op in ops if "setup_s" in op])}
    for key in ("time_to_solution_s", "cpu_s", "peak_rss_mb"):
        values[key] = _median_of(ops, key)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_METRICS.items()}


def measured_run(runner: Runner, seconds: float,
                 inject_failure: bool = False) -> dict:
    ops = []
    start = time.monotonic()
    succeeded, longest = 0, 0.0
    # stop early rather than start an operation the 170 s budget would
    # kill: a killed operation would count as failed
    while len(ops) < MAX_OPS and (
            succeeded < MIN_OPS[runner.workload]
            or time.monotonic() - start < seconds) and (
            runner.deadline - time.monotonic() > 2 * longest):
        t0 = time.monotonic()
        ops.append(runner.child("measure", op=len(ops),
                                inject_failure=inject_failure))
        longest = max(longest, time.monotonic() - t0)
        succeeded += ops[-1].get("error") is None
    correct, failed, notes = judge(runner, ops, list(range(len(ops))))
    if all("time_to_solution_s" not in op for op in ops):
        raise RuntimeError("no operation produced a timing: "
                           + "; ".join(notes))
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": e2e_metrics(ops), "notes": notes,
            "ops": ops}


def traced_run(runner: Runner) -> dict:
    plain = runner.child("measure")
    traced = runner.child("trace")
    ops = [plain, traced]
    correct, failed, notes = judge(runner, ops, [0, 0])
    if "layers" not in traced or "time_to_solution_s" not in plain:
        raise RuntimeError("traced or untraced operation did not run: "
                           + "; ".join(notes))
    values = dict(traced["layers"])
    values["trace.overhead"] = (traced["time_to_solution_s"]
                                / plain["time_to_solution_s"])
    for metric, (name, options) in REFERENCE_LINES.items():
        ref = runner.child("measure", workload=name, **options)
        if ref.get("error") is not None:
            notes.append(f"{metric}: {ref['error']['type']}: "
                         f"{ref['error']['message']}")
        if "time_to_solution_s" not in ref:
            raise RuntimeError(f"{metric}: the run produced no timing")
        values[metric] = ref["time_to_solution_s"]
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in PER_LAYER_METRICS.items()},
            "notes": notes, "ops": ops}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result with its provenance."""
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{workloads.WORKLOADS}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise FileNotFoundError(f"no program source under {ROOT}/src")
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work_dir = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(workload, seed, work_dir,
                    deadline=time.monotonic() + RUN_BUDGET_S)
    try:
        result = traced_run(runner) if trace else \
            measured_run(runner, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run is still using it
    result["traced"] = trace
    blas = [op["blas"] for op in result["ops"] if "blas" in op]
    result["provenance"] = dict(
        host_provenance(ROOT), blas=blas[0] if blas else None,
        workers=workloads.SWEEP_WORKERS if workload == "sweep" else 1,
        launches=runner.launches)
    return result


def report(workload: str, result: dict) -> None:
    n = result["attempted"]
    for op_index, op in enumerate(result["ops"]):
        if "time_to_solution_s" in op:
            print(f"# op {op_index}: time_to_solution_s "
                  f"{op['time_to_solution_s']:.3f} s, cpu_s "
                  f"{op['cpu_s']:.3f} s, setup_s {op['setup_s']:.3f} s")
    for note in result["notes"]:
        print(f"# {note}")
    suffix = "" if result["traced"] else f" (median of {n} operations)"
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}{suffix}")
    print("# provenance " + json.dumps(result["provenance"],
                                       sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (FileNotFoundError, RuntimeError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
