"""One benchmark operation in a fresh interpreter.

``run.py`` starts this script once per operation, so every timed call
pays the imports and set-up a user pays.  The last line of standard
output is one JSON object describing the operation.

Modes:

``measure``    set up, then time the one call with tracing off;
``trace``      the same call under a span tracer, a flop ledger and the
               layer wrappers of ``layers.py``;
``reference``  dense-OBC mode counts of a ``wire-*`` workload's grids.

The module body only defines names: spawned pool workers import it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Larger of this process's and the largest reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _outputs(workload: str, result, store_dir) -> dict:
    """What run.py checks; computed outside the timed region."""
    import numpy as np

    if workload == "sweep":
        from repro.cache.store import ResultStore
        verdict = ResultStore(store_dir).verify()
        return {"current": float(result.points[0].current),
                "store_checked": int(verdict["checked"]),
                "store_corrupt": len(verdict["corrupt"])}
    trans = np.asarray(result.transmission[0], dtype=float)
    modes = np.asarray(result.mode_counts[0])
    return {"mode_counts": [int(m) for m in modes],
            "max_abs_t_minus_modes": float(np.max(np.abs(trans - modes)))}


def _injected_failure(*args, **kwargs):
    raise RuntimeError("injected failure")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("measure", "trace", "reference"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--op", type=int, nargs="+", default=[0],
                        help="operation index; reference mode takes "
                             "several")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--sweep-workers", type=int, default=None)
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")
    import workloads

    if args.mode == "reference":
        print(json.dumps({"modes": workloads.reference_mode_counts(
            args.workload, args.seed, args.op)}))
        return 0

    store_dir = None
    if args.workload == "sweep":
        store_dir = tempfile.mkdtemp(prefix="store-", dir=args.work_dir)
    try:
        inputs = workloads.build_inputs(args.workload, args.seed,
                                        args.op[0])
        report = {"setup_s": time.monotonic() - args.spawned_at}
        call = _injected_failure if args.inject_failure \
            else workloads.run_operation
        if args.sweep_workers is not None:
            call = functools.partial(call,
                                     sweep_workers=args.sweep_workers)
        report.update(_run(args.mode, args.workload, call, inputs,
                           store_dir))
        from provenance import blas_threads
        report["blas"] = blas_threads()
        print(json.dumps(report))
        return 0
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def _run(mode: str, workload: str, call, inputs, store_dir) -> dict:
    report = {"error": None}
    result = None
    if mode == "trace":
        from layers import LayerProbe, layer_metrics
        from repro.linalg import ledger_scope
        from repro.observability.spans import SpanTracer, tracing
        tracer, probe = SpanTracer(), LayerProbe()
        with tracing(tracer), ledger_scope() as ledger, probe.installed():
            result = _timed_call(report, workload, call, inputs, store_dir)
        report["layers"] = layer_metrics(tracer.records(), ledger, probe,
                                         store_dir)
    else:
        result = _timed_call(report, workload, call, inputs, store_dir)
    if report["error"] is None:
        report["outputs"] = _outputs(workload, result, store_dir)
    return report


def _timed_call(report, workload, call, inputs, store_dir):
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = None
    try:
        result = call(workload, inputs, store_dir)
    except Exception as exc:
        report["error"] = {"type": type(exc).__name__,
                           "message": str(exc)[:500]}
    report["time_to_solution_s"] = time.perf_counter() - t0
    report["cpu_s"] = _cpu_seconds() - cpu0
    report["peak_rss_mb"] = _peak_rss_mb()
    return result


if __name__ == "__main__":
    sys.exit(main())
