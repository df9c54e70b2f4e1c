"""Per-layer accounting of one traced operation.

Two sources, and no change to the program:

* the stage spans ``repro.pipeline`` already emits under an installed
  :class:`~repro.observability.spans.SpanTracer`, plus the
  :class:`~repro.linalg.flops.FlopLedger` totals of ``ledger_scope()``;
* wrappers, installed here for the duration of the operation, around
  the public functions of layers that emit no spans, patched where the
  calling modules look them up.

Wrappers see the parent process only: device builds inside spawned
workers are not counted, while worker stage spans and ledgers reach the
parent through the process runner's own merge.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: ledger kernels reported by name: those the three workloads record.
#: Any other kernel, such as one a later change introduces, is summed
#: into ``linalg.other``.
KERNELS = ("zgemm", "zgemm_batched", "zgetrf", "zgetrf_batched",
           "zgetrs", "zgetrs_batched", "zggev")

#: per-layer metric name -> unit, in report order
METRICS = {
    "obc.s": "s", "obc.flops": "flop", "obc.bytes": "B",
    "obc.gflops": "GF/s",
    "solvers.s": "s", "solvers.flops": "flop", "solvers.bytes": "B",
    "solvers.gflops": "GF/s",
    "pipeline.prepare_s": "s", "pipeline.assemble_s": "s",
    "negf.analyze_s": "s",
    "linalg.flops": "flop", "linalg.bytes": "B",
    **{f"linalg.{k}.{what}": unit for k in KERNELS + ("other",)
       for what, unit in (("flops", "flop"), ("bytes", "B"))},
    "hamiltonian.build_calls": "count", "hamiltonian.build_s": "s",
    "poisson.solve_calls": "count", "poisson.solve_s": "s",
    "parallel.tasks": "count", "parallel.runner_s": "s",
    "parallel.busy_s": "s", "parallel.utilization": "ratio",
    "parallel.imbalance": "ratio",
    "cache.hits": "count", "cache.misses": "count", "cache.probe_s": "s",
    "cache.records_written": "count", "cache.bytes_written": "B",
    "core.spectrum_calls": "count", "core.spectrum_s": "s",
    "core.self_s": "s",
}

#: exact counts: two traced runs of one workload must agree on these
COUNT_METRICS = tuple(
    name for name in METRICS
    if name.endswith((".flops", ".bytes", "_calls"))
    or name in ("parallel.tasks", "cache.records_written"))


class LayerProbe:
    """Benchmark-side counters for layers that emit no spans."""

    def __init__(self):
        self.calls: dict = {}
        self.seconds: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.runner_workers = 0
        self.tasks = 0
        self.spectrum_spans: list = []
        self._patches: list = []

    def _add(self, key: str, seconds: float) -> None:
        self.calls[key] = self.calls.get(key, 0) + 1
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, key: str):
        def make(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._add(key, time.perf_counter() - t0)
            return wrapper
        return make

    def _spectrum(self, original):
        from repro.observability.spans import current_tracer

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                with current_tracer().span("compute_spectrum",
                                           category="core") as sp:
                    self.spectrum_spans.append(sp.span_id)
                    return original(*args, **kwargs)
            finally:
                self._add("spectrum", time.perf_counter() - t0)
        return wrapper

    def _store_get(self, original):
        def wrapper(store, key, **kwargs):
            t0 = time.perf_counter()
            try:
                rec = original(store, key, **kwargs)
            finally:
                self._add("cache_probe", time.perf_counter() - t0)
            if rec is None:
                self.cache_misses += 1
            else:
                self.cache_hits += 1
            return rec
        return wrapper

    def _runner_call(self, original):
        def wrapper(runner, tasks):
            tasks = list(tasks)
            self.tasks += len(tasks)
            self.runner_workers = max(self.runner_workers,
                                      int(runner.num_workers))
            t0 = time.perf_counter()
            try:
                return original(runner, tasks)
            finally:
                self._add("runner", time.perf_counter() - t0)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch the layer entry points; restore them on exit."""
        import repro.hamiltonian
        from repro.cache.store import ResultStore
        from repro.core import production, runner
        from repro.parallel.executor import ThreadTaskRunner
        from repro.parallel.process import ProcessTaskRunner
        from repro.poisson import scf

        for module in (runner, production, repro.hamiltonian):
            self._patch(module, "build_device", self._timed("build"))
        self._patch(scf, "solve_poisson", self._timed("poisson"))
        for module in (runner, production, scf):
            self._patch(module, "compute_spectrum", self._spectrum)
        self._patch(ResultStore, "get", self._store_get)
        for cls in (ProcessTaskRunner, ThreadTaskRunner):
            self._patch(cls, "__call__", self._runner_call)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def _union_seconds(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _self_seconds(spans, parent_ids) -> float:
    """Time of the ``parent_ids`` spans not covered by a direct child."""
    by_id = {sp.span_id: sp for sp in spans}
    total = 0.0
    for pid in parent_ids:
        parent = by_id[pid]
        covered = [(max(sp.t_start, parent.t_start),
                    min(sp.t_stop, parent.t_stop))
                   for sp in spans if sp.parent_id == pid]
        covered = [(lo, hi) for lo, hi in covered if hi > lo]
        total += parent.seconds - _union_seconds(covered)
    return total


def _rate(flops: int, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def store_scan(root) -> tuple:
    """(records, bytes) of the result-store objects under ``root``."""
    if root is None:
        return 0, 0
    from repro.cache.store import ResultStore
    stats = ResultStore(root).stats()
    return int(stats["objects"]), int(stats["total_bytes"])


def layer_metrics(spans, ledger, probe: LayerProbe, store_root) -> dict:
    """Every :data:`METRICS` entry for one traced operation."""
    stage = {}
    for sp in spans:
        if sp.category != "stage":
            continue
        s, f, b = stage.get(sp.name, (0.0, 0, 0))
        stage[sp.name] = (s + sp.seconds, f + int(sp.flops),
                          b + int(sp.bytes_moved))
    obc = stage.get("OBC", (0.0, 0, 0))
    solve = stage.get("SOLVE", (0.0, 0, 0))
    out = {
        "obc.s": obc[0], "obc.flops": obc[1], "obc.bytes": obc[2],
        "obc.gflops": _rate(obc[1], obc[0]),
        "solvers.s": solve[0], "solvers.flops": solve[1],
        "solvers.bytes": solve[2],
        "solvers.gflops": _rate(solve[1], solve[0]),
        "pipeline.prepare_s": stage.get("PREPARE", (0.0,))[0],
        "pipeline.assemble_s": stage.get("ASSEMBLE", (0.0,))[0],
        "negf.analyze_s": stage.get("ANALYZE", (0.0,))[0],
        "linalg.flops": int(ledger.total_flops),
        "linalg.bytes": int(ledger.total_bytes),
    }
    other_f = other_b = 0
    for kernel in set(ledger.flops_by_kernel) | set(ledger.bytes_by_kernel):
        f = int(ledger.flops_by_kernel.get(kernel, 0))
        b = int(ledger.bytes_by_kernel.get(kernel, 0))
        if kernel in KERNELS:
            out[f"linalg.{kernel}.flops"] = f
            out[f"linalg.{kernel}.bytes"] = b
        else:
            other_f += f
            other_b += b
    for kernel in KERNELS:
        out.setdefault(f"linalg.{kernel}.flops", 0)
        out.setdefault(f"linalg.{kernel}.bytes", 0)
    out["linalg.other.flops"] = other_f
    out["linalg.other.bytes"] = other_b

    out["hamiltonian.build_calls"] = probe.calls.get("build", 0)
    out["hamiltonian.build_s"] = probe.seconds.get("build", 0.0)
    out["poisson.solve_calls"] = probe.calls.get("poisson", 0)
    out["poisson.solve_s"] = probe.seconds.get("poisson", 0.0)

    runner_s = probe.seconds.get("runner", 0.0)
    workers = {sp.worker for sp in spans if sp.category == "task"}
    busy = {w: 0.0 for w in workers}
    for sp in spans:
        if sp.category == "stage" and sp.worker in busy:
            busy[sp.worker] += sp.seconds
    loads = list(busy.values())
    loads += [0.0] * max(probe.runner_workers - len(loads), 0)
    busy_s = sum(loads)
    mean = busy_s / len(loads) if loads else 0.0
    out["parallel.tasks"] = probe.tasks
    out["parallel.runner_s"] = runner_s
    out["parallel.busy_s"] = busy_s
    out["parallel.utilization"] = (
        busy_s / (probe.runner_workers * runner_s)
        if probe.runner_workers and runner_s > 0 else 0.0)
    out["parallel.imbalance"] = max(loads) / mean if mean > 0 else 0.0

    records, nbytes = store_scan(store_root)
    out["cache.hits"] = probe.cache_hits
    out["cache.misses"] = probe.cache_misses
    out["cache.probe_s"] = probe.seconds.get("cache_probe", 0.0)
    out["cache.records_written"] = records
    out["cache.bytes_written"] = nbytes

    out["core.spectrum_calls"] = probe.calls.get("spectrum", 0)
    out["core.spectrum_s"] = probe.seconds.get("spectrum", 0.0)
    out["core.self_s"] = _self_seconds(spans, probe.spectrum_spans)
    return out
