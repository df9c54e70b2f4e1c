"""The staged (k, E) transport pipeline.

One energy point of the paper's production flow (Fig. 6) is a fixed
sequence of phases; :class:`TransportPipeline` makes them explicit:

    PREPARE  — materialize k-invariant block data (DeviceCache warm-up)
    OBC      — open boundary conditions: lead modes + Sigma^RB (Eq. 6)
    ASSEMBLE — A(E) = E*S - H and the injection vectors Inj (Eq. 5)
    SOLVE    — (A - Sigma^RB) psi = Inj via a registered solver
    ANALYZE  — transmission/reflection observables from psi

One driver, :meth:`TransportPipeline.solve_batch`, runs the stages for
an energy batch; a single point is a batch of one.  Implementations for
OBC and SOLVE come from the :mod:`repro.pipeline.registry` registries;
``solver="auto"`` is resolved through the :mod:`repro.perfmodel.costmodel`
flop models (the OMEN-style SplitSolve-vs-RGF choice).  Every stage runs
under :func:`repro.pipeline.trace.batch_stage_scope` (ANALYZE under
:func:`~repro.pipeline.trace.stage_scope`), so each
:class:`~repro.negf.transmission.EnergyPointResult` carries a
:class:`~repro.pipeline.trace.TaskTrace` whose stage flop counts
reconcile exactly with the surrounding :mod:`repro.linalg.flops` ledger.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.backend import backend_scope, resolve_backend
from repro.linalg.batched import bucket_by_width
from repro.negf.transmission import EnergyPointResult, analyze_solution
from repro.observability.spans import current_tracer
from repro.pipeline.cache import DeviceCache, as_cache
from repro.pipeline.registry import (SOLVERS, resolve_batch_solver_name,
                                     resolve_solver_name)
from repro.pipeline.trace import TaskTrace, batch_stage_scope, stage_scope
from repro.utils.errors import ConfigurationError


class TransportPipeline:
    """Configured stage driver for (k, E) transport points.

    Parameters mirror the historical ``qtbm_energy_point`` signature;
    ``obc_method`` and ``solver`` name registry entries (``solver="auto"``
    defers the choice to the cost model, per point).
    """

    def __init__(self, obc_method: str = "feast",
                 solver: str = "splitsolve", num_partitions: int = 1,
                 parallel: bool = False, obc_kwargs: dict | None = None,
                 obc_warm_start: bool = False, backend=None):
        self.obc_method = obc_method
        self.solver = solver
        self.num_partitions = num_partitions
        self.parallel = parallel
        self.obc_kwargs = dict(obc_kwargs or {})
        #: kernel-backend selector (name, instance, ``"auto"``, or
        #: ``None`` for the ambient default) — resolved per solve via
        #: :func:`repro.linalg.backend.resolve_backend`, so ``"auto"``
        #: re-reads the current node's spec on every call and worker
        #: processes resolve against their own device scope
        self.backend = backend
        #: warm-start the batched OBC stage (FEAST seeded energy-to-energy;
        #: fewer refinement iterations, round-off-level deviations from the
        #: default lock-step mode, which is bitwise == per-energy)
        self.obc_warm_start = bool(obc_warm_start)

    def cache(self, device) -> DeviceCache:
        """A per-k cache for ``device`` (reuse it across energies)."""
        return as_cache(device)

    def solve_point(self, device, energy: float, *,
                    boundary=None, kpoint_index: int = -1,
                    energy_index: int = -1) -> EnergyPointResult:
        """Run one (k, E) point through all stages.

        A one-energy :meth:`solve_batch`.  ``device`` is a
        DeviceMatrices or a :class:`DeviceCache`; pass the same cache for
        every energy of a k-point to amortize the PREPARE work.
        ``boundary`` short-circuits the OBC stage with a precomputed
        :class:`~repro.obc.selfenergy.OpenBoundary` (e.g. when comparing
        solvers at one point).
        """
        return self.solve_batch(
            device, [energy], kpoint_index=kpoint_index,
            energy_indices=[energy_index],
            boundaries=None if boundary is None else [boundary])[0]

    def solve_batch(self, device, energies, *, kpoint_index: int = -1,
                    energy_indices=None, boundaries=None,
                    obc_subspace_guess=None) -> list:
        """Run one (k, E-batch) task: all stages for a whole energy vector.

        The OBC stage solves the whole batch at once (stacked FEAST
        contour factorizations / masked decimation stacks via
        :meth:`DeviceCache.boundary_batch`; bitwise identical to the
        per-energy path unless ``obc_warm_start``), ASSEMBLE builds the
        stacked ``A(E) = E*S - H`` in one pass, and SOLVE runs the
        batched RGF sweeps (:func:`repro.solvers.solve_rgf_batched`)
        once per rhs-width bucket — one Python/BLAS dispatch per block
        for the whole batch.  Energies are bucketed by injection width
        (:func:`repro.linalg.bucket_by_width`) so ragged mode counts
        never force padding.

        One :class:`~repro.pipeline.TaskTrace` is emitted *per energy*;
        batched stages carve their wall time and flops out of the batch
        totals (exact integer apportionment — ledger reconciliation
        holds, see :func:`~repro.pipeline.trace.batch_stage_scope`; the
        OBC stage weighs energies by solver iteration counts).  Explicit
        ``solver`` names run each bucket through the batched RGF kernels
        — the one batched solver implementation — while ``"auto"``
        prices each bucket through
        :func:`~repro.perfmodel.costmodel.choose_batch_solver` and may
        run it as per-energy SplitSolve instead.

        A one-energy batch runs the per-point kernels instead: the OBC
        method's batch of one runs them (no warm start without an
        ``obc_subspace_guess``), and SOLVE runs the named solver
        (``"auto"`` resolved by
        :func:`~repro.pipeline.registry.resolve_solver_name`); they are
        faster than a stacked batch of one.

        ``boundaries`` (one :class:`~repro.obc.selfenergy.OpenBoundary`
        per energy) replaces the OBC stage.  ``obc_subspace_guess``
        seeds the first energy of a warm-started FEAST sweep (e.g. a
        cached near-neighbour subspace from the persistent result
        store); ignored unless ``obc_warm_start``.

        Returns one :class:`EnergyPointResult` per energy, input order.
        """
        cache = as_cache(device)
        energies = [float(e) for e in energies]
        if not energies:
            raise ConfigurationError("solve_batch needs at least one energy")
        if energy_indices is None:
            energy_indices = list(range(len(energies)))
        if len(energy_indices) != len(energies):
            raise ConfigurationError(
                "energy_indices must match energies one-to-one")
        if boundaries is not None and len(boundaries) != len(energies):
            raise ConfigurationError(
                "boundaries must match energies one-to-one")
        if not self.obc_warm_start:
            obc_subspace_guess = None
        warm = self.obc_warm_start and (len(energies) > 1
                                        or obc_subspace_guess is not None)
        with backend_scope(resolve_backend(self.backend)) as bk:
            return self._solve_batch_stages(cache, energies, kpoint_index,
                                            energy_indices, bk, boundaries,
                                            warm, obc_subspace_guess)

    def _solve_batch_stages(self, cache, energies, kpoint_index,
                            energy_indices, bk, boundaries, warm,
                            obc_subspace_guess) -> list:
        ne = len(energies)
        traces = [TaskTrace(kpoint_index=kpoint_index,
                            energy_index=int(ie), energy=e)
                  for ie, e in zip(energy_indices, energies)]

        with batch_stage_scope(traces, "PREPARE") as sts:
            cache.warm()
            for st in sts:
                st.meta["batch_size"] = ne

        # OBC: one batched computation for the whole energy batch — stacked
        # contour factorizations (FEAST) or masked recursion stacks
        # (decimation); per-energy methods loop inside the same scope.
        # Per-energy stage traces are carved from the batch totals by
        # solver iteration counts (post-hoc weights; exact flop
        # apportionment).
        tracer = current_tracer()
        with batch_stage_scope(traces, "OBC") as sts:
            if boundaries is not None:
                obs = list(boundaries)
            else:
                obs = cache.boundary_batch(
                    energies, self.obc_method, warm_start=warm,
                    subspace_guess=obc_subspace_guess, **self.obc_kwargs)
            for ob, st in zip(obs, sts):
                if ob.modes is None:
                    raise ConfigurationError(
                        "QTBM needs lead modes; use a mode-based "
                        "obc_method")
                st.meta.update(method=ob.method or self.obc_method,
                               batch_size=ne, backend=bk.name,
                               precision=bk.capabilities.precision,
                               weight=float(ob.info.get("iterations", 1)))
                if boundaries is not None:
                    st.meta["reused"] = True
                    continue
                if ("predicted_bytes" in ob.info
                        and bk.capabilities.deterministic):
                    # byte models transcribe the reference kernels, so
                    # the drift verdict only applies when the backend
                    # records reference traffic
                    st.meta["predicted_bytes"] = int(
                        ob.info["predicted_bytes"])
                if tracer is not None:
                    tracer.metrics.histogram("obc_iterations").observe(
                        int(ob.info.get("iterations", 1)))
                if warm:
                    st.meta["warm_start"] = True

        injs, from_lefts, velss = [], [], []
        with batch_stage_scope(traces, "ASSEMBLE") as sts:
            a_batch = cache.a_matrix_batch(energies)
            for ob, st in zip(obs, sts):
                inj = ob.injection_matrix(cache.num_blocks,
                                          cache.block_sizes)
                injs.append(inj)
                from_lefts.append(np.array(
                    [m.from_left for m in ob.injected], dtype=bool))
                velss.append(np.array(
                    [abs(m.velocity) for m in ob.injected], dtype=float))
                st.meta["num_rhs"] = int(inj.shape[1])
                st.meta["batch_size"] = ne

        # SOLVE: one stacked RGF per rhs-width bucket (no padding), unless
        # "auto" prices the bucket onto per-energy SplitSolve (the
        # accelerator path of the paper's division of labour).  A
        # one-energy batch runs the named (or per-point "auto") solver.
        psis = [None] * ne
        buckets = bucket_by_width([inj.shape[1] for inj in injs])
        for width, pos in buckets.items():
            if width == 0:
                continue   # no propagating modes: nothing to solve
            if tracer is not None:
                tracer.metrics.histogram("rhs_bucket_width").observe(
                    int(width))
                tracer.metrics.histogram("rhs_bucket_size").observe(
                    len(pos))
            shape = dict(num_blocks=cache.num_blocks,
                         block_size=int(max(cache.block_sizes)),
                         num_partitions=self.num_partitions)
            if ne == 1:
                name = resolve_solver_name(self.solver, num_rhs=width,
                                           **shape)
            else:
                name = resolve_batch_solver_name(
                    self.solver, rhs_widths=[width] * len(pos), **shape)
            with batch_stage_scope([traces[j] for j in pos],
                                   "SOLVE") as sts:
                if name == "rgf_batched":
                    from repro.solvers import (assemble_t_batched,
                                               solve_rgf_batched)
                    t_batch = assemble_t_batched(
                        a_batch.take(pos),
                        np.stack([obs[j].sigma_l for j in pos]),
                        np.stack([obs[j].sigma_r for j in pos]))
                    x = solve_rgf_batched(
                        t_batch, np.stack([injs[j] for j in pos]))
                else:
                    solver_fn = SOLVERS.get(name)
                    x = []
                    for j, st in zip(pos, sts):
                        info: dict = {}
                        x.append(solver_fn(
                            a_batch.point(j), obs[j], injs[j],
                            num_partitions=self.num_partitions,
                            parallel=self.parallel, info=info))
                        st.meta.update(info)
                predicted = self._predicted_solve_bytes(cache, name,
                                                        width) \
                    if bk.capabilities.deterministic else None
                for st in sts:
                    st.meta.update(solver=name,
                                   bucket_size=len(pos), num_rhs=width,
                                   backend=bk.name,
                                   precision=bk.capabilities.precision)
                    if predicted is not None:
                        st.meta["predicted_bytes"] = int(predicted)
            for slot, j in enumerate(pos):
                psis[j] = x[slot]

        results = []
        for j, (tr, ob) in enumerate(zip(traces, obs)):
            if psis[j] is None:
                result = EnergyPointResult(
                    energy=energies[j], num_prop_left=0, num_prop_right=0,
                    transmission_lr=0.0, transmission_rl=0.0,
                    reflection_l=0.0, reflection_r=0.0,
                    mode_transmissions=np.zeros(0),
                    psi=np.zeros((cache.num_orbitals, 0), dtype=complex),
                    from_left=from_lefts[j], velocities=velss[j],
                    boundary=ob)
            else:
                with stage_scope(tr, "ANALYZE"):
                    result = analyze_solution(cache, ob, psis[j],
                                              from_lefts[j], velss[j])
            result.trace = tr
            results.append(result)
        return results

    @staticmethod
    def _predicted_solve_bytes(cache, solver_name: str, width: int):
        """Model-predicted kernel bytes of one energy's SOLVE stage.

        Exact for the batched RGF path (the byte model transcribes the
        kernel sequence, per-block sizes included); the SplitSolve model
        prices uniform blocks, so non-uniform devices carry a documented
        tolerance.  Returns ``None`` for solvers without a byte model.
        """
        try:
            from repro.perfmodel.bytemodel import (rgf_byte_model,
                                                   splitsolve_byte_model)
            if solver_name == "rgf_batched" or solver_name == "rgf":
                return rgf_byte_model(cache.num_blocks,
                                      cache.block_sizes, int(width))
            if solver_name == "splitsolve":
                return splitsolve_byte_model(
                    cache.num_blocks, int(max(cache.block_sizes)),
                    int(width))
        except Exception:
            return None
        return None
