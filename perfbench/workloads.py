"""Workload definitions and seeded input generators.

Every input the program receives is built here from the workload name,
the ``--seed`` and the operation index: the same triple always gives
the same structure, basis, energy grid and settings.  The program never
sees the seed itself, only the generated energies.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("wire-obc", "wire-solve", "sweep")

#: 1 nm Si nanowire; tight-binding basis -> 80-orbital blocks
WIRE_DIAMETER_NM = 1.0
FEAST_KWARGS = {"r_outer": 3.0, "num_points": 8, "seed": 0}
ENERGY_BATCH_SIZE = 8

#: (device cells, energies) of the two compute_spectrum workloads
WIRE_SHAPES = {"wire-obc": (4, 96), "wire-solve": (64, 32)}

#: run_production in the traced demo's smoke configuration
SWEEP_CELLS = 4
SWEEP_VDS = 0.05
#: one process worker: with two, default OpenBLAS threads oversubscribe
#: the two cores and a run took 11.9-25.1 s, too unsteady to gate on.
#: The two-worker time is kept as an ungated reference line instead.
SWEEP_WORKERS = 1
SWEEP_OVERSUBSCRIBED_WORKERS = 2
SWEEP_BATCH_SIZE = 2
#: serial-backend current of the sweep (A); every backend and worker
#: count reproduces it to the last digits
SWEEP_REFERENCE_CURRENT_A = 3.627332392838952e-06
SWEEP_CURRENT_RTOL = 1e-6

#: |T - N_modes| allowed at every energy of a pristine wire
TRANSMISSION_ATOL = 1e-6


def grid_shifts(seed: int, count: int) -> list:
    """Shift of each operation's grid, in units of the grid spacing.

    Seed 0 is the unshifted grid for every operation.  Otherwise
    operation ``i`` takes the ``i``-th draw of ``default_rng(seed)``,
    so operation 0 sees ``default_rng(seed).uniform()``.
    """
    if count < 1:
        return []
    if seed == 0:
        return [0.0] * count
    return [float(u) for u in
            np.random.default_rng(seed).uniform(size=count)]


def wire_energies(e_min: float, e_max: float, num_energies: int,
                  shift: float) -> np.ndarray:
    """``linspace(a, b, N)`` shifted by ``shift`` grid spacings, where
    ``a = e_min + 0.05`` and ``b = a + 0.3 (e_max - e_min)``."""
    a = e_min + 0.05
    b = a + 0.3 * (e_max - e_min)
    spacing = (b - a) / (num_energies - 1)
    return np.linspace(a, b, num_energies) + shift * spacing


def _wire_device(workload: str) -> tuple:
    from repro import api
    from repro.basis import tight_binding_set
    from repro.hamiltonian import build_device
    from repro.structure import silicon_nanowire

    num_cells, _ = WIRE_SHAPES[workload]
    wire = silicon_nanowire(diameter_nm=WIRE_DIAMETER_NM,
                            length_cells=num_cells)
    basis = tight_binding_set()
    device = build_device(wire, basis, num_cells=num_cells)
    return wire, basis, device, api.band_window(device, halo=0.0)


def build_wire(workload: str, seed: int, op: int) -> dict:
    """Structure, basis and energy grid of a ``wire-*`` operation."""
    wire, basis, device, (e_min, e_max) = _wire_device(workload)
    shift = grid_shifts(seed, op + 1)[op]
    return {"structure": wire, "basis": basis,
            "num_cells": WIRE_SHAPES[workload][0],
            "energies": wire_energies(e_min, e_max,
                                      WIRE_SHAPES[workload][1], shift)}


def reference_mode_counts(workload: str, seed: int, ops) -> list:
    """Dense-OBC propagating-mode counts on the grids of operations
    ``ops``: the reference the FEAST mode counts must equal."""
    from repro.obc.selfenergy import compute_open_boundary

    _, _, device, (e_min, e_max) = _wire_device(workload)
    shifts = grid_shifts(seed, max(ops) + 1)
    out = []
    for op in ops:
        grid = wire_energies(e_min, e_max, WIRE_SHAPES[workload][1],
                             shifts[op])
        out.append([int(compute_open_boundary(
            device.lead, float(e), method="dense").num_left_injected)
            for e in grid])
    return out


def build_sweep() -> dict:
    """Inputs of the ``sweep`` operation (fixed; the seed is unused)."""
    from repro.basis import tight_binding_set
    from repro.core.energygrid import lead_band_structure
    from repro.hamiltonian import build_device
    from repro.structure import silicon_nanowire

    wire = silicon_nanowire(diameter_nm=WIRE_DIAMETER_NM,
                            length_cells=SWEEP_CELLS)
    basis = tight_binding_set()
    lead = build_device(wire, basis, num_cells=SWEEP_CELLS).lead
    _, bands = lead_band_structure(lead, 11)
    e_lo = float(bands.min())
    return {"structure": wire, "basis": basis, "num_cells": SWEEP_CELLS,
            "mu_source": e_lo + 0.3,
            "e_window": (e_lo + 0.1, e_lo + 0.6)}


def build_inputs(workload: str, seed: int, op: int) -> dict:
    if workload == "sweep":
        return build_sweep()
    if workload in WIRE_SHAPES:
        return build_wire(workload, seed, op)
    raise ValueError(f"unknown workload {workload!r}")


def run_operation(workload: str, inputs: dict, store_dir=None,
                  sweep_workers: int = SWEEP_WORKERS):
    """The one measured call of an operation, through the public
    entry points.  ``store_dir`` is the sweep's fresh result store."""
    if workload == "sweep":
        from repro.core import production
        return production.run_production(
            inputs["structure"], inputs["basis"], inputs["num_cells"],
            bias_points=[SWEEP_VDS], mu_source=inputs["mu_source"],
            e_window=inputs["e_window"], num_k=1,
            scf_kwargs={"max_iter": 1},
            energy_batch_size=SWEEP_BATCH_SIZE, backend="process",
            num_workers=sweep_workers, result_store=store_dir)
    from repro.core import runner
    return runner.compute_spectrum(
        inputs["structure"], inputs["basis"], inputs["num_cells"],
        inputs["energies"], num_k=1, obc_method="feast",
        obc_kwargs=dict(FEAST_KWARGS), solver="splitsolve",
        energy_batch_size=ENERGY_BATCH_SIZE, backend="serial")
