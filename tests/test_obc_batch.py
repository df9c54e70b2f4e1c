"""Tests for the batched open-boundary stage.

Pins down the acceptance invariants of the OBC batching work: bitwise
parity between the batched (lock-step) paths and their per-energy
counterparts for every OBC method, warm-start determinism, per-energy
convergence masking in the batched decimation, exact flop-ledger parity,
the SplitSolve-vs-batched-RGF crossover of ``solver="auto"`` batch
routing, the adaptive ``energy_batch_size="auto"``, and the
zero-scratch injection-matrix assembly.
"""

import os

import numpy as np
import pytest

from repro.core.runner import compute_spectrum
from repro.experiments.fig6_phases import _test_lead
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.linalg.flops import current_ledger, ledger_scope
from repro.obc import (PolynomialEVP, PolynomialEVPStack, feast_annulus,
                       feast_annulus_batch, sancho_rubio,
                       sancho_rubio_batch)
from repro.obc.selfenergy import (compute_open_boundary,
                                  compute_open_boundary_batch)
from repro.perfmodel.costmodel import (DISPATCH_FLOPS_PER_CALL,
                                       _device_rate_ratio,
                                       choose_batch_solver,
                                       measure_dispatch_overhead,
                                       rgf_batched_flop_model,
                                       splitsolve_flop_model,
                                       suggest_energy_batch_size)
from repro.pipeline import TransportPipeline, resolve_batch_solver_name
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError, ConvergenceError

from tests.test_hamiltonian import single_s_basis

# bitwise batched-vs-per-energy parity must not be skewed by an
# ambient kernel-backend selection (see tests/conftest.py)
pytestmark = pytest.mark.usefixtures("reference_kernel_backend")

ENERGIES = [1.7, 1.9, 2.0, 2.1, 2.3]


def _lead():
    return _test_lead(5, seed=1)


def _bitwise_boundary(ob, ref):
    assert np.array_equal(ob.sigma_l, ref.sigma_l)
    assert np.array_equal(ob.sigma_r, ref.sigma_r)
    if ref.modes is None:
        assert ob.modes is None
        return
    assert np.array_equal(ob.modes.lambdas, ref.modes.lambdas)
    assert np.array_equal(ob.modes.vectors, ref.modes.vectors)
    assert len(ob.injected) == len(ref.injected)
    for mb, mr in zip(ob.injected, ref.injected):
        assert mb.lam == mr.lam
        assert np.array_equal(mb.vector, mr.vector)


class TestPolynomialStack:
    def test_eval_and_factor_match_per_energy(self):
        lead = _lead()
        pevps = [PolynomialEVP(lead.h_cells, lead.s_cells, e) for e in ENERGIES]
        stack = PolynomialEVPStack(pevps)
        assert stack.batch_size == len(ENERGIES)
        z = 0.3 + 0.4j
        pz = stack.eval(z)
        for j, p in enumerate(pevps):
            assert np.array_equal(pz[j], p.eval(z))
        fac = stack.factor_reduced(z)
        for j, p in enumerate(pevps):
            lu, piv = p.factor_reduced(z)
            slu, spiv = PolynomialEVPStack.slice_factor(fac, j)
            assert np.array_equal(slu, lu)
            assert np.array_equal(spiv, piv)

    def test_mixed_sizes_rejected(self):
        lead = _lead()
        other = _test_lead(4, seed=2)
        with pytest.raises(ConfigurationError):
            PolynomialEVPStack([PolynomialEVP(lead.h_cells, lead.s_cells, 2.0),
                                PolynomialEVP(other.h_cells, other.s_cells, 2.0)])


class TestFeastBatch:
    def test_lockstep_bitwise_matches_per_energy(self):
        lead = _lead()
        pevps = [PolynomialEVP(lead.h_cells, lead.s_cells, e) for e in ENERGIES]
        batch = feast_annulus_batch(PolynomialEVPStack(pevps), seed=11)
        for p, res in zip(pevps, batch):
            ref = feast_annulus(p, seed=11)
            assert np.array_equal(res.lambdas, ref.lambdas)
            assert np.array_equal(res.vectors, ref.vectors)
            assert res.iterations == ref.iterations
            assert res.num_solves == ref.num_solves
            assert not res.warm_started

    def test_warm_start_deterministic_and_flagged(self):
        lead = _lead()
        pevps = [PolynomialEVP(lead.h_cells, lead.s_cells, e) for e in ENERGIES]
        stack = PolynomialEVPStack(pevps)
        a = feast_annulus_batch(stack, seed=11, warm_start=True)
        b = feast_annulus_batch(stack, seed=11, warm_start=True)
        assert not a[0].warm_started       # nothing to seed the first from
        assert all(r.warm_started for r in a[1:])
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.lambdas, rb.lambdas)
            assert np.array_equal(ra.vectors, rb.vectors)
        # warm-start still finds the same physical spectrum
        for p, r in zip(pevps, a):
            ref = feast_annulus(p, seed=11)
            assert r.num_modes == ref.num_modes
            dist = np.abs(r.lambdas[:, None] - ref.lambdas[None, :])
            assert dist.min(axis=1).max() < 1e-7

    def test_result_carries_subspace(self):
        pevp = PolynomialEVP(_lead().h_cells, _lead().s_cells, 2.0)
        res = feast_annulus(pevp, seed=11)
        assert res.subspace is not None
        assert res.subspace.shape[0] == pevp.size


class TestDecimationBatch:
    def test_bitwise_matches_per_energy(self):
        lead = _lead()
        t00s = np.stack([(e * lead.s00 - lead.h00).astype(complex)
                         for e in ENERGIES])
        t01s = np.stack([(e * lead.s01 - lead.h01).astype(complex)
                         for e in ENERGIES])
        gl, gr, its = sancho_rubio_batch(t00s, t01s)
        for j, e in enumerate(ENERGIES):
            rl, rr = sancho_rubio(t00s[j], t01s[j])
            assert np.array_equal(gl[j], rl)
            assert np.array_equal(gr[j], rr)
            assert its[j] >= 1

    def test_convergence_mask_tracks_each_energy(self):
        # energies near/far from the band edge converge at different
        # rates; the mask must retire each energy at its own iteration
        # while keeping the survivors bitwise on the per-energy track.
        lead = _lead()
        energies = [0.05, 2.0]          # near band edge vs mid-band
        t00s = np.stack([(e * lead.s00 - lead.h00).astype(complex)
                         for e in energies])
        t01s = np.stack([(e * lead.s01 - lead.h01).astype(complex)
                         for e in energies])
        gl, gr, its = sancho_rubio_batch(t00s, t01s)
        assert its[0] != its[1]
        for j in range(len(energies)):
            assert np.array_equal(gl[j], sancho_rubio(t00s[j], t01s[j])[0])

    def test_exhaustion_raises(self):
        lead = _lead()
        t00s = np.stack([(2.0 * lead.s00 - lead.h00).astype(complex)])
        t01s = np.stack([(2.0 * lead.s01 - lead.h01).astype(complex)])
        with pytest.raises(ConvergenceError):
            sancho_rubio_batch(t00s, t01s, max_iter=2)


class TestBoundaryBatchParity:
    @pytest.mark.parametrize("method",
                             ["feast", "dense", "shift_invert",
                              "decimation"])
    def test_bitwise_matches_per_energy(self, method):
        lead = _lead()
        kw = {"seed": 11} if method == "feast" else {}
        obs = compute_open_boundary_batch(lead, ENERGIES, method=method,
                                          **kw)
        assert len(obs) == len(ENERGIES)
        for e, ob in zip(ENERGIES, obs):
            _bitwise_boundary(
                ob, compute_open_boundary(lead, e, method=method, **kw))

    def test_batch_of_one_matches(self):
        lead = _lead()
        obs = compute_open_boundary_batch(lead, [2.0], method="feast",
                                          seed=11)
        _bitwise_boundary(obs[0], compute_open_boundary(
            lead, 2.0, method="feast", seed=11))

    def test_info_diagnostics_populated(self):
        lead = _lead()
        obs = compute_open_boundary_batch(lead, ENERGIES, method="feast",
                                          seed=11)
        for ob in obs:
            assert ob.info["iterations"] >= 1
            assert ob.info["warm_started"] is False
        obs = compute_open_boundary_batch(lead, ENERGIES,
                                          method="decimation")
        for ob in obs:
            assert ob.info["iterations"] >= 1


class TestCacheBatchMemo:
    def test_lockstep_shares_per_energy_memo(self):
        pipe = TransportPipeline(obc_method="feast",
                                 obc_kwargs={"seed": 11})
        cache = pipe.cache(synthetic_device_from_lead(_lead(), 4))
        obs = cache.boundary_batch(ENERGIES, "feast", seed=11)
        for e, ob in zip(ENERGIES, obs):
            assert cache.boundary(e, "feast", seed=11) is ob

    def test_partial_memo_hit_recomputes_only_missing(self):
        pipe = TransportPipeline()
        cache = pipe.cache(synthetic_device_from_lead(_lead(), 4))
        pre = cache.boundary(ENERGIES[2], "feast", seed=11)
        obs = cache.boundary_batch(ENERGIES, "feast", seed=11)
        assert obs[2] is pre
        ref = compute_open_boundary_batch(_lead(), ENERGIES,
                                          method="feast", seed=11)
        for ob, rb in zip(obs, ref):
            _bitwise_boundary(ob, rb)

    def test_warm_start_memo_is_batch_keyed(self):
        pipe = TransportPipeline()
        cache = pipe.cache(synthetic_device_from_lead(_lead(), 4))
        warm = cache.boundary_batch(ENERGIES, "feast", warm_start=True,
                                    seed=11)
        again = cache.boundary_batch(ENERGIES, "feast", warm_start=True,
                                     seed=11)
        assert all(a is b for a, b in zip(warm, again))
        cold = cache.boundary_batch(ENERGIES, "feast", seed=11)
        assert not any(a is b for a, b in zip(warm, cold))


class TestPipelineBatchedObc:
    def _device(self):
        return synthetic_device_from_lead(_lead(), 6)

    @pytest.mark.parametrize("method", ["feast", "dense"])
    def test_transmission_and_ledger_match_per_point(self, method):
        kw = {"seed": 3} if method == "feast" else {}
        pipe = TransportPipeline(obc_method=method, solver="rgf",
                                 obc_kwargs=kw)
        dev = self._device()
        with ledger_scope() as led_b:
            batch = pipe.solve_batch(pipe.cache(dev), ENERGIES)
        with ledger_scope() as led_p:
            cache = pipe.cache(dev)
            pts = [pipe.solve_point(cache, e) for e in ENERGIES]
        for b, p in zip(batch, pts):
            assert b.transmission_lr == p.transmission_lr
            assert b.num_prop_left == p.num_prop_left
        assert led_b.total_flops == led_p.total_flops
        # trace flops reconcile exactly with the surrounding ledger
        assert sum(r.trace.total_flops for r in batch) == \
            led_b.total_flops

    def test_obc_stage_traces_carry_batch_meta(self):
        pipe = TransportPipeline(obc_method="feast", solver="rgf",
                                 obc_kwargs={"seed": 3})
        res = pipe.solve_batch(pipe.cache(self._device()), ENERGIES)
        for r in res:
            st = r.trace.stage("OBC")
            assert st.meta["method"] == "feast"
            assert st.meta["batch_size"] == len(ENERGIES)
            assert st.meta["weight"] >= 1.0

    def test_warm_start_pipeline_close_to_cold(self):
        cold = TransportPipeline(obc_method="feast", solver="rgf",
                                 obc_kwargs={"seed": 3})
        warm = TransportPipeline(obc_method="feast", solver="rgf",
                                 obc_kwargs={"seed": 3},
                                 obc_warm_start=True)
        dev = self._device()
        rc = cold.solve_batch(cold.cache(dev), ENERGIES)
        rw = warm.solve_batch(warm.cache(dev), ENERGIES)
        for c, w in zip(rc, rw):
            assert abs(c.transmission_lr - w.transmission_lr) < 1e-6
        assert rw[1].trace.stage("OBC").meta["warm_start"] is True


class TestBatchSolverRouting:
    def _gap_setup(self):
        nb, bs, m = 6, 5, 4
        ratio = _device_rate_ratio()
        ssf = splitsolve_flop_model(nb, bs, m)
        rgff = rgf_batched_flop_model(nb, bs, [m])
        gap = rgff - ssf / ratio
        assert gap > 0          # splitsolve wins without dispatch cost
        return nb, bs, m, gap

    def test_crossover_flips_with_batch_size(self):
        nb, bs, m, gap = self._gap_setup()
        d = 4.0 * gap
        assert choose_batch_solver(nb, bs, [m],
                                   dispatch_flops=d) == "splitsolve"
        assert choose_batch_solver(nb, bs, [m, m],
                                   dispatch_flops=d) == "rgf_batched"

    def test_degenerate_buckets_take_rgf(self):
        assert choose_batch_solver(6, 5, []) == "rgf_batched"
        assert choose_batch_solver(6, 5, [0, 0]) == "rgf_batched"
        assert choose_batch_solver(1, 5, [4]) == "rgf_batched"

    def test_explicit_names_resolve_to_batched_rgf(self):
        for name in ("rgf", "splitsolve"):
            assert resolve_batch_solver_name(
                name, num_blocks=6, block_size=5, rhs_widths=[4, 4]) \
                == "rgf_batched"
        with pytest.raises(ConfigurationError):
            resolve_batch_solver_name("no-such-solver", num_blocks=6,
                                      block_size=5, rhs_widths=[4])

    def test_auto_batch_matches_per_point_results(self):
        # "auto" may legitimately route a batch bucket differently from
        # the per-point choice (the whole point of the crossover), so
        # the comparison is numerical, not bitwise.
        pipe = TransportPipeline(obc_method="feast", solver="auto",
                                 obc_kwargs={"seed": 3})
        dev = synthetic_device_from_lead(_lead(), 6)
        batch = pipe.solve_batch(pipe.cache(dev), ENERGIES)
        cache = pipe.cache(dev)
        pts = [pipe.solve_point(cache, e) for e in ENERGIES]
        for b, p in zip(batch, pts):
            assert abs(b.transmission_lr - p.transmission_lr) < 1e-10
        assert batch[0].trace.stage("SOLVE").meta["solver"] in \
            ("splitsolve", "rgf_batched")


class TestAdaptiveBatchSize:
    def test_suggest_arithmetic(self):
        # dispatch/b <= target*per  =>  b = ceil(8e-5 / (0.05 * 1e-3)) = 2
        assert suggest_energy_batch_size(1e-3, 8e-5) == 2
        assert suggest_energy_batch_size(1.0, 1e-9) == 1
        assert suggest_energy_batch_size(1e-9, 1.0) == 64
        assert suggest_energy_batch_size(1e-9, 1.0, max_batch=7) == 7
        with pytest.raises(ConfigurationError):
            suggest_energy_batch_size(1e-3, 1e-4, target_overhead=0.0)

    def test_measure_dispatch_overhead_clean(self):
        with ledger_scope() as led:
            dt = measure_dispatch_overhead(repeats=4)
        assert dt > 0.0
        assert led.total_flops == 0     # probe never leaks flops
        assert DISPATCH_FLOPS_PER_CALL > 0

    def test_auto_spectrum_matches_explicit(self):
        st = linear_chain(6)
        basis = single_s_basis()
        energies = np.linspace(1.6, 2.4, 5)
        kw = dict(obc_method="feast", solver="rgf",
                  obc_kwargs={"seed": 5})
        ref = compute_spectrum(st, basis, 2, energies,
                               energy_batch_size=1, **kw)
        auto = compute_spectrum(st, basis, 2, energies,
                                energy_batch_size="auto", **kw)
        np.testing.assert_array_equal(ref.transmission, auto.transmission)
        np.testing.assert_array_equal(ref.mode_counts, auto.mode_counts)

    def test_auto_clamps_to_checkpoint_layout(self, tmp_path):
        st = linear_chain(6)
        basis = single_s_basis()
        energies = np.linspace(1.6, 2.4, 5)
        kw = dict(obc_method="feast", solver="rgf",
                  obc_kwargs={"seed": 5})
        ck = os.path.join(tmp_path, "ck")
        full = compute_spectrum(st, basis, 2, energies,
                                energy_batch_size=3, checkpoint=ck, **kw)
        resumed = compute_spectrum(st, basis, 2, energies,
                                   energy_batch_size="auto",
                                   checkpoint=ck, **kw)
        np.testing.assert_array_equal(full.transmission,
                                      resumed.transmission)
        assert resumed.traces == []     # everything restored, nothing run

    def test_rejects_bad_values(self):
        st = linear_chain(4)
        basis = single_s_basis()
        with pytest.raises(ConfigurationError):
            compute_spectrum(st, basis, 2, [2.0],
                             energy_batch_size="bogus")
        with pytest.raises(ConfigurationError):
            compute_spectrum(st, basis, 2, [2.0], energy_batch_size=0)


class TestInjectionMatrix:
    def _reference(self, ob, num_blocks, block_sizes, sides="both"):
        # the pre-optimization construction: one full-length zero column
        # per mode, assembled with column_stack
        offs = np.concatenate([[0], np.cumsum(block_sizes)])
        ntot = int(offs[-1])
        t10 = ob.t01.conj().T
        cols = []
        for m in ob.injected:
            col = np.zeros(ntot, dtype=complex)
            if m.from_left and sides in ("both", "left"):
                col[offs[0]:offs[1]] = \
                    -t10 @ ((1.0 / m.lam) * m.vector - ob.ml @ m.vector)
            elif (not m.from_left) and sides in ("both", "right"):
                col[offs[-2]:offs[-1]] = \
                    -ob.t01 @ (m.lam * m.vector - ob.mr @ m.vector)
            else:
                continue
            cols.append(col)
        if not cols:
            return np.zeros((ntot, 0), dtype=complex)
        return np.column_stack(cols)

    @pytest.mark.parametrize("sides", ["both", "left", "right"])
    def test_bitwise_matches_reference(self, sides):
        dev = synthetic_device_from_lead(_lead(), 4)
        ob = compute_open_boundary(dev.lead, 2.0, method="feast", seed=7)
        inj = ob.injection_matrix(dev.num_blocks, dev.block_sizes,
                                  sides=sides)
        ref = self._reference(ob, dev.num_blocks, dev.block_sizes, sides)
        assert inj.shape == ref.shape
        assert np.array_equal(inj, ref)
