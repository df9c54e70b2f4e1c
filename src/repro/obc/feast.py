"""Non-Hermitian FEAST on an annulus — the paper's OBC eigensolver.

Only modes with |lambda| in (1/R, R) matter physically (propagating and
slowly decaying; Fig. 5) — fast-decaying modes contribute negligibly to
the boundary self-energy.  FEAST builds a spectral projector onto exactly
that region by contour integration:

    Q_F = sum_p (z_p / N_p) (z_p B_F - A_F)^{-1} B_F Y_F        (Eq. 10)

with trapezoid points z_p on the outer circle |z| = R (counter-clockwise)
minus points on the inner circle |z| = 1/R (clockwise), followed by a
Rayleigh-Ritz reduction to an m x m problem (Eq. 7).  Every linear solve
goes through the analytic companion reduction
(:meth:`~repro.obc.polynomial.PolynomialEVP.resolvent_apply`), so its cost
is that of one unit-cell-sized factorization — the property that lets the
paper run the OBCs on a handful of CPU cores while the GPUs handle
SplitSolve.

Every driver feeds its filtered blocks to one per-energy decision loop
(:class:`_FeastRun`): convergence, refinement, dropping a stalled
spurious pair, subspace expansion and the warm-to-cold fallback are
written once.  Energy batching (:func:`feast_annulus_batch`) runs one
lead's FEAST over a whole energy batch in one of two modes:

* **lock-step** (default): all energies advance through the refinement
  loop together; the contour factorizations and resolvent applies go
  through the stacked kernels of :mod:`repro.linalg.batched`
  (:meth:`~repro.obc.polynomial.PolynomialEVPStack.factor_reduced` /
  ``resolvent_apply``), grouped per iteration by current subspace width
  (rank truncation makes widths diverge).  Each energy's iterate sequence
  is **bitwise identical** to a solo :func:`feast_annulus` call with the
  same arguments — the stacked LAPACK/BLAS routines factor and solve the
  identical matrices slice by slice.
* **warm-start**: energies run sequentially and E_{i+1} seeds its initial
  block with E_i's converged in-annulus Ritz subspace (random columns,
  drawn from the same seeded stream, pad a too-narrow guess).  On smooth
  energy grids this cuts refinement iterations; results differ from the
  cold path only by round-off of the different starting block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg import geig
from repro.linalg.batched import bucket_by_width
from repro.obc.modes import PROPAGATING_TOL
from repro.utils.errors import ConfigurationError, ConvergenceError
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive, check_positive_int


@dataclass
class FeastResult:
    """Eigenpairs found inside the annulus, plus solver diagnostics."""

    lambdas: np.ndarray      # (m,) eigenvalues inside the annulus
    vectors: np.ndarray      # (n, m) unit-cell eigenvectors (top block)
    residuals: np.ndarray    # (m,) relative polynomial residuals
    iterations: int
    num_solves: int          # number of reduced P(z) factorizations
    subspace_size: int
    #: converged in-annulus Ritz block (NBC, m) — the warm-start seed
    subspace: np.ndarray | None = None
    #: whether this solve was seeded from a neighbouring energy's subspace
    warm_started: bool = False
    #: rhs width of the resolvent applies, one entry per refinement
    #: iteration (accumulated across auto-expand attempts) — together with
    #: ``num_solves`` and ``rr_sizes`` this determines the exact ledger
    #: byte traffic via :func:`repro.perfmodel.bytemodel.feast_byte_model`
    solve_widths: tuple = ()
    #: reduced Rayleigh-Ritz problem size, one entry per iteration
    rr_sizes: tuple = ()

    @property
    def num_modes(self) -> int:
        return len(self.lambdas)


def _contour_points(r_outer: float, num_points: int, max_iter: int,
                    tol: float):
    """Validate the FEAST settings; return the annulus trapezoid nodes.

    Returns a list of (z_p, w_p) with w_p = +z_p/N on the outer circle and
    w_p = -z_p/N on the inner one (orientation: region kept between them).
    Every driver calls this first, so a nonsense setting (zero contour
    points, zero refinements, a non-positive tolerance) raises instead of
    quietly returning no modes.
    """
    if r_outer <= 1.0:
        raise ConfigurationError("r_outer must exceed 1")
    num_points = check_positive_int(num_points, "num_points")
    check_positive_int(max_iter, "max_iter")
    check_positive(tol, "tol")
    theta = 2.0 * np.pi * (np.arange(num_points) + 0.5) / num_points
    pts = []
    for z in r_outer * np.exp(1j * theta):
        pts.append((z, z / num_points))
    for z in (1.0 / r_outer) * np.exp(1j * theta):
        pts.append((z, -z / num_points))
    return pts


def feast_annulus(pevp, r_outer: float = 3.0, subspace: int | None = None,
                  num_points: int = 8, max_iter: int = 12,
                  tol: float = 1e-10, seed=None,
                  auto_expand: bool = True,
                  subspace_guess: np.ndarray | None = None) -> FeastResult:
    """Find all eigenpairs of the lead polynomial with 1/R < |lambda| < R.

    Parameters
    ----------
    pevp : PolynomialEVP
    r_outer : float
        Annulus outer radius R (inner radius is 1/R).  Larger R keeps more
        decaying modes: boundary self-energies get more accurate, solves
        get bigger.
    subspace : int
        FEAST subspace dimension m0 (must exceed the eigenvalue count in
        the annulus).  Default: unit-cell size + 8, auto-doubled if the
        annulus turns out fuller than that.
    num_points : int
        Trapezoid points per circle (an integer >= 1).
    max_iter : int
        Refinement iterations per attempt (an integer >= 1).
    tol : float
        Relative residual every in-annulus pair must reach (> 0).
    subspace_guess : (NBC, k) array, optional
        Warm-start block — typically the converged ``subspace`` of a
        neighbouring energy's :class:`FeastResult`.  Columns beyond the
        guess are drawn from the seeded stream; if the warm attempt stalls
        the solver falls back to fully random (still seeded) redraws, so
        results stay deterministic under a fixed ``seed``.
    """
    pts = _contour_points(r_outer, num_points, max_iter, tol)
    run = _FeastRun(pevp, len(pts), subspace_guess, r_outer=r_outer,
                    subspace=subspace, max_iter=max_iter, tol=tol,
                    seed=seed, auto_expand=auto_expand)
    # Reuse one factorization of P(z_p) per contour point across all FEAST
    # refinement iterations — A and B never change.
    factors = [(z, w, pevp.factor_reduced(z)) for (z, w) in pts]
    while True:
        # Contour filter: Q = sum_p w_p (z_p B - A)^{-1} B Y.
        q = np.zeros_like(run.y)
        for z, w, fac in factors:
            q += w * pevp.resolvent_apply(z, run.y, factor=fac)
        result = run.step(q)
        if result is not None:
            return result


def _orthonormal_basis(q: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """SVD-based orthonormal basis of range(q), truncated at rank_tol."""
    u, s, _ = np.linalg.svd(q, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :1]
    keep = s > rank_tol * s[0]
    return u[:, keep]


def _rr_step(pevp, a_lin, b_lin, q, r_outer):
    """One post-filter step: orthonormalize, Rayleigh-Ritz, select annulus.

    Returns ``(lam_in, us, res, ritz_in, ritz)``: in-annulus eigenvalues,
    unit-cell vectors and residuals, the in-annulus linearized Ritz block
    (the warm-start seed), and the full Ritz block (the next iterate).
    """
    # Orthonormalize with rank truncation: after the contour filter the
    # subspace collapses onto the (often much smaller) invariant
    # subspace of the annulus; directions annihilated by the filter are
    # pure round-off and must not reach the Rayleigh-Ritz step, where
    # they would produce spurious in-annulus Ritz values.
    qn = _orthonormal_basis(q)
    # Rayleigh-Ritz (Eq. 7): (Q^H A Q) u = lambda (Q^H B Q) u.
    ar = qn.conj().T @ (a_lin @ qn)
    br = qn.conj().T @ (b_lin @ qn)
    w_rr, v_rr = geig(ar, br, tag="feast-rr")
    ritz = qn @ v_rr

    finite = np.isfinite(w_rr)
    inside = finite & (np.abs(w_rr) < r_outer) \
        & (np.abs(w_rr) > 1.0 / r_outer)
    lam_in = w_rr[inside]
    ritz_in = ritz[:, inside]

    # Residuals on the physical unit-cell eigenvectors.
    lam_in, us = pevp.extract_unit_vectors(lam_in, ritz_in)
    res = np.array([pevp.residual(l, us[:, i])
                    for i, l in enumerate(lam_in)])
    return lam_in, us, res, ritz_in, ritz


class _FeastRun:
    """One energy's FEAST refinement: decides every iteration's next step.

    Both drivers filter the current block ``y`` with their own kernels —
    :func:`feast_annulus` with the per-point resolvent applies,
    :func:`_feast_lockstep` with the stacked ones — and hand the filtered
    block to :meth:`step`, which decides what comes next: converge,
    refine, drop a stalled spurious pair, expand the subspace on a stall
    or on saturation (redrawing the block), or give up.  A warm guess
    seeds only the first attempt; every redraw after it is cold.
    """

    def __init__(self, pevp, num_solves: int, guess, *, r_outer, subspace,
                 max_iter, tol, seed, auto_expand):
        self.nbc = nbc = pevp.size
        if guess is not None:
            guess = np.asarray(guess, dtype=complex)
            if guess.ndim != 2 or guess.shape[0] != nbc:
                raise ConfigurationError(
                    f"subspace_guess must be ({nbc}, k), got {guess.shape}")
        # m0: unit cell + 8 unless given, at least the guess's width
        m0 = subspace if subspace is not None else min(nbc, pevp.n + 8)
        if guess is not None:
            m0 = max(m0, guess.shape[1])
        self.m0 = max(2, min(m0, nbc))
        self.guess = guess
        self.pevp = pevp
        self.pencil = pevp.pencil()
        self.rng = make_rng(seed)
        self.r_outer = r_outer
        self.max_iter = max_iter
        self.tol = tol
        self.auto_expand = auto_expand
        self.num_solves = num_solves
        # Byte-model logs: one rhs width / RR size per refinement
        # iteration, accumulated across auto-expand attempts (the contour
        # factorizations are NOT redone on expand, so only the iteration
        # terms grow).
        self.width_log: list = []
        self.rr_log: list = []
        self._start()

    def _start(self) -> None:
        """Begin an attempt from a fresh block: the warm guess padded
        with seeded random columns if one is pending, else all random."""
        nbc, m0, guess = self.nbc, self.m0, self.guess
        self.guess = None   # a failed warm attempt falls back to cold draws
        self.warm = guess is not None and guess.shape[1] > 0
        k = min(guess.shape[1], m0) if self.warm else 0
        if k == m0:
            self.y = guess[:, :m0].copy()
        else:
            pad = self.rng.standard_normal((nbc, m0 - k)) \
                + 1j * self.rng.standard_normal((nbc, m0 - k))
            self.y = np.hstack([guess[:, :k], pad]) if k else pad
        self.it = 0
        self.prev = None

    def _expand(self) -> bool:
        """Double the subspace and restart; False if it cannot grow."""
        if not (self.auto_expand and self.m0 < self.nbc):
            return False
        self.m0 = min(self.nbc, 2 * self.m0)
        self._start()
        return True

    def _stalled(self, lam, res) -> np.ndarray | None:
        """Mask of spurious pairs to drop, or None.

        A Ritz pair that matches no eigenvalue can sit at a residual far
        above ``tol`` while every true pair has converged; refining then
        never ends and the run stalls.  Drop the unconverged pairs when
        every one of them is non-propagating, above ``1e3 * tol`` and
        fell by less than 10x since the previous iteration (compared with
        the nearest previous Ritz value), and all other pairs have
        converged.  :func:`~repro.obc.modes.classify_modes` discards such
        pairs by residual anyway.
        """
        unconverged = ~(res < self.tol)
        if self.prev is None or not unconverged.any():
            return None
        lam_prev, res_prev = self.prev
        if not len(lam_prev):
            return None
        nearest = np.abs(lam[:, None] - lam_prev[None, :]).argmin(axis=1)
        stalled = (res > 1e3 * self.tol) \
            & (res > 0.1 * res_prev[nearest]) \
            & (np.abs(np.abs(lam) - 1.0) > PROPAGATING_TOL)
        return stalled if np.array_equal(stalled, unconverged) else None

    def step(self, q) -> FeastResult | None:
        """Consume the filtered block of one iteration; return the result
        when finished, else None (``self.y`` is then the next block)."""
        self.it += 1
        self.width_log.append(int(q.shape[1]))
        a_lin, b_lin = self.pencil
        lam, us, res, ritz_in, ritz = _rr_step(self.pevp, a_lin, b_lin, q,
                                               self.r_outer)
        self.rr_log.append(int(ritz.shape[1]))
        drop = self._stalled(lam, res)
        self.prev = (lam, res)
        if drop is not None:
            # the warm-start block ritz_in keeps the dropped direction:
            # it only seeds a neighbour's first iterate
            lam, us, res = lam[~drop], us[:, ~drop], res[~drop]
        if len(lam) and not res.max() < self.tol:
            if self.it < self.max_iter:
                # Refine: next subspace = the full set of Ritz vectors.
                self.y = ritz
                return None
            if res.max() > 1e3 * self.tol:
                # A stall usually means the subspace is smaller than the
                # annulus eigenvalue count; grow it before giving up.
                if self._expand():
                    return None
                raise ConvergenceError(
                    f"FEAST stalled: max residual {res.max():.2e} after "
                    f"{self.max_iter} refinements",
                    iterations=self.max_iter, residual=float(res.max()))
        # FEAST convention: if the subspace is nearly saturated the count
        # is untrustworthy (modes may be missing) — expand and redo.
        if len(lam) >= self.m0 - 1 and self._expand():
            return None
        return FeastResult(lambdas=lam, vectors=us, residuals=res,
                           iterations=self.it, num_solves=self.num_solves,
                           subspace_size=self.m0, subspace=ritz_in,
                           warm_started=self.warm,
                           solve_widths=tuple(self.width_log),
                           rr_sizes=tuple(self.rr_log))


def _feast_lockstep(stack, r_outer, subspace, num_points, max_iter, tol,
                    seed, auto_expand):
    """Batched FEAST, all energies advancing together (bitwise == solo)."""
    pts = _contour_points(r_outer, num_points, max_iter, tol)
    runs = [_FeastRun(p, len(pts), None, r_outer=r_outer, subspace=subspace,
                      max_iter=max_iter, tol=tol, seed=seed,
                      auto_expand=auto_expand) for p in stack.pevps]
    # Stacked contour factorizations: one zgetrf_batched per point covers
    # the whole batch; the ledger record is the exact sum of the
    # per-energy counts.
    factors = [(z, w, stack.factor_reduced(z)) for (z, w) in pts]
    results: list = [None] * len(runs)

    while any(r is None for r in results):
        active = [i for i, r in enumerate(results) if r is None]
        # Rank truncation lets subspace widths diverge mid-run; bucket the
        # active energies by current width so every stacked resolvent
        # apply is rectangular (no padding).
        widths = [runs[i].y.shape[1] for i in active]
        for _width, positions in bucket_by_width(widths).items():
            idx = np.asarray([active[p] for p in positions], dtype=int)
            ys = np.stack([runs[i].y for i in idx])
            q = np.zeros_like(ys)
            for z, w, fac in factors:
                q += w * stack.resolvent_apply(
                    z, ys, factor=stack.take_factor(fac, idx), idx=idx)
            for slot, i in enumerate(idx):
                results[i] = runs[i].step(q[slot])
    return results


def feast_annulus_batch(stack, r_outer: float = 3.0,
                        subspace: int | None = None, num_points: int = 8,
                        max_iter: int = 12, tol: float = 1e-10, seed=None,
                        auto_expand: bool = True,
                        warm_start: bool = False,
                        subspace_guess: np.ndarray | None = None) -> list:
    """FEAST over a whole energy batch; one :class:`FeastResult` per energy.

    ``stack`` is a :class:`~repro.obc.polynomial.PolynomialEVPStack`.  The
    default lock-step mode stacks the contour factorizations and resolvent
    applies over the batch (one batched kernel call each) and is bitwise
    identical, energy by energy, to calling :func:`feast_annulus` with the
    same arguments; a batch of one runs :func:`feast_annulus` itself,
    which is faster than a stack of one.  ``warm_start=True`` instead
    sweeps the energies in order, seeding each from the previous
    converged subspace — fewer refinement iterations on smooth grids, at
    the price of sequential execution and tiny (round-off level)
    deviations from the cold path.

    ``subspace_guess`` (warm-start mode only) seeds the first energy of
    the sweep — typically a cached near-neighbour subspace published by
    the persistent result store; after that each energy chains from its
    predecessor.
    """
    kw = dict(r_outer=r_outer, subspace=subspace, num_points=num_points,
              max_iter=max_iter, tol=tol, seed=seed,
              auto_expand=auto_expand)
    if warm_start:
        results = []
        guess = subspace_guess
        for pevp in stack.pevps:
            res = feast_annulus(pevp, subspace_guess=guess, **kw)
            results.append(res)
            guess = res.subspace if res.num_modes else None
        return results
    if stack.batch_size == 1:
        return [feast_annulus(stack.pevps[0], **kw)]
    return _feast_lockstep(stack, **kw)
