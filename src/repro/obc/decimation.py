"""Sancho-Rubio decimation: the standard NEGF surface-GF iteration [40].

This is the "standard iterative decimation technique" the paper's Eq. (6)
route replaces.  It doubles the effective lead length per iteration, so
machine precision is reached in ~ log2(decay length) steps.  We keep it as
(a) the baseline whose cost FEAST is compared against and (b) the
independent reference the mode-based self-energies are validated against.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import gemm, solve
from repro.linalg.batched import adjoint_batched, gemm_batched, solve_batched
from repro.utils.errors import ConvergenceError, ShapeError


def sancho_rubio(t00: np.ndarray, t01: np.ndarray, eta: float = 1e-8,
                 max_iter: int = 200, tol: float = 1e-12):
    """Surface Green's function of a semi-infinite nearest-neighbour lead.

    Parameters
    ----------
    t00, t01 : (n, n) arrays
        Onsite and coupling blocks of A = E S - H at the target energy:
        ``t00 = E S00 - H00``, ``t01 = E S01 - H01`` (coupling cell q ->
        q+1).
    eta : float
        Small positive imaginary part added to the energy (times the
        identity here, since E enters t00 linearly) selecting the retarded
        branch.

    Returns
    -------
    (g_left, g_right): surface GFs of the left lead (semi-infinite towards
    -x, surface cell adjacent to the device's first block) and of the
    right lead (towards +x).
    """
    n = t00.shape[0]
    ieta = 1j * eta * np.eye(n)

    # Decimation variables: alpha couples a cell to its right neighbour
    # (A_{j,j+1} = t01), beta to its left (A_{j,j-1} = t01^H).  The left
    # lead's surface is renormalized by material on its LEFT (beta g alpha)
    # and the right lead's surface by material on its RIGHT (alpha g beta).
    alpha = t01.astype(complex)
    beta = t01.conj().T.astype(complex)
    eps = t00.astype(complex) + ieta
    eps_sl = eps.copy()
    eps_sr = eps.copy()

    err = np.inf
    for _ in range(max_iter):
        ga = solve(eps, np.hstack([alpha, beta]), tag="sancho")
        g_alpha = ga[:, :n]   # eps^{-1} alpha
        g_beta = ga[:, n:]    # eps^{-1} beta
        # Schur-complement elimination of every other cell.  In the
        # A = E S - H formulation the updates carry explicit minus signs
        # (they are absorbed into the hopping definition in the original
        # H-language paper):
        a_gb = gemm(alpha, g_beta, tag="sancho")
        b_ga = gemm(beta, g_alpha, tag="sancho")
        eps_sl = eps_sl - b_ga
        eps_sr = eps_sr - a_gb
        eps = eps - a_gb - b_ga
        alpha = -gemm(alpha, g_alpha, tag="sancho")
        beta = -gemm(beta, g_beta, tag="sancho")
        err = max(np.abs(alpha).max(), np.abs(beta).max())
        if err < tol:
            g_left = np.linalg.inv(eps_sl)
            g_right = np.linalg.inv(eps_sr)
            return g_left, g_right
    raise ConvergenceError(
        f"Sancho-Rubio did not converge in {max_iter} iterations "
        f"(coupling residual {err:.2e}); increase eta or max_iter",
        iterations=max_iter, residual=float(err))


def sancho_rubio_batch(t00s: np.ndarray, t01s: np.ndarray,
                       eta: float = 1e-8, max_iter: int = 200,
                       tol: float = 1e-12):
    """Batched Sancho-Rubio: all energies' recursions as one (nE, n, n) stack.

    Runs the same Schur-complement doubling as :func:`sancho_rubio`, but
    with one stacked :func:`~repro.linalg.batched.solve_batched` and four
    stacked gemms per iteration for the *whole* energy batch.  Energies
    converge at different iteration counts: a per-energy convergence mask
    retires finished slices from the active stack, so no energy iterates
    past its own convergence point (flop counts are the exact sum of the
    per-energy runs) and each slice's iterate sequence — hence its surface
    GF — is bitwise identical to the per-energy function.

    Parameters
    ----------
    t00s, t01s : (nE, n, n) stacks
        Per-energy onsite and coupling blocks of A = E S - H (same
        convention as :func:`sancho_rubio`).

    Returns
    -------
    (g_left, g_right, iterations): ``(nE, n, n)`` surface-GF stacks and
    the per-energy iteration counts at convergence.
    """
    t00s = np.asarray(t00s)
    t01s = np.asarray(t01s)
    if t00s.ndim != 3 or t00s.shape[1] != t00s.shape[2]:
        raise ShapeError(f"t00s must be (nE, n, n), got {t00s.shape}")
    if t01s.shape != t00s.shape:
        raise ShapeError(
            f"t01s shape {t01s.shape} != t00s shape {t00s.shape}")
    ne, n = t00s.shape[0], t00s.shape[1]
    ieta = 1j * eta * np.eye(n)

    alpha = t01s.astype(complex)
    beta = adjoint_batched(alpha)
    eps = t00s.astype(complex) + ieta
    eps_sl = eps.copy()
    eps_sr = eps.copy()

    g_left = np.empty((ne, n, n), dtype=complex)
    g_right = np.empty((ne, n, n), dtype=complex)
    iterations = np.zeros(ne, dtype=int)
    act = np.arange(ne)     # original batch positions still iterating

    err = np.full(ne, np.inf)
    for it in range(1, max_iter + 1):
        ga = solve_batched(eps, np.concatenate([alpha, beta], axis=2),
                           tag="sancho")
        g_alpha = ga[:, :, :n]
        g_beta = ga[:, :, n:]
        a_gb = gemm_batched(alpha, g_beta, tag="sancho")
        b_ga = gemm_batched(beta, g_alpha, tag="sancho")
        eps_sl = eps_sl - b_ga
        eps_sr = eps_sr - a_gb
        eps = eps - a_gb - b_ga
        alpha = -gemm_batched(alpha, g_alpha, tag="sancho")
        beta = -gemm_batched(beta, g_beta, tag="sancho")
        err = np.maximum(
            np.abs(alpha).reshape(len(act), -1).max(axis=1),
            np.abs(beta).reshape(len(act), -1).max(axis=1))
        conv = err < tol
        if conv.any():
            for pos in np.flatnonzero(conv):
                i = act[pos]
                # same 2-D np.linalg.inv call (on bitwise-equal input) as
                # the per-energy function's convergence exit
                g_left[i] = np.linalg.inv(eps_sl[pos])
                g_right[i] = np.linalg.inv(eps_sr[pos])
                iterations[i] = it
            keep = ~conv
            act = act[keep]
            if act.size == 0:
                return g_left, g_right, iterations
            alpha = alpha[keep]
            beta = beta[keep]
            eps = eps[keep]
            eps_sl = eps_sl[keep]
            eps_sr = eps_sr[keep]
    raise ConvergenceError(
        f"Sancho-Rubio did not converge in {max_iter} iterations for "
        f"{act.size}/{ne} batch energies (worst coupling residual "
        f"{float(err.max()):.2e}); increase eta or max_iter",
        iterations=max_iter, residual=float(err.max()))


def sigma_from_surface_gf(g_left: np.ndarray, g_right: np.ndarray,
                          t01: np.ndarray):
    """Boundary self-energies from surface GFs.

    With A = E S - H and coupling block t01 = A_{q,q+1}:
    Sigma_L = t01^H g_left t01 enters the first device block,
    Sigma_R = t01 g_right t01^H the last one, in the convention of Eq. (5)
    where the solved matrix is (E S - H - Sigma^RB).
    """
    t10 = t01.conj().T
    sigma_l = t10 @ g_left @ t01
    sigma_r = t01 @ g_right @ t10
    return sigma_l, sigma_r
