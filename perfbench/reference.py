"""Independent reference computations for the benchmark's correctness checks.

Each function recomputes a quantity the program reports, by a method the
program does not use.  Nothing here imports ``feedopt``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import lsq_linear


def constrained_optimum(G, H, beta, y_ref, w, a, b, lower, upper) -> np.ndarray:
    """Minimiser of ``0.5 beta |G x + H w - y_ref|^2 + sum(a x^2 + b x)`` over
    the box ``[lower, upper]``, as a bounded least-squares problem (BVLS).

    With ``s = sqrt(2 a)`` the cost is ``0.5 |A x - r|^2`` plus a constant,
    for ``A = [sqrt(beta) G; diag(s)]`` and
    ``r = [sqrt(beta) (y_ref - H w); -b / s]``.
    """
    G = np.asarray(G, dtype=float)
    s = np.sqrt(2.0 * np.asarray(a, dtype=float))
    root_beta = math.sqrt(beta)
    A = np.vstack([root_beta * G, np.diag(s)])
    r = np.concatenate([root_beta * (np.asarray(y_ref) - np.asarray(H) @ np.asarray(w)), -np.asarray(b) / s])
    res = lsq_linear(A, r, bounds=(lower, upper), method="bvls", tol=1e-14)
    if res.status <= 0:
        raise RuntimeError(f"bounded least squares did not converge: {res.message}")
    return res.x


def contraction_rates(G, beta, a, alpha) -> np.ndarray:
    """``zeta_t = max(|1 - alpha mu_t|, |1 - alpha L_t|)`` for each row of ``a``,
    with ``mu_t, L_t`` the extreme eigenvalues of ``beta G^T G + 2 diag(a_t)``."""
    G = np.asarray(G, dtype=float)
    a = np.asarray(a, dtype=float)
    m = G.shape[1]
    hess = np.broadcast_to(beta * (G.T @ G), (a.shape[0], m, m)).copy()
    hess[:, np.arange(m), np.arange(m)] += 2.0 * a
    eig = np.linalg.eigvalsh(hess)
    return np.maximum(np.abs(1.0 - alpha * eig[:, 0]), np.abs(1.0 - alpha * eig[:, -1]))


def transient_products(d0: float, p: float, zeta) -> np.ndarray:
    """``d0 * prod_{i=1..t} rho_i`` for ``t = 0 .. T``, ``rho_i = 1 - p + p zeta_i``.

    ``zeta[0]`` is not used (updates start at step 1).  The product is
    accumulated as a sum of logarithms.
    """
    rho = 1.0 - p + p * np.asarray(zeta, dtype=float)[1:]
    return d0 * np.exp(np.concatenate(([0.0], np.cumsum(np.log(rho)))))


# The eta* search: points of the log-spaced grid, golden-section steps after
# it, and rows of t evaluated at once.
ETA_GRID = 512
ETA_REFINE = 100
ETA_CHUNK = 512


def _log_gain(k, t, p, zeta):
    """``log[(1 - p + p zeta^k)^(t/k) / sqrt(k)]`` without forming ``zeta^k``."""
    log_miss = math.log1p(-p) if p < 1.0 else -math.inf
    inner = np.logaddexp(log_miss, math.log(p) + k * np.log(zeta))
    return (t / k) * inner - 0.5 * np.log(k)


def log_eta_star(t, p: float, zeta):
    """Log of ``eta*(t) = sup_{real k >= 1} (1 - p + p zeta^k)^(t/k) / sqrt(k)``
    and the maximising ``k``, vectorised over ``t`` (``zeta`` may vary with ``t``).

    At ``p = 1`` the supremum is ``zeta^t`` at ``k = 1``.  Otherwise the
    summand behaves like ``(1 - p)^(t/k) / sqrt(k)`` for large ``k``, which
    peaks at ``k = 2 t ln(1 / (1 - p))`` and decreases after it.  A
    log-spaced grid from 1 to four times that point (at least 100) locates
    the maximum, and a golden-section search between the grid neighbours of
    the best point refines it.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    zeta = np.broadcast_to(np.asarray(zeta, dtype=float), t.shape)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if np.any(t < 1) or np.any((zeta <= 0) | (zeta >= 1)):
        raise ValueError("need t >= 1 and 0 < zeta < 1")
    if p == 1.0:
        return t * np.log(zeta), np.ones_like(t)
    log_val = np.empty_like(t)
    arg = np.empty_like(t)
    u = np.linspace(0.0, 1.0, ETA_GRID)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for lo_i in range(0, t.shape[0], ETA_CHUNK):
        tc = t[lo_i : lo_i + ETA_CHUNK, None]
        zc = zeta[lo_i : lo_i + ETA_CHUNK, None]
        k_hi = np.maximum(4.0 * 2.0 * tc * math.log(1.0 / (1.0 - p)), 100.0)
        grid = np.exp(u[None, :] * np.log(k_hi))
        vals = _log_gain(grid, tc, p, zc)
        best = np.argmax(vals, axis=1)
        rows = np.arange(grid.shape[0])
        a = grid[rows, np.maximum(best - 1, 0)][:, None]
        b = grid[rows, np.minimum(best + 1, ETA_GRID - 1)][:, None]
        for _ in range(ETA_REFINE):
            c = b - inv_phi * (b - a)
            d = a + inv_phi * (b - a)
            left = _log_gain(c, tc, p, zc) > _log_gain(d, tc, p, zc)
            b = np.where(left, d, b)
            a = np.where(left, a, c)
        k_ref = 0.5 * (a + b)
        v_ref = _log_gain(k_ref, tc, p, zc)[:, 0]
        v_grid = vals[rows, best]
        use_ref = v_ref > v_grid
        log_val[lo_i : lo_i + ETA_CHUNK] = np.where(use_ref, v_ref, v_grid)
        arg[lo_i : lo_i + ETA_CHUNK] = np.where(use_ref, k_ref[:, 0], grid[rows, best])
    return log_val, arg
