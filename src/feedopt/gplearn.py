"""Gaussian-process regression of unknown input costs, a batch of GPs at a time.

The separable part of the decision cost, ``U_t(x) = sum_m u_m(x_m)``, may be
unknown to the controller (user preferences, device wear).  Each coordinate
function ``u_m`` is learned from sparse noisy functional evaluations with a
scalar Gaussian process under the squared-exponential kernel

    k(x, x') = sigma_f2 * exp(-(x - x')^2 / (2 ell^2)).

Given sites ``x_1..x_q`` and observations ``z_i = u(x_i) + noise``, the
posterior mean and variance at a query ``x`` are

    mean(x) = k_q(x)^T (K + noise_var I)^{-1} z,
    var(x)  = k(x, x) - k_q(x)^T (K + noise_var I)^{-1} k_q(x),

and because the kernel is smooth the posterior mean has the closed-form
derivative

    mean'(x) = sum_i c_i * (x_i - x) / ell^2 * k(x_i, x),
    c = (K + noise_var I)^{-1} z,

which is what the online update consumes in place of the true gradient of
``u``.  No finite differencing is involved.

Each GP factorises ``K + noise_var I = L L^T`` on its own, escalating a
jitter until every pivot clears a floor; ``c = L^-T L^-1 z`` and the
variance reduction ``|L^-1 k_q(x)|^2`` follow by substitution (Rasmussen &
Williams 2006, Algorithm 2.1).  One :class:`GPPosterior` holds a batch of
independent scalar GPs, e.g. one per run and coordinate, and substitutes for
the whole batch at once.  It builds what a query reads once, when it is
fitted: the sites and coefficients with the site axis first, and the per-GP
``sigma_f2``, ``2 ell^2`` and ``ell^2``.  A query then sums over the sites
in index order with ``algorithm._slice_sum``, not through BLAS products, so
each GP's numbers are the same as when it is alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithm import _slice_sum

__all__ = ["SquaredExponential", "GPPosterior"]

# A factor is accepted only if every pivot exceeds this multiple of the signal
# standard deviation; a smaller one is rounding noise of a singular Gram matrix.
_PIVOT_FLOOR = 1e-7


def _se(sigma_f2, two_ell2, diff):
    return sigma_f2 * np.exp(-(diff * diff) / two_ell2)


@dataclass(frozen=True)
class SquaredExponential:
    """Stationary squared-exponential kernel on the real line; ``sigma_f2`` and
    ``ell`` may hold one value per GP of a :class:`GPPosterior` batch."""

    sigma_f2: float | np.ndarray
    ell: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.asarray(self.sigma_f2) > 0):
            raise ValueError(f"signal variance must be positive, got {self.sigma_f2}")
        if not np.all(np.asarray(self.ell) > 0):
            raise ValueError(f"length scale must be positive, got {self.ell}")


class GPPosterior:
    """Posteriors of a batch of independent scalar GPs.

    ``sites`` and ``values`` have shape ``batch + (q,)``; batch shape ``()``
    is a single GP.  With no observations (``q = 0``) each GP is its prior
    (zero mean, ``sigma_f2`` variance, zero mean-gradient).  Queries have
    the batch shape followed by any number of query axes, and results have
    the query's shape (a float for one GP at one point).
    ``add_observation`` returns a new posterior with one more site per GP;
    passing ``max_obs`` keeps only the most recent sites, which lets stale
    data age out when the underlying cost switches.
    """

    def __init__(self, kernel: SquaredExponential, noise_var: float, sites=(), values=()):
        if not noise_var >= 0:
            raise ValueError(f"observation noise variance must be nonnegative, got {noise_var}")
        self.kernel = kernel
        self.noise_var = float(noise_var)
        self.sites = np.asarray(sites, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.sites.ndim == 0 or self.sites.shape != self.values.shape:
            raise ValueError(
                "sites and values must have the same length and batch shape, "
                f"got {self.sites.shape} and {self.values.shape}"
            )
        self.batch_shape = self.sites.shape[:-1]
        sf2, ell = (
            np.broadcast_to(np.asarray(h, dtype=float), self.batch_shape)
            for h in (kernel.sigma_f2, kernel.ell)
        )
        # one factorisation per GP of the flattened batch; with no sites each GP
        # is its prior, and nothing is factorised
        n_gp, q = int(np.prod(self.batch_shape)), self.n_obs
        sites, factors = self.sites.reshape(n_gp, q), np.empty((n_gp, q, q))
        for i, (s, sf2_i, ell_i) in enumerate(zip(sites, sf2.flat, ell.flat) if q else ()):
            gram = _se(sf2_i, 2.0 * ell_i**2, s[:, None] - s[None, :])
            factors[i] = _robust_cholesky(gram, self.noise_var, sf2_i)
        self._factors = factors.reshape(self.batch_shape + (q, q))
        # c = L^-T (L^-1 z); L^T with both axes reversed is lower triangular
        flipped = np.swapaxes(self._factors, -1, -2)[..., ::-1, ::-1]
        coeffs = _forward(flipped, _forward(self._factors, self.values)[..., ::-1])[..., ::-1]
        # what every query reads, built once: sites and coefficients site axis
        # first (the axis _slice_sum adds over), and the per-GP sigma_f2, 2 ell^2, ell^2
        sites_coeffs = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (self.sites, coeffs))
        self._query = (*sites_coeffs, sf2, 2.0 * ell**2, ell**2)

    @property
    def n_obs(self) -> int:
        return self.sites.shape[-1]

    def add_observation(self, x, z, max_obs: int | None = None) -> "GPPosterior":
        """One more site ``x`` with value ``z`` for every GP (arrays of the batch shape)."""

        def append(old, new):
            new = np.broadcast_to(np.asarray(new, dtype=float), self.batch_shape)[..., None]
            both = np.concatenate([old, new], axis=-1)
            return both if max_obs is None else both[..., -max_obs:]

        sites, values = append(self.sites, x), append(self.values, z)
        return GPPosterior(self.kernel, self.noise_var, sites, values)

    def _lift(self, xs):
        """The queries and the per-GP query arrays aligned to them: sites and
        coefficients site axis first, then the batch axes and one per query axis."""
        xs = np.asarray(xs, dtype=float)
        n_batch = len(self.batch_shape)
        if xs.shape[:n_batch] != self.batch_shape:
            raise ValueError(
                f"queries must start with the batch shape {self.batch_shape}, got {xs.shape}"
            )
        if xs.ndim == n_batch:
            return xs, self._query
        tail = (1,) * (xs.ndim - n_batch)
        return xs, [a.reshape(a.shape + tail) for a in self._query]

    def posterior_mean(self, xs):
        xs, (sites, coeffs, sf2, two_ell2, _) = self._lift(xs)
        return _slice_sum(_se(sf2, two_ell2, sites - xs) * coeffs)[()]

    def posterior_var(self, xs):
        xs, (sites, _, sf2, two_ell2, _) = self._lift(xs)
        factors = self._factors.reshape(sf2.shape + self._factors.shape[-2:])
        v = _forward(factors, np.moveaxis(_se(sf2, two_ell2, sites - xs), 0, -1))
        # clamp the numerical negatives
        return np.maximum(sf2 - _slice_sum(np.moveaxis(v * v, -1, 0)), 0.0)[()]

    def mean_gradient(self, xs):
        """Exact derivative of each GP's posterior mean at its query point(s)."""
        xs, (sites, coeffs, sf2, two_ell2, ell2) = self._lift(xs)
        diff = sites - xs
        return _slice_sum(_se(sf2, two_ell2, diff) * (diff / ell2) * coeffs)[()]


def _forward(L, b):
    """``L^-1 b`` along the last axis of ``b`` for lower triangular ``L`` (leading axes
    broadcast); row ``i`` sums ``L_ij y_j`` in ascending ``j``."""
    y = np.empty(np.broadcast_shapes(L.shape[:-1], b.shape))
    sums = np.zeros(y.shape)
    for i in range(y.shape[-1]):
        y[..., i] = (b[..., i] - sums[..., i]) / L[..., i, i]
        sums[..., i + 1 :] += L[..., i + 1 :, i] * y[..., i, None]
    return y


def _robust_cholesky(gram: np.ndarray, noise_var: float, sigma_f2: float) -> np.ndarray:
    """Lower Cholesky factor of ``gram + noise_var I``, escalating a tiny jitter
    until every pivot exceeds ``_PIVOT_FLOOR * sqrt(sigma_f2)``."""
    eye, floor = np.eye(gram.shape[0]), _PIVOT_FLOOR * math.sqrt(sigma_f2)
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            factor = np.linalg.cholesky(gram + (noise_var + jitter * sigma_f2) * eye)
        except np.linalg.LinAlgError:
            continue
        if factor.diagonal().min() > floor:
            return factor
    raise np.linalg.LinAlgError(
        "kernel matrix is numerically singular even with jitter; "
        "observation sites are likely duplicated with zero noise"
    )
