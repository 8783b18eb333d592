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

Each GP factorises ``K + noise_var I = L L^T`` on its own, with its own
jitter; ``c = L^-T L^-1 z`` and the variance reduction ``|L^-1 k_q(x)|^2``
follow by substitution (Rasmussen & Williams 2006, Algorithm 2.1).  One
:class:`GPPosterior` holds a batch of independent scalar GPs, e.g. one per
run and coordinate, and substitutes for the whole batch at once, summing
over the sites elementwise in a fixed order (``algorithm._rowsum``), not
through BLAS products, so each GP's numbers are the same as when it is alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithm import _rowsum

__all__ = ["SquaredExponential", "GPPosterior"]


def _se(sigma_f2, ell, diff):
    return sigma_f2 * np.exp(-(diff * diff) / (2.0 * ell**2))


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
        # per-GP hyperparameters with a trailing site axis
        self._sf2, self._ell = (
            np.broadcast_to(np.asarray(h, dtype=float), self.batch_shape)[..., None]
            for h in (kernel.sigma_f2, kernel.ell)
        )
        # one factorisation per GP of the flattened batch; with no sites each GP
        # is its prior, and nothing is factorised
        n_gp, q = int(np.prod(self.batch_shape)), self.n_obs
        sites, factors = self.sites.reshape(n_gp, q), np.empty((n_gp, q, q))
        for i, (s, sf2, ell) in enumerate(zip(sites, self._sf2.flat, self._ell.flat) if q else ()):
            gram = _se(sf2, ell, s[:, None] - s[None, :])
            factors[i] = _robust_cholesky(gram, self.noise_var, sf2)
        self._factors = factors.reshape(self.batch_shape + (q, q))
        # c = L^-T (L^-1 z); L^T with both axes reversed is lower triangular
        flipped = np.swapaxes(self._factors, -1, -2)[..., ::-1, ::-1]
        self._coeffs = _forward(flipped, _forward(self._factors, self.values)[..., ::-1])[..., ::-1]

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
        """Queries and the per-GP arrays aligned as ``batch + query + own axes``."""
        xs = np.asarray(xs, dtype=float)
        n_batch = len(self.batch_shape)
        if xs.shape[:n_batch] != self.batch_shape:
            raise ValueError(
                f"queries must start with the batch shape {self.batch_shape}, got {xs.shape}"
            )
        lead = self.batch_shape + (1,) * (xs.ndim - n_batch)
        sites, coeffs, sf2, ell, factors = (
            a.reshape(lead + a.shape[n_batch:])
            for a in (self.sites, self._coeffs, self._sf2, self._ell, self._factors)
        )
        return sites - xs[..., None], coeffs, sf2, ell, factors

    def posterior_mean(self, xs):
        diff, coeffs, sf2, ell, _ = self._lift(xs)
        return _rowsum(_se(sf2, ell, diff) * coeffs)[()]

    def posterior_var(self, xs):
        diff, _, sf2, ell, factors = self._lift(xs)
        v = _forward(factors, _se(sf2, ell, diff))
        # clamp the numerical negatives
        return np.maximum(sf2[..., 0] - _rowsum(v * v), 0.0)[()]

    def mean_gradient(self, xs):
        """Exact derivative of each GP's posterior mean at its query point(s)."""
        diff, coeffs, sf2, ell, _ = self._lift(xs)
        return _rowsum(_se(sf2, ell, diff) * (diff / ell**2) * coeffs)[()]


def _forward(L, b):
    """``L^-1 b`` along the last axis of ``b`` for lower triangular ``L`` (leading axes
    broadcast); row ``i`` sums ``L_ij y_j`` in ascending ``j``, as ``_rowsum`` does."""
    y = np.empty(np.broadcast_shapes(L.shape[:-1], b.shape))
    sums = np.zeros(y.shape)
    for i in range(y.shape[-1]):
        y[..., i] = (b[..., i] - sums[..., i]) / L[..., i, i]
        sums[..., i + 1 :] += L[..., i + 1 :, i] * y[..., i, None]
    return y


def _robust_cholesky(gram: np.ndarray, noise_var: float, sigma_f2: float) -> np.ndarray:
    """Lower Cholesky factor of ``gram + noise_var I``, escalating a tiny jitter if needed."""
    eye = np.eye(gram.shape[0])
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(gram + (noise_var + jitter * sigma_f2) * eye)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "kernel matrix is numerically singular even with jitter; "
        "observation sites are likely duplicated with zero noise"
    )
