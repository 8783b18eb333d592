"""Tracking-error envelopes for the intermittent inexact-gradient update.

With per-step curvature ``(mu_t, L_t)`` the noise-free gradient map
contracts at the rate ``zeta_t`` of
:meth:`feedopt.problem.TimeVaryingProblem.contraction_rates`, which is below
1 iff ``0 < alpha < 2/L_t``, and averaging over the Bernoulli availability
gives the effective rate

    rho_t = 1 - p + p*zeta_t.

Two envelopes are evaluated on top of these rates.

Expectation envelope (exact and its geometric relaxation): with
``phi_i = ||x*_i - x*_{i+1}||`` the optimum movement and
``E_i = E[||e_i||]`` the mean gradient-error norm,

    E[d_t] <= (prod_{i<=t} rho_i) E[d_0]
              + sum_{i<=t} (prod_{k=i..t} rho_k) phi_{i-1}
              + alpha p sum_{i<=t} (prod_{k=i+1..t} rho_k) E_i,

evaluated here by the equivalent forward recurrences
``P_t = rho_t (P_{t-1} + phi_{t-1})`` and
``R_t = rho_t R_{t-1} + alpha p E_t`` (transients in log space).

High-probability envelope: when the gradient-error norm carries the
sub-Weibull certificate ``(theta_e, nu_e_t)`` at step ``t``, then with
probability ``1 - delta``

    d_t <= log(2/delta)**theta_x (2e/theta_x)**theta_x
           * ( eta(t) d_0 + (1 - zeta^t)/(1 - zeta)
               * sup_i { alpha nu_e_i + phi_i / p } ),
    theta_x = max(1, theta_e),
    eta(t) = sup_{real k >= 1} (1 - p + zeta^k p)^{t/k} / sqrt(k),

with ``zeta`` the running supremum of the realized rates and ``theta_e``
the larger of the eps and xi exponents (``subweibull.vector_norm_class``).
The fractional moment ``(1 - p + zeta^k p)^{t/k}`` is exactly the k-th
moment norm of ``zeta^Omega_t`` for a Binomial(t, p) count of updates.
:func:`log_eta` evaluates ``ln eta(t)`` for a whole curve at once: the
maximiser over real ``k`` lies in the proven bracket
``[1, max(1, 2t ln(1/(1-p)))]``, where it is either ``k = 1`` or the one
interior local maximum, found by a monotone Newton iteration in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import write_csv
from .subweibull import SubWeibull, error_vectors, vector_norm_class

__all__ = [
    "BoundInputs",
    "BoundCurve",
    "expectation_bound",
    "expectation_bound_asymptotic",
    "hp_bound_trajectory",
    "log_eta",
    "binomial_moment",
    "expected_error_norm",
    "effective_tracking_error_class",
    "bound_inputs_from_problem",
]


@dataclass
class BoundInputs:
    """Everything the envelope evaluators need, already reduced to arrays.

    Arrays are indexed by time: ``zeta_t[t]`` and ``e_mean[t]`` for
    ``t = 0 .. T`` (index 0 is carried for alignment; updates start at 1),
    ``phi[i] = ||x*_i - x*_{i+1}||`` for ``i = 0 .. T-1``.  The error norm
    at step ``t`` has the certificate ``(theta_e, nu_e[t])`` and the mean
    ``e_mean[t]`` (typically inflated by Monte Carlo error when estimated).
    """

    alpha: float
    p: float
    zeta_t: np.ndarray
    phi: np.ndarray
    e_mean: np.ndarray
    nu_e: np.ndarray
    theta_e: float
    d0: float

    def __post_init__(self):
        for name in ("zeta_t", "phi", "e_mean", "nu_e"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if not self.alpha > 0:
            raise ValueError(f"step size must be positive, got {self.alpha}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"availability probability must lie in (0, 1], got {self.p}")
        n = self.zeta_t.shape[0]
        if n < 2:
            raise ValueError("envelopes need a horizon of at least one step")
        if self.phi.shape[0] != n - 1:
            raise ValueError("phi must have one entry fewer than zeta_t")
        if self.e_mean.shape[0] != n or self.nu_e.shape[0] != n:
            raise ValueError("e_mean and nu_e must align with zeta_t")
        if not np.all((self.zeta_t[1:] > 0) & (self.zeta_t[1:] < 1)):
            raise ValueError("contraction factors must lie in (0, 1); check alpha against 2/L")
        if np.any(self.phi < 0) or np.any(self.e_mean < 0) or np.any(self.nu_e < 0):
            raise ValueError("phi, e_mean and nu_e must be nonnegative")
        if not self.d0 >= 0:
            raise ValueError(f"initial distance must be nonnegative, got {self.d0}")
        if not self.theta_e > 0:
            raise ValueError(f"tail exponent must be positive, got {self.theta_e}")

    @property
    def horizon(self) -> int:
        return self.zeta_t.shape[0] - 1

    @property
    def rho(self) -> np.ndarray:
        """Effective per-step rates ``1 - p + p*zeta_t``."""
        return 1.0 - self.p + self.p * self.zeta_t


@dataclass
class BoundCurve:
    """An envelope over ``t = 0 .. T`` split into its three contributions."""

    t: np.ndarray
    value: np.ndarray
    transient: np.ndarray
    path_term: np.ndarray
    error_term: np.ndarray

    def to_csv(self, path) -> None:
        """Rows ``t, bound, transient_term, path_term, error_term`` with 15
        significant digits."""
        write_csv(
            path, ["t", "bound", "transient_term", "path_term", "error_term"],
            (self.t, self.value, self.transient, self.path_term, self.error_term),
        )


def expectation_bound(inputs: BoundInputs) -> BoundCurve:
    """Exact expectation envelope for ``E[d_t]`` over ``t = 0 .. inputs.horizon``.

    Row 0 is the anchor ``E[d_0]`` itself.  The transient is accumulated in
    log space; path and error contributions use the forward recurrences
    stated in the module docstring, which reproduce the product-weighted
    sums exactly.
    """
    T = inputs.horizon
    rho = inputs.rho
    transient = np.empty(T + 1)
    path = np.zeros(T + 1)
    error = np.zeros(T + 1)
    transient[0] = inputs.d0
    log_acc = 0.0
    for t in range(1, T + 1):
        log_acc += math.log(rho[t])
        transient[t] = inputs.d0 * math.exp(log_acc)
        path[t] = rho[t] * (path[t - 1] + inputs.phi[t - 1])
        error[t] = rho[t] * error[t - 1] + inputs.alpha * inputs.p * inputs.e_mean[t]
    value = transient + path + error
    return BoundCurve(
        t=np.arange(T + 1), value=value, transient=transient, path_term=path, error_term=error
    )


def expectation_bound_asymptotic(inputs: BoundInputs) -> BoundCurve:
    """Geometric relaxation of the expectation envelope.

    Uses the worst rate ``rho = max_t rho_t`` and running suprema of the
    drift and error sequences:

        rho^t E[d_0] + sup phi / (1 - rho) + alpha p sup E / (1 - rho).

    Dominates :func:`expectation_bound` everywhere and converges to the
    fixed-point level as ``t`` grows.
    """
    T = inputs.horizon
    rho_sup = float(inputs.rho[1:].max())
    # 1 - p + p zeta_t rounds to 1 for tiny p although every zeta_t < 1
    if not rho_sup < 1.0:
        raise ValueError(f"effective rate must be below 1, got {rho_sup}")
    gain = 1.0 / (1.0 - rho_sup)
    t = np.arange(T + 1)
    transient = inputs.d0 * rho_sup**t
    phi_run = np.maximum.accumulate(inputs.phi)
    # phi has entries 0..T-1; the running sup at time t uses indices <= min(t, T-1)
    path = gain * np.concatenate((phi_run, [phi_run[-1]]))
    err_run = np.maximum.accumulate(inputs.e_mean)
    error = inputs.alpha * inputs.p * gain * err_run
    return BoundCurve(
        t=t, value=transient + path + error, transient=transient, path_term=path, error_term=error
    )


# Newton steps toward the interior maximiser stop once below this share of k.
# The cap lies well past the ~50 steps that halving the distance per step
# (a double root) would need from K_t; random inputs take at most 12.
_NEWTON_RTOL = 1e-15
_NEWTON_CAP = 200


def log_eta(t, p: float, zeta):
    """Natural log of the transient gain
    ``eta(t) = sup_{real k >= 1} (1 - p + p zeta^k)^{t/k} / sqrt(k)``,
    elementwise over ``t`` and ``zeta`` (broadcast together).

    Write ``L(k) = ln(1 - p + p zeta^k)`` and
    ``h(k) = (t/k) L(k) - ln(k)/2``, so that ``log_eta = sup_k h(k)``.

    (a) Bracket.  ``h'(k) = (t r(k) - k/2) / k^2`` with ``r = k L' - L``,
        and ``r`` lies in ``[0, ln(1/(1-p)))``.  So ``h`` decreases for
        ``k >= K_t = 2 t ln(1/(1-p))`` and the maximiser lies in
        ``[1, max(1, K_t)]``.
    (b) Shape.  ``r' = k L''`` is ``k`` times a logistic density in ``k``,
        hence log-concave and unimodal, so ``g = t r - k/2`` (the sign of
        ``h'``) changes sign at most in the pattern -, +, -.  The supremum
        is the larger of ``h(1)`` and ``h`` at the one interior local
        maximum, the largest root ``z`` of ``g``.
    (c) Cell bound.  ``psi = L/k`` is nondecreasing (``L`` is convex with
        ``L(0) = 0``), so on any cell ``[a, b]``
        ``h <= t psi(b) - ln(a)/2``; a grid search can be certified with
        it (the method below needs no grid).
    (d) ``p = 1``.  The supremum is ``t ln(zeta)``, at ``k = 1``.

    Method.  ``z`` lies past the mode of ``r'``, where ``g`` is concave, and
    ``g`` decreases on ``[z, oo)``.  Newton's method on ``g`` started at
    ``K_t`` (where ``g < 0``) therefore decreases monotonically to ``z``
    without overshooting it; if it meets ``g' >= 0`` or falls below
    ``k = 1``, no interior maximum lies in ``(1, K_t)``.  Every iterate is
    a point ``k >= 1``, so ``h`` there is a lower value of the supremum,
    and the result is the largest of them and ``h(1)``.  ``L`` is taken
    from ``k ln(zeta)`` with ``expm1``/``log1p``/``logaddexp`` (see
    :func:`_log_base`), so nothing underflows at large ``t`` or small
    ``zeta``, and no ``(t, k)`` array is built.  Each element iterates on
    its own, so a vectorised call equals elementwise calls bit for bit.
    Raises ``RuntimeError`` if the search has not converged after
    ``_NEWTON_CAP`` steps.
    """
    t, zeta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(zeta, dtype=float))
    shape = t.shape
    t, zeta = t.ravel(), zeta.ravel()
    if not np.all(np.isfinite(t) & (t >= 1)):
        raise ValueError("eta is defined for finite t >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"availability probability must lie in (0, 1], got {p}")
    if not np.all((zeta > 0.0) & (zeta < 1.0)):
        raise ValueError("contraction factor must lie in (0, 1)")
    log_zeta = np.log(zeta)
    if p == 1.0:
        return (t * log_zeta).reshape(shape)[()]
    best = t * _log_base(1.0, log_zeta, p)
    log_p, log_q = math.log(p), math.log1p(-p)
    k = -2.0 * log_q * t  # K_t of (a)
    live = np.flatnonzero(k > 1.0)
    for _ in range(_NEWTON_CAP):
        if live.size == 0:
            break
        kk, tt, lz = k[live], t[live], log_zeta[live]
        base = _log_base(kk, lz, p)
        best[live] = np.maximum(best[live], tt * base / kk - 0.5 * np.log(kk))
        sigma = np.exp(log_p + kk * lz - base)  # p zeta^k / (1 - p + p zeta^k)
        g = tt * (kk * lz * sigma - base) - 0.5 * kk
        slope = tt * kk * lz * lz * sigma * np.exp(log_q - base) - 0.5
        step = g / slope
        k[live] = kk - step
        live = live[(slope < 0.0) & (step > _NEWTON_RTOL * kk) & (k[live] > 1.0)]
    if live.size:
        raise RuntimeError(f"eta search did not converge in {_NEWTON_CAP} steps (p={p})")
    return best.reshape(shape)[()]


def _log_base(k, log_zeta, p: float):
    """``ln(1 - p + p zeta^k)`` for ``p < 1``, accurate to a few ulps:
    ``log1p(p expm1(k ln zeta))`` while the base is at least 1/2, else the
    ``logaddexp`` of ``ln(1 - p)`` and ``ln p + k ln zeta``."""
    x = p * np.expm1(k * log_zeta)
    near_one = np.log1p(np.maximum(x, -0.5))
    far = np.logaddexp(math.log1p(-p), math.log(p) + k * log_zeta)
    return np.where(x >= -0.5, near_one, far)


def binomial_moment(zeta_val: float, p: float, t: int, k: float) -> float:
    """Moment norm ``||zeta^Omega||_k = (1 - p + p zeta^k)^{t/k}`` for
    ``Omega ~ Binomial(t, p)`` (independence across steps makes this exact)."""
    if not 0.0 <= zeta_val <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta_val}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"availability probability must lie in (0, 1], got {p}")
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    if not k >= 1:
        raise ValueError(f"moment order must satisfy k >= 1, got {k}")
    return float((1.0 - p + p * zeta_val**k) ** (t / k))


def hp_bound_trajectory(inputs: BoundInputs, delta: float) -> BoundCurve:
    """High-probability envelope at level ``1 - delta``.

    ``value[t]`` uses the joint supremum ``sup_i {alpha nu_e_i + phi_i/p}``
    from the statement; the reported ``path_term`` and ``error_term`` relax
    that supremum into its two individual pieces, so their sum can exceed
    ``value - transient``.  The drift sequence is padded with a trailing
    zero so the final error scale still enters the supremum at ``t = T``.
    ``eta(t)`` is the supremum over real ``k >= 1`` (:func:`log_eta`), with
    ``zeta`` the running supremum of the rates up to ``t``.  The prefactor is
    the level :meth:`SubWeibull.hp_bound` of the unit certificate ``(theta_x, 1)``.
    """
    pref = SubWeibull(max(1.0, inputs.theta_e), 1.0).hp_bound(delta)
    T = inputs.horizon

    phi_pad = np.concatenate((inputs.phi, [0.0]))
    joint = inputs.alpha * inputs.nu_e + phi_pad / inputs.p
    joint_run = np.maximum.accumulate(joint)
    nu_run = np.maximum.accumulate(inputs.alpha * inputs.nu_e)
    phi_run = np.maximum.accumulate(phi_pad / inputs.p)
    zeta_run = np.maximum.accumulate(inputs.zeta_t[1:])

    t = np.arange(1, T + 1)
    # eta(0) = 1 and geo(0) = 0: no updates have happened yet
    transient = inputs.d0 * np.exp(np.concatenate(([0.0], log_eta(t, inputs.p, zeta_run))))
    geo = np.concatenate(([0.0], (1.0 - zeta_run**t) / (1.0 - zeta_run)))
    value = pref * (transient + geo * joint_run)
    return BoundCurve(
        t=np.arange(T + 1), value=value, transient=pref * transient,
        path_term=pref * geo * phi_run, error_term=pref * geo * nu_run,
    )


def expected_error_norm(
    eps_sampler, xi_sampler, dim: int, n_samples: int, rng,
    noise_sampler=None, noise_map=None,
):
    """Monte Carlo estimate of ``E[||e||]`` with its standard error.

    ``e`` stacks ``dim`` eps draws plus ``dim`` xi draws; when a measurement
    noise sampler and its linear map into the gradient are given, the mapped
    noise is added as well.  Returns ``(mean, std_error)``; degenerate
    all-zero samplers give exactly ``(0.0, 0.0)``.
    """
    if n_samples < 10**4:
        raise ValueError(f"need at least 1e4 samples for a stable estimate, got {n_samples}")
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    e = error_vectors(eps_sampler, xi_sampler, dim, n_samples, rng)
    if noise_sampler is not None and noise_sampler.scale > 0:
        noise_map = np.asarray(noise_map, dtype=float)
        n_out = noise_map.shape[1]
        draws = noise_sampler.sample(rng, n_samples * n_out).reshape(n_samples, n_out)
        e += draws @ noise_map.T
    norms = np.linalg.norm(e, axis=1)
    return float(norms.mean()), float(norms.std(ddof=1) / math.sqrt(n_samples))


def effective_tracking_error_class(
    xi_class: SubWeibull, noise_class: SubWeibull | None = None, noise_map=None
) -> SubWeibull:
    """Per-entry certificate of the tracking-gradient error including
    measurement noise.

    Row ``m`` of ``noise_map`` (the matrix multiplying the raw measurement
    noise into the gradient, e.g. ``beta G^T``) mixes the noise channels as
    ``sum_j map[m, j] n_j``; the addition rule gives each entry the
    certificate ``xi + noise.scale(max_m sum_j |map[m, j]|)``.
    """
    if noise_class is None or noise_class.nu == 0:
        return xi_class
    noise_map = np.asarray(noise_map, dtype=float)
    worst_row = float(np.abs(noise_map).sum(axis=1).max())
    return xi_class.add(noise_class.scale(worst_row))


def bound_inputs_from_problem(prob, cfg, n_steps=None, seed=0) -> BoundInputs:
    """Assemble :class:`BoundInputs` for an algorithm config on a problem.

    The rates (which check the step count and ``alpha < 2/L``), optimum path
    and ``d0`` (from the step-0 box midpoint, where runs start by default)
    come from the problem's exact oracles.  The samplers are stationary, so
    ``E[||e||]`` is estimated once from 10^5 Monte Carlo draws and inflated
    by three standard errors to keep the expectation envelope an upper
    bound; the certificate ``(theta_e, nu_e)`` comes from the error-norm
    composition rule with measurement noise folded into the tracking-error
    entries through ``beta G^T``.
    """
    n_steps = prob.n_steps if n_steps is None else int(n_steps)
    zeta_t = prob.contraction_rates(cfg.alpha, n_steps)
    d0 = float(np.linalg.norm(prob.boxes.midpoints[0] - prob.optimal_points()[0]))

    noise_map = prob.costs.beta * prob.plant.G.T
    m = prob.n_inputs
    e_hat, e_se = expected_error_norm(
        cfg.eps_sampler, cfg.xi_sampler, m, 10**5, np.random.default_rng(seed),
        cfg.meas_noise, noise_map,
    )
    xi_eff = effective_tracking_error_class(
        cfg.xi_sampler.declared, cfg.meas_noise.declared, noise_map
    )
    norm_class = vector_norm_class(m, cfg.eps_sampler.declared, xi_eff)
    return BoundInputs(
        alpha=cfg.alpha,
        p=cfg.p,
        zeta_t=zeta_t,
        phi=prob.path_lengths()[:n_steps],
        e_mean=np.full(n_steps + 1, e_hat + 3.0 * e_se),
        nu_e=np.full(n_steps + 1, norm_class.nu),
        theta_e=norm_class.theta,
        d0=d0,
    )
