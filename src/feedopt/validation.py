"""Monte Carlo validation of the envelopes and noise certificates.

Every check here compares a mathematically claimed dominance against a
simulated ensemble and records an effect size, so a report shows not just
pass/fail but how tight each claim is:

* expectation envelope vs. ensemble mean trajectories (three-standard-error
  inflated means must stay below the curve),
* high-probability envelope vs. ensemble exceedance frequencies (a 99%
  binomial allowance keeps the check honest at finite sample sizes),
* the fractional-moment identity for the Bernoulli update count,
* declared sampler certificates vs. empirical moments and tails,
* the certificate algebra (scale/shift/add/mul and the error-norm
  composition) vs. moments of actually composed samples.

Reports are deterministic in ``(seed, parameters)`` and independent of the
worker count used to produce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np
from scipy.special import bdtr, gammaln

from . import algorithm, bounds, problem, subweibull
from ._table import write_csv

__all__ = [
    "ValidationCheck",
    "ValidationReport",
    "check_settings",
    "run_trials",
    "validate_expectation_bound",
    "validate_hp_bound",
    "validate_moment_identity",
    "validate_sampler_declarations",
    "validate_closure_ops",
    "synthetic_instance",
]


@dataclass
class ValidationCheck:
    """One verified claim: ``statistic`` must respect ``bound`` and
    ``ratio`` records the effect size (how much slack the claim has)."""

    name: str
    passed: bool
    statistic: float
    bound: float
    n_samples: int
    std_error: float
    ratio: float


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, other: "ValidationReport") -> "ValidationReport":
        self.checks.extend(other.checks)
        return self

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{tag}  {c.name}: statistic={c.statistic:.6g} vs bound={c.bound:.6g} "
                f"(slack ratio {c.ratio:.3g}, n={c.n_samples})"
            )
        verdict = "all checks passed" if self.passed else "SOME CHECKS FAILED"
        lines.append(f"{len(self.checks)} checks, {verdict}")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """One row per check, the columns named after its fields."""
        names = [f.name for f in fields(ValidationCheck)]
        write_csv(path, names, [[getattr(c, name) for c in self.checks] for name in names])


def _binom_quantile(n: int, delta: float) -> int:
    """The 99% quantile of ``Binomial(n, delta)``: the smallest ``k`` with
    ``P[X <= k] >= 0.99``, found by bisection on ``[0, n]``."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if bdtr(mid, n, delta) >= 0.99:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# argument checks: each check below calls its own, and check_settings all of
# them, so validate-bounds rejects a bad value before any work


def _check_expectation(n_trials):
    if n_trials < 100:
        raise ValueError(f"expectation check needs at least 100 trials, got {n_trials}")


def _check_hp(n_trials, check_times, n_steps):
    """The check times as integers, once they and the trial count are valid."""
    if n_trials < 1000:
        raise ValueError(f"high-probability check needs at least 1000 trials, got {n_trials}")
    check_times = [int(t) for t in check_times]
    if any(t < 1 or t > n_steps for t in check_times):
        raise ValueError(f"check times must lie in [1, {n_steps}], got {check_times}")
    return check_times


def _check_samples(n_samples, check):
    if n_samples < 10**5:
        raise ValueError(f"{check} check needs at least 1e5 samples, got {n_samples}")


def _check_moment(zeta_grid, n_samples):
    _check_samples(n_samples, "moment-identity")
    for zeta_val in zeta_grid:
        if not 0.0 < zeta_val < 1.0:
            raise ValueError(f"contraction factors must lie in (0, 1), got {zeta_val}")


def check_settings(val, n_steps) -> None:
    """Raise ``ValueError`` for a trial or sample count, check time or moment
    contraction factor of the ``[validation]`` settings ``val``
    (:class:`feedopt.config.ValidationSettings`) that a check would reject,
    the envelope ensembles running ``n_steps`` steps."""
    _check_expectation(val.n_trials_mean)
    _check_hp(val.n_trials_hp, val.check_times, n_steps)
    _check_moment(val.moment_zetas, val.moment_samples)
    _check_samples(val.sampler_samples, "sampler")  # the closure check's count too


# ---------------------------------------------------------------------------
# ensemble simulation


def run_trials(prob, cfg, n_steps, n_trials, seed, n_jobs=1) -> np.ndarray:
    """Distances ``d_t`` for ``n_trials`` independent runs, ``(n_trials, n_steps+1)``,
    each started at the step-0 box midpoint.

    Trial ``i`` always draws from the child stream ``(seed, i)``, so the
    result is identical for any ``n_jobs``.
    """
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    prob.optimal_points()  # fill the cache once, before any worker pickling
    rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(n_trials)
    ]
    simulate = partial(algorithm.simulate, prob, cfg, None, n_steps=n_steps)
    return np.stack([traj.d for traj in algorithm.fan_out(simulate, rngs, n_jobs)])


# ---------------------------------------------------------------------------
# envelope checks


def validate_expectation_bound(prob, cfg, inputs, n_trials, seed, n_jobs=1):
    """Ensemble mean (plus three standard errors) vs. the expectation envelope
    of ``inputs`` (:class:`bounds.BoundInputs` for ``cfg`` on ``prob``), over
    steps ``1 .. inputs.horizon``; the row reports the step of least slack."""
    _check_expectation(n_trials)
    n_steps = inputs.horizon
    d = run_trials(prob, cfg, n_steps, n_trials, seed, n_jobs=n_jobs)
    curve = bounds.expectation_bound(inputs)
    mean = d.mean(axis=0)
    se = d.std(axis=0, ddof=1) / math.sqrt(n_trials)
    rel = (mean + 3.0 * se) / curve.value
    # the worst step t >= 1; at t = 0 every trial sits at the anchor d0 itself
    worst = 1 + int(np.argmax(rel[1:]))
    with np.errstate(divide="ignore"):
        loose = np.where(mean[1:] > 0, curve.value[1:] / mean[1:], np.inf)
    check = ValidationCheck(
        name=f"expectation-envelope p={cfg.p} T={n_steps}",
        passed=bool(rel[worst] <= 1.0 + 1e-9),
        statistic=float(mean[worst] + 3.0 * se[worst]),
        bound=float(curve.value[worst]),
        n_samples=n_trials,
        std_error=float(se[worst]),
        ratio=float(np.median(loose)),
    )
    return ValidationReport([check])


def validate_hp_bound(prob, cfg, inputs, n_trials, deltas, check_times, seed, n_jobs=1):
    """Exceedance frequency of the high-probability envelope at chosen steps.

    ``inputs`` are the :class:`bounds.BoundInputs` for ``cfg`` on ``prob``;
    the envelope reads their certificate ``(theta_e, nu_e)``, never the
    estimate ``e_mean``.  For each level ``delta`` the frequency of ``d_t > bound_t``
    may not exceed the 99% binomial quantile of ``Binomial(n_trials, delta)``.
    """
    n_steps = inputs.horizon
    check_times = _check_hp(n_trials, check_times, n_steps)
    d = run_trials(prob, cfg, n_steps, n_trials, seed, n_jobs=n_jobs)
    report = ValidationReport()
    for delta in deltas:
        curve = bounds.hp_bound_trajectory(inputs, delta)
        allowance = _binom_quantile(n_trials, delta) / n_trials
        for t in check_times:
            freq = float(np.mean(d[:, t] > curve.value[t]))
            quantile = float(np.quantile(d[:, t], 1.0 - delta))
            report.checks.append(
                ValidationCheck(
                    name=f"hp-envelope delta={delta} t={t} p={cfg.p}",
                    passed=freq <= allowance,
                    statistic=freq,
                    bound=allowance,
                    n_samples=n_trials,
                    std_error=math.sqrt(delta * (1.0 - delta) / n_trials),
                    ratio=float(curve.value[t] / quantile) if quantile > 0 else math.inf,
                )
            )
    return report


def _tilted_moment_estimate(zeta, p, t, k, n_samples, rng):
    """Unbiased Monte Carlo estimate of ``||zeta^Omega||_k``, ``Omega ~ Bin(t, p)``.

    For small ``zeta`` and large ``t`` the expectation is carried by update
    counts far below the binomial mean, where plain sampling essentially
    never lands (a 20-sigma event on the worst grid cells).  Samples are
    drawn instead from a binomial matched to the mode of the summand
    ``C(t,n) p^n (1-p)^(t-n) zeta^(kn)`` (located numerically) and
    reweighted by the density ratio, which keeps the estimator unbiased
    with bounded relative variance on every cell.  Returns ``(estimate,
    std error of the k-th raw moment)``.
    """
    if p >= 1.0:
        # every step updates, Omega = t deterministically
        return zeta ** float(t), 0.0
    ns = np.arange(t + 1)
    log_summand = (
        gammaln(t + 1) - gammaln(ns + 1) - gammaln(t - ns + 1)
        + ns * (math.log(p) + k * math.log(zeta))
        + (t - ns) * math.log1p(-p)
    )
    peak = int(np.argmax(log_summand))
    q = min(max(peak, 1), t - 1) / t if t >= 2 else 0.5
    draws = rng.binomial(t, q, n_samples)
    log_weight = draws * (math.log(p) - math.log(q)) + (t - draws) * (
        math.log1p(-p) - math.log1p(-q)
    )
    vals = np.exp(k * draws * math.log(zeta) + log_weight)
    m_hat = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(n_samples)
    return m_hat ** (1.0 / k), se


# largest relative deviation of an estimated moment norm from the closed form
_MOMENT_REL_TOL = 0.02


def validate_moment_identity(zeta_grid, p_grid, t_grid, k_grid, n_samples=10**5, seed=0):
    """Empirical ``||zeta^Omega||_k`` vs. the closed form, on a parameter grid."""
    _check_moment(zeta_grid, n_samples)
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    for zeta_val in zeta_grid:
        for p in p_grid:
            for t in t_grid:
                for k in k_grid:
                    emp, se = _tilted_moment_estimate(
                        zeta_val, p, int(t), float(k), n_samples, rng
                    )
                    ref = bounds.binomial_moment(zeta_val, p, int(t), float(k))
                    rel = abs(emp - ref) / ref
                    report.checks.append(
                        ValidationCheck(
                            name=f"binomial-moment zeta={zeta_val} p={p} t={t} k={k}",
                            passed=rel <= _MOMENT_REL_TOL,
                            statistic=rel,
                            bound=_MOMENT_REL_TOL,
                            n_samples=n_samples,
                            std_error=se,
                            ratio=emp / ref,
                        )
                    )
    return report


# ---------------------------------------------------------------------------
# certificate checks

# moment orders 1.._K_MAX and tail levels every certificate check covers
_K_MAX = 8
_TAIL_DELTAS = (0.5, 0.1, 0.01)


def _moment_checks(name, samples, cert, report):
    # raw-moment comparison with a 3-standard-error Monte Carlo allowance:
    # (mean |x|^k - 3 se) must not exceed (nu k^theta)^k
    absx = np.abs(samples)
    n = samples.shape[0]
    for k in range(1, _K_MAX + 1):
        powers = absx ** float(k)
        m_hat = float(powers.mean())
        se = float(powers.std(ddof=1)) / math.sqrt(n)
        limit = float(cert.moment_bound(k)) ** k
        stat = m_hat - 3.0 * se
        report.checks.append(
            ValidationCheck(
                name=f"{name} moment k={k}",
                passed=stat <= limit,
                statistic=stat,
                bound=limit,
                n_samples=n,
                std_error=se,
                ratio=limit / m_hat if m_hat > 0 else math.inf,
            )
        )


def _tail_checks(name, samples, cert, report):
    n = samples.shape[0]
    absx = np.abs(samples)
    for delta in _TAIL_DELTAS:
        level = cert.hp_bound(delta)
        freq = float(np.mean(absx >= level))
        allowance = _binom_quantile(n, delta) / n
        report.checks.append(
            ValidationCheck(
                name=f"{name} tail delta={delta}",
                passed=freq <= allowance,
                statistic=freq,
                bound=allowance,
                n_samples=n,
                std_error=math.sqrt(delta * (1.0 - delta) / n),
                ratio=delta / freq if freq > 0 else math.inf,
            )
        )


def validate_sampler_declarations(n_samples=10**6, seed=0):
    """Each sampler's empirical moments and tails vs. its declared certificate."""
    _check_samples(n_samples, "sampler")
    samplers = {
        "gaussian(1)": subweibull.gaussian(1.0),
        "bounded-uniform(2)": subweibull.bounded_uniform(2.0),
        "weibull-tail(theta=1)": subweibull.weibull_tail(1.0, 1.0),
        "weibull-tail(theta=1.5)": subweibull.weibull_tail(1.5, 0.5),
    }
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    for name, sampler in samplers.items():
        draws = sampler.sample(rng, n_samples)
        _moment_checks(name, draws, sampler.declared, report)
        _tail_checks(name, draws, sampler.declared, report)
    return report


def validate_closure_ops(dim=4, n_samples=10**6, seed=0):
    """Certificate algebra vs. moments of actually composed samples.

    Scale, shift, dependent addition, independent multiplication, and the
    error-norm composition over ``dim`` coordinates are all exercised, on a
    unit gaussian ``x`` and a Weibull-tailed ``y`` (theta 1, scale 0.5).
    """
    _check_samples(n_samples, "closure")
    eps_sampler = subweibull.gaussian(1.0)
    xi_sampler = subweibull.weibull_tail(1.0, 0.5)
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    x = eps_sampler.sample(rng, n_samples)
    y = xi_sampler.sample(rng, n_samples)
    ce, cx = eps_sampler.declared, xi_sampler.declared
    compositions = [
        ("scale(3x)", 3.0 * x, ce.scale(3.0)),
        ("shift(2+x)", 2.0 + x, ce.shift(2.0)),
        ("add(x+y)", x + y, ce.add(cx)),
        ("mul(x*y)", x * y, ce.mul(cx, independent=True)),
    ]
    for name, samples, cert in compositions:
        _moment_checks(name, samples, cert, report)
        _tail_checks(name, samples, cert, report)
    e = subweibull.error_vectors(eps_sampler, xi_sampler, dim, n_samples, rng)
    norms = np.linalg.norm(e, axis=1)
    cert = subweibull.vector_norm_class(dim, ce, cx)
    _moment_checks(f"error-norm(dim={dim})", norms, cert, report)
    _tail_checks(f"error-norm(dim={dim})", norms, cert, report)
    return report


# ---------------------------------------------------------------------------
# reference instance


def synthetic_instance(
    n_inputs=6, n_steps=500, drift_amplitude=0.6, error_scale=0.1, p=0.7, seed=11,
):
    """Compact drifting quadratic instance with known curvature.

    Random fixed plant (unit spectral norm), constant input-cost
    coefficients, a slowly rotating reference, generous static boxes, and
    gaussian gradient errors on both channels.  The step size is set to
    ``1/L``.  Returns ``(problem, algo_config)``.
    """
    n_outputs = 2
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.5, 1.0, (n_outputs, n_inputs))
    G /= np.linalg.svd(G, compute_uv=False)[0]
    H = np.zeros((n_outputs, 1))
    n_t = n_steps + 1
    t = np.arange(n_t)[:, None]
    phases = rng.uniform(0.0, 2.0 * np.pi, n_outputs)[None, :]
    base = rng.uniform(-1.0, 1.0, n_outputs)[None, :]
    y_ref = base + drift_amplitude * np.sin(4.0 * np.pi * t / n_steps + phases)
    a = np.tile(rng.uniform(0.3, 0.8, n_inputs), (n_t, 1))
    b = np.tile(rng.uniform(-0.5, 0.5, n_inputs), (n_t, 1))
    c = np.zeros((n_t, n_inputs))
    w = np.zeros((n_t, 1))
    lower = np.full((n_t, n_inputs), -4.0)
    upper = np.full((n_t, n_inputs), 4.0)
    prob = problem.TimeVaryingProblem(
        problem.LinearPlantMap(G, H),
        problem.BoxSchedule(lower, upper),
        problem.CostSchedule(1.0, y_ref, a, b, c, w),
    )
    _, L = prob.curvature_all()
    cfg = algorithm.AlgoConfig(
        alpha=1.0 / float(L.max()),
        p=p,
        eps_sampler=subweibull.gaussian(error_scale),
        xi_sampler=subweibull.gaussian(error_scale),
        meas_noise=subweibull.zero(),
    )
    return prob, cfg
