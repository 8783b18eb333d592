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

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

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
    ``P[X <= k] >= 0.99``, summing the pmf over the mean +- (40 sd + 1), from
    ``math.lgamma`` at the window's left end by the log ratios of neighbours."""
    half = 40.0 * math.sqrt(n * delta * (1.0 - delta)) + 1.0
    lo, hi = max(0, math.floor(n * delta - half)), min(n, math.ceil(n * delta + half))
    log_odds = math.log(delta) - math.log1p(-delta)
    log_lo = math.lgamma(n + 1) - math.lgamma(lo + 1) - math.lgamma(n - lo + 1) + lo * log_odds
    steps = np.log(np.arange(n - lo, n - hi, -1) / np.arange(lo + 1.0, hi + 1.0)) + log_odds
    log_pmf = n * math.log1p(-delta) + np.concatenate([[log_lo], log_lo + np.cumsum(steps)])
    return lo + int(np.argmax(np.cumsum(np.exp(log_pmf)) >= 0.99))


# ---------------------------------------------------------------------------
# argument checks: each check below calls its own, and check_settings all of
# them, so validate-bounds rejects a bad value before any work


def _check_ensemble(d, inputs):
    """``(n_trials, n_steps)`` of the distance rows ``d``, once they span the envelope's horizon."""
    if d.ndim != 2 or d.shape[1] != inputs.horizon + 1:
        raise ValueError(f"distance rows must span t = 0 .. {inputs.horizon}, got shape {d.shape}")
    return d.shape[0], inputs.horizon


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


def _check_moment(zeta_grid, p_grid, t_grid, k_grid, n_samples):
    _check_samples(n_samples, "moment-identity")
    bounds.check_contraction_factors(zeta_grid)
    for p, t, k in itertools.product(p_grid, t_grid, k_grid):
        bounds.binomial_moment(0.5, p, int(t), float(k))  # raises unless p in (0, 1], t >= 0, k >= 1


def check_settings(val, n_steps) -> None:
    """Raise ``ValueError`` for a trial or sample count, check time, moment
    grid value or closure dimension of the ``[validation]`` settings ``val``
    (:class:`feedopt.config.ValidationSettings`) that a check would reject,
    the envelope ensembles running ``n_steps`` steps."""
    _check_expectation(val.n_trials_mean)
    _check_hp(val.n_trials_hp, val.check_times, n_steps)
    _check_moment(val.moment_zetas, val.moment_ps, val.moment_ts, val.moment_ks, val.moment_samples)
    _check_samples(val.sampler_samples, "sampler")  # the closure check's count too
    unit = subweibull.SubWeibull(1.0, 1.0)
    subweibull.vector_norm_class(val.closure_dim, unit, unit)  # raises unless closure_dim >= 1


# ---------------------------------------------------------------------------
# ensemble simulation


_TRIAL_BLOCK_SIZE = 2**22  # numbers of whole-horizon draws per batch of trials (32 MB)


def _trial_distances(prob, cfg, n_steps, seed, trials):
    """The distance rows of the trials with indices ``trials``, simulated in
    batches of rows whose draws fit ``_TRIAL_BLOCK_SIZE`` numbers."""
    per_trial = n_steps * (1 + 2 * prob.n_inputs + prob.n_outputs)
    width = max(1, _TRIAL_BLOCK_SIZE // per_trial)
    rows = []
    for lo in range(0, len(trials), width):
        rngs = [
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for i in trials[lo : lo + width]
        ]
        trajs = algorithm.simulate(prob, cfg, None, rngs, n_steps=n_steps)
        rows.extend(traj.d for traj in trajs)
    return rows


def run_trials(prob, cfg, n_steps, n_trials, seed, n_jobs=1) -> np.ndarray:
    """Distances ``d_t`` for ``n_trials`` independent runs, ``(n_trials, n_steps+1)``,
    each started at the step-0 box midpoint.

    Trial ``i`` draws from its own child stream ``(seed, i)``, each channel
    for the whole horizon at once (:mod:`feedopt.algorithm`'s layout).  Its
    row therefore depends on neither ``n_jobs`` nor the batch of rows it is
    simulated in.
    """
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    prob.optimal_points()  # fill the cache once, before any worker pickling
    chunk = partial(_trial_distances, prob, cfg, n_steps, seed)
    return np.stack(algorithm.fan_out(chunk, range(n_trials), n_jobs))


# ---------------------------------------------------------------------------
# envelope checks


def validate_expectation_bound(d, inputs):
    """Ensemble mean (plus three standard errors) of the distances ``d``
    (:func:`run_trials` rows) vs. the expectation envelope of ``inputs``
    (:class:`bounds.BoundInputs` of the simulated instance and algorithm),
    over steps ``1 .. inputs.horizon``; the row reports the step of least slack."""
    n_trials, n_steps = _check_ensemble(d, inputs)
    _check_expectation(n_trials)
    curve = bounds.expectation_bound(inputs)
    mean = d.mean(axis=0)
    se = d.std(axis=0, ddof=1) / math.sqrt(n_trials)
    rel = (mean + 3.0 * se) / curve.value
    # the worst step t >= 1; at t = 0 every trial sits at the anchor d0 itself
    worst = 1 + int(np.argmax(rel[1:]))
    with np.errstate(divide="ignore"):
        loose = np.where(mean[1:] > 0, curve.value[1:] / mean[1:], np.inf)
    check = ValidationCheck(
        name=f"expectation-envelope p={inputs.p} T={n_steps}",
        passed=bool(rel[worst] <= 1.0 + 1e-9),
        statistic=float(mean[worst] + 3.0 * se[worst]),
        bound=float(curve.value[worst]),
        n_samples=n_trials,
        std_error=float(se[worst]),
        ratio=float(np.median(loose)),
    )
    return ValidationReport([check])


def validate_hp_bound(d, inputs, deltas, check_times):
    """Exceedance frequency of the high-probability envelope at chosen steps.

    ``d`` are :func:`run_trials` distance rows and ``inputs`` the
    :class:`bounds.BoundInputs` of the simulated instance and algorithm;
    the envelope reads their certificate ``(theta_e, nu_e)``, never the
    estimate ``e_mean``.  For each level ``delta`` the frequency of ``d_t > bound_t``
    may not exceed the 99% binomial quantile of ``Binomial(n_trials, delta)``.
    """
    n_trials, n_steps = _check_ensemble(d, inputs)
    check_times = _check_hp(n_trials, check_times, n_steps)
    report = ValidationReport()
    for delta in deltas:
        curve = bounds.hp_bound_trajectory(inputs, delta)
        allowance = _binom_quantile(n_trials, delta) / n_trials
        for t in check_times:
            freq = float(np.mean(d[:, t] > curve.value[t]))
            quantile = float(np.quantile(d[:, t], 1.0 - delta))
            report.checks.append(
                ValidationCheck(
                    name=f"hp-envelope delta={delta} t={t} p={inputs.p}",
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
    ``C(t,n) p^n (1-p)^(t-n) zeta^(kn)``, a multiple of the ``Bin(t, r)`` pmf
    with ``r = p zeta^k / (1 - p + p zeta^k)`` and so peaked at
    ``floor((t + 1) r)`` (the upper mode where two tie), and reweighted by the
    density ratio, which keeps the estimator unbiased with bounded relative
    variance on every cell.  Returns ``(estimate, std error of the k-th raw moment)``.
    """
    if p >= 1.0:
        # every step updates, Omega = t deterministically
        return zeta ** float(t), 0.0
    r = p * zeta**k / (1.0 - p + p * zeta**k)
    peak = min(int((t + 1) * r), t)
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
    _check_moment(zeta_grid, p_grid, t_grid, k_grid, n_samples)
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


def _certificate_checks(name, samples, cert, report):
    """Moment and tail checks of ``samples`` against ``cert``.  Their magnitudes
    overwrite ``samples``, which the caller therefore no longer reads."""
    absx = np.abs(samples, out=samples)
    _moment_checks(name, absx, cert, report)
    _tail_checks(name, absx, cert, report)


def _moment_checks(name, absx, cert, report):
    # raw-moment comparison with a 3-standard-error Monte Carlo allowance:
    # (mean |x|^k - 3 se) must not exceed (nu k^theta)^k.  The mean and se are
    # the sums that |x|^k .mean() and .std(ddof=1) take (NumPy's _mean and
    # _var), in two buffers that every order reuses.
    n = absx.shape[0]
    powers, dev = np.empty_like(absx), np.empty_like(absx)
    for k in range(1, _K_MAX + 1):
        np.power(absx, float(k), out=powers)
        mean = np.add.reduce(powers) / n
        np.square(np.subtract(powers, mean, out=dev), out=dev)
        se = float(np.sqrt(np.add.reduce(dev) / (n - 1))) / math.sqrt(n)
        m_hat = float(mean)
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


def _tail_checks(name, absx, cert, report):
    n = absx.shape[0]
    for delta in _TAIL_DELTAS:
        level = cert.hp_bound(delta)
        freq = np.count_nonzero(absx >= level) / n
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
        _certificate_checks(name, sampler.sample(rng, n_samples), sampler.declared, report)
    return report


def validate_closure_ops(dim=4, n_samples=10**6, seed=0):
    """Certificate algebra vs. moments of actually composed samples.

    Scale, shift, dependent addition, independent multiplication, and the
    error-norm composition over ``dim`` coordinates are all exercised, on a
    unit gaussian ``x`` and a Weibull-tailed ``y`` (theta 1, scale 0.5).
    One composition is alive at a time, and ``x`` and ``y`` are dropped
    before the error vectors are drawn, whose three ``(n_samples, dim)``
    arrays (the vectors, the Weibull magnitudes and their sign bits) are
    the largest set this check holds.
    """
    _check_samples(n_samples, "closure")
    eps_sampler = subweibull.gaussian(1.0)
    xi_sampler = subweibull.weibull_tail(1.0, 0.5)
    ce, cx = eps_sampler.declared, xi_sampler.declared
    norm_cert = subweibull.vector_norm_class(dim, ce, cx)  # raises unless dim >= 1, before any draw
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    x = eps_sampler.sample(rng, n_samples)
    y = xi_sampler.sample(rng, n_samples)
    compositions = (
        ("scale(3x)", lambda: 3.0 * x, ce.scale(3.0)),
        ("shift(2+x)", lambda: 2.0 + x, ce.shift(2.0)),
        ("add(x+y)", lambda: x + y, ce.add(cx)),
        ("mul(x*y)", lambda: x * y, ce.mul(cx, independent=True)),
    )
    for name, compose, cert in compositions:
        _certificate_checks(name, compose(), cert, report)
    del x, y
    e = subweibull.error_vectors(eps_sampler, xi_sampler, dim, n_samples, rng)
    norms = np.sqrt(np.add.reduce(np.square(e, out=e), axis=1))  # np.linalg.norm(e, axis=1)
    del e
    _certificate_checks(f"error-norm(dim={dim})", norms, norm_cert, report)
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
    if n_inputs < 1:
        raise ValueError(f"the synthetic instance needs at least one input, got {n_inputs}")
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
