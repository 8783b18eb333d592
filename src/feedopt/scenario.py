"""Demand-response study: distributed energy resources tracking setpoints.

Six controllable resources (two per box family: a symmetric band, a
mid-range band and a wide band) feed two points of common coupling through
a normalized sensitivity matrix.  The operator tracks periodic power
references at the couplings over a 12-hour run at 5-second steps while
each resource carries a private quadratic cost that alternates between
two preference profiles at the configured switch steps.  Output
measurements arrive with probability ``p``; the private costs are either
known exactly (``exact`` mode) or learned online from sparse functional
evaluations (``gp`` mode) by one batched learner holding a scalar Gaussian
process for every run and coordinate.  Owners signal profile changes, so
there is one learner per profile, and data recorded under the outgoing
profile never contaminates the posterior used while the other one is
active.

Everything is generated from one seed: the instance, the starting points,
the measurement pattern and the noise.  The runs of one experiment share a
sample path whatever their ``p`` and mode, so the suite's cross-``p`` and
exact-versus-learned comparisons are paired, and the suite advances all
its runs, both modes together, as one batch of the simulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import algorithm, gplearn, problem, subweibull
from ._table import write_csv

__all__ = [
    "ScenarioConfig",
    "ExperimentResult",
    "profile_schedule",
    "build_scenario",
    "run_experiments",
    "run_suite",
    "seed_cost_learners",
    "coordinate_cost",
    "algo_config",
    "scaled_down",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the study; defaults reproduce the reference configuration."""

    # plant
    n_ders: int = 6
    n_pcc: int = 2
    n_loads: int = 2
    # costs
    beta: float = 1.0
    a_range_one: tuple[float, float] = (0.1, 0.5)
    a_range_two: tuple[float, float] = (0.5, 1.0)
    b_range: tuple[float, float] = (-3.0, 3.0)
    switch_steps: tuple[int, ...] = (2880, 5760)
    ref_base: float = 25.0
    ref_amplitude: float = 8.0
    ref_period: int = 960
    dist_base: float = 20.0
    dist_amplitude: float = 4.0
    dist_period: int = 5760
    trace_decay: float = 0.15
    obs_noise_sigma: float = 0.1
    # constraints: (lower_min, lower_max, upper_min, upper_max) per box family
    box_ranges: tuple[tuple[float, float, float, float], ...] = (
        (-10.0, -6.0, 6.0, 10.0), (3.0, 7.0, 13.0, 17.0), (0.0, 3.0, 28.0, 32.0),
    )
    box_period: int = 2880
    # algorithm
    alpha: float = 0.5
    p_values: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0)
    eps_kind: str = "gaussian"
    eps_scale: float = 0.0
    eps_theta: float = 1.0
    xi_kind: str = "weibull-tail"
    xi_scale: float = 0.15
    xi_theta: float = 2.0
    meas_kind: str = "gaussian"
    meas_scale: float = 0.1
    meas_theta: float = 1.0
    # gp learning
    gp_sigma_f2: float | None = None   # None: match the seed observations' spread
    gp_ell: float | None = None        # None: half the step-0 box width
    gp_noise_var: float | None = None  # None: obs_noise_sigma**2
    gp_seed_obs: int = 5
    eval_period: int = 360
    gp_max_obs: int | None = None      # None: keep every evaluation
    # suite
    horizon: int = 8640
    n_experiments: int = 10
    modes: tuple[str, ...] = ("exact", "gp")
    seed: int = 7

    def __post_init__(self):
        if self.n_ders < 1 or self.n_pcc < 1 or self.n_loads < 1:
            raise ValueError("plant dimensions must be positive")
        if self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_experiments < 1:
            raise ValueError(f"need at least one experiment, got {self.n_experiments}")
        if not self.p_values:
            raise ValueError("need at least one availability probability in p_values")
        if not self.modes:
            raise ValueError("need at least one mode in modes")
        for name in ("p_values", "modes"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats an entry: {', '.join(map(str, values))}")
        if not all(0.0 < p <= 1.0 for p in self.p_values):
            raise ValueError(f"availability probabilities must lie in (0, 1], got {self.p_values}")
        if any(m not in ("exact", "gp") for m in self.modes):
            raise ValueError(f"modes must be drawn from exact/gp, got {self.modes}")
        if any(not 0 < s <= self.horizon for s in self.switch_steps):
            raise ValueError(f"switch steps must lie in (0, horizon], got {self.switch_steps}")
        if list(self.switch_steps) != sorted(set(self.switch_steps)):
            raise ValueError("switch steps must be strictly increasing")
        if self.eval_period < 1 or self.gp_seed_obs < 1:
            raise ValueError("evaluation period and seed-observation count must be positive")
        if self.gp_max_obs is not None and self.gp_max_obs < 2:
            raise ValueError("the observation window must keep at least 2 points")
        if not self.beta > 0:
            raise ValueError(f"tracking weight beta must be positive, got {self.beta}")
        for chan in ("eps", "xi", "meas"):
            try:
                self.sampler(chan)
            except ValueError as exc:
                raise ValueError(f"{chan} noise: {exc}") from exc
        # explicit GP values meet the learner's own rules here, not mid-run
        gp = [1.0 if v is None else v for v in (self.gp_sigma_f2, self.gp_ell, self.gp_noise_var)]
        gplearn.GPPosterior(gplearn.SquaredExponential(gp[0], gp[1]), gp[2])

    def sampler(self, chan: str) -> subweibull.ErrorSampler:
        """The noise sampler of channel ``eps``, ``xi`` or ``meas``."""
        return subweibull.sampler(*(getattr(self, f"{chan}_{key}") for key in ("kind", "scale", "theta")))


def algo_config(cfg: ScenarioConfig, p: float) -> algorithm.AlgoConfig:
    """The algorithm settings the suite uses at availability ``p``."""
    return algorithm.AlgoConfig(
        alpha=cfg.alpha,
        p=p,
        eps_sampler=cfg.sampler("eps"),
        xi_sampler=cfg.sampler("xi"),
        meas_noise=cfg.sampler("meas"),
    )


def build_scenario(cfg: ScenarioConfig) -> problem.TimeVaryingProblem:
    """Generate the problem instance (plant, traces, boxes, switching costs),
    deterministic in ``cfg.seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    m, n_out, n_w = cfg.n_ders, cfg.n_pcc, cfg.n_loads
    G = rng.uniform(0.5, 1.0, (n_out, m))
    G /= np.linalg.svd(G, compute_uv=False)[0]
    H = rng.uniform(0.5, 1.0, (n_out, n_w))
    H /= np.linalg.svd(H, compute_uv=False)[0]

    n_t = cfg.horizon + 1
    t = np.arange(n_t, dtype=float)
    envelope = 1.0 - cfg.trace_decay * t / cfg.horizon

    # boxes breathe inside their families' ranges; two resources share a family
    lower = np.empty((n_t, m))
    upper = np.empty((n_t, m))
    for j in range(m):
        lo_min, lo_max, up_min, up_max = cfg.box_ranges[j % len(cfg.box_ranges)]
        phase_lo, phase_up = rng.uniform(0.0, 2.0 * np.pi, 2)
        wave_lo = 0.5 * (1.0 + np.sin(2.0 * np.pi * t / cfg.box_period + phase_lo))
        wave_up = 0.5 * (1.0 + np.sin(2.0 * np.pi * t / cfg.box_period + phase_up))
        lower[:, j] = lo_min + (lo_max - lo_min) * wave_lo
        upper[:, j] = up_min + (up_max - up_min) * wave_up

    w = np.empty((n_t, n_w))
    for j in range(n_w):
        scale_j = rng.uniform(0.8, 1.2)
        phase_j = rng.uniform(0.0, 2.0 * np.pi)
        w[:, j] = cfg.dist_base * scale_j + cfg.dist_amplitude * envelope * np.sin(
            2.0 * np.pi * t / cfg.dist_period + phase_j
        )

    y_ref = np.empty((n_t, n_out))
    for j in range(n_out):
        scale_j = rng.uniform(0.9, 1.1)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        y_ref[:, j] = cfg.ref_base * scale_j + cfg.ref_amplitude * envelope * (
            np.sin(2.0 * np.pi * t / cfg.ref_period + ph1)
            + 0.3 * np.sin(6.0 * np.pi * t / cfg.ref_period + ph2)
        )

    a_one = rng.uniform(*cfg.a_range_one, m)
    b_one = rng.uniform(*cfg.b_range, m)
    a_two = rng.uniform(*cfg.a_range_two, m)
    b_two = rng.uniform(*cfg.b_range, m)
    profile = profile_schedule(cfg.switch_steps, cfg.horizon)
    a, b = np.array([a_one, a_two])[profile], np.array([b_one, b_two])[profile]
    c = np.zeros((n_t, m))

    prob = problem.TimeVaryingProblem(
        problem.LinearPlantMap(G, H),
        problem.BoxSchedule(lower, upper),
        problem.CostSchedule(cfg.beta, y_ref, a, b, c, w),
    )
    prob.curvature_all()  # strong convexity holds for every step or this raises
    return prob


def coordinate_cost(prob: problem.TimeVaryingProblem, m, x, t: int):
    """The separable input cost ``a_t[m] x^2 + b_t[m] x + c_t[m]`` at ``x``;
    ``m`` is an index, a slice or an index array that broadcasts with ``x``."""
    costs = prob.costs
    return costs.a[t, m] * x * x + costs.b[t, m] * x + costs.c[t, m]


def seed_cost_learners(prob, cfg, rngs) -> list[gplearn.GPPosterior]:
    """One learner of batch ``(len(rngs), m)`` per preference profile, seeded at
    uniform sites in the step-0 box; each generator draws, coordinate by
    coordinate, the sites and then their noise.  A profile's values are its own
    costs (at step 0, then at the first switch step) at those sites plus that noise."""
    lo, up = prob.boxes.lower[0], prob.boxes.upper[0]
    shape = (len(rngs), prob.n_inputs, cfg.gp_seed_obs)
    sites, noise = np.empty(shape), np.empty(shape)
    for r, rng in enumerate(rngs):
        for m in range(prob.n_inputs):
            sites[r, m] = rng.uniform(lo[m], up[m], cfg.gp_seed_obs)
            noise[r, m] = cfg.obs_noise_sigma * rng.standard_normal(cfg.gp_seed_obs)
    ell = cfg.gp_ell if cfg.gp_ell is not None else (up - lo) / 2.0
    noise_var = cfg.gp_noise_var if cfg.gp_noise_var is not None else cfg.obs_noise_sigma**2
    learners = []
    for t in (0, *cfg.switch_steps[:1]):
        values = coordinate_cost(prob, np.arange(prob.n_inputs)[:, None], sites, t) + noise
        sigma_f2 = cfg.gp_sigma_f2
        if sigma_f2 is None:  # the observed cost spread, so large costs are not shrunk toward 0
            sigma_f2 = np.maximum(np.var(values, axis=-1), 1.0)
        kernel = gplearn.SquaredExponential(sigma_f2, ell)
        learners.append(gplearn.GPPosterior(kernel, noise_var, sites, values))
    return learners


def profile_schedule(switch_steps, horizon: int) -> np.ndarray:
    """Index of the preference profile in force at each step ``t = 0 .. horizon``:
    profiles alternate at every switch step (one, two, one, ...)."""
    return np.searchsorted(np.asarray(switch_steps), np.arange(horizon + 1), side="right") % 2


def run_experiments(prob, cfg: ScenarioConfig, runs):
    """The runs ``(mode, p, exp_index)``, exact and learned alike, advanced
    together as one batch.

    The experiment index seeds two child streams: the main one drives the
    starting point, the measurement pattern and the noise; a separate one
    drives the cost evaluations for the learner, so ``exact`` and ``gp``
    runs of the same experiment, at any ``p``, see identical sample paths.
    The runs of one experiment, in both modes, share one main generator, so
    the kernel draws its path once per step for all of them; each ``gp``
    run has its own evaluation generator, which the learner draws from run
    by run, and ``exact`` runs have none.  The ``gp`` runs must be one block
    of consecutive runs, as they are in :func:`run_suite`'s mode-major order.

    Every ``gp`` run has its own GPs, one per coordinate, held in one
    learner of batch ``(R_gp, m)`` over the ``gp`` runs.  The owners signal
    profile changes, so there are two learners, one per profile, each
    starting from the initial profiling samples of its own profile's costs
    (:func:`seed_cost_learners`).  Evaluations recorded under
    one profile never enter the posterior used while the other is active;
    when a profile returns, its accumulated dataset is restored.
    ``input_grad(X, t)`` is the active learner's posterior mean-gradient at
    the ``gp`` runs' iterates, and ``after_step(t, X)`` records every
    ``eval_period`` steps one noisy evaluation per ``gp`` run and coordinate
    at its new iterate.  Returns one trajectory per run.
    """
    bad = [mode for mode, _, _ in runs if mode not in ("exact", "gp")]
    if bad:
        raise ValueError(f"mode must be 'exact' or 'gp', got {bad[0]!r}")

    def stream(e, k):
        return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, e, k)))

    # one main generator and starting point per experiment, shared by its runs
    main = {e: stream(e, 0) for _, _, e in runs}
    start = {e: rng.uniform(prob.boxes.lower[0], prob.boxes.upper[0]) for e, rng in main.items()}
    rng_main, x0 = [main[e] for _, _, e in runs], [start[e] for _, _, e in runs]
    ps = [p for _, p, _ in runs]
    acfg = algo_config(cfg, ps[0])  # the kernel takes each run's own p from ``ps``
    gp_rows = [r for r, (mode, _, _) in enumerate(runs) if mode == "gp"]
    hooks = {}
    if gp_rows:
        block = slice(gp_rows[0], gp_rows[-1] + 1)
        if block.stop - block.start != len(gp_rows):
            raise ValueError("the gp runs must be one block of consecutive runs")
        rng_obs = [stream(e, 1) for _, _, e in runs[block]]
        learners = seed_cost_learners(prob, cfg, rng_obs)
        profile = profile_schedule(cfg.switch_steps, cfg.horizon)

        def input_grad(X, t):
            return learners[profile[t]].mean_gradient(X)

        def observe(t, X):
            if t % cfg.eval_period:
                return
            k = profile[t]
            X = X[block]
            noise = np.array([rng.standard_normal(prob.n_inputs) for rng in rng_obs])
            z = coordinate_cost(prob, slice(None), X, t) + cfg.obs_noise_sigma * noise
            learners[k] = learners[k].add_observation(X, z, max_obs=cfg.gp_max_obs)

        hooks = {"input_grad": input_grad, "learned": block, "after_step": observe}
    return algorithm.simulate(prob, acfg, x0, rng_main, n_steps=cfg.horizon, p=ps, **hooks)


@dataclass
class ExperimentResult:
    """Ensemble statistics of the suite, keyed by ``(p, mode)``.

    ``mean_d`` and ``std_d`` hold curves over ``t = 1 .. horizon``.
    """

    p_values: tuple
    modes: tuple
    horizon: int
    mean_d: dict = field(default_factory=dict)
    std_d: dict = field(default_factory=dict)

    def plateau(self, p: float, mode: str, window: int = 500) -> float:
        """Mean tracking error over the last ``window`` steps."""
        return float(self.mean_d[(p, mode)][-window:].mean())

    def to_csv(self, path) -> None:
        """Rows ``p, mode, t, mean_d, std_d`` in config order, t ascending."""
        keys = [(p, mode) for p in self.p_values for mode in self.modes]
        n = self.horizon
        write_csv(path, ["p", "mode", "t", "mean_d", "std_d"], (
            np.repeat([float(p) for p, _ in keys], n),
            np.repeat([mode for _, mode in keys], n),
            np.tile(np.arange(1, n + 1), len(keys)),
            np.concatenate([self.mean_d[k] for k in keys]),
            np.concatenate([self.std_d[k] for k in keys]),
        ))


def run_suite(cfg: ScenarioConfig, prob=None, n_jobs: int = 1, trajectory_sink=None) -> ExperimentResult:
    """All ``(mode, p, experiment)`` runs of the study, exact and learned
    alike, in one batch (one per worker process when ``n_jobs > 1``).

    ``trajectory_sink(p, mode, exp_index, trajectory)`` is invoked for every
    finished run in a fixed order, so file outputs are deterministic for
    any ``n_jobs``.
    """
    if prob is None:
        prob = build_scenario(cfg)
    prob.optimal_points()  # fill the oracle cache before any pickling
    # mode-major, so each chunk's gp runs form one block of rows
    runs = [(mode, p, e) for mode in cfg.modes for p in cfg.p_values for e in range(cfg.n_experiments)]
    batch = algorithm.fan_out(partial(run_experiments, prob, cfg), runs, n_jobs)
    trajectories = dict(zip(runs, batch))

    result = ExperimentResult(
        p_values=tuple(cfg.p_values), modes=tuple(cfg.modes), horizon=cfg.horizon,
    )
    for p in cfg.p_values:
        for mode in cfg.modes:
            rows = np.stack(
                [trajectories[(mode, p, e)].d[1:] for e in range(cfg.n_experiments)]
            )
            result.mean_d[(p, mode)] = rows.mean(axis=0)
            ddof = 1 if cfg.n_experiments > 1 else 0
            result.std_d[(p, mode)] = rows.std(axis=0, ddof=ddof)
    if trajectory_sink is not None:
        for p in cfg.p_values:
            for mode in cfg.modes:
                for e in range(cfg.n_experiments):
                    trajectory_sink(p, mode, e, trajectories[(mode, p, e)])
    return result


def scaled_down(cfg: ScenarioConfig, horizon: int = 1440, n_experiments: int = 3) -> ScenarioConfig:
    """A shorter variant of a config with proportionally placed switches
    (useful for smoke runs; the full study stays the default)."""
    factor = horizon / cfg.horizon
    switches = tuple(max(1, int(round(s * factor))) for s in cfg.switch_steps)
    return replace(
        cfg,
        horizon=horizon,
        n_experiments=n_experiments,
        switch_steps=switches,
        ref_period=max(2, int(round(cfg.ref_period * factor))),
        dist_period=max(2, int(round(cfg.dist_period * factor))),
        box_period=max(2, int(round(cfg.box_period * factor))),
        eval_period=max(1, int(round(cfg.eval_period * factor))),
    )
