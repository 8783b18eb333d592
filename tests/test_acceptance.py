"""Acceptance suite: the eight headline claims, one test and one line each.

Each test prints a single PASS/FAIL line with the measured margin (visible
with ``pytest -rA`` or ``-s``).  The heavy ensembles are built once per
module and shared between the checks that use the same instance.
Criterion 7's clauses are defined in ``criterion7.py``, which also tables
them per seed.
"""

import math
import time

import numpy as np
import pytest

import criterion7
from feedopt import algorithm, bounds, cli, gplearn, scenario, validation
from tests_common import static_instance

SEED = 2024


def report(num: int, ok: bool, text: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}"
    print(line)
    assert ok, line


# -- shared ensembles -----------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_ensemble():
    """2000 distance trajectories on the reference drifting instance.

    Trial streams are indexed, so the first 1000 rows are exactly the
    ensemble a standalone 1000-trial run would produce.
    """
    prob, cfg = validation.synthetic_instance()
    start = time.monotonic()
    d = validation.run_trials(prob, cfg, n_steps=500, n_trials=2000, seed=SEED)
    elapsed = time.monotonic() - start
    return prob, cfg, d, elapsed


@pytest.fixture(scope="module")
def scenario_suite():
    """The full demand-response study at its default configuration."""
    cfg = scenario.ScenarioConfig()
    start = time.monotonic()
    result = scenario.run_suite(cfg)
    elapsed = time.monotonic() - start
    return cfg, result, elapsed


# -- 1: expectation envelope ------------------------------------------------------


def test_criterion_1_expectation_envelope_dominates(synthetic_ensemble):
    prob, cfg, d_all, elapsed = synthetic_ensemble
    d = d_all[:1000]
    inputs = bounds.bound_inputs_from_problem(prob, cfg, n_steps=500, seed=SEED)
    curve = bounds.expectation_bound(inputs)
    mean = d.mean(axis=0)
    se = d.std(axis=0, ddof=1) / math.sqrt(d.shape[0])
    stat = mean + 3.0 * se
    violations = int(np.sum(stat > curve.value * (1.0 + 1e-9)))
    margin = float(np.min(curve.value[1:] / stat[1:]))
    runtime = elapsed / 2.0  # this criterion's half of the shared ensemble
    report(
        1,
        violations == 0 and runtime < 120.0,
        f"mean+3SE under the expectation envelope at all 501 points "
        f"(0 allowed, {violations} found; min bound/stat {margin:.3f}; "
        f"{runtime:.1f}s of ensemble time)",
    )


# -- 2: high-probability envelope ---------------------------------------------------


def test_criterion_2_hp_envelope_exceedance(synthetic_ensemble):
    prob, cfg, d, elapsed = synthetic_ensemble
    n = d.shape[0]
    worst = 0.0
    lines = []
    inputs = bounds.bound_inputs_from_problem(prob, cfg, n_steps=500, seed=SEED)
    for delta in (0.3, 0.1):
        curve = bounds.hp_bound_trajectory(inputs, delta)
        for t in (50, 250, 500):
            freq = float(np.mean(d[:, t] > curve.value[t]))
            worst = max(worst, freq / delta)
            lines.append(f"delta={delta} t={t}: {freq:.4f}")
    ok = worst <= 1.0 and elapsed < 300.0
    report(
        2,
        ok,
        f"exceedance frequency <= delta at every check time "
        f"({'; '.join(lines)}; {elapsed:.1f}s ensemble time, n={n})",
    )


# -- 3: update-count moment identity ---------------------------------------------------


def test_criterion_3_binomial_moment_identity():
    rep = validation.validate_moment_identity(
        (0.5, 0.9), (0.3, 0.7, 1.0), (5, 50), (1, 2, 4), n_samples=10**5, seed=SEED
    )
    worst = max(c.statistic for c in rep.checks)
    exact_rows = [c for c in rep.checks if "p=1.0" in c.name]
    exact_worst = max(c.statistic for c in exact_rows)
    ok = rep.passed and exact_worst < 1e-12
    report(
        3,
        ok,
        f"fractional moments match the closed form on the full grid "
        f"(36 combinations, worst rel err {worst:.2e} <= 2%; "
        f"p=1 exact to {exact_worst:.1e})",
    )


# -- 4: noise-certificate calculus ------------------------------------------------------


def test_criterion_4_certificate_calculus():
    rep = validation.validate_sampler_declarations(n_samples=10**6, seed=SEED)
    rep.extend(validation.validate_closure_ops(n_samples=10**6, seed=SEED + 1))
    n_fail = sum(not c.passed for c in rep.checks)
    moment_margin = min(
        c.ratio for c in rep.checks if "moment" in c.name and np.isfinite(c.ratio)
    )
    report(
        4,
        n_fail == 0,
        f"declared moments and tail levels hold for every sampler and "
        f"composition ({len(rep.checks)} checks, {n_fail} failed; "
        f"tightest moment slack x{moment_margin:.2f})",
    )


# -- 5: analytic GP gradient --------------------------------------------------------------


def test_criterion_5_gp_gradient_and_interpolation():
    rng = np.random.default_rng(SEED)
    h = 1e-5
    worst_rel = 0.0
    for _ in range(50):
        n_obs = int(rng.integers(2, 12))
        kernel = gplearn.SquaredExponential(
            float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))
        )
        sites = rng.uniform(-3.0, 3.0, n_obs)
        values = np.sin(1.3 * sites) + 0.4 * sites**2 + 0.05 * rng.standard_normal(n_obs)
        gp = gplearn.GPPosterior(kernel, 1e-3, sites, values)
        x = float(rng.uniform(-3.0, 3.0))
        fd = (gp.posterior_mean(x + h) - gp.posterior_mean(x - h)) / (2.0 * h)
        rel = abs(gp.mean_gradient(x) - fd) / max(1.0, abs(fd))
        worst_rel = max(worst_rel, rel)
    worst_interp = 0.0
    for _ in range(10):
        sites = np.sort(rng.uniform(-3.0, 3.0, 5)) + np.arange(5) * 1.5
        values = np.cos(sites)
        gp = gplearn.GPPosterior(gplearn.SquaredExponential(2.0, 1.0), 0.0, sites, values)
        worst_interp = max(
            worst_interp, float(np.max(np.abs(gp.posterior_mean(sites) - values)))
        )
    ok = worst_rel <= 1e-6 and worst_interp <= 1e-6
    report(
        5,
        ok,
        f"closed-form posterior gradient matches central differences on 50 "
        f"dataset/query pairs (worst rel {worst_rel:.2e} <= 1e-6) and "
        f"noise-free sites interpolate (worst {worst_interp:.2e} <= 1e-6)",
    )


# -- 6: noise-free contraction ----------------------------------------------------------------


def test_criterion_6_noise_free_contraction():
    prob, cfg = static_instance(n_t=201, silent=True, p=1.0)
    mu, L = (c[0] for c in prob.curvature_all())
    zeta = max(abs(1 - cfg.alpha * mu), abs(1 - cfg.alpha * L))
    traj = algorithm.simulate(prob, cfg, None, [np.random.default_rng(0)], n_steps=200)[0]
    envelope = zeta ** np.arange(201) * traj.d[0] + 1e-9
    violations = int(np.sum(traj.d > envelope))
    report(
        6,
        violations == 0,
        f"zero-error full-availability run contracts geometrically "
        f"(d_t <= zeta^t d_0 + 1e-9 for all t <= 200, zeta={zeta:.4f}, "
        f"{violations} violations)",
    )


# -- 7: demand-response study ------------------------------------------------------------------


def test_criterion_7a_plateau_ordering_in_p(scenario_suite):
    cfg, result, _ = scenario_suite
    clauses = [criterion7.plateau_ordering(cfg, result, mode) for mode in cfg.modes]
    ok = all(ok for ok, _ in clauses)
    lines = "; ".join(text for _, text in clauses)
    report(7, ok, f"(a) final plateau is nonincreasing in p ({lines})")


def test_criterion_7b_learned_curve_tracks_exact(scenario_suite):
    _, result, _ = scenario_suite
    ok, rel = criterion7.learned_gap(result)
    report(
        7,
        ok,
        f"(b) learned-cost and exact-cost mean curves agree after step 6000 "
        f"at p=1 (relative gap {100 * rel:.2f}% < 10%)",
    )


def test_criterion_7c_switch_jumps_and_recovery(scenario_suite):
    cfg, result, elapsed = scenario_suite
    clauses = [criterion7.switch_recovery(cfg, result, mode) for mode in cfg.modes]
    ok = all(ok for ok, _ in clauses) and elapsed < 900.0
    lines = [line for _, mode_lines in clauses for line in mode_lines]
    report(
        7,
        ok,
        f"(c) error spikes at both preference switches and re-converges "
        f"({'; '.join(lines)}; suite {elapsed:.0f}s < 15min)",
    )


# -- 8: byte-level determinism -------------------------------------------------------------------


DETERMINISM_INI = """
[costs]
switch_steps = 30, 60

[algorithm]
p_values = 0.6, 1.0

[gp]
eval_period = 10

[suite]
horizon = 90
n_experiments = 2
"""


def _files(out):
    return {
        f.name: f.read_bytes()
        for f in sorted(out.iterdir())
        if f.suffix in (".csv", ".json", ".ini")
    }


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "study.ini"
    cfg_path.write_text(DETERMINISM_INI)
    outs = [tmp_path / name for name in ("j1", "j3", "again")]
    for out, jobs in zip(outs, ("1", "3", "1")):
        code = cli.main(
            ["run-scenario", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
        )
        assert code == 0
    f1, f3, f_again = (_files(o) for o in outs)
    same_parallel = f1 == f3
    same_rerun = f1 == f_again
    curves = tmp_path / "c1", tmp_path / "c2"
    val_path = tmp_path / "val.ini"
    val_path.write_text("[validation]\nn_steps = 60\ncheck_times = 30, 60\n")
    for out in curves:
        assert cli.main(["bound-curve", "--config", str(val_path), "--out", str(out)]) == 0
    same_curves = _files(curves[0]) == _files(curves[1])
    report(
        8,
        same_parallel and same_rerun and same_curves,
        f"reruns are byte-identical across parallelism and repetition "
        f"({len(f1)} files compared; workers 1 vs 3: {same_parallel}, "
        f"rerun: {same_rerun}, envelope export: {same_curves})",
    )
