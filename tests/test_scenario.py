"""Demand-response study: instance generation, profile switching, the suite."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from feedopt import algorithm, gplearn, scenario
from feedopt.scenario import ScenarioConfig, profile_schedule


TINY = replace(
    scenario.scaled_down(ScenarioConfig(), horizon=60, n_experiments=2),
    switch_steps=(20, 40),
    p_values=(0.5, 1.0),
    eval_period=5,
)


def run_one(prob, cfg, p, mode, exp_index):
    """One run of the study: the batch of one of ``run_experiments``."""
    return scenario.run_experiments(prob, cfg, [(mode, p, exp_index)])[0]


def test_config_validation():
    with pytest.raises(ValueError, match="horizon"):
        ScenarioConfig(horizon=0)
    with pytest.raises(ValueError, match="availability"):
        ScenarioConfig(p_values=(0.5, 1.2))
    with pytest.raises(ValueError, match="modes"):
        ScenarioConfig(modes=("exact", "nn"))
    with pytest.raises(ValueError, match="switch steps"):
        ScenarioConfig(switch_steps=(0, 100))
    with pytest.raises(ValueError, match="increasing"):
        ScenarioConfig(switch_steps=(100, 100))
    with pytest.raises(ValueError, match="observation window"):
        ScenarioConfig(gp_max_obs=1)
    with pytest.raises(ValueError, match="at least one availability probability"):
        ScenarioConfig(p_values=())
    with pytest.raises(ValueError, match="at least one mode"):
        ScenarioConfig(modes=())
    with pytest.raises(ValueError, match="p_values repeats an entry: 0.5, 0.5"):
        ScenarioConfig(p_values=(0.5, 0.5))
    with pytest.raises(ValueError, match="modes repeats an entry: gp, exact, gp"):
        ScenarioConfig(modes=("gp", "exact", "gp"))


def test_build_scenario_is_deterministic_in_seed():
    cfg = TINY
    p1 = scenario.build_scenario(cfg)
    p2 = scenario.build_scenario(cfg)
    np.testing.assert_array_equal(p1.plant.G, p2.plant.G)
    np.testing.assert_array_equal(p1.costs.y_ref, p2.costs.y_ref)
    p3 = scenario.build_scenario(replace(cfg, seed=8))
    assert not np.array_equal(p3.plant.G, p1.plant.G)


def test_build_scenario_structure():
    cfg = TINY
    prob = scenario.build_scenario(cfg)
    n_t = cfg.horizon + 1
    assert prob.n_inputs == cfg.n_ders
    assert prob.n_outputs == cfg.n_pcc
    assert prob.costs.y_ref.shape == (n_t, cfg.n_pcc)
    assert prob.boxes.lower.shape == (n_t, cfg.n_ders)
    # normalized sensitivities
    assert np.linalg.svd(prob.plant.G, compute_uv=False)[0] == pytest.approx(1.0)
    # box families: resources j and j+3 draw from the same range family
    for j in range(cfg.n_ders):
        lo_min, lo_max, up_min, up_max = cfg.box_ranges[j % len(cfg.box_ranges)]
        assert np.all(prob.boxes.lower[:, j] >= lo_min - 1e-12)
        assert np.all(prob.boxes.lower[:, j] <= lo_max + 1e-12)
        assert np.all(prob.boxes.upper[:, j] >= up_min - 1e-12)
        assert np.all(prob.boxes.upper[:, j] <= up_max + 1e-12)


def test_cost_profiles_alternate_and_restore():
    cfg = TINY
    prob = scenario.build_scenario(cfg)
    s1, s2 = cfg.switch_steps
    a = prob.costs.a
    # constant inside each phase
    assert np.all(a[:s1] == a[0])
    assert np.all(a[s1:s2] == a[s1])
    assert np.all(a[s2:] == a[s2])
    # the second profile really differs, and the first returns exactly
    assert not np.array_equal(a[s1], a[0])
    np.testing.assert_array_equal(a[s2], a[0])
    np.testing.assert_array_equal(prob.costs.b[s2], prob.costs.b[0])
    # second-profile curvatures come from the higher range
    lo2, hi2 = cfg.a_range_two
    assert np.all((a[s1] >= lo2) & (a[s1] <= hi2))


def test_active_profile_boundaries():
    switches = (20, 40)
    profile = profile_schedule(switches, 60)
    assert profile.shape == (61,)
    assert profile[0] == 0
    assert profile[19] == 0
    assert profile[20] == 1
    assert profile[39] == 1
    assert profile[40] == 0
    assert profile[60] == 0
    # three switches keep alternating: 0, 1, 0, 1
    profile = profile_schedule((10, 20, 30), 35)
    assert profile[5] == 0
    assert profile[15] == 1
    assert profile[25] == 0
    assert profile[35] == 1


def test_coordinate_cost_matches_schedule():
    prob = scenario.build_scenario(TINY)
    x = 1.7
    for m in (0, 3):
        for t in (0, 30, 50):
            c = prob.costs
            assert scenario.coordinate_cost(prob, m, x, t) == pytest.approx(
                c.a[t, m] * x**2 + c.b[t, m] * x + c.c[t, m]
            )


def test_algo_config_sampler_mapping():
    acfg = scenario.algo_config(TINY, 0.6)
    assert acfg.p == 0.6 and acfg.alpha == TINY.alpha
    assert acfg.eps_sampler.kind == "gaussian" and acfg.eps_sampler.scale == 0.0
    assert acfg.xi_sampler.kind == "weibull-tail"
    assert acfg.meas_noise.scale == TINY.meas_scale
    with pytest.raises(ValueError, match="unknown sampler kind"):
        scenario.algo_config(replace(TINY, eps_kind="cauchy"), 0.6)


def test_seed_cost_learners_defaults():
    cfg = TINY
    prob = scenario.build_scenario(cfg)
    learner = scenario.seed_cost_learners(prob, cfg, [np.random.default_rng(0)])[0]
    assert learner.batch_shape == (1, prob.n_inputs)
    assert learner.n_obs == cfg.gp_seed_obs
    for m in range(prob.n_inputs):
        width = float(prob.boxes.upper[0, m] - prob.boxes.lower[0, m])
        assert learner.kernel.ell[m] == pytest.approx(width / 2.0)
    assert learner.noise_var == pytest.approx(cfg.obs_noise_sigma**2)
    assert np.all(learner.kernel.sigma_f2 >= 1.0)
    fixed = scenario.seed_cost_learners(
        prob, replace(cfg, gp_ell=0.7, gp_sigma_f2=4.0, gp_noise_var=0.3),
        [np.random.default_rng(0)],
    )[0]
    assert fixed.kernel.ell == 0.7
    assert fixed.kernel.sigma_f2 == 4.0
    assert fixed.noise_var == 0.3


def test_profile_two_seed_values_are_profile_two_costs():
    # each profile's learner holds its own profile's costs, profile two's read
    # at the first switch step, at the same sites and with the same noise draws
    cfg = TINY
    prob = scenario.build_scenario(cfg)
    one, two = scenario.seed_cost_learners(prob, cfg, [np.random.default_rng(r) for r in (0, 1)])
    switch = cfg.switch_steps[0]
    assert profile_schedule(cfg.switch_steps, cfg.horizon)[switch] == 1
    assert not np.allclose(prob.costs.a[0], prob.costs.a[switch])
    lo, up = prob.boxes.lower[0], prob.boxes.upper[0]
    for r in (0, 1):
        rng = np.random.default_rng(r)  # sites, then noise, coordinate by coordinate
        for m in range(prob.n_inputs):
            sites = rng.uniform(lo[m], up[m], cfg.gp_seed_obs)
            noise = cfg.obs_noise_sigma * rng.standard_normal(cfg.gp_seed_obs)
            for learner, t in ((one, 0), (two, switch)):
                np.testing.assert_array_equal(learner.sites[r, m], sites)
                cost = scenario.coordinate_cost(prob, m, sites, t)
                np.testing.assert_array_equal(learner.values[r, m], cost + noise)


def test_run_experiment_pairs_modes_and_validates():
    cfg = TINY
    prob = scenario.build_scenario(cfg)
    exact = run_one(prob, cfg, 1.0, "exact", 0)
    gp = run_one(prob, cfg, 1.0, "gp", 0)
    # same experiment index, same main stream: identical start and pattern
    np.testing.assert_array_equal(exact.x[0], gp.x[0])
    np.testing.assert_array_equal(exact.v, gp.v)
    assert exact.x.shape[0] == cfg.horizon + 1
    with pytest.raises(ValueError, match="mode"):
        run_one(prob, cfg, 1.0, "nn", 0)


def test_learner_datasets_are_kept_per_profile(monkeypatch):
    # the owners announce switches: evaluations recorded under profile B
    # must never reach the posterior used while profile A is active, and
    # A's dataset must come back intact when A returns
    cfg = TINY  # switches at 20 and 40, evaluations every 5 steps
    prob = scenario.build_scenario(cfg)
    seen = {}
    real = gplearn.GPPosterior.mean_gradient

    def spy(learner, xs):
        seen[len(seen) + 1] = learner.n_obs
        return real(learner, xs)

    monkeypatch.setattr(gplearn.GPPosterior, "mean_gradient", spy)
    run_one(prob, cfg, 1.0, "gp", 0)
    seeds = cfg.gp_seed_obs
    # queries happen before the step's own evaluation is recorded
    assert seen[5] == seeds          # evals at t=5,10,15 land after the query
    assert seen[19] == seeds + 3     # profile 0 dataset at the end of phase one
    assert seen[20] == seeds         # profile 1 starts from the seed data only
    assert seen[39] == seeds + 4     # its own evals at t=20,25,30,35
    assert seen[40] == seeds + 3     # profile 0 restored, nothing from phase two
    assert seen[45] == seeds + 4     # and it keeps growing from its own history


def test_batched_gp_runs_are_their_own_runs():
    # a windowed learner, so refits drop old sites as well as add new ones
    cfg = replace(TINY, gp_max_obs=3)
    prob = scenario.build_scenario(cfg)
    runs = [(m, p, e) for m in ("exact", "gp") for p in cfg.p_values for e in range(cfg.n_experiments)]
    # mode-major: the learned runs are one block of rows
    batch = dict(zip(runs, scenario.run_experiments(prob, cfg, runs)))
    for (mode, p, e), traj in batch.items():
        alone = run_one(prob, cfg, p, mode, e)
        for name in ("x", "v", "d", "e_norm"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(alone, name))
    # interleaved, the learned runs are no block, and the batch is refused
    with pytest.raises(ValueError, match="one block of consecutive runs"):
        scenario.run_experiments(prob, cfg, runs[::2] + runs[1::2])
    # eps is switched off, so an exact run's error is xi alone, while a gp
    # run's error carries the learner's deviation from the true gradient
    assert cfg.eps_scale == 0
    for p in cfg.p_values:
        for e in range(cfg.n_experiments):
            exact, gp = batch[("exact", p, e)], batch[("gp", p, e)]
            np.testing.assert_array_equal(exact.v, gp.v)
            assert np.all(exact.e_norm[1:] != gp.e_norm[1:])


def test_suite_advances_both_modes_in_one_kernel_call(monkeypatch):
    calls = []
    real = algorithm.simulate

    def spy(prob, cfg, x0, rngs, *args, **kwargs):
        calls.append(len(rngs))
        return real(prob, cfg, x0, rngs, *args, **kwargs)

    monkeypatch.setattr(algorithm, "simulate", spy)
    scenario.run_suite(TINY, n_jobs=1)
    assert calls == [len(TINY.modes) * len(TINY.p_values) * TINY.n_experiments]


def test_suite_statistics_and_parallel_determinism():
    cfg = TINY
    order_serial, order_parallel = [], []
    res1 = scenario.run_suite(
        cfg, n_jobs=1, trajectory_sink=lambda p, m, e, tr: order_serial.append((p, m, e))
    )
    res2 = scenario.run_suite(
        cfg, n_jobs=2, trajectory_sink=lambda p, m, e, tr: order_parallel.append((p, m, e))
    )
    assert order_serial == order_parallel
    assert order_serial[0] == (0.5, "exact", 0)
    for key in res1.mean_d:
        np.testing.assert_array_equal(res1.mean_d[key], res2.mean_d[key])
        np.testing.assert_array_equal(res1.std_d[key], res2.std_d[key])
        assert res1.mean_d[key].shape == res1.std_d[key].shape == (cfg.horizon,)
    assert set(res1.mean_d) == {
        (p, m) for p in cfg.p_values for m in cfg.modes
    }


def test_plateau_and_csv(tmp_path):
    cfg = TINY
    res = scenario.run_suite(cfg)
    tail = res.mean_d[(1.0, "exact")][-20:]
    assert res.plateau(1.0, "exact", window=20) == pytest.approx(float(tail.mean()))
    path = tmp_path / "summary.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,mode,t,mean_d,std_d"
    assert len(lines) == 1 + len(cfg.p_values) * len(cfg.modes) * cfg.horizon
    first = lines[1].split(",")
    assert first[:3] == ["0.5", "exact", "1"]


def test_summary_csv_matches_a_csv_writer_reference(tmp_path):
    vals = np.array([0.0, -0.0, 1e-300, 1e-5, 1.5e16, np.inf, np.nan, 1.0 / 3.0, -2.5e-7])
    res = scenario.ExperimentResult(p_values=(0.4, 1.0), modes=("exact", "gp"), horizon=vals.size)
    for i, key in enumerate((p, m) for p in res.p_values for m in res.modes):
        res.mean_d[key] = np.roll(vals, i)
        res.std_d[key] = np.roll(vals[::-1], i)
    res.to_csv(tmp_path / "summary.csv")
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "mode", "t", "mean_d", "std_d"])
        for p in res.p_values:
            for mode in res.modes:
                for i in range(res.horizon):
                    mean, std = res.mean_d[(p, mode)][i], res.std_d[(p, mode)][i]
                    writer.writerow(
                        [format(p, ".15g"), mode, i + 1, format(mean, ".15g"), format(std, ".15g")]
                    )
    assert (tmp_path / "summary.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_scaled_down_keeps_proportions():
    cfg = ScenarioConfig()
    small = scenario.scaled_down(cfg, horizon=1440, n_experiments=3)
    assert small.horizon == 1440 and small.n_experiments == 3
    assert small.switch_steps == (480, 960)
    assert small.box_period == 480
    assert small.eval_period == 60
    # switch placement stays at thirds of the run
    assert small.switch_steps[0] / small.horizon == pytest.approx(
        cfg.switch_steps[0] / cfg.horizon
    )
