"""Monte Carlo harness: trial reproducibility, check pass/fail wiring.

Full-scale dominance runs live in test_acceptance.py; these stay at the
smallest sample sizes the harness accepts.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedopt import algorithm, bounds, subweibull, validation
from feedopt.validation import ValidationCheck, ValidationReport
from tests_common import literal_run, static_instance


def test_run_trials_shape_and_determinism():
    prob, cfg = static_instance()
    d1 = validation.run_trials(prob, cfg, n_steps=30, n_trials=8, seed=5)
    assert d1.shape == (8, 31)
    d2 = validation.run_trials(prob, cfg, n_steps=30, n_trials=8, seed=5)
    np.testing.assert_array_equal(d1, d2)
    with pytest.raises(ValueError, match="at least one trial"):
        validation.run_trials(prob, cfg, 30, 0, seed=5)


def test_run_trials_worker_count_is_invisible():
    prob, cfg = static_instance()
    serial = validation.run_trials(prob, cfg, n_steps=25, n_trials=10, seed=3, n_jobs=1)
    parallel = validation.run_trials(prob, cfg, n_steps=25, n_trials=10, seed=3, n_jobs=2)
    np.testing.assert_array_equal(serial, parallel)


def test_run_trials_streams_are_per_index():
    # trial i draws from child stream (seed, i): extending the ensemble
    # leaves the existing rows untouched
    prob, cfg = static_instance()
    few = validation.run_trials(prob, cfg, n_steps=20, n_trials=3, seed=9)
    many = validation.run_trials(prob, cfg, n_steps=20, n_trials=6, seed=9)
    np.testing.assert_array_equal(few, many[:3])


def weibull_instance():
    """The static instance with Weibull-tailed xi, whose sampler draws magnitudes, then signs."""
    prob, cfg = static_instance()
    return prob, replace(cfg, xi_sampler=subweibull.weibull_tail(1.5, 0.05))


@pytest.mark.parametrize("batch", [1, 7, 20])
def test_run_trials_rows_do_not_depend_on_the_batch(monkeypatch, batch):
    # 20 trials in batches of 1, 7 (7, 7, 6) and all 20 give the same rows bit for bit
    prob, cfg = weibull_instance()
    whole = validation.run_trials(prob, cfg, n_steps=30, n_trials=20, seed=4)
    per_trial = 30 * (1 + 2 * prob.n_inputs + prob.n_outputs)
    calls = []
    real = algorithm.simulate
    monkeypatch.setattr(validation, "_TRIAL_BLOCK_SIZE", batch * per_trial)
    monkeypatch.setattr(algorithm, "simulate", lambda *a, **k: calls.append(len(a[3])) or real(*a, **k))
    np.testing.assert_array_equal(validation.run_trials(prob, cfg, n_steps=30, n_trials=20, seed=4), whole)
    assert calls == [min(batch, 20 - lo) for lo in range(0, 20, batch)]


def test_a_trial_is_a_per_step_loop_over_its_whole_horizon_draws():
    # trial i's row, recomputed step by step from the box midpoint with its
    # stream (seed, i) drawn channel by channel for the whole horizon
    prob, cfg = weibull_instance()
    n_steps, seed = 40, 8
    d = validation.run_trials(prob, cfg, n_steps, n_trials=3, seed=seed)
    for i in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        np.testing.assert_array_equal(d[i], literal_run(prob, cfg, prob.boxes.midpoints[0], rng, n_steps)[2])


def test_expectation_check_passes_on_reference_instance():
    prob, cfg = static_instance()
    inputs = bounds.bound_inputs_from_problem(prob, cfg, 60, seed=21)
    d = validation.run_trials(prob, cfg, n_steps=60, n_trials=100, seed=21)
    report = validation.validate_expectation_bound(d, inputs)
    assert len(report.checks) == 1
    check = report.checks[0]
    assert check.passed
    # the row reads the worst step t >= 1, never the t = 0 anchor, where
    # every trial starts at d0 and the statistic ties the bound
    curve = bounds.expectation_bound(inputs)
    assert check.bound in curve.value[1:] and check.bound != curve.value[0]
    assert check.std_error > 0.0
    assert check.statistic <= check.bound
    assert check.ratio > 1.0  # envelope is strictly loose on average
    with pytest.raises(ValueError, match="at least 100"):
        validation.validate_expectation_bound(d[:50], inputs)
    with pytest.raises(ValueError, match="span t = 0 .. 60"):
        validation.validate_expectation_bound(d[:, :-1], inputs)


def test_hp_check_passes_on_reference_instance():
    prob, cfg = static_instance()
    inputs = bounds.bound_inputs_from_problem(prob, cfg, 40, seed=22)
    d = validation.run_trials(prob, cfg, n_steps=40, n_trials=1000, seed=22)
    report = validation.validate_hp_bound(d, inputs, deltas=(0.3,), check_times=(10, 40))
    assert [c.passed for c in report.checks] == [True, True]
    for check in report.checks:
        assert check.statistic <= check.bound
    with pytest.raises(ValueError, match="at least 1000"):
        validation.validate_hp_bound(d[:10], inputs, (0.3,), (10,))
    with pytest.raises(ValueError, match="check times"):
        validation.validate_hp_bound(d, inputs, (0.3,), (0,))


def test_moment_identity_check():
    report = validation.validate_moment_identity(
        (0.5,), (0.7, 1.0), (5,), (1, 2), n_samples=10**5, seed=2
    )
    assert report.passed
    assert len(report.checks) == 4
    # p = 1 rows are exact up to floating point, far inside the 2% budget
    exact = [c for c in report.checks if "p=1.0" in c.name]
    assert exact and all(c.statistic < 1e-12 for c in exact)
    with pytest.raises(ValueError, match="1e5"):
        validation.validate_moment_identity((0.5,), (1.0,), (5,), (1,), n_samples=10)


def test_sampler_declaration_check_minimum_size():
    report = validation.validate_sampler_declarations(n_samples=10**5, seed=4)
    assert report.passed
    names = {c.name.split(" ")[0] for c in report.checks}
    assert "gaussian(1)" in names and "weibull-tail(theta=1.5)" in names
    with pytest.raises(ValueError, match="1e5"):
        validation.validate_sampler_declarations(n_samples=10**3)


def test_closure_check_minimum_size():
    report = validation.validate_closure_ops(n_samples=10**5, seed=6)
    assert report.passed
    names = [c.name for c in report.checks]
    for tag in ("scale(3x)", "shift(2+x)", "add(x+y)", "mul(x*y)", "error-norm(dim=4)"):
        assert any(n.startswith(tag) for n in names)


def test_closure_check_footprint():
    # The largest set of arrays the closure check holds at once is the error
    # vectors' draw: while the xi magnitudes get their signs, the vectors e,
    # the Weibull magnitudes and the int64 sign bits (8 bytes per dim*n each)
    # and the bool mask of negative signs (1 byte) are alive, 25 bytes per
    # dim*n.  At dim 4 every other stage holds less: x, y, one composition
    # and the two moment buffers of its magnitudes take 40 bytes per n, and e
    # with its row sums and norms 10 per dim*n.  The report and loose Python
    # objects get 256 KiB on top.  tracemalloc sees NumPy's buffers; a first
    # call loads what the check imports lazily.
    dim, n = 4, 10**5
    validation.validate_closure_ops(dim=dim, n_samples=n)
    tracemalloc.start()
    try:
        validation.validate_closure_ops(dim=dim, n_samples=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * dim * n + 256 * 1024


def same_float(a, b):
    """Equal bit for bit, with NaN equal to NaN and -0.0 unequal to 0.0."""
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


MAGNITUDES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-300),  # subnormals included
    st.floats(0.0, 10.0),
    st.floats(1e3, 1e60),  # heavy tails; their 8th powers overflow
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(MAGNITUDES, min_size=2, max_size=300))
@example(values=np.random.default_rng(0).weibull(0.5, 20_001).tolist())  # many pairwise blocks
def test_moment_and_tail_statistics_are_mean_and_std(values):
    # the two-buffer sums equal |x|^k .mean() and .std(ddof=1) / sqrt(n), and
    # the tail count the mean of the exceedance mask, bit for bit
    absx = np.array(values)
    n = absx.shape[0]
    cert = subweibull.SubWeibull(1.0, 1.0)
    report = ValidationReport()
    with np.errstate(all="ignore"):
        validation._moment_checks("x", absx, cert, report)
        validation._tail_checks("x", absx, cert, report)
        for k, check in enumerate(report.checks[: validation._K_MAX], start=1):
            powers = absx ** float(k)
            m_hat = float(powers.mean())
            se = float(powers.std(ddof=1)) / math.sqrt(n)
            assert same_float(check.std_error, se)
            assert same_float(check.statistic, m_hat - 3.0 * se)
    for delta, check in zip(validation._TAIL_DELTAS, report.checks[validation._K_MAX :]):
        assert same_float(check.statistic, float(np.mean(absx >= cert.hp_bound(delta))))


def test_report_summary_and_csv(tmp_path):
    report = ValidationReport(
        [
            ValidationCheck("alpha", True, 0.5, 1.0, 100, 0.01, 2.0),
            ValidationCheck("beta", False, 2.0, 1.0, 100, 0.01, 0.5),
        ],
    )
    assert not report.passed
    text = report.summary()
    assert text.splitlines()[0].startswith("PASS  alpha")
    assert text.splitlines()[1].startswith("FAIL  beta")
    assert text.splitlines()[-1] == "2 checks, SOME CHECKS FAILED"
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,passed,statistic,bound,n_samples,std_error,ratio"
    assert lines[2].split(",")[1] == "0"


def test_binomial_quantile_matches_scipy_stats():
    from scipy.stats import binom

    ns = np.geomspace(1000, 1234567, 28).astype(int)
    ns = np.unique(np.concatenate([[1, 2, 10, 100, 10**5, 10**6], ns]))
    deltas = np.concatenate([np.geomspace(0.001, 0.5, 30), [0.01, 0.1, 0.3]])
    for n in ns:
        got = [validation._binom_quantile(int(n), float(d)) for d in deltas]
        np.testing.assert_array_equal(got, binom.ppf(0.99, n, deltas), err_msg=f"n={n}")


def test_report_extend_merges_checks():
    a = ValidationReport([ValidationCheck("x", True, 0, 1, 10, 0, 1)])
    b = ValidationReport([ValidationCheck("y", True, 0, 1, 10, 0, 1)])
    merged = a.extend(b)
    assert merged is a
    assert [c.name for c in a.checks] == ["x", "y"]


def test_synthetic_instance_properties():
    prob, cfg = validation.synthetic_instance()
    assert prob.n_inputs == 6 and prob.n_steps == 500
    mu, L = prob.curvature_all()
    assert np.all(mu > 0)
    assert cfg.alpha == pytest.approx(1.0 / float(L.max()))
    assert cfg.p == 0.7
    # same seed, same instance
    prob2, _ = validation.synthetic_instance()
    np.testing.assert_array_equal(prob2.plant.G, prob.plant.G)
    prob3, _ = validation.synthetic_instance(seed=12)
    assert not np.array_equal(prob3.plant.G, prob.plant.G)
