"""Monte Carlo harness: trial reproducibility, check pass/fail wiring.

Full-scale dominance runs live in test_acceptance.py; these stay at the
smallest sample sizes the harness accepts.
"""

import numpy as np
import pytest

from feedopt import bounds, validation
from feedopt.validation import ValidationCheck, ValidationReport
from tests_common import static_instance


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


def test_expectation_check_passes_on_reference_instance():
    prob, cfg = static_instance()
    inputs = bounds.bound_inputs_from_problem(prob, cfg, 60, seed=21)
    report = validation.validate_expectation_bound(prob, cfg, inputs, n_trials=100, seed=21)
    assert len(report.checks) == 1
    check = report.checks[0]
    assert check.passed
    # the worst point can be the deterministic t = 0 anchor, where the
    # statistic ties the bound up to float rounding
    assert check.statistic <= check.bound * (1 + 1e-9)
    assert check.ratio > 1.0  # envelope is strictly loose on average
    with pytest.raises(ValueError, match="at least 100"):
        validation.validate_expectation_bound(prob, cfg, inputs, 50, seed=21)


def test_hp_check_passes_on_reference_instance():
    prob, cfg = static_instance()
    inputs = bounds.bound_inputs_from_problem(prob, cfg, 40, seed=22)
    report = validation.validate_hp_bound(
        prob, cfg, inputs, n_trials=1000, deltas=(0.3,), check_times=(10, 40), seed=22,
    )
    assert [c.passed for c in report.checks] == [True, True]
    for check in report.checks:
        assert check.statistic <= check.bound
    with pytest.raises(ValueError, match="at least 1000"):
        validation.validate_hp_bound(prob, cfg, inputs, 10, (0.3,), (10,), seed=22)
    with pytest.raises(ValueError, match="check times"):
        validation.validate_hp_bound(prob, cfg, inputs, 1000, (0.3,), (0,), seed=22)


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
