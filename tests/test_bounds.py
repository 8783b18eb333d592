"""Envelope evaluators checked against brute-force reference computations.

The production code evaluates the product-weighted sums through forward
recurrences; the references here expand the sums literally, so any indexing
slip between the two shows up immediately.
"""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedopt import algorithm, bounds, cli, gplearn, problem, scenario, subweibull, validation
from feedopt.bounds import BoundInputs


def make_inputs(T=12, alpha=0.4, p=0.7, seed=0):
    rng = np.random.default_rng(seed)
    zeta_t = np.concatenate(([0.9], rng.uniform(0.55, 0.92, T)))
    phi = rng.uniform(0.0, 0.3, T)
    e_mean = rng.uniform(0.05, 0.2, T + 1)
    nu_e = rng.uniform(0.5, 2.0, T + 1)
    return BoundInputs(
        alpha=alpha, p=p, zeta_t=zeta_t, phi=phi, e_mean=e_mean, nu_e=nu_e,
        theta_e=1.0, d0=3.0,
    )


# -- elementary pieces ---------------------------------------------------------


def test_zeta_values():
    # the rates max(|1 - alpha mu_t|, |1 - alpha L_t|), against eigenvalues of
    # the Hessian built by hand
    from tests_common import reference_hessian, static_instance

    prob, cfg = static_instance(n_t=11)
    mu, L = np.linalg.eigvalsh(reference_hessian(prob, 0))[[0, -1]]
    for alpha, expected in (
        (1.0 / L, 1.0 - mu / L),
        (0.5 / L, 1.0 - 0.5 * mu / L),
        # minimized at alpha = 2/(mu+L), where both ends are equal
        (2.0 / (mu + L), (L - mu) / (L + mu)),
        (1.9 / L, 0.9),
    ):
        inputs = bounds.bound_inputs_from_problem(prob, replace(cfg, alpha=alpha), n_steps=10)
        np.testing.assert_allclose(inputs.zeta_t, expected, rtol=1e-12)
        np.testing.assert_array_equal(inputs.zeta_t, prob.contraction_rates(alpha, 10))
    # alpha = 2/L is the first step size past the contraction condition
    with pytest.raises(ValueError, match="violates the contraction condition"):
        prob.contraction_rates(2.0 / L, 10)


def test_binomial_moment_frozen_and_exact_at_p1():
    assert bounds.binomial_moment(0.5, 0.5, 2, 1) == pytest.approx(0.5625)
    # p = 1 collapses to zeta^t exactly
    for zeta_val in (0.3, 0.9):
        for t in (0, 3, 17):
            assert bounds.binomial_moment(zeta_val, 1.0, t, 4) == pytest.approx(
                zeta_val**t, rel=1e-12
            )
    with pytest.raises(ValueError, match="zeta"):
        bounds.binomial_moment(1.2, 0.5, 2, 1)
    with pytest.raises(ValueError, match="moment order"):
        bounds.binomial_moment(0.5, 0.5, 2, 0.5)


def test_binomial_moment_matches_direct_expectation():
    # small t: enumerate Binomial(t, p) outcomes exactly
    from scipy.stats import binom

    zeta_val, p, t, k = 0.6, 0.4, 6, 3.0
    direct = sum(
        binom.pmf(j, t, p) * zeta_val ** (k * j) for j in range(t + 1)
    ) ** (1.0 / k)
    assert bounds.binomial_moment(zeta_val, p, t, k) == pytest.approx(direct, rel=1e-12)


def test_eta_frozen_value_and_maximizer():
    # the supremum sits at k = 1 here: (1 - p + p zeta)^t
    assert math.exp(bounds.log_eta(2, 0.5, 0.5)) == pytest.approx(0.5625, rel=1e-15)
    # interior maximisers at k = 144.4767 (beyond max(t, 100)) and at
    # k = 64.3775 (not an integer); values computed at 40 significant digits
    assert bounds.log_eta(60, 0.7, 0.8) == pytest.approx(-2.9865592508221961566, rel=1e-14)
    assert bounds.log_eta(20, 0.8, 0.6) == pytest.approx(-2.5823822247205169713, rel=1e-14)
    # the k = 1 candidate is (1-p+p*zeta)^t; eta can only improve on it
    for t in (1, 10, 60):
        assert bounds.log_eta(t, 0.7, 0.8) >= t * math.log(1 - 0.7 + 0.7 * 0.8) - 1e-15
    with pytest.raises(ValueError, match="t >= 1"):
        bounds.log_eta(0, 0.5, 0.5)
    with pytest.raises(ValueError, match="contraction factor"):
        bounds.log_eta(2, 0.5, 1.0)
    with pytest.raises(ValueError, match="availability"):
        bounds.log_eta(2, 0.0, 0.5)


DENSE_POINTS = 100_001
# ln(eta) of the search and of a dense grid may differ by rounding, a few
# ulps of |ln eta|; this allowance is 1e-13 of it.
LOG_ROUNDING = 1e-13


def dense_log_eta(t, p, zeta):
    """``ln sup_k (1-p+p zeta^k)^(t/k)/sqrt(k)`` by brute force: a log-spaced
    grid of DENSE_POINTS on ``[1, 4 K_t]`` (``K_t = 2t ln(1/(1-p))``), then a
    second one of the same size across the neighbours of its best point."""
    log_zeta = math.log(zeta)

    def h(k):
        if p == 1.0:
            base = k * log_zeta
        else:
            zk = np.exp(k * log_zeta)
            near_one = p * (1.0 - zk) <= 0.5
            base = np.where(
                near_one,
                np.log1p(p * np.expm1(k * log_zeta)),
                np.log(np.where(near_one, 1.0, (1.0 - p) + p * zk)),
            )
        return t / k * base - 0.5 * np.log(k)

    k_hi = 4.0 if p == 1.0 else max(-8.0 * t * math.log1p(-p), 4.0)  # 4 K_t
    u = np.linspace(0.0, math.log(k_hi), DENSE_POINTS)
    vals = h(np.exp(u))
    j = int(np.argmax(vals))
    fine = np.linspace(u[max(j - 1, 0)], u[min(j + 1, u.size - 1)], DENSE_POINTS)
    return max(float(vals[j]), float(h(np.exp(fine)).max()))


unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
availability = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 10**4), p=availability, zeta=unit_open)
def test_log_eta_is_the_supremum_over_real_k(t, p, zeta):
    got = float(bounds.log_eta(t, p, zeta))
    ref = dense_log_eta(t, p, zeta)
    slack = LOG_ROUNDING * abs(ref)
    # never below the dense search, and above it by less than 1e-9 of eta
    assert got >= ref - slack
    assert got <= ref + math.log1p(1e-9) + slack


@settings(max_examples=40, deadline=None)
@given(
    p=availability,
    points=st.lists(st.tuples(st.integers(1, 10**4), unit_open), min_size=1, max_size=12),
)
def test_log_eta_vectorised_equals_scalar_calls(p, points):
    t = np.array([pt[0] for pt in points])
    zeta = np.array([pt[1] for pt in points])
    together = bounds.log_eta(t, p, zeta)
    alone = [bounds.log_eta(int(ti), p, float(zi)) for ti, zi in points]
    np.testing.assert_array_equal(together, np.array(alone))
    # the scalar call returns a scalar
    assert np.ndim(alone[0]) == 0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10**4), p=availability, zeta=unit_open)
def test_log_eta_is_nonincreasing_in_t(n, p, zeta):
    vals = bounds.log_eta(np.arange(1, n + 1), p, zeta)
    assert np.all(np.diff(vals) <= 0.0)


@settings(max_examples=40, deadline=None)
@given(t=st.integers(1, 10**4), zeta=unit_open)
@example(t=8640, zeta=0.01)  # eta itself, 0.01^8640, underflows; its log must not
def test_log_eta_at_full_availability_is_t_log_zeta(t, zeta):
    got = bounds.log_eta(t, 1.0, zeta)
    assert math.isfinite(got) and got == t * np.log(zeta)


# -- input container -----------------------------------------------------------


def test_bound_inputs_validation():
    ok = make_inputs()
    assert ok.horizon == 12
    np.testing.assert_allclose(ok.rho, 1 - ok.p + ok.p * ok.zeta_t)
    with pytest.raises(ValueError, match="at least one step"):
        BoundInputs(0.4, 0.7, ok.zeta_t[:1], ok.phi[:0], ok.e_mean[:1], ok.nu_e[:1], 1.0, 1.0)
    with pytest.raises(ValueError, match="one entry fewer"):
        BoundInputs(0.4, 0.7, ok.zeta_t, ok.phi[:-1], ok.e_mean, ok.nu_e, 1.0, 1.0)
    with pytest.raises(ValueError, match="align"):
        BoundInputs(0.4, 0.7, ok.zeta_t, ok.phi, ok.e_mean[:-1], ok.nu_e[:-1], 1.0, 1.0)
    bad_zeta = ok.zeta_t.copy()
    bad_zeta[3] = 1.0
    with pytest.raises(ValueError, match="contraction factors"):
        BoundInputs(0.4, 0.7, bad_zeta, ok.phi, ok.e_mean, ok.nu_e, 1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        BoundInputs(0.4, 0.7, ok.zeta_t, -ok.phi, ok.e_mean, ok.nu_e, 1.0, 1.0)
    with pytest.raises(ValueError, match="initial distance"):
        BoundInputs(0.4, 0.7, ok.zeta_t, ok.phi, ok.e_mean, ok.nu_e, 1.0, -1.0)
    with pytest.raises(ValueError, match="tail exponent"):
        BoundInputs(0.4, 0.7, ok.zeta_t, ok.phi, ok.e_mean, ok.nu_e, 0.0, 1.0)
    with pytest.raises(ValueError, match="delta"):
        bounds.hp_bound_trajectory(ok, 0.0)


# -- expectation envelope --------------------------------------------------------


def brute_force_expectation(inputs, T):
    rho = inputs.rho
    out = np.empty(T + 1)
    out[0] = inputs.d0
    for t in range(1, T + 1):
        trans = inputs.d0 * np.prod(rho[1 : t + 1])
        path = sum(np.prod(rho[i : t + 1]) * inputs.phi[i - 1] for i in range(1, t + 1))
        err = sum(
            np.prod(rho[i + 1 : t + 1]) * inputs.alpha * inputs.p * inputs.e_mean[i]
            for i in range(1, t + 1)
        )
        out[t] = trans + path + err
    return out


def test_expectation_bound_matches_literal_sums():
    inputs = make_inputs()
    curve = bounds.expectation_bound(inputs)
    np.testing.assert_allclose(curve.value, brute_force_expectation(inputs, 12), rtol=1e-12)
    assert curve.value[0] == inputs.d0
    np.testing.assert_allclose(
        curve.value, curve.transient + curve.path_term + curve.error_term, rtol=1e-12
    )


def test_asymptotic_envelope_dominates_the_exact_one():
    inputs = make_inputs()
    exact = bounds.expectation_bound(inputs)
    geo = bounds.expectation_bound_asymptotic(inputs)
    assert np.all(geo.value >= exact.value - 1e-12)
    # geometric transient decays to the fixed-point level
    tail_span = geo.value[-1] - (geo.path_term[-1] + geo.error_term[-1])
    assert tail_span == pytest.approx(geo.transient[-1])


def test_expectation_bound_dominates_a_simulated_static_mean():
    # cheap end-to-end sanity: static instance, modest ensemble
    from tests_common import static_instance

    prob, cfg = static_instance()
    inputs = bounds.bound_inputs_from_problem(prob, cfg, n_steps=80, seed=1)
    curve = bounds.expectation_bound(inputs)
    d = np.stack(
        [
            algorithm.simulate(
                prob, cfg, None, [np.random.default_rng(np.random.SeedSequence(2, spawn_key=(i,)))],
                n_steps=80,
            )[0].d
            for i in range(60)
        ]
    )
    assert np.all(d.mean(axis=0) <= curve.value + 1e-12)


# -- high-probability envelope -----------------------------------------------------


def brute_force_hp(inputs, T, delta):
    theta_x = max(1.0, inputs.theta_e)
    pref = math.log(2.0 / delta) ** theta_x * (2 * math.e / theta_x) ** theta_x
    phi_pad = np.concatenate((inputs.phi[:T], [0.0]))
    out = np.empty(T + 1)
    out[0] = pref * inputs.d0
    for t in range(1, T + 1):
        zs = float(inputs.zeta_t[1 : t + 1].max())
        eta_t = math.exp(dense_log_eta(t, inputs.p, zs))
        geo = (1 - zs**t) / (1 - zs)
        joint = max(
            inputs.alpha * inputs.nu_e[i] + phi_pad[i] / inputs.p for i in range(t + 1)
        )
        out[t] = pref * (inputs.d0 * eta_t + geo * joint)
    return out


def test_hp_bound_matches_literal_construction():
    inputs = make_inputs()
    curve = bounds.hp_bound_trajectory(inputs, 0.1)
    np.testing.assert_allclose(curve.value, brute_force_hp(inputs, 12, 0.1), rtol=1e-12)


def test_hp_bound_grows_as_delta_shrinks():
    tight = bounds.hp_bound_trajectory(make_inputs(), 0.3)
    loose = bounds.hp_bound_trajectory(make_inputs(), 0.01)
    assert np.all(loose.value[1:] > tight.value[1:])


def test_hp_bound_needs_delta():
    with pytest.raises(TypeError):
        bounds.hp_bound_trajectory(make_inputs())
    for delta in (0.0, 1.0):
        with pytest.raises(ValueError, match="delta"):
            bounds.hp_bound_trajectory(make_inputs(), delta)


@st.composite
def bound_inputs(draw):
    """Random envelope inputs: horizon 1..40, rates in (0, 1), p in (0, 1]."""
    T = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    zeta_lo = draw(st.floats(0.01, 0.98))
    return BoundInputs(
        alpha=draw(st.floats(0.01, 2.0)),
        p=draw(st.floats(0.05, 1.0)),
        zeta_t=rng.uniform(zeta_lo, 0.99, T + 1),
        phi=rng.uniform(0.0, draw(st.floats(0.0, 5.0)), T),
        e_mean=rng.uniform(0.0, draw(st.floats(0.0, 2.0)), T + 1),
        nu_e=rng.uniform(0.0, draw(st.floats(0.0, 3.0)), T + 1),
        theta_e=draw(st.floats(0.1, 3.0)),
        d0=draw(st.floats(0.0, 50.0)),
    )


@settings(max_examples=60, deadline=None)
@given(inputs=bound_inputs())
def test_expectation_bound_never_exceeds_its_asymptotic_relaxation(inputs):
    exact = bounds.expectation_bound(inputs)
    geo = bounds.expectation_bound_asymptotic(inputs)
    assert np.all(exact.value <= geo.value * (1.0 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(inputs=bound_inputs(), deltas=st.lists(st.floats(1e-6, 0.999), min_size=2, max_size=4))
def test_hp_bound_is_nonincreasing_in_delta(inputs, deltas):
    curves = [
        bounds.hp_bound_trajectory(inputs, d).value for d in sorted(deltas)
    ]
    for smaller, larger in zip(curves, curves[1:]):
        assert np.all(larger <= smaller)


# -- error statistics ----------------------------------------------------------------


def test_expected_error_norm_matches_chi_mean():
    # eps gaussian, xi silent, dim 2: ||e|| is scale * chi(2)
    rng = np.random.default_rng(0)
    mean, se = bounds.expected_error_norm(
        subweibull.gaussian(0.3), subweibull.zero(), 2, 200_000, rng
    )
    assert se > 0
    assert mean == pytest.approx(0.3 * math.sqrt(math.pi / 2.0), abs=4 * se)


def test_expected_error_norm_degenerate_and_validation():
    rng = np.random.default_rng(0)
    assert bounds.expected_error_norm(
        subweibull.zero(), subweibull.zero(), 3, 10**4, rng
    ) == (0.0, 0.0)
    with pytest.raises(ValueError, match="1e4 samples"):
        bounds.expected_error_norm(subweibull.zero(), subweibull.zero(), 3, 100, rng)


def test_expected_error_norm_with_measurement_noise():
    rng = np.random.default_rng(1)
    base, _ = bounds.expected_error_norm(
        subweibull.gaussian(0.1), subweibull.zero(), 2, 50_000,
        np.random.default_rng(1),
    )
    with_noise, _ = bounds.expected_error_norm(
        subweibull.gaussian(0.1), subweibull.zero(), 2, 50_000, rng,
        noise_sampler=subweibull.gaussian(0.5), noise_map=np.ones((2, 3)),
    )
    assert with_noise > base


def test_effective_tracking_error_class():
    xi = subweibull.SubWeibull(1.0, 0.2)
    assert bounds.effective_tracking_error_class(xi) is xi
    noise = subweibull.SubWeibull(0.5, 0.1)
    grown = bounds.effective_tracking_error_class(
        xi, noise, np.array([[1.0, -2.0], [0.5, 0.5]])
    )
    # worst absolute row sum of the map is 3
    assert grown.theta == 1.0
    assert grown.nu == pytest.approx(0.2 + 0.3)
    silent = bounds.effective_tracking_error_class(xi, subweibull.SubWeibull(0.5, 0.0), None)
    assert silent is xi


# -- assembly from a problem ----------------------------------------------------------


def test_bound_inputs_from_problem_shapes_and_fields():
    from tests_common import static_instance

    prob, cfg = static_instance()
    inputs = bounds.bound_inputs_from_problem(prob, cfg, n_steps=40, seed=3)
    assert inputs.horizon == 40
    assert inputs.alpha == cfg.alpha and inputs.p == cfg.p
    assert inputs.phi.shape == (40,)
    assert np.all(inputs.nu_e == inputs.nu_e[0])  # stationary noise model
    assert inputs.theta_e == 0.5
    # d0 defaults to the distance from the step-0 box midpoint
    mid = 0.5 * (prob.boxes.lower[0] + prob.boxes.upper[0])
    d0 = float(np.linalg.norm(mid - prob.optimal_points()[0]))
    assert inputs.d0 == pytest.approx(d0)
    with pytest.raises(ValueError, match="horizon"):
        bounds.bound_inputs_from_problem(prob, cfg, n_steps=10**6)


def test_envelope_anchor_is_the_default_start():
    # d0 is measured from where simulate starts a run by default; the boxes are
    # off-centre, so a start at the origin would not pass
    from tests_common import static_instance

    prob, cfg = static_instance()
    n_t = prob.n_steps + 1
    boxes = problem.BoxSchedule(np.tile([-1.0, 0.5, -2.5], (n_t, 1)), np.tile([2.0, 3.0, 0.5], (n_t, 1)))
    prob = problem.TimeVaryingProblem(prob.plant, boxes, prob.costs)
    inputs = bounds.bound_inputs_from_problem(prob, cfg, n_steps=20, seed=3)
    traj = algorithm.simulate(prob, cfg, None, [np.random.default_rng(0)], n_steps=20)[0]
    np.testing.assert_array_equal(traj.x[0], [0.5, 1.75, -1.0])
    assert inputs.d0 == float(np.linalg.norm(traj.x[0] - prob.optimal_points()[0]))
    assert inputs.d0 == pytest.approx(traj.d[0], rel=1e-12)


def test_bound_inputs_silent_noise_gives_zero_error_mean():
    from tests_common import static_instance

    prob, cfg = static_instance(silent=True)
    inputs = bounds.bound_inputs_from_problem(prob, cfg, n_steps=20)
    assert np.all(inputs.e_mean == 0.0)
    assert np.all(inputs.nu_e == 0.0)


EDGE_VALUES = [0.0, -0.0, 1e-300, 1e-5, 1.5e16, math.inf, math.nan, 1.0 / 3.0, -2.5e-7]
# integers past 1e15 read differently as {:d} and as {:.15g}
EDGE_INTS = [0, 1, -7, 10**15 + 1, 2**62]


def reference_csv(path, header, rows):
    """Every table's format spelt out with ``csv.writer`` and ``format``:
    Python floats with 15 significant digits, ints and strings as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".15g") if isinstance(v, float) else v for v in row])


def assert_matches_reference(path, header, rows):
    ref = path.with_name("ref_" + path.name)
    reference_csv(ref, header, rows)
    assert path.read_bytes() == ref.read_bytes(), path.name


# the faked posterior mean holds inf, so gp-demo's central difference reads nan
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_csv_writers_match_a_csv_writer_reference(tmp_path, monkeypatch):
    vals = np.array(EDGE_VALUES)
    n = vals.size
    rolled = [np.roll(vals, j) for j in range(8)]

    t = np.resize(EDGE_INTS, n)
    curve = bounds.BoundCurve(
        t=t, value=vals, transient=rolled[1], path_term=rolled[2], error_term=rolled[3]
    )
    curve.to_csv(tmp_path / "curve.csv")
    assert_matches_reference(
        tmp_path / "curve.csv",
        ["t", "bound", "transient_term", "path_term", "error_term"],
        [[int(t[i])] + [float(c[i]) for c in (vals, *rolled[1:4])] for i in range(n)],
    )

    x = np.stack(rolled[:3], axis=1)
    v = (np.arange(n) % 2).astype(np.int8)
    traj = algorithm.Trajectory(x=x, v=v, d=rolled[4], e_norm=rolled[5])
    traj.to_csv(tmp_path / "traj.csv")
    assert_matches_reference(
        tmp_path / "traj.csv",
        ["t", "v", "d_t", "e_norm", "x_1", "x_2", "x_3"],
        [[i, int(v[i])] + [float(c) for c in (rolled[4][i], rolled[5][i], *x[i])] for i in range(n)],
    )

    res = scenario.ExperimentResult(p_values=(0.4, 1.0, 1e-300), modes=("exact", "gp"), horizon=n)
    keys = [(p, m) for p in res.p_values for m in res.modes]
    for i, key in enumerate(keys):
        res.mean_d[key], res.std_d[key] = rolled[i % 8], rolled[(i + 3) % 8]
    res.to_csv(tmp_path / "summary.csv")
    assert_matches_reference(
        tmp_path / "summary.csv",
        ["p", "mode", "t", "mean_d", "std_d"],
        [
            [format(p, ".15g"), m, i + 1, float(res.mean_d[(p, m)][i]), float(res.std_d[(p, m)][i])]
            for p, m in keys for i in range(n)
        ],
    )

    checks = [
        validation.ValidationCheck(
            f"check {i} delta=0.1", bool(i % 2), float(vals[i]), float(rolled[1][i]),
            EDGE_INTS[i % len(EDGE_INTS)], float(rolled[2][i]), float(rolled[3][i]),
        )
        for i in range(n)
    ]
    validation.ValidationReport(checks).to_csv(tmp_path / "report.csv")
    assert_matches_reference(
        tmp_path / "report.csv",
        ["name", "passed", "statistic", "bound", "n_samples", "std_error", "ratio"],
        [
            [c.name, int(c.passed), c.statistic, c.bound, c.n_samples, c.std_error, c.ratio]
            for c in checks
        ],
    )

    # gp-demo: the learner's outputs replaced by edge values
    scen = scenario.ScenarioConfig(horizon=60, switch_steps=(20, 40))
    m, n_grid = scen.n_ders, 101
    fake = [np.resize(np.roll(vals, j), (1, m, n_grid)) for j in range(3)]
    for name, out in zip(("posterior_mean", "posterior_var", "mean_gradient"), fake):
        monkeypatch.setattr(gplearn.GPPosterior, name, lambda self, xs, out=out: out)
    prob = scenario.build_scenario(scen)
    lo, up = prob.boxes.lower[0], prob.boxes.upper[0]
    grid = np.linspace(lo, up, n_grid, axis=-1)
    coords = np.arange(m)[:, None]
    true_u = scenario.coordinate_cost(prob, coords, grid, 0)
    true_du = 2.0 * prob.costs.a[0, coords] * grid + prob.costs.b[0, coords]
    ini = tmp_path / "gp.ini"
    ini.write_text("[costs]\nswitch_steps = 20, 40\n[suite]\nhorizon = 60\n")
    assert cli.main(["gp-demo", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert_matches_reference(
        tmp_path / "gp_demo.csv",
        ["coord", "x", "true_u", "true_du", "gp_mean", "gp_var", "gp_grad"],
        [
            [j] + [float(v[j, i]) for v in (grid, true_u, true_du, fake[0][0], fake[1][0], fake[2][0])]
            for j in range(m) for i in range(n_grid)
        ],
    )


def test_bound_curve_csv(tmp_path):
    curve = bounds.expectation_bound(make_inputs(T=4))
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,bound,transient_term,path_term,error_term"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == pytest.approx(curve.value[0])
