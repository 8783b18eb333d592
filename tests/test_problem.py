"""Time-varying problem model: gradients, curvature, projection, optima.

Costs, gradients, Hessians and optima are checked against the scalar
reference oracle in ``tests_common``, which works on the raw arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from feedopt import problem
from tests_common import (
    from_dict,
    reference_cost,
    reference_gradient,
    reference_hessian,
    reference_optimum,
)


def small_instance(n_t=6):
    """Two inputs, one output, handcrafted schedules."""
    G = np.array([[1.0, 0.5]])
    H = np.array([[1.0]])
    t = np.arange(n_t, dtype=float)
    y_ref = (1.0 + 0.2 * t)[:, None]
    a = np.tile([0.5, 0.8], (n_t, 1))
    b = np.tile([0.1, -0.2], (n_t, 1))
    c = np.tile([0.0, 0.3], (n_t, 1))
    w = 0.5 * np.ones((n_t, 1))
    lower = np.full((n_t, 2), -2.0)
    upper = np.full((n_t, 2), 2.0)
    return problem.TimeVaryingProblem(
        problem.LinearPlantMap(G, H),
        problem.BoxSchedule(lower, upper),
        problem.CostSchedule(1.0, y_ref, a, b, c, w),
    )


# -- construction validation ---------------------------------------------------


def test_plant_map_shape_checks():
    with pytest.raises(ValueError, match="output dimension"):
        problem.LinearPlantMap(np.ones((2, 3)), np.ones((1, 1)))
    plant = problem.LinearPlantMap([1.0, 2.0], [[3.0]])
    assert plant.G.shape == (1, 2) and plant.H.shape == (1, 1)


def test_box_schedule_validation():
    with pytest.raises(ValueError, match="identical shapes"):
        problem.BoxSchedule(np.zeros((3, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="lower > upper"):
        problem.BoxSchedule(np.ones((3, 2)), np.zeros((3, 2)))


def test_cost_schedule_validation():
    n_t = 4
    ok = dict(
        y_ref=np.zeros((n_t, 1)), a=np.ones((n_t, 2)), b=np.zeros((n_t, 2)),
        c=np.zeros((n_t, 2)), w=np.zeros((n_t, 1)),
    )
    with pytest.raises(ValueError, match="beta must be positive"):
        problem.CostSchedule(0.0, **ok)
    with pytest.raises(ValueError, match="nonnegative"):
        problem.CostSchedule(1.0, ok["y_ref"], -np.ones((n_t, 2)), ok["b"], ok["c"], ok["w"])
    with pytest.raises(ValueError, match="horizon length"):
        problem.CostSchedule(1.0, np.zeros((n_t + 1, 1)), ok["a"], ok["b"], ok["c"], ok["w"])


def test_problem_cross_checks_dimensions():
    prob = small_instance()
    bad_boxes = problem.BoxSchedule(np.full((6, 3), -1.0), np.full((6, 3), 1.0))
    with pytest.raises(ValueError, match="box schedule dimension"):
        problem.TimeVaryingProblem(prob.plant, bad_boxes, prob.costs)


def test_time_index_bounds():
    prob = small_instance()
    assert prob.n_steps == 5
    with pytest.raises(IndexError):
        prob.project(np.zeros(2), 6)
    with pytest.raises(IndexError):
        prob.u_gradient(np.zeros(2), -1)


# -- cost and gradient identities ------------------------------------------------


def test_cost_value_by_hand():
    prob = small_instance()
    x = np.array([1.0, -1.0])
    t = 2
    # output = G x + H w = 1 - 0.5 + 0.5 = 1.0, resid = 1.0 - 1.4
    resid = 1.0 - 1.4
    expected = 0.5 * resid**2 + (0.5 * 1 + 0.8 * 1) + (0.1 * 1.0 + (-0.2) * (-1.0)) + 0.3
    assert reference_cost(prob, x, t) == pytest.approx(expected, rel=1e-14)


def test_exact_gradient_matches_finite_differences():
    prob = small_instance()
    rng = np.random.default_rng(0)
    for t in (0, 3, 5):
        x = rng.uniform(-1.5, 1.5, 2)
        grad = reference_gradient(prob, x, t)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (reference_cost(prob, x + e, t) - reference_cost(prob, x - e, t)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_decomposition():
    # exact gradient = tracking part at the model output + input-cost part
    prob = small_instance()
    G, H, costs = prob.plant.G, prob.plant.H, prob.costs
    x = np.array([0.3, -0.7])
    for t in range(prob.n_steps + 1):
        y = G @ x + H @ costs.w[t]
        lhs = reference_gradient(prob, x, t)
        rhs = costs.beta * (G.T @ (y - costs.y_ref[t])) + prob.u_gradient(x, t)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)


def test_projection_is_clipping_and_idempotent():
    prob = small_instance()
    z = np.array([5.0, -5.0])
    px = prob.project(z, 1)
    np.testing.assert_allclose(px, [2.0, -2.0])
    np.testing.assert_allclose(prob.project(px, 1), px)
    # variational inequality: (z - Pz) @ (x - Pz) <= 0 for feasible x
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.uniform(-6, 6, 2)
        pz = prob.project(z, 0)
        x = rng.uniform(-2, 2, 2)
        assert float((z - pz) @ (x - pz)) <= 1e-12


# -- curvature -------------------------------------------------------------------


def test_hessian_and_curvature_match_eigenvalues():
    prob = small_instance()
    mu, L = prob.curvature_all()
    for t in (0, 4):
        hess = reference_hessian(prob, t)
        G = prob.plant.G
        np.testing.assert_allclose(hess, G.T @ G + np.diag([1.0, 1.6]), rtol=1e-14)
        evals = np.linalg.eigvalsh(hess)
        assert mu[t] == pytest.approx(evals[0], rel=1e-12)
        assert L[t] == pytest.approx(evals[-1], rel=1e-12)
    assert mu.shape == L.shape == (prob.n_steps + 1,)
    assert np.all(mu > 0) and np.all(L >= mu)


def test_rayleigh_quotients_sit_between_curvature_constants():
    prob = small_instance()
    hess = reference_hessian(prob, 2)
    mu, L = (c[2] for c in prob.curvature_all())
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        q = float(u @ hess @ u)
        assert mu - 1e-12 <= q <= L + 1e-12


def test_degenerate_cost_raises_strong_convexity_error():
    # a = 0 and a rank-deficient G^T G leave a zero-curvature direction
    n_t = 3
    costs = problem.CostSchedule(
        1.0, np.zeros((n_t, 1)), np.zeros((n_t, 2)), np.zeros((n_t, 2)),
        np.zeros((n_t, 2)), np.zeros((n_t, 1)),
    )
    prob = problem.TimeVaryingProblem(
        problem.LinearPlantMap(np.array([[1.0, 0.0]]), np.array([[1.0]])),
        problem.BoxSchedule(np.full((n_t, 2), -1.0), np.full((n_t, 2), 1.0)),
        costs,
    )
    with pytest.raises(ValueError, match="not strongly convex"):
        prob.curvature_all()


# -- optimizer oracle --------------------------------------------------------------


def test_optimal_point_satisfies_variational_inequality():
    prob = small_instance()
    rng = np.random.default_rng(3)
    for t in range(prob.n_steps + 1):
        xs = prob.optimal_points()[t]
        g = reference_gradient(prob, xs, t)
        for _ in range(25):
            x = rng.uniform(-2, 2, 2)
            assert float(g @ (x - xs)) >= -1e-7
        # and the fixed-point characterization of projected gradient
        np.testing.assert_allclose(
            prob.project(xs - 0.1 * g, t), xs, atol=1e-8
        )


def test_optimal_points_consistency_and_cache():
    prob = small_instance()
    batch = prob.optimal_points()
    assert batch.shape == (prob.n_steps + 1, 2)
    for t in range(prob.n_steps + 1):
        np.testing.assert_allclose(batch[t], reference_optimum(prob, t), atol=1e-8)
    again = prob.optimal_points()
    assert again is batch  # cached


def test_active_box_constraint_is_respected():
    prob = small_instance()
    # shrink boxes so the unconstrained optimum is cut off
    tight = problem.TimeVaryingProblem(
        prob.plant,
        problem.BoxSchedule(np.full((6, 2), 0.9), np.full((6, 2), 1.4)),
        prob.costs,
    )
    xs = tight.optimal_points()[0]
    assert np.all(xs >= 0.9 - 1e-12) and np.all(xs <= 1.4 + 1e-12)
    # the cut-off optimum sits on a face, where the reference lands too
    assert np.any(np.isclose(xs, 0.9) | np.isclose(xs, 1.4))
    np.testing.assert_allclose(xs, reference_optimum(tight, 0), atol=1e-8)


def test_path_lengths():
    prob = small_instance()
    opt = prob.optimal_points()
    lengths = prob.path_lengths()
    assert lengths.shape == (prob.n_steps,)
    for t in range(prob.n_steps):
        assert lengths[t] == pytest.approx(float(np.linalg.norm(opt[t] - opt[t + 1])))


def test_contraction_rates_own_the_step_range():
    # the one step-range rule, which simulate and the envelope inputs meet here
    prob = small_instance()
    alpha = 1.0 / float(prob.curvature_all()[1].max())
    for n_steps in (0, prob.n_steps + 1):
        with pytest.raises(ValueError, match=r"step count must lie in \[1, 5\] \(the horizon\)"):
            prob.contraction_rates(alpha, n_steps)
    assert prob.contraction_rates(alpha, 1).shape == (2,)
    assert prob.contraction_rates(alpha, prob.n_steps).shape == (prob.n_steps + 1,)


def test_oracle_non_convergence_is_reported(monkeypatch):
    monkeypatch.setattr(problem, "_ORACLE_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not reach residual"):
        small_instance().optimal_points()


# -- serialization ------------------------------------------------------------------


def test_dict_round_trip():
    prob = small_instance()
    clone = from_dict(dict(prob.iter_dict()))
    np.testing.assert_array_equal(clone.plant.G, prob.plant.G)
    np.testing.assert_array_equal(clone.costs.b, prob.costs.b)
    np.testing.assert_array_equal(clone.boxes.upper, prob.boxes.upper)
    x = np.array([0.4, 0.2])
    assert reference_cost(clone, x, 3) == reference_cost(prob, x, 3)
    np.testing.assert_array_equal(clone.optimal_points(), prob.optimal_points())


# -- properties ---------------------------------------------------------------------


def varying_box_instance(n_t=4):
    """``small_instance`` with boxes that differ from step to step."""
    prob = small_instance(n_t)
    t = np.arange(n_t, dtype=float)[:, None]
    lower = np.hstack([-1.0 - 0.5 * t, 0.2 * t - 1.5])
    upper = lower + np.array([[0.5, 2.0]]) + 0.25 * t
    return problem.TimeVaryingProblem(prob.plant, problem.BoxSchedule(lower, upper), prob.costs)


BOXED = varying_box_instance()
COORD = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(0, BOXED.n_steps),
    z=st.one_of(
        hnp.arrays(float, 2, elements=COORD),
        hnp.arrays(float, st.tuples(st.integers(1, 5), st.just(2)), elements=COORD),
    ),
)
def test_projection_lands_in_the_step_box_and_is_idempotent(t, z):
    pz = BOXED.project(z, t)
    assert pz.shape == z.shape
    assert np.all(pz >= BOXED.boxes.lower[t]) and np.all(pz <= BOXED.boxes.upper[t])
    np.testing.assert_array_equal(BOXED.project(pz, t), pz)
