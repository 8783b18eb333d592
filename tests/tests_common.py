"""Shared fixtures-by-hand for the test suite."""

import numpy as np

from feedopt import algorithm, problem, subweibull


def static_instance(n_t=101, silent=False, p=0.7):
    """Fixed 3-input, 2-output quadratic tracking instance.

    Static schedules (phi = 0), known curvature, step size 1/L.  With
    ``silent`` every error channel is switched off.
    """
    G = np.array([[0.7, 0.3, 0.2], [0.1, 0.6, 0.4]])
    H = np.array([[1.0], [0.8]])
    y_ref = np.tile([0.8, -0.3], (n_t, 1))
    a = np.tile([0.4, 0.7, 0.5], (n_t, 1))
    b = np.tile([0.1, -0.3, 0.2], (n_t, 1))
    c = np.zeros((n_t, 3))
    w = 0.2 * np.ones((n_t, 1))
    lower = np.full((n_t, 3), -3.0)
    upper = np.full((n_t, 3), 3.0)
    prob = problem.TimeVaryingProblem(
        problem.LinearPlantMap(G, H),
        problem.BoxSchedule(lower, upper),
        problem.CostSchedule(1.0, y_ref, a, b, c, w),
    )
    _, L = prob.curvature_all()
    if silent:
        eps = xi = noise = subweibull.zero()
    else:
        eps = subweibull.gaussian(0.05)
        xi = subweibull.gaussian(0.05)
        noise = subweibull.gaussian(0.02)
    cfg = algorithm.AlgoConfig(
        alpha=1.0 / float(L.max()), p=p,
        eps_sampler=eps, xi_sampler=xi, meas_noise=noise,
    )
    return prob, cfg


def from_dict(payload):
    """A problem rebuilt from the items of ``TimeVaryingProblem.iter_dict``."""
    arr = {k: np.array(v) for k, v in payload.items() if k != "beta"}
    return problem.TimeVaryingProblem(
        problem.LinearPlantMap(arr["G"], arr["H"]),
        problem.BoxSchedule(arr["lower"], arr["upper"]),
        problem.CostSchedule(payload["beta"], arr["y_ref"], arr["a"], arr["b"], arr["c"], arr["w"]),
    )


# -- scalar reference oracle -------------------------------------------------
# One step at a time, from the raw plant/boxes/costs arrays only, so it shares
# no code with the batched methods of ``TimeVaryingProblem`` it checks.


def reference_cost(prob, x, t):
    """``f_t(x) = beta/2 ||G x + H w_t - yref_t||^2 + sum(a x^2 + b x + c)``."""
    G, H, c = prob.plant.G, prob.plant.H, prob.costs
    resid = G @ x + H @ c.w[t] - c.y_ref[t]
    return 0.5 * c.beta * float(resid @ resid) + float(c.a[t] @ (x * x) + c.b[t] @ x + c.c[t].sum())


def reference_gradient(prob, x, t):
    """``beta G^T (G x + H w_t - yref_t) + 2 a_t x + b_t``."""
    G, H, c = prob.plant.G, prob.plant.H, prob.costs
    resid = G @ x + H @ c.w[t] - c.y_ref[t]
    return c.beta * (G.T @ resid) + 2.0 * c.a[t] * x + c.b[t]


def reference_hessian(prob, t):
    G = prob.plant.G
    return prob.costs.beta * (G.T @ G) + np.diag(2.0 * prob.costs.a[t])


def reference_optimum(prob, t, tol=1e-12, max_iter=10**6):
    """Minimizer of ``f_t`` over the step-``t`` box by projected gradient
    with step ``1/L_t`` from the box midpoint."""
    lo, hi = prob.boxes.lower[t], prob.boxes.upper[t]
    step = 1.0 / np.linalg.eigvalsh(reference_hessian(prob, t))[-1]
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        x_next = np.clip(x - step * reference_gradient(prob, x, t), lo, hi)
        if np.linalg.norm(x - x_next) <= tol:
            return x_next
        x = x_next
    raise AssertionError(f"reference oracle did not converge at step {t}")
