"""Time-varying quadratic tracking problems over a linear plant.

The plant output is ``y = G x + H w`` for inputs ``x`` and exogenous
disturbances ``w``.  At step ``t`` the decision cost is

    f_t(x) = beta/2 * ||G x + H w_t - yref_t||^2
             + sum_m ( a_t[m] x_m^2 + b_t[m] x_m + c_t[m] ),

minimized over a per-step box ``X_t``.  The quadratic form keeps the
curvature constants exact (eigenvalues of the constant-in-x Hessian) and
makes the optimizer oracle a plain projected-gradient fixed-point solve.

Schedules carry one entry per time index ``t = 0 .. n_steps``; the online
update in :mod:`feedopt.algorithm` takes ``n_steps`` steps at most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearPlantMap",
    "BoxSchedule",
    "CostSchedule",
    "TimeVaryingProblem",
]

# fixed-point residual at which the optimizer oracle stops, and its sweep cap
_ORACLE_TOL = 1e-10
_ORACLE_MAX_SWEEPS = 10**6


def check_step_size(alpha) -> None:
    """Raise ``ValueError`` unless ``alpha > 0`` (``alpha < 2/L`` needs an instance)."""
    if not alpha > 0:
        raise ValueError(f"step size must be positive, got {alpha}")


def check_tracking_weight(beta) -> None:
    """Raise ``ValueError`` unless ``beta > 0``."""
    if not beta > 0:
        raise ValueError(f"tracking weight beta must be positive, got {beta}")


def _finite_rows(name, value) -> np.ndarray:
    """``value`` as a 2-D float array; raises ``ValueError`` on a NaN or infinite entry."""
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr


@dataclass
class LinearPlantMap:
    """Steady-state sensitivities ``y = G x + H w``."""

    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        self.G = _finite_rows("plant G", self.G)
        self.H = _finite_rows("plant H", self.H)
        if self.G.shape[0] != self.H.shape[0]:
            raise ValueError(
                f"G and H must share the output dimension, got {self.G.shape} and {self.H.shape}"
            )


@dataclass
class BoxSchedule:
    """Per-step box constraints ``lower[t] <= x <= upper[t]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _finite_rows("box lower", self.lower)
        self.upper = _finite_rows("box upper", self.upper)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper schedules must have identical shapes")
        if np.any(self.lower > self.upper):
            raise ValueError("box schedule has lower > upper somewhere")

    @property
    def midpoints(self) -> np.ndarray:
        """The centre of every step's box, where runs and the oracle start."""
        return 0.5 * (self.lower + self.upper)


@dataclass
class CostSchedule:
    """Tracking weight plus per-step quadratic input-cost coefficients.

    ``a`` must be nonnegative; strong convexity of the full cost is checked
    where it is needed (scenario build, curvature queries), since it may
    come from the tracking term instead of ``a``.
    """

    beta: float
    y_ref: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        check_tracking_weight(self.beta)
        for name in ("y_ref", "a", "b", "c", "w"):
            setattr(self, name, _finite_rows(f"cost schedule {name}", getattr(self, name)))
        n_t = self.y_ref.shape[0]
        for name in ("a", "b", "c", "w"):
            if getattr(self, name).shape[0] != n_t:
                raise ValueError(f"cost schedule {name} disagrees on horizon length")
        if self.a.shape != self.b.shape or self.a.shape != self.c.shape:
            raise ValueError("a, b, c must have identical shapes")
        if np.any(self.a < 0):
            raise ValueError("input-cost curvatures a must be nonnegative")


class TimeVaryingProblem:
    """A full problem instance: plant, box schedule and cost schedule.

    Immutable after construction by convention.  The optimizer oracle
    caches its result, so repeated ``optimal_points`` calls are cheap.
    """

    def __init__(self, plant: LinearPlantMap, boxes: BoxSchedule, costs: CostSchedule):
        self.plant = plant
        self.boxes = boxes
        self.costs = costs
        n_out, n_in = plant.G.shape
        if boxes.lower.shape[1] != n_in:
            raise ValueError("box schedule dimension does not match the plant input dimension")
        if costs.a.shape[1] != n_in:
            raise ValueError("input-cost schedule dimension does not match the plant input dimension")
        if costs.y_ref.shape[1] != n_out:
            raise ValueError("reference schedule dimension does not match the plant output dimension")
        if costs.w.shape[1] != plant.H.shape[1]:
            raise ValueError("disturbance schedule dimension does not match the plant")
        if boxes.lower.shape[0] != costs.y_ref.shape[0]:
            raise ValueError("box and cost schedules disagree on horizon length")
        self._optima = None
        self._curvature = None

    # -- basic shape queries -------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.plant.G.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.plant.G.shape[0]

    @property
    def n_steps(self) -> int:
        """Largest valid time index (schedules run ``t = 0 .. n_steps``)."""
        return self.boxes.lower.shape[0] - 1

    def _check_t(self, t: int) -> int:
        t = int(t)
        if not 0 <= t <= self.n_steps:
            raise IndexError(f"time index {t} outside the schedule range [0, {self.n_steps}]")
        return t

    # -- gradient and projection ---------------------------------------------

    def u_gradient(self, x, t: int) -> np.ndarray:
        """Gradient of the separable input cost only: ``2 a_t x + b_t``."""
        t = self._check_t(t)
        x = np.asarray(x, dtype=float)
        return 2.0 * self.costs.a[t] * x + self.costs.b[t]

    def project(self, z, t: int) -> np.ndarray:
        """Euclidean projection onto the step-``t`` box (componentwise clip)."""
        t = self._check_t(t)
        return np.clip(np.asarray(z, dtype=float), self.boxes.lower[t], self.boxes.upper[t])

    # -- curvature -------------------------------------------------------------

    def curvature_all(self):
        """Arrays ``(mu, L)`` over all time indices, from batched eigenvalues."""
        if self._curvature is None:
            G = self.plant.G
            base = self.costs.beta * (G.T @ G)
            n_t, m = self.costs.a.shape
            hess = np.broadcast_to(base, (n_t, m, m)).copy()
            idx = np.arange(m)
            hess[:, idx, idx] += 2.0 * self.costs.a
            eig = np.linalg.eigvalsh(hess)
            mu, L = eig[:, 0].copy(), eig[:, -1].copy()
            if np.any(mu <= 0):
                t_bad = int(np.argmax(mu <= 0))
                raise ValueError(
                    f"cost at step {t_bad} is not strongly convex (mu={mu[t_bad]:.3e}); "
                    "strengthen a or the tracking term"
                )
            self._curvature = (mu, L)
        return self._curvature

    def contraction_rates(self, alpha: float, n_steps: int) -> np.ndarray:
        """Rates ``zeta_t = max(|1 - alpha mu_t|, |1 - alpha L_t|)`` for
        ``t = 0 .. n_steps``; raises ``ValueError`` unless ``n_steps`` lies in
        ``[1, self.n_steps]`` and ``0 < alpha < 2/L_t`` over the update steps
        ``1 .. n_steps``, which makes every rate below 1."""
        if not 1 <= n_steps <= self.n_steps:
            raise ValueError(f"step count must lie in [1, {self.n_steps}] (the horizon), got {n_steps}")
        check_step_size(alpha)
        mu, L = self.curvature_all()
        l_sup = float(L[1 : n_steps + 1].max())
        if not alpha < 2.0 / l_sup:
            raise ValueError(
                f"step size {alpha} violates the contraction condition "
                f"alpha < 2/L = {2.0 / l_sup:.6g} for this instance"
            )
        head = slice(0, n_steps + 1)
        return np.maximum(np.abs(1.0 - alpha * mu[head]), np.abs(1.0 - alpha * L[head]))

    # -- optimizer oracle --------------------------------------------------------

    def optimal_points(self) -> np.ndarray:
        """All per-step minimizers as an ``(n_steps+1, n_inputs)`` array (cached).

        Projected gradient with step ``1/L_t`` from the box midpoints, all
        steps iterated simultaneously (the per-step solves are independent),
        until every fixed-point residual ``||x - P(x - grad f_t(x)/L_t)||``
        is at most ``_ORACLE_TOL``.  Raises ``RuntimeError`` after
        ``_ORACLE_MAX_SWEEPS`` sweeps without convergence.
        """
        if self._optima is not None:
            return self._optima
        mu, L = self.curvature_all()
        G = self.plant.G
        beta = self.costs.beta
        lo, hi = self.boxes.lower, self.boxes.upper
        yref, a, b, w = self.costs.y_ref, self.costs.a, self.costs.b, self.costs.w
        drive = w @ self.plant.H.T - yref  # (n_t, n_out), constant part of the residual
        X = self.boxes.midpoints
        step = (1.0 / L)[:, None]
        for _ in range(_ORACLE_MAX_SWEEPS):
            grad = beta * ((X @ G.T + drive) @ G) + 2.0 * a * X + b
            X_next = np.clip(X - step * grad, lo, hi)
            resid = np.linalg.norm(X - X_next, axis=1)
            X = X_next
            if resid.max() <= _ORACLE_TOL:
                break
        else:
            raise RuntimeError(
                f"optimizer oracle did not reach residual {_ORACLE_TOL} in "
                f"{_ORACLE_MAX_SWEEPS} sweeps; the instance is badly conditioned"
            )
        # X is one contraction step past the point that met the criterion, so
        # its own residual is at most the tolerance as well
        self._optima = X
        return X

    def path_lengths(self) -> np.ndarray:
        """All ``n_steps`` consecutive optimum movements."""
        opt = self.optimal_points()
        return np.linalg.norm(np.diff(opt, axis=0), axis=1)

    # -- serialization -------------------------------------------------------------

    def iter_fields(self):
        """The instance as ``(name, value)`` items, arrays as they are."""
        plant, boxes, costs = self.plant, self.boxes, self.costs
        return (
            ("G", plant.G), ("H", plant.H), ("lower", boxes.lower), ("upper", boxes.upper),
            ("beta", costs.beta), ("y_ref", costs.y_ref),
            ("a", costs.a), ("b", costs.b), ("c", costs.c), ("w", costs.w),
        )
