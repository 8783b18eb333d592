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

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearPlantMap",
    "BoxSchedule",
    "CostSchedule",
    "CurvaturePair",
    "TimeVaryingProblem",
]


@dataclass
class LinearPlantMap:
    """Steady-state sensitivities ``y = G x + H w``."""

    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if self.G.shape[0] != self.H.shape[0]:
            raise ValueError(
                f"G and H must share the output dimension, got {self.G.shape} and {self.H.shape}"
            )

    def __call__(self, x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        if x.shape != (self.G.shape[1],):
            raise ValueError(f"input must have shape ({self.G.shape[1]},), got {x.shape}")
        if w.shape != (self.H.shape[1],):
            raise ValueError(f"disturbance must have shape ({self.H.shape[1]},), got {w.shape}")
        return self.G @ x + self.H @ w


@dataclass
class BoxSchedule:
    """Per-step box constraints ``lower[t] <= x <= upper[t]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_2d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_2d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper schedules must have identical shapes")
        if np.any(self.lower > self.upper):
            raise ValueError("box schedule has lower > upper somewhere")


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
        if not self.beta > 0:
            raise ValueError(f"tracking weight beta must be positive, got {self.beta}")
        for name in ("y_ref", "a", "b", "c", "w"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n_t = self.y_ref.shape[0]
        for name in ("a", "b", "c", "w"):
            if getattr(self, name).shape[0] != n_t:
                raise ValueError(f"cost schedule {name} disagrees on horizon length")
        if self.a.shape != self.b.shape or self.a.shape != self.c.shape:
            raise ValueError("a, b, c must have identical shapes")
        if np.any(self.a < 0):
            raise ValueError("input-cost curvatures a must be nonnegative")


@dataclass(frozen=True)
class CurvaturePair:
    """Strong convexity and smoothness constants ``0 < mu <= L``."""

    mu: float
    L: float

    def __post_init__(self):
        if not (0 < self.mu <= self.L):
            raise ValueError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")


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
        self._optima_tol = None
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

    # -- plant and cost evaluations -------------------------------------------

    def output(self, x, t: int) -> np.ndarray:
        """Noise-free output at step ``t`` (schedule disturbance)."""
        t = self._check_t(t)
        return self.plant(x, self.costs.w[t])

    def cost(self, x, t: int) -> float:
        t = self._check_t(t)
        x = np.asarray(x, dtype=float)
        resid = self.output(x, t) - self.costs.y_ref[t]
        track = 0.5 * self.costs.beta * float(resid @ resid)
        a, b, c = self.costs.a[t], self.costs.b[t], self.costs.c[t]
        return track + float(a @ (x * x) + b @ x + c.sum())

    def exact_gradient(self, x, t: int) -> np.ndarray:
        """``beta * G^T (G x + H w_t - yref_t) + 2 a_t x + b_t``."""
        t = self._check_t(t)
        x = np.asarray(x, dtype=float)
        resid = self.output(x, t) - self.costs.y_ref[t]
        return self.costs.beta * (self.plant.G.T @ resid) + self.u_gradient(x, t)

    def u_gradient(self, x, t: int) -> np.ndarray:
        """Gradient of the separable input cost only: ``2 a_t x + b_t``."""
        t = self._check_t(t)
        x = np.asarray(x, dtype=float)
        return 2.0 * self.costs.a[t] * x + self.costs.b[t]

    def tracking_gradient(self, y, t: int) -> np.ndarray:
        """Tracking part of the gradient evaluated at a measured output ``y``:
        ``beta * G^T (y - yref_t)``."""
        t = self._check_t(t)
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_outputs,):
            raise ValueError(f"output must have shape ({self.n_outputs},), got {y.shape}")
        return self.costs.beta * (self.plant.G.T @ (y - self.costs.y_ref[t]))

    def project(self, z, t: int) -> np.ndarray:
        """Euclidean projection onto the step-``t`` box (componentwise clip)."""
        t = self._check_t(t)
        return np.clip(np.asarray(z, dtype=float), self.boxes.lower[t], self.boxes.upper[t])

    # -- curvature -------------------------------------------------------------

    def hessian(self, t: int) -> np.ndarray:
        t = self._check_t(t)
        G = self.plant.G
        return self.costs.beta * (G.T @ G) + np.diag(2.0 * self.costs.a[t])

    def curvature(self, t: int) -> CurvaturePair:
        """Exact strong-convexity and smoothness constants of ``f_t``."""
        t = self._check_t(t)
        mu, L = self.curvature_all()
        return CurvaturePair(float(mu[t]), float(L[t]))

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

    # -- optimizer oracle --------------------------------------------------------

    def optimal_point(self, t: int, tol: float = 1e-10, max_iter: int = 10**6) -> np.ndarray:
        """Constrained minimizer of ``f_t`` over ``X_t``.

        Runs projected gradient with step ``1/L_t`` from the box midpoint
        until the fixed-point residual ``||x - P(x - grad f_t(x)/L_t)||``
        drops below ``tol``.
        """
        t = self._check_t(t)
        if self._optima is not None and self._optima_tol <= tol:
            return self._optima[t].copy()
        _, L = self.curvature_all()
        lo, hi = self.boxes.lower[t], self.boxes.upper[t]
        x = 0.5 * (lo + hi)
        step = 1.0 / L[t]
        for _ in range(max_iter):
            x_next = np.clip(x - step * self.exact_gradient(x, t), lo, hi)
            if np.linalg.norm(x - x_next) <= tol:
                return x_next
            x = x_next
        raise RuntimeError(
            f"optimizer oracle did not reach residual {tol} in {max_iter} iterations "
            f"at step {t}; the instance is badly conditioned"
        )

    def optimal_points(self, tol: float = 1e-10, max_iter: int = 10**6) -> np.ndarray:
        """All per-step minimizers as an ``(n_steps+1, n_inputs)`` array (cached).

        All steps are iterated simultaneously (the per-step solves are
        independent), with the same fixed-point residual criterion as
        :meth:`optimal_point`.
        """
        if self._optima is not None and self._optima_tol <= tol:
            return self._optima
        mu, L = self.curvature_all()
        G = self.plant.G
        beta = self.costs.beta
        lo, hi = self.boxes.lower, self.boxes.upper
        yref, a, b, w = self.costs.y_ref, self.costs.a, self.costs.b, self.costs.w
        drive = w @ self.plant.H.T - yref  # (n_t, n_out), constant part of the residual
        X = 0.5 * (lo + hi)
        step = (1.0 / L)[:, None]
        for _ in range(max_iter):
            grad = beta * ((X @ G.T + drive) @ G) + 2.0 * a * X + b
            X_next = np.clip(X - step * grad, lo, hi)
            resid = np.linalg.norm(X - X_next, axis=1)
            X = X_next
            if resid.max() <= tol:
                break
        else:
            raise RuntimeError(
                f"optimizer oracle did not reach residual {tol} in {max_iter} sweeps; "
                "the instance is badly conditioned"
            )
        # X is one contraction step past the point that met the criterion, so
        # its own residual is at most tol as well
        self._optima = X
        self._optima_tol = tol
        return X

    def path_length(self, t: int) -> float:
        """Optimum movement ``||x*_t - x*_{t+1}||``; needs ``t + 1`` in range."""
        t = self._check_t(t)
        if t + 1 > self.n_steps:
            raise IndexError(f"path length at {t} needs step {t + 1} in the schedule")
        opt = self.optimal_points()
        return float(np.linalg.norm(opt[t] - opt[t + 1]))

    def path_lengths(self) -> np.ndarray:
        """All ``n_steps`` consecutive optimum movements."""
        opt = self.optimal_points()
        return np.linalg.norm(np.diff(opt, axis=0), axis=1)

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "G": self.plant.G.tolist(),
            "H": self.plant.H.tolist(),
            "lower": self.boxes.lower.tolist(),
            "upper": self.boxes.upper.tolist(),
            "beta": self.costs.beta,
            "y_ref": self.costs.y_ref.tolist(),
            "a": self.costs.a.tolist(),
            "b": self.costs.b.tolist(),
            "c": self.costs.c.tolist(),
            "w": self.costs.w.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TimeVaryingProblem":
        return cls(
            LinearPlantMap(np.array(payload["G"]), np.array(payload["H"])),
            BoxSchedule(np.array(payload["lower"]), np.array(payload["upper"])),
            CostSchedule(
                payload["beta"],
                np.array(payload["y_ref"]),
                np.array(payload["a"]),
                np.array(payload["b"]),
                np.array(payload["c"]),
                np.array(payload["w"]),
            ),
        )

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "TimeVaryingProblem":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
