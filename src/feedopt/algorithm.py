"""Online projected gradient tracking with intermittent measurements.

At every step an output measurement is available with probability ``p``
(an i.i.d. Bernoulli indicator ``v_t``).  When it is, the iterate moves
along an inexact gradient assembled from the measured output and a noisy
model of the separable input cost; when it is not, the iterate is only
re-projected onto the current feasible box:

    x_t = P_{X_t}[ x_{t-1} - v_t * alpha * ( beta G^T (y_hat - yref_t)
                                             + grad U_t(x_{t-1}) + eps_t + xi_t ) ],
    y_hat = G x_{t-1} + H w_{t-1} + n_t.

``eps_t`` is input-cost gradient error (e.g. from a learned model),
``xi_t`` is error in the tracking part, ``n_t`` is measurement noise.

One kernel, :func:`simulate`, advances a batch of independent runs as an
``(R, m)`` array, one step at a time; a lone run is its batch of one.  A
batch may mix runs whose model term is ``grad U_t + eps_t`` with one block
of learned runs, whose model term a hook supplies.

Randomness protocol: every generator is consumed exactly as a lone run
would consume it.  At each step, generator by generator in first-seen
order, it is drawn in the fixed order (availability uniform, eps, xi,
measurement noise), and the noise is drawn even on steps where no
measurement arrives.  Runs given the same generator object share its
draws: each step's numbers are drawn once and handed to all of them, so
each sees exactly what a lone run on a fresh copy of that generator would.
Runs with the same stream but different ``p`` therefore share one
underlying sample path, and their availability indicators are monotone in
``p`` (v coupling), which makes cross-``p`` comparisons well paired.

The batch arithmetic is row-independent: products with the plant matrix
and norms are summed elementwise in a fixed order rather than by a BLAS
product over the batch, whose rounding can depend on the batch size and a
row's position in it.  A run's numbers are therefore the same whichever
runs share its batch, and outputs do not depend on how :func:`fan_out`
splits the runs over worker processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._table import write_csv
from .subweibull import ErrorSampler

__all__ = ["AlgoConfig", "Trajectory", "simulate", "fan_out"]


@dataclass(frozen=True)
class AlgoConfig:
    """Step size, measurement availability and error models."""

    alpha: float
    p: float
    eps_sampler: ErrorSampler
    xi_sampler: ErrorSampler
    meas_noise: ErrorSampler

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"step size must be positive, got {self.alpha}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"availability probability must lie in (0, 1], got {self.p}")


@dataclass
class Trajectory:
    """One realized run over ``t = 0 .. n_steps``.

    ``v[t]`` is the availability indicator consumed at update ``t``
    (``v[0] = 0``: no update produces the initial point).  ``e_norm[t]`` is
    the norm of the gradient error drawn at step ``t`` whether or not the
    update consumed it.  ``d[t]`` is the distance to the step-``t``
    constrained optimum.
    """

    x: np.ndarray
    v: np.ndarray
    d: np.ndarray
    e_norm: np.ndarray

    def to_csv(self, path) -> None:
        """Rows ``t, v, d_t, e_norm, x_1..x_M`` with 15 significant digits."""
        header = ["t", "v", "d_t", "e_norm"] + [f"x_{j + 1}" for j in range(self.x.shape[1])]
        write_csv(path, header, (np.arange(self.x.shape[0]), self.v, self.d, self.e_norm, *self.x.T))


_D_BLOCK_SIZE = 2**15  # numbers per block of the distance pass (256 KB)


def _rowsum(P):
    """Sum over the last axis in a fixed order, so no row depends on the batch."""
    total = P[..., 0] if P.shape[-1] else np.zeros(P.shape[:-1])
    for j in range(1, P.shape[-1]):
        total = total + P[..., j]
    return total


def simulate(prob, cfg, x0, rngs, n_steps=None, p=None, input_grad=None, learned=None, after_step=None):
    """Advance ``R = len(rngs)`` independent runs together for ``n_steps`` steps.

    ``x0`` holds ``(R, m)`` starting points, one ``(m,)`` point for every
    run, or None for the step-0 box midpoint.  Run ``r`` takes its draws
    from ``rngs[r]`` only, and runs given the same generator object share
    them.  ``n_steps`` defaults to the full schedule and ``p`` (a scalar or
    one value per run) to ``cfg.p``.

    ``input_grad(X, t)`` optionally replaces the model term
    ``grad U_t(x) + eps_t`` of the learned runs, the block of rows given by
    the slice ``learned`` (the two come together).  The hook receives their
    iterates ``X = x_{t-1}`` only and returns one ``(m,)`` row per learned
    run.  eps is still drawn, so the sample path is unchanged, and a learned
    run's recorded error norm uses the hook's deviation from the true
    input-cost gradient.  ``after_step(t, X_t)`` is optionally invoked after
    every update with the ``(R, m)`` iterates of all runs (measurement
    scheduling hooks live here).

    Returns one :class:`Trajectory` per run, in the order of ``rngs``.
    """
    n_steps = prob.n_steps if n_steps is None else int(n_steps)
    prob.contraction_rates(cfg.alpha, n_steps)  # raises unless 1 <= n_steps <= horizon, alpha < 2/L
    n_runs, m, n_out = len(rngs), prob.n_inputs, prob.n_outputs
    x0 = np.asarray(prob.boxes.midpoints[0] if x0 is None else x0, dtype=float)
    if x0.shape not in ((m,), (n_runs, m)):
        raise ValueError(f"starting point must have shape ({m},) or ({n_runs}, {m}), got {x0.shape}")
    x0 = np.broadcast_to(x0, (n_runs, m))
    if np.any(np.sqrt(_rowsum((prob.project(x0, 0) - x0) ** 2)) > 1e-9):
        raise ValueError("starting point is infeasible for the step-0 box")
    p = np.broadcast_to(np.asarray(cfg.p if p is None else p, dtype=float), (n_runs,))
    if not np.all((p > 0.0) & (p <= 1.0)):
        raise ValueError(f"availability probability must lie in (0, 1], got {p}")
    if (input_grad is None) != (learned is None) or not isinstance(learned, (slice, type(None))):
        raise ValueError("input_grad comes with learned, one slice of runs")

    G, beta, y_ref = prob.plant.G, prob.costs.beta, prob.costs.y_ref
    hw = prob.costs.w @ prob.plant.H.T  # disturbance part of the output, per step
    optima = prob.optimal_points()[: n_steps + 1]
    x = np.empty((n_runs, n_steps + 1, m))
    v = np.zeros((n_runs, n_steps + 1), dtype=np.int8)
    e_norm = np.zeros((n_runs, n_steps + 1))
    x[:, 0] = x0
    # one row of draws per distinct generator; run r reads row owner[r]
    streams = list({id(rng): rng for rng in rngs}.values())
    row_of = {id(rng): k for k, rng in enumerate(streams)}
    owner = np.array([row_of[id(rng)] for rng in rngs], dtype=np.intp)
    u, noise = np.empty(len(streams)), np.empty((len(streams), n_out))
    eps, xi = np.empty((len(streams), m)), np.empty((len(streams), m))

    for t in range(1, n_steps + 1):
        x_prev = x[:, t - 1]
        # fixed per-generator consumption order; draws happen regardless of availability
        for k, rng in enumerate(streams):
            u[k] = rng.random()
            eps[k] = cfg.eps_sampler.sample(rng, m)
            xi[k] = cfg.xi_sampler.sample(rng, m)
            noise[k] = cfg.meas_noise.sample(rng, n_out)
        xi_r = xi[owner]
        avail = u[owner] < p
        eps_r = eps[owner]
        u_grad = prob.u_gradient(x_prev, t)
        model_term = u_grad + eps_r
        err = eps_r + xi_r
        if input_grad is not None:
            model_term[learned] = input_grad(x_prev[learned], t)
            err[learned] = (model_term[learned] - u_grad[learned]) + xi_r[learned]
        e_norm[:, t] = np.sqrt(_rowsum(err**2))
        y_hat = _rowsum(x_prev[:, None, :] * G) + hw[t - 1] + noise[owner]
        grad = beta * _rowsum((y_hat - y_ref[t])[:, None, :] * G.T) + model_term + xi_r
        v[:, t] = avail
        x[:, t] = prob.project(np.where(avail[:, None], x_prev - cfg.alpha * grad, x_prev), t)
        if after_step is not None:
            after_step(t, x[:, t])
    # distances after the loop, in blocks of steps that bound the temporaries
    d = np.empty((n_runs, n_steps + 1))
    width = max(1, _D_BLOCK_SIZE // max(1, n_runs * m))
    for lo in range(0, n_steps + 1, width):
        block = slice(lo, lo + width)
        d[:, block] = np.sqrt(_rowsum((x[:, block] - optima[block]) ** 2))
    return [Trajectory(x[r], v[r], d[r], e_norm[r]) for r in range(n_runs)]


def fan_out(fn, runs, n_jobs=1):
    """``fn`` over contiguous chunks of ``runs``, one chunk per worker process.

    ``fn`` maps a list of runs to a list of per-run results and must be
    picklable when ``n_jobs > 1``.  Results come back in run order; since
    the kernel is row-independent, they are the same for any ``n_jobs``.
    """
    runs = list(runs)
    n_chunks = min(n_jobs, len(runs))
    if n_chunks <= 1:
        return fn(runs)
    edges = [len(runs) * i // n_chunks for i in range(n_chunks + 1)]
    with ProcessPoolExecutor(max_workers=n_chunks) as pool:
        parts = pool.map(fn, [runs[lo:hi] for lo, hi in zip(edges, edges[1:])])
        return [out for part in parts for out in part]
