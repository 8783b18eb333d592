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

Randomness protocol: before the first step, every generator, in
first-seen order, draws each channel for the whole horizon in one call:
``T`` availability uniforms, then ``T*m`` eps, ``T*m`` xi and ``T*n_out``
measurement-noise values.  Step ``t`` reads row ``t - 1`` of each block, so
the noise is drawn even for steps where no measurement arrives.

Runs given the same generator object share its draws: the numbers are
drawn once and handed to all of them, so each sees exactly what a lone run
on a fresh copy of that generator would.  Runs with the same stream but
different ``p`` therefore share one underlying sample path, and their
availability indicators are monotone in ``p`` (v coupling), which makes
cross-``p`` comparisons well paired.

The batch arithmetic is row-independent: every sum over coordinates (the
plant products ``G x`` and ``G^T (y_hat - yref)``, the error norms and the
distances) adds its terms one at a time in index order,
``((P_0 + P_1) + P_2) + ...``, never through a BLAS product or NumPy's
pairwise summation, whose rounding can depend on the batch size and a row's
position in it.  :func:`_slice_sum` does this with one ``np.add.reduce``
over an axis laid out outermost in memory.  A run's numbers are therefore
the same whichever runs share its batch, and outputs do not depend on how
:func:`fan_out` splits the runs over worker processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._table import write_csv
from .problem import check_step_size
from .subweibull import ErrorSampler

__all__ = ["AlgoConfig", "Trajectory", "simulate", "fan_out"]


def check_availability(p) -> np.ndarray:
    """``p`` as a float array; raises ``ValueError`` unless every entry lies in ``(0, 1]``."""
    p = np.asarray(p, dtype=float)
    bad = p[~((p > 0.0) & (p <= 1.0))]
    if bad.size:
        raise ValueError(f"availability probability must lie in (0, 1], got {bad[0]}")
    return p


@dataclass(frozen=True)
class AlgoConfig:
    """Step size, measurement availability and error models."""

    alpha: float
    p: float
    eps_sampler: ErrorSampler
    xi_sampler: ErrorSampler
    meas_noise: ErrorSampler

    def __post_init__(self):
        check_step_size(self.alpha)
        check_availability(self.p)


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


_BLOCK_SIZE = 2**15  # numbers per block of the norm passes (256 KB)


def _blocks(n_steps, per_step):
    """Slices of ``range(n_steps)`` that hold about ``_BLOCK_SIZE`` numbers each."""
    width = max(1, _BLOCK_SIZE // max(1, per_step))
    return [slice(lo, lo + width) for lo in range(0, n_steps, width)]


def _slice_sum(P):
    """``P[0] + P[1] + ...`` added whole slice by whole slice in index order, so
    every element is bit for bit the left-to-right loop (zeros when ``P`` is empty).

    ``np.add.reduce`` adds slices in that order when the summed axis is
    outermost in memory and each slice holds more than one number; along the
    innermost axis it sums pairwise from 8 terms.  ``initial=-0.0`` keeps the
    sign of an all-``-0.0`` sum, which NumPy's own start value ``+0.0`` would lose.
    """
    P = np.ascontiguousarray(P)
    if P.size == len(P):  # one number per slice, or none: accumulate is sequential
        return np.add.accumulate(P, axis=0)[-1] if len(P) else np.zeros(P.shape[1:])
    return np.add.reduce(P, axis=0, initial=-0.0)


def simulate(
    prob, cfg, x0, rngs, n_steps=None, p=None, input_grad=None, learned=None, after_step=None,
):
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
    scheduling hooks live here).  The draws follow the module docstring's
    whole-horizon layout.

    Returns one :class:`Trajectory` per run, in the order of ``rngs``.
    """
    n_steps = prob.n_steps if n_steps is None else int(n_steps)
    prob.contraction_rates(cfg.alpha, n_steps)  # raises unless 1 <= n_steps <= horizon, alpha < 2/L
    n_runs, m, n_out = len(rngs), prob.n_inputs, prob.n_outputs
    x0 = np.asarray(prob.boxes.midpoints[0] if x0 is None else x0, dtype=float)
    if x0.shape not in ((m,), (n_runs, m)):
        raise ValueError(f"starting point must have shape ({m},) or ({n_runs}, {m}), got {x0.shape}")
    x0 = np.broadcast_to(x0, (n_runs, m))
    if np.any(np.sqrt(_slice_sum(((prob.project(x0, 0) - x0) ** 2).T)) > 1e-9):
        raise ValueError("starting point is infeasible for the step-0 box")
    p = np.broadcast_to(check_availability(cfg.p if p is None else p), (n_runs,))
    if (input_grad is None) != (learned is None) or not isinstance(learned, (slice, type(None))):
        raise ValueError("input_grad comes with learned, one slice of runs")

    G, beta, y_ref = prob.plant.G, prob.costs.beta, prob.costs.y_ref
    a2, b = 2.0 * prob.costs.a, prob.costs.b  # the input-cost gradient is a2[t] x + b[t]
    lower, upper, alpha = prob.boxes.lower, prob.boxes.upper, cfg.alpha
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
    u = np.empty((n_steps, len(streams)))
    eps, xi = np.empty((n_steps, len(streams), m)), np.empty((n_steps, len(streams), m))
    noise = np.empty((n_steps, len(streams), n_out))
    for k, rng in enumerate(streams):  # drawn regardless of availability
        u[:, k] = rng.random(n_steps)
        eps[:, k] = cfg.eps_sampler.sample(rng, n_steps * m).reshape(n_steps, m)
        xi[:, k] = cfg.xi_sampler.sample(rng, n_steps * m).reshape(n_steps, m)
        noise[:, k] = cfg.meas_noise.sample(rng, n_steps * n_out).reshape(n_steps, n_out)
    avail = u[:, owner] < p  # (n_steps, R)
    v[:, 1:] = avail.T
    avail = avail[:, :, None]
    # |eps + xi| of each step and stream, in blocks of steps; learned rows overwrite theirs
    for rows in _blocks(n_steps, len(streams) * m):
        err = np.add(np.moveaxis(eps[rows], -1, 0), np.moveaxis(xi[rows], -1, 0), order="C")
        e_norm[:, 1:][:, rows] = np.sqrt(_slice_sum(np.square(err, out=err)))[:, owner].T
    # the plant products, summed axis first: gx[j, r, i] = x_rj G_ij, gr[i, r, j] = resid_ri G_ij
    gx, gr = np.empty((m, n_runs, n_out)), np.empty((n_out, n_runs, m))
    G_x, G_r = G.T[:, None, :], G[:, None, :]

    for t in range(1, n_steps + 1):
        x_prev = x[:, t - 1]
        eps_r, xi_r = eps[t - 1, owner], xi[t - 1, owner]
        u_grad = a2[t] * x_prev + b[t]
        model_term = u_grad + eps_r
        if input_grad is not None:
            model_term[learned] = input_grad(x_prev[learned], t)
            err = (model_term[learned] - u_grad[learned]) + xi_r[learned]
            e_norm[learned, t] = np.sqrt(_slice_sum(np.square(err.T, order="C")))
        np.multiply(x_prev.T[:, :, None], G_x, out=gx)
        y_hat = _slice_sum(gx) + hw[t - 1] + noise[t - 1, owner]
        np.multiply((y_hat - y_ref[t]).T[:, :, None], G_r, out=gr)
        grad = beta * _slice_sum(gr) + model_term + xi_r
        step = np.where(avail[t - 1], x_prev - alpha * grad, x_prev)
        step.clip(lower[t], upper[t], out=x[:, t])  # the projection onto the step-t box
        if after_step is not None:
            after_step(t, x[:, t])
    # distances after the loop, in blocks of steps that bound the temporaries
    d = np.empty((n_runs, n_steps + 1))
    for block in _blocks(n_steps + 1, n_runs * m):
        diff = np.moveaxis(x[:, block] - optima[block], -1, 0)
        d[:, block] = np.sqrt(_slice_sum(np.square(diff, order="C")))
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
