"""Online update kernel: contraction, availability gating, hooks, batching, CSV record."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from feedopt import algorithm, problem, subweibull
from tests_common import literal_run


def static_problem(n_t=60, box=4.0):
    G = np.array([[0.8, 0.4], [0.2, 0.9]])
    H = np.array([[1.0], [0.5]])
    y_ref = np.tile([1.0, -0.5], (n_t, 1))
    a = np.tile([0.6, 0.9], (n_t, 1))
    b = np.tile([0.2, -0.1], (n_t, 1))
    c = np.zeros((n_t, 2))
    w = np.zeros((n_t, 1))
    lower = np.full((n_t, 2), -box)
    upper = np.full((n_t, 2), box)
    return problem.TimeVaryingProblem(
        problem.LinearPlantMap(G, H),
        problem.BoxSchedule(lower, upper),
        problem.CostSchedule(1.0, y_ref, a, b, c, w),
    )


def drifting_problem(n_t=61):
    """3 inputs, 2 outputs, a moving reference and boxes that breathe enough to bind."""
    t = np.arange(n_t)[:, None]
    G = np.array([[0.7, 0.3, 0.2], [0.1, 0.6, 0.4]])
    H = np.array([[1.0], [0.8]])
    y_ref = np.hstack([1.5 + np.sin(t / 7.0), -0.5 + np.cos(t / 5.0)])
    a = np.tile([0.4, 0.7, 0.5], (n_t, 1))
    b = np.tile([0.1, -0.3, 0.2], (n_t, 1))
    c = np.zeros((n_t, 3))
    w = 0.2 + 0.1 * np.sin(t / 3.0)
    lower = np.tile([-1.0, -0.5, -2.0], (n_t, 1)) + 0.3 * np.sin(t / 4.0)
    upper = lower + np.array([1.5, 1.0, 2.5])
    return problem.TimeVaryingProblem(
        problem.LinearPlantMap(G, H),
        problem.BoxSchedule(lower, upper),
        problem.CostSchedule(1.0, y_ref, a, b, c, w),
    )


def noisy_config():
    return algorithm.AlgoConfig(
        alpha=0.3, p=0.6,
        eps_sampler=subweibull.gaussian(0.1), xi_sampler=subweibull.weibull_tail(1.5, 0.1),
        meas_noise=subweibull.gaussian(0.05),
    )


def quiet_config(alpha, p):
    return algorithm.AlgoConfig(
        alpha=alpha, p=p,
        eps_sampler=subweibull.zero(), xi_sampler=subweibull.zero(),
        meas_noise=subweibull.zero(),
    )


def lone_run(prob, cfg, seed, n_steps, x0=None, **hooks):
    """One run on a fresh ``default_rng(seed)``: the batch of one of ``simulate``."""
    return algorithm.simulate(prob, cfg, x0, [np.random.default_rng(seed)], n_steps, **hooks)[0]


def test_config_validation():
    with pytest.raises(ValueError, match="step size"):
        quiet_config(0.0, 0.5)
    with pytest.raises(ValueError, match="availability"):
        quiet_config(0.1, 0.0)
    with pytest.raises(ValueError, match="availability"):
        quiet_config(0.1, 1.1)


def test_noise_free_full_availability_contracts_at_zeta():
    prob = static_problem()
    mu, L = (c[0] for c in prob.curvature_all())
    alpha = 1.0 / L
    zeta = max(abs(1 - alpha * mu), abs(1 - alpha * L))
    traj = lone_run(prob, quiet_config(alpha, 1.0), 0, 50)
    assert traj.d[0] > 0
    for t in range(1, 51):
        assert traj.d[t] <= zeta**t * traj.d[0] + 1e-9
    # and the error channel stayed silent
    assert np.all(traj.e_norm == 0.0)
    assert np.all(traj.v[1:] == 1)


def test_skipped_updates_leave_the_iterate_in_place():
    prob = static_problem()
    cfg = algorithm.AlgoConfig(
        alpha=0.2, p=0.3,
        eps_sampler=subweibull.gaussian(0.1), xi_sampler=subweibull.gaussian(0.1),
        meas_noise=subweibull.gaussian(0.05),
    )
    traj = lone_run(prob, cfg, 4, 40)
    skipped = np.where(traj.v[1:] == 0)[0] + 1
    assert skipped.size > 0
    for t in skipped:
        # static box: re-projection changes nothing
        np.testing.assert_array_equal(traj.x[t], traj.x[t - 1])
        # the noise stream is still consumed and recorded
        assert traj.e_norm[t] > 0.0


def test_same_seed_same_trajectory():
    prob = static_problem()
    cfg = algorithm.AlgoConfig(
        alpha=0.2, p=0.7,
        eps_sampler=subweibull.gaussian(0.2), xi_sampler=subweibull.weibull_tail(1.0, 0.1),
        meas_noise=subweibull.gaussian(0.05),
    )
    t1 = lone_run(prob, cfg, 123, 30)
    t2 = lone_run(prob, cfg, 123, 30)
    np.testing.assert_array_equal(t1.x, t2.x)
    np.testing.assert_array_equal(t1.v, t2.v)
    t3 = lone_run(prob, cfg, 99, 30)
    assert not np.array_equal(t1.x, t3.x)


def test_availability_is_monotone_in_p():
    # same sample path: every measurement seen at p=0.4 is also seen at p=0.9
    prob = static_problem()
    base = dict(
        eps_sampler=subweibull.zero(), xi_sampler=subweibull.zero(),
        meas_noise=subweibull.zero(),
    )
    lo = lone_run(prob, algorithm.AlgoConfig(alpha=0.2, p=0.4, **base), 5, 50)
    hi = lone_run(prob, algorithm.AlgoConfig(alpha=0.2, p=0.9, **base), 5, 50)
    assert np.all(hi.v >= lo.v)
    assert hi.v.sum() > lo.v.sum()


def test_run_argument_validation():
    prob = static_problem()
    good = quiet_config(0.2, 1.0)
    with pytest.raises(ValueError, match="step count"):
        lone_run(prob, good, 0, 0)
    with pytest.raises(ValueError, match="step count"):
        lone_run(prob, good, 0, prob.n_steps + 1)
    with pytest.raises(ValueError, match="contraction condition"):
        lone_run(prob, quiet_config(5.0, 1.0), 0, 10)
    with pytest.raises(ValueError, match="shape"):
        lone_run(prob, good, 0, 10, x0=np.zeros(3))
    with pytest.raises(ValueError, match="infeasible"):
        lone_run(prob, good, 0, 10, x0=np.array([10.0, 0.0]))
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="shape"):
        algorithm.simulate(prob, good, np.zeros((3, 2)), rngs, n_steps=10)
    with pytest.raises(ValueError, match="availability"):
        algorithm.simulate(prob, good, None, rngs, n_steps=10, p=[0.5, 0.0])
    # the hook and its block of learned runs come together, and the block is a slice
    hook = prob.u_gradient
    for hooks in (
        {"input_grad": hook}, {"learned": slice(0, 1)}, {"input_grad": hook, "learned": [True, False]},
    ):
        with pytest.raises(ValueError, match="one slice of runs"):
            algorithm.simulate(prob, good, None, rngs, n_steps=10, **hooks)


def test_default_start_is_the_box_midpoint():
    prob = static_problem()
    traj = lone_run(prob, quiet_config(0.2, 1.0), 0, 5)
    np.testing.assert_allclose(traj.x[0], 0.0)  # symmetric box
    assert traj.v[0] == 0


def test_input_grad_hook_reproduces_exact_run():
    # supplying the true input-cost gradient must match the built-in model
    # term draw for draw when both runs consume the same generator stream
    prob = static_problem()
    cfg = algorithm.AlgoConfig(
        alpha=0.2, p=0.8,
        eps_sampler=subweibull.zero(), xi_sampler=subweibull.gaussian(0.1),
        meas_noise=subweibull.gaussian(0.05),
    )
    ref = lone_run(prob, cfg, 17, 40)
    hooked = lone_run(prob, cfg, 17, 40, input_grad=prob.u_gradient, learned=slice(0, 1))
    np.testing.assert_allclose(hooked.x, ref.x, atol=1e-12)
    # with an exact model the recorded error is the xi channel alone
    assert np.all(hooked.e_norm[1:] > 0)


def test_after_step_hook_sees_every_step():
    prob = static_problem()
    seen = []
    lone_run(prob, quiet_config(0.2, 0.5), 3, 25, after_step=lambda t, x: seen.append((t, x.copy())))
    assert [t for t, _ in seen] == list(range(1, 26))
    assert all(x.shape == (1, 2) for _, x in seen)


@pytest.mark.parametrize("learned", [False, True, "mixed"])
def test_kernel_matches_a_literal_per_step_loop(learned):
    prob = drifting_problem()
    cfg = noisy_config()
    # a deliberately biased model term, so the input_grad path carries its own error
    hook = (lambda x, t: 1.1 * prob.u_gradient(x, t) + 0.05) if learned else None
    # "mixed": the hook serves the block of the last two runs only
    rows = {False: None, True: slice(0, 3), "mixed": slice(1, 3)}[learned]
    x0 = np.array([[0.0, 0.0, 0.0], [0.4, 0.2, -1.0], [-0.5, -0.3, 0.3]])
    seeds = (3, 4, 5)
    trajs = algorithm.simulate(
        prob, cfg, x0, [np.random.default_rng(s) for s in seeds], n_steps=50,
        input_grad=hook, learned=rows,
    )
    for r, (traj, start, seed) in enumerate(zip(trajs, x0, seeds)):
        x, v, d, e = literal_run(
            prob, cfg, start, np.random.default_rng(seed), 50,
            input_grad=hook if rows is not None and r in range(3)[rows] else None,
        )
        assert 0 < v.sum() < 50
        for name, want in (("v", v), ("x", x), ("d", d), ("e_norm", e)):
            np.testing.assert_array_equal(getattr(traj, name), want)


def wide_problem(n_out, m, n_t=41):
    """``n_out`` outputs and ``m`` inputs, one of them 1, so a lone run's
    plant sums have one number per slice, and the other at least 8, where
    NumPy's pairwise summation would start."""
    rng = np.random.default_rng(n_out * 100 + m)
    G = rng.uniform(-0.3, 0.3, (n_out, m))
    H = rng.uniform(0.5, 1.0, (n_out, 1))
    y_ref = rng.uniform(-1.0, 1.0, (n_t, n_out))
    a = rng.uniform(0.5, 1.0, (n_t, m))
    b = rng.uniform(-0.5, 0.5, (n_t, m))
    lower = np.full((n_t, m), -1.0)
    return problem.TimeVaryingProblem(
        problem.LinearPlantMap(G, H),
        problem.BoxSchedule(lower, -lower),
        problem.CostSchedule(1.0, y_ref, a, b, np.zeros((n_t, m)), np.full((n_t, 1), 0.1)),
    )


@pytest.mark.parametrize("n_out, m", [(1, 12), (12, 1)])
@pytest.mark.parametrize("learned", [False, True])
def test_a_lone_run_on_lone_columns_is_the_literal_loop(n_out, m, learned):
    prob = wide_problem(n_out, m)
    cfg = replace(noisy_config(), alpha=0.9 / float(prob.curvature_all()[1].max()))
    hook = (lambda x, t: 1.1 * prob.u_gradient(x, t) + 0.05) if learned else None
    rows = slice(0, 1) if learned else None
    traj = lone_run(prob, cfg, 8, 40, input_grad=hook, learned=rows)
    x0 = prob.boxes.midpoints[0]
    x, v, d, e = literal_run(prob, cfg, x0, np.random.default_rng(8), 40, input_grad=hook)
    for name, want in (("v", v), ("x", x), ("d", d), ("e_norm", e)):
        np.testing.assert_array_equal(getattr(traj, name), want)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 32),
    # the kernel's (m, R, n_out), (n_out, R, m), (m, T, S) and (m, R) layouts and
    # mean_gradient's (q, R, m) and (q, batch, query), a slice of one number included
    rest=st.lists(st.integers(1, 5), max_size=3).map(tuple),
    data=st.data(),
)
def test_slice_sum_is_the_left_to_right_loop(n, rest, data):
    shape = (n,) + rest
    P = data.draw(hnp.arrays(float, shape, elements=st.floats(1e-8, 1e8)))
    P *= data.draw(hnp.arrays(float, shape, elements=st.sampled_from([-1.0, 1.0])))
    for i in range(n):
        zero = data.draw(st.sampled_from([None, 0.0, -0.0]))
        if zero is not None:  # a row of signed zeros
            P[i] = zero
    want = P[0]
    for row in P[1:]:
        want = want + row
    assert np.asarray(algorithm._slice_sum(P)).tobytes() == np.asarray(want).tobytes()
    if P.size > n:  # what _slice_sum relies on: whole slices added in index order
        assert np.add.reduce(P, axis=0, initial=-0.0).tobytes() == np.asarray(want).tobytes()
    np.testing.assert_array_equal(algorithm._slice_sum(P[:0]), np.zeros(rest))


@settings(max_examples=25, deadline=None)
@given(
    n_runs=st.integers(1, 8),
    n_steps=st.integers(1, 40),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=8, max_size=8),
    ps=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
)
def test_batch_rows_are_their_own_runs(n_runs, n_steps, seeds, ps):
    prob = drifting_problem()
    cfg = noisy_config()
    seeds, ps = seeds[:n_runs], ps[:n_runs]
    batch = algorithm.simulate(
        prob, cfg, None, [np.random.default_rng(s) for s in seeds], n_steps=n_steps, p=ps,
    )
    for traj, seed, p in zip(batch, seeds, ps):
        alone = lone_run(prob, replace(cfg, p=p), seed, n_steps)
        for name in ("x", "v", "d", "e_norm"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(alone, name))
        steps = np.arange(n_steps + 1)
        assert np.all(traj.x >= prob.boxes.lower[steps]) and np.all(traj.x <= prob.boxes.upper[steps])
    # runs sharing one stream see every measurement a smaller p sees
    shared = algorithm.simulate(
        prob, cfg, None, [np.random.default_rng(seeds[0]) for _ in ps], n_steps=n_steps, p=ps,
    )
    order = np.argsort(ps, kind="stable")
    for lo, hi in zip(order[:-1], order[1:]):
        assert np.all(shared[hi].v >= shared[lo].v)


@settings(max_examples=25, deadline=None)
@given(
    n_steps=st.integers(1, 30),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    data=st.data(),
)
def test_runs_sharing_a_generator_each_see_a_lone_run(n_steps, seeds, data):
    prob = drifting_problem()
    cfg = noisy_config()
    n_runs = data.draw(st.integers(1, 8), label="n_runs")
    owner = data.draw(
        st.lists(st.integers(0, len(seeds) - 1), min_size=n_runs, max_size=n_runs), label="owner"
    )
    ps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_runs, max_size=n_runs), label="ps")
    gens = [np.random.default_rng(s) for s in seeds]
    batch = algorithm.simulate(prob, cfg, None, [gens[k] for k in owner], n_steps=n_steps, p=ps)
    for traj, k, p in zip(batch, owner, ps):
        lone_rng = np.random.default_rng(seeds[k])
        alone = algorithm.simulate(prob, replace(cfg, p=p), None, [lone_rng], n_steps)[0]
        for name in ("x", "v", "d", "e_norm"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(alone, name))
        # a shared generator advanced exactly as far as the lone one
        assert gens[k].bit_generator.state == lone_rng.bit_generator.state


def test_trajectory_record_and_csv(tmp_path):
    prob = static_problem()
    traj = lone_run(prob, quiet_config(0.2, 1.0), 0, 3)
    assert traj.x.shape == (4, 2)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,v,d_t,e_norm,x_1,x_2"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(traj.d[0], rel=1e-15)
    # 15-significant-digit round trip
    for line, t in zip(lines[1:], range(4)):
        cells = line.split(",")
        assert float(cells[4]) == pytest.approx(traj.x[t, 0], rel=1e-14, abs=1e-300)
