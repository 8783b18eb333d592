"""GP regression: posterior formulas, analytic gradient, windowing, batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedopt import gplearn


KER = gplearn.SquaredExponential(2.0, 0.8)


def kernel(x1, x2):
    """``KER`` written out by hand."""
    return 2.0 * np.exp(-((x1 - x2) ** 2) / (2.0 * 0.8**2))


def random_posterior(rng, n_obs, noise_var=1e-3):
    sites = rng.uniform(-2.0, 2.0, n_obs)
    values = np.sin(sites) + 0.5 * sites**2 + np.sqrt(noise_var) * rng.standard_normal(n_obs)
    return gplearn.GPPosterior(KER, noise_var, sites, values)


def test_kernel_validation_and_values():
    with pytest.raises(ValueError, match="signal variance"):
        gplearn.SquaredExponential(0.0, 1.0)
    with pytest.raises(ValueError, match="length scale"):
        gplearn.SquaredExponential(1.0, 0.0)
    # one noiseless site s reads the kernel back: mean(x) = k(x, s) / k(s, s) * z
    # and var(x) = k(x, x) - k(x, s)^2 / k(s, s)
    gp = gplearn.GPPosterior(KER, 0.0, [0.0], [1.0])
    assert gp.posterior_mean(0.0) == pytest.approx(1.0, rel=1e-12)
    assert gp.posterior_mean(0.8) == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert gp.posterior_var(0.8) == pytest.approx(2.0 - kernel(0.8, 0.0) ** 2 / 2.0, rel=1e-12)
    # the prior variance is k(x, x) at any x
    assert gplearn.GPPosterior(KER, 0.1).posterior_var(1.3) == pytest.approx(kernel(1.3, 1.3))


def test_empty_posterior_is_the_prior():
    gp = gplearn.GPPosterior(KER, 0.1)
    assert gp.n_obs == 0
    assert gp.posterior_mean(0.7) == 0.0
    assert gp.posterior_var(0.7) == pytest.approx(2.0)
    assert gp.mean_gradient(0.7) == 0.0


def test_single_observation_closed_form():
    s, z, nv = 0.5, 3.0, 0.25
    gp = gplearn.GPPosterior(KER, nv, [s], [z])
    x = 1.1
    k_xs = float(kernel(x, s))
    denom = KER.sigma_f2 + nv
    assert gp.posterior_mean(x) == pytest.approx(k_xs * z / denom, rel=1e-12)
    assert gp.posterior_var(x) == pytest.approx(KER.sigma_f2 - k_xs**2 / denom, rel=1e-12)
    # gradient of the single-site mean: d/dx k(x,s) * z/denom
    expected_grad = k_xs * (s - x) / KER.ell**2 * z / denom
    assert gp.mean_gradient(x) == pytest.approx(expected_grad, rel=1e-12)


def test_posterior_matches_the_dense_solve():
    # the substitutions against mean = k^T (K + s I)^-1 z and var = k(x, x) - k^T (K + s I)^-1 k
    rng = np.random.default_rng(5)
    for n_obs in (2, 5, 12):
        gp = random_posterior(rng, n_obs, noise_var=0.05)
        xs = rng.uniform(-2.5, 2.5, 7)
        gram = kernel(gp.sites[:, None], gp.sites[None, :]) + 0.05 * np.eye(n_obs)
        cross = kernel(gp.sites[:, None], xs[None, :])
        mean = cross.T @ np.linalg.solve(gram, gp.values)
        np.testing.assert_allclose(gp.posterior_mean(xs), mean, rtol=1e-10)
        reduction = np.sum(cross * np.linalg.solve(gram, cross), axis=0)
        np.testing.assert_allclose(gp.posterior_var(xs), 2.0 - reduction, rtol=1e-10)


def test_noiseless_interpolation_at_sites():
    rng = np.random.default_rng(10)
    for _ in range(5):
        sites = np.sort(rng.uniform(-2.0, 2.0, 6))
        # keep sites apart so the zero-noise Gram stays well conditioned
        sites += np.arange(6) * 0.5
        values = np.cos(sites)
        gp = gplearn.GPPosterior(KER, 0.0, sites, values)
        np.testing.assert_allclose(gp.posterior_mean(sites), values, atol=1e-7)
        assert np.all(gp.posterior_var(sites) < 1e-7)


def test_mean_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(10):
        gp = random_posterior(rng, rng.integers(2, 12))
        for x in rng.uniform(-2.5, 2.5, 4):
            fd = (gp.posterior_mean(x + h) - gp.posterior_mean(x - h)) / (2 * h)
            assert gp.mean_gradient(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_variance_shrinks_with_data_and_stays_nonnegative():
    rng = np.random.default_rng(7)
    gp0 = gplearn.GPPosterior(KER, 0.01)
    gp1 = gp0.add_observation(0.0, 1.0)
    gp2 = gp1.add_observation(0.5, 1.2)
    grid = np.linspace(-1.0, 1.0, 21)
    v0, v1, v2 = gp0.posterior_var(grid), gp1.posterior_var(grid), gp2.posterior_var(grid)
    assert np.all(v1 <= v0 + 1e-12)
    assert np.all(v2 <= v1 + 1e-12)
    assert np.all(v2 >= 0.0)


def test_add_observation_is_functional_and_windows():
    gp = gplearn.GPPosterior(KER, 0.1, [0.0], [1.0])
    gp2 = gp.add_observation(1.0, 2.0)
    assert gp.n_obs == 1 and gp2.n_obs == 2
    gp3 = gp2.add_observation(2.0, 3.0, max_obs=2)
    assert gp3.n_obs == 2
    np.testing.assert_array_equal(gp3.sites, [1.0, 2.0])  # oldest site dropped
    np.testing.assert_array_equal(gp3.values, [2.0, 3.0])


def test_posterior_shapes_scalar_and_array():
    rng = np.random.default_rng(1)
    gp = random_posterior(rng, 5)
    assert isinstance(gp.posterior_mean(0.3), float)
    assert isinstance(gp.posterior_var(0.3), float)
    assert isinstance(gp.mean_gradient(0.3), float)
    grid = np.linspace(-1, 1, 7)
    assert gp.posterior_mean(grid).shape == (7,)
    assert gp.posterior_var(grid).shape == (7,)
    assert gp.mean_gradient(grid).shape == (7,)


def test_duplicate_sites_with_zero_noise_survive_via_jitter(monkeypatch):
    # at sigma_f2 = 2 the jitter-free Gram matrix [[2, 2], [2, 2]] factorises
    # without error, but its second pivot is rounding noise below the pivot
    # floor, so the accepted factor carries a nonzero jitter
    cholesky, calls = np.linalg.cholesky, []

    def spy(a):
        factor = cholesky(a)
        calls.append((a[0, 0], factor))
        return factor

    monkeypatch.setattr(gplearn.np.linalg, "cholesky", spy)
    gp = gplearn.GPPosterior(KER, 0.0, [1.0, 1.0], [2.0, 2.0])
    assert calls[0][0] == 2.0 and len(calls) > 1
    assert calls[-1][0] > 2.0
    np.testing.assert_array_equal(gp._factors, calls[-1][1])
    assert np.isfinite(gp.posterior_mean(0.0))


def test_empty_posterior_factorises_nothing(monkeypatch):
    # the config check builds an empty posterior at load; it is its prior, so no
    # Gram matrix is factorised
    def no_factor(*args, **kwargs):
        raise AssertionError("an empty posterior factorised a Gram matrix")

    monkeypatch.setattr(gplearn.np.linalg, "cholesky", no_factor)
    gp = gplearn.GPPosterior(KER, 0.1)
    assert gp.n_obs == 0
    assert gp.posterior_mean(0.3) == 0.0 and gp.mean_gradient(0.3) == 0.0
    assert gp.posterior_var(0.3) == 2.0
    batch = gplearn.GPPosterior(KER, 0.1, np.empty((2, 3, 0)), np.empty((2, 3, 0)))
    np.testing.assert_array_equal(batch.mean_gradient(np.ones((2, 3))), np.zeros((2, 3)))


def test_posterior_validation():
    with pytest.raises(ValueError, match="noise variance"):
        gplearn.GPPosterior(KER, -0.1)
    with pytest.raises(ValueError, match="same length"):
        gplearn.GPPosterior(KER, 0.1, [0.0, 1.0], [1.0])


@settings(max_examples=40, deadline=None)
@given(
    batch=st.lists(st.integers(1, 6), min_size=0, max_size=2).map(tuple).filter(
        lambda b: len(b) < 2 or b[0] <= 4
    ),
    n_seed=st.integers(0, 10),
    n_added=st.integers(0, 2),
    max_obs=st.one_of(st.none(), st.integers(2, 8)),
    n_queries=st.integers(1, 3),
    duplicated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_gps_equal_the_same_gps_alone(
    batch, n_seed, n_added, max_obs, n_queries, duplicated, seed
):
    # q runs over 0..12 sites; each GP has its own hyperparameters and data
    rng = np.random.default_rng(seed)
    sigma_f2, ell = np.array(rng.uniform(0.5, 4.0, batch)), rng.uniform(0.3, 2.0, batch)
    noise_var = float(rng.uniform(1e-4, 0.3))
    sites = rng.uniform(-3.0, 3.0, batch + (n_seed,))
    if duplicated and n_seed >= 2:
        # the first GP repeats a site without noise; at unit signal variance its
        # second pivot is exactly 0, so only a jitter factorises its Gram matrix
        first = (0,) * len(batch)
        noise_var, sigma_f2[first] = 0.0, 1.0
        sites[first + (1,)] = sites[first + (0,)]
    kernel = gplearn.SquaredExponential(sigma_f2, ell)
    values = np.sin(sites) + 0.3 * sites**2 + rng.standard_normal(sites.shape)
    added = rng.uniform(-3.0, 3.0, (n_added, 2) + batch)
    learner = gplearn.GPPosterior(kernel, noise_var, sites, values)
    for x, z in added:
        learner = learner.add_observation(x, z, max_obs=max_obs)
    assert learner.batch_shape == batch
    # one point per GP, as the kernel step queries, and a row of points per GP
    for queries in (rng.uniform(-3.5, 3.5, batch), rng.uniform(-3.5, 3.5, batch + (n_queries,))):
        methods = (learner.posterior_mean, learner.posterior_var, learner.mean_gradient)
        results = [fn(queries) for fn in methods]
        for idx in np.ndindex(*batch):
            alone = gplearn.GPPosterior(
                gplearn.SquaredExponential(kernel.sigma_f2[idx], kernel.ell[idx]),
                noise_var, sites[idx], values[idx],
            )
            for x, z in added:
                alone = alone.add_observation(x[idx], z[idx], max_obs=max_obs)
            assert alone.batch_shape == () and alone.n_obs == learner.n_obs
            expected = (alone.posterior_mean, alone.posterior_var, alone.mean_gradient)
            for batched, fn in zip(results, expected):
                np.testing.assert_array_equal(np.asarray(batched)[idx], fn(queries[idx]))


def test_batch_shape_validation():
    learner = gplearn.GPPosterior(KER, 0.1, np.zeros((2, 3, 0)), np.zeros((2, 3, 0)))
    assert learner.batch_shape == (2, 3) and learner.n_obs == 0
    with pytest.raises(ValueError, match="batch shape"):
        learner.mean_gradient(np.zeros(3))
    with pytest.raises(ValueError):
        learner.add_observation(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="batch shape"):
        gplearn.GPPosterior(KER, 0.1, np.zeros((2, 3)), np.zeros((3, 2)))
