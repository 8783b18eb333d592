"""Tail-class algebra: constructors, closure rules, bounds, samplers.

Numeric reference values below were computed independently (closed forms
where they exist, high-precision quadrature otherwise) and are frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from feedopt import subweibull as sw


# -- construction and basic bounds -------------------------------------------


def test_make_rejects_bad_parameters():
    with pytest.raises(ValueError, match="tail exponent"):
        sw.SubWeibull(0.0, 1.0)
    with pytest.raises(ValueError, match="tail exponent"):
        sw.SubWeibull(-1.0, 1.0)
    with pytest.raises(ValueError, match="moment scale"):
        sw.SubWeibull(0.5, -0.1)


def test_moment_bound_values_and_monotonicity():
    c = sw.SubWeibull(0.5, 2.0)
    assert c.moment_bound(1) == 2.0
    assert c.moment_bound(4) == pytest.approx(4.0)
    ks = np.arange(1, 30)
    vals = [c.moment_bound(k) for k in ks]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError, match="k >= 1"):
        c.moment_bound(0.5)


# -- closure operations -------------------------------------------------------


def test_scale():
    c = sw.SubWeibull(0.5, 2.0)
    assert c.scale(-3.0) == sw.SubWeibull(0.5, 6.0)
    assert c.scale(0.0).nu == 0.0
    assert c.scale(1.0) == c


def test_shift():
    c = sw.SubWeibull(0.5, 1.0)
    assert c.shift(2.0) == sw.SubWeibull(0.5, 3.0)
    assert c.shift(-2.0) == sw.SubWeibull(0.5, 3.0)
    assert c.shift(0.0) == c


def test_add_takes_worst_exponent_and_sums_scales():
    a = sw.SubWeibull(0.5, 1.0)
    b = sw.SubWeibull(1.0, 2.0)
    out = a.add(b)
    assert out == sw.SubWeibull(1.0, 3.0)
    # addition needs no independence, so no flag exists to get wrong
    assert b.add(a) == out


def test_mul_requires_declared_independence():
    a = sw.SubWeibull(0.5, 1.0)
    b = sw.SubWeibull(1.0, 2.0)
    out = a.mul(b, independent=True)
    assert out.theta == pytest.approx(1.5)
    assert out.nu == pytest.approx(2.0)
    with pytest.raises(ValueError, match="independen"):
        a.mul(b)
    with pytest.raises(ValueError, match="independen"):
        a.mul(b, independent=False)


# -- high-probability and tail bounds -----------------------------------------


def test_hp_bound_frozen_values():
    # theta=1, nu=1 at delta = 2/e: log(2/delta) = 1, prefactor (2e/1)^1 -> 2e
    assert sw.SubWeibull(1.0, 1.0).hp_bound(2.0 / math.e) == pytest.approx(
        2.0 * math.e, rel=1e-14
    )
    assert sw.SubWeibull(1.0, 1.0).hp_bound(2.0 / math.e) == pytest.approx(
        5.43656365691809, rel=1e-13
    )
    # theta=1/2, nu=2: 2 * 1^(1/2) * (4e)^(1/2)
    assert sw.SubWeibull(0.5, 2.0).hp_bound(2.0 / math.e) == pytest.approx(
        6.594885082800513, rel=1e-13
    )
    assert sw.SubWeibull(1.0, 1.0).hp_bound(0.1) == pytest.approx(
        16.286489204260228, rel=1e-13
    )


def test_hp_bound_rejects_bad_delta():
    c = sw.SubWeibull(1.0, 1.0)
    for delta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="delta"):
            c.hp_bound(delta)


def test_hp_and_tail_bounds_are_mutually_consistent():
    # P(|X| >= hp_bound(delta)) <= delta must hold inside the calculus itself
    for theta, nu in ((0.5, 1.0), (1.0, 2.0), (2.0, 0.3)):
        c = sw.SubWeibull(theta, nu)
        for delta in (0.5, 0.1, 0.01):
            # the certificate's tail 2 exp(-(eps / nu1)^(1/theta)), nu1 = (2e/theta)^theta nu
            nu1 = (2.0 * math.e / theta) ** theta * nu
            tail = 2.0 * math.exp(-((c.hp_bound(delta) / nu1) ** (1.0 / theta)))
            assert tail <= delta + 1e-12


# -- error-norm composition ----------------------------------------------------


def test_vector_norm_class_frozen_values():
    g = sw.SubWeibull(0.5, 1.0)
    out = sw.vector_norm_class(4, g, g)
    assert out.theta == 0.5
    assert out.nu == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)
    mixed = sw.vector_norm_class(6, sw.SubWeibull(0.5, 1.0), sw.SubWeibull(1.0, 2.0))
    assert mixed.theta == 1.0
    assert mixed.nu == pytest.approx(13.262060586270465, rel=1e-13)


def test_vector_norm_class_rejects_bad_dim():
    g = sw.SubWeibull(0.5, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        sw.vector_norm_class(0, g, g)


# -- samplers ------------------------------------------------------------------


def test_sampler_declarations():
    assert sw.gaussian(1.0).declared == sw.SubWeibull(0.5, 1.0)
    assert sw.bounded_uniform(2.0).declared == sw.SubWeibull(0.5, 2.0)
    # the weibull-tail scale is calibrated so moments actually sit under nu k^theta:
    # unit-scale nu is sup_k Gamma(1 + k theta)^(1/k) / k^theta
    assert sw.weibull_tail(1.0, 1.0).declared == sw.SubWeibull(1.0, 1.0)
    w = sw.weibull_tail(0.5, 2.0)
    assert w.declared.theta == 0.5
    assert w.declared.nu == pytest.approx(2.0 * 0.8862269254527579, rel=1e-12)
    assert sw.weibull_tail(2.0, 0.15).declared.nu == pytest.approx(0.3, rel=1e-12)


def test_sampler_draws_and_errors():
    rng = np.random.default_rng(3)
    for sampler in (sw.gaussian(0.7), sw.bounded_uniform(1.3), sw.weibull_tail(1.5, 0.5)):
        draws = sampler.sample(rng, 1000)
        assert draws.shape == (1000,)
        with pytest.raises(ValueError, match="sample count"):
            sampler.sample(rng, 0)
    assert np.all(np.abs(sw.bounded_uniform(1.3).sample(rng, 5000)) <= 1.3)
    assert np.all(sw.zero().sample(rng, 100) == 0.0)
    with pytest.raises(ValueError, match="scale"):
        sw.gaussian(-1.0)
    with pytest.raises(ValueError, match="tail exponent"):
        sw.weibull_tail(0.0, 1.0)
    for theta in (200.0, math.inf):  # Gamma(1 + theta) overflows, or is infinite
        with pytest.raises(ValueError, match=r"Gamma\(1 \+ theta\) is not finite"):
            sw.weibull_tail(theta, 1.0)


def test_sampler_by_kind_name():
    assert sw.sampler("gaussian", 0.7, -1.0) == sw.gaussian(0.7)  # theta unread
    assert sw.sampler("bounded-uniform", 1.3, 2.0) == sw.bounded_uniform(1.3)
    assert sw.sampler("weibull-tail", 0.5, 1.5) == sw.weibull_tail(1.5, 0.5)
    with pytest.raises(ValueError, match="unknown sampler kind 'cauchy'"):
        sw.sampler("cauchy", 1.0, 1.0)
    with pytest.raises(ValueError, match="tail exponent"):
        sw.sampler("weibull-tail", 1.0, -1.0)


def test_sampler_determinism():
    a = sw.gaussian(1.0).sample(np.random.default_rng(11), 64)
    b = sw.gaussian(1.0).sample(np.random.default_rng(11), 64)
    np.testing.assert_array_equal(a, b)


def test_declared_moments_hold_empirically_small_scale():
    # a light version of the full certificate audit in the validation module
    rng = np.random.default_rng(5)
    for sampler in (sw.gaussian(1.0), sw.weibull_tail(1.0, 0.5)):
        draws = np.abs(sampler.sample(rng, 200_000))
        for k in (1, 2, 4):
            emp = float(np.mean(draws**k)) ** (1.0 / k)
            assert emp <= sampler.declared.moment_bound(k) * 1.01


# -- properties ------------------------------------------------------------------

THETA = st.floats(0.01, 10.0)
NU = st.floats(0.0, 1e6)
CERT = st.builds(sw.SubWeibull, THETA, NU)


def at_most(a, b):
    """``a <= b`` up to one rounding of ``pow`` (two ulps)."""
    return a <= b or math.isclose(a, b, rel_tol=4.5e-16, abs_tol=0.0)


@settings(max_examples=300, deadline=None)
@given(c=CERT, d=CERT)
def test_add_never_shrinks(c, d):
    out = c.add(d)
    assert out.theta >= c.theta and out.theta >= d.theta
    assert out.nu >= c.nu and out.nu >= d.nu


@settings(max_examples=300, deadline=None)
@given(c=CERT, a=st.floats(-1e3, 1e3))
def test_scale_keeps_theta_and_multiplies_nu(c, a):
    # scaling may shrink nu (|a| < 1): it is exact, not a widening
    out = c.scale(a)
    assert out.theta == c.theta
    assert out.nu == abs(a) * c.nu


@settings(max_examples=300, deadline=None)
@given(
    ks=st.lists(st.floats(1.0, 1e3), min_size=2, max_size=2),
    thetas=st.lists(THETA, min_size=2, max_size=2),
    nus=st.lists(NU, min_size=2, max_size=2),
)
def test_moment_bound_is_nondecreasing_in_k_theta_and_nu(ks, thetas, nus):
    (k1, k2), (t1, t2), (n1, n2) = sorted(ks), sorted(thetas), sorted(nus)
    assert at_most(sw.SubWeibull(t1, n1).moment_bound(k1), sw.SubWeibull(t1, n1).moment_bound(k2))
    assert at_most(sw.SubWeibull(t1, n1).moment_bound(k1), sw.SubWeibull(t2, n1).moment_bound(k1))
    assert at_most(sw.SubWeibull(t1, n1).moment_bound(k1), sw.SubWeibull(t1, n2).moment_bound(k1))


def grid_log_ratios(theta):
    """The unit Weibull log-ratio ``lnGamma(1 + k theta) / k - theta ln k`` on a
    20,001-point grid of ``k`` in ``[1, 512]``; ``k = 1`` is index 0."""
    k = np.linspace(1.0, 512.0, 20001)
    return gammaln(1.0 + k * theta) / k - theta * np.log(k)


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(0.01, 10.0), scale=st.floats(0.0, 1e3))
def test_weibull_scale_closed_form_equals_the_grid_supremum(theta, scale):
    # the supremum over k sits at k = 1, where the declared scale is scale * Gamma(1 + theta)
    assert np.argmax(grid_log_ratios(theta)) == 0
    assert sw.weibull_tail(theta, scale).declared.nu == scale * math.gamma(1.0 + theta)


def old_sample(sampler, rng, n):
    """The samplers' draws as the signed-product form wrote them: Weibull
    magnitudes, then sign bits b, then (2 b - 1) * magnitude."""
    if sampler.kind == "gaussian":
        return sampler.scale * rng.standard_normal(n)
    if sampler.kind == "bounded-uniform":
        return sampler.scale * rng.uniform(-1.0, 1.0, n)
    magnitude = sampler.scale * rng.weibull(1.0 / sampler.declared.theta, n)
    sign = rng.integers(0, 2, n) * 2 - 1
    return sign * magnitude


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "bounded-uniform", "weibull-tail"]),
    scale=st.one_of(st.just(0.0), st.floats(1e-300, 1e300)),  # scale 0 draws only zeros
    theta=st.floats(0.05, 10.0),
    n=st.one_of(st.just(1), st.integers(1, 3000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampler_draws_equal_the_signed_product(kind, scale, theta, n, seed):
    # in-place negation where the sign bit is 0 gives the bits of the old
    # product, signs of zero included, and leaves the stream where it did
    sampler = sw.sampler(kind, scale, theta)
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        got, want = sampler.sample(new_rng, n), old_sample(sampler, old_rng, n)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
