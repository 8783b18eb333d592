"""Tests of the benchmark's reference computations.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import math

import numpy as np
import pytest

from reference import constrained_optimum, contraction_rates, log_eta_star, transient_products


def test_constrained_optimum_matches_clipped_separable_solution():
    # G has orthogonal rows on disjoint inputs, so G^T G is diagonal, the cost
    # separates by coordinate and the box optimum is the clipped free optimum.
    G = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]])
    H = np.array([[0.5], [-1.0]])
    w = np.array([2.0])
    y_ref = np.array([3.0, -1.0])
    a = np.array([0.5, 0.25, 1.0, 0.75])
    b = np.array([-1.0, 2.0, 0.5, -3.0])
    beta = 2.0
    diag = beta * (G.T @ G).diagonal() + 2.0 * a
    free = -(beta * G.T @ (H @ w - y_ref) + b) / diag
    lower = np.array([-1.0, -1.0, -1.0, 2.5])
    upper = np.array([1.0, 1.0, 1.0, 4.0])
    x = constrained_optimum(G, H, beta, y_ref, w, a, b, lower, upper)
    np.testing.assert_allclose(x, np.clip(free, lower, upper), rtol=0, atol=1e-12)
    assert np.any(free < lower) and np.any(free > upper)  # both bounds bind


def test_contraction_rates_and_transient_product_on_a_diagonal_hessian():
    # G = 0 leaves the Hessian 2 diag(a_t): mu_t = 2 min(a_t), L_t = 2 max(a_t).
    G = np.zeros((1, 3))
    a = np.array([[0.5, 1.0, 2.0], [0.25, 0.25, 0.5], [1.0, 1.5, 1.5]])
    alpha = 0.4
    zeta = contraction_rates(G, 1.0, a, alpha)
    expected = np.maximum(np.abs(1 - alpha * 2 * a.min(axis=1)), np.abs(1 - alpha * 2 * a.max(axis=1)))
    np.testing.assert_allclose(zeta, expected, rtol=1e-12)
    d0, p = 3.0, 0.6
    prods = transient_products(d0, p, zeta)
    rho = 1 - p + p * zeta
    np.testing.assert_allclose(prods, [d0, d0 * rho[1], d0 * rho[1] * rho[2]], rtol=1e-12)


def test_eta_star_at_full_availability_is_zeta_to_the_t_at_k_one():
    zeta, t = 0.8, 37
    log_val, k = log_eta_star(t, 1.0, zeta)
    assert k[0] == 1.0
    assert math.exp(log_val[0]) == pytest.approx(zeta**t, rel=1e-12)


def test_eta_star_finds_the_maximiser_beyond_the_integer_grid_edge():
    # p = 0.7, zeta = 0.672, t = 100: the integer grid 1..100 peaks at its
    # edge with 0.0300; the supremum lies near k = 2 t ln(1/0.3) = 240.8.
    t, p, zeta = 100, 0.7, 0.672
    ks = np.arange(1, 101, dtype=float)
    on_grid = float(np.max((1 - p + p * zeta**ks) ** (t / ks) / np.sqrt(ks)))
    assert on_grid == pytest.approx(0.0300, abs=5e-5)
    log_val, k = log_eta_star(t, p, zeta)
    assert math.exp(log_val[0]) == pytest.approx(0.03909, abs=5e-5)
    assert k[0] == pytest.approx(2 * t * math.log(1 / (1 - p)), rel=1e-3)
    dense = np.exp(np.linspace(0.0, math.log(5000.0), 400001))
    brute = np.max((t / dense) * np.log1p(-p + p * zeta**dense) - 0.5 * np.log(dense))
    assert log_val[0] >= brute - 1e-12
