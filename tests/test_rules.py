"""Every parameter rule has one owner, and every site that meets the rule
calls it: the same inputs are accepted everywhere, and a rejected input
gets the owner's message wherever it arrives."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import feedopt
from feedopt import algorithm, bounds, config, scenario, validation
from feedopt.bounds import BoundInputs
from tests_common import static_instance

# each rule's message, with the number of times it may be written in src/;
# "must lie in (0, 1)" is the contraction factor's and delta's
RULE_MESSAGES = {
    "must lie in (0, 1]": 1,
    "availability probability must lie in (0, 1]": 1,
    "step size must be positive": 1,
    "tracking weight beta must be positive": 1,
    "must lie in (0, 1)": 2,
    "contraction factors must lie in (0, 1)": 1,
    "delta must lie in (0, 1)": 1,
    "tail exponent must be positive": 1,
    "moment order must satisfy": 1,
    "dimension must be at least 1": 1,
    "must be a nonnegative integer": 1,
    "is not finite at theta": 1,
}


def test_each_rule_message_is_written_once():
    src = "".join(path.read_text() for path in sorted(Path(feedopt.__file__).parent.glob("*.py")))
    counts = {message: src.count(message) for message in RULE_MESSAGES}
    assert counts == RULE_MESSAGES


def verdict(check, value):
    """None if ``check(value)`` accepts the value, else its error message."""
    try:
        check(value)
    except ValueError as exc:
        return str(exc)
    return None


def assert_sites_agree(owner, sites, value):
    """Each site accepts ``value`` exactly when the owner does, and otherwise
    raises the owner's message (``ValidationSettings`` prefixes its key)."""
    expected = verdict(owner, value)
    for name, site in sites.items():
        got = verdict(site, value)
        if expected is None:
            assert got is None, (name, value, got)
        else:
            assert got is not None and got.endswith(expected), (name, value, got, expected)


PROB, CFG = static_instance(n_t=4)
OK = dict(
    alpha=0.4, p=0.7, zeta_t=[0.9, 0.5, 0.6], phi=[0.1, 0.2], e_mean=[0.1] * 3, nu_e=[1.0] * 3,
    theta_e=1.0, d0=1.0,
)

AVAILABILITY_SITES = {
    "AlgoConfig": lambda p: algorithm.AlgoConfig(
        CFG.alpha, p, CFG.eps_sampler, CFG.xi_sampler, CFG.meas_noise
    ),
    "simulate": lambda p: algorithm.simulate(
        PROB, CFG, None, [np.random.default_rng(0)], n_steps=1, p=p
    ),
    "BoundInputs": lambda p: BoundInputs(**{**OK, "p": p}),
    "log_eta": lambda p: bounds.log_eta(3, p, 0.5),
    "binomial_moment": lambda p: bounds.binomial_moment(0.5, p, 3, 2.0),
    "ScenarioConfig.p_values": lambda p: scenario.ScenarioConfig(p_values=(p,)),
    "ValidationSettings.p": lambda p: config.ValidationSettings(p=p),
}

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 5e-324, -5e-324)


def with_edges(test):
    for value in EDGES:
        test = example(value)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(st.floats())
@with_edges
def test_availability_sites_agree_with_the_owner(p):
    assert_sites_agree(algorithm.check_availability, AVAILABILITY_SITES, p)


CONTRACTION_SITES = {
    "BoundInputs": lambda z: BoundInputs(**{**OK, "zeta_t": [0.9, 0.5, z]}),
    "log_eta": lambda z: bounds.log_eta(3, 0.7, z),
    "validation moment grid": lambda z: validation.check_settings(
        config.ValidationSettings(moment_zetas=(0.5, z)), 500
    ),
}


@settings(max_examples=100, deadline=None)
@given(st.floats())
@with_edges
def test_contraction_factor_sites_agree_with_the_owner(zeta):
    assert_sites_agree(bounds.check_contraction_factors, CONTRACTION_SITES, zeta)


def test_owners_name_the_first_offender():
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\], got 0.0$"):
        algorithm.check_availability([0.5, 0.0, 2.0])
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\), got 1.0$"):
        bounds.check_contraction_factors(np.array([0.5, 1.0, 0.0]))
