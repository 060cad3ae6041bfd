"""``roots.brentq`` against ``scipy.optimize.brentq``, its reference, bit for bit."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from kerrsqueezer import CavityParams, cavity, phasematch, roots, scan_profile, scenarios

T1 = 0.01
LOSS = 0.0019
RT_LENGTH = 0.838
G_KERR = -(14.0**2) * 0.0093**2 / (2 * math.pi)


@pytest.fixture
def recorded(monkeypatch):
    """Every (f, a, b, options, root) the program's modules solve while the test runs."""
    calls = []

    def record(f, a, b, **options):
        root = roots.brentq(f, a, b, **options)
        calls.append((f, a, b, options, root))
        return root

    for module in (cavity, phasematch, scenarios):
        monkeypatch.setattr(module, "brentq", record)
    return calls


def assert_matches_scipy(calls, expected_calls):
    assert len(calls) >= expected_calls
    for f, a, b, options, root in calls:
        assert type(root) is float
        assert root.hex() == scipy_brentq(f, a, b, **options).hex(), (a, b, options)


def outcome(solver, f, a, b, **options):
    try:
        return solver(f, a, b, **options).hex()
    except (ValueError, RuntimeError) as err:
        return type(err)


@pytest.mark.parametrize("p_in,phi_nl", [
    (0.015, lambda p: G_KERR * p),
    (0.070, lambda p: G_KERR * p),
    (0.070, lambda p: G_KERR * 12.0 * np.tanh(p / 12.0)),
], ids=["linear-monostable", "linear-bistable", "tanh-bistable"])
def test_cavity_steady_states(recorded, p_in, phi_nl):
    params = CavityParams(RT_LENGTH, T1, LOSS)
    profile = scan_profile(params, p_in, np.linspace(-0.08, 0.04, 241), phi_nl)
    assert_matches_scipy(recorded, 241)
    if p_in > 0.05:
        assert profile.multi_branch


def test_lock_equation(recorded):
    params = CavityParams(RT_LENGTH, T1, LOSS)
    for p_in in (0.06, 0.085, 0.11):
        # Up to the conversion that clamps the round-trip loss at 0.999999.
        for conversion_per_watt in np.logspace(-7, 1, 33):
            scenarios.locked_circulating_power(params, p_in, float(conversion_per_watt))
    assert_matches_scipy(recorded, 99)


def test_tan_x_equals_x(recorded):
    # One bracket per j pi <= 300; the last root, near 95.5 pi, lies above 300.
    assert len(phasematch._tan_x_equals_x_roots(300.0)) == 94
    assert_matches_scipy(recorded, 95)


FUNCTIONS = (
    lambda c: (lambda x: x - c),
    lambda c: (lambda x: math.atan(x - c)),
    lambda c: (lambda x: (x - c) ** 3),
    lambda c: (lambda x: math.tanh(50.0 * (x - c))),
    lambda c: (lambda x: math.exp(x) - math.exp(c)),
    lambda c: (lambda x: 1.0 if x > c else -1.0),  # a flat step: the bisection path
    lambda c: (lambda x: math.sin(7.0 * x) + 0.5 * c),
    lambda c: (lambda x: (x - c) * 1e-200),
    lambda c: (lambda x: math.copysign(abs(x - c) ** 0.1, x - c)),
    lambda c: (lambda x: math.nan if abs(x - c) < 0.3 else x - c - 0.1),
    # A step near 0 with xtol 1e-300 bisects past the iteration limit.
    lambda c: (lambda x: 1.0 if x > c * 1e-200 else -1.0),
)
OPTIONS = (
    {"xtol": 2e-12, "rtol": roots.RTOL_MIN},  # scipy's defaults
    {"xtol": 1e-300, "rtol": 8.9e-16},
    {"xtol": 1e-12, "rtol": 8.9e-16},
    {"xtol": 1e-3, "rtol": roots.RTOL_MIN},
    {"xtol": 1e-1, "rtol": 1e-3},
)


def test_random_brackets():
    rng = random.Random(20201104)
    for _ in range(3000):
        f = rng.choice(FUNCTIONS)(rng.uniform(-2.0, 3.0))
        a, b = rng.uniform(-5.0, 1.0), rng.uniform(0.0, 6.0)
        if rng.random() < 0.3:
            a, b = b, a
        options = rng.choice(OPTIONS)
        assert outcome(roots.brentq, f, a, b, **options) == outcome(scipy_brentq, f, a, b, **options)


TOLERANCES = {"xtol": 2e-12, "rtol": roots.RTOL_MIN}


@pytest.mark.parametrize("f,a,b,options,error", [
    (lambda x: x + 2.0, 0.0, 1.0, TOLERANCES, ValueError),
    (lambda x: math.nan, 0.0, 1.0, TOLERANCES, ValueError),
    (lambda x: math.nan if x > 0.7 else x - 0.5, 0.0, 1.0, TOLERANCES, ValueError),
    # A flat step bisects, and 100 halvings of a 2e300 bracket stay far
    # above the tolerance.
    (lambda x: 1.0 if x > 0.1 else -1.0, -1e300, 1e300, TOLERANCES, RuntimeError),
    (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0, "rtol": roots.RTOL_MIN}, ValueError),
    (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 2e-12, "rtol": 1e-17}, ValueError),
], ids=["sign", "nan-at-a", "nan-inside", "maxiter", "xtol", "rtol"])
def test_errors_match_scipy(f, a, b, options, error):
    with pytest.raises(error) as ours:
        roots.brentq(f, a, b, **options)
    with pytest.raises(error) as reference:
        scipy_brentq(f, a, b, **options)
    assert str(ours.value) == str(reference.value)
