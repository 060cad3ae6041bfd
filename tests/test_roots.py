"""``roots.brentq`` against ``scipy.optimize.brentq``, its reference, bit for bit.

An array call is checked element by element: each root must be scipy's on
that element's own bracket, and a failing element must raise scipy's error.
A single bracket goes through a 1-element array call.
"""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from kerrsqueezer import (
    CavityParams, DomainError, cavity, phasematch, roots, scan_profile, scenarios)

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
    # Solved again, not served from the cache of an earlier test's call.
    phasematch._first_tan_roots.cache_clear()
    return calls


def element(f, k):
    """The scalar function of bracket ``k`` of an array call's ``f(x, index)``."""
    return lambda x: f(np.array([x]), np.array([k]))[0]


def vectorized(functions):
    """``f(x, index)`` of an array call over per-bracket scalar functions."""
    return lambda x, index: np.array([functions[k](v) for v, k in zip(x.tolist(), index.tolist())])


def assert_matches_scipy(calls, expected_roots):
    solved = 0
    for f, a, b, options, root in calls:
        assert root.dtype == float and root.shape == a.shape
        for k in range(len(a)):
            expected = scipy_brentq(element(f, k), a[k], b[k], **options)
            assert float(root[k]).hex() == expected.hex(), (k, a[k], b[k], options)
        solved += len(a)
    assert solved >= expected_roots


def solve_one(f, a, b, **options):
    """``roots.brentq`` on the single bracket ``[a, b]`` of a scalar ``f``."""
    return float(roots.brentq(vectorized([f]), np.array([a]), np.array([b]), **options)[0])


def outcome(solver, f, a, b, **options):
    try:
        return solver(f, a, b, **options).hex()
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("p_in", [0.015, 0.070], ids=["linear-monostable", "linear-bistable"])
def test_cavity_steady_states(recorded, p_in):
    params = CavityParams(RT_LENGTH, T1, LOSS)
    profile = scan_profile(params, p_in, np.linspace(-0.08, 0.04, 241), G_KERR)
    # One array call refines every bracket of the scan.
    assert len(recorded) == 1
    assert_matches_scipy(recorded, 241)
    if p_in > 0.05:
        assert profile.multi_branch


def test_lock_equation(recorded):
    params = CavityParams(RT_LENGTH, T1, LOSS)
    for p_in in (0.06, 0.085, 0.11):
        # Up to the conversion that clamps the round-trip loss at 0.999999.
        scenarios.locked_circulating_power(params, p_in, np.logspace(-7, 1, 33))
    # One array call per p_in solves all its conversions.
    assert len(recorded) == 3
    assert_matches_scipy(recorded, 99)


def test_lock_without_drive():
    # The general solve: each bracket [0, 0] starts on its root, +0.0.
    params = CavityParams(RT_LENGTH, T1, LOSS)
    for conversion in (np.logspace(-7, 1, 5), np.array([0.0]), np.array([])):
        p = scenarios.locked_circulating_power(params, 0.0, conversion)
        assert p.dtype == float and p.shape == conversion.shape
        assert [x.hex() for x in p.tolist()] == [(0.0).hex()] * len(conversion)


@pytest.mark.parametrize("p_in", [-0.01, math.nan, math.inf])
def test_lock_rejects_a_negative_or_non_finite_drive(p_in):
    # The message of steady_state_branches.
    params = CavityParams(RT_LENGTH, T1, LOSS)
    with pytest.raises(DomainError, match="input power must be >= 0"):
        scenarios.locked_circulating_power(params, p_in, np.logspace(-7, 1, 5))


def test_tan_x_equals_x(recorded):
    # One bracket per j pi <= 300, all in one array call; the last root,
    # near 95.5 pi, lies above 300.
    found = phasematch._tan_x_equals_x_roots(300.0)
    assert len(found) == 94 and len(recorded) == 1
    assert_matches_scipy(recorded, 95)
    # The same floats as scipy on the libm form of f.
    expected = [scipy_brentq(lambda x: x * math.cos(x) - math.sin(x), j * math.pi + 1e-12,
                             (j + 0.5) * math.pi - 1e-12, xtol=1e-12, rtol=8.9e-16)
                for j in range(1, 95)]
    assert all(type(x) is float for x in found)
    assert [x.hex() for x in found] == [x.hex() for x in expected]


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


def random_brackets():
    rng = random.Random(20201104)
    for _ in range(3000):
        f = rng.choice(FUNCTIONS)(rng.uniform(-2.0, 3.0))
        a, b = rng.uniform(-5.0, 1.0), rng.uniform(0.0, 6.0)
        if rng.random() < 0.3:
            a, b = b, a
        yield f, a, b, rng.randrange(len(OPTIONS))


def test_random_brackets():
    for f, a, b, k in random_brackets():
        options = OPTIONS[k]
        assert outcome(solve_one, f, a, b, **options) == outcome(scipy_brentq, f, a, b, **options)


def test_random_brackets_in_arrays():
    # The brackets scipy solves go into one array call per tolerance pair;
    # each one it rejects goes into a small array of solvable brackets.
    good = {k: [] for k in range(len(OPTIONS))}
    bad = []
    for f, a, b, k in random_brackets():
        try:
            good[k].append((f, a, b, scipy_brentq(f, a, b, **OPTIONS[k])))
        except (ValueError, RuntimeError) as err:
            bad.append((f, a, b, k, err))
    assert sum(len(brackets) for brackets in good.values()) > 1500
    for k, brackets in good.items():
        functions, a, b, expected = zip(*brackets)
        found = roots.brentq(vectorized(functions), np.array(a), np.array(b), **OPTIONS[k])
        assert [float(x).hex() for x in found] == [x.hex() for x in expected]

    kinds = {type(err): 0 for *_, err in bad}
    for i, (f, a, b, k, err) in enumerate(bad):
        kinds[type(err)] += 1
        neighbours = good[k][i % 10:i % 10 + 3]
        functions = [g for g, *_ in neighbours]
        lo, hi = [x for _, x, _, _ in neighbours], [x for *_, x, _ in neighbours]
        at = i % 4
        functions.insert(at, f)
        lo.insert(at, a)
        hi.insert(at, b)
        with pytest.raises(type(err)) as ours:
            roots.brentq(vectorized(functions), np.array(lo), np.array(hi), **OPTIONS[k])
        assert str(ours.value) == str(err)
    assert kinds[RuntimeError] == 150 and kinds[ValueError] > 1000


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
        solve_one(f, a, b, **options)
    with pytest.raises(error) as reference:
        scipy_brentq(f, a, b, **options)
    assert str(ours.value) == str(reference.value)
    # The same bracket between two good ones in an array call.
    with pytest.raises(error) as in_array:
        roots.brentq(vectorized([math.atan, f, math.atan]), np.array([-1.0, a, -2.0]),
                     np.array([2.0, b, 1.0]), **options)
    assert str(in_array.value) == str(reference.value)


def test_array_brackets_that_start_on_a_root():
    # A zero at either end returns that end, as the scalar loop does.
    functions = [lambda x: x, lambda x: x - 1.0, lambda x: x - 0.25]
    a, b = np.array([0.0, -1.0, 0.0]), np.array([1.0, 1.0, 1.0])
    found = roots.brentq(vectorized(functions), a, b, **TOLERANCES)
    expected = [scipy_brentq(g, x, y, **TOLERANCES) for g, x, y in zip(functions, a, b)]
    assert [float(x).hex() for x in found] == [x.hex() for x in expected]
    assert found[0] == 0.0 and found[1] == 1.0


def test_array_brackets_that_all_start_on_a_root():
    # With no bracket left to iterate the call returns at once.
    functions = [lambda x: x, lambda x: x - 1.0]
    a, b = np.array([0.0, -1.0]), np.array([1.0, 1.0])
    found = roots.brentq(vectorized(functions), a, b, **TOLERANCES)
    assert [float(x).hex() for x in found] == [
        scipy_brentq(g, x, y, **TOLERANCES).hex() for g, x, y in zip(functions, a, b)]
    assert roots.brentq(lambda x, i: x, np.array([0.0]), np.array([1.0]),
                        **TOLERANCES).tolist() == [0.0]


def test_empty_array_brackets():
    def f(x, index):
        raise AssertionError("f called with no bracket")

    found = roots.brentq(f, np.array([]), np.array([]), **TOLERANCES)
    assert found.shape == (0,) and found.dtype == float


@pytest.mark.parametrize("a,b", [
    (0.0, 1.0),
    (np.float64(0.0), np.float64(1.0)),
    (np.array(0.0), np.array(1.0)),
    (np.zeros((2, 1)), np.ones((2, 1))),
    (np.zeros(2), np.ones(3)),
], ids=["float", "numpy-scalar", "0-d", "2-D", "unequal"])
def test_brackets_must_be_1d_arrays(a, b):
    def f(x, index):
        raise AssertionError("f called on a rejected bracket")

    with pytest.raises(ValueError, match=r"^array brackets must be 1-D and of equal length$"):
        roots.brentq(f, a, b, **TOLERANCES)
