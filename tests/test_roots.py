"""``roots.newton``, with the solves that use it, against ``scipy.optimize.brentq``
and against the tests' bisection oracle, and that oracle against scipy.

The bisection (:func:`test_cavity.bisect`) is the oracle of the Newton solves
of the lock and the steady states, bracketing the same exact equations.
"""

import functools
import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from kerrsqueezer import (
    CavityParams, DomainError, NumericalError, cavity, delta_k, phasematch, roots, scan_profile,
    scenarios, single_pass_conversion)
from kerrsqueezer.cli import main
from kerrsqueezer.scenarios import default_config_path, load_config, run_scenario
from test_cavity import assert_within_rounding, bisect

T1 = 0.01
LOSS = 0.0019
RT_LENGTH = 0.838
G_KERR = -(14.0**2) * 0.0093**2 / (2 * math.pi)


@pytest.fixture
def recorded(monkeypatch):
    """The bracket count of every Newton solve of phasematch while the test runs."""
    calls = []

    def record(f, x0, *args, **options):
        calls.append(len(x0))
        return roots.newton(f, x0, *args, **options)

    monkeypatch.setattr(phasematch, "newton", record)
    # Solved again, not served from the cache of an earlier test's call.
    phasematch._first_tan_roots.cache_clear()
    return calls


def vectorized(functions):
    """``f(x, index)`` of an array call over per-bracket scalar functions."""
    return lambda x, index: np.array([functions[k](v) for v, k in zip(x.tolist(), index.tolist())])


def scipy_on_the_runs(f, x0, neg, pos, **_):
    """The steady-state solve's roots by ``scipy.optimize.brentq``, one bracket at a
    time, on the run brackets and the value function the Newton solve gets."""
    return np.array([scipy_brentq(lambda x: float(f(np.array([x]), np.array([k]))[0][0]),
                                  min(a, b), max(a, b), xtol=1e-300, rtol=8.9e-16)
                     for k, (a, b) in enumerate(zip(neg.tolist(), pos.tolist()))])


@pytest.mark.parametrize("p_in", [0.015, 0.070], ids=["linear-monostable", "linear-bistable"])
def test_cavity_steady_states(monkeypatch, p_in):
    # One Newton call refines every root of the scan, and scipy's Brent on the
    # same run brackets finds the same counts and roots within the rounding.
    params, dets = CavityParams(RT_LENGTH, T1, LOSS), np.linspace(-0.08, 0.04, 241)
    calls = []
    newton = cavity.newton

    def record(*args, **options):
        calls.append(len(args[1]))
        return newton(*args, **options)

    monkeypatch.setattr(cavity, "newton", record)
    profile = scan_profile(params, p_in, dets, G_KERR)
    found = cavity.steady_state_branches(params, p_in, G_KERR, dets)
    assert len(calls) == 2 and calls[0] >= 241
    monkeypatch.setattr(cavity, "newton", scipy_on_the_runs)
    expected = cavity.steady_state_branches(params, p_in, G_KERR, dets)
    assert_within_rounding(params, p_in, G_KERR, dets, found, expected)
    if p_in > 0.05:
        assert profile.multi_branch


def lock_inputs(scenario, **changes):
    """(model, kappa, temperatures, cavity, p_in) of a packaged run's lock, with
    ``changes`` applied to its scenario section."""
    config = load_config(default_config_path(scenario))
    section = dict(config[scenario], **changes)
    model, kappa = scenarios._crystal(config)
    temperatures = section["temperatures_c" if scenario == "fig5" else "profile_temperatures_c"]
    return (model, section.get("kappa") or kappa, temperatures, scenarios._cavity(config),
            section["input_power_w"])


def bracketed_lock(params, p_in, dk, kappa, length):
    """The root of the exact lock equation on [0, p_hi] per row, by bisection."""
    t1, loss0 = params.coupler_transmission, params.round_trip_loss

    def implicit(p, index):
        loss = np.minimum(loss0 + single_pass_conversion(p, dk[index], kappa, length), 0.999999)
        return p * (1.0 - np.sqrt((1.0 - t1) * (1.0 - loss))) ** 2 - t1 * p_in

    p_hi = params.resonant_buildup * p_in * (1.0 + 1e-6)
    return bisect(implicit, np.zeros(dk.shape), np.full(dk.shape, p_hi))


@pytest.mark.parametrize("scenario,changes", [("fig5", {}), ("fig3", {}),
                                              ("fig3", {"input_power_w": 1.0})],
                         ids=["fig5", "fig3", "fig3-1W"])
def test_lock_matches_a_bracketed_solve(scenario, changes):
    # Newton from the no-conversion power finds the bracketed root of the
    # same equation; a fixed two-pass lock at a frozen conversion per watt
    # was off by 1.4e-5, 1.3e-5 and 0.55 here.
    model, kappa, temperatures, params, p_in = lock_inputs(scenario, **changes)
    points = scenarios._locked_points(model, kappa, temperatures, params, p_in)
    expected = bracketed_lock(params, p_in, delta_k(model, np.asarray(temperatures, dtype=float)),
                              kappa, model.length)
    np.testing.assert_allclose([op.p_circ for *_, op in points], expected, rtol=1e-12, atol=0.0)


def test_written_lock_solves_the_lock_equation(tmp_path):
    # The written power and round-trip loss satisfy p (1 - r)^2 = T1 p_in.
    config = load_config(default_config_path("fig5"))
    run_scenario(config, tmp_path)
    table = np.genfromtxt(tmp_path / "squeeze_sweep.csv", delimiter=",", names=True)
    t1, p_in = config["cavity"]["coupler_transmission"], config["fig5"]["input_power_w"]
    r = np.sqrt((1.0 - t1) * (1.0 - table["round_trip_loss"]))
    assert np.max(np.abs(table["p_circ_W"] * (1.0 - r) ** 2 / (t1 * p_in) - 1.0)) <= 1e-12


@pytest.mark.parametrize("scenario,changes", [("fig5", {}), ("fig5", {"kappa": 14.0}),
                                              ("fig3", {"input_power_w": 1.0})],
                         ids=["fig5", "fig5-kappa-14", "fig3-1W"])
def test_a_batch_lock_gives_each_rows_bits(scenario, changes):
    # Each row stops on its own, so a batch returns the floats of one-row calls.
    model, kappa, _, params, p_in = lock_inputs(scenario, **changes)
    dk = delta_k(model, np.linspace(20.0, 100.0, 81))
    batch = scenarios.locked_circulating_power(params, p_in, dk, kappa, model.length)
    alone = [scenarios.locked_circulating_power(params, p_in, dk[i:i + 1], kappa, model.length)
             for i in range(len(dk))]
    assert [x.hex() for x in batch.tolist()] == [float(x[0]).hex() for x in alone]


@pytest.mark.parametrize("p_in", [1.0, 10.0, 100.0])
def test_a_step_out_of_the_bracket_bisects(p_in):
    # At high drive R' < 0 turns G' negative, and bare Newton left the
    # bracket: at 30 C and 1 W it climbed from 282 W to 438 W (the root is
    # 9.1 W), and at 40.5 C and 10 W it cycled between the loss clamp and
    # 0.1 W.  Bisected, every row stops on a root inside [0, p_0].
    model, kappa, _, params, _ = lock_inputs("fig3")
    t1, loss0, dk = params.coupler_transmission, params.round_trip_loss, delta_k(
        model, np.linspace(20.0, 100.0, 81))
    p = scenarios.locked_circulating_power(params, p_in, dk, kappa, model.length)
    loss = np.minimum(loss0 + single_pass_conversion(p, dk, kappa, model.length), 0.999999)
    g = p * (1.0 - np.sqrt((1.0 - t1) * (1.0 - loss))) ** 2 / (t1 * p_in) - 1.0
    assert np.max(np.abs(g)) <= 1e-12
    assert np.all((p > 0.0) & (p <= params.resonant_buildup * p_in))


def test_an_unconverged_lock_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scenarios, "LOCK_MAX_STEPS", 1)
    assert main(["run", "fig5", "--out", str(tmp_path / "out")]) == 2
    assert "did not converge in 1 Newton steps" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_lock_without_drive():
    # The general solve: from the zero start the first step is 0, so every
    # row stops at +0.0 without a warning.
    params = CavityParams(RT_LENGTH, T1, LOSS)
    for dk in (np.linspace(-2e3, 2e3, 5), np.array([0.0]), np.array([])):
        p = scenarios.locked_circulating_power(params, 0.0, dk, 14.0, 0.0093)
        assert p.dtype == float and p.shape == dk.shape
        assert [x.hex() for x in p.tolist()] == [(0.0).hex()] * len(dk)


@pytest.mark.parametrize("p_in", [-0.01, math.nan, math.inf])
def test_lock_rejects_a_negative_or_non_finite_drive(p_in):
    # The message of steady_state_branches.
    params = CavityParams(RT_LENGTH, T1, LOSS)
    with pytest.raises(DomainError, match="input power must be >= 0"):
        scenarios.locked_circulating_power(params, p_in, np.linspace(-2e3, 2e3, 5), 14.0, 0.0093)


def test_tan_x_equals_x(recorded):
    # One bracket per j pi <= 300, all in one array call; the last root,
    # near 95.5 pi, lies above 300.  Each root is within an ulp of a
    # long-double Newton step and within scipy's xtol of its Brent root.
    found = phasematch._tan_x_equals_x_roots(300.0)
    assert len(found) == 94 and recorded == [95]
    assert all(type(x) is float for x in found)
    x = np.array(found, dtype=np.longdouble)
    assert np.finfo(x.dtype).nmant > 52, "the reference needs an extended long double"
    step = (x * np.cos(x) - np.sin(x)) / (-x * np.sin(x))
    assert np.all(np.abs(step) <= np.spacing(np.array(found))), float(np.max(np.abs(step)))
    expected = [scipy_brentq(lambda x: x * math.cos(x) - math.sin(x), j * math.pi + 1e-12,
                             (j + 0.5) * math.pi - 1e-12, xtol=1e-12, rtol=8.9e-16)
                for j in range(1, 95)]
    assert max(abs(x - y) for x, y in zip(found, expected)) <= 1e-12
    # Roots 1-4, all that fig3's conversion sweeps reach, keep the bits of the
    # Brent solve before Newton.
    assert [x.hex() for x in found[:4]] == ["0x1.1f940543506adp+2", "0x1.ee6a86ae40ba6p+2",
                                            "0x1.5cee908bdb46ap+3", "0x1.c21e42b259c64p+3"]


# Finite functions with one sign change each, so scipy and the bisection
# must meet the same one; the steps end the halvings on a jump.
FUNCTIONS = (
    lambda c: (lambda x: x - c),
    lambda c: (lambda x: math.atan(x - c)),
    lambda c: (lambda x: (x - c) ** 3),
    lambda c: (lambda x: math.tanh(50.0 * (x - c))),
    lambda c: (lambda x: math.exp(x) - math.exp(c)),
    lambda c: (lambda x: 1.0 if x > c else -1.0),
    lambda c: (lambda x: (x - c) * 1e-200),
    lambda c: (lambda x: math.copysign(abs(x - c) ** 0.1, x - c)),
    lambda c: (lambda x: 1.0 if x > c * 1e-200 else -1.0),
)


@functools.cache
def random_brackets():
    """1500 random brackets that scipy solves, with scipy's roots, and the
    bisection oracle's root of each bracket solved on its own."""
    rng = random.Random(20201104)
    brackets = []
    while len(brackets) < 1500:
        f = rng.choice(FUNCTIONS)(rng.uniform(-2.0, 3.0))
        a, b = rng.uniform(-5.0, 1.0), rng.uniform(0.0, 6.0)
        if rng.random() < 0.3:
            a, b = b, a
        try:
            brackets.append((f, a, b, scipy_brentq(f, a, b)))
        except (ValueError, RuntimeError):  # no sign change, or scipy's limit
            pass
    alone = [float(bisect(vectorized([f]), [a], [b])[0]) for f, a, b, _ in brackets]
    return brackets, alone


def test_random_brackets():
    # Each root of the oracle sits on a zero of f or next to a float of the
    # other sign, and within scipy's xtol of scipy's root.
    brackets, alone = random_brackets()
    for (f, a, b, y), x in zip(brackets, alone):
        sign = np.sign(f(x))
        assert sign == 0.0 or any(sign * np.sign(f(math.nextafter(x, end))) < 0.0
                                  for end in (a, b))
        assert abs(x - y) <= 2e-12 + roots.RTOL_MIN * abs(y), (x, y)


def test_random_brackets_in_arrays():
    # One array call over all the brackets gives each bracket the bits it
    # gets on its own, so the array oracle checks the array solves.
    brackets, alone = random_brackets()
    functions, a, b, _ = zip(*brackets)
    found = bisect(vectorized(functions), a, b)
    assert [x.hex() for x in found.tolist()] == [x.hex() for x in alone]


def test_array_brackets_that_start_on_a_root():
    # A zero at either end returns that end, as scipy does: the steady states'
    # targets at a run end's height start there (test_cavity.TestNewtonRoots).
    functions = [lambda x: x, lambda x: x - 1.0, lambda x: x - 0.25, lambda x: 1.0 - x]
    a, b = [0.0, -1.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0]
    expected = [scipy_brentq(g, x, y) for g, x, y in zip(functions, a, b)]
    assert bisect(vectorized(functions), a, b).tolist() == expected == [0.0, 1.0, 0.25, 1.0]


def test_array_brackets_that_all_start_on_a_root():
    # With no bracket left to halve the oracle returns the ends at once.
    calls = []

    def f(x, index):
        calls.append(len(x))
        return x - np.array([0.0, 1.0])[index]

    assert bisect(f, [0.0, -1.0], [1.0, 1.0]).tolist() == [0.0, 1.0]
    assert calls == [2, 2]


def scalar_newton(functions, slopes):
    """``f(x, index)`` of a Newton call over per-element scalar functions and slopes."""
    def f(x, index):
        pairs = [(functions[k](v), slopes[k](v)) for v, k in zip(x.tolist(), index.tolist())]
        return np.array([v for v, _ in pairs]), np.array([s for _, s in pairs])
    return f


def newton_options(**changes):
    return dict({"xtol": 0.0, "rtol": roots.RTOL_MIN, "maxiter": roots.MAXITER,
                 "what": "the test solve"}, **changes)


def random_newton_problems(count, seed):
    """Monotone functions with closed-form slopes, their brackets, either way round,
    and starts anywhere in them; the root c of each lies inside."""
    rng = random.Random(seed)
    shapes = (
        (lambda c, s: lambda x: s * (x - c), lambda c, s: lambda x: s),
        (lambda c, s: lambda x: s * math.atan(x - c),
         lambda c, s: lambda x: s / (1 + (x - c) ** 2)),
        (lambda c, s: lambda x: s * ((x - c) + (x - c) ** 3),
         lambda c, s: lambda x: s * (1 + 3 * (x - c) ** 2)),
        (lambda c, s: lambda x: s * math.tanh(50.0 * (x - c)),
         lambda c, s: lambda x: 50.0 * s / math.cosh(50.0 * (x - c)) ** 2),
        (lambda c, s: lambda x: s * (math.exp(x) - math.exp(c)),
         lambda c, s: lambda x: s * math.exp(x)),
    )
    for _ in range(count):
        value, slope = rng.choice(shapes)
        c, s = rng.uniform(-2.0, 3.0), rng.choice([-1.0, 1.0])
        a, b = c - rng.uniform(0.01, 5.0), c + rng.uniform(0.01, 5.0)
        neg, pos = (a, b) if s > 0 else (b, a)
        yield value(c, s), slope(c, s), rng.uniform(a, b), neg, pos, c


def test_newton_finds_brents_roots():
    # Bare Newton leaves atan's and tanh's brackets from most starts; bisected
    # back into them, every element stops within a few ulps of scipy's root.
    problems = list(random_newton_problems(400, 20201104))
    functions, slopes, x0, neg, pos, centres = zip(*problems)
    found = roots.newton(scalar_newton(functions, slopes), np.array(x0), np.array(neg),
                         np.array(pos), **newton_options())
    for x, f, a, b, c in zip(found.tolist(), functions, neg, pos, centres):
        expected = scipy_brentq(f, min(a, b), max(a, b), xtol=1e-16, rtol=8.9e-16)
        assert abs(x - expected) <= 4 * np.spacing(abs(expected)) + 1e-15, (x, c)


def test_newton_elements_stop_on_their_own():
    # Each element's root is its bits alone, in whatever array it is solved.
    problems = list(random_newton_problems(60, 7))
    functions, slopes, x0, neg, pos, _ = zip(*problems)
    batch = roots.newton(scalar_newton(functions, slopes), np.array(x0), np.array(neg),
                         np.array(pos), **newton_options())
    for k in range(len(problems)):
        alone = roots.newton(scalar_newton(functions[k:k + 1], slopes[k:k + 1]),
                             np.array(x0[k:k + 1]), np.array(neg[k:k + 1]),
                             np.array(pos[k:k + 1]), **newton_options())
        assert float(alone[0]).hex() == float(batch[k]).hex()


def test_newton_bisects_at_a_zero_slope():
    # A zero slope at the start gives an infinite step, which bisects [0, 1]
    # without a warning; Newton then lands on the root.
    f = scalar_newton([lambda x: x - 0.25], [lambda x: 0.0 if x == 0.9 else 1.0])
    with np.errstate(all="raise"):
        found = roots.newton(f, np.array([0.9]), np.array([0.0]), np.array([1.0]),
                             **newton_options())
    assert found.tolist() == [0.25]


def test_newton_zero_value_stays():
    # A start on a root stays there, even with a zero slope or at a bracket end.
    f = scalar_newton([lambda x: 0.0, lambda x: x - 1.0], [lambda x: 0.0, lambda x: 1.0])
    found = roots.newton(f, np.array([0.25, 1.0]), np.array([0.0, 0.0]),
                         np.array([1.0, 1.0]), **newton_options())
    assert found.tolist() == [0.25, 1.0]


def test_newton_cap_raises_numerical_error():
    # A flat step has a zero slope everywhere, so every pass bisects, and
    # halving [0, 1] to 4 ulps takes more than 5 steps.
    f = scalar_newton([lambda x: 1.0 if x > 0.3 else -1.0] * 3 + [lambda x: x - 0.5],
                      [lambda x: 0.0] * 3 + [lambda x: 1.0])
    with pytest.raises(NumericalError, match=r"^the test solve did not converge in 5 Newton "
                                             r"steps for 3 row\(s\)$"):
        roots.newton(f, np.full(4, 0.9), np.zeros(4), np.ones(4), **newton_options(maxiter=5))


def test_newton_empty():
    def f(x, index):
        raise AssertionError("f called with no element")

    found = roots.newton(f, np.array([]), np.array([]), np.array([]), **newton_options())
    assert found.shape == (0,) and found.dtype == float
