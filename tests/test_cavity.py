import math
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from kerrsqueezer import (
    BranchArrays,
    CavityParams,
    DomainError,
    OperatingPoint,
    ResonanceProfile,
    SpectrumPoint,
    ThresholdError,
    scan_profile,
    sideband_comb_map,
    squeezing_spectrum,
    steady_state_branches,
)
from kerrsqueezer import cavity as cavity_module
from kerrsqueezer import scenarios as scenarios_module
from kerrsqueezer.cavity import (
    _TWO_PI_HI,
    _TWO_PI_LO,
    MONITOR_TRANSMISSION,
    _folds,
    _half_max_asymmetry,
)
from kerrsqueezer.roots import brentq
from kerrsqueezer.scenarios import SLOPE_STEP, default_config_path, load_config, run_scenario

# Resonator budget used throughout: 1% coupler, 0.19% residual loss.
T1 = 0.01
LOSS = 0.0019
RT_LENGTH = 0.838
# Round-trip Kerr phase slope at the first conversion zero for kappa = 14.
G_KERR = -(14.0**2) * 0.0093**2 / (2 * math.pi)
# Kerr phases the solves are fed: the linear cascade phase, which
# steady_state_branches takes as its slope G_KERR, and a lean with the same
# small-power slope that saturates above 12 W (still bistable at 70 mW, 0.03
# rad), a callable on arrays that only the sampled solve, the oracle of
# general phases, takes.
KERR_PHASES = (G_KERR, lambda p: G_KERR * 12.0 * np.tanh(p / 12.0))


def cavity(loss=LOSS):
    return CavityParams(RT_LENGTH, T1, loss)


def airy(params, p_in, detunings):
    r = params.r_eff
    return T1 * p_in / (1 + r**2 - 2 * r * np.cos(np.asarray(detunings)))


class TestDerivedQuantities:
    def test_resonant_buildup(self):
        c = cavity()
        r = math.sqrt((1 - T1) * (1 - LOSS))
        assert c.resonant_buildup == pytest.approx(T1 / (1 - r) ** 2, rel=1e-12)
        assert abs(c.resonant_buildup - 282) < 1.0

    def test_escape_efficiency(self):
        assert abs(cavity().escape_efficiency - 0.840) <= 0.005

    def test_fsr(self):
        fsr = cavity().fsr
        assert fsr == pytest.approx(357.7e6, abs=0.1e6)
        assert abs(fsr - 358e6) / 358e6 < 0.01

    def test_rates_add_up(self):
        c = cavity()
        assert c.gamma_total == pytest.approx(c.gamma_coupler + c.gamma_loss, rel=1e-15)
        assert c.gamma_coupler == pytest.approx(0.5 * T1 * c.fsr, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(round_trip_length=-1.0, coupler_transmission=T1, round_trip_loss=LOSS),
            dict(round_trip_length=RT_LENGTH, coupler_transmission=0.0, round_trip_loss=LOSS),
            dict(round_trip_length=RT_LENGTH, coupler_transmission=T1, round_trip_loss=1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            CavityParams(**kwargs)


def phase_of(phase):
    """The round-trip phase of a slope g, ``g p``, or the callable ``phase`` itself."""
    return phase if callable(phase) else (lambda p: phase * p)


def sampled_branches(params, p_in, phi_nl, detuning):
    """The steady-state solve for a general phase callable ``phi_nl``, kept as
    the oracle of the closed-form folds: ``D(psi) = psi - phi_nl(p(psi))`` is
    sampled at 512 points evenly in u, ``tan(psi / 2) = e tan(u / 2)``, ``e =
    (1 - r_eff) / (1 + r_eff)``; a 129-point grid zooms 64-fold onto each
    turn's extreme D for 5 rounds, and the runs, targets, seam and stability
    are those of steady_state_branches."""
    sweep = np.asarray(detuning, dtype=float)
    if p_in == 0.0 or not len(sweep):
        return BranchArrays(np.zeros(len(sweep)), np.ones(len(sweep), bool),
                            np.ones(len(sweep), int))
    r, t1_p_in = params.r_eff, params.coupler_transmission * p_in

    def power(psi):
        return t1_p_in / ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * psi) ** 2)

    def level(psi):
        return psi - np.asarray(phi_nl(power(psi)), dtype=float) if len(psi) else psi

    half = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 512)[1:-1]
    grid = np.hstack([-math.pi, 2.0 * np.arctan((1.0 - r) / (1.0 + r) * np.tan(half)), math.pi])
    values = level(grid)
    rising = np.diff(values) > 0.0
    turn = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    sign, rows = np.where(rising[turn - 1], 1.0, -1.0), np.arange(len(turn))
    a, b = grid[turn - 1], grid[turn + 1]
    for _ in range(5):
        x = a[:, None] + np.outer(b - a, np.linspace(0.0, 1.0, 129))
        f = sign[:, None] * level(x.ravel()).reshape(x.shape)
        best = np.argmax(f, axis=1)
        a, b = x[rows, np.maximum(best - 1, 0)], x[rows, np.minimum(best + 1, 128)]
    ends = np.concatenate([grid[:1], x[rows, best], grid[-1:]])
    heights = np.concatenate([values[:1], sign * f[rows, best], values[-1:]])
    lo, hi = np.minimum(heights[:-1], heights[1:]), np.maximum(heights[:-1], heights[1:])
    first = np.floor((lo[:, None] - sweep) / math.tau).ravel()
    tries = (np.ceil((hi[:, None] - sweep) / math.tau).ravel() - first + 1).astype(int)
    cell = np.repeat(np.arange(len(tries)), tries)
    turns = first[cell] + np.arange(len(cell)) - np.repeat(np.cumsum(tries) - tries, tries)
    run, owner = np.divmod(cell, len(sweep))
    target = (sweep[owner] + turns * _TWO_PI_HI) + turns * _TWO_PI_LO
    keep = (lo[run] <= target) & (target < hi[run])
    run, owner, target = run[keep], owner[keep], target[keep]
    psi = brentq(lambda x, i: level(x) - target[i], ends[run], ends[run + 1],
                 xtol=1e-300, rtol=8.9e-16)
    found = np.bincount(owner, minlength=len(sweep))
    seam = np.flatnonzero(found % 2 == 0)
    owner, found[seam] = np.concatenate([owner, seam]), found[seam] + 1
    p = power(np.concatenate([psi, np.full(len(seam), math.pi)]))
    order = np.lexsort((p, owner))
    stable = (np.arange(len(p)) - np.repeat(np.cumsum(found) - found, found)) % 2 == 0
    return BranchArrays(p[order], stable, found)


def follow_slope(phase, monkeypatch):
    """The slope to give scan_profile for ``phase``.  It takes a slope only, so
    for a phase callable the sampled solve is patched in for
    steady_state_branches, and the slope it is given, 0, goes unused."""
    if callable(phase):
        monkeypatch.setattr(cavity_module, "steady_state_branches",
                            lambda params, p_in, _, detuning: sampled_branches(
                                params, p_in, phase, detuning))
        return 0.0
    return phase


def solve(params, p_in, phase, detuning):
    """steady_state_branches for a slope g, the sampled solve for a phase callable."""
    if callable(phase):
        return sampled_branches(params, p_in, phase, detuning)
    return steady_state_branches(params, p_in, phase, detuning)


def reference_branches(params, p_in, phase, detuning):
    """The sign flips of ``F(p) = p |1 - r_eff exp(i(d + phi(p)))|^2 - T1 p_in`` on
    a grid of 512 powers over [0, resonant_buildup * p_in], the brackets
    of the power-grid solve that came before the resonance curve; kept as the
    count oracle.  One list per detuning of the 1-D array ``detuning``, one
    flag per flip: whether F rises through it (a stable root)."""
    if p_in == 0.0:
        return [[True] for _ in detuning]
    r, t1_p_in = params.r_eff, params.coupler_transmission * p_in
    grid = np.linspace(0.0, params.resonant_buildup * p_in * (1.0 + 1e-6), 512)
    phi = phase_of(phase)(grid)
    flips = []
    for start in range(0, len(detuning), 32):
        d = np.asarray(detuning[start:start + 32], dtype=float)[:, None]
        above = grid * (1.0 + r * r - 2.0 * r * np.cos(d + phi)) > t1_p_in
        flips += [(~row[:-1])[row[:-1] != row[1:]].tolist() for row in above]
    return flips


def curve_counts(params, p_in, phase, detuning):
    """Root counts from the resonance curve ``p(psi) = T1 p_in / |1 - r_eff
    exp(i psi)|^2`` sampled at 2^14 + 1 points, evenly in u with ``tan(psi /
    2) = e tan(u / 2)``, over one turn that starts at u = 1 - pi, away from psi
    = pi: each sample cell whose ``D = psi - phi(p)`` spans ``[lo, hi)``
    holds one root for each ``d + 2 pi k`` there.  Exact but within a cell's
    curvature of a fold, so it also counts the roots whose F < 0 windows are
    narrower than the spacing of any feasible power grid."""
    r = params.r_eff
    half = np.linspace(0.5 - 0.5 * math.pi, 0.5 + 0.5 * math.pi, 2**14 + 1)
    # Continuous over the turn: u / 2 stays inside (-pi, pi), where arctan2 does not wrap.
    psi = 2.0 * np.arctan2((1.0 - r) / (1.0 + r) * np.sin(half), np.cos(half))
    p = params.coupler_transmission * p_in / ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * psi) ** 2)
    level = psi - phase_of(phase)(p)
    lo, hi = np.minimum(level[:-1], level[1:]), np.maximum(level[:-1], level[1:])
    counts = []
    for start in range(0, len(detuning), 16):
        d = np.asarray(detuning[start:start + 16], dtype=float)[:, None]
        counts += (np.ceil((hi - d) / math.tau) - np.ceil((lo - d) / math.tau)).sum(axis=1).tolist()
    return [int(n) for n in counts]


def linear_folds(params, p_in, g):
    """Fold detunings of the linear phase ``phi = g p`` from the closed-form
    manifold ``delta(p) = +-psi(p) - g p``, with ``sin^2(psi / 2) = (T1 p_in / p
    - (1 - r)^2) / (4 r)``, which does not cancel near resonance: ``d delta / d
    p = -+T1 p_in / (2 r p^2 sin psi) - g`` vanishes on the branch of sign
    ``-sign(g)`` only, where scipy's brentq solves it on the sign changes of a
    power grid that is geometric towards both ends of the curve.  It rises to
    +inf at p_max, so a fold above the top of the grid is within a float of
    p_max and at ``delta(p_max) = -g p_max``."""
    r, t1_p_in = params.r_eff, params.coupler_transmission * p_in
    b, side = (1.0 - r) ** 2, -math.copysign(1.0, g)

    def squared_half_sin(p):  # sin^2(psi / 2)
        return (t1_p_in / p - b) / (4.0 * r)

    def excess(p):  # -side * d delta / d p
        s2 = squared_half_sin(p)
        return t1_p_in / (4.0 * r * p * p * np.sqrt(s2 * (1.0 - s2))) - abs(g)

    p_min, p_max = t1_p_in / (1.0 + r) ** 2, t1_p_in / b
    steps = (p_max - p_min) * np.logspace(-16.0, 0.0, 4001)
    grid = np.unique(np.concatenate([p_min + steps, p_max - steps]))
    s2 = squared_half_sin(grid)
    grid = grid[(s2 > 0.0) & (s2 < 1.0)]
    signs = np.sign(excess(grid))
    powers = [scipy_brentq(excess, grid[i], grid[i + 1], xtol=1e-300, rtol=8.9e-16)
              for i in np.flatnonzero(signs[1:] != signs[:-1])]
    top = [-g * p_max] if signs[-1] < 0.0 else []
    return [side * 2.0 * math.asin(math.sqrt(squared_half_sin(p))) - g * p for p in powers] + top


def newton_steps(params, p_in, phase, detuning, found):
    """Per root of the BranchArrays ``found``: the relative length of one
    long-double Newton step on ``F(p) = p ((1 - r)^2 + 4 r sin^2(theta / 2)) - T1
    p_in`` at ``theta = d + phi(p)``, ``phi`` evaluated in long double too;
    the size ``|d| + |phi(p)| + pi`` of the phase terms; and ``|d ln p / d
    theta|``, the root's relative change per radian of phase."""
    extended = np.longdouble
    assert np.finfo(extended).nmant > 52, "the reference needs an extended long double"
    r = extended(params.r_eff)
    d = np.repeat(np.asarray(detuning, dtype=float), found.count).astype(extended)
    p = found.p_circ.astype(extended)
    phi = phase_of(phase)

    def implicit(q):
        theta = d + phi(q)
        return q * ((1 - r) ** 2 + 4 * r * np.sin(theta / 2) ** 2) - extended(
            params.coupler_transmission) * extended(p_in), theta

    h = p * extended(1e-7)
    slope = (implicit(p + h)[0] - implicit(p - h)[0]) / (2 * h)
    value, theta = implicit(p)
    return (np.abs(value / slope / p).astype(float),
            (np.abs(d) + np.abs(phi(p)) + math.pi).astype(float),
            np.abs(2 * r * np.sin(theta) / slope).astype(float))


def assert_solves(params, p_in, phase, detuning, counts, rounding=0.0):
    """The counts of :func:`solve` are ``counts``, each root is within 1e-13 relative
    of a long-double Newton step, plus ``rounding`` ulps of the phase terms times
    the root's sensitivity to phase, and stability alternates from a stable
    first root."""
    found = solve(params, p_in, phase, detuning)
    assert found.count.tolist() == list(counts)
    step, scale, sensitivity = newton_steps(params, p_in, phase, detuning, found)
    bound = 1e-13 + rounding * np.finfo(float).eps * scale * sensitivity
    assert np.all(step <= bound), float(np.max(step / bound))
    starts = np.cumsum(found.count) - found.count
    position = np.arange(len(found.p_circ)) - np.repeat(starts, found.count)
    assert found.stable.tolist() == (position % 2 == 0).tolist()
    return found


def one_detuning(params, p_in, phase, detuning):
    """The BranchArrays of :func:`solve` on a one-element sweep at ``detuning``."""
    found = solve(params, p_in, phase, np.array([detuning]))
    assert found.count.tolist() == [len(found.p_circ)] == [len(found.stable)]
    return found


class TestSteadyState:
    def test_linear_resonant_buildup(self):
        found = one_detuning(cavity(), 0.0088, 0.0, 0.0)
        assert found.stable.tolist() == [True]
        assert found.p_circ[0] == pytest.approx(
            cavity().resonant_buildup * 0.0088, rel=1e-9
        )

    @pytest.mark.parametrize("detuning", [-0.02, -0.003, 0.0, 0.004, 0.05])
    def test_linear_single_airy_root(self, detuning):
        c = cavity()
        found = one_detuning(c, 0.0088, 0.0, detuning)
        assert len(found.p_circ) == 1
        assert found.p_circ[0] == pytest.approx(float(airy(c, 0.0088, detuning)), rel=1e-9)

    def test_zero_input(self):
        assert split_bits(one_detuning(cavity(), 0.0, 0.0, 0.0)) == [[((0.0).hex(), True)]]

    def test_bistable_root_structure(self):
        # 70 mW drive against the Kerr lean: classic S-curve with 3 roots.
        c = cavity()
        found = one_detuning(c, 0.07, G_KERR, 0.03)
        assert len(found.p_circ) == 3
        assert found.stable.tolist() == [True, False, True]
        ps = found.p_circ.tolist()
        assert ps == sorted(ps)

    def test_graphical_intersection_oracle(self):
        # Count sign changes of the implicit equation on a dense grid.
        for phase in KERR_PHASES:
            for det, p_in in [(0.03, 0.07), (0.0, 0.0088), (0.1, 0.07), (0.02, 0.002)]:
                c = cavity()
                found = one_detuning(c, p_in, phase, det)
                r = c.r_eff
                grid = np.linspace(0.0, c.resonant_buildup * p_in * (1 + 1e-6), 400_001)
                f = grid * (1 + r**2 - 2 * r * np.cos(det + phase_of(phase)(grid))) - T1 * p_in
                crossings = int(np.sum(np.sign(f[1:]) != np.sign(f[:-1])))
                assert crossings == len(found.p_circ)

    def test_roots_satisfy_implicit_equation(self):
        c = cavity()
        r = c.r_eff
        for phase in KERR_PHASES:
            found = one_detuning(c, 0.07, phase, 0.03)
            assert len(found.p_circ) == 3
            for p in found.p_circ.tolist():
                resonance = 1 + r**2 - 2 * r * math.cos(0.03 + phase_of(phase)(p))
                assert p * resonance == pytest.approx(T1 * 0.07, rel=1e-10)

    def test_branch_lists_alternate_from_stable_ends(self):
        # F(0) < 0 < F(p_max), so every list has odd length, alternates
        # stable/unstable and is stable at both ends: scan_profile always
        # has a stable branch to follow.
        rng = np.random.default_rng(20201104)
        c = cavity()
        multi = 0
        for _ in range(3000):
            det, p_in, g = rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.1), rng.uniform(-0.5, 0.5)
            stable = one_detuning(c, p_in, g, det).stable.tolist()
            assert len(stable) % 2 == 1
            assert stable == [i % 2 == 0 for i in range(len(stable))]
            multi += len(stable) >= 3
        assert multi >= 300

    @pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, detuning):
        for p_in in (0.0, 0.0088):
            with pytest.raises(DomainError, match="detuning must be finite"):
                steady_state_branches(cavity(), p_in, 0.0, np.array([detuning]))

    @pytest.mark.parametrize("detuning", [0.03, np.float64(0.03), np.array(0.03)],
                             ids=("float", "float64", "0-d"))
    def test_scalar_detuning_rejected(self, detuning):
        # One input kind: a detuning is a 1-D array, even a zero drive's.
        for p_in in (0.0, 0.07):
            with pytest.raises(DomainError, match="1-D"):
                steady_state_branches(cavity(), p_in, KERR_PHASES[0], detuning)

    def test_only_the_array_solve_is_public(self):
        import kerrsqueezer

        for name in ("SteadyStateBranch", "make_operating_point"):
            assert not hasattr(kerrsqueezer, name) and not hasattr(cavity_module, name)


class TestStackedSweep:
    """An array of detunings: one branch list per detuning from one solve."""

    @pytest.mark.parametrize("phase", (0.0,) + KERR_PHASES, ids=("linear", "kerr", "tanh"))
    @pytest.mark.parametrize("p_in", [0.015, 0.07])
    def test_equals_float_calls(self, phase, p_in):
        # Each detuning solved as a sweep of one gives the same bits.
        c = cavity()
        span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
        dets = np.linspace(-span, span, 167)
        stacked = solve(c, p_in, phase, dets)
        assert isinstance(stacked, BranchArrays) and len(stacked.count) == len(dets)
        assert stacked.p_circ.dtype == np.float64 and stacked.stable.dtype == np.bool_
        for det, branches in zip(dets, split_bits(stacked), strict=True):
            assert split_bits(one_detuning(c, p_in, phase, det)) == [branches]
        # Both powers are bistable against the Kerr lean.
        assert bool((stacked.count >= 3).any()) == (phase != 0.0)

    def test_counts_cover_the_roots_and_stability_alternates(self):
        c = cavity()
        for phase in (0.0,) + KERR_PHASES:
            found = solve(c, 0.07, phase, np.linspace(-0.2, 0.2, 401))
            assert found.count.sum() == len(found.p_circ) == len(found.stable)
            assert np.all(found.count % 2 == 1)
            for branches in split_bits(found):
                assert [stable for _, stable in branches] == [
                    i % 2 == 0 for i in range(len(branches))]
            assert bool((found.count >= 3).any()) == (phase != 0.0)

    def test_zero_input(self):
        # The general solve: a zero curve has no fold, and Brent returns each target.
        dets = np.concatenate([np.linspace(-0.1, 0.1, 40), [-math.pi, math.pi, 7.0, -20.0]])
        for g in (0.0, 5.0, -3.0):
            found = steady_state_branches(cavity(), 0.0, g, dets)
            assert isinstance(found, BranchArrays)
            assert [field.dtype for field in found] == [np.float64, np.bool_, np.int64]
            assert split_bits(found) == [[((0.0).hex(), True)]] * len(dets)
            assert found.count.tolist() == [1] * len(dets)

    def test_empty_sweep(self):
        for p_in, g in ((0.07, KERR_PHASES[0]), (0.07, 5.0), (0.0, -3.0)):
            found = steady_state_branches(cavity(), p_in, g, np.array([]))
            assert isinstance(found, BranchArrays)
            assert [len(field) for field in found] == [0, 0, 0]
            assert [field.dtype for field in found] == [np.float64, np.bool_, np.int64]
            assert split_bits(found) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p_in", [0.0, 0.0088])
    def test_non_finite_detuning_rejected(self, bad, p_in):
        dets = np.linspace(-0.1, 0.1, 96)
        dets[69] = bad
        with pytest.raises(DomainError, match="detuning must be finite"):
            steady_state_branches(cavity(), p_in, 0.0, dets)

    def test_two_dimensional_detuning_rejected(self):
        with pytest.raises(DomainError, match="1-D"):
            steady_state_branches(cavity(), 0.0088, 0.0, np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_rejected(self, bad):
        # Zero drive included: the slope is checked before its shortcut.
        dets = np.linspace(-0.05, 0.05, 50)
        for p_in in (0.0, 0.0088):
            with pytest.raises(DomainError, match="Kerr slope g must be finite"):
                steady_state_branches(cavity(), p_in, bad, dets)
            with pytest.raises(DomainError, match="Kerr slope g must be finite"):
                scan_profile(cavity(), p_in, dets, bad, "down")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p_in, g", [(1.0, 1e308), (1e300, 1.0)],
                             ids=["inf-phase", "huge-phase"])
    def test_overflowing_peak_phase_rejected(self, p_in, g):
        # The peak Kerr phase g T1 p_in / (1 - r_eff)^2 is inf, or 2.8e302 rad:
        # more 2 pi turns than the int64 candidate counts hold.
        dets = np.array([-0.1, 0.0, 0.1])
        with pytest.raises(DomainError, match="peak Kerr phase"):
            steady_state_branches(CavityParams(0.838, T1, LOSS), p_in, g, dets)
        with pytest.raises(DomainError, match="peak Kerr phase"):
            scan_profile(CavityParams(0.838, T1, LOSS), p_in, dets, g, "up")
        # Checked before every solve, an empty sweep's too.
        with pytest.raises(DomainError, match="peak Kerr phase"):
            steady_state_branches(CavityParams(0.838, T1, LOSS), p_in, g, np.array([]))


def manifold_ends(params, p_in, phase, turns=(-1, 0, 1)):
    """c_j and the F = 0 detunings -phi_j -+ arccos(c_j) + 2 pi k of the columns p_j > 0 of
    reference_branches' grid: the detunings where the power-grid solve read its brackets
    off the resonance manifold."""
    r, t1 = params.r_eff, params.coupler_transmission
    grid = np.linspace(0.0, params.resonant_buildup * p_in * (1.0 + 1e-6), 512)[1:]
    phi = phase_of(phase)(grid)
    c = (1.0 + r * r - t1 * p_in / grid) / (2.0 * r)
    half = np.arccos(np.clip(c, -1.0, 1.0))
    return c, np.ravel([-phi + side * half + 2.0 * math.pi * k
                        for k in turns for side in (-1.0, 1.0)])


def near(ends, offsets=(1e-15, 1e-13, 1e-11, 1e-9, 3e-8, 3e-7)):
    """Each end, its float neighbours and the end moved by each offset either way."""
    return np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]
                          + [ends + side * o for o in offsets for side in (-1.0, 1.0)])


def branch_lists(arrays):
    """Per-detuning lists of (p_circ, stable) of a BranchArrays."""
    stops = np.cumsum(arrays.count).tolist()
    branches = list(zip(arrays.p_circ.tolist(), arrays.stable.tolist()))
    return [branches[a:b] for a, b in zip([0] + stops, stops)]


def split_bits(arrays):
    """Per-detuning lists of (p_circ.hex(), stable) of a BranchArrays."""
    return [[(p.hex(), s) for p, s in branches] for branches in branch_lists(arrays)]


def random_phase(rng, shape, p_max):
    g = rng.uniform(-0.8, 0.8)
    turn = rng.uniform(0.1, 0.6) * p_max
    return (0.0, g, lambda p: g * turn * np.tanh(p / turn),
            lambda p: g * turn * np.sin(p / turn))[shape]


def grid_counts(params, p_in, phase, detuning):
    return [len(flags) for flags in reference_branches(params, p_in, phase, detuning)]


class TestManifoldBrackets:
    """The roots on the resonance curve: the counts of the count oracle, each
    root within 1e-13 of a long-double Newton step, and stability alternating
    from a stable first root."""

    @pytest.mark.filterwarnings("ignore:single-pass drive")
    def test_benchmark_and_packaged_scans(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        from workloads import generate

        calls = []
        solve = cavity_module.steady_state_branches

        def recorded(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(cavity_module, "steady_state_branches", recorded)
        configs = [load_config(default_config_path("fig3"))]
        configs += [case.config for case in generate("resonance_scan", 1303)]
        for i, config in enumerate(configs):
            run_scenario(config, tmp_path / str(i))
        assert len(calls) == 2 + 13
        for args in calls:
            assert_solves(*args, grid_counts(*args))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_cavities(self, seed):
        rng = np.random.default_rng(seed)
        c = CavityParams(RT_LENGTH, rng.uniform(0.003, 0.3), rng.uniform(0.0, 0.05))
        p_in = 10.0 ** rng.uniform(-3.0, -0.5)
        phase = random_phase(rng, seed % 4, c.resonant_buildup * p_in)
        _, ends = manifold_ends(c, p_in, phase)
        ends = near(rng.choice(ends, 60))
        sweep = rng.uniform(-13.0, 13.0, 300)
        dets = np.concatenate([np.sort(sweep), sweep, ends, ends[:40], sweep[:25]])
        rng.shuffle(dets)
        found = assert_solves(c, p_in, phase, dets, grid_counts(c, p_in, phase, dets))
        for i in range(12):
            assert split_bits(one_detuning(c, p_in, phase, dets[i])) == [split_bits(found)[i]]

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_columns_at_plus_minus_one(self, side):
        # c_j = -1 needs (1 - r)^2 / (1 + r)^2 = j (1 + 1e-6) / 511 for some
        # column j, and c_511 nears +1 as r nears 1.  There, at T1 = 2e-4, the
        # Kerr phase turns by 800 rad over a resonance 1e-4 rad wide: about 255
        # roots a detuning, in F < 0 windows of 2.5e-4 W that no power grid
        # over 2000 W resolves, so the counts come from the sampled curve.
        rng = np.random.default_rng(7)
        if side < 0:
            q = math.sqrt(300 * (1.0 + 1e-6) / 511)
            c = CavityParams(RT_LENGTH, 1.0 - ((1.0 - q) / (1.0 + q)) ** 2, 0.0)
        else:
            c = CavityParams(RT_LENGTH, 2e-4, 0.0)
        for phase in (0.0, -0.4):
            cj, ends = manifold_ends(c, 0.1, phase)
            assert np.min(np.abs(cj - side)) < 64 * np.finfo(float).eps
            ends = near(ends[np.abs(cj - side).argsort()[:8] % len(cj)])
            dets = np.concatenate([ends, rng.uniform(-4, 4, 200)])
            counts = curve_counts(c, 0.1, phase, dets)
            if side < 0 or phase == 0.0:
                assert counts == grid_counts(c, 0.1, phase, dets)
            assert_solves(c, 0.1, phase, dets, counts)
        assert min(counts) >= (255 if side > 0 else 1)

    @given(t1=st.floats(0.002, 0.5), loss=st.floats(0.0, 0.05), p_in=st.floats(1e-4, 0.3),
           shape=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           dets=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_grid(self, t1, loss, p_in, shape, seed, dets):
        # The counts are the densely sampled curve's: a strong phase at high
        # finesse opens F < 0 windows narrower than a 512-point power grid's
        # cells.  A root may be as sensitive to the phase as 400 / rad there,
        # and one rounding of |d + phase| ~ 10 rad moves it by more than 1e-13,
        # so its bound adds 4 ulps of the phase terms times that sensitivity.
        rng = np.random.default_rng(seed)
        c = CavityParams(RT_LENGTH, t1, loss)
        phase = random_phase(rng, shape, c.resonant_buildup * p_in)
        _, ends = manifold_ends(c, p_in, phase)
        dets = np.concatenate([dets, near(rng.choice(ends, 4))])
        assert_solves(c, p_in, phase, dets, curve_counts(c, p_in, phase, dets), rounding=4.0)


class TestResonanceCurve:
    """Where the power grid failed: folds, the seam and accuracy near resonance."""

    @pytest.mark.parametrize("g", [-0.1, -0.3])
    def test_three_roots_just_inside_each_fold(self, g):
        # The power grid saw 1 root 1e-8 rad inside 3 of these 4 folds and
        # 1e-10 rad inside all 4; the closed-form folds say 3.  Two of them
        # nearly meet there, so the phase's rounding moves them most.
        c = CavityParams(RT_LENGTH, 0.1, 0.01)
        low, high = sorted(linear_folds(c, 0.07, g))
        dets = np.array([low + 1e-8, low + 1e-10, high - 1e-10, high - 1e-8])
        found = assert_solves(c, 0.07, g, dets, [3, 3, 3, 3], rounding=4.0)
        outside = steady_state_branches(c, 0.07, g, np.array([low - 1e-8, high + 1e-8]))
        assert outside.count.tolist() == [1, 1]
        assert len(found.p_circ) == 12

    @pytest.mark.parametrize("t1", [0.01, 0.5])
    @pytest.mark.parametrize("phase", (0.0,) + KERR_PHASES, ids=("linear", "kerr", "tanh"))
    def test_seam_has_an_odd_count(self, t1, phase):
        # The curve closes at psi = +-pi, the least power, where D jumps by 2 pi;
        # a detuning on the seam and its float neighbours keep an odd count.
        c = CavityParams(RT_LENGTH, t1, LOSS)
        p_min = t1 * 0.07 / (1.0 + c.r_eff) ** 2
        seam = math.pi - float(phase_of(phase)(np.array([p_min]))[0])
        dets = np.concatenate([[seam + turn, np.nextafter(seam + turn, -np.inf),
                                np.nextafter(seam + turn, np.inf)]
                               for turn in (-2.0 * math.pi, 0.0, 2.0 * math.pi)])
        found = solve(c, 0.07, phase, dets)
        assert np.all(found.count % 2 == 1)
        starts = np.cumsum(found.count) - found.count
        np.testing.assert_allclose(found.p_circ[starts], p_min, rtol=1e-9)

    def test_linear_roots_near_resonance(self):
        # Within a few linewidths F = p (1 + r^2 - 2 r cos) - T1 p_in cancels to
        # (1 - r)^2 ~ 3.6e-5 of its terms; the curve is exact there.
        c = cavity()
        dets = np.linspace(-3, 3, 601) * c.linewidth_phase_fwhm
        found = assert_solves(c, 0.0088, 0.0, dets, [1] * len(dets))
        r = c.r_eff
        exact = T1 * 0.0088 / ((1 - r) ** 2 + 4 * r * np.sin(dets / 2) ** 2)
        np.testing.assert_allclose(found.p_circ, exact, rtol=4 * np.finfo(float).eps)


def fold_level(params, p_in, g, psi):
    """``D(psi) = psi - g p(psi)`` on the resonance curve."""
    r = params.r_eff
    return psi - g * params.coupler_transmission * p_in / (
        (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * psi) ** 2)


def slope_dips(r, lean, psi):
    """Where ``D' = 1 - g p'`` is negative, with ``lean = g T1 p_in`` and ``p'``
    from ``p = T1 p_in / (1 + r^2 - 2 r cos psi)``."""
    den = 1.0 + r * r - 2.0 * r * np.cos(psi)
    return 1.0 + 2.0 * r * lean * np.sin(psi) / (den * den) < 0.0


def dense_fold_counts(r, t1_p_in, g, points=4001):
    """Per cavity of the arrays ``r``, ``t1_p_in`` and ``g``: the sign changes of
    ``D'`` on a grid evenly in u, ``tan(psi / 2) = e tan(u / 2)``."""
    u = np.linspace(-math.pi, math.pi, points)[1:-1]
    counts = []
    for start in range(0, len(r), 200):
        rr, lean = r[start:start + 200, None], (g * t1_p_in)[start:start + 200, None]
        psi = 2.0 * np.arctan((1.0 - rr) / (1.0 + rr) * np.tan(0.5 * u))
        dips = slope_dips(rr, lean, psi)
        counts += np.count_nonzero(dips[:, 1:] != dips[:, :-1], axis=1).tolist()
    return counts


class TestClosedFormFolds:
    """D(psi) = psi - g p(psi) turns nowhere or at the two phases of _folds."""

    def test_random_cavities(self):
        # T1 1e-4 to 0.3, loss 1e-4 to 0.03, p_in 1 to 300 mW and |g| 1e-3 to
        # 10 rad/W, log-uniform, g of either sign: the count is the dense
        # grid's, and each fold detuning is the manifold's to 1e-12 rad, or to
        # 4 ulps of D where |D| reaches thousands of radians.
        rng = np.random.default_rng(20221019)
        n = 3000
        t1 = 10.0 ** rng.uniform(-4.0, math.log10(0.3), n)
        loss = 10.0 ** rng.uniform(-4.0, math.log10(0.03), n)
        p_in = 10.0 ** rng.uniform(-3.0, math.log10(0.3), n)
        g = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 1.0, n)
        cavities = [CavityParams(RT_LENGTH, a, b) for a, b in zip(t1.tolist(), loss.tolist())]
        folds = [_folds(c.r_eff, c.coupler_transmission * p, s)
                 for c, p, s in zip(cavities, p_in.tolist(), g.tolist())]
        r = np.array([c.r_eff for c in cavities])
        assert [len(psi) for psi in folds] == dense_fold_counts(r, t1 * p_in, g)
        assert sum(map(len, folds)) > 4000
        for c, p, s, psi in zip(cavities, p_in.tolist(), g.tolist(), folds):
            if psi:
                assert psi == sorted(psi) and all(x * s < 0.0 for x in psi)
                np.testing.assert_allclose(np.sort(fold_level(c, p, s, np.array(psi))),
                                           sorted(linear_folds(c, p, s)),
                                           rtol=4 * np.finfo(float).eps, atol=1e-12)

    @pytest.mark.parametrize("dip", [-1e-6, 1e-6], ids=("no-fold", "two-folds"))
    def test_at_the_threshold(self, dip):
        # g p'(psi*) = 1 + dip at the peak psi* of |p'|, cos psi* = 2C / (q +
        # sqrt(q^2 + 2 C^2)), so D'(psi*) = -dip.  Just above 0 D is monotone;
        # just below it folds twice, 5e-11 rad apart, and a detuning 1e-3 of
        # that gap inside either fold has 3 roots.
        c = CavityParams(RT_LENGTH, 0.1, 0.01)
        r, t1_p_in = c.r_eff, 0.1 * 0.07
        b, cc = (1.0 - r) ** 2, 4.0 * r
        q = b + 0.5 * cc
        peak = math.acos(2.0 * cc / (q + math.sqrt(q * q + 2.0 * cc * cc)))
        g = -(1.0 + dip) * (b + cc * math.sin(0.5 * peak) ** 2) ** 2 / (
            0.5 * cc * t1_p_in * math.sin(peak))
        dips = slope_dips(r, g * t1_p_in, np.linspace(peak - 1e-3, peak + 1e-3, 100_001))
        found = _folds(r, t1_p_in, g)
        assert len(found) == np.count_nonzero(dips[1:] != dips[:-1]) == (2 if dip > 0 else 0)
        if dip < 0:
            dets = fold_level(c, 0.07, g, peak) + np.linspace(-1e-3, 1e-3, 201)
            assert_solves(c, 0.07, g, dets, [1] * len(dets), rounding=4.0)
            return
        low, high = np.sort(fold_level(c, 0.07, g, np.array(found)))
        assert 0.0 < high - low < 1e-10
        inside = 1e-3 * (high - low)
        roots = assert_solves(c, 0.07, g, np.array([low + inside, high - inside]), [3, 3],
                              rounding=4.0)
        assert np.all(np.diff(roots.p_circ.reshape(2, 3), axis=1) > 0.0)
        outside = steady_state_branches(c, 0.07, g, np.array([low - inside, high + inside]))
        assert outside.count.tolist() == [1, 1]


class TestScanProfile:
    def grid(self, span, n=1201):
        return np.linspace(-span, span, n)

    def test_linear_matches_airy(self):
        c = cavity()
        dets = self.grid(6 * c.linewidth_phase_fwhm)
        prof = scan_profile(c, 0.0088, dets, 0.0, "up")
        expected = airy(c, 0.0088, dets)
        np.testing.assert_allclose(prof.p_circ, expected, rtol=1e-6)
        area = np.trapezoid(prof.p_circ, dets)
        assert area == pytest.approx(np.trapezoid(expected, dets), rel=1e-6)
        assert abs(prof.asymmetry) < 1e-9
        assert not prof.multi_branch

    def test_monitor_port(self):
        c = cavity()
        dets = self.grid(3 * c.linewidth_phase_fwhm, 301)
        for direction in ("up", "down"):
            prof = scan_profile(c, 0.0088, dets, 0.0, direction)
            assert prof.p_trans.tolist() == (MONITOR_TRANSMISSION * prof.p_circ).tolist()

    def test_kerr_profile_skewed(self):
        c = cavity()
        span = 6 * c.linewidth_phase_fwhm + 2 * abs(G_KERR) * c.resonant_buildup * 0.0088
        prof = scan_profile(c, 0.0088, self.grid(span, 1601), G_KERR, "up")
        assert prof.asymmetry > 0.3

    def test_asymmetry_strictly_increases_with_power(self):
        c = cavity()
        asyms = []
        for p_in in (0.0022, 0.0044, 0.0088, 0.0176, 0.0352, 0.0704):
            span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
            prof = scan_profile(c, p_in, self.grid(span, 2001), G_KERR, "up")
            asyms.append(prof.asymmetry)
        assert all(b > a for a, b in zip(asyms, asyms[1:]))

    def test_hysteresis_iff_multiple_branches(self):
        c = cavity()
        for p_in in (0.0088, 0.0704):
            span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
            dets = self.grid(span, 1201)
            up = scan_profile(c, p_in, dets, G_KERR, "up")
            down = scan_profile(c, p_in, dets, G_KERR, "down")
            gap = float(np.max(np.abs(up.p_circ - down.p_circ[::-1])))
            if up.multi_branch:
                assert gap > 0.1 * np.max(up.p_circ)
            else:
                assert gap < 1e-9 * np.max(up.p_circ)

    @pytest.mark.parametrize("phase", (0.0,) + KERR_PHASES, ids=("linear", "kerr", "tanh"))
    @pytest.mark.parametrize("p_in", [0.015, 0.07])
    def test_points_are_single_detuning_roots(self, phase, p_in, monkeypatch):
        # Every profile point is bit for bit a root of the one-detuning
        # solver, in either sweep direction; the tanh lean's profile follows
        # the sampled solve.
        c = cavity()
        span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
        dets = self.grid(span, 301)
        roots = [one_detuning(c, p_in, phase, d).p_circ.tolist() for d in dets]
        g = follow_slope(phase, monkeypatch)
        for direction, expected in (("up", roots), ("down", roots[::-1])):
            prof = scan_profile(c, p_in, dets, g, direction)
            for p, found in zip(prof.p_circ, expected, strict=True):
                assert p in found
            assert prof.multi_branch == any(len(found) >= 3 for found in roots)

    def test_monotone_sweep_required(self):
        for detunings in ([0.0, 1.0, 0.5], [-np.inf, 0.0, 1.0]):
            with pytest.raises(DomainError):
                scan_profile(cavity(), 0.01, np.array(detunings), 0.0, "up")


def reference_follow(branch_lists, order, direction):
    """scan_profile's per-point branch following before it ran on arrays,
    kept verbatim as the oracle of the array follow."""
    multi = any(len(branches) >= 3 for branches in branch_lists)
    p_follow = np.empty(len(branch_lists))
    p_prev: Optional[float] = None
    for idx in order:
        stable = [p for p, s in branch_lists[idx] if s]
        if len(stable) == 1:
            choice = stable[0]
        elif p_prev is None:
            choice = stable[0] if direction == "up" else stable[-1]
        else:
            choice = min(stable, key=lambda p: abs(p - p_prev))
        p_follow[idx] = choice
        p_prev = choice
    return p_follow, multi


def reference_profile(branch_lists, dets, direction):
    dets = np.asarray(dets, dtype=float)
    order = np.argsort(dets)
    if direction == "down":
        order = order[::-1]
    p_follow, multi = reference_follow(branch_lists, order, direction)
    view = slice(None) if direction == "up" else slice(None, None, -1)
    return ResonanceProfile(dets[view].copy(), p_follow[view].copy(),
                            MONITOR_TRANSMISSION * p_follow[view], direction,
                            _half_max_asymmetry(dets, p_follow), multi)


def assert_same_profile(found, expected):
    for field in ("detuning", "p_circ", "p_trans"):
        assert list(map(float.hex, getattr(found, field).tolist())) == list(
            map(float.hex, getattr(expected, field).tolist()))
    assert float(found.asymmetry).hex() == float(expected.asymmetry).hex()  # NaN included
    assert found.multi_branch is expected.multi_branch
    assert found.direction == expected.direction


def assert_follows_reference(params, p_in, dets, phase, monkeypatch=None):
    """Both directions of scan_profile equal the per-point follow of the branch
    lists of :func:`solve`."""
    lists = branch_lists(solve(params, p_in, phase, np.asarray(dets, float)))
    g = follow_slope(phase, monkeypatch)
    for direction in ("up", "down"):
        found = scan_profile(params, p_in, dets, g, direction)
        expected = reference_profile(lists, dets, direction)
        assert_same_profile(found, expected)
    return max(map(len, lists))


class TestArrayFollow:
    """scan_profile follows the branch on the BranchArrays bit for bit as the
    per-point loop followed the branch lists."""

    @pytest.mark.filterwarnings("ignore:single-pass drive")
    def test_benchmark_and_packaged_scans(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        from workloads import generate

        calls = []
        profile = scenarios_module.scan_profile

        def recorded(*args):
            calls.append((args, profile(*args)))
            return calls[-1][1]

        monkeypatch.setattr(scenarios_module, "scan_profile", recorded)
        configs = [load_config(default_config_path("fig3"))]
        configs += [case.config for case in generate("resonance_scan", 1501)]
        for i, config in enumerate(configs):
            run_scenario(config, tmp_path / str(i))
        assert len(calls) == 2 + 13
        assert any(found.multi_branch for _, found in calls)
        for (params, p_in, dets, g, direction), found in calls:
            assert direction == "up"
            lists = branch_lists(steady_state_branches(params, p_in, g, dets))
            expected = reference_profile(lists, dets, "up")
            assert_same_profile(found, expected)
            assert_follows_reference(params, p_in, dets, g)

    @pytest.mark.parametrize("shape", ["linear", "tanh", "sine"])
    def test_random_cavities(self, shape, monkeypatch):
        rng = np.random.default_rng(["linear", "tanh", "sine"].index(shape))
        most = []
        for _ in range(8):
            c = CavityParams(RT_LENGTH, rng.uniform(0.003, 0.3), rng.uniform(0.0, 0.05))
            p_in = 10.0 ** rng.uniform(-3.0, -0.5)
            p_max = c.resonant_buildup * p_in
            g = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 5.0) / p_max
            turn = rng.uniform(0.1, 0.3) * p_max
            phase = {"linear": g,
                     "tanh": lambda p: g * turn * np.tanh(p / turn),
                     "sine": lambda p: g * turn * np.sin(p / turn)}[shape]
            dets = np.linspace(-4.0, 4.0, int(rng.integers(200, 700)))
            most.append(assert_follows_reference(c, p_in, dets[::int(rng.choice([-1, 1]))],
                                                 phase, monkeypatch))
        assert max(most) >= (5 if shape == "sine" else 3)

    def test_first_point_multi_branch(self):
        c = cavity()
        wide = np.linspace(0.0, 0.15, 601)
        found = steady_state_branches(c, 0.07, KERR_PHASES[0], wide)
        bistable = wide[found.count >= 3]
        dets = np.linspace(bistable[1], bistable[-2], 41)
        assert np.all(steady_state_branches(c, 0.07, KERR_PHASES[0], dets).count == 3)
        assert_follows_reference(c, 0.07, dets, KERR_PHASES[0])
        up = scan_profile(c, 0.07, dets, KERR_PHASES[0], "up")
        down = scan_profile(c, 0.07, dets, KERR_PHASES[0], "down")
        assert up.p_circ[0] < down.p_circ[-1]  # lowest stable branch up, highest down

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_exact_tie_takes_the_first(self, direction, monkeypatch):
        # Up, both multi-root points, and down, the first one has its stable
        # roots equally far either side of the previous choice: the first,
        # lower one is kept.
        roots = [[2.0], [1.0, 1.5, 3.0], [0.5, 0.75, 1.5], [1.0]]
        lists = [[(p, i % 2 == 0) for i, p in enumerate(r)] for r in roots]
        arrays = BranchArrays(np.array(sum(roots, [])),
                              np.array([s for branches in lists for _, s in branches]),
                              np.array([len(r) for r in roots]))
        monkeypatch.setattr(cavity_module, "steady_state_branches", lambda *args: arrays)
        dets = np.array([0.0, 0.1, 0.2, 0.3])
        found = scan_profile(cavity(), 0.07, dets, 0.0, direction)
        assert_same_profile(found, reference_profile(lists, dets, direction))
        assert sorted(found.p_circ.tolist()) == [0.5, 1.0, 1.0, 2.0]


class TestHalfMaxAsymmetry:
    @pytest.mark.parametrize("y", [
        [1.0, 0.9, 0.3],  # peak at the left end
        [0.1, 0.5, 1.0],  # peak at the right end
        [0.6, 1.0, 0.2],  # no crossing on the left
        [0.2, 1.0, 0.6],  # no crossing on the right
    ])
    def test_nan_without_two_crossings(self, y):
        assert math.isnan(_half_max_asymmetry(np.arange(len(y), dtype=float), np.array(y)))

    @pytest.mark.parametrize("y, expected", [
        ([0.4, 1.0, 0.4], 6.661338147750938e-17),  # crossings at both end points
        ([0.4, 1.0, 0.9, 0.1], 0.2857142857142857),
    ])
    def test_end_point_crossings(self, y, expected):
        assert _half_max_asymmetry(np.arange(len(y), dtype=float), np.array(y)) == expected

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_sweep_order_leaves_the_value(self, descending, direction):
        # Both orders of one sweep read the same skew, and it is >= 0.
        c = CavityParams(0.838, 0.01, 0.0019)
        dets = np.linspace(-8.0, 8.0, 1501) * c.linewidth_phase_fwhm
        ascending = scan_profile(c, 0.0088, dets, -0.01, direction).asymmetry
        found = scan_profile(c, 0.0088, dets[::-1] if descending else dets, -0.01,
                             direction).asymmetry
        assert found.hex() == ascending.hex() and found > 0.9

    def test_skewed_curve(self):
        # Lorentzian halves of half widths 0.3 and 0.8 on a grid that puts
        # neither crossing on a point; the value is pinned to the walking
        # search that came before the index lookups.
        x = np.linspace(-1.0, 2.0, 37)
        y = 1.0 / (1.0 + (x / np.where(x < 0, 0.3, 0.8)) ** 2)
        assert _half_max_asymmetry(x, y) == 0.451532836393328


def detuned_point(params, p_in, g, detuning, branch=None):
    """The OperatingPoint of slope ``g`` on a root of a one-element solve at
    ``detuning``.  ``branch`` indexes the roots; None takes the only one."""
    found = one_detuning(params, p_in, g, detuning)
    if branch is None:
        assert len(found.p_circ) == 1
    p = found.p_circ.tolist()[branch or 0]
    return OperatingPoint(p, g * p * params.fsr, params.gamma_coupler, params.gamma_loss)


def detuned_delta(params, op, detuning):
    """``delta_eff = (detuning + 2 g p_circ) FSR`` of the point free running at
    ``detuning`` rad, the self-shift included; a locked cavity holds it at 0."""
    return detuning * params.fsr + 2.0 * op.epsilon


def detuned_threshold(params, op, detuning):
    """The pump rate at which the linearized dynamics free running at
    ``detuning`` turn unstable: hypot(gamma_total, delta_eff)."""
    return math.hypot(op.gamma_total, detuned_delta(params, op, detuning))


class TestOperatingPoint:
    def test_zero_kerr_no_pump(self):
        op = detuned_point(cavity(), 0.0088, 0.0, 0.0)
        assert op.below_threshold
        assert op.epsilon == 0.0
        assert op.headroom == math.inf

    @pytest.mark.parametrize("p_circ, phases, message", [
        (math.nan, (0.0, 0.0), "p_circ"),
        (math.inf, (0.0, 0.0), "p_circ"),
        (-math.inf, (0.0, 0.0), "p_circ"),
        (-1.0, (0.0, 0.0), "p_circ"),
        (1.0, (math.nan, 0.0), "epsilon"),
        (1.0, (0.0, -math.inf), "epsilon"),
        (1.0, (0.0, math.inf), "epsilon"),
    ], ids=["nan-power", "inf-power", "minus-inf-power", "negative-power", "nan-phase",
            "inf-phase", "plus-inf-phase"])
    def test_bad_power_or_phases_are_rejected(self, p_circ, phases, message):
        # ``phases`` are the outer cascade phases (lo, hi) of a locked run; a
        # non-finite one reaches the constructor as a non-finite epsilon.
        c = cavity()
        phi_lo, phi_hi = phases
        epsilon = (phi_hi - phi_lo) / (2.0 * SLOPE_STEP) * c.fsr
        with pytest.raises(DomainError, match=message):
            OperatingPoint(p_circ, epsilon, c.gamma_coupler, c.gamma_loss)

    def test_epsilon_linear_in_circulating_power(self):
        ops = [detuned_point(cavity(), p_in, 1e-5, 0.0) for p_in in (0.001, 0.002)]
        assert all(op.below_threshold for op in ops)
        ratio = ops[1].epsilon / ops[0].epsilon
        assert ratio == pytest.approx(ops[1].p_circ / ops[0].p_circ, rel=1e-6)

    def test_rates_and_shift(self):
        c = cavity()
        g = 1e-5
        op = detuned_point(c, 0.001, g, 0.001)
        assert op.below_threshold
        assert op.headroom == c.gamma_total / abs(op.epsilon)
        assert op.gamma_coupler == pytest.approx(c.gamma_coupler, rel=1e-12)
        assert op.gamma_loss == pytest.approx(c.gamma_loss, rel=1e-12)
        assert detuned_delta(c, op, 0.001) == pytest.approx(
            (0.001 + 2 * g * op.p_circ) * c.fsr, rel=1e-10)
        # No circulating power, no pump.
        assert detuned_point(c, 0.0, g, 0.001).epsilon == 0.0

    def test_unstable_branch_is_above_threshold(self):
        # The middle branch of the S-curve is exactly the above-threshold
        # solution of the linearized dynamics free running at its detuning.
        c = cavity()
        op = detuned_point(c, 0.07, G_KERR, 0.03, branch=1)
        assert detuned_threshold(c, op, 0.03) < abs(op.epsilon)
        for stable_branch in (0, 2):
            op = detuned_point(c, 0.07, G_KERR, 0.03, branch=stable_branch)
            assert detuned_threshold(c, op, 0.03) > abs(op.epsilon)
            assert op.p_circ > 0

    def test_fold_point_sits_at_threshold(self):
        # The quasi-static fold and the linearized instability must agree.
        p_in = 0.07

        def n_roots(det):
            return len(one_detuning(cavity(), p_in, G_KERR, det).p_circ)

        lo = next(d for d in np.linspace(0.0, 0.15, 400) if n_roots(d) == 3)
        hi = 0.15
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if n_roots(mid) == 3:
                lo = mid
            else:
                hi = mid
        c = cavity()
        roots = one_detuning(c, p_in, G_KERR, lo).p_circ.tolist()
        p_star = 0.5 * (roots[1] + roots[2])
        epsilon = G_KERR * p_star * c.fsr
        delta_eff = (lo + 2 * G_KERR * p_star) * c.fsr
        headroom = math.hypot(c.gamma_total, delta_eff) / abs(epsilon)
        assert headroom == pytest.approx(1.0, abs=0.05)


def op_point(epsilon, gamma=1.0, loss_fraction=0.0):
    return OperatingPoint(
        p_circ=1.0,
        epsilon=epsilon,
        gamma_coupler=gamma * (1 - loss_fraction),
        gamma_loss=gamma * loss_fraction,
    )


def reference_spectrum(op, omega, delta_eff=0.0):
    """Principal output variances and minor-axis angle of the linearized
    dynamics detuned by ``delta_eff``, from one 2x2 input-output solve per
    offset: ``m = ((gamma - i w) I - A)^-1`` with drift ``A = [[0, delta +
    eps], [eps - delta, 0]]``, the coupler's ``2 gc m - I`` and the loss
    port's ``2 sqrt(gc gl) m``, and ``eigh`` of the symmetric real part of
    their summed outer products.  The independent oracle of the locked
    closed form.  Fields have the shape of ``omega``."""
    gam, gc, gl, eps = op.gamma_total, op.gamma_coupler, op.gamma_loss, op.epsilon
    omegas = np.asarray(omega, dtype=float)
    w = omegas.reshape(-1, 1, 1)
    drift = np.array([[0.0, delta_eff + eps], [eps - delta_eff, 0.0]])
    m = np.linalg.inv((gam - 1j * w) * np.eye(2) - drift)
    t_in, t_loss = 2.0 * gc * m - np.eye(2), 2.0 * math.sqrt(gc * gl) * m
    s_out = (t_in @ t_in.conj().swapaxes(-1, -2) + t_loss @ t_loss.conj().swapaxes(-1, -2)).real
    vals, vecs = np.linalg.eigh(0.5 * (s_out + s_out.swapaxes(-1, -2)))
    theta = np.arctan2(vecs[:, 1, 0], vecs[:, 0, 0]) % math.pi
    return SpectrumPoint(*(x.reshape(omegas.shape) for x in (vals[:, 0], vals[:, 1], theta)))


class TestSpectrum:
    def test_vacuum_out_without_pump(self):
        for omega in (0.0, 0.3, 10.0):
            pt = squeezing_spectrum(op_point(0.0, loss_fraction=0.3), omega)
            assert pt.v_min == 1.0 and pt.v_max == 1.0 and pt.theta_min == 0.0
        stacked = squeezing_spectrum(op_point(0.0), np.array([0.0, 0.3]))
        assert [x.tolist() for x in stacked] == [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]

    def test_closed_form_on_resonance(self):
        # v_-/+ = 1 -/+ 4 gc eps / ((gt +/- eps)^2 + w^2), valid with loss.
        for eps, lf, omega in [
            (0.5, 0.0, 0.0),
            (0.5, 0.0, 0.7),
            (0.3, 0.16, 0.0),
            (0.8, 0.16, 1.3),
        ]:
            pt = squeezing_spectrum(op_point(eps, 1.0, lf), omega)
            gc = 1.0 - lf
            v_minus = 1 - 4 * gc * eps / ((1 + eps) ** 2 + omega**2)
            v_plus = 1 + 4 * gc * eps / ((1 - eps) ** 2 + omega**2)
            assert pt.v_min == pytest.approx(v_minus, rel=1e-12)
            assert pt.v_max == pytest.approx(v_plus, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lapack_reference(self, seed):
        # Random locked points, pumped with either sign, lossless or lossy, at
        # up to 0.6 of threshold: the closed form is the 2x2 solve to 1e-13,
        # and its minor axis is exactly the reference's pi/4 or 3 pi/4.
        rng = np.random.default_rng(seed)
        omegas = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 20)])
        for _ in range(25):
            gamma = float(rng.uniform(0.1, 10.0))
            loss_fraction = float(rng.choice([0.0, rng.uniform(0.0, 0.6)]))
            eps = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.6)) * gamma
            op = op_point(eps, gamma, loss_fraction)
            expected = reference_spectrum(op, gamma * omegas)
            got = squeezing_spectrum(op, gamma * omegas)
            theta = math.pi / 4 if eps < 0.0 else 3 * math.pi / 4
            np.testing.assert_allclose(got.v_min, expected.v_min, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(got.v_max, expected.v_max, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(expected.theta_min, theta, rtol=0.0, atol=1e-9)
            assert got.theta_min.tolist() == [theta] * len(omegas)
            for i, omega in enumerate(gamma * omegas):
                pt = squeezing_spectrum(op, omega)
                assert type(pt.v_min) is type(pt.theta_min) is float
                assert pt == (got.v_min[i], got.v_max[i], theta)

    def test_reference_detuned(self):
        # The oracle off resonance: lossless output stays pure, and detuning
        # raises the threshold to hypot(gamma, delta), so 1.5 gamma squeezes.
        for eps, delta in ((0.5, 0.2), (0.9, 0.2), (1.5, 2.0)):
            pt = reference_spectrum(op_point(eps), np.array([0.0, 0.5, 2.0]), delta)
            np.testing.assert_allclose(pt.v_min * pt.v_max, 1.0, rtol=0.0, atol=1e-9)
            assert pt.v_min[0] < 1.0

    def test_textbook_ninth(self):
        pt = squeezing_spectrum(op_point(0.5), 0.0)
        assert abs(pt.v_min - 1.0 / 9.0) < 1e-9
        assert 10 * math.log10(pt.v_min) == pytest.approx(-9.54, abs=0.01)

    def test_lossless_purity(self):
        omegas = np.array([0.0, 0.5, 2.0])
        for eps in (0.1, 0.5, 0.9):
            points = [squeezing_spectrum(op_point(eps), omega) for omega in omegas]
            for pt in points:
                assert abs(pt.v_min * pt.v_max - 1.0) < 1e-9
            # One stacked call gives the per-point results bit for bit.
            stacked = squeezing_spectrum(op_point(eps), omegas)
            for field, values in zip(SpectrumPoint._fields, stacked):
                assert values.tolist() == [getattr(pt, field) for pt in points]

    def test_loss_makes_mixed(self):
        pt = squeezing_spectrum(op_point(0.5, loss_fraction=0.16), 0.0)
        assert pt.v_min * pt.v_max > 1.0
        assert pt.v_min < 1.0 < pt.v_max

    def test_squeezing_strongest_on_resonance(self):
        omegas = np.linspace(0.0, 4.0, 21)
        v = [squeezing_spectrum(op_point(0.5), w).v_min for w in omegas]
        assert all(b >= a - 1e-12 for a, b in zip(v, v[1:]))

    def test_above_threshold_rejected(self):
        for eps in (1.5, -1.0, 1.0):
            with pytest.raises(ThresholdError):
                squeezing_spectrum(op_point(eps), 0.0)
            with pytest.raises(ThresholdError):
                squeezing_spectrum(op_point(eps), np.array([0.0, 1.0]))

    def test_negative_epsilon_rotates_axes(self):
        plus = squeezing_spectrum(op_point(0.5), 0.0)
        minus = squeezing_spectrum(op_point(-0.5), 0.0)
        assert minus.v_min == pytest.approx(plus.v_min, rel=1e-12)
        assert abs(abs(minus.theta_min - plus.theta_min) - math.pi / 2) < 1e-9


class TestCombMap:
    def test_first_line(self):
        c = cavity()
        comb = sideband_comb_map(c.fsr, c.fsr)
        assert comb.index == 1 and comb.omega == pytest.approx(0.0, abs=1e-6)

    def test_third_line_at_nominal_fsr(self):
        comb = sideband_comb_map(358e6, 1074e6)
        assert comb.index == 3 and comb.omega == 0.0
        combs = sideband_comb_map(358e6, np.array([0.0, 1074e6, 1.5 * 358e6, 1075e6]))
        assert combs.index.tolist() == [0, 3, 2, 3]
        assert combs.omega.tolist() == [
            sideband_comb_map(358e6, f).omega for f in (0.0, 1074e6, 1.5 * 358e6, 1075e6)]

    def test_midpoint_antiresonant(self):
        comb = sideband_comb_map(358e6, 1.5 * 358e6)
        assert comb.omega == pytest.approx(-math.pi * 358e6, rel=1e-12) or comb.omega == pytest.approx(
            math.pi * 358e6, rel=1e-12
        )

    def test_zero_frequency(self):
        comb = sideband_comb_map(358e6, 0.0)
        assert comb.index == 0 and comb.omega == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sideband_comb_map(358e6, -1.0)
        with pytest.raises(DomainError):
            sideband_comb_map(358e6, np.array([1e6, -1.0]))
