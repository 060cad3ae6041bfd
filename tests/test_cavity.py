import math
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrsqueezer import (
    BranchArrays,
    CavityParams,
    DomainError,
    NumericalError,
    OperatingPoint,
    ResonanceProfile,
    SpectrumPoint,
    SteadyStateBranch,
    ThresholdError,
    make_operating_point,
    scan_profile,
    sideband_comb_map,
    squeezing_spectrum,
    steady_state_branches,
)
from kerrsqueezer import cavity as cavity_module
from kerrsqueezer import scenarios as scenarios_module
from kerrsqueezer.cavity import _SCAN_POINTS, _half_max_asymmetry
from kerrsqueezer.roots import brentq
from kerrsqueezer.scenarios import default_config_path, load_config, run_scenario

# Resonator budget used throughout: 1% coupler, 0.19% residual loss.
T1 = 0.01
LOSS = 0.0019
RT_LENGTH = 0.838
# Round-trip Kerr phase slope at the first conversion zero for kappa = 14.
G_KERR = -(14.0**2) * 0.0093**2 / (2 * math.pi)
# Kerr phases the root finder is fed: the linear cascade phase and a lean
# with the same small-power slope that saturates above 12 W (still bistable
# at 70 mW, 0.03 rad).  Both take arrays, as steady_state_branches requires.
KERR_PHASES = (
    lambda p: G_KERR * p,
    lambda p: G_KERR * 12.0 * np.tanh(p / 12.0),
)


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


# Detunings per block of the dense sign-change scan in reference_branches.
_SCAN_BLOCK = 32


def reference_branches(params, p_in, phi_nl=None, detuning=0.0):
    """The blockwise sign-change scan that evaluated F on the whole bracket
    grid, kept verbatim as the bit-for-bit oracle of steady_state_branches,
    which reads the same signs off the resonance manifold."""
    dets = np.asarray(detuning, dtype=float)
    if dets.ndim > 1:
        raise DomainError("detuning must be a float or a 1-D array")
    if not np.all(np.isfinite(dets)):
        raise DomainError("detuning must be finite")
    if not math.isfinite(p_in) or p_in < 0.0:
        raise DomainError(f"input power must be >= 0, got {p_in}")
    sweep = dets.reshape(-1)
    if p_in == 0.0 or not len(sweep):
        lists = [[SteadyStateBranch(0.0, True)] for _ in sweep]
        return lists if dets.ndim else lists[0]
    r = params.r_eff
    t1 = params.coupler_transmission

    def implicit(p, phase):
        return p * (1.0 + r * r - 2.0 * r * np.cos(phase)) - t1 * p_in

    p_max = params.resonant_buildup * p_in * (1.0 + 1e-6)
    grid = np.linspace(0.0, p_max, _SCAN_POINTS)
    phi_grid = None if phi_nl is None else phi_nl(grid)
    owners, cells, stable, counts = [], [], [], []
    for start in range(0, len(sweep), _SCAN_BLOCK):
        block = sweep[start:start + _SCAN_BLOCK, None]
        values = implicit(grid, block if phi_grid is None else block + phi_grid)
        above = values > 0.0
        # flatnonzero and divmod take a sixth of the time of a 2-D nonzero.
        rows, cols = np.divmod(np.flatnonzero(above[:, :-1] != above[:, 1:]), _SCAN_POINTS - 1)
        found = np.bincount(rows, minlength=len(block))
        if not found.all():
            j = int(np.argmin(found))
            raise NumericalError(
                "failed to bracket any steady state "
                f"(p_in={p_in}, detuning={float(block[j, 0])}, p_max={p_max}); "
                f"F(0)={values[j, 0]:.3e}, F(p_max)={values[j, -1]:.3e}"
            )
        owners.append(start + rows)
        cells.append(cols)
        stable.append(above[rows, cols + 1])
        counts.append(found)
    owners, cells = np.concatenate(owners), np.concatenate(cells)

    def implicit_at(p, index):
        phase = sweep[owners[index]]
        return implicit(p, phase if phi_nl is None else phase + phi_nl(p))

    roots = brentq(implicit_at, grid[cells], grid[cells + 1], xtol=1e-300, rtol=8.9e-16).tolist()
    branches = [SteadyStateBranch(p, s) for p, s in zip(roots, np.concatenate(stable).tolist())]
    ends = np.cumsum(np.concatenate(counts)).tolist()
    lists = [branches[i:j] for i, j in zip([0] + ends, ends)]
    return lists if dets.ndim else lists[0]


class TestSteadyState:
    def test_linear_resonant_buildup(self):
        branches = steady_state_branches(cavity(), 0.0088)
        assert len(branches) == 1 and branches[0].stable
        assert branches[0].p_circ == pytest.approx(
            cavity().resonant_buildup * 0.0088, rel=1e-9
        )

    @pytest.mark.parametrize("detuning", [-0.02, -0.003, 0.0, 0.004, 0.05])
    def test_linear_single_airy_root(self, detuning):
        c = cavity()
        branches = steady_state_branches(c, 0.0088, None, detuning)
        assert len(branches) == 1
        assert branches[0].p_circ == pytest.approx(float(airy(c, 0.0088, detuning)), rel=1e-9)

    def test_zero_input(self):
        assert steady_state_branches(cavity(), 0.0) == [(0.0, True)]

    def test_bistable_root_structure(self):
        # 70 mW drive against the Kerr lean: classic S-curve with 3 roots.
        phi = lambda p: G_KERR * p
        c = cavity()
        branches = steady_state_branches(c, 0.07, phi, 0.03)
        assert len(branches) == 3
        assert [b.stable for b in branches] == [True, False, True]
        ps = [b.p_circ for b in branches]
        assert ps == sorted(ps)

    def test_graphical_intersection_oracle(self):
        # Count sign changes of the implicit equation on a dense grid.
        for phi in KERR_PHASES:
            for det, p_in in [(0.03, 0.07), (0.0, 0.0088), (0.1, 0.07), (0.02, 0.002)]:
                c = cavity()
                branches = steady_state_branches(c, p_in, phi, det)
                r = c.r_eff
                grid = np.linspace(0.0, c.resonant_buildup * p_in * (1 + 1e-6), 400_001)
                f = grid * (1 + r**2 - 2 * r * np.cos(det + phi(grid))) - T1 * p_in
                crossings = int(np.sum(np.sign(f[1:]) != np.sign(f[:-1])))
                assert crossings == len(branches)

    def test_roots_satisfy_implicit_equation(self):
        c = cavity()
        r = c.r_eff
        for phi in KERR_PHASES:
            branches = steady_state_branches(c, 0.07, phi, 0.03)
            assert len(branches) == 3
            for b in branches:
                resonance = 1 + r**2 - 2 * r * math.cos(0.03 + phi(b.p_circ))
                assert b.p_circ * resonance == pytest.approx(T1 * 0.07, rel=1e-10)

    def test_branch_lists_alternate_from_stable_ends(self):
        # F(0) < 0 < F(p_max), so every list has odd length, alternates
        # stable/unstable and is stable at both ends: scan_profile always
        # has a stable branch to follow.
        rng = np.random.default_rng(20201104)
        c = cavity()
        multi = 0
        for _ in range(3000):
            det, p_in, g = rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.1), rng.uniform(-0.5, 0.5)
            linear = rng.random() < 0.5
            phi = lambda p: g * p if linear else g * 12.0 * np.tanh(p / 12.0)
            stable = [b.stable for b in steady_state_branches(c, p_in, phi, det)]
            assert len(stable) % 2 == 1
            assert stable == [i % 2 == 0 for i in range(len(stable))]
            multi += len(stable) >= 3
        assert multi >= 300

    @pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, detuning):
        for solve in (steady_state_branches, make_operating_point):
            for p_in in (0.0, 0.0088):
                with pytest.raises(DomainError, match="detuning must be finite"):
                    solve(cavity(), p_in, None, detuning)


class TestStackedSweep:
    """An array of detunings: one branch list per detuning from one solve."""

    @pytest.mark.parametrize("phi", (None,) + KERR_PHASES, ids=("linear", "kerr", "tanh"))
    @pytest.mark.parametrize("p_in", [0.015, 0.07])
    def test_equals_float_calls(self, phi, p_in):
        c = cavity()
        span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
        dets = np.linspace(-span, span, 167)
        stacked = steady_state_branches(c, p_in, phi, dets)
        assert isinstance(stacked, BranchArrays) and len(stacked.count) == len(dets)
        assert stacked.p_circ.dtype == np.float64 and stacked.stable.dtype == np.bool_
        for det, branches in zip(dets, split_bits(stacked), strict=True):
            single = steady_state_branches(c, p_in, phi, float(det))
            assert branches == [(b.p_circ.hex(), b.stable) for b in single]
            assert all(type(b.p_circ) is float and type(b.stable) is bool for b in single)
        # Both powers are bistable against the Kerr lean.
        assert bool((stacked.count >= 3).any()) == (phi is not None)

    def test_counts_cover_the_roots_and_stability_alternates(self):
        c = cavity()
        for phi in (None,) + KERR_PHASES:
            found = steady_state_branches(c, 0.07, phi, np.linspace(-0.2, 0.2, 401))
            assert found.count.sum() == len(found.p_circ) == len(found.stable)
            assert np.all(found.count % 2 == 1)
            for branches in split_bits(found):
                assert [stable for _, stable in branches] == [
                    i % 2 == 0 for i in range(len(branches))]
            assert bool((found.count >= 3).any()) == (phi is not None)

    def test_zero_input(self):
        found = steady_state_branches(cavity(), 0.0, None, np.linspace(-0.1, 0.1, 40))
        assert isinstance(found, BranchArrays)
        assert found.p_circ.dtype == np.float64 and found.stable.dtype == np.bool_
        assert split_bits(found) == [[((0.0).hex(), True)]] * 40
        assert found.count.tolist() == [1] * 40

    def test_empty_sweep(self):
        found = steady_state_branches(cavity(), 0.07, KERR_PHASES[0], np.array([]))
        assert isinstance(found, BranchArrays)
        assert [len(field) for field in found] == [0, 0, 0]
        assert split_bits(found) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p_in", [0.0, 0.0088])
    def test_non_finite_detuning_rejected(self, bad, p_in):
        dets = np.linspace(-0.1, 0.1, 96)
        dets[69] = bad
        with pytest.raises(DomainError, match="detuning must be finite"):
            steady_state_branches(cavity(), p_in, None, dets)

    def test_two_dimensional_detuning_rejected(self):
        with pytest.raises(DomainError, match="1-D"):
            steady_state_branches(cavity(), 0.0088, None, np.zeros((2, 3)))

    def test_nan_phase_names_the_detuning(self):
        # A phase that is NaN above 60 % of the resonant power leaves the
        # detunings near resonance without a bracket.  Every bracket of the
        # sweep is checked before any Brent step, so the stacked call raises
        # NumericalError naming the first of them in array order, even where
        # a detuning earlier in the array has a bracket into the NaN region,
        # which stops Brent with ValueError when solved on its own.
        c = cavity()
        p_cut = 0.6 * c.resonant_buildup * 0.0088
        phi = lambda p: np.where(p < p_cut, 0.0, np.nan)
        dets = np.linspace(-0.05, 0.05, 129)
        with pytest.raises(NumericalError) as stacked:
            steady_state_branches(c, 0.0088, phi, dets)
        with pytest.raises(ValueError, match="is NaN"):
            steady_state_branches(c, 0.0088, phi, dets[0])
        errors = []
        for det in dets:
            try:
                steady_state_branches(c, 0.0088, phi, det)
            except NumericalError as err:
                errors.append((det, str(err)))
            except ValueError:
                pass
        first = errors[0]
        assert first[0] > dets[0]
        assert f"detuning={first[0]}" in str(stacked.value)
        assert str(stacked.value) == first[1]

    def test_phase_is_called_on_1d_arrays_only(self):
        def phi(p):
            assert isinstance(p, np.ndarray) and p.ndim == 1
            return G_KERR * p

        c = cavity()
        steady_state_branches(c, 0.07, phi, 0.03)
        steady_state_branches(c, 0.07, phi, np.linspace(-0.05, 0.05, 50))
        scan_profile(c, 0.07, np.linspace(-0.05, 0.05, 50), phi, "down")
        make_operating_point(c, 0.07, phi, 0.03, branch=0)


def manifold_ends(params, p_in, phi_nl, turns=(-1, 0, 1)):
    """c_j and the F = 0 detunings -phi_j -+ arccos(c_j) + 2 pi k of the grid columns p_j > 0,
    computed as steady_state_branches computes them."""
    r, t1 = params.r_eff, params.coupler_transmission
    grid = np.linspace(0.0, params.resonant_buildup * p_in * (1.0 + 1e-6), _SCAN_POINTS)[1:]
    phase = np.zeros_like(grid) if phi_nl is None else phi_nl(grid)
    c = (1.0 + r * r - t1 * p_in / grid) / (2.0 * r)
    half = np.arccos(np.clip(c, -1.0, 1.0))
    return c, np.ravel([-phase + side * half + 2.0 * math.pi * k
                        for k in turns for side in (-1.0, 1.0)])


def near(ends, offsets=(1e-15, 1e-13, 1e-11, 1e-9, 3e-8, 3e-7)):
    """Each end, its float neighbours and the end moved by each offset either way."""
    return np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]
                          + [ends + side * o for o in offsets for side in (-1.0, 1.0)])


def split_bits(arrays):
    """Per-detuning lists of (p_circ.hex(), stable) of a BranchArrays."""
    stops = np.cumsum(arrays.count).tolist()
    bits = list(zip(map(float.hex, arrays.p_circ.tolist()), arrays.stable.tolist()))
    return [bits[a:b] for a, b in zip([0] + stops, stops)]


def assert_reference_bits(params, p_in, phi_nl, detuning):
    def bits(branches):
        return [(b.p_circ.hex(), b.stable) for b in branches]

    found = steady_state_branches(params, p_in, phi_nl, detuning)
    expected = reference_branches(params, p_in, phi_nl, detuning)
    if np.ndim(detuning):
        assert split_bits(found) == [bits(b) for b in expected]
    else:
        assert bits(found) == bits(expected)


def random_phase(rng, shape, p_max):
    g = rng.uniform(-0.8, 0.8)
    turn = rng.uniform(0.1, 0.6) * p_max
    return (None, lambda p: g * p, lambda p: g * turn * np.tanh(p / turn),
            lambda p: g * turn * np.sin(p / turn))[shape]


class TestManifoldBrackets:
    """The brackets read off the resonance manifold are the dense grid's, so
    every root and stable flag is bit for bit that of reference_branches."""

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
            assert_reference_bits(*args)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_cavities(self, seed):
        rng = np.random.default_rng(seed)
        c = CavityParams(RT_LENGTH, rng.uniform(0.003, 0.3), rng.uniform(0.0, 0.05))
        p_in = 10.0 ** rng.uniform(-3.0, -0.5)
        phi = random_phase(rng, seed % 4, c.resonant_buildup * p_in)
        _, ends = manifold_ends(c, p_in, phi)
        ends = near(rng.choice(ends, 60))
        sweep = rng.uniform(-13.0, 13.0, 300)
        dets = np.concatenate([np.sort(sweep), sweep, ends, ends[:40], sweep[:25]])
        rng.shuffle(dets)
        assert_reference_bits(c, p_in, phi, dets)
        for det in dets[:12]:
            assert_reference_bits(c, p_in, phi, float(det))

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_columns_at_plus_minus_one(self, side):
        # c_j = -1 needs (1 - r)^2 / (1 + r)^2 = j (1 + 1e-6) / 511 for some
        # column j, and c_511 nears +1 as r nears 1.
        rng = np.random.default_rng(7)
        if side < 0:
            q = math.sqrt(300 * (1.0 + 1e-6) / 511)
            c = CavityParams(RT_LENGTH, 1.0 - ((1.0 - q) / (1.0 + q)) ** 2, 0.0)
        else:
            c = CavityParams(RT_LENGTH, 2e-4, 0.0)
        for phi in (None, lambda p: -0.4 * p):
            cj, ends = manifold_ends(c, 0.1, phi)
            assert np.min(np.abs(cj - side)) < 64 * np.finfo(float).eps
            ends = near(ends[np.abs(cj - side).argsort()[:8] % len(cj)])
            assert_reference_bits(c, 0.1, phi, np.concatenate([ends, rng.uniform(-4, 4, 200)]))

    @given(t1=st.floats(0.002, 0.5), loss=st.floats(0.0, 0.05), p_in=st.floats(1e-4, 0.3),
           shape=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           dets=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_grid(self, t1, loss, p_in, shape, seed, dets):
        rng = np.random.default_rng(seed)
        c = CavityParams(RT_LENGTH, t1, loss)
        phi = random_phase(rng, shape, c.resonant_buildup * p_in)
        _, ends = manifold_ends(c, p_in, phi)
        assert_reference_bits(c, p_in, phi, np.concatenate([dets, near(rng.choice(ends, 4))]))


class TestScanProfile:
    def grid(self, span, n=1201):
        return np.linspace(-span, span, n)

    def test_linear_matches_airy(self):
        c = cavity()
        dets = self.grid(6 * c.linewidth_phase_fwhm)
        prof = scan_profile(c, 0.0088, dets, None, "up")
        expected = airy(c, 0.0088, dets)
        np.testing.assert_allclose(prof.p_circ, expected, rtol=1e-6)
        area = np.trapezoid(prof.p_circ, dets)
        assert area == pytest.approx(np.trapezoid(expected, dets), rel=1e-6)
        assert abs(prof.asymmetry) < 1e-9
        assert not prof.multi_branch

    def test_monitor_port(self):
        c = cavity()
        dets = self.grid(3 * c.linewidth_phase_fwhm, 301)
        prof = scan_profile(c, 0.0088, dets, None, "up", monitor_transmission=5e-5)
        np.testing.assert_allclose(prof.p_trans, 5e-5 * prof.p_circ, rtol=1e-15)

    def test_kerr_profile_skewed(self):
        c = cavity()
        phi = lambda p: G_KERR * p
        span = 6 * c.linewidth_phase_fwhm + 2 * abs(G_KERR) * c.resonant_buildup * 0.0088
        prof = scan_profile(c, 0.0088, self.grid(span, 1601), phi, "up")
        assert prof.asymmetry > 0.3

    def test_asymmetry_strictly_increases_with_power(self):
        c = cavity()
        phi = lambda p: G_KERR * p
        asyms = []
        for p_in in (0.0022, 0.0044, 0.0088, 0.0176, 0.0352, 0.0704):
            span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
            prof = scan_profile(c, p_in, self.grid(span, 2001), phi, "up")
            asyms.append(prof.asymmetry)
        assert all(b > a for a, b in zip(asyms, asyms[1:]))

    def test_hysteresis_iff_multiple_branches(self):
        c = cavity()
        phi = lambda p: G_KERR * p
        for p_in in (0.0088, 0.0704):
            span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
            dets = self.grid(span, 1201)
            up = scan_profile(c, p_in, dets, phi, "up")
            down = scan_profile(c, p_in, dets, phi, "down")
            gap = float(np.max(np.abs(up.p_circ - down.p_circ[::-1])))
            if up.multi_branch:
                assert gap > 0.1 * np.max(up.p_circ)
            else:
                assert gap < 1e-9 * np.max(up.p_circ)

    @pytest.mark.parametrize("phi", (None,) + KERR_PHASES, ids=("linear", "kerr", "tanh"))
    @pytest.mark.parametrize("p_in", [0.015, 0.07])
    def test_points_are_single_detuning_roots(self, phi, p_in):
        # Every profile point is bit for bit a root of the one-detuning
        # solver, in either sweep direction.
        c = cavity()
        span = 6 * c.linewidth_phase_fwhm + 1.6 * abs(G_KERR) * c.resonant_buildup * p_in
        dets = self.grid(span, 301)
        roots = [[b.p_circ for b in steady_state_branches(c, p_in, phi, d)] for d in dets]
        for direction, expected in (("up", roots), ("down", roots[::-1])):
            prof = scan_profile(c, p_in, dets, phi, direction)
            for p, found in zip(prof.p_circ, expected, strict=True):
                assert p in found
            assert prof.multi_branch == any(len(found) >= 3 for found in roots)

    def test_monotone_sweep_required(self):
        for detunings in ([0.0, 1.0, 0.5], [-np.inf, 0.0, 1.0]):
            with pytest.raises(DomainError):
                scan_profile(cavity(), 0.01, np.array(detunings), None, "up")


def reference_follow(branch_lists, order, direction):
    """scan_profile's per-point branch following before it ran on arrays,
    kept verbatim as the oracle of the array follow."""
    multi = any(len(branches) >= 3 for branches in branch_lists)
    p_follow = np.empty(len(branch_lists))
    p_prev: Optional[float] = None
    for idx in order:
        stable = [b.p_circ for b in branch_lists[idx] if b.stable]
        if len(stable) == 1:
            choice = stable[0]
        elif p_prev is None:
            choice = stable[0] if direction == "up" else stable[-1]
        else:
            choice = min(stable, key=lambda p: abs(p - p_prev))
        p_follow[idx] = choice
        p_prev = choice
    return p_follow, multi


def reference_profile(branch_lists, dets, direction, monitor_transmission=1e-4):
    dets = np.asarray(dets, dtype=float)
    order = np.argsort(dets)
    if direction == "down":
        order = order[::-1]
    p_follow, multi = reference_follow(branch_lists, order, direction)
    view = slice(None) if direction == "up" else slice(None, None, -1)
    return ResonanceProfile(dets[view].copy(), p_follow[view].copy(),
                            monitor_transmission * p_follow[view], direction,
                            _half_max_asymmetry(dets, p_follow), multi)


def assert_same_profile(found, expected):
    for field in ("detuning", "p_circ", "p_trans"):
        assert list(map(float.hex, getattr(found, field).tolist())) == list(
            map(float.hex, getattr(expected, field).tolist()))
    assert float(found.asymmetry).hex() == float(expected.asymmetry).hex()  # NaN included
    assert found.multi_branch is expected.multi_branch
    assert found.direction == expected.direction


def assert_follows_reference(params, p_in, dets, phi_nl=None, monitor_transmission=1e-4):
    """Both directions of scan_profile equal the per-point follow of the dense-grid branches."""
    branch_lists = reference_branches(params, p_in, phi_nl, np.asarray(dets, dtype=float))
    for direction in ("up", "down"):
        found = scan_profile(params, p_in, dets, phi_nl, direction, monitor_transmission)
        expected = reference_profile(branch_lists, dets, direction, monitor_transmission)
        assert_same_profile(found, expected)
    return max(map(len, branch_lists))


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
        for (params, p_in, dets, phi, direction), found in calls:
            assert direction == "up"
            expected = reference_profile(reference_branches(params, p_in, phi, dets), dets, "up")
            assert_same_profile(found, expected)
            assert_follows_reference(params, p_in, dets, phi)

    @pytest.mark.parametrize("shape", ["linear", "tanh", "sine"])
    def test_random_cavities(self, shape):
        rng = np.random.default_rng(["linear", "tanh", "sine"].index(shape))
        most = []
        for _ in range(8):
            c = CavityParams(RT_LENGTH, rng.uniform(0.003, 0.3), rng.uniform(0.0, 0.05))
            p_in = 10.0 ** rng.uniform(-3.0, -0.5)
            p_max = c.resonant_buildup * p_in
            g = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 5.0) / p_max
            turn = rng.uniform(0.1, 0.3) * p_max
            phi = {"linear": lambda p: g * p,
                   "tanh": lambda p: g * turn * np.tanh(p / turn),
                   "sine": lambda p: g * turn * np.sin(p / turn)}[shape]
            dets = np.linspace(-4.0, 4.0, int(rng.integers(200, 700)))
            most.append(assert_follows_reference(c, p_in, dets[::int(rng.choice([-1, 1]))], phi))
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
        lists = [[SteadyStateBranch(p, i % 2 == 0) for i, p in enumerate(r)] for r in roots]
        arrays = BranchArrays(np.array(sum(roots, [])),
                              np.array([b.stable for branches in lists for b in branches]),
                              np.array([len(r) for r in roots]))
        monkeypatch.setattr(cavity_module, "steady_state_branches", lambda *args: arrays)
        dets = np.array([0.0, 0.1, 0.2, 0.3])
        found = scan_profile(cavity(), 0.07, dets, None, direction)
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

    def test_skewed_curve(self):
        # Lorentzian halves of half widths 0.3 and 0.8 on a grid that puts
        # neither crossing on a point; the value is pinned to the walking
        # search that came before the index lookups.
        x = np.linspace(-1.0, 2.0, 37)
        y = 1.0 / (1.0 + (x / np.where(x < 0, 0.3, 0.8)) ** 2)
        assert _half_max_asymmetry(x, y) == 0.451532836393328


class TestOperatingPoint:
    def test_zero_kerr_no_pump(self):
        op = make_operating_point(cavity(), 0.0088, None)
        assert op.epsilon == 0.0
        assert op.delta_eff == 0.0
        assert op.headroom == math.inf

    def test_epsilon_linear_in_circulating_power(self):
        phi = lambda p: 1e-5 * p
        ops = [make_operating_point(cavity(), p_in, phi) for p_in in (0.001, 0.002)]
        ratio = ops[1].epsilon / ops[0].epsilon
        assert ratio == pytest.approx(ops[1].p_circ / ops[0].p_circ, rel=1e-6)

    def test_rates_and_shift(self):
        c = cavity()
        g = 1e-5
        op = make_operating_point(c, 0.001, lambda p: g * p, 0.001)
        assert op.gamma_coupler == pytest.approx(c.gamma_coupler, rel=1e-12)
        assert op.gamma_loss == pytest.approx(c.gamma_loss, rel=1e-12)
        # A linear phase has the slope g everywhere; only rounding remains.
        assert op.epsilon == pytest.approx(g * op.p_circ * c.fsr, rel=1e-10)
        assert op.delta_eff == pytest.approx((0.001 + 2 * g * op.p_circ) * c.fsr, rel=1e-10)
        # No circulating power, no pump.
        assert make_operating_point(c, 0.0, lambda p: g * p, 0.001).epsilon == 0.0

    def test_unstable_branch_is_above_threshold(self):
        # The middle branch of the S-curve is exactly the above-threshold
        # solution of the linearized dynamics.
        phi = lambda p: G_KERR * p
        c = cavity()
        with pytest.raises(ThresholdError):
            make_operating_point(c, 0.07, phi, 0.03, branch=1)
        op = make_operating_point(c, 0.07, phi, 0.03, branch=1, check_threshold=False)
        assert op.headroom < 1.0
        for stable_branch in (0, 2):
            op = make_operating_point(c, 0.07, phi, 0.03, branch=stable_branch)
            assert op.headroom > 1.0

    def test_bistable_requires_branch_index(self):
        phi = lambda p: G_KERR * p
        c = cavity()
        with pytest.raises(DomainError):
            make_operating_point(c, 0.07, phi, 0.03, check_threshold=False)
        op = make_operating_point(c, 0.07, phi, 0.03, branch=0, check_threshold=False)
        assert op.p_circ > 0

    def test_fold_point_sits_at_threshold(self):
        # The quasi-static fold and the linearized instability must agree.
        phi = lambda p: G_KERR * p
        p_in = 0.07

        def n_roots(det):
            return len(steady_state_branches(cavity(), p_in, phi, det))

        lo = next(d for d in np.linspace(0.0, 0.15, 400) if n_roots(d) == 3)
        hi = 0.15
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if n_roots(mid) == 3:
                lo = mid
            else:
                hi = mid
        c = cavity()
        branches = steady_state_branches(c, p_in, phi, lo)
        p_star = 0.5 * (branches[1].p_circ + branches[2].p_circ)
        epsilon = G_KERR * p_star * c.fsr
        delta_eff = (lo + 2 * G_KERR * p_star) * c.fsr
        headroom = math.hypot(c.gamma_total, delta_eff) / abs(epsilon)
        assert headroom == pytest.approx(1.0, abs=0.05)


def op_point(epsilon, delta_eff=0.0, gamma=1.0, loss_fraction=0.0):
    return OperatingPoint(
        p_circ=1.0,
        nl_phase_rt=0.0,
        epsilon=epsilon,
        delta_eff=delta_eff,
        gamma_total=gamma,
        gamma_coupler=gamma * (1 - loss_fraction),
        gamma_loss=gamma * loss_fraction,
    )


class TestSpectrum:
    def test_vacuum_out_without_pump(self):
        for omega in (0.0, 0.3, 10.0):
            pt = squeezing_spectrum(op_point(0.0, loss_fraction=0.3), omega)
            assert pt.v_min == 1.0 and pt.v_max == 1.0

    def test_closed_form_on_resonance(self):
        # v_-/+ = 1 -/+ 4 gc eps / ((gt +/- eps)^2 + w^2), valid with loss.
        for eps, lf, omega in [
            (0.5, 0.0, 0.0),
            (0.5, 0.0, 0.7),
            (0.3, 0.16, 0.0),
            (0.8, 0.16, 1.3),
        ]:
            pt = squeezing_spectrum(op_point(eps, 0.0, 1.0, lf), omega)
            gc = 1.0 - lf
            v_minus = 1 - 4 * gc * eps / ((1 + eps) ** 2 + omega**2)
            v_plus = 1 + 4 * gc * eps / ((1 - eps) ** 2 + omega**2)
            assert pt.v_min == pytest.approx(v_minus, rel=1e-12)
            assert pt.v_max == pytest.approx(v_plus, rel=1e-12)

    def test_textbook_ninth(self):
        pt = squeezing_spectrum(op_point(0.5), 0.0)
        assert abs(pt.v_min - 1.0 / 9.0) < 1e-9
        assert 10 * math.log10(pt.v_min) == pytest.approx(-9.54, abs=0.01)

    def test_lossless_purity(self):
        omegas = np.array([0.0, 0.5, 2.0])
        for eps in (0.1, 0.5, 0.9):
            for delta in (0.0, 0.2):
                points = [squeezing_spectrum(op_point(eps, delta), omega) for omega in omegas]
                for pt in points:
                    assert abs(pt.v_min * pt.v_max - 1.0) < 1e-9
                # One stacked call gives the per-point results bit for bit.
                stacked = squeezing_spectrum(op_point(eps, delta), omegas)
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
        with pytest.raises(ThresholdError):
            squeezing_spectrum(op_point(1.5), 0.0)
        # detuning raises the threshold, the same pump becomes legal
        pt = squeezing_spectrum(op_point(1.5, delta_eff=2.0), 0.0)
        assert pt.v_min < 1.0

    def test_negative_epsilon_rotates_axes(self):
        plus = squeezing_spectrum(op_point(0.5), 0.0)
        minus = squeezing_spectrum(op_point(-0.5), 0.0)
        assert minus.v_min == pytest.approx(plus.v_min, rel=1e-12)
        assert abs(abs(minus.theta_min - plus.theta_min) - math.pi / 2) < 1e-9


class TestCombMap:
    def test_first_line(self):
        c = cavity()
        comb = sideband_comb_map(c, c.fsr)
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
