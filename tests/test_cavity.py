import math

import numpy as np
import pytest

from kerrsqueezer import (
    CavityParams,
    DomainError,
    NumericalError,
    OperatingPoint,
    SpectrumPoint,
    ThresholdError,
    make_operating_point,
    scan_profile,
    sideband_comb_map,
    squeezing_spectrum,
    steady_state_branches,
)
from kerrsqueezer.cavity import _SCAN_BLOCK, _half_max_asymmetry

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
        dets = np.linspace(-span, span, 5 * _SCAN_BLOCK + 7)
        stacked = steady_state_branches(c, p_in, phi, dets)
        assert len(stacked) == len(dets)
        for det, branches in zip(dets, stacked, strict=True):
            single = steady_state_branches(c, p_in, phi, float(det))
            assert [(b.p_circ.hex(), b.stable) for b in branches] == [
                (b.p_circ.hex(), b.stable) for b in single]
            assert all(type(b.p_circ) is float and type(b.stable) is bool for b in branches)
        # Both powers are bistable against the Kerr lean.
        assert any(len(branches) >= 3 for branches in stacked) == (phi is not None)

    def test_zero_input(self):
        assert steady_state_branches(cavity(), 0.0, None, np.linspace(-0.1, 0.1, 40)) == [
            [(0.0, True)]] * 40

    def test_empty_sweep(self):
        assert steady_state_branches(cavity(), 0.07, KERR_PHASES[0], np.array([])) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p_in", [0.0, 0.0088])
    def test_non_finite_detuning_rejected(self, bad, p_in):
        dets = np.linspace(-0.1, 0.1, 3 * _SCAN_BLOCK)
        dets[2 * _SCAN_BLOCK + 5] = bad
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
        dets = np.linspace(-0.05, 0.05, 4 * _SCAN_BLOCK + 1)
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
