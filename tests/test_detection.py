import math

import numpy as np
import pytest

from kerrsqueezer import (
    DomainError,
    EfficiencyFactor,
    GaussianQuadratureState,
    LossBudget,
    TomographySettings,
    apply_loss,
    dephase,
    fit_quadrature_ellipse,
    omc_sideband_transfer,
    pure_squeezed,
    simulate_tomography_trace,
    total_efficiency,
    variance_to_db,
)
from kerrsqueezer.detection import scan_phase

FSR = 357.7e6


def measured_budget(**overrides):
    kwargs = dict(
        escape=EfficiencyFactor(0.84, 0.02),
        omc_transmission=EfficiencyFactor(0.89, 0.01),
        shg_residual=EfficiencyFactor(0.98, 0.01),
        bhd_efficiency=EfficiencyFactor(0.90, 0.04),
        visibility=0.97,
        visibility_in_bhd=True,
    )
    kwargs.update(overrides)
    return LossBudget(**kwargs)


def unit_budget():
    one = EfficiencyFactor(1.0, 0.0)
    return LossBudget(one, one, one, one)


class TestTotalEfficiency:
    def test_reported_product(self):
        total = total_efficiency(measured_budget())
        assert total.value == pytest.approx(0.84 * 0.89 * 0.98 * 0.90, rel=1e-12)
        assert total.value == pytest.approx(0.659, abs=1e-3)
        # First-order relative errors in quadrature.
        rel = math.sqrt(
            (0.02 / 0.84) ** 2 + (0.01 / 0.89) ** 2 + (0.01 / 0.98) ** 2 + (0.04 / 0.90) ** 2
        )
        assert total.sigma == pytest.approx(total.value * rel, rel=1e-12)
        assert abs(total.sigma - 0.03) < 0.01
        assert abs(total.value - 0.66) < 0.05

    def test_unit_chain(self):
        assert total_efficiency(unit_budget()).value == 1.0

    def test_visibility_standalone(self):
        base = total_efficiency(measured_budget()).value
        squared = total_efficiency(measured_budget(visibility_in_bhd=False)).value
        assert squared == pytest.approx(base * 0.97**2, rel=1e-12)
        assert 0.97**2 == pytest.approx(0.9409, abs=1e-6)

    def test_visibility_factor(self):
        assert measured_budget().visibility_factor == 1.0
        assert measured_budget(visibility_in_bhd=False).visibility_factor == 0.97**2

    def test_monotone_in_each_factor(self):
        base = total_efficiency(measured_budget()).value
        lower = total_efficiency(
            measured_budget(omc_transmission=EfficiencyFactor(0.80, 0.01))
        ).value
        assert lower < base

    def test_factor_validation(self):
        with pytest.raises(DomainError):
            EfficiencyFactor(0.0)
        with pytest.raises(DomainError):
            EfficiencyFactor(1.2)
        with pytest.raises(DomainError):
            measured_budget(visibility=0.0)


class TestOmcTransfer:
    def test_carrier_removed(self):
        assert omc_sideband_transfer(FSR, 200.0, 0.0) < 1e-20

    @pytest.mark.parametrize("mult", [1.0, 3.0])
    def test_odd_multiples_pass(self, mult):
        assert omc_sideband_transfer(FSR, 200.0, mult * FSR) > 0.999

    def test_even_multiples_separated(self):
        assert omc_sideband_transfer(FSR, 200.0, 2 * FSR) < 1e-20

    def test_periodicity(self):
        for f in (0.3 * FSR, 0.9 * FSR, 1.4 * FSR):
            a = omc_sideband_transfer(FSR, 200.0, f)
            b = omc_sideband_transfer(FSR, 200.0, f + 2 * FSR)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_symmetry_about_resonance(self):
        for off in (0.05 * FSR, 0.2 * FSR):
            left = omc_sideband_transfer(FSR, 200.0, 2 * FSR - off)
            right = omc_sideband_transfer(FSR, 200.0, 2 * FSR + off)
            assert left == pytest.approx(right, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            omc_sideband_transfer(FSR, 200.0, -1.0)
        with pytest.raises(DomainError):
            omc_sideband_transfer(-FSR, 200.0, 1.0)


class TestTomographySettings:
    def test_bandwidth_ordering(self):
        with pytest.raises(DomainError):
            TomographySettings(rbw=100.0, vbw=200.0)

    @pytest.mark.parametrize("field", ["duration", "scan_period", "dark_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            TomographySettings(**{field: value})

    def test_n_effective(self):
        assert TomographySettings().n_effective == pytest.approx(2500.0)

    def test_scan_shapes(self):
        t = np.linspace(0.0, 4.0, 1000)
        for shape in ("triangle", "sine", "sawtooth"):
            theta = scan_phase(TomographySettings(scan_shape=shape), t)
            assert theta.min() >= 0.0 and theta.max() <= math.pi + 1e-12
            assert theta.max() - theta.min() > 0.9 * math.pi


class TestTrace:
    def test_vacuum_reference_level(self):
        # Flat at 10*log10(1 + 10^(-0.82)) with ~0.086 dB point scatter.
        settings = TomographySettings(rng_seed=11, duration=10.0)
        trace = simulate_tomography_trace(GaussianQuadratureState(1.0, 1.0), settings)
        expected = 10 * math.log10(1 + 10 ** (-0.82))
        assert expected == pytest.approx(0.612, abs=1e-3)
        assert trace.measured_db.mean() == pytest.approx(expected, abs=0.02)
        scatter = trace.measured_db.std()
        jitter_db = 10 * math.log10(1 + 1 / math.sqrt(2500))
        assert scatter == pytest.approx(jitter_db, rel=0.3)

    def test_squeezed_trace_extrema(self):
        # Post-chain state from the loss-only reading; displayed levels
        # include the dark contribution: min at 10*log10(0.5754 + 0.1514).
        state = GaussianQuadratureState(0.5754399373371567, 5.623413251903491)
        settings = TomographySettings(rng_seed=3)
        trace = simulate_tomography_trace(state, settings)
        floor_db = 10 * math.log10(state.v_min + settings.dark_variance)
        ceil_db = 10 * math.log10(state.v_max + settings.dark_variance)
        assert floor_db == pytest.approx(-1.386, abs=2e-3)
        assert ceil_db == pytest.approx(7.615, abs=2e-3)
        assert trace.measured_db.min() == pytest.approx(floor_db, abs=0.3)
        assert trace.measured_db.max() == pytest.approx(ceil_db, abs=0.3)

    def test_seed_determinism(self):
        state = GaussianQuadratureState(0.4, 3.0)
        settings = TomographySettings(rng_seed=42)
        a = simulate_tomography_trace(state, settings)
        b = simulate_tomography_trace(state, settings)
        np.testing.assert_array_equal(a.measured_db, b.measured_db)
        c = simulate_tomography_trace(state, TomographySettings(rng_seed=43))
        assert not np.array_equal(a.measured_db, c.measured_db)

    def test_fit_recovers_state(self):
        state = GaussianQuadratureState(0.42, 5.47, theta0=0.3)
        settings = TomographySettings(rng_seed=19, duration=8.0)
        trace = simulate_tomography_trace(state, settings)
        fit = fit_quadrature_ellipse(trace.theta, trace.measured_db, settings.dark_variance)
        assert fit.v_min == pytest.approx(state.v_min, abs=5e-3)
        assert fit.v_max == pytest.approx(state.v_max, abs=3e-2)
        assert fit.theta0 == pytest.approx(0.3, abs=0.02)

    @pytest.mark.parametrize("theta", [[0.3], [0.0, 1.0], [0.3] * 8, [0.0, math.pi] * 4,
                                       [0.0, 0.5 * math.pi] * 4])
    def test_fit_needs_three_distinct_phases(self, theta):
        # Fewer than 3 distinct phases modulo pi cannot determine the ellipse.
        with pytest.raises(DomainError, match="rank"):
            fit_quadrature_ellipse(np.array(theta), np.zeros(len(theta)))

    def test_extrema_converge_as_vbw_drops(self):
        # Lower vbw means more averaging per point; at a fixed point count
        # the worst trace deviation from the analytic curve shrinks with it.
        state = GaussianQuadratureState(0.42, 5.47)
        deviations = []
        for vbw, duration in ((200.0, 4.0), (2.0, 400.0)):
            settings = TomographySettings(vbw=vbw, duration=duration, rng_seed=23)
            trace = simulate_tomography_trace(state, settings)
            from kerrsqueezer import quadrature_variance

            analytic_db = 10 * np.log10(
                quadrature_variance(state, trace.theta) + settings.dark_variance
            )
            deviations.append(float(np.max(np.abs(trace.measured_db - analytic_db))))
        assert deviations[1] < 0.25 * deviations[0]


class TestEndToEnd:
    # The detected state is the source through the budget's loss, then jitter.
    def test_lossless_pure_passthrough(self):
        v = 1.0 / 9.0
        src = GaussianQuadratureState(v, 1.0 / v)
        out = dephase(apply_loss(src, total_efficiency(unit_budget()).value), 0.0)
        assert -variance_to_db(out.v_min) == pytest.approx(9.54, abs=5e-3)
        assert variance_to_db(out.v_max) == pytest.approx(-variance_to_db(out.v_min), abs=1e-9)

    def test_loss_only_reproduction(self):
        # eta = 0.467, r = 1.194 regenerates the observed (2.4, 7.5) dB.
        budget = LossBudget(
            EfficiencyFactor(0.46748874787388167),
            EfficiencyFactor(1.0),
            EfficiencyFactor(1.0),
            EfficiencyFactor(1.0),
        )
        src = pure_squeezed(1.1939175121484784)
        out = dephase(apply_loss(src, total_efficiency(budget).value), 0.0)
        assert -variance_to_db(out.v_min) == pytest.approx(2.4, abs=0.01)
        assert variance_to_db(out.v_max) == pytest.approx(7.5, abs=0.01)
