"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kerrsqueezer import (
    CavityParams,
    EfficiencyFactor,
    LossBudget,
    OperatingPoint,
    SqueezeObservation,
    calibrate_from_extrema,
    extract_cascade_result,
    find_conversion_extrema,
    infer_loss_only,
    scan_profile,
    sideband_comb_map,
    squeezing_spectrum,
    total_efficiency,
)
from kerrsqueezer.scenarios import default_config_path, load_config, run_scenario
from test_cascade import effective_kerr_phase, reference_propagate


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_criterion_1_loss_only_inference():
    with criterion(1, "loss-only inference of (2.4, 7.5) dB gives eta in [0.46, 0.48], < 1 ms"):
        obs = SqueezeObservation(2.4, 7.5)
        fit = infer_loss_only(obs)
        assert 0.46 <= fit.eta <= 0.48
        timings = []
        for _ in range(200):
            start = time.perf_counter()
            infer_loss_only(obs)
            timings.append(time.perf_counter() - start)
        assert min(timings) < 1e-3


def test_criterion_2_efficiency_chain():
    with criterion(2, "0.84*0.89*0.98*0.90 = 0.659 +- 0.001 with ~+-0.03 propagated"):
        budget = LossBudget(
            escape=EfficiencyFactor(0.84, 0.02),
            omc_transmission=EfficiencyFactor(0.89, 0.01),
            shg_residual=EfficiencyFactor(0.98, 0.01),
            bhd_efficiency=EfficiencyFactor(0.90, 0.04),
        )
        total = total_efficiency(budget)
        assert abs(total.value - 0.659) <= 0.001
        assert abs(total.sigma - 0.03) <= 0.01
        assert abs(total.value - 0.66) <= 0.05  # inside the quoted (66 +- 5) %


def test_criterion_3_phase_matching_prediction():
    with criterion(3, "calibration on (40.5, 61.2) predicts the second zero at 81.9 +- 0.3"):
        model = calibrate_from_extrema(40.5, 61.2, 0.0093)
        minima = [t for t, k in find_conversion_extrema(model, (20.0, 88.0)) if k == "min"]
        second = minima[1]
        assert second == pytest.approx(81.9, abs=1e-9)
        assert abs(second - 81.8) <= 0.3  # against the measured value


def test_criterion_4_fsr_and_comb():
    with criterion(4, "0.838 m round trip -> 357.7 MHz (within 1% of 358); 1074 MHz -> n=3"):
        params = CavityParams(0.838, 0.01, 0.0019)
        assert params.fsr == pytest.approx(357.7e6, abs=0.1e6)
        assert abs(params.fsr - 358e6) / 358e6 < 0.01
        comb = sideband_comb_map(358e6, 1074e6)
        assert comb.index == 3
        assert comb.omega == 0.0


def test_criterion_5_cascade_oracle():
    with criterion(5, "analytic Kerr phase vs exact cascade within 1%; RK4 to 5e-8; sech to 1e-6"):
        length, kappa, p = 0.0093, 14.0, 0.2
        for mult in (2.0, -2.0, 2.4, 3.0, 4.0, 6.0):
            dk = mult * math.pi / length
            exact = extract_cascade_result(p, dk, kappa, length)
            assert exact.residual_conversion < 1e-3
            analytic = effective_kerr_phase(p, dk, kappa, length)
            assert abs(exact.nl_phase - analytic) <= 0.01 * abs(analytic)
        # The closed form against a 16000-step RK4 run, strongly driven case.
        dk = 2 * math.pi / length
        a1, a2 = reference_propagate(1.0, 0.0, dk, 150.0, length, 16000)
        out = extract_cascade_result(1.0, dk, 150.0, length)
        assert abs(out.nl_phase - np.angle(a1)) <= 5e-8 * abs(np.angle(a1))
        assert abs(out.residual_conversion - abs(a2) ** 2) <= 1e-9
        # Phase-matched depletion against the closed form.
        out = extract_cascade_result(1.0, 0.0, 150.0, length)
        xi = 150.0 * length
        assert math.sqrt(1.0 - out.residual_conversion) == pytest.approx(
            1.0 / math.cosh(xi), rel=1e-6)


def test_criterion_6_kerr_cavity_limits():
    with criterion(6, "linear scan = Airy to 1e-6 with zero asymmetry; skew grows with power"):
        params = CavityParams(0.838, 0.01, 0.0019)
        fwhm = params.linewidth_phase_fwhm
        detunings = np.linspace(-6 * fwhm, 6 * fwhm, 1201)
        profile = scan_profile(params, 0.0088, detunings, 0.0)
        r = params.r_eff
        airy = 0.01 * 0.0088 / (1 + r**2 - 2 * r * np.cos(detunings))
        np.testing.assert_allclose(profile.p_circ, airy, rtol=1e-6)
        assert abs(profile.asymmetry) < 1e-9

        g = -(14.0**2) * 0.0093**2 / (2 * math.pi)
        asymmetries = []
        for p_in in (0.0022, 0.0044, 0.0088, 0.0176, 0.0352, 0.0704):
            span = 6 * fwhm + 1.6 * abs(g) * params.resonant_buildup * p_in
            prof = scan_profile(params, p_in, np.linspace(-span, span, 2001), g)
            asymmetries.append(prof.asymmetry)
        assert all(b > a for a, b in zip(asymmetries, asymmetries[1:]))


def test_criterion_7_spectrum_properties():
    with criterion(7, "spectrum: vacuum at eps=0, purity to 1e-9, OPA 1/9 closed form"):
        def op(eps, loss_fraction=0.0):
            return OperatingPoint(
                p_circ=1.0, epsilon=eps,
                gamma_coupler=1.0 - loss_fraction, gamma_loss=loss_fraction,
            )

        for omega in (0.0, 0.5, 3.0):
            point = squeezing_spectrum(op(0.0), omega)
            assert point.v_min == 1.0 and point.v_max == 1.0
        for eps in (0.2, 0.5, 0.9):
            for omega in (0.0, 0.7, 2.0):
                point = squeezing_spectrum(op(eps), omega)
                assert abs(point.v_min * point.v_max - 1.0) < 1e-9
        lossy = squeezing_spectrum(op(0.5, loss_fraction=0.16), 0.0)
        assert lossy.v_min * lossy.v_max >= 1.0
        ninth = squeezing_spectrum(op(0.5), 0.0)
        assert abs(ninth.v_min - 1.0 / 9.0) < 1e-9


def test_criterion_8_tomography_reproduction(tmp_path):
    with criterion(8, "tomography summary returns (2.4, 7.5) +- 0.1 dB in both calibrations"):
        config = load_config(default_config_path("fig4"))
        config["fig4"] = dict(config["fig4"], mode="phase-noise", eta_total=0.66)
        summary = run_scenario(config, tmp_path / "phase_noise")
        assert summary["summary_db"]["squeeze"] == pytest.approx(2.4, abs=0.1)
        assert summary["summary_db"]["antisqueeze"] == pytest.approx(7.5, abs=0.1)
        assert summary["calibration"]["sigma_rad"] > 0.0

        config["fig4"] = dict(config["fig4"], mode="loss-only", eta_total=None)
        summary = run_scenario(config, tmp_path / "loss_only")
        assert summary["calibration"]["eta_total"] == pytest.approx(0.467, abs=0.001)
        assert summary["calibration"]["sigma_rad"] == 0.0
        assert summary["summary_db"]["squeeze"] == pytest.approx(2.4, abs=0.1)
        assert summary["summary_db"]["antisqueeze"] == pytest.approx(7.5, abs=0.1)


def test_criterion_9_squeeze_sweep_peak(tmp_path):
    with criterion(9, "squeeze vs temperature peaks at the first conversion minimum"):
        config = load_config(default_config_path("fig5"))
        summary = run_scenario(config, tmp_path)
        assert summary["peak_at_first_minimum"]
        assert summary["best"]["temperature_c"] == pytest.approx(61.2)
        assert summary["first_minimum_c"] == pytest.approx(61.2, abs=1e-9)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical (config, seed) give byte-identical outputs"):
        for scenario in ("fig4", "fig5"):
            config = load_config(default_config_path(scenario))
            first = tmp_path / f"{scenario}_a"
            second = tmp_path / f"{scenario}_b"
            run_scenario(config, first, seed=11)
            run_scenario(config, second, seed=11)
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
