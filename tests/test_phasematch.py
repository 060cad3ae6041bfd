import math

import numpy as np
import pytest

from kerrsqueezer import (
    DomainError,
    calibrate_from_extrema,
    conversion_sweep,
    delta_k,
    find_conversion_extrema,
    shg_efficiency,
)
from kerrsqueezer import phasematch, roots
from kerrsqueezer.phasematch import PhaseMatchModel

T_MAX = 40.5
T_MIN1 = 61.2
LENGTH = 0.0093
KAPPA = 14.0


@pytest.fixture()
def model():
    return calibrate_from_extrema(T_MAX, T_MIN1, LENGTH)


class TestDeltaK:
    def test_zero_at_peak(self, model):
        assert delta_k(model, T_MAX) == 0.0

    def test_first_zero_phase(self, model):
        assert delta_k(model, T_MIN1) * LENGTH == pytest.approx(2 * math.pi, rel=1e-12)

    def test_antisymmetry(self, model):
        assert delta_k(model, T_MAX - 20.7) * LENGTH == pytest.approx(-2 * math.pi, rel=1e-12)

    def test_vectorized(self, model):
        temps = np.array([30.0, 40.5, 50.0])
        np.testing.assert_allclose(
            delta_k(model, temps), model.dk_dt * (temps - T_MAX), rtol=1e-15
        )


class TestCalibration:
    def test_slope_value(self, model):
        # 2*pi / (0.0093 m * 20.7 K)
        assert model.dk_dt == pytest.approx(2 * math.pi / (LENGTH * 20.7), rel=1e-12)
        assert model.dk_dt == pytest.approx(32.64, abs=0.05)

    def test_predicts_second_minimum(self, model):
        extrema = find_conversion_extrema(model, (20.0, 88.0))
        minima = [t for t, kind in extrema if kind == "min"]
        assert minima[0] == pytest.approx(61.2, abs=1e-9)
        assert minima[1] == pytest.approx(81.9, abs=1e-9)
        assert abs(minima[1] - 81.8) <= 0.3  # measured second minimum

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            calibrate_from_extrema(40.5, 40.5, LENGTH)
        with pytest.raises(DomainError):
            calibrate_from_extrema(40.5, 61.2, 0.0)

    def test_fixed_point(self):
        m = calibrate_from_extrema(10.0, 25.0, 0.01)
        assert delta_k(m, 10.0) == 0.0
        extrema = find_conversion_extrema(m, (0.0, 60.0))
        assert (10.0, "max") in [(round(t, 9), k) for t, k in extrema]
        minima = [round(t, 9) for t, k in extrema if k == "min"]
        assert 25.0 in minima and 40.0 in minima


class TestEfficiency:
    def test_peak_value(self, model):
        p = 2.48
        assert shg_efficiency(model, T_MAX, p, KAPPA) == pytest.approx(
            KAPPA**2 * p * LENGTH**2, rel=1e-12
        )

    @pytest.mark.parametrize("t_zero", [61.2, 81.9])
    def test_zeros(self, model, t_zero):
        eff = shg_efficiency(model, t_zero, 2.48, KAPPA)
        assert eff < 1e-25

    def test_nonnegative_and_zero_only_at_zeros(self, model):
        temps = np.linspace(20.0, 88.0, 500)
        eff = shg_efficiency(model, temps, 2.48, KAPPA)
        assert np.all(eff >= 0.0)
        interior = eff[(temps > 42.0) & (temps < 60.0)]
        assert np.all(interior > 0.0)

    def test_curve_shape(self, model):
        # Central lobe plus side lobes over the measured span.
        temps = np.linspace(20.0, 88.0, 1000)
        eff = shg_efficiency(model, temps, 2.48, KAPPA)
        i_peak = int(np.argmax(eff))
        assert temps[i_peak] == pytest.approx(T_MAX, abs=0.1)
        side = eff[(temps > 62.0) & (temps < 81.0)]
        assert side.max() > 0.01 * eff.max()  # side lobe clearly visible

    def test_symmetry_about_peak(self, model):
        off = np.linspace(0.1, 25.0, 40)
        hi = shg_efficiency(model, T_MAX + off, 1.0, KAPPA)
        lo = shg_efficiency(model, T_MAX - off, 1.0, KAPPA)
        np.testing.assert_allclose(hi, lo, rtol=1e-10)

    def test_linearity_in_power(self, model):
        one = shg_efficiency(model, 55.0, 1.0, KAPPA)
        two = shg_efficiency(model, 55.0, 2.0, KAPPA)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_negative_power_rejected(self, model):
        with pytest.raises(DomainError):
            shg_efficiency(model, 50.0, -1.0, KAPPA)

    def test_low_conversion_warning(self, model):
        with pytest.warns(UserWarning):
            shg_efficiency(model, T_MAX, 50.0, KAPPA)

    def test_sweep_helper(self, model):
        temps = np.linspace(30.0, 50.0, 5)
        dk, eff = conversion_sweep(model, temps, 1.0, KAPPA)
        np.testing.assert_allclose(dk, delta_k(model, temps))
        np.testing.assert_allclose(eff, shg_efficiency(model, temps, 1.0, KAPPA))


class TestExtrema:
    def test_reported_set(self, model):
        extrema = find_conversion_extrema(model, (20.0, 88.0))
        kinds = {round(t, 3): k for t, k in extrema}
        assert kinds[40.5] == "max"
        assert kinds[61.2] == "min"
        assert kinds[81.9] == "min"

    def test_sorted(self, model):
        temps = [t for t, _ in find_conversion_extrema(model, (20.0, 88.0))]
        assert temps == sorted(temps)

    def test_empty_range(self, model):
        assert find_conversion_extrema(model, (45.0, 50.0)) == []

    def test_side_lobe_maximum(self, model):
        # First positive root of tan x = x sits at x = 4.49340945791...
        extrema = find_conversion_extrema(model, (61.3, 81.8))
        assert len(extrema) == 1
        t_side, kind = extrema[0]
        assert kind == "max"
        expected = T_MAX + 2 * 4.493409457909064 / (model.dk_dt * LENGTH)
        assert t_side == pytest.approx(expected, abs=1e-6)
        assert t_side == pytest.approx(T_MAX + 29.6, abs=0.05)
        # And it is a genuine local maximum of the curve.
        eps = 0.05
        assert shg_efficiency(model, t_side, 1.0, KAPPA) > shg_efficiency(
            model, t_side + eps, 1.0, KAPPA
        )
        assert shg_efficiency(model, t_side, 1.0, KAPPA) > shg_efficiency(
            model, t_side - eps, 1.0, KAPPA
        )

    def test_low_temperature_side_present(self, model):
        extrema = find_conversion_extrema(model, (0.0, 41.0))
        minima = [t for t, k in extrema if k == "min"]
        assert minima and minima[-1] == pytest.approx(T_MAX - 20.7, abs=1e-9)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            PhaseMatchModel(40.0, 0.0, 0.0093)


class TestTanRootCache:
    """The roots of tan x = x are solved once per bracket count and process."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def record(*args, **options):
            calls.append(len(args[1]))
            return roots.brentq(*args, **options)

        monkeypatch.setattr(phasematch, "brentq", record)
        phasematch._first_tan_roots.cache_clear()
        return calls

    def test_second_call_makes_no_solve(self, model, solves):
        # |x| up to 39.4: the 12 brackets below 13 pi, in one solve.
        first = find_conversion_extrema(model, (0.0, 300.0))
        assert solves == [12]
        assert find_conversion_extrema(model, (0.0, 300.0)) == first
        assert solves == [12]
        phasematch._first_tan_roots.cache_clear()
        fresh = find_conversion_extrema(model, (0.0, 300.0))
        assert solves == [12, 12]
        assert [(t.hex(), k) for t, k in fresh] == [(t.hex(), k) for t, k in first]

    def test_same_count_filters_by_x_max(self, solves):
        # 12 pi <= 38 < 40 < 13 pi: one solve; the 12th root, 37.72, is in both.
        below, above = phasematch._tan_x_equals_x_roots(38.0), phasematch._tan_x_equals_x_roots(40.0)
        assert solves == [12]
        assert len(below) == 11 and len(above) == 12 and above[:11] == below
        assert all(type(x) is float for x in above)

    def test_roots_do_not_depend_on_the_count(self, solves):
        many, few = phasematch._first_tan_roots(95), phasematch._first_tan_roots(12)
        assert solves == [95, 12]
        assert [x.hex() for x in many[:12]] == [x.hex() for x in few]
