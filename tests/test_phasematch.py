import math

import numpy as np
import pytest

from kerrsqueezer import (
    DomainError,
    calibrate_from_extrema,
    delta_k,
    find_conversion_extrema,
    single_pass_conversion,
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


def drive(p):
    """Single-pass drive kappa^2 p L^2 at the tests' kappa and length."""
    return KAPPA**2 * p * LENGTH**2


def sinc2_law(model, temperature, p):
    """The low-drive sinc^2 law, drive * sinc^2(delta_k L / 2): the oracle of the
    exact conversion's low-drive limit, and the curve the extrema describe."""
    return drive(p) * np.sinc(delta_k(model, temperature) * LENGTH / 2.0 / np.pi) ** 2


def conversion(model, temperature, p):
    """The exact single-pass conversion at ``temperature``."""
    return single_pass_conversion(p, delta_k(model, temperature), KAPPA, LENGTH)


class TestEfficiency:
    """The exact single-pass conversion over the temperature curve."""

    def test_peak_value(self, model):
        # Phase matched, the harmonic grows as tanh^2(kappa sqrt(p) L).
        p = 2.48
        assert conversion(model, T_MAX, p) == pytest.approx(
            math.tanh(KAPPA * math.sqrt(p) * LENGTH) ** 2, rel=1e-15
        )

    @pytest.mark.parametrize("t_zero", [61.2, 81.9])
    def test_zeros(self, model, t_zero):
        # The sinc^2 zeros are not the exact model's, but the conversion there
        # is third order in the drive: w / drive^3 is 0.0101 at 61.2 C and
        # 6.4e-4 at 81.9 C, where the peak is first order.
        p = 2.48
        assert 0.0 < conversion(model, t_zero, p) < 0.02 * drive(p) ** 3

    def test_nonnegative_and_zero_only_at_zeros(self, model):
        temps = np.linspace(20.0, 88.0, 500)
        eff = conversion(model, temps, 2.48)
        assert np.all(eff >= 0.0)
        interior = eff[(temps > 42.0) & (temps < 60.0)]
        assert np.all(interior > 0.0)
        assert conversion(model, temps, 0.0).tolist() == [0.0] * 500  # no drive

    def test_curve_shape(self, model):
        # Central lobe plus side lobes over the measured span.
        temps = np.linspace(20.0, 88.0, 1000)
        eff = conversion(model, temps, 2.48)
        i_peak = int(np.argmax(eff))
        assert temps[i_peak] == pytest.approx(T_MAX, abs=0.1)
        side = eff[(temps > 62.0) & (temps < 81.0)]
        assert side.max() > 0.01 * eff.max()  # side lobe clearly visible

    def test_symmetry_about_peak(self, model):
        # w depends on the mismatch through s^2 alone: +-delta_k give the same bits.
        dk = delta_k(model, T_MAX + np.linspace(0.1, 25.0, 40))
        for p in (1.0, 2.48, 400.0):
            pos = single_pass_conversion(p, dk, KAPPA, LENGTH)
            assert single_pass_conversion(p, -dk, KAPPA, LENGTH).tolist() == pos.tolist()

    def test_linearity_in_power(self, model):
        # Linear to first order: the departure is below (2/3) drive, relative.
        one = conversion(model, 55.0, 1.0)
        two = conversion(model, 55.0, 2.0)
        assert two == pytest.approx(2 * one, rel=2.0 / 3.0 * drive(2.0))

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 2.48, 10.0])
    def test_sinc2_law_is_the_low_drive_limit(self, model, p):
        # |w - sinc^2 law| <= (2/3) drive^2 over the whole curve: the constant
        # is the zeta^4 term of tanh^2(zeta) = zeta^2 - (2/3) zeta^4 + ..., and
        # the gap is largest at phase matching (measured 0.6667 drive^2 at
        # drives 1e-9 to 1e-4, 0.664 at 0.0068, 0.655 at 0.031); the drives here
        # run from 1.7e-8 to 0.17, past the 0.139 of the benchmark's fig3 configs.
        temps = np.linspace(0.0, 120.0, 2401)
        gap = np.abs(conversion(model, temps, p) - sinc2_law(model, temps, p))
        assert gap.max() <= 0.67 * drive(p) ** 2
        assert gap.max() >= 0.6 * drive(p) ** 2

    def test_negative_power_rejected(self, model):
        with pytest.raises(DomainError):
            conversion(model, 50.0, -1.0)


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
        # And it is a genuine local maximum of the sinc^2 curve.
        eps = 0.05
        assert sinc2_law(model, t_side, 1.0) > sinc2_law(model, t_side + eps, 1.0)
        assert sinc2_law(model, t_side, 1.0) > sinc2_law(model, t_side - eps, 1.0)

    def test_low_temperature_side_present(self, model):
        extrema = find_conversion_extrema(model, (0.0, 41.0))
        minima = [t for t, k in extrema if k == "min"]
        assert minima and minima[-1] == pytest.approx(T_MAX - 20.7, abs=1e-9)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            PhaseMatchModel(40.0, 0.0, 0.0093)

    def test_huge_range_rejected(self, model):
        # 4.8e298 orders: the list would never fit in memory.
        with pytest.raises(DomainError) as err:
            find_conversion_extrema(model, (20.0, 1e300))
        assert str(err.value) == ("temperature range (20.0, 1e+300) reaches 4.83e+298 conversion "
                                  "orders from t_pm; at most 100000 are listed")

    def test_order_limit_counts_from_t_pm(self, model, monkeypatch):
        # 88 C is 2.29 orders above t_pm, 0 C 1.96 below, 101 C 2.92 and 111 C
        # 3.41 above.
        monkeypatch.setattr(phasematch, "MAX_EXTREMA_ORDERS", 3)
        assert len(find_conversion_extrema(model, (0.0, 88.0))) == 6
        assert find_conversion_extrema(model, (100.0, 101.0)) == []
        with pytest.raises(DomainError, match="3.41 conversion orders"):
            find_conversion_extrema(model, (110.0, 111.0))


class TestTanRootCache:
    """The roots of tan x = x of the last bracket count solved are kept for the next call."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def record(f, x0, *args, **options):
            calls.append(len(x0))
            return roots.newton(f, x0, *args, **options)

        monkeypatch.setattr(phasematch, "newton", record)
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
        assert phasematch._first_tan_roots.cache_info().currsize == 1  # only the last count kept
        assert [x.hex() for x in many[:12]] == [x.hex() for x in few]
