import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrsqueezer import (
    DomainError,
    GaussianQuadratureState,
    InconsistentObservationError,
    NoSolutionError,
    OperatingPoint,
    SqueezeObservation,
    apply_loss,
    calibrate_from_extrema,
    db_to_variance,
    delta_k,
    dephase,
    extract_cascade_result,
    infer_loss_only,
    infer_phase_noise,
    pure_squeezed,
    quadrature_variance,
    sideband_comb_map,
    single_pass_conversion,
    squeezing_spectrum,
    variance_to_db,
)

# Strategy for physical states: squeeze parameter, extra mixedness, angle.
states = st.builds(
    lambda r, excess, th: GaussianQuadratureState(
        math.exp(-2 * r), math.exp(2 * r) * (1 + excess), th
    ),
    st.floats(0.0, 2.5),
    st.floats(0.0, 3.0),
    st.floats(0.0, math.pi),
)


class TestDbConversion:
    def test_vacuum_reference(self):
        assert db_to_variance(0.0) == 1.0

    def test_squeeze_value(self):
        # 10^(-0.24) computed directly
        assert db_to_variance(-2.4) == pytest.approx(0.5754399373371567, rel=1e-12)
        assert db_to_variance(-2.4) == pytest.approx(0.5754, abs=1e-4)

    def test_antisqueeze_value(self):
        assert db_to_variance(7.5) == pytest.approx(5.623413251903491, rel=1e-12)
        assert db_to_variance(7.5) == pytest.approx(5.623, abs=1e-3)

    @given(st.floats(-60.0, 60.0))
    def test_roundtrip(self, level):
        assert variance_to_db(db_to_variance(level)) == pytest.approx(level, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            db_to_variance(bad)
        with pytest.raises(DomainError):
            variance_to_db(bad)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            variance_to_db(0.0)

    def test_array_bits_are_libm_log10(self):
        # Bit patterns drawn over all positive finite floats (subnormals
        # among them) and the ends: each element has the bits of the scalar
        # formula 10 * math.log10(v), on every SIMD loop numpy dispatches to.
        bits = np.random.default_rng(1021).integers(1, 0x7FF0000000000000, 100_000, np.uint64)
        v = np.concatenate([bits.view(np.float64), [5e-324, 2.2e-308, 1e-300, 0.5, 1.0, 10.0,
                                                    1e300, 1.7976931348623157e308]])
        expected = [(10.0 * math.log10(x)).hex() for x in v.tolist()]
        assert np.count_nonzero(v < 2.2250738585072014e-308) > 10
        assert [x.hex() for x in variance_to_db(v).tolist()] == expected
        assert [x.hex() for x in variance_to_db(v.reshape(-1, 8)).ravel().tolist()] == expected

    @pytest.mark.parametrize("bad", [0.0, -0.0, -5e-324, -1.0, math.nan, math.inf, -math.inf])
    def test_one_bad_element_rejected(self, bad):
        v = np.full((3, 4), 2.0)
        v[1, 2] = bad
        with pytest.raises(DomainError, match="variance must be finite and positive"):
            variance_to_db(v)


# The kernels' return rule: numpy values in the broadcast shape of the inputs,
# a numpy scalar for scalar inputs. Each kernel maps its array inputs to a tuple
# of fields; the inputs hold zero powers, zero offsets and several comb lines.
_FSR = 299_792_458.0 / 0.838
_RNG = np.random.default_rng(33)
_POWERS = _RNG.uniform(0.0, 30.0, (3, 8))
_POWERS[0, :2] = 0.0
_MODEL = calibrate_from_extrema(40.5, 61.2, 0.0093)
_STATE = GaussianQuadratureState(0.4, 3.5, 0.7)
_OP = OperatingPoint(p_circ=1.0, epsilon=-2.0e6, gamma_coupler=5.0e6, gamma_loss=1.0e6)
KERNELS = {
    "delta_k": (lambda t: (delta_k(_MODEL, t),), [_RNG.uniform(20.0, 90.0, (3, 8))]),
    "quadrature_variance": (lambda theta: (quadrature_variance(_STATE, theta),),
                            [_RNG.uniform(-4.0, 4.0, (3, 8))]),
    "variance_to_db": (lambda v: (variance_to_db(v),), [_RNG.uniform(0.1, 10.0, (3, 8))]),
    "extract_cascade_result": (
        lambda p, dk: dataclasses.astuple(extract_cascade_result(p, dk, 14.0, 0.0093)),
        [_POWERS, _RNG.uniform(-120.0, 120.0, 8) / 0.0093]),
    "single_pass_conversion": (lambda p, dk: (single_pass_conversion(p, dk, 14.0, 0.0093),),
                               [_POWERS, np.linspace(0.0, 2.0e4, 8)]),
    "squeezing_spectrum": (lambda omega: tuple(squeezing_spectrum(_OP, omega)),
                           [np.append(0.0, _RNG.uniform(0.0, 3.0e7, 23)).reshape(3, 8)]),
    "sideband_comb_map": (lambda f: tuple(sideband_comb_map(_FSR, f)),
                          [np.append(0.0, _RNG.uniform(0.0, 10.0 * _FSR, 23)).reshape(3, 8)]),
    # An operating point of arrays: epsilon of both signs and zeros, one
    # gamma_loss per column, one offset per row, all below threshold.
    "squeezing_spectrum_of_arrays": (
        lambda eps, gamma_loss, omega: tuple(
            squeezing_spectrum(OperatingPoint(1.0, eps, 5.0e6, gamma_loss), omega)),
        [np.append([0.0, -0.0], _RNG.uniform(-4.9e6, 4.9e6, 22)).reshape(3, 8),
         _RNG.uniform(0.0, 2.0e6, 8), np.array([[0.0], [1.0e6], [3.0e7]])]),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_scalar_calls_are_elements_of_the_array_call(name):
    kernel, inputs = KERNELS[name]
    shape = np.broadcast_shapes(*(np.shape(x) for x in inputs))
    batch = kernel(*inputs)
    assert all(type(field) is np.ndarray and field.shape == shape for field in batch)
    for index in np.ndindex(shape):
        alone = kernel(*(float(np.broadcast_to(x, shape)[index]) for x in inputs))
        assert len(alone) == len(batch)
        for one, field in zip(alone, batch):
            assert type(one) in (np.float64, np.int64) and one.shape == ()
            assert type(one) is type(field[index])
            assert one.tobytes().hex() == field[index].tobytes().hex()


class TestStateInvariants:
    def test_purity_bound_enforced(self):
        with pytest.raises(DomainError):
            GaussianQuadratureState(0.5, 0.9)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            GaussianQuadratureState(2.0, 1.0)

    def test_positive_enforced(self):
        with pytest.raises(DomainError):
            GaussianQuadratureState(-0.1, 2.0)

    def test_theta_normalized(self):
        s = GaussianQuadratureState(0.5, 2.0, 4.0)
        assert 0.0 <= s.theta0 < math.pi

    def test_pure_squeezed(self):
        s = pure_squeezed(1.0)
        assert s.v_min * s.v_max == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(DomainError):
            pure_squeezed(-0.5)

    def test_observation_invariant(self):
        with pytest.raises(DomainError):
            SqueezeObservation(3.0, 2.0)
        SqueezeObservation(-1.0, -0.5)  # unsqueezed pairs are unconstrained


class TestArrayStates:
    """A state of arrays: per element, the bits and the errors of a one-state call."""

    @pytest.mark.parametrize("channel", [
        lambda s: apply_loss(s, 0.83),
        lambda s: dephase(s, 0.3),
        lambda s: dephase(apply_loss(s, 0.83), 0.3),
    ], ids=["loss", "jitter", "loss-then-jitter"])
    def test_channels_give_each_elements_bits(self, channel):
        rng = np.random.default_rng(36)
        v_min = rng.uniform(0.05, 1.0, (3, 8))
        v_max = rng.uniform(1.0, 3.0, (3, 8)) / v_min  # v_min v_max >= 1
        theta = rng.uniform(-4.0, 4.0, 8)
        batch = dataclasses.astuple(channel(GaussianQuadratureState(v_min, v_max, theta)))
        for index in np.ndindex(v_min.shape):
            one = GaussianQuadratureState(float(v_min[index]), float(v_max[index]),
                                          float(theta[index[1]]))
            assert [float(x).hex() for x in dataclasses.astuple(channel(one))] == [
                float(np.broadcast_to(field, v_min.shape)[index]).hex() for field in batch]

    @pytest.mark.parametrize("field,first,later", [
        ("v_min", 0.0, -1.0), ("v_min", -5e-324, 0.0), ("v_min", math.nan, 0.1),
        ("v_max", 0.4, 0.3), ("v_max", 1.5, 1.9), ("theta0", math.inf, 0.0),
    ], ids=["zero-v_min", "negative-v_min", "nan-v_min", "v_max-below-v_min", "impure",
            "inf-theta0"])
    def test_one_bad_element_raises_the_scalar_error(self, field, first, later):
        fields = {"v_min": np.full((3, 4), 0.5), "v_max": np.full((3, 4), 3.0),
                  "theta0": np.full((3, 4), 0.2)}
        fields[field][1, 2], fields[field][2, 0] = first, later
        with pytest.raises(DomainError) as alone:
            GaussianQuadratureState(**{name: float(v[1, 2]) for name, v in fields.items()})
        with pytest.raises(DomainError) as batch:
            GaussianQuadratureState(**fields)
        assert str(batch.value) == str(alone.value)


class TestQuadratureVariance:
    def test_principal_angles(self):
        s = GaussianQuadratureState(0.4, 3.0, 0.7)
        assert quadrature_variance(s, 0.7) == pytest.approx(0.4, rel=1e-12)
        assert quadrature_variance(s, 0.7 + math.pi / 2) == pytest.approx(3.0, rel=1e-12)
        assert quadrature_variance(s, 0.7 + math.pi / 4) == pytest.approx(1.7, rel=1e-12)

    def test_period(self):
        s = GaussianQuadratureState(0.4, 3.0, 0.2)
        th = np.linspace(0, math.pi, 17)
        np.testing.assert_allclose(
            quadrature_variance(s, th), quadrature_variance(s, th + math.pi), rtol=1e-12
        )

    @given(states)
    @settings(max_examples=50)
    def test_uncertainty_product(self, s):
        v1 = quadrature_variance(s, s.theta0)
        v2 = quadrature_variance(s, s.theta0 + math.pi / 2)
        assert v1 * v2 >= 1.0 - 1e-9


class TestLossChannel:
    def test_identity(self):
        s = GaussianQuadratureState(0.3, 4.0, 1.2)
        assert apply_loss(s, 1.0) == s

    def test_full_loss_gives_vacuum(self):
        s = GaussianQuadratureState(0.3, 4.0, 1.2)
        out = apply_loss(s, 0.0)
        assert out.v_min == pytest.approx(1.0) and out.v_max == pytest.approx(1.0)

    def test_forward_model_example(self):
        # Source/efficiency pair behind the loss-only reading of (2.4, 7.5) dB.
        fit = infer_loss_only(SqueezeObservation(2.4, 7.5))
        out = apply_loss(pure_squeezed(fit.r), fit.eta)
        assert out.v_min == pytest.approx(db_to_variance(-2.4), abs=1e-10)
        assert out.v_max == pytest.approx(db_to_variance(7.5), abs=1e-10)
        # Rounded figures from the same chain.
        assert out.v_min == pytest.approx(0.5754, abs=1e-4)
        assert out.v_max == pytest.approx(5.623, abs=1e-3)
        # Rounded figures quoted for the same chain (checked arithmetically,
        # the rounding itself dips just under the purity bound).
        assert 0.4675 * 0.0918 + (1 - 0.4675) == pytest.approx(0.5754, abs=5e-4)
        assert 0.4675 * 10.893 + (1 - 0.4675) == pytest.approx(5.623, abs=5e-3)

    @given(states, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_composition(self, s, a, b):
        chained = apply_loss(apply_loss(s, a), b)
        direct = apply_loss(s, a * b)
        assert chained.v_min == pytest.approx(direct.v_min, rel=1e-12, abs=1e-12)
        assert chained.v_max == pytest.approx(direct.v_max, rel=1e-12, abs=1e-12)

    @given(states, st.floats(0.01, 0.99))
    @settings(max_examples=50)
    def test_monotone_toward_vacuum(self, s, frac):
        # Less transmission pulls both variances closer to vacuum.
        hi = apply_loss(s, 0.9)
        lo = apply_loss(s, 0.9 * frac)
        assert abs(lo.v_min - 1.0) <= abs(hi.v_min - 1.0) + 1e-12
        assert abs(lo.v_max - 1.0) <= abs(hi.v_max - 1.0) + 1e-12

    @pytest.mark.parametrize("eta", [-0.01, 1.01, math.nan])
    def test_domain(self, eta):
        with pytest.raises(DomainError):
            apply_loss(GaussianQuadratureState(1.0, 1.0), eta)


class TestPhaseJitter:
    def test_zero_sigma_exact(self):
        s = GaussianQuadratureState(0.2, 6.0, 0.9)
        assert quadrature_variance(dephase(s, 0.0), 0.9) == pytest.approx(0.2, rel=1e-12)

    def test_full_dephasing(self):
        s = GaussianQuadratureState(0.2, 6.0, 0.9)
        th = np.linspace(0, math.pi, 11)
        np.testing.assert_allclose(quadrature_variance(dephase(s, 50.0), th), 3.1, rtol=1e-10)

    def test_monte_carlo_oracle(self):
        # The effective state against a direct average over Gaussian angle jitter.
        s = GaussianQuadratureState(0.15, 8.0, 0.4)
        sigma = 0.05
        out = dephase(s, sigma)
        rng = np.random.default_rng(987)
        delta = rng.normal(0.0, sigma, size=1_000_000)
        for theta in (0.4, 0.4 + math.pi / 2, 1.1):
            samples = quadrature_variance(s, theta + delta)
            mc = samples.mean()
            sem = samples.std(ddof=1) / math.sqrt(len(samples))
            assert abs(quadrature_variance(out, theta) - mc) < 3.0 * sem

    def test_minimum_nondecreasing_in_sigma(self):
        s = GaussianQuadratureState(0.2, 6.0, 0.0)
        mins = [dephase(s, sig).v_min for sig in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(mins, mins[1:]))

    @given(states, st.floats(0.0, 2.0))
    @settings(max_examples=50)
    def test_contracts_spread(self, s, sigma):
        out = dephase(s, sigma)
        assert out.v_min >= s.v_min - 1e-12
        assert out.v_max <= s.v_max + 1e-12
        assert out.v_min * out.v_max >= 1.0 - 1e-9

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            dephase(GaussianQuadratureState(1.0, 1.0), -0.1)


class TestInferLossOnly:
    def test_reported_efficiency(self):
        fit = infer_loss_only(SqueezeObservation(2.4, 7.5))
        assert 0.46 <= fit.eta <= 0.48
        # Closed form evaluated independently.
        v_lo, v_hi = 10 ** -0.24, 10 ** 0.75
        exp_m2r = (1 - v_lo) / (v_hi - 1)
        assert fit.r == pytest.approx(-0.5 * math.log(exp_m2r), rel=1e-12)
        assert fit.eta == pytest.approx((1 - v_lo) / (1 - exp_m2r), rel=1e-12)

    def test_first_fsr_values(self):
        fit = infer_loss_only(SqueezeObservation(2.0, 9.5))
        assert fit.eta == pytest.approx(0.387, abs=5e-4)

    def test_pure_limit(self):
        fit = infer_loss_only(SqueezeObservation(3.0, 3.0))
        assert fit.eta == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, 1.0), st.floats(0.05, 3.0))
    @settings(max_examples=80)
    def test_roundtrip_identity(self, eta, r):
        out = apply_loss(pure_squeezed(r), eta)
        obs = SqueezeObservation(-variance_to_db(out.v_min), variance_to_db(out.v_max))
        fit = infer_loss_only(obs)
        assert fit.eta == pytest.approx(eta, abs=1e-9)
        assert fit.r == pytest.approx(r, abs=1e-9)

    def test_no_solution_errors(self):
        with pytest.raises(NoSolutionError):
            infer_loss_only(SqueezeObservation(-1.0, 5.0))
        with pytest.raises(NoSolutionError):
            infer_loss_only(SqueezeObservation(-5.0, -1.0))


class TestInferPhaseNoise:
    def test_sigma_zero_when_loss_only_consistent(self):
        out = apply_loss(pure_squeezed(1.3), 0.7)
        obs = SqueezeObservation(-variance_to_db(out.v_min), variance_to_db(out.v_max))
        fit = infer_phase_noise(obs, 0.7)
        assert fit.sigma == pytest.approx(0.0, abs=1e-9)
        assert fit.r == pytest.approx(1.3, abs=1e-9)

    @pytest.mark.parametrize("sq,anti", [(2.4, 7.5), (2.0, 9.5)])
    def test_reported_pairs(self, sq, anti):
        fit = infer_phase_noise(SqueezeObservation(sq, anti), 0.66)
        assert fit.sigma > 0.0
        assert fit.residual_db < 1e-6
        out = dephase(apply_loss(pure_squeezed(fit.r), 0.66), fit.sigma)
        assert -variance_to_db(out.v_min) == pytest.approx(sq, abs=1e-6)
        assert variance_to_db(out.v_max) == pytest.approx(anti, abs=1e-6)

    def test_grid_scan_oracle(self):
        # Brute-force residual scan over (r, sigma) must not beat the solver.
        obs = SqueezeObservation(2.4, 7.5)
        eta = 0.66
        fit = infer_phase_noise(obs, eta)

        rs = np.linspace(0.8, 1.3, 251)
        sigmas = np.linspace(0.0, 0.3, 151)
        grid = [(r, s) for r in rs for s in sigmas]
        outs = [dephase(apply_loss(pure_squeezed(r), eta), s) for r, s in grid]
        db = variance_to_db([(out.v_min, out.v_max) for out in outs])  # one call, every point
        residuals = np.maximum(np.abs(-db[:, 0] - obs.squeeze_db),
                               np.abs(db[:, 1] - obs.antisqueeze_db))
        k = int(np.argmin(residuals))  # the first smallest, as min() would pick
        best = (residuals[k], *grid[k])
        assert fit.residual_db <= best[0] + 1e-12
        assert abs(fit.r - best[1]) <= (rs[1] - rs[0])
        assert abs(fit.sigma - best[2]) <= (sigmas[1] - sigmas[0])

    def test_inconsistent_reports_residual(self):
        with pytest.raises(InconsistentObservationError) as err:
            infer_phase_noise(SqueezeObservation(2.4, 7.5), 0.30)
        assert err.value.residual is not None and err.value.residual > 0
        # A source squeeze parameter above 64 is out of range: the residual
        # is its excess over the cap, acosh(1e60)/2 - 64 here ...
        with pytest.raises(InconsistentObservationError,
                           match="solved squeeze parameter r = 69.4.* exceeds the cap of 64"
                           ) as err:
            infer_phase_noise(SqueezeObservation(3.0, 600.0), 0.5)
        assert err.value.residual == pytest.approx(0.5 * math.log(2e60) - 64.0, rel=1e-12)
        # ... and infinite when the solved r overflows.
        with pytest.raises(InconsistentObservationError, match="r = inf") as err:
            infer_phase_noise(SqueezeObservation(2.0, 7.0), 1e-320)
        assert err.value.residual == math.inf

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            infer_phase_noise(SqueezeObservation(2.4, 7.5), 0.0)
