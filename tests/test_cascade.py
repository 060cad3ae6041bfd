import math

import numpy as np
import pytest
from scipy.special import ellipj

from kerrsqueezer import (
    AccuracyError,
    CoupledModeState,
    DomainError,
    ValidityError,
    effective_kerr_phase,
    extract_cascade_result,
    fictitious_mirror,
    propagate,
)
from kerrsqueezer import cascade
from kerrsqueezer.cascade import step_count

LENGTH = 0.0093


def converted_fraction(p, dk, kappa, length):
    """Exact harmonic power fraction of mismatched SHG from a2 = 0
    (Armstrong, Bloembergen, Ducuing & Pershan, Phys. Rev. 127, 1918 (1962)):
    v_b^2 sn^2(kappa sqrt(p) L / v_b | m = v_b^4), v_b = sqrt(1 + s^2) - s,
    s = dk / (4 kappa sqrt(p))."""
    s = dk / (4.0 * kappa * math.sqrt(p))
    v_b = math.sqrt(1.0 + s * s) - s
    sn = ellipj(kappa * math.sqrt(p) * length / v_b, v_b**4)[0]
    return v_b**2 * sn**2


def reference_propagate(state, delta_k, kappa, length, steps, node_block):
    """The per-amplitude RK4 loop that ``propagate`` replaced, kept verbatim
    as the bit-for-bit oracle of its stacked, in-place kernel."""
    a1, a2, dk = np.broadcast_arrays(np.asarray(state.a1, dtype=complex),
                                     np.asarray(state.a2, dtype=complex),
                                     np.asarray(delta_k, dtype=float))
    shape = a1.shape
    a1, a2, dk = (np.array(x).reshape(-1) for x in (a1, a2, dk))
    z0 = float(state.z)
    h = length / steps
    c = 1j * kappa * h  # the coupling i kappa rides on the step
    nodes = z0 + 0.5 * h * np.arange(2 * steps + 1)
    for j in range(steps):
        i = 2 * (j % node_block)
        if i == 0:
            up = np.exp(1j * np.multiply.outer(nodes[2 * j:2 * (j + node_block) + 1], dk))
            down = up.conj()
        k1a, k1b = a1.conj() * a2 * up[i], a1 * a1 * down[i]
        b1, b2 = a1 + 0.5 * c * k1a, a2 + 0.5 * c * k1b
        k2a, k2b = b1.conj() * b2 * up[i + 1], b1 * b1 * down[i + 1]
        b1, b2 = a1 + 0.5 * c * k2a, a2 + 0.5 * c * k2b
        k3a, k3b = b1.conj() * b2 * up[i + 1], b1 * b1 * down[i + 1]
        b1, b2 = a1 + c * k3a, a2 + c * k3b
        k4a, k4b = b1.conj() * b2 * up[i + 2], b1 * b1 * down[i + 2]
        a1 = a1 + (c / 6.0) * (k1a + 2.0 * (k2a + k3a) + k4a)
        a2 = a2 + (c / 6.0) * (k1b + 2.0 * (k2b + k3b) + k4b)
    return a1.reshape(shape), a2.reshape(shape)


def complex_bits(x):
    return [(float(v.real).hex(), float(v.imag).hex()) for v in np.asarray(x).reshape(-1)]


class TestStackedKernel:
    """``propagate`` equals the reference loop bit for bit."""

    def assert_reference_bits(self, state, delta_k, kappa, steps):
        out = propagate(state, delta_k, kappa, LENGTH, steps, drift_tol=1.0)
        a1, a2 = reference_propagate(state, delta_k, kappa, LENGTH, steps, cascade._NODE_BLOCK)
        assert np.shape(out.a1) == a1.shape and np.shape(out.a2) == a2.shape
        assert complex_bits(out.a1) == complex_bits(a1)
        assert complex_bits(out.a2) == complex_bits(a2)
        assert out.z == state.z + LENGTH

    def test_scalar_row(self):
        state = CoupledModeState(0.31 + 0.12j, 0.004 - 0.002j)
        out = propagate(state, 2 * math.pi / LENGTH, 14.0, LENGTH, 150, drift_tol=1.0)
        assert isinstance(out.a1, complex) and isinstance(out.a2, complex)
        self.assert_reference_bits(state, 2 * math.pi / LENGTH, 14.0, 150)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 40))
        a1 = np.sqrt(rng.uniform(0.0, 0.2, rows)) * np.exp(1j * rng.uniform(-3.0, 3.0, rows))
        a2 = rng.uniform(0.0, 0.01, rows) * np.exp(1j * rng.uniform(-3.0, 3.0, rows))
        delta_k = rng.uniform(-3000.0, 3000.0, rows)
        self.assert_reference_bits(CoupledModeState(a1, a2), delta_k, 14.0, 130 + seed)

    def test_stacked_rows_with_repeated_mismatch(self):
        # The (3, rows) layout of the lock's slope pass: three powers per
        # mismatch, which share their phasors.
        delta_k = np.array([-2 * math.pi, 0.0, 2 * math.pi, 2 * math.pi, 13.5]) / LENGTH
        powers = np.multiply.outer([1.0 - 1e-4, 1.0, 1.0 + 1e-4], np.linspace(0.06, 0.11, 5))
        state = CoupledModeState(np.sqrt(powers), np.zeros(powers.shape))
        self.assert_reference_bits(state, delta_k, 3.2, step_count(powers, delta_k, 3.2, LENGTH))

    def test_empty_rows_offset_start_and_negative_kappa(self):
        a1 = np.array([0.0, 0.3 - 0.1j, 0.0, 0.2j])
        a2 = np.array([0.0, 0.01j, 0.0, 0.0])
        delta_k = np.array([700.0, -700.0, 0.0, 1400.0])
        state = CoupledModeState(a1, a2, z=0.004)
        self.assert_reference_bits(state, delta_k, -14.0, 200)
        out = propagate(state, delta_k, -14.0, LENGTH, 200)
        assert out.a1[0] == 0.0 and out.a2[0] == 0.0 and out.a1[2] == 0.0

    @pytest.mark.parametrize("node_block", [64, 512])
    @pytest.mark.parametrize("steps", [100, 128, 129, 263])
    def test_step_counts_against_node_blocks(self, monkeypatch, node_block, steps):
        # With 512-step blocks every run here fits in one partial block.
        monkeypatch.setattr(cascade, "_NODE_BLOCK", node_block)
        state = CoupledModeState(np.array([0.3, 0.25 + 0.1j]), np.array([0.0, 0.02]))
        self.assert_reference_bits(state, np.array([1500.0, -800.0]), 50.0, steps)


class TestNonFiniteInputs:
    """Explicit step counts skip :func:`step_count`, so ``propagate``
    checks its own inputs, and a NaN drift fails the drift gate."""

    def test_nan_kappa(self):
        with pytest.raises(DomainError):
            propagate(CoupledModeState(0.3, 0.0), 700.0, math.nan, LENGTH, steps=100)

    def test_nan_mismatch_row(self):
        state = CoupledModeState(np.array([0.3, 0.2]), np.zeros(2))
        with pytest.raises(DomainError):
            propagate(state, np.array([700.0, math.nan]), 14.0, LENGTH, steps=100)

    def test_nan_amplitude(self):
        state = CoupledModeState(np.array([0.3, complex(0.2, math.nan)]), np.zeros(2))
        with pytest.raises(DomainError):
            propagate(state, 700.0, 14.0, LENGTH, steps=100)

    def test_nan_drift_fails_the_gate(self):
        # Finite amplitudes whose power overflows: the drift is inf/inf.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AccuracyError):
            propagate(CoupledModeState(1e200, 0.0), 700.0, 14.0, LENGTH, steps=100)


class TestZeroRows:
    """Zero rows are a DomainError, raised before any reduction or RK4 step."""

    def test_step_count(self):
        with pytest.raises(DomainError, match="at least one row"):
            step_count(np.zeros(0), np.zeros(0), 3.2, LENGTH)

    @pytest.mark.parametrize("steps", [None, 100])
    def test_extract_cascade_result(self, steps):
        with pytest.raises(DomainError, match="at least one row"):
            extract_cascade_result(np.zeros(0), np.zeros(0), 3.2, LENGTH, steps)

    def test_propagate_with_explicit_steps(self):
        state = CoupledModeState(np.zeros(0), np.zeros(0))
        with pytest.raises(DomainError, match="propagate needs at least one row"):
            propagate(state, np.zeros(0), 3.2, LENGTH, 100)


class TestPropagate:
    def test_zero_coupling_is_identity(self):
        start = CoupledModeState(1.3 + 0.2j, 0.1 - 0.4j)
        out = propagate(start, 500.0, 0.0, LENGTH)
        assert out.a1 == start.a1 and out.a2 == start.a2

    def test_phase_matched_sech_oracle(self):
        # Closed-form depleted SHG: |a1(z)| = |a1(0)| sech(kappa |a1(0)| z).
        kappa, p0 = 150.0, 1.0
        out = propagate(CoupledModeState(math.sqrt(p0), 0.0), 0.0, kappa, LENGTH)
        xi = kappa * math.sqrt(p0) * LENGTH
        assert abs(out.a1) == pytest.approx(math.sqrt(p0) / math.cosh(xi), rel=1e-6)
        assert abs(out.a2) == pytest.approx(math.sqrt(p0) * math.tanh(xi), rel=1e-6)

    def test_power_conservation_default_steps(self):
        kappa, p0 = 150.0, 1.0
        out = propagate(CoupledModeState(math.sqrt(p0), 0.0), 3000.0, kappa, LENGTH)
        assert abs(out.power - p0) / p0 < 1e-9

    def test_full_back_conversion_at_first_zero(self):
        out = extract_cascade_result(0.01, 2 * math.pi / LENGTH, 14.0, LENGTH)
        assert out.residual_conversion < 1e-6

    @pytest.mark.parametrize("kappa,p", [(150.0, 1.0), (150.0, 4.0), (150.0, 9.0), (473.0, 1.0)])
    def test_strong_drive_elliptic_oracle(self, kappa, p):
        # kappa sqrt(p) L from 1.4 to 4.4: deep depletion and back-conversion,
        # where the low-conversion phase formula no longer applies.
        for x in (0.0, 1.0, 2 * math.pi, 3 * math.pi, 4 * math.pi):
            out = extract_cascade_result(p, x / LENGTH, kappa, LENGTH)
            exact = converted_fraction(p, x / LENGTH, kappa, LENGTH)
            assert abs(out.residual_conversion - exact) <= 1e-9, x

    def test_step_rule_error_budget(self):
        # Corners of kappa in {3.2, 14, 50, 150}, p in {0.01, 1, 10, 32} W and
        # dk L in {0, 1, 2 pi, 4 pi, 13.5, 30}, each at its own derived step
        # count.  kappa and p enter only through kappa sqrt(p) (a = sqrt(p) u),
        # so one 16000-step run at kappa = 150 is the reference for all.
        corners = [
            (3.2, 0.01, 13.5), (3.2, 32.0, 2 * math.pi), (3.2, 1.0, 0.0),
            (14.0, 32.0, 13.5), (14.0, 10.0, 2 * math.pi), (14.0, 0.01, 30.0),
            (50.0, 10.0, 13.5), (50.0, 32.0, 4 * math.pi), (50.0, 32.0, 30.0),
            (150.0, 1.0, 13.5), (150.0, 10.0, 30.0), (150.0, 32.0, 30.0), (150.0, 0.01, 1.0),
        ]
        steps = [step_count(p, x / LENGTH, kappa, LENGTH) for kappa, p, x in corners]
        ref = extract_cascade_result(
            np.array([(kappa / 150.0) ** 2 * p for kappa, p, _ in corners]),
            np.array([x for _, _, x in corners]) / LENGTH,
            150.0, LENGTH, steps=max(16000, 8 * max(steps)))
        for i, (kappa, p, x) in enumerate(corners):
            got = extract_cascade_result(p, x / LENGTH, kappa, LENGTH)
            out = propagate(CoupledModeState(math.sqrt(p), 0.0), x / LENGTH, kappa, LENGTH,
                            drift_tol=1.0)
            where = (kappa, p, x, steps[i])
            assert abs(got.nl_phase - ref.nl_phase[i]) <= 5e-8 * abs(ref.nl_phase[i]), where
            assert abs(got.residual_conversion - ref.residual_conversion[i]) <= 1e-9, where
            assert abs(out.power - p) / p <= 1e-9, where

    def test_step_rule(self):
        assert step_count(0.0, 0.0, 14.0, LENGTH) == 100
        assert step_count(1.0, 0.0, 150.0, LENGTH) == math.ceil(150.0 * LENGTH / 0.005)
        assert step_count([0.5, 1.0], [30.0 / LENGTH, -40.0 / LENGTH], 0.0, LENGTH) == 800
        with pytest.raises(DomainError):
            step_count(-1.0, 0.0, 14.0, LENGTH)

    def test_step_floor(self):
        with pytest.raises(DomainError):
            propagate(CoupledModeState(1.0, 0.0), 0.0, 1.0, LENGTH, steps=50)

    def test_accuracy_error_reports_drift(self):
        with pytest.raises(AccuracyError) as err:
            propagate(
                CoupledModeState(1.0, 0.0), 0.0, 300.0, LENGTH, steps=100, drift_tol=1e-16
            )
        assert err.value.measured is not None and err.value.measured > 1e-16

    def test_fourth_order_convergence(self):
        # Richardson: successive halvings shrink the change by ~2^4.
        kappa = 150.0
        dk = 2 * math.pi / LENGTH

        def endpoint(steps):
            out = propagate(
                CoupledModeState(1.0, 0.0), dk, kappa, LENGTH, steps=steps, drift_tol=1e-3
            )
            return out.a1

        coarse, mid, fine = endpoint(100), endpoint(200), endpoint(400)
        diff1 = abs(coarse - mid)
        diff2 = abs(mid - fine)
        assert diff2 < diff1 / 15.0


class TestEffectiveKerrPhase:
    def test_zero_power(self):
        assert effective_kerr_phase(0.0, 2 * math.pi / LENGTH, 14.0, LENGTH) == 0.0

    def test_first_minimum_value(self):
        p, kappa = 0.2, 14.0
        dk = 2 * math.pi / LENGTH
        assert effective_kerr_phase(p, dk, kappa, LENGTH) == pytest.approx(
            -(kappa**2) * p * LENGTH**2 / (2 * math.pi), rel=1e-12
        )

    def test_sign_flips_with_mismatch(self):
        p, kappa = 0.2, 14.0
        dk = 2 * math.pi / LENGTH
        assert effective_kerr_phase(p, dk, kappa, LENGTH) < 0
        assert effective_kerr_phase(p, -dk, kappa, LENGTH) > 0

    def test_validity_region(self):
        with pytest.raises(ValidityError):
            effective_kerr_phase(0.2, 0.5 * math.pi / LENGTH, 14.0, LENGTH)

    @pytest.mark.parametrize("mult", [2.0, -2.0, 2.4, 3.0, -3.0, 4.0, 6.0])
    def test_matches_ode_oracle(self, mult):
        # Whenever residual conversion stays below 1e-3 the analytic phase
        # and the integrated one agree to 1%.
        p, kappa = 0.2, 14.0
        dk = mult * math.pi / LENGTH
        ode = extract_cascade_result(p, dk, kappa, LENGTH)
        assert ode.residual_conversion < 1e-3
        analytic = effective_kerr_phase(p, dk, kappa, LENGTH)
        assert ode.nl_phase == pytest.approx(analytic, rel=0.01)


class TestExtractCascade:
    def test_linear_in_power(self):
        kappa = 14.0
        dk = 2 * math.pi / LENGTH
        one = extract_cascade_result(0.1, dk, kappa, LENGTH)
        two = extract_cascade_result(0.2, dk, kappa, LENGTH)
        assert two.nl_phase == pytest.approx(2 * one.nl_phase, rel=0.01)
        assert one.nl_phase < 0

    def test_antisymmetric_in_mismatch(self):
        kappa = 14.0
        dk = 2.3 * math.pi / LENGTH
        pos = extract_cascade_result(0.2, dk, kappa, LENGTH)
        neg = extract_cascade_result(0.2, -dk, kappa, LENGTH)
        assert neg.nl_phase == pytest.approx(-pos.nl_phase, rel=1e-10)
        assert neg.residual_conversion == pytest.approx(pos.residual_conversion, rel=1e-10)
        # One batched run over both signs gives the row-by-row results bit
        # for bit at the same step count.
        powers, mismatches = np.array([0.2, 0.2, 0.0, 3.0]), np.array([dk, -dk, dk, 0.0])
        steps = step_count(powers, mismatches, kappa, LENGTH)
        batch = extract_cascade_result(powers, mismatches, kappa, LENGTH, steps=steps)
        rows = [extract_cascade_result(p, d, kappa, LENGTH, steps=steps)
                for p, d in zip(powers, mismatches)]
        assert batch.nl_phase.tolist() == [row.nl_phase for row in rows]
        assert batch.residual_conversion.tolist() == [row.residual_conversion for row in rows]

    def test_phase_matched_pure_depletion(self):
        # At zero mismatch the crystal depletes but does not phase shift.
        out = extract_cascade_result(0.5, 0.0, 14.0, LENGTH)
        assert abs(out.nl_phase) < 1e-9
        off = extract_cascade_result(0.5, 2 * math.pi / LENGTH, 14.0, LENGTH)
        assert out.residual_conversion > 100 * off.residual_conversion

    def test_zero_power(self):
        out = extract_cascade_result(0.0, 1000.0, 14.0, LENGTH)
        assert out.nl_phase == 0.0 and out.residual_conversion == 0.0


class TestFictitiousMirror:
    def test_vanishes_with_power(self):
        assert fictitious_mirror(0.0, 2 * math.pi / LENGTH, 14.0, LENGTH).r1 == 0.0
        small = fictitious_mirror(1e-4, 2 * math.pi / LENGTH, 14.0, LENGTH).r1
        assert small < 1e-6

    def test_monotone_in_power(self):
        dk = 2 * math.pi / LENGTH
        powers = [0.05, 0.1, 0.2, 0.4, 0.8]
        r1s = [fictitious_mirror(p, dk, 14.0, LENGTH).r1 for p in powers]
        assert all(b > a for a, b in zip(r1s, r1s[1:]))

    def test_mid_crystal_conversion_at_zero(self):
        # Light is converted at mid-crystal even though none leaves the end.
        dk = 2 * math.pi / LENGTH
        mirror = fictitious_mirror(0.2, dk, 14.0, LENGTH)
        end = extract_cascade_result(0.2, dk, 14.0, LENGTH)
        assert end.residual_conversion < 1e-6
        assert mirror.r1 > 1e-4
        # Low-conversion closed form: r1 = 4 kappa^2 p / dk^2.
        assert mirror.r1 == pytest.approx(4 * 14.0**2 * 0.2 / dk**2, rel=2e-3)

    def test_phase_offset_low_conversion(self):
        dk = 2 * math.pi / LENGTH
        mirror = fictitious_mirror(0.05, dk, 14.0, LENGTH)
        assert mirror.phase_offset == pytest.approx(dk * LENGTH / 4, abs=2e-3)
