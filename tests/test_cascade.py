import csv
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj, ellipkm1

from kerrsqueezer import (
    DomainError,
    extract_cascade_result,
    single_pass_conversion,
)
from kerrsqueezer.scenarios import default_config_path, load_config, run_scenario

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


def effective_kerr_phase(p, dk, kappa, length):
    """The analytic cascade phase of low conversion, ``-(kappa^2 p L / dk) (1 -
    sinc(dk L))``, valid for ``|dk L| >= pi``: the oracle of the exact phase there."""
    return -(kappa**2 * p * length / dk) * (1.0 - math.sin(dk * length) / (dk * length))


def reference_propagate(a1, a2, delta_k, kappa, length, steps):
    """Classical fixed-step RK4 over the coupled-mode equations, one
    amplitude at a time: the independent oracle of the closed form.
    Returns the output amplitudes ``(a1, a2)`` in the broadcast shape of
    the inputs."""
    node_block = 64  # steps whose mismatch phasors are computed together
    a1, a2, dk = np.broadcast_arrays(np.asarray(a1, dtype=complex),
                                     np.asarray(a2, dtype=complex),
                                     np.asarray(delta_k, dtype=float))
    shape = a1.shape
    a1, a2, dk = (np.array(x).reshape(-1) for x in (a1, a2, dk))
    h = length / steps
    c = 1j * kappa * h  # the coupling i kappa rides on the step
    nodes = 0.5 * h * np.arange(2 * steps + 1)
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


def elliptic_reference(p, dk, kappa, length):
    """Phase and residual conversion of the pure-fundamental launch from
    scipy's ``ellipj`` and adaptive ``quad``: phi = -(s/2) int w / (1 - w)
    dzeta over the crystal, integrated piecewise between the extrema of w.

    A double m = w_b^2 near 1 moves K by about 1e-14 relative, and sn near
    its zeros with it, so K comes from ``ellipkm1`` of the unrounded 1 - m
    and sn from the argument reduced into [0, K]."""
    g = kappa * math.sqrt(p)
    s, zeta_end = dk / g, g * length
    x = s * s / 8.0
    root = math.sqrt(x) * math.sqrt(x + 2.0)
    w_b, w_c = 1.0 / (1.0 + x + root), (x + root) / (1.0 + x + root)
    quarter, scale = ellipkm1(w_c * (1.0 + w_b)), math.sqrt(w_b)

    def sn_cn(zeta):
        u = (zeta / scale) % (2.0 * quarter)
        sn, cn, _, _ = ellipj(min(u, 2.0 * quarter - u), w_b * w_b)
        return sn, cn

    def rate(zeta):
        sn, cn = sn_cn(zeta)
        return w_b * sn * sn / (w_c + w_b * cn * cn)

    # A last piece that ends just past a zero of w adds next to nothing; it
    # is held to the sum before it, not to its own size.
    edges = [*np.arange(0.0, zeta_end * (1.0 - 1e-12), quarter * scale), zeta_end]
    integral = 0.0
    for a, b in zip(edges, edges[1:]):
        integral += quad(rate, a, b, epsabs=1e-16 * integral, epsrel=1e-13, limit=200)[0]
    return -0.5 * s * integral, w_b * sn_cn(zeta_end)[0] ** 2


def wrap(phi):
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


class TestNonFiniteInputs:
    """Non-finite inputs raise DomainError before any work is done."""

    def test_nan_kappa(self):
        for length in (LENGTH, LENGTH / 2):
            with pytest.raises(DomainError):
                extract_cascade_result(0.09, 700.0, math.nan, length)

    def test_nan_mismatch_row(self):
        for dk in (math.nan, math.inf):
            with pytest.raises(DomainError):
                extract_cascade_result(np.array([0.09, 0.04]), np.array([700.0, dk]), 14.0, LENGTH)

    def test_nan_amplitude(self):
        for p in (math.nan, math.inf, -0.01):
            with pytest.raises(DomainError):
                extract_cascade_result(np.array([0.09, p]), 700.0, 14.0, LENGTH)


class TestZeroRows:
    """Zero rows are a DomainError."""

    def test_extract_cascade_result(self):
        with pytest.raises(DomainError, match="at least one row"):
            extract_cascade_result(np.zeros(0), np.zeros(0), 3.2, LENGTH)

    def test_half_length_pass_with_a_broadcast_mismatch(self):
        # The fictitious mirror's half-length pass, with a scalar mismatch broadcast.
        with pytest.raises(DomainError, match="at least one row"):
            extract_cascade_result(np.zeros(0), 700.0, 3.2, LENGTH / 2)


class TestPropagate:
    """One crystal pass, from the closed-form solution."""

    def test_zero_coupling_is_identity(self):
        for p, dk in ((0.3, 500.0), (0.3, 0.0), (0.0, 0.0)):
            out = extract_cascade_result(p, dk, 0.0, LENGTH)
            assert out.nl_phase == 0.0 and out.residual_conversion == 0.0

    def test_phase_matched_sech_oracle(self):
        # Closed-form depleted SHG: |a1(z)| = |a1(0)| sech(kappa |a1(0)| z).
        kappa, p0 = 150.0, 1.0
        out = extract_cascade_result(p0, 0.0, kappa, LENGTH)
        xi = kappa * math.sqrt(p0) * LENGTH
        a1 = math.sqrt(p0 * (1.0 - out.residual_conversion))
        a2 = math.sqrt(p0 * out.residual_conversion)
        assert a1 == pytest.approx(math.sqrt(p0) / math.cosh(xi), rel=1e-6)
        assert a2 == pytest.approx(math.sqrt(p0) * math.tanh(xi), rel=1e-6)
        assert out.nl_phase == 0.0

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

    @pytest.mark.parametrize("kappa", [3.2, 14.0, 50.0, 150.0])
    def test_matches_scipy_elliptic_and_quadrature(self, kappa):
        # kappa sqrt(p) L from 0.003 to 7.9 and s from 0.006 to 3e4: up to
        # 16 periods of w, and peaks up to 0.997 that need the fold at K.
        powers = [0.01, 0.1, 1.0, 10.0, 32.0]
        mults = [0.05, -0.05, 0.5, 1.0, 2 * math.pi, 4 * math.pi, 13.5, 30.0, 100.0]
        p, x = (a.ravel() for a in np.meshgrid(powers, mults, indexing="ij"))
        out = extract_cascade_result(p, x / LENGTH, kappa, LENGTH)
        for i, (p_i, x_i) in enumerate(zip(p, x)):
            phase, residual = elliptic_reference(p_i, x_i / LENGTH, kappa, LENGTH)
            assert abs(wrap(out.nl_phase[i] - phase)) <= 1e-12 * abs(phase), (p_i, x_i)
            assert abs(out.residual_conversion[i] - residual) <= 1e-15, (p_i, x_i)

    def test_matches_rk4_reference(self):
        # Corners of kappa in {3.2, 14, 50, 150}, p in {0.01, 1, 10, 32} W and
        # dk L in {0, 1, 2 pi, 4 pi, 13.5, 30}.  kappa and p enter only through
        # kappa sqrt(p) (a = sqrt(p) u), so one 16000-step RK4 run at kappa =
        # 150 is the reference for all.
        corners = [
            (3.2, 0.01, 13.5), (3.2, 32.0, 2 * math.pi), (3.2, 1.0, 0.0),
            (14.0, 32.0, 13.5), (14.0, 10.0, 2 * math.pi), (14.0, 0.01, 30.0),
            (50.0, 10.0, 13.5), (50.0, 32.0, 4 * math.pi), (50.0, 32.0, 30.0),
            (150.0, 1.0, 13.5), (150.0, 10.0, 30.0), (150.0, 32.0, 30.0), (150.0, 0.01, 1.0),
        ]
        p_ref = np.array([(kappa / 150.0) ** 2 * p for kappa, p, _ in corners])
        dk = np.array([x for _, _, x in corners]) / LENGTH
        a1, a2 = reference_propagate(np.sqrt(p_ref), 0.0, dk, 150.0, LENGTH, 16000)
        for i, (kappa, p, x) in enumerate(corners):
            got = extract_cascade_result(p, x / LENGTH, kappa, LENGTH)
            phase, residual = np.angle(a1[i]), abs(a2[i]) ** 2 / p_ref[i]
            assert abs(got.nl_phase - phase) <= 5e-8 * abs(phase), (kappa, p, x)
            assert abs(got.residual_conversion - residual) <= 1e-9, (kappa, p, x)

    def test_sign_of_kappa_and_extreme_mismatch(self):
        # Flipping kappa flips a2 only.  A mismatch too small to square is
        # phase matched, and one too large against the coupling converts
        # nothing; neither gives a NaN.
        pos = extract_cascade_result([0.2, 3.0], [700.0, -40.0], 14.0, LENGTH)
        neg = extract_cascade_result([0.2, 3.0], [700.0, -40.0], -14.0, LENGTH)
        assert neg.nl_phase.tolist() == pos.nl_phase.tolist()
        assert neg.residual_conversion.tolist() == pos.residual_conversion.tolist()
        out = extract_cascade_result([1.0, 1e-300, 1e-300], [1e-170, 1e5, 1e9], 14.0, LENGTH)
        assert out.nl_phase[0] == 0.0
        assert out.residual_conversion[0] == pytest.approx(math.tanh(14.0 * LENGTH) ** 2,
                                                           rel=1e-15)
        assert np.all(np.abs(out.nl_phase[1:]) < 1e-300)
        assert np.all((out.residual_conversion[1:] >= 0.0) & (out.residual_conversion[1:] < 1e-300))


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
        # for bit.
        powers, mismatches = np.array([0.2, 0.2, 0.0, 3.0]), np.array([dk, -dk, dk, 0.0])
        batch = extract_cascade_result(powers, mismatches, kappa, LENGTH)
        rows = [extract_cascade_result(p, d, kappa, LENGTH) for p, d in zip(powers, mismatches)]
        assert batch.nl_phase.tolist() == [row.nl_phase for row in rows]
        assert batch.residual_conversion.tolist() == [row.residual_conversion for row in rows]

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_gives_row_bits(self, seed):
        # Each row is computed on its own: no batch size, largest power or
        # largest mismatch changes a row's bits.  Zero powers, zero
        # mismatches and the (3, rows) layout of the lock's slope pass included;
        # single_pass_conversion gives the residual conversion's bits.
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 60))
        powers = np.multiply.outer([1.0 - 1e-4, 1.0, 1.0 + 1e-4], rng.uniform(0.0, 30.0, rows))
        powers[:, rng.random(rows) < 0.1] = 0.0
        mismatches = rng.uniform(-120.0, 120.0, rows) / LENGTH
        mismatches[rng.random(rows) < 0.1] = 0.0
        kappa = float(rng.uniform(3.0, 150.0))
        batch = extract_cascade_result(powers, mismatches, kappa, LENGTH)
        conversion = single_pass_conversion(powers, mismatches, kappa, LENGTH)
        assert conversion.tolist() == batch.residual_conversion.tolist()
        for i, j in np.ndindex(powers.shape):
            row = extract_cascade_result(float(powers[i, j]), float(mismatches[j]), kappa, LENGTH)
            assert batch.nl_phase[i, j] == row.nl_phase
            assert batch.residual_conversion[i, j] == row.residual_conversion
            one = single_pass_conversion(float(powers[i, j]), float(mismatches[j]), kappa, LENGTH)
            assert isinstance(one, float) and one == row.residual_conversion

    @pytest.mark.parametrize("input_power_w, drive", [(None, 0.042), (0.029072, 0.139)])
    def test_conversion_sweep_writes_the_residual_conversion(self, tmp_path, input_power_w,
                                                             drive):
        # fig3's shg_efficiency column is the exact residual conversion at the
        # sweep's drive kappa^2 p L^2, bit for bit: packaged fig3, and the
        # largest drive of the benchmark's fig3 configs (seed 3).
        config = load_config(default_config_path("fig3"))
        config["scenario"], config["custom"] = "custom", {"tasks": ["conversion_sweep"]}
        if input_power_w is not None:
            config["fig3"]["input_power_w"] = input_power_w
        p_drive = run_scenario(config, tmp_path)["conversion_sweep"]["drive_power_w"]
        crystal = config["crystal"]
        kappa, length = crystal["kappa"], crystal["length_m"]
        assert kappa**2 * p_drive * length**2 == pytest.approx(drive, abs=5e-4)
        with open(tmp_path / "conversion_sweep.csv", newline="") as table:
            columns = {name: [float(v) for v in col] for name, *col in zip(*csv.reader(table))}
        exact = extract_cascade_result(p_drive, np.array(columns["delta_k"]), kappa, length)
        assert columns["shg_efficiency"] == exact.residual_conversion.tolist()

    def test_phase_matched_pure_depletion(self):
        # At zero mismatch the crystal depletes but does not phase shift.
        out = extract_cascade_result(0.5, 0.0, 14.0, LENGTH)
        assert abs(out.nl_phase) < 1e-9
        off = extract_cascade_result(0.5, 2 * math.pi / LENGTH, 14.0, LENGTH)
        assert out.residual_conversion > 100 * off.residual_conversion

    def test_zero_power(self):
        out = extract_cascade_result(0.0, 1000.0, 14.0, LENGTH)
        assert out.nl_phase == 0.0 and out.residual_conversion == 0.0


def mirror_r1(p, dk, kappa):
    """The reflectivity r1 of the paper's fictitious mirror: the harmonic
    fraction halfway through the crystal, the residual conversion of the
    half-length pass."""
    return extract_cascade_result(p, dk, kappa, LENGTH / 2).residual_conversion


class TestFictitiousMirror:
    def test_vanishes_with_power(self):
        assert mirror_r1(0.0, 2 * math.pi / LENGTH, 14.0) == 0.0
        small = mirror_r1(1e-4, 2 * math.pi / LENGTH, 14.0)
        assert small < 1e-6

    def test_monotone_in_power(self):
        dk = 2 * math.pi / LENGTH
        powers = [0.05, 0.1, 0.2, 0.4, 0.8]
        r1s = [mirror_r1(p, dk, 14.0) for p in powers]
        assert all(b > a for a, b in zip(r1s, r1s[1:]))

    def test_mid_crystal_conversion_at_zero(self):
        # Light is converted at mid-crystal even though none leaves the end.
        dk = 2 * math.pi / LENGTH
        r1 = mirror_r1(0.2, dk, 14.0)
        end = extract_cascade_result(0.2, dk, 14.0, LENGTH)
        assert end.residual_conversion < 1e-6
        assert r1 > 1e-4
        # Low-conversion closed form: r1 = 4 kappa^2 p / dk^2.
        assert r1 == pytest.approx(4 * 14.0**2 * 0.2 / dk**2, rel=2e-3)

    def test_matches_rk4_reference(self):
        # Strong drive, where the low-conversion form no longer holds: r1
        # against the amplitudes of an RK4 run over the half crystal (the
        # step of 16000 over the whole).
        cases = [(1.0, 2 * math.pi), (9.0, 3 * math.pi), (4.0, 1.0), (9.0, -13.5),
                 (32.0, 30.0), (0.01, 0.5)]
        p = np.array([p for p, _ in cases])
        dk = np.array([x for _, x in cases]) / LENGTH
        _, a2 = reference_propagate(np.sqrt(p), 0.0, dk, 150.0, LENGTH / 2, 8000)
        assert np.all(np.abs(mirror_r1(p, dk, 150.0) - np.abs(a2) ** 2 / p) <= 1e-9)
