"""Output checks against physics oracles, one function per workload.

Every check reads what the program wrote (tables, ``summary.json``,
``manifest``) plus the summary it printed, and returns a list of problems;
an empty list means the run passed.  The oracles are re-derived here from
the physics, not imported from the program under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

C_LIGHT = 299_792_458.0  # m/s

# Cascade phase from the RK4 run vs the low-conversion formula on rows with
# |dk L| >= 2 pi.  The formula's error grows with the single-pass drive
# kappa^2 p L^2: over 61-85 C and p_circ <= 32 W (kappa 3.2) it measures
# <= 1e-3 + 0.23 * drive with the p/1000 reference run and about 1e-3 less
# without it.  A wrong phase (sign, factor, missing sinc term) is off by
# far more than this tolerance.
KERR_PHASE_RTOL = 2e-3
KERR_PHASE_RTOL_PER_DRIVE = 0.5
# Residual conversion at the exact conversion zeros; 1 C away it is ~5e-5.
ZERO_RESIDUAL_MAX = 1e-5
# Squeezing at exact phase matching, where the cascade phase is zero.
PHASE_MATCHED_SQUEEZE_DB = 1e-9
AIRY_RTOL = 1e-6
# Slope below which a profile counts as linear: phase shift over the whole scan.
ZERO_SLOPE_PHASE = 1e-9
CALIBRATION_RESIDUAL_DB = 1e-6
# Fitted summary vs targets, in standard errors of the ellipse fit.
FIT_SIGMAS = 6.0


def read_table(out_dir: Path, name: str) -> tuple[list[str], np.ndarray]:
    """Columns and float rows of a CSV or JSON table written by the program."""
    csv_path, json_path = out_dir / f"{name}.csv", out_dir / f"{name}.json"
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            columns = next(reader)
            rows = [[float(cell) for cell in row] for row in reader]
    else:
        payload = json.loads(json_path.read_text())
        columns, rows = payload["columns"], payload["rows"]
    return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def check_manifest(out_dir: Path) -> list[str]:
    """Every output is listed with the hash of its bytes, and the config hash matches."""
    problems = []
    lines = (out_dir / "manifest").read_text().splitlines()
    listed = {}
    for line in lines[lines.index("outputs:") + 1:]:
        name, _, digest = line.strip().partition(": sha256=")
        listed[name] = digest
    on_disk = {p.name for p in out_dir.iterdir() if p.name != "manifest"}
    if set(listed) != on_disk:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(on_disk)}")
    for name, digest in listed.items():
        path = out_dir / name
        if path.exists() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest hash of {name} does not match its bytes")
    config_line = next((ln for ln in lines if ln.startswith("config_sha256: ")), "")
    config_text = (out_dir / "resolved_config.yaml").read_bytes()
    if config_line.split(": ", 1)[-1] != hashlib.sha256(config_text).hexdigest():
        problems.append("manifest config_sha256 does not match resolved_config.yaml")
    return problems


def kerr_phase(p: float, dk: float, kappa: float, length: float) -> float:
    """Low-conversion cascade phase -(kappa^2 p L / dk) (1 - sinc(dk L))."""
    x = dk * length
    return -(kappa**2 * p * length / dk) * (1.0 - math.sin(x) / x)


def _conversion_order(config: dict, temperature: float) -> float:
    """dk L / (2 pi) at ``temperature`` for the config's calibrated crystal."""
    crystal = config["crystal"]
    return (temperature - crystal["t_max_c"]) / (crystal["t_min1_c"] - crystal["t_max_c"])


def check_squeeze_sweep(config: dict, out_dir: Path, printed: dict) -> list[str]:
    problems = []
    columns, rows = read_table(out_dir, "squeeze_sweep")
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    temps = [float(t) for t in config["fig5"]["temperatures_c"]]
    if len(rows) != len(temps):
        return [f"squeeze_sweep has {len(rows)} rows for {len(temps)} temperatures"]
    length = config["crystal"]["length_m"]
    kappa = config["fig5"].get("kappa", config["crystal"]["kappa"])
    fsr = C_LIGHT / config["cavity"]["round_trip_length_m"]
    above = {rec["temperature_c"]: rec["above_threshold"]
             for rec in json.loads((out_dir / "summary.json").read_text())["rows"]}
    for i, temperature in enumerate(temps):
        dk, p_circ = col["delta_k"][i], col["p_circ_W"][i]
        order = _conversion_order(config, temperature)
        if abs(order) >= 1.0 - 1e-9:
            expected = kerr_phase(p_circ, dk, kappa, length)
            got = col["epsilon_rad_s"][i] / fsr
            rtol = KERR_PHASE_RTOL + KERR_PHASE_RTOL_PER_DRIVE * kappa**2 * p_circ * length**2
            if not abs(got - expected) <= rtol * abs(expected):
                problems.append(f"T={temperature}: Kerr phase {got:.6e} vs cascade formula "
                                f"{expected:.6e}")
        if abs(order) >= 0.5 and abs(order - round(order)) < 1e-9:
            residual = col["residual_conversion"][i]
            if not 0.0 <= residual <= ZERO_RESIDUAL_MAX:
                problems.append(f"T={temperature}: residual conversion {residual:.3e} at a "
                                "conversion zero")
        if not above.get(temperature, True):
            squeeze = col["squeeze_dB"][i]
            # At phase matching (dk = 0) the cascade phase, and so the
            # squeezing, is 0 dB; every other row squeezes.
            if order == 0.0:
                ok = abs(squeeze) <= PHASE_MATCHED_SQUEEZE_DB
            else:
                ok = math.isfinite(squeeze) and squeeze > 0.0
            if not ok:
                problems.append(f"T={temperature}: below threshold but squeezing is "
                                f"{squeeze} dB")
    return problems


def half_max_asymmetry(x: np.ndarray, y: np.ndarray) -> float:
    """|w_left - w_right| / (w_left + w_right) of the half-maximum widths."""
    peak = int(np.argmax(y))
    half = 0.5 * y[peak]
    below = np.flatnonzero(y < half)
    left, right = below[below < peak], below[below > peak]
    if not len(left) or not len(right):
        return math.nan
    i, j = left[-1], right[0]
    x_left = x[i] + (half - y[i]) / (y[i + 1] - y[i]) * (x[i + 1] - x[i])
    x_right = x[j - 1] + (y[j - 1] - half) / (y[j - 1] - y[j]) * (x[j] - x[j - 1])
    w_left, w_right = x[peak] - x_left, x_right - x[peak]
    return abs(w_left - w_right) / (w_left + w_right)


def check_resonance_scan(config: dict, out_dir: Path, printed: dict) -> list[str]:
    problems = []
    section, cavity = config["fig3"], config["cavity"]
    p_in, t1 = section["input_power_w"], cavity["coupler_transmission"]
    r0 = math.sqrt((1.0 - t1) * (1.0 - cavity["round_trip_loss"]))
    ceiling = t1 / (1.0 - r0) ** 2 * p_in * (1.0 + 1e-9)
    profiles = printed["summary"]["profiles"]
    if len(profiles) != len(section["profile_temperatures_c"]):
        return [f"{len(profiles)} profiles reported for "
                f"{len(section['profile_temperatures_c'])} temperatures"]
    asym_max, asym_zero, airy_checked = [], [], False
    for prof in profiles:
        temperature = prof["temperature_c"]
        name = f"profile_{temperature:.1f}C".replace(".", "p")
        _, rows = read_table(out_dir, name)
        det, p_circ = rows[:, 0], rows[:, 1]
        if len(rows) != section["profile_points"]:
            problems.append(f"{name}: {len(rows)} points, expected {section['profile_points']}")
        if not np.all(p_circ <= ceiling):
            problems.append(f"{name}: p_circ {p_circ.max():.6e} exceeds the resonant "
                            f"build-up {ceiling:.6e}")
        if abs(prof["kerr_slope_rad_per_w"]) * p_circ.max() <= ZERO_SLOPE_PHASE:
            # Linear cavity: Airy profile with r fitted from the peak sample.
            k = int(np.argmax(p_circ))
            c = math.cos(det[k])
            r = c - math.sqrt(max(c * c - 1.0 + t1 * p_in / p_circ[k], 0.0))
            airy = t1 * p_in / (1.0 + r * r - 2.0 * r * np.cos(det))
            err = float(np.max(np.abs(p_circ / airy - 1.0)))
            if not err <= AIRY_RTOL:
                problems.append(f"{name}: zero-slope profile misses Airy by {err:.3e}")
            airy_checked = True
        asym = half_max_asymmetry(det, p_circ)
        order = _conversion_order(config, temperature)
        (asym_zero if abs(order) >= 0.5 else asym_max).append(asym)
    if not asym_max:
        problems.append("no profile at the conversion maximum")
    elif not all(a > max(asym_max) for a in asym_zero):
        problems.append(f"asymmetry at the zeros {asym_zero} not above the maximum's "
                        f"{asym_max}")
    if not airy_checked:
        problems.append("no zero-slope profile to check against Airy")
    return problems


def forward_db(r: float, eta: float, sigma: float) -> tuple[float, float]:
    """(squeeze, antisqueeze) dB of a pure squeezed state after loss, then jitter."""
    v_lo = eta * math.exp(-2.0 * r) + 1.0 - eta
    v_hi = eta * math.exp(2.0 * r) + 1.0 - eta
    mean, half = 0.5 * (v_lo + v_hi), 0.5 * (v_hi - v_lo) * math.exp(-2.0 * sigma**2)
    return -10.0 * math.log10(mean - half), 10.0 * math.log10(mean + half)


def ellipse_fit_sigma_db(theta, measured_db, dark_variance, n_effective):
    """Standard errors (dB) of the fitted minimum and maximum variance.

    Propagates the per-point estimator noise, (V + dark) / sqrt(n_effective),
    through the least-squares fit on (1, cos 2 theta, sin 2 theta).
    """
    v = 10.0 ** (np.asarray(measured_db) / 10.0)
    basis = np.column_stack([np.ones_like(theta), np.cos(2 * theta), np.sin(2 * theta)])
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    inv = np.linalg.inv(basis.T @ basis)
    noise = (v / math.sqrt(n_effective)) ** 2
    cov = inv @ (basis.T * noise) @ basis @ inv
    c0, a, b = coef
    spread = math.hypot(a, b)
    out = []
    for sign in (-1.0, 1.0):
        grad = np.array([1.0, sign * a / spread, sign * b / spread])
        v_fit = c0 - dark_variance + sign * spread
        out.append(10.0 / math.log(10.0) * math.sqrt(grad @ cov @ grad) / v_fit)
    return tuple(out)


def check_tomography(config: dict, out_dir: Path, printed: dict) -> list[str]:
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text())
    target_sq, target_anti = config["fig4"]["targets_db"]
    cal = summary["calibration"]
    sq, anti = forward_db(cal["r"], cal["eta_total"], cal["sigma_rad"])
    residual = max(abs(sq - target_sq), abs(anti - target_anti))
    if not residual <= CALIBRATION_RESIDUAL_DB:
        problems.append(f"calibration misses its targets by {residual:.3e} dB")
    tomo = config["tomography"]
    samples = int(round(tomo["duration_s"] * tomo["vbw_hz"]))
    traces = {name: read_table(out_dir, name)[1] for name in ("trace_vacuum", "trace_squeezed")}
    for name, rows in traces.items():
        if len(rows) != samples:
            problems.append(f"{name}: {len(rows)} samples, expected {samples}")
    squeezed = traces["trace_squeezed"]
    sig_sq, sig_anti = ellipse_fit_sigma_db(
        squeezed[:, 1], squeezed[:, 2], 10.0 ** (tomo["dark_db"] / 10.0),
        tomo["rbw_hz"] / tomo["vbw_hz"])
    fitted = summary["summary_db"]
    for label, got, target, sigma in (("squeeze", fitted["squeeze"], target_sq, sig_sq),
                                      ("antisqueeze", fitted["antisqueeze"], target_anti,
                                       sig_anti)):
        if not abs(got - target) <= FIT_SIGMAS * sigma:
            problems.append(f"fitted {label} {got:.4f} dB is {abs(got - target) / sigma:.1f} "
                            f"standard errors from the target {target:.4f} dB")
    return problems


CHECKS = {
    "squeeze_sweep": check_squeeze_sweep,
    "resonance_scan": check_resonance_scan,
    "tomography": check_tomography,
}


def check_run(workload: str, config: dict, out_dir: Path, printed: dict) -> list[str]:
    """All checks of one run; a check that cannot read its inputs is a problem too."""
    try:
        return check_manifest(out_dir) + CHECKS[workload](config, out_dir, printed)
    except (OSError, KeyError, ValueError, TypeError, IndexError, StopIteration) as err:
        return [f"outputs unreadable: {type(err).__name__}: {err}"]
