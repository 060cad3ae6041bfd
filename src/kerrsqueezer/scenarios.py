"""Scenario engine: configs, measurement reproductions and reports.

Scenario ids map to the three standard characterizations of the source:

* ``fig3`` -- crystal-temperature conversion sweep plus cavity resonance
  profiles at selected temperatures,
* ``fig4`` -- homodyne tomography of the squeezed output with a
  calibrated source solved from target dB values,
* ``fig5`` -- squeeze/anti-squeeze versus crystal temperature at a fixed
  sideband frequency (cascade-phase mechanism only),
* ``custom`` -- any subset of the above tasks.

Every run writes the resolved config, data tables (CSV or JSON), a JSON
summary and a ``manifest`` text file with content hashes; outputs are a
pure function of (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np
import orjson
import yaml

from . import __version__ as _VERSION
from .cascade import extract_cascade_result, single_pass_conversion
from .cavity import (
    MONITOR_TRANSMISSION,
    CavityParams,
    OperatingPoint,
    scan_profile,
    sideband_comb_map,
    squeezing_spectrum,
)
from .detection import (
    SCAN_SHAPES,
    EfficiencyFactor,
    LossBudget,
    TomographySettings,
    fit_quadrature_ellipse,
    omc_sideband_transfer,
    simulate_tomography_trace,
    total_efficiency,
)
from .errors import DomainError, InconsistentObservationError, ThresholdError, ValidationError
from .phasematch import calibrate_from_extrema, delta_k, find_conversion_extrema
from .roots import newton
from .states import (
    GaussianQuadratureState,
    SqueezeObservation,
    apply_loss,
    dephase,
    infer_loss_only,
    infer_phase_noise,
    pure_squeezed,
    variance_to_db,
)

# Tasks each scenario runs; ``custom`` runs the tasks listed in ``custom.tasks``.
SCENARIO_TASKS = {
    "fig3": ("conversion_sweep", "profiles"),
    "fig4": ("tomography",),
    "fig5": ("squeeze_sweep",),
    "custom": (),
}
SCENARIOS = tuple(SCENARIO_TASKS)

# Config sections each task reads.  A section is validated exactly when a
# task of the run reads it.
TASK_SECTIONS = {
    "conversion_sweep": ("crystal", "cavity", "fig3"),
    "profiles": ("crystal", "cavity", "fig3"),
    "tomography": ("budget", "tomography", "fig4"),
    "squeeze_sweep": ("crystal", "cavity", "budget", "fig5"),
}


# --------------------------------------------------------------------------
# configuration schema, loading and validation
#
# A check takes (path, value) and returns a path-tagged diagnostic, or None
# when the value is acceptable.


def _number(lo=None, hi=None, lo_open=False, hi_open=False):
    def check(path, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"{path}: expected a number, got {type(value).__name__}"
        # The first test catches integers too large to convert to a float.
        if abs(value) > sys.float_info.max or not math.isfinite(value):
            return f"{path}: must be finite"
        value = float(value)
        if lo is not None and (value <= lo if lo_open else value < lo):
            return f"{path}: must be {'>' if lo_open else '>='} {lo}, got {value}"
        if hi is not None and (value >= hi if hi_open else value > hi):
            return f"{path}: must be {'<' if hi_open else '<='} {hi}, got {value}"
        return None

    return check


_NUMBER = _number()
_POSITIVE = _number(lo=0.0, lo_open=True)


def _integer(lo):
    def check(path, value):
        if isinstance(value, bool) or not isinstance(value, int):
            return f"{path}: expected an integer, got {type(value).__name__}"
        return f"{path}: must be >= {lo}, got {value}" if value < lo else None

    return check


def _choice(*options):
    def check(path, value):
        if value in options:
            return None
        return f"{path}: must be one of {sorted(options)}, got {value!r}"

    return check


def _flag(path, value):
    return None if isinstance(value, bool) else f"{path}: expected true/false"


def _list(expected, min_len, max_len=math.inf, item=_NUMBER, build=None):
    """A list of ``min_len..max_len`` entries that each pass ``item``; when
    given, ``build(*entries)`` applies the domain checks of a value type."""

    def check(path, value):
        if not isinstance(value, (list, tuple)) or not min_len <= len(value) <= max_len:
            return f"{path}: expected {expected}"
        for i, entry in enumerate(value):
            message = item(f"{path}[{i}]", entry)
            if message:
                return message
        if build is not None:
            try:
                build(*value)
            except DomainError as err:
                return f"{path}: {err}"
        return None

    return check


def _profile_name(temperature) -> str:
    """Table name of the fig3 resonance profile at ``temperature`` (0.1 deg C)."""
    return f"profile_{float(temperature):.1f}C".replace(".", "p")


def _distinct_tasks(*tasks) -> None:
    """Raise DomainError when a custom run lists a task twice."""
    for i, task in enumerate(tasks):
        if task in tasks[:i]:
            raise DomainError(f"task {task!r} is listed twice")


def _distinct_profile_names(*temperatures) -> None:
    """Raise DomainError when two profile temperatures share one table name."""
    seen: dict[str, Any] = {}
    for temperature in temperatures:
        name = _profile_name(temperature)
        if name in seen:
            raise DomainError(
                f"temperatures {seen[name]} and {temperature} both write the table {name}")
        seen[name] = temperature


REQUIRED = object()  # default of a field the config must give
_FACTOR = _list("[value, uncertainty]", 2, 2, build=EfficiencyFactor)

# path: (check, default).  A field whose default is None accepts null, which
# selects that default; every other field rejects null.
FIELDS = {
    "scenario": (_choice(*SCENARIOS), REQUIRED),
    "seed": (_integer(0), REQUIRED),
    "custom.tasks": (_list("a non-empty list of tasks", 1, item=_choice(*TASK_SECTIONS),
                           build=_distinct_tasks), REQUIRED),
    "crystal.t_max_c": (_NUMBER, REQUIRED),
    "crystal.t_min1_c": (_NUMBER, REQUIRED),
    "crystal.length_m": (_POSITIVE, REQUIRED),
    "crystal.kappa": (_POSITIVE, REQUIRED),
    "cavity.round_trip_length_m": (_POSITIVE, REQUIRED),
    "cavity.coupler_transmission": (_number(0.0, 1.0, lo_open=True, hi_open=True), REQUIRED),
    "cavity.round_trip_loss": (_number(0.0, 1.0, hi_open=True), REQUIRED),
    "budget.escape": (_FACTOR, REQUIRED),
    "budget.omc_transmission": (_FACTOR, REQUIRED),
    "budget.shg_residual": (_FACTOR, REQUIRED),
    "budget.bhd_efficiency": (_FACTOR, REQUIRED),
    "budget.visibility": (_number(0.0, 1.0, lo_open=True), LossBudget.visibility),
    "budget.visibility_in_bhd": (_flag, LossBudget.visibility_in_bhd),
    "tomography.rbw_hz": (_POSITIVE, REQUIRED),
    "tomography.vbw_hz": (_POSITIVE, REQUIRED),
    "tomography.dark_db": (_NUMBER, TomographySettings.dark_db),
    "tomography.scan_shape": (_choice(*SCAN_SHAPES), TomographySettings.scan_shape),
    "tomography.scan_period_s": (_POSITIVE, TomographySettings.scan_period),
    "tomography.duration_s": (_POSITIVE, TomographySettings.duration),
    "fig3.input_power_w": (_POSITIVE, REQUIRED),
    "fig3.sweep.start_c": (_NUMBER, REQUIRED),
    "fig3.sweep.stop_c": (_NUMBER, REQUIRED),
    "fig3.sweep.points": (_integer(2), REQUIRED),
    "fig3.profile_temperatures_c": (_list("a non-empty list of temperatures", 1,
                                          build=_distinct_profile_names), REQUIRED),
    "fig3.profile_points": (_integer(11), 1501),
    "fig3.profile_span_linewidths": (_number(lo=1.0), 6.0),
    "fig4.targets_db": (_list("[squeeze_db, antisqueeze_db]", 2, 2, build=SqueezeObservation),
                        REQUIRED),
    "fig4.mode": (_choice("phase-noise", "loss-only"), "phase-noise"),
    "fig4.eta_total": (_number(0.0, 1.0, lo_open=True), None),  # None: budget product
    "fig5.input_power_w": (_POSITIVE, REQUIRED),
    "fig5.temperatures_c": (_list("a list of at least 2 temperatures", 2), REQUIRED),
    "fig5.kappa": (_POSITIVE, None),  # None: crystal.kappa
    "fig5.sideband_frequency_hz": (_POSITIVE, None),  # None: one FSR
    "fig5.phase_noise_rms_rad": (_number(lo=0.0), 0.0),
    "fig5.omc_finesse": (_number(lo=1.0, hi=2.0**511, hi_open=True), 200.0),  # 4 F^2 finite
    "fig5.spectrum_points": (_integer(2), 801),
}

# (field, other field, relation field must bear to other, diagnostic); checked
# only when both fields passed their own checks.
INVARIANTS = (
    ("crystal.t_min1_c", "crystal.t_max_c", operator.ne, "must differ from crystal.t_max_c"),
    ("tomography.vbw_hz", "tomography.rbw_hz", operator.lt,
     "must be < rbw_hz ({other}), got {value}"),
    # The ellipse fit needs at least 3 samples; a scan that aliases onto
    # fewer than 3 phases is caught by the fit's rank check instead; past
    # 2**53 samples a sample time k / vbw is inexact.  The trace_samples count
    # round(d v) is bounded on d v, which overflows to inf, not OverflowError.
    ("tomography.duration_s", "tomography.vbw_hz", lambda d, v: d * v > 2.5,
     "must span at least 3 trace samples at vbw_hz ({other}), got {value}"),
    ("tomography.duration_s", "tomography.vbw_hz", lambda d, v: d * v < 2**53,
     "must span fewer than 2**53 trace samples at vbw_hz ({other}), got {value}"),
    ("fig3.sweep.stop_c", "fig3.sweep.start_c", operator.gt, "must exceed fig3.sweep.start_c"),
)


def _get(config: Mapping[str, Any], path: str):
    """Value of the field at ``path``, or its FIELDS default when absent."""
    node: Any = config
    for key in path.split("."):
        if not isinstance(node, Mapping) or key not in node:
            return FIELDS[path][1]
        node = node[key]
    return node


def default_config_path(scenario: str) -> Path:
    return Path(__file__).parent / "configs" / f"{scenario}.yaml"


def load_config_file(path) -> dict:
    """Parse a UTF-8 YAML config file; parse errors carry line/column info."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValidationError(f"config is not UTF-8 text: {err}") from err
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ValidationError(f"config parse error{where}: {err}") from err
    if not isinstance(data, dict):
        raise ValidationError("config root must be a mapping")
    return data


def _check_fields(data: Mapping[str, Any], paths) -> tuple[list[str], dict[str, Any]]:
    """Check the fields at ``paths`` against FIELDS, then the INVARIANTS
    between two of them that both passed.

    Returns the diagnostics and the values that passed.
    """
    diagnostics: list[str] = []
    passed: dict[str, Any] = {}
    for path in paths:
        test, default = FIELDS[path]
        value = _get(data, path)
        if value is REQUIRED:
            diagnostics.append(f"{path}: missing required field")
        elif value is None and default is None:
            pass  # null selects the default
        elif message := test(path, value):
            diagnostics.append(message)
        else:
            passed[path] = value
    for path, other, holds, message in INVARIANTS:
        if path in passed and other in passed and not holds(passed[path], passed[other]):
            diagnostics.append(f"{path}: " + message.format(
                value=float(passed[path]), other=float(passed[other])))
    return diagnostics, passed


def validate_config(data: Mapping[str, Any]) -> list[str]:
    """Check ``data`` against FIELDS and INVARIANTS; returns diagnostics (empty = ok).

    Only the sections that the scenario's tasks read are checked.
    """
    head = ["scenario", "seed"]
    if _get(data, "scenario") == "custom":
        head.append("custom.tasks")
    diagnostics, passed = _check_fields(data, head)
    tasks = SCENARIO_TASKS.get(passed.get("scenario")) or passed.get("custom.tasks", ())
    sections = {section for task in tasks for section in TASK_SECTIONS[task]}
    return diagnostics + _check_fields(
        data, [path for path in FIELDS if path.split(".")[0] in sections])[0]


def _raise_if_invalid(diagnostics: list[str]) -> None:
    if diagnostics:
        raise ValidationError(
            "invalid config:\n" + "\n".join(f"  {d}" for d in diagnostics),
            diagnostics=diagnostics,
        )


def load_config(path) -> dict:
    data = load_config_file(path)
    _raise_if_invalid(validate_config(data))
    return data


def read_fields(data: Mapping[str, Any], paths: Sequence[str]) -> list:
    """Values of the fields at ``paths`` (defaults where absent), after the
    FIELDS checks of each and the INVARIANTS between them; raises
    ValidationError with path-tagged diagnostics otherwise."""
    _raise_if_invalid(_check_fields(data, paths)[0])
    return [_get(data, path) for path in paths]


# --------------------------------------------------------------------------
# pieces shared by scenarios


def _crystal(config) -> tuple:
    model = calibrate_from_extrema(_get(config, "crystal.t_max_c"),
                                   _get(config, "crystal.t_min1_c"),
                                   _get(config, "crystal.length_m"))
    return model, float(_get(config, "crystal.kappa"))


def _cavity(config) -> CavityParams:
    return CavityParams(
        round_trip_length=_get(config, "cavity.round_trip_length_m"),
        coupler_transmission=_get(config, "cavity.coupler_transmission"),
        round_trip_loss=_get(config, "cavity.round_trip_loss"),
    )


def _budget(config) -> LossBudget:
    return LossBudget(
        escape=EfficiencyFactor(*_get(config, "budget.escape")),
        omc_transmission=EfficiencyFactor(*_get(config, "budget.omc_transmission")),
        shg_residual=EfficiencyFactor(*_get(config, "budget.shg_residual")),
        bhd_efficiency=EfficiencyFactor(*_get(config, "budget.bhd_efficiency")),
        visibility=float(_get(config, "budget.visibility")),
        visibility_in_bhd=bool(_get(config, "budget.visibility_in_bhd")),
    )


def _tomography(config) -> TomographySettings:
    return TomographySettings(
        rbw=float(_get(config, "tomography.rbw_hz")),
        vbw=float(_get(config, "tomography.vbw_hz")),
        dark_db=float(_get(config, "tomography.dark_db")),
        scan_shape=str(_get(config, "tomography.scan_shape")),
        scan_period=float(_get(config, "tomography.scan_period_s")),
        duration=float(_get(config, "tomography.duration_s")),
        rng_seed=int(_get(config, "seed")),
    )


# Relative power step of the central differences that give g and the lock's R'.
SLOPE_STEP = 1e-4
SLOPE_FACTORS = np.array([1.0 - SLOPE_STEP, 1.0, 1.0 + SLOPE_STEP])
LOCK_MAX_STEPS = 50  # Newton steps of the lock before it raises NumericalError


def locked_circulating_power(params: CavityParams, p_in: float, delta_k, kappa: float,
                             length: float) -> np.ndarray:
    """Resonant circulating powers with the exact residual conversion in the loss.

    Solves ``G(p) = p (1 - r)^2 - T1 p_in = 0``, ``r = sqrt((1 - T1)(1 - min(loss_0
    + R(p), 0.999999)))`` with ``R`` the :func:`single_pass_conversion`, for each
    mismatch of the 1-D array ``delta_k``, by :func:`roots.newton` from ``p_0 =
    resonant_buildup * p_in`` inside the bracket ``G(0) <= 0 <= G(p_0)``; a step
    that leaves the bracket bisects it.  Each step is one conversion call at ``p *
    SLOPE_FACTORS``, whose outer rows give R' (0 where the loss clamps), and a row
    stops on its own at ``|step| <= 1e-13 p``, so a batch gives each row's bits
    alone.  At high drive a row can have several roots; this returns the one the
    bracketed descent from ``p_0`` reaches (fig3 at 1 W: another root than the
    tests' bisection oracle ``test_roots.bracketed_lock`` on ``[0, p_0]`` at 7 of 81
    temperatures; at 30 kW and 61.2 °C 8.42e6 W, where the bisection gives 2.65e5
    W).  Raises :class:`DomainError` for a negative or non-finite drive and
    :class:`NumericalError` for a row not stopped in ``LOCK_MAX_STEPS`` steps.
    """
    if not math.isfinite(p_in) or p_in < 0.0:
        raise DomainError(f"input power must be >= 0, got {p_in}")
    t1, loss0 = params.coupler_transmission, params.round_trip_loss
    dk = np.asarray(delta_k, dtype=float)

    def lock_and_slope(q, live):  # G(q) and G'(q) of the rows at live
        conv = single_pass_conversion(np.multiply.outer(SLOPE_FACTORS, q), dk[live], kappa, length)
        loss = loss0 + conv[1]
        r = np.sqrt((1.0 - t1) * (1.0 - np.minimum(loss, 0.999999)))
        p_slope = np.where(loss < 0.999999, (conv[2] - conv[0]) / (2.0 * SLOPE_STEP), 0.0)  # p R'
        # G' = (1 - r)^2 - 2 p (1 - r) r', with r' = -(1 - T1) R' / (2 r); R' < 0 can
        # turn it negative, and the step then leaves the bracket and bisects it.
        return (q * (1.0 - r) ** 2 - t1 * p_in,
                (1.0 - r) ** 2 + (1.0 - r) * (1.0 - t1) / r * p_slope)

    p_0 = np.full(dk.shape, params.resonant_buildup * p_in)
    return newton(lock_and_slope, p_0, np.zeros(dk.shape), p_0, xtol=0.0, rtol=1e-13,
                  maxiter=LOCK_MAX_STEPS, what=f"the lock at input power {p_in} W")


def _locked_points(model, kappa, temperatures, params: CavityParams, p_in: float) -> tuple:
    """Lock the cavity at each crystal temperature and linearize it there.

    Returns the arrays ``(delta_k, residual conversion, Kerr slope g in rad/W,
    round-trip loss with the residual conversion added, operating point)``, one
    element per temperature.  One :func:`locked_circulating_power` call locks
    every row, then one cascade call at ``p_lock * SLOPE_FACTORS`` gives each
    row's residual conversion (the middle row) and the central difference
    ``epsilon = g * p_lock * FSR`` of the :class:`OperatingPoint` (the outer
    rows).  A residual conversion that takes the round-trip loss to 1 raises
    :class:`DomainError` for the first such row.
    """
    temps = np.asarray(temperatures, dtype=float)
    dk = delta_k(model, temps)
    p_lock = locked_circulating_power(params, p_in, dk, kappa, model.length)
    res = extract_cascade_result(np.multiply.outer(SLOPE_FACTORS, p_lock), dk, kappa, model.length)
    phi_lo, _, phi_hi = res.nl_phase
    residual, fsr = res.residual_conversion[1], params.fsr
    epsilon, loss = (phi_hi - phi_lo) / (2.0 * SLOPE_STEP) * fsr, params.round_trip_loss + residual
    if np.any(saturated := loss >= 1.0):
        i = np.argmax(saturated)  # the first saturated row
        raise DomainError(f"residual conversion {residual[i]} at crystal temperature {temps[i]} C "
                          f"and input power {p_in} W takes the round-trip loss to 1")
    op = OperatingPoint(p_lock, epsilon, 0.5 * params.coupler_transmission * fsr, 0.5 * loss * fsr)
    return dk, residual, epsilon / (p_lock * fsr), loss, op


# --------------------------------------------------------------------------
# output writing


class RunWriter:
    """Deterministic writer for tables, reports and the run manifest."""

    def __init__(self, out_dir, fmt: str = "csv"):
        if fmt not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {fmt!r}")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.fmt = fmt
        self.files: dict[Path, str] = {}  # sha256 of the bytes last written to each path
        # Cells of every column written so far, keyed by dtype, shape and
        # bytes: a column repeated within a run is formatted once.
        self._cell_memo: dict[tuple, list[str]] = {}
        # An earlier run's manifest would vouch for files this run replaces.
        (self.out_dir / "manifest").unlink(missing_ok=True)

    def table(self, name: str, columns: Mapping[str, Any]) -> Path:
        """Write the equal-length 1-D numeric or bool ``columns`` (name -> array or
        list) as one table: bools are 1/0 in CSV and true/false in JSON, a non-finite
        float nan/inf in CSV and null in JSON, every other cell repr's text, and JSON
        is json.dumps's indent=2 text. A float column wider than float64 is rejected."""
        values = [np.asarray(column) for column in columns.values()]
        if any(v.ndim != 1 for v in values):
            raise ValueError(f"table {name}: columns must be 1-D, got {[v.shape for v in values]}")
        if len({len(v) for v in values}) > 1:
            raise ValueError(f"table {name}: unequal column lengths {list(map(len, values))}")
        if self.fmt == "csv":
            empty = head = ",".join(columns) + "\n"
            cell_sep, row_sep, tail = ",", "\n", "\n"
        else:
            header = json.dumps(list(columns), indent=2).replace("\n", "\n  ")
            opening = f'{{\n  "columns": {header},\n  "rows": '
            empty, head = opening + "[]\n}\n", opening + "[\n    [\n      "
            cell_sep, row_sep, tail = ",\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ]\n}\n"
        # One flat sequence [head, c00, sep, c01, ..., row_sep, c10, ..., tail]
        # with column j's cells at 1 + 2j :: 2k, joined once.
        k, n = len(values), len(values[0]) if values else 0
        seq = [cell_sep] * (2 * k * n + 1)
        seq[::2 * k or 1] = [row_sep] * (n + 1)
        for j, v in enumerate(values):
            seq[1 + 2 * j::2 * k] = self._cells(v)
        seq[0], seq[-1] = (head, tail) if n else ("", empty)  # no rows: one slot
        text = "".join(seq)
        del seq  # the write encodes a copy of text; let it reuse this memory
        return self.text(f"{name}.{self.fmt}", text)

    def _cells(self, v: np.ndarray) -> list[str]:
        # Checked before the key is built: an object array's bytes are pointers,
        # and a float wider than float64 has no repr that is a number.
        if v.dtype.kind not in "biuf" or (v.dtype.kind == "f" and v.dtype.itemsize > 8):
            raise ValueError(f"table columns must be numeric or bool, with floats of at most "
                             f"64 bits, got dtype {v.dtype}")
        key = (v.dtype.str, v.tobytes())
        if key not in self._cell_memo:
            self._cell_memo[key] = self._format(v)
        return self._cell_memo[key]

    def _format(self, v: np.ndarray) -> list[str]:
        if v.dtype.kind == "b":
            return np.where(v, *(("true", "false") if self.fmt == "json" else ("1", "0"))).tolist()
        if v.dtype.kind in "iu":
            return list(map(repr, v.tolist()))
        # orjson writes repr's shortest digits; four classes of cells differ in
        # layout and are fixed cell by cell: nonzero |x| < 1e-5 with a one-digit
        # exponent (orjson 1.5e-7, repr 1.5e-07), |x| in [1e-5, 1e-4) (orjson
        # 0.000015, repr 1.5e-05), finite |x| >= 1e16 (orjson 1e16, repr 1e+16),
        # and non-finite values (orjson null, kept in JSON; repr in CSV).
        if not len(v):
            return []  # "[]" would split into [""]
        v = np.require(v, np.float64, "CA")  # float16/32 upcast exactly
        text = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        cells, magnitude = text.split(","), np.abs(v)
        if "e" in text:  # a one-character scan spares most columns these two masks
            for i in np.flatnonzero((magnitude >= 1e-9) & (magnitude < 1e-5)).tolist():
                cells[i] = f"{cells[i][:-1]}0{cells[i][-1]}"
            for i in np.flatnonzero((magnitude >= 1e16) & (magnitude < np.inf)).tolist():
                cells[i] = cells[i].replace("e", "e+")
        for i in np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e-4)).tolist():
            sign, _, digits = cells[i].partition("0.0000")
            cells[i] = f"{sign}{digits[0]}{'.' * (len(digits) > 1)}{digits[1:]}e-05"
        if self.fmt == "csv" and "n" in text:  # null, the only cell with an n
            for i in np.flatnonzero(~np.isfinite(v)).tolist():
                cells[i] = repr(float(v[i]))
        return cells

    def report(self, name: str, payload: Mapping[str, Any]) -> Path:
        return self.text(f"{name}.json", report_json(payload))

    def text(self, name: str, content: str) -> Path:
        """Write ``content`` as UTF-8 to ``name``; every file of the run goes through here."""
        path, data = self.out_dir / name, content.encode()
        self.files[path] = hashlib.sha256(data).hexdigest()  # before the write: discard sees it
        path.write_bytes(data)
        return path

    def discard(self) -> None:
        """Delete every file this writer wrote."""
        for path in self.files:
            path.unlink(missing_ok=True)
        self.files.clear()

    def manifest(self, scenario: str, seed: int, config_text: str) -> Path:
        config_hash = hashlib.sha256(config_text.encode()).hexdigest()
        lines = [
            f"artifact: kerrsqueezer {_VERSION}",
            f"scenario: {scenario}",
            f"seed: {seed}",
            f"format: {self.fmt}",
            f"config_sha256: {config_hash}",
            "outputs:",
        ]
        for path, digest in sorted(self.files.items()):
            lines.append(f"  {path.name}: sha256={digest}")
        path = self.out_dir / "manifest"
        path.write_text("\n".join(lines) + "\n")
        return path


def report_json(payload) -> str:
    """Strict JSON text of a report, with a null for every non-finite float."""
    return json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _jsonify(obj):
    """Plain JSON types of a report: Python numbers, None for non-finite floats."""
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return str(obj)


# --------------------------------------------------------------------------
# scenario runners


def _first_minimum(model, extrema) -> Optional[float]:
    """The first conversion minimum above ``t_pm`` among ``extrema``, or None."""
    return next((t for t, k in extrema if k == "min" and t > model.t_pm), None)


def run_conversion_sweep(config, writer: RunWriter) -> dict:
    """Conversion-vs-temperature table and extrema report (fig3 core)."""
    model, kappa = _crystal(config)
    params = _cavity(config)
    p_in = float(_get(config, "fig3.input_power_w"))
    t_range = (float(_get(config, "fig3.sweep.start_c")), float(_get(config, "fig3.sweep.stop_c")))
    temps = np.linspace(*t_range, int(_get(config, "fig3.sweep.points")))
    # The exact conversion at the ideal resonant circulating power of the base cavity.
    p_drive, dk = params.resonant_buildup * p_in, delta_k(model, temps)
    writer.table("conversion_sweep", {"T_celsius": temps, "delta_k": dk, "shg_efficiency":
                                      single_pass_conversion(p_drive, dk, kappa, model.length)})
    extrema = find_conversion_extrema(model, t_range)
    writer.table("extrema", {"T_celsius": [t for t, _ in extrema],
                             "kind_is_max": [k == "max" for _, k in extrema]})
    return {
        "extrema": [{"T_celsius": t, "kind": k} for t, k in extrema],
        "drive_power_w": p_drive,
        "first_minimum_c": _first_minimum(model, extrema),
    }


def run_profiles(config, writer: RunWriter) -> dict:
    """Cavity resonance profiles at selected crystal temperatures."""
    model, kappa = _crystal(config)
    params = _cavity(config)
    p_in = float(_get(config, "fig3.input_power_w"))
    n_points = int(_get(config, "fig3.profile_points"))
    span_lw = float(_get(config, "fig3.profile_span_linewidths"))

    temperatures = _get(config, "fig3.profile_temperatures_c")
    _, _, g, loss, op = _locked_points(model, kappa, temperatures, params, p_in)
    out = []
    for temperature, g_i, loss_i, p_lock in zip(temperatures, g.tolist(), loss.tolist(),
                                                op.p_circ.tolist()):
        scan_params = replace(params, round_trip_loss=loss_i)
        span = span_lw * scan_params.linewidth_phase_fwhm + 1.6 * abs(g_i) * p_lock
        detunings = np.linspace(-span, span, n_points)
        profile = scan_profile(scan_params, p_in, detunings, g_i)
        writer.table(_profile_name(temperature), {
            "detuning_rad": detunings, "p_circ_W": profile.p_circ,
            "p_trans_W": MONITOR_TRANSMISSION * profile.p_circ})
        out.append({"temperature_c": float(temperature), "asymmetry": profile.asymmetry,
                    "bistable": profile.multi_branch, "kerr_slope_rad_per_w": g_i,
                    "locked_power_w": p_lock})
    return {"profiles": out}


def run_tomography(config, writer: RunWriter) -> dict:
    """Tomography traces plus an observation summary from the fitted ellipse (fig4)."""
    target_sq, target_anti = (float(x) for x in _get(config, "fig4.targets_db"))
    mode = _get(config, "fig4.mode")
    obs = SqueezeObservation(target_sq, target_anti)

    if mode == "loss-only":
        fit = infer_loss_only(obs)
        eta, r, sigma = fit.eta, fit.r, 0.0
    else:
        eta_cfg = _get(config, "fig4.eta_total")
        eta = float(eta_cfg) if eta_cfg is not None else total_efficiency(_budget(config)).value
        fit = infer_phase_noise(obs, eta)
        r, sigma = fit.r, fit.sigma

    source = pure_squeezed(r)
    delivered = dephase(apply_loss(source, eta), sigma)

    settings = _tomography(config)
    vacuum_state = pure_squeezed(0.0)
    trace_vac = simulate_tomography_trace(vacuum_state, settings)
    trace_sqz = simulate_tomography_trace(delivered,
                                          replace(settings, rng_seed=settings.rng_seed + 1))
    for name, trace in (("trace_vacuum", trace_vac), ("trace_squeezed", trace_sqz)):
        writer.table(name, {"t_seconds": trace.time, "theta_rad": trace.theta,
                            "measured_dB": trace.measured_db})

    ellipse = fit_quadrature_ellipse(trace_sqz.theta, trace_sqz.measured_db, settings.dark_variance)
    return {
        "mode": mode,
        "targets_db": {"squeeze": target_sq, "antisqueeze": target_anti},
        "calibration": {"eta_total": eta, "r": r, "sigma_rad": sigma},
        # Implied pump ratio of the equivalent on-resonance source:
        # epsilon/gamma = tanh(r/2) < 1, always below threshold.
        "pump_ratio": math.tanh(r / 2.0),
        "delivered_state": {"v_min": delivered.v_min, "v_max": delivered.v_max},
        "summary_db": {
            "squeeze": -variance_to_db(ellipse.v_min),
            "antisqueeze": variance_to_db(ellipse.v_max),
        },
        "dark_db": settings.dark_db,
        "dark_handling": "traces include dark noise; the summary fit removes it",
    }


def run_squeeze_sweep(config, writer: RunWriter) -> dict:
    """Squeeze/anti-squeeze vs temperature at one sideband (fig5 core).

    Residual conversion enters the round-trip loss, the cascade phase
    slope sets the pump rate, and the post-cavity chain applies the
    mode-cleaner and detector efficiencies (escape and residual-SHG losses
    already live inside the cavity here).  Rows where ``|delta_k L| < pi``
    are flagged: there the neglected depletion mechanism dominates and the
    model is not expected to track measurements.
    """
    model, kappa = _crystal(config)
    if _get(config, "fig5.kappa") is not None:
        kappa = float(_get(config, "fig5.kappa"))
    params = _cavity(config)
    p_in = float(_get(config, "fig5.input_power_w"))
    temps = np.asarray(_get(config, "fig5.temperatures_c"), dtype=float)
    budget = _budget(config)
    sigma = float(_get(config, "fig5.phase_noise_rms_rad"))
    finesse = float(_get(config, "fig5.omc_finesse"))

    freq_cfg = _get(config, "fig5.sideband_frequency_hz")
    frequency = float(freq_cfg) if freq_cfg is not None else params.fsr
    comb = sideband_comb_map(params.fsr, frequency)
    eta_chain = (
        budget.omc_transmission.value
        * omc_sideband_transfer(params.fsr, finesse, frequency)
        * budget.bhd_efficiency.value
    )
    eta_chain *= budget.visibility_factor

    dks, residuals, _, losses, ops = _locked_points(model, kappa, temps, params, p_in)
    below = ops.below_threshold
    if not np.any(below):
        raise ThresholdError(
            f"every fig5 row is at or above threshold (headroom {np.min(ops.headroom):.3f} "
            f"to {np.max(ops.headroom):.3f}); lower fig5.kappa or fig5.input_power_w"
        )

    def rows(pick):  # the operating points of the rows ``pick`` selects
        return replace(ops, p_circ=ops.p_circ[pick], epsilon=ops.epsilon[pick],
                       gamma_loss=ops.gamma_loss[pick])

    # Cavity output (vmin, vmax) and observed (squeeze, antisqueeze) variances of
    # the rows below threshold, then their dB from one call; NaN at or above threshold.
    point = squeezing_spectrum(rows(below), comb.omega)
    observed = dephase(apply_loss(GaussianQuadratureState(*point), eta_chain), sigma)
    db = np.full((len(temps), 4), math.nan)
    db[below] = variance_to_db(np.stack([point.v_min, point.v_max, observed.v_min,
                                         observed.v_max], axis=1)) * [1.0, 1.0, -1.0, 1.0]
    outside = np.abs(dks * model.length) < math.pi
    writer.table("squeeze_sweep", {
        "T_celsius": temps, "delta_k": dks, "residual_conversion": residuals,
        "round_trip_loss": losses, "p_circ_W": ops.p_circ, "epsilon_rad_s": ops.epsilon,
        "vmin_dB": db[:, 0], "vmax_dB": db[:, 1],
        "squeeze_dB": db[:, 2], "antisqueeze_dB": db[:, 3],
        "outside_spm_regime": outside,
    })
    records = [{"temperature_c": t, "squeeze_db": sq, "antisqueeze_db": anti,
                "outside_spm_regime": out, "above_threshold": not ok}
               for t, sq, anti, out, ok in zip(temps.tolist(), db[:, 2].tolist(), db[:, 3].tolist(),
                                                outside.tolist(), below.tolist())]

    i_best = int(np.nanargmax(db[:, 2]))
    best = records[i_best]
    first_minimum = _first_minimum(
        model, find_conversion_extrema(model, (temps.min(), temps.max())))

    # Spectrum export at the best temperature.
    freqs = np.linspace(0.0, 4.0 * params.fsr, int(_get(config, "fig5.spectrum_points")))
    spec = squeezing_spectrum(rows(i_best), sideband_comb_map(params.fsr, freqs).omega)
    writer.table("spectrum", {"f_Hz": freqs, "vmin_dB": variance_to_db(spec.v_min),
                              "vmax_dB": variance_to_db(spec.v_max), "theta_rad": spec.theta_min})

    return {
        "sideband_frequency_hz": frequency,
        "comb_index": comb.index,
        "comb_offset_rad_s": comb.omega,
        "chain_efficiency": eta_chain,
        "phase_noise_rms_rad": sigma,
        "kappa": kappa,
        "best": best,
        "first_minimum_c": first_minimum,
        "peak_at_first_minimum": (
            first_minimum is not None
            and abs(best["temperature_c"] - first_minimum) < 0.5
        ),
        "loss_note": "escape and residual conversion are modeled inside the cavity; "
        "the chain applies OMC and BHD factors only",
        "rows": records,
    }


# Runner of each task in TASK_SECTIONS.
_RUNNERS = {
    "conversion_sweep": run_conversion_sweep,
    "profiles": run_profiles,
    "tomography": run_tomography,
    "squeeze_sweep": run_squeeze_sweep,
}


def run_scenario(config: Mapping[str, Any], out_dir, fmt: str = "csv",
                 seed: int | None = None) -> dict:
    """Validate a config (with ``seed`` overriding its seed), run its tasks
    (SCENARIO_TASKS) and write the manifest.  If a task raises, the files
    this run wrote are deleted before the error propagates.

    The returned summary, also written as ``summary.json``, holds one entry
    per task in a custom run; the shipped scenarios merge their tasks'
    summaries into one.
    """
    resolved = dict(config)
    if seed is not None:
        resolved["seed"] = int(seed)
    _raise_if_invalid(validate_config(resolved))
    scenario, seed = resolved["scenario"], resolved["seed"]

    writer = RunWriter(out_dir, fmt)
    config_text = yaml.dump(resolved, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    tasks = SCENARIO_TASKS[scenario] or resolved["custom"]["tasks"]
    try:
        writer.text("resolved_config.yaml", config_text)
        results = {task: _RUNNERS[task](resolved, writer) for task in tasks}
        if scenario != "custom":
            results = {key: value for result in results.values() for key, value in result.items()}
        writer.report("summary", results)
        writer.manifest(scenario, seed, config_text)
    except BaseException:
        writer.discard()
        raise
    return results


# --------------------------------------------------------------------------
# inference reports


def loss_only_report(squeeze_db: float, antisqueeze_db: float) -> dict:
    """Report of ``infer loss-only``: efficiency and source squeeze parameter."""
    obs = _observation(squeeze_db, antisqueeze_db)
    fit = infer_loss_only(obs)
    forward = apply_loss(pure_squeezed(fit.r), fit.eta)
    return {
        "kind": "loss-only",
        "inputs": {"squeeze_db": obs.squeeze_db, "antisqueeze_db": obs.antisqueeze_db},
        "eta": fit.eta,
        "r": fit.r,
        "source_squeeze_db": -variance_to_db(math.exp(-2 * fit.r)),
        "forward_check_db": {
            "squeeze": -variance_to_db(forward.v_min),
            "antisqueeze": variance_to_db(forward.v_max),
        },
    }


def phase_noise_report(squeeze_db: float, antisqueeze_db: float, eta: float) -> dict:
    """Report of ``infer phase-noise``: squeeze parameter and jitter at known ``eta``."""
    obs = _observation(squeeze_db, antisqueeze_db)
    eta = float(eta)
    fit = infer_phase_noise(obs, eta)
    return {
        "kind": "phase-noise",
        "inputs": {"squeeze_db": obs.squeeze_db, "antisqueeze_db": obs.antisqueeze_db,
                   "eta": eta},
        "r": fit.r,
        "sigma_rad": fit.sigma,
        "residual_db": fit.residual_db,
    }


def budget_report(factors: Sequence[float], sigmas: Optional[Sequence[float]],
                  visibility: float, visibility_in_bhd: bool) -> dict:
    """Report of ``infer budget``; ``sigmas=None`` gives exact factors."""
    sigmas = sigmas or [0.0] * len(factors)
    if len(factors) != 4 or len(sigmas) != 4:
        raise ValidationError("budget inference expects exactly 4 factors")
    budget = LossBudget(
        escape=EfficiencyFactor(factors[0], sigmas[0]),
        omc_transmission=EfficiencyFactor(factors[1], sigmas[1]),
        shg_residual=EfficiencyFactor(factors[2], sigmas[2]),
        bhd_efficiency=EfficiencyFactor(factors[3], sigmas[3]),
        visibility=float(visibility),
        visibility_in_bhd=bool(visibility_in_bhd),
    )
    total = total_efficiency(budget)
    return {
        "kind": "budget",
        "factors": {
            name: {"value": f.value, "sigma": f.sigma} for name, f in budget.factors()
        },
        "visibility": budget.visibility,
        "visibility_in_bhd": budget.visibility_in_bhd,
        "total": {"value": total.value, "sigma": total.sigma},
    }


def _observation(squeeze_db: float, antisqueeze_db: float) -> SqueezeObservation:
    try:
        return SqueezeObservation(float(squeeze_db), float(antisqueeze_db))
    except DomainError as err:
        if not (math.isfinite(squeeze_db) and math.isfinite(antisqueeze_db)):
            raise  # a bad argument, not an observation
        # An impossible pair is an inconsistent observation at this level.
        raise InconsistentObservationError(str(err)) from err
