"""Seeded workload generator: YAML configs for the three benchmark workloads.

Each workload is a fixed ladder of five configs whose sizes (rows,
profiles, trace samples) span the range the workload covers; the seed draws everything else (temperatures, powers, targets, modes, order
and the config ``seed`` field).  A fixed size ladder keeps the amount of
work, and so the median call time, the same for every seed, while the
inputs themselves differ.  The program under test only ever sees the
written YAML files.

    python3 bench/workloads.py --workload squeeze_sweep --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from checks import forward_db

CALIBRATION_POINTS_C = (40.5, 61.2, 81.9)

CRYSTAL = {"t_max_c": 40.5, "t_min1_c": 61.2, "length_m": 0.0093, "kappa": 14.0}
CAVITY = {
    "round_trip_length_m": 0.838,
    "coupler_transmission": 0.01,
    "round_trip_loss": 0.0019,
    "detuning_rad": 0.0,
}
BUDGET = {
    "escape": [0.84, 0.02],
    "omc_transmission": [0.89, 0.01],
    "shg_residual": [0.98, 0.01],
    "bhd_efficiency": [0.90, 0.04],
    "visibility": 0.97,
    "visibility_in_bhd": True,
}


@dataclass(frozen=True)
class Workload:
    """A workload's scenario, output format and unit of work (see BENCHMARK.json)."""

    name: str
    scenario: str
    fmt: str
    unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("squeeze_sweep", "fig5", "csv", "sweep rows"),
        Workload("resonance_scan", "fig3", "csv", "profile detuning points"),
        Workload("tomography", "fig4", "json", "trace samples"),
    )
}

# Sizes of one pass, one entry per config (see the module docstring).
ROW_LADDER = (10, 15, 20, 25, 30)
# (profile count, input power band in W); 15 mW and above is bistable at the first zero.
PROFILE_LADDER = ((2, 0.005, 0.015), (2, 0.015, 0.030), (3, 0.005, 0.012),
                  (3, 0.012, 0.020), (3, 0.020, 0.030))
SAMPLE_LADDER = (10_000, 15_000, 20_000, 25_000, 30_000)
TRACE_VBW_HZ = 200.0


@dataclass
class Case:
    """One generated config and the work it represents."""

    index: int
    config: dict
    units: int
    path: Path | None = None


def _squeeze_sweep(rng: random.Random, rows: int) -> dict:
    temps = set(CALIBRATION_POINTS_C)
    while len(temps) < rows:
        temps.add(round(rng.uniform(40.5, 85.0), 2))
    return {
        "scenario": "fig5",
        "crystal": dict(CRYSTAL),
        "cavity": dict(CAVITY),
        "budget": dict(BUDGET),
        "fig5": {
            "input_power_w": round(rng.uniform(0.060, 0.110), 6),
            "kappa": 3.2,
            "temperatures_c": sorted(temps),
            "sideband_frequency_hz": None,
            "phase_noise_rms_rad": 0.0,
            "omc_finesse": 200.0,
            "spectrum_points": 801,
        },
    }


def _resonance_scan(rng: random.Random, profiles: int, p_lo: float, p_hi: float) -> dict:
    # The maximum is exact (zero Kerr slope, so the Airy check applies);
    # the zeros are jittered by up to 0.3 C.
    temps = [40.5] + [round(t + rng.uniform(-0.3, 0.3), 2) for t in CALIBRATION_POINTS_C[1:]]
    return {
        "scenario": "fig3",
        "crystal": dict(CRYSTAL),
        "cavity": dict(CAVITY),
        "fig3": {
            "input_power_w": round(rng.uniform(p_lo, p_hi), 6),
            "sweep": {"start_c": 20.0, "stop_c": 88.0, "points": 341},
            "profile_temperatures_c": temps[:profiles],
            "profile_points": 1501,
            "profile_span_linewidths": 6.0,
        },
    }


def _tomography(rng: random.Random, samples: int, mode: str) -> dict:
    eta = rng.uniform(0.5, 0.85)
    r = rng.uniform(0.4, 1.2)
    sigma = rng.uniform(0.03, 0.15) if mode == "phase-noise" else 0.0
    squeeze, antisqueeze = forward_db(r, eta, sigma)
    return {
        "scenario": "fig4",
        "budget": dict(BUDGET),
        "tomography": {
            "lo_power_w": 0.004,
            "rbw_hz": 500.0e3,
            "vbw_hz": TRACE_VBW_HZ,
            "dark_db": round(rng.uniform(-10.0, -6.0), 3),
            "scan_shape": rng.choice(["triangle", "sine", "sawtooth"]),
            "scan_period_s": round(rng.uniform(1.0, 4.0), 3),
            "duration_s": samples / TRACE_VBW_HZ,
        },
        "fig4": {
            "targets_db": [squeeze, antisqueeze],
            "mode": mode,
            "eta_total": eta if mode == "phase-noise" else None,
        },
    }


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's configs for ``seed``, in the seeded run order."""
    rng = random.Random(f"{workload}/{seed}")
    cases = []
    if workload == "squeeze_sweep":
        for i, rows in enumerate(ROW_LADDER):
            cases.append(Case(i, _squeeze_sweep(rng, rows), rows))
    elif workload == "resonance_scan":
        for i, (profiles, p_lo, p_hi) in enumerate(PROFILE_LADDER):
            config = _resonance_scan(rng, profiles, p_lo, p_hi)
            cases.append(Case(i, config, profiles * config["fig3"]["profile_points"]))
    elif workload == "tomography":
        flip = rng.randrange(2)
        for i, samples in enumerate(SAMPLE_LADDER):
            mode = ("phase-noise", "loss-only")[(i + flip) % 2]
            cases.append(Case(i, _tomography(rng, samples, mode), 2 * samples))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    for case in cases:
        case.config["seed"] = rng.randrange(2**31)
    rng.shuffle(cases)
    return cases


def write_configs(workload: str, seed: int, out_dir) -> list[Case]:
    """Generate, write and validate the configs; raise if any is invalid."""
    from kerrsqueezer.scenarios import load_config_file, validate_config

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = generate(workload, seed)
    for case in cases:
        case.path = out_dir / f"{workload}_{case.index}.yaml"
        case.path.write_text(yaml.safe_dump(case.config, sort_keys=True))
        diagnostics = validate_config(load_config_file(case.path))
        if diagnostics:
            raise ValueError(f"generated config {case.path.name} is invalid: {diagnostics}")
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for case in write_configs(args.workload, args.seed, args.out):
        print(f"{case.path}  ({case.units} {WORKLOADS[args.workload].unit})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
