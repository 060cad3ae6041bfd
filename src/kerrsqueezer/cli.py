"""Command-line interface.

Exit codes: 0 success, 1 validation problem (bad config, bad arguments,
bad physical domain), 2 numerical failure, 3 inconsistent observation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import (
    DomainError,
    InconsistentObservationError,
    NumericalError,
    ValidationError,
)
from .phasematch import calibrate_from_extrema, find_conversion_extrema
from .scenarios import (
    SCENARIOS,
    budget_report,
    default_config_path,
    load_config,
    load_config_file,
    loss_only_report,
    phase_noise_report,
    read_fields,
    report_json,
    run_scenario,
    validate_config,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_INCONSISTENT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves no state in the parser, as each
    # parse_args call starts a fresh namespace from the defaults.
    parser = _Parser(prog="kerrsqueezer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a measurement scenario")
    run.add_argument("scenario", choices=SCENARIOS)
    run.add_argument("--config", type=Path, help="YAML config (default: packaged)")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", type=Path, help="output directory (default: runs/<scenario>)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    infer = sub.add_parser("infer", help="parameter inference from observations")
    infer_sub = infer.add_subparsers(dest="kind", required=True)

    loss = infer_sub.add_parser("loss-only", help="efficiency if loss were the only decoherence")
    loss.add_argument("--sqz", type=float, required=True, help="squeezing in dB below vacuum")
    loss.add_argument("--antisqz", type=float, required=True, help="anti-squeezing in dB")
    loss.add_argument("--out", type=Path)

    phase = infer_sub.add_parser("phase-noise", help="squeeze parameter and jitter at known eta")
    phase.add_argument("--sqz", type=float, required=True)
    phase.add_argument("--antisqz", type=float, required=True)
    phase.add_argument("--eta", type=float, required=True, help="known total efficiency")
    phase.add_argument("--out", type=Path)

    budget = infer_sub.add_parser("budget", help="total efficiency of a factor chain")
    budget.add_argument("factors", type=float, nargs=4,
                        metavar=("ESCAPE", "OMC", "SHG", "BHD"))
    budget.add_argument("--unc", type=float, nargs=4, metavar=("U1", "U2", "U3", "U4"),
                        help="one-sigma uncertainties of the four factors")
    budget.add_argument("--visibility", type=float, default=1.0)
    budget.add_argument("--visibility-standalone", action="store_true",
                        help="multiply by visibility^2 instead of assuming it inside BHD")
    budget.add_argument("--out", type=Path)

    validate = sub.add_parser("validate", help="validate a config file")
    validate.add_argument("--config", type=Path, required=True)

    extrema = sub.add_parser("extrema", help="conversion extrema of a calibrated crystal")
    extrema.add_argument("--config", type=Path, help="read the crystal section from a config")
    extrema.add_argument("--t-max", type=float, help="conversion maximum, deg C")
    extrema.add_argument("--t-min1", type=float, help="first conversion zero, deg C")
    extrema.add_argument("--length", type=float, help="crystal length, m")
    extrema.add_argument("--range", type=float, nargs=2, default=(20.0, 88.0),
                         metavar=("LO", "HI"))

    return parser


def _cmd_run(args) -> int:
    if args.config is None and args.scenario == "custom":
        raise ValidationError("scenario 'custom' has no packaged config; pass --config")
    config_path = args.config or default_config_path(args.scenario)
    config = load_config(config_path)
    if config["scenario"] != args.scenario:
        raise ValidationError(
            f"config is for scenario {config['scenario']!r}, not {args.scenario!r}"
        )
    out_dir = args.out or Path("runs") / args.scenario
    summary = run_scenario(config, out_dir, fmt=args.format, seed=args.seed)
    print(report_json({"out_dir": str(out_dir), "summary": summary}), end="")
    return EXIT_OK


def _cmd_infer(args) -> int:
    if args.kind == "loss-only":
        report = loss_only_report(args.sqz, args.antisqz)
    elif args.kind == "phase-noise":
        report = phase_noise_report(args.sqz, args.antisqz, args.eta)
    else:
        report = budget_report(args.factors, args.unc, args.visibility,
                               not args.visibility_standalone)
    text = report_json(report)
    print(text, end="")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"infer_{args.kind}.json").write_text(text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    data = load_config_file(args.config)
    diagnostics = validate_config(data)
    if diagnostics:
        for line in diagnostics:
            print(line, file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def _cmd_extrema(args) -> int:
    if args.config is not None:
        t_max, t_min1, length = read_fields(
            load_config_file(args.config),
            ("crystal.t_max_c", "crystal.t_min1_c", "crystal.length_m"),
        )
    elif None in (args.t_max, args.t_min1, args.length):
        raise ValidationError(
            "extrema needs --config or all of --t-max, --t-min1, --length"
        )
    else:
        t_max, t_min1, length = args.t_max, args.t_min1, args.length
    model = calibrate_from_extrema(float(t_max), float(t_min1), float(length))
    found = find_conversion_extrema(model, tuple(args.range))
    print(report_json({
        "model": {"t_pm_c": model.t_pm, "dk_dt": model.dk_dt, "length_m": model.length},
        "extrema": [{"T_celsius": t, "kind": k} for t, k in found],
    }), end="")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "infer":
            return _cmd_infer(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_extrema(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValidationError, DomainError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except InconsistentObservationError as err:
        msg = f"inconsistent observation: {err}"
        if err.residual is not None:
            msg += f" (residual {err.residual:.3e})"
        print(msg, file=sys.stderr)
        return EXIT_INCONSISTENT
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
