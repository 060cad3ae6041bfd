"""kerrsqueezer benchmark: seeded scenario workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload squeeze_sweep --seed 1 --seconds 35 --trace 0

One client in one process calls ``kerrsqueezer.cli.main(["run", ...])``
back to back (a closed loop, no threads) on YAML configs generated from
the seed, and checks every run's outputs against physics oracles.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.

Host noise, measured on a shared 2-core host: medians of 10-call batches
drifted by up to ~20% between back-to-back batches, and process CPU time
tracked wall time exactly, so CPU time would not be steadier.  Run length
and ordering steady the figures within a run: every pass runs the whole
config ladder, a run repeats passes for --seconds, and set-up is timed as
the median of several fresh interpreters started at even intervals
through the run.  Between runs the whole host drifts by 20-30% over
minutes as well, so each run also times a fixed reference task that does
not touch the program, and reports its times scaled to the reference
host speed (see host_scale).  The unscaled figures are on a ``#`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_run, read_table
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
REFERENCE_FILE = BENCH_DIR / "reference_manifests.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 12
SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "import kerrsqueezer.cli as cli; cli.load_config(sys.argv[2])")
# The host-speed reference: a fresh interpreter importing the third-party
# modules the program uses, and nothing of the program itself.
REFERENCE_TASK = "import numpy, scipy.constants, scipy.optimize, yaml"
# Median time of REFERENCE_TASK on the 2-core Xeon host of the README
# baselines; a run whose reference task takes longer ran on a slower host.
REFERENCE_TASK_S = 0.60


def _import_program():
    """Import the checkout's own ``kerrsqueezer``; exit nonzero if it is not there."""
    if not (SRC / "kerrsqueezer" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'kerrsqueezer'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kerrsqueezer.cli

    if Path(kerrsqueezer.cli.__file__).resolve().parent != SRC / "kerrsqueezer":
        sys.exit(f"bench: imported {kerrsqueezer.cli.__file__}, not the checkout's program")
    return kerrsqueezer.cli


def environment() -> str:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, cpu {cpu}")


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


class Bench:
    """One benchmark run: generated cases, calls, checks and their records."""

    def __init__(self, cli, workload: str, cases, work_dir: Path):
        self.cli = cli
        self.workload = WORKLOADS[workload]
        self.cases = cases
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.manifests: dict[int, str] = {}  # case index -> first manifest seen
        self.on_output = None  # optional callback(out_dir) before outputs are removed

    def call(self, case) -> tuple[float, bool]:
        """Run one config through the CLI, check it; return (seconds, passed)."""
        self.attempted += 1
        out_dir = self.work_dir / f"out_{self.attempted}"
        argv = ["run", self.workload.scenario, "--config", str(case.path),
                "--out", str(out_dir), "--format", self.workload.fmt]
        printed = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = self.cli.main(argv)
        except Exception:  # a crashing run is a failed run, not a crashed harness
            error = traceback.format_exc(limit=3)
        except SystemExit as exc:
            code = exc.code
        seconds = time.perf_counter() - start
        if error is not None:
            problems = [f"raised: {error}"]
        elif code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = self.check(case, out_dir, printed.getvalue())
        if self.on_output is not None:
            self.on_output(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"{case.path.name}: {p}" for p in problems]
        return seconds, not problems

    def check(self, case, out_dir: Path, printed: str) -> list[str]:
        try:
            summary = json.loads(printed)
        except json.JSONDecodeError as err:
            return [f"printed summary is not JSON: {err}"]
        problems = check_run(self.workload.name, case.config, out_dir, summary)
        manifest = _manifest_text(out_dir)
        first = self.manifests.setdefault(case.index, manifest)
        if manifest != first:
            problems.append("manifest differs from an earlier run of the same (config, seed)")
        return problems

    def passes(self, seconds: float, min_passes: int, between=None):
        """Whole passes over the cases until ``seconds`` have elapsed.

        Returns the call times per case index (as a dict of lists), the
        number of calls that passed per case index and the pass count.
        ``between(elapsed)`` runs after every call, outside the call times.
        """
        times = {case.index: [] for case in self.cases}
        passed = dict.fromkeys(times, 0)
        done = 0
        start = time.perf_counter()
        while done < min_passes or time.perf_counter() - start < seconds:
            for case in self.cases:
                seconds_taken, ok = self.call(case)
                times[case.index].append(seconds_taken)
                passed[case.index] += ok
                if between is not None:
                    between(time.perf_counter() - start)
            done += 1
        return times, passed, done


def median_time(times: dict) -> float:
    return statistics.median(t for per_case in times.values() for t in per_case)


def best_rate(cases, times: dict, passed: dict) -> float:
    """Units of passing calls per second, each config timed by its fastest call.

    The host has slow phases of 10-60 s in which every call takes up to
    twice its fastest time.  A per-config median of about ten calls moves
    with the share of a run those phases cover (IQR/median up to 0.25 over
    ten runs); a config's fastest call is the one they touched least, and
    spreads about half as much.
    """
    units = sum(c.units * passed[c.index] / len(times[c.index]) for c in cases)
    return units / sum(min(times[c.index]) for c in cases)


def _interpreter_s(*argv: str) -> float:
    """Wall time of a fresh interpreter running ``python -c *argv``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", *argv], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_once(config_path: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and loading a config."""
    return _interpreter_s(SETUP_SNIPPET, str(SRC), str(config_path))


def host_scale(reference: list[float]) -> float:
    """Factor that turns times of this run into times at the reference host speed.

    The host's speed drifts by 20-30% over minutes, and a run's call and
    set-up times move with it together (log correlation 0.85-0.93 between
    a run's median call and its median set-up over 60 runs).  The
    reference task does not touch the program, so a change to the program
    moves the scaled times as it moves the raw ones, while the drift of
    the host cancels.
    """
    return REFERENCE_TASK_S / statistics.median(reference)


def end_to_end(bench: Bench, args) -> dict:
    bench.call(bench.cases[0])  # warm-up: lazy imports and caches, checked but not timed
    setup: list[float] = []
    reference: list[float] = []
    config_path = bench.cases[0].path

    def sample_host(elapsed):
        # Set-up and reference samples are spread evenly over the run, so
        # that a slow phase of the host does not hit all of them.
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
            reference.append(_interpreter_s(REFERENCE_TASK))
            setup.append(setup_once(config_path))

    times, passed, passes = bench.passes(args.seconds, min_passes=2, between=sample_host)
    while len(setup) < SETUP_REPEATS:
        sample_host(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = host_scale(reference)
    raw = {"run_s_p50": median_time(times),
           "units_per_s": best_rate(bench.cases, times, passed),
           "setup_s": statistics.median(setup)}
    print(f"# {passes * len(bench.cases)} timed calls in {passes} passes of "
          f"{len(bench.cases)} configs; unit: {bench.workload.unit}; "
          f"{len(setup)} set-up and reference samples")
    print(f"# reference task {statistics.median(reference):.4f} s (median), host_scale "
          f"{scale:.4f}; unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"# fail_ratio = {bench.failed}/{bench.attempted} failed/attempted")
    return {
        "run_s_p50": (raw["run_s_p50"] * scale, "s"),
        "units_per_s": (raw["units_per_s"] / scale, "units/s"),
        "setup_s": (raw["setup_s"] * scale, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "pass_ratio": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }


def _count_outputs(totals: dict):
    def count(out_dir: Path):
        for path in out_dir.iterdir() if out_dir.exists() else ():
            totals["bytes"] += path.stat().st_size
            if path.suffix in (".csv", ".json") and path.stem != "summary":
                # A table the checks could not read has already failed its call.
                with contextlib.suppress(OSError, ValueError, KeyError, TypeError):
                    totals["rows"] += len(read_table(out_dir, path.stem)[1])
    return count


def _manifest_text(out_dir: Path) -> str:
    path = out_dir / "manifest"
    return path.read_text() if path.exists() else ""


def reference_manifests(bench: Bench, cases) -> list[str]:
    """Manifests of one untimed pass over the reference-seed cases."""
    saved, bench.manifests = bench.manifests, {}
    texts = []
    bench.on_output = lambda out_dir: texts.append(_manifest_text(out_dir))
    for case in cases:
        bench.call(case)
    bench.on_output, bench.manifests = None, saved
    return texts


def identical_ratio(workload: str, texts: list[str]) -> float:
    """Share of output files whose hash equals the manifest recorded in the repo."""
    recorded = json.loads(REFERENCE_FILE.read_text()).get(workload, [])
    same = total = 0
    for now, then in zip(texts, recorded):
        old = {ln for ln in then.splitlines() if "sha256=" in ln}
        total += len(old)
        same += len(old & set(now.splitlines()))
    return same / total if total else 0.0


def per_layer(bench: Bench, args, reference_cases) -> dict:
    # A third of the time untraced, a third traced, and about a pass over the
    # reference configs: a traced run takes about as long as an untraced one.
    bench.call(bench.cases[0])  # warm-up
    plain = bench.passes(args.seconds / 3.0, min_passes=1)[0]

    tracer = Tracer()
    totals = {"bytes": 0, "rows": 0}
    bench.on_output = _count_outputs(totals)
    tracer.install()
    try:
        traced, _, passes = bench.passes(args.seconds / 3.0, min_passes=1)
    finally:
        tracer.uninstall()
        bench.on_output = None
    identical = identical_ratio(bench.workload.name, reference_manifests(bench, reference_cases))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{bench.workload.name}_seed{args.seed}.jsonl"
    tracer.write(spans_path)

    stats = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def stat(name, field):
        return stats.get(name, zero)[field] / passes

    def group(prefix):
        calls, seconds = tracer.group(prefix)
        return calls / passes, seconds / passes

    def per(count, base):
        return count / base if base else 0.0

    rows = sum(len(c.config.get("fig5", {}).get("temperatures_c", [])) +
               len(c.config.get("fig3", {}).get("profile_temperatures_c", []))
               for c in bench.cases)
    points = sum(c.units for c in bench.cases) if bench.workload.scenario == "fig3" else 0
    count = tracer.counts
    main_s = stat("cli.main", "s")
    layer_self = tracer.layer_self_seconds()
    entry_self = stat("cli.main", "self_s") + stat("scenarios.run_scenario", "self_s")
    m = {
        "cascade.propagate.calls": (stat("cascade.propagate", "calls"), "count"),
        "cascade.propagate.s": (stat("cascade.propagate", "s"), "s"),
        "cascade.extract_cascade_result.calls": (
            stat("cascade.extract_cascade_result", "calls"), "count"),
        "cascade.extract_cascade_result.s": (stat("cascade.extract_cascade_result", "s"), "s"),
        "cascade.rk4_steps": (count["cascade.rk4_steps"] / passes, "count"),
        "cascade.propagate_per_row": (
            per(stat("cascade.propagate", "calls"), rows), "calls/row"),
        "cascade.max_power_drift": (tracer.maxima.get("cascade.max_power_drift", 0.0), "ratio"),
        "cavity.scan_profile.calls": (stat("cavity.scan_profile", "calls"), "count"),
        "cavity.scan_profile.self_s": (stat("cavity.scan_profile", "self_s"), "s"),
        "cavity.steady_state_branches.calls": (
            stat("cavity.steady_state_branches", "calls"), "count"),
        "cavity.steady_state_branches.s": (stat("cavity.steady_state_branches", "s"), "s"),
        "cavity.branch_calls_per_point": (
            per(stat("cavity.steady_state_branches", "calls"), points), "calls/point"),
        "cavity.brentq.calls": (count["cavity.brentq"] / passes, "count"),
        "cavity.branches_found": (count["cavity.branches_found"] / passes, "count"),
        "cavity.multi_branch_points": (count["cavity.multi_branch_points"] / passes, "count"),
        "cavity.squeezing_spectrum.calls": (stat("cavity.squeezing_spectrum", "calls"), "count"),
        "cavity.squeezing_spectrum.s": (stat("cavity.squeezing_spectrum", "s"), "s"),
        "scenarios.run_scenario.self_s": (stat("scenarios.run_scenario", "self_s"), "s"),
        "scenarios.validate_config.calls": (stat("scenarios.validate_config", "calls"), "count"),
        "scenarios.validate_config.s": (stat("scenarios.validate_config", "s"), "s"),
        "scenarios.locked_circulating_power.calls": (
            stat("scenarios.locked_circulating_power", "calls"), "count"),
        "scenarios.lock_solves_per_row": (
            per(stat("scenarios.locked_circulating_power", "calls"), rows), "calls/row"),
        "scenarios.writer.s": (group("scenarios.writer")[1], "s"),
        "scenarios.writer.table.s": (stat("scenarios.writer.table", "s"), "s"),
        "scenarios.writer.manifest.s": (stat("scenarios.writer.manifest", "s"), "s"),
        "scenarios.bytes_written": (totals["bytes"] / passes, "B"),
        "scenarios.rows_written": (totals["rows"] / passes, "rows"),
        "scenarios.outputs_identical_ratio": (identical, "ratio"),
        "cli.main.self_s": (stat("cli.main", "self_s"), "s"),
        "cli.load_config.s": (stat("cli.load_config", "s"), "s"),
        "phasematch.calls": (group("phasematch")[0], "count"),
        "phasematch.s": (group("phasematch")[1], "s"),
        "states.infer.calls": (group("states.infer")[0], "count"),
        "states.infer.s": (group("states.infer")[1], "s"),
        "states.channels.s": (group("states.channels")[1], "s"),
        "detection.simulate_tomography_trace.s": (
            stat("detection.simulate_tomography_trace", "s"), "s"),
        "detection.trace_samples": (count["detection.trace_samples"] / passes, "count"),
        "detection.fit_quadrature_ellipse.s": (
            stat("detection.fit_quadrature_ellipse", "s"), "s"),
        "trace.overhead_ratio": (median_time(traced) / median_time(plain), "ratio"),
        "trace.coverage": (per(main_s - entry_self, main_s), "ratio"),
        "bench.rows_per_pass": (rows, "rows"),
        "bench.points_per_pass": (points, "points"),
        "bench.runs_per_pass": (len(bench.cases), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (per(layer_self[layer] / passes, main_s), "ratio")
    print(f"# traced {passes} passes of {len(bench.cases)} configs; per-layer values are "
          f"per pass; spans in {spans_path.relative_to(ROOT)}")
    top = sorted(stats.items(), key=lambda item: -item[1]["self_s"])[:5]
    print("# largest self time: " + ", ".join(
        f"{name} {per(row['self_s'], main_s * passes):.1%}" for name, row in top))
    print(f"# fail_ratio = {bench.failed}/{bench.attempted} failed/attempted")
    return m


def record_reference(cli) -> None:
    """Write the reference-seed manifests of every workload (see identical_ratio)."""
    recorded = {}
    for name in sorted(WORKLOADS):
        work = WORK / f"reference_{name}"
        cases = write_configs(name, REFERENCE_SEED, work)
        bench = Bench(cli, name, cases, work)
        recorded[name] = reference_manifests(bench, cases)
        shutil.rmtree(work, ignore_errors=True)
        if bench.failed:
            sys.exit("bench: reference runs failed:\n" + "\n".join(bench.problems))
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference_manifests.json from this commit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    cli = _import_program()
    if args.record_reference:
        record_reference(cli)
        return 0
    work_dir = WORK / f"{args.workload}_{os.getpid()}"
    print(f"# {environment()}")
    print(f"# loadavg before {loadavg()}")
    try:
        cases = write_configs(args.workload, args.seed, work_dir / "configs")
        bench = Bench(cli, args.workload, cases, work_dir)
        if args.trace:
            reference = write_configs(args.workload, REFERENCE_SEED, work_dir / "reference")
            metrics = per_layer(bench, args, reference)
        else:
            metrics = end_to_end(bench, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"# loadavg after {loadavg()}")
    for line in bench.problems[:20]:
        print(f"# FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
