"""Tests of the benchmark itself: generator, output checks, failure accounting, tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import cProfile
import csv
import io
import json
import pstats
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import kerrsqueezer.cli as cli  # noqa: E402
from checks import check_run, forward_db  # noqa: E402
from run import Bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate, write_configs  # noqa: E402


def _smallest(workload, tmp_path, seed=5):
    """The cheapest config of the workload, written and validated."""
    cases = write_configs(workload, seed, tmp_path / "configs")
    return min(cases, key=lambda c: c.units)


def _run(workload, case, out_dir):
    spec = WORKLOADS[workload]
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = cli.main(["run", spec.scenario, "--config", str(case.path), "--out", str(out_dir),
                         "--format", spec.fmt])
    assert code == 0
    return json.loads(printed.getvalue())


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_seeded_and_valid(workload, tmp_path):
    first = [c.config for c in generate(workload, 3)]
    assert first == [c.config for c in generate(workload, 3)]
    assert first != [c.config for c in generate(workload, 4)]
    # Same work for every seed: the size ladder does not depend on it.
    assert sorted(c.units for c in generate(workload, 3)) == sorted(
        c.units for c in generate(workload, 4))
    cases = write_configs(workload, 3, tmp_path)  # raises on an invalid config
    assert all(c.path.is_file() for c in cases)


def test_tomography_targets_are_consistent_with_the_forward_model():
    for case in generate("tomography", 8):
        sq, anti = case.config["fig4"]["targets_db"]
        assert 0.0 < sq < anti


def _edit_row(table, row, column, value):
    """Return a corruption that sets one cell of a CSV table (row by index)."""
    def corrupt(out_dir, config):
        def edit(header, rows):
            i = row(config) if callable(row) else row
            k = header.index(column)
            rows[i][k] = repr(value(float(rows[i][k])))
        _edit_csv(out_dir / (table(config) if callable(table) else table), edit)
    return corrupt


def _row_of(temperature):
    return lambda config: config["fig5"]["temperatures_c"].index(temperature)


def _profile(k):
    return lambda config: "profile_{:.1f}C".format(
        config["fig3"]["profile_temperatures_c"][k]).replace(".", "p") + ".csv"


def _symmetric_zero_profile(out_dir, config):
    shutil.copy(out_dir / _profile(0)(config), out_dir / _profile(1)(config))


def _edit_summary(edit):
    return lambda out_dir, config: _edit_json(out_dir / "summary.json", edit)


def _shift(section, key, amount):
    def edit(payload):
        payload[section][key] += amount
    return edit


# (fragment of the expected problem, corruption of a clean run directory)
CORRUPTIONS = {
    "squeeze_sweep": [
        ("Kerr phase", _edit_row("squeeze_sweep.csv", _row_of(81.9), "epsilon_rad_s",
                                 lambda v: 1.05 * v)),
        ("residual conversion", _edit_row("squeeze_sweep.csv", _row_of(61.2),
                                          "residual_conversion", lambda v: 1e-3)),
        ("squeezing is -0.5", _edit_row("squeeze_sweep.csv", _row_of(61.2), "squeeze_dB",
                                        lambda v: -0.5)),
    ],
    "resonance_scan": [
        ("misses Airy", _edit_row(_profile(0), 10, "p_circ_W", lambda v: v * (1.0 + 1e-5))),
        ("exceeds the resonant build-up", _edit_row(_profile(1), 0, "p_circ_W",
                                                    lambda v: 1e3)),
        ("asymmetry at the zeros", _symmetric_zero_profile),
    ],
    "tomography": [
        ("calibration misses its targets", _edit_summary(_shift("calibration", "r", 1e-4))),
        ("standard errors from the target", _edit_summary(_shift("summary_db", "squeeze", 0.2))),
        ("trace_vacuum: ", lambda out_dir, config: _edit_json(
            out_dir / "trace_vacuum.json", lambda payload: payload["rows"].pop())),
    ],
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_pass_clean_outputs_and_fire_on_corrupted_ones(workload, tmp_path):
    case = _smallest(workload, tmp_path)
    clean = tmp_path / "clean"
    printed = _run(workload, case, clean)
    assert check_run(workload, case.config, clean, printed) == []

    for n, (fragment, corrupt) in enumerate(CORRUPTIONS[workload]):
        out_dir = tmp_path / f"corrupt_{n}"
        shutil.copytree(clean, out_dir)
        corrupt(out_dir, case.config)
        problems = check_run(workload, case.config, out_dir, printed)
        assert any("manifest hash" in p for p in problems), problems
        assert any(fragment in p for p in problems), (fragment, problems)


def test_squeezing_may_be_zero_only_at_phase_matching(tmp_path):
    # 45 C is inside |dk L| < pi but off phase matching, so it must squeeze.
    case = _smallest("squeeze_sweep", tmp_path)
    case.config["fig5"]["temperatures_c"] = sorted(case.config["fig5"]["temperatures_c"] + [45.0])
    case.path.write_text(yaml.safe_dump(case.config, sort_keys=True))
    clean = tmp_path / "clean"
    printed = _run("squeeze_sweep", case, clean)
    assert check_run("squeeze_sweep", case.config, clean, printed) == []

    for temperature, value in ((45.0, 0.0), (40.5, 0.5)):
        out_dir = tmp_path / f"corrupt_{temperature}"
        shutil.copytree(clean, out_dir)
        _edit_row("squeeze_sweep.csv", _row_of(temperature), "squeeze_dB",
                  lambda v: value)(out_dir, case.config)
        problems = check_run("squeeze_sweep", case.config, out_dir, printed)
        assert any(f"T={temperature}: below threshold" in p for p in problems), problems


def test_manifest_check_fires_on_a_missing_output(tmp_path):
    case = _smallest("squeeze_sweep", tmp_path)
    out_dir = tmp_path / "out"
    printed = _run("squeeze_sweep", case, out_dir)
    (out_dir / "spectrum.csv").unlink()
    problems = check_run("squeeze_sweep", case.config, out_dir, printed)
    assert any("directory holds" in p for p in problems), problems


def test_forward_model_matches_the_program():
    from kerrsqueezer import apply_loss, dephase, pure_squeezed, variance_to_db

    state = dephase(apply_loss(pure_squeezed(0.9), 0.7), 0.1)
    sq, anti = forward_db(0.9, 0.7, 0.1)
    assert sq == pytest.approx(-variance_to_db(state.v_min), abs=1e-12)
    assert anti == pytest.approx(variance_to_db(state.v_max), abs=1e-12)


class _FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour()


def _boom():
    raise RuntimeError("boom")


def test_crashes_and_nonzero_exits_count_as_failures(tmp_path):
    case = _smallest("tomography", tmp_path)
    for behaviour, fragment in ((_boom, "raised"), (lambda: 2, "exit code 2"),
                                (lambda: sys.exit(3), "exit code 3")):
        bench = Bench(_FakeCli(behaviour), "tomography", [case], tmp_path / "work")
        seconds, ok = bench.call(case)
        assert not ok and bench.failed == 1 and bench.attempted == 1
        assert fragment in bench.problems[0]


def test_repeated_config_must_give_an_identical_manifest(tmp_path):
    case = _smallest("tomography", tmp_path)
    bench = Bench(cli, "tomography", [case], tmp_path / "work")
    assert bench.call(case)[1] and bench.call(case)[1]
    bench.manifests[case.index] += "tampered\n"
    assert not bench.call(case)[1]
    assert "manifest differs" in bench.problems[-1]


def test_self_time_comes_from_the_span_tree():
    tracer = Tracer(targets=())
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6].
    tracer.spans = [(1, 0, "cascade.propagate", 1.0, 3.0, 0),
                    (3, 2, "cavity.brentq_like", 5.0, 6.0, 0),
                    (2, 0, "cavity.scan_profile", 4.0, 8.0, 0),
                    (0, -1, "cli.main", 0.0, 10.0, 0)]
    stats = tracer.summary()
    assert stats["cli.main"]["self_s"] == pytest.approx(4.0)
    assert stats["cavity.scan_profile"]["self_s"] == pytest.approx(3.0)
    assert tracer.layer_self_seconds()["cavity"] == pytest.approx(4.0)
    assert tracer.group("cavity") == (2, pytest.approx(4.0))


def test_traced_counts_match_a_live_profile(tmp_path):
    cases = [_smallest(w, tmp_path / w) for w in sorted(WORKLOADS)]
    profile = cProfile.Profile()
    tracer = Tracer().install()
    try:
        profile.enable()
        for workload, case in zip(sorted(WORKLOADS), cases):
            _run(workload, case, tmp_path / f"out_{workload}")
        profile.disable()
    finally:
        tracer.uninstall()

    stats = pstats.Stats(profile).stats
    counted = tracer.summary()
    for name, original in tracer.originals.items():
        code = original.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        calls = stats.get(key, (0, 0, 0.0, 0.0, {}))[1]
        target = next(t for t in tracer.targets if t.name == name)
        if target.count_only:
            # Count only the calls that came through the wrapper (the cavity's reference).
            callers = stats.get(key, (0, 0, 0.0, 0.0, {}))[4]
            calls = sum(v[1] for k, v in callers.items()
                        if k[0] == str(BENCH / "tracer.py") and k[2] == "counted")
        assert counted.get(name, {"calls": 0})["calls"] == calls, name
    # The layers each workload is built around were reached, where they still exist.
    for name in ("cascade.propagate", "cavity.steady_state_branches", "cavity.brentq",
                 "scenarios.writer.table", "detection.simulate_tomography_trace"):
        if name in tracer.originals:
            assert counted[name]["calls"] > 0, name


def test_tracer_restores_the_program():
    import kerrsqueezer.cascade as cascade
    import kerrsqueezer.scenarios as scenarios

    before = (cascade.extract_cascade_result, scenarios.extract_cascade_result,
              scenarios.RunWriter.table)
    tracer = Tracer().install()
    assert scenarios.extract_cascade_result is cascade.extract_cascade_result
    assert scenarios.extract_cascade_result is not before[0]
    tracer.uninstall()
    assert (cascade.extract_cascade_result, scenarios.extract_cascade_result,
            scenarios.RunWriter.table) == before


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tomography", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
