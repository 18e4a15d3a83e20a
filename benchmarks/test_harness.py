"""Self-tests for the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py -q

Not part of the repository's test suite (pytest's testpaths is ``tests``).
"""
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dpaimd import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_STEPS = 400  # enough for the pilots to see capacity events


def small(name, seed, scratch):
    return workloads.GENERATORS[name](seed, scratch, steps=SMALL_STEPS)


def test_workload_names_match_benchmark_json():
    assert list(workloads.GENERATORS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_generator_is_deterministic_and_parses(name, tmp_path):
    first = small(name, 7, tmp_path / "a")
    again = small(name, 7, tmp_path / "b")
    other = small(name, 8, tmp_path / "c")
    assert first.doc == again.doc
    assert first.doc != other.doc
    cli.parse_config(first.doc)
    for _, _, doc in first.job_docs():
        assert cli.parse_config(doc).steps == SMALL_STEPS


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_self_times_subtract_direct_children_only():
    #   root [0, 10] -> a [1, 4] -> g [2, 3];  root -> b [5, 6]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert tracer.self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_live_spans_nest_and_aggregate():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) + ns.inner(x)
    originals = dict(vars(ns))
    spans = tracer.Tracer()
    with spans.installed([(ns, "inner", "inner", None), (ns, "outer", "outer", None)]):
        assert ns.outer(1) == 4
    assert vars(ns) == originals
    stats = spans.by_name()
    assert stats["inner"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"], abs=1e-12)


def test_wrappers_removed_when_the_pass_raises():
    spans = tracer.Tracer()
    with pytest.raises(ZeroDivisionError), spans.installed():
        assert tracer.installed_wrappers()
        1 / 0
    assert tracer.installed_wrappers() == []


def test_speed_probe_runs_while_open_and_stops():
    with speed.Probe() as probe:
        mark = probe.mark()
        time.sleep(0.2)
        assert probe.seconds_per_unit(mark) > 0
    assert threading.active_count() == 1
    assert speed.ref_seconds(3.0, 2 * speed.UNIT_REF_S) == pytest.approx(1.5)


def traced_cli_pass(workload, tmp_path):
    config = workloads.write_config(workload, tmp_path / "config.json")
    spans = tracer.Tracer()
    with spans.installed(), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_experiment(str(config), jobs=1, emit_trace=workload.emit_trace,
                                  out=str(tmp_path / "out"))
    assert code == 0
    assert tracer.installed_wrappers() == []
    return tracer.layer_metrics(spans)


def test_trace_emit_counts_match_closed_forms(tmp_path):
    workload = small("trace_emit", 3, tmp_path)
    values, closed_forms = traced_cli_pass(workload, tmp_path)
    assert all(closed_forms.values()), closed_forms
    n, m = len(workload.doc["agents"]), len(workload.doc["resources"])
    assert values["cli.trace_rows"] == SMALL_STEPS * n * m
    assert values["engine.server_step_calls"] == values["engine.steps"] + values["engine.pilot_steps"]
    assert values["engine.steps"] == SMALL_STEPS and values["engine.pilot_steps"] == 0
    assert set(values) | {"tracer.overhead_frac"} == {m["name"] for m in SPEC["per_layer"]}


def test_calibrated_sweep_wastes_solves_and_pilots(tmp_path):
    workload = small("calibrated_sweep", 3, tmp_path)
    values, closed_forms = traced_cli_pass(workload, tmp_path)
    assert all(closed_forms.values()), closed_forms
    assert values["cli.jobs"] == 9
    assert values["engine.steps"] == values["engine.pilot_steps"] == 9 * SMALL_STEPS
    assert values["baseline.solve_useful_ratio"] == pytest.approx(1 / 9)
    assert values["engine.pilot_useful_ratio"] == pytest.approx(3 / 9)
    assert values["cli.trace_rows"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "BENCH_*.json"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "trace_emit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
