"""The benchmark harness under benchmarks/ drives dpaimd from outside: its tracer
wraps named attributes of the package, and its workloads hand the CLI config
documents. These tests load both files by path, without changing them or
writing their bytecode, and check that what they rely on still exists."""
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from dpaimd import cli
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """name -> module for tracer.py, workloads.py and run.py, loaded from their files."""
    modules = {}
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for name in ("tracer", "workloads", "run"):
            spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
            module = modules[name] = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module     # a dataclass looks its module up there
            spec.loader.exec_module(module)
        yield modules
    finally:
        sys.dont_write_bytecode = dont_write
        for name in modules:
            sys.modules.pop(f"bench_{name}", None)


def test_every_tracer_target_exists(bench):
    for owner, attr, name, _ in bench["tracer"].TARGETS:
        assert attr in vars(owner), name


def test_trace_writer_takes_the_trace_then_the_path():
    # the tracer notes the CSV a call writes as its second positional argument
    params = list(inspect.signature(cli.write_trace_csv).parameters.values())[:2]
    assert [p.name for p in params] == ["trace", "path"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_every_workload_document_is_accepted(bench, tmp_path):
    for name, generate in bench["workloads"].GENERATORS.items():
        doc = generate(1, tmp_path / name).doc
        cli.parse_config(doc)
        jobs = cli.expand_sweep(doc)
        assert jobs, name
        for _, _, job_doc, _ in jobs:
            cli.parse_config(job_doc)


def test_traced_sweep_meets_the_closed_forms(bench, tmp_path):
    """A calibrated sweep of 2 points x 2 seeds, traced three times, the second
    time with the dense trace: every closed-form check on the tracer's counts
    holds, the step counts repeat exactly between the passes, every solve and
    pilot has distinct inputs, and the third pass repeats every count of the
    first that the benchmark requires to."""
    tracer = bench["tracer"]
    steps = 200
    doc = cli.serialize_config(cli.reference_system_config(
        [NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5, scale_mode=ScaleMode.CALIBRATED),
         NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.5, delta=0.01,
                   scale_mode=ScaleMode.CALIBRATED)], steps=steps))
    doc["sweep"] = {"axes": [{"path": "noise.0.epsilon", "values": [0.3, 0.6]}], "seeds": [1, 2]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    passes = []
    for emit_trace in (False, True, False):
        spans = tracer.Tracer()
        with spans.installed():
            assert cli.run_experiment(path, jobs=1, emit_trace=emit_trace,
                                      out=tmp_path / f"pass{len(passes)}") == cli.EXIT_OK
        layers, checks = tracer.layer_metrics(spans)
        assert checks and all(checks.values()), checks
        passes.append(layers)
    assert tracer.installed_wrappers() == []
    # the two points differ only in noise.0.epsilon, so they share one pilot
    for key, expected in (("engine.steps", 4 * steps), ("engine.pilot_steps", steps),
                          ("engine.pilot_useful_ratio", 1), ("baseline.solve_useful_ratio", 1)):
        assert passes[0][key] == passes[1][key] == passes[2][key] == expected, key
    assert passes[1]["cli.trace_rows"] == 4 * steps * 6 * 2
    for name in bench["run"].EXACT_COUNTS:
        assert passes[2][name] == passes[0][name], name
