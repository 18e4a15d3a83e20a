"""The benchmark harness under benchmarks/ drives dpaimd from outside: its tracer
wraps named attributes of the package, and its workloads hand the CLI config
documents. These tests load both files by path, without changing them or
writing their bytecode, and check that what they rely on still exists."""
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from dpaimd import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """name -> module for tracer.py and workloads.py, loaded from their files."""
    modules = {}
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for name in ("tracer", "workloads"):
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
