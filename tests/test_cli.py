import concurrent.futures
import contextlib
import copy
import csv
import functools
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpaimd import baseline, cli, engine, metrics
from dpaimd.model import ConfigurationError, NumericError, ResourceConfig, SystemConfig
from dpaimd.model import CostFunction, quad_quartic_cost, quadratic_cost, quartic_cost
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode
from oracles import dual_bound_oracle, write_trace_csv_oracle


def small_config(steps=60, seed=4):
    return SystemConfig(
        agents=[CostFunction(np.array([1.0]), np.array([[2]])),
                CostFunction(np.array([2.0]), np.array([[2]]))],
        resources=[ResourceConfig(capacity=1.0, alpha=0.05, beta=0.5, gamma=1e-3)],
        noise=[NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=0.5)],
        steps=steps,
        seed=seed,
    )


def small_doc(**kw):
    return cli.serialize_config(small_config(**kw))


class TestConfigParsing:
    def test_round_trip(self):
        config = small_config()
        parsed = cli.parse_config(cli.serialize_config(config))
        assert parsed.steps == config.steps and parsed.seed == config.seed
        assert len(parsed.agents) == 2
        assert np.array_equal(parsed.agents[1].coeffs, config.agents[1].coeffs)
        assert parsed.resources[0] == config.resources[0]
        assert parsed.noise[0] == config.noise[0]

    def test_reference_round_trip(self):
        config = cli.reference_system_config(
            [NoiseSpec(kind=NoiseKind.NONE)] * 2, steps=10)
        parsed = cli.parse_config(cli.serialize_config(config))
        for a, b in zip(parsed.agents, config.agents):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert np.array_equal(a.exponents, b.exponents)

    def test_schema_version_enforced(self):
        doc = small_doc()
        doc["schema_version"] = 99
        with pytest.raises(ConfigurationError):
            cli.parse_config(doc)

    def test_missing_field_rejected(self):
        doc = small_doc()
        del doc["steps"]
        with pytest.raises(ConfigurationError):
            cli.parse_config(doc)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra=1),
        lambda d: d["agents"][0].update(label="x"),
        lambda d: d["resources"][0].update(color="red"),
        lambda d: d["noise"][0].update(sigma=3),
        lambda d: d.update(sweep={"axes": [{"path": "seed", "values": [1], "zip": True}]}),
    ])
    def test_unknown_keys_rejected(self, mutate):
        doc = small_doc()
        mutate(doc)
        with pytest.raises(ConfigurationError):
            cli.parse_config(doc)

    def test_bad_resource_value_reported_with_index(self):
        doc = small_doc()
        doc["resources"][0]["beta"] = 1.5
        with pytest.raises(ConfigurationError, match="resources\\[0\\]"):
            cli.parse_config(doc)


class TestSweepExpansion:
    def test_no_sweep_single_job(self):
        jobs = cli.expand_sweep(small_doc())
        assert len(jobs) == 1
        p_idx, overrides, doc, seed = jobs[0]
        assert overrides == {} and seed == 4

    def test_cross_product_with_seeds(self):
        doc = small_doc()
        doc["sweep"] = {
            "axes": [
                {"path": "noise.0.scale", "values": [0.5, 1.0, 2.0]},
                {"path": "resources.0.beta", "values": [0.5, 0.7]},
            ],
            "seeds": [1, 2],
        }
        jobs = cli.expand_sweep(doc)
        assert len(jobs) == 3 * 2 * 2
        scales = {j[2]["noise"][0]["scale"] for j in jobs}
        betas = {j[2]["resources"][0]["beta"] for j in jobs}
        seeds = {j[3] for j in jobs}
        assert scales == {0.5, 1.0, 2.0} and betas == {0.5, 0.7} and seeds == {1, 2}
        assert all("sweep" not in j[2] for j in jobs)

    def test_dotted_path_typo_rejected(self):
        doc = small_doc()
        doc["sweep"] = {"axes": [{"path": "noise.0.scael", "values": [1.0]}]}
        with pytest.raises(ConfigurationError):
            cli.expand_sweep(doc)


NOISE_KINDS = {
    "none": NoiseSpec(),
    "laplace": NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=0.5),
    "gaussian": NoiseSpec(kind=NoiseKind.GAUSSIAN, scale_mode=ScaleMode.FIXED, scale=0.5),
}


@st.composite
def trace_configs(draw):
    """1-3 agents with quadratic costs on 1-3 resources, each resource without
    noise or with fixed Laplace or Gaussian noise, 0 to 40 steps."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return SystemConfig(
        agents=[CostFunction(np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=m,
                                                     max_size=m))), 2 * np.eye(m, dtype=int))
                for _ in range(n)],
        resources=[ResourceConfig(capacity=draw(st.floats(0.1, 0.5)), alpha=0.05, beta=0.5,
                                  gamma=1e-3) for _ in range(m)],
        noise=[NOISE_KINDS[draw(st.sampled_from(sorted(NOISE_KINDS)))] for _ in range(m)],
        steps=draw(st.integers(0, 40)), seed=draw(st.integers(0, 2**32 - 1)))


def square_cost_config(n, m, steps, seed=11):
    """n agents with quadratic costs on m resources, which draw Laplace, Gaussian
    and no noise in turn."""
    return SystemConfig(
        agents=[CostFunction(np.linspace(1.0, 3.0, m) * (1 + i / n), 2 * np.eye(m, dtype=int))
                for i in range(n)],
        resources=[ResourceConfig(capacity=0.3 * n, alpha=0.05, beta=0.5, gamma=1e-3)] * m,
        noise=[NOISE_KINDS[("laplace", "gaussian", "none")[j % 3]] for j in range(m)],
        steps=steps, seed=seed)


class TestTraceCsv:
    """The chunked writer gives the bytes of the per-cell writer it replaced."""

    @given(trace_configs(), st.integers(1, 12))
    @example(small_config(steps=0), 12)                 # the header alone
    @example(square_cost_config(3, 3, steps=7), 4)      # one step, 9 rows, exceeds a chunk
    @example(small_config(steps=40), 12)                # chunks of 6 steps, the last of 4
    @settings(max_examples=60, deadline=None)
    def test_byte_equal_to_the_per_cell_writer(self, config, chunk_rows):
        trace = engine.run(config, dense=True)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            # a few rows per chunk: horizons span several chunks and end mid-chunk
            patch.setattr(cli, "TRACE_CHUNK_ROWS", chunk_rows)
            got, expected = Path(tmp) / "got.csv", Path(tmp) / "expected.csv"
            cli.write_trace_csv(trace, got)
            write_trace_csv_oracle(trace, expected)
            assert got.read_bytes() == expected.read_bytes()

    def written_and_expected(self, trace, tmp_path):
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        cli.write_trace_csv(trace, got)
        write_trace_csv_oracle(trace, expected)
        return got.read_bytes(), expected.read_bytes()

    def test_byte_equal_at_16_agents_by_3_resources(self, tmp_path):
        """Default chunks of 25 steps over 300: the "agent,resource," fields built
        once per run and each (step, resource)'s tail broadcast over 16 agents."""
        n, m = 16, 3
        trace = engine.run(square_cost_config(n, m, steps=300), dense=True)
        assert cli.TRACE_CHUNK_ROWS // (n * m) == 25 and trace.event_counts.all()
        got, expected = self.written_and_expected(trace, tmp_path)
        assert got == expected

    def test_overflowing_noise_byte_equal(self, tmp_path):
        """A fixed Laplace scale of 1e308 overflows some noisy partials to inf and
        -inf: those fields read as the per-cell writer's."""
        config = SystemConfig(
            agents=[CostFunction(np.array([1.0]), np.array([[2]])),
                    CostFunction(np.array([2.0]), np.array([[2]]))],
            resources=[ResourceConfig(capacity=0.3, alpha=0.05, beta=0.5, gamma=1e-3)],
            noise=[NoiseSpec(kind=NoiseKind.LAPLACE, scale_mode=ScaleMode.FIXED, scale=1e308)],
            steps=40, seed=2)
        got, expected = self.written_and_expected(engine.run(config, dense=True), tmp_path)
        fields = got.decode().replace("\n", ",").split(",")
        assert "inf" in fields and "-inf" in fields
        assert got == expected

    def test_writer_holds_less_than_one_dense_array(self, tmp_path):
        """On 15k paper-suite Laplace steps the writer's own peak stays below one
        (steps, n, m) array: x-bar and lambda-hat are derived a chunk at a time."""
        noise = [NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.1, scale_mode=ScaleMode.FIXED,
                           scale=scale) for scale in (59.0, 63.4)]
        trace = engine.run(cli.reference_system_config(noise, steps=15_000), dense=True)
        tracemalloc.start()
        try:
            cli.write_trace_csv(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace.x.nbytes

    def test_python_calls_per_chunk_are_the_same_at_any_chunk_size(self, tmp_path):
        """The writer makes no Python-level call per step or row: writing 400 more
        reference steps adds the same calls (``sys.setprofile``'s call and c_call
        events) per added chunk in chunks of 10 steps as in chunks of 100."""
        noise = [NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.1, scale_mode=ScaleMode.FIXED,
                           scale=scale) for scale in (59.0, 63.4)]
        short, long = (engine.run(cli.reference_system_config(noise, steps=steps), dense=True)
                       for steps in (200, 600))

        def calls(trace, chunk_rows):
            events = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "TRACE_CHUNK_ROWS", chunk_rows)
                gc.disable()        # no collection may run a Python callback while counting
                sys.setprofile(lambda frame, event, arg: events.append(event))
                try:
                    cli.write_trace_csv(trace, tmp_path / "trace.csv")
                finally:
                    sys.setprofile(None)
                    gc.enable()
            return events.count("call") + events.count("c_call")

        calls(short, cli.TRACE_CHUNK_ROWS)      # once first: one-time imports and lookups
        per_chunk = {}
        for chunk_rows in (120, 1200):
            steps_per_chunk = chunk_rows // (short.n_agents * short.n_resources)
            added_chunks = (long.steps - short.steps) // steps_per_chunk
            per_chunk[chunk_rows] = (calls(long, chunk_rows) - calls(short, chunk_rows)) / added_chunks
        assert per_chunk[120] == per_chunk[1200], per_chunk


class TestDownsample:
    """``engine.series_grid``: the steps at which the engine records, and a summary
    reads, its series."""

    def test_short_series_untouched(self):
        assert np.array_equal(engine.series_grid(10), np.arange(10))

    def test_long_series_capped_with_endpoints(self):
        idx = engine.series_grid(100_000)
        assert idx.size == engine.MAX_SERIES_POINTS
        assert idx[0] == 0 and idx[-1] == 100_000 - 1

    @pytest.mark.parametrize("length", [0, 1, 511, 512, 513, 514, 1023, 1024, 50_000, 200_000])
    def test_indices_are_those_of_np_unique(self, length):
        idx = engine.series_grid(length)
        if length <= engine.MAX_SERIES_POINTS:
            expected = np.arange(length)
        else:
            expected = np.unique(np.linspace(0, length - 1, engine.MAX_SERIES_POINTS).astype(int))
        assert idx.dtype == expected.dtype and idx.tobytes() == expected.tobytes()
        assert (np.diff(idx) > 0).all()     # no index repeats: np.unique would drop nothing


def fresh_python(*args, cwd=None):
    """``python *args`` in a new interpreter that imports this checkout's dpaimd."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, cwd=cwd)


class TestRunCommand:
    def write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_run_end_to_end(self, tmp_path, capsys):
        path = self.write(tmp_path, small_doc())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary_p000_s4.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["cost_ratio"] is not None
        assert (out / "sweep_summary.csv").exists()
        assert "1 run(s)" in capsys.readouterr().out

    def test_summaries_byte_identical_across_runs(self, tmp_path):
        path = self.write(tmp_path, small_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(path), "--out", str(out1)])
        cli.main(["run", "--config", str(path), "--out", str(out2)])
        assert (out1 / "summary_p000_s4.json").read_bytes() == \
               (out2 / "summary_p000_s4.json").read_bytes()

    def test_emit_trace_csv(self, tmp_path):
        path = self.write(tmp_path, small_doc(steps=20))
        out = tmp_path / "out"
        cli.main(["run", "--config", str(path), "--out", str(out), "--emit-trace"])
        written = (out / "trace_p000_s4.csv").read_bytes()
        lines = written.decode().splitlines()
        assert lines[0].split(",")[:4] == ["step", "agent", "resource", "x"]
        assert len(lines) == 1 + 20 * 2 * 1
        write_trace_csv_oracle(engine.run(small_config(steps=20), dense=True),
                               tmp_path / "oracle.csv")
        assert written == (tmp_path / "oracle.csv").read_bytes()

    def test_seed_and_steps_overrides(self, tmp_path):
        path = self.write(tmp_path, small_doc())
        out = tmp_path / "out"
        cli.main(["run", "--config", str(path), "--out", str(out),
                  "--seed", "9", "--steps", "10"])
        summary = json.loads((out / "summary_p000_s9.json").read_text())
        assert summary["seed"] == 9 and summary["steps"] == 10

    def test_seed_override_replaces_the_sweep_seeds(self, tmp_path):
        doc = small_doc(steps=30)
        doc["sweep"] = {"axes": [{"path": "noise.0.scale", "values": [0.5, 1.0]}],
                        "seeds": [1, 2]}
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(self.write(tmp_path, doc)), "--out", str(out),
                         "--seed", "9"]) == 0
        assert sorted(p.name for p in out.glob("summary_*.json")) == \
            ["summary_p000_s9.json", "summary_p001_s9.json"]
        rows = list(csv.DictReader((out / "sweep_summary.csv").read_text().splitlines()))
        assert [(row["point"], row["seed"]) for row in rows] == [("0", "9"), ("1", "9")]

    def test_sweep_writes_one_summary_per_job(self, tmp_path):
        doc = small_doc(steps=30)
        doc["sweep"] = {"axes": [{"path": "noise.0.scale", "values": [0.5, 1.0]}],
                        "seeds": [1, 2]}
        path = self.write(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert len(list(out.glob("summary_*.json"))) == 4
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 5

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_deeply_nested_sweep_value_exits_2_naming_it(self, tmp_path, capsys):
        deep = 1.0
        for _ in range(500):
            deep = [deep]
        doc = small_doc()
        doc["sweep"] = {"axes": [{"path": "steps", "values": [10, deep]}]}
        assert cli.main(["run", "--config", str(self.write(tmp_path, doc))]) == 2
        assert "sweep.axes[0].values[1]" in capsys.readouterr().err

    def test_config_file_nested_past_the_recursion_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config file" in (err := capsys.readouterr().err) and "nested too deeply" in err

    def test_unknown_key_exits_2(self, tmp_path):
        doc = small_doc()
        doc["typo"] = True
        assert cli.main(["run", "--config", str(self.write(tmp_path, doc))]) == 2

    # each case edits the document in place or returns the document to write
    @pytest.mark.parametrize("mutate,extra_args", [
        (lambda d: d.update(sweep={"axes": [{"path": "noise.7.scale", "values": [1.0]}]}), []),
        (lambda d: d.update(sweep={"axes": [{"path": "resources.0.beta", "values": [1.5]}]}), []),
        (lambda d: d["agents"][0]["terms"].append([1.0]), []),
        (lambda d: d.update(noise=[{"kind": "gaussian", "scale_mode": "calibrated",
                                    "epsilon": 0.5, "delta": 0.01}] * 2), []),
        (lambda d: d.update(agents=5), []),
        (lambda d: d.update(resources=[5, 6]), []),
        (lambda d: d.update(noise=[1, 2]), []),
        (lambda d: d.update(agent_ids=3), []),
        (lambda d: d.update(sweep={"seeds": 3}), []),
        (lambda d: d.update(steps="abc"), []),
        (lambda d: d.update(steps=2.7), []),
        (lambda d: d.update(seed="x"), []),
        (lambda d: d.update(seed=-1), []),
        (lambda d: d.update(burn_in_events="a"), []),
        (lambda d: d.update(per_agent_sensitivity="false"), []),
        (lambda d: d.update(sweep={"axes": [{"path": "noise.0.scale", "values": 3}]}), []),
        (lambda d: d.update(sweep={"axes": [{"values": [1.0]}]}), []),
        (lambda d: [d], ["--seed", "3"]),
        (lambda d: d.update(sweep=[]), ["--seed", "3"]),
        (lambda d: d.update(agent_ids=[0, 0, 1, 2, 3, 4]), []),
        (lambda d: d.update(sweep={"seeds": [5, 5]}), []),
        (lambda d: d.update(sweep={"seeds": []}), []),
        (lambda d: d.update(sweep={"axes": [{"path": "noise.0.scale", "values": []}]}), []),
        (lambda d: d["noise"][0].update(scale=True), []),
        (lambda d: d["resources"][0].update(beta=False), []),
        (lambda d: d["resources"][0].update(capacity=True), []),
        (lambda d: d.update(steps=list(range(20_000))), []),
        (lambda d: d["resources"][0].update(capacity="x" * 50_000), []),
        (lambda d: d["resources"][0].update(capacity=10**3999), []),
        (lambda d: d["noise"][0].update(kind="x" * 50_000), []),
        (lambda d: d["noise"][0].update(scale_mode="x" * 50_000), []),
        (lambda d: d.update(agents=[]), []),
        (lambda d: d.update(resources=[], noise=[]), []),
        (lambda d: d.update(noise=[]), []),
        (lambda d: d.update(steps=-1), []),
        (lambda d: d.update(steps=2**53), []),
        (lambda d: d.update(burn_in_events=-1), []),
        (lambda d: d["agents"][0]["terms"][0][1].__setitem__(0, -2), []),
        (lambda d: d["agents"][0].update(terms=[[1.0, [2]]]), []),
        (lambda d: d.update(sweep={"axes": [{"path": "steps.x", "values": [1]}]}), []),
        (lambda d: d.update(steps=2**52), ["--emit-trace"]),
    ], ids=["sweep-path-index", "sweep-value", "term-without-exponents",
            "calibration-without-events", "agents-not-list", "resources-not-objects",
            "noise-not-objects", "agent-ids-not-list", "sweep-seeds-not-list", "steps-string",
            "steps-fraction", "seed-string", "seed-negative", "burn-in-string",
            "per-agent-string", "sweep-values-not-list", "sweep-axis-without-path",
            "seed-override-on-list-root", "seed-override-on-list-sweep",
            "duplicate-agent-ids", "duplicate-sweep-seeds", "sweep-seeds-empty",
            "sweep-values-empty", "noise-scale-bool", "resource-beta-bool",
            "resource-capacity-bool", "steps-long-list", "capacity-long-string",
            "capacity-4000-digits", "noise-kind-long-string", "scale-mode-long-string",
            "agents-empty", "resources-empty", "noise-empty", "steps-negative", "steps-2-53",
            "burn-in-negative", "exponent-negative", "exponent-width", "sweep-path-below-number",
            "dense-trace-too-large"])
    def test_config_errors_exit_2(self, tmp_path, capsys, mutate, extra_args):
        out_args = ["--out", str(tmp_path / "out"), *extra_args]
        assert self.run_mutated_suite_config(tmp_path, mutate, out_args) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert len(err) < 300       # a long offending value is shown shortened

    def run_mutated_suite_config(self, tmp_path, mutate, args):
        suite = {p.name: p for p in cli.emit_reference_suite(tmp_path / "suite")}
        doc = json.loads(suite["laplace_base.json"].read_text())
        doc["steps"] = 50       # too short for any capacity event
        path = self.write(tmp_path, mutate(doc) or doc)
        return cli.main(["run", "--config", str(path), *args])

    # inputs that once ended in a traceback or silently ran another experiment
    @pytest.mark.parametrize("mutate,code", [
        (lambda d: d["resources"][0].update(capacity=math.inf), 2),
        (lambda d: d["resources"][0].update(capacity=10**200), 3),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(0, math.inf), 2),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(0, math.nan), 2),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(0, 1e308), 3),
        (lambda d: d.update(steps=10**30), 2),
        (lambda d: d.update(steps=2**62), 2),
        (lambda d: d.update(output_dir=3), 2),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(1, [2.5, 0]), 2),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(1, [True, 0]), 2),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(0, "1"), 2),
        (lambda d: d["agents"][0]["terms"][0].append(5), 2),
        (lambda d: d["noise"][0].update(scale=math.inf), 2),
        (lambda d: d["resources"][0].update(gamma=math.inf), 2),
        (lambda d: d["noise"][0].update(sensitivity=math.inf), 2),
        (lambda d: d["noise"][0].update(epsilon=math.nan), 2),
        (lambda d: d.update(sweep={"axes": [{"path": "output_dir", "values": ["a", "b"]}]}), 2),
        (lambda d: d.update(sweep={"axes": [{"path": "sweep", "values": [{}]}]}), 2),
        (lambda d: d.update(sweep={"axes": [{"path": "seed", "values": [1, 2]}],
                                   "seeds": [10, 20]}), 2),
        (lambda d: d.update(steps=300, noise=[{"kind": "laplace", "scale_mode": "calibrated",
                                               "epsilon": 5e-324}] * 2), 3),
    ], ids=["capacity-inf", "capacity-int-1e200", "coefficient-inf", "coefficient-nan",
            "coefficient-1e308", "steps-1e30", "steps-2-62", "output-dir-number",
            "exponent-fraction", "exponent-bool", "coefficient-string", "term-three-items",
            "scale-inf", "gamma-inf", "sensitivity-inf", "epsilon-nan", "sweep-axis-output-dir",
            "sweep-axis-sweep", "sweep-axis-seed", "calibrated-scale-inf"])
    def test_malformed_inputs_exit_2_or_3(self, tmp_path, capsys, monkeypatch, mutate, code):
        monkeypatch.chdir(tmp_path)     # no --out: output_dir, if it were used, is relative
        assert self.run_mutated_suite_config(tmp_path, mutate, []) == code
        err = capsys.readouterr().err
        assert ("config error:" if code == 2 else "numeric abort") in err
        assert "Traceback" not in err

    # an unreadable config, an unwritable output directory, input nested past
    # the recursion limit, and a pool of fewer than one process
    @pytest.mark.parametrize("argv,content", [
        ("run --config {config} --out {out}", b"\xff\xfe{}"),
        ("solve --config {config}", b"\xff\xfe{}"),
        ("run --config {config} --out {out}", b"[" * 100_000),
        ("solve --config {config}", b"[" * 100_000),
        ("run --config {config} --out {file}/x", None),
        ("paper-suite --out {file}/x", None),
        ("run --config {config} --out {out}", "sweep-value-nested"),
        ("run --config {config} --out {out} --jobs 0", None),
        ("run --config {config} --out {out} --jobs -4", None),
        ("run --config {config} --out {out}", "steps-int-too-long"),
        ("solve --config {config}", "steps-int-too-long"),
    ], ids=["run-not-utf8", "solve-not-utf8", "run-json-too-deep", "solve-json-too-deep",
            "run-out-under-file", "suite-out-under-file", "sweep-value-too-deep",
            "jobs-0", "jobs-negative", "run-int-too-long", "solve-int-too-long"])
    def test_unreadable_or_unwritable_exits_2(self, tmp_path, capsys, argv, content):
        doc = small_doc()
        if content == "sweep-value-nested":
            nested = json.loads("[" * 500 + "]" * 500)
            doc["sweep"] = {"axes": [{"path": "noise.0.scale", "values": [nested]}]}
        text = json.dumps(doc)
        if content == "steps-int-too-long":      # past Python's 4,300-digit int-string limit
            text = text.replace('"steps": 60', '"steps": 1' + "0" * 5_000)
        path = tmp_path / "config.json"
        path.write_bytes(content if isinstance(content, bytes) else text.encode())
        (tmp_path / "file").write_text("", encoding="utf-8")
        args = argv.format(config=path, out=tmp_path / "out", file=tmp_path / "file").split()
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    def test_numeric_abort_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(config, *, dense=False):
            raise NumericError("non-finite demand at step 7")
        monkeypatch.setattr(engine, "run", boom)
        path = self.write(tmp_path, small_doc())
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numeric abort: non-finite demand at step 7\n"

    def test_overflowing_aggregate_exits_3_naming_the_step(self, tmp_path, capsys):
        # linear costs pass the baseline solver; the two demands of 1.5e308
        # after step 0 sum to inf, which step 1's server step rejects
        doc = small_doc()
        doc["agents"] = [{"terms": [[1.0, [1]]]}, {"terms": [[2.0, [1]]]}]
        doc["resources"][0].update(capacity=1.5e308, alpha=1.5e308)
        path = self.write(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numeric abort: non-finite aggregate demand at step 1\n"

    @pytest.mark.parametrize("command", ["run", "solve"])
    def test_overflowing_optimal_cost_exits_3_without_a_warning(self, tmp_path, capsys, command):
        # the partials 2e-300 x stay finite up to x = 1e300, but x^2 overflows:
        # the solver's total cost reads inf (the test suite turns warnings into errors)
        doc = small_doc()
        doc["noise"] = [{"kind": "none"}]
        doc["agents"] = [{"terms": [[1e-300, [2]]]}, {"terms": [[2e-300, [2]]]}]
        doc["resources"][0].update(capacity=1e300, alpha=1e300)
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli.main([command, "--config", str(self.write(tmp_path, doc)), *args]) == 3
        assert capsys.readouterr().err == \
            "numeric abort: baseline solver: the optimal total cost is inf\n"

    @pytest.mark.parametrize("command", ["run", "solve"])
    def test_an_exponent_of_1e9_exits_cleanly(self, tmp_path, capsys, command):
        # the kernel raises x ** (1e9 - 1) from about 30 squares and products,
        # so the table holds about 30 rows of m * n floats, not 1e9 of them
        doc = small_doc()
        doc["agents"][1] = {"terms": [[1.0, [2]], [2.0, [10**9]]]}
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli.main([command, "--config", str(self.write(tmp_path, doc)), *args]) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_max_rel_error_skips_zero_optimal_shares(self, tmp_path, capsys):
        # 50 x + x^2 prices agent 1 out: x* = (1, 0), x-bar = (0.981, 0.017)
        doc = small_doc(steps=3_000)
        doc["noise"] = [{"kind": "none"}]
        doc["agents"] = [{"terms": [[1.0, [2]]]}, {"terms": [[50.0, [1]], [1.0, [2]]]}]
        doc["resources"][0].update(alpha=0.01, beta=0.7)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(self.write(tmp_path, doc)),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary_p000_s4.json").read_text())
        assert summary["x_star"] == [[1.0], [0.0]] and summary["abs_error"][1][0] > 0.01
        [row] = csv.DictReader((out / "sweep_summary.csv").read_text().splitlines())
        assert float(row["max_rel_error"]) == pytest.approx(0.0191, abs=5e-5)
        assert f"max_rel_error={row['max_rel_error']}\n" in capsys.readouterr().out

    def test_feasibility_gap_shows_why_a_short_run_costs_less_than_the_optimum(self, tmp_path):
        """x-bar is a mean over every step, the ramp up from x(0) = 0 too, so after
        1,000 noiseless reference steps it sums short of each capacity and the cost
        ratio reads below 1. The summary and the sweep row carry sum_i x-bar - C."""
        config = cli.reference_system_config([NoiseSpec()] * 2, steps=1_000)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(self.write(tmp_path, cli.serialize_config(config))),
                         "--out", str(out)]) == 0
        summary = json.loads((out / f"summary_p000_s{config.seed}.json").read_text())
        gap = np.array(summary["final_xbar"]).sum(axis=0) - [5.0, 6.0]
        assert summary["feasibility_gap"] == gap.tolist() and (gap < 0).all()
        assert summary["cost_ratio"] < 1
        [row] = csv.DictReader((out / "sweep_summary.csv").read_text().splitlines())
        assert json.loads(row["feasibility_gap"]) == summary["feasibility_gap"]

    def test_zero_optimal_cost_gives_a_null_cost_ratio(self, tmp_path):
        # x^2 and 2 x^2 at shares of 1e-300 cost 0.0 once squared
        doc = small_doc()
        doc["resources"][0].update(capacity=1e-300, alpha=1e-300)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(self.write(tmp_path, doc)),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary_p000_s4.json").read_text())
        assert summary["optimal_total_cost"] == 0.0 and summary["event_counts"][0] > 0
        assert summary["cost_ratio"] is None

    # lambda-hat's gamma |f' + d| / x-bar overflows (a huge gamma, or a huge
    # noise d over a tiny x-bar), or the draw d itself does; lambda-hat clamps
    # inf to 1, and no warning may escape (the test suite turns them into errors)
    @pytest.mark.parametrize("mutate", [
        lambda d: d["resources"][0].update(gamma=1e300, capacity=1e-10, alpha=1e-10),
        lambda d: d["noise"][0].update(scale=1e300) or d["resources"][0].update(
            capacity=1e-20, alpha=1e-20),
        lambda d: d["noise"][0].update(scale=1.7e308),
    ], ids=["gamma-1e300", "scale-1e300", "scale-1.7e308"])
    def test_overflowing_backoff_exits_0_without_a_warning(self, tmp_path, mutate):
        doc = small_doc()
        mutate(doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(self.write(tmp_path, doc)),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary_p000_s4.json").read_text())
        assert summary["event_counts"][0] > 0 and summary["cost_ratio"] is not None

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        def no_converge(costs, resources):
            raise RuntimeError("baseline solver did not converge")
        monkeypatch.setattr(cli.baseline, "solve_optimum", no_converge)
        path = self.write(tmp_path, small_doc())
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3


def calibrated_sweep_doc():
    """Calibrated Gaussian and Laplace noise; 2 epsilons x 2 capacities x 2 seeds.

    The capacity axis makes two distinct baseline problems, each shared by
    four jobs; each of the four sweep points is shared by two seeds.
    """
    config = SystemConfig(
        agents=[quad_quartic_cost(12, 20), quadratic_cost(25), quartic_cost(18)],
        resources=[ResourceConfig(capacity=1.0, alpha=0.01, beta=0.7, gamma=1e-3),
                   ResourceConfig(capacity=1.2, alpha=0.0125, beta=0.6, gamma=1e-3)],
        noise=[NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.5, delta=0.01,
                         scale_mode=ScaleMode.CALIBRATED),
               NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.5, scale_mode=ScaleMode.CALIBRATED)],
        steps=300,
        seed=1,
    )
    doc = cli.serialize_config(config)
    doc["sweep"] = {"axes": [{"path": "noise.0.epsilon", "values": [0.3, 0.6]},
                             {"path": "resources.0.capacity", "values": [1.0, 1.5]}],
                    "seeds": [7, 8]}
    return doc


@pytest.fixture(scope="module")
def lone_job_summaries():
    """Summary text per tag, each job computed alone with its own solve and pilot."""
    texts = {}
    for p_idx, overrides, doc, seed in cli.expand_sweep(calibrated_sweep_doc()):
        config = cli.parse_config(doc)
        optimum = baseline.solve_optimum(config.agents, config.resources)
        summary = metrics.summarize(engine.run(config), config.agents, optimum)
        sdoc = cli.summary_to_dict(summary, config, optimum)
        sdoc["overrides"] = {k: overrides[k] for k in sorted(overrides)}
        texts[f"p{p_idx:03d}_s{seed}"] = json.dumps(sdoc, sort_keys=True, indent=2) + "\n"
    return texts


@pytest.fixture
def in_process_pools(monkeypatch):
    """Fakes ``ProcessPoolExecutor`` with a pool that maps in this process and
    starts no worker; each pool built is recorded as its size followed by the
    name of each function it mapped."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.record = [max_workers]
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            self.record.append(fn.__name__)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return pools


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets how many CPUs the CLI finds this process may run on."""
    return lambda count: monkeypatch.setattr(cli, "_usable_cpus", lambda: count)


def cli_on_cpus(count):
    """A ``python -c`` program that runs ``dpaimd`` on its arguments, finding ``count`` usable CPUs."""
    return ("import sys; from dpaimd import cli; "
            f"cli._usable_cpus = lambda: {count}; sys.exit(cli.main(sys.argv[1:]))")


class TestSharedSweepInputs:
    def run_sweep(self, tmp_path, jobs):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(calibrated_sweep_doc()), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        return out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_summary_equals_a_lone_run(self, tmp_path, jobs, lone_job_summaries):
        out = self.run_sweep(tmp_path, jobs)
        assert len(lone_job_summaries) == 8
        assert len(list(out.glob("summary_*.json"))) == 8
        for tag, text in lone_job_summaries.items():
            assert (out / f"summary_{tag}.json").read_bytes() == text.encode("utf-8"), tag

    def test_one_solve_per_problem_one_calibration_per_noiseless_problem(self, tmp_path,
                                                                         monkeypatch):
        calls = {"solve_optimum": 0, "resolve_noise_scales": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(baseline, "solve_optimum")
        counted(engine, "resolve_noise_scales")
        self.run_sweep(tmp_path, jobs=1)
        assert calls == {"solve_optimum": 2, "resolve_noise_scales": 2}

    def test_grouped_scales_equal_each_points_lone_scales(self, tmp_path, monkeypatch):
        """Points that mix calibrated Laplace and Gaussian noise, a sensitivity
        override and a resource without noise share one calibration, and each
        run draws with the bits of its own config's lone calibration."""
        lone, calls, used = engine.resolve_noise_scales, [], []

        def grouped(*args, **kwargs):
            calls.append(args)
            return lone(*args, **kwargs)

        def run(config, **kwargs):
            trace = engine_run(config, **kwargs)
            used.append(trace.noise_scales)
            return trace

        engine_run = engine.run
        monkeypatch.setattr(engine, "resolve_noise_scales", grouped)
        monkeypatch.setattr(engine, "run", run)
        doc = calibrated_sweep_doc()
        doc["sweep"]["axes"] = [
            {"path": "noise.0.epsilon", "values": [0.3, 0.6]},
            {"path": "noise.1", "values": [
                {"kind": "laplace", "scale_mode": "calibrated", "epsilon": 0.4},
                {"kind": "gaussian", "scale_mode": "calibrated", "epsilon": 0.4, "delta": 0.01,
                 "sensitivity": 0.25},
                {"kind": "none"}]}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1 and len(used) == 12
        for (_, _, job, _), scales in zip(cli.expand_sweep(doc), used):
            config = cli.parse_config(job)
            [noise] = lone(config, [config.noise])
            expected = np.array([spec.noise_scale(j) for j, spec in enumerate(noise)])
            assert scales.dtype == expected.dtype and scales.tobytes() == expected.tobytes()
        assert {float(scales[1]) for scales in used} >= {0.0, 0.25 / 0.4 * math.sqrt(
            2 * math.log(1.25 / 0.01))}

    @pytest.mark.parametrize("path, values, pilots", [
        (None, None, 1),    # sweep seeds only
        ("steps", [40, 60], 2),
        ("burn_in_events", [2, 3], 2),
        ("resources.0.capacity", [1.0, 1.2], 2),
        ("resources.0.capacity", [1, 1.0], 1),      # held as floats, like the solver's
        ("resources.0.alpha", [0.05, 0.04], 2),
        ("resources.0.beta", [0.5, 0.6], 2),
        ("resources.0.gamma", [1e-3, 2e-3], 2),
        ("agents.0.terms.0.0", [1.0, 1.5], 2),
        ("agents.0.terms.0.1", [[2], [3]], 2),
        ("noise.0.epsilon", [0.3, 0.6], 1),
        ("noise.0", [{"kind": "laplace", "scale_mode": "calibrated", "epsilon": 0.5},
                     {"kind": "gaussian", "scale_mode": "calibrated", "epsilon": 0.5,
                      "delta": 0.01}], 1),
        ("agent_ids", [[0, 1], [5, 7]], 1),
    ])
    def test_one_pilot_per_value_of_what_the_pilot_reads(self, tmp_path, monkeypatch,
                                                         path, values, pilots):
        simulated = []

        def simulate(config, *args, **kwargs):
            simulated.append(config)
            return real(config, *args, **kwargs)

        real = engine._simulate
        monkeypatch.setattr(engine, "_simulate", simulate)
        doc = small_doc()
        doc["noise"] = [{"kind": "laplace", "scale_mode": "calibrated", "epsilon": 0.5}]
        doc["sweep"] = {"seeds": [1, 2, 3]}
        if path:
            doc["sweep"]["axes"] = [{"path": path, "values": values}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        runs = 3 * len(values or [None])
        assert len(simulated) == runs + pilots

    def test_pool_is_no_larger_than_the_job_count(self, tmp_path, in_process_pools, usable_cpus):
        # with 8 usable CPUs, two jobs at --jobs 5 share one pool of 2 and one job at
        # --jobs 4 has none; with 3, four jobs at --jobs 5 share one pool of 3
        for cpus, seeds, jobs, pools in ((8, [1, 2], 5, [[2, "_run_one"]]), (8, [1], 4, []),
                                         (3, [1, 2, 3, 4], 5, [[3, "_run_one"]])):
            usable_cpus(cpus)
            in_process_pools.clear()
            doc = small_doc(steps=20)
            doc["sweep"] = {"seeds": seeds}
            path = tmp_path / f"config{cpus}_{jobs}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"out{cpus}_{jobs}"
            assert cli.main(["run", "--config", str(path), "--out", str(out),
                             "--jobs", str(jobs)]) == 0
            assert in_process_pools == pools
            assert len(list(out.glob("summary_*.json"))) == len(seeds)

    def test_one_usable_cpu_runs_the_sweep_in_this_process(self, tmp_path, capsys, monkeypatch,
                                                           in_process_pools, usable_cpus):
        """At --jobs 2 on one CPU: no pool, no pool module, and every byte that
        --jobs 1 writes."""
        usable_cpus(1)
        monkeypatch.delitem(sys.modules, "concurrent.futures.process", raising=False)
        outputs = []
        for jobs in (1, 2):
            (tmp_path / str(jobs)).mkdir()
            out = self.run_sweep(tmp_path / str(jobs), jobs)
            outputs.append((capsys.readouterr().out,
                            [(f.name, f.read_bytes()) for f in sorted(out.iterdir())]))
        assert in_process_pools == []
        assert "concurrent.futures.process" not in sys.modules
        assert len(outputs[1][1]) == 9      # eight summaries and sweep_summary.csv
        assert outputs[1] == outputs[0]

    def test_lone_solve_and_pilot_run_in_this_process(self, tmp_path, in_process_pools, usable_cpus):
        """One point, two seeds: the one solve and the one pilot are no map to
        share out, so the only pool is built for the runs."""
        usable_cpus(2)
        doc = calibrated_sweep_doc()
        doc["sweep"] = {"seeds": [7, 8]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--jobs", "2"]) == 0
        assert in_process_pools == [[2, "_run_one"]]
        assert len(list((tmp_path / "out").glob("summary_*.json"))) == 2


    def test_importing_the_cli_leaves_out_the_process_pool(self):
        """Only a sweep that starts a pool imports ``concurrent.futures.process``."""
        probe = "import sys, dpaimd.cli; print('concurrent.futures.process' in sys.modules)"
        done = fresh_python("-c", probe)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


class TestFixedCosts:
    """What each process pays besides its runs: imports, the pool's fork, the exit."""

    def test_importing_the_cli_changes_no_gc_or_atexit_state(self):
        probe = ("import atexit, gc, numpy; hooks = []; atexit.register = hooks.append; "
                 "frozen = gc.get_freeze_count(); import dpaimd.cli; "
                 "print(len(hooks), gc.get_freeze_count() - frozen, gc.isenabled())")
        done = fresh_python("-c", probe)
        assert (done.returncode, done.stdout) == (0, "0 0 True\n"), done.stderr

    def test_a_run_and_a_traced_run_leave_out_numpy_ma(self, tmp_path):
        """A summary of more than MAX_SERIES_POINTS steps is sampled without np.unique."""
        (tmp_path / "config.json").write_text(json.dumps(small_doc(steps=600)), encoding="utf-8")
        probe = ("import sys; from dpaimd import cli; "
                 "codes = [cli.main(['run', '--config', 'config.json', '--out', out, *extra]) "
                 "for out, extra in (('a', []), ('b', ['--emit-trace']))]; "
                 "print(codes, 'numpy.ma' in sys.modules)")
        done = fresh_python("-c", probe, cwd=tmp_path)
        assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "[0, 0] False"), done.stderr
        assert len(json.loads((tmp_path / "b" / "summary_p000_s4.json").read_text())
                   ["sensitivity"]["steps"]) == engine.MAX_SERIES_POINTS

    def test_a_forked_sweep_writes_what_one_process_writes(self, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(calibrated_sweep_doc()), encoding="utf-8")
        outputs = []
        for jobs in ("1", "2"):
            done = fresh_python("-c", cli_on_cpus(2), "run", "--config", "config.json",
                                "--out", jobs, "--jobs", jobs, cwd=tmp_path)
            assert done.returncode == 0, done.stderr
            files = sorted((tmp_path / jobs).iterdir())
            outputs.append((done.stdout, [(f.name, f.read_bytes()) for f in files]))
        assert len(outputs[1][1]) == 9      # eight summaries and sweep_summary.csv
        assert outputs[1] == outputs[0]

    def test_a_forked_sweep_that_overflows_exits_3_naming_the_step(self, tmp_path):
        doc = small_doc()
        doc["agents"] = [{"terms": [[1.0, [1]]]}, {"terms": [[2.0, [1]]]}]
        doc["resources"][0].update(capacity=1.5e308, alpha=1.5e308)
        doc["sweep"] = {"seeds": [1, 2]}
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        done = fresh_python("-c", cli_on_cpus(2), "run", "--config", "config.json",
                            "--out", "out", "--jobs", "2", cwd=tmp_path)
        assert done.returncode == 3
        assert done.stderr == "numeric abort: non-finite aggregate demand at step 1\n"

    def test_the_pool_forks_from_a_frozen_heap_and_thaws_it(self, tmp_path, monkeypatch,
                                                           usable_cpus):
        usable_cpus(2)
        frozen_at_fork = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                frozen_at_fork.append(gc.get_freeze_count())
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        doc = small_doc(steps=20)
        doc["sweep"] = {"seeds": [1, 2]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        before = gc.get_freeze_count()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--jobs", "2"]) == 0
        assert len(frozen_at_fork) == 1 and frozen_at_fork[0] > before
        assert gc.get_freeze_count() == before and gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
    def test_a_sweep_pinned_to_one_cpu_never_imports_the_pool(self, tmp_path, capsys):
        """The process binds itself to one CPU, as taskset or a cpuset would, and
        its --jobs 2 sweep writes the bytes of a --jobs 1 sweep."""
        (tmp_path / "config.json").write_text(json.dumps(calibrated_sweep_doc()), encoding="utf-8")
        probe = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                 "from dpaimd import cli; "
                 "code = cli.main(['run', '--config', 'config.json', '--out', 'pinned', '--jobs', '2']); "
                 "print(code, 'concurrent.futures.process' in sys.modules)")
        done = fresh_python("-c", probe, cwd=tmp_path)
        assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "0 False"), done.stderr
        assert cli.main(["run", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "one"), "--jobs", "1"]) == 0
        assert done.stdout.splitlines()[:-1] == capsys.readouterr().out.splitlines()
        written = [sorted((f.name, f.read_bytes()) for f in (tmp_path / out).iterdir())
                   for out in ("pinned", "one")]
        assert len(written[0]) == 9 and written[0] == written[1]

    def test_one_exit_hook_however_often_main_runs(self, tmp_path):
        """The hook is ``gc.freeze``, here a stand-in that says when it runs."""
        probe = ("import gc, types; from dpaimd import cli; "
                 "cli.gc = types.SimpleNamespace(freeze=lambda: print('freeze'), unfreeze=gc.unfreeze); "
                 "print([cli.main(['paper-suite', '--out', 'suite']) for _ in range(2)])")
        done = fresh_python("-c", probe, cwd=tmp_path)
        assert (done.returncode, done.stdout.splitlines()[-2:]) == (0, ["[0, 0]", "freeze"]), done.stderr


class TestSuiteAndSolve:
    def test_suite_emits_four_parseable_configs(self, tmp_path, capsys):
        assert cli.main(["paper-suite", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["gaussian_base.json", "gaussian_high.json",
                         "gaussian_medium.json", "laplace_base.json"]
        base = json.loads((tmp_path / "gaussian_base.json").read_text())
        config = cli.parse_config(base)
        assert [s.scale for s in config.noise] == [20.50, 39.31]
        assert [r.capacity for r in config.resources] == [5.0, 6.0]
        lap = cli.parse_config(json.loads((tmp_path / "laplace_base.json").read_text()))
        assert [s.scale for s in lap.noise] == [59.0, 63.4]
        assert all(s.kind is NoiseKind.LAPLACE for s in lap.noise)

    def test_suite_configs_are_runnable(self, tmp_path):
        cli.main(["paper-suite", "--out", str(tmp_path)])
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(tmp_path / "gaussian_base.json"),
                         "--out", str(out), "--steps", "500"])
        assert code == 0
        assert (out / "sweep_summary.csv").exists()

    def test_solve_prints_allocation(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_doc()), encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        x = np.asarray(doc["x_star"])
        assert x.shape == (2, 1)
        assert x.sum() == pytest.approx(1.0, abs=1e-6)
        assert doc["kkt_residual"] <= 1e-6

    @pytest.mark.parametrize("mutate,separable", [
        (lambda d: d["agents"][3]["terms"].pop(0), False),     # agent 3 ignores resource 0
        (lambda d: d["agents"][4]["terms"][0].__setitem__(0, 5e-324), True),
        (lambda d: d["resources"][0].update(capacity=1e30), True),
    ], ids=["term-deleted", "quartic-coefficient-5e-324", "capacity-1e30"])
    def test_solve_on_a_flat_face(self, tmp_path, capsys, mutate, separable):
        # optima on a flat face, or partials whose rounding error dwarfs an absolute
        # tolerance: the solver answers at once instead of iterating to a cap, and
        # where every agent pays for every resource its answer is the dual oracle's
        cli.emit_reference_suite(tmp_path)
        doc = json.loads((tmp_path / "laplace_base.json").read_text())
        mutate(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kkt_residual"] <= 1e-6
        if separable:
            config = cli.parse_config(doc)
            bound, x = dual_bound_oracle(config.agents, [r.capacity for r in config.resources])
            assert np.allclose(out["x_star"], x, rtol=1e-12, atol=0)
            assert abs(Decimal(out["total_cost"]) - bound) <= Decimal(baseline.GAP_TOL) * bound

    @pytest.mark.parametrize("argv", [["solve"], ["run", "--steps", "50", "--out", "out"]],
                             ids=["solve", "run"])
    def test_coefficient_1e308_exits_3_without_a_warning(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        # 2 * 1e308 overflows in PolyBatch's derivative tables; the warning
        # must stay inside (the test suite turns warnings into errors)
        monkeypatch.chdir(tmp_path)
        cli.emit_reference_suite(tmp_path)
        doc = json.loads((tmp_path / "gaussian_base.json").read_text())
        doc["agents"][2]["terms"][0][0] = 1e308
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == 3
        assert "numeric abort" in capsys.readouterr().err

    def test_solve_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[]", encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 2

    def test_solve_wrong_field_type_exits_2(self, tmp_path, capsys):
        doc = small_doc()
        doc["steps"] = "abc"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 2
        assert "config error: steps must be a JSON integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzzed exit codes
# ---------------------------------------------------------------------------

# Extreme numbers only at sizes a run refuses at once: a step count of 10**30
# or 2**62 is past the bound of 2**53, and no other field sets a loop length.
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0, -1, 10**30, 2**62]
OTHER_KINDS = [True, None, "1", 1, 1.5, [], [1], {}, {"a": 1}]


# paths that name no job field, or nothing at all
ODD_PATHS = [("output_dir",), ("sweep", "seeds"), ("schema_version",), ("noise", 9, "scale"),
             ("steps", "x"), ("",)]


@functools.cache
def fuzz_bases():
    """small_doc() and the four suite configs, each at 50 steps."""
    with tempfile.TemporaryDirectory() as tmp:
        bases = {p.stem: json.loads(p.read_text()) for p in cli.emit_reference_suite(tmp)}
    bases["small"] = small_doc()
    for doc in bases.values():
        doc["steps"] = 50
    return bases


def doc_paths(node, prefix=()):
    """Every path into ``node``, as a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from doc_paths(child, prefix + (key,))


def mutate(data, doc):
    """Apply one random mutation to ``doc`` in place."""
    paths = list(doc_paths(doc))
    *parents, leaf = data.draw(st.sampled_from(paths))
    node = doc
    for key in parents:
        node = node[key]
    how = data.draw(st.sampled_from(["delete", "kind", "extreme", "wrap", "unwrap", "sweep"]))
    if how == "delete":
        del node[leaf]
    elif how == "kind":
        node[leaf] = copy.deepcopy(data.draw(st.sampled_from(OTHER_KINDS)))
    elif how == "extreme":
        node[leaf] = data.draw(st.sampled_from(EXTREMES))
    elif how == "wrap":
        node[leaf] = [node[leaf]]
    elif how == "unwrap":
        value = node[leaf]
        node[leaf] = (value[0] if value else value) if isinstance(value, list) else value
    else:
        axis_path = data.draw(st.sampled_from(paths) | st.sampled_from(ODD_PATHS))
        values = st.sampled_from([doc_value(doc, axis_path), *EXTREMES, *OTHER_KINDS])
        axis_values = copy.deepcopy(data.draw(st.lists(values, min_size=1, max_size=2)))
        doc["sweep"] = {"axes": [{"path": ".".join(map(str, axis_path)), "values": axis_values}],
                        "seeds": data.draw(st.sampled_from([[1], [1, 2]]))}


def doc_value(doc, path):
    """The value at ``path`` in ``doc``; None where it is absent."""
    for key in path:
        try:
            doc = doc[key]
        except (IndexError, KeyError, TypeError):
            return None
    return doc


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_fuzzed_configs_exit_0_2_or_3(data):
    bases = fuzz_bases()
    doc = copy.deepcopy(bases[data.draw(st.sampled_from(sorted(bases)))])
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(data, doc)
    command = data.draw(st.sampled_from(["run", "solve"]))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = ["--out", str(out)] if command == "run" else []
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", str(path), *args])
        assert code in (0, 2, 3)
        if code == 0:
            texts = [p.read_text() for p in out.glob("*.json")] if command == "run" \
                else [stdout.getvalue()]
            for text in texts:
                json.loads(text, parse_constant=reject_constant)


@st.composite
def magnitude_docs(draw):
    """A valid config of 1-3 agents on 1-2 resources, its numbers from 1e-300 to 1e300.

    Each agent pays c x_j^e on each resource j; coefficients, capacities,
    gammas and fixed noise scales are 10^U(-300, 300), alpha = C 10^U(-3, 0).
    """
    def magnitude():
        return 10.0 ** draw(st.floats(-300.0, 300.0))

    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    agents = [{"terms": [[magnitude(), [draw(st.sampled_from([1, 2, 40])) if k == j else 0
                                        for k in range(m)]] for j in range(m)]}
              for _ in range(n)]
    resources = []
    for _ in range(m):
        capacity = magnitude()
        resources.append({"capacity": capacity, "alpha": capacity * 10.0 ** draw(st.floats(-3, 0)),
                          "beta": draw(st.sampled_from([0.0, 0.5, 0.999999])),
                          "gamma": magnitude()})
    noise = [{"kind": kind, "scale_mode": "fixed", "scale": magnitude()} if kind != "none"
             else {"kind": kind} for kind in draw(st.lists(
                 st.sampled_from(["none", "laplace", "gaussian"]), min_size=m, max_size=m))]
    return {"schema_version": 1, "agents": agents, "resources": resources, "noise": noise,
            "steps": 50, "seed": draw(st.integers(0, 2**32 - 1))}


@given(magnitude_docs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_valid_configs_across_magnitudes_exit_0_2_or_3(doc):
    """No warning escapes (the test suite turns them into errors), and a run
    that exits 0 writes only finite numbers; a null cost ratio is allowed."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for args in (["run", "--out", str(out)], ["solve"]):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([args[0], "--config", str(path), *args[1:]])
            assert code in (0, 2, 3)
            if code == 0 and args[0] == "run":
                json.loads((out / f"summary_p000_s{doc['seed']}.json").read_text(),
                           parse_constant=reject_constant)
                [row] = csv.DictReader((out / "sweep_summary.csv").read_text().splitlines())
                numbers = [row["max_rel_error"], row["broadcast_bits_total"]]
                assert all(math.isfinite(float(v)) for v in numbers + [row["cost_ratio"] or 0])
            elif code == 0:
                json.loads(stdout.getvalue(), parse_constant=reject_constant)


def held_terms_underflow(agents, x) -> bool:
    """Whether some term c x^e of a share held at x has x^e or c x^e below the normal floats."""
    return any(0 < x[i, j] and min(x[i, j] ** e[j], c * x[i, j] ** e[j]) < np.finfo(float).tiny
               for i, f in enumerate(agents) for c, e in zip(f.coeffs, f.exponents)
               for j in np.flatnonzero(e))


@given(magnitude_docs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_solved_costs_across_magnitudes_meet_the_dual_bound(doc):
    """Every exit-0 ``dpaimd solve`` whose cost is a positive float lies within the
    solver's relative gap tolerance of the exact dual bound (the cost is separable,
    one monomial per agent and resource).

    Unless floats cannot hold the optimum's terms: where x^e or c x^e at the optimum
    falls below the normal floats, the kernel, which raises x to e before it weighs
    it, reads a cost or a partial low or as 0, even one that is a normal float
    (ROADMAP item 16)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", "--config", str(path)])
    if code != 0 or json.loads(stdout.getvalue())["total_cost"] == 0:
        return
    cost = Decimal(json.loads(stdout.getvalue())["total_cost"])
    config = cli.parse_config(doc)
    bound, x = dual_bound_oracle(config.agents, [r.capacity for r in config.resources])
    if not held_terms_underflow(config.agents, x):
        assert abs(cost - bound) <= Decimal(baseline.GAP_TOL) * cost
