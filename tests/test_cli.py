import contextlib
import copy
import functools
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaimd import baseline, cli, engine, metrics
from dpaimd.model import ConfigurationError, NumericError, ResourceConfig, SystemConfig
from dpaimd.model import CostFunction, quad_quartic_cost, quadratic_cost, quartic_cost
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode

OVERFLOW_WARNING = "ignore:overflow encountered:RuntimeWarning"     # the exit-3 cases overflow


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


class TestDownsample:
    def test_short_series_untouched(self):
        idx, out = cli._downsample(np.arange(10.0))
        assert np.array_equal(out, np.arange(10.0))

    def test_long_series_capped_with_endpoints(self):
        series = np.arange(100_000.0)
        idx, out = cli._downsample(series)
        assert out.size <= cli.MAX_SERIES_POINTS
        assert idx[0] == 0 and idx[-1] == series.size - 1


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
        lines = (out / "trace_p000_s4.csv").read_text().splitlines()
        assert lines[0].split(",")[:4] == ["step", "agent", "resource", "x"]
        assert len(lines) == 1 + 20 * 2 * 1

    def test_seed_and_steps_overrides(self, tmp_path):
        path = self.write(tmp_path, small_doc())
        out = tmp_path / "out"
        cli.main(["run", "--config", str(path), "--out", str(out),
                  "--seed", "9", "--steps", "10"])
        summary = json.loads((out / "summary_p000_s9.json").read_text())
        assert summary["seed"] == 9 and summary["steps"] == 10

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
    ], ids=["sweep-path-index", "sweep-value", "term-without-exponents",
            "calibration-without-events", "agents-not-list", "resources-not-objects",
            "noise-not-objects", "agent-ids-not-list", "sweep-seeds-not-list", "steps-string",
            "steps-fraction", "seed-string", "seed-negative", "burn-in-string",
            "per-agent-string", "sweep-values-not-list", "sweep-axis-without-path",
            "seed-override-on-list-root", "seed-override-on-list-sweep",
            "duplicate-agent-ids", "duplicate-sweep-seeds", "sweep-seeds-empty",
            "sweep-values-empty", "noise-scale-bool", "resource-beta-bool",
            "resource-capacity-bool"])
    def test_config_errors_exit_2(self, tmp_path, capsys, mutate, extra_args):
        out_args = ["--out", str(tmp_path / "out"), *extra_args]
        assert self.run_mutated_suite_config(tmp_path, mutate, out_args) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    def run_mutated_suite_config(self, tmp_path, mutate, args):
        suite = {p.name: p for p in cli.emit_reference_suite(tmp_path / "suite")}
        doc = json.loads(suite["laplace_base.json"].read_text())
        doc["steps"] = 50       # too short for any capacity event
        path = self.write(tmp_path, mutate(doc) or doc)
        return cli.main(["run", "--config", str(path), *args])

    # inputs that once ended in a traceback or silently ran another experiment
    @pytest.mark.parametrize("mutate,code", [
        (lambda d: d["resources"][0].update(capacity=math.inf), 2),
        pytest.param(lambda d: d["resources"][0].update(capacity=10**200), 3,
                     marks=pytest.mark.filterwarnings(OVERFLOW_WARNING)),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(0, math.inf), 2),
        (lambda d: d["agents"][0]["terms"][0].__setitem__(0, math.nan), 2),
        pytest.param(lambda d: d["agents"][0]["terms"][0].__setitem__(0, 1e308), 3,
                     marks=pytest.mark.filterwarnings(OVERFLOW_WARNING)),
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
        (lambda d: d.update(steps=300, noise=[{"kind": "laplace", "scale_mode": "calibrated",
                                               "epsilon": 5e-324}] * 2), 3),
    ], ids=["capacity-inf", "capacity-int-1e200", "coefficient-inf", "coefficient-nan",
            "coefficient-1e308", "steps-1e30", "steps-2-62", "output-dir-number",
            "exponent-fraction", "exponent-bool", "coefficient-string", "term-three-items",
            "scale-inf", "gamma-inf", "sensitivity-inf", "epsilon-nan", "sweep-axis-output-dir",
            "sweep-axis-sweep", "calibrated-scale-inf"])
    def test_malformed_inputs_exit_2_or_3(self, tmp_path, capsys, monkeypatch, mutate, code):
        monkeypatch.chdir(tmp_path)     # no --out: output_dir, if it were used, is relative
        assert self.run_mutated_suite_config(tmp_path, mutate, []) == code
        err = capsys.readouterr().err
        assert ("config error:" if code == 2 else "numeric abort") in err
        assert "Traceback" not in err

    def test_numeric_abort_exits_3(self, tmp_path, monkeypatch):
        def boom(config, scales=None):
            raise NumericError("non-finite demand at step 7", step=7)
        monkeypatch.setattr(engine, "run", boom)
        path = self.write(tmp_path, small_doc())
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3

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

    def test_one_solve_per_problem_one_calibration_per_point(self, tmp_path, monkeypatch):
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
        assert calls == {"solve_optimum": 2, "resolve_noise_scales": 4}


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
# or 2**62 fails its first allocation, and no other field sets a loop length.
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


# A cost that ignores a resource, or nearly so (a deleted term, a 5e-324
# coefficient), leaves the optimum on a flat face where projected gradient
# crawls: the full 500,000 iterations take about 35 s before the exit-3 abort.
# The fuzz cases stop at 20,000, three times what an undamaged suite config needs.
CAPPED_SOLVE = functools.partial(baseline.solve_optimum, max_iter=20_000)


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
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
                mock.patch.object(baseline, "solve_optimum", CAPPED_SOLVE):
            code = cli.main([command, "--config", str(path), *args])
        assert code in (0, 2, 3)
        if code == 0:
            texts = [p.read_text() for p in out.glob("*.json")] if command == "run" \
                else [stdout.getvalue()]
            for text in texts:
                json.loads(text, parse_constant=reject_constant)
