"""Experiment orchestration: config files, sweeps, trace/summary emission.

Config files are JSON with an explicit schema_version; unknown keys are
rejected so sweep-path typos fail loudly instead of silently running the
wrong experiment. Exit codes: 0 ok, 2 config error, 3 numeric abort.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import copy
import csv
import dataclasses
import gc
import itertools
import json
import os
import reprlib
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from . import baseline, engine, metrics, model
from .model import ConfigurationError, CostFunction, ResourceConfig, SystemConfig
from .privacy import NoiseKind, NoiseSpec, ScaleMode

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
TRACE_CHUNK_ROWS = 1200     # trace CSV rows per write; more raises the writer's peak memory
# A sweep value may nest lists and objects this deep: far more than any job
# field takes (an agents list, the deepest, nests 5) and far less than the
# recursion limit that copying a value runs into.
MAX_SWEEP_NESTING = 32

# The config schema. A dict is an object with only those keys, [kind] a list of
# kind, a tuple a list with exactly one item per entry, and a string names a
# JSON kind. _JOB is what one run reads, so it is all a sweep axis may set.
_JOB = {
    "agents": [{"terms": [("number", ["integer"])]}],
    "resources": [{"capacity": "number", "alpha": "number", "beta": "number", "gamma": "number"}],
    "noise": [{"kind": "string", "scale_mode": "string", "epsilon": "number",
               "delta": "number", "scale": "number", "sensitivity": "number"}],
    "steps": "integer",
    "seed": "integer",
    "burn_in_events": "integer",
    "agent_ids": ["integer"],
}
_SCHEMA = {
    **_JOB,
    "schema_version": "integer",
    "output_dir": "string",
    # dropped: one noise scale per resource needs only the max over agents
    "per_agent_sensitivity": "boolean",
    "sweep": {"axes": [{"path": "string", "values": "list"}], "seeds": ["integer"]},
}
_KINDS = {"integer": int, "number": (int, float), "boolean": bool, "string": str,
          "object": dict, "list": list}
_BRIEF = reprlib.Repr()     # how a message shows a value: long ones cut, nested as [...]
_BRIEF.maxlevel = 1


def _check(value, kind, where: str = ""):
    """Raise ConfigurationError unless ``value`` has the schema kind ``kind``.

    Integers are integer literals and numbers finite; neither is a boolean.
    ``where`` names the value in messages, "" being the config root.
    """
    name = where or "config root"
    if isinstance(kind, dict):
        _check(value, "object", where)
        unknown = set(value) - set(kind)
        if unknown:
            raise ConfigurationError(f"unknown key(s) {_BRIEF.repr(sorted(unknown))} in {name}")
        for key, item in value.items():
            _check(item, kind[key], f"{where}.{key}" if where else key)
    elif isinstance(kind, (list, tuple)):
        _check(value, "list", where)
        kinds = kind if isinstance(kind, tuple) else kind * len(value)
        if len(kinds) != len(value):
            raise ConfigurationError(f"{name} must be a list of {len(kinds)} items, "
                                     f"got {_BRIEF.repr(value)}")
        for idx, (item_kind, item) in enumerate(zip(kinds, value)):
            _check(item, item_kind, f"{where}[{idx}]")
    elif (not isinstance(value, _KINDS[kind])
          or kind in ("integer", "number") and isinstance(value, bool)
          or kind == "number" and not abs(value) <= sys.float_info.max):
        finite = "finite " if kind == "number" else ""
        raise ConfigurationError(f"{name} must be a {finite}JSON {kind}, got {_BRIEF.repr(value)}")


def _nesting(value) -> int:
    """How many levels of lists and objects ``value`` nests, found without recursion."""
    depth, level = 0, [value]
    while containers := [item for item in level if isinstance(item, (list, dict))]:
        depth += 1
        level = [v for item in containers for v in (item.values() if isinstance(item, dict) else item)]
    return depth


def _checked_sweep(raw: dict):
    """The validated sweep block: (axis paths, axis value lists, seeds)."""
    sweep = raw.get("sweep", {})
    _check(sweep, _SCHEMA["sweep"], "sweep")
    axes = sweep.get("axes", [])
    for idx, axis in enumerate(axes):
        if "path" not in axis or not axis.get("values"):
            raise ConfigurationError(f"sweep.axes[{idx}] needs a path and a non-empty list of values")
        if axis["path"] == "seed":      # a job's seed comes from sweep.seeds or seed alone
            raise ConfigurationError(f"sweep.axes[{idx}] sweeps seed; list seeds in sweep.seeds")
        for k, value in enumerate(axis["values"]):
            if _nesting(value) > MAX_SWEEP_NESTING:
                raise ConfigurationError(f"sweep.axes[{idx}].values[{k}] nests more than "
                                         f"{MAX_SWEEP_NESTING} levels of lists and objects")
    seeds = sweep.get("seeds", [raw.get("seed")])
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"sweep.seeds must name one or more distinct seeds, "
                                 f"got {_BRIEF.repr(seeds)}")
    return [a["path"] for a in axes], [a["values"] for a in axes], seeds


def _cost_function(terms=()) -> CostFunction:
    """One agent's cost from its [coefficient, [exponents]] terms."""
    return CostFunction(coeffs=np.array([c for c, _ in terms], dtype=float),
                        exponents=np.array([e for _, e in terms], dtype=int))


def parse_config(raw: dict) -> SystemConfig:
    """Build a SystemConfig from a parsed JSON document (sweep block checked, not expanded)."""
    _check(raw, _SCHEMA)
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(f"schema_version must be {SCHEMA_VERSION}, "
                                 f"got {_BRIEF.repr(raw.get('schema_version'))}")
    for req in ("agents", "resources", "noise", "steps", "seed"):
        if req not in raw:
            raise ConfigurationError(f"missing required field '{req}'")
    _checked_sweep(raw)
    job = {key: raw[key] for key in _JOB if key in raw}
    for key, build in (("agents", _cost_function), ("resources", ResourceConfig),
                       ("noise", NoiseSpec)):
        built = job[key] = list(job[key])
        for idx, item in enumerate(built):
            try:
                built[idx] = build(**item)
            except (TypeError, ValueError, OverflowError) as exc:   # Overflow: exponent > int64
                raise ConfigurationError(f"{key}[{idx}]: {exc}") from exc
    return SystemConfig(**job)


def _fields(obj) -> dict:
    """A dataclass's fields that are set, an enum by its value."""
    return {f.name: v.value if isinstance(v, Enum) else v
            for f in dataclasses.fields(obj) if (v := getattr(obj, f.name)) is not None}


def serialize_config(config: SystemConfig) -> dict:
    return {
        **_fields(config),
        "schema_version": SCHEMA_VERSION,
        "agents": [
            {"terms": [[float(c), [int(e) for e in row]]
                       for c, row in zip(f.coeffs, f.exponents)]}
            for f in config.agents
        ],
        "resources": [_fields(r) for r in config.resources],
        "noise": [_fields(s) for s in config.noise],
        "agent_ids": list(config.agent_ids),
    }


# ---------------------------------------------------------------------------
# Sweep expansion
# ---------------------------------------------------------------------------

def _apply_path(doc: dict, path: str, value):
    """Set a dotted path like 'noise.0.scale' inside a job's config document.

    The path walks the job schema, so it reaches only fields a run reads;
    every part but the last must also exist in ``doc``.
    """
    kind, keys, node = _JOB, [], doc
    try:
        for part in path.split("."):
            if isinstance(kind, str):           # a path below a number, string or flag
                raise KeyError(part)
            keys.append(part if isinstance(kind, dict) else int(part))
            kind = kind[0] if isinstance(kind, list) else kind[keys[-1]]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"sweep path '{path}' names no field of a job's config") from exc


def expand_sweep(raw: dict):
    """The list of (point_index, overrides, raw_config, seed), one per job of the
    sweep cross product."""
    paths, value_lists, seeds = _checked_sweep(raw)
    points = list(itertools.product(*value_lists)) if paths else [()]
    jobs = []
    for p_idx, values in enumerate(points):
        for seed in seeds:
            doc = copy.deepcopy(raw)
            doc.pop("sweep", None)
            doc["seed"] = seed
            overrides = dict(zip(paths, values))
            for path, value in overrides.items():
                _apply_path(doc, path, value)
            jobs.append((p_idx, overrides, doc, seed))
    return jobs


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------

def summary_to_dict(summary: metrics.RunSummary, config: SystemConfig,
                    optimum: baseline.OptimalAllocation) -> dict:
    """The summary document; its series are the trace's values on ``engine.series_grid``."""
    trace = summary.trace
    grid = engine.series_grid(trace.steps).tolist()
    spread = {str(j): {"event_steps": steps_j.tolist(), "spread": spread_j.tolist()}
              for j, (steps_j, spread_j) in summary.derivative_spread.items()}
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "steps": config.steps,
        "final_xbar": trace.final_xbar.tolist(),
        "abs_error": summary.abs_error.tolist(),
        "cost_ratio": summary.cost_ratio,
        "feasibility_gap": (trace.final_xbar.sum(axis=0)
                            - [r.capacity for r in config.resources]).tolist(),
        "event_counts": trace.event_counts.tolist(),
        "broadcast_bits_total": trace.broadcast_bits_total,
        "noise_scales": trace.noise_scales.tolist(),
        "comm_bits": {"steps": grid, "values": trace.grid_events.sum(axis=1).tolist()},
        "sensitivity": {"steps": grid, "values": trace.grid_sensitivity.tolist()},
        "derivative_spread": spread,
        "x_star": optimum.x_star.tolist(),
        "optimal_total_cost": optimum.total_cost,
        "kkt_residual": optimum.kkt_residual,
    }


_ROW_BODIES = np.array(["%.17g,%.17g,0,,,", "%.17g,%.17g,1,%.17g,%.17g,"])   # by event bit


def write_trace_csv(trace: engine.Trace, path: Path):
    """Full per-step trace, one row per (step, agent, resource), 17 sig digits;
    rows go out TRACE_CHUNK_ROWS at a time, x-bar and lambda-hat derived per
    chunk, each chunk as one ``%`` of its floats alone on a template whose other
    fields are text without a ``%``. The engine records lambda-hat and the noisy
    derivative NaN exactly off event, where a row's body leaves them empty.
    Needs a trace run with ``dense=True``."""
    n, m = trace.n_agents, trace.n_resources
    views = trace.views(max(1, TRACE_CHUNK_ROWS // (n * m)))   # raises on a lean trace
    cum_bits = trace.cum_bits
    cells = [f"{i},{j}," for i in range(n) for j in range(m)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("step,agent,resource,x,xbar,event_bit,lambda_hat,noisy_derivative,"
                 "sensitivity,cum_bits\n")
        for span, xbar, lambda_hat in views:
            k, bits = len(xbar), trace.event_bits[span]
            block = np.stack([trace.x[span], xbar, lambda_hat, trace.noisy_derivative[span]], -1)
            # x and x-bar on every row, lambda-hat and the noisy derivative on event rows
            keep = np.broadcast_to(bits[:, None, :, None] >= [0, 0, 1, 1], block.shape)
            # each (step, resource)'s "sensitivity,cum_bits" tail, resource-major
            pairs = zip(trace.sensitivity[span].T.ravel().tolist(), cum_bits[span].tolist() * m)
            text = "%.17g,%d\n" * (k * m) % tuple(itertools.chain.from_iterable(pairs))
            tails, bodies = text.splitlines(keepends=True), _ROW_BODIES[bits.T].tolist()
            steps = [f"{s}," for s in range(span.start, span.start + k)]
            pieces = [None] * (4 * k * n * m)      # the step, cell, body and tail of each row
            pieces[1::4] = cells * k
            for r in range(n * m):      # rows r, r + n*m, ... of agent r // m and resource r % m
                pieces[4 * r::4 * n * m] = steps
                pieces[4 * r + 2::4 * n * m] = bodies[r % m]
                pieces[4 * r + 3::4 * n * m] = tails[r % m * k:(r % m + 1) * k]
            fh.write("".join(pieces) % tuple(block[keep].tolist()))


def _problem_key(config: SystemConfig):
    """What the baseline solver reads: the agents' terms and the capacities,
    which it holds as floats (so 5 and 5.0 are one problem)."""
    terms = tuple((f.coeffs.tobytes(), f.exponents.tobytes(), f.exponents.shape)
                  for f in config.agents)
    return terms, tuple(float(r.capacity) for r in config.resources)


def _pilot_key(config: SystemConfig):
    """What a noiseless calibration pilot reads: the baseline problem, each
    resource's alpha, beta and gamma as floats, the steps and the burn-in."""
    return (_problem_key(config), config.steps, config.burn_in_events,
            tuple((float(r.alpha), float(r.beta), float(r.gamma)) for r in config.resources))


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "process_cpu_count"):    # Python >= 3.13
        return os.process_cpu_count() or 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextlib.contextmanager
def _job_map(workers: int):
    """``map`` over lists, returning a list. With ``workers`` > 1, one pool of that
    many processes takes every map of two or more items; a lone item, or every item
    without the pool, runs in this process. ``run_experiment`` asks for
    ``min(jobs, n_jobs, usable CPUs)``: on one CPU a pool runs nothing in parallel.
    The pool's workers start at its first map, so a lone solve or pilot before it
    runs with no worker alive. They fork with numpy.random loaded and the heap
    frozen, so their collections never walk (and copy) it; it thaws as the pool closes."""
    if workers < 2:
        yield lambda fn, *iterables: list(map(fn, *iterables))
        return
    from concurrent.futures import ProcessPoolExecutor     # only a pool needs its import time
    import numpy.random     # noqa: F401 (imported for the workers to inherit)
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield lambda fn, *items: list((pool.map if len(items[0]) > 1 else map)(fn, *items))
    finally:
        gc.unfreeze()


def _json_text(doc) -> str:
    """``doc`` as strict JSON; a NaN or an infinity in it is a numeric abort."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"output holds a non-finite number: {exc}") from exc


def _run_one(job):
    """Worker for one sweep point x seed, given the optimum it shares with other
    jobs and a config whose noise is calibrated; returns its sweep_summary.csv row."""
    p_idx, overrides, config, optimum, emit_trace, out_dir = job
    trace = engine.run(config, dense=emit_trace)
    summary = metrics.summarize(trace, config.agents, optimum)
    sdoc = summary_to_dict(summary, config, optimum)
    sdoc["overrides"] = overrides
    tag = f"p{p_idx:03d}_s{config.seed}"
    out_path = Path(out_dir) / f"summary_{tag}.json"
    out_path.write_text(_json_text(sdoc) + "\n", encoding="utf-8")
    if emit_trace:
        write_trace_csv(trace, Path(out_dir) / f"trace_{tag}.csv")
    share = optimum.x_star > 0      # each column has one: it sums to its capacity
    return {
        "tag": tag, "point": p_idx, "seed": config.seed,
        "overrides": json.dumps(sdoc["overrides"], sort_keys=True),
        "cost_ratio": summary.cost_ratio,
        "feasibility_gap": json.dumps(sdoc["feasibility_gap"]),
        "max_rel_error": float((summary.abs_error[share] / optimum.x_star[share]).max()),
        "broadcast_bits_total": trace.broadcast_bits_total,
    }


def _load(config_path) -> dict:
    """The JSON document in the config file; undecodable text is a config error."""
    try:
        return json.loads(Path(config_path).read_text(encoding="utf-8"))
    except ValueError as exc:   # not UTF-8, not JSON, or an integer literal too long to convert
        raise ConfigurationError(str(exc)) from exc
    except RecursionError as exc:
        raise ConfigurationError(f"config file {config_path} is nested too deeply to decode") from exc


def run_experiment(config_path, seed=None, steps=None, jobs=1,
                   emit_trace=False, out=None) -> int:
    """Run the config (with optional sweep) and return EXIT_OK; ``main`` maps
    what it raises to an exit code."""
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    raw = _load(config_path)
    _check(raw, "object")
    if seed is not None:
        raw["seed"] = int(seed)
        if isinstance(raw.get("sweep"), dict):
            raw["sweep"].pop("seeds", None)
    if steps is not None:
        raw["steps"] = int(steps)
    parse_config(raw)  # validate before expanding
    work = expand_sweep(raw)
    configs = [parse_config(doc) for _, _, doc, _ in work]   # before any job starts
    out_dir = Path(out) if out else Path(raw.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"sweep cross-product: {len(work)} run(s)")
    # What jobs share is computed once: the optimum per distinct problem, and
    # one calibration per noiseless problem (_pilot_key), which writes its dq
    # into the noise specs of each sweep point of it: the pilot draws no noise,
    # so it never reads the noise specs, the seed or the agent ids.
    keys = [_problem_key(config) for config in configs]
    problems, groups = {}, {}
    for (p_idx, _, _, _), key, config in zip(work, keys, configs):
        problems.setdefault(key, config)
        groups.setdefault(_pilot_key(config), (config, {}))[1].setdefault(p_idx, config.noise)
    with _job_map(min(jobs, len(work), _usable_cpus())) as job_map:
        optima = dict(zip(problems, job_map(baseline.solve_optimum,
                                            [c.agents for c in problems.values()],
                                            [c.resources for c in problems.values()])))
        grouped = job_map(engine.resolve_noise_scales, [c for c, _ in groups.values()],
                          [list(points.values()) for _, points in groups.values()])
        noise = {p_idx: resolved for (_, points), group in zip(groups.values(), grouped)
                 for p_idx, resolved in zip(points, group)}
        rows = job_map(_run_one, [
            (p_idx, overrides, dataclasses.replace(config, noise=noise[p_idx]), optima[key],
             emit_trace, str(out_dir))
            for (p_idx, overrides, _, _), key, config in zip(work, keys, configs)])
    rows.sort(key=lambda r: (r["point"], r["seed"]))
    with open(out_dir / "sweep_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(f"{row['tag']}: cost_ratio={row['cost_ratio']} "
              f"max_rel_error={row['max_rel_error']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Canonical experiment suite
# ---------------------------------------------------------------------------

REFERENCE_SEED = 20230601
REFERENCE_STEPS = 200_000


def reference_system_config(noise: list[NoiseSpec], seed: int = REFERENCE_SEED,
                            steps: int = REFERENCE_STEPS) -> SystemConfig:
    """Six agents, two resources: C=(5, 6), alpha=(0.01, 0.0125),
    beta=(0.70, 0.6), gamma=1/1000, with the canonical cost-function mix."""
    return SystemConfig(
        agents=model.reference_agent_costs(seed),
        resources=[
            ResourceConfig(capacity=5.0, alpha=0.01, beta=0.70, gamma=1e-3),
            ResourceConfig(capacity=6.0, alpha=0.0125, beta=0.6, gamma=1e-3),
        ],
        noise=noise,
        steps=steps,
        seed=seed,
    )


def _gaussian_pair(s1: float, s2: float) -> list[NoiseSpec]:
    return [NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                      scale_mode=ScaleMode.FIXED, scale=s) for s in (s1, s2)]


def emit_reference_suite(out_dir) -> list[Path]:
    """Write the four canonical config files (Gaussian base + two higher-noise
    grids, and the Laplace configuration) so the whole suite is one command."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = {
        "gaussian_base.json": _gaussian_pair(20.50, 39.31),
        "gaussian_medium.json": _gaussian_pair(50.0, 70.0),
        "gaussian_high.json": _gaussian_pair(70.0, 110.0),
        "laplace_base.json": [
            NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.1,
                      scale_mode=ScaleMode.FIXED, scale=59.0),
            NoiseSpec(kind=NoiseKind.LAPLACE, epsilon=0.1,
                      scale_mode=ScaleMode.FIXED, scale=63.4),
        ],
    }
    paths = []
    for name, noise in suite.items():
        config = reference_system_config(noise)
        path = out_dir / name
        path.write_text(_json_text(serialize_config(config)) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def solve_command(config_path) -> int:
    config = parse_config(_load(config_path))
    opt = baseline.solve_optimum(config.agents, config.resources)
    print(_json_text({
        "x_star": opt.x_star.tolist(),
        "total_cost": opt.total_cost,
        "kkt_residual": opt.kkt_residual,
    }))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dpaimd",
                                     description="Differentially private AIMD allocation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config (with optional sweep)")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--emit-trace", action="store_true")
    p_run.add_argument("--out", default=None)

    p_suite = sub.add_parser("paper-suite", help="emit the canonical experiment configs")
    p_suite.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="solve the baseline only")
    p_solve.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    # one hook per process: at exit the frozen heap's module cycles go uncollected
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        if args.command == "run":
            return run_experiment(args.config, seed=args.seed, steps=args.steps,
                                  jobs=args.jobs, emit_trace=args.emit_trace, out=args.out)
        if args.command == "paper-suite":
            for path in emit_reference_suite(args.out):
                print(path)
            return EXIT_OK
        return solve_command(args.config)
    # RecursionError (input nested too deep) is a RuntimeError, so it comes first
    except (ConfigurationError, OSError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:     # NumericError too, whose message names its step
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
