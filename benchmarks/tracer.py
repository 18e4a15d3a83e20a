"""Span tracer that wraps dpaimd's public functions from outside the package.

dpaimd looks its functions up on their modules (and methods on their classes)
at call time, so replacing those attributes with timing wrappers records every
call without touching the program. Each call becomes a span (name, parent,
start, end) kept in flat arrays until the pass ends. A span's self time is its
duration minus the durations of its direct children. Code that is not wrapped
(the engine's step loop, its gradient kernel ``_CostBatch`` and the per-agent
noise draws) shows up only as the self time of the nearest wrapped caller.
"""
from __future__ import annotations

import contextlib
import functools
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from dpaimd import baseline, cli, engine, metrics, model, privacy
from dpaimd.privacy import NoiseKind

MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}   # span id -> what a note hook recorded
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, fn, name: str, note=None):
        """Timing wrapper; ``note(args, kwargs, result)`` runs after the span closes."""
        nid = len(self.names)
        self.names.append(name)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
            if note is not None:
                self.notes[sid] = note(args, kwargs, result)
            return result

        traced.bench_traced = True
        return traced

    @contextlib.contextmanager
    def installed(self, targets=None):
        """Install wrappers on ``targets`` (default: TARGETS) and always remove them."""
        try:
            for owner, attr, name, note in targets or TARGETS:
                original = vars(owner)[attr]
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note))
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def arrays(self):
        """(name index, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int64), np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def by_name(self) -> dict:
        """name -> {calls, total_s, self_s}."""
        name_id, parent, start, end = self.arrays()
        self_s = self_times(parent, start, end)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=end - start, minlength=k)
        own = np.bincount(name_id, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def dump(self, directory: Path):
        """Write spans.npz (every span) and spans_by_name.json (aggregates)."""
        name_id, parent, start, end = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(directory / "spans.npz", names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start - t0, end=end - t0)
        (directory / "spans_by_name.json").write_text(
            json.dumps(self.by_name(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def installed_wrappers() -> list[str]:
    """Names of TARGETS attributes that still hold a tracer wrapper."""
    return [name for owner, attr, name, _ in TARGETS
            if getattr(vars(owner)[attr], "bench_traced", False)]


# --- note hooks: what each span records besides its times --------------------

def _note_run(args, kwargs, trace):
    config = args[0] if args else kwargs["config"]
    noisy = np.array([s.kind is not NoiseKind.NONE for s in config.noise])
    return {
        "config_steps": config.steps,
        "cells": trace.steps * trace.n_resources,
        "rows": trace.steps * trace.n_agents * trace.n_resources,
        "events": int(trace.event_counts.sum()),
        "noise_draws": int(trace.event_counts[noisy].sum()) * trace.n_agents,
        "trace_bytes": sum(v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray)),
    }


def _note_calibrate(args, kwargs, scales):
    config = args[0] if args else kwargs["config"]
    doc = cli.serialize_config(config)
    doc.pop("noise")    # the pilot replaces the noise specs with none
    return {"key": json.dumps(doc, sort_keys=True), "config_steps": config.steps}


def _note_solve(args, kwargs, optimum):
    costs, resources = args[0], args[1]
    key = (tuple((f.coeffs.tobytes(), f.exponents.tobytes(), f.exponents.shape) for f in costs),
           tuple(resources), args[2:], tuple(sorted(kwargs.items())))
    return {"key": key, "m": len(resources), "kkt_residual": optimum.kkt_residual}


def _note_summarize(args, kwargs, summary):
    optimum = args[2] if len(args) > 2 else kwargs.get("optimum")
    rel = None
    if summary.abs_error is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = float(np.nanmax(summary.abs_error / np.abs(optimum.x_star)))
    return {"cost_ratio": summary.cost_ratio, "max_rel_error": rel}


def _note_trace_csv(args, kwargs, _):
    return str(args[1])


def _note_len(args, kwargs, result):
    return len(result)


TARGETS = [
    (cli, "run_experiment", "cli.run_experiment", None),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "expand_sweep", "cli.expand_sweep", _note_len),
    (cli, "summary_to_dict", "cli.summary_to_dict", None),
    (cli, "write_trace_csv", "cli.write_trace_csv", _note_trace_csv),
    (engine, "run", "engine.run", _note_run),
    (engine, "resolve_noise_scales", "engine.resolve_noise_scales", _note_calibrate),
    (engine, "server_step", "engine.server_step", None),
    (privacy.SensitivityTracker, "update_all", "privacy.update_all", None),
    (baseline, "solve_optimum", "baseline.solve_optimum", _note_solve),
    (baseline, "project_simplex", "baseline.project_simplex", None),
    (model.CostFunction, "partial", "model.partial", None),
    (metrics, "summarize", "metrics.summarize", _note_summarize),
    (metrics, "derivative_spread", "metrics.derivative_spread", None),
]


def count_rows(path: str) -> int:
    """Data rows of a CSV file with one header line."""
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines - 1


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and closed-form checks on its counts.

    Call before the pass's output files are removed: trace rows and bytes are
    read back from the CSV files the CLI wrote.
    """
    name_id, parent, _, _ = tracer.arrays()
    stats = tracer.by_name()
    ids = {name: i for i, name in enumerate(tracer.names)}
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)

    def notes_of(name):
        return [tracer.notes[int(s)] for s in np.nonzero(name_id == ids[name])[0]]

    server = name_id == ids["engine.server_step"]
    steps = int((server & (parent_name == ids["engine.run"])).sum())
    # a pilot is a resolve_noise_scales span with server steps directly below it
    pilot_step = server & (parent_name == ids["engine.resolve_noise_scales"])
    pilot_steps = int(pilot_step.sum())
    pilots = [tracer.notes[s] for s in sorted(set(parent[pilot_step].tolist()))]

    runs = notes_of("engine.run")
    solves = notes_of("baseline.solve_optimum")
    summaries = notes_of("metrics.summarize")
    csv_paths = notes_of("cli.write_trace_csv")
    trace_rows = sum(count_rows(p) for p in csv_paths)
    trace_bytes = sum(Path(p).stat().st_size for p in csv_paths)
    m = solves[0]["m"] if solves else 1

    def t(name, key="total_s"):
        return stats[name][key]

    def ratio(distinct, attempts):
        return distinct / attempts if attempts else 1.0

    def worst(key):
        values = [s[key] for s in summaries if s[key] is not None]
        return max(values) if values else 0.0

    out = {
        "engine.run_s": t("engine.run"),
        "engine.self_s": t("engine.run", "self_s"),
        "engine.server_step_calls": stats["engine.server_step"]["calls"],
        "engine.server_step_s": t("engine.server_step"),
        "engine.steps": steps,
        "engine.pilot_steps": pilot_steps,
        "engine.events": sum(r["events"] for r in runs),
        "engine.event_frac": ratio(sum(r["events"] for r in runs), sum(r["cells"] for r in runs)),
        "engine.calibrate_s": t("engine.resolve_noise_scales"),
        "engine.pilot_useful_ratio": ratio(len({p["key"] for p in pilots}), len(pilots)),
        "engine.trace_mb_computed": max((r["trace_bytes"] for r in runs), default=0) / MIB,
        "privacy.update_all_calls": stats["privacy.update_all"]["calls"],
        "privacy.update_all_s": t("privacy.update_all"),
        "privacy.noise_draws": sum(r["noise_draws"] for r in runs),
        "baseline.solve_calls": len(solves),
        "baseline.solve_s": t("baseline.solve_optimum"),
        "baseline.solve_useful_ratio": ratio(len({s["key"] for s in solves}), len(solves)),
        "baseline.pgd_iterations": stats["baseline.project_simplex"]["calls"] / m,
        "baseline.kkt_residual_max": max((s["kkt_residual"] for s in solves), default=0.0),
        "model.partial_calls": stats["model.partial"]["calls"],
        "model.partial_s": t("model.partial"),
        "metrics.summarize_s": t("metrics.summarize"),
        "metrics.derivative_spread_s": t("metrics.derivative_spread"),
        "metrics.cost_ratio": worst("cost_ratio"),
        "metrics.max_rel_error": worst("max_rel_error"),
        "cli.parse_config_s": t("cli.parse_config"),
        "cli.summary_to_dict_s": t("cli.summary_to_dict"),
        "cli.trace_write_s": t("cli.write_trace_csv"),
        "cli.trace_rows": trace_rows,
        "cli.trace_bytes": trace_bytes,
        "cli.trace_rows_per_s": ratio(trace_rows, t("cli.write_trace_csv")) if csv_paths else 0.0,
        "cli.run_experiment_self_s": t("cli.run_experiment", "self_s"),
        "cli.jobs": sum(notes_of("cli.expand_sweep")),
        "tracer.spans": len(name_id),
    }
    checks = {
        "server_step calls = steps + pilot steps":
            out["engine.server_step_calls"] == steps + pilot_steps,
        "steps = sum of run horizons": steps == sum(r["config_steps"] for r in runs),
        "pilot steps = sum of pilot horizons": pilot_steps == sum(p["config_steps"] for p in pilots),
        "trace rows = steps * n * m":
            not csv_paths or trace_rows == sum(r["rows"] for r in runs),
    }
    return out, checks
