"""Workload generators for the dpaimd benchmark.

Each generator turns a workload seed into one JSON config document, the only
input the program receives. Horizons are sized so that one iteration takes a
few seconds on a 2-CPU machine; the reasons for each workload are in
README.md next to this file.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dpaimd import baseline, cli, engine, metrics
from dpaimd.privacy import NoiseKind, NoiseSpec, ScaleMode

REFERENCE_LONG_STEPS = 50_000
SWEEP_STEPS = 1_000
SWEEP_WORKERS = 2
TRACE_EMIT_STEPS = 15_000
WIDE_AGENTS = 16
WIDE_RESOURCES = 3
WIDE_STEPS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict               # config document handed to the program
    via_cli: bool           # run through `dpaimd run` rather than in-process calls
    workers: int = 1        # `dpaimd run --jobs`
    emit_trace: bool = False

    def job_docs(self) -> list:
        """(point, seed, doc) per job, in the order the CLI expands the sweep."""
        return [(p, seed, doc) for p, _, doc, seed in cli.expand_sweep(self.doc)]

    @property
    def sim_steps(self) -> int:
        """Non-pilot simulated steps of one iteration, summed over sweep jobs."""
        return sum(doc["steps"] for _, _, doc in self.job_docs())


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _run_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _reference_doc(noise, steps: int, seed: int) -> dict:
    """The six-agent reference system with its canonical agents and a new run seed."""
    doc = cli.serialize_config(cli.reference_system_config(noise, steps=steps))
    doc["seed"] = seed
    return doc


def reference_long(seed: int, scratch: Path, steps: int = REFERENCE_LONG_STEPS) -> Workload:
    noise = [
        NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                  scale_mode=ScaleMode.FIXED, scale=20.50),
        NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                  scale_mode=ScaleMode.FIXED, scale=39.31),
    ]
    rng = _rng("reference_long", seed)
    return Workload("reference_long", _reference_doc(noise, steps, _run_seed(rng)), via_cli=False)


def calibrated_sweep(seed: int, scratch: Path, steps: int = SWEEP_STEPS) -> Workload:
    noise = [
        NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.5, delta=0.01,
                  scale_mode=ScaleMode.CALIBRATED),
        NoiseSpec(kind=NoiseKind.GAUSSIAN, epsilon=0.2, delta=0.01,
                  scale_mode=ScaleMode.CALIBRATED),
    ]
    rng = _rng("calibrated_sweep", seed)
    doc = _reference_doc(noise, steps, _run_seed(rng))
    # three distinct epsilons strictly inside (0, 1), one per third of (0.1, 0.9)
    epsilons = [round(0.1 + (k + rng.uniform(0.05, 0.95)) * 0.8 / 3, 4) for k in range(3)]
    doc["sweep"] = {
        "axes": [{"path": "noise.0.epsilon", "values": epsilons}],
        "seeds": [_run_seed(rng) for _ in range(3)],
    }
    return Workload("calibrated_sweep", doc, via_cli=True, workers=SWEEP_WORKERS)


def trace_emit(seed: int, scratch: Path, steps: int = TRACE_EMIT_STEPS) -> Workload:
    suite = {p.name: p for p in cli.emit_reference_suite(Path(scratch) / "paper-suite")}
    doc = json.loads(suite["laplace_base.json"].read_text(encoding="utf-8"))
    doc["steps"] = steps
    doc["seed"] = _run_seed(_rng("trace_emit", seed))
    return Workload("trace_emit", doc, via_cli=True, emit_trace=True)


def wide_population(seed: int, scratch: Path, steps: int = WIDE_STEPS) -> Workload:
    """Separable costs a/2 x_j^2 + b/4 x_j^4 per resource.

    The (a, b) pairs form a fixed grid over a in [10, 30] and b in [15, 35];
    the seed shuffles them over agents, independently per resource. Every
    seed thus poses the baseline solver a permutation of the same per-resource
    problems, so its iteration count, the main cost here besides the run,
    does not change with the seed.
    """
    n, m = WIDE_AGENTS, WIDE_RESOURCES
    rng = _rng("wide_population", seed)
    a = 10 + 20 * np.arange(n) / (n - 1)
    b = 15 + 20 * ((5 * np.arange(n)) % n) / (n - 1)
    terms = [[] for _ in range(n)]
    for j in range(m):
        for i, k in enumerate(rng.permutation(n)):
            quad, quart = [0] * m, [0] * m
            quad[j], quart[j] = 2, 4
            terms[i] += [[round(float(a[k]) / 2, 6), quad], [round(float(b[k]) / 4, 6), quart]]
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "agents": [{"terms": t} for t in terms],
        "resources": [
            {"capacity": round(0.3 * n * (1 + 0.1 * j), 6), "alpha": 0.01,
             "beta": round(0.7 - 0.05 * j, 6), "gamma": 1e-3}
            for j in range(m)
        ],
        "noise": [{"kind": "laplace", "scale_mode": "fixed", "scale": 40.0} for _ in range(m)],
        "steps": steps,
        "seed": _run_seed(rng),
        "per_agent_sensitivity": True,
    }
    return Workload("wide_population", doc, via_cli=False)


# Each generator takes (seed, scratch, steps=...); only trace_emit writes into
# scratch, where the CLI's paper suite is emitted.
GENERATORS = {
    "reference_long": reference_long,
    "calibrated_sweep": calibrated_sweep,
    "trace_emit": trace_emit,
    "wide_population": wide_population,
}


def run_inprocess(doc: dict) -> str:
    """One job through the public functions; returns the summary JSON text.

    Functions are looked up on their modules at call time, so the tracer's
    wrappers see every call.
    """
    config = cli.parse_config(doc)
    optimum = baseline.solve_optimum(config.agents, config.resources)
    trace = engine.run(config)
    summary = metrics.summarize(trace, config.agents, optimum)
    sdoc = cli.summary_to_dict(summary, config, optimum)
    return json.dumps(sdoc, sort_keys=True, indent=2) + "\n"


def write_config(workload: Workload, path: Path) -> Path:
    path.write_text(json.dumps(workload.doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path
