"""dpaimd benchmark: one workload, end-to-end metrics or a traced per-layer pass.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its ``src``
directory. Inputs are generated from ``--seed``. Iterations repeat until
``--seconds`` is used up (at least two, so summaries can be compared between
repetitions). The output checks run on every iteration. Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
A fuller record, with provenance and the summary SHA-256, goes to
``.bench_out/result_<workload>_s<seed>_t<trace>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_ITERATION = 3
MIN_ITERATIONS = 2
KKT_LIMIT = 1e-6
# counts that must repeat exactly between traced passes of the same inputs
EXACT_COUNTS = (
    "engine.server_step_calls", "engine.steps", "engine.pilot_steps", "engine.events",
    "privacy.update_all_calls", "privacy.noise_draws", "baseline.solve_calls",
    "baseline.pgd_iterations", "model.partial_calls", "cli.trace_rows", "cli.jobs",
    "tracer.spans",
)


class Checks:
    """Output checks; each failed one counts towards ``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_summary(checks: Checks, tag: str, text: str, seen: dict, reference: str | None = None):
    """KKT residual, every resource fired, byte-identical repeats, CLI = in-process."""
    doc = json.loads(text)
    checks.check(f"{tag}: KKT residual <= {KKT_LIMIT}", doc["kkt_residual"] <= KKT_LIMIT)
    checks.check(f"{tag}: every resource fired", min(doc["event_counts"]) > 0)
    if tag in seen:
        checks.check(f"{tag}: summary repeats byte for byte", text == seen[tag])
    else:
        seen[tag] = text
    if reference is not None:
        doc.pop("overrides", None)
        checks.check(f"{tag}: CLI summary equals in-process summary", doc == json.loads(reference))


def check_cli_output(checks: Checks, workload, out_dir: Path, seen: dict, reference: str) -> dict:
    """Check a `dpaimd run` output directory; returns summary texts by tag."""
    import tracer

    jobs = workload.job_docs()
    try:
        with open(out_dir / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        checks.check("CLI wrote sweep_summary.csv", False)
        return {}
    checks.check("sweep_summary.csv has one row per job", len(rows) == len(jobs))
    first_point, first_seed, first_doc = jobs[0]
    texts = {}
    for row in rows:
        tag = row["tag"]
        is_first = (int(row["point"]), int(row["seed"])) == (first_point, first_seed)
        texts[tag] = (out_dir / f"summary_{tag}.json").read_text(encoding="utf-8")
        check_summary(checks, tag, texts[tag], seen, reference if is_first else None)
        if workload.emit_trace:
            cells = first_doc["steps"] * len(first_doc["agents"]) * len(first_doc["resources"])
            checks.check(f"{tag}: trace CSV has steps * n * m rows",
                         tracer.count_rows(out_dir / f"trace_{tag}.csv") == cells)
    return texts


def summary_sha256(texts: dict) -> str:
    digest = hashlib.sha256()
    for tag in sorted(texts):
        digest.update(f"{tag}\n{texts[tag]}".encode())
    return digest.hexdigest()


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float             # user + system CPU of the child and the descendants it reaped
    probe_s_per_unit: float  # the speed probe's CPU seconds per unit while the child ran
    peak_rss_mb: float       # largest peak RSS of any process in the child's tree
    code: int
    stdout: str


def timed_child(cmd: list, log_dir: Path, probe) -> ChildRun:
    """Run cmd to completion beside the speed probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_dir / "stdout.txt", "w") as out, open(log_dir / "stderr.txt", "w") as err:
        mark = probe.mark()
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            # wait4's rusage covers the child and the descendants it reaped
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
        per_unit = probe.seconds_per_unit(mark)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, per_unit, usage.ru_maxrss / 1024.0,
                    proc.returncode, (log_dir / "stdout.txt").read_text())


def first_job_summary(workload) -> str:
    """In-process summary of the first sweep job. It warms the process up, and
    CLI workloads compare their first job's summary against it."""
    import workloads

    _, _, doc = workload.job_docs()[0]
    return workloads.run_inprocess(doc)


def measure_setup(config_path: Path, run_dir: Path, probe) -> float:
    """CPU time, at the reference speed, of one fresh interpreter that imports
    dpaimd and parses the config."""
    import speed

    log_dir = run_dir / "setup"
    log_dir.mkdir(exist_ok=True)
    child = timed_child(
        [sys.executable, str(BENCH / "worker.py"), "setup", str(config_path)], log_dir, probe)
    if child.code != 0:
        raise RuntimeError(f"setup failed: {(log_dir / 'stderr.txt').read_text()}")
    return speed.ref_seconds(child.cpu_s, child.probe_s_per_unit)


def measure_end_to_end(workload, config_path: Path, seconds: float, run_dir: Path, checks: Checks):
    """Iterations until time is up and at least MIN_ITERATIONS have run; their
    CPU time, and that of the set-up samples, at the reference speed (speed.py)."""
    import speed

    reference = first_job_summary(workload) if workload.via_cli else None
    refs, cpus, walls, rss, setups, texts, seen = [], [], [], [], [], {}, {}
    start = perf_counter()
    with speed.Probe() as probe:
        while True:
            began = perf_counter()
            # set-up samples are spread over the run, like the iterations
            setups += [measure_setup(config_path, run_dir, probe) for _ in range(SETUP_PER_ITERATION)]
            it_dir = run_dir / f"iter{len(walls)}"
            it_dir.mkdir()
            if workload.via_cli:
                cmd = [sys.executable, "-m", "dpaimd.cli", "run", "--config", str(config_path),
                       "--jobs", str(workload.workers), "--out", str(it_dir)]
                if workload.emit_trace:
                    cmd.append("--emit-trace")
            else:
                cmd = [sys.executable, str(BENCH / "worker.py"), "run", str(config_path),
                       str(it_dir / "summary.json")]
            child = timed_child(cmd, it_dir, probe)
            checks.check("iteration exits with 0", child.code == 0)
            if child.code != 0:
                sys.stderr.write((it_dir / "stderr.txt").read_text())
                return None
            if workload.via_cli:
                wall, cpu = child.wall_s, child.cpu_s
                texts = check_cli_output(checks, workload, it_dir, seen, reference)
            else:
                timed = json.loads(child.stdout.strip().splitlines()[-1])
                wall, cpu = timed["wall_s"], timed["cpu_s"]
                texts = {"inproc": (it_dir / "summary.json").read_text(encoding="utf-8")}
                check_summary(checks, "inproc", texts["inproc"], seen)
            shutil.rmtree(it_dir)
            refs.append(speed.ref_seconds(cpu, child.probe_s_per_unit))
            cpus.append(cpu)
            walls.append(wall)
            rss.append(child.peak_rss_mb)
            if len(walls) >= MIN_ITERATIONS and perf_counter() - start + (perf_counter() - began) > seconds:
                break
    ref_cpu = statistics.median(refs)
    metrics = {
        "ref_cpu_s": ref_cpu,
        "ref_steps_per_cpu_s": workload.sim_steps / ref_cpu,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"ref_cpu_s": refs, "cpu_s": cpus, "wall_s": walls, "setup_s": setups,
               "peak_rss_mb": rss}
    return metrics, samples, texts


def run_pass(workload, config_path: Path, pass_dir: Path):
    """One in-process pass: the summary text, or for CLI workloads the exit code
    of cli.run_experiment with jobs=1, so wrappers see every call."""
    import workloads
    from dpaimd import cli

    if not workload.via_cli:
        return workloads.run_inprocess(workload.doc)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_experiment(str(config_path), jobs=1,
                                  emit_trace=workload.emit_trace, out=str(pass_dir))


def measure_traced(workload, config_path: Path, seconds: float, run_dir: Path, checks: Checks):
    """Pairs of an untraced and a traced pass of the same shape, until time is
    up and at least MIN_ITERATIONS pairs have run.

    The first job runs once untimed before, so that neither side pays the
    process's warm-up, and the pairs alternate which pass comes first.
    """
    import tracer

    warm_up = first_job_summary(workload)
    reference = warm_up if workload.via_cli else None
    walls = {False: [], True: []}
    layers, seen = [], {}
    start = perf_counter()
    while True:
        began = perf_counter()
        order = (False, True) if len(layers) % 2 == 0 else (True, False)
        for traced in order:
            pass_dir = run_dir / f"pass{len(walls[traced])}_{int(traced)}"
            pass_dir.mkdir()
            spans = tracer.Tracer()
            with spans.installed() if traced else contextlib.nullcontext():
                t0 = perf_counter()
                outcome = run_pass(workload, config_path, pass_dir)
                walls[traced].append(perf_counter() - t0)
            checks.check("no wrapper left installed", not tracer.installed_wrappers())
            if workload.via_cli:
                checks.check("run_experiment returns 0", outcome == 0)
                if outcome != 0:
                    return None
                texts = check_cli_output(checks, workload, pass_dir, seen, reference)
            else:
                texts = {"inproc": outcome}
                check_summary(checks, "inproc", outcome, seen)
            if traced:
                values, closed_forms = tracer.layer_metrics(spans)
                for name, ok in closed_forms.items():
                    checks.check(name, ok)
                if layers:
                    for name in EXACT_COUNTS:
                        checks.check(f"{name} repeats exactly", values[name] == layers[0][name])
                else:
                    spans.dump(run_dir)
                layers.append(values)
            shutil.rmtree(pass_dir)
        if len(layers) >= MIN_ITERATIONS and perf_counter() - start + (perf_counter() - began) > seconds:
            break
    metrics = {name: layers[0][name] if name in EXACT_COUNTS else statistics.median(v[name] for v in layers)
               for name in layers[0]}
    # the two passes of a pair run back to back, so their ratio is least
    # disturbed by slow drifts of machine speed
    metrics["tracer.overhead_frac"] = statistics.median(
        t / u for u, t in zip(walls[False], walls[True])) - 1
    return metrics, {"untraced_s": walls[False], "traced_s": walls[True]}, texts


def provenance(seed: int, nproc: int) -> dict:
    import numpy

    rev, dirty = None, None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT), "--no-optional-locks"]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    return {
        "git_rev": rev, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "cpu_model": cpu_model,
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpaimd" / "__init__.py").is_file():
        print(f"dpaimd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dpaimd
    import workloads

    if Path(dpaimd.__file__).resolve().parent != SRC / "dpaimd":
        print(f"imported dpaimd from {dpaimd.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    label = f"{args.workload}_s{args.seed}_t{args.trace}"
    run_dir = OUT / label
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = workloads.GENERATORS[args.workload](args.seed, run_dir)
    config_path = workloads.write_config(workload, run_dir / "config.json")
    # the benchmark, its speed probe and every process it starts share one
    # CPU, so that the probe meets the speed the program meets
    cpus = os.sched_getaffinity(0)
    nproc = len(cpus)
    os.sched_setaffinity(0, {max(cpus)})

    checks = Checks()
    measure = measure_traced if args.trace else measure_end_to_end
    measured = measure(workload, config_path, args.seconds, run_dir, checks)
    if measured is None:
        print(f"{label}: the program failed; checks failed: {checks.failures}", file=sys.stderr)
        return 1
    values, samples, texts = measured

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  failed_frac=len(checks.failures) / checks.attempted, failures=checks.failures,
                  samples=samples, summary_sha256=summary_sha256(texts),
                  provenance=provenance(args.seed, nproc))
    result_path = OUT / f"result_{label}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{label}: {len(next(iter(samples.values())))} iteration(s), "
          f"{checks.attempted} checks, failed_frac {record['failed_frac']:.4g}")
    for name in checks.failures:
        print(f"  FAILED: {name}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name, values in samples.items():
        print(f"  median of {name:18s} {statistics.median(values):.6g}")
    print(f"  summary_sha256 {record['summary_sha256']}")
    print(f"  provenance {json.dumps(record['provenance'])}")
    print(f"  record {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
