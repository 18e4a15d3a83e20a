"""Run the benchmark over several seeds and write BENCH_<label>.json.

    python3 benchmarks/collect.py --label baseline --seeds 1-10 [--traced]

For every workload of BENCHMARK.json and every seed it runs
``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` and reads back the
record run.py wrote. Per end-to-end metric it stores the values, their median
and quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
spread as a share of the median, which is what BENCHMARK.json's bounds are
compared against. With ``--traced`` it adds one ``--trace 1`` run per workload
on the first seed. Existing BENCH files are never overwritten.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = ROOT / ".bench_out" / f"result_{workload}_s{seed}_t{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    out_path = BENCH / f"BENCH_{args.label}.json"
    if out_path.exists():
        print(f"{out_path.name} exists; choose another label", file=sys.stderr)
        return 2

    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"label": args.label, "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "end_to_end": {name: dict(spread([r["metrics"][name]["value"] for r in records]),
                                      unit=records[0]["metrics"][name]["unit"], bound=bounds[name])
                           for name in bounds},
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "summary_sha256": {str(r["provenance"]["workload_seed"]): r["summary_sha256"]
                               for r in records},
        }
        if args.traced:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
        report["workloads"][workload] = entry
        report["provenance"] = records[0]["provenance"]
        for name, s in entry["end_to_end"].items():
            flag = "" if s["iqr_frac"] < s["bound"] / 3 else "  <-- spread above bound/3"
            print(f"{workload:18s} {name:16s} median {s['median']:.5g} {s['unit']}"
                  f"  iqr/median {s['iqr_frac']:.4f} (bound {s['bound']}){flag}", flush=True)
    del report["provenance"]["workload_seed"]
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
