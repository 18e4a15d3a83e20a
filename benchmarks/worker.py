"""Child process for one benchmark step, started by run.py in a fresh interpreter.

    worker.py setup CONFIG         import dpaimd and parse the config, then exit
    worker.py run CONFIG SUMMARY   run one in-process job, write its summary JSON
                                   and print {"wall_s": ..., "cpu_s": ...} on stdout
"""
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    mode, config_path = argv[0], Path(argv[1])
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    if mode == "setup":
        from dpaimd import cli
        cli.parse_config(doc)
        return 0
    import workloads
    t0, c0 = perf_counter(), process_time()
    text = workloads.run_inprocess(doc)
    wall, cpu = perf_counter() - t0, process_time() - c0
    Path(argv[2]).write_text(text, encoding="utf-8")
    print(json.dumps({"wall_s": wall, "cpu_s": cpu}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
