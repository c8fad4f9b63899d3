"""fanosplit benchmark: end-to-end CLI timings and an outside-in layer trace.

    python3 bench/run.py --workload full-mid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 2

Each workload is one single-threaded closed loop: `fanosplit.cli.main(argv)`
is called in-process, one op after the other, with stdout and stderr
captured.  A pass runs the workload's fixed op list on freshly generated
inputs; passes repeat until the next one would end after `--seconds`.  Every
answer is checked by the oracle.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  See
bench/README.md for the workloads, metrics and the seed baseline.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args, names) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, res))
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({name: res for name, res in rows}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    if not (SRC / "fanosplit" / "__init__.py").is_file():
        print(f"error: no fanosplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import Bench
    from workloads import WORKLOADS

    args = _parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    imported = perf_counter() - T_START
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        bench.set_up(imported)
        bench.measure(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if args.trace:
        metrics = bench.per_layer()
        bench.tracer.write(bench.out / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        metrics = bench.end_to_end()
        for note in bench.notes:
            print(note)
    for line in bench.failures:
        print(f"failed: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": bench.unexpected == 0,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
