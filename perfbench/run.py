"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload merge-fragmented --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run; both are
listed in ``BENCHMARK.json``.  The workload runs in fresh processes with
the checkout's ``src`` first on the import path; ``setup_s`` is the median
over several of them.  Times are scaled to a reference machine speed (see
``worker.py``); the unscaled wall times go to standard error.  Run output
goes under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("merge-fragmented", "pipeline-mock", "mesh-ingest", "edit-eval")
SETUP_PROBES = 2     # extra fresh processes that only set up, for the setup_s median
TIME_LIMIT_S = 170   # the whole run, all processes included


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(argv, env, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                          stdout=subprocess.PIPE, timeout=max(deadline - time.monotonic(), 1))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    deadline = time.monotonic() + TIME_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "voxedit" / "__init__.py").is_file():
        fail(f"no voxedit sources under {src}; run from the root of a checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = root / ".perfbench_out"
    work = out / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [] if args.trace else [
            run_worker(common + ["--seconds", "0", "--setup-only", "--workdir", str(work)],
                       env, deadline)
            for _ in range(SETUP_PROBES)]
        main_run = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                        "--workdir", str(work)], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in probes + [main_run]:
        if not Path(r["voxedit"]).resolve().is_relative_to(src.resolve()):
            fail(f"imported voxedit from {r['voxedit']}, not from {src}")
    for message in main_run["failures"]:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)

    if args.trace:
        values = main_run["per_layer"]
        (out / f"trace-{args.workload}-s{args.seed}.json").write_text(
            json.dumps(main_run["trace"], indent=1) + "\n", encoding="utf-8")
        for name, value in values.items():
            if value:
                print(f"{args.workload:17} {name:32} {value:14.4f}")
    else:
        values = {"setup_s": statistics.median([r["setup_s"] for r in probes + [main_run]])}
        values |= {k: main_run[k] for k in ("ops_per_s", "op_ms_p50", "peak_rss_mb")}
        wall = main_run["wall"] | {"setup_s": statistics.median([r["wall"]["setup_s"] for r in probes + [main_run]])}
        print(f"perfbench: {args.workload}: wall times, unscaled: "
              + " ".join(f"{k}={v:.4g}" for k, v in wall.items()), file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for metrics {missing}")

    print(json.dumps({
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
