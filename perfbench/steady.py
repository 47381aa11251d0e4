"""Steadiness mode: run every workload repeatedly and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --first-seed 1 --label set1
    python3 perfbench/steady.py --runs 10 --first-seed 11 --label set2 --against .perfbench_out/steady-set1.json

Round i runs every workload once with seed ``first-seed + i``, in listed
order on even rounds and reversed on odd ones.  For each workload and
end-to-end metric it prints the median, the quartiles, the interquartile
range and the worst deviation as shares of the median, beside the metric's
bound.  With ``--against`` it also prints how far each median moved from
an earlier set, in the metric's worse direction.  ``--runs 1`` prints every
end-to-end metric of every workload once.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "worst_share": max(abs(v - med) for v in values) / med}


def main() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--label", default="latest")
    ap.add_argument("--against", type=Path, help="an earlier set's JSON, to compare medians with")
    args = ap.parse_args()

    runs = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for w in order:
            r = run_once(w, args.first_seed + i, spec["run_seconds"])
            runs[w].append(r)
            shown = " ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in r["metrics"].items())
            print(f"round {i} {w:17} seed {args.first_seed + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {shown}", flush=True)

    earlier = json.loads(args.against.read_text(encoding="utf-8"))["summary"] if args.against else {}
    summary = {}
    print(f"\n{'workload':17} {'metric':12} {'unit':6} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'worst':>7} {'bound':>6}" + (f" {'moved':>7}" if earlier else ""))
    for w, rs in runs.items():
        summary[w] = {"failed_share": [r["failed"] / r["attempted"] for r in rs],
                      "correct": all(r["correct"] for r in rs)}
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in rs])
            summary[w][m["name"]] = s
            line = (f"{w:17} {m['name']:12} {m['unit']:6} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
                    f"{s['iqr_share']:8.3f} {s['worst_share']:7.3f} {m['bound']:6.2f}")
            if w in earlier:
                before = earlier[w][m["name"]]["median"]
                sign = 1 if m["better"] == "lower" else -1
                line += f" {sign * (s['median'] - before) / before:+7.3f}"
            print(line)
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.label}.json").write_text(json.dumps(
        {"first_seed": args.first_seed, "seconds": spec["run_seconds"], "summary": summary,
         "runs": runs}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
