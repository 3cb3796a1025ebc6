"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --out bench/BENCH_label.json --seeds 1-10 \\
        [--workloads square-report,square-chain,designed-scan] [--trace 0|1] \\
        [--seconds N]

Each run is a separate process, so runs share no process state.  For every
workload and metric the summary holds the values, their median and
quartiles, and the spread (interquartile distance over the median); the raw
result and record lines of every run are kept too, with the environment
recorded once.  ``--seconds`` defaults to
``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("square-report", "square-chain", "designed-scan")


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            record, result = run_one(workload, seed, seconds, args.trace)
            env = record.pop("env")
            env.pop("seed")
            summary.setdefault("env", env)
            runs.append({"record": record, "result": result})
            line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
        names = runs[0]["result"]["metrics"]
        summary["workloads"][workload] = {
            "metrics": {
                name: {"unit": names[name]["unit"],
                       **summarise([r["result"]["metrics"][name]["value"] for r in runs])}
                for name in names
            },
            "all_correct": all(r["result"]["correct"] for r in runs),
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for workload, data in summary["workloads"].items():
        for name, m in data["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:14s} {name:34s} median {m['median']:.6g} {m['unit']:6s} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
