"""Run every workload over several seeds and record the spread.

One command for the whole benchmark::

    python3 perfbench/record.py --runs 10

runs ``perfbench/run.py`` once per workload of BENCHMARK.json (or of
``--workloads``) and seed, each in its own process (``peak_rss_mb`` is
per process), and prints per workload and metric the median over the
runs and the spread: the distance between the first and third quartile
as a share of the median, the figure compared with each metric's
``bound`` in BENCHMARK.json.  When ``results.json`` holds an earlier set
with the same run length, it also prints how much worse each median is
than that set's, as a share of it (negative: better).

It exits 1 when a run was not correct, when a spread is above a third of
its bound, or when a median is worse than the earlier set's by more than
its bound.  ``--trace`` adds one traced run per workload.  ``--save``
appends the entry, with the machine stamp, the seeds and each run's
percentile sample count, to ``perfbench/results.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results.json"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one run (exit 1 with a result: not correct)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or done.returncode not in (0, 1):
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    if done.returncode != 0:
        print(done.stdout)
    return result


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import WORKLOADS, machine_stamp

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {
        m["name"]: m["better"] == "lower" for m in spec["end_to_end"]
    }
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(WORKLOADS), default=names
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", action="store_true")
    args = parser.parse_args()

    seeds = list(range(1, args.runs + 1))
    history = json.loads(RESULTS.read_text()) if RESULTS.exists() else []
    earlier = next(
        (e for e in reversed(history) if e["run_seconds"] == args.seconds),
        {"workloads": {}},
    )
    entry = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_stamp(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        correct = all(run["correct"] and run["failed"] == 0 for run in runs)
        steady &= correct
        report = {
            "correct": correct,
            "samples_per_run": [run["attempted"] for run in runs],
            "metrics": {},
        }
        print(f"{workload}: correct={correct}, "
              f"samples per run {report['samples_per_run']}")
        before = earlier["workloads"].get(workload, {}).get("metrics", {})
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            share = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            report["metrics"][name] = {
                "unit": unit,
                "median": median,
                "spread": share,
                "bound": bound,
                "values": values,
            }
            line = (f"  {name:22s} median {median:12.6g} {unit:9s} "
                    f"spread {share:6.3f} bound {bound:5.2f}")
            if share > bound / 3:
                steady = False
                line += "  <-- spread above a third of the bound"
            if name in before:
                old = before[name]["median"]
                worse = (median - old) / old if old else 0.0
                if not lower_is_better[name]:
                    worse = -worse
                report["metrics"][name]["worse_than_earlier"] = worse
                line += f"  worse than earlier set {worse:+.3f}"
                if worse > bound:
                    steady = False
                    line += "  <-- beyond the bound"
            print(line)
        if args.trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            report["traced"] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
            for name, value in report["traced"].items():
                print(f"    {name:40s} {value:12.6g}")
        entry["workloads"][workload] = report
    if args.save:
        history.append(entry)
        RESULTS.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
