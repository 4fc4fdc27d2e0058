"""Run one PayLess benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload weather_cold_wal --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the traced window instead (traced and untraced passes
alternate) and prints every per-layer metric.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when the run finished and every
answer and money check passed; a wrong answer or a broken money
invariant prints the metrics with ``"correct": false`` and exits 1.
Wall-clock metrics are reported at a reference machine speed, measured
by a calibration loop between passes (README.md, "Machine speed").
README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.check import expected_answers, settle  # noqa: E402
from perfbench.layers import SpanRecorder, layer_metrics  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MIN_QUERIES,
    OUT_DIR,
    WORKLOADS,
    money_problems,
)


def machine_stamp() -> dict:
    """nproc, Python and numpy versions, and the git commit (if any)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    try:
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


#: The calibration loop's usual time on the reference machine, in ms.
#: Each pass's wall times are scaled by REFERENCE_CALIBRATION_MS / (the
#: loop's time around that pass): a pass run while the machine is slower
#: than usual reports what it would have measured at the usual speed.
REFERENCE_CALIBRATION_MS = 36.0
#: Keys the calibration loop looks up, in an order that defeats caches.
_CALIBRATION_KEYS = list(range(20000))
random.Random(0).shuffle(_CALIBRATION_KEYS)


def calibration_ms() -> float:
    """Time of a fixed interpreter-bound loop, in ms.

    The program is pure Python, so its speed follows the interpreter's
    on this machine at this moment.  The loop does the same kinds of work
    (building a dict of tuples, lookups in an order the caches do not
    help, a sort) over a few megabytes, as the program's stores and joins
    do.  The collector is off so the program's heap does not change it.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        table = {(i, i % 7): (i * 0.5, f"k{i}") for i in _CALIBRATION_KEYS}
        total = 0.0
        for i in _CALIBRATION_KEYS:
            total += table[(i, i % 7)][0]
        sorted(table.values(), key=lambda row: -row[0])
        return (time.perf_counter() - started) * 1000.0
    finally:
        gc.enable()


def declared_metrics() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile (inclusive method) of ``values``."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_window(workload, seconds: float, recorder, expected: dict):
    """Passes until ``seconds`` have passed and enough queries ran.

    With a recorder, traced and untraced passes alternate (untraced
    first), and both kinds must hold enough queries.  Each pass's answers
    are checked as soon as it ends.  The calibration loop runs before and
    after every pass, outside its timing, and sets the pass's ``scale``.
    """
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        before = calibration_ms()
        trace_this = recorder is not None and len(traced) < len(plain)
        if trace_this:
            recorder.install()
            try:
                traced.append(workload.run_pass(recorder))
            finally:
                recorder.uninstall()
        else:
            plain.append(workload.run_pass())
        result = (traced if trace_this else plain)[-1]
        settle(result, expected)
        result.scale = REFERENCE_CALIBRATION_MS / (
            (before + calibration_ms()) / 2.0
        )
        kinds = (plain, traced) if recorder is not None else (plain,)
        if time.perf_counter() - started >= seconds and all(
            sum(len(p.outcomes) for p in kind) >= MIN_QUERIES for kind in kinds
        ):
            return plain, traced


def failures(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, first messages) over the queries of ``passes``."""
    outcomes = [o for p in passes for o in p.outcomes]
    wrong = [o for o in outcomes if o.problem is not None]
    messages = [f"{o.problem}: {o.sql[:60]} {o.params}" for o in wrong[:5]]
    return len(outcomes), len(wrong), messages


def end_to_end(passes, attempted, failed, scaled: bool = True) -> dict:
    """The end-to-end metrics; wall times at the reference speed unless
    ``scaled`` is false."""
    scale = {id(p): p.scale if scaled else 1.0 for p in passes}
    outcomes = [o for p in passes for o in p.outcomes]
    latencies = [
        o.latency_s * 1000.0 * scale[id(p)] for p in passes for o in p.outcomes
    ]
    paid_stats = [o.stats for o in outcomes if o.stats]
    return {
        "setup_s": statistics.median(p.setup_s * scale[id(p)] for p in passes),
        # Median over passes: a pass slowed by a noisy neighbour moves it
        # less than it moves the pooled rate.
        "qps": statistics.median(
            sum(o.stats is not None for o in p.outcomes)
            / (p.wall_s * scale[id(p)])
            for p in passes
        ),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 0.90),
        "dollars_per_query": sum(s.price for s in paid_stats) / len(paid_stats),
        "market_ms_per_query": statistics.fmean(
            s.market_time_critical_path_ms for s in paid_stats
        ),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def money_checks(passes) -> list[str]:
    """Invariants across passes (per-installation ones ran in the pass)."""
    problems = [p for result in passes for p in result.problems]
    spends = defaultdict(set)
    for result in passes:
        if result.order is not None:
            spends[result.order].add(sum(
                o.stats.price for o in result.outcomes if o.stats is not None
            ))
    for order, spent in spends.items():
        if len(spent) > 1:
            problems.append(
                f"order {order} spent different dollars: {sorted(spent)}"
            )
    return problems


def traced_metrics(recorder, plain, traced) -> dict:
    queries = sum(len(p.outcomes) for p in traced)
    result_rows = sum(o.result_rows for p in traced for o in p.outcomes)
    metrics = layer_metrics(
        recorder.spans(), queries, result_rows, setups=len(traced)
    )
    metrics.pop("_calls")
    hits = sum(p.memo[0] for p in traced)
    misses = sum(p.memo[1] for p in traced)
    coalesced = sum(
        o.stats.coalesced_fetches for p in traced for o in p.outcomes if o.stats
    )
    calls = sum(o.stats.calls for p in traced for o in p.outcomes if o.stats)
    qps = lambda ps: sum(len(p.outcomes) for p in ps) / sum(  # noqa: E731
        p.wall_s for p in ps
    )
    metrics.update({
        "rewriter.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.queue_wait_ms": 1000.0 * sum(recorder.queue_waits) / max(queries, 1),
        "serve.coalesced_ratio": (
            coalesced / (coalesced + calls) if coalesced + calls else 0.0
        ),
        "trace.overhead_ratio": qps(traced) / qps(plain),
    })
    return metrics


def dump_trace(recorder, workload_name: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload_name}_seed{seed}.json"
    fields = ["id", "name", "start", "end", "parent", "query", "n", "m", "window"]
    with open(path, "w") as handle:
        json.dump({"fields": fields, "spans": recorder.spans()}, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared_e2e, declared_layers = declared_metrics()

    workload = WORKLOADS[args.workload](args.seed)
    expected = expected_answers(workload, args.seed)
    gc.collect()

    recorder = SpanRecorder() if args.trace else None
    try:
        workload.prepare()
        gc.collect()
        plain, traced = run_window(workload, args.seconds, recorder, expected)
    finally:
        workload.close()
    passes = plain + traced
    setups = [p.setup_s for p in passes]
    attempted, failed, messages = failures(passes)
    problems = money_checks(passes)

    if args.trace:
        metrics = traced_metrics(recorder, plain, traced)
        units = declared_layers
        print(f"trace written to {dump_trace(recorder, args.workload, args.seed)}")
    else:
        metrics = end_to_end(plain, attempted, failed)
        measured = end_to_end(plain, attempted, failed, scaled=False)
        units = declared_e2e
    if set(metrics) != set(units):
        raise SystemExit(
            f"computed metrics {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json"
        )

    samples = sum(len(p.outcomes) for p in plain)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"machine {json.dumps(machine_stamp())}")
    print(f"window: {len(plain)} untraced + {len(traced)} traced passes, "
          f"{samples} untraced queries (percentile samples), "
          f"{len(setups)} set-ups")
    scale = statistics.median(p.scale for p in passes)
    print(f"machine speed: median pass scale {scale:.4f} (calibration loop "
          f"{REFERENCE_CALIBRATION_MS / scale:.3f} ms, reference "
          f"{REFERENCE_CALIBRATION_MS} ms)")
    if not args.trace:
        print("  as measured: " + "  ".join(
            f"{name} {measured[name]:.6g}"
            for name in ("setup_s", "qps", "latency_p50_ms", "latency_p90_ms")
        ))
    for name in units:
        print(f"  {name:40s} {metrics[name]:>14.6g} {units[name]}")
    for line in messages + problems:
        print(f"  PROBLEM {line}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
