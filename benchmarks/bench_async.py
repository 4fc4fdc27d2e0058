"""Fetch depth: pipelined latency, pooled serve throughput, prefetch.

Every market call runs on the executor's fetch pool through
``MarketTransport.fetch``, over per-seller pooled connections.  The pool's
depth (``QueryOptions.max_concurrent_calls``) is what hides market
latency: a deep pool keeps many calls in flight, and connection setup is
paid only when a call has to open a new connection.  Measured against
real wall-clock on a market whose calls block for real
(``LatencyModel.realtime_scale``), at depth 8 and depth 64:

* **critical-path latency** — one query whose access fragments into 32
  remainder calls (a checkerboard of previously-bought windows) must run
  >= 2x faster at depth 64 than the threaded driver did at 8 workers
  before connections were pooled (the first, committed entry of
  ``BENCH_async.json``: 741 ms), for the identical dollars;
* **serve throughput** — a single serving session replaying queries that
  each fragment into 64 calls must clear >= 2x the queries/second at
  depth 64 than that committed 8-worker figure (9.07 s);
* **identical dollars** — depth 8 and depth 64 spend the same;
* **prefetch is free money-wise** — cross-access prefetch overlaps the
  fetches of a join's accesses; ``prefetch_wasted_dollars`` must be 0:
  only rewritten remainders of the chosen plan are prefetched, so
  nothing speculative is ever thrown away.

The gates compare against the committed 8-worker figures rather than
this run's depth-8 arm because that arm now pools connections too.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_async.py [--smoke|--ci]

Default mode writes ``benchmarks/results/async.txt`` and appends a
trajectory entry to ``BENCH_async.json`` at the repo root; ``--ci`` runs
the full workload and every acceptance gate without touching the
committed files; ``--smoke`` runs a tiny workload and skips the gates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.objectives import QueryOptions  # noqa: E402
from repro.core.payless import PayLess  # noqa: E402
from repro.market.latency import LatencyModel  # noqa: E402
from repro.market.server import DataMarket  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.serve import QueryScheduler, ServeConfig  # noqa: E402
from repro.workloads.weather import (  # noqa: E402
    WeatherConfig,
    generate_weather_workload,
)

RESULTS_PATH = Path(__file__).parent / "results" / "async.txt"
TRAJECTORY_PATH = REPO_ROOT / "BENCH_async.json"

LATENCY_GATE = 2.0  # critical path: depth 64 vs the committed 8 workers
THROUGHPUT_GATE = 2.0  # serve time: depth 64 vs the committed 8 workers
SHALLOW, DEEP = 8, 64

RANGE_SQL = (
    "SELECT Country, StationID, Date, Temperature FROM Weather "
    "WHERE Country = ? AND Date >= ? AND Date <= ?"
)
JOIN_SQL = (
    "SELECT s.City, w.Temperature FROM Station s, Weather w "
    "WHERE s.Country = w.Country AND s.StationID = w.StationID "
    "AND w.Country = ? AND w.Date >= ? AND w.Date <= ?"
)

#: The realtime market every timed phase runs against: a high-latency
#: seller where connection setup dominates a single round trip.
TIMED_LATENCY = LatencyModel(
    round_trip_ms=30.0,
    per_transaction_ms=1.0,
    connection_setup_ms=150.0,
    realtime_scale=1.0,
)


def _make_data(countries: int, days: int):
    return generate_weather_workload(
        WeatherConfig(
            countries=countries,
            stations_per_country=4,
            cities_per_country=2,
            days=days,
            tuples_per_transaction=10,
            seed=7,
        )
    )


def _committed_baseline() -> tuple[float, float]:
    """The 8-worker latency (ms) and serve time (s) of the first,
    committed ``BENCH_async.json`` entry: the threaded driver before
    connections were pooled."""
    first = json.loads(TRAJECTORY_PATH.read_text())[0]["results"]
    return (
        first["threaded_latency"]["elapsed_ms"],
        first["threaded_serve"]["elapsed_s"],
    )


def _fresh_payless(data, depth: int, **option_kwargs):
    """An instant-market installation; callers flip ``market.latency`` to
    :data:`TIMED_LATENCY` once the coverage warm-up is done."""
    market = DataMarket()
    for dataset in data.datasets:
        market.publish(dataset)
    payless = PayLess.full(
        market,
        local_db=data.local_database(),
        metrics=MetricsRegistry(),
        options=QueryOptions(max_concurrent_calls=depth, **option_kwargs),
    )
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    return payless


def _checkerboard(payless, country: str, gaps: int) -> None:
    """Buy every other 2-day window of ``country`` so a later full-range
    query fragments into ``gaps`` remainder calls to the same seller."""
    for window in range(gaps):
        low = 4 * window + 1
        payless.query(RANGE_SQL, (country, low, low + 1))


def run_latency_arm(depth: int, gaps: int) -> dict:
    """One query, ``gaps`` fragmented calls, wall-clock and dollars."""
    data = _make_data(countries=1, days=4 * gaps)
    payless = _fresh_payless(data, depth)
    try:
        _checkerboard(payless, "Country00", gaps)
        payless.market.latency = TIMED_LATENCY
        before = payless.metrics.snapshot()
        started = time.perf_counter()
        result = payless.query(RANGE_SQL, ("Country00", 1, 4 * gaps))
        elapsed_s = time.perf_counter() - started
        after = payless.metrics.snapshot()

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        return {
            "depth": depth,
            "calls": result.stats.calls,
            "elapsed_ms": 1000.0 * elapsed_s,
            "spent_dollars": result.stats.price,
            "rows": len(result.rows),
            "connections_opened": delta("connections_opened"),
            "connections_reused": delta("connections_reused"),
        }
    finally:
        payless.close()


def run_serve_arm(depth: int, queries: int, gaps: int) -> dict:
    """A single serving session replaying ``queries`` fragmented queries
    serially; in-flight depth inside each query is the whole contest."""
    data = _make_data(countries=queries, days=4 * gaps)
    payless = _fresh_payless(data, depth)
    try:
        for index in range(queries):
            _checkerboard(payless, f"Country{index:02d}", gaps)
        payless.market.latency = TIMED_LATENCY
        config = ServeConfig(workers=2, session_max_inflight=1)
        started = time.perf_counter()
        with QueryScheduler(payless, config) as scheduler:
            session = scheduler.session("tenant0")
            tickets = [
                session.submit(RANGE_SQL, (f"Country{i:02d}", 1, 4 * gaps))
                for i in range(queries)
            ]
            results = [ticket.result(timeout=600.0) for ticket in tickets]
        elapsed_s = time.perf_counter() - started
        return {
            "depth": depth,
            "queries": queries,
            "calls": sum(r.stats.calls for r in results),
            "elapsed_s": elapsed_s,
            "qps": queries / elapsed_s,
            "spent_dollars": sum(r.stats.price for r in results),
        }
    finally:
        payless.close()


def run_prefetch_arm(prefetch: bool) -> dict:
    """One two-access join at depth 64; prefetch overlaps the accesses'
    fetches (bushy plan via ``use_theorems=False``)."""
    data = _make_data(countries=1, days=40)
    payless = _fresh_payless(
        data, DEEP, use_theorems=False, prefetch=prefetch
    )
    try:
        payless.market.latency = TIMED_LATENCY
        started = time.perf_counter()
        result = payless.query(JOIN_SQL, ("Country00", 1, 40))
        elapsed_s = time.perf_counter() - started
        snapshot = payless.metrics.snapshot()
        return {
            "prefetch": prefetch,
            "elapsed_ms": 1000.0 * elapsed_s,
            "spent_dollars": result.stats.price,
            "prefetch_hits": snapshot.get("prefetch_hits", 0.0),
            "wasted_dollars": snapshot.get("prefetch_wasted_dollars", 0.0),
        }
    finally:
        payless.close()


def run(latency_gaps: int, serve_queries: int, serve_gaps: int) -> dict:
    baseline_latency_ms, baseline_serve_s = _committed_baseline()
    shallow_latency = run_latency_arm(SHALLOW, latency_gaps)
    deep_latency = run_latency_arm(DEEP, latency_gaps)
    shallow_serve = run_serve_arm(SHALLOW, serve_queries, serve_gaps)
    deep_serve = run_serve_arm(DEEP, serve_queries, serve_gaps)
    prefetch_off = run_prefetch_arm(prefetch=False)
    prefetch_on = run_prefetch_arm(prefetch=True)
    return {
        "latency_gaps": latency_gaps,
        "serve_queries": serve_queries,
        "serve_gaps": serve_gaps,
        "baseline_latency_ms": baseline_latency_ms,
        "baseline_serve_s": baseline_serve_s,
        "shallow_latency": shallow_latency,
        "deep_latency": deep_latency,
        "latency_speedup": (
            baseline_latency_ms / deep_latency["elapsed_ms"]
        ),
        "shallow_serve": shallow_serve,
        "deep_serve": deep_serve,
        "throughput_speedup": baseline_serve_s / deep_serve["elapsed_s"],
        "prefetch_off": prefetch_off,
        "prefetch_on": prefetch_on,
        "prefetch_speedup": (
            prefetch_off["elapsed_ms"] / prefetch_on["elapsed_ms"]
        ),
    }


def render(results: dict) -> str:
    shallow = results["shallow_latency"]
    deep = results["deep_latency"]
    s_serve = results["shallow_serve"]
    d_serve = results["deep_serve"]
    off = results["prefetch_off"]
    on = results["prefetch_on"]
    return "\n".join(
        [
            "fetch depth: pipelining, pooled connections, prefetch",
            f"(market: {TIMED_LATENCY.round_trip_ms:g} ms round trip, "
            f"{TIMED_LATENCY.connection_setup_ms:g} ms connection setup, "
            "real sleeps)",
            "",
            f"critical-path latency, one query x "
            f"{deep['calls']} fragmented calls:",
            f"  committed 8 workers, unpooled | "
            f"{results['baseline_latency_ms']:>7.0f} ms",
            f"  depth {SHALLOW:<2}                      | "
            f"{shallow['elapsed_ms']:>7.0f} ms | "
            f"${shallow['spent_dollars']:g} | "
            f"{shallow['connections_opened']:.0f} opened, "
            f"{shallow['connections_reused']:.0f} reused",
            f"  depth {DEEP:<2}                      | "
            f"{deep['elapsed_ms']:>7.0f} ms | "
            f"${deep['spent_dollars']:g} | "
            f"{deep['connections_opened']:.0f} opened, "
            f"{deep['connections_reused']:.0f} reused",
            f"  speedup (depth {DEEP} vs committed): "
            f"{results['latency_speedup']:.1f}x",
            "",
            f"serve throughput, 1 session x {d_serve['queries']} queries "
            f"x {results['serve_gaps']} calls each:",
            f"  committed 8 workers, unpooled | "
            f"{results['baseline_serve_s']:>6.2f} s",
            f"  depth {SHALLOW:<2}                      | "
            f"{s_serve['elapsed_s']:>6.2f} s | {s_serve['qps']:>5.2f} qps | "
            f"${s_serve['spent_dollars']:g}",
            f"  depth {DEEP:<2}                      | "
            f"{d_serve['elapsed_s']:>6.2f} s | {d_serve['qps']:>5.2f} qps | "
            f"${d_serve['spent_dollars']:g}",
            f"  speedup (depth {DEEP} vs committed): "
            f"{results['throughput_speedup']:.1f}x",
            "",
            f"cross-access prefetch, two-access join (depth {DEEP}):",
            f"  prefetch off | {off['elapsed_ms']:>7.0f} ms",
            f"  prefetch on  | {on['elapsed_ms']:>7.0f} ms | "
            f"{on['prefetch_hits']:.0f} hits | "
            f"${on['wasted_dollars']:g} wasted",
            f"  speedup: {results['prefetch_speedup']:.1f}x",
        ]
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for a quick check; no gates, no result files",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="full workload + every acceptance gate, but no result files",
    )
    args = parser.parse_args()

    if args.smoke:
        results = run(latency_gaps=8, serve_queries=2, serve_gaps=8)
    else:
        results = run(latency_gaps=32, serve_queries=6, serve_gaps=64)
    text = render(results)
    print(text)

    if not args.smoke:
        latency_ok = results["latency_speedup"] >= LATENCY_GATE
        dollars_ok = (
            results["shallow_latency"]["spent_dollars"]
            == results["deep_latency"]["spent_dollars"]
            and results["shallow_serve"]["spent_dollars"]
            == results["deep_serve"]["spent_dollars"]
        )
        throughput_ok = results["throughput_speedup"] >= THROUGHPUT_GATE
        prefetch_ok = (
            results["prefetch_on"]["wasted_dollars"] == 0.0
            and results["prefetch_on"]["prefetch_hits"] > 0
            and results["prefetch_on"]["spent_dollars"]
            == results["prefetch_off"]["spent_dollars"]
        )
        print()
        print(
            f"latency acceptance (>={LATENCY_GATE:g}x): "
            f"{results['latency_speedup']:.1f}x — "
            f"{'PASS' if latency_ok else 'FAIL'}"
        )
        print(
            f"identical dollars across depths: "
            f"{'PASS' if dollars_ok else 'FAIL'}"
        )
        print(
            f"throughput acceptance (>={THROUGHPUT_GATE:g}x): "
            f"{results['throughput_speedup']:.1f}x — "
            f"{'PASS' if throughput_ok else 'FAIL'}"
        )
        print(
            f"prefetch wastes nothing: "
            f"{'PASS' if prefetch_ok else 'FAIL'}"
        )
        if not (latency_ok and dollars_ok and throughput_ok and prefetch_ok):
            return 1

    if not args.smoke and not args.ci:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text + "\n")
        print(f"[written to {RESULTS_PATH}]")
        trajectory = []
        if TRAJECTORY_PATH.exists():
            trajectory = json.loads(TRAJECTORY_PATH.read_text())
        trajectory.append(
            {
                "bench": "async",
                "latency_gate": LATENCY_GATE,
                "throughput_gate": THROUGHPUT_GATE,
                "results": results,
            }
        )
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"[trajectory appended to {TRAJECTORY_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
