"""Self-test of the traced run at tiny sizes.

    python3 perfbench/selftest.py

Runs one traced pass of each workload on a few queries of its lists
and fails (exit 1) when a layer that the workload should exercise
recorded no call, or when ``weather_cold_wal``'s set-up recovery replays
no WAL record.  A wrapper patched where callers do not look it up
(say, ``analyze`` patched in ``repro.sqlparser`` instead of in
``repro.core.payless``) records nothing and is caught here.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: Span names each workload must record (README.md maps them to the
#: per-layer metrics).
COMMON = (
    "query", "sqlparser.parse", "plancache.lookup", "executor.execute",
    "semstore.read", "relational.stage", "relational.eval",
)
PLANNING = (
    "sqlparser.analyze", "optimizer.plan", "rewriter.rewrite",
    "stats.estimate", "stats.observe", "market.get", "transport.fetch",
    "semstore.record",
)
EXPECTED = {
    "weather_cold_wal": COMMON + PLANNING + (
        "durable.wal_append", "durable.wal_commit", "durable.recover",
    ),
    "weather_serve": COMMON + PLANNING + ("serve.coalesce_wait",),
}
QUERIES = 10


def traced_calls(name: str) -> tuple[Counter, int, int]:
    """Span counts by name, queue waits seen and WAL records replayed by
    ``recover()``, of one tiny pass."""
    from perfbench.layers import SpanRecorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](1)
    if name == "weather_serve":
        # Every fourth instance keeps each template in the tiny lists.
        workload.hot = workload.hot[::4]
        workload.private = [own[::4] for own in workload.private]
    else:
        workload.session = workload.session[:QUERIES]
        workload.orders = [order[:QUERIES] for order in workload.orders]
    recorder = SpanRecorder()
    try:
        workload.prepare()
        recorder.install()
        try:
            workload.run_pass(recorder)
        finally:
            recorder.uninstall()
    finally:
        workload.close()
    spans = recorder.spans()
    replayed = sum(span[6] for span in spans if span[1] == "durable.recover")
    return Counter(span[1] for span in spans), len(recorder.queue_waits), replayed


def main() -> int:
    failures = []
    for name, expected in EXPECTED.items():
        calls, queue_waits, replayed = traced_calls(name)
        missing = [layer for layer in expected if not calls[layer]]
        if name == "weather_serve" and not queue_waits:
            missing.append("serve queue wait")
        if name == "weather_cold_wal" and not replayed:
            missing.append("WAL records replayed by recover()")
        print(f"{name}: {dict(sorted(calls.items()))}")
        if missing:
            failures.append(f"{name}: no calls recorded for {missing}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
