"""The one fetch driver: parity across depths, pooled connections, prefetch.

Every market call runs through ``MarketTransport.fetch`` on the
executor's fetch pool.  Its contract is that the pool's depth
(``QueryOptions.max_concurrent_calls``) and cross-access prefetch change
*when* market calls happen, never *what they cost*.  Two configurations
bracket the driver: **serial** (one call at a time, no prefetch) and
**deep** (64 calls in flight, prefetch on).  These tests assert the
contract from the outside:

* **canonical ledger parity** — the same workload billed serially or
  deep produces the same multiset of billed calls (URL, rows,
  transactions, price, server-side latency, waste classification, and
  the *grouping* of entries into attribution tokens), calm and under
  injected chaos.  Raw tokens and idempotency keys are installation-
  scoped (they embed a transport id and a global query sequence), so the
  comparison canonicalizes them to ordinals first.
* **pooled connections** — ``LatencyModel.connection_setup_ms`` is
  charged only for connections the transport had to open; a call that
  reuses an idle connection pays nothing, so the setup charged equals
  ``setup_ms x connections opened`` exactly, while dollars are untouched.
* **conservative prefetch** — a query that fails after its prefetches
  were issued still records every completed purchase in the semantic
  store (counted in ``prefetch_wasted_dollars``), so a retry pays only
  for what was never bought: two-run total == clean-run total.
* **hash-seed independence** — the default weather session run deep
  bills the same canonical ledger and picks the same plans under two
  ``PYTHONHASHSEED`` values.
* **lifecycle and validation** — fetch threads never outlive their
  query, and the removed driver knobs are rejected.

(The module keeps its name so that its test ids stay stable.)
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.objectives import QueryOptions
from repro.errors import PlanningError
from repro.market.faults import FaultPolicy
from repro.market.latency import LatencyModel
from repro.market.rest import RestRequest
from repro.market.transport import MarketTransport, TransportConfig
from repro.obs.metrics import MetricsRegistry
from repro.relational.query import AttributeConstraint
from repro.testing import (
    oracle_evaluate,
    registered_payless,
    tiny_weather_market,
)

JOIN_SQL = (
    "SELECT s.City, w.Temperature FROM Station s, Weather w "
    "WHERE s.Country = w.Country AND s.StationID = w.StationID "
    "AND w.Date >= 1 AND w.Date <= 5"
)
WEATHER_SQL = (
    "SELECT Country, StationID, Date, Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND Date >= ? AND Date <= ?"
)

SERIAL = dict(max_concurrent_calls=1, prefetch=False)
DEEP = dict(max_concurrent_calls=64, prefetch=True)


def _payless(config, transport=None, **option_kwargs):
    market = tiny_weather_market(days=10, tuples_per_transaction=5)
    payless = registered_payless(
        market,
        metrics=MetricsRegistry(),
        transport=transport,
        options=QueryOptions(**config, **option_kwargs),
    )
    return payless


def _new_fetch_threads(before):
    """Fetch-pool threads alive now that were not in ``before`` (other
    tests' installations may still hold idle pools)."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("fetch")
        and thread.is_alive()
        and thread not in before
    ]


def _canonical_ledger(ledger):
    """The ledger as a schedule-independent value.

    Sorts entries canonically and maps attribution tokens and
    idempotency keys to first-appearance ordinals: two runs then compare
    equal iff they billed the same calls for the same money with the
    same waste classification and the same token *grouping* — regardless
    of raw token text (which embeds per-installation counters).
    """
    entries = sorted(
        ledger,
        key=lambda e: (
            e.request.url(),
            e.transactions,
            e.price,
            e.idempotency_key or "",
        ),
    )
    tokens, keys = {}, {}
    canon = []
    for entry in entries:
        token = entry.fetch_token
        if token is not None:
            token = tokens.setdefault(token, len(tokens))
        key = entry.idempotency_key
        if key is not None:
            key = keys.setdefault(key, len(keys))
        canon.append(
            (
                entry.request.url(),
                entry.record_count,
                entry.transactions,
                entry.price,
                entry.elapsed_ms,
                ledger.is_wasted(entry),
                token,
                key,
            )
        )
    return canon


def _replay(config, transport=None):
    """A small mixed session: join, repeat (free), two range windows."""
    payless = _payless(config, transport=transport)
    try:
        results = [
            payless.query(JOIN_SQL),
            payless.query(JOIN_SQL),
            payless.query(WEATHER_SQL, (1, 6)),
            payless.query(WEATHER_SQL, (4, 9)),
        ]
        return _canonical_ledger(payless.market.ledger), results
    finally:
        payless.close()


class TestLedgerParity:
    def test_calm_ledgers_identical(self):
        serial, serial_results = _replay(SERIAL)
        deep, deep_results = _replay(DEEP)
        assert deep == serial
        for a, b in zip(serial_results, deep_results):
            assert sorted(a.rows, key=repr) == sorted(b.rows, key=repr)
            assert a.stats.price == b.stats.price

    @pytest.mark.parametrize("seed", [7, 23, 101])
    def test_chaos_ledgers_identical(self, seed):
        def chaotic():
            return TransportConfig(
                faults=FaultPolicy.uniform(seed=seed, rate=0.35),
                max_retries=5,
            )

        serial, __ = _replay(SERIAL, transport=chaotic())
        deep, __ = _replay(DEEP, transport=chaotic())
        assert deep == serial


def _weather_session_deep() -> None:
    """Run the default weather session deep and print its canonical
    ledger, plans and prefetch hits as JSON (a subprocess entry point)."""
    from repro.bench.figures import DEFAULT_PROFILE, make_instances, make_workload
    from repro.core.payless import PayLess
    from repro.market.server import DataMarket

    data = make_workload("real")
    market = DataMarket()
    for dataset in data.datasets:
        market.publish(dataset)
    payless = PayLess(
        market,
        local_db=data.local_database(),
        options=QueryOptions(**DEEP),
        metrics=MetricsRegistry(),
    )
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    plans, prefetch_hits = [], 0
    for instance in make_instances("real", data, DEFAULT_PROFILE.weather_q):
        result = payless.query(instance.sql, instance.params)
        plans.append(result.plan.describe())
        prefetch_hits += result.stats.prefetch_hits
    payless.close()
    print(json.dumps({
        "ledger": _canonical_ledger(market.ledger),
        "plans": plans,
        "prefetch_hits": prefetch_hits,
    }))


class TestHashSeed:
    def test_deep_weather_session_ignores_the_hash_seed(self):
        root = Path(__file__).resolve().parents[1]
        runs = []
        for seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            completed = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "from tests.test_aio_transport import "
                    "_weather_session_deep; _weather_session_deep()",
                ],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
            runs.append(json.loads(completed.stdout))
        zero, one = runs
        assert zero["prefetch_hits"] > 0  # the session exercises prefetch
        assert zero["plans"] == one["plans"]
        assert zero["ledger"] == one["ledger"]
        assert zero["prefetch_hits"] == one["prefetch_hits"]


class TestConnectionSetup:
    SETUP_MS = 100.0

    def _run(self, config):
        payless = _payless(config)
        market = payless.market
        try:
            # Warm a middle window (opening one connection while setup is
            # still free) so the second query's remainder splits into two
            # physical calls against the same seller.
            payless.query(WEATHER_SQL, (4, 5))
            before = payless.metrics.snapshot()
            checkpoint = market.ledger.checkpoint()
            # Real sleeps keep the deep arm's two calls in flight together.
            market.latency = LatencyModel(
                round_trip_ms=10.0,
                per_transaction_ms=1.0,
                connection_setup_ms=self.SETUP_MS,
                realtime_scale=1.0,
            )
            stats = payless.query(WEATHER_SQL, (1, 10)).stats
            after = payless.metrics.snapshot()
            server_ms = sum(
                entry.elapsed_ms
                for entry in market.ledger.entries_since(checkpoint)
            )

            def delta(name):
                return after.get(name, 0.0) - before.get(name, 0.0)

            return (
                stats,
                server_ms,
                delta("connections_opened"),
                delta("connections_reused"),
            )
        finally:
            payless.close()

    def test_setup_charged_per_connection_not_per_call(self):
        serial, serial_server_ms, serial_opened, serial_reused = self._run(
            SERIAL
        )
        deep, deep_server_ms, deep_opened, deep_reused = self._run(DEEP)
        assert serial.calls == deep.calls == 2
        assert serial.price == deep.price  # dollars never move
        # Serially, both calls reuse the warm-up's pooled connection.
        assert serial_opened == 0.0
        assert serial_reused == 2.0
        assert deep_opened + deep_reused == 2.0
        # The setup charged is exactly one handshake per connection the
        # transport had to open, whatever the depth.
        assert serial.market_time_ms - serial_server_ms == pytest.approx(
            self.SETUP_MS * serial_opened
        )
        assert deep.market_time_ms - deep_server_ms == pytest.approx(
            self.SETUP_MS * deep_opened
        )
        assert (
            serial.market_time_critical_path_ms == serial.market_time_ms
        )
        assert deep.market_time_critical_path_ms < deep.market_time_ms

    def test_pool_counts_survive_concurrent_calls(self):
        """Every call either opens or reuses a connection, and every
        connection ends up idle again: a lost update to the per-seller
        idle count breaks one of the two equalities."""
        market = tiny_weather_market(days=10, tuples_per_transaction=5)
        metrics = MetricsRegistry()
        transport = MarketTransport(market, metrics=metrics)
        request = RestRequest(
            "WHW", "Weather", (AttributeConstraint("StationID", value=1),)
        )
        threads_count, calls_each = 16, 50
        errors = []

        def worker():
            try:
                for __ in range(calls_each):
                    transport.fetch(request)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker) for __ in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        snapshot = metrics.snapshot()
        opened = snapshot.get("connections_opened", 0.0)
        reused = snapshot.get("connections_reused", 0.0)
        assert opened + reused == threads_count * calls_each
        assert 1 <= opened <= threads_count
        assert {
            seller: len(idle)
            for seller, idle in transport._idle_connections.items()
        } == {"whw": opened}

    def test_negative_setup_rejected(self):
        from repro.errors import MarketError

        with pytest.raises(MarketError):
            LatencyModel(connection_setup_ms=-1.0)

    def test_setup_participates_in_is_instant(self):
        instant = LatencyModel(round_trip_ms=0.0, per_transaction_ms=0.0)
        assert instant.is_instant
        assert not LatencyModel(
            round_trip_ms=0.0,
            per_transaction_ms=0.0,
            connection_setup_ms=5.0,
        ).is_instant


class TestPrefetch:
    def test_prefetch_consumed_and_free_of_waste(self):
        payless = _payless(DEEP, use_theorems=False)
        try:
            # Real sleeps keep both prefetched accesses in flight at once.
            payless.market.latency = LatencyModel(
                round_trip_ms=20.0, per_transaction_ms=0.0, realtime_scale=1.0
            )
            result = payless.query(JOIN_SQL)
            assert result.stats.prefetch_hits == 2  # both accesses
            snapshot = payless.metrics.snapshot()
            assert snapshot.get("prefetch_hits") == 2.0
            assert snapshot.get("prefetch_wasted_dollars", 0.0) == 0.0
            # The in-flight gauge counts across the executor's batches, so
            # the overlapping prefetches exceed the larger single batch.
            assert (
                snapshot["fetch_pool_high_water_max"]
                > snapshot["fetch_batch_size_max"]
            )
            # Both accesses started at query start, so the critical path
            # is shorter than their serial sum.
            stats = result.stats
            assert (
                stats.market_time_critical_path_ms < stats.market_time_ms
            )
            want = sorted(
                oracle_evaluate(payless, JOIN_SQL).rows, key=repr
            )
            assert sorted(result.rows, key=repr) == want
        finally:
            payless.close()

    def test_failed_query_drains_prefetched_purchases(self):
        threads_before = set(threading.enumerate())
        clean = _payless(DEEP, use_theorems=False)
        try:
            clean.query(JOIN_SQL)
            clean_total = clean.market.ledger.total_price
        finally:
            clean.close()

        payless = _payless(DEEP, use_theorems=False)
        market = payless.market
        original = market.get

        def failing(request, **kwargs):
            # Station is the plan's first access: its prefetch surfaces
            # the outage while Weather's prefetched purchase completes
            # and must be drained, not dropped.
            if request.table.lower() == "station":
                raise RuntimeError("injected seller outage")
            return original(request, **kwargs)

        market.get = failing
        try:
            with pytest.raises(RuntimeError, match="injected"):
                payless.query(JOIN_SQL)
            snapshot = payless.metrics.snapshot()
            # Weather's speculative purchase is accounted as waste...
            assert snapshot.get("prefetch_wasted_dollars", 0.0) > 0.0
            assert payless.market.ledger.total_price > 0.0
            # ...but recorded in the store, so the retry pays only for
            # what was never bought: two runs cost one clean run.
            market.get = original
            retry = payless.query(JOIN_SQL)
            assert payless.market.ledger.total_price == clean_total
            want = sorted(
                oracle_evaluate(payless, JOIN_SQL).rows, key=repr
            )
            assert sorted(retry.rows, key=repr) == want
        finally:
            market.get = original
            payless.close()
        # Closing the installation stopped the fetch threads the failed
        # query and its retry ran on.
        assert _new_fetch_threads(threads_before) == []

    def test_prefetch_can_be_disabled(self):
        payless = _payless(
            dict(DEEP, prefetch=False), use_theorems=False
        )
        try:
            result = payless.query(JOIN_SQL)
            assert result.stats.prefetch_hits == 0
            assert (
                payless.metrics.snapshot().get("prefetch_hits", 0.0) == 0.0
            )
        finally:
            payless.close()


class TestLifecycleAndValidation:
    def test_close_is_idempotent_and_restartable(self):
        threads_before = set(threading.enumerate())
        payless = _payless(DEEP)
        try:
            first = payless.query(WEATHER_SQL, (4, 5))
            payless.close()
            payless.close()  # idempotent
            # A query after close borrows a fresh fetch pool for its two
            # remainder calls (either side of the first window).
            second = payless.query(WEATHER_SQL, (1, 10))
            assert second.stats.calls == 2
            assert first.stats.complete and second.stats.complete
        finally:
            payless.close()
            payless.close()
        assert _new_fetch_threads(threads_before) == []

    def test_transport_mode_validated(self):
        # The driver knobs are gone: the old spellings are rejected
        # instead of silently ignored (README migration table).
        with pytest.raises(TypeError):
            QueryOptions(transport_mode="async")
        with pytest.raises(TypeError):
            QueryOptions(async_pool_size=64)

    def test_pool_size_validated(self):
        with pytest.raises(PlanningError):
            QueryOptions(max_concurrent_calls=0)

    def test_threaded_stays_the_default(self):
        assert QueryOptions().max_concurrent_calls is None
        assert QueryOptions().prefetch is True
        payless = _payless({})
        try:
            assert payless.context.max_concurrent_calls == 4
            assert not hasattr(payless.context, "async_transport")
        finally:
            payless.close()
