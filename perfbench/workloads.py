"""The workloads: their inputs, installations and timed passes.

The query sets are fixed and come from the repository's default weather
session (``repro.bench.figures.DEFAULT_PROFILE``: 12 instances per
template, instance seed 101, t=100).  The seed decides the order queries
are issued in, so the same seed gives the same inputs.

A *pass* is one replay of a workload's query list; the timed window is a
sequence of passes.  README.md says why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from perfbench.check import OUT_DIR, ledger_problems
from repro.bench.figures import DEFAULT_PROFILE, make_instances, make_workload
from repro.core.objectives import QueryOptions
from repro.core.payless import PayLess
from repro.durable.backend import DurabilityConfig
from repro.market.latency import LatencyModel
from repro.market.server import DataMarket
from repro.obs.metrics import MetricsRegistry
from repro.serve import QueryScheduler, ServeConfig
from repro.workloads.weather import WeatherInstanceGenerator

#: Simulated seller latency (accounted in QueryStats, never slept).
SIMULATED = LatencyModel(round_trip_ms=150.0, per_transaction_ms=25.0)
#: The serving workload's seller: the same model, connection set-up
#: added, and a twentieth of it slept for real.
REALTIME = LatencyModel(
    round_trip_ms=150.0,
    per_transaction_ms=25.0,
    connection_setup_ms=50.0,
    realtime_scale=0.05,
)
CLIENTS = 2
#: A run's window holds at least this many queries, so p90 has ten
#: samples above it.
MIN_QUERIES = 100


@dataclass
class QueryOutcome:
    sql: str
    params: tuple
    latency_s: float
    #: The answer, until :func:`perfbench.check.settle` checks and drops it.
    rows: list | None = None
    stats: object | None = None
    error: str | None = None
    #: Set by the check: rows returned, and what was wrong (None: right).
    result_rows: int = 0
    problem: str | None = None


@dataclass
class PassResult:
    """One replay of the query list, with what it cost."""

    outcomes: list[QueryOutcome]
    wall_s: float
    setup_s: float | None = None
    problems: list[str] = field(default_factory=list)
    #: Rewriter memo (hits, misses) during the pass.
    memo: tuple[int, int] = (0, 0)
    #: Which issue order a single-client pass replayed (equal orders must
    #: spend equal dollars); ``None`` for passes with no such promise.
    order: int | None = None
    #: Factor that brings this pass's wall times to the reference machine
    #: speed (set by ``run.py`` from its calibration loop).
    scale: float = 1.0


def _queries(instances) -> list[tuple[str, tuple]]:
    return [(instance.sql, tuple(instance.params)) for instance in instances]


def install(data, latency: LatencyModel, durability=None) -> PayLess:
    """A fresh market and buyer installation over ``data``."""
    market = DataMarket(latency=latency)
    for dataset in data.datasets:
        market.publish(dataset)
    payless = PayLess(
        market,
        local_db=data.local_database(),
        options=QueryOptions(durability=durability),
        metrics=MetricsRegistry(),
    )
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    payless.recover()
    return payless


def run_query(payless: PayLess, sql: str, params: tuple) -> QueryOutcome:
    started = time.perf_counter()
    try:
        result = payless.query(sql, params)
    except Exception as error:  # noqa: BLE001 - a failed query is counted
        return QueryOutcome(
            sql, params, time.perf_counter() - started, error=repr(error)
        )
    latency = time.perf_counter() - started
    return QueryOutcome(sql, params, latency, result.rows, result.stats)


def _memo(payless: PayLess) -> tuple[int, int]:
    return payless.rewriter.cache_hits, payless.rewriter.cache_misses


def _serial_pass(payless, queries, recorder) -> PassResult:
    memo_before = _memo(payless)
    if recorder is not None:
        recorder.window = True
    started = time.perf_counter()
    outcomes = [run_query(payless, sql, params) for sql, params in queries]
    wall = time.perf_counter() - started
    if recorder is not None:
        recorder.window = False
    hits, misses = _memo(payless)
    return PassResult(
        outcomes, wall, memo=(hits - memo_before[0], misses - memo_before[1])
    )


class _Inputs:
    data = None

    def prepare(self) -> None:
        """Untimed work a run does once before its window."""

    def close(self) -> None:
        pass

    def oracle_installation(self) -> PayLess:
        return install(self.data, SIMULATED)

    def distinct_queries(self) -> list[tuple[str, tuple]]:
        return list(dict.fromkeys(self.all_queries()))

    def all_queries(self) -> list[tuple[str, tuple]]:
        raise NotImplementedError


# -------------------------------------------------------- weather_cold_wal


class WeatherColdWal(_Inputs):
    """The weather session on a fresh durable installation per pass.

    Each pass's set-up also restarts an installation from a copy of a
    reference state dir: the WAL of one whole session, written once by
    :meth:`prepare` and closed without a snapshot, so ``recover()``
    replays every record.  The restarted installation is closed again;
    the pass runs on the fresh one.
    """

    name = "weather_cold_wal"
    #: Issue orders a run cycles through: more orders average out what
    #: one order buys, repeats of an order check that it spends the same.
    ORDERS = 3

    def __init__(self, seed: int):
        self.data = make_workload("real")
        self.session = _queries(
            make_instances("real", self.data, DEFAULT_PROFILE.weather_q)
        )
        rng = random.Random(seed)
        self.orders = []
        for __ in range(self.ORDERS):
            order = list(self.session)
            rng.shuffle(order)
            self.orders.append(order)
        self.passes = 0
        self.reference_dir = None
        self.reference_spent = 0.0

    def all_queries(self):
        return self.session

    def prepare(self) -> None:
        """Write the reference state: the session in its default order."""
        OUT_DIR.mkdir(exist_ok=True)
        self.reference_dir = tempfile.mkdtemp(prefix="ref-", dir=OUT_DIR)
        payless = install(
            self.data, SIMULATED, self._durability(self.reference_dir)
        )
        _serial_pass(payless, self.session, None)
        self.reference_spent = payless.market.ledger.spent.price
        payless.close()

    @staticmethod
    def _durability(state_dir: str) -> DurabilityConfig:
        return DurabilityConfig(state_dir, fsync="commit", snapshot_on_close=False)

    def _restart(self, state_dir: str) -> tuple[PayLess, float]:
        """Recover a copy of the reference state; (installation, seconds)."""
        shutil.copytree(self.reference_dir, state_dir)
        started = time.perf_counter()
        payless = install(self.data, SIMULATED, self._durability(state_dir))
        return payless, time.perf_counter() - started

    def _restart_problems(self, payless: PayLess) -> list[str]:
        problems = []
        billed = payless.market.ledger.spent.price
        if billed != 0:
            problems.append(f"restart billed ${billed:g}, expected $0")
        recovered = payless.durability.bill.spent_price
        if not math.isclose(
            recovered, self.reference_spent, rel_tol=1e-9, abs_tol=1e-9
        ):
            problems.append(
                f"restart recovered ${recovered:g} spent, "
                f"the reference spent ${self.reference_spent:g}"
            )
        return problems

    def run_pass(self, recorder=None) -> PassResult:
        OUT_DIR.mkdir(exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
        try:
            restarted, recovery = self._restart(os.path.join(scratch, "restart"))
            problems = self._restart_problems(restarted)
            restarted.close()
            started = time.perf_counter()
            payless = install(
                self.data,
                SIMULATED,
                DurabilityConfig(os.path.join(scratch, "fresh"), fsync="commit"),
            )
            setup = recovery + time.perf_counter() - started
            index = self.passes % self.ORDERS
            self.passes += 1
            result = _serial_pass(payless, self.orders[index], recorder)
            result.setup_s = setup
            result.order = index
            result.problems = problems + money_problems(payless, [result])
            payless.close()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return result

    def close(self) -> None:
        if self.reference_dir is not None:
            shutil.rmtree(self.reference_dir, ignore_errors=True)


# ----------------------------------------------------------- weather_serve


class WeatherServe(_Inputs):
    """Two closed-loop tenants behind the scheduler, real market waits."""

    name = "weather_serve"
    #: Q5 (the four-way join) is left out: under concurrent interleavings
    #: its plan flips to one whose local join takes seconds (README.md).
    TEMPLATES = ("Q1", "Q2", "Q3", "Q4")
    #: Instances per template in the shared hot list and in each private
    #: list: 16 + 16 queries per tenant and pass.
    INSTANCES_PER_TEMPLATE = 4

    def __init__(self, seed: int):
        self.data = make_workload("real")
        self.rng = random.Random(seed)

        def instances(offset: int):
            generator = WeatherInstanceGenerator(
                self.data, seed=DEFAULT_PROFILE.instance_seed + offset
            )
            return _queries(
                generator.instance(template)
                for template in self.TEMPLATES
                for __ in range(self.INSTANCES_PER_TEMPLATE)
            )

        self.hot = instances(0)
        self.private = [instances(tenant + 1) for tenant in range(CLIENTS)]

    def all_queries(self):
        return self.hot + [query for own in self.private for query in own]

    def _tenant_lists(self) -> list[list[tuple[str, tuple]]]:
        """This pass's lists: hot and private queries alternate, in orders
        shuffled per pass (the hot order is the same for every tenant)."""
        hot = list(self.hot)
        self.rng.shuffle(hot)
        lists = []
        for own in self.private:
            own = list(own)
            self.rng.shuffle(own)
            lists.append([query for pair in zip(hot, own) for query in pair])
        return lists

    def run_pass(self, recorder=None) -> PassResult:
        started = time.perf_counter()
        payless = install(self.data, REALTIME)
        setup = time.perf_counter() - started
        config = ServeConfig(workers=CLIENTS, coalesce=True)
        tenants = self._tenant_lists()
        outcomes: list[list[QueryOutcome]] = [[] for __ in tenants]

        def client(index: int, session) -> None:
            for sql, params in tenants[index]:
                submitted = time.perf_counter()
                if recorder is not None:
                    recorder.note_submit(sql, params)
                try:
                    result = session.submit(sql, params).result(timeout=120.0)
                except Exception as error:  # noqa: BLE001 - counted
                    outcomes[index].append(QueryOutcome(
                        sql, params, time.perf_counter() - submitted,
                        error=repr(error),
                    ))
                    continue
                outcomes[index].append(QueryOutcome(
                    sql, params, time.perf_counter() - submitted,
                    result.rows, result.stats,
                ))

        with QueryScheduler(payless, config) as scheduler:
            sessions = [
                scheduler.session(f"tenant{i}") for i in range(CLIENTS)
            ]
            threads = [
                threading.Thread(target=client, args=(i, sessions[i]))
                for i in range(CLIENTS)
            ]
            if recorder is not None:
                recorder.window = True
            window_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170.0)
            wall = time.perf_counter() - window_started
            if recorder is not None:
                recorder.window = False
        stuck = [thread for thread in threads if thread.is_alive()]
        if stuck:
            raise RuntimeError(f"{len(stuck)} serve clients did not finish")
        flat = [outcome for tenant in outcomes for outcome in tenant]
        result = PassResult(flat, wall, setup, memo=_memo(payless))
        result.problems = money_problems(payless, [result])
        payless.close()
        return result

def money_problems(payless: PayLess, passes: list[PassResult]) -> list[str]:
    stats_price = sum(
        outcome.stats.price
        for result in passes
        for outcome in result.outcomes
        if outcome.stats is not None
    )
    return ledger_problems(payless, stats_price)


WORKLOADS = {
    WeatherColdWal.name: WeatherColdWal,
    WeatherServe.name: WeatherServe,
}
