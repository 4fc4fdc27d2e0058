"""The planning/execution context: everything PayLess knows at query time.

Bundles the market connection, the catalog of market-table statistics, the
semantic store, the rewriter, the buyer's local database, and cheap exact
statistics about local tables.  Built once by the :class:`~repro.core.
payless.PayLess` facade at registration time and threaded through the
optimizer, baselines, and executor.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.rewriter import SemanticRewriter
from repro.errors import PlanningError
from repro.market.server import DataMarket
from repro.market.transport import MarketTransport, TransportConfig
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import Tracer
from repro.relational.database import Database
from repro.relational.engine import DEFAULT_EXECUTION, ExecutionConfig
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.semstore.store import SemanticStore
from repro.stats.catalog import Catalog


@dataclass(frozen=True)
class LocalTableInfo:
    """Exact, free statistics about a local table."""

    table: str
    cardinality: int
    distinct: dict[str, int]

    def distinct_of(self, attribute: str) -> int:
        return self.distinct.get(attribute.lower(), self.cardinality)

    @classmethod
    def from_table(cls, table: Table) -> "LocalTableInfo":
        distinct = {
            attribute.name.lower(): len(table.distinct(attribute.name))
            for attribute in table.schema
        }
        return cls(
            table=table.name,
            cardinality=len(table),
            distinct=distinct,
        )


class PlanningContext:
    """Shared state for planning and executing one buyer's queries."""

    #: Default in-flight REST call bound for executors built on a context
    #: that does not override it.  1 = serial fetch.
    DEFAULT_MAX_CONCURRENT_CALLS = 4

    def __init__(
        self,
        market: DataMarket,
        catalog: Catalog,
        store: SemanticStore,
        rewriter: SemanticRewriter,
        local_db: Database,
        max_concurrent_calls: int | None = None,
        transport: TransportConfig | MarketTransport | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        execution: ExecutionConfig | None = None,
        prefetch: bool = True,
    ):
        self.market = market
        self.catalog = catalog
        self.store = store
        self.rewriter = rewriter
        self.local_db = local_db
        #: Observability: the query tracer (disabled by default — near-zero
        #: overhead) and the metrics registry (the process-wide default
        #: unless the installation wants isolation).  Threaded from here
        #: into the rewriter and the transport so every pipeline layer
        #: reports into the same trace/registry.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else REGISTRY
        #: Which local-evaluation engine runs the final joins/aggregates
        #: (see :class:`repro.relational.engine.ExecutionConfig`).
        self.execution = execution if execution is not None else DEFAULT_EXECUTION
        self.rewriter.tracer = self.tracer
        self.rewriter.metrics = self.metrics
        #: The money-safe transport every executor call goes through (see
        #: :mod:`repro.market.transport`).  Lives here, not on the
        #: executor: circuit breakers must remember failures across
        #: queries.  Accepts a ready transport or just its config.
        if isinstance(transport, MarketTransport):
            self.transport = transport
        else:
            self.transport = MarketTransport(
                market, transport, metrics=self.metrics
            )
        if max_concurrent_calls is not None and max_concurrent_calls < 1:
            raise PlanningError("max_concurrent_calls must be >= 1")
        #: Upper bound on concurrently in-flight market calls of one
        #: executing query: its fetch pool's size (see
        #: :mod:`repro.core.executor`).
        self.max_concurrent_calls = (
            max_concurrent_calls
            if max_concurrent_calls is not None
            else self.DEFAULT_MAX_CONCURRENT_CALLS
        )
        #: Whether executors prefetch upcoming non-bind accesses on their
        #: fetch pool (see :mod:`repro.core.executor`).
        self.prefetch = prefetch
        #: Singleflight group coalescing overlapping in-flight market
        #: fetches across concurrent sessions (``None`` = no coalescing).
        #: Wired by :class:`~repro.serve.scheduler.QueryScheduler`; the
        #: executor consults it per remainder call.
        self.coalescer = None
        #: Durable WAL backend (``None`` = in-memory only).  Wired by
        #: :class:`~repro.core.payless.PayLess` when ``QueryOptions``
        #: carries a durability config; the executor journals purchases
        #: through it inside the record→release window.
        self.durability = None
        self._local_info: dict[str, LocalTableInfo] = {}
        self._dataset_of: dict[str, str] = {}
        self._schemas: dict[str, Schema] = {}
        #: Idle executor fetch pools by size (see :meth:`borrow_fetch_pool`).
        self._idle_fetch_pools: list[tuple[int, ThreadPoolExecutor]] = []
        self._fetch_pool_lock = threading.Lock()

    # -- executor fetch pools ---------------------------------------------------

    def borrow_fetch_pool(self, workers: int) -> ThreadPoolExecutor:
        """A fetch pool of ``workers`` threads for one executor's sole use.

        Pools are recycled between executors (:meth:`return_fetch_pool`)
        so a query does not pay thread start-up for every call it runs in
        parallel; one pool still serves one executor at a time.
        """
        with self._fetch_pool_lock:
            for index, (size, pool) in enumerate(self._idle_fetch_pools):
                if size == workers:
                    del self._idle_fetch_pools[index]
                    return pool
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="fetch"
        )

    def return_fetch_pool(self, workers: int, pool: ThreadPoolExecutor) -> None:
        """Park an idle pool (no call of its executor still running)."""
        with self._fetch_pool_lock:
            self._idle_fetch_pools.append((workers, pool))

    def close_fetch_pools(self) -> None:
        """Shut down every idle fetch pool and join its threads."""
        with self._fetch_pool_lock:
            pools, self._idle_fetch_pools = self._idle_fetch_pools, []
        for __, pool in pools:
            pool.shutdown(wait=True)

    # -- registration -----------------------------------------------------------

    def register_local(self, table: Table) -> None:
        key = table.name.lower()
        self._local_info[key] = LocalTableInfo.from_table(table)
        self._schemas[key] = table.schema

    def register_market_table(self, dataset: str, table: str, schema: Schema) -> None:
        key = table.lower()
        self._dataset_of[key] = dataset
        self._schemas[key] = schema

    # -- lookups ----------------------------------------------------------------

    def is_market(self, table: str) -> bool:
        return table.lower() in self._dataset_of

    def is_local(self, table: str) -> bool:
        return table.lower() in self._local_info

    def dataset_of(self, table: str) -> str:
        try:
            return self._dataset_of[table.lower()]
        except KeyError:
            raise PlanningError(f"{table!r} is not a market table") from None

    def local_info(self, table: str) -> LocalTableInfo:
        try:
            return self._local_info[table.lower()]
        except KeyError:
            raise PlanningError(f"{table!r} is not a local table") from None

    def tuples_per_transaction(self, table: str) -> int:
        dataset = self.market.dataset(self.dataset_of(table))
        return dataset.pricing.tuples_per_transaction

    @property
    def latency_model(self):
        """The latency model the planner estimates plan wall-clock with.

        The market's own model when it has one; an instant market (the
        test/default configuration) falls back to
        :data:`~repro.market.latency.DEFAULT_LATENCY` so the latency axis
        of the Pareto frontier stays meaningful — planning against an
        all-zero model would make every plan "equally fast" and reduce
        every objective to min-dollars.
        """
        model = self.market.latency
        if model.is_instant:
            from repro.market.latency import DEFAULT_LATENCY

            return DEFAULT_LATENCY
        return model

    # -- SchemaProvider protocol (for the SQL analyzer) ---------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._schemas

    def schema_of(self, name: str) -> Schema:
        try:
            return self._schemas[name.lower()]
        except KeyError:
            raise PlanningError(f"unknown table {name!r}") from None
