"""Plan execution: buy the missing data, then answer locally.

The executor walks the plan tree left-to-right and, for every market leaf,
re-runs semantic rewriting against the *current* store state (binding
values are known by now), issues the remainder REST calls, records results
into the semantic store, and feeds exact region counts back into the
statistics (Figure 3, steps 5.1-5.4).  Intermediate joins are materialized
only to obtain bind-join values; the final answer is produced the way the
paper's architecture does it — all required rows are staged into the local
DBMS and the whole query is evaluated there (steps 6-8).

Remainder REST calls within one table access are independent (their boxes
are disjoint and the market is read-only), so they are dispatched through
a thread pool of ``max_concurrent_calls`` workers.  The same pool runs
cross-access prefetch: the plan's certain (non-bind) accesses are
rewritten at query start and their calls put in flight while earlier
accesses and joins execute.  Responses are recorded into the store and
statistics serially in remainder order, which keeps every downstream
state — coverage, histograms, billing totals — identical to serial
execution; only wall-clock changes, reported both ways as
``market_time_ms`` (serial sum) and ``market_time_critical_path_ms``
(simulated makespan under the concurrency limit).

All calls go through the money-safe transport
(:mod:`repro.market.transport`): transient faults are retried with
backoff under at-most-once billing.  When a call still fails, the
executor degrades gracefully — the semantic store records **only** the
boxes whose fetches completed (a failed fetch can never poison the
coverage index into skipping a future purchase), and the query either
raises :class:`~repro.errors.MarketUnavailableError` or, under the
transport's ``partial_results`` mode, returns the rows that did arrive
with the failed regions reported on the result.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import (
    FIRST_EXCEPTION,
    Future,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.context import PlanningContext
from repro.core.objectives import AdaptivePolicy
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.core.plans import (
    JoinNode,
    LocalBlockNode,
    MarketAccessNode,
    MaterializedNode,
    PlanNode,
)
from repro.errors import (
    ExecutionError,
    MarketUnavailableError,
    TransportError,
)
from repro.market.rest import RestRequest
from repro.market.transport import FetchResult
from repro.relational.database import Database
from repro.relational.engine import DEFAULT_EXECUTION, evaluate
from repro.relational.expressions import Comparison, ColumnRef, RowLayout, conjunction
from repro.relational.relation import Relation
from repro.relational.query import AttributeConstraint, LogicalQuery
from repro.relational.table import Table
from repro.stats.overlay import CardinalityOverlay


#: Installation-wide query sequence feeding the per-query ledger
#: attribution tokens (``q<N>:a<access>``); see ``BillingLedger.attribute``.
_QUERY_SEQ = itertools.count()


@dataclass(frozen=True)
class FailedFetch:
    """One remainder region the transport could not buy."""

    table: str
    request: RestRequest
    error: TransportError

    def __repr__(self) -> str:
        return f"FailedFetch({self.request.url()}: {self.error})"


@dataclass(frozen=True)
class CoveredSkip:
    """A remainder box found already covered at issue time.

    Only possible under concurrent serving: another session recorded the
    box between this query's rewrite and its fetch.  Nothing is billed
    and nothing needs recording — the rows are read from the store like
    any other cache hit.
    """

    request: RestRequest

    def __repr__(self) -> str:
        return f"CoveredSkip({self.request.url()})"


@dataclass
class _CallBatch:
    """One table access's remainder calls, issued and not yet collected.

    ``calls`` holds one entry per remainder, in request order: a pool
    :class:`~concurrent.futures.Future`, or the finished
    ``(outcome, call_span)`` pair of a call that ran inline.
    ``lead_flights`` gathers the singleflight flights the calls led; the
    collector retires them under the table lock once their rows are
    recorded.  ``ready_ms`` is the simulated time the batch was issued
    at: the critical path so far (0 for a prefetch, issued at query
    start).
    """

    ready_ms: float = 0.0
    calls: list = field(default_factory=list)
    lead_flights: list = field(default_factory=list)
    lead_lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _Access:
    """One table access whose purchase is under way: its rewrite, the
    ledger token and checkpoint claimed for it, and its issued calls.

    A prefetched access is created at query start from the chosen plan's
    non-bind market accesses (with its detached ``table_fetch`` span when
    tracing) and consumed by :meth:`Executor._fetch_market` when the plan
    walk reaches the table; token and checkpoint were claimed at schedule
    time, so ledger attribution is identical either way.  If the query
    fails before consuming it, the drain path still waits for the calls
    and records every *paid* box into the store — billed money must
    always buy durable coverage, never be silently dropped.
    """

    table: str
    rewrite: object
    token: str
    checkpoint: int
    batch: _CallBatch
    span: object = None


@dataclass
class ExecutionResult:
    """The final relation plus what this query actually cost."""

    relation: Relation
    transactions: int
    price: float
    calls: int
    fetched_records: int
    #: Simulated wall-clock spent on REST calls (serial sum, including
    #: retries and backoff waits of the money-safe transport).
    market_time_ms: float = 0.0
    #: Simulated wall-clock with ``max_concurrent_calls`` in-flight calls:
    #: the critical path of the fetch schedule, with prefetched accesses
    #: starting at query start (contention between overlapping accesses
    #: for pool threads is not modelled).  Equals ``market_time_ms`` when
    #: executing serially.
    market_time_critical_path_ms: float = 0.0
    #: Transport accounting (see :mod:`repro.market.transport`).
    retries: int = 0
    faults_injected: int = 0
    replays: int = 0
    wasted_transactions: int = 0
    wasted_price: float = 0.0
    #: Regions that could not be bought (non-empty only under the
    #: transport's ``partial_results`` mode; otherwise the executor raises).
    failed_fetches: tuple[FailedFetch, ...] = ()
    #: Singleflight accounting under concurrent serving: fetches this
    #: query rode for free on another session's in-flight call, what they
    #: would have billed, and remainder boxes already covered at issue
    #: time (see :mod:`repro.serve.singleflight`).
    coalesced_fetches: int = 0
    coalesced_savings_transactions: int = 0
    coalesced_savings_price: float = 0.0
    covered_skips: int = 0
    #: Adaptive re-optimization accounting: mid-query re-plans attempted,
    #: and the planner's estimate of dollars the adopted suffixes saved
    #: versus staying the course (0 when adaptive mode is off or never
    #: tripped).
    replans: int = 0
    replan_dollars_saved_est: float = 0.0
    #: Table accesses served from a cross-access prefetch scheduled at
    #: query start.
    prefetch_hits: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed_fetches


def _makespan(durations_ms: Sequence[float], workers: int) -> float:
    """List-scheduling makespan of ``durations_ms`` over ``workers`` lanes.

    Models the thread pool's in-order greedy assignment; with one worker it
    degenerates to the serial sum.
    """
    if not durations_ms:
        return 0.0
    lanes = min(workers, len(durations_ms))
    if lanes <= 1:
        return float(sum(durations_ms))
    heap = [0.0] * lanes
    for duration in durations_ms:
        heapq.heapreplace(heap, heap[0] + duration)
    return max(heap)


class _Fetched:
    """Join components materialized during fetching.

    Cartesian (Theorem 3) combinations are kept as separate components —
    their cross product is never materialized; binding values are read from
    the component that owns the attribute (empty sibling components zero
    out the bindings, since a cross product with an empty side is empty).
    """

    def __init__(self, components: list[Relation], ops=None):
        self.components = components
        self.ops = ops if ops is not None else DEFAULT_EXECUTION.ops

    @property
    def any_empty(self) -> bool:
        return any(len(component) == 0 for component in self.components)

    def distinct_values(self, ref: ColumnRef) -> set:
        if self.any_empty:
            return set()
        for component in self.components:
            if component.layout.has(ref.table, ref.column):
                return component.distinct_values(ref.table, ref.column)
        raise ExecutionError(f"no fetched component holds {ref!r}")

    def _component_of(self, ref: ColumnRef) -> int:
        for index, component in enumerate(self.components):
            if component.layout.has(ref.table, ref.column):
                return index
        raise ExecutionError(f"no fetched component holds {ref!r}")

    def apply_joins(self, predicates: tuple) -> "_Fetched":
        """Apply equi-join predicates, merging components as needed.

        Predicates whose two sides live in different components hash-join
        those components into one; predicates internal to one component
        become a filter.  Components never referenced stay separate (they
        are Cartesian siblings — their product is never materialized).
        """
        components = list(self.components)
        for predicate in predicates:
            left_table, right_table = predicate.tables()
            left_ref = predicate.side_for(left_table)
            right_ref = predicate.side_for(right_table)
            fetched = _Fetched(components, self.ops)
            left_index = fetched._component_of(left_ref)
            right_index = fetched._component_of(right_ref)
            if left_index == right_index:
                components[left_index] = self.ops.filter_rows(
                    components[left_index],
                    Comparison("=", left_ref, right_ref),
                )
                continue
            joined = self.ops.hash_join(
                components[left_index],
                components[right_index],
                [(left_ref, right_ref)],
            )
            keep = [
                component
                for index, component in enumerate(components)
                if index not in (left_index, right_index)
            ]
            components = [joined] + keep
        return _Fetched(components, self.ops)


class Executor:
    """Executes one optimized plan for one logical query.

    ``max_concurrent_calls`` bounds the query's in-flight REST calls;
    ``None`` inherits the planning context's setting, and ``1`` executes
    serially (bit-for-bit the historical behaviour).
    """

    def __init__(
        self,
        context: PlanningContext,
        max_concurrent_calls: int | None = None,
        adaptive: AdaptivePolicy | None = None,
        optimizer_options: OptimizerOptions | None = None,
    ):
        self.context = context
        self.execution = context.execution
        self._ops = self.execution.ops
        self.max_concurrent_calls = (
            max_concurrent_calls
            if max_concurrent_calls is not None
            else context.max_concurrent_calls
        )
        if self.max_concurrent_calls < 1:
            raise ExecutionError("max_concurrent_calls must be >= 1")
        #: Mid-query re-optimization policy (None = static pipeline) and
        #: the planner options re-plans must preserve (objective, SQR,
        #: cost metric, ... — the suffix is planned like the original).
        self.adaptive = adaptive
        self.optimizer_options = optimizer_options
        #: Cross-access prefetch needs a pool to run behind the plan walk
        #: (``max_concurrent_calls=1`` stays serial), and only a *static*
        #: plan may use it: an adaptive executor may re-plan the suffix
        #: mid-query, and prefetch must never buy for a plan that might be
        #: abandoned (wasted dollars must stay provably zero).
        self._prefetch_enabled = (
            context.prefetch
            and adaptive is None
            and self.max_concurrent_calls > 1
        )
        #: The fetch pool, shared by every table access and prefetch of
        #: this executor (borrowed from the context on first use, given
        #: back by :meth:`close`).  It never serves two executors at once:
        #: a coalescing follower blocks its worker thread, and must never
        #: wait on a leader queued behind it in the same pool.
        self._call_pool: ThreadPoolExecutor | None = None
        #: Every call this executor put on the pool, so :meth:`close` can
        #: wait for calls a failed query left running.
        self._pool_calls: list[Future] = []
        self._prefetched: dict[str, _Access] = {}
        #: Market calls of this executor running right now, across all
        #: its batches (prefetched accesses overlap), feeding the
        #: ``fetch_pool_high_water`` gauge.
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._high_water = context.metrics.gauge("fetch_pool_high_water")

    def close(self) -> None:
        """Release execution resources (idempotent; called by PayLess):
        wait for any call still running, then give the pool back."""
        pool, self._call_pool = self._call_pool, None
        if pool is not None:
            wait(self._pool_calls)
            self._pool_calls = []
            self.context.return_fetch_pool(self.max_concurrent_calls, pool)

    def execute(self, query: LogicalQuery, plan: PlanNode) -> ExecutionResult:
        self._query = query
        self._staged: dict[str, list] = {}
        self._critical_path_ms = 0.0
        self._serial_ms = 0.0
        self._scope = self.context.transport.new_scope()
        self._failed_fetches: list[FailedFetch] = []
        # Ledger attribution: every market call this query issues is
        # stamped with a per-table-access token (``q<N>:a<M>``), and the
        # query's cost is the sum over its own tokens' entries.  Global
        # before/after ledger diffs would claim other sessions' entries
        # under concurrent serving.
        self._query_token = f"q{next(_QUERY_SEQ)}"
        self._access_seq = 0
        self._spent_transactions = 0
        self._spent_price = 0.0
        self._billed_calls = 0
        self._billed_records = 0
        self._replans = 0
        self._replan_saved = 0.0
        self._prefetch_hits = 0
        self._prefetched = {}
        try:
            if self._prefetch_enabled:
                self._schedule_prefetch(plan)
            if self.adaptive is None:
                self._fetch(plan)
            else:
                self._adaptive_fetch(plan)
        finally:
            # Any prefetched access the plan walk did not consume (an
            # earlier access failed the query) is drained here: wait for
            # the in-flight calls and record every paid box into the
            # store, so billed money always buys coverage.  A normally
            # completed static plan consumes every entry — this is then a
            # no-op, which is what keeps prefetch_wasted_dollars at zero.
            self._drain_prefetch()

        staging = self._build_staging(query)
        tracer = self.context.tracer
        if tracer.enabled:
            input_rows = sum(
                len(staging.table(name)) for name in query.tables
            )
            with tracer.span("local_eval") as eval_span:
                started = time.perf_counter()
                relation = evaluate(staging, query, self.execution)
                eval_ms = (time.perf_counter() - started) * 1000.0
                if eval_span is not None:
                    eval_span.set(
                        engine=self.execution.engine,
                        input_rows=input_rows,
                        output_rows=len(relation.rows),
                        eval_ms=eval_ms,
                        rows_per_sec=(
                            input_rows / (eval_ms / 1000.0)
                            if eval_ms > 0.0
                            else 0.0
                        ),
                    )
        else:
            relation = evaluate(staging, query, self.execution)

        scope = self._scope
        return ExecutionResult(
            relation=relation,
            transactions=self._spent_transactions,
            price=self._spent_price,
            calls=self._billed_calls,
            fetched_records=self._billed_records,
            market_time_ms=self._serial_ms,
            market_time_critical_path_ms=self._critical_path_ms,
            retries=scope.retries,
            faults_injected=scope.faults_injected,
            replays=scope.replays,
            wasted_transactions=scope.wasted_transactions,
            wasted_price=scope.wasted_price,
            failed_fetches=tuple(self._failed_fetches),
            coalesced_fetches=scope.coalesced_fetches,
            coalesced_savings_transactions=(
                scope.coalesced_savings_transactions
            ),
            coalesced_savings_price=scope.coalesced_savings_price,
            covered_skips=scope.covered_skips,
            replans=self._replans,
            replan_dollars_saved_est=self._replan_saved,
            prefetch_hits=self._prefetch_hits,
        )

    # ------------------------------------------------------------------ fetching

    def _fetch(self, node: PlanNode) -> _Fetched:
        if isinstance(node, LocalBlockNode):
            return self._fetch_block(node)
        if isinstance(node, MarketAccessNode):
            relation = self._fetch_market(node.table, (), source="access")
            return _Fetched([relation], self._ops)
        if isinstance(node, JoinNode):
            left = self._fetch(node.left)
            if isinstance(node.right, MarketAccessNode) and node.bind:
                right_components = [
                    self._fetch_bound(node.right, node.predicates, left)
                ]
            else:
                right_components = self._fetch(node.right).components
            combined = _Fetched(left.components + right_components, self._ops)
            if node.predicates:
                combined = combined.apply_joins(node.predicates)
            return combined
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    # ----------------------------------------------- cross-access prefetch

    def _prefetchable_tables(self, node: PlanNode, tables: list[str]) -> None:
        """Collect, in execution order, the plan's *certain* market buys.

        Mirrors :meth:`_fetch`'s walk exactly: a non-bind
        :class:`MarketAccessNode` will be fetched with the query's static
        constraints no matter what earlier accesses return, so buying it
        early can never waste a dollar.  Bind-join right sides depend on
        runtime binding values, and LocalBlock market tables are covered
        reads — neither is prefetchable.
        """
        if isinstance(node, MarketAccessNode):
            tables.append(node.table)
            return
        if isinstance(node, JoinNode):
            self._prefetchable_tables(node.left, tables)
            if not (isinstance(node.right, MarketAccessNode) and node.bind):
                self._prefetchable_tables(node.right, tables)

    def _schedule_prefetch(self, plan: PlanNode) -> None:
        """Rewrite every certain upcoming access *now* and put its
        remainder calls in flight on the fetch pool, so market latency
        overlaps earlier accesses and local join evaluation instead of
        serializing behind them.  A lone certain access gains nothing:
        the plan walk reaches it first anyway."""
        tables: list[str] = []
        self._prefetchable_tables(plan, tables)
        if len(tables) < 2:
            return
        tracer = self.context.tracer
        for table in tables:
            key = table.lower()
            if key in self._prefetched:
                # The same table twice in one plan (a Theorem-3 shape):
                # only the first access is prefetched; the second re-
                # rewrites against the then-current store like any other.
                continue
            span = (
                tracer.detached_span("table_fetch", table=table, source="access")
                if tracer.enabled
                else None
            )
            with tracer.within(span):
                access = self._issue_access(
                    table,
                    list(self._query.constraints_for(table)),
                    prefetch=True,
                )
            access.span = span
            self._prefetched[key] = access

    def _drain_prefetch(self) -> None:
        """Settle prefetched accesses the plan walk never consumed.

        Never cancels after billing: every completed purchase is recorded
        into the store (and the durability log) under the table lock, and
        every led singleflight is released so no waiter hangs on a query
        that died.  The dollars spent on unconsumed accesses are counted in
        ``prefetch_wasted_dollars`` — zero for every successfully
        completed query, which the test suite asserts.
        """
        if not self._prefetched:
            return
        accesses = list(self._prefetched.values())
        self._prefetched = {}
        store = self.context.store
        ledger = self.context.market.ledger
        metrics = self.context.metrics
        for access in accesses:
            try:
                outcomes = self._collect_calls(access.batch, None)
            except BaseException:
                # A call raised instead of producing an outcome (a
                # market rejection or simulated crash).  The query is
                # already failing with its own error; as on the access
                # path, the batch is not recorded.
                continue
            with store.table(access.table).lock:
                self._record(
                    access.table,
                    access.rewrite.remainder,
                    outcomes,
                    access.batch.lead_flights,
                )
            billed = ledger.entries_for_token(access.token, access.checkpoint)
            spent = sum(
                e.price for e in billed if not ledger.is_wasted(e)
            )
            if spent:
                metrics.counter("prefetch_wasted_dollars").inc(spent)

    # --------------------------------------------- adaptive re-optimization

    @staticmethod
    def _linearize(node: PlanNode) -> tuple[PlanNode, list[JoinNode]]:
        """Split a left-deep plan into (deepest leaf, join steps in order).

        Each step is a :class:`JoinNode` whose right child is the market
        access it adds; walking stops at the first node that is not such
        a step (the Theorem-2 block, a lone market access, a
        :class:`MaterializedNode` prefix, or a Theorem-3 composition).
        """
        steps: list[JoinNode] = []
        while isinstance(node, JoinNode) and isinstance(
            node.right, MarketAccessNode
        ):
            steps.append(node)
            node = node.left
        steps.reverse()
        return node, steps

    def _adaptive_fetch(self, node: PlanNode) -> _Fetched:
        """The checkpointed pipeline: after each join step, compare the
        prefix's actual cardinality against the plan's estimate and
        re-plan the remaining steps when the policy trips.

        With a policy that never trips this performs exactly the work of
        :meth:`_fetch` — same accesses, same order, same store and
        histogram feedback — plus one float comparison per step.
        """
        if not isinstance(node, JoinNode):
            return self._fetch(node)
        if not isinstance(node.right, MarketAccessNode):
            # Theorem-3 composition: the sides are join-disconnected, so
            # each adapts independently; the composition buys nothing.
            left = self._adaptive_fetch(node.left)
            right = self._adaptive_fetch(node.right)
            combined = _Fetched(left.components + right.components, self._ops)
            if node.predicates:
                combined = combined.apply_joins(node.predicates)
            return combined
        leaf, steps = self._linearize(node)
        if isinstance(leaf, JoinNode):
            current = self._adaptive_fetch(leaf)
        else:
            current = self._fetch(leaf)
        executed = set(leaf.relations)
        estimate = max(leaf.estimated_rows, 0.0)
        adaptive = self.adaptive
        while steps:
            actual = self._actual_rows(current)
            if self._replans < adaptive.max_replans and adaptive.diverged(
                estimate, actual
            ):
                new_steps = self._replan(
                    current, executed, actual, tuple(steps)
                )
                if new_steps is not None:
                    steps = new_steps
                    # The re-planned suffix was costed against the actual
                    # prefix cardinality: the estimate is now the truth,
                    # so the very next check cannot re-trip on it.
                    estimate = actual
                    if not steps:
                        break
            step = steps.pop(0)
            if isinstance(step.right, MarketAccessNode) and step.bind:
                right_components = [
                    self._fetch_bound(step.right, step.predicates, current)
                ]
            else:
                right_components = self._fetch(step.right).components
            current = _Fetched(
                current.components + right_components, self._ops
            )
            if step.predicates:
                current = current.apply_joins(step.predicates)
            executed |= set(step.right.relations)
            estimate = max(step.estimated_rows, 0.0)
        return current

    @staticmethod
    def _actual_rows(fetched: _Fetched) -> float:
        """Exact cardinality of the materialized prefix (the Cartesian
        product size of its unreferenced sibling components)."""
        actual = 1.0
        for component in fetched.components:
            # len(relation), not len(relation.rows): the row-tuple view
            # is materialized lazily and this check runs on every step.
            actual *= len(component)
        return actual

    def _replan(
        self,
        current: _Fetched,
        executed: set[str],
        actual: float,
        old_steps: tuple[JoinNode, ...],
    ) -> list[JoinNode] | None:
        """Re-plan the not-yet-executed joins; None keeps the old plan."""
        self._replans += 1
        tracer = self.context.tracer
        if not tracer.enabled:
            return self._replan_inner(current, executed, actual, old_steps, None)
        with tracer.span("replan", tables=sorted(executed)) as span:
            return self._replan_inner(
                current, executed, actual, old_steps, span
            )

    def _replan_inner(
        self,
        current: _Fetched,
        executed: set[str],
        actual: float,
        old_steps: tuple[JoinNode, ...],
        span,
    ) -> list[JoinNode] | None:
        overlay = self._build_overlay(current, executed)
        prefix = MaterializedNode(
            relations=frozenset(executed),
            cost=0.0,
            estimated_rows=float(actual),
            tables=tuple(sorted(executed)),
        )
        optimizer = Optimizer(self.context, self.optimizer_options)
        started = time.perf_counter()
        suffix = optimizer.optimize_suffix(
            self._query, prefix, overlay=overlay, old_steps=old_steps
        )
        planning_us = (time.perf_counter() - started) * 1e6
        metrics = self.context.metrics
        metrics.counter("plan_replans").inc()
        metrics.histogram("replan_planning_us").observe(planning_us)
        adopted = False
        new_steps: list[JoinNode] | None = None
        saved = 0.0
        if suffix is not None:
            leaf, steps = self._linearize(suffix.plan)
            # Only a plain resumable chain over THIS prefix is adoptable;
            # anything else (e.g. a Theorem-3 shape that would replay the
            # prefix) keeps the original plan.
            if leaf is prefix:
                saved = max(suffix.old_cost - suffix.cost, 0.0)
                self._replan_saved += saved
                new_steps = steps
                adopted = True
        if span is not None:
            span.set(
                actual_rows=actual,
                replan_seq=self._replans,
                planning_us=planning_us,
                adopted=adopted,
                old_suffix_cost=(
                    suffix.old_cost if suffix is not None else None
                ),
                new_suffix_cost=(suffix.cost if suffix is not None else None),
                dollars_saved_est=saved,
            )
        return new_steps

    def _build_overlay(
        self, current: _Fetched, executed: set[str]
    ) -> CardinalityOverlay:
        """Layer the prefix's observed truths over the shared estimates.

        Strictly query-private (see :mod:`repro.stats.overlay`): region
        row counts come from this query's own staged rows, distinct
        counts from the materialized intermediate, and nothing touches
        the shared catalog.
        """
        overlay = CardinalityOverlay()
        for table in executed:
            if self.context.is_market(table):
                overlay.set_region_rows(
                    table, len(self._staged.get(table.lower(), []))
                )
        remaining = {
            t.lower() for t in self._query.tables
        } - {t.lower() for t in executed}
        for join in self._query.joins:
            left_t, right_t = (t.lower() for t in join.tables())
            if left_t in executed and right_t in remaining:
                ref = join.left
            elif right_t in executed and left_t in remaining:
                ref = join.right
            else:
                continue
            try:
                values = current.distinct_values(ref)
            except ExecutionError:
                continue
            overlay.set_distinct(ref.table, ref.column, len(values))
        return overlay

    def _fetch_block(self, node: LocalBlockNode) -> _Fetched:
        """Evaluate the zero-price block on local + covered market data."""
        block_db = Database()
        for table_name in node.tables:
            if self.context.is_market(table_name):
                relation = self._fetch_market(table_name, (), source="covered")
                schema = self.context.schema_of(table_name)
                staged = Table(table_name, schema)
                staged.extend(relation.rows)
                block_db.add(staged)
            else:
                block_db.add(self.context.local_db.table(table_name))
        block_tables = {t.lower() for t in node.tables}
        sub_query = LogicalQuery(
            tables=list(node.tables),
            constraints={
                t: cs
                for t, cs in self._query.constraints.items()
                if t.lower() in block_tables
            },
            residuals={
                t: rs
                for t, rs in self._query.residuals.items()
                if t.lower() in block_tables
            },
            joins=[
                j
                for j in self._query.joins
                if j.tables()[0].lower() in block_tables
                and j.tables()[1].lower() in block_tables
            ],
        )
        return _Fetched([evaluate(block_db, sub_query, self.execution)], self._ops)

    def _fetch_bound(
        self,
        node: MarketAccessNode,
        predicates: tuple,
        left: _Fetched,
    ) -> Relation:
        """Fetch the right side of a bind join with actual binding values."""
        extra: list[AttributeConstraint] = []
        for predicate in predicates:
            inner = predicate.side_for(node.table)
            outer = predicate.other_side(node.table)
            values = left.distinct_values(outer)
            if not values:
                # Still one (zero-width) fetch span per MarketAccessNode:
                # EXPLAIN ANALYZE and the trace invariants rely on it.
                tracer = self.context.tracer
                if tracer.enabled:
                    tracer.event(
                        "table_fetch",
                        table=node.table,
                        source="bound",
                        empty_bindings=True,
                        calls=0,
                        purchased_rows=0,
                        cache_served_rows=0,
                        transactions=0,
                        price=0.0,
                    )
                return self._empty_relation(node.table)
            extra.append(
                AttributeConstraint(inner.column, values=frozenset(values))
            )
        return self._fetch_market(node.table, tuple(extra), source="bound")

    def _fetch_market(
        self,
        table: str,
        extra_constraints: tuple[AttributeConstraint, ...],
        source: str = "access",
    ) -> Relation:
        """Rewrite, buy the remainder, record feedback, return region rows."""
        access = None
        if source == "access" and not extra_constraints and self._prefetched:
            access = self._prefetched.pop(table.lower(), None)
        tracer = self.context.tracer
        if not tracer.enabled:
            return self._fetch_market_inner(
                table, extra_constraints, None, access
            )
        if access is not None:
            with tracer.attach(access.span) as span:
                return self._fetch_market_inner(
                    table, extra_constraints, span, access
                )
        with tracer.span("table_fetch", table=table, source=source) as span:
            return self._fetch_market_inner(
                table, extra_constraints, span, None
            )

    def _issue_access(
        self, table: str, constraints: list, prefetch: bool = False
    ) -> _Access:
        """Rewrite one access against the store *now* and issue its
        remainder calls under a fresh ledger attribution token."""
        table_store = self.context.store.table(table)
        # Rewrite under the table lock: the rewrite decides what money to
        # spend, so it must reflect the store *now*, and under concurrent
        # serving other sessions record into this table at any moment.
        # Holding the lock pins the epoch across rewrite + check, so the
        # staleness guard below can only trip if a stale-caching bug is
        # reintroduced somewhere upstream (the rewriter memo keys on the
        # epoch).
        with table_store.lock:
            rewrite = self.context.rewriter.rewrite(
                table,
                constraints,
                self.context.tuples_per_transaction(table),
            )
            current_epoch = table_store.epoch
            if rewrite.store_epoch != current_epoch:
                raise ExecutionError(
                    f"stale rewrite for {table!r}: computed at store "
                    f"epoch {rewrite.store_epoch}, executing at "
                    f"{current_epoch}"
                )
        dataset = self.context.dataset_of(table)
        self._access_seq += 1
        token = f"{self._query_token}:a{self._access_seq}"
        checkpoint = self.context.market.ledger.checkpoint()
        batch = self._submit_calls(
            dataset, table, rewrite.remainder, token, prefetch
        )
        return _Access(table, rewrite, token, checkpoint, batch)

    def _fetch_market_inner(
        self,
        table: str,
        extra_constraints: tuple[AttributeConstraint, ...],
        span,
        access: _Access | None,
    ) -> Relation:
        constraints = list(self._query.constraints_for(table)) + list(
            extra_constraints
        )
        store = self.context.store
        table_store = store.table(table)
        ledger = self.context.market.ledger
        if access is None:
            access = self._issue_access(table, constraints)
        else:
            # The access was prefetched at query start: its calls have
            # been in flight while earlier accesses (and their joins)
            # executed.  Everything from here on is identical.
            self._prefetch_hits += 1
            self.context.metrics.counter("prefetch_hits").inc()
        rewrite = access.rewrite
        outcomes = self._collect_calls(access.batch, span)
        # The whole section holds the table lock: recording, retiring led
        # flights, and assembling the result rows are one atomic
        # switch-over from any other session's view.
        with table_store.lock:
            failed, purchased_rows = self._record(
                table, rewrite.remainder, outcomes, access.batch.lead_flights
            )
            columns, row_count = store.columns_in_boxes(
                table, rewrite.request_boxes
            )
        # Token-grounded attribution: exactly the entries this access
        # billed, no matter how other sessions' entries interleave (the
        # checkpoint merely bounds the scan).  Per-span totals therefore
        # still sum exactly to the query's QueryStats.
        entries = ledger.entries_for_token(access.token, access.checkpoint)
        billed_transactions = sum(e.transactions for e in entries)
        billed_price = sum(e.price for e in entries)
        wasted_transactions = sum(
            e.transactions for e in entries if ledger.is_wasted(e)
        )
        wasted_price = sum(
            e.price for e in entries if ledger.is_wasted(e)
        )
        self._billed_calls += len(entries)
        self._billed_records += sum(e.record_count for e in entries)
        self._spent_transactions += billed_transactions - wasted_transactions
        self._spent_price += billed_price - wasted_price
        if span is not None:
            span.set(
                calls=len(outcomes),
                failed_calls=len(failed),
                retries=sum(
                    max(0, getattr(o.error, "attempts", 0) - 1)
                    if isinstance(o, FailedFetch)
                    else 0
                    if isinstance(o, CoveredSkip)
                    else o.retries
                    for o in outcomes
                ),
                replays=sum(
                    1
                    for o in outcomes
                    if isinstance(o, FetchResult) and o.replayed
                ),
                purchased_rows=purchased_rows,
                transactions=billed_transactions - wasted_transactions,
                price=billed_price - wasted_price,
                billed_transactions=billed_transactions,
                billed_price=billed_price,
                wasted_transactions=wasted_transactions,
                wasted_price=wasted_price,
                estimated_transactions=rewrite.estimated_transactions,
                fully_covered=rewrite.fully_covered,
            )
        if failed:
            if not self.context.transport.config.partial_results:
                raise MarketUnavailableError(
                    f"{len(failed)} of {len(outcomes)} market calls for "
                    f"{table!r} failed: "
                    + "; ".join(str(f.error) for f in failed[:3]),
                    failed=tuple(failed),
                )
            self._failed_fetches.extend(failed)
        if span is not None:
            span.set(cache_served_rows=max(0, row_count - purchased_rows))
        relation = Relation.from_columns(
            RowLayout.for_table(table, self.context.schema_of(table).names),
            columns,
            row_count,
        )
        predicates = [c.to_expression(table) for c in constraints]
        predicates.extend(self._query.residuals_for(table))
        if predicates:
            relation = self._ops.filter_rows(relation, conjunction(predicates))
        staged = self._staged.setdefault(table.lower(), [])
        seen = set(staged)
        for row in relation.rows:
            if row not in seen:
                seen.add(row)
                staged.append(row)
        return relation

    def _record(
        self, table, remainders, outcomes, lead_flights
    ) -> tuple[list[FailedFetch], int]:
        """Record one access's completed purchases; the caller holds the
        table's lock.  Returns the failed fetches and the rows purchased.

        Records serially in remainder order: store coverage, histogram
        feedback, and billing totals end up identical to serial fetch.
        Only *completed* fetches are recorded — a failed box must never
        enter the coverage index, or a future query would silently skip
        buying data it does not have (the store-poisoning hazard).
        Coalesced results record too (store dedup and the identical
        histogram observation make it idempotent against the leader's
        own record) — a waiter must never read the store before its
        shared rows are in it.
        """
        store = self.context.store
        statistics = self.context.catalog.statistics(table)
        durability = self.context.durability
        failed: list[FailedFetch] = []
        purchased_rows = 0
        purchases_logged = False
        for remainder, outcome in zip(remainders, outcomes):
            if isinstance(outcome, FailedFetch):
                failed.append(outcome)
                continue
            if isinstance(outcome, CoveredSkip):
                continue
            response = outcome.response
            purchased_rows += response.record_count
            store.record(table, remainder.box, response.rows)
            statistics.histogram.observe(remainder.box, response.record_count)
            if durability is not None:
                durability.log_purchase(
                    table=table,
                    box=remainder.box,
                    rows=response.rows,
                    count=response.record_count,
                    stored_at=store.clock,
                    url=response.request.url(),
                    key=outcome.idempotency_key,
                    transactions=outcome.billed_transactions,
                    price=outcome.billed_price,
                    coalesced=outcome.coalesced,
                    saved_transactions=outcome.saved_transactions,
                    saved_price=outcome.saved_price,
                )
                purchases_logged = True
        if purchases_logged:
            # Group commit inside the record→release window: once any
            # other session can see these rows (or a waiter is released),
            # the purchases that produced them are durable.  Fully-covered
            # accesses skip it — they appended nothing, and bookkeeping
            # records ride the next money commit.
            durability.commit()
        coalescer = self.context.coalescer
        if coalescer is not None:
            for flight in lead_flights:
                coalescer.release(flight)
        return failed, purchased_rows

    def _submit_calls(
        self, dataset, table, remainders, access_token, prefetch=False
    ) -> _CallBatch:
        """Issue one access's remainder GETs through the transport.

        Remainder boxes are disjoint and the market is read-only, so the
        calls commute.  They run on the executor's fetch pool when
        ``max_concurrent_calls`` allows it and there is something to
        overlap — more than one call, a prefetch (whose point is to run
        behind the plan walk), or calls already on the pool, which then
        bounds every call of the query; otherwise inline on the calling
        thread, which keeps ``max_concurrent_calls=1`` exactly serial.
        :meth:`_collect_calls` waits for the batch.
        """
        requests = [
            RestRequest(dataset, table, remainder.constraints)
            for remainder in remainders
        ]
        if requests:
            self.context.metrics.histogram("fetch_batch_size").observe(
                len(requests)
            )
        batch = _CallBatch(ready_ms=self._critical_path_ms)
        calls = [
            (batch, table, remainder.box, request, access_token)
            for remainder, request in zip(remainders, requests)
        ]
        limit = self.max_concurrent_calls
        pool = self._call_pool
        if limit > 1 and (prefetch or len(calls) > 1 or pool is not None):
            if pool is None:
                pool = self._call_pool = self.context.borrow_fetch_pool(limit)
            batch.calls = [pool.submit(self._issue_call, *call) for call in calls]
            self._pool_calls.extend(batch.calls)
        else:
            batch.calls = [self._issue_call(*call) for call in calls]
        return batch

    def _collect_calls(self, batch: _CallBatch, parent_span) -> list:
        """Wait for one batch and account for it; outcomes in request order.

        Each outcome is a :class:`~repro.market.transport.FetchResult`, a
        :class:`FailedFetch`, or a :class:`CoveredSkip` — per-call
        transport failures are captured rather than raised so sibling
        successes can still be recorded (the money was spent; keeping the
        data saves a future re-purchase).  Anything else a call raised
        (a market rejection, a simulated crash) is re-raised here, the
        way ``ThreadPoolExecutor.map`` does.

        Tracing under concurrency is race-free by construction: worker
        threads only create *detached* ``market_call`` spans (private
        objects, no shared trace state — see :mod:`repro.obs.trace`); they
        are adopted into ``parent_span`` here, in request order, so
        per-fetch timing and attempt counts are recorded identically
        regardless of thread scheduling.
        """
        futures = [call for call in batch.calls if isinstance(call, Future)]
        try:
            # One wake-up for the whole batch rather than one per call.
            wait(futures, return_when=FIRST_EXCEPTION)
            results = [
                call.result() if isinstance(call, Future) else call
                for call in batch.calls
            ]
        except BaseException:
            # The query fails here: calls of the batch still queued are
            # never started (nothing they would buy gets used).
            for call in futures:
                call.cancel()
            raise
        outcomes = [outcome for outcome, _ in results]
        if parent_span is not None:
            for _, call_span in results:
                if call_span is not None:
                    parent_span.adopt(call_span)
        durations = [
            outcome.error.elapsed_ms
            if isinstance(outcome, FailedFetch)
            else 0.0
            if isinstance(outcome, CoveredSkip)
            else outcome.elapsed_ms
            for outcome in outcomes
        ]
        self._serial_ms += sum(durations)
        # The walk waits for each batch it issues, so batches issued by
        # the walk run one after another; prefetched ones overlap them.
        self._critical_path_ms = max(
            self._critical_path_ms,
            batch.ready_ms + _makespan(durations, self.max_concurrent_calls),
        )
        return outcomes

    def _issue_call(
        self, batch: _CallBatch, table, box, request: RestRequest, access_token
    ):
        """One remainder call, on a pool worker or inline; returns
        ``(outcome, detached call span or None)``."""
        context = self.context
        with self._in_flight_lock:
            self._in_flight += 1
            self._high_water.set_max(self._in_flight)
        tracer = context.tracer
        call_span = (
            tracer.detached_span("market_call", url=request.url())
            if tracer.enabled
            else None
        )
        try:
            try:
                if context.coalescer is None:
                    outcome = self._fetch_once(request, access_token)
                else:
                    outcome = self._coalesced_fetch(
                        table, box, request, access_token, batch
                    )
            except TransportError as error:
                outcome = FailedFetch(table=table, request=request, error=error)
        finally:
            with self._in_flight_lock:
                self._in_flight -= 1
        if call_span is not None:
            self._finish_call_span(call_span, outcome)
        return outcome, call_span

    def _fetch_once(self, request: RestRequest, access_token: str):
        # The attribution token is thread-local, so it must be entered on
        # the thread actually billing the call.
        with self.context.market.ledger.attribute(access_token):
            return self.context.transport.fetch(request, self._scope)

    def _coalesced_fetch(
        self,
        table,
        box,
        request: RestRequest,
        access_token: str,
        batch: _CallBatch,
    ):
        """One remainder call through the singleflight layer.

        The loop re-establishes, on every iteration, the serving
        invariant: under the table lock, either the box is covered (free),
        or a flight exists to join (free), or we lead a new flight (we
        pay).  A failed leader's waiters come back through here — the
        flight was deregistered before they woke, so one of them leads a
        fresh attempt with its own transport retry budget; each query
        fails at most once as leader per key, so the loop terminates.
        """
        context = self.context
        coalescer = context.coalescer
        scope = self._scope
        metrics = context.metrics
        ledger = context.market.ledger
        store = context.store
        table_store = store.table(table)
        key = request.url()
        while True:
            with table_store.lock:
                if table_store.is_covered(box, store.policy, store.clock):
                    scope.note_covered_skip()
                    return CoveredSkip(request=request)
                flight, leader = coalescer.begin(key)
            if leader:
                try:
                    result = self._fetch_once(request, access_token)
                except BaseException as error:
                    # Deregister BEFORE waiters wake: no waiter may ever be
                    # served rows from a fetch the market did not bill.
                    coalescer.abort(flight, error)
                    raise
                coalescer.complete(flight, result)
                with batch.lead_lock:
                    batch.lead_flights.append(flight)
                return result
            waited = time.perf_counter()
            flight.wait()
            wait_ms = (time.perf_counter() - waited) * 1000.0
            if flight.failed:
                continue
            shared = flight.result
            response = shared.response
            scope.note_coalesced(response.transactions, response.price, wait_ms)
            ledger.note_coalesced_savings(response.transactions, response.price)
            metrics.counter("fetch_coalesced").inc()
            metrics.histogram("fetch_coalesce_wait_us").observe(
                wait_ms * 1000.0
            )
            metrics.counter("dollars_saved_coalescing").inc(response.price)
            return FetchResult(
                response=response,
                attempts=1,
                elapsed_ms=shared.elapsed_ms,
                coalesced=True,
                saved_transactions=response.transactions,
                saved_price=response.price,
            )

    def _finish_call_span(self, span, outcome) -> None:
        """Stamp one detached ``market_call`` span from its outcome.

        ``transactions``/``price`` are what the call actually *spent*
        (billed minus wasted) so call spans sum to the query's stats;
        billed/wasted are kept separately for dollar attribution.
        """
        if isinstance(outcome, FailedFetch):
            error = outcome.error
            attempts = getattr(error, "attempts", 0)
            span.set(
                failed=True,
                error=str(error),
                attempts=attempts,
                retries=max(0, attempts - 1),
                replayed=False,
                rows=0,
                transactions=error.billed_transactions
                - error.wasted_transactions,
                price=error.billed_price - error.wasted_price,
                billed_transactions=error.billed_transactions,
                billed_price=error.billed_price,
                wasted_transactions=error.wasted_transactions,
                wasted_price=error.wasted_price,
                elapsed_ms=error.elapsed_ms,
            )
        elif isinstance(outcome, CoveredSkip):
            span.set(
                failed=False,
                covered_skip=True,
                attempts=0,
                retries=0,
                replayed=False,
                rows=0,
                transactions=0,
                price=0.0,
                billed_transactions=0,
                billed_price=0.0,
                wasted_transactions=0,
                wasted_price=0.0,
                elapsed_ms=0.0,
            )
        else:
            span.set(
                failed=False,
                attempts=outcome.attempts,
                retries=outcome.retries,
                replayed=outcome.replayed,
                rows=outcome.response.record_count,
                transactions=outcome.billed_transactions,
                price=outcome.billed_price,
                billed_transactions=outcome.billed_transactions,
                billed_price=outcome.billed_price,
                wasted_transactions=0,
                wasted_price=0.0,
                elapsed_ms=outcome.elapsed_ms,
            )
            if outcome.coalesced:
                span.set(
                    coalesced=True,
                    saved_transactions=outcome.saved_transactions,
                    saved_price=outcome.saved_price,
                )
        span.finish(self.context.tracer.clock())

    def _empty_relation(self, table: str) -> Relation:
        self._staged.setdefault(table.lower(), [])
        return Relation(
            RowLayout.for_table(table, self.context.schema_of(table).names),
            [],
        )

    # ------------------------------------------------------------------- staging

    def _build_staging(self, query: LogicalQuery) -> Database:
        staging = Database()
        tracer = self.context.tracer
        tracing = tracer.enabled
        for table_name in query.tables:
            if self.context.is_market(table_name):
                schema = self.context.schema_of(table_name)
                staged = Table(table_name, schema)
                staged.extend(self._staged.get(table_name.lower(), []))
                staging.add(staged)
                rows = len(staged)
            else:
                local = self.context.local_db.table(table_name)
                staging.add(local)
                rows = len(local)
            if tracing:
                tracer.event("stage", table=table_name, rows=rows)
        return staging
