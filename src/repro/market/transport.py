"""The money-safe market transport: retries that never double-bill.

Every REST call against the market costs real money, so the transport
between the executor and :class:`~repro.market.server.DataMarket` treats
failure handling as a *billing* problem first and a latency problem second:

* **idempotency keys** — each logical call gets a unique key, reused across
  its retries.  The market bills a key at most once and replays the stored
  response for free afterwards, so a retry after a lost response costs
  nothing (at-most-once billing).  A naive client without keys
  (``idempotency=False``) pays again on every retry — kept as an opt-in
  mode precisely so the chaos suite can demonstrate the difference.
* **exponential backoff with deterministic jitter** — transient faults
  (timeouts, 5xx, 429) are retried with capped exponential waits; a 429's
  ``Retry-After`` is honoured as a floor.  All waits are simulated
  wall-clock, accumulated into the per-call elapsed time the executor
  feeds its makespan accounting — nothing actually sleeps.
* **a per-query retry budget** — one query may not burn unbounded retries;
  exhaustion raises :class:`~repro.errors.MarketUnavailableError`.
* **a per-dataset circuit breaker** — after ``breaker_failure_threshold``
  consecutive failures a dataset's circuit opens and calls fail fast
  (costing nothing) until ``breaker_cooldown_ms`` of simulated time
  passes; then a single half-open probe decides between closing the
  circuit and re-opening it.
* **waste accounting** — when the transport abandons a call whose charge
  went through (a dropped response that never got replayed), it moves the
  charge to the ledger's ``wasted_on_failures`` bucket so the spend series
  the evaluation plots stays honest.
* **pooled connections** — each seller keeps a count of idle connections;
  a call pays ``LatencyModel.connection_setup_ms`` only when none is idle
  and it must open a new one (``connections_opened``), and otherwise
  reuses one for free (``connections_reused``).  Callers bound how many
  calls are in flight — the executor's thread pool — so the pool grows to
  the deepest concurrency seen and never past it.

Fault injection itself lives in :mod:`repro.market.faults`; with no fault
policy attached the transport is a single ``market.get`` per call with no
key attached — measurably free (``benchmarks/bench_fault_overhead.py``)
and bit-compatible with code that monkeypatches ``market.get``.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from repro.durable.wal import SimulatedCrash
from repro.errors import (
    MarketError,
    MarketUnavailableError,
    RetryExhaustedError,
)
from repro.market.faults import FaultKind, FaultPolicy, InjectedFault
from repro.market.rest import RestRequest, RestResponse
from repro.market.server import DataMarket

#: Distinguishes idempotency keys of transports sharing one market.
_TRANSPORT_IDS = itertools.count()


@dataclass(frozen=True)
class TransportConfig:
    """Every knob of the money-safe transport, in one place.

    Accepted by :class:`~repro.core.payless.PayLess` and
    :class:`~repro.core.context.PlanningContext` instead of a growing pile
    of positional keyword arguments.
    """

    #: Fault injection policy; ``None`` runs fault-free.
    faults: FaultPolicy | None = None
    #: Retries allowed per call beyond the first attempt.
    max_retries: int = 4
    backoff_base_ms: float = 50.0
    backoff_multiplier: float = 2.0
    backoff_max_ms: float = 5000.0
    #: Fractional jitter applied to each backoff wait (deterministic,
    #: drawn from the fault policy's seed).
    jitter: float = 0.1
    #: Total retries one query may spend across all its calls
    #: (``None`` = unlimited).
    retry_budget: int | None = 64
    #: Consecutive failures that open a dataset's circuit.
    breaker_failure_threshold: int = 5
    #: Simulated time an open circuit waits before a half-open probe.
    breaker_cooldown_ms: float = 30_000.0
    #: Executor degradation mode: return the rows that did arrive instead
    #: of raising when some regions could not be bought.
    partial_results: bool = False
    #: Attach idempotency keys (at-most-once billing).  Disabling this
    #: reproduces a naive client whose retries double-bill.
    idempotency: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise MarketError("max_retries cannot be negative")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise MarketError("backoff times cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise MarketError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise MarketError("jitter must be in [0, 1]")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise MarketError("retry_budget cannot be negative")
        if self.breaker_failure_threshold < 1:
            raise MarketError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_ms < 0:
            raise MarketError("breaker_cooldown_ms cannot be negative")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-dataset fail-fast guard (classic closed/open/half-open).

    Thread-safe; driven entirely by the transport's *simulated* clock, so
    tests can walk it through its transitions deterministically.
    """

    def __init__(
        self,
        failure_threshold: int,
        cooldown_ms: float,
        on_transition=None,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_ms = 0.0
        self._probe_in_flight = False
        self._lock = threading.Lock()
        #: Optional ``callback(old_state, new_state)`` fired on every state
        #: change (the transport wires it to the metrics registry).
        self._on_transition = on_transition

    @property
    def state(self) -> BreakerState:
        return self._state

    def _set_state(self, new_state: BreakerState) -> None:
        old_state = self._state
        if old_state is new_state:
            return
        self._state = new_state
        if self._on_transition is not None:
            self._on_transition(old_state, new_state)

    def allow(self, now_ms: float) -> bool:
        """Whether a call may proceed at simulated time ``now_ms``."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if now_ms - self._opened_at_ms < self.cooldown_ms:
                    return False
                self._set_state(BreakerState.HALF_OPEN)
                self._probe_in_flight = True
                return True
            # HALF_OPEN: exactly one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def on_success(self) -> None:
        with self._lock:
            self._set_state(BreakerState.CLOSED)
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def on_failure(self, now_ms: float) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                self._set_state(BreakerState.OPEN)
                self._opened_at_ms = now_ms
                self._probe_in_flight = False


class QueryScope:
    """Per-query transport accounting: retries, faults, waste.

    One scope is created per executed query; the executor folds its
    counters into the query's :class:`~repro.core.payless.QueryStats`.
    Thread-safe — parallel remainder calls share one scope.
    """

    def __init__(self, retry_budget: int | None):
        self.retry_budget = retry_budget
        self.retries = 0
        self.faults_injected = 0
        self.replays = 0
        self.failed_calls = 0
        self.wasted_transactions = 0
        self.wasted_price = 0.0
        self.backoff_ms = 0.0
        #: Singleflight accounting (see :mod:`repro.serve.singleflight`):
        #: fetches this query rode for free on another session's in-flight
        #: call, what they would have billed, and the real time waited.
        self.coalesced_fetches = 0
        self.coalesced_savings_transactions = 0
        self.coalesced_savings_price = 0.0
        self.coalesce_wait_ms = 0.0
        #: Remainder boxes found already covered at issue time (another
        #: session recorded them between our rewrite and our fetch).
        self.covered_skips = 0
        self._lock = threading.Lock()

    def consume_retry(self) -> bool:
        """Claim one retry from the query's budget; False when exhausted."""
        with self._lock:
            if (
                self.retry_budget is not None
                and self.retries >= self.retry_budget
            ):
                return False
            self.retries += 1
            return True

    def note_fault(self) -> None:
        with self._lock:
            self.faults_injected += 1

    def note_replay(self) -> None:
        with self._lock:
            self.replays += 1

    def note_failed_call(self) -> None:
        with self._lock:
            self.failed_calls += 1

    def note_backoff(self, wait_ms: float) -> None:
        with self._lock:
            self.backoff_ms += wait_ms

    def note_waste(self, transactions: int, price: float) -> None:
        with self._lock:
            self.wasted_transactions += transactions
            self.wasted_price += price

    def note_coalesced(
        self, transactions: int, price: float, wait_ms: float
    ) -> None:
        with self._lock:
            self.coalesced_fetches += 1
            self.coalesced_savings_transactions += transactions
            self.coalesced_savings_price += price
            self.coalesce_wait_ms += wait_ms

    def note_covered_skip(self) -> None:
        with self._lock:
            self.covered_skips += 1


@dataclass(frozen=True)
class FetchResult:
    """One logical call's outcome: the response plus what getting it took."""

    response: RestResponse
    #: Attempts made (1 = first try succeeded).
    attempts: int
    #: Client-side simulated wall-clock: latencies of every attempt plus
    #: all backoff waits.  The executor's makespan accounting uses this,
    #: not the server-side ``response.elapsed_ms``.
    elapsed_ms: float
    #: Whether the delivered response came from an idempotency replay
    #: (i.e. an earlier attempt was billed and this retry was free).
    replayed: bool = False
    #: Everything this logical call caused the market to bill, across all
    #: its attempts and duplicate deliveries.  With idempotency keys this
    #: equals the response's own billing; a naive client's retries can
    #: bill more.  Traces attribute every ledger dollar through these.
    billed_transactions: int = 0
    billed_price: float = 0.0
    #: True when this result was shared from another session's in-flight
    #: fetch of the same key (singleflight): nothing was billed to this
    #: caller, and ``saved_*`` record the avoided bill.
    coalesced: bool = False
    saved_transactions: int = 0
    saved_price: float = 0.0
    #: The idempotency key this call billed under (``None`` without keys).
    #: With a durability backend attached, this is the WAL intent key the
    #: executor's purchase record resolves.
    idempotency_key: str | None = None

    @property
    def retries(self) -> int:
        return self.attempts - 1


class MarketTransport:
    """Issues market calls with retries, at-most-once billing, breakers.

    One transport lives on the :class:`~repro.core.context.PlanningContext`
    for the installation's lifetime (circuit breakers must remember
    failures across queries); per-query budgets live in the
    :class:`QueryScope` the executor opens per query.

    ``faults`` is deliberately a plain mutable attribute: chaos tests (and
    operators of long-lived simulations) flip injection on and off without
    rebuilding the installation.
    """

    def __init__(
        self,
        market: DataMarket,
        config: TransportConfig | None = None,
        metrics=None,
    ):
        self.market = market
        self.config = config or TransportConfig()
        self.faults: FaultPolicy | None = self.config.faults
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        #: circuit-breaker state changes and connection opens/reuses are
        #: counted into it.
        self.metrics = metrics
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        #: Simulated monotonic clock (ms) advanced by call latencies and
        #: backoff waits; drives circuit-breaker cooldowns.  Fail-fast
        #: refusals add nothing, so tests walking a breaker through
        #: half-open advance the clock explicitly via :meth:`advance_clock`.
        self._clock_ms = 0.0
        self._clock_lock = threading.Lock()
        #: Per-URL logical-call sequence numbers.  Keys derived from them
        #: are deterministic per logical call regardless of thread
        #: scheduling (remainder URLs within one parallel batch are
        #: distinct), which is what makes chaos runs replayable.
        self._url_sequence: dict[str, int] = {}
        self._sequence_lock = threading.Lock()
        self._transport_id = next(_TRANSPORT_IDS)
        #: Optional :class:`~repro.durable.backend.DurableStateBackend`.
        #: When set, every billable call journals a durable intent first
        #: and uses the intent's idempotency key, so a crash between
        #: billing and acknowledgment is recoverable (wired by PayLess).
        self.durability = None
        #: Idle pooled connections per seller (``dataset.lower()``), one
        #: list item each; see :meth:`_call`.
        self._idle_connections: defaultdict[str, list] = defaultdict(list)

    # -- clock & breakers ------------------------------------------------------

    def now_ms(self) -> float:
        with self._clock_lock:
            return self._clock_ms

    def advance_clock(self, ms: float) -> None:
        """Advance simulated time (negative advances are rejected)."""
        if ms < 0:
            raise MarketError("the transport clock only moves forward")
        with self._clock_lock:
            self._clock_ms += ms

    def breaker_for(self, dataset: str) -> CircuitBreaker:
        key = dataset.lower()
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.config.breaker_failure_threshold,
                    self.config.breaker_cooldown_ms,
                    on_transition=self._note_breaker_transition,
                )
                self._breakers[key] = breaker
            return breaker

    def _note_breaker_transition(
        self, old_state: BreakerState, new_state: BreakerState
    ) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.counter("breaker_transitions").inc()
        if new_state is BreakerState.OPEN:
            metrics.counter("breaker_opens").inc()

    def new_scope(self) -> QueryScope:
        return QueryScope(self.config.retry_budget)

    # -- the call path ---------------------------------------------------------

    def _call_key(self, request: RestRequest) -> str:
        url = request.url()
        with self._sequence_lock:
            sequence = self._url_sequence.get(url, 0)
            self._url_sequence[url] = sequence + 1
        return f"{url}#{sequence}"

    def _backoff_ms(
        self, call_key: str, attempt: int, fault: InjectedFault
    ) -> float:
        config = self.config
        wait = min(
            config.backoff_base_ms
            * config.backoff_multiplier ** (attempt - 1),
            config.backoff_max_ms,
        )
        if self.faults is not None and config.jitter:
            wait *= 1.0 + config.jitter * self.faults.jitter(call_key, attempt)
        if fault.retry_after_ms:
            wait = max(wait, fault.retry_after_ms)
        return wait

    def fetch(
        self, request: RestRequest, scope: QueryScope | None = None
    ) -> FetchResult:
        """Issue one logical call, retrying transient faults money-safely.

        The one driver of :meth:`_fetch_machine`: each physical call the
        machine asks for runs on a pooled connection (:meth:`_call`) and
        its reply — or whatever it raised — is fed back in.

        Raises :class:`~repro.errors.RetryExhaustedError` when the call
        kept failing, :class:`~repro.errors.MarketUnavailableError` when
        the dataset's circuit is open or the query's retry budget ran out.
        Real :class:`~repro.errors.MarketError` rejections (bad binding,
        unknown table) propagate immediately — retrying them wastes money.
        """
        if scope is None:
            scope = self.new_scope()
        if self.faults is None and self.durability is None:
            # Fast path: no injection, one attempt, no key — the machine's
            # first branch inlined, which keeps the fault-free overhead
            # near zero.  The simulated clock is not advanced: it exists
            # only to time breaker cooldowns, and breakers never trip
            # without faults.
            response, connect_ms = self._call(request, None)
            return FetchResult(
                response=response,
                attempts=1,
                elapsed_ms=response.elapsed_ms + connect_ms,
                billed_transactions=response.transactions,
                billed_price=response.price,
            )
        machine = self._fetch_machine(request, scope)
        try:
            key = machine.send(None)
            while True:
                try:
                    reply = self._call(request, key)
                except BaseException as error:
                    key = machine.throw(error)
                else:
                    key = machine.send(reply)
        except StopIteration as stop:
            return stop.value

    def _call(
        self, request: RestRequest, key: str | None
    ) -> tuple[RestResponse, float]:
        """One physical GET over a pooled connection to the request's
        seller; returns the response and the connection-setup latency
        this call paid (``0.0`` when it reused an idle connection).

        The connection is held for the whole call, realtime sleep
        included, exactly as a socket would be, and returned to the idle
        pool afterwards whether the call succeeded or raised.
        """
        # Creating a missing list and ``list.pop``/``append`` are each
        # atomic, so concurrent calls need no lock to share an idle list.
        idle = self._idle_connections[request.dataset.lower()]
        metrics = self.metrics
        try:
            idle.pop()
        except IndexError:
            latency = self.market.latency
            connect_ms = latency.connection_setup_ms
            if metrics is not None:
                metrics.counter("connections_opened").inc()
            if connect_ms and latency.realtime_scale:
                time.sleep(connect_ms * latency.realtime_scale / 1000.0)
        else:
            connect_ms = 0.0
            if metrics is not None:
                metrics.counter("connections_reused").inc()
        try:
            if key is None:
                response = self.market.get(request)
            else:
                response = self.market.get(request, idempotency_key=key)
        finally:
            idle.append(None)
        return response, connect_ms

    def _fetch_machine(self, request: RestRequest, scope: QueryScope):
        """The transport's entire billing/retry logic as a sans-IO generator.

        Yields the idempotency key (or ``None``) each time a physical
        ``market.get`` must happen; :meth:`fetch` performs it and replies
        ``machine.send((response, connect_ms))`` — where ``connect_ms`` is
        the connection-setup latency this particular physical call paid
        (a fresh connection, or ``0.0`` when a pooled one was reused) — or
        ``machine.throw(error)`` with whatever the call raised.  The
        :class:`FetchResult` comes back as the generator's return value
        (``StopIteration.value``).  Keeping IO out of the machine keeps
        retries, idempotency keys, fault draws, waste accounting and
        durable-intent resolution in one place, independent of how the
        physical call is made.
        """
        faults = self.faults
        durability = self.durability
        if faults is None:
            if durability is None:
                response, connect_ms = yield None
                return FetchResult(
                    response=response,
                    attempts=1,
                    elapsed_ms=response.elapsed_ms + connect_ms,
                    billed_transactions=response.transactions,
                    billed_price=response.price,
                )
            key = durability.begin_intent(request)
            try:
                response, connect_ms = yield key
            except SimulatedCrash:
                raise
            except BaseException:
                # The market rejected the call without billing (bad
                # binding, unknown table): resolve the intent so recovery
                # does not buy what this run never did.
                durability.log_abort(key)
                raise
            return FetchResult(
                response=response,
                attempts=1,
                elapsed_ms=response.elapsed_ms + connect_ms,
                billed_transactions=response.transactions,
                billed_price=response.price,
                idempotency_key=key,
            )
        config = self.config
        breaker = self.breaker_for(request.dataset)
        call_key = self._call_key(request)
        if durability is not None:
            # The durable intent key replaces the transport-local key: it
            # must be the same key recovery re-issues under after a crash.
            # Fault outcomes stay keyed by ``call_key``, so chaos runs are
            # deterministic regardless of the key scheme.
            key = durability.begin_intent(request)
        elif config.idempotency:
            key = f"t{self._transport_id}:{call_key}"
        else:
            key = None
        latency = self.market.latency
        attempts = 0
        elapsed_ms = 0.0
        billed: RestResponse | None = None
        #: Everything this logical call has caused the market to bill so
        #: far (all attempts + duplicate deliveries) — the trace layer
        #: attributes every ledger dollar to exactly one call through it.
        billed_transactions = 0
        billed_price = 0.0

        def fail(error: Exception) -> Exception:
            wasted_transactions = 0
            wasted_price = 0.0
            if billed is not None and key is not None:
                self.market.ledger.mark_wasted(key)
                scope.note_waste(billed.transactions, billed.price)
                wasted_transactions = billed.transactions
                wasted_price = billed.price
            scope.note_failed_call()
            if durability is not None and key is not None:
                if billed is not None:
                    # Money left the account but the data never arrived:
                    # resolve the intent into the wasted bucket.
                    durability.log_wasted(
                        key, billed.transactions, billed.price
                    )
                else:
                    # Never billed: resolve the intent so recovery does
                    # not spend money this run never spent.
                    durability.log_abort(key)
            # Simulated wall-clock burned before giving up: the executor's
            # makespan accounting charges failed calls honestly too.
            error.elapsed_ms = elapsed_ms
            # Billing attribution for the fetch span of this failed call.
            error.billed_transactions = billed_transactions
            error.billed_price = billed_price
            error.wasted_transactions = wasted_transactions
            error.wasted_price = wasted_price
            return error

        try:
            while True:
                if not breaker.allow(self.now_ms()):
                    raise fail(
                        MarketUnavailableError(
                            f"circuit open for dataset {request.dataset!r}; "
                            f"{request!r} refused without contacting the "
                            f"market"
                        )
                    )
                attempts += 1
                kind = faults.outcome(call_key, attempts)
                try:
                    if kind in (FaultKind.OK, FaultKind.DROPPED_RESPONSE):
                        # The request reaches the server: it executes and
                        # bills (or replays a previously billed key for
                        # free).
                        replayed = key is not None and billed is not None
                        response, connect_ms = yield key
                        if replayed:
                            scope.note_replay()
                        else:
                            billed_transactions += response.transactions
                            billed_price += response.price
                        attempt_ms = (
                            latency.call_ms(0)
                            if replayed
                            else response.elapsed_ms
                        ) + connect_ms
                        if kind is FaultKind.DROPPED_RESPONSE:
                            if key is not None:
                                billed = billed if replayed else response
                            # The handshake succeeded (the request reached
                            # the server) but the answer never came back:
                            # the client burned setup + its timeout.
                            wait = faults.timeout_ms + connect_ms
                            elapsed_ms += wait
                            self.advance_clock(wait)
                            raise faults.fault_for(kind, call_key)
                        elapsed_ms += attempt_ms
                        self.advance_clock(attempt_ms)
                        if faults.duplicated(call_key, attempts):
                            # The network delivered the request twice.
                            # With a key the second execution replays for
                            # free; the naive client pays all over again.
                            if key is not None:
                                __, dup_connect = yield key
                                scope.note_replay()
                            else:
                                duplicate, dup_connect = yield None
                                billed_transactions += duplicate.transactions
                                billed_price += duplicate.price
                            dup_ms = latency.call_ms(0) + dup_connect
                            elapsed_ms += dup_ms
                            self.advance_clock(dup_ms)
                        breaker.on_success()
                        return FetchResult(
                            response=response,
                            attempts=attempts,
                            elapsed_ms=elapsed_ms,
                            replayed=replayed,
                            billed_transactions=billed_transactions,
                            billed_price=billed_price,
                            idempotency_key=key,
                        )
                    # Pure transport failures: the server never billed.
                    if kind is FaultKind.TIMEOUT:
                        wait = faults.timeout_ms
                    else:  # SERVER_ERROR / THROTTLE answer after one trip
                        wait = latency.call_ms(0)
                    elapsed_ms += wait
                    self.advance_clock(wait)
                    raise faults.fault_for(kind, call_key)
                except InjectedFault as fault:
                    scope.note_fault()
                    breaker.on_failure(self.now_ms())
                    if attempts > config.max_retries:
                        raise fail(
                            RetryExhaustedError(
                                f"{request!r} failed {attempts} attempts "
                                f"(last: {fault})",
                                attempts=attempts,
                                last_fault=fault,
                            )
                        ) from fault
                    if not scope.consume_retry():
                        raise fail(
                            MarketUnavailableError(
                                f"per-query retry budget "
                                f"({scope.retry_budget}) exhausted at "
                                f"{request!r}"
                            )
                        ) from fault
                    backoff = self._backoff_ms(call_key, attempts, fault)
                    scope.note_backoff(backoff)
                    elapsed_ms += backoff
                    self.advance_clock(backoff)
        except SimulatedCrash:
            # A simulated kill never resolves intents — that is the point.
            raise
        except BaseException:
            # Anything ``fail()`` did not already resolve (market
            # rejections escape the loop directly); a no-op when the
            # intent was resolved on the way out.
            if durability is not None and key is not None:
                durability.log_abort(key)
            raise

    def __repr__(self) -> str:
        mode = "faulty" if self.faults is not None else "clean"
        return (
            f"MarketTransport({mode}, max_retries={self.config.max_retries}, "
            f"clock={self.now_ms():g}ms)"
        )
