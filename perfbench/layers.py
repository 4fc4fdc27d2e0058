"""Per-layer spans recorded from outside the program.

The traced run patches the public entry points of each layer (the table
``ENTRY_POINTS``) with wrappers that record one span per call: name,
start, end, parent span and query id.  Nothing under ``src/`` knows about
it.  Two rules decide where a wrapper goes:

* a method is patched on its class;
* a function imported by name is patched in the *importing* module
  (``analyze`` in ``repro.core.payless``, ``evaluate`` in
  ``repro.core.executor``), because that module's global is what the
  caller looks up at call time.

Spans live in memory, one list per thread, and are merged when the run
ends.  A query's market calls may run on the executor's fetch pool, so
``ThreadPoolExecutor.submit`` is patched too: the task carries the
submitting thread's open span and query id, and spans on the pool thread
hang under that span.  A span's self time is its duration minus the union
of its children's intervals (children on pool threads may overlap).
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict, deque

QUERY = "query"
EXECUTOR = "executor.execute"
STAGE = "relational.stage"


def _wal_bytes_before(args):
    return _ORIGINALS["WriteAheadLog.tell"](args[0])


def _wal_bytes_after(args, result, before):
    return _ORIGINALS["WriteAheadLog.tell"](args[0]) - before, 0


def _rows_before(args):
    return len(args[0])


def _rows_after(args, result, before):
    return len(args[0]) - before, 0


def _value(getter):
    """``after`` hook recording ``getter(result)`` as the span's count."""
    return lambda args, result, before: (getter(result), 0)


#: (module, class or None for a module global, attribute, span name,
#:  before hook, after hook).  ``after`` returns the span's two counts.
ENTRY_POINTS = (
    ("repro.core.payless", "PayLess", "query", QUERY, None, None),
    ("repro.core.plancache", "PlanCache", "parse_sql", "sqlparser.parse",
     None, None),
    ("repro.core.payless", None, "analyze", "sqlparser.analyze", None, None),
    ("repro.core.plancache", "PlanCache", "lookup", "plancache.lookup",
     None, _value(lambda entry: int(entry is not None))),
    ("repro.core.optimizer", "Optimizer", "optimize", "optimizer.plan",
     None, _value(lambda planning: planning.evaluated_plans)),
    ("repro.core.rewriter", "SemanticRewriter", "rewrite", "rewriter.rewrite",
     None, _value(lambda rewrite: rewrite.kept_boxes)),
    ("repro.market.server", "DataMarket", "get", "market.get",
     None, lambda args, response, before: (
         response.transactions, response.record_count)),
    ("repro.market.transport", "MarketTransport", "fetch", "transport.fetch",
     None, _value(lambda fetched: fetched.retries)),
    ("repro.semstore.store", "TableStore", "record", "semstore.record",
     None, _value(lambda new_rows: new_rows)),
    ("repro.semstore.store", "TableStore", "columns_in_boxes",
     "semstore.read", None, _value(lambda columns_count: columns_count[1])),
    ("repro.semstore.store", "TableStore", "rows_in_boxes", "semstore.read",
     None, _value(len)),
    ("repro.relational.table", "Table", "extend", STAGE,
     _rows_before, _rows_after),
    ("repro.relational.table", "Table", "append", STAGE,
     _rows_before, _rows_after),
    ("repro.core.executor", None, "evaluate", "relational.eval",
     None, _value(lambda relation: len(relation.rows))),
    ("repro.core.executor", "Executor", "execute", EXECUTOR, None, None),
    ("repro.stats.isomer", "FeedbackHistogram", "observe", "stats.observe",
     None, None),
    ("repro.stats.isomer", "FeedbackHistogram", "estimate", "stats.estimate",
     None, None),
    ("repro.durable.wal", "WriteAheadLog", "append", "durable.wal_append",
     _wal_bytes_before, _wal_bytes_after),
    ("repro.durable.wal", "WriteAheadLog", "commit", "durable.wal_commit",
     None, None),
    ("repro.durable.backend", "DurableStateBackend", "recover",
     "durable.recover", None, _value(lambda report: report.records_replayed)),
    ("repro.serve.singleflight", "Flight", "wait", "serve.coalesce_wait",
     None, None),
)

#: Originals of the entry points, by ``Class.attr`` (or ``module.attr``),
#: so hooks can call an unwrapped ``WriteAheadLog.tell``.
_ORIGINALS: dict = {}


def _owner(module_name, class_name):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _load_originals() -> None:
    if _ORIGINALS:
        return
    for module_name, class_name, attr, *__ in ENTRY_POINTS:
        owner = _owner(module_name, class_name)
        if attr not in vars(owner):
            raise RuntimeError(
                f"{module_name}.{class_name or ''}.{attr} is not defined "
                "where its callers look it up; the trace would miss it"
            )
        _ORIGINALS[f"{class_name or module_name}.{attr}"] = vars(owner)[attr]
    wal = _owner("repro.durable.wal", "WriteAheadLog")
    _ORIGINALS["WriteAheadLog.tell"] = wal.tell


class _ThreadSpans:
    """The spans of one thread and its stack of open ones."""

    __slots__ = ("tid", "spans", "stack", "qid", "link")

    def __init__(self, tid: int):
        self.tid = tid
        #: [name, start, end, parent (tid, index) or None, qid, n, m,
        #:  window]; n and m are the counts the entry point's hook took.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid = None
        #: (tid, index) of the span that submitted this pool task.
        self.link = None


class SpanRecorder:
    """Collects spans from every thread while its patches are installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._qids = itertools.count(1)
        self._patched: list[tuple] = []
        #: Submit times of queries handed to a serve scheduler, keyed by
        #: (sql, params); a serve worker's query entry pops the oldest.
        self._submitted: dict[tuple, deque] = defaultdict(deque)
        self.queue_waits: list[float] = []
        #: Whether spans opened now belong to the timed window.  Set-up
        #: spans (``window`` false) feed only ``durable.recover_ms``.
        self.window = False

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def note_submit(self, sql: str, params: tuple) -> None:
        """A client handed ``sql`` to the scheduler (queue wait starts)."""
        with self._lock:
            self._submitted[(sql, tuple(params))].append(time.perf_counter())

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, before_hook, after_hook):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            spans = state.spans
            if stack and spans[stack[-1]][0] == name:
                # A layer calling itself (Table.extend -> Table.append,
                # columns_in_boxes -> rows_in_boxes) is one span.
                return fn(*args, **kwargs)
            if stack:
                parent = (state.tid, stack[-1])
            else:
                parent = state.link
            span = [name, 0.0, 0.0, parent, state.qid, 0, 0, recorder.window]
            before = before_hook(args) if before_hook else None
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after_hook is not None:
                span[5], span[6] = after_hook(args, result, before)
            return result

        return wrapper

    def _wrap_query(self, fn):
        """``PayLess.query``: the root span, with a fresh query id."""
        recorder = self
        inner = self._wrap(QUERY, fn, None, None)

        @functools.wraps(fn)
        def wrapper(payless, sql, params=(), *args, **kwargs):
            entered = time.perf_counter()
            if threading.current_thread().name.startswith("payless-serve"):
                with recorder._lock:
                    waiting = recorder._submitted.get((sql, tuple(params)))
                    submitted = waiting.popleft() if waiting else None
                if submitted is not None:
                    recorder.queue_waits.append(entered - submitted)
            state = recorder._state()
            outer = state.qid
            state.qid = next(recorder._qids)
            try:
                return inner(payless, sql, params, *args, **kwargs)
            finally:
                state.qid = outer

        return wrapper

    def _wrap_submit(self, fn):
        """Carry the submitting span and query id into pool tasks."""
        recorder = self

        @functools.wraps(fn)
        def submit(pool, task, /, *args, **kwargs):
            state = recorder._state()
            link = (state.tid, state.stack[-1]) if state.stack else state.link
            qid = state.qid

            def linked(*task_args, **task_kwargs):
                worker = recorder._state()
                saved = worker.link, worker.qid
                worker.link, worker.qid = link, qid
                try:
                    return task(*task_args, **task_kwargs)
                finally:
                    worker.link, worker.qid = saved

            return fn(pool, linked, *args, **kwargs)

        return submit

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Patch every entry point (idempotent per recorder)."""
        if self._patched:
            return
        _load_originals()
        for module_name, class_name, attr, name, before, after in ENTRY_POINTS:
            owner = _owner(module_name, class_name)
            original = _ORIGINALS[f"{class_name or module_name}.{attr}"]
            if name == QUERY:
                wrapper = self._wrap_query(original)
            else:
                wrapper = self._wrap(name, original, before, after)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
        pool = concurrent.futures.ThreadPoolExecutor
        original_submit = vars(pool)["submit"]
        setattr(pool, "submit", self._wrap_submit(original_submit))
        self._patched.append((pool, "submit", original_submit))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> list[list]:
        """Every span recorded so far, with (tid, index) identities."""
        with self._lock:
            threads = list(self._threads)
        out = []
        for state in threads:
            for index, span in enumerate(state.spans):
                out.append([(state.tid, index), *span])
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans: list[list]) -> dict:
    """Self time (s) of each span: duration minus its children's union."""
    by_id = {span[0]: span for span in spans}
    children: dict = defaultdict(list)
    for span in spans:
        parent = span[4]
        if parent is not None and parent in by_id:
            host = by_id[parent]
            start = max(span[2], host[2])
            stop = min(span[3], host[3])
            if stop > start:
                children[parent].append((start, stop))
    return {
        span[0]: (span[3] - span[2]) - _union_length(children[span[0]])
        for span in spans
    }


def layer_metrics(
    spans: list[list], queries: int, result_rows: int, setups: int
) -> dict:
    """Per-query layer figures from the spans of the traced window.

    Every ``*_ms`` figure is self time per query, so the layers partition
    the traced query time.  ``durable.recover_ms`` is the one set-up
    figure: ``recover()`` wall milliseconds, replay included, per set-up
    (of ``setups``).
    """
    selfs = self_times(spans)
    busy: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    seconds: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    query_wall = 0.0
    recovers = []
    for span in spans:
        name = span[1]
        if name == "durable.recover":
            recovers.append(span[3] - span[2])
        if not span[8]:
            continue
        busy[name] += selfs[span[0]]
        counts[name] += span[6]
        seconds[name] += span[7]
        calls[name] += 1
        if name == QUERY:
            query_wall += span[3] - span[2]
    per_query = max(queries, 1)

    def ms(name):
        return 1000.0 * busy[name] / per_query

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    unattributed = busy[QUERY] + busy[EXECUTOR]
    return {
        "relational.stage_ms": ms(STAGE),
        "relational.staged_rows": counts[STAGE] / per_query,
        "relational.eval_ms": ms("relational.eval"),
        "relational.result_rows": counts["relational.eval"] / per_query,
        "semstore.read_ms": ms("semstore.read"),
        "semstore.read_rows": counts["semstore.read"] / per_query,
        "semstore.rows_read_per_result_row": ratio(
            counts["semstore.read"], result_rows
        ),
        "semstore.record_ms": ms("semstore.record"),
        "semstore.record_rows": counts["semstore.record"] / per_query,
        "executor.self_ms": ms(EXECUTOR),
        "plancache.hit_ratio": ratio(
            counts["plancache.lookup"], calls["plancache.lookup"]
        ),
        "sqlparser.parse_ms": ms("sqlparser.parse"),
        "sqlparser.analyze_ms": ms("sqlparser.analyze"),
        "optimizer.plan_ms": ms("optimizer.plan"),
        "optimizer.evaluated_plans": counts["optimizer.plan"] / per_query,
        "rewriter.rewrite_ms": ms("rewriter.rewrite"),
        "rewriter.kept_boxes": counts["rewriter.rewrite"] / per_query,
        "stats.observe_ms": ms("stats.observe"),
        "stats.estimate_ms": ms("stats.estimate"),
        "market.calls": calls["market.get"] / per_query,
        "market.transactions": counts["market.get"] / per_query,
        "market.get_ms": ms("market.get"),
        "transport.fetch_self_ms": ms("transport.fetch"),
        "transport.retries": counts["transport.fetch"] / per_query,
        "durable.wal_append_ms": ms("durable.wal_append"),
        "durable.wal_commit_ms": ms("durable.wal_commit"),
        "durable.wal_bytes_per_purchased_row": ratio(
            counts["durable.wal_append"], seconds["market.get"]
        ),
        "durable.recover_ms": ratio(1000.0 * sum(recovers), setups),
        "serve.coalesce_wait_ms": ms("serve.coalesce_wait"),
        "trace.coverage_ratio": 1.0 - ratio(unattributed, query_wall),
        "_calls": dict(calls),
    }
