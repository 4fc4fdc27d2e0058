"""Simulated REST-call latency.

The paper's efficiency discussion (Section 5): "the execution time of a
query is, as usual, dominated by the RESTful calls to the data seller.
Nevertheless, a query can still finish within seconds."  The simulator
models that wall-clock dimension without actually sleeping: each call is
charged a round-trip plus a per-transaction transfer time, accumulated in
the billing ledger, so examples and benches can report how long a plan
*would* take against a real market.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MarketError


@dataclass(frozen=True)
class LatencyModel:
    """A simple affine latency model per REST call."""

    #: Fixed per-call round-trip time (connection + auth + request).
    round_trip_ms: float = 150.0
    #: Transfer time per transaction page of results.
    per_transaction_ms: float = 25.0
    #: When positive, the market actually *sleeps* ``call_ms * scale`` of
    #: real wall-clock per call instead of only accounting it.  ``0``
    #: (the default) keeps everything simulated and instant.  Real sleeps
    #: exist for the concurrent-serving path: thread-level speedup and
    #: singleflight wait coalescing are only measurable when calls block
    #: for real (``benchmarks/bench_concurrency.py``).
    realtime_scale: float = 0.0
    #: Connection establishment cost (TCP + TLS + auth handshake).  The
    #: transport keeps idle connections per seller and pays this only
    #: when a call must open a new one; a call that reuses an idle
    #: connection pays nothing (:meth:`MarketTransport._call
    #: <repro.market.transport.MarketTransport._call>`).  Charged
    #: *client-side* — it never enters the server's billing ledger, so
    #: dollars never depend on it.  Default 0 keeps every existing number
    #: and golden unchanged.
    connection_setup_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.round_trip_ms < 0 or self.per_transaction_ms < 0:
            raise MarketError("latency components cannot be negative")
        if self.realtime_scale < 0:
            raise MarketError("realtime_scale cannot be negative")
        if self.connection_setup_ms < 0:
            raise MarketError("connection_setup_ms cannot be negative")

    @property
    def is_instant(self) -> bool:
        """Whether every call is modelled as taking zero wall-clock."""
        return (
            self.round_trip_ms == 0.0
            and self.per_transaction_ms == 0.0
            and self.connection_setup_ms == 0.0
        )

    def call_ms(self, transactions: int) -> float:
        """Simulated wall-clock of one call returning ``transactions`` pages."""
        if transactions < 0:
            raise MarketError("transaction count cannot be negative")
        return self.round_trip_ms + transactions * self.per_transaction_ms


#: Latencies in the spirit of a cross-region HTTPS API circa the paper.
DEFAULT_LATENCY = LatencyModel()

#: A zero-latency model for tests that only care about money.
INSTANT = LatencyModel(round_trip_ms=0.0, per_transaction_ms=0.0)
