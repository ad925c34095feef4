"""Spans, the in-process span store, and the tracer that mints them.

Every observed unit of work — a network hop, a client call (including
its retries), a tunnel dispatch, a WAL replay, a failover promotion —
becomes one :class:`Span` with simulated-clock timestamps.  Spans land
in a :class:`SpanStore` indexed by trace id, which is what the SIEM's
trace↔audit correlation and the critical-path analysis read.

Determinism: span ids come from plain counters (``{n:032x}``), *not*
from the deployment's :class:`~repro.ids.IdFactory` or any RNG, and the
tracer only ever **reads** the clock.  Turning tracing on therefore
cannot shift a single identifier, secret, or simulated timestamp
anywhere else in the system — observation stays pure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.clock import SimClock
from repro.errors import AttemptTimeout, DeadlineExceeded, RateLimited
from repro.telemetry.context import TraceContext

__all__ = ["Span", "SpanStore", "Tracer", "SpanStatus"]


class SpanStatus:
    """Span terminal states.  ``SHED``/``EXPIRED`` mirror the audit
    outcome taxonomy so the two sides of the correlation agree."""

    UNSET = "unset"
    OK = "ok"
    ERROR = "error"
    SHED = "shed"
    EXPIRED = "expired"


def classify_error(exc: BaseException) -> str:
    """Map an exception to a span status using the error taxonomy."""
    if isinstance(exc, RateLimited):
        return SpanStatus.SHED
    # AttemptTimeout subclasses ServiceUnavailable (retryable), but as a
    # span outcome it is a deadline event — an attempt abandoned at its
    # adaptive per-attempt budget must land in the same status bucket as
    # an end-to-end deadline expiry, not generic ERROR
    if isinstance(exc, (DeadlineExceeded, AttemptTimeout)):
        return SpanStatus.EXPIRED
    return SpanStatus.ERROR


@dataclass
class Span:
    """One timed unit of work inside a trace.

    ``kind`` is ``"server"`` (a delivered network hop), ``"client"`` (an
    outbound call, spanning all its retry attempts), ``"tunnel"`` (a
    direct reverse-tunnel dispatch that bypasses the network), or
    ``"internal"`` (root flows, recoveries, promotions).  ``error`` holds
    the error-taxonomy class name (e.g. ``"CircuitOpen"``) when the work
    failed.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    service: str
    kind: str
    start: float
    end: Optional[float] = None
    status: str = SpanStatus.UNSET
    error: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def context(self) -> TraceContext:
        """The context downstream work under this span should carry."""
        return TraceContext(
            trace_id=self.trace_id, span_id=self.span_id,
            parent_id=self.parent_id,
            baggage=dict(self.attrs.get("baggage", {})),  # type: ignore[arg-type]
        )


class SpanStore:
    """All recorded spans, indexed by trace id (the in-process backend)."""

    def __init__(self) -> None:
        # insertion-ordered, keyed by object identity, so dropping a
        # trace deletes its own spans instead of rebuilding the whole list
        self._spans: Dict[int, Span] = {}
        self._by_trace: Dict[str, List[Span]] = defaultdict(list)
        # span ids per trace, maintained incrementally so orphan checks
        # don't rebuild the set per trace per call (the tracewatch
        # scanner runs orphans() repeatedly over the whole store)
        self._ids: Dict[str, Set[str]] = defaultdict(set)

    def add(self, span: Span) -> Span:
        self._spans[id(span)] = span
        self._by_trace[span.trace_id].append(span)
        self._ids[span.trace_id].add(span.span_id)
        return span

    def spans(self) -> List[Span]:
        return list(self._spans.values())

    def trace(self, trace_id: str) -> List[Span]:
        """Spans of one trace, in start order."""
        return sorted(self._by_trace.get(trace_id, []),
                      key=lambda s: (s.start, s.span_id))

    def trace_ids(self) -> List[str]:
        return list(self._by_trace)

    def has_trace(self, trace_id: str) -> bool:
        return trace_id in self._by_trace

    def orphans(self, trace_id: Optional[str] = None) -> List[Span]:
        """Spans whose parent never reached the store — the connectivity
        check the shed-attribution bugfix is verified against: a hop
        that drops context mid-flow shows up here."""
        traces = ([trace_id] if trace_id is not None else list(self._by_trace))
        out: List[Span] = []
        for tid in traces:
            ids = self._ids.get(tid, ())
            out.extend(
                s for s in self._by_trace.get(tid, [])
                if s.parent_id is not None and s.parent_id not in ids
            )
        return out

    def unfinished(self) -> List[Span]:
        return [s for s in self._spans.values() if not s.finished]

    def ended(self, span: Span) -> None:
        """Called by :meth:`Tracer.end` once ``span`` is closed; a store
        whose retention depends on span outcomes hooks in here."""

    def _drop_traces(self, trace_ids: Iterable[str]) -> int:
        """Remove whole traces, keeping every index consistent; returns
        the number of spans dropped (retention policies live in
        :class:`~repro.telemetry.pipeline.BoundedSpanStore`)."""
        dropped = 0
        for tid in set(trace_ids):
            for span in self._by_trace.pop(tid, ()):
                del self._spans[id(span)]
                dropped += 1
            self._ids.pop(tid, None)
        return dropped

    def __len__(self) -> int:
        return len(self._spans)


class Tracer:
    """Mints spans against the shared simulated clock.

    Ids are sequential counters rendered as hex — unique within the
    process, deterministic across runs, and never drawn from the
    deployment's seeded id/secret streams.
    """

    def __init__(self, clock: SimClock, store: Optional[SpanStore] = None) -> None:
        self.clock = clock
        self.store = store if store is not None else SpanStore()
        self._trace_n = 0
        self._span_n = 0

    # ------------------------------------------------------------- ids
    def new_trace_id(self) -> str:
        self._trace_n += 1
        return f"{self._trace_n:032x}"

    def new_span_id(self) -> str:
        self._span_n += 1
        return f"{self._span_n:016x}"

    # ----------------------------------------------------------- starts
    def start_trace(self, name: str, *, service: str = "", kind: str = "internal",
                    baggage: Optional[Dict[str, str]] = None,
                    **attrs: object) -> Span:
        """Open a new root span (a fresh trace id, no parent)."""
        span = Span(
            trace_id=self.new_trace_id(), span_id=self.new_span_id(),
            parent_id=None, name=name, service=service, kind=kind,
            start=self.clock.now(), attrs=dict(attrs),
        )
        if baggage:
            span.attrs["baggage"] = dict(baggage)
        return self.store.add(span)

    def start_span(self, name: str, ctx: TraceContext, *, service: str = "",
                   kind: str = "internal", **attrs: object) -> Span:
        """Open a span under an incoming context (its span becomes our
        parent, as traceparent semantics demand)."""
        span = Span(
            trace_id=ctx.trace_id, span_id=self.new_span_id(),
            parent_id=ctx.span_id, name=name, service=service, kind=kind,
            start=self.clock.now(), attrs=dict(attrs),
        )
        if ctx.baggage:
            span.attrs["baggage"] = dict(ctx.baggage)
        return self.store.add(span)

    # ------------------------------------------------------------- ends
    def end(self, span: Span, *, error: Optional[BaseException] = None,
            status: Optional[str] = None, **attrs: object) -> Span:
        """Close a span now; status defaults from the error taxonomy."""
        span.end = self.clock.now()
        span.attrs.update(attrs)
        if status is not None:
            span.status = status
        elif error is not None:
            span.status = classify_error(error)
        else:
            span.status = SpanStatus.OK
        if error is not None:
            span.error = type(error).__name__
        self.store.ended(span)
        return span

    # ------------------------------------------------------- retroactive
    def record(self, name: str, *, start: float, end: float, service: str = "",
               kind: str = "internal", status: str = SpanStatus.OK,
               ctx: Optional[TraceContext] = None, **attrs: object) -> Span:
        """Record an already-completed unit of work (WAL replays and
        failover promotions are measured by their reports, after the
        fact) as a finished span."""
        if ctx is not None:
            span = Span(
                trace_id=ctx.trace_id, span_id=self.new_span_id(),
                parent_id=ctx.span_id, name=name, service=service, kind=kind,
                start=start, end=end, status=status, attrs=dict(attrs),
            )
        else:
            span = Span(
                trace_id=self.new_trace_id(), span_id=self.new_span_id(),
                parent_id=None, name=name, service=service, kind=kind,
                start=start, end=end, status=status, attrs=dict(attrs),
            )
        return self.store.add(span)
