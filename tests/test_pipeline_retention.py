"""Incremental span retention against the whole-store rescan it replaced.

:class:`BoundedSpanStore` reclassifies only the traces that changed and
evicts from a lazily invalidated heap.  ``RescanSpanStore`` below is the
earlier implementation, whose ``compact()`` reclassifies every retained
trace on every call; it is kept here verbatim as the reference.  Seeded
random span streams drive both stores in lockstep — late spans into
finished (and evicted) traces, retroactive spans that start before
their trace, pins after a trace finished, ERROR/SHED/EXPIRED ends — and
after every step the two must retain the same spans and report the same
rollups and counters.

A soak test then holds a store over budget for 20k spans and asserts
that compaction does O(1) amortised work per ``add()``.
"""

import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.clock import SimClock
from repro.errors import DeadlineExceeded, RateLimited
from repro.telemetry import BoundedSpanStore, PipelineConfig, SpanStatus, Tracer
from repro.telemetry.pipeline import RedAggregate, trace_sampled
from repro.telemetry.tracing import Span, SpanStore

pytestmark = pytest.mark.pipeline

_PROTECTED_STATUSES = (SpanStatus.ERROR, SpanStatus.SHED, SpanStatus.EXPIRED)


class RescanSpanStore(SpanStore):
    """The reference: every compaction rescans the whole store."""

    def __init__(self, config: PipelineConfig) -> None:
        super().__init__()
        self.config = config
        self._protected: Set[str] = set()
        self.rollups: Dict[Tuple[str, str], RedAggregate] = {}
        self.evicted_spans = 0
        self.evicted_traces = 0
        self.compactions = 0

    def protect(self, trace_id: str) -> None:
        if trace_id:
            self._protected.add(trace_id)

    def trace_protected(self, trace_id: str) -> bool:
        if trace_id in self._protected:
            return True
        return any(s.status in _PROTECTED_STATUSES
                   for s in self._by_trace.get(trace_id, ()))

    def add(self, span: Span) -> Span:
        super().add(span)
        if len(self._spans) > self.config.max_spans:
            self.compact()
        return span

    def _trace_duration(self, spans: List[Span]) -> float:
        for s in spans:
            if s.parent_id is None:
                return s.duration
        start = min(s.start for s in spans)
        end = max(s.end for s in spans if s.end is not None)
        return end - start

    def compact(self) -> None:
        target = max(1, int(self.config.max_spans * self.config.target_fill))
        excess = len(self._spans) - target
        if excess <= 0:
            return
        # classify completed traces; unfinished traces are untouchable
        candidates: List[Tuple[float, str, List[Span]]] = []
        windows: Dict[int, List[Tuple[float, str]]] = {}
        for tid, spans in self._by_trace.items():
            if any(not s.finished for s in spans):
                continue
            if self.trace_protected(tid):
                continue
            if trace_sampled(tid, self.config.sample_rate):
                continue
            start = min(s.start for s in spans)
            duration = self._trace_duration(spans)
            candidates.append((start, tid, spans))
            windows.setdefault(int(start // self.config.window), []).append(
                (duration, tid))
        # slowest-k per window survive even though they sampled out
        slow: Set[str] = set()
        for bucket in windows.values():
            bucket.sort(reverse=True)
            slow.update(tid for _, tid in bucket[:self.config.slowest_k])
        doomed: List[str] = []
        evicting = 0
        for start, tid, spans in sorted(candidates,
                                        key=lambda c: (c[0], c[1])):
            if evicting >= excess:
                break
            if tid in slow:
                continue
            doomed.append(tid)
            evicting += len(spans)
            for span in spans:
                key = (span.service or span.name, span.status)
                agg = self.rollups.get(key)
                if agg is None:
                    agg = self.rollups[key] = RedAggregate()
                agg.fold(span)
        if doomed:
            self.evicted_spans += self._drop_traces(doomed)
            self.evicted_traces += len(doomed)
        self.compactions += 1


CONFIGS = [
    PipelineConfig(max_spans=40, target_fill=0.8, window=2.0,
                   slowest_k=0, sample_rate=0.0),
    PipelineConfig(max_spans=40, target_fill=0.5, window=2.0,
                   slowest_k=2, sample_rate=0.05),
    PipelineConfig(max_spans=30, target_fill=0.9, window=0.5,
                   slowest_k=3, sample_rate=0.0),
    PipelineConfig(max_spans=60, target_fill=0.6, window=5.0,
                   slowest_k=1, sample_rate=0.05),
    PipelineConfig(max_spans=25, target_fill=1.0, window=1.0,
                   slowest_k=2, sample_rate=1.0),
]

ENDS = [
    {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {},
    {"error": ValueError("boom")},
    {"error": RateLimited("busy")},
    {"error": DeadlineExceeded("late")},
    {"status": SpanStatus.SHED},
    {"status": SpanStatus.EXPIRED},
]


class Lockstep:
    """One simulated clock, two tracers, one store each; every op is
    applied to both, and a trace id means the same trace in both."""

    def __init__(self, config: PipelineConfig) -> None:
        self.clock = SimClock()
        self.fast = BoundedSpanStore(config)
        self.ref = RescanSpanStore(config)
        self.tracers = (Tracer(self.clock, self.fast),
                        Tracer(self.clock, self.ref))
        self.open: List[Tuple[Span, Span]] = []
        self.known: List[Tuple[Span, Span]] = []   # every span ever made

    def _both(self, make) -> Tuple[Span, Span]:
        """Apply ``make(tracer, i)`` to both sides; ``i`` picks the side's
        copy of any span the op refers to."""
        pair = (make(self.tracers[0], 0), make(self.tracers[1], 1))
        self.known.append(pair)
        return pair

    def _parent(self, rng: random.Random) -> Tuple[Span, Span]:
        """Mostly a recent span, sometimes any span ever made."""
        if rng.random() < 0.8:
            return rng.choice(self.known[-12:])
        return rng.choice(self.known)

    def start_trace(self, rng: random.Random) -> None:
        service = rng.choice(["edge", "svc"])
        self.open.append(self._both(
            lambda t, i: t.start_trace("op", service=service)))

    def start_span(self, rng: random.Random) -> None:
        # parents may be open, finished, or in a trace already evicted
        parent = self._parent(rng)
        service = rng.choice(["idp", "svc"])
        self.open.append(self._both(
            lambda t, i: t.start_span("hop", parent[i].context(),
                                      service=service)))

    def record(self, rng: random.Random) -> None:
        """A retroactive span, often starting before its trace did."""
        start = max(0.0, self.clock.now() - rng.uniform(0.0, 4.0))
        end = start + rng.uniform(0.0, self.clock.now() - start)
        status = rng.choice([SpanStatus.OK] * 6
                            + [SpanStatus.ERROR, SpanStatus.SHED])
        parent = self._parent(rng) if rng.random() < 0.7 else None
        self._both(lambda t, i: t.record(
            "replay", start=start, end=end, service="journal", status=status,
            ctx=parent[i].context() if parent else None))

    def end(self, rng: random.Random) -> None:
        pair = self.open.pop(rng.randrange(len(self.open)))
        how = rng.choice(ENDS)
        for tracer, span in zip(self.tracers, pair):
            tracer.end(span, **how)

    def protect(self, rng: random.Random) -> None:
        tid = self._parent(rng)[0].trace_id
        self.fast.protect(tid)
        self.ref.protect(tid)

    def advance(self, rng: random.Random) -> None:
        self.clock.advance(rng.choice([0.0, 0.01, 0.1, 0.3, 1.0, 7.0]))

    def step(self, rng: random.Random) -> None:
        ops = [self.start_trace] * 4 + [self.advance] * 3
        if self.known:
            ops += [self.start_span] * 3 + [self.record] * 2 + [self.protect]
        if self.open:
            ops += [self.end] * 10
        rng.choice(ops)(rng)

    def assert_agree(self, where: str) -> None:
        fast, ref = self.fast, self.ref
        assert ([s.span_id for s in fast.spans()]
                == [s.span_id for s in ref.spans()]), where
        assert fast.trace_ids() == ref.trace_ids(), where
        assert fast.rollups == ref.rollups, where
        assert list(fast.rollups) == list(ref.rollups), where
        assert ((fast.evicted_spans, fast.evicted_traces, fast.compactions)
                == (ref.evicted_spans, ref.evicted_traces,
                    ref.compactions)), where


@pytest.mark.parametrize("stream", range(45))
def test_incremental_store_matches_the_full_rescan(stream):
    config = CONFIGS[stream % len(CONFIGS)]
    rng = random.Random(1000 + stream)
    world = Lockstep(config)
    for step in range(400):
        world.step(rng)
        world.assert_agree(f"stream {stream} step {step}")
    # the stream really went over budget and evicted something
    assert world.ref.compactions > 0
    if config.sample_rate < 1.0:
        assert world.ref.evicted_traces > 0


def test_revived_trace_is_evicted_by_its_new_start():
    """A retroactive span moves trace T's start earlier, T is evicted,
    then a late span revives T with a later start.  T's heap entry from
    before the move must not evict the revived T ahead of older traces."""
    world = Lockstep(PipelineConfig(max_spans=3, target_fill=1.0,
                                    window=100.0, slowest_k=0,
                                    sample_rate=0.0))
    clock, fast = world.clock, world.fast

    def trace_at(start, end=None):
        clock.advance(start - clock.now())
        pair = world._both(lambda t, i: t.start_trace("op", service="svc"))
        if end is not None:
            clock.advance(end - clock.now())
            for tracer, span in zip(world.tracers, pair):
                tracer.end(span)
        world.assert_agree(f"t={start}")
        return pair

    def record_into(pair, start, end):
        world._both(lambda t, i: t.record("replay", start=start, end=end,
                                          ctx=pair[i].context()))
        world.assert_agree(f"record {start}")

    s = trace_at(1.0, 2.0)
    t = trace_at(10.0, 11.0)
    u = trace_at(12.0, 13.0)
    x = trace_at(14.0)                  # over budget: S goes
    assert not fast.has_trace(s[0].trace_id)
    record_into(t, 5.0, 6.0)            # T now starts at 5 and goes
    assert not fast.has_trace(t[0].trace_id)
    clock.advance(6.0)
    record_into(t, 18.0, 19.0)          # T revived, starting at 18
    for tracer, span in zip(world.tracers, x):
        tracer.end(span)
    trace_at(20.0)                      # over budget: U, the oldest, goes
    assert not fast.has_trace(u[0].trace_id)
    assert fast.has_trace(t[0].trace_id) and fast.has_trace(x[0].trace_id)


def test_streams_exercise_late_and_retroactive_spans():
    """Guard on the harness itself: a stream does reopen evicted traces
    and records spans that start before the rest of their trace."""
    world = Lockstep(CONFIGS[1])
    rng = random.Random(7)
    reopened = earlier = 0
    for _ in range(400):
        evicted_before = set(t for t in (p[0].trace_id for p in world.known)
                             if not world.fast.has_trace(t))
        n = len(world.known)
        world.step(rng)
        for fast_span, _ in world.known[n:]:
            if fast_span.trace_id in evicted_before:
                reopened += 1
            spans = world.fast.trace(fast_span.trace_id)
            if len(spans) > 1 and spans[0] is fast_span:
                earlier += 1
    assert reopened > 0 and earlier > 0


def test_hash_verdict_is_computed_once_per_trace(monkeypatch):
    import repro.telemetry.pipeline as pipeline
    calls: List[str] = []

    def counting(trace_id: str, rate: float) -> bool:
        calls.append(trace_id)
        return trace_sampled(trace_id, rate)

    monkeypatch.setattr(pipeline, "trace_sampled", counting)
    clock = SimClock()
    # every trace ranks among its window's slowest, so none is evicted
    # and every compaction would rehash all of them under a rescan
    store = BoundedSpanStore(PipelineConfig(max_spans=10, target_fill=0.5,
                                            slowest_k=1000, sample_rate=0.5))
    tracer = Tracer(clock, store)
    for _ in range(40):
        root = tracer.start_trace("op", service="svc")
        tracer.end(root)
        # a late span makes the finished trace dirty again
        tracer.end(tracer.start_span("late", root.context(), service="svc"))
    assert store.compactions > 40 and store.evicted_traces == 0
    # one verdict per trace; the last trace is dirty, not yet reclassified
    assert len(set(calls)) == len(calls) == 39


# ---------------------------------------------------------------------------
# soak: work per add stays O(1) while the store is over budget
# ---------------------------------------------------------------------------
def test_over_budget_store_does_constant_work_per_add():
    config = PipelineConfig(max_spans=200, target_fill=0.8, window=1.0,
                            slowest_k=2, sample_rate=0.05)
    clock = SimClock()
    store = BoundedSpanStore(config)
    tracer = Tracer(clock, store)
    # pinned traces alone exceed the budget, so every add compacts
    for _ in range(config.max_spans + 50):
        span = tracer.start_trace("revoke", service="broker")
        tracer.end(span)
        store.protect(span.trace_id)
    base_adds, base_work = len(store) + store.evicted_spans, store.work_items
    base_compactions = store.compactions
    adds = 0
    while adds < 20_000:
        root = tracer.start_trace("login", service="edge")
        hop = tracer.start_span("hop", root.context(), service="idp")
        clock.advance(0.01)
        tracer.end(hop)
        tracer.end(root, error=ValueError("x") if adds % 1000 == 0 else None)
        adds += 2
    assert len(store) + store.evicted_spans - base_adds == adds
    assert len(store) > config.max_spans               # held over budget
    assert store.compactions - base_compactions == adds
    work = store.work_items - base_work
    assert work <= 3 * adds, f"{work / adds:.2f} work items per add"
    assert store.stats()["work_items"] == store.work_items
