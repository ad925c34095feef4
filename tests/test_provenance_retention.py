"""Differential and soak tests for the provenance ledger's retention.

:class:`~repro.telemetry.ProvenanceLedger` keeps its evictable records
(grants no longer the latest for any identity+surface, and grants with
no identity) in a min-heap maintained on ``record()``, so compaction
pops exactly what it evicts.  The whole-ledger rescan it replaced
survives below, verbatim, as :class:`ReferenceLedger`: seeded streams
of grants and refusals over shared subjects, SPIFFE ids, empty
subjects and trace ids drive both, and after every step retention,
rollups, stats and every query must agree.

Two soaks then hold ledgers over budget for 20k records, one with
every record pinned and one mostly pinned, and assert that retention
does O(1) work per record (``work_items``).
"""

import random
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.telemetry import Decision, DecisionRecord, ProvenanceLedger
from repro.telemetry.provenance import _ENRICHABLE

pytestmark = pytest.mark.pipeline


class ReferenceLedger:
    """The rescanning ledger: every over-budget ``record()`` recomputes
    the pinned set over all retained records."""

    def __init__(self, max_records: int = 8192) -> None:
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        self.max_records = max_records
        # called with the subject; returns field defaults (loa, threat
        # score, pack version, PDP staleness...) applied to fields the
        # caller left unset.  Set by the deployment wiring.
        self.enricher: Optional[Callable[[str], Dict[str, object]]] = None
        self._records: "OrderedDict[int, DecisionRecord]" = OrderedDict()
        self._seq = 0
        self._by_identity: Dict[str, List[int]] = {}
        self._by_trace: Dict[str, List[int]] = {}
        # (identity key, surface) -> seq of the latest grant record
        self._latest_grant: Dict[Tuple[str, str], int] = {}
        self.recorded = 0
        self.counts: Dict[Tuple[str, str], int] = {}   # (surface, decision)
        self.evicted: Dict[Tuple[str, str], int] = {}  # rollup of drops
        self.compactions = 0

    # ------------------------------------------------------------ record
    def record(self, time: float, surface: str, decision: str, subject: str,
               **fields: object) -> DecisionRecord:
        """Append one decision; unset context fields are filled by the
        enricher (policy pack version, assurance, threat score, PDP
        staleness) so call sites only pass what they directly know."""
        if decision not in Decision.ALL:
            raise ValueError(f"unknown decision {decision!r}")
        if self.enricher is not None:
            try:
                enriched = self.enricher(subject)
            except Exception:
                enriched = {}
            for key, sentinel in _ENRICHABLE.items():
                if fields.get(key, sentinel) == sentinel and key in enriched:
                    fields[key] = enriched[key]
        rec = DecisionRecord(time=time, surface=surface, decision=decision,
                             subject=subject, **fields)  # type: ignore[arg-type]
        seq = self._seq
        self._seq += 1
        self._records[seq] = rec
        for identity in {rec.subject, rec.spiffe_id} - {""}:
            self._by_identity.setdefault(identity, []).append(seq)
            if rec.is_grant():
                self._latest_grant[(identity, surface)] = seq
        if rec.trace_id:
            self._by_trace.setdefault(rec.trace_id, []).append(seq)
        self.recorded += 1
        key = (surface, decision)
        self.counts[key] = self.counts.get(key, 0) + 1
        if len(self._records) > self.max_records:
            self._compact()
        return rec

    # ----------------------------------------------------------- queries
    def explain(self, identity: str) -> List[DecisionRecord]:
        """Every decision about one identity (SPIFFE id or plain
        subject), oldest first — the post-mortem's first question."""
        return [self._records[s]
                for s in self._by_identity.get(identity, ())
                if s in self._records]

    def explain_trace(self, trace_id: str) -> List[DecisionRecord]:
        """Every decision taken while serving one traced request."""
        return [self._records[s]
                for s in self._by_trace.get(trace_id, ())
                if s in self._records]

    def latest(self, identity: str,
               surface: Optional[str] = None) -> Optional[DecisionRecord]:
        """The most recent decision about an identity (optionally on one
        surface)."""
        for seq in reversed(self._by_identity.get(identity, ())):
            rec = self._records.get(seq)
            if rec is not None and (surface is None or rec.surface == surface):
                return rec
        return None

    def grant_record(self, identity: str,
                     surface: str) -> Optional[DecisionRecord]:
        """The pinned record explaining the identity's current grant on
        ``surface`` (None when it never held one)."""
        seq = self._latest_grant.get((identity, surface))
        rec = self._records.get(seq) if seq is not None else None
        return rec

    def denials(self, identity: Optional[str] = None) -> List[DecisionRecord]:
        """All DENY / fail-closed records, optionally for one identity."""
        pool = (self.explain(identity) if identity is not None
                else list(self._records.values()))
        return [r for r in pool
                if r.decision in (Decision.DENY, Decision.FAIL_CLOSED)]

    def identities(self) -> List[str]:
        return sorted(self._by_identity)

    def __len__(self) -> int:
        return len(self._records)

    # --------------------------------------------------------- retention
    def _pinned(self) -> set:
        pinned = set(self._latest_grant.values())
        for seq, rec in self._records.items():
            if rec.decision in Decision.PINNED:
                pinned.add(seq)
        return pinned

    def _compact(self) -> None:
        """Evict superseded plain grants, oldest first, down to 90% of
        budget (hysteresis so one record over the line does not trigger
        a compaction per insert)."""
        target = max(1, int(self.max_records * 0.9))
        pinned = self._pinned()
        doomed: List[int] = []
        for seq in self._records:              # OrderedDict: oldest first
            if len(self._records) - len(doomed) <= target:
                break
            if seq in pinned:
                continue
            doomed.append(seq)
        if not doomed:
            return                             # everything left is pinned
        for seq in doomed:
            rec = self._records.pop(seq)
            key = (rec.surface, rec.decision)
            self.evicted[key] = self.evicted.get(key, 0) + 1
        dead = set(doomed)
        for index in (self._by_identity, self._by_trace):
            for key in list(index):
                kept = [s for s in index[key] if s not in dead]
                if kept:
                    index[key] = kept
                else:
                    del index[key]
        self.compactions += 1

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        """Retention and decision totals for the SOC scoreboard."""
        by_surface: Dict[str, Dict[str, int]] = {}
        for (surface, decision), n in sorted(self.counts.items()):
            by_surface.setdefault(surface, {})[decision] = n
        return {
            "recorded": self.recorded,
            "retained": len(self._records),
            "evicted": sum(self.evicted.values()),
            "over_budget": max(0, len(self._records) - self.max_records),
            "compactions": self.compactions,
            "decisions": by_surface,
            "fail_closed": sum(
                n for (_, d), n in self.counts.items()
                if d == Decision.FAIL_CLOSED),
        }


SUBJECTS = ("alice", "bob", "carol", "")
SPIFFE = ("", "", "spiffe://isambard.example/user/alice",
          "spiffe://isambard.example/user/dave")
SURFACES = ("tokens", "ssh", "compute")
TRACES = ("", "", "tr-1", "tr-2", "tr-3")
DECISIONS = (Decision.ALLOW, Decision.ALLOW, Decision.CACHED, Decision.DENY,
             Decision.SHED, Decision.FAIL_CLOSED)


def _step(rng: random.Random) -> Tuple[str, str, str, Dict[str, object]]:
    fields: Dict[str, object] = {"trace_id": rng.choice(TRACES)}
    spiffe = rng.choice(SPIFFE)
    if spiffe:
        fields["spiffe_id"] = spiffe
    return (rng.choice(SURFACES), rng.choice(DECISIONS),
            rng.choice(SUBJECTS), fields)


def _without_work(stats: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in stats.items() if k != "work_items"}


def _assert_same(led: ProvenanceLedger, ref: ReferenceLedger) -> None:
    assert list(led._records) == list(ref._records)
    assert led.evicted == ref.evicted
    assert led.compactions == ref.compactions
    assert _without_work(led.stats()) == ref.stats()
    assert led.identities() == ref.identities()
    assert led.denials() == ref.denials()
    for identity in set(SUBJECTS + SPIFFE):
        assert led.explain(identity) == ref.explain(identity)
        assert led.denials(identity) == ref.denials(identity)
        assert led.latest(identity) == ref.latest(identity)
        for surface in SURFACES:
            assert led.grant_record(identity, surface) == \
                ref.grant_record(identity, surface)
            assert led.latest(identity, surface) == \
                ref.latest(identity, surface)
    for trace in TRACES:
        assert led.explain_trace(trace) == ref.explain_trace(trace)


@pytest.mark.parametrize("seed,max_records", [
    (1, 1), (2, 5), (3, 12), (4, 40), (5, 7), (6, 25)])
def test_matches_the_rescanning_reference_after_every_record(seed, max_records):
    rng = random.Random(seed)
    led, ref = ProvenanceLedger(max_records), ReferenceLedger(max_records)
    for step in range(600):
        surface, decision, subject, fields = _step(rng)
        got = led.record(float(step), surface, decision, subject, **fields)
        want = ref.record(float(step), surface, decision, subject, **fields)
        assert got == want
        _assert_same(led, ref)
    assert led.compactions > 0                     # the budget did bind


def _soak(pin_share: float) -> ProvenanceLedger:
    rng = random.Random(17)
    led = ProvenanceLedger(max_records=100)
    for step in range(20_000):
        if rng.random() < pin_share:
            led.record(float(step), "ssh", Decision.DENY, f"u{step % 500}")
        else:
            led.record(float(step), "tokens", Decision.ALLOW,
                       f"u{rng.randrange(50)}", trace_id=f"tr-{step}")
    return led


def test_all_pinned_ledger_does_no_retention_work_per_record():
    led = _soak(pin_share=1.0)
    assert len(led) == 20_000                     # nothing is evictable
    assert led.stats()["over_budget"] == 20_000 - 100
    assert led.compactions == 0
    assert led.work_items == 0


def test_mostly_pinned_ledger_does_constant_work_per_record():
    led = _soak(pin_share=0.9)
    stats = led.stats()
    assert stats["evicted"] > 1_000               # grants were superseded
    assert stats["over_budget"] > 0               # denials alone overflow
    # each evictable record is marked once and evicted at most once
    assert led.work_items <= 2 * led.recorded
    assert stats["work_items"] == led.work_items
