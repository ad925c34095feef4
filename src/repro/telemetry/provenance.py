"""Decision provenance: the *why* behind every admission decision.

The telemetry layer (PR 4) records *that* things happened; the SIEM
records *what* was allowed or denied.  Neither answers the federation
operator's question — "why did this principal get in?" — after the
fact.  This module does: every ALLOW / DENY / CACHED / SHED /
fail-closed decision on the four enforcement surfaces (broker
RBAC/OIDC tokens, sshd, Zenith tunnels, Jupyter/Slurm compute) becomes
one :class:`DecisionRecord` carrying the matched policy rule and pack
version, the assurance tier and threat score that fed the decision,
whether it was served from cache or freshly validated, the region and
fencing epoch that served it, and how stale the PDP heartbeat was at
decision time.

Records land in a :class:`ProvenanceLedger` keyed by identity
(SPIFFE id *and* plain subject) and by trace id, with the two queries
the SOC and kill-switch post-mortems consume:

* :meth:`ProvenanceLedger.explain` — everything we ever decided about
  one identity, in decision order;
* :meth:`ProvenanceLedger.explain_trace` — every decision taken while
  serving one traced request.

Retention is bounded but *never* loses the records that matter: the
latest ALLOW/CACHED per (identity, surface) — the record that explains
a currently-live grant — and every DENY / fail-closed / SHED record
are pinned; only superseded plain allows are evicted (into per-surface
rollup counters) when the ledger exceeds its budget.

Determinism: the ledger never reads a clock or draws randomness —
timestamps come from the caller, sequence numbers from a counter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["Decision", "DecisionRecord", "ProvenanceLedger"]


class Decision:
    """The five ways an admission decision can go."""

    ALLOW = "allow"
    DENY = "deny"
    CACHED = "cached"          # allow served from a replica cache
    SHED = "shed"              # dropped by overload protection, not policy
    FAIL_CLOSED = "fail_closed"  # denied because the PDP was unreachable

    ALL = (ALLOW, DENY, CACHED, SHED, FAIL_CLOSED)
    # decisions that explain a live grant (pinned per identity+surface)
    GRANTS = (ALLOW, CACHED)
    # decisions that must survive retention for post-mortems
    PINNED = (DENY, SHED, FAIL_CLOSED)


# sentinel defaults meaning "not observed" — the enricher only fills
# fields still holding these, never overwrites what the caller supplied
_UNSET_INT = -1
_UNSET_FLOAT = -1.0


@dataclass(frozen=True)
class DecisionRecord:
    """One admission decision, with everything that fed it."""

    time: float
    surface: str          # tokens | ssh | tunnels | compute | pdp | admission
    decision: str         # one of Decision.ALL
    subject: str          # principal / actor the decision is about
    spiffe_id: str = ""   # canonical workload/user identity, when known
    trace_id: str = ""    # the request that carried the decision
    resource: str = ""    # what was being accessed
    rule: str = ""        # matched policy rule name ("" = not rule-driven)
    reason: str = ""      # human-readable grounds for the decision
    pack_version: str = ""  # policy pack version the rule came from
    loa: int = _UNSET_INT        # assurance tier at decision time
    threat_score: float = _UNSET_FLOAT  # SOC risk score at decision time
    cached: bool = False         # served from cache vs fresh validation
    region: str = ""             # region that served the decision
    epoch: int = _UNSET_INT      # fencing epoch of that region/journal
    pdp_staleness: float = _UNSET_FLOAT  # PDP heartbeat age at decision
    attrs: Mapping[str, object] = field(default_factory=dict)

    def is_grant(self) -> bool:
        return self.decision in Decision.GRANTS

    def describe(self) -> str:
        """One post-mortem line: who, what, why."""
        why = self.rule or self.reason or "unattributed"
        extra = f" [{self.pack_version}]" if self.pack_version else ""
        return (f"t={self.time:.3f} {self.surface}/{self.decision} "
                f"{self.subject} -> {self.resource or '-'}: {why}{extra}")


# enrichable fields and the sentinel that marks them unset
_ENRICHABLE = {
    "rule": "", "reason": "", "pack_version": "", "spiffe_id": "",
    "region": "", "loa": _UNSET_INT, "epoch": _UNSET_INT,
    "threat_score": _UNSET_FLOAT, "pdp_staleness": _UNSET_FLOAT,
}


class ProvenanceLedger:
    """Bounded, queryable store of every admission decision.

    Parameters
    ----------
    max_records:
        Retention budget.  Past it, superseded plain allows are evicted
        oldest-first into :attr:`evicted` rollup counters; pinned
        records (latest grant per identity+surface, every deny /
        fail-closed / shed) are kept even if that means exceeding the
        budget — losing the explanation for a live grant or a refusal
        would defeat the ledger's purpose, and the overshoot is
        reported honestly via :meth:`stats`.
    """

    def __init__(self, max_records: int = 8192) -> None:
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        self.max_records = max_records
        # called with the subject; returns field defaults (loa, threat
        # score, pack version, PDP staleness...) applied to fields the
        # caller left unset.  Set by the deployment wiring.
        self.enricher: Optional[Callable[[str], Dict[str, object]]] = None
        self._records: Dict[int, DecisionRecord] = {}  # seq order
        self._seq = 0
        # identity / trace id -> its retained seqs (dicts as ordered
        # sets, so an eviction removes one seq in O(1))
        self._by_identity: Dict[str, Dict[int, None]] = {}
        self._by_trace: Dict[str, Dict[int, None]] = {}
        # (identity key, surface) -> seq of the latest grant record
        self._latest_grant: Dict[Tuple[str, str], int] = {}
        # grant seq -> how many (identity, surface) keys it is latest for;
        # at zero the grant is superseded everywhere and becomes evictable
        self._grant_refs: Dict[int, int] = {}
        # min-heap of evictable seqs: compaction pops oldest first
        self._evictable: List[int] = []
        self.recorded = 0
        self.counts: Dict[Tuple[str, str], int] = {}   # (surface, decision)
        self.evicted: Dict[Tuple[str, str], int] = {}  # rollup of drops
        self.compactions = 0
        # deterministic work units: evictable marks plus evictions, so
        # retention costs O(1) per record whatever the ledger holds
        self.work_items = 0

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
        identities = {rec.subject, rec.spiffe_id} - {""}
        for identity in identities:
            self._by_identity.setdefault(identity, {})[seq] = None
            if rec.is_grant():
                old = self._latest_grant.get((identity, surface))
                self._latest_grant[(identity, surface)] = seq
                self._grant_refs[seq] = self._grant_refs.get(seq, 0) + 1
                if old is not None:
                    self._release(old)
        if rec.is_grant() and not identities:
            self._mark_evictable(seq)  # explains no identity's grant
        if rec.trace_id:
            self._by_trace.setdefault(rec.trace_id, {})[seq] = None
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
    def _release(self, seq: int) -> None:
        """A newer grant superseded ``seq`` for one key; once it is the
        latest for none it no longer explains a live grant."""
        refs = self._grant_refs[seq] - 1
        if refs:
            self._grant_refs[seq] = refs
        else:
            del self._grant_refs[seq]
            self._mark_evictable(seq)

    def _mark_evictable(self, seq: int) -> None:
        heapq.heappush(self._evictable, seq)
        self.work_items += 1

    def _compact(self) -> None:
        """Evict superseded plain grants, oldest first, down to 90% of
        budget (hysteresis so one record over the line does not trigger
        a compaction per insert).  Denials, sheds, fail-closed records
        and the latest grant per identity+surface are never evictable;
        when nothing else is left the ledger stays over budget."""
        target = max(1, int(self.max_records * 0.9))
        if not self._evictable:
            return                             # everything left is pinned
        while self._evictable and len(self._records) > target:
            seq = heapq.heappop(self._evictable)
            rec = self._records.pop(seq)
            key = (rec.surface, rec.decision)
            self.evicted[key] = self.evicted.get(key, 0) + 1
            for index, name in ((self._by_identity, rec.subject),
                                (self._by_identity, rec.spiffe_id),
                                (self._by_trace, rec.trace_id)):
                seqs = index.get(name)
                if seqs is not None and seq in seqs:
                    del seqs[seq]
                    if not seqs:
                        del index[name]
            self.work_items += 1
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
            "work_items": self.work_items,
            "decisions": by_surface,
            "fail_closed": sum(
                n for (_, d), n in self.counts.items()
                if d == Decision.FAIL_CLOSED),
        }
