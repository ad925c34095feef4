"""Write-ahead journaling and snapshots for the stateful control plane.

Isambard-AI runs its IAM services (broker, SSH CA, portal, managed IdPs)
as replicated managed services: process death must not lose sessions,
serials or the audit chain, and a deposed replica must not keep signing.
This module gives the simulation the same guarantees, deterministically:

* :class:`ServiceJournal` — one write-ahead stream per service.  Every
  mutation is appended *before* local state changes (WAL discipline), as
  a clock-stamped :class:`JournalEntry` whose payload is forced through a
  JSON round-trip so only plain, replayable data enters the journal.
* Snapshots — :meth:`ServiceJournal.snapshot` captures the full durable
  state and truncates the entries it makes redundant; recovery is
  "load snapshot, replay the tail".  Append-only state (the audit hash
  chain) is instead snapshotted by :meth:`ServiceJournal.seal_segment`:
  the entries since the last snapshot become one more immutable segment
  beside a small head, so a snapshot costs the entries it truncates,
  not the whole history.
* Fencing epochs — the journal tracks the epoch of its single legitimate
  writer.  :meth:`ServiceJournal.acquire_epoch` bumps it (promotion,
  restart); an append presenting a stale epoch raises
  :class:`~repro.errors.EpochFenced`, so a deposed primary cannot commit
  new tokens or certificates even if it is still running (split-brain
  safety at the durable store, the same way etcd/raft fencing works).
* The vault — signing keys are *not* serialized into the journal; real
  deployments keep them in a KMS/HSM that survives pod restarts.
  :meth:`ServiceJournal.seal` / :meth:`ServiceJournal.unseal` model that:
  key objects are stashed by reference and re-adopted on recovery, so a
  recovered (or promoted) issuer signs with the same key material and
  every pinned public key or captured JWKS stays valid.

:class:`Durable` is the mixin services implement: ``durable_state`` /
``load_state`` / ``apply_entry`` / ``wipe_state`` plus optional key and
invariant hooks.  ``recover()`` replays snapshot+journal, charges a
deterministic simulated replay cost, re-acquires the fencing epoch and
runs the service's invariant checks (:class:`~repro.errors.RecoveryError`
on violation).  ``state_hash()`` is a canonical-JSON sha256 of the
durable state — the determinism/idempotence tests compare these across
repeated replays.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigurationError, EpochFenced, RecoveryError

__all__ = [
    "JournalEntry",
    "ServiceJournal",
    "DurabilityStore",
    "Durable",
    "RecoveryReport",
    "REPLAY_COST_PER_ENTRY",
    "RESTART_COST",
]

# deterministic simulated cost of a recovery: a fixed process-restart
# charge plus a per-entry replay charge (the clock advances by this much
# inside recover(), so "bounded recovery time" is measurable and real)
RESTART_COST = 0.005
REPLAY_COST_PER_ENTRY = 0.0002


def _dumps(data) -> str:
    """Serialize ``data`` for the journal.

    This is the journal's admission filter: only plain, deterministic,
    replayable values get in.  Live objects (keys, sockets, services)
    fail loudly here rather than silently pickling state that could not
    exist on a recovering node.
    """
    try:
        return json.dumps(data, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"journal payload is not JSON-serializable: {exc}"
        ) from exc


def _jsonable(data):
    """Force ``data`` through a JSON round-trip (see :func:`_dumps`)."""
    return json.loads(_dumps(data))


def _items(state: Dict[str, object]) -> int:
    """Records in a snapshot: one per element of each top-level list or
    dict, one per top-level scalar."""
    return sum(len(v) if isinstance(v, (list, dict)) else 1
               for v in state.values())


@dataclass(frozen=True)
class JournalEntry:
    """One committed mutation: (sequence, time, writer epoch, kind, data)."""

    seq: int
    time: float
    epoch: int
    kind: str
    data: Dict[str, object]


class ServiceJournal:
    """A single service's write-ahead stream inside a :class:`DurabilityStore`.

    ``snapshot_items`` and ``snapshot_bytes`` total the records and the
    serialized bytes every snapshot so far captured: a deterministic
    measure of snapshot work that, unlike wall time, a test can bound.
    """

    def __init__(self, store: "DurabilityStore", name: str) -> None:
        self.store = store
        self.name = name
        self._entries: List[JournalEntry] = []
        self._entry_bytes = 0  # serialized size of the pending entries
        self._snapshot: Optional[Dict[str, object]] = None
        # append-only state: the list under this key of the snapshot is
        # held as sealed segments of journaled entries' data
        self._sealed_key: Optional[str] = None
        self._segments: List[Tuple[Dict[str, object], ...]] = []
        self._snapshot_seq = 0
        self._seq = 0
        self._epoch = 0
        self._vault: Dict[str, object] = {}
        self.appends = 0
        self.snapshots = 0
        self.snapshot_items = 0
        self.snapshot_bytes = 0
        self.fenced_appends = 0

    # ------------------------------------------------------------- epochs
    @property
    def epoch(self) -> int:
        """Epoch of the journal's current legitimate writer."""
        return self._epoch

    def acquire_epoch(self) -> int:
        """Become the journal's writer; every previous holder is fenced."""
        self._epoch += 1
        return self._epoch

    # ------------------------------------------------------------- writes
    def append(self, kind: str, data: Dict[str, object], *,
               epoch: Optional[int] = None) -> JournalEntry:
        """Commit one mutation.  ``epoch`` is the writer's fencing epoch;
        presenting a stale one raises :class:`EpochFenced` (and nothing
        is written — the deposed writer's mutation never happened)."""
        if epoch is not None and epoch != self._epoch:
            self.fenced_appends += 1
            raise EpochFenced(
                f"journal {self.name!r}: writer epoch {epoch} is fenced "
                f"(current epoch is {self._epoch})"
            )
        text = _dumps(data)
        # sealed segments keep entries' data for the life of the journal:
        # share the field names, which every decode would allocate anew
        data = {sys.intern(k): v for k, v in json.loads(text).items()}
        self._seq += 1
        entry = JournalEntry(
            seq=self._seq, time=self.store.clock.now(),
            epoch=self._epoch, kind=kind, data=data,
        )
        self._entries.append(entry)
        self._entry_bytes += len(text)
        self.appends += 1
        return entry

    def snapshot(self, state: Dict[str, object], *,
                 sealed_key: Optional[str] = None) -> None:
        """Capture the full durable state; truncate the entries it covers.

        ``sealed_key`` names an append-only list in ``state`` (see
        :meth:`Durable.append_only`): it becomes the first segment that
        later :meth:`seal_segment` calls extend.
        """
        text = _dumps(state)
        snap = json.loads(text)
        items = _items(snap)
        self._sealed_key = sealed_key
        self._segments = [tuple(snap.pop(sealed_key))] if sealed_key else []
        self._commit(snap, items, len(text))

    def seal_segment(self, key: str, head: Dict[str, object]) -> None:
        """Snapshot append-only state: seal the pending entries' data as
        one more segment of the list under ``key``, next to the previous
        segments and the new ``head`` (the rest of the state).

        The entries' data was made JSON-safe when it was appended, so the
        segment shares those dicts rather than copying them, and the cost
        is the entries truncated, not the whole list.
        """
        if key != self._sealed_key:
            raise ConfigurationError(
                f"journal {self.name!r}: no sealed baseline for {key!r}")
        text = _dumps(head)
        snap = json.loads(text)
        self._segments.append(tuple(e.data for e in self._entries))
        self._commit(snap, len(self._entries) + _items(snap),
                     self._entry_bytes + len(text))

    def _commit(self, snap: Dict[str, object], items: int, nbytes: int) -> None:
        self._snapshot = snap
        self._snapshot_seq = self._seq
        self._entries = []
        self._entry_bytes = 0
        self.snapshots += 1
        self.snapshot_items += items
        self.snapshot_bytes += nbytes

    # -------------------------------------------------------------- reads
    def load(self) -> Tuple[Optional[Dict[str, object]], List[JournalEntry]]:
        """(snapshot-or-None, entries newer than the snapshot), copied.
        A sealed list comes back whole, in its canonical place."""
        if self._snapshot is None:
            return None, list(self._entries)
        snap = dict(self._snapshot)
        if self._sealed_key is not None:
            snap[self._sealed_key] = [d for seg in self._segments for d in seg]
        return copy.deepcopy(snap), list(self._entries)

    @property
    def snapshot_seq(self) -> int:
        return self._snapshot_seq

    def pending_entries(self) -> int:
        """Entries accumulated since the last snapshot."""
        return len(self._entries)

    # -------------------------------------------------------------- vault
    def seal(self, name: str, obj: object) -> None:
        """Stash key material (KMS/HSM model — survives any crash)."""
        self._vault[name] = obj

    def unseal(self, name: str) -> Optional[object]:
        return self._vault.get(name)


class DurabilityStore:
    """The deployment's durable store: one journal stream per service."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        # optional repro.telemetry.Telemetry (duck-typed to avoid an
        # import cycle): recoveries report themselves here when set
        self.telemetry = None
        self._streams: Dict[str, ServiceJournal] = {}

    def stream(self, name: str) -> ServiceJournal:
        if name not in self._streams:
            self._streams[name] = ServiceJournal(self, name)
        return self._streams[name]

    def streams(self) -> Dict[str, ServiceJournal]:
        return dict(self._streams)

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "appends": j.appends,
                "snapshots": j.snapshots,
                "snapshot_items": j.snapshot_items,
                "snapshot_bytes": j.snapshot_bytes,
                "pending": j.pending_entries(),
                "fenced": j.fenced_appends,
                "epoch": j.epoch,
            }
            for name, j in sorted(self._streams.items())
        }


@dataclass
class RecoveryReport:
    """What one ``recover()`` did, for benches and invariant checks."""

    service: str
    snapshot_seq: int
    entries_replayed: int
    epoch: int
    recovered_at: float
    duration: float
    state_hash: str


class Durable:
    """Mixin for services that journal their mutations.

    Subclasses implement the four-method contract below; the mixin
    provides attach/adopt, the WAL publish helper, ``recover()`` and the
    canonical state hash.  ``_jpublish`` must be called *before* the
    corresponding in-memory mutation so that a fenced writer aborts
    without having changed anything (write-ahead discipline).
    """

    journal: Optional[ServiceJournal] = None
    fencing_epoch: int = 0
    snapshot_every: int = 256  # snapshot cadence, in journal entries

    # --------------------------------------------------- subclass contract
    def durable_state(self) -> Dict[str, object]:
        """Full JSON-safe durable state (keys excluded — they are vaulted)."""
        raise NotImplementedError

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore from a ``durable_state()`` snapshot (called after wipe)."""
        raise NotImplementedError

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        """Replay one journal entry against current state."""
        raise NotImplementedError

    def wipe_state(self) -> None:
        """Crash semantics: drop all in-memory state.  Key material is
        NOT destroyed — it lives in the KMS-modelled vault."""
        raise NotImplementedError

    def append_only(self) -> Optional[Tuple[str, Dict[str, object]]]:
        """``(key, head)`` when the durable state is append-only: the list
        under ``key`` in ``durable_state()`` grows by exactly one element
        per journal entry, equal to that entry's data, and ``head`` is
        the rest of the state.  Snapshots then seal the entries since the
        last one instead of serializing the list again.  ``None`` (the
        default): every snapshot captures ``durable_state()`` in full."""
        return None

    def seal_keys(self, journal: ServiceJournal) -> None:
        """Stash key objects into the vault at attach time (optional)."""

    def adopt_keys(self, journal: ServiceJournal) -> None:
        """Re-adopt vaulted key objects during recovery (optional)."""

    def verify_recovery(self, report: RecoveryReport) -> None:
        """Service-specific invariants; raise :class:`RecoveryError`."""

    # ------------------------------------------------------------- attach
    def attach_journal(self, journal: ServiceJournal) -> None:
        """Become the journal's writer and baseline-snapshot current state
        (covers mutations made during construction, before attach)."""
        self.journal = journal
        self.fencing_epoch = journal.acquire_epoch()
        self.seal_keys(journal)
        sealed = self.append_only()
        journal.snapshot(self.durable_state(),
                         sealed_key=sealed[0] if sealed else None)

    def adopt_journal(self, journal: ServiceJournal) -> None:
        """Follow a journal *without* becoming its writer (a standby).
        The adopter stays fenced (epoch 0) until promotion calls
        ``recover()``, which acquires a fresh epoch."""
        self.journal = journal
        self.fencing_epoch = 0

    # ------------------------------------------------------------ publish
    def _jpublish(self, kind: str, /, **data: object) -> None:
        """WAL append for one mutation; no-op when not journaled."""
        if self.journal is None:
            return
        self.journal.append(kind, data, epoch=self.fencing_epoch)
        if self.journal.pending_entries() >= self.snapshot_every:
            sealed = self.append_only()
            if sealed is None:
                self.journal.snapshot(self.durable_state())
            else:
                self.journal.seal_segment(*sealed)

    # ------------------------------------------------------------ recover
    def recover(self, *, acquire_epoch: bool = True) -> RecoveryReport:
        """Rebuild state from snapshot + journal tail.

        ``acquire_epoch=True`` (a restart or a promotion) makes this
        instance the journal's legitimate writer, fencing any deposed
        predecessor.  ``acquire_epoch=False`` is a read-only replay — a
        crashed ex-primary rejoining as standby uses it, so it catches
        up without stealing the epoch back.
        """
        if self.journal is None:
            raise ConfigurationError(
                f"{getattr(self, 'name', type(self).__name__)} has no journal "
                "attached; cannot recover"
            )
        clock = self.journal.store.clock
        started = clock.now()
        snap, entries = self.journal.load()
        self.wipe_state()
        self.adopt_keys(self.journal)
        if snap is not None:
            self.load_state(snap)
        for entry in entries:
            self.apply_entry(entry.kind, copy.deepcopy(entry.data))
        if acquire_epoch:
            self.fencing_epoch = self.journal.acquire_epoch()
        clock.advance(RESTART_COST + REPLAY_COST_PER_ENTRY * len(entries))
        report = RecoveryReport(
            service=getattr(self, "name", self.journal.name),
            snapshot_seq=self.journal.snapshot_seq,
            entries_replayed=len(entries),
            epoch=self.fencing_epoch,
            recovered_at=clock.now(),
            duration=clock.now() - started,
            state_hash=self.state_hash(),
        )
        self.verify_recovery(report)
        telemetry = getattr(self.journal.store, "telemetry", None)
        if telemetry is not None:
            telemetry.record_recovery(report, started=started)
        return report

    # --------------------------------------------------------------- hash
    def state_hash(self) -> str:
        """Canonical sha256 over the durable state (replay determinism)."""
        canon = json.dumps(
            _jsonable(self.durable_state()),
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode()).hexdigest()


def install(dri) -> DurabilityStore:
    """Journal the stateful control plane into one durability store.

    Turned on by ``build_isambard(durability=True)`` (and implied by
    ``failover`` and ``regions``): the broker, the last-resort IdP, the
    SSH CA, the portal, the per-domain audit log stores and the SIEM
    forwarders commit every mutation to write-ahead journals in a shared
    :class:`DurabilityStore`; ``dri.crash(name)`` / ``dri.restart(name)``
    then model pod kills with lossless recovery.  Signing keys stay in
    the store's KMS-modelled vault, never in the journal.  Journals
    attach *after* construction, so every build-time registration
    (clients, upstreams, host certificates) lands in the baseline
    snapshot.
    """
    store = DurabilityStore(dri.clock)
    store.telemetry = dri.telemetry
    for domain, log in dri.logs.items():
        log.attach_journal(store.stream(f"audit-{domain}"))
    for service in (dri.broker, dri.lastresort, dri.ssh_ca, dri.portal,
                    *dri.forwarders):
        service.attach_journal(store.stream(service.name))
    # sshds consult the CA's journaled issuance registry: a serial a
    # fenced ex-primary signed after deposition was never registered
    for sshd in dri.login_nodes:
        sshd.cert_registry = dri.cert_registered
    dri.durability = store
    return store
