"""Sealed snapshots of the journaled audit chain.

An :class:`AuditLog` declares its state append-only, so its journal
snapshots seal the events since the last snapshot as one segment next to
the chain head, instead of serializing the whole trail again.  Tested
here:

* snapshot work per event stays flat as the trail grows (a full
  snapshot's work grows with the trail, so the total is quadratic);
* sealed snapshots share the journaled entries' data, never copy it;
* a seeded differential run against a reference log that snapshots in
  full: through repeated crash -> recover -> emit cycles, with crash
  points on both sides of several snapshot boundaries, both logs recover
  the same state, chain, head, snapshot sequence and replay length.
"""

import random

import pytest

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import ConfigurationError
from repro.resilience.durability import DurabilityStore

pytestmark = pytest.mark.durability

CADENCE = AuditLog.snapshot_every


class FullSnapshotLog(AuditLog):
    """Reference: the same log, snapshotted in full every time."""

    def append_only(self):
        return None


def journaled(cls=AuditLog, *, before: int = 0, rng=None):
    """A log with ``before`` events emitted before its journal attaches
    (they land in the attach-time baseline)."""
    log = cls("audit-test")
    for i in range(before):
        emit(log, i, rng)
    store = DurabilityStore(SimClock())
    log.attach_journal(store.stream(log.name))
    return log, store.stream(log.name)


def emit(log, i: int, rng=None) -> None:
    """Event ``i``; with ``rng``, attrs vary in shape (tuples and sets
    are coerced to plain data on emission)."""
    attrs = {"n": i}
    if rng is not None:
        attrs.update(rng.choice((
            {}, {"path": ("a", i)}, {"nested": {"k": [i, i / 3]}},
            {"set": frozenset({"gpu"})}, {"note": "é" * (i % 5)},
        )))
    log.record(i * 0.5, "broker", f"u{i % 7}", "token.issue", f"jti-{i}",
               Outcome.ALL[i % len(Outcome.ALL)], domain="fds", **attrs)


# ----------------------------------------------------------------------
# cost: snapshot work per event is flat in the length of the trail
# ----------------------------------------------------------------------
def test_snapshot_work_per_event_stays_flat_from_1k_to_5k_events():
    log, journal = journaled()
    window = 4 * CADENCE          # each window holds exactly four snapshots
    n = 0
    per_event = []
    while n < 5 * window:
        items, nbytes = journal.snapshot_items, journal.snapshot_bytes
        for _ in range(window):
            emit(log, n)
            n += 1
        if n > window:            # windows from ~1k to ~5k events
            per_event.append(((journal.snapshot_items - items) / window,
                              (journal.snapshot_bytes - nbytes) / window))
    first_items, first_bytes = per_event[0]
    for items, nbytes in per_event[1:]:
        assert items == pytest.approx(first_items)
        assert nbytes <= 1.05 * first_bytes
    # a sealed snapshot's records are the entries it truncates plus the head
    assert first_items == pytest.approx((CADENCE + 1) / CADENCE)
    stats = journal.store.stats()[log.name]
    assert stats["snapshot_items"] == journal.snapshot_items
    assert stats["snapshot_bytes"] == journal.snapshot_bytes


def test_sealed_segments_share_the_journaled_entries():
    log, journal = journaled()
    for i in range(CADENCE - 1):
        emit(log, i)
    pending = [e.data for e in journal.load()[1]]
    emit(log, CADENCE - 1)        # the cadence-th entry seals a segment
    assert journal.pending_entries() == 0
    segment = journal._segments[-1]
    assert len(segment) == CADENCE
    assert all(a is b for a, b in zip(segment, pending))
    # what recovery loads is a copy, not the sealed data itself
    snap, _ = journal.load()
    assert snap["events"][0] == segment[0]
    assert snap["events"][0] is not segment[0]


def test_sealing_without_a_sealed_baseline_is_refused():
    log, journal = journaled(FullSnapshotLog)
    with pytest.raises(ConfigurationError):
        journal.seal_segment("events", {"head": log._head})


# ----------------------------------------------------------------------
# correctness: differential against the full-snapshot reference
# ----------------------------------------------------------------------
def crash_and_recover(log):
    """The deployment's crash hook: the store goes down and loses its
    trail, emits meanwhile are lost, then it restarts from the journal."""
    log.down = True
    log.wipe_state()
    emit(log, -1)                 # fired into the void while down
    log.down = False
    return log.recover()


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_sealed_and_full_snapshots_recover_identically(seed):
    rng = random.Random(seed)
    before = rng.randrange(0, 40)
    sealed, sealed_j = journaled(before=before, rng=random.Random(seed))
    full, full_j = journaled(FullSnapshotLog, before=before,
                             rng=random.Random(seed))
    n = before
    # (snapshots taken, entries the preceding recovery replayed) per cycle
    cycles = []
    replayed = None
    for cycle in range(8):
        # crash points fall on either side of the snapshot boundaries,
        # some cycles crossing several of them; the first cycle crosses
        # at least one, so it takes the first snapshot after the baseline
        burst = rng.randrange(CADENCE, 3 * CADENCE)
        if cycle and rng.random() < 0.5:
            burst = rng.randrange(1, CADENCE)
        taken = sealed_j.snapshots
        for _ in range(burst):
            emit(sealed, n, random.Random(n))
            emit(full, n, random.Random(n))
            n += 1
        cycles.append((sealed_j.snapshots - taken, replayed))
        assert sealed_j.snapshots == full_j.snapshots
        pre_crash = sealed.state_hash()
        assert full.state_hash() == pre_crash

        got, want = crash_and_recover(sealed), crash_and_recover(full)
        assert got.state_hash == want.state_hash == pre_crash
        assert got.snapshot_seq == want.snapshot_seq
        assert got.entries_replayed == want.entries_replayed
        assert sealed._head == full._head == sealed.events()[-1].digest
        assert sealed.verify_chain() == full.verify_chain() == (True, None)
        assert len(sealed) == len(full) == n
        assert sealed.lost_while_down == full.lost_while_down == cycle + 1
        replayed = got.entries_replayed
    assert cycles[0][0] > 0
    # a snapshot sealed right after a recovery that replayed a journal
    # tail (the recovered trail mixes loaded and replayed events)
    assert any(taken and replayed for taken, replayed in cycles[1:])
    # the sealed journal did strictly less snapshot work
    assert sealed_j.snapshot_items < full_j.snapshot_items
