"""The chaos harness's hooked fault kinds: one registry, one scheduler.

Every hook-driven scheduling method on :class:`FaultInjector` looks its
hooks up in one registry and is driven by one scheduler: record the
fault, fire it, and undo it (clearing the fault) after its delay.  The
deployment registers one crash target per stateful component, and each
must come back from a crash to exactly the state it had before.
"""

import random

import pytest

from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import ConfigurationError, ServiceUnavailable
from repro.federation.directory import DirectoryConfig
from repro.resilience import FaultInjector

HOOKED = [
    ("crash", lambda f: f.crash("portal")),
    ("region_down", lambda f: f.region_down("eu")),
    ("region_partition", lambda f: f.region_partition("eu", "us")),
    ("pdp_down", lambda f: f.pdp_down()),
    ("teardown_stuck", lambda f: f.teardown_stuck("ssh")),
    ("revocation_storm", lambda f: f.revocation_storm(3)),
    ("shard_down", lambda f: f.shard_down("accounts", "acct-00")),
    ("metadata_feed_stale", lambda f: f.metadata_feed_stale("ukamf")),
]


@pytest.mark.parametrize("kind,schedule", HOOKED, ids=[k for k, _ in HOOKED])
def test_hooked_fault_without_hooks_names_its_kind(kind, schedule):
    faults = FaultInjector(SimClock(), random.Random(1))
    with pytest.raises(ConfigurationError, match=kind):
        schedule(faults)
    assert faults.faults == [] and not faults.fired


def test_hooks_fire_and_undo_through_one_registry():
    clock = SimClock()
    faults = FaultInjector(clock, random.Random(1))
    calls = []
    faults.register_hooks("shard_down",
                          lambda tier, shard: calls.append(("down", shard)),
                          lambda tier, shard: calls.append(("up", shard)))
    fault = faults.shard_down("accounts", "acct-01", at=2.0, restore_after=3.0)
    assert faults.faults == [fault] and calls == []  # recorded before firing
    clock.advance(2.0)
    assert calls == [("down", "acct-01")] and faults.fired["shard_down"] == 1
    assert fault in faults.active_faults()
    clock.advance(3.0)
    assert calls[-1] == ("up", "acct-01")
    assert fault.cleared and fault.duration == 3.0


def test_crash_fault_ends_when_the_service_restarts():
    """A crash fault stops counting traffic once its endpoint is back,
    whether the restart was scheduled or explicit."""
    dri = build_isambard(seed=5, durability=True, telemetry=False)
    scheduled = dri.faults.crash("portal", restart_after=1.0)
    dri.clock.advance(5.0)
    assert dri.workflows.story1_pi_onboarding("pi").ok
    assert scheduled not in dri.faults.active_faults()
    assert scheduled.cleared and scheduled.duration == 1.0
    assert (scheduled.hits, scheduled.offers) == (1, 1)

    explicit = dri.faults.crash("portal")
    assert explicit in dri.faults.active_faults()
    dri.restart("portal")
    assert dri.workflows.story1_pi_onboarding("pi2").ok
    assert explicit not in dri.faults.active_faults()
    assert (explicit.hits, explicit.offers) == (1, 1)


def _component(dri, name):
    if name == "broker":
        return dri.broker
    if name == "authz":
        return dri.authz.pipeline
    if name.startswith("audit-"):
        return dri.logs[name[len("audit-"):]]
    if name.startswith("fw-"):
        return next(fw for fw in dri.forwarders if fw.name == name)
    if name.startswith("dir-"):
        shard = name[len("dir-"):]
        for tier in (dri.directory.accounts, dri.directory.metadata):
            if shard in tier.shards:
                return tier.shards[shard]
    return dri.network.endpoint(name).service


def test_every_crash_target_recovers_its_pre_crash_state():
    dri = build_isambard(
        seed=7, durability=True, scale=True, authz=True,
        directory=DirectoryConfig(account_shards=2, metadata_shards=2))
    assert dri.broker_pool is not None  # the broker runs in pool mode
    assert dri.workflows.story1_pi_onboarding("pi").ok
    dri.ship_logs()

    shards = [f"dir-{s}" for tier in (dri.directory.accounts,
                                      dri.directory.metadata)
              for s in sorted(tier.shards)]
    expected = (["portal", "ssh-ca", "idp-lastresort", "broker"]
                + [f"audit-{d}" for d in dri.logs]
                + [fw.name for fw in dri.forwarders]
                + ["authz"] + shards)
    assert len(shards) == 4
    registered = sorted(t for kind, t in dri.faults._hooks if kind == "crash")
    assert registered == sorted(expected)

    for name in expected:
        component = _component(dri, name)
        before = component.state_hash()
        dri.crash(name)
        report = dri.restart(name)
        assert report is not None, name
        assert component.state_hash() == before, f"{name}: replay diverged"
    assert all(dri.network.endpoint(r).up for r in dri.broker_pool.replicas())
    assert dri.network.endpoint("broker-origin").up
    assert dri.workflows.story1_pi_onboarding("pi2").ok


@pytest.mark.parametrize("retain", [True, False], ids=["retain", "legacy"])
def test_forwarder_crash_after_a_failed_flush_keeps_its_counters(retain):
    """A failed flush changes the forwarder's state without a journaled
    record: the legacy mode loses the batch, and either mode counts a
    sink failure.  A crash right after must come back to that state."""
    dri = build_isambard(seed=9, durability=True, telemetry=False)
    wf = dri.workflows
    fw = _component(dri, "fw-fds")
    fw.retain_on_failure = retain
    assert wf.story1_pi_onboarding("pi").ok
    dri.ship_logs()                      # one good flush: shipped > 0
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    assert fw.buffered() > 0

    sink = fw.sink

    def soc_down(batch):
        raise ServiceUnavailable("soc unreachable")

    fw.sink = soc_down
    assert fw.flush() == 0
    fw.sink = sink
    # records accepted after the failure sit in the journal tail
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok

    before = (fw.durable_state(), fw.sink_failures)
    assert before[0]["shipped"] > 0 and before[1] == 1
    assert (before[0]["lost"] > 0) == (not retain)
    dri.crash("fw-fds")
    assert fw.buffered() == 0 and fw.shipped == 0     # the crash bit
    assert dri.restart("fw-fds") is not None
    assert (fw.durable_state(), fw.sink_failures) == before
