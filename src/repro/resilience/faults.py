"""Deterministic fault injection for the simulated network (chaos harness).

The paper's availability claims — HA bastions patched live (ABL4),
kill-switch containment under attack (ABL3), 45 simultaneous workshop
logins (§IV.B) — are only meaningful if the control plane can be driven
through *adversity*.  :class:`FaultInjector` is the seam: the deployment
hands one to :class:`~repro.net.network.Network`, and every message that
passes segmentation and transport policy is then offered to the injector,
which may fail it or slow it down.

Faults are windows on the shared :class:`~repro.clock.SimClock` and all
randomness comes from an injected ``random.Random``, so a chaos run is
bit-for-bit reproducible from its seed — the same property the rest of
the simulation guarantees.

Supported fault kinds (per endpoint, or per (domain, zone) flow):

* **outage** — every message to the endpoint fails;
* **brownout** — each message fails independently with probability *p*;
* **latency spike** — messages are delivered but cost extra simulated time;
* **flap** — the endpoint cycles up/down with a fixed period;
* **partition** — traffic between two (domain, zone) locations fails in
  both directions, regardless of endpoint health;
* **crash** — process death with state loss: the endpoint goes down AND
  its in-memory state is wiped (via a hook the deployment registers), so
  recovery exercises the durability layer instead of resuming silently;
* **region_down** — a whole deployment region dies at once: every replica
  endpoint goes down and the region journal is fenced, via hooks the
  multi-region deployment registers (see :mod:`repro.region`);
* **region partition** — inter-region replication and cross-region
  routing are severed both ways between two named regions, with a
  deterministic heal that flushes queued replication in publish order;
* **pdp_down** — the policy decision point goes unreachable; guarded
  surfaces ride the staleness bound, then fail closed;
* **teardown_stuck** — one enforcement surface stops confirming
  revocations until the fault clears (the pipeline retries converge it);
* **revocation_storm** — a burst of duplicate revocations lands on the
  pipeline at one instant (coalescing keeps it from amplifying);
* **shard_down** — one directory shard (accounts or metadata tier) goes
  down; lookups whose keys hash to it fail closed while every other
  shard keeps serving;
* **metadata_feed_stale** — a federation registrar's feed stops
  publishing; cached entries serve until their validity window lapses,
  then logins through them fail closed.

The kinds from **crash** on are hook-driven: the tier that owns the state
registers a fire/undo pair with :meth:`FaultInjector.register_hooks`, and
one scheduler records, fires and undoes every one of them.

Injected failures raise :class:`~repro.errors.FaultInjected`, a subclass
of :class:`~repro.errors.ServiceUnavailable` — clients cannot tell chaos
from a real outage, which is the point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigurationError, FaultInjected

__all__ = ["Fault", "FaultInjector"]

# fault kinds
OUTAGE = "outage"
BROWNOUT = "brownout"
LATENCY = "latency"
FLAP = "flap"
PARTITION = "partition"
CRASH = "crash"
REGION_DOWN = "region_down"
# hook kind of an inter-region partition (its Fault record is a PARTITION)
REGION_PARTITION = "region_partition"
# a persistently slow-but-alive replica: the canonical gray failure.
# Mechanically a latency fault, but a distinct kind so chaos reports can
# tell a transient network spike from a sick instance
SLOW_REPLICA = "slow_replica"
# continuous-authorization fault kinds (hooks registered by the authz
# deployment tier): the policy decision point goes unreachable, one
# enforcement surface's teardown wedges, or a burst of duplicate
# revocations lands on the pipeline at once
PDP_DOWN = "pdp_down"
TEARDOWN_STUCK = "teardown_stuck"
REVOCATION_STORM = "revocation_storm"
# federation-directory fault kinds (hooks registered by the directory
# tier): one shard of the sharded account/metadata stores goes down, or
# a federation registrar's metadata feed stops publishing
SHARD_DOWN = "shard_down"
METADATA_FEED_STALE = "metadata_feed_stale"


@dataclass
class Fault:
    """One scheduled perturbation.  ``duration=None`` means "until cleared"."""

    kind: str
    endpoint: Optional[str]
    start: float
    duration: Optional[float] = None
    probability: float = 1.0          # brownout failure probability
    extra_latency: float = 0.0        # latency-spike cost per message
    period: float = 0.0               # flap cycle length
    up_fraction: float = 0.5          # fraction of each flap period spent up
    # partition locations as (domain, zone) with zone None = whole domain
    loc_a: Optional[Tuple[object, object]] = None
    loc_b: Optional[Tuple[object, object]] = None
    hits: int = 0                     # messages this fault failed or slowed
    offers: int = 0                   # messages consulted while active —
                                      # satellite fix: brownout/flap only
                                      # counted hits on the messages they
                                      # failed, hiding how much traffic
                                      # rode through the window unscathed
    cleared: bool = False

    def active(self, now: float) -> bool:
        if self.cleared or now < self.start:
            return False
        return self.duration is None or now < self.start + self.duration

    def clear(self) -> None:
        self.cleared = True


def _loc_matches(loc: Tuple[object, object], domain, zone) -> bool:
    want_domain, want_zone = loc
    return domain == want_domain and (want_zone is None or zone == want_zone)


class FaultInjector:
    """The chaos controller: schedule faults, perturb messages.

    Parameters
    ----------
    clock:
        Shared simulated clock; fault windows are measured on it.
    rng:
        Dedicated ``random.Random`` for brownout draws.  Give the injector
        its *own* seeded instance (not the deployment's ``IdFactory`` rng)
        so enabling chaos does not shift identifier/secret generation.
    fail_cost:
        Simulated seconds a failed message costs the caller (the connect
        timeout it burns discovering the fault).
    """

    def __init__(self, clock: SimClock, rng, *, fail_cost: float = 0.025) -> None:
        self.clock = clock
        self.rng = rng
        self.fail_cost = fail_cost
        self.faults: List[Fault] = []
        self.injected_failures = 0
        self.injected_latency = 0.0
        self.failures_by_endpoint: Dict[str, int] = {}
        # (kind, target) -> (fire_fn, undo_fn), registered by the tiers
        # that know how to break and mend what they built
        self._hooks: Dict[Tuple[str, Optional[str]],
                          Tuple[Callable, Optional[Callable]]] = {}
        # hooked kind -> how many of its faults have fired
        self.fired: Counter = Counter()
        # region -> callable returning the region's current replica
        # endpoint names, so gray_region() can fan a slow_replica fault
        # over whatever the fleet looks like when it is scheduled
        self._region_endpoint_fns: Dict[str, object] = {}
        self.gray_regions = 0

    # ------------------------------------------------------------------
    # hooks: how the deployment teaches the injector to break things
    # ------------------------------------------------------------------
    def register_hooks(self, kind: str, fire_fn: Callable,
                       undo_fn: Optional[Callable] = None, *,
                       target: Optional[str] = None) -> None:
        """Teach the injector how to inflict (and mend) a hooked fault.

        ``kind`` is the scheduling method's name; ``target`` keys hooks
        that differ per instance (crash endpoints, regions).  The hooks
        receive the scheduling method's arguments:

        * ``crash`` (per endpoint) — fire takes the endpoint down and
          wipes its in-memory state; undo brings it back (recovering
          from the journal if durable, cold and empty otherwise);
        * ``region_down`` (per region) — fire takes every replica in
          the region down and fences its journal epoch; undo brings it
          back under a fresh epoch, caches flushed, revocations resynced;
        * ``region_partition`` — both take ``(region_a, region_b)``;
          fire cuts bus replication and cross-region routing both ways,
          undo restores them and flushes parked replication in order;
        * ``pdp_down`` — undo must also re-heartbeat the guards and
          re-drive anything the pipeline left pending;
        * ``teardown_stuck`` — both take the surface name;
        * ``revocation_storm`` — fire takes ``count``, fires that many
          revocations across identities with live grants and returns
          how many it fired (the pipeline coalesces duplicates);
        * ``shard_down`` — both take ``(tier, shard)``: tier is
          ``"accounts"`` or ``"metadata"``, shard e.g. ``"acct-03"``;
        * ``metadata_feed_stale`` — both take the feed name.
        """
        self._hooks[(kind, target)] = (fire_fn, undo_fn)

    def register_crash_target(self, name: str, get: Callable[[], object],
                              set_up: Callable[[bool], None],
                              fleet: Optional[Callable[[bool], None]] = None
                              ) -> None:
        """Register the ``crash`` hooks for one component.

        Crash takes it down (``set_up(False)``), wipes ``get()``'s
        in-memory state, then downs the ``fleet`` it fronts.  Restart
        replays its journal when it has one, brings it back up, then the
        fleet, and returns the RecoveryReport (None when unjournaled).
        ``get`` is resolved per call, so a standby that took over the
        component is the one crashed."""
        def crash_fn() -> None:
            set_up(False)
            get().wipe_state()
            if fleet is not None:
                fleet(False)

        def restart_fn():
            target = get()
            report = (target.recover()
                      if getattr(target, "journal", None) is not None
                      else None)
            set_up(True)
            if fleet is not None:
                fleet(True)
            return report

        self.register_hooks("crash", crash_fn, restart_fn, target=name)

    def hooks(self, kind: str, target: Optional[str] = None
              ) -> Tuple[Callable, Optional[Callable]]:
        """The ``(fire_fn, undo_fn)`` registered for ``kind``/``target``."""
        try:
            return self._hooks[(kind, target)]
        except KeyError:
            where = "" if target is None else f" for {target!r}"
            raise ConfigurationError(
                f"no {kind} hooks registered{where}") from None

    def _schedule(self, kind: str, fault: Fault, *args,
                  target: Optional[str] = None) -> Fault:
        """Record ``fault``, fire ``kind``'s hook with ``args`` at
        ``fault.start``, and — when ``fault.duration`` is set — run the
        undo hook that many seconds later and clear the fault."""
        fire_fn, undo_fn = self.hooks(kind, target)
        self._add(fault)

        def _fire() -> None:
            if fault.cleared:
                return
            self.fired[kind] += 1
            if kind == REVOCATION_STORM:
                # a storm offers `count` revocations; hits are the ones fired
                fault.hits += int(fire_fn(*args))
                fault.offers += args[0]
                return
            fault.hits += 1
            fault.offers += 1
            fire_fn(*args)

        if fault.start <= self.clock.now():
            _fire()
        else:
            self.clock.call_at(fault.start, _fire)
        if fault.duration is not None:
            def _undo() -> None:
                undo_fn(*args)
                fault.clear()
            self.clock.call_at(fault.start + fault.duration, _undo)
        return fault

    # ------------------------------------------------------------------
    # scheduling faults
    # ------------------------------------------------------------------
    def _add(self, fault: Fault) -> Fault:
        self.faults.append(fault)
        return fault

    def _start(self, at: Optional[float]) -> float:
        return self.clock.now() if at is None else at

    def outage(self, endpoint: str, *, start: Optional[float] = None,
               duration: Optional[float] = None) -> Fault:
        """Hard-down window for ``endpoint``."""
        return self._add(Fault(OUTAGE, endpoint, self._start(start), duration))

    def brownout(self, endpoint: str, probability: float, *,
                 start: Optional[float] = None,
                 duration: Optional[float] = None) -> Fault:
        """Each message to ``endpoint`` fails with ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"brownout probability must be in [0, 1], got {probability}")
        return self._add(Fault(BROWNOUT, endpoint, self._start(start),
                               duration, probability=probability))

    def latency_spike(self, endpoint: str, extra: float, *,
                      start: Optional[float] = None,
                      duration: Optional[float] = None) -> Fault:
        """Messages to ``endpoint`` cost ``extra`` additional seconds."""
        if extra < 0:
            raise ConfigurationError(f"extra latency must be >= 0, got {extra}")
        return self._add(Fault(LATENCY, endpoint, self._start(start),
                               duration, extra_latency=extra))

    def slow_replica(self, endpoint: str, extra: float, *,
                     start: Optional[float] = None,
                     duration: Optional[float] = None) -> Fault:
        """Make one replica *gray*: alive, serving, but ``extra`` seconds
        slower per message.  Nothing hard-fails, so breakers and health
        checks stay green — only the tail-tolerance layer notices."""
        if extra <= 0:
            raise ConfigurationError(
                f"slow_replica extra latency must be > 0, got {extra}")
        return self._add(Fault(SLOW_REPLICA, endpoint, self._start(start),
                               duration, extra_latency=extra))

    def flap(self, endpoint: str, period: float, *, up_fraction: float = 0.5,
             start: Optional[float] = None,
             duration: Optional[float] = None) -> Fault:
        """``endpoint`` cycles: up for ``up_fraction`` of each ``period``,
        then down for the remainder."""
        if period <= 0 or not 0.0 <= up_fraction <= 1.0:
            raise ConfigurationError("flap needs period > 0 and up_fraction in [0, 1]")
        return self._add(Fault(FLAP, endpoint, self._start(start), duration,
                               period=period, up_fraction=up_fraction))

    def partition(self, loc_a: Tuple[object, object], loc_b: Tuple[object, object],
                  *, start: Optional[float] = None,
                  duration: Optional[float] = None) -> Fault:
        """Sever traffic between two (domain, zone) locations, both ways.
        A ``None`` zone matches the whole domain."""
        return self._add(Fault(PARTITION, None, self._start(start), duration,
                               loc_a=tuple(loc_a), loc_b=tuple(loc_b)))

    def crash(self, endpoint: str, *, at: Optional[float] = None,
              restart_after: Optional[float] = None) -> Fault:
        """Kill ``endpoint``'s process: down + state wiped.

        ``at`` schedules the kill for a future instant (it then lands in
        the middle of whatever is in flight — the network re-checks
        endpoint health after the delivery delay, so a request can fail
        *mid-request* against the freshly wiped service).
        ``restart_after`` schedules the restart that many seconds after
        the crash; omit it to leave the service down until the caller
        restarts it explicitly.
        """
        return self._schedule(
            CRASH, Fault(CRASH, endpoint, self._start(at), restart_after),
            target=endpoint)

    # ------------------------------------------------------------------
    # region-scale faults (multi-region deployments register the hooks)
    # ------------------------------------------------------------------
    def region_down(self, region: str, *, at: Optional[float] = None,
                    restore_after: Optional[float] = None) -> Fault:
        """Kill an entire region: every replica down + journal fenced.

        Mirrors :meth:`crash` scheduling: ``at`` defers the kill,
        ``restore_after`` schedules recovery that many seconds later;
        omit it to leave the region down until recovered explicitly.
        """
        return self._schedule(
            REGION_DOWN, Fault(REGION_DOWN, f"region:{region}",
                               self._start(at), restore_after),
            target=region)

    def register_region_endpoints(self, region: str, endpoints_fn) -> None:
        """Teach the injector which replica endpoints make up ``region``
        (``endpoints_fn`` returns the *current* list, so the fan-out
        follows autoscaling)."""
        self._region_endpoint_fns[region] = endpoints_fn

    def gray_region(self, region: str, extra: float, *,
                    start: Optional[float] = None,
                    duration: Optional[float] = None) -> List[Fault]:
        """Turn a whole region *gray*: every replica endpoint currently
        in ``region`` gets a :meth:`slow_replica` fault.  The region
        keeps serving (slowly), its bus keeps replicating, so the lag
        watchdog never fires — only latency-aware routing notices."""
        fn = self._region_endpoint_fns.get(region)
        if fn is None:
            raise ConfigurationError(
                f"no region endpoints registered for region {region!r}")
        self.gray_regions += 1
        return [self.slow_replica(ep, extra, start=start, duration=duration)
                for ep in fn()]

    def region_partition(self, region_a: str, region_b: str, *,
                         at: Optional[float] = None,
                         duration: Optional[float] = None) -> Fault:
        """Sever bus replication and cross-region routing between two
        regions, both ways.  With ``duration`` the heal is scheduled
        deterministically; otherwise call the returned fault's hooks via
        :meth:`heal_region_partition` (or let the deployment heal).
        """
        # loc_a/loc_b are recorded for observability; the "region" marker
        # never equals an OperatingDomain, so perturb() ignores this fault
        return self._schedule(
            REGION_PARTITION,
            Fault(PARTITION, None, self._start(at), duration,
                  loc_a=("region", region_a), loc_b=("region", region_b)),
            region_a, region_b)

    # ------------------------------------------------------------------
    # continuous-authorization faults (the authz tier registers the hooks)
    # ------------------------------------------------------------------
    # Their marker endpoints carry an "authz:" prefix that never matches a
    # real dst name, so perturb() ignores them.
    def pdp_down(self, *, at: Optional[float] = None,
                 restore_after: Optional[float] = None) -> Fault:
        """Make the policy decision point unreachable.

        Enforcement surfaces ride their last good heartbeat for the
        configured staleness bound, then fail closed.  ``restore_after``
        schedules the heal; omit it to leave the PDP down until restored
        explicitly.
        """
        return self._schedule(
            PDP_DOWN, Fault(PDP_DOWN, "authz:pdp", self._start(at),
                            restore_after))

    def teardown_stuck(self, surface: str, *, at: Optional[float] = None,
                       duration: Optional[float] = None) -> Fault:
        """Wedge one enforcement surface: revocations journal and fan out
        everywhere else, but this surface confirms nothing until the
        fault ends (the pipeline's retry loop then converges it)."""
        return self._schedule(
            TEARDOWN_STUCK, Fault(TEARDOWN_STUCK, f"authz:{surface}",
                                  self._start(at), duration),
            surface)

    def revocation_storm(self, count: int, *,
                         at: Optional[float] = None) -> Fault:
        """Land a burst of ``count`` revocation requests on the pipeline
        at one instant — the retry-storm guard and coalescing are what
        keep this from amplifying into N full teardowns."""
        if count <= 0:
            raise ConfigurationError(f"storm count must be > 0, got {count}")
        return self._schedule(
            REVOCATION_STORM,
            Fault(REVOCATION_STORM, "authz:pipeline", self._start(at)),
            count)

    # ------------------------------------------------------------------
    # federation-directory faults (the directory tier registers the hooks)
    # ------------------------------------------------------------------
    # Marker endpoints use "shard:"/"feed:" prefixes that never match a
    # real dst name, so perturb() ignores them.
    def shard_down(self, tier: str, shard: str, *, at: Optional[float] = None,
                   restore_after: Optional[float] = None) -> Fault:
        """Take one directory shard down (state intact, just unreachable).

        Lookups whose keys hash to it raise
        :class:`~repro.errors.ShardUnavailable` — the sharded tier fails
        that key range *closed* rather than guessing.  ``restore_after``
        schedules the heal; omit it to leave the shard down until
        restored explicitly.
        """
        return self._schedule(
            SHARD_DOWN, Fault(SHARD_DOWN, f"shard:{tier}/{shard}",
                              self._start(at), restore_after),
            tier, shard)

    def metadata_feed_stale(self, feed: str, *, at: Optional[float] = None,
                            duration: Optional[float] = None) -> Fault:
        """Silence one federation registrar: polls fail, no new deltas
        arrive, and the feed's already-ingested entries age toward their
        validity horizon — past it, logins through them fail closed."""
        return self._schedule(
            METADATA_FEED_STALE, Fault(METADATA_FEED_STALE, f"feed:{feed}",
                                       self._start(at), duration),
            feed)

    def heal_region_partition(self, region_a: str, region_b: str) -> None:
        """Explicitly heal a previously severed inter-region link."""
        self.hooks(REGION_PARTITION)[1](region_a, region_b)
        for f in self.faults:
            if (f.kind == PARTITION and f.loc_a == ("region", region_a)
                    and f.loc_b == ("region", region_b) and not f.cleared):
                f.clear()

    def clear(self, fault: Optional[Fault] = None) -> None:
        """End one fault, or every scheduled fault."""
        if fault is not None:
            fault.clear()
        else:
            for f in self.faults:
                f.clear()

    def active_faults(self) -> List[Fault]:
        now = self.clock.now()
        return [f for f in self.faults if f.active(now)]

    # ------------------------------------------------------------------
    # the network hook
    # ------------------------------------------------------------------
    def perturb(self, src, dst) -> float:
        """Offer one message for perturbation; called by the network after
        policy checks, before delivery.

        ``src``/``dst`` are endpoint-shaped objects (``name``, ``domain``,
        ``zone``).  Returns extra latency to impose on delivery; raises
        :class:`FaultInjected` to fail the message.  Failures happen
        *before* delivery, so the destination never observes a partially
        applied request — which is what makes client retries safe.
        """
        now = self.clock.now()
        extra = 0.0
        for fault in self.faults:
            if not fault.active(now):
                continue
            if fault.kind == PARTITION:
                a, b = fault.loc_a, fault.loc_b
                if (_loc_matches(a, src.domain, src.zone)
                        and _loc_matches(b, dst.domain, dst.zone)) or \
                   (_loc_matches(b, src.domain, src.zone)
                        and _loc_matches(a, dst.domain, dst.zone)):
                    fault.offers += 1
                    self._fail(fault, dst.name,
                               f"partition {a} <-> {b} drops {src.name} -> {dst.name}")
                continue
            if fault.endpoint != dst.name:
                continue
            # every matching message is an *offer*, whether or not the
            # fault ends up acting on it: hits/offers together say how
            # much of the window's traffic the fault actually touched
            fault.offers += 1
            if fault.kind == OUTAGE:
                self._fail(fault, dst.name, f"injected outage at {dst.name}")
            elif fault.kind == BROWNOUT:
                if self.rng.random() < fault.probability:
                    self._fail(fault, dst.name,
                               f"injected brownout at {dst.name} "
                               f"(p={fault.probability})")
            elif fault.kind == FLAP:
                phase = (now - fault.start) % fault.period
                if phase >= fault.period * fault.up_fraction:
                    self._fail(fault, dst.name, f"injected flap: {dst.name} is down")
            elif fault.kind in (LATENCY, SLOW_REPLICA):
                fault.hits += 1
                extra += fault.extra_latency
        self.injected_latency += extra
        return extra

    def fault_stats(self) -> List[Dict[str, object]]:
        """Per-fault hit/offer accounting, for chaos and bench reports."""
        return [
            {
                "kind": f.kind, "endpoint": f.endpoint,
                "start": f.start, "duration": f.duration,
                "hits": f.hits, "offers": f.offers,
            }
            for f in self.faults
        ]

    def _fail(self, fault: Fault, endpoint: str, message: str) -> None:
        fault.hits += 1
        self.injected_failures += 1
        self.failures_by_endpoint[endpoint] = (
            self.failures_by_endpoint.get(endpoint, 0) + 1)
        raise FaultInjected(message)
