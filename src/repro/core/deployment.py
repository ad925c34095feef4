"""The full Fig. 1 deployment: every domain, zone, service and flow.

:func:`build_isambard` assembles the complete simulated Isambard DRI:

* **EXTERNAL** — institutional IdPs (eduGAIN), the MyAccessID proxy,
  user devices, and the Cloudflare-style edge;
* **FDS** (public cloud, Access zone) — identity broker, user/project
  portal, identity-of-last-resort IdP, admin IdP, SSH CA, Zenith server;
* **SWS** (NCC data centre) — HA bastion set (port 22 only), log
  shipper, tailnet coordinator;
* **MDC** — login-node sshd, Jupyter authenticator/spawner + Zenith
  client (HPC zone), management node (Management zone), compute pool,
  parallel filesystem (Data Storage zone);
* **SEC** (separate cloud account, Security zone) — the SOC, fed by the
  log forwarders, driving the externally managed kill switch.

The firewall opens exactly the flows the paper draws; everything else is
default-deny.  All cross-boundary traffic must be encrypted.

The builder builds that core first and wraps it in the
:class:`IsambardDeployment` handle; each opt-in subsystem then installs
itself onto the handle with its own ``install(dri, ...)`` function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.audit import AuditLog, CombinedAuditView
from repro.authz import AuthzConfig, AuthzRuntime
from repro.authz import install as install_authz
from repro.broker import IdentityBroker, RbacTokenValidator, Role
from repro.clock import SimClock
from repro.errors import (
    ClaimMissing,
    IssuerMismatch,
    SignatureInvalid,
    TokenExpired,
)
from repro.cluster import (
    JupyterService,
    ManagementNode,
    NodePool,
    ParallelFilesystem,
    SlurmScheduler,
)
from repro.federation import (
    AssurancePolicy,
    CloudAdminIdP,
    EntityCategory,
    InstitutionalIdP,
    LastResortIdP,
    LevelOfAssurance,
    MyAccessID,
)
from repro.federation.directory import (
    DirectoryConfig,
    FederationDirectory,
    ShardedAccountRegistry,
    ShardedMetadataStore,
)
from repro.federation.directory import install as install_directory
from repro.ids import IdFactory
from repro.net import Firewall, Network, OperatingDomain, Service, Zone
from repro.oidc import make_url
from repro.policy import PolicyEngine, standard_zero_trust_rules
from repro.portal import UserPortal
from repro.region import (
    GeoRouter,
    Region,
    RegionBusAdapter,
    RegionConfig,
    RegionDirectory,
    ReplicatedInvalidationBus,
)
from repro.resilience import (
    AdmissionController,
    DurabilityStore,
    FailoverController,
    FaultInjector,
    OverloadConfig,
    ResilienceRuntime,
    RetryPolicy,
    TailConfig,
)
from repro.resilience.durability import install as install_durability
from repro.resilience.failover import install as install_failover
from repro.resilience.retry import install as install_resilience
from repro.scale import (
    Autoscaler,
    ConsistentHashPolicy,
    InvalidationBus,
    LeastOutstandingPolicy,
    LoadBalancer,
    ReplicaPool,
    RoundRobinPolicy,
    ScaleConfig,
    TtlCache,
)
from repro.siem import (
    CacheStalenessRule,
    KillSwitchController,
    LogForwarder,
    SecurityOperationsCentre,
)
from repro.sshca import BastionSet, LoginNodeSshd, SshCertificateAuthority
from repro.telemetry import PipelineConfig, Telemetry
from repro.telemetry.runtime import install as install_telemetry
from repro.tunnels import CloudflareEdge, TailnetCoordinator, ZenithClient, ZenithServer

__all__ = ["IsambardDeployment", "build_isambard", "DEFAULT_IDPS"]

# (endpoint, entity host, federation, display name, LoA, categories)
DEFAULT_IDPS = [
    ("idp-bristol", "idp.bristol.ac.uk", "UKAMF", "University of Bristol",
     LevelOfAssurance.CAPPUCCINO, (EntityCategory.RESEARCH_AND_SCHOLARSHIP,)),
    ("idp-tartu", "idp.ut.ee", "TAAT", "University of Tartu",
     LevelOfAssurance.CAPPUCCINO, (EntityCategory.RESEARCH_AND_SCHOLARSHIP,
                                   EntityCategory.SIRTFI)),
    ("idp-zurich", "idp.ethz.ch", "SWITCHaai", "ETH Zurich",
     LevelOfAssurance.ESPRESSO, (EntityCategory.RESEARCH_AND_SCHOLARSHIP,)),
    ("idp-webshop", "idp.webshop.example", "SomeFed", "Webshop Logins Inc",
     LevelOfAssurance.LOW, ()),  # filtered out by the assurance policy
]


@dataclass
class IsambardDeployment:
    """Handle to the whole running system.  Built by :func:`build_isambard`."""

    clock: SimClock
    ids: IdFactory
    network: Network
    logs: Dict[str, AuditLog]
    audit: CombinedAuditView
    # federation
    edugain: ShardedMetadataStore
    idps: Dict[str, InstitutionalIdP]
    myaccessid: MyAccessID
    lastresort: LastResortIdP
    admin_idp: CloudAdminIdP
    # FDS
    broker: IdentityBroker
    portal: UserPortal
    ssh_ca: SshCertificateAuthority
    zenith: ZenithServer
    edge: CloudflareEdge
    # SWS
    bastion: BastionSet
    tailnet: TailnetCoordinator
    # MDC — Isambard-AI phase 1 (Grace-Hopper)
    pool: NodePool
    login_sshd: LoginNodeSshd
    jupyter: JupyterService
    zenith_client: ZenithClient
    mgmt_node: ManagementNode
    slurm: SlurmScheduler
    filesystem: ParallelFilesystem
    # MDC — Isambard 3 (Grace-Grace CPU cluster)
    pool_i3: NodePool
    login_sshd_i3: LoginNodeSshd
    mgmt_node_i3: ManagementNode
    slurm_i3: SlurmScheduler
    # SEC
    soc: SecurityOperationsCentre
    killswitch: KillSwitchController
    forwarders: List[LogForwarder]
    # cross-cutting
    policy_engine: PolicyEngine
    workflows: "object" = None  # set post-construction (core.workflows)
    # environmental telemetry (created idle; call .start() to arm sampling)
    dcim: Optional["object"] = None
    # SPIRE-style workload identity authority for the trust domain
    spire: Optional["object"] = None
    # chaos harness (always attached; inert until faults are scheduled)
    faults: Optional[FaultInjector] = None
    # retry/breaker runtime; None when the deployment was built fail-fast
    resilience: Optional[ResilienceRuntime] = None
    # overload-protection sizing; None when admission control is off
    overload: Optional[OverloadConfig] = None
    # crash-fault tolerance: the WAL store; None when durability is off
    durability: Optional[DurabilityStore] = None
    # active-standby supervision; None unless built with failover=True
    failover: Optional[FailoverController] = None
    # tracing + metrics + SLO runtime; None when built telemetry=False
    telemetry: Optional[Telemetry] = None
    # bounded-retention telemetry pipeline; None when pipeline off
    pipeline_config: Optional[PipelineConfig] = None
    # horizontal scale-out (repro.scale); all None/empty unless scale on
    scale: Optional[ScaleConfig] = None
    broker_pool: Optional[ReplicaPool] = None
    broker_lb: Optional[LoadBalancer] = None
    invalidation_bus: Optional[InvalidationBus] = None
    caches: Dict[str, TtlCache] = field(default_factory=dict)
    autoscaler: Optional[Autoscaler] = None
    # multi-region tier (repro.region); all None/empty unless regions on
    region_config: Optional[RegionConfig] = None
    region_directory: Optional[RegionDirectory] = None
    geo_router: Optional[GeoRouter] = None
    region_bus: Optional[ReplicatedInvalidationBus] = None
    region_autoscalers: List[Autoscaler] = field(default_factory=list)
    # tail-tolerance layer (repro.resilience.tail); None unless tail on
    tail: Optional[TailConfig] = None
    # continuous authorization (repro.authz); None unless authz on
    authz: Optional[AuthzRuntime] = None
    # federation directory (repro.federation.directory); None unless on
    directory: Optional[FederationDirectory] = None

    # ------------------------------------------------------------------
    @property
    def login_nodes(self) -> Tuple[LoginNodeSshd, LoginNodeSshd]:
        """Both clusters' login-node sshds (Isambard-AI, Isambard 3)."""
        return (self.login_sshd, self.login_sshd_i3)

    @property
    def schedulers(self) -> Tuple[SlurmScheduler, SlurmScheduler]:
        """Both clusters' Slurm schedulers (Isambard-AI, Isambard 3)."""
        return (self.slurm, self.slurm_i3)

    def validator_for(self, audience: str) -> RbacTokenValidator:
        """Resource-side RBAC validator against the active broker's keys."""
        return _rbac_validator(self.clock, self.broker, audience,
                               self._revoked, self.caches)

    def _revoked(self, jti: str) -> bool:
        tokens = self.broker.tokens
        # durability mode trusts only journaled facts: unknown jtis (e.g.
        # minted by a fenced zombie primary) are rejected outright
        if self.durability is not None:
            return tokens.is_invalid(jti)
        return tokens.is_revoked(jti)

    def cert_registered(self, serial: int, key_id: str) -> bool:
        """Whether the active SSH CA issued ``serial`` to ``key_id`` and
        has not revoked it (the sshds' issuance-registry check)."""
        return self.ssh_ca.cert_registered(serial, key_id)

    def crash(self, name: str) -> None:
        """Kill a component in place: its endpoint goes down and its
        in-memory state is wiped — exactly what a pod OOM-kill does.
        Targets: ``broker``, ``portal``, ``ssh-ca``, ``idp-lastresort``,
        ``audit-<domain>`` log stores, ``fw-*`` forwarders, plus the
        ``authz`` pipeline (authz with durability) and the ``dir-*``
        shards (directory) when those tiers are on."""
        self.faults.hooks("crash", name)[0]()

    def restart(self, name: str):
        """Restart a crashed component.  With durability on it replays
        snapshot + journal (returning the RecoveryReport where there is
        one); journaling off restarts cold and empty.  If failover
        already promoted the standby, the ex-primary instead rejoins as
        the new standby."""
        if self.failover is not None:
            # scale/region deployments supervise the state backend under
            # its "<name>-origin" endpoint; restart of the public name
            # must still find the pair or the ex-primary never rejoins
            for pair_name in (name, f"{name}-origin"):
                pair = self.failover.pairs.get(pair_name)
                if pair is not None and pair.promoted:
                    return self.failover.rejoin(pair_name, pair.primary)
        report = self.faults.hooks("crash", name)[1]()
        # the service is back: a crash fault left open on it ends here
        for fault in self.faults.active_faults():
            if fault.kind == "crash" and fault.endpoint == name:
                fault.clear()
        return report

    def refresh_tunnels(self) -> None:
        """Heartbeat the Zenith tunnel registrations (the deployment's
        periodic job; call after long simulated-time jumps or after an
        outage dropped the tunnel — re-enrollment mints a fresh token)."""
        if self.zenith_client.heartbeat() is None:
            # first registration: the client has nothing to re-enrol yet
            token, _ = self.broker.tokens.mint(
                "mdc-zenith-client", "zenith", Role.SERVICE, ttl=300
            )
            self.zenith_client.register_with("zenith", "jupyter", token)

    def ship_logs(self) -> None:
        """Force-flush every forwarder (benches call this before reading
        SOC state instead of waiting for the timers)."""
        for fw in self.forwarders:
            fw.flush()

    def inventory_summary(self) -> Dict[str, int]:
        return {
            "endpoints": len(self.network.endpoints()),
            "firewall_rules": len(self.network.firewall.rules()),
            "assets": len(self.soc.inventory.assets()),
            "idps_in_edugain": len(self.edugain),
        }


def _open_fig1_flows(firewall: Firewall) -> None:
    """Exactly the inter-domain flows Fig. 1 draws; default-deny tail."""
    E, M, S, F, C = (OperatingDomain.EXTERNAL, OperatingDomain.MDC,
                     OperatingDomain.SWS, OperatingDomain.FDS,
                     OperatingDomain.SEC)
    # users and IdPs on the internet talk to each other (browser <-> IdP)
    firewall.allow("internet-https", src_domain=E, dst_domain=E, port=443)
    # users reach the Access zone (via the Cloudflare-protected endpoints)
    firewall.allow("internet-to-access-zone", src_domain=E, dst_domain=F,
                   dst_zone=Zone.ACCESS, port=443)
    # the broker dials out to external IdPs (MyAccessID token endpoint)
    firewall.allow("fds-to-external-idps", src_domain=F, dst_domain=E, port=443)
    # port 22 is the ONLY opening from the internet into SWS
    firewall.allow("internet-ssh-to-bastion", src_domain=E, dst_domain=S,
                   dst_zone=Zone.ACCESS, port=22)
    # bastion jumps into the MDC login plane
    firewall.allow("bastion-to-login-nodes", src_domain=S, src_zone=Zone.ACCESS,
                   dst_domain=M, dst_zone=Zone.HPC, port=22)
    # MDC services dial OUT to FDS (zenith reverse tunnel, introspection)
    firewall.allow("mdc-outbound-to-fds", src_domain=M, src_zone=Zone.HPC,
                   dst_domain=F, dst_zone=Zone.ACCESS, port=443)
    # admin devices reach the tailnet coordinator in SWS
    firewall.allow("internet-to-tailnet", src_domain=E, dst_domain=S,
                   dst_zone=Zone.MANAGEMENT, port=443)
    # the tailnet relay reaches MDC management plane
    firewall.allow("tailnet-to-mdc-mgmt", src_domain=S, src_zone=Zone.MANAGEMENT,
                   dst_domain=M, dst_zone=Zone.MANAGEMENT, port=443)
    # log shipping into the Security zone
    firewall.allow("sws-logs-to-sec", src_domain=S, dst_domain=C,
                   dst_zone=Zone.SECURITY, port=443)
    firewall.allow("fds-logs-to-sec", src_domain=F, dst_domain=C,
                   dst_zone=Zone.SECURITY, port=443)
    # security administrators reach the SOC only through the tailnet
    # relay ("access only via ... time-limited security roles", §III)
    firewall.allow("tailnet-to-soc", src_domain=S, src_zone=Zone.MANAGEMENT,
                   dst_domain=C, dst_zone=Zone.SECURITY, port=443)
    # nothing else: no internet->MDC, no FDS->MDC, no anything->SEC besides
    # logs, no MDC->SEC (MDC logs route via SWS), no SEC-> anywhere.


def _rbac_validator(clock, broker, audience, revoked, caches):
    """An RBAC validator for ``audience`` against ``broker``'s issuer and
    keys, sharing the token-decision cache when scale-out built one."""
    return RbacTokenValidator(clock, broker.issuer, audience, broker.jwks,
                              revoked, cache=caches.get("token-decisions"))


def _config(switch, cls):
    """A subsystem switch as its config: None when off, the default
    ``cls()`` for ``True``, the caller's config when one was passed."""
    if not switch:
        return None
    return switch if isinstance(switch, cls) else cls()


def build_isambard(
    seed: int = 42,
    *,
    segmented: bool = True,
    rbac_default_ttl: float = 900.0,
    rbac_max_ttl: float = 3600.0,
    ssh_cert_ttl: float = 4 * 3600.0,
    bastion_vms: int = 2,
    ai_nodes: int = 168,
    hpc_nodes: int = 368,
    forward_interval: float = 5.0,
    auto_contain: bool = True,
    idp_specs=DEFAULT_IDPS,
    resilience: Union[bool, RetryPolicy] = False,
    overload: Union[bool, OverloadConfig] = False,
    staleness_window: float = 60.0,
    durability: bool = False,
    failover: bool = False,
    telemetry: bool = True,
    scale: Union[bool, ScaleConfig] = False,
    regions: Union[bool, RegionConfig] = False,
    tail: Union[bool, TailConfig] = False,
    authz: Union[bool, AuthzConfig] = False,
    pipeline: Union[bool, PipelineConfig] = False,
    directory: Union[bool, DirectoryConfig] = False,
) -> IsambardDeployment:
    """Construct the full simulated Isambard DRI.

    Parameters mirror the ablation axes of the benchmarks: turn
    ``segmented`` off for the flat-network baseline, shrink
    ``rbac_default_ttl`` for the token-lifetime sweep, vary
    ``bastion_vms`` for the HA study, and ``forward_interval`` for
    detection-latency studies.  ``staleness_window`` bounds Jupyter's
    degraded-mode acceptance of cached introspection verdicts while the
    broker is unreachable.  A :class:`FaultInjector` is always attached
    as ``dri.faults`` — it is inert until the chaos ablation schedules
    faults on it, and it draws from its own seeded RNG so arming it
    never perturbs the identity/secret streams.

    The builder builds the Fig. 1 core, wraps it in the handle, then
    hands the handle to each opt-in subsystem's ``install``, which
    documents that switch:

    * ``telemetry`` (default on) and ``pipeline`` —
      :func:`repro.telemetry.runtime.install`;
    * ``resilience``, ``overload`` and ``tail`` —
      :func:`repro.resilience.retry.install`;
    * ``durability`` — :func:`repro.resilience.durability.install`;
    * ``directory`` — :func:`repro.federation.directory.install`;
    * ``authz`` — :func:`repro.authz.install`;
    * ``failover`` (implies durability) —
      :func:`repro.resilience.failover.install`.

    Pass a config object (:class:`~repro.resilience.RetryPolicy`,
    :class:`~repro.resilience.OverloadConfig`, ...) instead of ``True``
    to size a subsystem.

    ``scale`` turns on the horizontal scale-out subsystem: the
    broker runs as a :class:`~repro.scale.ReplicaPool` of stateless
    workers behind a deterministic :class:`~repro.scale.LoadBalancer`
    that takes over the public ``broker`` endpoint name (the origin
    moves to ``broker-origin``), and the hot validation paths — RBAC
    signature checks, RP JWKS fetches, Jupyter introspection verdicts
    and SSH certificate parsing — share TTL caches with single-flight
    coalescing, all subscribed to one :class:`~repro.scale.InvalidationBus`
    so token revocations and JWKS rotations evict synchronously, before
    the revoking call returns.  Pass a :class:`~repro.scale.ScaleConfig`
    to size the pool/TTLs or enable the metric-driven autoscaler.

    ``regions`` turns on the multi-region active-active tier (implies
    scale + durability): each named region runs its own replica
    pool, journal and invalidation-bus shard behind a latency-aware
    :class:`~repro.region.GeoRouter` on the public ``broker`` endpoint.
    Revocations stay synchronous *in-region* and replicate to peers
    asynchronously under the config's advertised ``staleness_bound``;
    region loss and inter-region partitions are injectable through the
    chaos harness (``faults.region_down`` / ``faults.region_partition``)
    with fencing epochs arbitrating issuance after recovery.  Pass a
    :class:`~repro.region.RegionConfig` to name the regions and set the
    contract.

    The MyAccessID account registry and the eduGAIN metadata aggregate
    always run on the consistent-hash sharded tiers
    (:class:`~repro.federation.directory.ShardedAccountRegistry` /
    :class:`~repro.federation.directory.ShardedMetadataStore`); without
    ``directory`` each is one unjournaled shard that emits no telemetry
    and no audit events.
    """
    region_cfg = _config(regions, RegionConfig)
    if region_cfg is not None:
        durability = True
        scale = scale or True
    if failover:
        durability = True
    tail_cfg = _config(tail, TailConfig)
    # the tail defences live inside the retry layer; without a runtime
    # there is nothing to attach them to
    policy = _config(resilience or tail_cfg is not None, RetryPolicy)
    authz_cfg = _config(authz, AuthzConfig)
    directory_cfg = _config(directory, DirectoryConfig)
    overload_cfg = _config(overload, OverloadConfig)
    scale_cfg = _config(scale, ScaleConfig)
    pipeline_cfg = _config(pipeline, PipelineConfig)
    clock = SimClock(start=0.0)
    ids = IdFactory(seed=seed)
    tele = Telemetry(clock, pipeline=pipeline_cfg) if telemetry else None
    logs = {
        domain: AuditLog(domain)
        for domain in ("external", "fds", "sws", "mdc", "sec", "network")
    }
    audit = CombinedAuditView(logs)
    if tele is not None:
        for log in logs.values():
            tele.watch_audit(log)
    faults = FaultInjector(clock, random.Random(seed * 7919 + 13))

    firewall = Firewall(segmented=segmented)
    _open_fig1_flows(firewall)
    network = Network(clock, firewall=firewall, audit=logs["network"],
                      faults=faults)
    network.telemetry = tele

    # ------------------------------------------------------------- federation
    # Without ``directory`` the two tiers run at one shard with no
    # telemetry or audit, so a plain deployment emits no directory
    # series or events.  Bilateral trust anchors registered here get no
    # validity window; feed-ingested entries always do.
    tier_cfg = directory_cfg or DirectoryConfig(account_shards=1,
                                                metadata_shards=1)
    tier_args = dict(
        vnodes=tier_cfg.vnodes, probe_cost=tier_cfg.probe_cost,
        migration_batch=tier_cfg.migration_batch,
        telemetry=tele if directory_cfg else None,
        audit=logs["external"] if directory_cfg else None,
    )
    edugain = ShardedMetadataStore(
        clock, shards=tier_cfg.metadata_shards, **tier_args)
    idps: Dict[str, InstitutionalIdP] = {}
    for endpoint, host, federation, display, loa, categories in idp_specs:
        idp = InstitutionalIdP(
            endpoint, f"https://{host}", clock, ids,
            loa=loa, categories=categories, audit=logs["external"],
        )
        edugain.register_idp(idp, federation=federation, display_name=display)
        network.attach(idp, OperatingDomain.EXTERNAL, Zone.INTERNET)
        idps[endpoint] = idp

    accounts = ShardedAccountRegistry(
        clock, ids, shards=tier_cfg.account_shards, **tier_args)
    myaccessid = MyAccessID(
        "myaccessid", clock, ids, edugain, registry=accounts,
        policy=AssurancePolicy(), audit=logs["external"],
    )
    network.attach(myaccessid, OperatingDomain.EXTERNAL, Zone.INTERNET)

    lastresort = LastResortIdP("idp-lastresort", clock, ids, audit=logs["fds"])
    admin_idp = CloudAdminIdP("idp-admin", clock, ids, audit=logs["fds"])
    network.attach(lastresort, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(admin_idp, OperatingDomain.FDS, Zone.ACCESS)

    # ------------------------------------------------------------------ FDS
    broker = IdentityBroker(
        "broker", clock, ids, audit=logs["fds"],
        rbac_default_ttl=rbac_default_ttl, rbac_max_ttl=rbac_max_ttl,
    )
    broker.ssh_cert_ttl = ssh_cert_ttl
    network.attach(broker, OperatingDomain.FDS, Zone.ACCESS)
    callback = make_url("broker", "/login/callback")
    for upstream_id, label, provider, kind in [
        ("myaccessid", "University Login (MyAccessID)", myaccessid, "federated"),
        ("lastresort", "Isambard Account (Identity of Last Resort)",
         lastresort, "lastresort"),
        ("admin", "Isambard Team (Administrators)", admin_idp, "admin"),
    ]:
        cfg = provider.register_client(
            f"isambard-broker-{upstream_id}", [callback], confidential=True
        )
        broker.add_upstream(upstream_id, label, provider.name, cfg, kind=kind)

    # --- scale-out: invalidation bus + shared caches ---------------------
    # Built before the validators so every resource server shares them.
    # Publication is synchronous and in-order (inside the revoking call),
    # so a cached ALLOW can never outlive a revocation or a key rotation.
    bus: Optional[InvalidationBus] = None
    rbus: Optional[ReplicatedInvalidationBus] = None
    caches: Dict[str, TtlCache] = {}
    if scale_cfg is not None:
        if region_cfg is not None:
            # multi-region: one bus shard per region; local publishes stay
            # synchronous (preserving the in-region guarantee) and fan out
            # to peers after replication_delay.  The adapter routes each
            # publish to whichever region is serving the revoking request
            # (falling back to home), so the caches below — which live in
            # the home shard — keep their synchronous eviction for
            # home-region traffic.
            rbus = ReplicatedInvalidationBus(
                clock, region_cfg.names,
                replication_delay=region_cfg.replication_delay,
                telemetry=tele,
            )
            bus = rbus.local[region_cfg.home]
            publisher = RegionBusAdapter(rbus, region_cfg.home)
        else:
            bus = InvalidationBus(clock)
            publisher = bus
        broker.tokens.bus = publisher
        broker.invalidation_bus = publisher
        for provider in (myaccessid, lastresort, admin_idp, *idps.values()):
            provider.invalidation_bus = publisher
        if scale_cfg.caching:
            caches["token-decisions"] = TtlCache(
                "token-decisions", clock, ttl=scale_cfg.decision_ttl,
                negative_ttl=scale_cfg.negative_ttl,
                # only monotone verdicts are negative-cached: a forged or
                # expired token stays forged/expired; a not-yet-valid one
                # does not, so TokenNotYetValid is deliberately absent
                negative_errors=(SignatureInvalid, IssuerMismatch,
                                 ClaimMissing, TokenExpired),
                telemetry=tele,
            )
            caches["token-decisions"].bind(bus, "token.revoked", by_tag=True)
            caches["jwks"] = TtlCache("jwks", clock, ttl=scale_cfg.jwks_ttl,
                                      telemetry=tele)
            caches["jwks"].bind(bus, "jwks.rotated", by_tag=False)
            caches["introspection"] = TtlCache(
                "introspection", clock, ttl=scale_cfg.introspection_ttl,
                telemetry=tele,
            )
            caches["introspection"].bind(bus, "token.revoked", by_tag=True)
            caches["ssh-certs"] = TtlCache(
                "ssh-certs", clock, ttl=scale_cfg.cert_ttl, telemetry=tele)
            # every RP's JWKS refresh rides the shared single-flight
            # cache — N concurrent verifications hitting a key rotation
            # produce exactly one upstream fetch
            for upstream in broker._upstreams.values():
                upstream.rp.jwks_cache = caches["jwks"]

    def validator_for(audience: str) -> RbacTokenValidator:
        # the revocation check reads the handle (built below), so these
        # validators consult whichever broker failover made active
        return _rbac_validator(clock, broker, audience,
                               lambda jti: dri._revoked(jti), caches)

    def _revoke_everywhere(uid: str, project: str, account: str) -> None:
        # the portal's off-boarding fan-out (authz swaps in its pipeline)
        dri.broker.revoke_user_access(uid, project)
        if account:
            for sshd, sched in zip(dri.login_nodes, dri.schedulers):
                sshd.close_sessions_for(account)
                sched.cancel_account(account, by="portal-revocation")
        dri.jupyter.close_sessions_for(uid)

    # cluster objects exist before the portal's revocation hook references them
    pool = NodePool("gh", "grace-hopper", ai_nodes, gpus_per_node=4)

    portal = UserPortal(
        "portal", clock, ids, validator_for("portal"), audit=logs["fds"],
        on_revoke=_revoke_everywhere,
    )
    network.attach(portal, OperatingDomain.FDS, Zone.ACCESS)

    ssh_ca = SshCertificateAuthority(
        "ssh-ca", clock, validator_for("ssh-ca"), audit=logs["fds"],
        cert_ttl=ssh_cert_ttl,
    )
    network.attach(ssh_ca, OperatingDomain.FDS, Zone.ACCESS)

    zenith = ZenithServer(
        "zenith", clock, ids, validator_for("zenith"), audit=logs["fds"],
        heartbeat_ttl=24 * 3600.0,
    )
    network.attach(zenith, OperatingDomain.FDS, Zone.ACCESS)
    zenith_cfg = broker.register_client(
        "zenith-auth", [make_url("zenith", "/callback")], confidential=True
    )
    zenith.configure_rp(zenith_cfg)
    if scale_cfg is not None and zenith._rp is not None:
        zenith._rp.jwks_cache = caches.get("jwks")

    edge = CloudflareEdge("edge", clock, audit=logs["external"])
    network.attach(edge, OperatingDomain.EXTERNAL, Zone.INTERNET)
    edge.register_origin("zenith", zenith)
    edge.register_origin("broker", broker)
    edge.register_origin("portal", portal)

    # ------------------------------------------------------------------ SWS
    bastion = BastionSet("bastion", clock, audit=logs["sws"], vm_count=bastion_vms)
    network.attach(bastion, OperatingDomain.SWS, Zone.ACCESS)

    tailnet = TailnetCoordinator(
        "tailnet", clock, ids, validator_for("tailnet"), audit=logs["sws"]
    )
    network.attach(tailnet, OperatingDomain.SWS, Zone.MANAGEMENT)

    shipper = Service("log-shipper")
    network.attach(shipper, OperatingDomain.SWS, Zone.ACCESS)

    # dynamic policy (tenet 4): posture rules enforced at the management
    # plane on top of token validation
    policy_engine = standard_zero_trust_rules(PolicyEngine())

    # ------------------------------------------------------------------ MDC
    def account_exists(username: str) -> bool:
        return portal.unix_accounts.lookup(username) is not None

    login_sshd = LoginNodeSshd(
        "login-node", clock, ssh_ca.ca_public_key(), account_exists,
        audit=logs["mdc"],
    )
    login_sshd.install_host_certificate(ssh_ca.provision_host_certificate(
        "login-node", login_sshd.host_keypair.public_jwk()))
    network.attach(login_sshd, OperatingDomain.MDC, Zone.HPC)

    # the authenticator runs in the MDC: it cannot share the broker's
    # in-memory revocation set, so its *local* validation is JWKS-only
    # and revocation is caught by the introspection round-trip (§IV.A.6)
    jupyter_validator = _rbac_validator(
        clock, broker, "jupyter", lambda jti: False, caches)
    jupyter = JupyterService(
        "jupyter", clock, ids, jupyter_validator, pool,
        audit=logs["mdc"], broker_endpoint="broker",
        staleness_window=staleness_window,
    )
    if region_cfg is None:
        # In region mode the MDC-side cache would break the staleness
        # contract: it is bound to the *home* bus shard, so a revocation
        # published from another region would only evict it after
        # replication — or never, across a partition.  Introspections
        # round-trip to the geo-router instead and the per-region caches
        # (TTL clamped to the bound) absorb the load.
        jupyter.introspection_cache = caches.get("introspection")
    network.attach(jupyter, OperatingDomain.MDC, Zone.HPC)

    zenith_client = ZenithClient("zenith-client", "jupyter")
    network.attach(zenith_client, OperatingDomain.MDC, Zone.HPC)
    # re-enrollment after a drop mints a fresh service token each time
    zenith_client.token_source = lambda: dri.broker.tokens.mint(
        "mdc-zenith-client", "zenith", Role.SERVICE, ttl=300
    )[0]

    mgmt_node = ManagementNode(
        "mgmt-node", clock, validator_for("mgmt-node"), pool,
        audit=logs["mdc"], policy=policy_engine,
    )
    network.attach(mgmt_node, OperatingDomain.MDC, Zone.MANAGEMENT)
    tailnet.expose_endpoint("mgmt-node", "mgmt")
    tailnet.acl.allow("admin-device", "mgmt", 443)
    # the security path: security-role devices reach the SOC, and only it
    tailnet.expose_endpoint("soc", "soc")
    tailnet.acl.allow("security-device", "soc", 443)

    slurm = SlurmScheduler(
        clock, ids, pool, portal.record_usage, audit=logs["mdc"]
    )

    def account_project(username: str):
        account = portal.unix_accounts.lookup(username)
        return account.project_id if account else None

    filesystem = ParallelFilesystem(account_project)

    # --- Isambard 3: the Grace-Grace national tier-2 HPC platform --------
    # Same IAM fabric (one CA, one broker, one portal) protecting a second
    # cluster in the same MDC compound — exactly the paper's deployment.
    pool_i3 = NodePool("gg", "grace-grace", hpc_nodes, gpus_per_node=0)
    login_sshd_i3 = LoginNodeSshd(
        "login-node-i3", clock, ssh_ca.ca_public_key(), account_exists,
        audit=logs["mdc"],
    )
    login_sshd_i3.install_host_certificate(
        ssh_ca.provision_host_certificate(
            "login-node-i3", login_sshd_i3.host_keypair.public_jwk()))
    for sshd in (login_sshd, login_sshd_i3):
        sshd.cert_cache = caches.get("ssh-certs")
    network.attach(login_sshd_i3, OperatingDomain.MDC, Zone.HPC)
    mgmt_node_i3 = ManagementNode(
        "mgmt-node-i3", clock, validator_for("mgmt-node-i3"), pool_i3,
        audit=logs["mdc"], policy=policy_engine,
    )
    network.attach(mgmt_node_i3, OperatingDomain.MDC, Zone.MANAGEMENT)
    tailnet.expose_endpoint("mgmt-node-i3", "mgmt")
    slurm_i3 = SlurmScheduler(
        clock, ids, pool_i3, portal.record_usage, audit=logs["mdc"],
        charge_units_per_node=1,  # node-hours on the CPU machine
    )

    # environmental telemetry for the AI pod (idle until .start())
    from repro.cluster.dcim import DcimMonitor

    dcim = DcimMonitor(
        "dcim-ai", clock, pool, audit=logs["mdc"], rng=ids.rng(),
    )

    # ------------------------------------------------------------------ SEC
    killswitch = KillSwitchController(clock, audit=logs["sec"])
    soc = SecurityOperationsCentre(
        "soc", clock, validator_for("soc"), audit=logs["sec"],
        killswitch=killswitch, auto_contain=auto_contain,
    )
    network.attach(soc, OperatingDomain.SEC, Zone.SECURITY)

    # workload identity: attest the internal service workloads so
    # machine-to-machine calls can carry SVIDs alongside RBAC tokens
    from repro.federation.spiffe import TrustDomainAuthority

    spire = TrustDomainAuthority("isambard.example", clock)
    for path, endpoint_name in [
        ("fds/broker", "broker"), ("fds/portal", "portal"),
        ("fds/ssh-ca", "ssh-ca"), ("fds/zenith", "zenith"),
        ("sws/log-shipper", "log-shipper"), ("sws/bastion", "bastion"),
        ("mdc/zenith-client", "zenith-client"), ("mdc/jupyter", "jupyter"),
    ]:
        ep = network.endpoint(endpoint_name)
        spire.register_workload(
            path, f"endpoint:{ep.name}", f"domain:{ep.domain}",
            f"zone:{ep.zone}",
        )

    def _soc_sink(records):
        token, _ = dri.broker.tokens.mint(
            "log-shipper", "soc", Role.SERVICE, ttl=120, audit_issue=False
        )
        from repro.net.http import HttpRequest

        shipper.call("soc", HttpRequest(
            "POST", "/ingest",
            headers={
                "Authorization": f"Bearer {token}",
                "X-Workload-SVID": spire.issue_svid("sws/log-shipper"),
            },
            body={"records": records},
        ))

    forwarders: List[LogForwarder] = []
    for domain in ("mdc", "sws", "fds", "external"):
        fw = LogForwarder(f"fw-{domain}", clock, _soc_sink,
                          interval=forward_interval)
        fw.watch(logs[domain])
        fw.start()
        forwarders.append(fw)
    # network-device logs: ship only denials/violations — the delivered-
    # message firehose stays local (and would otherwise echo the log
    # shipping itself back into the pipeline)
    fw_net = LogForwarder(
        "fw-network", clock, _soc_sink, interval=forward_interval,
        actions_filter=["firewall.", "transport.", "endpoint."],
    )
    fw_net.watch(logs["network"])
    fw_net.start()
    forwarders.append(fw_net)

    # the ingest pipeline authenticates twice: service RBAC token AND a
    # workload SVID from the attested log shipper
    soc.require_workload_identity(
        spire, "spiffe://isambard.example/sws/log-shipper"
    )

    # kill-switch levers: one principal, severed everywhere
    killswitch.register_user_action("bastion-flag", bastion.flag_principal)
    killswitch.register_user_action(
        "broker-revoke", lambda p: dri.broker.revoke_user_access(p, None)
    )
    killswitch.register_user_action("ssh-sessions", login_sshd.close_sessions_for)
    killswitch.register_user_action("jupyter-sessions", jupyter.close_sessions_for)
    killswitch.register_user_action("slurm-jobs", slurm.cancel_account)
    killswitch.register_user_action(
        "ssh-sessions-i3", login_sshd_i3.close_sessions_for)
    killswitch.register_user_action("slurm-jobs-i3", slurm_i3.cancel_account)
    killswitch.register_stop_action(
        "bastion", bastion.kill_service, bastion.restore_service
    )
    killswitch.register_stop_action(
        "tailnet", tailnet.kill_tailnet, tailnet.restore_tailnet
    )
    killswitch.register_stop_action(
        "zenith", zenith.kill_all_tunnels, zenith.restore_all_tunnels
    )

    # inventory (SOC task 2)
    for vm in bastion.vms:
        soc.inventory.register(vm.vm_id, "bastion-vm", vm.image_version, "sws")
    for name, kind in [("broker", "k8s-service"), ("portal", "k8s-service"),
                       ("ssh-ca", "k8s-service"), ("zenith", "k8s-service"),
                       ("idp-admin", "managed-idp"),
                       ("idp-lastresort", "managed-idp")]:
        soc.inventory.register(name, kind, "1.0", "fds")
    soc.inventory.register("tailnet", "coordination-server", "1.0", "sws")

    # configuration assessment (SOC task 3)
    _register_config_checks(soc, network, bastion, admin_idp, broker, filesystem)

    # ----------------------------------------------- the Fig. 1 core's handle
    dri = IsambardDeployment(
        clock=clock, ids=ids, network=network, logs=logs, audit=audit,
        edugain=edugain, idps=idps, myaccessid=myaccessid,
        lastresort=lastresort, admin_idp=admin_idp,
        broker=broker, portal=portal, ssh_ca=ssh_ca, zenith=zenith, edge=edge,
        bastion=bastion, tailnet=tailnet,
        pool=pool, login_sshd=login_sshd, jupyter=jupyter,
        zenith_client=zenith_client, mgmt_node=mgmt_node, slurm=slurm,
        filesystem=filesystem,
        pool_i3=pool_i3, login_sshd_i3=login_sshd_i3,
        mgmt_node_i3=mgmt_node_i3, slurm_i3=slurm_i3,
        soc=soc, killswitch=killswitch, forwarders=forwarders,
        policy_engine=policy_engine, dcim=dcim, spire=spire, faults=faults,
        telemetry=tele, pipeline_config=pipeline_cfg,
        overload=overload_cfg, tail=tail_cfg, scale=scale_cfg,
        invalidation_bus=bus, caches=caches,
        region_config=region_cfg, region_bus=rbus,
    )

    # ------------------------------------------------- opt-in subsystems
    if tele is not None:
        install_telemetry(dri)
    if policy is not None or overload_cfg is not None:
        install_resilience(dri, policy, random.Random(seed * 104729 + 7))

    # --- scale-out: broker replica pool behind the load balancer ---------
    lb_policy_factory = None
    admission_factory = None
    if scale_cfg is not None:
        # each balancer needs its own (stateful) policy instance, so the
        # region tier can stamp one per region from the same config
        lb_policy_factory = {
            "round-robin": RoundRobinPolicy,
            "least-outstanding": LeastOutstandingPolicy,
            "consistent-hash": lambda: ConsistentHashPolicy(
                # session/tunnel affinity: pin on the credential, else
                # on the calling endpoint
                lambda req: (req.headers.get("Authorization")
                             or req.headers.get("Cookie")
                             or req.source)),
        }[scale_cfg.policy]
        if overload_cfg is not None:
            # capacity moves to the pods: each worker gets its own
            # broker-sized bucket, so pool capacity is N x the rate
            broker.admission = None
            admission_factory = (
                lambda worker_name: AdmissionController(
                    worker_name, clock, overload_cfg.broker))
        # the origin keeps its state and its outbound identity under
        # "broker-origin"; the workers and the LB (or the geo-router in
        # region mode) take over the public name, so every URL-based
        # caller is load-balanced untouched
        network.detach("broker")
        network.attach(broker, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker-origin")
    breaker_listener = tele.on_breaker_transition if tele is not None else None
    if scale_cfg is not None and region_cfg is None:
        broker_pool = dri.broker_pool = ReplicaPool(
            "broker", network, OperatingDomain.FDS, Zone.ACCESS, broker,
            min_replicas=scale_cfg.min_replicas,
            max_replicas=scale_cfg.max_replicas,
            admission_factory=admission_factory,
        )
        broker_pool.scale_to(scale_cfg.broker_replicas)
        dri.broker_lb = LoadBalancer(
            "broker", clock, broker_pool, policy=lb_policy_factory(),
            audit=logs["fds"], breaker_listener=breaker_listener,
            tail=tail_cfg, telemetry=tele,
        )
        network.attach(dri.broker_lb, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker")
        edge.register_origin("broker", dri.broker_lb)
        if scale_cfg.autoscale and tele is not None:
            dri.autoscaler = Autoscaler(
                clock, broker_pool, tele,
                interval=scale_cfg.autoscale_interval,
                watch_services=("broker",),
                audit=logs["fds"],
            )
            dri.autoscaler.start()

    if durability:
        install_durability(dri)
    if directory_cfg is not None:
        install_directory(dri, directory_cfg)
    if authz_cfg is not None:
        install_authz(dri, authz_cfg)
    if failover:
        install_failover(dri)

    # --- multi-region tier: regions, directory, geo-router ---------------
    if region_cfg is not None:
        region_dir = dri.region_directory = RegionDirectory(
            clock, rbus,
            heartbeat_interval=region_cfg.heartbeat_interval,
            lag_check_interval=region_cfg.lag_check_interval,
            audit=logs["fds"], telemetry=tele,
            # recovering regions resync their revocation view from the
            # *active* broker's authoritative token store
            revoked_source=lambda: dri.broker.tokens.revoked_jtis(),
        )
        for rname in region_cfg.names:
            region = Region(
                rname, clock, network, OperatingDomain.FDS, Zone.ACCESS,
                broker, rbus, dri.durability.stream(f"region-{rname}"),
                replicas=region_cfg.replicas_per_region,
                min_replicas=scale_cfg.min_replicas,
                max_replicas=scale_cfg.max_replicas,
                introspection_ttl=scale_cfg.introspection_ttl,
                staleness_bound=region_cfg.staleness_bound,
                admission_factory=admission_factory,
                lb_policy=lb_policy_factory(),
                telemetry=tele, audit=logs["fds"],
                breaker_listener=breaker_listener,
                tail=tail_cfg,
            )
            region_dir.add(region)
            if scale_cfg.autoscale and tele is not None:
                ras = Autoscaler(
                    clock, region.pool, tele,
                    interval=scale_cfg.autoscale_interval,
                    watch_services=("broker",),
                    audit=logs["fds"],
                    audit_source=f"autoscaler-{rname}",
                )
                ras.start()
                dri.region_autoscalers.append(ras)
        if caches:
            caches.update({f"introspection-{r.name}": r.introspection_cache
                           for r in region_dir.regions()})
        dri.geo_router = GeoRouter(
            "broker", clock, region_dir,
            inter_region_latency=region_cfg.inter_region_latency,
            pins=dict(region_cfg.client_regions),
            audit=logs["fds"], telemetry=tele,
            tail=tail_cfg,
        )
        network.attach(dri.geo_router, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker")
        edge.register_origin("broker", dri.geo_router)
        region_dir.register_fault_hooks(faults)
        region_dir.start()
        # cached serves inside the advertised window are the contract,
        # not an incident: the staleness detector tolerates them and the
        # RegionLagRule takes over past the bound
        for rule in soc.rules:
            if isinstance(rule, CacheStalenessRule):
                rule.tolerance = region_cfg.staleness_bound

    # --- crash/restart hooks (chaos `crash` faults + dri.crash/restart) --
    # the broker is its origin endpoint plus, when scaled out, the fleet
    # in front of it
    broker_ep, broker_fleet = "broker", None
    if dri.region_directory is not None:
        # region mode: "crashing the broker" kills the shared state
        # backend and takes every region down with it (total outage);
        # the geo-router keeps answering so callers see unavailability.
        # For single-region loss use faults.region_down() instead.
        def _broker_regions(up: bool) -> None:
            for region in dri.region_directory.regions():
                if up:
                    dri.region_directory.region_up(region.name)
                else:
                    dri.region_directory.region_down(region.name)

        broker_ep, broker_fleet = "broker-origin", _broker_regions
    elif dri.broker_pool is not None:
        # in scale mode "crashing the broker" kills the shared state
        # backend and takes the whole pod fleet down with it; the LB
        # keeps answering (and exhausting) so callers see unavailability,
        # not a vanished endpoint
        def _broker_pods(up: bool) -> None:
            for replica in dri.broker_pool.replicas():
                network.endpoint(replica).up = up

        broker_ep, broker_fleet = "broker-origin", _broker_pods
    for name, ep_name, fleet in (("portal", "portal", None),
                                 ("ssh-ca", "ssh-ca", None),
                                 ("idp-lastresort", "idp-lastresort", None),
                                 ("broker", broker_ep, broker_fleet)):
        # resolved per call: a promoted standby takes over the endpoint
        faults.register_crash_target(
            name, lambda ep_name=ep_name: network.endpoint(ep_name).service,
            lambda up, ep_name=ep_name: setattr(
                network.endpoint(ep_name), "up", up),
            fleet)
    for domain, log in logs.items():
        # a downed log's emitters fire into the void (counted)
        faults.register_crash_target(
            f"audit-{domain}", lambda log=log: log,
            lambda up, log=log: setattr(log, "down", not up))
    for fw in forwarders:
        faults.register_crash_target(
            fw.name, lambda fw=fw: fw,
            lambda up, fw=fw: fw.start() if up else fw.stop())

    dri.refresh_tunnels()

    from repro.core.workflows import Workflows

    dri.workflows = Workflows(dri)
    return dri


def _register_config_checks(soc, network, bastion, admin_idp, broker, filesystem):
    """The CIS-style check pack (SOC task 3)."""
    fw = network.firewall

    def port22_only_into_sws():
        bad = [
            r.name for r in fw.rules()
            if r.action == "allow" and r.dst_domain == OperatingDomain.SWS
            and r.src_domain == OperatingDomain.EXTERNAL and r.port != 22
            and r.dst_zone != Zone.MANAGEMENT  # tailnet coordination is 443
        ]
        return (not bad, f"extra internet->SWS openings: {bad}" if bad
                else "port 22 is the only internet opening into SWS (plus tailnet 443)")

    soc.assessment.add("CIS-NET-1", "Default-deny segmentation enabled",
                       lambda: (fw.segmented, f"segmented={fw.segmented}"))
    soc.assessment.add("CIS-NET-2", "Internet to SWS restricted to SSH",
                       port22_only_into_sws)
    soc.assessment.add(
        "CIS-NET-3", "Management zone unreachable from the internet",
        lambda: (
            not any(
                r.action == "allow"
                and r.src_domain == OperatingDomain.EXTERNAL
                and r.dst_zone == Zone.MANAGEMENT
                and r.dst_domain == OperatingDomain.MDC
                for r in fw.rules()
            ),
            "no allow rule internet -> MDC management",
        ),
    )
    soc.assessment.add(
        "CIS-IAM-1", "Administrators use hardware-key MFA",
        lambda: (True, "admin IdP requires hardware-key challenge/response"),
    )
    soc.assessment.add(
        "CIS-IAM-2", "Access tokens are short-lived",
        lambda: (broker.tokens.max_ttl <= 3600,
                 f"max RBAC TTL {broker.tokens.max_ttl:.0f}s"),
    )
    soc.assessment.add(
        "CIS-HA-1", "Bastion operates as an HA set",
        lambda: (len(bastion.vms) >= 2, f"{len(bastion.vms)} bastion VMs"),
    )
    soc.assessment.add(
        "CIS-DATA-1", "Parallel filesystem encrypted at rest",
        lambda: (filesystem.encrypted_at_rest,
                 "encryption at rest on the PFS is future work (paper §IV.B)"),
    )
