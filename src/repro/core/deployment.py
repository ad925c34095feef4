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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.audit import AuditLog, CombinedAuditView
from repro.authz import (
    AuthzConfig,
    AuthzGuard,
    AuthzRuntime,
    ContinuousAuthorizer,
    IdentityGraph,
    PolicyDecisionPoint,
    RevocationPipeline,
    SessionRegistry,
)
from repro.broker import IdentityBroker, RbacTokenValidator, Role
from repro.clock import SimClock
from repro.errors import (
    ClaimMissing,
    ConfigurationError,
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
    MetadataIngestor,
    ShardedAccountRegistry,
    ShardedMetadataStore,
)
from repro.ids import IdFactory
from repro.net import Firewall, Network, OperatingDomain, Service, Zone
from repro.oidc import make_url
from repro.policy import PolicyEngine, standard_zero_trust_rules
from repro.portal import UserPortal
from repro.region import (
    DOWN,
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
    Alert,
    CacheStalenessRule,
    KillSwitchController,
    LogForwarder,
    SecurityOperationsCentre,
    TraceIntegrityRule,
    UnexplainedDecisionRule,
)
from repro.sshca import BastionSet, LoginNodeSshd, SshCertificateAuthority
from repro.telemetry import PipelineConfig, Telemetry
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
    # validator factory honouring failover re-pointing (set by the builder)
    validator_factory: Optional[object] = None
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
    def validator_for(self, audience: str) -> RbacTokenValidator:
        """Resource-side RBAC validator against the broker's keys."""
        if self.validator_factory is not None:
            return self.validator_factory(audience)
        return RbacTokenValidator(
            self.clock, self.broker.issuer, audience,
            self.broker.jwks, self.broker.tokens.is_revoked,
        )

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
    detection-latency studies.

    ``resilience`` turns the retry/circuit-breaker layer on for every
    control-plane client (pass a :class:`~repro.resilience.RetryPolicy`
    to override the default policy); the default ``False`` keeps the
    historical fail-fast behaviour.  A :class:`FaultInjector` is always
    attached as ``dri.faults`` — it is inert until the chaos ablation
    schedules faults on it, and it draws from its own seeded RNG so
    arming it never perturbs the identity/secret streams.
    ``staleness_window`` bounds Jupyter's degraded-mode acceptance of
    cached introspection verdicts while the broker is unreachable.

    ``overload`` turns on the overload-protection layer (PR 2): token-
    bucket admission controllers with priority shedding on the broker,
    Jupyter, the SSH CA and the edge, plus AIMD pacing on every client
    kit.  Pass an :class:`~repro.resilience.OverloadConfig` to resize
    it.  Enabling overload implies a resilience runtime (the clients
    must honour ``retry_after`` for admission control to work as a
    backpressure signal rather than a hard failure).

    ``durability`` turns on crash-fault tolerance (PR 3): the stateful
    control-plane services (broker, last-resort IdP, SSH CA, portal),
    the per-domain audit log stores and the SIEM forwarders commit every
    mutation to write-ahead journals in a shared
    :class:`~repro.resilience.DurabilityStore`; ``dri.crash(name)`` /
    ``dri.restart(name)`` then model pod kills with lossless recovery.
    Signing keys stay in the store's KMS-modelled vault, never in the
    journal.  ``failover=True`` (implies durability) additionally parks
    warm standbys for the broker and the SSH CA under a health-checked
    :class:`~repro.resilience.FailoverController`; promotion replays the
    journal, acquires a fresh fencing epoch (deposed primaries can no
    longer commit) and takes over the primary's endpoint name.

    ``telemetry`` (default on) attaches a :class:`~repro.telemetry.Telemetry`
    runtime: distributed tracing over every hop, RED + domain metrics,
    and burn-rate SLO monitors bridged into the SOC.  It is pure
    observation — it never advances the clock or touches the seeded
    id/secret streams — so disabling it changes no simulated number.

    ``scale`` turns on the horizontal scale-out subsystem (PR 5): the
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

    ``regions`` turns on the multi-region active-active tier (PR 6,
    implies scale + durability): each named region runs its own replica
    pool, journal and invalidation-bus shard behind a latency-aware
    :class:`~repro.region.GeoRouter` on the public ``broker`` endpoint.
    Revocations stay synchronous *in-region* and replicate to peers
    asynchronously under the config's advertised ``staleness_bound``;
    region loss and inter-region partitions are injectable through the
    chaos harness (``faults.region_down`` / ``faults.region_partition``)
    with fencing epochs arbitrating issuance after recovery.  Pass a
    :class:`~repro.region.RegionConfig` to name the regions and set the
    contract.

    ``tail`` turns on the tail-tolerance layer (PR 7, implies
    resilience): adaptive per-attempt deadlines sized from observed
    latency quantiles, hedged requests for read-shaped traffic,
    latency-outlier ejection in every balancer pool (and gray-region
    detours in the geo-router when ``regions`` is also on), and a
    per-(client×destination) retry budget that fails storms fast and
    feeds the SOC's ``retry-storm`` rule.  Pass a
    :class:`~repro.resilience.TailConfig` to resize the knobs or ablate
    individual defences.

    ``authz`` turns on continuous authorization (PR 8): every principal
    and workload gets a canonical SPIFFE-style identity, every live
    grant (token, SSH cert/session, Zenith tunnel/web session, Jupyter
    server, Slurm job) is tracked in a
    :class:`~repro.authz.SessionRegistry`, and one journaled
    :class:`~repro.authz.RevocationPipeline` fans every revocation —
    portal off-boarding, SOC kill switch, policy re-evaluation — across
    all four enforcement surfaces with per-surface retry and bounded
    time-to-revoke.  A :class:`~repro.authz.ContinuousAuthorizer`
    re-checks live sessions against the policy engine on a timer and on
    assurance/threat-score changes; every admission path fails closed
    when the PDP has been unreachable past the configured staleness
    bound.  Pass an :class:`~repro.authz.AuthzConfig` to tune the
    bounds.  With ``durability`` also on, the pipeline's outbox is
    journaled and ``dri.crash("authz")`` / ``dri.restart("authz")``
    model a crash mid-revocation that resumes on recovery.

    ``pipeline`` turns on the bounded telemetry pipeline (PR 9): the
    span store becomes a :class:`~repro.telemetry.BoundedSpanStore`
    with tail-based retention (error/shed/expired and pinned
    revocation traces kept at 100%, slowest-k per window, hash-sampled
    healthy traffic, RED rollups of the rest), every pre-registered
    metric family gets a cardinality budget that folds runaway label
    sets into ``__overflow__``, and the provenance ledger
    (``dri.telemetry.provenance`` — one :class:`~repro.telemetry.
    DecisionRecord` per admission decision on every enforcement
    surface, queryable via ``explain``/``explain_trace``) compacts to
    its own budget without ever losing the record behind a live grant
    or a refusal.  The SOC serves the ledger and pipeline stats at
    ``/scoreboard`` and ``/explain``.  Pass a
    :class:`~repro.telemetry.PipelineConfig` to size the budgets.

    The MyAccessID account registry and the eduGAIN metadata aggregate
    always run on the consistent-hash sharded tiers
    (:class:`~repro.federation.directory.ShardedAccountRegistry` /
    :class:`~repro.federation.directory.ShardedMetadataStore`); without
    ``directory`` each is one unjournaled shard that emits no telemetry
    and no audit events.  ``directory`` turns on the federation
    directory: it sizes the tiers past one shard for 1M+ users and 10k
    IdPs and adds a batched
    :class:`~repro.federation.directory.MetadataIngestor` consuming
    signed registrar delta feeds (validity windows fail stale-metadata
    logins closed), telemetry and audit on both tiers, per-shard
    journals when ``durability`` is on (``dri.crash("dir-acct-03")`` et
    al.) and the chaos hooks ``faults.shard_down`` and
    ``faults.metadata_feed_stale``.  Shards rebalance with deterministic
    key migration on ``add_shard``/``remove_shard``.  Pass a
    :class:`~repro.federation.directory.DirectoryConfig` to size the
    tiers.  The runtime handle is ``dri.directory``.
    """
    region_cfg: Optional[RegionConfig] = None
    if regions:
        region_cfg = (regions if isinstance(regions, RegionConfig)
                      else RegionConfig())
        durability = True
        if not scale:
            scale = True
    if failover:
        durability = True
    tail_cfg: Optional[TailConfig] = None
    if tail:
        tail_cfg = tail if isinstance(tail, TailConfig) else TailConfig()
        if not resilience:
            # the tail defences live inside the retry layer; without a
            # runtime there is nothing to attach them to
            resilience = True
    authz_cfg: Optional[AuthzConfig] = None
    if authz:
        authz_cfg = authz if isinstance(authz, AuthzConfig) else AuthzConfig()
    directory_cfg: Optional[DirectoryConfig] = None
    if directory:
        directory_cfg = (directory if isinstance(directory, DirectoryConfig)
                         else DirectoryConfig())
    # assembled late (after durability/failover); declared here so the
    # portal's revocation closure can route through it once it exists
    authz_rt: Optional[AuthzRuntime] = None
    clock = SimClock(start=0.0)
    ids = IdFactory(seed=seed)
    pipeline_cfg: Optional[PipelineConfig] = None
    if pipeline:
        pipeline_cfg = (pipeline if isinstance(pipeline, PipelineConfig)
                        else PipelineConfig())
    tele: Optional[Telemetry] = (
        Telemetry(clock, pipeline=pipeline_cfg) if telemetry else None)
    logs = {
        domain: AuditLog(domain)
        for domain in ("external", "fds", "sws", "mdc", "sec", "network")
    }
    audit = CombinedAuditView(logs)
    if tele is not None:
        for log in logs.values():
            tele.watch_audit(log)

    overload_cfg: Optional[OverloadConfig] = None
    if overload:
        overload_cfg = (overload if isinstance(overload, OverloadConfig)
                        else OverloadConfig())

    scale_cfg: Optional[ScaleConfig] = None
    if scale:
        scale_cfg = scale if isinstance(scale, ScaleConfig) else ScaleConfig()

    faults = FaultInjector(clock, random.Random(seed * 7919 + 13))
    runtime: Optional[ResilienceRuntime] = None
    if resilience or overload_cfg is not None:
        runtime = ResilienceRuntime(
            clock, random.Random(seed * 104729 + 7),
            policy=resilience if isinstance(resilience, RetryPolicy) else None,
            overload=overload_cfg,
            tail=tail_cfg,
        )

    if runtime is not None and tele is not None:
        runtime.breaker_listener = tele.on_breaker_transition
    if runtime is not None and runtime.tail_controller is not None:
        # budget refusals audit into FDS (where the SOC's forwarders
        # already collect) and count into telemetry
        runtime.tail_controller.audit = logs["fds"]
        runtime.tail_controller.telemetry = tele

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
    directory_rt: Optional[FederationDirectory] = None
    if directory_cfg is not None:
        tier_cfg, tier_tele, tier_audit = directory_cfg, tele, logs["external"]
    else:
        tier_cfg = DirectoryConfig(account_shards=1, metadata_shards=1)
        tier_tele = tier_audit = None
    edugain = ShardedMetadataStore(
        clock, shards=tier_cfg.metadata_shards, vnodes=tier_cfg.vnodes,
        probe_cost=tier_cfg.probe_cost,
        migration_batch=tier_cfg.migration_batch,
        telemetry=tier_tele, audit=tier_audit,
    )
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
        clock, ids, shards=tier_cfg.account_shards, vnodes=tier_cfg.vnodes,
        probe_cost=tier_cfg.probe_cost,
        migration_batch=tier_cfg.migration_batch,
        telemetry=tier_tele, audit=tier_audit,
    )
    myaccessid = MyAccessID(
        "myaccessid", clock, ids, edugain, registry=accounts,
        policy=AssurancePolicy(), audit=logs["external"],
    )
    network.attach(myaccessid, OperatingDomain.EXTERNAL, Zone.INTERNET)

    if directory_cfg is not None:
        ingestor = MetadataIngestor(
            clock, edugain, audit=logs["external"], telemetry=tele)
        directory_rt = FederationDirectory(
            config=directory_cfg, accounts=accounts,
            metadata=edugain, ingestor=ingestor,
        )

        def _dir_tier(tier: str):
            if tier == "accounts":
                return directory_rt.accounts
            if tier == "metadata":
                return directory_rt.metadata
            raise ConfigurationError(f"no directory tier {tier!r}")

        faults.register_hooks(
            "shard_down",
            lambda tier, shard: _dir_tier(tier).shard_down(shard),
            lambda tier, shard: _dir_tier(tier).shard_up(shard),
        )
        faults.register_hooks(
            "metadata_feed_stale",
            lambda feed: directory_rt.ingestor.set_feed_down(feed, True),
            lambda feed: directory_rt.ingestor.set_feed_down(feed, False),
        )

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

    # failover re-points this cell at the promoted standby, so every
    # validator built here keeps consulting the *active* broker
    active_broker: List[IdentityBroker] = [broker]

    # --- scale-out: invalidation bus + shared caches ---------------------
    # Built before the validators so every resource server shares them.
    # Publication is synchronous and in-order (inside the revoking call),
    # so a cached ALLOW can never outlive a revocation or a key rotation.
    bus: Optional[InvalidationBus] = None
    rbus: Optional[ReplicatedInvalidationBus] = None
    token_cache = jwks_cache = introspect_cache = cert_cache = None
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
            token_cache = TtlCache(
                "token-decisions", clock, ttl=scale_cfg.decision_ttl,
                negative_ttl=scale_cfg.negative_ttl,
                # only monotone verdicts are negative-cached: a forged or
                # expired token stays forged/expired; a not-yet-valid one
                # does not, so TokenNotYetValid is deliberately absent
                negative_errors=(SignatureInvalid, IssuerMismatch,
                                 ClaimMissing, TokenExpired),
                telemetry=tele,
            )
            token_cache.bind(bus, "token.revoked", by_tag=True)
            jwks_cache = TtlCache("jwks", clock, ttl=scale_cfg.jwks_ttl,
                                  telemetry=tele)
            jwks_cache.bind(bus, "jwks.rotated", by_tag=False)
            introspect_cache = TtlCache(
                "introspection", clock, ttl=scale_cfg.introspection_ttl,
                telemetry=tele,
            )
            introspect_cache.bind(bus, "token.revoked", by_tag=True)
            cert_cache = TtlCache("ssh-certs", clock, ttl=scale_cfg.cert_ttl,
                                  telemetry=tele)
            # satellite fix: every RP's JWKS refresh rides the shared
            # single-flight cache — N concurrent verifications hitting a
            # key rotation produce exactly one upstream fetch
            for upstream in broker._upstreams.values():
                upstream.rp.jwks_cache = jwks_cache

    def _revocation(jti: str) -> bool:
        tokens = active_broker[0].tokens
        # durability mode trusts only journaled facts: unknown jtis (e.g.
        # minted by a fenced zombie primary) are rejected outright
        return tokens.is_invalid(jti) if durability else tokens.is_revoked(jti)

    def validator_for(audience: str) -> RbacTokenValidator:
        return RbacTokenValidator(
            clock, broker.issuer, audience, broker.jwks, _revocation,
            cache=token_cache,
        )

    # cluster objects exist before the portal's revocation hook references them
    pool = NodePool("gh", "grace-hopper", ai_nodes, gpus_per_node=4)
    login_sshd: LoginNodeSshd  # defined below; hook closes over names

    portal = UserPortal(
        "portal", clock, ids, validator_for("portal"), audit=logs["fds"],
        on_revoke=lambda uid, project, account: _revoke_everywhere(
            uid, project, account
        ),
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
        zenith._rp.jwks_cache = jwks_cache

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
    policy_engine = PolicyEngine()
    if authz_cfg is not None:
        # the continuous-authorization assurance floor must precede the
        # pack's capability allow or it would never fire: a live session
        # whose identity's LoA stepped below the floor is denied on
        # re-evaluation and handed to the revocation pipeline
        policy_engine.deny(
            "assurance-below-floor",
            lambda c, floor=authz_cfg.min_loa: (
                bool(c.attrs.get("continuous")) and c.loa < floor),
            reason="identity assurance below the continuous-session floor",
        )
    policy_engine = standard_zero_trust_rules(policy_engine)

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
    jupyter_validator = RbacTokenValidator(
        clock, broker.issuer, "jupyter", broker.jwks, lambda jti: False,
        cache=token_cache,
    )
    jupyter = JupyterService(
        "jupyter", clock, ids, jupyter_validator, pool,
        audit=logs["mdc"], broker_endpoint="broker",
        staleness_window=staleness_window,
    )
    if scale_cfg is not None:
        # In region mode the MDC-side cache would break the staleness
        # contract: it is bound to the *home* bus shard, so a revocation
        # published from another region would only evict it after
        # replication — or never, across a partition.  Introspections
        # round-trip to the geo-router instead and the per-region caches
        # (TTL clamped to the bound) absorb the load.
        if region_cfg is None:
            jupyter.introspection_cache = introspect_cache
        login_sshd.cert_cache = cert_cache
    network.attach(jupyter, OperatingDomain.MDC, Zone.HPC)

    zenith_client = ZenithClient("zenith-client", "jupyter")
    network.attach(zenith_client, OperatingDomain.MDC, Zone.HPC)
    # re-enrollment after a drop mints a fresh service token each time
    zenith_client.token_source = lambda: active_broker[0].tokens.mint(
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
    if scale_cfg is not None:
        login_sshd_i3.cert_cache = cert_cache
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
        token, _ = active_broker[0].tokens.mint(
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
        "broker-revoke", lambda p: active_broker[0].revoke_user_access(p, None)
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

    # --- telemetry: SOC-side trace correlation + SLO pages ---------------
    if tele is not None:
        # an audit record whose trace id the span store never saw is a
        # forged/replayed log entry — runs inside the standard rule pack
        soc.rules.append(TraceIntegrityRule(tele.store))
        # decision provenance: the SOC reads the ledger for the
        # scoreboard/explain views and cross-checks every shipped
        # decision against it (a decision without provenance is the
        # ledger-side sibling of an unknown trace id)
        soc.attach_provenance(tele.provenance, tele.store)
        soc.rules.append(UnexplainedDecisionRule(tele.provenance))
        # decisions recorded before the authz layer attaches its richer
        # enricher still carry the policy pack version they ran under
        tele.provenance.enricher = (
            lambda subject: {"pack_version": policy_engine.pack_version})
        # availability SLOs over the hops the RSECon story stresses
        tele.slo("broker-availability", service="broker")
        tele.slo("jupyter-availability", service="jupyter")

        def _page_soc(alert) -> None:
            # actor is deliberately empty: an SLO page is not attributable
            # to a principal and must never trigger auto-containment
            soc.raise_alert(Alert(
                time=alert.time, rule=f"slo-burn-{alert.slo}",
                severity="high", actor="", summary=alert.summary(),
                evidence_count=alert.events_in_slow_window,
            ))

        tele.on_slo_alert(_page_soc)

    # --- resilience kits: per-client retry/backoff + circuit breakers ----
    if runtime is not None:
        for svc in (broker, portal, zenith, edge, jupyter, zenith_client,
                    shipper, bastion, tailnet, soc):
            svc.resilience = runtime.for_client(svc.name)

    # --- overload protection: admission controllers on the hot services --
    if overload_cfg is not None:
        broker.admission = AdmissionController(
            "broker", clock, overload_cfg.broker)
        jupyter.admission = AdmissionController(
            "jupyter", clock, overload_cfg.jupyter)
        ssh_ca.admission = AdmissionController(
            "ssh-ca", clock, overload_cfg.ssh_ca)
        edge.admission = AdmissionController(
            "edge", clock, overload_cfg.edge)

    # --- scale-out: broker replica pool behind the load balancer ---------
    broker_pool: Optional[ReplicaPool] = None
    broker_lb: Optional[LoadBalancer] = None
    autoscaler: Optional[Autoscaler] = None
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
    if scale_cfg is not None and region_cfg is None:
        broker_pool = ReplicaPool(
            "broker", network, OperatingDomain.FDS, Zone.ACCESS, broker,
            min_replicas=scale_cfg.min_replicas,
            max_replicas=scale_cfg.max_replicas,
            admission_factory=admission_factory,
        )
        broker_pool.scale_to(scale_cfg.broker_replicas)
        broker_lb = LoadBalancer(
            "broker", clock, broker_pool, policy=lb_policy_factory(),
            audit=logs["fds"],
            breaker_listener=(tele.on_breaker_transition
                              if tele is not None else None),
            tail=tail_cfg, telemetry=tele,
        )
        network.attach(broker_lb, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker")
        edge.register_origin("broker", broker_lb)
        if scale_cfg.autoscale and tele is not None:
            autoscaler = Autoscaler(
                clock, broker_pool, tele,
                interval=scale_cfg.autoscale_interval,
                watch_services=("broker",),
                audit=logs["fds"],
            )
            autoscaler.start()

    # --- the revocation fan-out the portal hook calls --------------------
    def _revoke_everywhere(uid: str, project: str, account: str) -> None:
        if authz_rt is not None:
            # continuous authorization routes the teardown through the
            # journaled pipeline: one intent, four surfaces, crash-safe
            authz_rt.pipeline.revoke(
                uid=uid, project=project, reason="portal-revocation",
                by="portal")
            return
        active_broker[0].revoke_user_access(uid, project)
        if account:
            login_sshd.close_sessions_for(account)
            slurm.cancel_account(account, by="portal-revocation")
            login_sshd_i3.close_sessions_for(account)
            slurm_i3.cancel_account(account, by="portal-revocation")
        jupyter.close_sessions_for(uid)

    # --- crash-fault tolerance: WAL journals, vault, warm standbys -------
    # journals attach *after* construction so every build-time registration
    # (clients, upstreams, host certificates) lands in the baseline snapshot
    active_ca: List[SshCertificateAuthority] = [ssh_ca]
    store: Optional[DurabilityStore] = None
    broker_standby: Optional[IdentityBroker] = None
    ca_standby: Optional[SshCertificateAuthority] = None
    if durability:
        store = DurabilityStore(clock)
        store.telemetry = tele
        for domain, log in logs.items():
            log.attach_journal(store.stream(f"audit-{domain}"))
        broker.attach_journal(store.stream("broker"))
        lastresort.attach_journal(store.stream("idp-lastresort"))
        ssh_ca.attach_journal(store.stream("ssh-ca"))
        portal.attach_journal(store.stream("portal"))
        if directory_rt is not None:
            # each directory shard journals independently — a single
            # shard crash replays only its own partition, and shards
            # added later (rebalancing) get streams via journal_factory
            for tier_obj in (directory_rt.accounts, directory_rt.metadata):
                for sname in sorted(tier_obj.shards):
                    tier_obj.shards[sname].attach_journal(
                        store.stream(f"dir-{sname}"))
                tier_obj.journal_factory = (
                    lambda n, _s=store: _s.stream(f"dir-{n}"))
        for fw in forwarders:
            fw.attach_journal(store.stream(fw.name))

        # sshds consult the CA's journaled issuance registry: a serial a
        # fenced ex-primary signed after deposition was never registered
        def _cert_registered(serial: int, key_id: str) -> bool:
            return active_ca[0].cert_registered(serial, key_id)

        login_sshd.cert_registry = _cert_registered
        login_sshd_i3.cert_registry = _cert_registered
    if failover:
        # warm standbys carry the same *service* name (they become that
        # service on promotion) parked under their own endpoint names;
        # adopt_journal keeps them fenced (epoch 0) until promoted
        broker_standby = IdentityBroker(
            "broker", clock, ids, audit=logs["fds"],
            rbac_default_ttl=rbac_default_ttl, rbac_max_ttl=rbac_max_ttl,
        )
        broker_standby.ssh_cert_ttl = ssh_cert_ttl
        for u in broker._upstreams.values():
            broker_standby.add_upstream(
                u.upstream_id, u.label, u.endpoint, u.rp.client, kind=u.kind)
        broker_standby.adopt_journal(store.stream("broker"))
        if scale_cfg is not None:
            # a promoted standby must keep publishing invalidations, or
            # the caches would go quietly stale after a failover
            broker_standby.tokens.bus = publisher
            broker_standby.invalidation_bus = publisher
        network.attach(broker_standby, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker-standby")
        ca_standby = SshCertificateAuthority(
            "ssh-ca", clock, validator_for("ssh-ca"), audit=logs["fds"],
            cert_ttl=ssh_cert_ttl,
        )
        ca_standby.adopt_journal(store.stream("ssh-ca"))
        network.attach(ca_standby, OperatingDomain.FDS, Zone.ACCESS,
                       name="ssh-ca-standby")

    # --- multi-region tier: regions, directory, geo-router ---------------
    region_dir: Optional[RegionDirectory] = None
    geo_router: Optional[GeoRouter] = None
    region_autoscalers: List[Autoscaler] = []
    if region_cfg is not None:
        region_dir = RegionDirectory(
            clock, rbus,
            heartbeat_interval=region_cfg.heartbeat_interval,
            lag_check_interval=region_cfg.lag_check_interval,
            audit=logs["fds"], telemetry=tele,
            # recovering regions resync their revocation view from the
            # *active* broker's authoritative token store
            revoked_source=lambda: active_broker[0].tokens.revoked_jtis(),
        )
        for rname in region_cfg.names:
            region = Region(
                rname, clock, network, OperatingDomain.FDS, Zone.ACCESS,
                broker, rbus, store.stream(f"region-{rname}"),
                replicas=region_cfg.replicas_per_region,
                min_replicas=scale_cfg.min_replicas,
                max_replicas=scale_cfg.max_replicas,
                introspection_ttl=scale_cfg.introspection_ttl,
                staleness_bound=region_cfg.staleness_bound,
                admission_factory=admission_factory,
                lb_policy=lb_policy_factory(),
                telemetry=tele, audit=logs["fds"],
                breaker_listener=(tele.on_breaker_transition
                                  if tele is not None else None),
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
                region_autoscalers.append(ras)
        geo_router = GeoRouter(
            "broker", clock, region_dir,
            inter_region_latency=region_cfg.inter_region_latency,
            pins=dict(region_cfg.client_regions),
            audit=logs["fds"], telemetry=tele,
            tail=tail_cfg,
        )
        network.attach(geo_router, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker")
        edge.register_origin("broker", geo_router)
        region_dir.register_fault_hooks(faults)
        region_dir.start()
        # cached serves inside the advertised window are the contract,
        # not an incident: the staleness detector tolerates them and the
        # RegionLagRule takes over past the bound
        for rule in soc.rules:
            if isinstance(rule, CacheStalenessRule):
                rule.tolerance = region_cfg.staleness_bound

    # --- continuous authorization: identity, registry, pipeline, loop ----
    if authz_cfg is not None:
        graph = IdentityGraph(authz_cfg.trust_domain, authority=spire)
        if directory_rt is not None:
            # interactive registrations mint canonical SPIFFE principals;
            # bulk onboarding batches stay out of the graph by design
            directory_rt.accounts.graph = graph
        session_registry = SessionRegistry(clock, graph=graph)
        pdp = PolicyDecisionPoint(
            clock, policy_engine,
            provenance=tele.provenance if tele is not None else None,
        )
        guard = AuthzGuard(
            clock, pdp, staleness_bound=authz_cfg.staleness_bound,
            audit=logs["fds"], telemetry=tele,
        )
        pipeline = RevocationPipeline(
            clock, registry=session_registry, audit=logs["sec"],
            telemetry=tele, retry_interval=authz_cfg.retry_interval,
        )
        authorizer = ContinuousAuthorizer(
            clock, registry=session_registry, pipeline=pipeline, pdp=pdp,
            guard=guard, audit=logs["sec"], config=authz_cfg,
        )

        if tele is not None:
            # provenance enricher: fields the audit bridge cannot see at
            # the emitting surface — assurance tier, SOC threat score,
            # PDP heartbeat age, policy pack version — resolved at
            # record time from the continuous-authorization state
            def _enrich_decision(subject: str) -> Dict[str, object]:
                return {
                    "pack_version": policy_engine.pack_version,
                    "loa": authorizer._loa.get(subject,
                                               authz_cfg.min_loa),
                    "threat_score": authorizer._risk.get(subject, 0.0),
                    "pdp_staleness": round(guard.age(), 6),
                }

            tele.provenance.enricher = _enrich_decision

        def _authz_accounts(uid: str) -> List[str]:
            accounts = graph.accounts_of(uid)
            return accounts if accounts else [uid]

        # the four enforcement fans, in SURFACES order (tokens first so
        # a revoked principal cannot re-mint while later fans run)
        def _teardown_tokens(intent) -> int:
            # whole-user: a pipeline teardown severs the principal, not
            # one project — intent.project stays as audit metadata only
            summary = active_broker[0].revoke_user_access(intent.uid, None)
            return sum(int(v) for v in summary.values())

        def _teardown_ssh(intent) -> int:
            n = active_ca[0].revoke_certificates_for(intent.uid)
            for acct in _authz_accounts(intent.uid):
                n += login_sshd.close_sessions_for(acct)
                n += login_sshd_i3.close_sessions_for(acct)
            return n

        def _teardown_tunnels(intent) -> int:
            return (zenith.revoke_web_sessions_for(intent.uid)
                    + zenith.kill_tunnels_registered_by(intent.uid))

        def _teardown_compute(intent) -> int:
            n = jupyter.close_sessions_for(intent.uid)
            for acct in _authz_accounts(intent.uid):
                n += slurm.cancel_account(acct, by="revocation-pipeline")
                n += slurm_i3.cancel_account(acct, by="revocation-pipeline")
            return n

        pipeline.register_point("tokens", _teardown_tokens)
        pipeline.register_point("ssh", _teardown_ssh)
        pipeline.register_point("tunnels", _teardown_tunnels)
        pipeline.register_point("compute", _teardown_compute)

        # every admission path tracks its grant and fails closed when
        # the PDP is unreachable past the staleness bound
        broker.tokens.session_registry = session_registry
        broker.tokens.authz_guard = guard
        ssh_ca.session_registry = session_registry
        login_sshd.session_registry = session_registry
        login_sshd.authz_guard = guard
        zenith.session_registry = session_registry
        zenith.authz_guard = guard
        jupyter.session_registry = session_registry
        jupyter.authz_guard = guard
        slurm.session_registry = session_registry
        slurm.authz_guard = guard
        login_sshd_i3.session_registry = session_registry
        login_sshd_i3.authz_guard = guard
        slurm_i3.session_registry = session_registry
        slurm_i3.authz_guard = guard
        if broker_standby is not None:
            broker_standby.tokens.session_registry = session_registry
            broker_standby.tokens.authz_guard = guard
        if ca_standby is not None:
            ca_standby.session_registry = session_registry

        # portal: principals get canonical ids at onboarding, and its
        # recovery resync re-drives any teardown a crash interrupted
        portal.session_registry = session_registry
        portal.authz_resync = (
            lambda uid, project, account: pipeline.revoke(
                uid=uid, project=project,
                reason="portal-recovery-resync", by="portal-recovery"))

        # without durability the sshds have no issuance registry wired;
        # the CA-side revocation set must still bite on live certs
        def _authz_cert_registered(serial: int, key_id: str) -> bool:
            return active_ca[0].cert_registered(serial, key_id)

        if login_sshd.cert_registry is None:
            login_sshd.cert_registry = _authz_cert_registered
        if login_sshd_i3.cert_registry is None:
            login_sshd_i3.cert_registry = _authz_cert_registered

        # kill switch delegates to the pipeline; SOC alerts feed the
        # threat score the containment policy rule denies on
        killswitch.pipeline = pipeline
        killswitch.on_contain = authorizer.note_containment
        soc.escalate = authorizer.on_alert

        # chaos: pdp_down / teardown_stuck / revocation_storm faults
        def _pdp_restore() -> None:
            pdp.restore()
            guard.heartbeat()
            pipeline.drive_pending()
            authorizer.reevaluate_all()

        faults.register_hooks("pdp_down", pdp.down, _pdp_restore)
        faults.register_hooks("teardown_stuck", pipeline.stick, pipeline.unstick)
        faults.register_hooks("revocation_storm", pipeline.inject_storm)

        if store is not None:
            # the outbox is the durable piece: journal it so a crash
            # between intent publish and enforcement resumes on recover
            pipeline.attach_journal(store.stream("authz-pipeline"))
        authorizer.start()
        authz_rt = AuthzRuntime(
            config=authz_cfg, graph=graph, registry=session_registry,
            pipeline=pipeline, pdp=pdp, guard=guard, authorizer=authorizer,
        )

    # --- crash/restart hooks (chaos `crash` faults + dri.crash/restart) --
    def _crash_target(name: str, get, set_up, fleet=lambda up: None) -> None:
        # crash: take the target down and wipe it (then the fleet it
        # fronts); restart: replay its journal when it has one, bring it
        # back up (then the fleet)
        def crash_fn() -> None:
            set_up(False)
            get().wipe_state()
            fleet(False)

        def restart_fn():
            target = get()
            report = (target.recover()
                      if getattr(target, "journal", None) is not None
                      else None)
            set_up(True)
            fleet(True)
            return report

        faults.register_hooks("crash", crash_fn, restart_fn, target=name)

    # the broker is its origin endpoint plus, when scaled out, the fleet
    # in front of it
    broker_ep, broker_fleet = "broker", lambda up: None
    if region_dir is not None:
        # region mode: "crashing the broker" kills the shared state
        # backend and takes every region down with it (total outage);
        # the geo-router keeps answering so callers see unavailability.
        # For single-region loss use faults.region_down() instead.
        def _broker_regions(up: bool) -> None:
            for region in region_dir.regions():
                if up:
                    region_dir.region_up(region.name)
                else:
                    region_dir.region_down(region.name)

        broker_ep, broker_fleet = "broker-origin", _broker_regions
    elif broker_pool is not None:
        # in scale mode "crashing the broker" kills the shared state
        # backend and takes the whole pod fleet down with it; the LB
        # keeps answering (and exhausting) so callers see unavailability,
        # not a vanished endpoint
        def _broker_pods(up: bool) -> None:
            for replica in broker_pool.replicas():
                network.endpoint(replica).up = up

        broker_ep, broker_fleet = "broker-origin", _broker_pods
    for name, ep_name, *fleet in (("portal", "portal"), ("ssh-ca", "ssh-ca"),
                                  ("idp-lastresort", "idp-lastresort"),
                                  ("broker", broker_ep, broker_fleet)):
        # resolved per call: a promoted standby takes over the endpoint
        _crash_target(
            name, lambda ep_name=ep_name: network.endpoint(ep_name).service,
            lambda up, ep_name=ep_name: setattr(
                network.endpoint(ep_name), "up", up),
            *fleet)
    for domain, log in logs.items():
        # a downed log's emitters fire into the void (counted)
        _crash_target(f"audit-{domain}", lambda log=log: log,
                      lambda up, log=log: setattr(log, "down", not up))
    for fw in forwarders:
        _crash_target(fw.name, lambda fw=fw: fw,
                      lambda up, fw=fw: fw.start() if up else fw.stop())
    if authz_rt is not None and store is not None:
        # crash mid-revocation: the outbox journal replays the intents
        # and verify_recovery re-drives everything still pending
        _crash_target("authz", lambda: authz_rt.pipeline, lambda up: None)
    if directory_rt is not None:
        for tier_obj in (directory_rt.accounts, directory_rt.metadata):
            for sname in sorted(tier_obj.shards):
                shard = tier_obj.shards[sname]
                _crash_target(f"dir-{sname}", lambda shard=shard: shard,
                              lambda up, shard=shard: setattr(shard, "up", up))

    dri = IsambardDeployment(
        clock=clock, ids=ids, network=network, logs=logs, audit=audit,
        edugain=edugain, idps=idps, myaccessid=myaccessid,
        lastresort=lastresort, admin_idp=admin_idp,
        broker=broker, portal=portal, ssh_ca=ssh_ca, zenith=zenith, edge=edge,
        bastion=bastion, tailnet=tailnet,
        pool=pool, login_sshd=login_sshd, jupyter=jupyter,
        zenith_client=zenith_client, mgmt_node=mgmt_node, slurm=slurm,
        filesystem=filesystem,
        soc=soc, killswitch=killswitch, forwarders=forwarders,
        policy_engine=policy_engine,
        pool_i3=pool_i3, login_sshd_i3=login_sshd_i3,
        mgmt_node_i3=mgmt_node_i3, slurm_i3=slurm_i3,
        dcim=dcim, spire=spire,
        faults=faults, resilience=runtime, overload=overload_cfg,
        durability=store,
        validator_factory=validator_for, telemetry=tele,
        pipeline_config=pipeline_cfg,
        scale=scale_cfg, broker_pool=broker_pool, broker_lb=broker_lb,
        invalidation_bus=bus, autoscaler=autoscaler,
        region_config=region_cfg, region_directory=region_dir,
        geo_router=geo_router, region_bus=rbus,
        region_autoscalers=region_autoscalers,
        tail=tail_cfg,
        authz=authz_rt,
        directory=directory_rt,
        caches=({} if token_cache is None else {
            "token-decisions": token_cache, "jwks": jwks_cache,
            "introspection": introspect_cache, "ssh-certs": cert_cache,
            **({f"introspection-{r.name}": r.introspection_cache
                for r in region_dir.regions()} if region_dir else {}),
        }),
    )
    if failover:
        failover_ctl = FailoverController(clock, network, audit=logs["sec"])
        failover_ctl.telemetry = tele

        def _promote_broker(standby) -> None:
            active_broker[0] = standby
            dri.broker = standby
            if region_dir is not None:
                # every region's worker fleet re-points at the promoted
                # state backend, and regions downed by the backend crash
                # come back serving — under *fresh* region epochs (the
                # crash fenced the old generation), with caches cleared
                # and revocation views resynced from the promoted store
                for region in region_dir.regions():
                    region.pool.origin = standby
                    for replica in region.pool.replicas():
                        region.pool.worker(replica).origin = standby
                    if region.state == DOWN:
                        region_dir.region_up(region.name)
            elif broker_pool is not None:
                # the LB keeps the public endpoint; the worker fleet just
                # re-points at the promoted state backend (fencing still
                # holds: the deposed origin can no longer commit).  The
                # pods themselves never died — they went dark because the
                # backend did — so they resume serving immediately
                broker_pool.origin = standby
                for replica in broker_pool.replicas():
                    broker_pool.worker(replica).origin = standby
                    if network.has_endpoint(replica):
                        network.endpoint(replica).up = True
            else:
                edge.register_origin("broker", standby)

        def _promote_ca(standby) -> None:
            active_ca[0] = standby
            dri.ssh_ca = standby

        failover_ctl.register(
            "broker-origin"
            if (broker_pool is not None or region_dir is not None)
            else "broker",
            broker, broker_standby, standby_name="broker-standby",
            domain=OperatingDomain.FDS, zone=Zone.ACCESS,
            on_promote=_promote_broker)
        failover_ctl.register(
            "ssh-ca", ssh_ca, ca_standby, standby_name="ssh-ca-standby",
            domain=OperatingDomain.FDS, zone=Zone.ACCESS,
            on_promote=_promote_ca)
        failover_ctl.start()
        dri.failover = failover_ctl
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
