"""Continuous authorization: identity graph, session registry,
revocation pipeline, and the re-evaluation loop.

This package closes the paper's revocation gap: federated SSO makes it
easy to *grant* access across IdP, SSH CA, Zenith and the schedulers,
but until a single pipeline owned teardown, revoking meant chasing each
surface by hand.  Here every live grant is registered under one
canonical SPIFFE identity, one journaled pipeline fans ``revoke()`` out
to all four enforcement surfaces with bounded time-to-revoke, and a
continuous loop re-checks every session against policy — failing closed
when the decision point is unreachable past the staleness bound.
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.authz.authorizer import (
    AuthzGuard,
    ContinuousAuthorizer,
    PolicyDecisionPoint,
)
from repro.authz.config import SURFACES, AuthzConfig
from repro.authz.identity import IdentityGraph
from repro.authz.pipeline import RevocationIntent, RevocationPipeline
from repro.authz.registry import Grant, SessionRegistry
from repro.policy.engine import PolicyRule

__all__ = [
    "SURFACES",
    "AuthzConfig",
    "AuthzGuard",
    "AuthzRuntime",
    "ContinuousAuthorizer",
    "Grant",
    "IdentityGraph",
    "PolicyDecisionPoint",
    "RevocationIntent",
    "RevocationPipeline",
    "SessionRegistry",
]


@dataclass
class AuthzRuntime:
    """Everything the deployment wires for continuous authorization."""

    config: AuthzConfig
    graph: IdentityGraph
    registry: SessionRegistry
    pipeline: RevocationPipeline
    pdp: PolicyDecisionPoint
    guard: AuthzGuard
    authorizer: ContinuousAuthorizer


def install(dri, config: AuthzConfig) -> AuthzRuntime:
    """Wire continuous authorization into every admission path.

    Turned on by ``build_isambard(authz=...)``: every principal and
    workload gets a canonical SPIFFE-style identity, every live grant
    (token, SSH cert/session, Zenith tunnel/web session, Jupyter server,
    Slurm job) is tracked in a :class:`SessionRegistry`, and one
    journaled :class:`RevocationPipeline` fans every revocation — portal
    off-boarding, SOC kill switch, policy re-evaluation — across all
    four enforcement surfaces with per-surface retry and bounded
    time-to-revoke.  A :class:`ContinuousAuthorizer` re-checks live
    sessions against the policy engine on a timer and on
    assurance/threat-score changes; every admission path fails closed
    when the PDP has been unreachable past the configured staleness
    bound.  With ``durability`` also on, the pipeline's outbox is
    journaled and ``dri.crash("authz")`` / ``dri.restart("authz")``
    model a crash mid-revocation that resumes on recovery.
    """
    clock, tele, engine = dri.clock, dri.telemetry, dri.policy_engine
    # the assurance floor must precede the pack's capability allow or it
    # would never fire: a live session whose identity's LoA stepped
    # below the floor is denied on re-evaluation and handed to the
    # revocation pipeline
    engine.add_rule(PolicyRule(
        "assurance-below-floor",
        lambda c, floor=config.min_loa: (
            bool(c.attrs.get("continuous")) and c.loa < floor),
        "deny", "identity assurance below the continuous-session floor",
    ), first=True)
    graph = IdentityGraph(config.trust_domain, authority=dri.spire)
    if dri.directory is not None:
        # interactive registrations mint canonical SPIFFE principals;
        # bulk onboarding batches stay out of the graph by design
        dri.directory.accounts.graph = graph
    registry = SessionRegistry(clock, graph=graph)
    pdp = PolicyDecisionPoint(
        clock, engine,
        provenance=tele.provenance if tele is not None else None)
    guard = AuthzGuard(clock, pdp, staleness_bound=config.staleness_bound,
                       audit=dri.logs["fds"], telemetry=tele)
    pipeline = RevocationPipeline(
        clock, registry=registry, audit=dri.logs["sec"], telemetry=tele,
        retry_interval=config.retry_interval,
    )
    authorizer = ContinuousAuthorizer(
        clock, registry=registry, pipeline=pipeline, pdp=pdp, guard=guard,
        audit=dri.logs["sec"], config=config,
    )

    if tele is not None:
        # provenance enricher: fields the audit bridge cannot see at the
        # emitting surface — assurance tier, SOC threat score, PDP
        # heartbeat age, policy pack version — resolved at record time
        def _enrich_decision(subject: str) -> Dict[str, object]:
            return {
                "pack_version": engine.pack_version,
                "loa": authorizer._loa.get(subject, config.min_loa),
                "threat_score": authorizer._risk.get(subject, 0.0),
                "pdp_staleness": round(guard.age(), 6),
            }

        tele.provenance.enricher = _enrich_decision

    def _accounts(uid: str) -> List[str]:
        return graph.accounts_of(uid) or [uid]

    # the four enforcement fans, in SURFACES order (tokens first so a
    # revoked principal cannot re-mint while later fans run); each reads
    # the handle, so a promoted broker or CA is the one torn down
    def _teardown_tokens(intent) -> int:
        # whole-user: a pipeline teardown severs the principal, not one
        # project — intent.project stays as audit metadata only
        summary = dri.broker.revoke_user_access(intent.uid, None)
        return sum(int(v) for v in summary.values())

    def _teardown_ssh(intent) -> int:
        n = dri.ssh_ca.revoke_certificates_for(intent.uid)
        for acct in _accounts(intent.uid):
            for sshd in dri.login_nodes:
                n += sshd.close_sessions_for(acct)
        return n

    def _teardown_tunnels(intent) -> int:
        return (dri.zenith.revoke_web_sessions_for(intent.uid)
                + dri.zenith.kill_tunnels_registered_by(intent.uid))

    def _teardown_compute(intent) -> int:
        n = dri.jupyter.close_sessions_for(intent.uid)
        for acct in _accounts(intent.uid):
            for sched in dri.schedulers:
                n += sched.cancel_account(acct, by="revocation-pipeline")
        return n

    pipeline.register_point("tokens", _teardown_tokens)
    pipeline.register_point("ssh", _teardown_ssh)
    pipeline.register_point("tunnels", _teardown_tunnels)
    pipeline.register_point("compute", _teardown_compute)

    # every admission path tracks its grant and fails closed when the
    # PDP is unreachable past the staleness bound
    for surface in (dri.broker.tokens, *dri.login_nodes, dri.zenith,
                    dri.jupyter, *dri.schedulers):
        surface.session_registry = registry
        surface.authz_guard = guard
    dri.ssh_ca.session_registry = registry
    # the sshds check live certs against the CA's issuance and
    # revocation registry even without durability
    for sshd in dri.login_nodes:
        sshd.cert_registry = dri.cert_registered

    # portal: principals get canonical ids at onboarding, off-boarding
    # goes through the pipeline (one intent, four surfaces, crash-safe),
    # and its recovery resync re-drives any teardown a crash interrupted
    portal = dri.portal
    portal.session_registry = registry
    portal.on_revoke = lambda uid, project, account: pipeline.revoke(
        uid=uid, project=project, reason="portal-revocation", by="portal")
    portal.authz_resync = lambda uid, project, account: pipeline.revoke(
        uid=uid, project=project, reason="portal-recovery-resync",
        by="portal-recovery")

    # kill switch delegates to the pipeline; SOC alerts feed the threat
    # score the containment policy rule denies on
    dri.killswitch.pipeline = pipeline
    dri.killswitch.on_contain = authorizer.note_containment
    dri.soc.escalate = authorizer.on_alert

    # chaos: pdp_down / teardown_stuck / revocation_storm faults
    def _pdp_restore() -> None:
        pdp.restore()
        guard.heartbeat()
        pipeline.drive_pending()
        authorizer.reevaluate_all()

    dri.faults.register_hooks("pdp_down", pdp.down, _pdp_restore)
    dri.faults.register_hooks("teardown_stuck", pipeline.stick,
                              pipeline.unstick)
    dri.faults.register_hooks("revocation_storm", pipeline.inject_storm)

    if dri.durability is not None:
        # the outbox is the durable piece: journal it so a crash between
        # intent publish and enforcement resumes on recover; a crash
        # target replays the intents and re-drives what is still pending
        pipeline.attach_journal(dri.durability.stream("authz-pipeline"))
        dri.faults.register_crash_target(
            "authz", lambda: pipeline, lambda up: None)
    authorizer.start()
    dri.authz = AuthzRuntime(
        config=config, graph=graph, registry=registry, pipeline=pipeline,
        pdp=pdp, guard=guard, authorizer=authorizer,
    )
    return dri.authz
