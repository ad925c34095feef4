"""Dynamic policy engine (zero-trust tenet 4).

"Access to resources is determined by dynamic policy — including the
observable state of client identity, application/service, and the
requesting asset — and may include other behavioural and environmental
attributes."

The engine evaluates ordered rules over an :class:`AccessContext`; each
rule is a predicate plus an effect.  Default-deny.  The deployment uses
it for posture-style decisions that pure RBAC cannot express (e.g. "deny
management operations from devices with expired keys even if the token
is valid", "deny everything for contained users"), and the threat model
uses it to reason about what an attacker's stolen context can reach.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import PolicyViolation

__all__ = ["AccessContext", "PolicyRule", "PolicyDecision", "PolicyEngine"]


@dataclass(frozen=True)
class AccessContext:
    """Everything observable about one access attempt."""

    subject: str
    role: str
    capability: str
    resource: str
    zone: str = ""
    domain: str = ""
    device_trusted: bool = True
    mfa_methods: tuple = ()
    loa: int = 0
    risk_score: float = 0.0   # fed by the SOC (0 = clean, 1 = contained)
    time: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class PolicyDecision:
    allowed: bool
    rule: Optional[str]
    reason: str

    def __bool__(self) -> bool:
        return self.allowed


@dataclass
class PolicyRule:
    """First-match rule: when ``applies`` is true, ``effect`` decides."""

    name: str
    applies: Callable[[AccessContext], bool]
    effect: str  # "allow" | "deny"
    reason: str = ""

    def __post_init__(self) -> None:
        if self.effect not in ("allow", "deny"):
            raise ValueError(f"effect must be allow/deny, got {self.effect!r}")


class PolicyEngine:
    """Ordered first-match evaluation with default deny."""

    def __init__(self, *, default_reason: str = "no policy permits this access") -> None:
        self._rules: List[PolicyRule] = []
        self.default_reason = default_reason
        self.evaluations = 0
        self.denials = 0

    def add_rule(self, rule: PolicyRule, *, first: bool = False) -> None:
        """Append ``rule``, or put it ahead of every rule with ``first``."""
        self._rules.insert(0 if first else len(self._rules), rule)

    def allow(self, name: str, applies: Callable[[AccessContext], bool],
              *, reason: str = "") -> None:
        self.add_rule(PolicyRule(name, applies, "allow", reason))

    def deny(self, name: str, applies: Callable[[AccessContext], bool],
             *, reason: str = "") -> None:
        self.add_rule(PolicyRule(name, applies, "deny", reason))

    def rules(self) -> List[PolicyRule]:
        return list(self._rules)

    @property
    def pack_version(self) -> str:
        """Deterministic version of the loaded rule pack: rule count
        plus a digest over the ordered (name, effect) pairs.  Stamped
        into every provenance record so a post-mortem can tell which
        pack a decision was made under — the same decision under a
        different pack is a different decision."""
        digest = hashlib.sha256("|".join(
            f"{r.name}:{r.effect}" for r in self._rules
        ).encode("utf-8")).hexdigest()[:8]
        return f"pack-{len(self._rules)}-{digest}"

    # ------------------------------------------------------------------
    def evaluate(self, ctx: AccessContext) -> PolicyDecision:
        self.evaluations += 1
        for rule in self._rules:
            if rule.applies(ctx):
                allowed = rule.effect == "allow"
                if not allowed:
                    self.denials += 1
                return PolicyDecision(
                    allowed=allowed, rule=rule.name,
                    reason=rule.reason or rule.name,
                )
        self.denials += 1
        return PolicyDecision(allowed=False, rule=None, reason=self.default_reason)

    def enforce(self, ctx: AccessContext) -> None:
        """Raise :class:`PolicyViolation` unless the context is permitted."""
        decision = self.evaluate(ctx)
        if not decision:
            raise PolicyViolation(
                f"policy denied {ctx.subject} -> {ctx.resource} "
                f"({ctx.capability}): {decision.reason}"
            )


def standard_zero_trust_rules(engine: PolicyEngine) -> PolicyEngine:
    """The deployment's default dynamic-policy pack.

    Ordering matters: containment and posture denials come before any
    allow, so they always win.
    """
    engine.deny(
        "contained-subject",
        lambda c: c.risk_score >= 1.0,
        reason="subject is contained by the kill switch",
    )
    engine.deny(
        "untrusted-device-mgmt",
        lambda c: c.capability.startswith("mgmt.") and not c.device_trusted,
        reason="management access requires an enrolled, trusted device",
    )
    engine.deny(
        "admin-without-hardware-mfa",
        lambda c: c.role.startswith("admin") and "hwk" not in c.mfa_methods,
        reason="administrator actions require hardware-key MFA",
    )
    engine.allow(
        "capability-granted",
        lambda c: bool(c.capability),
        reason="capability present in a validated short-lived token",
    )
    return engine
