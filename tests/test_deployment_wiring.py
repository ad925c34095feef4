"""Golden file for what ``build_isambard`` wires, per configuration.

Behavioural tests check what a deployment *does*; this one pins what
the builder *builds*: the endpoints and their placement, the firewall,
the policy pack, the SOC rule order, the chaos hooks, the kill-switch
levers, the journals, the metric families, the failover pairs, the
shared caches, which optional hooks each service carries, and where the
seeded id stream stands once construction is done.  Moving wiring
between the builder and the subsystem packages must leave every line
of it unchanged; reordering construction shows up here as a changed
id-stream digest, a reordered endpoint or lever list, or a moved timer.

Regenerate after an *intentional* wiring change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_deployment_wiring.py

then read the diff before committing it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core import build_isambard
from repro.federation.directory import DirectoryConfig
from repro.telemetry import PipelineConfig

GOLDEN = Path(__file__).parent / "golden" / "deployment_wiring.json"

# the hooks a subsystem may hang on a service; each is None when unwired
HOOKS = ("resilience", "admission", "session_registry", "authz_guard",
         "cert_cache", "cert_registry", "journal", "introspection_cache")

CONFIGS = {
    "plain": dict(telemetry=False),
    "default": dict(),
    # the perfbench ``lifecycle-allon`` build (perfbench/workloads.py)
    "allon": dict(resilience=True, overload=True, durability=True,
                  scale=True, tail=True, authz=True, directory=True,
                  pipeline=PipelineConfig(max_spans=2200)),
    "durable-authz-directory": dict(
        durability=True, failover=True, authz=True,
        directory=DirectoryConfig(account_shards=2, metadata_shards=2)),
    "regions-tail-overload": dict(regions=True, tail=True, overload=True),
}


def _hooks_set(obj) -> list:
    return [h for h in HOOKS if getattr(obj, h, None) is not None]


def wiring(dri) -> dict:
    """Everything the builder decided, as JSON-safe values."""
    services = {ep.name: _hooks_set(ep.service)
                for ep in dri.network.endpoints()}
    services["broker.tokens"] = _hooks_set(dri.broker.tokens)
    for fw in dri.forwarders:
        services[fw.name] = _hooks_set(fw)
    for domain, log in dri.logs.items():
        services[f"audit-{domain}"] = _hooks_set(log)
    failover = {}
    if dri.failover is not None:
        failover = {name: {"standby": pair.standby_name,
                           "standby_kid": pair.standby.key.kid
                           if hasattr(pair.standby, "key")
                           else pair.standby.ca_key.kid}
                    for name, pair in dri.failover.pairs.items()}
    queue = sorted((e for e in dri.clock._queue if not e.cancelled),
                   key=lambda e: (e.when, e.seq))
    return {
        "endpoints": [[ep.name, str(ep.domain), str(ep.zone)]
                      for ep in dri.network.endpoints()],
        "firewall": [[r.name, r.action, str(r.src_domain), str(r.src_zone),
                      str(r.dst_domain), str(r.dst_zone), str(r.port)]
                     for r in dri.network.firewall.rules()],
        "policy_rules": [r.name for r in dri.policy_engine.rules()],
        "pack_version": dri.policy_engine.pack_version,
        "soc_rules": [type(r).__name__ for r in dri.soc.rules],
        # lookups are by (kind, target); registration order is not used
        "fault_hooks": sorted([kind, target or ""]
                              for kind, target in dri.faults._hooks),
        "killswitch_user_levers": list(dri.killswitch._user_actions),
        "killswitch_stop_levers": list(dri.killswitch._stop_actions),
        # looked up by name; ``stats()`` reports them sorted
        "journals": (sorted(dri.durability.streams())
                     if dri.durability is not None else []),
        "metric_families": (dri.telemetry.registry.names()
                            if dri.telemetry is not None else []),
        "failover": failover,
        "caches": list(dri.caches),
        "services": services,
        "keys": {"broker": dri.broker.key.kid,
                 "ssh_ca": dri.ssh_ca.ca_key.kid},
        "ids": {
            "counters": dict(sorted(dri.ids._counters.items())),
            "rng": hashlib.sha256(
                repr(dri.ids.rng().getstate()).encode()).hexdigest(),
        },
        "timers": [[e.when, getattr(e.callback, "__qualname__", "?")]
                   for e in queue],
        "clock": dri.clock.now(),
        "inventory": dri.inventory_summary(),
    }


def snapshot() -> dict:
    return {name: wiring(build_isambard(seed=7, **kwargs))
            for name, kwargs in CONFIGS.items()}


@pytest.fixture(scope="module")
def current() -> dict:
    return snapshot()


def test_wiring_matches_golden_file(current):
    text = json.dumps(current, indent=1, sort_keys=False) + "\n"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text)
    assert GOLDEN.exists(), "golden file missing — run with REGEN_GOLDEN=1"
    golden = json.loads(GOLDEN.read_text())
    for name in CONFIGS:
        for key, value in golden[name].items():
            assert current[name][key] == value, (name, key)
    assert text == GOLDEN.read_text()


def test_golden_file_covers_the_contract():
    """The pinned file holds the wiring this test exists to protect, so
    a bad regeneration cannot hollow it out."""
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(CONFIGS)
    allon = golden["allon"]
    assert allon["policy_rules"][0] == "assurance-below-floor"
    assert "authz-pipeline" in allon["journals"]
    assert any(kind == "crash" and target == "authz"
               for kind, target in allon["fault_hooks"])
    assert "session_registry" in allon["services"]["login-node"]
    assert golden["durable-authz-directory"]["failover"]
    assert golden["plain"]["metric_families"] == []
    assert not golden["plain"]["journals"]
    assert golden["regions-tail-overload"]["caches"][-1].startswith(
        "introspection-")
