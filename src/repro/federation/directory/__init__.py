"""Federation directory: the sharded identity + metadata tier.

MyAccessID's account registry and eduGAIN metadata aggregate have one
implementation each, and it is sharded: a 45-user RSECon tutorial runs
it at one shard, and a national federation — 1M+ users across 10k
IdPs — at many, because that working set has to be *partitioned*,
*durable per partition*, and *refreshable in bulk*.  This package
provides:

* :mod:`~repro.federation.directory.sharding` — the generic
  consistent-hash shard tier (:class:`ShardedTier`), its journal-durable
  shard base, deterministic key migration on shard add/remove, and the
  :class:`ShardedAccountRegistry` (MyAccessID's account registry);
* :mod:`~repro.federation.directory.metadata` — the
  :class:`ShardedMetadataStore` (the eduGAIN metadata aggregate) with
  validity windows: stale metadata fails logins closed;
* :mod:`~repro.federation.directory.ingest` — signed delta feeds from
  federation registrars and the batched :class:`MetadataIngestor`.

Every ``build_isambard`` deployment builds the two tiers (one shard
each by default); ``build_isambard(directory=True)`` sizes them and
:func:`install` adds the ingestor, the chaos hooks and the per-shard
journals, exposing all three as the :class:`FederationDirectory`
runtime handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.federation.directory.ingest import (
    FEED_VALIDITY,
    FeedDelta,
    MetadataFeed,
    MetadataIngestor,
)
from repro.federation.directory.metadata import MetadataShard, ShardedMetadataStore
from repro.federation.directory.sharding import (
    PROBE_COST,
    AccountShard,
    DirectoryConfig,
    DirectoryShard,
    Migration,
    ShardedAccountRegistry,
    ShardedTier,
)

__all__ = [
    "PROBE_COST",
    "FEED_VALIDITY",
    "DirectoryConfig",
    "DirectoryShard",
    "AccountShard",
    "MetadataShard",
    "Migration",
    "ShardedTier",
    "ShardedAccountRegistry",
    "ShardedMetadataStore",
    "FeedDelta",
    "MetadataFeed",
    "MetadataIngestor",
    "FederationDirectory",
]


@dataclass
class FederationDirectory:
    """Runtime handle bundling the directory tier's moving parts."""

    config: DirectoryConfig
    accounts: ShardedAccountRegistry
    metadata: ShardedMetadataStore
    ingestor: MetadataIngestor

    def verify_invariants(self) -> dict:
        """Cross-shard invariant sweep over both tiers."""
        return {
            "accounts": self.accounts.verify_invariants(),
            "metadata": self.metadata.verify_invariants(),
        }

    def stats(self) -> dict:
        return {
            "accounts": self.accounts.stats(),
            "metadata": self.metadata.stats(),
            "ingest": self.ingestor.stats(),
        }


def install(dri, config: DirectoryConfig) -> FederationDirectory:
    """Run the deployment's two tiers as the federation directory.

    Turned on by ``build_isambard(directory=...)``, which also sizes the
    tiers the builder constructs (past one shard, for 1M+ users and 10k
    IdPs) and gives them telemetry and audit.  This adds a batched
    :class:`MetadataIngestor` consuming signed registrar delta feeds
    (validity windows fail stale-metadata logins closed), the chaos
    hooks ``faults.shard_down`` and ``faults.metadata_feed_stale``,
    per-shard journals when ``durability`` is on, and a crash target
    per shard (``dri.crash("dir-acct-03")`` et al.).  Shards rebalance
    with deterministic key migration on ``add_shard``/``remove_shard``.
    The runtime handle is ``dri.directory``.
    """
    directory = FederationDirectory(
        config=config, accounts=dri.myaccessid.registry, metadata=dri.edugain,
        ingestor=MetadataIngestor(dri.clock, dri.edugain,
                                  audit=dri.logs["external"],
                                  telemetry=dri.telemetry),
    )
    tiers = {"accounts": directory.accounts, "metadata": directory.metadata}

    def _tier(name: str) -> ShardedTier:
        if name not in tiers:
            raise ConfigurationError(f"no directory tier {name!r}")
        return tiers[name]

    faults = dri.faults
    faults.register_hooks(
        "shard_down",
        lambda tier, shard: _tier(tier).shard_down(shard),
        lambda tier, shard: _tier(tier).shard_up(shard),
    )
    faults.register_hooks(
        "metadata_feed_stale",
        lambda feed: directory.ingestor.set_feed_down(feed, True),
        lambda feed: directory.ingestor.set_feed_down(feed, False),
    )
    store = dri.durability
    for tier in tiers.values():
        for name in sorted(tier.shards):
            shard = tier.shards[name]
            if store is not None:
                # each shard journals independently: a single shard
                # crash replays only its own partition
                shard.attach_journal(store.stream(f"dir-{name}"))
            faults.register_crash_target(
                f"dir-{name}", lambda shard=shard: shard,
                lambda up, shard=shard: setattr(shard, "up", up))
        if store is not None:
            # shards added later (rebalancing) get their streams here
            tier.journal_factory = lambda n: store.stream(f"dir-{n}")
    dri.directory = directory
    return directory
