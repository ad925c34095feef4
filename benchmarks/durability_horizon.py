"""Snapshot work of the durability layer over a long lifecycle-allon run.

Usage (from the repository root)::

    python3 benchmarks/durability_horizon.py

Drives perfbench's ``lifecycle-allon`` workload (every subsystem on,
seed 1) for 1,200 users, six times the gated run's length, and prints
one row per 100-user window: the ops in it, the snapshot records and
bytes per op of the audit journals and of all journals, and the wall
milliseconds per op.

Exit status 1 when an audit chain or a revocation probe fails, or when
the audit journals' snapshot records per op in the last window exceed
1.5 times those in the first: sealed audit snapshots cost the events since the
previous one, so that figure stays flat however long the trail grows.
The gate is on the journal's deterministic count, not on wall time,
which other costs that still grow with history make climb anyway (the
last column shows them).
"""

from __future__ import annotations

import os
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads as W  # noqa: E402

USERS = 1200
WINDOW = 100
SEED = 1
MAX_GROWTH = 1.5


def snapshot_work(dri) -> Dict[str, int]:
    """Snapshot records and bytes so far: audit journals and all."""
    out = {"audit_items": 0, "audit_bytes": 0, "items": 0}
    for name, s in dri.durability.stats().items():
        out["items"] += s["snapshot_items"]
        if name.startswith("audit-"):
            out["audit_items"] += s["snapshot_items"]
            out["audit_bytes"] += s["snapshot_bytes"]
    return out


def main() -> int:
    drv, rec = W.setup(W.WORKLOADS["lifecycle-allon"], SEED)
    print(f"{'users':>11} {'ops':>5} {'audit items/op':>15} "
          f"{'audit KB/op':>12} {'all items/op':>13} {'wall ms/op':>11}")
    rows = []
    try:
        for start in range(0, USERS, WINDOW):
            before, ops0 = snapshot_work(drv.dri), rec.attempted
            wall = W.run_ops(drv, rec, WINDOW)
            after, ops = snapshot_work(drv.dri), rec.attempted - ops0
            row = {k: (after[k] - before[k]) / ops for k in after}
            rows.append(row)
            print(f"{start + 1:>5}-{start + WINDOW:<5} {ops:>5} "
                  f"{row['audit_items']:>15.2f} "
                  f"{row['audit_bytes'] / 1024:>12.2f} "
                  f"{row['items']:>13.2f} {1000 * wall / ops:>11.2f}")
        W.verify_chains(drv.dri)
    except W.RunFailed as exc:
        print(f"FAIL: correctness check: {exc}")
        return 1
    if rec.failed:
        # reported, not gated: perfbench gates op outcomes on its
        # 200-user run.  The few failures past it are live users refused
        # after a trace the bounded span store evicted was flagged as
        # unknown and their identity contained
        print(f"note: {rec.failed} of {rec.attempted} ops failed, first: "
              f"{rec.failures[0]}")
    growth = rows[-1]["audit_items"] / rows[0]["audit_items"]
    verdict = "ok" if growth <= MAX_GROWTH else "FAIL"
    print(f"{verdict}: audit snapshot records per op, last window over "
          f"first: {growth:.2f} (bound {MAX_GROWTH})")
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
