#!/usr/bin/env python
"""Assert bulk-loaded engines are byte-identical to their baseline.

A change to the load path (row packing, device writes, index inserts)
must leave every loaded byte where it was. This builds the CH database
at scale 2e-5 and 1e-4 (seed 7) and a 4-shard cluster at total scale
1e-4, then compares the sha256 of every device's memory and of every
hash index's contents against the committed
``baselines/load_digests.json``.

Exit status 0 on identity, 1 on any drift (drifting keys printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from repro.cluster.cluster import PushTapCluster
from repro.core.engine import PushTapEngine

#: CH build scales pinned in the baseline (seed 7).
SCALES = (2e-5, 1e-4)
#: Shard count and total scale of the pinned cluster build.
CLUSTER_SHARDS = 4
CLUSTER_SCALE = 1e-4


def engine_digests(engine: PushTapEngine) -> dict:
    """sha256 of every device's memory and every index's entries."""
    devices = {
        f"rank{r}.device{d}": hashlib.sha256(device.data.tobytes()).hexdigest()
        for r, rank in enumerate(engine.ranks)
        for d, device in enumerate(rank.devices)
    }
    indexes = {}
    for name, index in sorted(engine.db.indexes.items()):
        entries = sorted((repr(k), index.probe(k).row_id) for k in index.keys())
        indexes[name] = hashlib.sha256(repr(entries).encode()).hexdigest()
    return {"devices": devices, "indexes": indexes}


def current_digests() -> dict:
    """Rebuild the pinned engines and digest their loaded state."""
    out = {}
    for scale in SCALES:
        out[f"ch_{scale:g}"] = engine_digests(PushTapEngine.build(scale=scale, seed=7))
    cluster = PushTapCluster.build(shards=CLUSTER_SHARDS, scale=CLUSTER_SCALE)
    for shard, engine in enumerate(cluster.engines):
        out[f"cluster{CLUSTER_SHARDS}_{CLUSTER_SCALE:g}.shard{shard}"] = (
            engine_digests(engine)
        )
    return out


def diff(baseline: dict, current: dict) -> list:
    """Exact comparison; returns human-readable drifts."""
    drifts = []
    for build in sorted(set(baseline) | set(current)):
        base, cur = baseline.get(build), current.get(build)
        if base is None or cur is None:
            drifts.append(f"{build}: missing on one side")
            continue
        for section in ("devices", "indexes"):
            for key in sorted(set(base[section]) | set(cur[section])):
                if base[section].get(key) != cur[section].get(key):
                    drifts.append(f"{build}: {section} {key} differs")
    return drifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="baselines/load_digests.json",
        help="committed baseline JSON to compare against",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="(re)write the baseline from the current loader instead",
    )
    args = parser.parse_args(argv)
    current = current_digests()
    if args.write:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0
    with open(args.baseline, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    drifts = diff(baseline, current)
    if drifts:
        for drift in drifts:
            print(f"DRIFT: {drift}", file=sys.stderr)
        return 1
    print(f"loaded bytes and indexes identical to {args.baseline} ({len(baseline)} builds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
