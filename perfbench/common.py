"""Pieces the workloads share: the phase record, group construction,
the simulated device model, disk snapshots and the space measure."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.keys import TID
from repro.shard import ShardedEngine

INDEX = "ix"

#: Page sizes: 512 B makes the 100k-key tree deep (height 4), 8 KB is
#: the POSTGRES page the serving and restart groups use.
SMALL_PAGE = 512
LARGE_PAGE = 8192

#: Device model of the serving workloads (simulated, GIL-releasing
#: sleeps on the benchmark machine; not a real device's figures).
SERVE_WRITE_LATENCY = 0.0003
SERVE_SYNC_LATENCY = 0.004

#: Device model of the restart cycles (read and write, per page).
RESTART_IO_LATENCY = 0.0002

#: Latency kinds that are foreground operations (commits are not).
OP_KINDS = ("read", "write", "scan")

#: Logical bytes of one user write: a 4-byte uint32 key plus a 6-byte TID.
USER_BYTES_PER_WRITE = 10


def tid_for(key: int) -> TID:
    """The TID a preloaded or inserted key points at."""
    return TID(1 + (key >> 8), key & 0xFF)


def seeded(seed: int, stream: str) -> random.Random:
    """An independent random stream per purpose, fixed by the seed."""
    return random.Random(f"{seed}/{stream}")


@dataclass
class Phase:
    """What one measured phase did and how long each part took."""

    seconds: float = 0.0
    start: float | None = None   # perf_counter at the start, if windowed
    ops: int = 0                 # foreground operations completed
    failed: int = 0              # operations or commits that finally failed
    commits: int = 0             # commit (or sync) attempts
    writes: int = 0              # logical writes issued
    retries: int = 0             # Overloaded rejections retried
    cpu_s: float = 0.0
    #: latency samples in seconds by kind: read, write, scan, commit
    lat: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: completion time (perf_counter) of each sample in ``lat``
    at: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    ttfq: list[float] = field(default_factory=list)
    recovery: list[float] = field(default_factory=list)
    reopen: list[float] = field(default_factory=list)
    recover_wall: list[float] = field(default_factory=list)
    heal_fg_ops: int = 0
    violations: list[str] = field(default_factory=list)
    #: metrics-registry snapshot diffs covering the phase
    registry: list[dict] = field(default_factory=list)

    @classmethod
    def merged(cls, phases: list["Phase"]) -> "Phase":
        """One phase summing *phases*."""
        out = cls()
        for ph in phases:
            for name in ("seconds", "ops", "failed", "commits", "writes",
                         "retries", "cpu_s", "heal_fg_ops"):
                setattr(out, name, getattr(out, name) + getattr(ph, name))
            for kind, samples in ph.lat.items():
                out.lat[kind].extend(samples)
                out.at[kind].extend(ph.at.get(kind, ()))
            for name in ("ttfq", "recovery", "reopen", "recover_wall",
                         "violations", "registry"):
                getattr(out, name).extend(getattr(ph, name))
        return out

    def sample(self, kind: str, started: float, finished: float) -> None:
        self.lat[kind].append(finished - started)
        self.at[kind].append(finished)

    def violation(self, message: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(message)
        else:
            self.violations[-1] = f"... and more ({message})"

    @property
    def op_latencies(self) -> list[float]:
        return [t for kind in OP_KINDS for t in self.lat.get(kind, ())]

    def windows(self, count: int) -> list[tuple[float, list[float]]]:
        """Split the phase into *count* equal time windows: ``(ops per
        second, op latencies)`` of the foreground ops that completed in
        each.  Empty when the phase did not record completion times."""
        if self.start is None or any(
                len(self.at.get(k, ())) != len(self.lat.get(k, ()))
                for k in OP_KINDS):
            return []
        width = self.seconds / count
        buckets: list[list[float]] = [[] for _ in range(count)]
        for kind in OP_KINDS:
            for finished, latency in zip(self.at.get(kind, ()),
                                         self.lat.get(kind, ())):
                index = min(int((finished - self.start) / width), count - 1)
                buckets[max(index, 0)].append(latency)
        return [(len(b) / width, b) for b in buckets]


def build_group(n_shards: int, n_keys: int, *, seed: int,
                order: list[int] | None = None) -> tuple[ShardedEngine,
                                                         object]:
    """A *n_shards* hybrid group with keys ``[0, n_keys)`` committed,
    loaded through ``insert_many`` in batches of 1000 in a seeded order
    with a group sync every 10 batches."""
    group = ShardedEngine.create(n_shards, page_size=LARGE_PAGE,
                                 seed=seed)
    tree = group.create_tree("hybrid", INDEX, codec="uint32")
    if order is None:
        order = list(range(n_keys))
        seeded(seed, "preload").shuffle(order)
    for batch_no, start in enumerate(range(0, len(order), 1000)):
        tree.insert_many([(k, tid_for(k)) for k in order[start:start + 1000]])
        if (batch_no + 1) % 10 == 0:
            group.sync_all()
    group.sync_all()
    return group, tree


def set_device(group: ShardedEngine, *, read: float, write: float,
               sync: float) -> None:
    """Set the simulated per-page and per-barrier latencies of every
    shard (engines copy them into reopened engines; disks keep them)."""
    for engine in group.shards:
        engine.read_latency = read
        engine.write_latency = write
        engine.sync_latency = sync
        for disk in engine._disks.values():
            disk.read_latency = read
            disk.write_latency = write


def snapshot(group: ShardedEngine) -> list[dict]:
    return [{name: disk.snapshot() for name, disk in engine._disks.items()}
            for engine in group.shards]


def restore(group: ShardedEngine, snaps: list[dict]) -> None:
    for engine, snap in zip(group.shards, snaps):
        for name, disk in engine._disks.items():
            disk.restore(snap[name])


def durable_bytes(engines) -> int:
    """Bytes of every index file (file length in pages x page size)."""
    return sum(f.disk.n_pages * f.page_size
               for engine in engines for f in engine.open_files())
