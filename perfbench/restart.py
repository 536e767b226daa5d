"""``restart-heal``: instant restart of a crashed group under traffic.

Set-up builds a 2-shard ``hybrid`` group with 8 KB pages and 50k
committed keys, then crashes an uncommitted insert burst mid-sync on
every shard with ``RandomSubsetCrash(p=1.0)`` and snapshots the crashed
disks.  Each cycle restores the snapshot, sets 0.2 ms per page read and
write (simulated sleeps on the benchmark machine) and calls
``RecoveryOrchestrator(admit_immediately=True).recover``; the first
lookup after the call gives the time to first query.  One thread then
sends zipfian lookups through ``ShardWorkerPool.run_batch`` in batches of
64 until the background heal completes, and drains any remainder with
``run_heal``; recover call to heal completion is the recovery time.

It uses ``run_batch`` because only its partitions and ``run_heal`` step
the heal queue (server drains do not).  After every cycle an untimed
oracle requires every committed key to be scannable with its TID and
``fsck_group`` to report no errors.
"""

from __future__ import annotations

from time import perf_counter, process_time

from repro.errors import CrashError, ReproError
from repro.obs import scoped_registry
from repro.shard import RecoveryOrchestrator, ShardWorkerPool
from repro.storage import RandomSubsetCrash
from repro.tools.fsck import fsck_group
from repro.workload.generators import zipfian

from .common import (INDEX, LARGE_PAGE, RESTART_IO_LATENCY, Phase, build_group,
                     durable_bytes, restore, set_device, snapshot, tid_for)

COMMITTED = 50_000
SHARDS = 2
BURST = 6000          # uncommitted inserts crashed mid-sync
BATCH = 64            # lookups per run_batch
THETA = 0.99
TRAFFIC = 60_000      # zipfian lookup stream (cycled if used up)


class Restart:
    name = "restart-heal"
    page_size = LARGE_PAGE

    def __init__(self, seed: int, *, committed: int = COMMITTED,
                 inject_lost_write: bool = False):
        self.seed = seed
        self.committed = committed
        self.inject_lost_write = inject_lost_write
        self.group = None
        self.space_per_key = 0.0

    def setup(self) -> None:
        self.group = None
        group, tree = build_group(SHARDS, self.committed, seed=self.seed)
        if self.inject_lost_write:
            # a committed key silently vanishes from stable storage
            tree.delete(self.committed // 2)
            group.sync_all()
        for index in range(SHARDS):
            group.shard(index).crash_policy = RandomSubsetCrash(
                p=1.0, seed=self.seed * 13 + index)
        burst = self.committed + BURST
        for key in range(self.committed, burst):
            try:
                tree.insert(key, tid_for(key))
            except CrashError:
                continue        # that shard is down; keep dirtying the other
        for index in group.live_shards():
            try:
                group.shard(index).sync()
            except CrashError:
                pass
        if group.live_shards():
            raise RuntimeError("set-up could not crash every shard")
        self.group = group
        self.snaps = snapshot(group)
        self.burst_end = burst
        self.traffic = self.inputs()
        self.pos = 0

    def inputs(self) -> list[int]:
        """The zipfian lookup stream for this seed."""
        return zipfian(TRAFFIC, self.committed, theta=THETA, seed=self.seed)

    def next_keys(self, n: int) -> list[int]:
        traffic = self.traffic
        keys = [traffic[(self.pos + i) % len(traffic)] for i in range(n)]
        self.pos += n
        return keys

    # -- the measured phase ------------------------------------------------

    def run_phase(self, seconds: float, tracer=None) -> Phase:
        """Recovery cycles until their timed parts add up to *seconds*;
        each cycle runs under its own metrics registry (so the last
        cycle's engines do not keep earlier ones alive) whose snapshot is
        appended to ``ph.registry``."""
        ph = Phase()
        cpu0 = process_time()
        while ph.seconds < seconds:
            with scoped_registry() as registry:
                self.cycle(ph, tracer)
                ph.registry.append(registry.snapshot())
            if ph.violations:
                break
        ph.cpu_s = process_time() - cpu0
        return ph

    def cycle(self, ph: Phase, tracer) -> None:
        group = self.group
        restore(group, self.snaps)
        set_device(group, read=RESTART_IO_LATENCY, write=RESTART_IO_LATENCY,
                   sync=0.0)
        reads = ph.lat["read"]
        clock = perf_counter
        start = clock()
        recovered, report = RecoveryOrchestrator(
            admit_immediately=True).recover(group, INDEX)
        if not report.ok or report.heal is None:
            ph.failed += 1
            ph.violation(f"admission failed on {report.failed_shards()}")
            return
        heal = report.heal
        tree = heal.tree
        first = self.next_keys(1)[0]
        t0 = clock()
        got = tree.lookup(first)
        done = clock()
        ph.ttfq.append(done - start)
        reads.append(done - t0)
        ph.ops += 1
        self.check(ph, first, got, None)
        for inner in tree.trees:
            inner.lookup = _timed(inner.lookup, reads)
        with ShardWorkerPool(tree) as pool:
            while not heal.done:
                keys = self.next_keys(BATCH)
                batch = pool.run_batch([("lookup", k) for k in keys])
                for result in batch.results:
                    self.check(ph, result.value, result.result, result.error)
                ph.ops += len(keys)
                ph.heal_fg_ops += len(keys)
            pool.run_heal()
            recovery = clock() - start
        ph.recovery.append(recovery)
        ph.seconds += recovery
        ph.reopen.append(max(r.restart_seconds for r in report.shards))
        ph.recover_wall.append(report.wall_seconds)
        if not heal.healed:
            ph.failed += 1
            ph.violation(f"heal did not complete: {heal.progress()}")
        if tracer is not None:
            with tracer.paused():
                self.verify_cycle(ph, recovered, tree)
        else:
            self.verify_cycle(ph, recovered, tree)

    def check(self, ph: Phase, key: int, got, error) -> None:
        if error is not None or got != tid_for(key):
            ph.failed += 1
            ph.violation(f"lookup({key}) = {got} ({error}), "
                         f"want {tid_for(key)}")

    def verify_cycle(self, ph: Phase, recovered, tree) -> None:
        """Every committed key scannable with its TID, nothing else but
        crashed-burst keys, and a clean fsck."""
        set_device(recovered, read=0.0, write=0.0, sync=0.0)
        try:
            rows = list(tree.range_scan())
        except ReproError as exc:
            ph.violation(f"post-heal scan failed: {exc}")
            return
        seen = {}
        for key, tid in rows:
            seen[key] = tid
        missing = [k for k in range(self.committed)
                   if seen.get(k) != tid_for(k)]
        if missing:
            ph.violation(f"{len(missing)} committed key(s) not scannable "
                         f"after heal: {missing[:5]}")
        extra = [k for k, tid in seen.items()
                 if not (0 <= k < self.burst_end and tid == tid_for(k))]
        if extra:
            ph.violation(f"unexpected rows after heal: {extra[:5]}")
        errors = fsck_group(recovered).errors
        if errors:
            ph.violation(f"fsck_group found {errors} error(s) after heal")
        self.space_per_key = durable_bytes(recovered.shards) / max(len(rows),
                                                                   1)

    def verify(self) -> list[str]:
        return []       # every cycle is verified as it ends

    def close(self) -> None:
        self.group = None


def _timed(lookup, samples: list[float]):
    """Time each call of a shard tree's lookup on its owner thread."""
    def timed(value):
        t0 = perf_counter()
        try:
            return lookup(value)
        finally:
            samples.append(perf_counter() - t0)
    return timed
