"""Layer boundaries the traced run wraps, and the per-layer metrics.

The wrapped functions are the public entry points of each layer
(``repro.storage``, ``repro.core``, ``repro.fastpath``, ``repro.shard``,
``repro.serve``), plus the two serving hand-off points that have no
public function of their own: ``Server._execute`` (one drain pass) and
``GroupCommitStage._barrier`` (one commit window).  For
``repro.fastpath`` these are the :class:`~repro.fastpath.FastPath`
methods the tree calls that do work: ``keys_for`` (a directory hit, or
a page decode on a miss) and the incremental ``note_insert`` /
``note_delete``.  The finger's ``finger_remember`` / ``finger_flush``
only store three fields; a span there would cost more than the call, so
their time stays in ``core`` and the finger is measured by its counters.

Per-layer metrics come from the spans and from diffs of the program's
own metrics registry (``repro.obs``) over the traced phase.  Time
metrics named ``*_s`` are seconds per call (per cycle for the restart
metrics); counts are totals over the traced phase.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from repro.core import TREE_CLASSES
from repro.core.detect import Kind
from repro.fastpath import FastPath
from repro.serve import GroupCommitStage, Server, ShardQueues
from repro.shard import (GroupSyncScheduler, HealQueue, RecoveryOrchestrator,
                         ShardedTree, ShardWorkerPool)
from repro.storage import SimulatedDisk, StorageEngine

from . import spans as sp
from .common import USER_BYTES_PER_WRITE

TREE_OPS = ("lookup", "insert", "insert_many", "delete", "delete_many",
            "range_scan")
FASTPATH_OPS = ("keys_for", "note_insert", "note_delete")
ROUTED_OPS = ("lookup", "insert", "delete", "update", "insert_many",
              "delete_many")
REPAIR_KINDS = tuple(kind.value for kind in Kind)


def install(tracer: sp.Tracer) -> None:
    """Wrap every layer boundary (undone by ``tracer.unwrap_all``)."""
    wrap = tracer.wrap
    wrap(StorageEngine, "sync", "storage.sync")
    wrap(SimulatedDisk, "read_page", "storage.disk.read")
    tree_cls = TREE_CLASSES["hybrid"]
    for op in TREE_OPS:
        wrap(tree_cls, op, f"core.{op}")
    for op in FASTPATH_OPS:
        wrap(FastPath, op, f"fastpath.{op}")
    for op in ROUTED_OPS:
        wrap(ShardedTree, op, f"shard.route.{op}")
    wrap(GroupSyncScheduler, "sync_group_parallel", "shard.barrier",
         kind="wait")
    wrap(RecoveryOrchestrator, "recover", "shard.recovery", kind="wait")
    wrap(HealQueue, "step", "shard.heal.step")
    wrap(ShardWorkerPool, "run_batch", "shard.worker.batch", kind="wait")
    wrap(ShardWorkerPool, "run_heal", "shard.worker.heal", kind="wait")

    def stamp_request(args, request):
        request.bench_rid = tracer.new_rid()
        return request.bench_rid

    def queue_waits(args, taken):
        now = perf_counter()
        for request in taken:
            tracer.record_wait("serve.queue.wait", request.submitted_at, now,
                               getattr(request, "bench_rid", None))
        return None

    def drain_rids(args):
        return [getattr(r, "bench_rid", None) for r in args[2]]

    def stamp_commit(args):
        args[1].bench_rid = tracer.new_rid()
        return args[1].bench_rid

    def linger(args):
        now = perf_counter()
        for commit in args[1]:
            tracer.record_wait("serve.commit.linger", commit.submitted_at,
                               now, getattr(commit, "bench_rid", None))
        return [getattr(c, "bench_rid", None) for c in args[1]]

    wrap(Server, "submit", "serve.admit", after=stamp_request)
    wrap(ShardQueues, "take", "serve.queue.take", after=queue_waits)
    wrap(Server, "_execute", "serve.drain", before=drain_rids)
    wrap(GroupCommitStage, "submit", "serve.commit.submit",
         before=stamp_commit)
    wrap(GroupCommitStage, "_barrier", "serve.commit.barrier", before=linger)


# -- metrics ---------------------------------------------------------------

def _base(key: str) -> tuple[str, dict]:
    if "[" not in key:
        return key, {}
    name, inner = key[:-1].split("[", 1)
    return name, dict(part.split("=", 1) for part in inner.split(","))


class Registry:
    """Sums of counter and histogram deltas across snapshot diffs."""

    def __init__(self, diffs: list[dict]):
        self.diffs = diffs

    def count(self, name: str, **labels: str) -> float:
        total = 0
        for diff in self.diffs:
            for key, value in diff["counters"].items():
                base, have = _base(key)
                if base == name and all(have.get(k) == v
                                        for k, v in labels.items()):
                    total += value
        return total

    def hist(self, name: str) -> tuple[int, float]:
        count, total = 0, 0.0
        for diff in self.diffs:
            for key, summary in diff["histograms"].items():
                if _base(key)[0] == name:
                    count += summary["count"]
                    total += summary["sum"]
        return count, total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(phase, spans: list[sp.Span], *, page_size: int,
              base_ops_per_s: float,
              base_cpu_ms_per_op: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``: *phase* is
    the traced phase, *base_** the untraced phase run just before it."""
    reg = Registry(phase.registry)
    stats = sp.by_name(spans)
    ops = phase.ops
    writes = phase.writes
    cycles = len(phase.recovery)

    def per_call(*names: str, use_self: bool = True) -> float:
        calls = sum(stats[n].calls for n in names if n in stats)
        seconds = sum((stats[n].self_s if use_self else stats[n].total_s)
                      for n in names if n in stats)
        return _ratio(seconds, calls)

    hits = reg.count("buffer_pool.hits")
    misses = reg.count("buffer_pool.misses")
    reads = stats["storage.disk.read"].calls \
        if "storage.disk.read" in stats else 0
    syncs = reg.count("engine.syncs.completed")
    pages_written = reg.count("engine.sync.pages_written")
    sync_n, sync_s = reg.hist("engine.sync.seconds")
    cache_hits = reg.count("fastpath.page_cache.hits")
    cache_misses = reg.count("fastpath.page_cache.misses")
    finger_hits = reg.count("fastpath.finger.hits")
    finger_misses = reg.count("fastpath.finger.misses")
    split_n, split_s = reg.hist("tree.split.seconds")
    windows = reg.count("serve.commit.windows")
    batch_n, batch_sum = reg.hist("serve.batch_size")
    write_requests = sum(reg.count("serve.requests", op=op)
                         for op in ("insert", "delete", "update"))
    traced_ops_per_s = _ratio(ops, phase.seconds)
    shares = sp.layer_self_shares(stats)

    out: dict[str, tuple[float, str]] = {
        "storage.pool.pins_per_op": (_ratio(hits + misses, ops), "count"),
        "storage.pool.hit_rate": (_ratio(hits, hits + misses), "ratio"),
        "storage.pool.evictions": (reg.count("buffer_pool.evictions"),
                                   "count"),
        "storage.disk.reads_per_op": (_ratio(reads, ops), "count"),
        "storage.disk.bytes_written_per_user_byte": (
            _ratio(pages_written * page_size,
                   writes * USER_BYTES_PER_WRITE), "ratio"),
        "storage.sync.count": (syncs, "count"),
        "storage.sync.pages_per_sync": (_ratio(pages_written, syncs),
                                        "count"),
        "storage.sync.busy_s": (_ratio(sync_s, sync_n), "s"),
        "storage.sync.crashed": (reg.count("engine.syncs.crashed"), "count"),
    }
    for op in TREE_OPS:
        out[f"core.{op}.self_s"] = (per_call(f"core.{op}"), "s")
    out.update({
        "core.splits_per_1k_writes": (
            _ratio(reg.count("tree.splits") * 1000, writes), "count"),
        "core.split.busy_s": (_ratio(split_s, split_n), "s"),
        "core.moves_right_per_op": (_ratio(reg.count("tree.moves_right"),
                                           ops), "count"),
        "core.repairs": (reg.count("tree.repairs"), "count"),
    })
    for kind in REPAIR_KINDS:
        out[f"core.repairs.{kind}"] = (reg.count("tree.repairs",
                                                 repair=kind), "count")
    out.update({
        "core.sync_stalls": (reg.count("tree.sync_stalls"), "count"),
        "core.backup_reclaims": (reg.count("tree.backup_reclaims"), "count"),
        "fastpath.page_cache.hit_rate": (
            _ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        "fastpath.page_cache.evictions": (
            reg.count("fastpath.page_cache.evictions"), "count"),
        "fastpath.finger.hit_rate": (
            _ratio(finger_hits, finger_hits + finger_misses), "ratio"),
        "fastpath.batch.amortized": (reg.count("fastpath.batch.amortized"),
                                     "count"),
        "shard.route.self_s": (
            per_call(*(f"shard.route.{op}" for op in ROUTED_OPS)), "s"),
        "shard.scheduler.pressure_syncs": (
            reg.count("shard.sync.triggered", reason="pressure"), "count"),
        "shard.barrier.busy_s": (per_call("shard.barrier", use_self=False),
                                 "s"),
        "shard.barrier.occupancy": (
            _ratio(reg.count("shard.group.commits_coalesced"),
                   reg.count("shard.group.windows")), "count"),
        "shard.recovery.reopen_s": (_median(phase.reopen), "s"),
        "shard.recovery.wall_s": (_median(phase.recover_wall), "s"),
        "shard.heal.units": (_ratio(reg.count("shard.heal.units"), cycles),
                             "count"),
        "shard.heal.busy_s": (
            _ratio(stats["shard.heal.step"].total_s, cycles)
            if "shard.heal.step" in stats else 0.0, "s"),
        "shard.heal.repairs": (_ratio(reg.count("shard.heal.repairs"),
                                      cycles), "count"),
        "shard.heal.fg_ops": (_ratio(phase.heal_fg_ops, cycles), "count"),
        "shard.worker.batch_s": (per_call("shard.worker.batch",
                                          use_self=False), "s"),
        "serve.admit.self_s": (per_call("serve.admit"), "s"),
        "serve.queue.wait_s": (per_call("serve.queue.wait"), "s"),
        "serve.queue.rejected_per_op": (
            _ratio(reg.count("serve.overloaded"), ops), "count"),
        "serve.drain.batch_size": (_ratio(batch_sum, batch_n), "count"),
        "serve.drain.coalesced_frac": (
            _ratio(reg.count("serve.coalesced_ops"), write_requests),
            "ratio"),
        "serve.commit.linger_s": (per_call("serve.commit.linger"), "s"),
        "serve.commit.windows": (windows, "count"),
        "serve.commit.failed": (reg.count("serve.commit.failed"), "count"),
        "proc.cpu_ms_per_op": (base_cpu_ms_per_op, "ms"),
        "obs.trace_overhead": (
            _ratio(base_ops_per_s, traced_ops_per_s) - 1.0, "ratio"),
    })
    for layer in ("storage", "core", "fastpath", "shard", "serve"):
        out[f"layer.{layer}.self_share"] = (shares.get(layer, 0.0), "ratio")
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
