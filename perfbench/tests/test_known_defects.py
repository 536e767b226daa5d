"""Crash-recovery defects the benchmark's crash oracles found.

They are why ``restart-heal`` is not in BENCHMARK.json and why the
serving workloads end with a clean restart rather than a crash (README,
"Why restart-heal and the crash oracle are held out").  Both tests are
strict xfails: once the program is fixed they pass, which fails the
suite as a reminder to put ``restart-heal`` back and end the serving
runs with a crash-and-recover oracle.
"""

import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from perfbench.common import INDEX, build_group, tid_for
from repro.core.keys import TID
from repro.shard import RecoveryOrchestrator
from repro.storage import RandomSubsetCrash

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a committed key is lost when a sync of "
                   "uncommitted upserts crashes")
def test_committed_keys_survive_a_crashed_burst_of_upserts():
    seed = 6
    group, tree = build_group(2, 50_000, seed=seed)
    rng = random.Random(seed)
    for j in range(8000):                       # committed upserts
        key = rng.randrange(50_000)
        tree.update(key, tid_for(key))
        if j % 8 == 7:
            group.sync_all()
    group.sync_all()
    in_flight: dict[int, set] = {}
    for j in range(400):                        # never committed
        key = rng.randrange(50_000)
        tid = TID(200, j)
        tree.update(key, tid)
        in_flight.setdefault(key, set()).add(tid)
    for index, engine in enumerate(group.shards):
        engine.crash_policy = RandomSubsetCrash(p=1.0, seed=seed * 31 + index)
    assert group.sync_all() == [0, 1]
    recovered, report = RecoveryOrchestrator().recover(group, INDEX)
    assert report.ok
    rows = dict(recovered.open_tree(INDEX).range_scan())
    lost = [k for k in range(50_000) if rows.get(k) != tid_for(k)
            and rows.get(k) not in in_flight.get(k, ())]
    assert lost == []


LIVELOCK = textwrap.dedent("""
    import random, sys
    sys.path[:0] = [{src!r}, {root!r}]
    from perfbench.common import INDEX, tid_for
    from repro.errors import CrashError
    from repro.shard import RecoveryOrchestrator, ShardedEngine
    from repro.storage import RandomSubsetCrash
    group = ShardedEngine.create(2, page_size=8192, seed=2)
    tree = group.create_tree("shadow", INDEX, codec="uint32")
    keys = list(range(50_000))
    random.Random(2).shuffle(keys)
    for batch in range(50):
        tree.insert_many([(k, tid_for(k))
                          for k in keys[batch * 1000:(batch + 1) * 1000]])
        if batch % 10 == 9:
            group.sync_all()
    group.sync_all()
    for index in range(2):
        group.shard(index).crash_policy = RandomSubsetCrash(
            p=1.0, seed=26 + index)
    for key in range(50_000, 56_000):
        try:
            tree.insert(key, tid_for(key))
        except CrashError:
            pass
    for index in group.live_shards():
        try:
            group.shard(index).sync()
        except CrashError:
            pass
    recovered, report = RecoveryOrchestrator(
        admit_immediately=True).recover(group, INDEX)
    sum(1 for _ in report.heal.tree.range_scan())
""")


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="the first range scan after a crashed insert "
                   "burst never returns")
def test_recovery_scan_after_a_crashed_insert_burst_terminates():
    script = LIVELOCK.format(src=str(ROOT / "src"), root=str(ROOT))
    try:
        subprocess.run([sys.executable, "-c", script], check=True,
                       timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("recovery scan still running after 60 s")
