"""Batched writes resume their verified descent path.

``insert_many``/``delete_many`` keep the previous leaf run's ancestors
pinned and resume the next descent below them.  Two properties make that
sound, and both are checked here on fresh trees of every kind and on
recoverable trees reopened after a crashed sync (so first-use repairs fire
in the middle of a batch):

* every resumed path equals a fresh root descent toward the same key —
  same pages, bounds and routing slots;
* a batch leaves the index exactly as the same keys applied one at a
  time in key order do: same contents, same ``check()``, a clean fsck and
  the same repairs.

After a crash the single-key path itself fails on some inputs (committed
keys not found, double frees, separators out of bounds, fsck errors: the
recovery defects recorded in CHANGES.md).  There the batch must fail the
same way; an assertion, such as a resumed path that differs from the
root descent, is never compared away.
"""

import random
import struct
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CrashError, StorageEngine, TREE_CLASSES
from repro.errors import ReproError
from repro.fastpath import overridden
from repro.storage import RandomSubsetCrash
from repro.storage.crash import NO_CRASH
from repro.tools.fsck import fsck_engine

from ..conftest import SMALL_PAGE, tid_for

ALL_KINDS = ("normal", "shadow", "reorg", "hybrid")
RECOVERABLE_KINDS = ("shadow", "reorg", "hybrid")
#: the load writes keys ``4*i`` in order; batches insert ``4*i + 2``, so
#: every batch interleaves with the loaded (and possibly damaged) region
LOAD = 350
SYNC_EVERY = 25


def val(k: int) -> str:
    """Index value for key number *k*: 40-byte strings sort like the
    numbers and fit about nine to a 512 B page, so a few hundred keys
    build a three-level tree whose held paths can be cut below the root."""
    return f"{k:06d}".ljust(40, ".")


def _shape(path):
    return [(e.page_no, e.bounds, e.slot) for e in path]


def watch_resumes(tree) -> list:
    """Compare every resumed descent of *tree* with a fresh root descent
    toward the same key; returns the (growing) list of resumed keys."""
    real = tree._descend
    resumed = []

    def descend(key, *, stop_level=0, held=None):
        was_held = bool(held)
        path = real(key, stop_level=stop_level, held=held)
        if was_held:
            fresh = real(key, stop_level=stop_level)
            try:
                assert _shape(fresh) == _shape(path), key.hex()
            finally:
                tree._unpin_path(fresh)
            resumed.append(key)
        return path

    tree._descend = descend
    return resumed


def build(kind, *, seed, crashed):
    """A tree loaded with ``LOAD`` keys in order, synced every
    ``SYNC_EVERY``.  With *crashed* each sync may crash with a random
    subset of its pages written (the crash-campaign shape), and the tree
    is reopened after the crash, before any first-use repair has run.
    Returns the engine, the tree and the keys known to be committed."""
    engine = StorageEngine.create(page_size=SMALL_PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="str")
    if crashed:
        engine.crash_policy = RandomSubsetCrash(p=0.1, seed=seed)
    committed, pending = [], []
    try:
        for i in range(LOAD):
            tree.insert(val(4 * i), tid_for(4 * i))
            pending.append(4 * i)
            if len(pending) == SYNC_EVERY:
                engine.sync()
                committed += pending
                pending = []
    except CrashError:
        engine = StorageEngine.reopen_after_crash(engine)
        tree = TREE_CLASSES[kind].open(engine, "ix")
    else:
        engine.crash_policy = NO_CRASH
        engine.sync()
        committed += pending
    return engine, tree, committed


def outcome(kind, *, seed, crashed, inserts, deletes, batched):
    engine, tree, committed = build(kind, seed=seed, crashed=crashed)
    victims = list(dict.fromkeys(committed[i % len(committed)]
                                 for i in deletes)) if committed else []
    fresh = [4 * i + 2 for i in inserts]
    resumed = watch_resumes(tree)
    if batched:
        assert tree.insert_many((val(k), tid_for(k)) for k in fresh) == \
            len(fresh)
        assert tree.delete_many(val(k) for k in victims) == len(victims)
    else:
        for k in sorted(fresh):
            tree.insert(val(k), tid_for(k))
        for k in sorted(victims):
            tree.delete(val(k))
    assert tree.file.pool.total_pins() == 0
    repairs = Counter(r.kind for r in tree.repair_log)
    # first-use repair is lazy: heal what the ops did not touch before the
    # whole-tree checks
    tree.drive_repairs()
    items = tree.items()
    checked = tree.check(require_peer_chain=not crashed)
    engine.sync()
    report = fsck_engine(engine)
    return {"items": items, "check": checked, "repairs": repairs,
            "fsck": (report.errors, report.keys)}, resumed


def settle(kind, **kwargs):
    """:func:`outcome`, or the error the ops raised instead (a damaged
    page can also fail to decode)."""
    try:
        return outcome(kind, **kwargs)
    except (ReproError, struct.error) as exc:
        return {"error": (type(exc).__name__, str(exc))}, []


def assert_batch_matches_singles(kind, *, seed, crashed, inserts, deletes):
    got, resumed = settle(kind, seed=seed, crashed=crashed,
                          inserts=inserts, deletes=deletes, batched=True)
    want, _ = settle(kind, seed=seed, crashed=crashed, inserts=inserts,
                     deletes=deletes, batched=False)
    assert got == want
    if not crashed:
        assert "error" not in got and got["fsck"][0] == 0
    return got, resumed


INSERTS = st.lists(st.integers(0, LOAD), unique=True, max_size=250)
DELETES = st.lists(st.integers(0, LOAD), max_size=150)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**16),
       inserts=INSERTS, deletes=DELETES)
def test_resumed_paths_match_root_descents_on_fresh_trees(
        kind, seed, inserts, deletes):
    assert_batch_matches_singles(kind, seed=seed, crashed=False,
                                 inserts=inserts, deletes=deletes)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(RECOVERABLE_KINDS), seed=st.integers(0, 2**16),
       inserts=INSERTS, deletes=DELETES)
def test_resumed_paths_match_root_descents_after_a_crash(
        kind, seed, inserts, deletes):
    assert_batch_matches_singles(kind, seed=seed, crashed=True,
                                 inserts=inserts, deletes=deletes)


@pytest.mark.parametrize("kind", RECOVERABLE_KINDS)
def test_repairs_fire_between_resumes(kind):
    """A batch over a crashed tree both resumes and repairs: the first-use
    checks still run on every edge the resumed descents take."""
    got, resumed = assert_batch_matches_singles(
        kind, seed=5, crashed=True, inserts=list(range(0, LOAD, 2)),
        deletes=list(range(0, LOAD, 3)))
    assert resumed
    assert sum(got["repairs"].values()) > 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_counts_root_and_resumed_descents(kind):
    with overridden(True):
        _, tree, _ = build(kind, seed=3, crashed=False)
    fp = tree._fastpath
    changes = tree.stats_splits + getattr(tree, "stats_sync_stalls", 0)
    tree.insert_many((val(4 * i + 2), tid_for(4 * i + 2))
                     for i in range(0, LOAD, 2))
    changes = (tree.stats_splits + getattr(tree, "stats_sync_stalls", 0)
               - changes)
    # one root descent to start, then one after each split or sync stall
    assert fp.batch_root_descents <= 1 + changes
    assert fp.batch_resumed > fp.batch_root_descents


def _perturb(tree, change):
    """Between a run's descent and its leaf work, change one thing the
    held prefix's seal covers."""
    if change == "version":
        tree.file.mark_dirty(tree.last_path[0].buffer)
    elif change == "sync":
        tree.engine.sync_state.note_split()
        tree.engine.sync()
    elif change == "stamp":
        tree._fp_epoch += 1


@pytest.mark.parametrize("change", [None, "version", "sync", "stamp"])
def test_a_broken_seal_forces_a_root_descent(change):
    with overridden(True):
        _, tree, _ = build("shadow", seed=3, crashed=False)
    real_descend, real_ensure = tree._descend, tree._ensure_peer_path

    def descend(key, **kwargs):
        tree.last_path = real_descend(key, **kwargs)
        return tree.last_path

    def ensure_peer_path(leaf):
        real_ensure(leaf)
        _perturb(tree, change)

    tree._descend, tree._ensure_peer_path = descend, ensure_peer_path
    fp = tree._fastpath
    fresh = [4 * i + 2 for i in range(0, LOAD, 7)]
    assert tree.insert_many((val(k), tid_for(k)) for k in fresh) == \
        len(fresh)
    if change is None:
        assert fp.batch_resumed > 0
    else:
        assert fp.batch_resumed == 0
    assert tree.file.pool.total_pins() == 0
    assert len(tree.check()) == LOAD + len(fresh)
