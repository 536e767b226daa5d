"""Regression tests for the exception-window pin leaks the flow lint
(R011/R013) surfaced: a failure injected into the middle of a descent,
a crash-recovery repair, and an error inside a batch that holds its
verified path between leaf runs must all leave the buffer pool with zero
outstanding pins."""

import pytest

from repro import (
    TID,
    TREE_CLASSES,
    DuplicateKeyError,
    KeyNotFoundError,
    StorageEngine,
)
from repro.core.concurrency import set_schedule_hook
from repro.fastpath import overridden

from ..recovery.helpers import build_to_split, crash_keeping

PAGE = 512


def tid_for(i: int) -> TID:
    return TID(1 + (i >> 8), i & 0xFF)


class _FaultOnPinChild:
    """Scheduler hook that raises right after ``_descend`` pins a child
    — inside the window the exception guard has to cover."""

    def __init__(self, after: int = 0):
        self.countdown = after

    def point(self, kind, **detail):
        if kind != "pin_child":
            return
        if self.countdown == 0:
            raise RuntimeError("injected fault after child pin")
        self.countdown -= 1


@pytest.mark.parametrize("kind", sorted(TREE_CLASSES))
def test_descend_fault_releases_every_pin(kind):
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(300):
        tree.insert(i, tid_for(i))
    assert tree.height >= 2
    assert tree.file.pool.total_pins() == 0

    previous = set_schedule_hook(_FaultOnPinChild())
    try:
        # key 0 is far from the leaf finger, forcing a full descent
        with pytest.raises(RuntimeError, match="injected fault"):
            tree.lookup(0)
    finally:
        set_schedule_hook(previous)
    assert tree.file.pool.total_pins() == 0

    # the tree is still fully usable after the aborted descent
    assert tree.lookup(0) is not None
    tree.insert(10_000, tid_for(10_000))
    assert tree.lookup(10_000) is not None
    assert tree.file.pool.total_pins() == 0


@pytest.mark.parametrize("keep", ["parent", "pa"])
def test_reorg_recovery_repair_leaves_no_pins(keep):
    """The lost-child repair path (``_source_parent_entry`` and friends)
    takes extra pins on the parent and source pages; after recovery every
    one of them must be back."""
    engine, tree, committed, _, info = build_to_split("reorg")
    assert info["parent"] is not None
    crash_keeping(engine, tree, tree.file.name, {info[keep]})

    engine2 = StorageEngine.reopen_after_crash(engine)
    tree2 = TREE_CLASSES["reorg"].open(engine2, "ix")
    missing = [k for k in committed if tree2.lookup(k) is None]
    assert not missing
    assert tree2.file.pool.total_pins() == 0


def _build_deep(kind):
    engine = StorageEngine.create(page_size=PAGE, seed=3)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for i in range(0, 600, 2):
        tree.insert(i, tid_for(i))
    assert tree.height >= 2
    return tree


def _fault_on_resumed_check(tree) -> None:
    """Make ``_check_child`` raise, but only inside a descent resumed from
    a batch's held path."""
    real_descend, real_check = tree._descend, tree._check_child
    resuming = []

    def descend(key, *, stop_level=0, held=None):
        resuming.append(bool(held))
        try:
            return real_descend(key, stop_level=stop_level, held=held)
        finally:
            resuming.pop()

    def check_child(*args):
        if resuming and resuming[-1]:
            raise RuntimeError("injected fault on a resumed edge")
        return real_check(*args)

    tree._descend = descend
    tree._check_child = check_child


@pytest.mark.parametrize("kind", ["shadow", "reorg", "hybrid"])
def test_resumed_check_child_fault_releases_every_pin(kind):
    tree = _build_deep(kind)
    _fault_on_resumed_check(tree)
    # odd keys a page apart: the second key needs a resumed descent
    with pytest.raises(RuntimeError, match="resumed edge"):
        tree.insert_many((k, tid_for(k)) for k in range(1, 600, 40))
    assert tree.file.pool.total_pins() == 0
    del tree._descend, tree._check_child
    # the keys before the fault landed, the rest did not
    landed = [k for k in range(1, 600, 40) if tree.lookup(k) is not None]
    assert landed and landed == list(range(1, 1 + 40 * len(landed), 40))
    assert tree.insert_many((k, tid_for(k)) for k in range(3, 600, 40)) \
        == 15
    assert tree.file.pool.total_pins() == 0
    assert len(tree.check()) == 300 + len(landed) + 15


@pytest.mark.parametrize("kind", sorted(TREE_CLASSES))
def test_error_after_resume_releases_every_pin(kind):
    with overridden(True):
        tree = _build_deep(kind)
    fp = tree._fastpath
    # the duplicate (300) is reached only after resumed descents
    with pytest.raises(DuplicateKeyError):
        tree.insert_many((k, tid_for(k))
                         for k in [*range(1, 299, 40), 300])
    assert fp.batch_resumed > 0
    assert tree.file.pool.total_pins() == 0
    resumed = fp.batch_resumed
    # the missing key (301) likewise, after resumed deletes
    with pytest.raises(KeyNotFoundError):
        tree.delete_many([*range(0, 299, 40), 301])
    assert fp.batch_resumed > resumed
    assert tree.file.pool.total_pins() == 0
    # eight keys were inserted before the duplicate, eight deleted
    assert len(tree.check()) == 300
