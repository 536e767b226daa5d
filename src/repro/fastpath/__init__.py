"""Hot-path performance layer: decoded-key caches and leaf fingers.

The paper's Table 1 compares insert/lookup cost of the recoverable trees
against a conventional B-tree; this layer removes the avoidable Python
overhead that comparison would otherwise drown in, without weakening any
of the crash-safety machinery:

* **Per-frame decoded-key directory** (:class:`FastPath.keys_for`): each
  :class:`~repro.storage.buffer_pool.Buffer` carries a globally monotonic
  ``version`` bumped on every mutation event, and the directory maps
  ``page_no -> (version, [keys...])``.  On a hit,
  :meth:`NodeView.search <repro.core.nodeview.NodeView.search>` /
  ``route`` become a C-level ``bisect`` over the cached list — zero
  struct unpacks.  Because the version source is global and a frame that
  leaves the pool can only return as a *new* ``Buffer`` with a *new*
  version, ``(page_no, version)`` never repeats: eviction, ``drop``,
  ``remap`` and crash reopen all invalidate by construction.
* **Leaf finger** (per tree): the last verified leaf, its parent-given
  key bounds, and a structure stamp ``(epoch, splits, repairs)``.  An
  in-bounds operation re-validates the page with the same content test
  the descent's ``_check_child`` applies (magic, level, bounds
  containment, no pending backup, no current-window replacement
  advertisement) and is served without a root descent.  Any structural
  change — split, repair, heal, root move, page reclaim, crash — changes
  the stamp, so the finger falls back to a full (repairing) descent.
  First-use detection is never bypassed: a finger is only ever
  *established* by a descent that ran every Section 3 check in the
  current incarnation, and the stamp pins the tree to exactly that
  verified state.

The layer is enabled by default; set ``REPRO_FASTPATH=0`` to disable it
process-wide, or use :func:`overridden` to flip it for a block (the
benchmark measures both sides in one process).  Trees snapshot the flag
at construction time.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from ..obs import get_registry

#: Cap on directory entries per tree; crossing it evicts the oldest
#: entry (plain dict insertion order).  4096 pages cover far more than
#: any benchmarked working set while bounding worst-case memory.
DEFAULT_CACHE_CAP = 4096

_TRUTHY_OFF = ("0", "false", "no", "off")

_enabled = os.environ.get("REPRO_FASTPATH", "1").lower() not in _TRUTHY_OFF


def fastpath_enabled() -> bool:
    """Whether newly constructed trees attach a :class:`FastPath`."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Flip the process-wide default; returns the previous setting.
    Only trees constructed afterwards are affected."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def overridden(flag: bool) -> Iterator[None]:
    """``with overridden(False):`` — construct trees with the fastpath
    forced on/off for the block, restoring the previous setting after."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


class FastPath:
    """Per-tree fastpath state: decoded-key directory + leaf finger.

    Counters are plain ints (the same lazy-export discipline as the
    buffer pool's pin counters); the registry reads them through func
    counters only at snapshot time.
    """

    __slots__ = ("cache_cap", "_entries",
                 "cache_hits", "cache_misses", "cache_evictions",
                 "finger_page", "finger_bounds", "finger_stamp",
                 "finger_hits", "finger_misses", "finger_flushes",
                 "batched_amortized", "batch_root_descents",
                 "batch_resumed")

    def __init__(self, *, kind: str, file_name: str,
                 cache_cap: int = DEFAULT_CACHE_CAP):
        self.cache_cap = cache_cap
        #: page_no -> [version, keys]; a mutable 2-list so in-place
        #: maintenance (:meth:`note_insert`) can restamp the version
        self._entries: dict[int, list] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.finger_page: int | None = None
        self.finger_bounds = None
        self.finger_stamp: tuple[int, int, int] | None = None
        self.finger_hits = 0
        self.finger_misses = 0
        self.finger_flushes = 0
        self.batched_amortized = 0
        #: batch leaf runs reached by a root descent vs. by a descent
        #: resumed from the previous run's held ancestors
        self.batch_root_descents = 0
        self.batch_resumed = 0
        reg = get_registry()
        labels = {"kind": kind, "file": file_name}
        reg.func_counter("fastpath.page_cache.hits",
                         lambda: self.cache_hits, **labels)
        reg.func_counter("fastpath.page_cache.misses",
                         lambda: self.cache_misses, **labels)
        reg.func_counter("fastpath.page_cache.evictions",
                         lambda: self.cache_evictions, **labels)
        reg.func_counter("fastpath.finger.hits",
                         lambda: self.finger_hits, **labels)
        reg.func_counter("fastpath.finger.misses",
                         lambda: self.finger_misses, **labels)
        reg.func_counter("fastpath.finger.flushes",
                         lambda: self.finger_flushes, **labels)
        reg.func_counter("fastpath.batch.amortized",
                         lambda: self.batched_amortized, **labels)
        reg.func_counter("fastpath.batch.root_descents",
                         lambda: self.batch_root_descents, **labels)
        reg.func_counter("fastpath.batch.resumed",
                         lambda: self.batch_resumed, **labels)

    # -- decoded-key directory ---------------------------------------------

    def keys_for(self, buf, view) -> list[bytes] | None:
        """The decoded key list for *buf*'s current content, or ``None``
        when the page bytes cannot be decoded (pre-repair garbage).

        Serves from the directory when the stored version matches
        ``buf.version``; otherwise decodes once through
        :meth:`NodeView.decoded_keys` and caches under the current
        version.
        """
        page_no = buf.page_no
        entry = self._entries.get(page_no)
        if entry is not None and entry[0] == buf.version:
            self.cache_hits += 1
            return entry[1]
        self.cache_misses += 1
        keys = view.decoded_keys()
        if keys is None:
            return None
        entries = self._entries
        if entry is None and len(entries) >= self.cache_cap:
            del entries[next(iter(entries))]
            self.cache_evictions += 1
        entries[page_no] = [buf.version, keys]
        return keys

    def note_insert(self, buf, slot: int, key: bytes,
                    keys: list[bytes]) -> bool:
        """Incrementally maintain the directory after an ordered insert:
        the caller just ran ``insert_item(slot, ...)`` and ``mark_dirty``
        (which bumped ``buf.version``).  *keys* must be the list served
        for the pre-insert content; the identity check refuses anything
        else, in which case the entry simply misses and re-decodes.
        Returns whether the list was updated."""
        entry = self._entries.get(buf.page_no)
        if entry is None or entry[1] is not keys:
            return False
        keys.insert(slot, key)
        entry[0] = buf.version
        return True

    def note_delete(self, buf, slot: int, keys: list[bytes]) -> bool:
        """Mirror of :meth:`note_insert` for ``delete_item``."""
        entry = self._entries.get(buf.page_no)
        if entry is None or entry[1] is not keys:
            return False
        del keys[slot]
        entry[0] = buf.version
        return True

    def cache_len(self) -> int:
        return len(self._entries)

    # -- leaf finger --------------------------------------------------------

    def finger_remember(self, page_no: int, bounds,
                        stamp: tuple[int, int, int]) -> None:
        self.finger_page = page_no
        self.finger_bounds = bounds
        self.finger_stamp = stamp

    def finger_flush(self) -> None:
        """Drop the finger (structure changed or validation failed)."""
        if self.finger_page is not None:
            self.finger_page = None
            self.finger_bounds = None
            self.finger_stamp = None
            self.finger_flushes += 1


__all__ = [
    "DEFAULT_CACHE_CAP",
    "FastPath",
    "fastpath_enabled",
    "overridden",
    "set_enabled",
]
