"""``point-100k``: the embedded tree API on a deep 100k-key index.

One :class:`~repro.storage.StorageEngine` holds a ``hybrid`` tree with
512 B pages.  Set-up loads 100k uint32 keys (the even keys of
``[0, 200k)``) in a seeded random order through ``insert_many`` in
batches of 1000, syncing every 10 batches.  The measured phase is one
thread issuing 80 % uniform lookups (about half hit), 10 % inserts of
fresh odd keys, 5 % deletes of present keys and 5 % 32-key range scans;
the engine syncs every 500 writes and those syncs are the commits.

At 512 B the tree has height 4 and about 4.7k pages, more than the
4096-entry decoded-key cache, so descent, first-use checks, page decode
and cache misses do the work; the device latency is zero.

Every lookup and scan is checked against an in-memory model (a presence
bitmap over the key range); after the phase the whole index is scanned,
checked and fsck'd against the same model.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter, process_time

from repro.core import TREE_CLASSES
from repro.errors import ReproError
from repro.storage import StorageEngine
from repro.tools.fsck import fsck_engine

from .common import INDEX, SMALL_PAGE, Phase, durable_bytes, seeded, tid_for

KEYS = 100_000
LOAD_BATCH = 1000
SYNC_EVERY_BATCHES = 10
SYNC_EVERY_WRITES = 500
SCAN_LEN = 32
#: cumulative thresholds: lookup, insert, delete, (rest) range scan
MIX = (0.80, 0.90, 0.95)


class Point:
    name = "point-100k"
    page_size = SMALL_PAGE

    def __init__(self, seed: int, *, keys: int = KEYS,
                 inject_lost_write: bool = False):
        self.seed = seed
        self.keys = keys
        self.span = 2 * keys
        self.inject_lost_write = inject_lost_write
        self.engine = None
        self.tree = None
        self.space_per_key = 0.0

    def inputs(self) -> tuple[list[int], list[int]]:
        """The load order and the fresh-key order for this seed."""
        load = list(range(0, self.span, 2))
        seeded(self.seed, "load").shuffle(load)
        fresh = list(range(1, self.span, 2))
        seeded(self.seed, "fresh").shuffle(fresh)
        return load, fresh

    def setup(self) -> None:
        self.engine = self.tree = None
        load, self.fresh = self.inputs()
        engine = StorageEngine.create(page_size=SMALL_PAGE, seed=self.seed)
        tree = TREE_CLASSES["hybrid"].create(engine, INDEX, codec="uint32")
        for batch_no, start in enumerate(range(0, len(load), LOAD_BATCH)):
            tree.insert_many([(k, tid_for(k))
                              for k in load[start:start + LOAD_BATCH]])
            if (batch_no + 1) % SYNC_EVERY_BATCHES == 0:
                engine.sync()
        engine.sync()
        self.engine, self.tree = engine, tree
        self.present = bytearray(self.span)
        self.present[0::2] = b"\x01" * self.keys
        self.live = self.keys
        self.next_fresh = 0
        self.unsynced = 0
        self.rng = seeded(self.seed, "ops")

    # -- the measured phase ------------------------------------------------

    def run_phase(self, seconds: float, tracer=None) -> Phase:
        ph = Phase()
        tree, engine, present = self.tree, self.engine, self.present
        rng, span = self.rng, self.span
        sample = ph.sample
        clock = perf_counter
        cpu0 = process_time()
        start = ph.start = clock()
        deadline = start + seconds
        while clock() < deadline:
            draw = rng.random()
            wrote = False
            try:
                if draw < MIX[0] or (draw < MIX[1] and
                                     self.next_fresh >= len(self.fresh)):
                    key = rng.randrange(span)
                    t0 = clock()
                    got = tree.lookup(key)
                    sample("read", t0, clock())
                    want = tid_for(key) if present[key] else None
                    if got != want:
                        ph.failed += 1
                        ph.violation(f"lookup({key}) = {got}, want {want}")
                elif draw < MIX[1]:
                    key = self.fresh[self.next_fresh]
                    self.next_fresh += 1
                    t0 = clock()
                    if self.inject_lost_write:
                        self.inject_lost_write = False   # dropped write
                    else:
                        tree.insert(key, tid_for(key))
                    sample("write", t0, clock())
                    present[key] = 1
                    self.live += 1
                    wrote = True
                elif draw < MIX[2]:
                    key = rng.randrange(span)
                    while not present[key]:
                        key = rng.randrange(span)
                    t0 = clock()
                    tree.delete(key)
                    sample("write", t0, clock())
                    present[key] = 0
                    self.live -= 1
                    wrote = True
                else:
                    lo = rng.randrange(span)
                    t0 = clock()
                    rows = list(islice(tree.range_scan(lo), SCAN_LEN))
                    sample("scan", t0, clock())
                    problem = self._check_scan(lo, rows)
                    if problem:
                        ph.failed += 1
                        ph.violation(problem)
            except ReproError as exc:
                ph.failed += 1
                ph.violation(f"{type(exc).__name__}: {exc}")
            ph.ops += 1
            if wrote:
                ph.writes += 1
                self.unsynced += 1
                if self.unsynced >= SYNC_EVERY_WRITES:
                    t0 = clock()
                    engine.sync()
                    sample("commit", t0, clock())
                    ph.commits += 1
                    self.unsynced = 0
        ph.seconds = clock() - start
        ph.cpu_s = process_time() - cpu0
        return ph

    def _check_scan(self, lo: int, rows) -> str | None:
        """A scan from *lo* must return the next SCAN_LEN present keys in
        order, each with its TID, skipping none."""
        present = self.present
        prev = lo - 1
        for key, tid in rows:
            if key <= prev or not present[key] or tid != tid_for(key):
                return f"scan({lo}) returned {key} -> {tid} after {prev}"
            if present.find(1, prev + 1, key) != -1:
                return f"scan({lo}) skipped a key between {prev} and {key}"
            prev = key
        if len(rows) < SCAN_LEN and present.find(1, prev + 1) != -1:
            return f"scan({lo}) stopped early after {prev}"
        return None

    # -- the end-of-run oracle ---------------------------------------------

    def verify(self) -> list[str]:
        """Sync, then require the index to hold exactly the model's keys,
        to pass its structural check and fsck with no errors."""
        problems = []
        self.engine.sync()
        want = [k for k in range(self.span) if self.present[k]]
        try:
            rows = list(self.tree.range_scan())
            self.tree.check()
        except ReproError as exc:
            return [f"final check failed: {type(exc).__name__}: {exc}"]
        got = [k for k, _ in rows]
        if got != want:
            missing = sorted(set(want) - set(got))[:5]
            extra = sorted(set(got) - set(want))[:5]
            problems.append(f"final scan differs: missing {missing}, "
                            f"extra {extra}")
        bad = [k for k, tid in rows if tid != tid_for(k)]
        if bad:
            problems.append(f"wrong TIDs for keys {bad[:5]}")
        errors = fsck_engine(self.engine).errors
        if errors:
            problems.append(f"fsck found {errors} error(s)")
        self.space_per_key = durable_bytes([self.engine]) / max(self.live, 1)
        return problems

    def close(self) -> None:
        self.engine = self.tree = None
