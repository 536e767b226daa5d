"""``serve-mixed`` and ``serve-ingest``: the serving front-end under two
closed-loop clients.

Both run a :class:`~repro.serve.Server` in its default group-commit
mode over a 2-shard ``hybrid`` group with 8 KB pages and 50k preloaded
keys.  After the preload the device model is 0.3 ms per page write and
4 ms per sync barrier (simulated sleeps on the benchmark machine).  The
scheduler's default pressure threshold (48 dirty frames) and the commit
stage's default 2 ms linger apply.

* ``serve-mixed``: each client runs ``mixed_ops`` (zipfian theta 0.99,
  50 % lookup, 50 % update) through its own ``Session`` and commits every
  4 writes.  Client *c* only updates keys of parity *c*, so every key has
  one writer and its expected value is exact.
* ``serve-ingest``: each client pipelines transactions of 32
  ``submit("insert")`` calls over its own fresh keys, then commits; one
  transaction in 8 instead deletes 32 of the client's own committed
  keys.  Its 50k preloaded keys are every 8th key of ``[0, 400k)`` and
  the fresh keys fill the gaps (client 0 the residues 1-3, client 1 the
  residues 5-7, each in seeded random order), so inserts spread over the
  whole tree from the first transaction.  Fresh keys in a range of their
  own would start in an empty region and dirty more pages per commit as
  it fills, making throughput fall through the run.

Every lookup is checked against the model.  After the phase an untimed
oracle shuts the group down cleanly, reopens it, and requires every
acknowledged write to be readable, nothing else to be there, and
``fsck_group`` to report no errors.  It restarts cleanly rather than
after a crash because crash recovery of this group loses committed keys
(README, "Why restart-heal and the crash oracle are held out").
"""

from __future__ import annotations

import threading
import time
from time import perf_counter, process_time

from repro.core.keys import TID
from repro.errors import ReproError
from repro.serve import Overloaded, Server
from repro.shard import ShardedEngine
from repro.tools.fsck import fsck_group
from repro.workload.generators import mixed_ops

from .common import (INDEX, LARGE_PAGE, SERVE_SYNC_LATENCY,
                     SERVE_WRITE_LATENCY, Phase, build_group, durable_bytes,
                     seeded, set_device, tid_for)

PRELOAD = 50_000
SHARDS = 2
CLIENTS = 2
THETA = 0.99
READ_FRACTION = 0.5
COMMIT_EVERY = 4                 # serve-mixed: writes per commit
TXN_SIZE = 32                    # serve-ingest: requests per transaction
DELETE_EVERY = 8                 # serve-ingest: one delete txn in 8
OPS_PER_CLIENT = 40_000          # serve-mixed op stream (cycled if used up)
GAP = 8                          # serve-ingest: preload every 8th key
RESIDUES = ((1, 2, 3), (5, 6, 7))  # serve-ingest: each client's gap keys
BACKOFF = 0.001                  # Overloaded retry pause


class _Serving:
    """Set-up, client threads and the restart oracle both share."""

    page_size = LARGE_PAGE

    def __init__(self, seed: int, *, preload: int = PRELOAD,
                 inject_lost_write: bool = False):
        self.seed = seed
        self.preload = preload
        self.inject_lost_write = inject_lost_write
        self.server = None
        self.group = None
        self.sessions = None
        self.space_per_key = 0.0

    def setup(self) -> None:
        self.close()
        group, tree = build_group(SHARDS, self.preload, seed=self.seed,
                                  order=self.preload_order())
        set_device(group, read=0.0, write=SERVE_WRITE_LATENCY,
                   sync=SERVE_SYNC_LATENCY)
        self.group = group
        self.server = Server(tree)
        self.sessions = [self.server.session() for _ in range(CLIENTS)]
        self.prepare()

    def preload_order(self) -> list[int] | None:
        """The preloaded keys in load order (None: ``[0, preload)``)."""
        return None

    def prepare(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop the server and drop the group, so the next set-up does
        not build its group while this one is still alive."""
        if self.server is not None:
            self.server.close()
        self.server = None
        self.group = self.sessions = None

    # -- the measured phase ------------------------------------------------

    def run_phase(self, seconds: float, tracer=None) -> Phase:
        tallies = [Phase() for _ in range(CLIENTS)]
        cpu0 = process_time()
        start = perf_counter()
        deadline = start + seconds
        threads = [threading.Thread(target=self._client_guarded,
                                    args=(c, deadline, tallies[c]),
                                    name=f"bench-client-{c}")
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ph = Phase.merged(tallies)
        ph.seconds = perf_counter() - start
        ph.start = start
        ph.cpu_s = process_time() - cpu0
        return ph

    def _client_guarded(self, c: int, deadline: float, ph: Phase) -> None:
        try:
            self.client(c, deadline, ph)
        except Exception as exc:  # a client must report, never vanish
            ph.failed += 1
            ph.violation(f"client {c} died: {type(exc).__name__}: {exc}")

    def client(self, c: int, deadline: float, ph: Phase) -> None:
        raise NotImplementedError

    def submit(self, session, ph: Phase, op: str, key: int, tid=None):
        """Submit with retry on Overloaded (backpressure, not failure)."""
        while True:
            try:
                return session.submit(op, key, tid)
            except Overloaded:
                ph.retries += 1
                time.sleep(BACKOFF)

    def commit(self, session, ph: Phase) -> bool:
        t0 = perf_counter()
        try:
            session.commit()
        except ReproError as exc:
            ph.failed += 1
            ph.violation(f"commit failed: {type(exc).__name__}: {exc}")
            return False
        finally:
            ph.sample("commit", t0, perf_counter())
            ph.commits += 1
        return True

    # -- the end-of-run oracle -----------------------------------------------

    def restart_clean(self) -> tuple[list[str], dict]:
        """Close the server, shut the group down cleanly, reopen it and
        read the whole index back."""
        tree = self.server.tree
        self.server.close()
        self.server = None
        tree.close_clean()
        self.group.shutdown()
        reopened = ShardedEngine.reopen(self.group)
        set_device(reopened, read=0.0, write=0.0, sync=0.0)
        rows = dict(reopened.open_tree(INDEX).range_scan())
        problems = []
        errors = fsck_group(reopened).errors
        if errors:
            problems.append(f"fsck_group found {errors} error(s)")
        self.space_per_key = durable_bytes(reopened.shards) / max(len(rows),
                                                                  1)
        self.group = reopened
        return problems, rows


class Mixed(_Serving):
    name = "serve-mixed"

    def inputs(self) -> list[list[tuple[str, int]]]:
        """Each client's op stream for this seed."""
        return [mixed_ops(OPS_PER_CLIENT, self.preload,
                          read_fraction=READ_FRACTION, theta=THETA,
                          seed=self.seed * 1000 + c)
                for c in range(CLIENTS)]

    def prepare(self) -> None:
        self.ops = self.inputs()
        self.pos = [0] * CLIENTS
        self.seq = [0] * CLIENTS
        #: per client: key -> TID of its latest update / latest acked one
        self.last: list[dict[int, TID]] = [{} for _ in range(CLIENTS)]
        self.acked: list[dict[int, TID]] = [{} for _ in range(CLIENTS)]

    def client(self, c: int, deadline: float, ph: Phase) -> None:
        session = self.sessions[c]
        ops, last, acked = self.ops[c], self.last[c], self.acked[c]
        pending: set[int] = set()
        since_commit = 0
        clock = perf_counter
        while clock() < deadline:
            kind, key = ops[self.pos[c] % len(ops)]
            self.pos[c] += 1
            if kind == "read":
                self.read(session, c, key, ph)
                continue
            key = key - key % CLIENTS + c       # this client's parity
            self.seq[c] += 1
            tid = TID(100 + c, self.seq[c] & 0xFFFF)
            dropped = self.inject_lost_write
            self.inject_lost_write = False
            t0 = clock()
            try:
                if not dropped:
                    self.submit(session, ph, "update", key,
                                tid).future.result()
            except ReproError as exc:
                ph.failed += 1
                ph.violation(f"update({key}): {exc}")
                continue
            finally:
                ph.sample("write", t0, clock())
                ph.ops += 1
                ph.writes += 1
            last[key] = tid
            if dropped:     # read the lost write back at once
                self.read(session, c, key, ph)
            pending.add(key)
            since_commit += 1
            if since_commit >= COMMIT_EVERY:
                if self.commit(session, ph):
                    for k in pending:
                        acked[k] = last[k]
                pending.clear()
                since_commit = 0
        if pending and self.commit(session, ph):
            for k in pending:
                acked[k] = last[k]

    def read(self, session, c: int, key: int, ph: Phase) -> None:
        """One lookup, checked: exact on this client's keys (it is their
        only writer), the preload or the other client's write otherwise."""
        t0 = perf_counter()
        try:
            got = self.submit(session, ph, "lookup", key).future.result()
        except ReproError as exc:
            ph.failed += 1
            ph.violation(f"lookup({key}): {exc}")
            return
        finally:
            ph.sample("read", t0, perf_counter())
            ph.ops += 1
        owner = key % CLIENTS
        if owner == c:
            want = self.last[c].get(key, tid_for(key))
            ok = got == want
        else:
            want = f"{tid_for(key)} or TID({100 + owner}, *)"
            ok = got == tid_for(key) or (got is not None
                                         and got.page_no == 100 + owner)
        if not ok:
            ph.failed += 1
            ph.violation(f"lookup({key}) = {got}, want {want}")

    def verify(self) -> list[str]:
        problems, rows = self.restart_clean()
        lost = []
        for key in range(self.preload):
            owner = self.acked[key % CLIENTS]
            want = owner.get(key, tid_for(key))
            got = rows.get(key)
            if got != want:
                lost.append(f"{key}: {got} (acked {want})")
        if lost:
            problems.append(f"{len(lost)} acked write(s) not readable "
                            f"after restart: {lost[:3]}")
        extra = [k for k in rows if not 0 <= k < self.preload]
        if extra:
            problems.append(f"unexpected keys after restart: {extra[:5]}")
        return problems


class Ingest(_Serving):
    name = "serve-ingest"

    def preload_order(self) -> list[int]:
        keys = list(range(0, GAP * self.preload, GAP))
        seeded(self.seed, "preload").shuffle(keys)
        return keys

    def inputs(self) -> list[list[int]]:
        """Each client's fresh-key order for this seed: its own residues
        in the gaps between preloaded keys, in random order."""
        fresh = []
        for c in range(CLIENTS):
            keys = [k for k in range(GAP * self.preload)
                    if k % GAP in RESIDUES[c]]
            seeded(self.seed, f"fresh{c}").shuffle(keys)
            fresh.append(keys)
        return fresh

    def prepare(self) -> None:
        self.fresh = self.inputs()
        self.pos = [0] * CLIENTS
        self.txn = [0] * CLIENTS
        self.rngs = [seeded(self.seed, f"victims{c}") for c in range(CLIENTS)]
        #: per client: committed live keys, and keys whose delete committed
        self.live: list[list[int]] = [[] for _ in range(CLIENTS)]
        self.deleted: list[set[int]] = [set() for _ in range(CLIENTS)]

    def client(self, c: int, deadline: float, ph: Phase) -> None:
        session = self.sessions[c]
        fresh, live, rng = self.fresh[c], self.live[c], self.rngs[c]
        clock = perf_counter
        while clock() < deadline:
            self.txn[c] += 1
            if self.txn[c] % DELETE_EVERY == 0 and len(live) >= TXN_SIZE:
                victims = []
                for _ in range(TXN_SIZE):
                    i = rng.randrange(len(live))
                    live[i], live[-1] = live[-1], live[i]
                    victims.append(live.pop())
                requests = [self.submit(session, ph, "delete", k)
                            for k in victims]
                inserted, deleted = [], victims
            else:
                if self.pos[c] + TXN_SIZE > len(fresh):
                    break   # fresh keys used up: end this client's phase
                keys = fresh[self.pos[c]:self.pos[c] + TXN_SIZE]
                self.pos[c] += TXN_SIZE
                if self.inject_lost_write:
                    self.inject_lost_write = False  # drop one, ack it anyway
                    requests = [self.submit(session, ph, "insert", k,
                                            tid_for(k)) for k in keys[1:]]
                else:
                    requests = [self.submit(session, ph, "insert", k,
                                            tid_for(k)) for k in keys]
                inserted, deleted = keys, []
            # client-observed latency: submit -> resolved, observed in
            # submission order
            for request in requests:
                request.future.wait()
                ph.sample("write", request.submitted_at, clock())
                error = request.future.error()
                if error is not None:
                    ph.failed += 1
                    ph.violation(f"{request.op}({request.value}): {error}")
            ph.ops += len(requests)
            ph.writes += len(requests)
            if self.commit(session, ph):
                live.extend(inserted)
                self.deleted[c].update(deleted)
            else:
                live.extend(deleted)    # not durable: still live, maybe

    def verify(self) -> list[str]:
        problems, rows = self.restart_clean()
        want = dict.fromkeys(range(0, GAP * self.preload, GAP))
        for c in range(CLIENTS):
            want.update(dict.fromkeys(self.live[c]))
        lost = [k for k in want if rows.get(k) != tid_for(k)]
        if lost:
            problems.append(f"{len(lost)} acked insert(s) not readable "
                            f"after restart: {sorted(lost)[:5]}")
        revived = [k for c in range(CLIENTS) for k in self.deleted[c]
                   if k in rows]
        if revived:
            problems.append(f"acked deletes came back: {revived[:5]}")
        extra = [k for k in rows if k not in want
                 and not any(k in self.deleted[c] for c in range(CLIENTS))]
        if extra:
            problems.append(f"unexpected keys after restart: {extra[:5]}")
        return problems
