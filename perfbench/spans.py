"""In-memory causal spans for the traced benchmark run.

A :class:`Tracer` wraps functions at layer boundaries (from the
benchmark's own files; no program source changes).  Each call records a
:class:`Span` with its name, start, end and parent, the parent taken
from a per-thread stack.  A request id (``rid``) follows a request
object across a queue handoff: the wrapper that admits the request
stamps it, and the wrappers on the far side of the queue read it back.

Spans stay in memory while the run lasts and are written out at the end
as Chrome trace-event JSON (open it in Perfetto or chrome://tracing)
and as a per-layer self-time table.  A span's self time is its duration
minus the part of it covered by its children; a span's layer is the
first dotted component of its name.

Spans of kind ``"wait"`` mark time spent blocked on another thread (a
queue wait, a call that hands work to owner threads and waits for it).
They are listed in the table but left out of the busy self-time shares,
which would otherwise count the same interval twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

#: Spans written to the Chrome trace file; the tables use every span.
CHROME_EVENT_CAP = 200_000


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    rid: object
    kind: str           # "busy" or "wait"

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patch list of every wrapped boundary."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: wrappers record only while this is set
        self.enabled = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, kind: str = "busy") -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), name, perf_counter(), parent, None, kind]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        finished = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:       # a generator closed out of order: drop just this one
            stack.remove(frame)
        sid, name, start, parent, rid, kind = frame
        self.spans.append(Span(sid, name, start, finished, parent,
                               threading.get_ident(), rid, kind))

    def record_wait(self, name: str, start: float, end: float,
                    rid: object = None) -> None:
        """A wait that began on one thread and ended on another (a queue
        handoff); it has no parent and sits on no thread's stack."""
        self.spans.append(Span(next(self._ids), name, start, end, None, 0,
                               rid, "wait"))

    def new_rid(self) -> int:
        return next(self._ids)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Stop recording for a block (oracle checks inside a traced
        phase must not show up as program work)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, *,
             kind: str = "busy",
             before: Callable[[tuple], object] | None = None,
             after: Callable[[tuple, object], object] | None = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        *before(args)* runs inside the span before the call and *after(args,
        result)* after it; a non-None return value of either becomes the
        span's request id.  Generator functions get a span that lasts
        until the generator is exhausted or closed.
        """
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr)))
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return (yield from fn(*args, **kwargs))
                frame = tracer.begin(name, kind)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer.end(frame)
            setattr(owner, attr, gen_wrapper)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.begin(name, kind)
            try:
                if before is not None:
                    frame[4] = before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    rid = after(args, result)
                    if rid is not None:
                        frame[4] = rid
                return result
            finally:
                tracer.end(frame)
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of the
    intervals its children cover, clipped to the span itself."""
    by_id = {span.sid: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        lo, hi = max(span.start, parent.start), min(span.end, parent.end)
        if hi > lo:
            children[parent.sid].append((lo, hi))
    out = {}
    for span in spans:
        covered = 0.0
        run: list[float] | None = None      # [lo, hi] of the merged run
        for lo, hi in sorted(children.get(span.sid, ())):
            if run is None or lo > run[1]:
                if run is not None:
                    covered += run[1] - run[0]
                run = [lo, hi]
            else:
                run[1] = max(run[1], hi)
        if run is not None:
            covered += run[1] - run[0]
        out[span.sid] = max(0.0, span.duration - covered)
    return out


class NameStats(NamedTuple):
    name: str
    kind: str
    calls: int
    total_s: float
    self_s: float


def by_name(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, total duration and total self time per span name."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    kinds: dict[str, str] = {}
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.duration
        own[span.name] += selfs[span.sid]
        kinds[span.name] = span.kind
    return {name: NameStats(name, kinds[name], calls[name], total[name],
                            own[name])
            for name in calls}


def layer_self_shares(stats: dict[str, NameStats]) -> dict[str, float]:
    """Each layer's share of the busy self time of every traced layer."""
    per_layer: dict[str, float] = defaultdict(float)
    for entry in stats.values():
        if entry.kind == "busy":
            per_layer[entry.name.split(".", 1)[0]] += entry.self_s
    total = sum(per_layer.values())
    return {layer: (value / total if total else 0.0)
            for layer, value in per_layer.items()}


def render_table(stats: dict[str, NameStats], wall_s: float) -> str:
    """The per-layer self-time table: one row per span name grouped by
    layer, then the busy self-time share of each layer."""
    lines = [f"{'span':<28} {'kind':<4} {'calls':>8} {'total_s':>9} "
             f"{'self_s':>9} {'self/call':>10} {'self/wall':>9}"]
    for entry in sorted(stats.values(), key=lambda e: e.name):
        per_call = entry.self_s / entry.calls if entry.calls else 0.0
        lines.append(
            f"{entry.name:<28} {entry.kind:<4} {entry.calls:>8} "
            f"{entry.total_s:>9.3f} {entry.self_s:>9.3f} "
            f"{per_call * 1e6:>8.1f}us "
            f"{(entry.self_s / wall_s if wall_s else 0.0):>9.1%}")
    lines.append("")
    lines.append("busy self-time share by layer:")
    for layer, share in sorted(layer_self_shares(stats).items(),
                               key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<10} {share:>6.1%}")
    return "\n".join(lines)


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event JSON (complete events, microseconds).  Waits
    that cross threads go on a pseudo-thread 0."""
    origin = min((span.start for span in spans), default=0.0)
    events = []
    for span in spans[:CHROME_EVENT_CAP]:
        args = {"sid": span.sid}
        if span.parent is not None:
            args["parent"] = span.parent
        if span.rid is not None:
            args["rid"] = span.rid
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1, "tid": span.thread, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"spans": len(spans),
                          "written": len(events)}}


def write_chrome_trace(spans: list[Span], path) -> None:
    with open(path, "w") as out:
        json.dump(chrome_trace(spans), out)
