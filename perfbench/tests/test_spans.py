"""Self-time arithmetic on a synthetic span tree, and the wrappers."""

import threading

import pytest

from perfbench.spans import (Span, Tracer, by_name, chrome_trace,
                             layer_self_shares, self_times)


def span(sid, name, start, end, parent=None, kind="busy"):
    return Span(sid, name, start, end, parent, 1, None, kind)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, "serve.drain", 0.0, 10.0),
        span(2, "shard.route.lookup", 1.0, 4.0, parent=1),
        span(3, "core.lookup", 1.5, 3.5, parent=2),
        span(4, "core.insert", 5.0, 9.0, parent=1),
        # overlaps its sibling and pokes out of its parent: the union,
        # clipped to the parent, counts once
        span(5, "storage.sync", 8.0, 11.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 5.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(3.0)


def test_layer_shares_count_busy_self_time_only():
    spans = [
        span(1, "core.lookup", 0.0, 3.0),
        span(2, "storage.disk.read", 1.0, 2.0, parent=1),
        span(3, "shard.worker.batch", 0.0, 50.0, kind="wait"),
    ]
    stats = by_name(spans)
    assert stats["core.lookup"].self_s == pytest.approx(2.0)
    shares = layer_self_shares(stats)
    assert shares == {"core": pytest.approx(2 / 3),
                      "storage": pytest.approx(1 / 3)}


def test_chrome_trace_events_are_complete_events_in_microseconds():
    doc = chrome_trace([span(1, "core.lookup", 2.0, 2.5),
                        span(2, "storage.sync", 2.1, 2.2, parent=1)])
    first, second = doc["traceEvents"]
    assert first["ph"] == "X" and first["ts"] == 0.0
    assert first["dur"] == pytest.approx(5e5)
    assert second["args"]["parent"] == 1


class Thing:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    def rows(self, n):
        yield from range(n)


def test_wrappers_nest_per_thread_and_restore_on_unwrap():
    tracer = Tracer()
    tracer.wrap(Thing, "outer", "serve.outer")
    tracer.wrap(Thing, "inner", "core.inner", after=lambda args, r: r)
    tracer.wrap(Thing, "rows", "core.rows")
    thing = Thing()
    assert thing.outer(3) == 7                  # disabled: nothing recorded
    assert tracer.spans == []
    tracer.enabled = True
    worker = threading.Thread(target=thing.outer, args=(1,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert thing.outer(3) == 7
    assert list(thing.rows(3)) == [0, 1, 2]
    with tracer.paused():
        thing.outer(5)
    tracer.enabled = False
    names = [s.name for s in tracer.spans]
    assert names.count("serve.outer") == 2 and "core.rows" in names
    by_id = {s.sid: s for s in tracer.spans}
    for inner in (s for s in tracer.spans if s.name == "core.inner"):
        parent = by_id[inner.parent]
        assert parent.name == "serve.outer"
        assert parent.thread == inner.thread
        assert inner.rid in (2, 6)          # the after hook's value
    tracer.unwrap_all()
    assert not any(hasattr(getattr(Thing, name), "__wrapped__")
                   for name in ("outer", "inner", "rows"))
