"""Each workload's oracle, on a tiny run: an injected lost write (a
write the model records as done and acknowledged but the program never
received) must make the run fail."""

import threading

import pytest

from perfbench.point import Point
from perfbench.restart import Restart
from perfbench.serving import Ingest, Mixed

TINY = {Point: {"keys": 2000}, Mixed: {"preload": 2000},
        Ingest: {"preload": 2000}, Restart: {"committed": 2000}}


def tiny_run(cls, *, inject: bool, seconds: float = 0.3):
    """Set up, run and verify a tiny workload.  It runs on a daemon
    thread so that a hang in the program's crash recovery (see
    test_known_defects) fails the test instead of stalling the suite."""
    box: dict = {}

    def body():
        workload = cls(3, inject_lost_write=inject, **TINY[cls])
        try:
            workload.setup()
            phase = workload.run_phase(seconds)
            box["result"] = phase, phase.violations + workload.verify()
        finally:
            workload.close()

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout=60)
    if thread.is_alive():
        pytest.fail(f"tiny {cls.name} run did not finish within 60 s")
    assert "result" in box, f"tiny {cls.name} run raised"
    return box["result"]


def test_clean_tiny_point_run_passes():
    phase, problems = tiny_run(Point, inject=False)
    assert problems == [] and phase.failed == 0
    assert phase.ops > 0 and phase.lat["scan"]


def test_point_lost_insert_trips_the_oracle():
    workload = Point(3, **TINY[Point])
    lost = workload.inputs()[1][0]        # the first fresh key inserted
    phase, problems = tiny_run(Point, inject=True)
    assert problems
    assert any(str(lost) in p for p in problems)


@pytest.mark.parametrize("cls, expect", [
    (Mixed, ("acked write", "lookup(")),
    (Ingest, ("acked insert",)),
    (Restart, ("not scannable", "lookup(")),
])
def test_lost_write_trips_the_oracle(cls, expect):
    phase, problems = tiny_run(cls, inject=True)
    assert problems, "the injected lost write went unnoticed"
    assert any(word in p for p in problems for word in expect), problems
