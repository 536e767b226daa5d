"""The benchmark's one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point-100k --seed 1 --seconds 15 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the workload up three times (set-up time is the
median), runs one measured phase with tracing off, runs the workload's
correctness oracle, and prints every end-to-end metric.  ``--trace 1``
sets up once, then alternates untraced and traced slices (each kind
adding up to ``--seconds``), and prints every per-layer metric from the
traced ones; it also writes the spans as
Chrome trace-event JSON and a per-layer self-time table under
``.perfbench/``.  ``--workload all`` runs each workload in its own
process, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
OUT_DIR = ".perfbench"
#: Time windows a phase is split into for the end-to-end medians.
WINDOWS = 10
#: The traced run alternates this many untraced and traced slices, so
#: the tracing overhead is not confounded with drift over the run.
TRACE_SLICES = 5
#: The watchdog allows this long per set-up, plus the measured time,
#: plus :data:`WATCHDOG_MARGIN` for the oracle and start-up; a run that
#: has not finished by then is reported failed and the process exits, so
#: a hang in the program cannot outlive the run.  At ``--seconds 15``
#: an untraced run gets 155 s.
SETUP_ALLOWANCE = 30.0
WATCHDOG_MARGIN = 50.0


def _import_program():
    """Put the checkout's sources on the path; the benchmark measures
    the program in this checkout and nothing installed elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def workloads() -> dict:
    from perfbench.point import Point
    from perfbench.restart import Restart
    from perfbench.serving import Ingest, Mixed
    return {cls.name: cls for cls in (Point, Mixed, Ingest, Restart)}


def _fresh_registry() -> None:
    """Components register into the current registry when built; a new
    one per set-up lets discarded set-ups be collected."""
    from repro.obs import MetricsRegistry, set_registry
    set_registry(MetricsRegistry())
    gc.collect()


def _registry_phase(workload, seconds: float, tracer=None):
    """Run one phase; attach the registry diff unless the workload
    already recorded its own per-cycle snapshots."""
    from repro.obs import diff_snapshots, get_registry
    before = get_registry().snapshot()
    phase = workload.run_phase(seconds, tracer)
    if not phase.registry:
        phase.registry.append(diff_snapshots(before,
                                             get_registry().snapshot()))
    return phase


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def end_to_end(phase, setup_times: list[float], space_per_key: float,
               rss_mb: float) -> dict:
    """The metrics of BENCHMARK.json's ``end_to_end`` list (None where
    the sample is too small to support the figure).  Throughput and op
    latencies are medians over :data:`WINDOWS` equal time windows of the
    phase, so a burst of machine noise moves at most one window.  Tail
    percentiles are printed by :func:`report` but not gated: on the
    serving workloads they moved by more than any allowed bound between
    runs of the same code."""
    from perfbench.measure import median, percentile
    windows = phase.windows(WINDOWS)
    if not windows:        # cycle-based phases: pooled over the phase
        ops = phase.op_latencies
        windows = [(phase.ops / phase.seconds if phase.seconds else None,
                    ops)]
    rates = [rate for rate, _ in windows]
    p50s = [percentile(ops, 0.50) for _, ops in windows]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (None if None in rates else median(rates), "1/s"),
        "op_p50_ms": (None if None in p50s else _ms(median(p50s)), "ms"),
        "bytes_per_key": (space_per_key, "B"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def report(phase, setup_times: list[float], space_per_key: float) -> list:
    """Human-readable lines: every end-to-end figure that applies to the
    workload, with its unit and sample count."""
    from perfbench.measure import (highest_supported_quantile, median,
                                   percentile)
    lines = []
    attempted = phase.ops + phase.commits
    lines.append(f"  setup_s          {statistics.median(setup_times):10.3f} s"
                 f"   (median of {len(setup_times)} set-ups)")
    lines.append(f"  ops_per_s        {phase.ops / phase.seconds:10.1f} 1/s"
                 f" ({phase.ops} ops in {phase.seconds:.2f} s)")
    groups = [("op", phase.op_latencies)] + [
        (kind, phase.lat[kind]) for kind in ("read", "write", "scan",
                                             "commit") if phase.lat.get(kind)]
    for kind, samples in groups:
        p50 = percentile(samples, 0.5)
        p99 = percentile(samples, 0.99)
        n = len(samples)
        tail = f"p99 {p99 * 1e3:9.3f} ms" if p99 is not None else (
            f"p99 n/a; p{round(100 * q)} "
            f"{percentile(samples, q) * 1e3:.3f} ms"
            if (q := highest_supported_quantile(n)) else "p99 n/a")
        lines.append(f"  {kind}_p50_ms".ljust(19)
                     + (f"{p50 * 1e3:10.3f} ms" if p50 is not None
                        else "       n/a   ")
                     + f"   {tail}   (n={n})")
    if phase.ttfq:
        lines.append(f"  ttfq_ms          {median(phase.ttfq) * 1e3:10.3f} ms"
                     f"   (median of {len(phase.ttfq)} cycles)")
        lines.append(f"  recovery_s       {median(phase.recovery):10.3f} s"
                     f"   (median of {len(phase.recovery)} cycles)")
    lines.append(f"  error_rate       {phase.failed / max(attempted, 1):10.4f}"
                 f"     ({phase.failed} of {attempted} ops and commits; "
                 f"{phase.retries} Overloaded retries)")
    lines.append(f"  bytes_per_key    {space_per_key:10.2f} B")
    return lines


def watchdog_seconds(seconds: float, trace: bool) -> float:
    """How long a run may take: its set-ups, its measured phases (the
    traced run measures untraced and traced slices of ``seconds`` each)
    and a fixed margin."""
    setups = 1 if trace else SETUP_REPEATS
    return (setups * SETUP_ALLOWANCE + (2 if trace else 1) * seconds
            + WATCHDOG_MARGIN)


def _start_watchdog(name: str, limit: float) -> threading.Timer:
    def expire() -> None:
        print(f"  VIOLATION: {name} did not finish within "
              f"{limit:.0f} s (the program hung)")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}), flush=True)
        os._exit(3)
    timer = threading.Timer(limit, expire)
    timer.daemon = True
    timer.start()
    return timer


def _untraced(workload, seconds: float):
    """Set up SETUP_REPEATS times, then one measured phase."""
    from perfbench.measure import peak_rss_mb
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload.close()        # the previous set-up is gone before ...
        _fresh_registry()       # ... the collection that frees it
        started = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - started)
    phase = _registry_phase(workload, seconds)
    rss_mb = peak_rss_mb()      # before the oracle allocates its model
    problems = phase.violations + workload.verify()
    metrics = end_to_end(phase, setup_times, workload.space_per_key, rss_mb)
    print("\n".join(report(phase, setup_times, workload.space_per_key)))
    return phase, problems, metrics


def _traced(workload, name: str, seconds: float):
    """Set up once, alternate untraced and traced slices, and derive the
    per-layer metrics from the traced ones."""
    from perfbench import layers, spans
    from perfbench.common import Phase
    _fresh_registry()
    started = perf_counter()
    workload.setup()
    setup_times = [perf_counter() - started]
    tracer = spans.Tracer()
    slices: dict[bool, list] = {False: [], True: []}
    for index in range(2 * TRACE_SLICES):
        traced = index % 2 == 1
        if traced:
            layers.install(tracer)
            tracer.enabled = True
        try:
            slices[traced].append(_registry_phase(
                workload, seconds / TRACE_SLICES, tracer if traced else None))
        finally:
            tracer.enabled = False
            tracer.unwrap_all()
    base = Phase.merged(slices[False])
    phase = Phase.merged(slices[True])
    problems = base.violations + phase.violations + workload.verify()
    metrics = layers.per_layer(
        phase, tracer.spans, page_size=workload.page_size,
        base_ops_per_s=base.ops / base.seconds,
        base_cpu_ms_per_op=base.cpu_s * 1e3 / max(base.ops, 1))
    table = spans.render_table(spans.by_name(tracer.spans), phase.seconds)
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    spans.write_chrome_trace(tracer.spans, out_dir / f"trace-{name}.json")
    (out_dir / f"layers-{name}.txt").write_text(table + "\n")
    print("\n".join(report(phase, setup_times, workload.space_per_key)))
    print(table)
    print(f"  untraced ops_per_s {base.ops / base.seconds:.1f}, traced "
          f"{phase.ops / phase.seconds:.1f}; {len(tracer.spans)} spans "
          f"-> {out_dir}")
    return Phase.merged([base, phase]), problems, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.measure import environment
    cls = workloads()[name]
    watchdog = _start_watchdog(name, watchdog_seconds(seconds, trace))
    env = environment(ROOT)
    print(f"perfbench {name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"  environment: python {env['python']} "
          f"({env['implementation']}), nproc {env['nproc']}, "
          f"git {env['git_rev']}")
    print("  device latencies are simulated sleeps on this machine, "
          "not a real device's")
    workload = cls(seed)
    try:
        if trace:
            phase, problems, metrics = _traced(workload, name, seconds)
        else:
            phase, problems, metrics = _untraced(workload, seconds)
    finally:
        workload.close()
        watchdog.cancel()
    if trace:
        how = "per layer"
    elif phase.start is None:
        how = "ops_per_s, op_p50_ms: pooled over the recovery cycles"
    else:
        how = f"ops_per_s, op_p50_ms: medians of {WINDOWS} windows"
    print(f"  metrics of BENCHMARK.json ({how}):")
    for key, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"    {key:<44} {shown:>14} {unit}")
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        problems.append(f"too few samples for {missing}")
    for problem in problems:
        print(f"  VIOLATION: {problem}")
    correct = not problems and phase.failed == 0
    result = {
        "correct": correct,
        "attempted": max(phase.ops + phase.commits, 1),
        # a violation the op counts did not catch still fails the run
        "failed": phase.failed or (0 if correct else 1),
        "metrics": {k: {"value": (v if v is not None else 0.0), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so each has its own peak RSS),
    one after another; exits non-zero if any run did."""
    status = 0
    results = {}
    for name in workloads():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:      # the run died before printing a result
            print(lines[-1])
            results[name] = None
        status = status or proc.returncode
    summary = {
        "correct": all(r and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{name}/{k}": v for name, r in results.items() if r
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    names = list(workloads())
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {names + ['all']}")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
