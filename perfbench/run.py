"""Run one benchmark workload and print its metrics as one JSON line.

Run from the repository root; the package is imported from ``src/``::

    python3 perfbench/run.py --workload protocol-n10 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line carries the end-to-end metrics, measured
with tracing off.  Their times are in units of a fixed reference loop that
runs, untimed by the operation, just before every operation; see
``reference``.  With ``--trace 1`` the run measures half its time
untraced and half with every target in ``spans.TARGETS`` wrapped, and the
last line carries the per-layer metrics.  The line before it is an ``info``
object: machine, seed, transport, sample counts and failure notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SETUP_PROBES = 5
TIMEOUT_S = 60.0


@dataclass
class Phase:
    """Outcome of one measured stretch of the closed loop, in operation order."""

    elapsed: list[float] = field(default_factory=list)  # seconds per operation
    refs: list[float] = field(default_factory=list)  # reference loop before it, seconds
    primary: list[bool] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    next_index: int = 0
    errors: Counter = field(default_factory=Counter)

    @property
    def latencies(self) -> list[float]:
        return [t for t, p in zip(self.elapsed, self.primary) if p]

    @property
    def other(self) -> list[float]:
        return [t for t, p in zip(self.elapsed, self.primary) if not p]


REF_ARRAY = np.arange(4096, dtype=np.float64)


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work (about 2 ms).

    On a shared host (two vCPUs of an Intel Xeon) the speed of the same code
    drifts by up to 1.8x in stretches of tens of seconds, and the process's
    own CPU time drifts with it, so no timer inside the process can tell it
    apart from the program's cost.  Timing this loop next to every operation
    gives the host's speed at that moment.
    """
    start = time.perf_counter()
    acc = 0
    for k in range(12000):
        acc ^= (k * 2654435761) & 0xFFFFFFFF
    a = REF_ARRAY
    for _ in range(20):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - start


def run_once(workload, i: int, phase: Phase, tracer=None) -> None:
    """Time operation ``i``, check its output, and book it into ``phase``."""
    phase.refs.append(reference())
    start = time.perf_counter()
    try:
        result = workload.run(i)
        elapsed = time.perf_counter() - start
        wire = tracer.take_wire() if tracer is not None else ()
        ok = workload.check(i, result, wire)
    except Exception as exc:  # a failed operation is counted, never dropped
        elapsed = time.perf_counter() - start
        phase.errors[type(exc).__name__] += 1
        ok = False
    phase.elapsed.append(elapsed)
    phase.primary.append(workload.primary(i))
    phase.attempted += 1
    phase.failed += not ok
    phase.items += workload.items_per_op if ok else 0


def measure(workload, seconds: float, first: int, tracer=None) -> Phase:
    """Closed loop, one client: start operations until ``seconds`` have passed
    and at least one primary operation has been timed."""
    phase = Phase()
    i = first
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not any(phase.primary):
        run_once(workload, i, phase, tracer)
        i += 1
    phase.wall = time.perf_counter() - start
    phase.next_index = i
    return phase


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of one warm-up operation."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    return elapsed


def machine_info() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        from metrics import END_TO_END, PER_LAYER, beyond, costs, layer_metrics, percentile
        from spans import Tracer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the package from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    factory = WORKLOADS[args.workload]

    if args.setup_probe:
        workload = factory(args.seed)
        try:
            run_once(workload, 0, Phase())
            print("ready", flush=True)
        finally:
            workload.close()
        return 0

    setup = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload = factory(args.seed)
    try:
        warm = Phase()
        run_once(workload, 0, warm)
        if args.trace:
            plain = measure(workload, args.seconds / 2, 1)
            workload.notes.clear()
            tracer = Tracer().install()
            try:
                main_phase = measure(workload, args.seconds / 2, plain.next_index, tracer)
            finally:
                tracer.uninstall()
        else:
            main_phase = measure(workload, args.seconds, 1)
    finally:
        workload.close()

    phases = [warm, main_phase] if not args.trace else [warm, plain, main_phase]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    ops = main_phase.attempted
    cost = costs(main_phase.elapsed, main_phase.refs)
    primary_cost = [c for c, p in zip(cost, main_phase.primary) if p]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "transport": "tcp loopback" if hasattr(workload, "servers") else "none",
        "machine": machine_info(),
        "ops": ops,
        "primary_ops": len(main_phase.latencies),
        "ref_ms_p50": 1e3 * statistics.median(main_phase.refs),
        "op_ms_p50": 1e3 * statistics.median(main_phase.latencies),
        "op_ms_p90": 1e3 * percentile(main_phase.latencies, 0.9),
        "op_cost_p90": percentile(primary_cost, 0.9),
        "beyond_p90": beyond(len(main_phase.latencies), 0.9),
        "items_per_s": main_phase.items / main_phase.wall,
        "notes": dict(workload.notes),
        "exceptions": dict(sum((p.errors for p in phases), Counter())),
    }
    if main_phase.other:
        info["other_ms_p50"] = 1e3 * statistics.median(main_phase.other)
        info["other_cost_p50"] = statistics.median(
            c for c, p in zip(cost, main_phase.primary) if not p
        )
    if args.trace:
        metrics = layer_metrics(tracer, ops, workload.notes)
        metrics["trace.overhead_ms"] = 1e3 * (
            statistics.median(main_phase.latencies) - statistics.median(plain.latencies)
        )
        info["missing_spans"] = tracer.missing
        units = PER_LAYER
    else:
        metrics = {
            "op_cost_p50": statistics.median(primary_cost),
            "items_per_kref": 1e3 * main_phase.items / sum(cost),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
