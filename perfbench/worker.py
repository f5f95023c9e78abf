"""Benchmark worker: runs one workload in a fresh process and reports it.

Started by ``run.py`` with the same arguments.  Before numpy is imported
it pins BLAS to one thread and caps the process's address space, so an
operation that asks for too much memory raises ``MemoryError`` and is
counted as failed instead of exhausting the machine.

Untraced (``--trace 0``): the workload's set-up runs ``setup_reps``
times (``setup_s`` is the median), then passes over all tasks repeat
until ``--seconds`` have elapsed (``run_s`` is the median pass).
Traced (``--trace 1``): one traced set-up, one untraced pass as the
baseline, then traced passes for ``--seconds``; they give the per-layer
metrics and the tracing overhead (traced over untraced ``run_s``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run whose correctness gate fails prints
no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
# 5,000,000 KiB (4.77 GiB): the seed's s4-regular peak is 2.66 GB RSS.
AS_CAP_BYTES = 5_000_000 * 1024
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin_environment(cap_bytes: int = AS_CAP_BYTES) -> None:
    """Single-threaded BLAS and an address-space cap; call before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))


class Recorder:
    """Collects per-task outcomes of the benchmark operations.

    An operation fails when it raises (``MemoryError`` included) or
    returns a verdict other than its pinned one.  Anything else that
    breaks the correctness gate is a gate failure.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op = -1
        self.attempted = 0
        self.failed = 0
        self.failed_ops: list[int] = []
        self.task_seconds: list[float] = []
        self.problems: list[str] = []
        self.gate_problems: list[str] = []

    def begin_op(self) -> None:
        self.op += 1
        if self.tracer is not None:
            self.tracer.op = self.op

    def add(self, label: str, seconds: float | None, problem: str | None) -> None:
        self.attempted += 1
        if seconds is not None:
            self.task_seconds.append(seconds)
        if problem is not None:
            self.failed += 1
            if not self.failed_ops or self.failed_ops[-1] != self.op:
                self.failed_ops.append(self.op)
            self.problems.append(f"{label}: {problem}")

    def call(self, label: str, fn) -> None:
        """Run one library task; ``fn`` returns None or what is wrong."""
        self.begin_op()
        start = time.perf_counter()
        try:
            problem = fn()
        except Exception as exc:  # MemoryError included: a failed operation
            problem = f"raised {type(exc).__name__}: {exc}"
        self.add(label, time.perf_counter() - start, problem)

    def gate_failure(self, message: str) -> None:
        self.gate_problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.gate_problems


def timed_setups(workload, reps: int) -> tuple[object, list[float]]:
    objects, times = None, []
    for _ in range(reps):
        objects = None
        start = time.perf_counter()
        objects = workload.setup()
        times.append(time.perf_counter() - start)
    return objects, times


def timed_passes(workload, objects, rec: Recorder, seconds: float) -> list[float]:
    """Whole passes over the tasks until ``seconds`` have elapsed (at least one)."""
    times = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        workload.run_pass(objects, rec)
        times.append(time.perf_counter() - start)
        if time.perf_counter() - begin >= seconds:
            return times


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment_info(cap_bytes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "as_cap_bytes": cap_bytes,
    }


def _blas_threads() -> int | str:
    """Thread count reported by the loaded OpenBLAS, else the pinned value."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS')} (environment)"


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) (Lentz's continued fraction)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = a * math.log(x) + b * math.log1p(-x) - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b)
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-300 else 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 1e-14:
            return math.exp(log_front) / a * (f - 1.0)
    raise ArithmeticError("incomplete beta function did not converge")


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A Beta-weighted mean of all order statistics.  The library workloads
    have few task times of very different sizes (6 per S4 pass, 30 per
    cyclic pass), so the plain sample quantile jumps between neighbouring
    tasks from run to run; this estimate moves smoothly instead.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def untraced(workload, seconds: float) -> tuple[Recorder, dict, dict]:
    rec = Recorder()
    objects, setup_times = timed_setups(workload, workload.setup_reps)
    pass_times = timed_passes(workload, objects, rec, seconds)
    if not rec.correct:
        return rec, {}, {}
    samples = rec.task_seconds
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(pass_times),
        "task_p50_ms": quantile(samples, 0.5) * 1e3,
        "task_p90_ms": quantile(samples, 0.9) * 1e3,
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {
        "setup_reps": len(setup_times),
        "passes": len(pass_times),
        "task_samples": len(samples),
        "beyond_p90": sum(s * 1e3 > metrics["task_p90_ms"] for s in samples),
    }
    return rec, metrics, notes


def traced(workload, seconds: float, out_path: Path) -> tuple[Recorder, dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    rec = Recorder(tracer)
    tracer.install()
    try:
        objects, _ = timed_setups(workload, 1)
    finally:
        tracer.uninstall()
    base = Recorder()
    base_run_s = timed_passes(workload, objects, base, 0.0)[0]
    tracer.install()
    try:
        pass_times = timed_passes(workload, objects, rec, seconds)
    finally:
        tracer.uninstall()
    traced_run_s = statistics.median(pass_times)
    tracer.write(out_path)
    metrics = tracer.metrics(len(pass_times), rec.failed_ops, traced_run_s / base_run_s)
    rec.attempted += base.attempted
    rec.failed += base.failed
    rec.problems += base.problems
    rec.gate_problems += base.gate_problems
    notes = {
        "passes": len(pass_times),
        "untraced_run_s": base_run_s,
        "traced_run_s": traced_run_s,
        "spans": len(tracer.span_start),
        "spans_file": os.path.relpath(out_path, ROOT),
    }
    return rec, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import framerel

    if Path(framerel.__file__).resolve().parent != ROOT / "src" / "framerel":
        print(f"perfbench: framerel imported from {framerel.__file__}, not from src/", file=sys.stderr)
        return 2
    from spans import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    info = environment_info(AS_CAP_BYTES)
    try:
        if args.trace:
            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.npz"
            rec, values, notes = traced(workload, args.seconds, out)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            rec, values, notes = untraced(workload, args.seconds)
            units = dict(END_TO_END)
    except Exception as exc:  # set-up failed: count it as a failed operation
        traceback.print_exc()
        rec, values, notes, units = Recorder(), {}, {}, {}
        rec.add("setup", None, f"raised {type(exc).__name__}: {exc}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {args.seconds:g} s")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print("run: " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    failed_ratio = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"  {'failed_ratio':<44} {failed_ratio:.6g} ratio ({rec.failed} failed / {rec.attempted} attempted)")
    for problem in (rec.problems + rec.gate_problems)[:20]:
        print(f"  gate: {problem}")
    if not rec.correct:
        print("correctness gate FAILED: no metrics recorded")
        print(json.dumps({"correct": False, "attempted": rec.attempted, "failed": rec.failed, "metrics": {}}))
        return 1
    for name, value in values.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": True, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
