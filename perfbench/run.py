"""Benchmark runner for simorx: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the runner sets up the workload, timing it, runs
operations for ``--seconds`` seconds, times the same set-up in eight fresh
child processes spread evenly over that window, and reports the end-to-end
metrics of BENCHMARK.json: throughput as measured, set-up time scaled to a
reference machine speed (see REFERENCE_S).
With ``--trace 1`` it runs every operation twice, untraced and traced,
checks that both produced identical outputs, and reports the per-layer
metrics; the spans go to ``.perfbench/spans-<workload>-s<seed>.jsonl``.

The last line of standard output is the result object; the line before it
holds the details (machine, per-operation samples, checks, trace table).
The runner sets no thread count: BLAS and ``SIMORX_MAX_WORKERS`` keep
whatever the environment gives them, and both are recorded.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_CHILDREN = 8
# The machine's speed drifts by up to 1.5x over seconds to minutes, as much
# on a pure Python loop as on the package, and a set-up of about 0.1 s feels
# it most.  Each set-up is therefore timed together with reference_seconds(),
# run in the same process just before it, before any package code, and
# setup_s is reported at the speed at which that probe takes REFERENCE_S,
# about its median on the 2-vCPU Xeon the benchmark was written on.  The raw
# set-up times are in the detail line.  Throughput is not scaled.
REFERENCE_S = 0.0045
MIN_OPS = 3
# Runs stop after this long past --seconds even if fewer than MIN_OPS
# operations finished, so a slow build still exits in time.
OVERRUN_S = 60.0
OUT_DIR = ".perfbench"


def benchmark_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_mb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "SIMORX_MAX_WORKERS": os.environ.get("SIMORX_MAX_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; only this process, not its children.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter and numpy work that never calls
    the package: a probe of the machine's speed, not the program's.  The
    median of three repeats, so that one brief stall does not count."""
    m = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    x = np.linspace(-2.0, 2.0, 20_000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        for _ in range(30):
            m @ m
            np.tanh(x).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_setup(workload, seed):
    """The workload's state, its set-up time, and that time at reference
    machine speed.  The probe runs just before the set-up, in this process,
    before any package code has run, so nothing the package does can move it."""
    speed = REFERENCE_S / reference_seconds()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    seconds = time.perf_counter() - t0
    return state, seconds, seconds * speed


def child_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """``timed_setup``'s two times, measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, scaled = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds, scaled


class Runner:
    """Runs operations and keeps their outcomes, counting failed units."""

    def __init__(self, workload, state, seed):
        self.workload = workload
        self.state = state
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, index):
        try:
            outcome = self.workload.op(self.state, self.seed, index)
        except Exception as exc:  # a failed operation is counted, not fatal
            units = self.workload.planned_units()
            self.attempted += units
            self.failed += units
            self.failures.append(f"operation {index}: {type(exc).__name__}: {exc}")
            return None
        self.attempted += outcome.units
        return outcome

    def run_for(self, seconds: float, step) -> list:
        """Results of ``step(index)`` for index 0, 1, ..., until ``seconds``
        have passed and at least MIN_OPS ran."""
        results = []
        start = time.perf_counter()
        while True:
            results.append(step(len(results)))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(results) >= MIN_OPS or elapsed >= seconds + OVERRUN_S:
                return results


def run_untraced(workload, args, detail):
    state, setup_s, setup_scaled_s = timed_setup(workload, args.seed)
    setups = [(setup_s, setup_scaled_s)]
    runner = Runner(workload, state, args.seed)
    # The fresh-process set-ups are spread over the measured window, between
    # operations, so that they sample the machine over the same stretch of
    # time as the operations do.
    due = [args.seconds * k / SETUP_CHILDREN for k in range(SETUP_CHILDREN)]
    start = time.perf_counter()

    def step(index):
        while due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            setups.append(child_setup_seconds(workload.name, args.seed))
        return runner.run_op(index)

    results = runner.run_for(args.seconds, step)
    for _ in due:
        setups.append(child_setup_seconds(workload.name, args.seed))
    outcomes = [o for o in results if o is not None]
    rates = [o.blocks / o.seconds for o in outcomes]
    detail.update(
        reference_s=REFERENCE_S,
        setup_samples_s=[t for t, _ in setups],
        setup_scaled_s=[scaled for _, scaled in setups],
        ops=len(outcomes),
        blocks_per_s_samples=rates,
        rate_l=[o.rate_l for o in outcomes],
    )
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": peak_rss_mb(),
        "blocks_per_s": statistics.median(rates) if rates else 0.0,
    }
    return runner, outcomes, values


def run_traced(workload, args, detail):
    import checks
    import layers
    from tracer import Tracer

    state = workload.setup(args.seed)
    runner = Runner(workload, state, args.seed)
    # Set-up is traced once, so that checkpoint reads and loads are seen on
    # every workload that has them.
    setup_tracer = Tracer()
    with setup_tracer, setup_tracer.root():
        workload.setup(args.seed)

    # Each operation runs twice, untraced and traced, in alternating order,
    # so that the pair sees the same inputs and the same machine state.
    tracer = Tracer()

    def traced_op(index):
        with tracer, tracer.root():
            return runner.run_op(index)

    def pair(index):
        if index % 2:
            traced = traced_op(index)
            return runner.run_op(index), traced
        return runner.run_op(index), traced_op(index)

    pairs = [(p, t) for p, t in runner.run_for(args.seconds, pair)
             if p is not None and t is not None]
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    runner.failures += checks.identical(
        workload.name, [o.output for o in plain], [o.output for o in traced])
    values, accounting = layers.layer_metrics(tracer, setup_tracer, traced, plain)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-s{args.seed}.jsonl")
    tracer.write(spans_path)
    detail.update(ops=len(traced), spans=len(tracer.spans), spans_file=spans_path,
                  accounting_ms_per_unit=accounting, rate_l=[o.rate_l for o in plain])
    # The traced outcomes equal the untraced ones (checked above), so the
    # output checks run on the untraced ones only.
    return runner, plain, values


def main(argv=None) -> int:
    from workloads import SRC, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not os.path.isdir(os.path.join(SRC, "simorx")):
        print(f"run.py: the simorx package is not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    if args.setup_only:
        print(json.dumps(timed_setup(workload, args.seed)[1:]))
        return 0

    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        runner, outcomes, values = run_traced(workload, args, detail)
    else:
        runner, outcomes, values = run_untraced(workload, args, detail)
    # Names and units come from BENCHMARK.json; a listed metric that the
    # runner does not compute fails here, before any result is printed.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}

    errors = [e for o in outcomes for e in o.errors]
    if outcomes:
        errors += workload.check(runner.state, outcomes)
    else:
        errors.append("no operation completed")
    detail.update(machine=machine_info(), failures=runner.failures, check_errors=errors)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
