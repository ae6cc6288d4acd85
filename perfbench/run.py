"""srlssvm benchmark: one workload, one closed-loop caller, one JSON result.

    python3 perfbench/run.py --workload fit_class --seed 0 --seconds 24 --trace 0

Runs from the root of a source checkout; the program is imported from
``src/``.  A run has three phases:

1. set-up, in a separate process (setup_inputs.py), repeated from the
   seed at least five times; the repetitions must be byte-identical and
   their median time is ``setup_s``;
2. warm-up operations for WARMUP_S, checked but not timed;
3. the measured phase: operations back to back for ``--seconds`` (and at
   least two blocks, see below), each output checked.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, from spans recorded around
the program's layer boundaries on every other block of operations (the
blocks in between run untraced, which gives the tracing overhead).  Every
metric is printed by name and unit, then an environment line, then the
result as the last line of standard output.  Workloads, metrics and known
defects are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# one program thread and one BLAS thread on every workload: on a shared
# 2-vCPU VM a second BLAS thread gave a fit_class operation no speed-up for
# 1.8x the CPU time, and two grid search workers gave 1.15x with the
# per-operation noise up from 9% to 13%
THREAD_ENV = {"SRLSSVM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# untimed operations run until this long has passed (at least one): a fresh
# process runs its first seconds of small requests up to 1.5x slower
WARMUP_S = 1.5
# a closed-loop tail percentile needs this many samples beyond it
TAIL_MIN_BEYOND = 10
TAIL_MAX_Q = 0.99
# rows_per_s of a workload with one input is a median over windows of at
# least this much operation time
WINDOW_S = 0.5
SETUP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "quality": "score",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(q, value): the highest quantile up to p99 with TAIL_MIN_BEYOND
    samples beyond it, never below the median."""
    import numpy as np

    n = len(latencies)
    q = min(TAIL_MAX_Q, max(0.5, 1.0 - TAIL_MIN_BEYOND / n))
    return q, float(np.quantile(latencies, q))


def _rows_per_s(ops: list[tuple[int, int, float]], cycle: int) -> float:
    """Median-based throughput of timed operations (i, rows, seconds).

    A fit workload cycles through ``cycle`` training sets of different
    cost: the sum of each set's median time is the time for all their
    rows.  With one input, the median over consecutive windows of at least
    WINDOW_S of operation time (a shorter last window is dropped, unless it
    is the only one)."""
    if cycle > 1:
        rows: dict[int, int] = {}
        times: dict[int, list[float]] = {}
        for i, n, dt in ops:
            rows[i % cycle] = n
            times.setdefault(i % cycle, []).append(dt)
        return sum(rows.values()) / sum(statistics.median(t) for t in times.values())
    rates = []
    n, t = 0, 0.0
    for _, r, dt in ops:
        n, t = n + r, t + dt
        if t >= WINDOW_S:
            rates.append(n / t)
            n, t = 0, 0.0
    return statistics.median(rates) if rates else n / t


def _steal_ticks() -> int:
    """Clock ticks, summed over all CPUs, the hypervisor gave other guests
    (0 if not reported)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _blas_libraries() -> list[dict]:
    """Loaded OpenBLAS builds and their live thread counts."""
    import ctypes

    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in paths:
                paths.append(path)
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    entry["threads"] = fn()
                    cfg = getattr(lib, f"{prefix}get_config{suffix}")
                    cfg.restype = ctypes.c_char_p
                    entry["config"] = cfg().decode()
                    break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def _environment(workload) -> dict:
    import numpy as np
    import scipy

    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "caller_threads": int(os.environ["SRLSSVM_THREADS"]),
        "SRLSSVM_THREADS": os.environ["SRLSSVM_THREADS"],
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _blas_libraries(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "l3_cache": l3.read_text().strip() if l3.exists() else "unknown",
        "working_set_bytes_computed": workload.working_set_bytes(),
    }


def _run_setup(args, out_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out_dir)]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          env={**os.environ, **THREAD_ENV})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_mismatches(out_dir: Path, reps: int) -> list[str]:
    """Repetitions whose files differ from repetition 0."""
    first = out_dir / "rep0"
    names = sorted(p.name for p in first.iterdir())
    bad = []
    for rep in range(1, reps):
        other = out_dir / f"rep{rep}"
        if sorted(p.name for p in other.iterdir()) != names or any(
                (first / n).read_bytes() != (other / n).read_bytes() for n in names):
            bad.append(f"set-up repetition {rep} differs from repetition 0")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "srlssvm" / "__init__.py").is_file():
        print(f"error: no srlssvm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    try:
        setup = _run_setup(args, run_dir)
        attempted = len(setup["seconds"])
        failures = _setup_mismatches(run_dir, attempted)

        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
        tracer.op = -1
        runner = workload.runner(run_dir / "rep0", args.seed)
        tracer.op = None
        tracer.uninstall()

        ops: list[tuple[int, int, float]] = []  # untraced: (i, rows, seconds)
        op_walls: dict[int, float] = {}  # traced operation id -> seconds
        # a traced run traces timed operations in blocks that each cover
        # every training set of a fit workload, alternating on and off; every
        # run makes at least two blocks, past --seconds if need be
        block = max(2, runner.cycle)
        min_ops = 2 * block
        i = 0
        timed = 0
        deadline = None
        warm_until = time.perf_counter() + WARMUP_S
        while deadline is None or time.perf_counter() < deadline or timed < min_ops:
            req = runner.request(i)
            traced = deadline is not None and bool(args.trace) \
                and (i - first_timed) // block % 2 == 0
            if traced:
                tracer.install()
                tracer.op = i
            attempted += 1
            timed += deadline is not None
            served = False
            try:
                t0 = time.perf_counter()
                result = runner.serve(req)
                dt = time.perf_counter() - t0
                served = True
            except Exception:
                traceback.print_exc()
                failures.append(f"operation {i} raised")
            finally:
                tracer.op = None
                tracer.uninstall()
            if served:
                failures += runner.check(req, result)
                if deadline is not None:
                    if traced:
                        op_walls[i] = dt
                    else:
                        ops.append((i, runner.rows(req), dt))
            i += 1
            if deadline is None and time.perf_counter() >= warm_until:
                deadline = time.perf_counter() + args.seconds
                first_timed = i
                steal0, wall0 = _steal_ticks(), time.perf_counter()
        steal_frac = (_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK") / (
            os.cpu_count() * (time.perf_counter() - wall0))
        latencies = [dt for _, _, dt in ops]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not latencies or (args.trace and not op_walls):
            print("error: no timed operation succeeded", file=sys.stderr)
            return 1
        quality = runner.quality()

        if args.trace:
            metrics = spans.layer_metrics(tracer.spans, op_walls,
                                          int(os.environ["SRLSSVM_THREADS"]))
            metrics["data.inject_s"] = setup["layers"].get("data.inject_s", 0.0)
            metrics["model.load_s"] = sum(s.seconds for s in tracer.spans
                                          if s.op == -1 and s.name == "model.load")
            traced_p50 = 1e3 * statistics.median(op_walls.values())
            plain_p50 = 1e3 * statistics.median(latencies)
            metrics["trace.op_p50_ms"] = traced_p50
            metrics["trace.untraced_op_p50_ms"] = plain_p50
            metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
            units = spans.LAYER_UNITS
            samples = {"traced_ops": len(op_walls),
                       "untraced_ops": len(latencies)}
            tracer.write_jsonl(WORK / f"{tag}.spans.jsonl")
        else:
            q, tail = _tail(latencies)
            metrics = {
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_tail_ms": 1e3 * tail,
                "rows_per_s": _rows_per_s(ops, runner.cycle),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup["seconds"]),
                "quality": quality,
            }
            units = END_TO_END_UNITS
            samples = {"ops": len(latencies), "tail_quantile": q,
                       "setup_reps": len(setup["seconds"]),
                       "rows": sum(r for _, r, _ in ops)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = _environment(workload)
    # share of the machine's CPU time the hypervisor gave other guests
    # while this run measured: a high value explains a slow run
    env["steal_frac"] = steal_frac
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:32s} {value:14.6g} {units.get(name, '')}")
    print(f"{args.workload:14s} {'failed_frac':32s} {len(failures) / attempted:14.6g} "
          f"(failed {len(failures)} of {attempted})")
    for problem in failures[:20]:
        print(f"{args.workload:14s} FAILED: {problem}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "samples": samples, "setup_seconds": setup["seconds"], "environment": env,
              "failures": failures, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    (WORK / f"{tag}.report.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
