#!/usr/bin/env python3
"""Benchmark of the reduction-lab workbench.

    python3 benchmarks/run.py --workload ladder --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
One process, one client, closed loop: each op starts when the previous one
has finished.  BLAS is pinned to one thread, so the run uses one core.

``--trace 0`` prints the end-to-end metrics.  Inputs are built from
``--seed``; whole passes of the workload's fixed op list run until
``--seconds`` have elapsed (at least one pass).  Op times are reported in
units of the reference chunk timed around them (``reference.py``), which
cancels the host's changing speed; the wall-clock figures are on the
``detail`` line.  ``setup_s`` is the median over ``SETUP_SAMPLES`` fresh
interpreters of the time from process start to the first timed op.

``--trace 1`` prints the per-module metrics.  It repeats the set-up with
the library functions wrapped (see ``tracing.py``), then runs a fixed
number of pairs of an untraced and a traced pass, and writes the spans to
``.bench_out/trace-<workload>-<seed>.json``.  The op count is fixed, so
every count repeats exactly for one seed.  ``trace.overhead`` is the traced
op time over the untraced op time of the same passes.

Lines before the last are an environment header and per-size detail
figures; the last line is the JSON result.  Correctness: an op whose
result is wrong, or that raises, counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
MAX_TRACEBACKS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the benchmark's self-check")
    p.add_argument("--corrupt", action="store_true",
                   help="shift every reference value, so every op must fail")
    p.add_argument("--setup-only", type=float, metavar="SPAWNED_AT",
                   help=argparse.SUPPRESS)
    p.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def monotonic() -> float:
    # system-wide clock, so a parent and its child can share a time origin
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # the CLI reads its default tolerance from here; reports must not vary
    os.environ.pop("REDUCTION_LAB_TOL", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def child(args, *extra) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {cmd[2:]} failed:\n{proc.stderr}")
    return proc.stdout.split()


def setup_sample(args) -> tuple:
    """(seconds from spawning a fresh interpreter to the end of set-up,
    input digest) for one child process."""
    seconds, digest = child(args, "--setup-only", repr(monotonic()))
    return float(seconds), digest


def environment(args, digest: str) -> dict:
    import numpy as np
    import reduction_lab

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "reduction_lab": reduction_lab.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "inputs_digest": digest,
    }


def run_pass(workload, samples: list, failures: list, tracer=None, rounds=None) -> None:
    """One pass over the workload's op list; appends (op, seconds, result)
    to ``samples`` and each failed op to ``failures``.  With ``rounds``,
    each op time is also handed to it before the op is checked."""
    for op in workload.ops:
        if tracer is not None:
            tracer.op = len(samples)
        start = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            result = exc
        seconds = time.perf_counter() - start
        if rounds is not None:
            rounds.add(seconds)
        try:
            ok = not isinstance(result, Exception) and workload.check(op, result)
        except Exception as exc:
            ok, result = False, exc
        if not ok:
            failures.append(op)
            if len(failures) <= MAX_TRACEBACKS:
                detail = ("".join(traceback.format_exception(result))
                          if isinstance(result, Exception) else repr(result))
                print(f"failed op {op.label}: {detail}", file=sys.stderr)
        samples.append((op, seconds, result))


def latencies(ops: list, values: list, prefix: str, unit: str) -> dict:
    """Median, 90th percentile and per-tier medians of op ``values``."""
    from workloads import TIERS, percentile

    metrics = {
        f"{prefix}.p50": (statistics.median(values), unit),
        f"{prefix}.p90": (percentile(values, 0.90), unit),
    }
    for tier in TIERS:
        metrics[f"{prefix}.{tier}"] = (
            statistics.median(v for op, v in zip(ops, values) if op.tier == tier), unit)
    return metrics


def end_to_end(samples: list, rel: list, setups: list) -> dict:
    ops = [op for op, _, _ in samples]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_ref": (len(rel) / sum(rel), "1/ref"),
        **latencies(ops, rel, "op_ref", "ref"),
    }


def raw_times(samples: list) -> dict:
    """The same figures in wall-clock time, for the detail line."""
    ops = [op for op, _, _ in samples]
    ms = [seconds * 1e3 for _, seconds, _ in samples]
    metrics = latencies(ops, ms, "op_ms", "ms")
    metrics["ops_per_s"] = (len(ms) * 1e3 / sum(ms), "1/s")
    return {k: v for k, (v, _) in metrics.items()}


def per_layer(tracer, imports: list, untraced_s: float, traced_s: float,
              wall_s: float) -> dict:
    metrics = {}
    for name, value in tracer.summary().items():
        unit = "count" if name.endswith(".calls") or name == "superop.probes" else (
            "bytes" if ".bytes_" in name else "s")
        metrics[name] = (value, unit)
    metrics["import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    metrics["trace.wall_s"] = (wall_s, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reduction_lab" / "__init__.py").is_file():
        print(f"error: no reduction_lab sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()

    if args.import_only:
        start = time.perf_counter()
        import reduction_lab  # noqa: F401

        print(time.perf_counter() - start)
        return 0

    import reduction_lab
    from workloads import WORKLOADS

    if Path(reduction_lab.__file__).resolve().parent.parent != SRC:
        print(f"error: imported reduction_lab from {reduction_lab.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only is not None:
            w = make(args.seed, str(workdir), tiny=args.tiny)
            warm_up(w)
            print(monotonic() - args.setup_only, w.digest, flush=True)
            return 0

        if args.trace:
            imports = [float(child(args, "--import-only")[0]) for _ in range(IMPORT_SAMPLES)]
            digests = set()
        else:
            setups, digests = zip(*(setup_sample(args) for _ in range(SETUP_SAMPLES)))
            digests = set(digests)

        w = make(args.seed, str(workdir), tiny=args.tiny, corrupt=args.corrupt)
        warm_up(w)
        digests.add(w.digest)
        print("env", json.dumps(environment(args, w.digest)), flush=True)

        if args.trace:
            metrics, samples, failed, attempted = traced_run(args, make, w, workdir, imports,
                                                             digests)
        else:
            from reference import Reference, Rounds

            rounds = Rounds(Reference())
            samples, failures = [], []
            start = time.perf_counter()
            while not samples or time.perf_counter() - start < args.seconds:
                run_pass(w, samples, failures, rounds=rounds)
            rounds.close()
            failed, attempted = len(failures), len(samples)
            metrics = end_to_end(samples, rounds.rel, list(setups))

        detail = w.detail(samples)
        if not args.trace:
            detail.update(raw_times(samples))
            detail["ref_ms"] = statistics.median(rounds.levels) * 1e3
        detail["fail_ratio"] = failed / attempted
        detail["passes"] = attempted // len(w.ops)
        print("detail", json.dumps(detail), flush=True)
        if len(digests) != 1:
            print(f"error: set-ups built different inputs {sorted(digests)}", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0 and len(digests) == 1,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, make, w, workdir, imports, digests):
    """Set-up once under tracing, then ``w.trace_passes`` pairs of an
    untraced and a traced pass.  Returns the per-layer metrics, the
    untraced samples, and the failed and attempted op counts."""
    from tracing import Tracer

    tracer = Tracer()
    w.untraced = tracer.paused
    traced_dir = workdir / "traced"
    traced_dir.mkdir()
    tracer.install()
    start = time.perf_counter()
    again = make(args.seed, str(traced_dir), tiny=args.tiny, corrupt=args.corrupt,
                 untraced=tracer.paused)
    warm_up(again)
    wall_s = time.perf_counter() - start
    tracer.uninstall()
    digests.add(again.digest)

    untraced, traced, failures = [], [], []
    for _ in range(w.trace_passes):
        run_pass(w, untraced, failures)
        tracer.install()
        start = time.perf_counter()
        run_pass(w, traced, failures, tracer)
        wall_s += time.perf_counter() - start
        tracer.uninstall()

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(str(out / f"trace-{args.workload}-{args.seed}.json"),
                 [op.label for op, _, _ in traced])
    if tracer.missing:
        print("not traced (not found):", ", ".join(tracer.missing), file=sys.stderr)
    untraced_s = sum(seconds for _, seconds, _ in untraced)
    traced_s = sum(seconds for _, seconds, _ in traced)
    metrics = per_layer(tracer, imports, untraced_s, traced_s, wall_s)
    return metrics, untraced, len(failures), len(untraced) + len(traced)


def warm_up(w) -> None:
    """First op once, untimed, so lazy initialisation is set-up cost."""
    op = w.ops[0]
    w.check(op, w.run(op))


if __name__ == "__main__":
    sys.exit(main())
