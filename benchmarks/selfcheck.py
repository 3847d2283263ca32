#!/usr/bin/env python3
"""Self-checks of the benchmark itself, at tiny sizes (about a minute):

    python3 benchmarks/selfcheck.py

- every workload completes at tiny size, correct, printing exactly the
  metrics ``BENCHMARK.json`` names;
- a corrupted reference value makes ops fail (``failed`` > 0);
- two traced runs of one seed give identical counts and input digests;
- without the library sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, env, result


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    names = {
        "0": {m["name"] for m in BENCH["end_to_end"]},
        "1": {m["name"] for m in BENCH["per_layer"]},
    }
    for w in WORKLOADS:
        proc, _, res = run(w, "--trace", "0")
        expect(proc.returncode == 0 and res is not None and res["correct"]
               and res["failed"] == 0 and set(res["metrics"]) == names["0"],
               f"{w}: tiny run correct with every end-to-end metric")

        proc, _, res = run(w, "--trace", "0", "--corrupt")
        expect(res is not None and res["failed"] > 0 and not res["correct"],
               f"{w}: corrupted reference makes failed > 0")

        traced = [run(w, "--trace", "1") for _ in range(2)]
        ok = all(p.returncode == 0 and r is not None and r["correct"]
                 and set(r["metrics"]) == names["1"] for p, _, r in traced)
        expect(ok, f"{w}: traced run correct with every per-layer metric")
        if ok:
            (_, env_a, a), (_, env_b, b) = traced
            counts = [k for k, m in a["metrics"].items()
                      if m["unit"] in ("count", "bytes")]
            differ = [k for k in counts if a["metrics"][k] != b["metrics"][k]]
            expect(not differ, f"{w}: {len(counts)} counts identical across two traced runs"
                   + (f" (differ: {differ})" if differ else ""))
            expect(env_a["inputs_digest"] == env_b["inputs_digest"],
                   f"{w}: identical input digest across runs")

    bare = ROOT / ".bench_run" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, _, res = run(WORKLOADS[0], "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and res is None,
               "without library sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selfcheck:", "FAILED " + "; ".join(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
