"""Row-level benchmark of the paper pipeline: wall time and design quality.

Run from the root of a checkout::

    python3 perfbench/run.py --workload t5_arith --seed 1 --seconds 48 --trace 0

Each repetition of the workload runs in a fresh interpreter
(``perfbench/rep.py``) with every ``REPRO_*`` knob unset, so peak RSS,
engine counters and the environment belong to that repetition alone.
With ``--trace 0`` the harness runs whole repetitions until
``--seconds`` have passed (at least ``MIN_REPS``) and reports the
median of each end-to-end metric.  With ``--trace 1`` it runs one
untraced and one traced repetition and reports per-layer metrics, the
tracing overhead and the share of the traced wall time the layer spans
cover; coverage below ``COVERAGE_FLOOR`` fails the run.

``--src`` names the source tree to measure (default ``src``), so the
same benchmark code can time an older tree.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any wrong output, failed row or failed repetition
exits non-zero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("t5_arith", "t6_words", "t4_sweep")
#: Setup-only interpreters started per untraced run, on top of the
#: set-up of every timed repetition.
SETUP_SAMPLES = 3
MIN_REPS = 2
#: Start no repetition that would end later than this after launch.
RUN_DEADLINE_S = 150.0
#: Traced runs whose layer spans cover less of the wall fail: a layer
#: went unmeasured.
COVERAGE_FLOOR = 0.9


class RepFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def spawn(args, env, mode: str, tmp: Path, deadline: float, *extra: str) -> dict:
    """Run one repetition in a fresh interpreter; returns its result."""
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--tmp", str(tmp), *extra,
    ]
    started = time.monotonic()
    # Own process group, so a timeout also stops the sweep's pool workers.
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{mode} repetition timed out") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(
            f"{mode} repetition exited {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    result["elapsed_s"] = time.monotonic() - started
    return result


def untraced(args, env, tmp: Path, deadline: float) -> tuple[dict, list[dict]]:
    setups = [
        spawn(args, env, "setup", tmp / f"setup{i}", deadline)["setup_s"]
        for i in range(SETUP_SAMPLES)
    ]
    reps: list[dict] = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or (
        time.monotonic() - start + max(r["elapsed_s"] for r in reps) <= args.seconds
    ):
        if reps and time.monotonic() + max(r["elapsed_s"] for r in reps) > deadline:
            break
        reps.append(spawn(args, env, "run", tmp / f"rep{len(reps)}", deadline))
    setups += [r["setup_s"] for r in reps]

    def median(key: str) -> float:
        return statistics.median(r[key] for r in reps)

    rows = sum(r["rows"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    metrics = {
        "wall_s": median("wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median("peak_rss_mb"),
        "cells": median("cells"),
        "mem_bits": median("mem_bits"),
        "alg33_width_sum": median("alg33_width_sum"),
        "pass_ratio": (rows - failed) / rows,
    }
    return metrics, reps


#: Sweep-layer metrics, read from the untraced ``jobs=2`` SweepReport.
PARALLEL = {
    "parallel.scheduling_overhead_s": "scheduling_overhead_s",
    "parallel.worker_utilization": "worker_utilization",
    "parallel.idle_s": "idle_s",
    "parallel.retries": "retries",
}


def traced(args, env, tmp: Path, deadline: float) -> tuple[dict, list[dict]]:
    reps = []
    sweep: dict = {}
    extra: tuple[str, ...] = ()
    if args.workload == "t4_sweep":
        # Wrappers in this process cannot see pool workers: the sweep
        # numbers come from an untraced jobs=2 run, the spans from an
        # inline jobs=1 run compared with an untraced jobs=1 run.
        reps.append(spawn(args, env, "run", tmp / "sweep", deadline))
        sweep = reps[-1]["sweep"]
        extra = ("--jobs", "1")
    base = spawn(args, env, "run", tmp / "base", deadline, *extra)
    stacks = ("--stacks", str(Path(args.stacks).resolve())) if args.stacks else ()
    run = spawn(args, env, "traced", tmp / "traced", deadline, *extra, *stacks)
    reps += [base, run]
    metrics = dict(run["layers"])
    metrics.update({key: sweep.get(field, 0) for key, field in PARALLEL.items()})
    metrics["trace.overhead"] = run["wall_s"] / base["wall_s"] - 1.0
    if metrics["trace.coverage"] < COVERAGE_FLOOR:
        run["failed"].append(
            f"trace coverage {metrics['trace.coverage']:.3f} below {COVERAGE_FLOOR}"
        )
    return metrics, reps


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def clean_env(src: Path) -> dict:
    """This environment without any REPRO_* knob, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src", help="source tree to measure")
    parser.add_argument("--stacks", default=None,
                        help="traced run: write collapsed stacks to this file")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    tmp = Path(".bench_tmp").resolve() / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        measure = traced if args.trace else untraced
        metrics, reps = measure(args, clean_env(src), tmp, deadline)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it is already gone

    failures = [msg for r in reps for msg in r["failed"]]
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        failures.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "src": str(src),
        "repetitions": [
            {k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "rows", "sweep") if k in r}
            for r in reps
        ],
        "knobs": reps[-1]["knobs"],
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["rows"] for r in reps),
        "failed": len(failures),
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
