"""Synthetic kernel microbenchmarks: apply / ite / exists throughput.

Unlike the Table 4/5 benchmarks — which time whole experiment
pipelines and therefore mix kernel work with sifting, Algorithm 3.3,
and cascade synthesis — these rows hammer *only* the evaluator of
:mod:`repro.bdd.kernel` on deterministic pseudo-random operand DAGs
over 13 variables.  Each row lands in ``BENCH_PR6.json`` as
``kernel_micro:<op>`` with the usual :func:`repro.bdd.stats.record`
payload, and ``kernel_micro_aggregate`` sums them.

Kernel steps per second is a diagnostic, not a result: there is no
throughput floor.  Run with
``PYTHONPATH=src python -m pytest -q benchmarks/bench_kernel_micro.py``.
"""

from __future__ import annotations

import random

from repro.bdd import BDD, from_truth_table, stats

from conftest import run_once

N_VARS = 13
TABLE_BITS = 1 << N_VARS

#: Micro rows (record key suffix -> number of op invocations).
MICRO_RECORDS = ("kernel_micro:apply", "kernel_micro:ite", "kernel_micro:exists")


def _build_pool(seed: int, n_funcs: int = 6) -> tuple[BDD, list[int], list[int]]:
    """A manager with ``n_funcs`` pseudo-random 13-var functions.

    Truth tables are dense random bit vectors, so the BDDs are wide
    near the bottom.
    """
    rng = random.Random(seed)
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(N_VARS)])
    pool = [
        from_truth_table(
            bdd, vids, [rng.randint(0, 1) for _ in range(TABLE_BITS)]
        )
        for _ in range(n_funcs)
    ]
    return bdd, vids, pool


def _run_apply() -> int:
    bdd, _, pool = _build_pool(seed=1)
    acc = 0
    for i, f in enumerate(pool):
        for g in pool[i + 1 :]:
            acc ^= bdd.apply_and(f, g) ^ bdd.apply_or(f, g) ^ bdd.apply_xor(f, g)
    return acc


def _run_ite() -> int:
    bdd, _, pool = _build_pool(seed=2)
    acc = 0
    n = len(pool)
    for i in range(n):
        acc ^= bdd.ite(pool[i], pool[(i + 1) % n], pool[(i + 2) % n])
        acc ^= bdd.ite(pool[i], pool[(i + 3) % n], pool[(i + 4) % n])
    return acc


def _run_exists() -> int:
    bdd, vids, pool = _build_pool(seed=3)
    lower = bdd.var_group(vids[N_VARS // 2 :])
    upper = bdd.var_group(vids[: N_VARS // 2])
    acc = 0
    for f in pool:
        acc ^= bdd.exists(f, lower) ^ bdd.forall(f, lower) ^ bdd.exists(f, upper)
    return acc


def test_micro_apply(benchmark):
    run_once(benchmark, _run_apply, record_name="kernel_micro:apply",
             workload="binary apply grid")


def test_micro_ite(benchmark):
    run_once(benchmark, _run_ite, record_name="kernel_micro:ite",
             workload="ite grid")


def test_micro_exists(benchmark):
    run_once(benchmark, _run_exists, record_name="kernel_micro:exists",
             workload="group quantification")


def test_throughput_aggregate():
    """Aggregate steps/sec over the micro rows.

    Runs after the micros (pytest executes this file in order); the
    aggregate weights each row by its wall time — i.e. total steps over
    total wall — so a slow row cannot hide behind a fast one.
    """
    done = [name for name in MICRO_RECORDS if name in stats.RECORDS]
    assert done == list(MICRO_RECORDS), f"micro rows missing: {done}"
    steps = sum(stats.RECORDS[name]["kernel_steps"] for name in done)
    wall = sum(stats.RECORDS[name]["wall_s"] for name in done)
    throughput = steps / wall if wall > 0 else 0.0
    stats.RECORDS["kernel_micro_aggregate"] = {
        "rows": list(done),
        "kernel_steps": steps,
        "wall_s": wall,
        "kernel_steps_per_sec": throughput,
    }
    print(
        f"\nkernel micro aggregate: {steps} steps in {wall:.2f}s "
        f"({throughput:,.0f} steps/sec)"
    )
