"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that peak RSS and
the engine counters (both live as long as the process) belong to one
repetition only.  It can also be run by hand::

    PYTHONPATH=src python3 perfbench/rep.py --workload t5_arith --seed 1 \\
        --mode run --tmp .bench_tmp/manual

Modes: ``setup`` stops once the inputs are ready; ``run`` times the
workload with tracing off; ``traced`` installs the span wrappers of
:mod:`spans` first and reports per-layer self time and counts.  Every
mode that runs the workload then checks its outputs against the
``benchfns`` integer reference, outside the timed region.  The result
is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import STRUCTURE, Tracer

#: Table 5 rows of ``t5_arith`` (both design styles each, verify=True).
T5_ROWS = ("5-7-11-13 RNS", "4-digit 11-nary to binary", "3-digit decimal adder")
#: Words in the ``t6_words`` list (drawn from the workload seed).
T6_WORDS = 800
#: Table 4 rows of ``t4_sweep``, longest first: a fresh cost model
#: knows no row, so the executor keeps this submission order.
T4_ROWS = (
    "4-digit decimal adder",
    "3-digit decimal adder",
    "3-5-7-11 RNS",
    "4-digit 7-nary to binary",
    "2-digit decimal adder",
)
#: Table 5 rows in the sweep: the only source of cascade cells there.
T4_TABLE5_ROWS = ("2-digit decimal adder",)
T4_JOBS = 2

#: Care sets up to this size are checked exhaustively, larger ones by
#: ``CHECK_SAMPLES`` minterms drawn from the workload seed.
FULL_CHECK_LIMIT = 4096
CHECK_SAMPLES = 1000
#: Input don't-care minterms drawn per benchmark for the totality and
#: DC=0 checks.
DC_SAMPLES = 100

#: Every environment knob ``src/`` reads; ``run.py`` unsets them all.
KNOBS = (
    "REPRO_TT_FASTPATH",
    "REPRO_TT_WINDOW",
    "REPRO_SELFCHECK",
    "REPRO_MAX_ALIVE",
    "REPRO_JOURNAL_FSYNC",
    "REPRO_FULL_SCALE",
    "REPRO_FAULT_INJECT",
    "REPRO_FAULT_STATE",
    "REPRO_FAULT_HANG_S",
    "REPRO_FAULT_SLOW_S",
)


class Outcome:
    """What one workload run produced, for the metrics and the check."""

    def __init__(self) -> None:
        self.rows = 0
        self.failed: list[str] = []
        self.cells = 0
        self.mem_bits = 0
        self.alg33_width_sum = 0
        #: ``(kind, benchmark or word list, label, artefact)`` to check.
        self.artefacts: list[tuple] = []
        self.sweep = None
        self.fsync = None
        #: Seconds spent measuring Alg. 3.3 widths inside the timed region.
        self.excluded_s = 0.0


def capture_alg33_widths(outcome: Outcome, module) -> None:
    """Add the max width of every Alg. 3.3 result ``module`` computes.

    The measurement runs inside the timed region; its time is recorded
    so that it can be taken out of ``wall_s``.
    """
    from repro.cf.width import max_width

    algorithm_3_3 = module.algorithm_3_3

    def measured(cf, *args, **kwargs):
        result = algorithm_3_3(cf, *args, **kwargs)
        start = time.perf_counter()
        reduced = result[0]
        outcome.alg33_width_sum += max_width(reduced.bdd, reduced.root)
        outcome.excluded_s += time.perf_counter() - start
        return result

    module.algorithm_3_3 = measured


# ----------------------------------------------------------------------
# Workloads: setup(seed) -> inputs, run(inputs, outcome, jobs, tmp)
# ----------------------------------------------------------------------


# Each setup imports what its run needs, so that no import is timed.


def t5_setup(seed: int):
    import repro.experiments.table5  # noqa: F401
    from repro.benchfns.registry import get_benchmark

    return [get_benchmark(name) for name in T5_ROWS]


def t5_run(benches, outcome: Outcome, jobs: int, tmp: Path, tracer=None) -> None:
    from repro.experiments import table5

    capture_alg33_widths(outcome, table5)
    realizations: list = []
    design = table5.design

    def capturing_design(*args, **kwargs):
        result = design(*args, **kwargs)
        realizations.append(result[1])
        return result

    table5.design = capturing_design
    for bench in benches:
        outcome.rows += 1
        realizations.clear()
        if tracer is not None:
            bench.build = tracer.wrap("benchfns.build", bench.build)
        try:
            with _row(tracer, bench.name):
                row = table5.run_row(bench, verify=True)
        except Exception as exc:
            outcome.failed.append(f"{bench.name}: {type(exc).__name__}: {exc}")
            continue
        for cost in (row.dc0, row.reduced):
            outcome.cells += cost.cells
            outcome.mem_bits += cost.lut_memory_bits + cost.aux_memory_bits
        dc0, reduced = realizations
        outcome.artefacts.append(("realization", bench, "DC=0", dc0))
        outcome.artefacts.append(("realization", bench, "Alg3.3", reduced))


def t6_setup(seed: int):
    import repro.experiments.table6  # noqa: F401
    from repro.benchfns.wordlist import WordList, generate_words

    return WordList(generate_words(T6_WORDS, seed=seed))


def t6_run(word_list, outcome: Outcome, jobs: int, tmp: Path, tracer=None) -> None:
    from repro.experiments import table6

    capture_alg33_widths(outcome, table6)
    outcome.rows += 1
    try:
        with _row(tracer, f"fig8:{T6_WORDS}"):
            cost, generator = table6.design_fig8(word_list)
            table6.verify_generator(word_list, generator)
    except Exception as exc:
        outcome.failed.append(f"Fig.8: {type(exc).__name__}: {exc}")
        return
    outcome.cells += cost.cells
    outcome.mem_bits += cost.lut_memory_bits + cost.aux_memory_bits
    outcome.artefacts.append(("generator", word_list, "Fig.8", generator))


def t4_setup(seed: int):
    import repro.bdd.io  # noqa: F401  (imported by the workers' CF shipping)
    import repro.experiments.table4  # noqa: F401
    import repro.experiments.table5  # noqa: F401
    from repro.parallel import table4_task, table5_task

    return [
        table4_task(name, verify=True, ship_cfs=True) for name in T4_ROWS
    ] + [table5_task(name, verify=True) for name in T4_TABLE5_ROWS]


def t4_run(tasks, outcome: Outcome, jobs: int, tmp: Path, tracer=None) -> None:
    import repro.parallel as parallel

    journal = parallel.Journal(tmp / f"sweep-jobs{jobs}.jsonl")
    outcome.fsync = journal.fsync_every
    try:
        report = parallel.run_tasks(
            tasks, jobs=jobs, cost_model=parallel.CostModel(), journal=journal
        )
    finally:
        journal.close()
    outcome.sweep = report
    outcome.rows += len(tasks)
    for failure in report.failures:
        outcome.failed.append(f"{failure.key}: quarantined ({failure.status}): {failure.error}")
    for result in report.results:
        if result.status != "ok":
            outcome.failed.append(f"{result.key}: status {result.status}")
            continue
        try:
            parallel.verify_shipped(result)
        except Exception as exc:
            outcome.failed.append(f"{result.key}: {type(exc).__name__}: {exc}")
            continue
        row = result.result
        if result.key.startswith("table4:"):
            outcome.alg33_width_sum += sum(
                part.measures["Alg3.3"].max_width for part in row.parts
            )
            half = (row.n_outputs + 1) // 2
            out_slices = {"F1": slice(0, half), "F2": slice(half, row.n_outputs)}
            for label, payload in result.shipped_cfs.items():
                part = label.split("/")[0]
                outcome.artefacts.append(
                    ("cf", row.name, label, (payload, out_slices[part]))
                )
        else:
            for cost in (row.dc0, row.reduced):
                outcome.cells += cost.cells
                outcome.mem_bits += cost.lut_memory_bits + cost.aux_memory_bits


WORKLOADS = {
    "t5_arith": (t5_setup, t5_run),
    "t6_words": (t6_setup, t6_run),
    "t4_sweep": (t4_setup, t4_run),
}


def _row(tracer, key: str):
    return tracer.region("row", key) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# Independent output check (outside the timed region)
# ----------------------------------------------------------------------


def reference_points(source, rng: random.Random) -> tuple[list, list]:
    """``(care, dc)`` points of a benchmark or word list.

    ``care`` pairs an input with its reference output: every care
    minterm of a small care set, else a seeded sample; every registered
    word.  ``dc`` holds sampled inputs the reference leaves unspecified
    (input don't cares; non-words, whose address is 0).
    """
    if hasattr(source, "word_to_index"):
        from repro.benchfns.wordlist import WORD_BITS

        care = list(source.word_to_index.items())
        dc = [rng.getrandbits(WORD_BITS) for _ in range(CHECK_SAMPLES)]
        return care, [x for x in dc if x not in source.word_to_index]
    n = source.n_inputs
    if source.care_count() <= FULL_CHECK_LIMIT:
        minterms = list(source.iter_care_minterms())
    else:
        minterms = []
        for _ in range(CHECK_SAMPLES):
            m = 0
            for digit in source.digits:
                m = (m << digit.bits) | digit.encode(rng.randrange(digit.radix))
            minterms.append(m)
    dc = []
    for _ in range(20 * DC_SAMPLES):
        m = rng.getrandbits(n)
        if source.reference(m) is None:
            dc.append(m)
            if len(dc) == DC_SAMPLES:
                break
    return [(m, source.reference(m)) for m in minterms], dc


class PayloadCF:
    """A shipped BDD_for_CF read straight from its ``repro.bdd.io`` payload.

    Evaluated by this file's own walk over the node list, so a defect
    in the engine's evaluation code cannot hide a wrong CF.
    """

    def __init__(self, payload: dict) -> None:
        variables = payload["variables"]
        nvars = len(variables)
        level = {v["name"]: i for i, v in enumerate(variables)}
        meta = payload["charfunction"]
        self.input_levels = [level[name] for name in meta["inputs"]]
        self.output_levels = [level[name] for name in meta["outputs"]]
        outputs = set(self.output_levels)
        # outputs_from[l]: output variables at levels >= l.
        outputs_from = [0] * (nvars + 1)
        for lv in range(nvars - 1, -1, -1):
            outputs_from[lv] = outputs_from[lv + 1] + (lv in outputs)
        node_level = [nvars, nvars] + [lv for lv, _lo, _hi in payload["nodes"]]

        def free(top: int, u: int) -> int:
            """Output variables skipped between level ``top`` and node ``u``."""
            return outputs_from[top] - outputs_from[node_level[u]]

        #: ``(level, lo, hi, outputs skipped to lo, outputs skipped to hi)``
        #: for node ids 2, 3, ...; ids 0 and 1 are the terminals.
        self.nodes = [
            (lv, lo, hi, free(lv + 1, lo), free(lv + 1, hi))
            for lv, lo, hi in payload["nodes"]
        ]
        self.root = payload["roots"]["chi"]
        self.root_free = free(0, self.root)

    def solutions(self, m: int, n_inputs: int) -> tuple[int, list[int]]:
        """Number of output vectors χ admits for input ``m``, and one of them."""
        inputs = {
            lv: (m >> (n_inputs - 1 - pos)) & 1
            for pos, lv in enumerate(self.input_levels)
        }
        nodes = self.nodes
        memo: dict[int, int] = {0: 0, 1: 1}

        def count(u: int) -> int:
            if u not in memo:
                lv, lo, hi, free_lo, free_hi = nodes[u - 2]
                bit = inputs.get(lv)
                if bit is not None:
                    memo[u] = count(hi) << free_hi if bit else count(lo) << free_lo
                else:
                    memo[u] = (count(lo) << free_lo) + (count(hi) << free_hi)
            return memo[u]

        total = count(self.root) << self.root_free
        # One admitted vector: follow the input, take a non-empty branch.
        chosen: dict[int, int] = {}
        u = self.root
        while u > 1:
            lv, lo, hi, _fl, _fh = nodes[u - 2]
            bit = inputs.get(lv)
            if bit is None:
                bit = chosen[lv] = 0 if count(lo) else 1
            u = hi if bit else lo
        return total, [chosen.get(lv, 0) for lv in self.output_levels]


def _check_cf(bench, label: str, payload_and_slice, points) -> str | None:
    payload, out_slice = payload_and_slice
    cf = PayloadCF(payload)
    n_in, n_out = bench.n_inputs, bench.n_outputs
    care, dc = points
    for m, ref in care:
        want = [(ref >> (n_out - 1 - i)) & 1 for i in range(n_out)][out_slice]
        total, got = cf.solutions(m, n_in)
        if total != 1 or got != want:
            return f"{bench.name} {label}: care minterm {m} admits {total} output(s), {got} != {want}"
    for m in dc:
        if cf.solutions(m, n_in)[0] < 1:
            return f"{bench.name} {label}: not total on don't-care minterm {m}"
    return None


def _check_realization(bench, label: str, realization, points) -> str | None:
    care, dc = points
    for m, want in care:
        got = realization.evaluate(m)
        if got != want:
            return f"{bench.name} {label}: cascade gives {got}, reference {want} on {m}"
    if label == "DC=0":
        for m in dc:
            if realization.evaluate(m) != 0:
                return f"{bench.name} DC=0: nonzero on input don't care {m}"
    return None


def _check_generator(word_list, label: str, generator, points) -> str | None:
    care, dc = points
    for word, index in care:
        if generator.realization.evaluate(word) != index:
            return f"{label}: cascade does not map word {word} to {index}"
        if generator.lookup(word) != index:
            return f"{label}: address generator does not map word {word} to {index}"
    for x in dc:
        if generator.lookup(x) != 0:
            return f"{label}: non-word {x} accepted"
    return None


CHECKS = {"cf": _check_cf, "realization": _check_realization, "generator": _check_generator}


def check_outputs(outcome: Outcome, seed: int) -> None:
    """Compare every artefact with the reference; mismatches fail rows."""
    from repro.benchfns.registry import get_benchmark

    rng = random.Random(seed)
    sources: dict[str, object] = {}
    points: dict[int, tuple] = {}
    bad: set[int] = set()
    for kind, source, label, artefact in outcome.artefacts:
        if isinstance(source, str):
            if source not in sources:
                sources[source] = get_benchmark(source)
            source = sources[source]
        key = id(source)
        if key not in points:
            points[key] = reference_points(source, rng)
        error = CHECKS[kind](source, label, artefact, points[key])
        if error is not None and key not in bad:
            bad.add(key)
            outcome.failed.append(f"mismatch: {error}")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def install_tracer(tracer) -> None:
    """Wrap the public layer calls where the pipeline modules bind them."""
    import repro.parallel as parallel
    from repro.benchfns import registry
    from repro.cascade import synth
    from repro.cascade.auxmem import AddressGenerator
    from repro.cf.charfun import CharFunction
    from repro.errors import CascadeError
    from repro.experiments import runner, table4, table5, table6
    from repro.parallel import executor
    from repro.reduce import alg33

    counts = tracer.counts

    def add(key: str, amount: int) -> None:
        counts[key] += amount

    def alg33_stats(result) -> None:
        stats = result[1]
        add("reduce.alg33.pairs_checked", stats.pairs_checked)
        add("reduce.alg33.merges", stats.merges)
        add("reduce.alg33.truncated_heights", len(stats.truncated_heights))

    def synth_error(exc: Exception) -> None:
        if isinstance(exc, CascadeError):
            add("cascade.synth_failed", 1)

    get_benchmark = registry.get_benchmark

    def traced_get_benchmark(name):
        bench = get_benchmark(name)
        bench.build = tracer.wrap("benchfns.build", bench.build)
        return bench

    registry.get_benchmark = traced_get_benchmark
    execute_task = executor.execute_task

    def traced_execute_task(task):
        with tracer.region("row", task.key):
            return execute_task(task)

    executor.execute_task = traced_execute_task

    tracer.patch(table6, "build_wordlist_isf", "benchfns.build")
    tracer.patch(CharFunction, "from_isf", "cf.from_isf",
                 on_result=lambda cf: add("cf.nodes", cf.num_nodes()))
    tracer.patch(CharFunction, "sift", "cf.sift")
    tracer.patch(runner, "max_width", "cf.width")
    for module in (table4, table5, table6):
        tracer.patch(module, "reduce_support", "reduce.support",
                     on_result=lambda r: add("reduce.support.removed_vars", len(r[1])))
        tracer.patch(module, "algorithm_3_3", "reduce.alg33", on_result=alg33_stats)
    tracer.patch(table4, "algorithm_3_1", "reduce.alg31")
    tracer.patch(alg33, "columns_at_height", "reduce.alg33.columns")
    tracer.patch(alg33, "build_compatibility_graph", "reduce.alg33.compat_graph")
    tracer.patch(alg33, "heuristic_clique_cover", "reduce.alg33.clique_cover")
    tracer.patch(alg33, "substitute_columns", "reduce.alg33.rebuild")
    tracer.patch(synth, "synthesize_cascade", "cascade.synth", on_error=synth_error)
    for module in (table5, table6):
        tracer.patch(module, "realize_forest", "cascade.realize")
    tracer.patch(AddressGenerator, "build", "cascade.auxmem")
    tracer.patch(table4, "verify_cf_against_reference", "experiments.verify")
    tracer.patch(table5, "verify_realization", "experiments.verify")
    tracer.patch(table6, "verify_generator", "experiments.verify")
    tracer.patch(CharFunction, "refines", "experiments.verify")
    tracer.patch(CharFunction, "is_wellformed", "experiments.verify")
    tracer.patch(parallel, "verify_shipped", "experiments.verify")


#: Per-layer metric -> span name (self seconds) or count key.
LAYER_TIMES = {
    "benchfns.build_s": "benchfns.build",
    "cf.from_isf_s": "cf.from_isf",
    "cf.sift_s": "cf.sift",
    "cf.width_s": "cf.width",
    "reduce.support_s": "reduce.support",
    "reduce.alg31_s": "reduce.alg31",
    "reduce.alg33_s": "reduce.alg33",
    "reduce.alg33.columns_s": "reduce.alg33.columns",
    "reduce.alg33.compat_graph_s": "reduce.alg33.compat_graph",
    "reduce.alg33.clique_cover_s": "reduce.alg33.clique_cover",
    "reduce.alg33.rebuild_s": "reduce.alg33.rebuild",
    "cascade.synth_s": "cascade.synth",
    "cascade.realize_s": "cascade.realize",
    "cascade.auxmem_s": "cascade.auxmem",
    "experiments.verify_s": "experiments.verify",
}
LAYER_COUNTS = {
    "cf.from_isf_calls": "cf.from_isf.calls",
    "cf.nodes": "cf.nodes",
    "cf.sift_calls": "cf.sift.calls",
    "reduce.support.removed_vars": "reduce.support.removed_vars",
    "reduce.alg33.pairs_checked": "reduce.alg33.pairs_checked",
    "reduce.alg33.merges": "reduce.alg33.merges",
    "reduce.alg33.truncated_heights": "reduce.alg33.truncated_heights",
    "cascade.synth_attempts": "cascade.synth.calls",
    "cascade.synth_failed": "cascade.synth_failed",
}
#: Engine counters reported from ``stats.counter_delta``.  ``kernel_steps``
#: still counts truth-table word operations, so it is reported next to
#: ``tt_words`` and never as a rate.
BDD_COUNTERS = (
    "op_calls", "kernel_steps", "tt_words", "tt_fast_hits", "tt_fast_misses",
    "cache_hits", "cache_misses", "cache_evictions", "peak_nodes",
)


def layer_metrics(tracer, counters: dict, traced_wall: float) -> dict:
    self_times = tracer.self_times()
    metrics = {key: self_times.get(span, 0.0) for key, span in LAYER_TIMES.items()}
    metrics.update({key: tracer.counts.get(c, 0) for key, c in LAYER_COUNTS.items()})
    pairs = metrics["reduce.alg33.pairs_checked"]
    metrics["reduce.alg33.merge_yield"] = (
        metrics["reduce.alg33.merges"] / pairs if pairs else 0.0
    )
    for key in BDD_COUNTERS:
        metrics[f"bdd.{key}"] = counters[key]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    metrics["bdd.cache_hit_rate"] = counters["cache_hits"] / lookups if lookups else 0.0
    covered = sum(t for name, t in self_times.items() if name not in STRUCTURE)
    metrics["trace.coverage"] = covered / traced_wall if traced_wall > 0 else 0.0
    return metrics


# ----------------------------------------------------------------------


def knob_record(outcome: Outcome) -> dict:
    """The REPRO_* environment as this process saw it, and what it means."""
    effective: dict = {"REPRO_JOURNAL_FSYNC": outcome.fsync}
    try:
        from repro import _config
        from repro.bdd import check, tt

        effective.update(
            REPRO_TT_FASTPATH=tt.enabled(),
            REPRO_TT_WINDOW=tt.max_window(),
            REPRO_SELFCHECK=check.selfcheck_enabled(),
            REPRO_FULL_SCALE=_config.full_scale(),
        )
    except (ImportError, AttributeError):
        pass  # an older tree (see --src) may lack some knobs
    return {"env": {k: os.environ.get(k) for k in KNOBS}, "effective": effective}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced"))
    parser.add_argument("--jobs", type=int, default=T4_JOBS)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--stacks", type=Path, default=None)
    args = parser.parse_args(argv)

    setup, run = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    result: dict = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    args.tmp.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    tracer = None
    if args.mode == "traced":
        from repro.bdd import stats

        tracer = Tracer()
        install_tracer(tracer)
        before = stats.snapshot()
    start = time.perf_counter()
    if tracer is not None:
        with tracer.region("workload"):
            run(inputs, outcome, args.jobs, args.tmp, tracer)
    else:
        run(inputs, outcome, args.jobs, args.tmp)
    wall = time.perf_counter() - start - outcome.excluded_s
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        counters = stats.counter_delta(before, stats.snapshot())
        result["layers"] = layer_metrics(tracer, counters, wall)
        if args.stacks is not None:
            args.stacks.write_text("\n".join(tracer.collapsed_stacks()) + "\n")

    check_outputs(outcome, args.seed)
    result.update(
        wall_s=wall,
        rows=outcome.rows,
        failed=outcome.failed,
        cells=outcome.cells,
        mem_bits=outcome.mem_bits,
        alg33_width_sum=outcome.alg33_width_sum,
        knobs=knob_record(outcome),
    )
    if outcome.sweep is not None:
        report = outcome.sweep
        result["sweep"] = {
            "jobs": report.jobs,
            "wall_s": report.wall_s,
            "scheduling_overhead_s": report.scheduling_overhead_s,
            "worker_utilization": report.busy_s / (report.jobs * report.wall_s),
            "idle_s": report.jobs * report.wall_s - report.busy_s,
            "retries": report.retries,
            "row_wall_s": {r.key: r.wall_s for r in report.results},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
