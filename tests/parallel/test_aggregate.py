"""Cross-process stats aggregation: N workers must sum to the jobs=1 run.

This is the pinned contract of the ISSUE 3 satellite: on a fixed
mini-sweep, the additive engine counters aggregated from worker
processes equal the totals of the same sweep run in-process.
"""

import ast
from pathlib import Path

import pytest

from repro.bdd import stats
from repro.parallel import CostModel, run_tasks, table4_task, table5_task

MINI = [
    table4_task("3-5 RNS", verify=True),
    table4_task("2-digit 3-nary to binary", verify=True),
    table5_task("3-5 RNS", verify=True),
]


@pytest.fixture(scope="module")
def sweeps():
    sequential = run_tasks(MINI, jobs=1, cost_model=CostModel())
    parallel = run_tasks(MINI, jobs=2, cost_model=CostModel(), merge_stats=False)
    return sequential, parallel


class TestAggregationEquality:
    def test_additive_totals_equal(self, sweeps):
        sequential, parallel = sweeps
        for key in stats.ADDITIVE_KEYS:
            assert sequential.stats_totals[key] == parallel.stats_totals[key], key

    def test_totals_are_sums_of_task_deltas(self, sweeps):
        _, parallel = sweeps
        for key in stats.ADDITIVE_KEYS:
            assert parallel.stats_totals[key] == sum(
                r.stats_delta[key] for r in parallel.results
            )

    def test_peak_is_max_of_task_peaks(self, sweeps):
        _, parallel = sweeps
        assert parallel.stats_totals["peak_nodes"] == max(
            r.stats_delta["peak_nodes"] for r in parallel.results
        )

    def test_work_actually_happened(self, sweeps):
        sequential, _ = sweeps
        assert sequential.stats_totals["op_calls"] > 0
        assert sequential.stats_totals["kernel_steps"] > 0


class TestMergeWorkerTotals:
    def test_merge_reflected_in_snapshot(self):
        before = stats.snapshot()
        delta = {key: 11 for key in stats.ADDITIVE_KEYS}
        delta["peak_nodes"] = 1
        stats.merge_worker_totals(delta)
        after = stats.snapshot()
        try:
            for key in stats.ADDITIVE_KEYS:
                assert after[key] - before[key] == 11
        finally:
            # Undo so other tests see unchanged engine-wide counters.
            for key in stats.ADDITIVE_KEYS:
                stats.WORKER_TOTALS[key] -= 11

    def test_executor_merges_for_parallel_runs(self):
        before = stats.snapshot()
        report = run_tasks(
            [table4_task("3-5 RNS")], jobs=2, cost_model=CostModel()
        )
        after = stats.snapshot()
        assert (
            after["op_calls"] - before["op_calls"]
            >= report.stats_totals["op_calls"]
        )

    def test_counter_delta_shape(self):
        before = {key: 5 for key in stats.ADDITIVE_KEYS}
        before["peak_nodes"] = 100
        after = {key: 9 for key in stats.ADDITIVE_KEYS}
        after["peak_nodes"] = 70
        delta = stats.counter_delta(before, after)
        for key in stats.ADDITIVE_KEYS:
            assert delta[key] == 4
        # Peaks don't difference: report the absolute peak seen after.
        assert delta["peak_nodes"] == 70

    def test_counter_delta_covers_perfbench_counters(self):
        """Every engine counter the row benchmark's traced mode reads
        (``BDD_COUNTERS`` in perfbench/rep.py) is in ``counter_delta``."""
        rep = Path(__file__).resolve().parents[2] / "perfbench" / "rep.py"
        (wanted,) = [
            ast.literal_eval(node.value)
            for node in ast.parse(rep.read_text()).body
            if isinstance(node, ast.Assign)
            and [t.id for t in node.targets if isinstance(t, ast.Name)]
            == ["BDD_COUNTERS"]
        ]
        delta = stats.counter_delta(stats.snapshot(), stats.snapshot())
        assert set(wanted) <= set(delta)
