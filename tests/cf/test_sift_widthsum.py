"""The incrementally kept sum-of-widths sifting cost (Sect. 5.1).

After every adjacent swap, :attr:`SiftSession.width_sum` must equal a
full :func:`sum_of_widths` pass, and sifting on it must make exactly the
moves that sifting with a full-pass cost callable makes.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.bdd import BDD, FALSE, TRUE, check, from_truth_table
from repro.bdd.governor import Budget
from repro.bdd.reorder import SiftSession, sift, width_sum_cost
from repro.bdd import reorder
from repro.bdd.transfer import transfer_by_name
from repro.bdd.traversal import crossing_targets
from repro.benchfns.registry import get_benchmark
from repro.cf import CharFunction, width_profile
from repro.cf.width import sum_of_widths
from repro.errors import IntegrityError
from repro.experiments.runner import _sift_or_degrade
from repro.isf import MultiOutputISF, table1_spec
from repro.reduce import algorithm_3_3

from tests.conftest import spec_strategy


class SwapAudit:
    """Counts swaps; checks the tracked width sum after each of them."""

    def __init__(self) -> None:
        self.swaps = 0
        self.checked = 0

    def __enter__(self) -> "SwapAudit":
        original = SiftSession.swap

        def swap(session, level):
            original(session, level)
            self.swaps += 1
            if session.sections is not None:
                root = session.roots[0]
                assert session.width_sum == sum_of_widths(session.bdd, root)
                self.checked += 1

        self._patch = mock.patch.object(SiftSession, "swap", swap)
        self._patch.start()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.stop()


def full_pass_cost(bdd: BDD, roots) -> float:
    return float(sum_of_widths(bdd, roots[0]))


def full_pass_sift():
    """Route the width-sum sifts through an explicit full-pass callable."""
    real = reorder.sift

    def patched(bdd, roots, *, cost_fn=None, **kwargs):
        if cost_fn is width_sum_cost:
            cost_fn = full_pass_cost
        return real(bdd, roots, cost_fn=cost_fn, **kwargs)

    return mock.patch.object(reorder, "sift", patched)


def sift_summary(cf: CharFunction, **kwargs):
    with SwapAudit() as audit:
        cf.sift(cost="widthsum", **kwargs)
    profile = width_profile(cf.bdd, cf.root)
    return (cf.bdd.order(), profile, cf.num_nodes(), audit.swaps), audit


def assert_matches_full_pass(make_cf, sift_kwargs=lambda cf: {}) -> SwapAudit:
    """Same order, widths, nodes and swap count as a full-pass cost."""
    cf = make_cf()
    got, audit = sift_summary(cf, **sift_kwargs(cf))
    assert audit.checked == audit.swaps
    with full_pass_sift():
        cf = make_cf()
        want, full = sift_summary(cf, **sift_kwargs(cf))
    assert full.checked == 0
    assert got == want
    return audit


def adder_partition() -> MultiOutputISF:
    """First output half of the 2-digit decimal adder, as Table 5 splits it."""
    isf = get_benchmark("2-digit decimal adder").build()
    indices = list(range((isf.n_outputs + 1) // 2))
    hints = isf.placement_supports
    return MultiOutputISF(
        isf.bdd,
        isf.input_vids,
        [isf.outputs[i] for i in indices],
        output_names=[isf.output_names[i] for i in indices],
        placement_supports=[hints[i] for i in indices] if hints else None,
    )


class TestSections:
    def test_random_swaps_keep_every_section(self):
        rng = random.Random(7)
        for seed in range(12):
            bdd = BDD()
            vids = bdd.add_vars([f"x{i}" for i in range(6)])
            table = [rng.randint(0, 1) for _ in range(1 << 6)]
            f = from_truth_table(bdd, vids, table)
            g = bdd.apply_and(f, bdd.var(vids[seed % 6]))
            session = SiftSession(bdd, [f, g])
            session.track_widths(f)
            for _ in range(20):
                session.swap(rng.randrange(bdd.num_vars - 1))
                want = crossing_targets(bdd, [f])[: bdd.num_vars]
                assert session.sections == want, seed
                assert session.width_sum == sum_of_widths(bdd, f)
                assert session.width_sum == width_sum_cost(bdd, [f])

    @pytest.mark.parametrize("root, total", [(TRUE, 5), (FALSE, 1)])
    def test_constant_roots(self, root, total):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(4)])
        f = bdd.apply_xor(bdd.var(vids[0]), bdd.var(vids[3]))
        with SwapAudit() as audit:
            assert sift(bdd, [root, f], cost_fn=width_sum_cost) == total
        assert audit.checked == audit.swaps > 0
        assert sum_of_widths(bdd, root) == total


class TestSameMovesAsFullPass:
    def test_table1(self):
        audit = assert_matches_full_pass(
            lambda: CharFunction.from_spec(table1_spec())
        )
        assert audit.swaps > 0

    @settings(max_examples=40, deadline=None)
    @given(spec_strategy())
    def test_random_specs(self, spec):
        assert_matches_full_pass(lambda: CharFunction.from_spec(spec))

    def test_decimal_adder_partition(self):
        part = adder_partition()
        audit = assert_matches_full_pass(lambda: CharFunction.from_isf(part))
        assert audit.swaps > 100

    def test_frozen_outputs_with_protected_roots(self):
        def make_cf():
            cf, _ = algorithm_3_3(CharFunction.from_spec(table1_spec()))
            return cf

        def guard(cf):
            return cf.bdd.apply_and(cf.root, cf.bdd.var(cf.input_vids[0]))

        audit = assert_matches_full_pass(
            make_cf, lambda cf: {"freeze_outputs": True, "protect": [guard(cf)]}
        )
        assert audit.swaps > 0
        cf = make_cf()
        kept = guard(cf)
        cf.sift(cost="widthsum", freeze_outputs=True, protect=[kept])
        cf.bdd.check_invariants([cf.root, kept])
        assert guard(cf) == kept


class TestRobustness:
    def test_step_budget_mid_sift_degrades(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        part = adder_partition()
        with SwapAudit() as audit:
            CharFunction.from_isf(part).sift(cost="widthsum")
        cf = CharFunction.from_isf(part)
        ref = CharFunction.from_isf(part)
        assert cf.num_nodes() <= 6_000  # "auto" picks the width sum
        with SwapAudit() as aborted:
            with Budget(max_steps=audit.swaps // 2) as budget:
                _sift_or_degrade(cf, "adder partition")
        assert budget.degradations and "sift aborted" in budget.degradations[0]
        assert 0 < aborted.swaps < audit.swaps
        assert aborted.checked == aborted.swaps
        check.verify_charfunction(cf)
        assert transfer_by_name(cf.bdd, ref.bdd, [cf.root]) == [ref.root]

    def test_selfcheck_compares_once_per_sift(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        calls = []
        real = check.verify_width_sum

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        with mock.patch.object(check, "verify_width_sum", counting):
            with SwapAudit() as audit:
                CharFunction.from_spec(table1_spec()).sift(cost="widthsum")
            assert audit.swaps > 1 and len(calls) == 1
            CharFunction.from_spec(table1_spec()).sift(cost="nodes")
            assert len(calls) == 1
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        with mock.patch.object(check, "verify_width_sum", counting):
            CharFunction.from_spec(table1_spec()).sift(cost="widthsum")
        assert len(calls) == 1

    def test_selfcheck_catches_a_drifted_total(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        original = SiftSession.swap

        def drifting(session, level):
            original(session, level)
            session.width_sum += 1

        with mock.patch.object(SiftSession, "swap", drifting):
            with pytest.raises(IntegrityError, match="width_sum"):
                CharFunction.from_spec(table1_spec()).sift(cost="widthsum")

    def test_seed_mode_keeps_the_full_pass(self, monkeypatch):
        from repro.bdd import reference
        from repro.bdd.traversal import crossing_counts

        monkeypatch.delenv("REPRO_SELFCHECK", raising=False)
        full_passes = mock.patch.object(
            reorder, "crossing_counts", wraps=crossing_counts
        )
        with full_passes as incremental:
            CharFunction.from_spec(table1_spec()).sift(cost="widthsum")
        assert incremental.call_count == 0
        with mock.patch.object(reference, "SEED_MODE", True):
            with full_passes as seed, SwapAudit() as audit:
                CharFunction.from_spec(table1_spec()).sift(cost="widthsum")
        assert audit.swaps > 0 and audit.checked == 0
        assert seed.call_count > 1
