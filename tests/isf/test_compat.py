"""Tests for totality / column compatibility of characteristic functions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, FALSE, TRUE, from_truth_table, reference, sift
from repro.bdd.governor import Budget
from repro.cf import CharFunction
from repro.errors import ResourceLimitError
from repro.isf import MultiOutputISF, compatible_columns, ordered_total

from tests.conftest import brute_force_truth, spec_strategy, random_spec

N_SMALL = 5
N_DEEP = 9
TABLE = st.lists(st.integers(0, 1), min_size=1 << N_SMALL, max_size=1 << N_SMALL)
DEEP_TABLE = st.lists(st.integers(0, 1), min_size=1 << N_DEEP, max_size=1 << N_DEEP)


def build(table, n_vars, n_outputs=2):
    """Manager with inputs x* above outputs y*, holding one function."""
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(n_vars - n_outputs)])
    vids += bdd.add_vars([f"y{i}" for i in range(n_outputs)], kind="output")
    return bdd, vids, from_truth_table(bdd, vids, table)


def brute_force_total(bdd, u, input_vids, output_vids):
    """Literal ∀X ∃Y check by enumeration."""
    n, m = len(input_vids), len(output_vids)
    for x in range(1 << n):
        asg = {v: (x >> (n - 1 - i)) & 1 for i, v in enumerate(input_vids)}
        ok = False
        for y in range(1 << m):
            asg2 = dict(asg)
            asg2.update(
                {v: (y >> (m - 1 - j)) & 1 for j, v in enumerate(output_vids)}
            )
            if bdd.evaluate(u, asg2):
                ok = True
                break
        if not ok:
            return False
    return True


class TestOrderedTotal:
    def test_terminals(self):
        bdd = BDD()
        assert ordered_total(bdd, TRUE)
        assert not ordered_total(bdd, FALSE)

    def test_simple_cf(self):
        bdd = BDD()
        x = bdd.add_var("x")
        y = bdd.add_var("y", kind="output")
        # chi = (y == x): total.
        chi = bdd.apply_not(bdd.apply_xor(bdd.var(x), bdd.var(y)))
        assert ordered_total(bdd, chi)
        # chi = x AND y: not total (x=0 admits no output).
        assert not ordered_total(bdd, bdd.apply_and(bdd.var(x), bdd.var(y)))

    @settings(max_examples=30, deadline=None)
    @given(spec_strategy(max_inputs=3, max_outputs=2))
    def test_matches_brute_force_on_cf(self, spec):
        cf = CharFunction.from_spec(spec)
        got = ordered_total(cf.bdd, cf.root)
        want = brute_force_total(cf.bdd, cf.root, cf.input_vids, cf.output_vids)
        assert got == want
        assert want  # every CF of an ISF is total by construction


class TestCompatibleColumns:
    def test_zero_incompatible_with_everything(self):
        bdd = BDD()
        assert not compatible_columns(bdd, FALSE, TRUE)
        assert not compatible_columns(bdd, FALSE, FALSE)

    def test_true_compatible_with_total(self):
        bdd = BDD()
        x = bdd.add_var("x")
        y = bdd.add_var("y", kind="output")
        chi = bdd.apply_not(bdd.apply_xor(bdd.var(x), bdd.var(y)))
        assert compatible_columns(bdd, TRUE, chi)

    def test_matches_isf_compatibility(self):
        """Column compatibility on CFs == Definition 3.7 on the ISFs.

        Two CFs over one manager (shared inputs, shared y variables at
        the bottom) are compatible as columns exactly when every output
        pair is compatible per Definition 3.7.
        """
        rng = random.Random(42)
        for trial in range(30):
            spec_a = random_spec(rng, n_inputs=3, n_outputs=2)
            spec_b = random_spec(rng, n_inputs=3, n_outputs=2)
            bdd = BDD()
            input_vids = bdd.add_vars(["x1", "x2", "x3"])
            y_vids = [bdd.add_var(f"y{i}", kind="output") for i in range(2)]
            isf_a = MultiOutputISF.from_spec(spec_a, bdd=bdd)
            spec_b2 = type(spec_b)(3, 2, spec_b.care, name="b")
            isf_b = MultiOutputISF.from_spec(spec_b2, bdd=bdd)

            def chi_of(isf):
                chi = TRUE
                for y, out in zip(y_vids, isf.outputs):
                    term = bdd.apply_or(
                        bdd.apply_or(
                            bdd.apply_and(bdd.nvar(y), out.f0),
                            bdd.apply_and(bdd.var(y), out.f1),
                        ),
                        out.fd,
                    )
                    chi = bdd.apply_and(chi, term)
                return chi

            got = compatible_columns(bdd, chi_of(isf_a), chi_of(isf_b))
            want = all(
                fa.compatible(fb)
                for fa, fb in zip(isf_a.outputs, isf_b.outputs)
            )
            assert got == want, trial


class TestSeedReferenceParity:
    """``ordered_total`` and ``compatible_columns`` against the seed
    engine's walks in :mod:`repro.bdd.reference`, including after the
    events that invalidate their memo tiers."""

    @settings(max_examples=40, deadline=None)
    @given(TABLE, TABLE)
    def test_total_and_compat_vs_seed(self, ta, tb):
        bdd, vids, a = build(ta, N_SMALL)
        b = from_truth_table(bdd, vids, tb)
        assert ordered_total(bdd, a) is reference.seed_ordered_total(bdd, a)
        assert compatible_columns(bdd, a, b) is (
            reference.seed_compatible_columns(bdd, a, b)
        )

    @settings(max_examples=10, deadline=None)
    @given(DEEP_TABLE, DEEP_TABLE)
    def test_compat_deep_order_vs_seed(self, ta, tb):
        bdd, vids, a = build(ta, N_DEEP)
        b = from_truth_table(bdd, vids, tb)
        assert compatible_columns(bdd, a, b) is (
            reference.seed_compatible_columns(bdd, a, b)
        )

    @settings(max_examples=15, deadline=None)
    @given(TABLE, TABLE)
    def test_parity_survives_sifting(self, ta, tb):
        # Sifting moves the reorder epoch, which must retire the memo.
        # The verdict itself may legitimately flip — ordered totality
        # quantifies along the variable order, and sifting arbitrary
        # functions can lift an output variable above an input — so
        # the pin is agreement with a *fresh* reference walk on the
        # new order, not invariance of the pre-sift answer.
        bdd, vids, a = build(ta, N_SMALL)
        b = from_truth_table(bdd, vids, tb)
        compatible_columns(bdd, a, b)  # warm the pre-sift memo
        sift(bdd, [a, b])
        after = compatible_columns(bdd, a, b)
        bdd._ref_cache = {}  # the reference memo is not epoch-aware
        assert after is reference.seed_compatible_columns(bdd, a, b)
        bdd.clear_cache()
        assert compatible_columns(bdd, a, b) is after

    @settings(max_examples=15, deadline=None)
    @given(TABLE, TABLE)
    def test_parity_survives_collect(self, ta, tb):
        bdd, vids, a = build(ta, N_SMALL)
        b = from_truth_table(bdd, vids, tb)
        table_before = brute_force_truth(bdd, a, vids)
        compatible_columns(bdd, a, b)  # warm the memo
        garbage = bdd.apply_xor(a, b)
        del garbage
        bdd.collect([a, b])
        assert brute_force_truth(bdd, a, vids) == table_before
        assert compatible_columns(bdd, a, b) is (
            reference.seed_compatible_columns(bdd, a, b)
        )
        bdd.check_invariants([a, b])

    def test_abort_leaves_manager_consistent(self):
        # A tiny step budget aborts mid-operation, and the manager
        # stays fully usable afterwards.
        rng_table = [(i * 2654435761) >> 7 & 1 for i in range(1 << N_DEEP)]
        alt_table = [(i * 40503) >> 3 & 1 for i in range(1 << N_DEEP)]
        bdd, vids, f = build(rng_table, N_DEEP)
        g = from_truth_table(bdd, vids, alt_table)
        bdd.clear_cache()
        with pytest.raises(ResourceLimitError):
            with Budget(max_steps=10):
                for _ in range(200):
                    bdd.apply_xor(f, g)
                    compatible_columns(bdd, f, g)
                    bdd.clear_cache()
        # No budget: the same queries now run to completion and agree
        # with the reference engine.
        assert bdd.apply_xor(f, g) == reference.ref_apply_xor(bdd, f, g)
        assert compatible_columns(bdd, f, g) is (
            reference.seed_compatible_columns(bdd, f, g)
        )
        bdd.check_invariants([f, g])
