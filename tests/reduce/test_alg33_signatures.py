"""Packed column signatures (Algorithm 3.3's pair test) against the walk.

Every verdict :meth:`ColumnSignatures.compatible` gives must equal the
:func:`compatible_columns` pair walk, and Algorithm 3.3 must produce the
same CF whether its compatibility graph comes from signatures or from
the walk alone.
"""

from __future__ import annotations

import traceback
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.bdd import BDD, FALSE, TRUE
from repro.bdd.governor import Budget
from repro.benchfns.registry import get_benchmark
from repro.cf import CharFunction, width_profile
from repro.cf.width import columns_at_height
from repro.errors import ResourceLimitError
from repro.experiments import table5
from repro.experiments.runner import build_sifted_cf
from repro.isf import MultiOutputISF, table1_spec
from repro.isf import compat
from repro.isf.compat import ColumnSignatures, compatible_columns
from repro.reduce import algorithm_3_3, reduce_support
from repro.reduce.cliquecover import build_compatibility_graph

from tests.conftest import spec_strategy


def walk_only():
    """Algorithm 3.3 with every height on the pair walk."""
    return mock.patch.object(
        ColumnSignatures, "for_height", staticmethod(lambda bdd, height: None)
    )


def all_pairs_parity(cf: CharFunction) -> int:
    """Compare both verdicts on every column pair at every signature height."""
    bdd = cf.bdd
    checked = 0
    for height in range(1, bdd.num_vars):
        sigs = ColumnSignatures.for_height(bdd, height)
        if sigs is None:
            continue
        cols = columns_at_height(bdd, cf.root, height)
        for i, a in enumerate(cols):
            for b in cols[i + 1 :]:
                want = compatible_columns(bdd, a, b)
                assert sigs.compatible(a, b) == want, (height, a, b)
                checked += 1
    return checked


def run_summary(cf: CharFunction):
    reduced, stats = algorithm_3_3(cf)
    return width_profile(reduced.bdd, reduced.root), reduced.num_nodes(), stats


def assert_same_as_walk(make_cf) -> None:
    with_sigs = run_summary(make_cf())
    with walk_only():
        walked = run_summary(make_cf())
    assert with_sigs == walked


class CheckedSignatures:
    """Patches :meth:`ColumnSignatures.compatible` to check each verdict."""

    def __init__(self) -> None:
        self.signature_pairs = 0
        self.fallback_pairs = 0

    def __enter__(self) -> "CheckedSignatures":
        original = ColumnSignatures.compatible

        def checked(sigs, a, b):
            got = original(sigs, a, b)
            if sigs.signature(a) is None or sigs.signature(b) is None:
                self.fallback_pairs += 1
            else:
                self.signature_pairs += 1
                assert got == compatible_columns(sigs.bdd, a, b), (a, b)
            return got

        self._patch = mock.patch.object(ColumnSignatures, "compatible", checked)
        self._patch.start()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.stop()


def partition_cf(isf: MultiOutputISF, indices: list[int]) -> CharFunction:
    """Sifted, support-reduced CF of some outputs, as Table 5 builds it."""
    hints = isf.placement_supports
    part = MultiOutputISF(
        isf.bdd,
        isf.input_vids,
        [isf.outputs[i] for i in indices],
        output_names=[isf.output_names[i] for i in indices],
        placement_supports=[hints[i] for i in indices] if hints else None,
    )
    cf, _removed = reduce_support(build_sifted_cf(part))
    return cf


def table5_halves(name: str) -> list[partial]:
    """Builders of the CFs of Table 5's two output halves of ``name``."""
    isf = get_benchmark(name).build()
    half = (isf.n_outputs + 1) // 2
    return [
        partial(partition_cf, isf, list(range(half))),
        partial(partition_cf, isf, list(range(half, isf.n_outputs))),
    ]


def non_product_form_cf() -> tuple[CharFunction, dict[str, int]]:
    """A non-well-formed CF whose height-3 columns include an in-place dc.

    Order ``x0 x2 y0 x1 y1``.  Column ``free`` leaves ``y0`` open at its
    own node (two live children, as in Fig. 1(c) before reduction) and
    ties ``y1`` to the choice; ``c0``/``c1`` fix ``y0`` to 0/1.
    """
    bdd = BDD()
    x0, x2 = bdd.add_vars(["x0", "x2"])
    y0 = bdd.add_var("y0", kind="output")
    x1 = bdd.add_var("x1")
    y1 = bdd.add_var("y1", kind="output")
    eq = bdd.apply_not(bdd.apply_xor(bdd.var(x1), bdd.var(y1)))
    neq = bdd.apply_xor(bdd.var(x1), bdd.var(y1))
    cols = {
        "free": bdd.mk(y0, eq, neq),
        "c0": bdd.mk(y0, eq, FALSE),
        "c1": bdd.mk(y0, FALSE, eq),
        "dc": TRUE,
    }
    root = bdd.mk(
        x0,
        bdd.mk(x2, cols["free"], cols["c0"]),
        bdd.mk(x2, cols["c1"], cols["dc"]),
    )
    cf = CharFunction(bdd, root, [x0, x2, x1], [y0, y1])
    return cf, cols


class TestVerdictParity:
    def test_table1_every_height(self):
        cf = CharFunction.from_spec(table1_spec())
        assert all_pairs_parity(cf) > 0
        reduced, _ = algorithm_3_3(cf)
        all_pairs_parity(reduced)

    @settings(max_examples=40, deadline=None)
    @given(spec_strategy())
    def test_random_specs_every_height(self, spec):
        cf = CharFunction.from_spec(spec)
        all_pairs_parity(cf)
        reduced, _ = algorithm_3_3(cf)
        all_pairs_parity(reduced)

    def test_decimal_adder_partitions_every_height(self):
        for build in table5_halves("2-digit decimal adder"):
            assert all_pairs_parity(build()) > 0

    def test_decimal_adder_table5_candidate_pairs(self):
        """Every candidate pair Alg. 3.3 meets in the Table 5 design."""
        isf = get_benchmark("2-digit decimal adder").build()
        with CheckedSignatures() as checked:
            table5.design(isf, reduce=True)
        assert checked.signature_pairs > 0


class TestSameResultAsWalk:
    def test_table1(self):
        assert_same_as_walk(lambda: CharFunction.from_spec(table1_spec()))

    @settings(max_examples=25, deadline=None)
    @given(spec_strategy())
    def test_random_specs(self, spec):
        assert_same_as_walk(lambda: CharFunction.from_spec(spec))

    def test_decimal_adder_partitions(self):
        for build in table5_halves("2-digit decimal adder"):
            assert_same_as_walk(build)


class TestFallback:
    def test_non_product_form_column_takes_the_walk(self):
        cf, cols = non_product_form_cf()
        bdd = cf.bdd
        height = 3
        assert set(columns_at_height(bdd, cf.root, height)) == set(cols.values())
        sigs = ColumnSignatures.for_height(bdd, height)
        assert sigs is not None
        assert sigs.signature(cols["free"]) is None
        assert sigs.signature(cols["c0"]) is not None
        walked = []

        def counting(bdd_, a, b):
            walked.append((a, b))
            return compatible_columns(bdd_, a, b)

        items = sorted(cols.values())
        with mock.patch.object(compat, "compatible_columns", counting):
            graph, _ = build_compatibility_graph(items, sigs.compatible)
        assert walked and all(cols["free"] in pair for pair in walked)
        want, _ = build_compatibility_graph(items, partial(compatible_columns, bdd))
        assert graph == want
        # The in-place dc absorbs c0 (y1 = x1 under y0 = 0) but not c1.
        assert cols["c0"] in graph[cols["free"]]
        assert cols["c1"] not in graph[cols["free"]]

    def test_input_node_with_false_child_takes_the_walk(self):
        bdd = BDD()
        x = bdd.add_var("x")
        y = bdd.add_var("y", kind="output")
        partial_column = bdd.mk(x, FALSE, bdd.var(y))
        sigs = ColumnSignatures.for_height(bdd, 2)
        assert sigs.signature(partial_column) is None
        assert not sigs.compatible(partial_column, TRUE)

    def test_non_product_form_alg33_matches_walk(self):
        assert_same_as_walk(lambda: non_product_form_cf()[0])

    def test_height_wider_than_cap_takes_the_walk(self):
        cf = CharFunction.from_spec(table1_spec())
        default = run_summary(CharFunction.from_spec(table1_spec()))
        with mock.patch.object(compat, "SIGNATURE_MAX_BITS", 8):
            widths = [
                ColumnSignatures.for_height(cf.bdd, h) is None
                for h in range(1, cf.num_vars)
            ]
            assert any(widths) and not all(widths)
            capped = run_summary(CharFunction.from_spec(table1_spec()))
        assert capped == default

    def test_seed_mode_keeps_the_walk(self):
        from repro.bdd import reference

        cf = CharFunction.from_spec(table1_spec())
        with mock.patch.object(reference, "SEED_MODE", True):
            assert ColumnSignatures.for_height(cf.bdd, 1) is None


def charged_by(exc: BaseException) -> str:
    """Name of the function whose governor checkpoint raised ``exc``."""
    names = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    return names[names.index("checkpoint") - 1]


class TestGoverned:
    @pytest.fixture(scope="class")
    def rns_cf(self):
        return table5_halves("5-7-11-13 RNS")[0]()

    def test_step_budget_bounds_alg33(self, rns_cf):
        with pytest.raises(ResourceLimitError) as info:
            with Budget(max_steps=10_000):
                algorithm_3_3(rns_cf)
        assert charged_by(info.value) in ("compatible", "_build")
        rns_cf.bdd.check_invariants()
        reduced, stats = algorithm_3_3(rns_cf)
        assert stats.pairs_checked > 0
        assert reduced.refines(rns_cf)

    def test_signature_work_is_charged(self, rns_cf):
        bdd = rns_cf.bdd
        height = next(
            h
            for h in range(1, bdd.num_vars)
            if ColumnSignatures.for_height(bdd, h) is not None
            and len(columns_at_height(bdd, rns_cf.root, h)) > 64
        )
        cols = columns_at_height(bdd, rns_cf.root, height)
        sigs = ColumnSignatures.for_height(bdd, height)
        with pytest.raises(ResourceLimitError) as info:
            with Budget(max_steps=1):
                for i, a in enumerate(cols):
                    for b in cols[i + 1 :]:
                        sigs.compatible(a, b)
        assert charged_by(info.value) in ("compatible", "_build")
