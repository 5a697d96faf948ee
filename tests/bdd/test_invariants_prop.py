"""Property tests of the invariant checker (hypothesis).

Soundness: every state the engine actually produces — random ISFs built
into characteristic functions, sifted or not, round-tripped through the
serializer — passes :func:`check_manager` / :func:`check_charfunction` /
:func:`check_payload` with zero violations.

Sensitivity: every seeded corruption class in a payload (dangling
child, flipped edge breaking the order, redundant node, duplicate
triple, out-of-range root, output above its support) is flagged with
the right violation ``kind``.

Parity: the kernel's operations on 9-variable orders with inputs above
outputs return the very node the recursive reference engine
(:mod:`repro.bdd.reference`) builds — within one manager, canonicity
turns semantic agreement into id equality.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, check, from_truth_table, reference
from repro.bdd.io import charfunction_payload, load_charfunction_payload
from repro.cf.charfun import CharFunction
from repro.errors import IntegrityError

from tests.conftest import spec_strategy

SETTINGS = settings(max_examples=40, deadline=None)

N_VARS = 9
TABLE = st.lists(st.integers(0, 1), min_size=1 << N_VARS, max_size=1 << N_VARS)


def build_mixed(table, n_outputs=2):
    """Manager over inputs x* above outputs y*, holding one function."""
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(N_VARS - n_outputs)])
    vids += bdd.add_vars([f"y{i}" for i in range(n_outputs)], kind="output")
    return bdd, vids, from_truth_table(bdd, vids, table)


def build_cf(spec) -> CharFunction:
    return CharFunction.from_spec(spec)


class TestCleanStatesPass:
    @SETTINGS
    @given(spec_strategy())
    def test_fresh_cf_manager_is_clean(self, spec):
        cf = build_cf(spec)
        assert check.check_manager(cf.bdd, [cf.root]) == []
        assert check.check_charfunction(cf) == []

    @SETTINGS
    @given(spec_strategy(max_inputs=3, max_outputs=2))
    def test_sifted_cf_is_clean(self, spec):
        cf = build_cf(spec)
        cf.sift()
        assert check.check_charfunction(cf) == []

    @SETTINGS
    @given(spec_strategy())
    def test_serialized_payload_is_clean(self, spec):
        payload = charfunction_payload(build_cf(spec))
        assert check.check_payload(payload) == []

    @SETTINGS
    @given(spec_strategy())
    def test_roundtrip_stays_clean(self, spec):
        # load_* runs verify_* internally; a clean payload must survive.
        cf = load_charfunction_payload(charfunction_payload(build_cf(spec)))
        assert check.check_charfunction(cf) == []

    def test_manager_after_gc_is_clean(self):
        bdd = BDD()
        x1, x2, x3 = bdd.add_vars(["x1", "x2", "x3"])
        f = bdd.apply_and(bdd.var(x1), bdd.apply_or(bdd.var(x2), bdd.var(x3)))
        bdd.collect([f])
        assert check.check_manager(bdd, [f]) == []


def _nontrivial_payload():
    """A payload with at least one decision node, deterministically."""
    bdd = BDD()
    x1, x2, x3 = bdd.add_vars(["x1", "x2", "x3"])
    f = bdd.apply_or(
        bdd.apply_and(bdd.var(x1), bdd.var(x2)),
        bdd.apply_and(bdd.var(x2), bdd.var(x3)),
    )
    from repro.bdd.io import forest_payload

    return forest_payload(bdd, {"f": f})


def _kinds(violations):
    return {v.kind for v in violations}


class TestCorruptionDetected:
    """Each mutation class must be flagged with the right kind."""

    def test_dangling_child(self):
        payload = _nontrivial_payload()
        # Point the last node's hi-child past every legal id.
        payload["nodes"][-1][2] = len(payload["nodes"]) + 99
        assert "dangling" in _kinds(check.check_payload(payload))

    def test_forward_reference(self):
        payload = _nontrivial_payload()
        assert len(payload["nodes"]) >= 2
        # First node referencing itself breaks the topological order.
        payload["nodes"][0][1] = 2
        assert "dangling" in _kinds(check.check_payload(payload))

    def test_redundant_node(self):
        payload = _nontrivial_payload()
        node = payload["nodes"][-1]
        node[1] = node[2]
        assert "redundant" in _kinds(check.check_payload(payload))

    def test_ordering_broken(self):
        payload = _nontrivial_payload()
        # Give a node the same variable index as its decision child, if
        # one exists; otherwise manufacture a parent-child level clash.
        for i, (var, lo, hi) in enumerate(payload["nodes"]):
            for child in (lo, hi):
                if child >= 2:
                    payload["nodes"][i][0] = payload["nodes"][child - 2][0]
                    assert "ordering" in _kinds(check.check_payload(payload))
                    return
        pytest.skip("payload had no internal edge")

    def test_duplicate_triple(self):
        payload = _nontrivial_payload()
        payload["nodes"].append(list(payload["nodes"][0]))
        assert "unique_table" in _kinds(check.check_payload(payload))

    def test_root_out_of_range(self):
        payload = _nontrivial_payload()
        payload["roots"]["f"] = len(payload["nodes"]) + 1000
        assert "dangling" in _kinds(check.check_payload(payload))

    def test_wrong_format_marker(self):
        payload = _nontrivial_payload()
        payload["format"] = "not-a-forest"
        assert "format" in _kinds(check.check_payload(payload))

    def test_malformed_variable_entry(self):
        payload = _nontrivial_payload()
        payload["variables"][0] = {"name": 7, "kind": "input"}
        assert "format" in _kinds(check.check_payload(payload))

    def test_duplicate_variable_name(self):
        payload = _nontrivial_payload()
        payload["variables"].append(dict(payload["variables"][0]))
        assert "format" in _kinds(check.check_payload(payload))

    def test_output_above_support(self):
        cf = CharFunction.from_spec(_small_spec())
        payload = charfunction_payload(cf)
        meta = payload["charfunction"]
        # Claim an output is supported by a variable *below* it: list the
        # output itself as its own support (position is never above).
        y = meta["outputs"][0]
        meta["output_supports"][y] = [y]
        assert "output_level" in _kinds(check.check_payload(payload))

    def test_verify_payload_raises_integrity_error(self):
        payload = _nontrivial_payload()
        payload["nodes"][-1][2] = 999
        with pytest.raises(IntegrityError) as excinfo:
            check.verify_payload(payload)
        assert excinfo.value.violations
        assert "dangling" in {v.kind for v in excinfo.value.violations}


def _small_spec():
    from repro.isf.ternary import MultiOutputSpec

    return MultiOutputSpec(2, 1, {0: (1,), 3: (0,)}, name="fixed")


@SETTINGS
@given(spec_strategy(max_inputs=3, max_outputs=2))
def test_mutated_payload_never_silently_passes(spec):
    """Flipping any node's child id either keeps a valid payload
    (coincidentally hitting another legal node is possible only via a
    duplicate triple or an order/reduction break) — so the checker must
    flag every mutation that changes the document at all."""
    payload = charfunction_payload(build_cf(spec))
    nodes = payload["nodes"]
    if not nodes:
        return
    mutated = copy.deepcopy(payload)
    # Send the topmost node's lo-edge to an illegal forward id.
    mutated["nodes"][-1][1] = len(nodes) + 2
    violations = check.check_payload(mutated)
    assert violations, "corrupted payload passed the checker"
    assert _kinds(violations) & {"dangling", "redundant", "unique_table"}


def test_counters_increment():
    before = check.counters_snapshot()
    check.check_payload(_nontrivial_payload())
    bdd = BDD()
    bdd.add_vars(["x1"])
    check.check_manager(bdd)
    after = check.counters_snapshot()
    assert after["payload_checks"] == before["payload_checks"] + 1
    assert after["manager_checks"] == before["manager_checks"] + 1
    assert after["violations"] == before["violations"]


class TestKernelParity:
    @settings(max_examples=20, deadline=None)
    @given(TABLE, TABLE)
    def test_ops_match_reference(self, ta, tb):
        bdd, vids, f = build_mixed(ta)
        g = from_truth_table(bdd, vids, tb)
        h = bdd.apply_or(f, bdd.var(vids[-1]))
        gid = bdd.var_group(vids[:2])
        assert bdd.apply_and(f, g) == reference.ref_apply_and(bdd, f, g)
        assert bdd.apply_xor(f, g) == reference.ref_apply_xor(bdd, f, g)
        assert bdd.apply_not(f) == reference.ref_apply_not(bdd, f)
        assert bdd.ite(f, g, h) == reference.ref_ite(bdd, f, g, h)
        assert bdd.exists(f, gid) == reference.ref_exists(bdd, f, gid)
        assert bdd.forall(g, gid) == reference.ref_forall(bdd, g, gid)

    @settings(max_examples=15, deadline=None)
    @given(TABLE)
    def test_ops_on_cofactored_operands(self, table):
        # Operands rooted at different levels, quantified near the bottom.
        bdd, vids, f = build_mixed(table)
        g = bdd.apply_not(bdd.cofactor(f, vids[0], 1))
        gid = bdd.var_group(vids[-3:])
        assert bdd.apply_and(f, g) == reference.ref_apply_and(bdd, f, g)
        assert bdd.exists(f, gid) == reference.ref_exists(bdd, f, gid)
