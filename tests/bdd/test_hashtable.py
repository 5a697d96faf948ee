"""Unit tests for the packed-key tables (repro.bdd.hashtable).

Covers the key packing round-trips, the dict-backed UniqueTable API
under insert/discard churn (differentially against a model dict), and
the PackedCache's growth, bounded-overwrite eviction, and
generation-stamp purge behaviour.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError
from repro.bdd.hashtable import (
    KIND_BINARY,
    KIND_COFACTOR,
    KIND_COMPOSE,
    KIND_ITE,
    KIND_NOT,
    KIND_QUANT,
    MAX_NODE_ID,
    PackedCache,
    UniqueTable,
    check_capacity,
    pack2,
    pack3,
    unpack2,
    unpack3,
)

FIELD = st.integers(0, (1 << 32) - 1)


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(FIELD, FIELD)
    def test_pack2_round_trip(self, a, b):
        assert unpack2(pack2(a, b)) == (a, b)

    @settings(max_examples=200, deadline=None)
    @given(FIELD, FIELD, FIELD)
    def test_pack3_round_trip(self, a, b, c):
        assert unpack3(pack3(a, b, c)) == (a, b, c)

    @settings(max_examples=100, deadline=None)
    @given(FIELD, FIELD, FIELD, FIELD)
    def test_pack2_injective(self, a, b, c, d):
        if (a, b) != (c, d):
            assert pack2(a, b) != pack2(c, d)

    def test_pack_extremes(self):
        top = (1 << 32) - 1
        assert unpack2(pack2(top, top)) == (top, top)
        assert unpack3(pack3(top, 0, top)) == (top, 0, top)
        assert pack2(0, 0) == 0


class TestUniqueTable:
    def test_basic_api(self):
        t = UniqueTable()
        assert len(t) == 0
        assert t.lookup(pack2(3, 4)) == -1
        t.insert(pack2(3, 4), 7)
        assert t.lookup(pack2(3, 4)) == 7
        assert t.get((3, 4)) == 7
        assert t.get((4, 3)) is None
        assert len(t) == 1
        assert t.discard(pack2(3, 4)) == 7
        assert t.discard(pack2(3, 4)) == -1
        assert len(t) == 0

    def test_iteration_views(self):
        t = UniqueTable()
        pairs = {(2, 9): 5, (9, 2): 6, (0, 1): 2}
        for (lo, hi), u in pairs.items():
            t.insert(pack2(lo, hi), u)
        assert dict(t.items()) == pairs
        assert {k: v for k, v in t.iter_packed()} == {
            pack2(lo, hi): u for (lo, hi), u in pairs.items()
        }
        assert sorted(t.values()) == sorted(pairs.values())

    def test_churn_against_model(self):
        """Random insert/discard/lookup churn matches a model dict.

        Exercises the delete-heavy pattern of adjacent-level swaps:
        entries leave and re-enter the table under the same keys.
        """
        rng = random.Random(0xBDD)
        t = UniqueTable()
        model: dict[int, int] = {}
        keys = [pack2(rng.randrange(1 << 20), rng.randrange(1 << 20)) for _ in range(200)]
        for step in range(5000):
            key = keys[rng.randrange(len(keys))]
            op = rng.randrange(3)
            if op == 0 and key not in model:
                model[key] = step
                t.insert(key, step)
            elif op == 1:
                assert t.discard(key) == model.pop(key, -1)
            else:
                assert t.lookup(key) == model.get(key, -1)
            assert len(t) == len(model)
        assert dict(t.iter_packed()) == model


def _stamps(n):
    """A generation list long enough for node ids below ``n``."""
    return [0] * n


class TestPackedCache:
    def test_hit_miss_round_trip(self):
        gen = _stamps(100)
        c = PackedCache("t", 1 << 12, KIND_BINARY)
        key = pack2(10, 20)
        assert c.get_n2(key, 10, 20, gen) == -1
        c.put_n2(key, 10, 20, 30, gen)
        assert c.get_n2(key, 10, 20, gen) == 30
        assert c.hits == 1 and c.misses == 1 and c.inserts == 1

    def test_stale_stamp_reads_as_miss(self):
        gen = _stamps(100)
        c = PackedCache("t", 1 << 12, KIND_BINARY)
        key = pack2(10, 20)
        c.put_n2(key, 10, 20, 30, gen)
        gen[20] += 1  # operand node recycled
        assert c.get_n2(key, 10, 20, gen) == -1
        gen[20] -= 1
        gen[30] += 1  # result node recycled
        assert c.get_n2(key, 10, 20, gen) == -1

    def test_growth_up_to_capacity(self):
        rng = random.Random(7)
        gen = _stamps(1 << 17)
        c = PackedCache("t", 1 << 14, KIND_BINARY)
        assert c.mask + 1 == 1 << 10  # starts small
        for _ in range(1 << 13):
            a = rng.randrange(2, 1 << 16)
            b = rng.randrange(2, 1 << 16)
            c.put_n2(pack2(a, b), a, b, a, gen)
        assert c.mask + 1 == c.capacity  # doubled up to the bound
        assert c.size <= c.capacity

    def test_bounded_with_overwrite_eviction(self):
        """Insert far more keys than capacity: size stays bounded and
        the overflow is counted as evictions, never an error."""
        n = 1 << 14
        gen = _stamps(2 * n + 4)
        c = PackedCache("t", 256, KIND_BINARY)
        for i in range(2, n):
            c.put_n2(pack2(i, i + 1), i, i + 1, i, gen)
        assert c.size <= 256
        assert c.evictions > 0
        assert c.inserts == n - 2
        # Whatever is resident must still read back correctly.
        live = 0
        for key, value in c.entries():
            a, b = key
            assert c.get_n2(pack2(a, b), a, b, gen) == value[0]
            live += 1
        assert live == c.size

    def test_purge_drops_only_stale_entries(self):
        gen = _stamps(64)
        c = PackedCache("t", 1 << 12, KIND_BINARY)
        pairs = [(2, 3), (4, 6), (8, 12), (16, 24), (32, 48)]
        for a, b in pairs:
            c.put_n2(pack2(a, b), a, b, a, gen)
        assert c.size == len(pairs)
        gen[4] += 1  # kills the (4, 6) entry only
        dropped = c.purge(gen, epoch=0)
        assert dropped == 1
        assert c.size == len(pairs) - 1
        assert c.invalidations == 1
        assert c.get_n2(pack2(4, 6), 4, 6, gen) == -1
        assert c.get_n2(pack2(8, 12), 8, 12, gen) == 8

    def test_same_xor_pairs_spread(self):
        """Regression: sibling pairs sharing an xor must not collide.

        With the naive ``(key ^ (key >> 32)) * K & mask`` slot function
        the high key field cancels modulo a power of two, so all pairs
        ``(f, f + 1)`` with even ``f`` (xor 1 — ubiquitous cofactor
        pairs in apply workloads) contended for one two-slot bucket and
        evicted each other on every insert.  The staggered-shift mixer
        must keep them resident.
        """
        gen = _stamps(1 << 12)
        c = PackedCache("t", 1 << 12, KIND_BINARY)
        n = 500
        for f in range(2, 2 + 2 * n, 2):
            c.put_n2(pack2(f, f + 1), f, f + 1, f, gen)
        assert c.size > n // 2
        for f in range(2, 2 + 2 * n, 2):
            if c.get_n2(pack2(f, f + 1), f, f + 1, gen) != -1:
                break
        else:
            raise AssertionError("every same-xor pair was evicted")

    @pytest.mark.parametrize(
        "kind, key_of, nodes_of",
        [
            # One cofactor call: fixed vid and bit, sequential operands.
            (KIND_COFACTOR, lambda a: pack3(a, 34, 1), lambda a: (a,)),
            # One quantification: fixed group id.
            (KIND_QUANT, lambda a: pack2(a, 3), lambda a: (a,)),
            # One composition: fixed vid and substituted function.
            (KIND_COMPOSE, lambda a: pack3(a, 5, 77), lambda a: (a, 77)),
            # ITE triples over neighbouring nodes.
            (KIND_ITE, lambda a: pack3(a, a + 1, a + 2), lambda a: (a, a + 1, a + 2)),
        ],
    )
    def test_fixed_field_layouts_spread(self, kind, key_of, nodes_of):
        """Regression: keys sharing a fixed field must reach the whole table.

        The former slot index kept the low bits of the product, which
        depend only on the low bits of the folded key; a cofactor key's
        low five folded bits are ``bit ^ vid << 2``, fixed within one
        call, so a call reached 32 of 1024 slots, never grew the table
        and evicted itself.  The tier must grow and keep most keys.
        """
        n = 2000
        gen = _stamps(n + 8)
        c = PackedCache("t", 1 << 14, kind)
        put = {1: c.put_n1, 2: c.put_n2, 3: c.put_n3}
        get = {1: c.get_n1, 2: c.get_n2, 3: c.get_n3}
        for a in range(2, 2 + n):
            nodes = nodes_of(a)
            put[len(nodes)](key_of(a), *nodes, a, gen)
        assert c.mask + 1 > 1 << 10  # the tier grew
        resident = 0
        for a in range(2, 2 + n):
            nodes = nodes_of(a)
            resident += get[len(nodes)](key_of(a), *nodes, gen) == a
        assert resident > 0.9 * n
        assert c.evictions < 0.1 * n

    @pytest.mark.parametrize(
        "kind, key_of, n_stamps",
        [
            (KIND_NOT, lambda f, g: f, 2),
            (KIND_COFACTOR, lambda f, g: pack3(f, 4, 1), 2),
            (KIND_QUANT, lambda f, g: pack2(f, 2), 2),
            (KIND_COMPOSE, lambda f, g: pack3(f, 4, g), 3),
        ],
    )
    def test_reduced_stamp_kinds_round_trip(self, kind, key_of, n_stamps):
        """Kinds with fewer than four stamps allocate only the lists they
        use, and ``entries()``/``purge()`` read exactly those."""
        gen = _stamps(64)
        c = PackedCache("t", 1 << 12, kind)
        assert [lst is not None for lst in (c.s1, c.s2, c.s3, c.s4)] == [
            j < n_stamps for j in range(4)
        ]
        for f, g, r in ((9, 11, 13), (10, 12, 21)):
            if n_stamps == 2:
                c.put_n1(key_of(f, g), f, r, gen)
            else:
                c.put_n2(key_of(f, g), f, g, r, gen)
        gen[13] = 5  # the first result goes stale
        values = sorted(v for _, v in c.entries())
        assert values == [(13,) + (0,) * n_stamps, (21,) + (0,) * n_stamps]
        assert c.purge(gen, epoch=0) == 1
        assert [v[0] for _, v in c.entries()] == [21]
        gen[12 if n_stamps == 3 else 10] += 1  # the last operand goes stale
        assert c.purge(gen, epoch=0) == 1
        assert c.size == 0 and c.invalidations == 2

    def test_three_operand_kind(self):
        gen = _stamps(64)
        c = PackedCache("t", 1 << 12, KIND_ITE)
        key = pack3(3, 4, 5)
        c.put_n3(key, 3, 4, 5, 6, gen)
        assert c.get_n3(key, 3, 4, 5, gen) == 6
        assert dict(c.entries()) == {(3, 4, 5): (6, 0, 0, 0, 0)}
        gen[5] += 1
        assert c.purge(gen, epoch=0) == 1

    def test_clear_counts_invalidations(self):
        gen = _stamps(16)
        c = PackedCache("t", 1 << 10, KIND_BINARY)
        c.put_n2(pack2(2, 3), 2, 3, 4, gen)
        c.clear()
        assert c.size == 0
        assert c.invalidations == 1
        assert c.get_n2(pack2(2, 3), 2, 3, gen) == -1

    def test_stats_shape(self):
        c = PackedCache("t", 1 << 10, KIND_BINARY)
        s = c.stats()
        assert set(s) == {
            "size",
            "capacity",
            "hits",
            "misses",
            "inserts",
            "evictions",
            "invalidations",
            "hit_rate",
        }


class TestCapacityGuard:
    """Pin the node-id capacity fix: allocation refuses ids the packed
    32-bit key fields cannot represent, instead of silently aliasing."""

    def test_boundary_id_is_accepted(self):
        check_capacity(0)
        check_capacity(MAX_NODE_ID)

    def test_reserved_and_overflow_ids_raise(self):
        for next_id in (MAX_NODE_ID + 1, 1 << 32, (1 << 33) + 7):
            with pytest.raises(CapacityError) as exc:
                check_capacity(next_id)
            assert exc.value.limit == MAX_NODE_ID
            assert str(next_id) in str(exc.value)

    def test_max_node_id_leaves_empty_marker_free(self):
        # 2**32 - 1 masks to the _EMPTY slot marker; the guard must keep
        # it unallocatable.
        assert MAX_NODE_ID == (1 << 32) - 2

    def test_capacity_error_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(CapacityError, ReproError)

    def test_mk_refuses_to_allocate_past_the_boundary(self):
        """BDD.mk consults the guard on the fresh-allocation branch; a
        manager whose id space is (apparently) full raises CapacityError
        instead of packing a 33-bit id."""
        from repro.bdd import BDD, FALSE, TRUE

        bdd = BDD()
        (v,) = bdd.add_vars(["x"])
        bdd.mk(v, FALSE, TRUE)  # interned: no fresh allocation below

        class HugeList(list):
            def __len__(self):
                return MAX_NODE_ID + 1

        bdd._vid = HugeList(bdd._vid)
        # Cached node: still fine (no allocation).
        assert bdd.mk(v, FALSE, TRUE) >= 2
        # Fresh node: would need id 2**32 - 1 — refused.
        with pytest.raises(CapacityError):
            bdd.mk(v, TRUE, FALSE)
