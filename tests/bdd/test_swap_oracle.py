"""Differential test of the fused ``SiftSession.swap`` against its oracle.

:class:`OracleSession` is the swap as it was built from ``bdd.mk``,
``_free_node`` and dict-backed reference counts (``_mk``/``_incref``/
``_decref``), kept verbatim.  The fused swap inlines node allocation
and freeing and keeps its counts in a list; it must leave the manager
in exactly the same state: node arrays, generations, free list, unique
tables (with their insertion order), variable order, alive/peak
counters, the session's live size and width sum, and every reference
count.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, Budget, from_truth_table
from repro.bdd import reorder
from repro.bdd.manager import FALSE
from repro.bdd.reorder import SiftSession, sift, width_sum_cost
from repro.errors import OrderingError, ResourceLimitError


# ----------------------------------------------------------------------
# The oracle: the unfused swap, verbatim, with the manager helper that
# freed one node (``BDD._free_node``) as a function.
# ----------------------------------------------------------------------


def free_node(bdd: BDD, u: int) -> None:
    """Physically free one internal node (reorder/GC internal API).

    Bumps the node's generation so cache entries referencing the id
    lazily read as stale; the id goes back on the free list.
    """
    bdd._unique[bdd._vid[u]].data.pop((bdd._lo[u] << 32) | bdd._hi[u], None)
    bdd._vid[u] = -1
    bdd._lo[u] = -1
    bdd._hi[u] = -1
    bdd._gen[u] += 1
    bdd._free.append(u)
    bdd._n_alive -= 1


class OracleSession:
    """Owns reference counts and performs adjacent swaps for one reorder.

    The session must be the only thing creating or destroying nodes
    while it is active (its methods call ``bdd.mk`` internally and keep
    the reference counts consistent).
    """

    def __init__(self, bdd: BDD, roots: Sequence[int]):
        self.bdd = bdd
        self.roots = list(dict.fromkeys(roots))  # dedupe, keep order
        self._ref: dict[int, int] = {}
        self.size = 0
        # Crossing sections of one root, kept by track_widths().
        self.sections: list[set[int]] | None = None
        self.width_sum = 0
        self._init_refs()

    def _init_refs(self) -> None:
        bdd = self.bdd
        ref = self._ref
        for u in bdd.reachable(self.roots):
            if u > 1:
                ref[u] = 0
                self.size += 1
        for u in list(ref):
            for child in (bdd.lo(u), bdd.hi(u)):
                if child > 1:
                    ref[child] += 1
        for r in self.roots:
            if r > 1:
                ref[r] += 1
        # Reclaim any garbage not reachable from the roots so that the
        # unique tables agree with the reference counts.
        bdd.collect(self.roots)

    # -- incremental sum of widths -------------------------------------

    def track_widths(self, root: int) -> None:
        """Keep the sum of widths of ``root`` in :attr:`width_sum` from now on.

        Section ``s`` (the cut above level ``s``) holds Def. 3.5's
        crossing targets: the distinct non-FALSE cofactors of ``root``
        w.r.t. the variables above the cut.  They depend only on the
        *set* of those variables, and a swap keeps every node id
        denoting the same function, so swapping levels ``l``/``l+1``
        changes section ``l+1`` alone, and its new content is one
        cofactor step from section ``l`` (:meth:`_next_section`).  Each
        swap therefore costs O(width of one section); building the
        sections here costs O(sum of widths).  ``width_sum`` is
        ``1 + sum of |section s|`` over ``s < num_vars``, i.e.
        :func:`width_sum_cost` (height 0 counts 1 by definition).
        """
        section = {root} - {FALSE}
        sections = []
        for level in range(self.bdd.num_vars):
            sections.append(section)
            section = self._next_section(section, level)
        self.sections = sections
        self.width_sum = 1 + sum(len(s) for s in sections)

    def _next_section(self, section: set[int], level: int) -> set[int]:
        """The section below ``level`` from the section above it."""
        bdd = self.bdd
        x = bdd._var_at_level[level]
        vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
        out: set[int] = set()
        add = out.add
        for g in section:
            if g > 1 and vid_arr[g] == x:
                add(lo_arr[g])
                add(hi_arr[g])
            else:
                add(g)
        out.discard(FALSE)
        return out

    # -- reference-count helpers --------------------------------------

    def _incref(self, u: int) -> None:
        if u > 1:
            self._ref[u] = self._ref.get(u, 0) + 1

    def _decref(self, u: int) -> None:
        if u <= 1:
            return
        ref = self._ref
        bdd = self.bdd
        stack = [u]
        while stack:
            v = stack.pop()
            if v <= 1:
                continue
            n = ref[v] - 1
            if n:
                ref[v] = n
                continue
            # Node died: remove it physically and release its children.
            # Deaths can cascade arbitrarily deep, hence the explicit
            # stack.  _free_node bumps the node's generation, which is
            # what lazily invalidates cache entries touching it.
            del ref[v]
            self.size -= 1
            stack.append(bdd._lo[v])
            stack.append(bdd._hi[v])
            free_node(bdd, v)

    def _mk(self, vid: int, lo: int, hi: int) -> int:
        """mk() that keeps reference counts and the live size exact."""
        if lo == hi:
            return lo
        bdd = self.bdd
        u = bdd._unique[vid].data.get((lo << 32) | hi)
        if u is not None:
            return u
        u = bdd.mk(vid, lo, hi)
        self._ref[u] = 0
        self.size += 1
        self._incref(lo)
        self._incref(hi)
        return u

    # -- the swap ------------------------------------------------------

    def swap(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place."""
        bdd = self.bdd
        if level < 0 or level + 1 >= bdd.num_vars:
            raise OrderingError(f"cannot swap level {level} of {bdd.num_vars} variables")
        x = bdd._var_at_level[level]
        y = bdd._var_at_level[level + 1]
        vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
        x_data = bdd._unique[x].data
        y_data = bdd._unique[y].data

        movers = [
            u
            for u in x_data.values()
            if (lo_arr[u] > 1 and vid_arr[lo_arr[u]] == y)
            or (hi_arr[u] > 1 and vid_arr[hi_arr[u]] == y)
        ]
        for u in movers:
            del x_data[(lo_arr[u] << 32) | hi_arr[u]]
        for u in movers:
            f0, f1 = lo_arr[u], hi_arr[u]
            if f0 > 1 and vid_arr[f0] == y:
                f00, f01 = lo_arr[f0], hi_arr[f0]
            else:
                f00 = f01 = f0
            if f1 > 1 and vid_arr[f1] == y:
                f10, f11 = lo_arr[f1], hi_arr[f1]
            else:
                f10 = f11 = f1
            new_lo = self._mk(x, f00, f10)
            new_hi = self._mk(x, f01, f11)
            key = (new_lo << 32) | new_hi
            if key in y_data:  # pragma: no cover - impossible by construction
                raise OrderingError("swap produced a duplicate node")
            self._incref(new_lo)
            self._incref(new_hi)
            vid_arr[u] = y
            lo_arr[u] = new_lo
            hi_arr[u] = new_hi
            y_data[key] = u
            self._decref(f0)
            self._decref(f1)

        bdd._var_at_level[level] = y
        bdd._var_at_level[level + 1] = x
        bdd._level_of[x] = level + 1
        bdd._level_of[y] = level
        # No clear_cache(): node ids keep denoting the same functions,
        # so semantic cache entries stay valid.  Entries touching nodes
        # freed by the _decref cascade above die via their generation
        # stamps; order-sensitive tiers retire on the epoch bump.
        bdd._note_reorder()
        sections = self.sections
        if sections is not None:
            below = self._next_section(sections[level], level)
            self.width_sum += len(below) - len(sections[level + 1])
            sections[level + 1] = below

    def move_var(self, vid: int, target_level: int) -> None:
        """Move one variable to ``target_level`` by repeated swaps."""
        bdd = self.bdd
        while bdd._level_of[vid] < target_level:
            self.swap(bdd._level_of[vid])
        while bdd._level_of[vid] > target_level:
            self.swap(bdd._level_of[vid] - 1)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def build(seed: int, n_vars: int, n_roots: int) -> tuple[BDD, list[int]]:
    """A manager holding ``n_roots`` random functions of ``n_vars`` inputs.

    Deterministic in its arguments, so two calls give managers in the
    same state.  Some garbage is left behind on purpose: the session's
    initial collect and the free list it fills are part of the state.
    """
    rng = random.Random(seed)
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(n_vars)])
    roots = []
    for _ in range(n_roots):
        table = [int(rng.random() < 0.4) for _ in range(1 << n_vars)]
        roots.append(from_truth_table(bdd, vids, table))
    # Derived functions share structure with the tables above.
    roots.append(bdd.apply_xor(roots[0], roots[-1]))
    bdd.apply_and(roots[0], bdd.apply_not(roots[-1]))  # garbage
    return bdd, roots


def state(bdd: BDD, session) -> tuple:
    """Everything a swap may touch, in comparable form."""
    live = {u for table in bdd._unique for u in table.data.values()}
    refs = session._ref
    counts = {u: refs[u] for u in live}
    if isinstance(refs, list):
        assert all(refs[u] == 0 for u in range(len(refs)) if u not in live)
    return (
        list(bdd._vid),
        list(bdd._lo),
        list(bdd._hi),
        list(bdd._gen),
        list(bdd._free),
        [list(table.data.items()) for table in bdd._unique],
        list(bdd._var_at_level),
        list(bdd._level_of),
        bdd._n_alive,
        bdd._peak_alive,
        bdd._epoch,
        session.size,
        session.width_sum,
        session.sections,
        counts,
    )


CASES = st.tuples(
    st.integers(0, 10**6),  # seed
    st.integers(3, 7),  # variables
    st.integers(1, 4),  # roots
)


class TestFusedSwapMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        CASES,
        st.lists(st.integers(0, 100), min_size=1, max_size=40),
        st.booleans(),
    )
    def test_random_swap_sequences(self, case, levels, track):
        seed, n_vars, n_roots = case
        fused_bdd, roots = build(seed, n_vars, n_roots)
        oracle_bdd, oracle_roots = build(seed, n_vars, n_roots)
        assert roots == oracle_roots
        fused = SiftSession(fused_bdd, roots)
        oracle = OracleSession(oracle_bdd, roots)
        if track:
            fused.track_widths(roots[0])
            oracle.track_widths(roots[0])
        assert state(fused_bdd, fused) == state(oracle_bdd, oracle)
        for level in levels:
            level %= n_vars - 1
            fused.swap(level)
            oracle.swap(level)
            assert state(fused_bdd, fused) == state(oracle_bdd, oracle)
        fused_bdd.check_invariants(roots)

    @settings(max_examples=30, deadline=None)
    @given(CASES, st.integers(1, 60), st.booleans())
    def test_sift_under_a_governor_abort(self, case, max_steps, track):
        """An aborted sift leaves both swaps' managers identical."""
        seed, n_vars, n_roots = case
        cost = width_sum_cost if track else None
        outcomes = []
        sessions = []

        class Recording(SiftSession):
            def __init__(self, *args):
                super().__init__(*args)
                sessions.append(self)

        class RecordingOracle(OracleSession):
            def __init__(self, *args):
                super().__init__(*args)
                sessions.append(self)

        for cls in (Recording, RecordingOracle):
            bdd, roots = build(seed, n_vars, n_roots)
            with mock.patch.object(reorder, "SiftSession", cls):
                try:
                    with Budget(max_steps=max_steps):
                        sift(bdd, roots, cost_fn=cost)
                    aborted = False
                except ResourceLimitError:
                    aborted = True
            outcomes.append((aborted, state(bdd, sessions[-1])))
        assert outcomes[0] == outcomes[1]

    def test_dying_nodes_are_freed_alike(self):
        """Swaps that free y-level nodes leave identical free lists."""

        def chain():
            bdd = BDD()
            vids = bdd.add_vars([f"x{i}" for i in range(8)])
            f = bdd.apply_and_many(bdd.var(v) for v in vids)
            g = bdd.apply_or(bdd.var(vids[0]), bdd.var(vids[1]))
            return bdd, [f, g]

        fused_bdd, roots = chain()
        oracle_bdd, _ = chain()
        fused = SiftSession(fused_bdd, roots)
        oracle = OracleSession(oracle_bdd, roots)
        freed = 0
        for level in (0, 1, 0, 2, 1, 0, 6, 5, 4, 3):
            before = fused_bdd._gen[:]
            fused.swap(level)
            oracle.swap(level)
            freed += sum(a != b for a, b in zip(before, fused_bdd._gen))
            assert state(fused_bdd, fused) == state(oracle_bdd, oracle)
        assert freed
