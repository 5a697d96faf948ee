"""In-place variable reordering: adjacent swaps and Rudell sifting.

The paper (Sect. 5.1) optimizes the BDD_for_CF variable order with the
sifting algorithm of Rudell [12], using the *sum of the widths* as the
cost function, under the Definition 2.4 constraint that an output
variable stays below the support variables of its function.  This
module implements:

* :class:`SiftSession` — a reference-counted reordering session that
  performs adjacent-level swaps in place, physically reclaiming nodes
  that die during a swap so that the live size is tracked exactly.
* :func:`sift` — sifting with optional precedence constraints
  ``(above_vid, below_vid)`` and a pluggable cost function.  The live
  node count (the default) and the sum of widths
  (:func:`width_sum_cost`, which the experiment pipeline passes for
  small enough BDDs, per ``repro._config.LIMITS``) are both kept
  through each swap by the session, so reading the cost at a position
  is O(1); any other ``cost_fn`` is called once per position.
* :func:`set_order` — reach an arbitrary target order by bubbling.

All reordering mutates nodes in place, so node ids held by the caller
remain valid and keep denoting the same Boolean functions.  Any node
*not* reachable from the session roots may be reclaimed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.bdd import check
from repro.bdd import governor as _governor
from repro.bdd import reference
from repro.bdd.hashtable import check_capacity
from repro.bdd.manager import FALSE, BDD
from repro.bdd.traversal import crossing_counts
from repro.errors import OrderingError
from repro._config import LIMITS

CostFn = Callable[[BDD, Sequence[int]], float]


def width_sum_cost(bdd: BDD, roots: Sequence[int]) -> float:
    """Sum of widths of ``roots[0]`` (Def. 3.5), the sifting cost of Sect. 5.1.

    One full :func:`~repro.bdd.traversal.crossing_counts` pass; equals
    :func:`repro.cf.width.sum_of_widths`.  Passed as ``cost_fn``,
    :func:`sift` does not call it per position but keeps the same value
    through every swap (:meth:`SiftSession.track_widths`).
    """
    counts = crossing_counts(bdd, roots[:1])
    return float(1 + sum(counts[: bdd.num_vars]))


class SiftSession:
    """Owns reference counts and performs adjacent swaps for one reorder.

    The session must be the only thing creating or destroying nodes
    while it is active: its swap allocates and frees nodes itself and
    keeps the reference counts, the live size and the manager's
    alive/peak counters.
    """

    def __init__(self, bdd: BDD, roots: Sequence[int]):
        self.bdd = bdd
        self.roots = list(dict.fromkeys(roots))  # dedupe, keep order
        # Reference counts indexed by node id (0 for free ids).
        self._ref: list[int] = []
        self.size = 0
        # Crossing sections of one root, kept by track_widths().
        self.sections: list[set[int]] | None = None
        self.width_sum = 0
        self._init_refs()

    def _init_refs(self) -> None:
        bdd = self.bdd
        lo_arr, hi_arr = bdd._lo, bdd._hi
        ref = self._ref = [0] * len(bdd._vid)
        for u in bdd.reachable(self.roots):
            if u > 1:
                self.size += 1
                if lo_arr[u] > 1:
                    ref[lo_arr[u]] += 1
                if hi_arr[u] > 1:
                    ref[hi_arr[u]] += 1
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

    # -- the swap ------------------------------------------------------

    def swap(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        One loop over the x-level nodes with a y-level child ("movers"):
        each is relabelled y over two x-level nodes found in or added to
        the x unique table, and the y-level children it no longer
        references are freed when their count drops to zero.  Node
        allocation (as ``bdd.mk``: free list first, then a fresh id) and
        freeing (as ``bdd.collect``) are inlined, each in one probe of
        the unique table.
        """
        bdd = self.bdd
        if level < 0 or level + 1 >= bdd.num_vars:
            raise OrderingError(f"cannot swap level {level} of {bdd.num_vars} variables")
        x = bdd._var_at_level[level]
        y = bdd._var_at_level[level + 1]
        vid_arr, lo_arr, hi_arr, gen = bdd._vid, bdd._lo, bdd._hi, bdd._gen
        free = bdd._free
        ref = self._ref
        x_data = bdd._unique[x].data
        y_data = bdd._unique[y].data
        x_get = x_data.get

        movers = [
            u
            for u in x_data.values()
            if (lo_arr[u] > 1 and vid_arr[lo_arr[u]] == y)
            or (hi_arr[u] > 1 and vid_arr[hi_arr[u]] == y)
        ]
        for u in movers:
            del x_data[(lo_arr[u] << 32) | hi_arr[u]]
        n_alive = bdd._n_alive
        peak = bdd._peak_alive
        size = self.size
        try:
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
                # new_lo = mk(x, f00, f10), counting references.
                if f00 == f10:
                    new_lo = f00
                else:
                    key = (f00 << 32) | f10
                    new_lo = x_get(key)
                    if new_lo is None:
                        if free:
                            new_lo = free.pop()
                            vid_arr[new_lo] = x
                            lo_arr[new_lo] = f00
                            hi_arr[new_lo] = f10
                        else:
                            new_lo = len(vid_arr)
                            check_capacity(new_lo)
                            vid_arr.append(x)
                            lo_arr.append(f00)
                            hi_arr.append(f10)
                            gen.append(0)
                            ref.append(0)
                        x_data[key] = new_lo
                        n_alive += 1
                        if n_alive > peak:
                            peak = n_alive
                        size += 1
                        if f00 > 1:
                            ref[f00] += 1
                        if f10 > 1:
                            ref[f10] += 1
                # new_hi = mk(x, f01, f11), likewise.
                if f01 == f11:
                    new_hi = f01
                else:
                    key = (f01 << 32) | f11
                    new_hi = x_get(key)
                    if new_hi is None:
                        if free:
                            new_hi = free.pop()
                            vid_arr[new_hi] = x
                            lo_arr[new_hi] = f01
                            hi_arr[new_hi] = f11
                        else:
                            new_hi = len(vid_arr)
                            check_capacity(new_hi)
                            vid_arr.append(x)
                            lo_arr.append(f01)
                            hi_arr.append(f11)
                            gen.append(0)
                            ref.append(0)
                        x_data[key] = new_hi
                        n_alive += 1
                        if n_alive > peak:
                            peak = n_alive
                        size += 1
                        if f01 > 1:
                            ref[f01] += 1
                        if f11 > 1:
                            ref[f11] += 1
                key = (new_lo << 32) | new_hi
                if key in y_data:  # pragma: no cover - impossible by construction
                    raise OrderingError("swap produced a duplicate node")
                if new_lo > 1:
                    ref[new_lo] += 1
                if new_hi > 1:
                    ref[new_hi] += 1
                vid_arr[u] = y
                lo_arr[u] = new_lo
                hi_arr[u] = new_hi
                y_data[key] = u
                # Release the old children.  Only a y-level child can die
                # (a lower one is still referenced through new_lo or
                # new_hi), so a dying f0 has children f00/f01 and a dying
                # f1 has f10/f11.  Those survive: f00 and f10 are new_lo
                # or its children, f01 and f11 likewise for new_hi, so a
                # death never cascades.  Freeing bumps the generation,
                # which lazily invalidates cache entries touching the id.
                if f0 > 1:
                    n = ref[f0] - 1
                    ref[f0] = n
                    if not n:
                        del y_data[(f00 << 32) | f01]
                        vid_arr[f0] = lo_arr[f0] = hi_arr[f0] = -1
                        gen[f0] += 1
                        free.append(f0)
                        n_alive -= 1
                        size -= 1
                        if f00 > 1:
                            ref[f00] -= 1
                        if f01 > 1:
                            ref[f01] -= 1
                if f1 > 1:
                    n = ref[f1] - 1
                    ref[f1] = n
                    if not n:
                        del y_data[(f10 << 32) | f11]
                        vid_arr[f1] = lo_arr[f1] = hi_arr[f1] = -1
                        gen[f1] += 1
                        free.append(f1)
                        n_alive -= 1
                        size -= 1
                        if f10 > 1:
                            ref[f10] -= 1
                        if f11 > 1:
                            ref[f11] -= 1
        finally:
            bdd._n_alive = n_alive
            bdd._peak_alive = peak
            self.size = size

        bdd._var_at_level[level] = y
        bdd._var_at_level[level + 1] = x
        bdd._level_of[x] = level + 1
        bdd._level_of[y] = level
        # No clear_cache(): node ids keep denoting the same functions,
        # so semantic cache entries stay valid.  Entries touching nodes
        # freed above die via their generation stamps; order-sensitive
        # tiers retire on the epoch bump.
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


def set_order(bdd: BDD, roots: Sequence[int], order: Sequence[str | int]) -> None:
    """Reorder in place to exactly ``order`` (names or vids, top first)."""
    vids = [bdd.vid(v) if isinstance(v, str) else v for v in order]
    if sorted(vids) != list(range(bdd.num_vars)):
        raise OrderingError("order must be a permutation of all variables")
    session = SiftSession(bdd, roots)
    for target_level, vid in enumerate(vids):
        session.move_var(vid, target_level)


def _bounds(
    bdd: BDD, vid: int, precedence: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Allowed level range for ``vid`` given precedence constraints."""
    lb = 0
    ub = bdd.num_vars - 1
    for above, below in precedence:
        if below == vid:
            lb = max(lb, bdd.level_of_vid(above) + 1)
        if above == vid:
            ub = min(ub, bdd.level_of_vid(below) - 1)
    return lb, ub


def sift(
    bdd: BDD,
    roots: Sequence[int],
    *,
    precedence: Sequence[tuple[int, int]] = (),
    cost_fn: CostFn | None = None,
    max_rounds: int = 1,
    max_growth: float | None = None,
) -> float:
    """Rudell sifting under precedence constraints; returns final cost.

    Each variable in turn is moved across its admissible level range
    (down first, then up), the cost is read at every position, and the
    variable is parked at the best one.  ``cost_fn`` defaults to the
    live node count; the Table 4 pipeline passes :func:`width_sum_cost`
    for BDDs under ``LIMITS.sift_widthsum_node_limit`` nodes, matching
    the paper's cost function.  Both are kept by the session through
    each swap, so a read is O(1); under ``reference.SEED_MODE`` the
    width sum is recomputed by a full pass per position, as is any
    other ``cost_fn``.
    """
    if max_growth is None:
        max_growth = LIMITS.sift_max_growth
    for above, below in precedence:
        if bdd.level_of_vid(above) >= bdd.level_of_vid(below):
            raise OrderingError(
                f"initial order violates precedence: {bdd.name_of(above)} "
                f"must be above {bdd.name_of(below)}"
            )
    session = SiftSession(bdd, roots)
    tracked = cost_fn is width_sum_cost and not reference.SEED_MODE
    width_root = roots[0] if roots else FALSE
    if tracked:
        session.track_widths(width_root)

    def cost() -> float:
        if tracked:
            return float(session.width_sum)
        if cost_fn is None:
            return float(session.size)
        return float(cost_fn(bdd, roots))

    current = cost()
    for _ in range(max_rounds):
        round_start = current
        # Sift variables in decreasing order of their level population:
        # busiest levels first, as in Rudell's heuristic.
        order = sorted(range(bdd.num_vars), key=lambda v: -len(bdd._unique[v]))
        for vid in order:
            # Cooperative budget check between variables: a raise here
            # (or inside _sift_one, between swaps) leaves the manager
            # consistent — just under a partially improved order.
            if _governor._ACTIVE:
                _governor.checkpoint(bdd)
            current = _sift_one(bdd, session, vid, precedence, cost, max_growth)
        if current >= round_start:
            break
    if tracked and check.selfcheck_enabled():
        check.verify_width_sum(bdd, width_root, session.width_sum)
    return current


def _sift_one(
    bdd: BDD,
    session: SiftSession,
    vid: int,
    precedence: Sequence[tuple[int, int]],
    cost: Callable[[], float],
    max_growth: float,
) -> float:
    lb, ub = _bounds(bdd, vid, precedence)
    start_level = bdd.level_of_vid(vid)
    best_cost = cost()
    best_level = start_level
    start_size = session.size

    # Explore the closer boundary first (classic sifting heuristic),
    # returning to the best-so-far position between directions.
    go_down_first = (ub - start_level) <= (start_level - lb)
    for direction in ((1, -1) if go_down_first else (-1, 1)):
        level = bdd.level_of_vid(vid)
        limit = ub if direction == 1 else lb
        while level != limit:
            # One adjacent swap ~ one charged step: a ``max_steps``
            # budget bounds sifting work, not just kernel evaluations.
            if _governor._ACTIVE:
                _governor.checkpoint(bdd, 1)
            session.swap(level if direction == 1 else level - 1)
            level += direction
            c = cost()
            if c < best_cost or (
                c == best_cost
                and abs(level - start_level) < abs(best_level - start_level)
            ):
                best_cost = c
                best_level = level
            if session.size > max_growth * start_size:
                break
        session.move_var(vid, best_level)
    return best_cost
