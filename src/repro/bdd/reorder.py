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
            bdd._free_node(v)

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
