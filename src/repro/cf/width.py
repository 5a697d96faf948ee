"""Widths of a BDD_for_CF (Definition 3.5) and column extraction.

The width at height ``k`` is the number of edges crossing the section
between variables ``z_k`` and ``z_{k+1}``, where edges incident to the
same node count once and edges into the constant 0 are not counted
(which also covers Theorem 3.1's "ignore edges that connect output
nodes and the constant 0").  The width at height 0 is 1 by definition.

The *column functions* at a height are the functions of the distinct
crossing targets — the paper's decomposition-chart columns realized on
the BDD (Sect. 3.1, footnote: the all-zero column is not counted, which
corresponds to excluding the constant 0 target).

Width *counts* go through :func:`~repro.bdd.traversal.crossing_counts`
(one linear pass, no set materialization); column *sets* go through the
memoized :func:`~repro.bdd.traversal.sections_of` so Algorithm 3.3's
per-height queries share one traversal.  Sifting keeps its width-sum
cost incrementally instead (see the note at the end of this module).
"""

from __future__ import annotations

from repro.bdd.manager import TRUE, BDD
from repro.bdd.traversal import crossing_counts, sections_of


def width_profile(bdd: BDD, root: int) -> list[int]:
    """Widths indexed by height ``0 .. t`` (``t`` = number of variables)."""
    t = bdd.num_vars
    counts = crossing_counts(bdd, [root])
    profile = [0] * (t + 1)
    profile[0] = 1
    for height in range(1, t + 1):
        profile[height] = counts[t - height]
    return profile


def max_width(bdd: BDD, root: int) -> int:
    """Maximum width over all sections (the paper's 'Maximum width')."""
    profile = width_profile(bdd, root)
    # Heights 0 and t are the trivial terminal/root sections; the paper's
    # maximum is over the internal structure, but including the trivial
    # sections cannot change the maximum for any non-constant function.
    return max(profile)

def sum_of_widths(bdd: BDD, root: int) -> int:
    """Sum of widths over all heights — the sifting cost of Sect. 5.1."""
    return sum(width_profile(bdd, root))


def columns_at_height(bdd: BDD, root: int, height: int) -> list[int]:
    """Distinct column functions crossing the section at ``height``.

    Targets are the nodes below the section that receive an edge from
    above it; the constant 0 is excluded by Definition 3.5.  The
    constant 1 *is* a column (an "all don't care" column) and may be
    merged with any other column by Algorithm 3.3.  Results are sorted
    for determinism.
    """
    t = bdd.num_vars
    if not (1 <= height <= t):
        raise ValueError(f"height must be in 1..{t}, got {height}")
    sections = sections_of(bdd, [root])
    return sorted(sections[t - height])


def all_columns(bdd: BDD, root: int) -> list[list[int]]:
    """Column sets for every height ``0 .. t`` in one traversal."""
    t = bdd.num_vars
    sections = sections_of(bdd, [root])
    result: list[list[int]] = [[] for _ in range(t + 1)]
    result[0] = [TRUE] if root != 0 else []
    for height in range(1, t + 1):
        result[height] = sorted(sections[t - height])
    return result


def substitute_columns(
    bdd: BDD, root: int, height: int, substitution: dict[int, int]
) -> int:
    """Rebuild the BDD with columns at ``height`` replaced.

    ``substitution`` maps old column nodes (at or below the section) to
    replacement functions whose supports also lie below the section.
    Nodes above the section are rebuilt through the unique table, so
    upper nodes that become equal merge automatically (Example 3.6).
    The rebuild walks with an explicit stack, so it cannot hit the
    recursion limit on deep orders.
    """
    t = bdd.num_vars
    boundary_level = t - height  # nodes at level >= boundary_level are below
    memo: dict[int, int] = {}
    level = bdd.level
    lo_of = bdd.lo
    hi_of = bdd.hi
    var_of = bdd.var_of
    mk = bdd.mk
    memo_get = memo.get
    sub_get = substitution.get

    def resolve(u: int) -> int | None:
        """Rewritten form of ``u`` if already known, else None."""
        if level(u) >= boundary_level:
            return sub_get(u, u)
        return memo_get(u)

    top = resolve(root)
    if top is not None:
        return top
    stack = [root]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        lo_child = lo_of(u)
        hi_child = hi_of(u)
        lo = resolve(lo_child)
        hi = resolve(hi_child)
        if lo is None:
            stack.append(lo_child)
        if hi is None:
            stack.append(hi_child)
        if lo is None or hi is None:
            continue
        stack.pop()
        memo[u] = mk(var_of(u), lo, hi)
    return memo[root]


# NOTE: sifting does not call sum_of_widths() per position.  The section
# above level s holds the distinct non-FALSE cofactors of the root
# w.r.t. the variables above it, so it depends only on the *set* of
# those variables; an adjacent swap of levels l/l+1 keeps node ids
# denoting the same functions and so changes section l+1 alone, which
# is one cofactor step from section l.  SiftSession.track_widths keeps
# every section that way at O(width) per swap.  An earlier attempt
# patched the same section by rescanning the unique tables of all
# levels above it — a pass over a comparable node count with Python
# set insertion, ~14x slower than the full crossing_counts() pass —
# instead of reading the one section above it.
