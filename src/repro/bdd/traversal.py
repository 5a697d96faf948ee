"""Structural traversals: level profiles and crossing-edge analysis.

The paper's width notion (Definition 3.5) counts *distinct targets of
edges crossing a section* between two adjacent levels, which differs
from the naive "nodes per level" profile because edges may skip levels
(and in a BDD_for_CF a skipped output level is exactly how a don't-care
is encoded).  The generic machinery lives here;
:mod:`repro.cf.width` applies the CF-specific conventions.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.bdd import reference
from repro.bdd.manager import FALSE, TRUE, BDD


def internal_nodes(bdd: BDD, roots: Iterable[int]) -> set[int]:
    """Non-terminal nodes reachable from ``roots``."""
    return {u for u in bdd.reachable(roots) if u > 1}


def nodes_by_level(bdd: BDD, roots: Iterable[int]) -> dict[int, set[int]]:
    """Map level -> reachable internal nodes labelled at that level."""
    out: dict[int, set[int]] = {}
    for u in internal_nodes(bdd, roots):
        out.setdefault(bdd.level(u), set()).add(u)
    return out


def level_profile(bdd: BDD, roots: Iterable[int]) -> list[int]:
    """Number of reachable internal nodes at each level, top to bottom."""
    by_level = nodes_by_level(bdd, roots)
    return [len(by_level.get(level, ())) for level in range(bdd.num_vars)]


def crossing_targets(
    bdd: BDD,
    roots: Iterable[int],
    *,
    count_true: bool = True,
) -> list[set[int]]:
    """Distinct targets of edges crossing each section (Definition 3.5).

    Returns a list indexed by level ``l`` (0..num_vars): entry ``l``
    holds the set of nodes below the section *above* level ``l`` that
    receive an edge from above it.  Edges into constant 0 are never
    counted; edges into constant 1 are counted unless ``count_true`` is
    False.  Root nodes count as receiving an edge from above the top.

    In the paper's height coordinates (height of the root = number of
    variables ``t``), entry ``l`` of this list is the section at height
    ``t - l``; callers convert as needed.
    """
    t = bdd.num_vars
    sections: list[set[int]] = [set() for _ in range(t + 1)]
    level_fn = bdd.level
    lo_of = bdd.lo
    hi_of = bdd.hi

    def record(target: int, from_level: int) -> None:
        # The edge crosses every section between from_level (exclusive)
        # and the target's level (inclusive).
        if target == FALSE:
            return
        if target == TRUE and not count_true:
            return
        to_level = min(level_fn(target), t)
        for section in range(from_level + 1, to_level + 1):
            sections[section].add(target)

    seen: set[int] = set()
    seen_add = seen.add
    root_list = [r for r in roots]
    for r in root_list:
        record(r, -1)
    stack = [r for r in root_list if r > 1]
    push = stack.append
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen_add(u)
        level = level_fn(u)
        child = lo_of(u)
        record(child, level)
        if child > 1 and child not in seen:
            push(child)
        child = hi_of(u)
        record(child, level)
        if child > 1 and child not in seen:
            push(child)
    return sections


def crossing_counts(
    bdd: BDD,
    roots: Iterable[int],
    *,
    count_true: bool = True,
) -> list[int]:
    """Sizes of the crossing-target sets of :func:`crossing_targets`.

    Width computations only need ``len(sections[l])``, and those counts
    admit an O(nodes) algorithm that never materializes the sets: a
    target ``u`` belongs to every section between the *highest* edge
    into it (exclusive) and its own level (inclusive), so one
    min-parent-level pass plus a difference array over levels yields
    all counts at once.  The set-based walk is Θ(edges × span), while
    this is linear in the node count.
    """
    if reference.SEED_MODE:
        return [
            len(s) for s in crossing_targets(bdd, roots, count_true=count_true)
        ]
    t = bdd.num_vars
    level_of = bdd._level_of
    vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
    # min_from[target]: level of the highest edge into target (-1 for
    # roots), ``unseen`` until the target is first reached.  A node-id-
    # indexed list rather than a dict: per-edge dict hashing dominates.
    unseen = t + 1
    min_from = [unseen] * len(vid_arr)
    touched: list[int] = []
    stack: list[int] = []
    for r in roots:
        if r != FALSE and (count_true or r != TRUE) and min_from[r] == unseen:
            min_from[r] = -1
            touched.append(r)
            if r > 1:
                stack.append(r)
    while stack:
        u = stack.pop()
        level = level_of[vid_arr[u]]
        child = lo_arr[u]
        if child != FALSE and (count_true or child != TRUE):
            mf = min_from[child]
            if level < mf:
                if mf == unseen:
                    touched.append(child)
                    if child > 1:
                        stack.append(child)
                min_from[child] = level
        child = hi_arr[u]
        if child != FALSE and (count_true or child != TRUE):
            mf = min_from[child]
            if level < mf:
                if mf == unseen:
                    touched.append(child)
                    if child > 1:
                        stack.append(child)
                min_from[child] = level
    diff = [0] * (t + 2)
    for u in touched:
        mf = min_from[u]
        to_level = t if u <= 1 else level_of[vid_arr[u]]
        if to_level > t:
            to_level = t
        if mf + 1 <= to_level:
            diff[mf + 1] += 1
            diff[to_level + 1] -= 1
    counts: list[int] = []
    acc = 0
    for s in range(t + 1):
        acc += diff[s]
        counts.append(acc)
    return counts


def sections_of(
    bdd: BDD,
    roots: Iterable[int],
    *,
    count_true: bool = True,
) -> list[set[int]]:
    """Memoized :func:`crossing_targets` for repeated column queries.

    Algorithm 3.3 asks for the columns of the same root once per
    height; the memo makes that one traversal per root instead of one
    per height.  Keyed on (root ids, their generations, count_true);
    the manager clears the memo on every reorder epoch bump and on
    collect, and a generation mismatch catches freed-and-recycled
    roots, so entries can never go stale.  Small FIFO (the working set
    is one or two roots).
    """
    if reference.SEED_MODE:
        return crossing_targets(bdd, roots, count_true=count_true)
    root_tuple = tuple(roots)
    key = (root_tuple, count_true)
    gen = bdd._gen
    gens = tuple(gen[r] for r in root_tuple)
    memo = bdd._sections_memo
    entry = memo.get(key)
    if entry is not None and entry[0] == gens:
        return entry[1]
    sections = crossing_targets(bdd, root_tuple, count_true=count_true)
    if len(memo) >= 4:
        memo.pop(next(iter(memo)))
    memo[key] = (gens, sections)
    return sections


def count_paths_to_one(bdd: BDD, root: int) -> int:
    """Number of distinct root-to-TRUE paths (not minterms)."""
    counts: dict[int, int] = {FALSE: 0, TRUE: 1}
    stack = [root]
    while stack:
        u = stack[-1]
        if u in counts:
            stack.pop()
            continue
        lo, hi = bdd.lo(u), bdd.hi(u)
        ready = True
        if hi not in counts:
            stack.append(hi)
            ready = False
        if lo not in counts:
            stack.append(lo)
            ready = False
        if not ready:
            continue
        stack.pop()
        counts[u] = counts[lo] + counts[hi]
    return counts[root]
