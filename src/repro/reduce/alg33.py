"""Algorithm 3.3: width reduction of a BDD_for_CF via clique covering.

For every height from ``t - 1`` down to 1 (Sect. 3.2):

  1. collect the column functions crossing the section,
  2. build their compatibility graph (Definition 3.8) and cover it with
     the min-degree greedy clique cover (Algorithm 3.2),
  3. AND together the members of each clique,
  4. substitute the merged function for every member and rebuild the
     BDD above the section.

Columns with no don't care anywhere below the section cannot merge
with anything (two distinct completely specified columns always
conflict), so they are left out of the quadratic pair loop — this is a
pure optimization with no effect on the result.

Pairs are decided on packed per-height column signatures
(:class:`~repro.isf.compat.ColumnSignatures`): two bignum ANDs per
pair instead of a BDD pair walk.  Columns outside the product form the
signatures need, and heights whose window is too wide to pack, fall
back to the :func:`~repro.isf.compat.compatible_columns` walk; the
verdicts are identical either way, and every merged clique is still
re-checked with :func:`~repro.isf.compat.ordered_total`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.cf.charfun import CharFunction
from repro.cf.width import columns_at_height, substitute_columns
from repro.isf.compat import ColumnSignatures, compatible_columns, ordered_total
from repro.reduce.cliquecover import build_compatibility_graph, heuristic_clique_cover
from repro.reduce.dc import DontCareOracle
from repro.errors import IncompatibleError
from repro._config import LIMITS


@dataclass
class Alg33Stats:
    """Bookkeeping of one Algorithm 3.3 run (reported by the harness)."""

    heights_processed: int = 0
    merges: int = 0
    pairs_checked: int = 0
    truncated_heights: list[int] = field(default_factory=list)


def algorithm_3_3(
    cf: CharFunction,
    *,
    max_pairs: int | None = None,
) -> tuple[CharFunction, Alg33Stats]:
    """Apply Algorithm 3.3; returns the refined CF and run statistics.

    ``max_pairs`` bounds the pairwise compatibility checks per height
    (defaults to ``LIMITS.max_compat_pairs``); heights where the bound
    truncated the graph are recorded in the stats.

    No garbage collection is performed here: the manager may hold other
    roots the caller still needs, so reclaiming dead nodes (via
    ``bdd.collect``) is the caller's responsibility.
    """
    if max_pairs is None:
        max_pairs = LIMITS.max_compat_pairs
    bdd = cf.bdd
    root = cf.root
    stats = Alg33Stats()
    t = bdd.num_vars

    # One oracle for the whole run: no reordering happens inside the
    # loop, and substitution only creates nodes (never mutates), so the
    # per-node dc cache stays valid across heights.
    oracle = DontCareOracle(bdd)
    for height in range(t - 1, 0, -1):
        columns = columns_at_height(bdd, root, height)
        if len(columns) < 2:
            continue
        mergeable: list[int] = []
        specified: list[int] = []
        for c in columns:
            (mergeable if oracle.column_has_dc(c, height) else specified).append(c)
        if not mergeable:
            continue
        stats.heights_processed += 1
        # A completely specified column can absorb compatible dc-bearing
        # columns, so it stays in the graph; but specified-specified
        # pairs are never compatible and are skipped wholesale.
        candidates = mergeable + specified
        specified_set = set(specified)
        signatures = ColumnSignatures.for_height(bdd, height)
        if signatures is not None:
            compatible = signatures.compatible
        else:
            compatible = partial(compatible_columns, bdd)
        pair_count = [0]

        def is_compat(a: int, b: int) -> bool:
            if a in specified_set and b in specified_set:
                return False
            pair_count[0] += 1
            return compatible(a, b)

        adjacency, truncated = build_compatibility_graph(
            candidates, is_compat, max_pairs=max_pairs
        )
        stats.pairs_checked += pair_count[0]
        if truncated:
            stats.truncated_heights.append(height)
        cover = heuristic_clique_cover(candidates, adjacency)
        substitution: dict[int, int] = {}
        for clique in cover:
            if len(clique) < 2:
                continue
            merged = bdd.apply_and_many(clique)
            if not ordered_total(bdd, merged):
                raise IncompatibleError(
                    "pairwise-compatible clique produced a non-total product"
                )
            for member in clique:
                if member != merged:
                    substitution[member] = merged
            stats.merges += len(clique) - 1
        if substitution:
            root = substitute_columns(bdd, root, height, substitution)

    return cf.replaced(root, suffix="/alg3.3"), stats
