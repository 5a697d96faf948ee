"""Totality and compatibility of characteristic functions.

A characteristic function (or any of its column functions at a cut) is
*total* when every input assignment admits at least one output
assignment: ``∀X ∃Y : χ(X, Y) = 1``.  For well-formed BDD_for_CFs —
where each output variable sits below the support variables of its
function (Definition 2.4) — totality can be decided by a single
linear-time pass over the BDD, quantifying each variable as it is
met in the order (∃ for output variables, ∀ for input variables):
by the time an output variable is reached its function value is fully
determined by the variables above it, so the "choose y knowing only
the upper variables" strategy is exact, not conservative.

Compatibility of two columns (Definition 3.7 lifted to CFs, as used by
Lemma 3.1 and Algorithms 3.1/3.3) is then ``total(χ_a · χ_b)``.

Algorithm 3.3 asks that question for every column pair at every height,
so it first packs the columns of a height into (care, value) bit planes
(:class:`ColumnSignatures`): for columns in product form — every
output forced or skipped along each input path, which is what a
well-formed CF of an ISF has — a pair is then two bignum ANDs.  The
:func:`compatible_columns` pair walk below is the exact fallback for
columns outside that form and for windows too wide to pack.

Both predicates memoize through the manager's cache tiers: totality
per node in the ``tot`` tier, compatibility per (canonicalized,
packed) node pair in the ``compat`` tier, so fallback pairs re-queried
across heights and sub-pairs shared between columns are walked once.
Entries are epoch-tagged (the walk direction depends on the variable
order) and generation-stamped, so reorders and GC invalidate them
lazily without a cache scan.
"""

from __future__ import annotations

from repro.bdd import governor as _governor
from repro.bdd import reference
from repro.bdd.kernel import validator_epoch_bool, validator_epoch_bool_packed
from repro.bdd.manager import FALSE, TRUE, BDD

_TOT_VALIDATOR = validator_epoch_bool(1)
_COMPAT_VALIDATOR = validator_epoch_bool_packed(2)


def ordered_total(bdd: BDD, u: int) -> bool:
    """Decide ``∀X ∃Y : χ = 1`` along the variable order.

    Output variables are quantified existentially, input variables
    universally, in BDD order.  Exact for well-formed CF columns (see
    module docstring); for arbitrary functions it is a sound (possibly
    strict) under-approximation of ``∀X ∃Y``.
    """
    if reference.SEED_MODE:
        return reference.seed_ordered_total(bdd, u)
    if u == TRUE:
        return True
    if u == FALSE:
        return False
    tier = bdd.op_cache("tot", _TOT_VALIDATOR)
    data = tier.data
    gen = bdd._gen
    epoch = bdd._epoch
    kinds = bdd._kinds
    lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid

    # Explicit stack with the same short-circuit as the recursion: an
    # output node whose lo-branch is total (or an input node whose
    # lo-branch is not) never visits its hi-branch.
    result = False
    stack: list[tuple[int, int]] = [(u, 0)]
    push = stack.append
    while stack:
        v, state = stack.pop()
        if state == 0:
            if v == TRUE:
                result = True
                continue
            if v == FALSE:
                result = False
                continue
            entry = data.get(v)
            if entry is not None and entry[1] == epoch and gen[v] == entry[2]:
                tier.hits += 1
                result = entry[0]
                continue
            tier.misses += 1
            push((v, 1))
            push((lo_arr[v], 0))
        elif state == 1:
            # ``result`` holds the lo-branch verdict.
            is_output = kinds[vid_arr[v]] == "output"
            if result == is_output:
                # ∃ with a true branch, or ∀ with a false branch: decided.
                tier.insert(v, (result, epoch, gen[v]))
            else:
                push((v, 2))
                push((hi_arr[v], 0))
        else:
            tier.insert(v, (result, epoch, gen[v]))
    return result


def compatible_columns(bdd: BDD, a: int, b: int) -> bool:
    """Compatibility of two CF column functions: ``total(a · b)``.

    ``a ~ b`` iff their product still allows an output choice for every
    input — Definition 3.7 applied to the ISFs the columns encode.

    The product is never materialized: the walk quantifies over the
    *conceptual* conjunction by descending pairs ``(x, y)`` of nodes,
    which turns Algorithm 3.3's dominant cost (hundreds of thousands of
    ``apply_and`` product constructions, all garbage afterwards) into a
    node-allocation-free Boolean DFS.  Sub-pair verdicts are memoized
    in the ``compat`` tier under the canonical (smaller id first) pair,
    so columns sharing subgraphs — the common case at adjacent heights
    — share most of the walk across top-level pair queries.
    """
    if reference.SEED_MODE:
        return reference.seed_compatible_columns(bdd, a, b)
    if a == FALSE or b == FALSE:
        return False
    if a == b or a == TRUE or b == TRUE:
        return ordered_total(bdd, bdd.apply_and(a, b))
    if a > b:
        a, b = b, a
    tier = bdd.op_cache("compat", _COMPAT_VALIDATOR)
    data = tier.data
    gen = bdd._gen
    epoch = bdd._epoch
    # Top-level probe before any further setup: the clique sweep
    # re-queries pairs across heights, so most calls resolve right
    # here and should not pay for the walk's local bindings.
    entry = data.get((a << 32) | b)
    if (
        entry is not None
        and entry[1] == epoch
        and gen[a] == entry[2]
        and gen[b] == entry[3]
    ):
        tier.hits += 1
        return entry[0]
    kinds = bdd._kinds
    level_of = bdd._level_of
    lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid

    # Pair walk over the conceptual product, same short-circuit shape
    # as ordered_total: state 0 visits a pair, state 1 sees the lo-pair
    # verdict, state 2 sees the hi-pair verdict.  Pair keys are packed
    # into one int — no tuple allocation on the sweep's hot path.
    result = False
    stack: list[tuple[int, int, int]] = [(a, b, 0)]
    push = stack.append
    while stack:
        x, y, state = stack.pop()
        if state == 0:
            if x == FALSE or y == FALSE:
                result = False
                continue
            if x == TRUE and y == TRUE:
                result = True
                continue
            if x == TRUE or y == TRUE or x == y:
                result = ordered_total(bdd, x if y == TRUE else y if x == TRUE else x)
                continue
            if x > y:
                x, y = y, x
            key = (x << 32) | y
            entry = data.get(key)
            if (
                entry is not None
                and entry[1] == epoch
                and gen[x] == entry[2]
                and gen[y] == entry[3]
            ):
                tier.hits += 1
                result = entry[0]
                continue
            tier.misses += 1
            lx = level_of[vid_arr[x]]
            ly = level_of[vid_arr[y]]
            push((x, y, 1))
            push((lo_arr[x] if lx <= ly else x, lo_arr[y] if ly <= lx else y, 0))
        elif state == 1:
            # ``result`` holds the lo-pair verdict.
            lx = level_of[vid_arr[x]]
            ly = level_of[vid_arr[y]]
            top_vid = vid_arr[x] if lx <= ly else vid_arr[y]
            if result == (kinds[top_vid] == "output"):
                # ∃ with a true branch, or ∀ with a false branch: decided.
                tier.insert((x << 32) | y, (result, epoch, gen[x], gen[y]))
            else:
                push((x, y, 2))
                push((hi_arr[x] if lx <= ly else x, hi_arr[y] if ly <= lx else y, 0))
        else:
            tier.insert((x << 32) | y, (result, epoch, gen[x], gen[y]))
    return result


#: Widest window, in plane bits (``2**inputs * outputs``), that gets
#: packed column signatures; wider heights use the pair walk.  Covers
#: almost all of the compatibility work on the Table 5 and Fig. 8 rows
#: while keeping one signature at 8 KiB.
SIGNATURE_MAX_BITS = 1 << 16

#: Signature-decided pairs between two governor checkpoints.
_PAIR_BLOCK = 1024

_MISSING = object()


class ColumnSignatures:
    """Packed (care, value) planes of the columns at one height.

    The window is the set of variables below the section.  Bit
    ``x * nout + k`` of a column's planes refers to output ``k`` of the
    window under assignment ``x`` of the window's inputs; the column
    keeps two planes, ``ones`` (output ``k`` is specified to 1) and
    ``zeros`` (specified to 0).  Planes are built bottom-up over the
    column's cone, memoized per node for the whole height:

    * input node: ``lo | hi << stride`` (the node's variable becomes the
      most significant bit of ``x``),
    * a skipped input: the plane is replicated,
    * output node with exactly one ``FALSE`` child: the output-``k``
      mask is OR-ed into ``ones`` when ``lo == FALSE`` (the output must
      be 1), else into ``zeros``.

    Such a column is a product of independent per-output constraints,
    each fixed by the inputs above its output node, so ``total(a · b)``
    holds iff no output is specified to different values by ``a`` and
    ``b``: :meth:`compatible` answers with two bignum ANDs, the same
    verdict as :func:`compatible_columns`.  A column outside that form
    — an output node with two live children or an input node with a
    ``FALSE`` child somewhere in its cone — has no signature, and its
    pairs take the :func:`compatible_columns` walk.

    Signature work is charged to :mod:`repro.bdd.governor` budgets at
    one step per 64-bit plane word.
    """

    def __init__(
        self, bdd: BDD, cnt: list[int], out_index: dict[int, int], inputs: int
    ):
        nout = len(out_index)
        self.bdd = bdd
        self.plane_bits = nout << inputs
        self._cnt = cnt
        self._out_index = out_index
        self._nout = nout
        self._inputs = inputs
        self._words = max(1, self.plane_bits >> 6)
        # unit[r]: bit 0 of every x-slot of a plane over r inputs.
        unit = [1]
        for r in range(inputs):
            unit.append(unit[r] | unit[r] << (nout << r))
        self._unit = unit
        self._nodes: dict[int, tuple[int, int] | None] = {}
        self._columns: dict[int, tuple[int, int] | None] = {}
        self._pairs = 0

    @staticmethod
    def for_height(bdd: BDD, height: int) -> "ColumnSignatures | None":
        """Signatures for ``height``, or None where the pair walk is kept.

        None under :data:`repro.bdd.reference.SEED_MODE` and when the
        window exceeds :data:`SIGNATURE_MAX_BITS` plane bits.
        """
        if reference.SEED_MODE:
            return None
        t = bdd.num_vars
        base = t - height
        kinds = bdd._kinds
        vid_at = bdd._var_at_level
        # cnt[L]: window inputs at levels >= L; out_index[L]: output k.
        cnt = [0] * (t + 1)
        out_index: dict[int, int] = {}
        for level in range(t - 1, base - 1, -1):
            if kinds[vid_at[level]] == "output":
                cnt[level] = cnt[level + 1]
                out_index[level] = len(out_index)
            else:
                cnt[level] = cnt[level + 1] + 1
        if len(out_index) << cnt[base] > SIGNATURE_MAX_BITS:
            return None
        return ColumnSignatures(bdd, cnt, out_index, cnt[base])

    def signature(self, column: int) -> tuple[int, int] | None:
        """``(ones, zeros)`` planes of ``column``, None if not in product form."""
        sig = self._columns.get(column, _MISSING)
        if sig is _MISSING:
            sig = self._build(column)
            self._columns[column] = sig
        return sig

    def compatible(self, a: int, b: int) -> bool:
        """``total(a · b)`` for two columns crossing this height."""
        columns = self._columns
        sa = columns.get(a, _MISSING)
        if sa is _MISSING:
            sa = self.signature(a)
        sb = columns.get(b, _MISSING)
        if sb is _MISSING:
            sb = self.signature(b)
        if sa is None or sb is None:
            return compatible_columns(self.bdd, a, b)
        self._pairs += 1
        if not self._pairs % _PAIR_BLOCK and _governor._ACTIVE:
            _governor.checkpoint(self.bdd, _PAIR_BLOCK * self._words)
        return not (sa[0] & sb[1] or sa[1] & sb[0])

    def _build(self, column: int) -> tuple[int, int] | None:
        bdd = self.bdd
        nodes = self._nodes
        cnt = self._cnt
        nout = self._nout
        unit = self._unit
        out_index = self._out_index
        lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid
        level_of = bdd._level_of

        def lifted(u: int, r: int) -> tuple[int, int] | None:
            """Planes of ``u`` replicated up to ``r`` inputs, None if none.

            ``FALSE`` has no entry: reached through an input branch it
            leaves an assignment with no output choice.
            """
            if u == TRUE:
                return 0, 0
            sig = nodes.get(u)
            if sig is None:
                return None
            ones, zeros = sig
            have = cnt[level_of[vid_arr[u]]]
            while have < r:
                shift = nout << have
                ones |= ones << shift
                zeros |= zeros << shift
                have += 1
            return ones, zeros

        built = 0
        stack = [column] if column > TRUE and column not in nodes else []
        while stack:
            u = stack[-1]
            lo, hi = lo_arr[u], hi_arr[u]
            pending = False
            for child in (lo, hi):
                if child > TRUE and child not in nodes:
                    stack.append(child)
                    pending = True
            if pending:
                continue
            stack.pop()
            if u in nodes:
                continue
            built += 1
            level = level_of[vid_arr[u]]
            below = cnt[level + 1]
            k = out_index.get(level)
            if k is None:
                lo_sig = lifted(lo, below)
                hi_sig = lifted(hi, below)
                if lo_sig is None or hi_sig is None:
                    nodes[u] = None
                else:
                    stride = nout << below
                    nodes[u] = (
                        lo_sig[0] | hi_sig[0] << stride,
                        lo_sig[1] | hi_sig[1] << stride,
                    )
            elif lo != FALSE and hi != FALSE:
                # Both choices live: an in-place don't care.
                nodes[u] = None
            else:
                sig = lifted(hi if lo == FALSE else lo, below)
                mask = unit[below] << k
                if sig is None:
                    nodes[u] = None
                elif lo == FALSE:
                    nodes[u] = (sig[0] | mask, sig[1])
                else:
                    nodes[u] = (sig[0], sig[1] | mask)
        if built and _governor._ACTIVE:
            _governor.checkpoint(bdd, built * self._words)
        return lifted(column, self._inputs)
