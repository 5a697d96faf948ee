"""Construction of the BDD_for_CF (Definitions 2.2-2.4).

The characteristic function of an incompletely specified multiple-output
function ``F = (f_1, ..., f_m)`` is

    χ(X, Y) = Π_i ( ¬y_i·f_i0(X) ∨ y_i·f_i1(X) ∨ f_id(X) )

(Definition 2.3).  Its BDD places each output variable ``y_i`` below
the support variables of ``f_i`` (Definition 2.4); with that placement
a don't-care of ``f_i`` appears as a path on which the ``y_i`` node is
*missing* — the node is redundant and vanishes during reduction
(Fig. 1(c)).

:class:`CharFunction` owns one BDD manager per characteristic function
so that reordering experiments on different output partitions are
independent.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bdd.manager import FALSE, TRUE, BDD
from repro.bdd.transfer import transfer
from repro.bdd import reorder
from repro.errors import SpecificationError
from repro.isf.compat import ordered_total
from repro.isf.function import MultiOutputISF
from repro.isf.ternary import MultiOutputSpec
from repro._config import LIMITS


class CharFunction:
    """A BDD_for_CF: the characteristic function of a multiple-output ISF."""

    def __init__(
        self,
        bdd: BDD,
        root: int,
        input_vids: Sequence[int],
        output_vids: Sequence[int],
        *,
        name: str = "chi",
        output_supports: Mapping[int, frozenset[int]] | None = None,
    ):
        self.bdd = bdd
        self.root = root
        self.input_vids = list(input_vids)
        self.output_vids = list(output_vids)
        self.name = name
        if output_supports is None:
            # Conservative fallback: every input above the output in the
            # current order is treated as a support variable.
            output_supports = {}
            for y in self.output_vids:
                y_level = bdd.level_of_vid(y)
                output_supports[y] = frozenset(
                    x for x in self.input_vids if bdd.level_of_vid(x) < y_level
                )
        self.output_supports = {y: frozenset(s) for y, s in output_supports.items()}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_isf(
        isf: MultiOutputISF,
        *,
        name: str | None = None,
        y_names: Sequence[str] | None = None,
        input_order: Sequence[int] | None = None,
    ) -> "CharFunction":
        """Build the BDD_for_CF of ``isf`` in a fresh manager.

        Output variables are interleaved per Definition 2.4: each
        ``y_i`` is created immediately below the deepest support
        variable of ``f_i`` (outputs with constant functions go to the
        top of the order).

        ``input_order`` optionally seeds the input variable order (vids
        of the source manager, top first) — e.g. the FORCE arrangement
        from :func:`repro.bdd.force.force_input_order`; the default is
        the source manager's current order.
        """
        src = isf.bdd
        if y_names is None:
            y_names = [f"y{i + 1}" for i in range(isf.n_outputs)]
        if len(set(y_names)) != isf.n_outputs:
            raise SpecificationError("output variable names must be unique")

        # Deepest support level (in the source order) per output.  When
        # the builder supplied placement hints (the support of the
        # *care value*, see MultiOutputISF), they override the
        # structural support, which is inflated by input-don't-care
        # masks.
        supports: list[set[int]] = []
        deepest: list[int] = []
        for i, out in enumerate(isf.outputs):
            if isf.placement_supports is not None:
                supp = set(isf.placement_supports[i])
            else:
                supp = src.support(out.f0) | src.support(out.f1)
            supports.append(supp)
            if supp:
                deepest.append(max(src.level_of_vid(v) for v in supp))
            else:
                deepest.append(-1)

        dst = BDD()
        vid_map: dict[int, int] = {}
        output_vids: list[int] = [-1] * isf.n_outputs
        if input_order is not None:
            ordered_inputs = list(input_order)
            if sorted(ordered_inputs) != sorted(isf.input_vids):
                raise SpecificationError(
                    "input_order must be a permutation of the input vids"
                )
            # "Deepest support variable" is relative to the chosen order.
            rank = {v: i for i, v in enumerate(ordered_inputs)}
            deepest = [
                max((rank[v] for v in supp), default=-1) for supp in supports
            ]
            position_of = rank
        else:
            ordered_inputs = sorted(isf.input_vids, key=src.level_of_vid)
            position_of = {
                v: src.level_of_vid(v) for v in ordered_inputs
            }

        def place_outputs(after_position: int) -> None:
            for i, pos in enumerate(deepest):
                if pos == after_position:
                    output_vids[i] = dst.add_var(y_names[i], kind="output")

        place_outputs(-1)
        for src_vid in ordered_inputs:
            vid_map[src_vid] = dst.add_var(src.name_of(src_vid), kind="input")
            place_outputs(position_of[src_vid])

        # Transfer the triples and conjoin the per-output terms,
        # bottom-most output first (keeps intermediate products small).
        term_order = sorted(
            range(isf.n_outputs), key=lambda i: dst.level_of_vid(output_vids[i]),
            reverse=True,
        )
        root = TRUE
        for i in term_order:
            out = isf.outputs[i]
            f0, f1 = transfer(src, dst, [out.f0, out.f1], vid_map)
            fd = dst.apply_not(dst.apply_or(f0, f1))
            y = dst.var(output_vids[i])
            ny = dst.nvar(output_vids[i])
            term = dst.apply_or(
                dst.apply_or(dst.apply_and(ny, f0), dst.apply_and(y, f1)), fd
            )
            root = dst.apply_and(root, term)

        cf = CharFunction(
            dst,
            root,
            [vid_map[v] for v in isf.input_vids],
            output_vids,
            name=name if name is not None else isf.name,
            output_supports={
                output_vids[i]: frozenset(vid_map[v] for v in supports[i])
                for i in range(isf.n_outputs)
            },
        )
        dst.collect([root])
        return cf

    @staticmethod
    def from_spec(spec: MultiOutputSpec, **kwargs) -> "CharFunction":
        """Build directly from a tabular spec."""
        return CharFunction.from_isf(MultiOutputISF.from_spec(spec), **kwargs)

    def replaced(self, new_root: int, *, suffix: str = "") -> "CharFunction":
        """A CF sharing this manager and variables but with another root."""
        return CharFunction(
            self.bdd,
            new_root,
            self.input_vids,
            self.output_vids,
            name=self.name + suffix,
            output_supports=self.output_supports,
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Total number of variables ``t = n + m`` (the root's height)."""
        return self.bdd.num_vars

    def height_of_level(self, level: int) -> int:
        """Convert a manager level to the paper's height coordinate."""
        return self.num_vars - level

    def level_of_height(self, height: int) -> int:
        """Convert a height to a manager level."""
        return self.num_vars - height

    def num_nodes(self) -> int:
        """Non-terminal node count (the paper's '# of nodes')."""
        return self.bdd.count_nodes(self.root)

    def precedence_constraints(self) -> list[tuple[int, int]]:
        """Ordering constraints (x above y_i) implied by Definition 2.4.

        Uses the per-output supports recorded at construction,
        intersected with the current structural support of the root —
        a variable removed by support reduction no longer constrains
        the order.
        """
        live = self.bdd.support(self.root)
        pairs: list[tuple[int, int]] = []
        for y in self.output_vids:
            for x in self.output_supports.get(y, frozenset()):
                if x in live:
                    pairs.append((x, y))
        return pairs

    def sift(
        self,
        *,
        cost: str = "auto",
        max_rounds: int = 1,
        freeze_outputs: bool = False,
        protect: Sequence[int] = (),
    ) -> None:
        """Sift the variable order (Sect. 5.1) under Def. 2.4 constraints.

        ``cost`` selects the objective: ``"widthsum"`` (the paper's sum
        of widths), ``"nodes"`` (live node count), or ``"auto"`` which
        uses the width sum when the BDD is small enough
        (``LIMITS.sift_widthsum_node_limit``) and node count otherwise.

        ``freeze_outputs=True`` additionally fixes the relative order of
        every (input, output) pair: inputs may permute among themselves
        and outputs among themselves, but none may cross an output
        level.  Use this when re-sifting a CF that has already been
        refined by width reduction — a refined value may depend on
        variables below its output's current level, and preserving the
        quantifier interleaving keeps the linear totality check exact.

        Reordering physically reclaims nodes unreachable from the sift
        roots; pass any *other* BDD roots you still hold on this
        manager via ``protect``.
        """
        if cost == "auto":
            cost = (
                "widthsum"
                if self.num_nodes() <= LIMITS.sift_widthsum_node_limit
                else "nodes"
            )
        cost_fn = None
        if cost == "widthsum":
            cost_fn = reorder.width_sum_cost
        elif cost != "nodes":
            raise ValueError(f"unknown cost {cost!r}")
        precedence = self.precedence_constraints()
        if freeze_outputs:
            for y in self.output_vids:
                y_level = self.bdd.level_of_vid(y)
                for x in self.input_vids:
                    if self.bdd.level_of_vid(x) < y_level:
                        precedence.append((x, y))
                    else:
                        precedence.append((y, x))
        reorder.sift(
            self.bdd,
            [self.root, *protect],
            precedence=precedence,
            cost_fn=cost_fn,
            max_rounds=max_rounds,
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, input_bits: Sequence[int], output_bits: Sequence[int]) -> int:
        """χ(X, Y) for a full input/output assignment."""
        assignment = dict(zip(self.input_vids, input_bits))
        assignment.update(zip(self.output_vids, output_bits))
        return self.bdd.evaluate(self.root, assignment)

    def output_pattern(self, minterm_or_bits: int | Sequence[int]) -> tuple[int | None, ...]:
        """Ternary output vector encoded for one input assignment.

        For a well-formed CF the restriction of χ to an input assignment
        is a single chain over output variables: a missing variable
        means *don't care* (None), a present one is determined.
        """
        bits = self._input_bits(minterm_or_bits)
        restricted = self.bdd.restrict(
            self.root, dict(zip(self.input_vids, bits))
        )
        values: dict[int, int | None] = {y: None for y in self.output_vids}
        u = restricted
        while u > 1:
            y = self.bdd.var_of(u)
            lo, hi = self.bdd.lo(u), self.bdd.hi(u)
            if lo == FALSE and hi != FALSE:
                values[y] = 1
                u = hi
            elif hi == FALSE and lo != FALSE:
                values[y] = 0
                u = lo
            else:
                raise SpecificationError(
                    "CF is not well-formed: output variable with two live children"
                )
        if u == FALSE:
            raise SpecificationError("CF is not total: no output allowed for input")
        return tuple(values[y] for y in self.output_vids)

    def sample_output(self, minterm_or_bits: int | Sequence[int]) -> tuple[int, ...]:
        """One allowed output vector for an input assignment.

        Width reduction can turn the CF into a general total relation
        (the choice for one output may constrain another), so a single
        ternary pattern need not exist; this walks the restricted BDD
        committing each output variable to a branch with a satisfiable
        continuation (0 preferred).  On care inputs every specified
        output bit is forced, so the sample agrees with the original
        specification there.
        """
        bits = self._input_bits(minterm_or_bits)
        restricted = self.bdd.restrict(self.root, dict(zip(self.input_vids, bits)))
        if restricted == FALSE:
            raise SpecificationError("CF is not total: no output allowed for input")
        values = {y: 0 for y in self.output_vids}
        u = restricted
        while u > 1:
            y = self.bdd.var_of(u)
            lo, hi = self.bdd.lo(u), self.bdd.hi(u)
            if lo != FALSE:
                values[y] = 0
                u = lo
            else:
                values[y] = 1
                u = hi
        return tuple(values[y] for y in self.output_vids)

    def is_wellformed(self) -> bool:
        """Validity check of the CF: non-empty and total.

        Totality (every input admits at least one output vector) is the
        defining invariant; with Definition 2.4 placement it is decided
        exactly by the ordered recursion of
        :func:`repro.isf.compat.ordered_total`.  Output nodes may have
        two live children when the input-don't-care region depends on
        variables below them; a full input assignment always resolves
        the choice (see :meth:`output_pattern`).
        """
        return self.root != FALSE and ordered_total(self.bdd, self.root)

    def is_strictly_determined(self) -> bool:
        """Stricter shape check: every output node has a constant-0 child.

        Holds when every output variable sits below the *entire*
        structural support of its function (e.g. the Table 1 example);
        functions with input don't cares placed by care-value hints are
        well-formed but not strictly determined.
        """
        if self.root == FALSE:
            return False
        bdd = self.bdd
        output_set = set(self.output_vids)
        ok: dict[int, bool] = {TRUE: True}

        def walk(u: int) -> bool:
            r = ok.get(u)
            if r is not None:
                return r
            lo, hi = bdd.lo(u), bdd.hi(u)
            if bdd.var_of(u) in output_set:
                if (lo == FALSE) == (hi == FALSE):
                    r = False
                else:
                    r = walk(hi if lo == FALSE else lo)
            else:
                r = lo != FALSE and hi != FALSE and walk(lo) and walk(hi)
            ok[u] = r
            return r

        return walk(self.root)

    def _input_bits(self, minterm_or_bits: int | Sequence[int]) -> list[int]:
        n = len(self.input_vids)
        if isinstance(minterm_or_bits, int):
            return [(minterm_or_bits >> (n - 1 - i)) & 1 for i in range(n)]
        bits = list(minterm_or_bits)
        if len(bits) != n:
            raise SpecificationError(f"expected {n} input bits, got {len(bits)}")
        return bits

    def refines(self, other: "CharFunction") -> bool:
        """True when every behaviour allowed by self is allowed by ``other``.

        Width reduction assigns don't cares, so the reduced CF must
        *imply* the original: χ_reduced → χ_original.
        """
        if self.bdd is not other.bdd:
            raise SpecificationError("refines() requires CFs on one manager")
        return self.bdd.implies(self.root, other.root)
