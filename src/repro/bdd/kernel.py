"""The iterative apply kernel and its tiered operation caches.

Every Boolean/quantifier operation of :class:`repro.bdd.manager.BDD`
(``apply_and/or/xor/not``, ``ite``, ``cofactor``, ``compose``,
``exists``, ``forall``) is evaluated by one explicit-stack evaluator,
:func:`run`, driven by the operator table :data:`OPS`.  Design goals,
in the style of mature BDD packages (CUDD/ABC):

* **No recursion.**  The evaluator keeps its own frame stack, so an
  operation over a 10,000-variable chain costs 10,000 loop iterations,
  not 10,000 Python frames — the word-list/scaling workloads push
  variable counts past Python's ~1000-frame recursion ceiling.
* **One kernel, many operators.**  The operator table carries the
  terminal rules and operand normalization (commutative operand
  sorting so ``AND(f, g)`` and ``AND(g, f)`` share one cache line, and
  ITE standard-triple reduction: ``ite(f,g,g)=g``, ``ite(f,1,h)=f∨h``,
  ``ite(f,g,0)=f∧g``, ``ite(f,g,f)=f∧g``, ``ite(f,f,h)=f∨h``,
  ``ite(f,0,1)=¬f`` — delegations land in the AND/OR/NOT tiers where
  they share entries with direct calls).
* **Packed computed tables.**  Each operator owns a
  :class:`~repro.bdd.hashtable.PackedCache`: operand ids packed into
  one integer key, entries in flat parallel lists, two-slot probing
  with overwrite eviction (a computed table may forget, never lie).
  No tuple is allocated on the probe path.  Named analysis tiers
  (tot/compat/gcf) keep the dict-backed :class:`OpCache`.
* **Selective invalidation.**  Cache entries are *generation-stamped*:
  every value records, for each node id it references, the node's
  generation counter at insert time.  Reordering swaps and garbage
  collection never clear the tables wholesale — freeing a node bumps
  its generation, which lazily invalidates exactly the entries
  touching it, while every surviving entry keeps serving hits because
  in-place reordering preserves the function denoted by a node id.

The kernel reads the manager's parallel arrays directly; it lives in
its own module so the manager file stays the API surface.
"""

from __future__ import annotations

from itertools import islice

from repro.bdd import governor as _governor
from repro.bdd.hashtable import (
    KIND_BINARY,
    KIND_COFACTOR,
    KIND_COMPOSE,
    KIND_ITE,
    KIND_NOT,
    KIND_QUANT,
    PackedCache,
)

_GOVERNED = _governor._ACTIVE  # the live budget stack (empty = ungoverned)
_CHECK_MASK = _governor.CHECK_INTERVAL - 1

#: Knuth multiplicative-hash constant (kept in sync with hashtable.py;
#: the probe sequences are inlined here on the hot path).
_MULT = 2654435761

#: Level assigned to terminal nodes: below every variable.
TERMINAL_LEVEL = 1 << 30

FALSE = 0
TRUE = 1

# Opcodes (dense ints: they index the operator and tier tables).
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_NOT = 3
OP_ITE = 4
OP_COFACTOR = 5
OP_COMPOSE = 6
OP_EXISTS = 7
OP_FORALL = 8

N_OPS = 9


class OpCache:
    """One dict-backed computed table: a bounded dict plus counters.

    The kernel opcodes use :class:`~repro.bdd.hashtable.PackedCache`
    instead; this class remains the container for the *named* analysis
    tiers (``tot``/``compat``/``gcf``), whose keys are small and whose
    probe volume is far below the kernel's.  Values are tuples
    ``(result, gen(node_1), ..., gen(node_k), gen(result))`` where
    ``node_1..k`` are the node-valued operands of the key;
    ``validator`` re-checks those generations (and, for
    order-sensitive tiers, the manager's reorder epoch) so stale
    entries read as misses.  Eviction is FIFO in batches of a quarter
    of the capacity — cheap, and old entries are exactly the ones
    least likely to be revisited by the sweep-style algorithms here.
    """

    __slots__ = (
        "name",
        "capacity",
        "data",
        "validator",
        "hits",
        "misses",
        "inserts",
        "evictions",
        "invalidations",
    )

    def __init__(self, name: str, capacity: int, validator=None):
        self.name = name
        self.capacity = capacity
        self.data: dict = {}
        self.validator = validator
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.invalidations = 0

    def insert(self, key, value) -> None:
        """Insert an entry, evicting the oldest quarter when full."""
        data = self.data
        data[key] = value
        self.inserts += 1
        if len(data) > self.capacity:
            drop = max(1, self.capacity >> 2)
            for stale in list(islice(iter(data), drop)):
                del data[stale]
            self.evictions += drop

    def purge(self, gen: list, epoch: int) -> int:
        """Eagerly drop entries that fail validation; keep the rest.

        Used by ``BDD.collect()`` so surviving entries keep serving
        hits while entries touching swept nodes stop occupying memory.
        Returns the number of entries dropped.
        """
        validator = self.validator
        data = self.data
        if validator is None:
            dropped = len(data)
            data.clear()
        else:
            dead = [k for k, v in data.items() if not validator(k, v, gen, epoch)]
            for k in dead:
                del data[k]
            dropped = len(dead)
        self.invalidations += dropped
        return dropped

    def entries(self):
        """Yield ``(key, value)`` pairs (audit-layer protocol)."""
        yield from self.data.items()

    def clear(self) -> None:
        self.invalidations += len(self.data)
        self.data.clear()

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "size": len(self.data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


# ----------------------------------------------------------------------
# Operator table: terminal rules and normalization
# ----------------------------------------------------------------------
#
# A terminal rule returns an int (the resolved result), a tuple
# ``(op, a, b, c)`` (delegate to another operator after
# normalization), or None (expand by cofactoring).  Operand sorting
# for the commutative operators is applied by the evaluator *after*
# the terminal rule, so the rules see the caller's operand order.


def _term_and(bdd, f, g, _c):
    if f == FALSE or g == FALSE:
        return FALSE
    if f == TRUE:
        return g
    if g == TRUE or f == g:
        return f
    return None


def _term_or(bdd, f, g, _c):
    if f == TRUE or g == TRUE:
        return TRUE
    if f == FALSE:
        return g
    if g == FALSE or f == g:
        return f
    return None


def _term_xor(bdd, f, g, _c):
    if f == g:
        return FALSE
    if f == FALSE:
        return g
    if g == FALSE:
        return f
    if f == TRUE:
        return (OP_NOT, g, -1, -1)
    if g == TRUE:
        return (OP_NOT, f, -1, -1)
    return None


def _term_not(bdd, f, _g, _c):
    if f <= 1:
        return 1 - f
    return None


def _term_ite(bdd, f, g, h):
    if f == TRUE:
        return g
    if f == FALSE:
        return h
    if g == h:
        return g
    if g == TRUE and h == FALSE:
        return f
    if g == FALSE and h == TRUE:
        return (OP_NOT, f, -1, -1)
    # Standard-triple reductions: route through the 2-operand tiers.
    if g == TRUE or f == g:
        return (OP_OR, f, h, -1)
    if h == FALSE or f == h:
        return (OP_AND, f, g, -1)
    return None


def _term_cofactor(bdd, f, vid, _value):
    if f <= 1:
        return f
    if bdd._level_of[bdd._vid[f]] > bdd._level_of[vid]:
        return f  # f does not depend on vid
    return None


def _term_compose(bdd, f, vid, _g):
    if f <= 1:
        return f
    if bdd._level_of[bdd._vid[f]] > bdd._level_of[vid]:
        return f
    return None


def _term_quant(bdd, f, _gid, _c):
    if f <= 1:
        return f
    return None


# Generation validators: the audit layer (repro.bdd.check) re-checks
# entries yielded by ``tier.entries()`` against these, in the legacy
# unpacked form (see PackedCache.entries).


def _v_binary(key, v, gen, _epoch):
    return gen[key[0]] == v[1] and gen[key[1]] == v[2] and gen[v[0]] == v[3]


def _v_unary(key, v, gen, _epoch):
    return gen[key] == v[1] and gen[v[0]] == v[2]


def _v_ite(key, v, gen, _epoch):
    return (
        gen[key[0]] == v[1]
        and gen[key[1]] == v[2]
        and gen[key[2]] == v[3]
        and gen[v[0]] == v[4]
    )


def _v_cofactor(key, v, gen, _epoch):
    return gen[key[0]] == v[1] and gen[v[0]] == v[2]


def _v_compose(key, v, gen, _epoch):
    return gen[key[0]] == v[1] and gen[key[2]] == v[2] and gen[v[0]] == v[3]


def _v_quant(key, v, gen, _epoch):
    return gen[key[0]] == v[1] and gen[v[0]] == v[2]


def validator_epoch_bool(key_nodes: int):
    """Validator factory for epoch-tagged predicate tiers (e.g. ``tot``).

    Entries are ``(value, epoch, gen(node_1), ..., gen(node_k))`` with
    ``key_nodes`` node ids in the key (the whole key when 1, else a
    tuple prefix).  Used by order-*sensitive* results — totality and
    generalized cofactors — which must additionally die on any reorder.
    """

    def validate(key, v, gen, epoch):
        if v[1] != epoch:
            return False
        if key_nodes == 1:
            return gen[key] == v[2]
        for i in range(key_nodes):
            if gen[key[i]] != v[2 + i]:
                return False
        return True

    return validate


def validator_epoch_bool_packed(key_nodes: int):
    """Like :func:`validator_epoch_bool` for packed-int keys.

    The ``tot``/``compat`` tiers pack their node operands with
    :func:`repro.bdd.hashtable.pack2` to skip tuple allocation on the
    pairwise sweeps; this validator unpacks the 32-bit fields inline.
    """

    if key_nodes == 1:
        return validator_epoch_bool(1)

    def validate(key, v, gen, epoch):
        if v[1] != epoch:
            return False
        return gen[key >> 32] == v[2] and gen[key & 0xFFFFFFFF] == v[3]

    return validate


class OpSpec:
    """One operator-table row: metadata driving the evaluator."""

    __slots__ = (
        "code",
        "name",
        "symbol",
        "arity",
        "commutative",
        "terminal",
        "validator",
        "kind",
    )

    def __init__(self, code, name, symbol, arity, commutative, terminal, validator, kind):
        self.code = code
        self.name = name
        self.symbol = symbol
        self.arity = arity
        self.commutative = commutative
        self.terminal = terminal
        self.validator = validator
        self.kind = kind


#: The operator table, indexed by opcode.
OPS: tuple[OpSpec, ...] = (
    OpSpec(OP_AND, "and", "&", 2, True, _term_and, _v_binary, KIND_BINARY),
    OpSpec(OP_OR, "or", "|", 2, True, _term_or, _v_binary, KIND_BINARY),
    OpSpec(OP_XOR, "xor", "^", 2, True, _term_xor, _v_binary, KIND_BINARY),
    OpSpec(OP_NOT, "not", "~", 1, False, _term_not, _v_unary, KIND_NOT),
    OpSpec(OP_ITE, "ite", "?", 3, False, _term_ite, _v_ite, KIND_ITE),
    OpSpec(OP_COFACTOR, "cofactor", "co", 3, False, _term_cofactor, _v_cofactor, KIND_COFACTOR),
    OpSpec(OP_COMPOSE, "compose", "cmp", 3, False, _term_compose, _v_compose, KIND_COMPOSE),
    OpSpec(OP_EXISTS, "exists", "ex", 2, False, _term_quant, _v_quant, KIND_QUANT),
    OpSpec(OP_FORALL, "forall", "fa", 2, False, _term_quant, _v_quant, KIND_QUANT),
)

_TERMINAL = tuple(spec.terminal for spec in OPS)
_COMMUTATIVE = tuple(spec.commutative for spec in OPS)


def make_kernel_tiers(capacity: int) -> tuple[PackedCache, ...]:
    """Fresh per-operator computed tables, indexed by opcode."""
    return tuple(
        PackedCache(spec.name, capacity, spec.kind, spec.validator) for spec in OPS
    )


# Frame tags for the explicit evaluation stack.
_VISIT = 0  # (0, op, a, b, c)                 evaluate, push result
_COMBINE = 1  # (1, op, key, vid, a, b, c)     pop hi/lo, mk, cache, push
_STORE = 2  # (2, op, key, n1, n2)             cache the result on top
_QUANT = 3  # (3, op, key, a, vid, quantified) pop hi/lo; OR/AND or mk
_SUBST = 4  # (4, key, a, g, var_node)         pop hi/lo; ITE(var, hi, lo)


def run(bdd, op: int, a: int, b: int = -1, c: int = -1) -> int:
    """Evaluate ``op`` over the operands with an explicit stack.

    The work stack holds frames (tagged tuples); ``out`` is the result
    stack.  A visit frame either resolves via the operator table's
    terminal rule, hits its tier, or pushes a combine frame plus the
    two cofactor visits.  Quantification and composition combine
    through delegated OR/AND/ITE visits followed by a store frame, so
    the whole evaluation — including the nested products — stays on
    this one stack.  Each visit is one kernel step.

    When a :mod:`repro.bdd.governor` budget is active, the loop runs a
    checkpoint every :data:`~repro.bdd.governor.CHECK_INTERVAL` steps
    (once on entry, and the sub-interval remainder is charged on exit
    so budgets accumulate across many short runs).  A budget violation
    raises between iterations: the partial frames are discarded, every
    node and cache entry created so far is valid, and the charged steps
    still land in ``_kernel_steps`` — the manager stays consistent and
    usable.
    """
    vid_arr = bdd._vid
    lo_arr = bdd._lo
    hi_arr = bdd._hi
    level_of = bdd._level_of
    var_at_level = bdd._var_at_level
    gen = bdd._gen
    groups = bdd._groups
    tiers = bdd._kernel_tiers
    mk = bdd.mk
    terminal_rules = _TERMINAL
    commutative = _COMMUTATIVE

    out: list[int] = []
    work: list[tuple] = [(_VISIT, op, a, b, c)]
    push = work.append
    pop = work.pop
    steps = 0
    governed = _GOVERNED
    if governed:
        _governor.checkpoint(bdd)

    try:
        while work:
            frame = pop()
            tag = frame[0]

            if tag == _VISIT:
                steps += 1
                if governed and not steps & _CHECK_MASK:
                    _governor.checkpoint(bdd, _CHECK_MASK + 1)
                op = frame[1]
                a = frame[2]
                b = frame[3]
                c = frame[4]
                t = terminal_rules[op](bdd, a, b, c)
                if t is not None:
                    if type(t) is int:
                        out.append(t)
                    else:  # normalized delegation (op2, a2, b2, c2)
                        push((_VISIT,) + t)
                    continue
                if commutative[op] and a > b:
                    a, b = b, a
                cache = tiers[op]

                if op <= OP_XOR:
                    key = (a << 32) | b
                    i = ((key ^ (key >> 30) ^ (key >> 59)) * _MULT) & cache.mask
                    ck = cache.keys
                    if ck[i] != key:
                        i ^= 1
                    if ck[i] == key:
                        r = cache.res[i]
                        if (
                            gen[a] == cache.s1[i]
                            and gen[b] == cache.s2[i]
                            and gen[r] == cache.s3[i]
                        ):
                            cache.hits += 1
                            out.append(r)
                            continue
                    cache.misses += 1
                    la = level_of[vid_arr[a]]
                    lb = level_of[vid_arr[b]]
                    if la <= lb:
                        vid = vid_arr[a]
                        a0 = lo_arr[a]
                        a1 = hi_arr[a]
                    else:
                        vid = vid_arr[b]
                        a0 = a1 = a
                    if lb <= la:
                        b0 = lo_arr[b]
                        b1 = hi_arr[b]
                    else:
                        b0 = b1 = b
                    push((_COMBINE, op, key, vid, a, b, -1))
                    push((_VISIT, op, a1, b1, -1))
                    push((_VISIT, op, a0, b0, -1))

                elif op == OP_NOT:
                    i = ((a ^ (a >> 30) ^ (a >> 59)) * _MULT) & cache.mask
                    ck = cache.keys
                    if ck[i] != a:
                        i ^= 1
                    if ck[i] == a:
                        r = cache.res[i]
                        if gen[a] == cache.s1[i] and gen[r] == cache.s2[i]:
                            cache.hits += 1
                            out.append(r)
                            continue
                    cache.misses += 1
                    push((_COMBINE, op, a, vid_arr[a], a, -1, -1))
                    push((_VISIT, op, hi_arr[a], -1, -1))
                    push((_VISIT, op, lo_arr[a], -1, -1))

                elif op == OP_ITE:
                    key = (a << 64) | (b << 32) | c
                    v = cache.get_n3(key, a, b, c, gen)
                    if v >= 0:
                        out.append(v)
                        continue
                    la = level_of[vid_arr[a]]  # f is internal past the terminal rule
                    lb = TERMINAL_LEVEL if b <= 1 else level_of[vid_arr[b]]
                    lc = TERMINAL_LEVEL if c <= 1 else level_of[vid_arr[c]]
                    top = la if la <= lb else lb
                    if lc < top:
                        top = lc
                    vid = var_at_level[top]
                    if vid_arr[a] == vid:
                        a0, a1 = lo_arr[a], hi_arr[a]
                    else:
                        a0 = a1 = a
                    if b > 1 and vid_arr[b] == vid:
                        b0, b1 = lo_arr[b], hi_arr[b]
                    else:
                        b0 = b1 = b
                    if c > 1 and vid_arr[c] == vid:
                        c0, c1 = lo_arr[c], hi_arr[c]
                    else:
                        c0 = c1 = c
                    push((_COMBINE, op, key, vid, a, b, c))
                    push((_VISIT, op, a1, b1, c1))
                    push((_VISIT, op, a0, b0, c0))

                elif op == OP_COFACTOR:
                    key = (a << 64) | (b << 32) | c
                    v = cache.get_n1(key, a, gen)
                    if v >= 0:
                        out.append(v)
                        continue
                    if level_of[vid_arr[a]] == level_of[b]:
                        r = hi_arr[a] if c else lo_arr[a]
                        cache.put_n1(key, a, r, gen)
                        out.append(r)
                    else:
                        push((_COMBINE, op, key, vid_arr[a], a, -1, -1))
                        push((_VISIT, op, hi_arr[a], b, c))
                        push((_VISIT, op, lo_arr[a], b, c))

                elif op == OP_COMPOSE:
                    key = (a << 64) | (b << 32) | c
                    v = cache.get_n2(key, a, c, gen)
                    if v >= 0:
                        out.append(v)
                        continue
                    if level_of[vid_arr[a]] == level_of[b]:
                        push((_STORE, op, key, a, c))
                        push((_VISIT, OP_ITE, c, hi_arr[a], lo_arr[a]))
                    else:
                        var_node = mk(vid_arr[a], FALSE, TRUE)
                        push((_SUBST, key, a, c, var_node))
                        push((_VISIT, op, hi_arr[a], b, c))
                        push((_VISIT, op, lo_arr[a], b, c))

                else:  # OP_EXISTS / OP_FORALL
                    key = (a << 32) | b
                    v = cache.get_n1(key, a, gen)
                    if v >= 0:
                        out.append(v)
                        continue
                    vid = vid_arr[a]
                    push((_QUANT, op, key, a, vid, vid in groups[b]))
                    push((_VISIT, op, hi_arr[a], b, -1))
                    push((_VISIT, op, lo_arr[a], b, -1))

            elif tag == _COMBINE:
                op = frame[1]
                hi_r = out.pop()
                lo_r = out.pop()
                r = mk(frame[3], lo_r, hi_r)
                cache = tiers[op]
                key = frame[2]
                if op <= OP_XOR:
                    cache.put_n2(key, frame[4], frame[5], r, gen)
                elif op == OP_NOT:
                    cache.put_n1(key, key, r, gen)
                    # Complement is an involution; prime the reverse entry.
                    cache.put_n1(r, r, key, gen)
                elif op == OP_ITE:
                    cache.put_n3(key, frame[4], frame[5], frame[6], r, gen)
                else:  # OP_COFACTOR
                    cache.put_n1(key, frame[4], r, gen)
                out.append(r)

            elif tag == _STORE:
                op = frame[1]
                r = out[-1]
                if frame[4] < 0:  # quantifier result: stamp the operand
                    tiers[op].put_n1(frame[2], frame[3], r, gen)
                else:  # compose result: stamp f and g
                    tiers[op].put_n2(frame[2], frame[3], frame[4], r, gen)

            elif tag == _QUANT:
                op = frame[1]
                hi_r = out.pop()
                lo_r = out.pop()
                if frame[5]:  # quantified level: OR/AND the cofactor results
                    push((_STORE, op, frame[2], frame[3], -1))
                    push(
                        (
                            _VISIT,
                            OP_OR if op == OP_EXISTS else OP_AND,
                            lo_r,
                            hi_r,
                            -1,
                        )
                    )
                else:
                    r = mk(frame[4], lo_r, hi_r)
                    tiers[op].put_n1(frame[2], frame[3], r, gen)
                    out.append(r)

            else:  # _SUBST: compose's upper-level rebuild through ITE
                hi_r = out.pop()
                lo_r = out.pop()
                push((_STORE, OP_COMPOSE, frame[1], frame[2], frame[3]))
                push((_VISIT, OP_ITE, frame[4], hi_r, lo_r))

        # Charge the sub-interval remainder so short runs still count:
        # step budgets must accumulate across many small applies, not
        # only within one long one.
        if governed and steps & _CHECK_MASK:
            _governor.checkpoint(bdd, steps & _CHECK_MASK)
    finally:
        bdd._kernel_steps += steps
    return out[-1]
