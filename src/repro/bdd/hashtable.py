"""Open-addressed hash tables over packed integer keys.

The seed engine kept its hot lookup structures in Python dicts keyed by
tuples: per-variable unique tables ``{(lo, hi): node}`` and computed
tables ``{(f, g): (result, gen...)}``.  Every probe then allocates a
key tuple and hashes it field by field, and every stored entry carries
a value tuple — allocation and pointer chasing on the two hottest
paths of the engine (``mk`` and the kernel cache probes).

This module replaces the tuple keys with *packed* integer keys:

* :class:`UniqueTable` — one per variable, mapping the packed child
  pair ``(lo << 32) | hi`` to the node id.  Backed by a plain dict
  over the packed keys: an open-addressed linear-probing variant
  (flat key/value lists, tombstone deletion, power-of-two rehash) was
  implemented and profiled here first and *lost* to the dict on every
  hot path — mk probes, swap-phase discard/insert, value iteration —
  because CPython's dict runs its probe loop in C while a Python-level
  probe loop pays bytecode dispatch per step.  The measured win lives
  in the packed key (no tuple allocation per probe, one int hash), so
  the class keeps the packed-key API and lets the dict do the hashing.
  Hot callers (``BDD.mk``, the reorder swap) reach through ``.data``
  directly.
* :class:`PackedCache` — one per kernel opcode: a *lossy* computed
  table in the CUDD style, and genuinely open-addressed.  Keys pack
  the operand ids into one int, values live in parallel flat lists
  (result plus up to four generation stamps), and collisions past the
  two-slot probe window overwrite the resident entry (an eviction)
  instead of chaining — a computed table may forget entries, never
  lie.  Unlike the unique tables, a dict cannot express this policy:
  the bounded slot array is what caps memory without any eviction
  bookkeeping, and the inline two-slot probe (see the kernel and the
  ``BDD.apply_*`` wrappers) is branch-predictable in a way a
  dict-plus-LRU structure is not.  Generation-stamped selective
  invalidation is preserved exactly: every entry records the
  generation of each node it references, and a stamp mismatch reads
  as a miss.

Packing uses 32-bit fields, which bounds node ids at ``2**32 - 2`` —
five orders of magnitude above anything the pure-Python engine can
hold in memory.  Three-operand keys pack into 96 bits; CPython ints
hash and compare those at the same speed as machine words.

Both classes expose ``stats()``/``entries()``/``purge()`` so
``BDD.cache_stats()``, ``BDD.collect()`` and :mod:`repro.bdd.check`
see the same counters and invariants as with the dict-backed tables.
"""

from __future__ import annotations

from repro.errors import CapacityError

__all__ = [
    "MAX_NODE_ID",
    "UniqueTable",
    "PackedCache",
    "check_capacity",
    "pack2",
    "pack3",
    "unpack2",
    "unpack3",
]

#: Largest node id a packed 32-bit key field can carry.  Ids 0/1 are
#: the constants and ``2**32 - 1`` is reserved (it would alias the
#: ``_EMPTY`` slot marker after masking), so allocation must stop at
#: ``2**32 - 2``.
MAX_NODE_ID = (1 << 32) - 2

#: Multiplier of the slot index: the 32-bit golden-ratio constant
#: ``2**32 / phi`` repeated in both halves of a 64-bit word.
#:
#: The slot of a key with ``2**k`` slots is the top ``k`` bits of a
#: 64-bit product, ``((key ^ key >> 64) * _MULT & _M64) >> (64 - k)``
#: (Fibonacci hashing).  It must not be the *low* ``k`` bits: those
#: depend only on the low ``k`` bits of the key, whatever the fold.  An
#: aligned fold then makes ``pack2(a, b)`` depend on ``a ^ b`` alone
#: (sibling pairs collide), and any fold leaves fields that are fixed
#: within one call in the low bits: a cofactor key ``pack3(a, vid,
#: bit)`` folded at shifts 30/59 has low bits ``bit ^ vid << 2 ^ a <<
#: 5``, so one cofactor reached 32 of 1024 slots, never grew the table
#: and evicted its own entries (DESIGN §10).  High product bits depend
#: on every bit of the folded key.  The fold ``key ^ key >> 64`` brings
#: the operand of a three-field key into the low 64 bits; a field
#: packed at bit 32 enters the top bits multiplied by ``_MULT mod
#: 2**32``, hence the repeated half.
_MULT = 0x9E3779B99E3779B9
_M64 = (1 << 64) - 1

_EMPTY = -1


def check_capacity(next_id: int) -> None:
    """Refuse to allocate a node id the packed keys cannot represent.

    Called by ``BDD.mk`` before growing the node arrays; one integer
    compare on the (rare) fresh-allocation branch.  Raising here — at
    the 2³² boundary — replaces the former behaviour of silently
    packing a 33-bit id into a 32-bit field and colliding with an
    unrelated node.
    """
    if next_id > MAX_NODE_ID:
        raise CapacityError(
            f"node-id space exhausted: cannot allocate id {next_id} "
            f"(packed 32-bit keys bound ids at {MAX_NODE_ID})",
            limit=MAX_NODE_ID,
        )


def pack2(a: int, b: int) -> int:
    """Pack two 32-bit fields into one integer key.

    Fields must already be in range (node ids are guarded at
    allocation by :func:`check_capacity`); packing itself stays a
    two-op expression so the hot paths can afford it.
    """
    return (a << 32) | b


def pack3(a: int, b: int, c: int) -> int:
    """Pack three 32-bit fields into one integer key."""
    return (a << 64) | (b << 32) | c


def unpack2(key: int) -> tuple[int, int]:
    """Inverse of :func:`pack2`."""
    return key >> 32, key & 0xFFFFFFFF


def unpack3(key: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack3`."""
    return key >> 64, (key >> 32) & 0xFFFFFFFF, key & 0xFFFFFFFF


class UniqueTable:
    """``packed(lo, hi) -> node`` map for one variable.

    A thin wrapper over a dict keyed by packed child pairs (see the
    module docstring for why the probing is delegated to the dict).
    ``lookup``/``insert``/``discard`` keep the packed-int protocol the
    engine internals speak; hot loops bypass even that and use
    :attr:`data` directly (``data.get``/``data.pop`` are single
    C-level calls with no Python frame).
    """

    __slots__ = ("data",)

    def __init__(self, capacity: int = 8):
        self.data: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.data)

    def lookup(self, key: int) -> int:
        """Node stored under ``key``, or -1."""
        return self.data.get(key, -1)

    def insert(self, key: int, val: int) -> None:
        """Store ``key -> val``; the key must not be present."""
        self.data[key] = val

    def discard(self, key: int) -> int:
        """Remove ``key``; returns the stored node or -1 if absent."""
        return self.data.pop(key, -1)

    # -- iteration (audits, GC, reordering) ---------------------------

    def iter_packed(self):
        """Yield ``(packed_key, node)`` pairs."""
        yield from self.data.items()

    def items(self):
        """Yield ``((lo, hi), node)`` pairs (dict-compatible view)."""
        for k, u in self.data.items():
            yield (k >> 32, k & 0xFFFFFFFF), u

    def values(self):
        """The stored node ids (a live dict view — iterates in C)."""
        return self.data.values()

    def get(self, child_pair: tuple[int, int]) -> int | None:
        """Dict-compatible lookup by ``(lo, hi)`` tuple (audits/tests)."""
        return self.data.get((child_pair[0] << 32) | child_pair[1])


# Key/stamp layouts of the kernel computed tables (see
# :data:`repro.bdd.kernel.OPS`).  ``node_fields`` lists which unpacked
# key fields are node ids — those are the generation-stamped operands,
# in stamp order; the result's generation is always the last stamp.
KIND_BINARY = 0  # key pack2(a, b);    stamps gen[a], gen[b], gen[r]
KIND_NOT = 1  # key a;             stamps gen[a], gen[r]
KIND_ITE = 2  # key pack3(a, b, c); stamps gen[a], gen[b], gen[c], gen[r]
KIND_COFACTOR = 3  # key pack3(a, vid, bit); stamps gen[a], gen[r]
KIND_COMPOSE = 4  # key pack3(a, vid, g);   stamps gen[a], gen[g], gen[r]
KIND_QUANT = 5  # key pack2(a, gid);  stamps gen[a], gen[r]

_KIND_SPECS = {
    KIND_BINARY: (2, (0, 1)),
    KIND_NOT: (1, (0,)),
    KIND_ITE: (3, (0, 1, 2)),
    KIND_COFACTOR: (3, (0,)),
    KIND_COMPOSE: (3, (0, 2)),
    KIND_QUANT: (2, (0,)),
}


class PackedCache:
    """Lossy computed table: packed keys, flat value lists, 2-slot probes.

    ``capacity`` bounds the live entry count.  The table starts small
    and doubles (batched rehash) until it reaches the capacity, after
    which an insert whose two candidate slots are both occupied
    overwrites one — counted as an eviction.  Lookups and inserts go
    through the ``get_n1/2/3`` / ``put_n1/2/3`` methods, specialized by
    how many node operands carry generation stamps; ``kind`` records
    the key layout for :meth:`purge` and :meth:`entries`.  Only the
    stamp lists the kind uses are allocated (the others stay ``None``).

    The slot of ``key`` is ``((key ^ key >> 64) * _MULT & _M64) >>
    shift``; the kernel and the ``BDD`` wrappers inline the same
    expression (see :data:`_MULT`).
    """

    __slots__ = (
        "name",
        "capacity",
        "kind",
        "validator",
        "mask",
        "shift",
        "keys",
        "res",
        "s1",
        "s2",
        "s3",
        "s4",
        "size",
        "hits",
        "misses",
        "inserts",
        "evictions",
        "invalidations",
    )

    def __init__(self, name: str, capacity: int, kind: int, validator=None):
        cap = 8
        while cap < capacity:
            cap <<= 1
        self.name = name
        self.capacity = cap
        self.kind = kind
        self.validator = validator
        self.size = 0
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.invalidations = 0
        self._allocate(min(cap, 1 << 10))

    def _allocate(self, slots: int) -> None:
        """Fresh empty slot arrays: keys, results and the kind's stamps."""
        self.mask = slots - 1
        self.shift = 65 - slots.bit_length()
        self.keys = [_EMPTY] * slots
        self.res = [0] * slots
        n_stamps = len(_KIND_SPECS[self.kind][1]) + 1
        self.s1, self.s2, self.s3, self.s4 = (
            [0] * slots if j < n_stamps else None for j in range(4)
        )

    def _value_lists(self) -> list[list]:
        """The result list and the allocated stamp lists, in order."""
        lists = (self.res, self.s1, self.s2, self.s3, self.s4)
        return [lst for lst in lists if lst is not None]

    # -- probes (one method call per lookup; no tuples anywhere) -------

    def get_n1(self, key: int, n1: int, gen: list) -> int:
        """Probe an entry stamped on one operand node; -1 on miss."""
        i = ((key ^ key >> 64) * _MULT & _M64) >> self.shift
        keys = self.keys
        if keys[i] != key:
            i ^= 1
            if keys[i] != key:
                self.misses += 1
                return -1
        r = self.res[i]
        if gen[n1] == self.s1[i] and gen[r] == self.s2[i]:
            self.hits += 1
            return r
        self.misses += 1
        return -1

    def get_n2(self, key: int, n1: int, n2: int, gen: list) -> int:
        """Probe an entry stamped on two operand nodes; -1 on miss."""
        i = ((key ^ key >> 64) * _MULT & _M64) >> self.shift
        keys = self.keys
        if keys[i] != key:
            i ^= 1
            if keys[i] != key:
                self.misses += 1
                return -1
        r = self.res[i]
        if gen[n1] == self.s1[i] and gen[n2] == self.s2[i] and gen[r] == self.s3[i]:
            self.hits += 1
            return r
        self.misses += 1
        return -1

    def get_n3(self, key: int, n1: int, n2: int, n3: int, gen: list) -> int:
        """Probe an entry stamped on three operand nodes; -1 on miss."""
        i = ((key ^ key >> 64) * _MULT & _M64) >> self.shift
        keys = self.keys
        if keys[i] != key:
            i ^= 1
            if keys[i] != key:
                self.misses += 1
                return -1
        r = self.res[i]
        if (
            gen[n1] == self.s1[i]
            and gen[n2] == self.s2[i]
            and gen[n3] == self.s3[i]
            and gen[r] == self.s4[i]
        ):
            self.hits += 1
            return r
        self.misses += 1
        return -1

    def _slot(self, key: int) -> int:
        """Pick the slot for an insert: match > empty > overwrite."""
        i = ((key ^ key >> 64) * _MULT & _M64) >> self.shift
        keys = self.keys
        k = keys[i]
        if k == key:
            return i
        j = i ^ 1
        kj = keys[j]
        if kj == key:
            return j
        if k == _EMPTY:
            keys[i] = key
            self.size += 1
            if self._maybe_grow():
                return self._find(key)
            return i
        if kj == _EMPTY:
            keys[j] = key
            self.size += 1
            if self._maybe_grow():
                return self._find(key)
            return j
        # Both slots resident with other keys: overwrite the primary.
        self.evictions += 1
        keys[i] = key
        return i

    def _find(self, key: int) -> int:
        """Slot of ``key`` after a rehash (re-placing it if it was the
        rare entry dropped by a double collision during the rebuild)."""
        keys = self.keys
        i = ((key ^ key >> 64) * _MULT & _M64) >> self.shift
        if keys[i] == key:
            return i
        j = i ^ 1
        if keys[j] == key:
            return j
        if keys[i] == _EMPTY:
            self.size += 1
        else:
            self.evictions += 1
        keys[i] = key
        return i

    def put_n1(self, key: int, n1: int, r: int, gen: list) -> None:
        i = self._slot(key)
        self.res[i] = r
        self.s1[i] = gen[n1]
        self.s2[i] = gen[r]
        self.inserts += 1

    def put_n2(self, key: int, n1: int, n2: int, r: int, gen: list) -> None:
        i = self._slot(key)
        self.res[i] = r
        self.s1[i] = gen[n1]
        self.s2[i] = gen[n2]
        self.s3[i] = gen[r]
        self.inserts += 1

    def put_n3(self, key: int, n1: int, n2: int, n3: int, r: int, gen: list) -> None:
        i = self._slot(key)
        self.res[i] = r
        self.s1[i] = gen[n1]
        self.s2[i] = gen[n2]
        self.s3[i] = gen[n3]
        self.s4[i] = gen[r]
        self.inserts += 1

    # -- growth --------------------------------------------------------

    def _maybe_grow(self) -> bool:
        slots = self.mask + 1
        if slots >= self.capacity or self.size * 8 <= slots * 5:
            return False
        okeys = self.keys
        old = self._value_lists()
        self._allocate(slots << 1)
        keys = self.keys
        shift = self.shift
        new = self._value_lists()
        size = 0
        for j, k in enumerate(okeys):
            if k == _EMPTY:
                continue
            i = ((k ^ k >> 64) * _MULT & _M64) >> shift
            if keys[i] != _EMPTY:
                i ^= 1
                if keys[i] != _EMPTY:
                    # Rare double collision during rehash: drop the
                    # older entry (a computed table may forget).
                    self.evictions += 1
                    i ^= 1
                    size -= 1
            keys[i] = k
            size += 1
            for dst, src in zip(new, old):
                dst[i] = src[j]
        self.size = size
        return True

    # -- maintenance and audits ---------------------------------------

    def _unpack_key(self, key: int):
        arity = _KIND_SPECS[self.kind][0]
        if arity == 1:
            return key
        if arity == 2:
            return (key >> 32, key & 0xFFFFFFFF)
        return (key >> 64, (key >> 32) & 0xFFFFFFFF, key & 0xFFFFFFFF)

    def entries(self):
        """Yield legacy ``(key, value)`` pairs for the audit layer.

        Keys are unpacked to the historical tuple (or bare int) form and
        values to ``(result, stamp_1, ..., stamp_k, result_stamp)`` —
        exactly what the :data:`repro.bdd.kernel.OPS` validators expect.
        """
        arity, node_fields = _KIND_SPECS[self.kind]
        stamps = (self.s1, self.s2, self.s3, self.s4)
        n = len(node_fields)
        for i, k in enumerate(self.keys):
            if k == _EMPTY:
                continue
            value = (self.res[i], *(stamps[j][i] for j in range(n + 1)))
            yield self._unpack_key(k), value

    def purge(self, gen: list, epoch: int) -> int:
        """Eagerly drop entries whose generation stamps are stale."""
        arity, node_fields = _KIND_SPECS[self.kind]
        stamps = (self.s1, self.s2, self.s3, self.s4)
        n = len(node_fields)
        keys = self.keys
        dropped = 0
        nmax = len(gen)
        for i, k in enumerate(keys):
            if k == _EMPTY:
                continue
            if arity == 1:
                fields = (k,)
            elif arity == 2:
                fields = (k >> 32, k & 0xFFFFFFFF)
            else:
                fields = (k >> 64, (k >> 32) & 0xFFFFFFFF, k & 0xFFFFFFFF)
            ok = True
            for j, f in enumerate(node_fields):
                node = fields[f]
                if node >= nmax or gen[node] != stamps[j][i]:
                    ok = False
                    break
            if ok:
                r = self.res[i]
                ok = r < nmax and gen[r] == stamps[n][i]
            if not ok:
                keys[i] = _EMPTY
                self.size -= 1
                dropped += 1
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        self.invalidations += self.size
        self.keys = [_EMPTY] * (self.mask + 1)
        self.size = 0

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "size": self.size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
