"""Reduced ordered binary decision diagrams with fixed-width vector helpers.

Nodes are hash-consed triples (level, lo, hi) stored in parallel arrays and
addressed by index; 0 and 1 are the terminals.  Levels are plain integers
assigned by the caller.  Quantification and relabelling happen in one
kernel, the relational product with substitution (Burch, Clarke, McMillan,
Dill & Hwang 1990): relprod conjoins two diagrams, relabelling the levels
of the second, quantifies some product levels and places the rest at their
result levels as it builds.  It only supports order-preserving level maps, which is all
the relation algebra here needs: rule relations place the current-state
copy of global bit slot k at level 2k and the next-state copy at 2k+1, and
a step moves a bit only between the two levels of its slot, over a level
it quantifies, so it never swaps two kept levels.  Below the deepest level
a step moves or quantifies, every map is the identity and nothing is
quantified, so there the product is a plain conjunction: relprod hands
that tail to conj, whose cache every step shares, and the result is the
same canonical node.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Optional

LEAF_LEVEL = 1 << 60

# Cache keys are single ints: operand ids and a small opcode packed into
# one word-ish integer.  A tuple key costs about twice as much memory and
# the table below is the dominant allocation at scale.  Keys hold node ids
# in 30 bits and step ids in 12, so past those bounds two keys would alias;
# the manager gives up before that happens.
_OP_AND, _OP_OR, _OP_XOR, _OP_DIFF, _OP_NOT, _OP_RELPROD = range(6)
_NODE_ID_LIMIT = 1 << 30
_STEP_ID_LIMIT = 1 << 12
# Operation caches are memo tables, so dropping them wholesale is always
# sound; the cap keeps long searches from hoarding memory.
_CACHE_LIMIT = 6_000_000


class BudgetExceeded(Exception):
    """Raised when the node table outgrows the configured budget or a cache-key bound."""


def _fresh_id(table: dict, what: str) -> int:
    if len(table) >= _STEP_ID_LIMIT:
        raise BudgetExceeded(f"more than {_STEP_ID_LIMIT} {what} would alias in the cache keys")
    return len(table)


class Step(NamedTuple):
    """An interned relational product; every list is indexed by level (see BDD.step)."""

    sid: int  # the cache-key id
    vmap: list[int]  # level of v -> product level
    drop: list[bool]  # product level -> quantified
    out: list[int]  # kept product level -> result level
    last: int  # deepest level a map moves or drop quantifies, -1 if none


class BDD:
    FALSE = 0
    TRUE = 1

    def __init__(self, node_budget: Optional[int] = None):
        self.level = [LEAF_LEVEL, LEAF_LEVEL]
        self.lo = [0, 1]
        self.hi = [0, 1]
        self._unique: dict[int, int] = {}
        self._cache: dict[int, int] = {}
        self.cache_clears = 0
        self._steps: dict[tuple, Step] = {}
        limit = _NODE_ID_LIMIT if node_budget is None else min(node_budget, _NODE_ID_LIMIT)
        self._node_limit = limit
        # Always 0: the node table is never compacted.  Reports read it.
        self.collections = 0

    def _cache_put(self, key: int, out: int) -> int:
        cache = self._cache
        if len(cache) >= _CACHE_LIMIT:
            cache.clear()
            self.cache_clears += 1
        cache[key] = out
        return out

    def __len__(self) -> int:
        return len(self.level)

    def node(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        # Children must sit strictly below; a violation means a relprod
        # level map crossed two levels and the diagram would silently be wrong.
        assert level < self.level[lo] and level < self.level[hi]
        key = (level << 60) | (lo << 30) | hi
        found = self._unique.get(key)
        if found is not None:
            return found
        idx = len(self.level)
        if idx >= self._node_limit:
            raise BudgetExceeded(f"BDD node budget {self._node_limit} exhausted")
        self.level.append(level)
        self.lo.append(lo)
        self.hi.append(hi)
        self._unique[key] = idx
        return idx

    def var(self, level: int) -> int:
        return self.node(level, self.FALSE, self.TRUE)

    def nvar(self, level: int) -> int:
        return self.node(level, self.TRUE, self.FALSE)

    # Binary connectives: one memoized recursion each, terminals 0 and 1.
    # The commutative ones order their operands so both orders share a key.

    def conj(self, u: int, v: int) -> int:
        if u == 0 or v == 0:
            return 0
        if u == 1 or u == v:
            return v
        if v == 1:
            return u
        if u > v:
            u, v = v, u
        key = (((u << 30) | v) << 4) | _OP_AND
        found = self._cache.get(key)
        if found is not None:
            return found
        lu, lv = self.level[u], self.level[v]
        top = min(lu, lv)
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        return self._cache_put(key, self.node(top, self.conj(u0, v0), self.conj(u1, v1)))

    def disj(self, u: int, v: int) -> int:
        if u == 1 or v == 1:
            return 1
        if u == 0 or u == v:
            return v
        if v == 0:
            return u
        if u > v:
            u, v = v, u
        key = (((u << 30) | v) << 4) | _OP_OR
        found = self._cache.get(key)
        if found is not None:
            return found
        lu, lv = self.level[u], self.level[v]
        top = min(lu, lv)
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        return self._cache_put(key, self.node(top, self.disj(u0, v0), self.disj(u1, v1)))

    def xor(self, u: int, v: int) -> int:
        if u == v:
            return 0
        if u == 0:
            return v
        if v == 0:
            return u
        if u == 1:
            return self.neg(v)
        if v == 1:
            return self.neg(u)
        if u > v:
            u, v = v, u
        key = (((u << 30) | v) << 4) | _OP_XOR
        found = self._cache.get(key)
        if found is not None:
            return found
        lu, lv = self.level[u], self.level[v]
        top = min(lu, lv)
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        return self._cache_put(key, self.node(top, self.xor(u0, v0), self.xor(u1, v1)))

    def diff(self, u: int, v: int) -> int:
        """u and not v, without building the negation of v."""
        if u == 0 or v == 1 or u == v:
            return 0
        if v == 0:
            return u
        if u == 1:
            return self.neg(v)
        key = (((u << 30) | v) << 4) | _OP_DIFF
        found = self._cache.get(key)
        if found is not None:
            return found
        lu, lv = self.level[u], self.level[v]
        top = min(lu, lv)
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        return self._cache_put(key, self.node(top, self.diff(u0, v0), self.diff(u1, v1)))

    def neg(self, u: int) -> int:
        if u == self.FALSE:
            return self.TRUE
        if u == self.TRUE:
            return self.FALSE
        key = (u << 4) | _OP_NOT
        found = self._cache.get(key)
        if found is not None:
            return found
        out = self.node(self.level[u], self.neg(self.lo[u]), self.neg(self.hi[u]))
        return self._cache_put(key, out)

    def iff(self, u: int, v: int) -> int:
        return self.neg(self.xor(u, v))

    def ite(self, g: int, t: int, e: int) -> int:
        return self.disj(self.conj(g, t), self.diff(e, g))

    def conj_all(self, items: Iterable[int]) -> int:
        out = self.TRUE
        for u in items:
            out = self.conj(out, u)
        return out

    def disj_all(self, items: Iterable[int]) -> int:
        out = self.FALSE
        for u in items:
            out = self.disj(out, u)
        return out

    def step(
        self,
        size: int,
        vmap: Mapping[int, int] = {},
        drop: Iterable[int] = (),
        out: Mapping[int, int] = {},
    ) -> Step:
        """The relational product that relprod(u, v, step) computes, interned.

        The levels of u are product levels already; vmap relabels the
        levels of v to product levels, drop names the product levels to
        quantify, and out places each kept product level in the result; a
        level a map leaves out stays where it is.  Every level involved must be below size.  Each map
        must preserve the order of the levels it meets, and out must not
        land a kept level on another kept level; the node() assertion
        enforces this as a side effect.  Equal arguments give the same
        step, so its results persist in the cache across calls.
        """
        wanted = frozenset(drop)
        key = (size, *(tuple(sorted(m.items())) for m in (vmap, out)), wanted)
        found = self._steps.get(key)
        if found is None:

            def table(mapping: Mapping[int, int]) -> list[int]:
                levels = list(range(size))
                for src, dst in mapping.items():
                    levels[src] = dst
                return levels

            moved = [src for m in (vmap, out) for src, dst in m.items() if src != dst]
            found = self._steps[key] = Step(
                _fresh_id(self._steps, "relational steps"),
                table(vmap),
                [lvl in wanted for lvl in range(size)],
                table(out),
                max([*moved, *wanted], default=-1),
            )
        return found

    def relprod(self, u: int, v: int, step: Step) -> int:
        """exists drop . (u and v o vmap), kept levels placed by out, in one pass.

        The conjunction is never built, a TRUE cofactor under a dropped
        level short-circuits its sibling, and each kept level lands at its
        result level as the node is made, so no relabelling pass follows.
        Once both operands lie below step.last, every map is the identity
        there and no level is quantified, so the product is conj(u, v):
        the same canonical node, from a cache every step shares.  Relation
        composition spends nearly all its time here.
        """
        if u == 0 or v == 0:
            return 0
        level = self.level
        lu, lv = level[u], level[v]
        if lu > step.last and lv > step.last:
            return self.conj(u, v)
        key = (((((u << 30) | v) << 12) | step.sid) << 4) | _OP_RELPROD
        found = self._cache.get(key)
        if found is not None:
            return found
        lv = LEAF_LEVEL if v == 1 else step.vmap[lv]
        top = lu if lu < lv else lv
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        lo = self.relprod(u0, v0, step) if u0 and v0 else 0
        if step.drop[top]:
            if lo == 1:
                out = 1
            else:
                out = self.disj(lo, self.relprod(u1, v1, step) if u1 and v1 else 0)
        else:
            out = self.node(step.out[top], lo, self.relprod(u1, v1, step) if u1 and v1 else 0)
        return self._cache_put(key, out)


# Fixed-width vectors: a value is a list of node indices, most significant
# bit first, so bv[0] is the MSB.


def bv_const(mgr: BDD, value: int, width: int) -> list[int]:
    return [
        mgr.TRUE if (value >> (width - 1 - i)) & 1 else mgr.FALSE
        for i in range(width)
    ]


def bv_from_levels(mgr: BDD, levels: list[int]) -> list[int]:
    return [mgr.var(lvl) for lvl in levels]


def bv_not(mgr: BDD, a: list[int]) -> list[int]:
    return [mgr.neg(x) for x in a]


def bv_bitand(mgr: BDD, a: list[int], b: list[int]) -> list[int]:
    return [mgr.conj(x, y) for x, y in zip(a, b)]


def bv_bitor(mgr: BDD, a: list[int], b: list[int]) -> list[int]:
    return [mgr.disj(x, y) for x, y in zip(a, b)]


def bv_add(mgr: BDD, a: list[int], b: list[int]) -> list[int]:
    out = [mgr.FALSE] * len(a)
    carry = mgr.FALSE
    for i in range(len(a) - 1, -1, -1):
        x, y = a[i], b[i]
        out[i] = mgr.xor(mgr.xor(x, y), carry)
        carry = mgr.disj(mgr.conj(x, y), mgr.conj(carry, mgr.xor(x, y)))
    return out


def bv_sub(mgr: BDD, a: list[int], b: list[int]) -> list[int]:
    nb = bv_not(mgr, b)
    one = bv_const(mgr, 1, len(a))
    return bv_add(mgr, bv_add(mgr, a, nb), one)


def bv_mul(mgr: BDD, a: list[int], b: list[int]) -> list[int]:
    width = len(a)
    acc = bv_const(mgr, 0, width)
    for i in range(width):
        # b's bit of significance i gates a shifted left by i.
        bit = b[width - 1 - i]
        shifted = a[i:] + [mgr.FALSE] * i
        gated = [mgr.conj(bit, x) for x in shifted]
        acc = bv_add(mgr, acc, gated)
    return acc


def bv_eq(mgr: BDD, a: list[int], b: list[int]) -> int:
    return mgr.conj_all(mgr.iff(x, y) for x, y in zip(a, b))


def bv_ne(mgr: BDD, a: list[int], b: list[int]) -> int:
    return mgr.neg(bv_eq(mgr, a, b))


def bv_lt(mgr: BDD, a: list[int], b: list[int]) -> int:
    # Unsigned compare, scanning from the most significant bit down.
    out = mgr.FALSE
    eq_above = mgr.TRUE
    for x, y in zip(a, b):
        out = mgr.disj(out, mgr.conj(eq_above, mgr.conj(mgr.neg(x), y)))
        eq_above = mgr.conj(eq_above, mgr.iff(x, y))
    return out


def bv_le(mgr: BDD, a: list[int], b: list[int]) -> int:
    return mgr.disj(bv_lt(mgr, a, b), bv_eq(mgr, a, b))


def bv_nonzero(mgr: BDD, a: list[int]) -> int:
    return mgr.disj_all(a)


def bv_ite(mgr: BDD, guard: int, a: list[int], b: list[int]) -> list[int]:
    return [mgr.ite(guard, x, y) for x, y in zip(a, b)]


def bv_bool(mgr: BDD, bit: int, width: int) -> list[int]:
    return [mgr.FALSE] * (width - 1) + [bit]


def bv_value(bits_assignment: Callable[[int], bool], levels: list[int]) -> int:
    """Decode an integer from a level->bool assignment (MSB first)."""
    value = 0
    for lvl in levels:
        value = (value << 1) | (1 if bits_assignment(lvl) else 0)
    return value
