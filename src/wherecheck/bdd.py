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
that tail to apply's conjunction, whose cache every step shares, and the
result is the same canonical node.  restrict sets some levels to fixed
bits, the cofactor of Bryant (1986); it keeps no result past its call.
"""

from __future__ import annotations

from typing import Container, Iterable, Mapping, NamedTuple, Optional, Sequence

LEAF_LEVEL = 1 << 60

# Cache keys are single ints: operand ids and a small opcode packed into
# one word-ish integer.  A tuple key costs about twice as much memory and
# the table below is the dominant allocation at scale.  Keys hold node ids
# in 30 bits, and the manager gives up before a node id outgrows them; a
# relprod key puts its step id above both node ids, so no two keys alias.
# apply compares its opcodes as the literals 0-3, so their order is fixed.
AND, OR, XOR, DIFF, _OP_RELPROD = range(5)
_NODE_ID_LIMIT = 1 << 30
# Operation caches are memo tables, so dropping them wholesale is always
# sound; the cap keeps long searches from hoarding memory.
_CACHE_LIMIT = 6_000_000


class BudgetExceeded(Exception):
    """Raised when the node table outgrows the configured budget or the node-id bound."""


class Step(NamedTuple):
    """A relational product; each map holds only the levels it moves (see BDD.step)."""

    sid: int  # the cache-key id
    vmap: dict[int, int]  # level of v -> product level
    drop: frozenset[int]  # product levels to quantify
    out: dict[int, int]  # kept product level -> result level
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
        self._last_sid = 0
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

    # The binary connectives share one memoised recursion, apply; each op
    # keeps its own terminal cases, and the commutative ones order their
    # operands so both orders share a key.  Negation is diff(TRUE, u).

    def apply(self, op: int, u: int, v: int) -> int:
        """u op v for op AND, OR, XOR or DIFF (u and not v)."""
        # The opcodes are compared as literals and top is picked by a
        # conditional expression: global lookups and min() measured
        # several percent slower here.
        if op == 0:  # AND
            if u == 0 or v == 0:
                return 0
            if u == 1 or u == v:
                return v
            if v == 1:
                return u
            if u > v:
                u, v = v, u
        elif op == 1:  # OR
            if u == 1 or v == 1:
                return 1
            if u == 0 or u == v:
                return v
            if v == 0:
                return u
            if u > v:
                u, v = v, u
        elif op == 2:  # XOR
            if u == v:
                return 0
            if u == 0:
                return v
            if v == 0:
                return u
            if u > v:
                u, v = v, u
        else:  # DIFF
            if u == 0 or v == 1 or u == v:
                return 0
            if v == 0:
                return u
        key = (((u << 30) | v) << 4) | op
        found = self._cache.get(key)
        if found is not None:
            return found
        lu, lv = self.level[u], self.level[v]
        top = lu if lu < lv else lv
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        return self._cache_put(key, self.node(top, self.apply(op, u0, v0), self.apply(op, u1, v1)))

    def conj(self, u: int, v: int) -> int:
        return self.apply(AND, u, v)

    def disj(self, u: int, v: int) -> int:
        return self.apply(OR, u, v)

    def xor(self, u: int, v: int) -> int:
        return self.apply(XOR, u, v)

    def diff(self, u: int, v: int) -> int:
        return self.apply(DIFF, u, v)

    def disj_all(self, items: Iterable[int]) -> int:
        out = self.FALSE
        for u in items:
            out = self.disj(out, u)
        return out

    def step(
        self,
        vmap: Mapping[int, int] = {},
        drop: Iterable[int] = (),
        out: Mapping[int, int] = {},
    ) -> Step:
        """The relational product that relprod(u, v, step) computes, under a fresh id.

        The levels of u are product levels already; vmap relabels the
        levels of v to product levels, drop names the product levels to
        quantify, and out places each kept product level in the result; a
        level a map leaves out stays where it is.  Each map must preserve
        the order of the levels it meets, and out must not land a kept
        level on another kept level; the node() assertion enforces this as
        a side effect.  Nothing is interned: a caller that wants a step's
        results to persist in the cache across calls keeps the step.
        """

        def moves(mapping: Mapping[int, int]) -> dict[int, int]:
            return {src: dst for src, dst in mapping.items() if src != dst}

        vmap, drop, out = moves(vmap), frozenset(drop), moves(out)
        self._last_sid += 1
        return Step(self._last_sid, vmap, drop, out, max([*vmap, *drop, *out], default=-1))

    def relprod(self, u: int, v: int, step: Step) -> int:
        """exists drop . (u and v o vmap), kept levels placed by out, in one pass.

        The conjunction is never built, a TRUE cofactor under a dropped
        level short-circuits its sibling, and each kept level lands at its
        result level as the node is made, so no relabelling pass follows.
        Once both operands lie below step.last, every map is the identity
        there and no level is quantified, so the product is u AND v:
        the same canonical node, from a cache every step shares.  Relation
        composition spends nearly all its time here.
        """
        if u == 0 or v == 0:
            return 0
        level = self.level
        lu, lv = level[u], level[v]
        if lu > step.last and lv > step.last:
            return self.apply(AND, u, v)
        key = (((((step.sid << 30) | u) << 30) | v) << 4) | _OP_RELPROD
        found = self._cache.get(key)
        if found is not None:
            return found
        lv = LEAF_LEVEL if v == 1 else step.vmap.get(lv, lv)
        top = lu if lu < lv else lv
        u0, u1 = (self.lo[u], self.hi[u]) if lu == top else (u, u)
        v0, v1 = (self.lo[v], self.hi[v]) if lv == top else (v, v)
        lo = self.relprod(u0, v0, step) if u0 and v0 else 0
        if top in step.drop:
            if lo == 1:
                out = 1
            else:
                out = self.apply(OR, lo, self.relprod(u1, v1, step) if u1 and v1 else 0)
        else:
            hi = self.relprod(u1, v1, step) if u1 and v1 else 0
            out = self.node(step.out.get(top, top), lo, hi)
        return self._cache_put(key, out)

    def restrict(self, u: int, fixed: Mapping[int, int], free: Container[int]) -> int:
        """u with each level that fixed maps and free does not hold set to its bit.

        One pass with an explicit stack, so no depth costs recursion: a set
        level is followed to the child its bit picks and never pushed, and
        every other node is rebuilt once both its children are.  The results
        are kept for this call alone and the computed table is not touched.
        """
        level, lo, hi = self.level, self.lo, self.hi

        def follow(n: int) -> int:
            while True:
                lvl = level[n]
                bit = fixed.get(lvl)
                if bit is None or lvl in free:
                    return n
                n = hi[n] if bit else lo[n]

        done = {0: 0, 1: 1}
        root = follow(u)
        todo: list = [root]
        while todo:
            n = todo.pop()
            if type(n) is tuple:  # both children are done
                m, a, b = n
                done[m] = self.node(level[m], done[a], done[b])
            elif n not in done:
                a, b = follow(lo[n]), follow(hi[n])
                todo += ((n, a, b), a, b)
        return done[root]


# Fixed-width vectors: a value is a list of node indices, most significant
# bit first, so bv[0] is the MSB.


def bv_const(mgr: BDD, value: int, width: int) -> list[int]:
    return [
        mgr.TRUE if (value >> (width - 1 - i)) & 1 else mgr.FALSE
        for i in range(width)
    ]


def bv_from_levels(mgr: BDD, levels: Sequence[int]) -> list[int]:
    return [mgr.var(lvl) for lvl in levels]


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
    out = [mgr.FALSE] * len(a)
    borrow = mgr.FALSE
    for i in range(len(a) - 1, -1, -1):
        x, y = a[i], b[i]
        d = mgr.xor(x, y)
        out[i] = mgr.xor(d, borrow)
        borrow = mgr.disj(mgr.diff(y, x), mgr.diff(borrow, d))
    return out


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
    # Per-bit XNORs conjoined from the least significant bit up, so no disjunction
    # is built only to be negated.  Each XNOR is a's bit negated XOR b's: a rule's
    # a is its next-state bits, and a variable's negation is one node.
    out = mgr.TRUE
    for x, y in zip(reversed(a), reversed(b)):
        out = mgr.conj(mgr.xor(mgr.diff(mgr.TRUE, x), y), out)
    return out


def bv_ne(mgr: BDD, a: list[int], b: list[int]) -> int:
    return mgr.disj_all(mgr.xor(x, y) for x, y in zip(a, b))


def bv_lt(mgr: BDD, a: list[int], b: list[int]) -> int:
    # Unsigned compare, scanning from the most significant bit down.
    out = mgr.FALSE
    eq_above = mgr.TRUE
    for x, y in zip(a, b):
        out = mgr.disj(out, mgr.diff(mgr.conj(eq_above, y), x))
        eq_above = mgr.diff(eq_above, mgr.xor(x, y))
    return out


def bv_le(mgr: BDD, a: list[int], b: list[int]) -> int:
    return mgr.diff(mgr.TRUE, bv_lt(mgr, b, a))


def bv_nonzero(mgr: BDD, a: list[int]) -> int:
    return mgr.disj_all(a)


def bv_bool(mgr: BDD, bit: int, width: int) -> list[int]:
    return [mgr.FALSE] * (width - 1) + [bit]
