"""Symbolic finite-state systems over fixed-width global state.

A system is a set of control symbols plus rules <lhs> -> <rhs> that move
from one control symbol to exactly one other, each rule carrying a
RuleSpec: a guard over the current valuation and next-state updates
(expression, havoc, or indexed channel write).  The source language has no
procedures, so no model needs a stack.  The class keeps the name SPDS
because the benchmark reads model.spds and patches spds.RelationAlgebra.
Expressions are the source language's own (syntax.Expr): a Var reads a
global of any name and a CellRef reads a channel cell.  Width inference
(``syntax.node_widths``) and compilation are loops over ``syntax.postfix``,
so no depth costs recursion.  A guard with no width of its own is read at
the width of a program value (``GlobalsDecl.value_width``), as the
interpreter reads every guard.

Globals not mentioned keep their value; that frame condition is part of
the spec's meaning, and the tests' explicit evaluator (tests/explicit.py)
implements it directly.  The compiled form leaves it out.  A spec compiles to a few
pieces, each a relation paired with the cells it writes, and the rule's
relation is the union of its pieces.  A piece is the guard and one
equation per written cell, over the current bits and the next bits of its
written cells only.  Each relational step that takes a piece also takes
its written cells and quantifies just their current bits, so every
unwritten bit stands for itself on both sides, which is exactly what the
frame nxt == cur would force.  A spec without a channel write is one
piece.  A channel write cells[index] := e is one piece per cell k, with
index == k and the equation for cells[k] alone, plus one piece for an
index past the last cell, which writes no cell of the channel.  No piece
spells out that the other cells of the channel keep their value, so a
write costs one small piece per cell, not an equation for every cell.

Level layout: global bit slot t occupies levels 2t (current) and 2t+1
(next).  A step moves a written bit only between the two levels of its
slot, over a level it quantifies, so every level map is order-preserving.
Slots are handed out in one pass, to the control cells (channel indices
and the store-match mismatch cell) first and then to the rest, each group
in bands: band j holds bit j, counted from the most significant bit, of
every cell of the group wider than j, in declaration order.  A cell and
its second-run copy therefore sit side by side in every band, which keeps
the equalities that self-composition builds between them linear in the
width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .bdd import (
    BDD,
    Step,
    bv_add,
    bv_bitand,
    bv_bitor,
    bv_bool,
    bv_const,
    bv_eq,
    bv_from_levels,
    bv_le,
    bv_lt,
    bv_mul,
    bv_ne,
    bv_nonzero,
    bv_sub,
)
from .syntax import (
    COMPARISONS,
    BinOp,
    CellRef,
    Expr,
    Num,
    Var,
    format_expr,
    node_widths,
    postfix,
    subst_vars,
)


class HavocType:
    def __repr__(self):
        return "HAVOC"


HAVOC = HavocType()


# Each operator on bit vectors; a comparison's bit becomes a 0/1 vector.
_BV = {
    "+": bv_add, "-": bv_sub, "*": bv_mul, "&": bv_bitand, "|": bv_bitor,
    "==": bv_eq, "!=": bv_ne, "<": bv_lt, "<=": bv_le,
}


class ArrayWrite(NamedTuple):
    """cells[index] := expr; the other cells of the channel keep their value."""

    cells: tuple[str, ...]
    index: str
    expr: Expr
    label: str


class RuleSpec(NamedTuple):
    guard: Optional[Expr] = None  # truthy when nonzero; None means true
    updates: tuple[tuple[str, object], ...] = ()  # (global, Expr | HAVOC), sorted
    writes: tuple[ArrayWrite, ...] = ()

    @staticmethod
    def make(
        guard: Optional[Expr] = None,
        updates: Optional[dict[str, object]] = None,
        writes: tuple[ArrayWrite, ...] = (),
    ) -> "RuleSpec":
        pairs = tuple(sorted((updates or {}).items()))
        # Two writers of one cell would leave its next value undefined; the
        # tests' explicit evaluator and the compiled pieces would each pick one.
        # The updates come from a dict, so only a write can repeat a cell.
        if writes:
            written = [name for name, _ in pairs] + [c for w in writes for c in w.cells]
            if len(set(written)) < len(written):
                twice = sorted({c for c in written if written.count(c) > 1})
                raise ValueError(f"cells written twice by one rule: {', '.join(twice)}")
        return RuleSpec(guard=guard, updates=pairs, writes=writes)

    def renamed(self, mapping: dict[str, str]) -> "RuleSpec":
        assert not self.writes, "only skeleton rules, which write no channel, are renamed"
        guard = subst_vars(self.guard, mapping) if self.guard is not None else None
        updates = tuple(
            sorted(
                (mapping.get(name, name), e if e is HAVOC else subst_vars(e, mapping))
                for name, e in self.updates
            )
        )
        return RuleSpec(guard, updates)


class Rule(NamedTuple):
    lhs: str
    rhs: str  # the one control symbol the rule moves to
    spec: RuleSpec
    note: str = ""


@dataclass(frozen=True)
class GlobalsDecl:
    cells: tuple[tuple[str, int], ...]  # (name, width) in declaration order
    control: frozenset[str] = frozenset()  # cells whose bits take the first slots

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.cells)}

    @cached_property
    def _levels(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Current and next levels of each cell's bit slots, most significant bit first:
        the control cells band by band, then the rest band by band, each band in
        declaration order."""
        slots: dict[str, tuple[list[int], list[int]]] = {name: ([], []) for name, _ in self.cells}
        level = 0  # the current level of the next free slot
        for control in (True, False):
            group = [(slots[n], width) for n, width in self.cells if (n in self.control) == control]
            for j in range(max((width for _, width in group), default=0)):
                for (cur, nxt), width in group:
                    if width > j:
                        cur.append(level)
                        nxt.append(level + 1)
                        level += 2
        return {name: (tuple(cur), tuple(nxt)) for name, (cur, nxt) in slots.items()}

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.cells]

    @property
    def total_bits(self) -> int:
        return sum(width for _, width in self.cells)

    def width_of(self, name: str) -> int:
        return self.cells[self._index[name]][1]

    @cached_property
    def value_width(self) -> int:
        """The width of a program value, which every cell but a control cell has (the
        widest, where a declaration mixes them; 1 if there is none, as no two runs can differ)."""
        return max((width for name, width in self.cells if name not in self.control), default=1)

    def cur_levels(self, name: str) -> tuple[int, ...]:
        return self._levels[name][0]

    def nxt_levels(self, name: str) -> tuple[int, ...]:
        return self._levels[name][1]

    @cached_property
    def cur_slots(self) -> tuple[tuple[int, int, int], ...]:
        """Every current-state bit slot as (level, cell index, bit weight)."""
        return tuple(
            (lvl, i, 1 << (width - 1 - j))
            for i, (name, width) in enumerate(self.cells)
            for j, lvl in enumerate(self.cur_levels(name))
        )

    def decode(self, ones: set[int]) -> tuple[int, ...]:
        """The valuation that is 1 at the current levels in ones and 0 at every other."""
        out = [0] * len(self.cells)
        for lvl, i, weight in self.cur_slots:
            if lvl in ones:
                out[i] |= weight
        return tuple(out)

    def as_dict(self, valuation: tuple[int, ...]) -> dict[str, int]:
        return {name: valuation[i] for i, (name, _) in enumerate(self.cells)}

    def leaf_width(self, node: Expr) -> Optional[int]:
        """An expression leaf's own width: its cell's, None for a constant or an empty cell read."""
        if type(node) is Var:
            return self.width_of(node.name)
        return self.width_of(node.cells[0]) if type(node) is CellRef and node.cells else None


class SPDS(NamedTuple):
    globals: GlobalsDecl
    rules: tuple[Rule, ...]
    start: str
    initial_fixed: tuple[tuple[str, int], ...]  # pinned initial globals; rest free
    error: Optional[str] = None


def format_rule(rule: Rule) -> str:
    guard = format_expr(rule.spec.guard) if rule.spec.guard is not None else "1"
    parts = []
    for name, e in rule.spec.updates:
        parts.append(f"{name}:=*" if e is HAVOC else f"{name}:={format_expr(e)}")
    for w in rule.spec.writes:
        parts.append(f"{w.label}[{w.index}]:={format_expr(w.expr)}")
    effect = ", ".join(parts) if parts else "-"
    # no expression or effect prints a semicolon, so the three columns split back
    return f"<{rule.lhs}> -> <{rule.rhs}> ; {guard} ; {effect}"


def dump_spds(spds: SPDS) -> str:
    lines = [
        "globals: " + " ".join(f"{name}:{width}" for name, width in spds.globals.cells),
        "start: " + spds.start,
        "initial: "
        + (" ".join(f"{name}={value}" for name, value in spds.initial_fixed) or "-"),
    ]
    lines.extend(format_rule(rule) for rule in spds.rules)
    return "\n".join(lines)


class _WrittenSteps(NamedTuple):
    """The relational steps that take a piece writing one set of cells."""

    transpose_compose: Step
    preimage: Step


Piece = tuple[int, frozenset[str]]  # (relation, the cells it writes)


class RelationAlgebra:
    """BDD-backed sets of valuations and rule relations over them.

    Sets live on the current levels.  A rule compiles to pieces (see
    compile_spec), each a relation paired with the cells it writes: the
    relation puts its first component on the current levels and carries
    next levels for those cells only, so the steps that take a piece also
    take its written set, and every cell is the case of a full relation.
    A channel write is one piece per cell.  Each step is one relprod call.
    Node indices are canonical, so equality of results is integer equality.
    """

    def __init__(self, globals_decl: GlobalsDecl, mgr: Optional[BDD] = None):
        self.g = globals_decl
        self.mgr = mgr if mgr is not None else BDD()
        self._written: dict[frozenset[str], _WrittenSteps] = {}

    # Sets over the current levels.

    def set_from_fixed(self, fixed: dict[str, int]) -> int:
        """The cube of the given cells' values, chained deepest bit first, one node per bit."""
        bits = sorted(
            (lvl, (value >> j) & 1)
            for name, value in fixed.items()
            for j, lvl in enumerate(reversed(self.g.cur_levels(name)))
        )
        mgr, out = self.mgr, self.mgr.TRUE
        for lvl, bit in reversed(bits):
            out = mgr.node(lvl, mgr.FALSE, out) if bit else mgr.node(lvl, out, mgr.FALSE)
        return out

    def set_from_valuation(self, val: tuple[int, ...]) -> int:
        return self.set_from_fixed(self.g.as_dict(val))

    def compile_value(self, e: Expr, width: int) -> list[int]:
        """``e`` at its own width, or at ``width`` when it has none, in one loop over its
        postfix list with each node's width (``syntax.node_widths``)."""
        mgr = self.mgr
        nodes = postfix(e)
        widths = node_widths(nodes, self.g.leaf_width, width)
        stack: list[list[int]] = []
        for node, w in zip(nodes, widths):
            kind = type(node)
            if kind is BinOp:
                b, a = stack.pop(), stack.pop()
                value = _BV[node.op](mgr, a, b)
                if node.op in COMPARISONS:
                    value = bv_bool(mgr, value, w)
            elif kind is Num:
                value = bv_const(mgr, node.value, w)
            elif kind is Var:
                value = self._read(node.name, w)
            else:  # the hits are disjoint, so the read is the union of hit k and cell k
                value = bv_const(mgr, 0, w)
                for hit, cell in zip(self._hits(node.index, len(node.cells)), node.cells):
                    value = bv_bitor(mgr, value, [mgr.conj(hit, x) for x in self._read(cell, w)])
            stack.append(value)
        return stack[0]

    def _read(self, name: str, width: int) -> list[int]:
        assert self.g.width_of(name) == width, f"{name} width mismatch"
        return bv_from_levels(self.mgr, self.g.cur_levels(name))

    def _hits(self, index: str, cells: int) -> list[int]:
        """index == k, a cube, for each cell k that the index can reach."""
        # an index never reaches a cell past the largest value it holds
        held = range(min(cells, 1 << self.g.width_of(index)))
        return [self.set_from_fixed({index: k}) for k in held]

    def compile_guard(self, e: Optional[Expr]) -> int:
        if e is None:
            return self.mgr.TRUE
        return bv_nonzero(self.mgr, self.compile_value(e, self.g.value_width))

    # Rule relations: current levels x the written cells' next levels.

    def _assigns(self, name: str, value: list[int]) -> int:
        """nxt(name) == value, a value compiled over the current levels."""
        assert len(value) == self.g.width_of(name), f"{name} width mismatch"
        return bv_eq(self.mgr, bv_from_levels(self.mgr, self.g.nxt_levels(name)), value)

    def compile_spec(self, spec: RuleSpec) -> tuple[Piece, ...]:
        """The spec's pieces, whose union is its relation; FALSE pieces are left out.

        See the module docstring.  A havoc'd cell is written but gets no
        equation, and each channel write splits every piece by cell.
        """
        mgr = self.mgr
        base = self.compile_guard(spec.guard)
        for name, e in spec.updates:
            if e is not HAVOC:
                value = self.compile_value(e, self.g.width_of(name))
                base = mgr.conj(base, self._assigns(name, value))
        pieces = [(base, frozenset(name for name, _ in spec.updates))]
        for w in spec.writes:
            hits = self._hits(w.index, len(w.cells))
            # a channel's cells share one width, so its value is compiled once
            value = self.compile_value(w.expr, self.g.width_of(w.cells[0])) if w.cells else []
            cases = [(hit, self._assigns(c, value), frozenset({c})) for c, hit in zip(w.cells, hits)]
            cases.append((mgr.diff(mgr.TRUE, mgr.disj_all(hits)), mgr.TRUE, frozenset()))
            pieces = [
                (mgr.conj(mgr.conj(rel, hit), assigns), written | cells)
                for rel, written in pieces
                for hit, assigns, cells in cases
            ]
        return tuple((rel, written) for rel, written in pieces if rel != mgr.FALSE)

    def _bits(self, written: frozenset[str]) -> _WrittenSteps:
        found = self._written.get(written)
        if found is None:
            cur = [lvl for name in sorted(written) for lvl in self.g.cur_levels(name)]
            step = self.mgr.step
            found = self._written[written] = _WrittenSteps(
                step(drop=cur, out={lvl + 1: lvl for lvl in cur}),
                step(vmap={lvl: lvl + 1 for lvl in cur}, drop=[lvl + 1 for lvl in cur]),
            )
        return found

    def transpose_compose(self, r: int, s: int, written: frozenset[str]) -> int:
        """{b | exists a: (a, b) in r and a in s}, r writing only written: the image of s.

        The written cells' current bits are quantified and their next bits
        land on the current levels as the result is built; an unwritten bit
        of a is the same bit of b, so it stays where it is.  s must be a
        set: a next bit of s would meet the next bit of r.
        """
        return self.mgr.relprod(r, s, self._bits(written).transpose_compose)

    def preimage(self, r: int, set_cur: int, written: frozenset[str]) -> int:
        """{a | exists b: (a, b) in r and b in set_cur}, r writing only written.

        The set's written bits move to the next levels, where they are
        quantified; its unwritten bits stand for themselves on both sides.
        """
        return self.mgr.relprod(r, set_cur, self._bits(written).preimage)

    # Witness decoding.

    def _path(self, u: int, fixed: dict[int, int]) -> Optional[dict[int, int]]:
        """A root-to-1 path of u that agrees with fixed, as {level: bit}; None if none.

        Depth first, 0-branch first, only the fixed branch at a fixed level and
        never back into a node it has left: it makes no node and does not recurse.
        """
        level, lo, hi = self.mgr.level, self.mgr.lo, self.mgr.hi
        seen: set[int] = set()
        path: list[tuple[int, int]] = []  # (node, branch taken)
        n = u
        while n != self.mgr.TRUE:
            if n != self.mgr.FALSE and n not in seen:
                seen.add(n)
                path.append((n, fixed.get(level[n], 0)))
                n = hi[n] if path[-1][1] else lo[n]
                continue
            while path and (path[-1][1] or level[path[-1][0]] in fixed):
                path.pop()
            if not path:
                return None
            path[-1] = (path[-1][0], 1)
            n = hi[path[-1][0]]
        return {level[m]: bit for m, bit in path}

    def pick_point(self, set_cur: int) -> Optional[tuple[tuple[int, ...], int]]:
        """The set's least valuation and that valuation's cube; None if the set is empty.

        Least means cells in declaration order, MSB first.  A set that is a
        single cube is read in one walk from the root: each node on its one
        path to 1 has a FALSE child, the path fixes the cube's bits, and 0
        at every free bit is the least valuation.  When the path fixes
        every bit, the set is that valuation's cube.  Any other set takes
        the greedy walk of _pick_greedy.
        """
        mgr = self.mgr
        if set_cur == mgr.FALSE:
            return None
        level, lo, hi = mgr.level, mgr.lo, mgr.hi
        ones: set[int] = set()
        n, fixed = set_cur, 0
        while n != mgr.TRUE:
            fixed += 1
            if lo[n] == mgr.FALSE:
                ones.add(level[n])
                n = hi[n]
            elif hi[n] == mgr.FALSE:
                n = lo[n]
            else:
                val = self._pick_greedy(set_cur)
                return val, self.set_from_valuation(val)
        val = self.g.decode(ones)
        return val, set_cur if fixed == len(self.g.cur_slots) else self.set_from_valuation(val)

    def _pick_greedy(self, set_cur: int) -> tuple[int, ...]:
        """The least valuation in a nonempty set, bit by bit in declaration order.

        That order need not be the BDD order.  A bit is 0 if a root-to-1
        path agrees with that 0 and the bits fixed before it, else 1: the
        greedy choice gives the least number.  One such path is kept, and a
        walk for a new one runs only when it sets the bit to 1.
        """
        path = self._path(set_cur, {})
        assert path is not None, "the set is empty"
        out: dict[int, int] = {}
        for lvl in (lvl for name in self.g.names for lvl in self.g.cur_levels(name)):
            out[lvl] = 0
            if path.get(lvl) == 1:
                found = self._path(set_cur, out)
                if found is None:
                    out[lvl] = 1
                else:
                    path = found
        return self.g.decode({lvl for lvl, bit in out.items() if bit})
