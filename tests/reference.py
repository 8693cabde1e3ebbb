"""Recursive references for the expression passes and the program printer.

``wherecheck`` walks an expression in loops over ``syntax.postfix``; these
are the same passes written as recursions over the tree, one ``match`` per
node, which the property tests in test_walkers.py compare the loops
against.  ``OPERATORS`` gives each operator's meaning, here and in
explicit.py.  ``format_program`` prints a whole command tree in the source
syntax, for the tests that parse a printed program back, and
``same_command`` compares two command trees by type as well as by ``==``.
Each recursion is bounded by the depth of the small trees the tests draw.
``vsi_typable`` is the flow-insensitive typing check that ``policy.typable``
replaced, and ``equal_set_typable`` is ``policy.typable`` before it knew
constants; test_typing.py requires ``policy.typable`` to type every level
either of these types.  ``low_equiv_channels`` compares two channel states
at an observer level, for the pairwise oracle of test_oracle.py, which the
memoised oracle replaced.  ``sorted_levels`` is the sort that
``GlobalsDecl``'s one-pass bit layout replaced.  ``preimage_walk`` is the
witness walk that ``reach._backward_path`` replaced, which builds each
valuation's cube (``cube``) and that cube's pre-image.
"""

from __future__ import annotations

from typing import Optional

from wherecheck.policy import OBSERVES_EVERYTHING, TYPABLE, Policy
from wherecheck.reach import PAutomaton
from wherecheck.spds import GlobalsDecl, RelationAlgebra
from wherecheck.syntax import (
    COMPARISONS,
    PRECEDENCE,
    Assign,
    BinOp,
    CellRef,
    Command,
    DeclassAssign,
    Expr,
    If,
    Input,
    Num,
    Output,
    Program,
    Seq,
    Skip,
    Var,
    While,
    first_site,
)


# Each operator on two operands of a width whose mask is ``mask``: the
# arithmetic ones wrap, a comparison gives 0 or 1.
OPERATORS = {
    "+": lambda a, b, mask: (a + b) & mask,
    "-": lambda a, b, mask: (a - b) & mask,
    "*": lambda a, b, mask: (a * b) & mask,
    "==": lambda a, b, mask: int(a == b),
    "!=": lambda a, b, mask: int(a != b),
    "<": lambda a, b, mask: int(a < b),
    "<=": lambda a, b, mask: int(a <= b),
    "&": lambda a, b, mask: a & b,
    "|": lambda a, b, mask: a | b,
}


def eval_expr(e: Expr, store: dict[str, int], bits: int) -> int:
    mask = (1 << bits) - 1
    match e:
        case Num(value):
            return value & mask
        case Var(name):
            return store[name]
        case BinOp(op, left, right):
            return OPERATORS[op](eval_expr(left, store, bits), eval_expr(right, store, bits), mask)
    raise TypeError(f"not an expression: {e!r}")


def expr_vars(e: Expr) -> set[str]:
    match e:
        case Num():
            return set()
        case Var(name):
            return {name}
        case BinOp(_, left, right):
            return expr_vars(left) | expr_vars(right)
    raise TypeError(f"not an expression: {e!r}")


def subst_vars(e: Expr, mapping: dict[str, str]) -> Expr:
    match e:
        case Num():
            return e
        case Var(name):
            return Var(mapping.get(name, name))
        case BinOp(op, left, right):
            return BinOp(op, subst_vars(left, mapping), subst_vars(right, mapping))
        case CellRef(cells, index, label):
            return CellRef(
                tuple(mapping.get(c, c) for c in cells), mapping.get(index, index), label
            )
    raise TypeError(f"not an expression: {e!r}")


def infer_width(e: Expr, globals_decl: GlobalsDecl) -> Optional[int]:
    match e:
        case Num(_):
            return None
        case Var(name):
            return globals_decl.width_of(name)
        case CellRef(cells, _, _):
            return globals_decl.width_of(cells[0]) if cells else None
        case BinOp(op, left, right):
            a = infer_width(left, globals_decl)
            b = infer_width(right, globals_decl)
            if a is not None and b is not None and a != b:
                raise ValueError(f"width mismatch in {format_expr(e)}: {a} vs {b}")
            if op in COMPARISONS:
                return None
            return a if a is not None else b
    raise TypeError(f"not an expression: {e!r}")


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    match e:
        case Num(value):
            return str(value)
        case Var(name):
            return name
        case CellRef(_, index, label):
            return f"{label}[{index}]"
        case BinOp(op, left, right):
            prec = PRECEDENCE[op]
            # left-associative: the right operand needs parentheses at equal precedence
            text = f"{format_expr(left, prec)} {op} {format_expr(right, prec + 1)}"
            return f"({text})" if prec < parent_prec else text
    raise TypeError(f"not an expression: {e!r}")


def format_program(c: Command) -> str:
    """A whole command tree in the source syntax, which the parser reads back."""
    match c:
        case Skip():
            return "skip"
        case Assign(_, target, expr):
            return f"{target} := {format_expr(expr)}"
        case DeclassAssign(_, target, expr):
            return f"{target} := declass({format_expr(expr)})"
        case If(_, guard, then_branch, else_branch):
            return (
                f"if {format_expr(guard)} then {format_program(then_branch)} "
                f"else {format_program(else_branch)} fi"
            )
        case While(_, guard, body):
            return f"while {format_expr(guard)} do {format_program(body)} od"
        case Seq(first, second):
            return f"{format_program(first)}; {format_program(second)}"
        case Input(_, target, channel):
            return f"input({target}, {channel})"
        case Output(_, expr, channel):
            return f"output({format_expr(expr)}, {channel})"
    raise TypeError(f"not a command: {c!r}")


_COMMANDS = (Skip, Assign, DeclassAssign, If, While, Seq, Input, Output)


def same_command(a: Command, b: Command) -> bool:
    """``a == b``, and each command of ``a`` of the type of its peer in ``b``.

    Commands are NamedTuples, which compare as tuples, so ``==`` alone
    calls ``l := h`` and ``l := declass(h)`` at one site equal.  The trees
    are walked in a loop over a stack, command by command, so a residual
    command, whose sites need not start at 0, compares as a program does.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        stack += [(p, q) for p, q in zip(x, y) if type(p) in _COMMANDS]
    return a == b


def sorted_levels(g: GlobalsDecl) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each cell's current and next levels, from one sort of every bit slot:
    control cells first, then by bit from the most significant, then by
    declaration order."""
    order = sorted(
        (name not in g.control, j, i)
        for i, (name, width) in enumerate(g.cells)
        for j in range(width)
    )
    slots: dict[str, list[int]] = {name: [0] * width for name, width in g.cells}
    for t, (_, j, i) in enumerate(order):
        slots[g.cells[i][0]][j] = t
    return {n: (tuple(2 * t for t in s), tuple(2 * t + 1 for t in s)) for n, s in slots.items()}


def vsi_typable(program: Program, policy: Policy, level: str) -> str:
    """The Volpano-Smith-Irvine check over two points: a name is low when its
    level flows to ``level``, so a variable that is high once stays high.
    ``if`` and ``while`` raise the pc by their guard; an assignment into a
    low variable needs the pc and its expression low; a real downgrade into
    one needs a low pc, and a low expression inside a ``while`` body."""
    names = (*program.variables, *program.channels)
    low = {n for n in names if policy.observable(n, level)}
    if len(low) == len(names):
        return OBSERVES_EVERYTHING

    def is_low(e: Expr) -> bool:
        return expr_vars(e) <= low

    inner = {None: (True, False)}  # block position -> (pc low, in a while body) inside it
    for i, (cmd, _, block) in enumerate(program.flow):
        pc, looped = inner[block]
        match cmd:
            case If(_, guard, _, _) | While(_, guard, _):
                inner[i] = (pc and is_low(guard), looped or type(cmd) is While)
            case DeclassAssign(site, target, expr) if policy.declass_real.get(site.id):
                if target in low and not (pc and (not looped or is_low(expr))):
                    return ""
            case Assign(_, target, expr) | DeclassAssign(_, target, expr):
                if target in low and not (pc and is_low(expr)):
                    return ""
            case Input(_, target, channel):
                if not ((pc and channel in low) or (channel not in low and target not in low)):
                    return ""
            case Output(_, expr, channel):
                if channel in low and not (pc and is_low(expr)):
                    return ""
    return TYPABLE


def equal_set_typable(program: Program, policy: Policy, level: str) -> str:
    """``policy.typable`` without constants: the same one forward pass
    over ``Program.flow``, where each site gets only the set of variables
    equal in both runs there, and every site is reached."""
    names = (*program.variables, *program.channels)
    low = {n for n in names if policy.observable(n, level)}
    if len(low) == len(names):
        return OBSERVES_EVERYTHING
    flow = program.flow
    start = frozenset(n for n in program.variables if n in low)
    equal: dict[Optional[int], frozenset[str]] = {0: start}  # position (None: the end) -> set
    inner = {None: (True, False)}  # block position -> (pc low, in a while body) inside it

    def meet(position: Optional[int], incoming: frozenset[str]) -> bool:
        """Intersect a set into a position's entry set; True when that set shrank."""
        old = equal.get(position)
        equal[position] = incoming if old is None else old & incoming
        return old is not None and equal[position] != old

    i = 0
    while i < len(flow):
        cmd, nxt, block = flow[i]
        pc, looped = inner[block]
        eq = equal[i]
        match cmd:
            case If(_, guard, _, else_branch):
                inner[i] = (pc and expr_vars(guard) <= eq, looped)
                meet(i + 1, eq)
                meet(first_site(else_branch).site.id, eq)
                i += 1
                continue
            case While(_, guard, _):
                inner[i] = (pc and expr_vars(guard) <= eq, True)
                meet(i + 1, eq)
            case DeclassAssign(site, target, expr) if policy.declass_real.get(site.id):
                kept = pc and (not looped or expr_vars(expr) <= eq)
                eq = eq | {target} if kept else eq - {target}
                if pc and not looped and type(expr) is Var:
                    eq = eq | {expr.name}
            case Assign(_, target, expr) | DeclassAssign(_, target, expr):
                eq = eq | {target} if pc and expr_vars(expr) <= eq else eq - {target}
            case Input(_, target, channel):
                if channel in low:
                    if not pc:
                        return ""
                    eq = eq | {target}
                else:
                    eq = eq - {target}
            case Output(_, expr, channel):
                if channel in low and not (pc and expr_vars(expr) <= eq):
                    return ""
        back = nxt is not None and nxt.site.id <= i
        shrank = meet(None if nxt is None else nxt.site.id, eq)
        i = nxt.site.id if back and shrank else i + 1
    return TYPABLE if start <= equal[None] else ""


def low_equiv_channels(
    contents1: dict[str, tuple[int, ...]],
    index1: dict[str, int],
    contents2: dict[str, tuple[int, ...]],
    index2: dict[str, int],
    level: str,
    policy: Policy,
) -> bool:
    """Channel states agree at the observer level.

    Observable channels need equal indices and an equal consumed/produced
    prefix; channels above the observer are vacuously equivalent.
    """
    for name in set(index1) | set(index2):
        if not policy.observable(name, level):
            continue
        i1, i2 = index1.get(name, 0), index2.get(name, 0)
        if i1 != i2:
            return False
        if contents1.get(name, ())[:i1] != contents2.get(name, ())[:i2]:
            return False
    return True


def cube(alg: RelationAlgebra, val: tuple[int, ...]) -> int:
    """The set that holds the valuation ``val`` alone."""
    return alg.set_from_fixed(alg.g.as_dict(val))


def preimage_walk(auto: PAutomaton) -> tuple[tuple[int, ...], str, list]:
    """``reach._backward_path`` as it was before it restricted: at every step
    it builds the current valuation's cube, that cube's pre-image under each
    rule into the symbol, in declaration order, and the pre-image's
    conjunction with the previous layer, and the first rule whose
    conjunction is not empty gives the least valuation there."""
    spds, alg, layers = auto.spds, auto.algebra, auto.layers
    mgr = alg.mgr
    sym = spds.error
    val = alg.pick_point(layers[-1][sym])
    tail: list[tuple[int, tuple[int, ...], str]] = []
    for k in range(len(layers) - 1, 0, -1):
        here = cube(alg, val)
        for i, rule in enumerate(spds.rules):
            prev = layers[k - 1].get(rule.lhs)
            if rule.rhs != sym or prev is None:
                continue
            pieces = auto.rule_relations[i]
            pre = mgr.disj_all(alg.preimage(rel, here, written) for rel, written in pieces)
            cand = mgr.conj(pre, prev)
            if cand != mgr.FALSE:
                tail.append((i, val, sym))
                val, sym = alg.pick_point(cand), rule.lhs
                break
        else:
            raise RuntimeError("path reconstruction lost the predecessor layer")
    return val, sym, list(reversed(tail))
