"""Security policies: finite lattice of domains, level map, declass sites.

Policy files are line oriented:

    # two-point lattice
    lattice: L < H
    var h : H
    var l : L
    channel in0 : L input length 2
    channel out0 : L output

"lattice:" lines take comma-separated "A < B" pairs (bare names declare a
domain without edges).  The partial order is the reflexive-transitive closure
of the declared edges; cycles are rejected.  Channel declarations carry a
direction and an optional declared input length.

``typable`` is a flow-sensitive security type check of one observer level:
a variable is low at a site when it is equal in both runs there, or holds
the same constant in every run that reaches the site; an operator whose two
operands are the same expression has a fixed value; and a level it accepts
is where-secure, so the search need not run there.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .syntax import (
    Assign,
    BinOp,
    DeclassAssign,
    Expr,
    If,
    Input,
    Num,
    Output,
    Program,
    Var,
    While,
    eval_nodes,
    expr_vars,
    first_site,
    postfix,
    site_expr,
)

OBSERVES_EVERYTHING = "observes every variable and channel"
TYPABLE = "typable"


class PolicyError(Exception):
    """Malformed policy file or policy/program mismatch."""


class Channel(NamedTuple):
    name: str
    level: str
    direction: str  # "input" | "output"
    length: Optional[int] = None  # declared input extent; None = default


class Policy(NamedTuple):
    """Security policy: (domains, order, level assignment), and which declass
    sites are real downgrades once ``gather_downgrades`` has classified them."""

    domains: tuple[str, ...]
    order: frozenset[tuple[str, str]]  # reflexive-transitive, pairs (lo, hi)
    sigma: dict[str, str]  # variable and channel names to domains
    channels: dict[str, Channel]
    declass_real: dict[int, bool]  # site id -> real?

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def lub(self, a: str, b: str) -> str:
        """Least upper bound; PolicyError if none or not unique."""
        uppers = [d for d in self.domains if self.leq(a, d) and self.leq(b, d)]
        minimal = [u for u in uppers if not any(self.lt(v, u) for v in uppers)]
        if len(minimal) != 1:
            raise PolicyError(f"no unique least upper bound for {a!r} and {b!r}")
        return minimal[0]

    def bottom(self) -> str:
        minimal = [d for d in self.domains if not any(self.lt(e, d) for e in self.domains)]
        if len(minimal) != 1:
            raise PolicyError("lattice has no unique least element")
        return minimal[0]

    def level_of(self, name: str) -> str:
        try:
            return self.sigma[name]
        except KeyError:
            raise PolicyError(f"no security level declared for {name!r}") from None

    def observable(self, name: str, level: str) -> bool:
        """True when name's level flows to the observer level."""
        return self.leq(self.level_of(name), level)


def _transitive_reflexive(domains: set[str], edges: set[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    order = {(d, d) for d in domains} | set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(order):
            for c, d in list(order):
                if b == c and (a, d) not in order:
                    order.add((a, d))
                    changed = True
    return frozenset(order)


def parse_policy(text: str) -> Policy:
    """Parse a policy file; validates the lattice and declarations."""
    domains: set[str] = set()
    edges: set[tuple[str, str]] = set()
    sigma: dict[str, str] = {}
    channels: dict[str, Channel] = {}

    def check_level(level: str, lineno: int) -> None:
        if level not in domains:
            raise PolicyError(f"line {lineno}: unknown security domain {level!r}")

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("lattice:"):
            body = line[len("lattice:"):].strip()
            if not body:
                raise PolicyError(f"line {lineno}: empty lattice declaration")
            for item in body.split(","):
                parts = [p.strip() for p in item.split("<")]
                if len(parts) == 1 and parts[0]:
                    domains.add(parts[0])
                elif len(parts) == 2 and all(parts):
                    domains.update(parts)
                    edges.add((parts[0], parts[1]))
                else:
                    raise PolicyError(f"line {lineno}: malformed lattice item {item.strip()!r}")
            continue
        fields = line.split()
        if fields[0] == "var":
            # var NAME : LEVEL
            if len(fields) != 4 or fields[2] != ":":
                raise PolicyError(f"line {lineno}: malformed var declaration")
            name, level = fields[1], fields[3]
            if name in sigma:
                raise PolicyError(f"line {lineno}: duplicate declaration of {name!r}")
            check_level(level, lineno)
            sigma[name] = level
            continue
        if fields[0] == "channel":
            # channel NAME : LEVEL input|output [length N]
            if len(fields) not in (5, 7) or fields[2] != ":":
                raise PolicyError(f"line {lineno}: malformed channel declaration")
            name, level, direction = fields[1], fields[3], fields[4]
            if name in sigma:
                raise PolicyError(f"line {lineno}: duplicate declaration of {name!r}")
            check_level(level, lineno)
            if direction not in ("input", "output"):
                raise PolicyError(f"line {lineno}: bad channel direction {direction!r}")
            length: Optional[int] = None
            if len(fields) == 7:
                if fields[5] != "length":
                    raise PolicyError(f"line {lineno}: expected 'length'")
                if direction != "input":
                    raise PolicyError(f"line {lineno}: only an input channel has a length")
                try:
                    length = int(fields[6])
                except ValueError:
                    raise PolicyError(f"line {lineno}: bad length {fields[6]!r}") from None
                if length < 0:
                    raise PolicyError(f"line {lineno}: negative channel length")
            sigma[name] = level
            channels[name] = Channel(name, level, direction, length)
            continue
        raise PolicyError(f"line {lineno}: unrecognized declaration {line!r}")

    if not domains:
        raise PolicyError("policy declares no security domains")
    order = _transitive_reflexive(domains, edges)
    for a, b in edges:
        if a != b and (b, a) in order:
            raise PolicyError(f"lattice order has a cycle through {a!r} and {b!r}")
    return Policy(
        domains=tuple(sorted(domains)),
        order=order,
        sigma=sigma,
        channels=channels,
        declass_real={},
    )


def domain_of_expr(e: Expr, policy: Policy) -> str:
    """Join of the levels of an expression's variables.

    Variable-free expressions sit at the lattice's least element.
    """
    names = sorted(expr_vars(e))
    if not names:
        return policy.bottom()
    level = policy.level_of(names[0])
    for name in names[1:]:
        level = policy.lub(level, policy.level_of(name))
    return level


def validate_bindings(program: Program, policy: Policy) -> None:
    """Check the policy covers the program: levels total, directions right."""
    for name in program.variables:
        if name not in policy.sigma:
            raise PolicyError(f"variable {name!r} has no declared level")
        if name in policy.channels:
            raise PolicyError(f"name {name!r} is declared as a channel but used as a variable")
    # Every use, not one per channel: a channel may be both read and written.
    uses = {
        (c.channel, "input" if isinstance(c, Input) else "output")
        for c in program.sites
        if isinstance(c, (Input, Output))
    }
    for name, direction in sorted(uses):
        ch = policy.channels.get(name)
        if ch is None:
            raise PolicyError(f"channel {name!r} has no declaration")
        if ch.direction != direction:
            raise PolicyError(
                f"channel {name!r} is declared {ch.direction} but used for {direction}"
            )


def input_length(program: Program, policy: Policy, channel: str, floor: int = 0) -> int:
    """An input channel's declared ``length``, else the larger of ``floor`` and
    its input statements.  The oracle's floor is 0; the model's is its capacity."""
    declared = policy.channels[channel].length
    return declared if declared is not None else max(floor, program.input_counts.get(channel, 0))


def gather_downgrades(program: Program, policy: Policy) -> Policy:
    """Classify declassification sites.

    A site x := declass(e) with sigma(x) strictly below sigma(e) performs a
    real downgrade; any other declass site behaves as an ordinary
    assignment.  Also validates that the policy covers the program and that
    every expression in it has a join.  The result is a new Policy; the
    computation is idempotent.
    """
    validate_bindings(program, policy)
    declass_real: dict[int, bool] = {}
    for cmd in program.sites:
        e = site_expr(cmd)
        if e is None:  # a skip or an input
            continue
        level = domain_of_expr(e, policy)  # raises when a join is missing
        if isinstance(cmd, DeclassAssign):
            declass_real[cmd.site.id] = policy.lt(policy.level_of(cmd.target), level)
    return policy._replace(declass_real=declass_real)


def _bind(known: dict[str, int], name: str, value: Optional[int]) -> dict[str, int]:
    """``known`` with ``name`` bound to ``value``, or unbound when it is None;
    the same dict when nothing changes, a copy otherwise."""
    if known.get(name) == value:
        return known
    known = dict(known)
    if value is None:
        del known[name]
    else:
        known[name] = value
    return known


# An operator whose two operands are the same expression has a fixed value.
_EQUAL_OPERANDS = {"-": 0, "!=": 0, "<": 0, "==": 1, "<=": 1}


def _same_span(nodes: list[Expr], a: int, b: int, n: int) -> bool:
    """Whether the ``n`` nodes from ``a`` and from ``b`` of a postfix list are the same,
    node by node: an operator by its symbol and a leaf by its fields, so no tree is
    compared or hashed."""
    for x, y in zip(nodes[a:a + n], nodes[b:b + n]):
        kind = type(x)
        if kind is not type(y) or (x.op != y.op if kind is BinOp else x != y):
            return False
    return True


def _fold(nodes: list[Expr]) -> list[Expr]:
    """A postfix list with each operator whose two operands are the same expression
    folded in place, its span replaced by its value as a Num."""
    out: list[Expr] = []
    starts: list[tuple[int, int]] = []  # per operand: its first position in nodes and in out
    for i, node in enumerate(nodes):
        if type(node) is not BinOp:
            starts.append((i, len(out)))
        else:
            (right, _), (left, first) = starts.pop(), starts[-1]
            n = i - right
            if node.op in _EQUAL_OPERANDS and right - left == n and _same_span(nodes, left, right, n):
                del out[first:]
                node = Num(_EQUAL_OPERANDS[node.op])
        out.append(node)
    return out


def typable(program: Program, policy: Policy, level: str, bits: int) -> str:
    """Why a gathered policy's observer level is secure by typing, or "".

    A flow-sensitive check in the style of Hunt and Sands: each site gets
    the set of variables that are equal in both runs when control reaches
    it, and the map of the variables that hold the same value, mod
    2**bits, in every run that reaches it (a conditional constant
    propagation in the style of Wegman and Zadeck).  A variable is low at a
    site when it is in the set or in the map.  An operator whose two
    operands are the same expression, compared node by node (see
    ``_fold``), has a fixed value: ``-``, ``!=`` and ``<`` give 0, and
    ``==`` and ``<=`` give 1.  It is folded in place, and its operands'
    variables are not read; an expression is low when all the variables it
    still reads are, so one with a known value is low.  At the start the
    set holds the observable variables and the map is empty.  One forward
    pass over ``Program.flow`` computes both: a site hands them on to its
    ``next``, an ``if`` to the first site of each branch, a ``while`` to
    the first site of its body and to its ``next``, and a site that gets
    several keeps the intersection of the sets and the entries on which
    the maps agree, as where an ``if`` ends or a loop body's end meets its
    ``while`` head.  A guard whose variables (those it still reads) are
    all in the map has a known value (``eval_nodes`` at bits, as for an
    assignment), and the branch it never takes gets nothing: an ``if``'s
    other branch, a ``while``'s body when the guard is 0 and its ``next``
    when it is not.  A site that gets nothing is reached by no run and is
    not checked.  A head whose set or map shrinks sends the pass round its
    body again, so the head's are a fixpoint; both only shrink, so the
    pass ends.  A site takes its pc, and whether it is in a loop, from its
    enclosing block's entry; ``if`` and ``while`` raise the pc by their
    guard.

    ``x := e`` and an ordinary ``declass`` put x in the set when the pc
    and e are low, and take it out otherwise; under any pc they bind x in
    the map to e's value (``eval_nodes`` at bits) when all the variables
    e still reads are in it, and unbind it otherwise; ``x := x`` leaves
    both as they were.  ``input(x, c)`` needs the pc low when c is
    observable and then puts x in the set; from any other channel it takes
    x out; it always unbinds x.  ``output(e, c)``
    needs c unobservable, or the pc and e low.  A real ``x := declass(e)``
    (as in delimited release) binds x as an assignment does, and puts x in
    the set under a low pc when e is low or the site is outside every
    ``while`` body, and takes it out otherwise.  The release premise: such
    a site under a low pc and outside every loop puts e in as well when e
    is a bare variable.  Every observable variable must be low at the end,
    unless no run reaches the end.

    Typable implies that the composed model cannot reach error.  Take two
    runs that start observably equal, with the same observable input
    streams, that both halt and that meet the model's downgrade premise.
    A variable in a site's map holds its value in every run that reaches
    the site: every program expression is read at bits, by the model and
    the interpreter alike, no run starts with a known value, each binding
    is the value of an expression over known values, and a meet keeps only
    what every incoming path agrees on.  So a guard with a known value
    sends both runs the same way, and a site that gets nothing,
    the end included, is reached by neither: when no run reaches the end,
    no run halts and the model never reaches error.
    An operator whose two operands are the same expression reads one value
    on both sides in any run, since an expression writes nothing, so it has
    its fixed value whatever its operands' variables hold, and folding it in
    place leaves the expression's value as it was.
    An expression with a known value has that value in both runs, so it is
    equal in both.  ``x := x`` changes neither run's store, so it keeps
    every name where it was, under any pc.
    Both runs execute the same low-pc sites in the same order.  A high-pc
    region, an ``if`` or a ``while`` whose guard may differ, puts no name
    in the set, touches no observable channel and takes out every variable
    it writes, so where both runs leave it, a name still in the set is one
    neither run wrote inside it.  So, site by site, each low name at a site
    is equal in both runs there, and so are the observable channel
    positions: an assignment reads equal values, an observable read takes
    the same position of the shared stream, and an observable output
    writes equal values.  A real downgrade under a low pc outside every
    loop runs once in each run or in neither, and the premise blocks run
    two unless it releases the value run one recorded at that site: so the
    target is equal, and a released bare variable, whose value is the
    released value, is equal too.  No other expression gets this: equal
    values of ``y + z`` need not make y or z equal.  In a loop, run
    two is matched only against run one's last release there, so earlier
    ones could differ; such a target must read a low value.  So the final
    stores and the output streams are observably equal and the end check
    never fires.  A blocked read, a full channel or a run that does not
    halt only stops a run, which the termination-insensitive property
    allows.  A level that observes everything types trivially and keeps
    its own reason.
    """
    names = (*program.variables, *program.channels)
    low = {n for n in names if policy.observable(n, level)}
    if len(low) == len(names):
        return OBSERVES_EVERYTHING
    flow = program.flow
    start = frozenset(n for n in program.variables if n in low)
    # position (None: the end) -> (set, map); a position no run reaches has neither
    entry: dict[Optional[int], tuple[frozenset[str], dict[str, int]]] = {0: (start, {})}
    inner = {None: (True, False)}  # block position -> (pc low, in a while body) inside it

    def meet(position: Optional[int], eq: frozenset[str], known: dict[str, int]) -> bool:
        """Meet a set and a map into a position's entry; True when either shrank."""
        old = entry.get(position)
        if old is None:
            entry[position] = (eq, known)
            return False
        old_eq, old_known = old
        eq = old_eq & eq
        if old_known.items() <= known.items():
            entry[position] = (eq, old_known)
            return len(eq) < len(old_eq)
        entry[position] = (eq, dict(old_known.items() & known.items()))
        return True

    i = 0
    while i < len(flow):
        if i not in entry:  # no run reaches this site
            i += 1
            continue
        cmd, nxt, block = flow[i]
        after = None if nxt is None else nxt.site.id
        pc, looped = inner[block]
        eq, known = entry[i]
        e = site_expr(cmd)
        if e is not None:
            folded = _fold(postfix(e))
            used = {node.name for node in folded if type(node) is Var}
            is_low = used - eq <= known.keys()
            value = eval_nodes(folded, known, bits) if used <= known.keys() else None
        match cmd:
            case If() | While():
                loop = type(cmd) is While
                inner[i] = (pc and is_low, looped or loop)
                if value != 0:
                    meet(i + 1, eq, known)
                if not value:
                    meet(after if loop else first_site(cmd.else_branch).site.id, eq, known)
                i += 1
                continue
            case DeclassAssign(site, target, _) if policy.declass_real.get(site.id):
                kept = pc and (not looped or is_low)
                eq = eq | {target} if kept else eq - {target}
                if pc and not looped and type(e) is Var:
                    eq = eq | {e.name}
                known = _bind(known, target, value)
            case Assign(_, target, Var(name)) | DeclassAssign(_, target, Var(name)) if name == target:
                pass  # x := x changes no store
            case Assign(_, target, _) | DeclassAssign(_, target, _):
                eq = eq | {target} if pc and is_low else eq - {target}
                known = _bind(known, target, value)
            case Input(_, target, channel):
                if channel in low:
                    if not pc:
                        return ""
                    eq = eq | {target}
                else:
                    eq = eq - {target}
                known = _bind(known, target, None)
            case Output(_, _, channel):
                if channel in low and not (pc and is_low):
                    return ""
        shrank = meet(after, eq, known)
        i = after if after is not None and after <= i and shrank else i + 1
    if None not in entry:  # no run halts
        return TYPABLE
    eq, known = entry[None]
    return TYPABLE if start - eq <= known.keys() else ""
