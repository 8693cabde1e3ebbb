"""Security policies: finite lattice of domains, level map, downgrade relation.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .syntax import (
    DeclassAssign,
    Expr,
    Program,
    Seq,
    expr_vars,
    walk_commands,
)

class PolicyError(Exception):
    """Malformed policy file or policy/program mismatch."""


@dataclass(frozen=True)
class Channel:
    name: str
    level: str
    direction: str  # "input" | "output"
    length: Optional[int] = None  # declared input extent; None = default


@dataclass(frozen=True)
class Policy:
    """Security policy: (domains, order, downgrades, level assignment)."""

    domains: tuple[str, ...]
    order: frozenset[tuple[str, str]]  # reflexive-transitive, pairs (lo, hi)
    sigma: dict[str, str]  # variable and channel names to domains
    channels: dict[str, Channel] = field(default_factory=dict)
    downgrades: frozenset[tuple[str, str]] = frozenset()  # (from, to)
    declass_real: dict[int, bool] = field(default_factory=dict)  # site id -> real?

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
    )


def format_policy(policy: Policy) -> str:
    """Render a policy back to file syntax (edges as a transitive reduction)."""
    edges = []
    for a in policy.domains:
        for b in policy.domains:
            if policy.lt(a, b) and not any(
                policy.lt(a, c) and policy.lt(c, b) for c in policy.domains
            ):
                edges.append(f"{a} < {b}")
    items = edges or list(policy.domains)
    lines = ["lattice: " + ", ".join(items)]
    for name, level in sorted(policy.sigma.items()):
        if name in policy.channels:
            ch = policy.channels[name]
            suffix = f" length {ch.length}" if ch.length is not None else ""
            lines.append(f"channel {name} : {level} {ch.direction}{suffix}")
        else:
            lines.append(f"var {name} : {level}")
    return "\n".join(lines) + "\n"


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
    for name, direction in sorted(program.channels.items()):
        ch = policy.channels.get(name)
        if ch is None:
            raise PolicyError(f"channel {name!r} has no declaration")
        if ch.direction != direction:
            raise PolicyError(
                f"channel {name!r} is declared {ch.direction} but used for {direction}"
            )


def gather_downgrades(program: Program, policy: Policy) -> Policy:
    """Collect the downgrade relation and classify declassification sites.

    A site x := declass(e) with sigma(x) strictly below sigma(e) performs a
    real downgrade and contributes (sigma(e), sigma(x)); any other declass
    site behaves as an ordinary assignment.  Also validates that the policy
    covers the program and that every expression in it has a join.  The
    result is a new Policy; the computation is idempotent.
    """
    validate_bindings(program, policy)
    for cmd in walk_commands(program.root):
        if isinstance(cmd, Seq):
            continue
        for e in _command_exprs(cmd):
            domain_of_expr(e, policy)  # raises when a join is missing
    downgrades: set[tuple[str, str]] = set()
    declass_real: dict[int, bool] = {}
    for cmd in walk_commands(program.root):
        if not isinstance(cmd, DeclassAssign):
            continue
        target_level = policy.level_of(cmd.target)
        expr_level = domain_of_expr(cmd.expr, policy)
        real = policy.lt(target_level, expr_level)
        declass_real[cmd.site.id] = real
        if real:
            downgrades.add((expr_level, target_level))
    assert all(pair not in policy.order for pair in downgrades), (
        "downgrade relation must be disjoint from the lattice order"
    )
    return replace(
        policy,
        downgrades=frozenset(downgrades),
        declass_real=declass_real,
    )


def _command_exprs(cmd) -> list[Expr]:
    match cmd:
        case DeclassAssign(_, _, expr):
            return [expr]
        case _ if hasattr(cmd, "expr"):
            return [cmd.expr]
        case _ if hasattr(cmd, "guard"):
            return [cmd.guard]
        case _:
            return []
