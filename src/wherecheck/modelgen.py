"""Translate a program, a policy and an observer level into a finite-state model.

Each command site becomes a control symbol; control flow is a chain of
guarded rules between sites.  Channels above the observer level are not
modeled at all: reads from them havoc the target variable and writes to
them are frame rules.  Observable channels get value cells and an index
counter.  A read past the end of an observable input has no successor: as
in the interpreter, such a run is stuck and never halts.

Each real downgrade site and each observable-output site is one plain rule
to its continuation, and the skeleton's site table maps its symbol to its
command.  What it does depends on the run, so the self-composition pass
replaces it, in each run, with the site's own store or match rules.  The
program's last command leads to the final symbol, where the
self-composition restarts as the second run and, at the second run's end,
compares the two runs' final stores.

Rules hold the parser's own expression objects; the model adds only the
guards and updates of channel bookkeeping, built from the same syntax
classes with model globals as Var names and channel reads as CellRef.
"""

from __future__ import annotations

from dataclasses import dataclass

from .policy import Policy
from .semantics import DEFAULT_BITS, DEFAULT_CAPACITY
from .spds import HAVOC, GlobalsDecl, Rule, RuleSpec, SPDS, dump_spds
from .syntax import (
    Assign,
    BinOp,
    CellRef,
    Command,
    DeclassAssign,
    If,
    Input,
    Num,
    Output,
    Program,
    Seq,
    Skip,
    Var,
    While,
    format_command,
    format_expr,
    walk_commands,
)

FINAL_SYMBOL = "end"


def cell_name(channel: str, k: int) -> str:
    return f"{channel}[{k}]"


def p_name(channel: str) -> str:
    return f"p[{channel}]"


def q_name(channel: str) -> str:
    return f"q[{channel}]"


def d_name(i: int) -> str:
    return f"D[{i}]"


def xi_name(name: str) -> str:
    return f"xi({name})"


def site_symbol(site_id: int) -> str:
    return f"g{site_id}"


def index_width(count: int) -> int:
    # The counter must be able to hold the one-past-the-end position.
    return (count + 1).bit_length()


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    cells: tuple[str, ...]
    index: str  # p[...] or q[...]

    @property
    def length(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class ModelSkeleton:
    spds: SPDS
    level: str
    bits: int
    capacity: int
    program: Program
    policy: Policy
    observable_vars: tuple[str, ...]
    rho: dict[int, int]  # real downgrade site -> its D cell, in site order
    inputs: tuple[ChannelSpec, ...]
    outputs: tuple[ChannelSpec, ...]
    sites: dict[str, Command]  # real downgrade and observable-output sites, by symbol

    @property
    def observes_everything(self) -> bool:
        """Whether the level observes every variable and every channel of the program."""
        channels = {spec.name for spec in self.inputs + self.outputs}
        return len(self.observable_vars) == len(self.program.variables) and channels == set(
            self.program.channels
        )

    def output_spec(self, channel: str) -> ChannelSpec:
        for spec in self.outputs:
            if spec.name == channel:
                return spec
        raise KeyError(channel)


def make_globals(
    variables: tuple[str, ...],
    bits: int,
    inputs: tuple[ChannelSpec, ...],
    outputs: tuple[ChannelSpec, ...],
    declass_count: int,
) -> GlobalsDecl:
    cells: list[tuple[str, int]] = []
    control: set[str] = set()  # channel indices
    for name in variables:
        cells.append((name, bits))
    for spec in inputs + outputs:
        for cname in spec.cells:
            cells.append((cname, bits))
        cells.append((spec.index, index_width(spec.length)))
        control.add(spec.index)
    for i in range(declass_count):
        cells.append((d_name(i), bits))
    return GlobalsDecl(tuple(cells), frozenset(control))


def _first_symbol(cmd: Command) -> str:
    while isinstance(cmd, Seq):
        cmd = cmd.first
    return site_symbol(cmd.site.id)


def _check_names(program: Program) -> None:
    for name in program.variables:
        if name.startswith("xi("):
            raise ValueError(f"variable name {name!r} is reserved by the model")


def build_model(
    program: Program,
    policy: Policy,
    level: str,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
) -> ModelSkeleton:
    if not policy.declass_real and any(
        isinstance(c, DeclassAssign) for c in walk_commands(program.root)
    ):
        raise ValueError("policy has no downgrade marks; run gather_downgrades first")
    _check_names(program)

    observable_vars = tuple(
        name for name in program.variables if policy.observable(name, level)
    )
    real = sorted(site for site, is_real in policy.declass_real.items() if is_real)
    rho = {site: i for i, site in enumerate(real)}

    low_in = sorted(
        name
        for name, direction in program.channels.items()
        if direction == "input" and policy.observable(name, level)
    )
    low_out = sorted(
        name
        for name, direction in program.channels.items()
        if direction == "output" and policy.observable(name, level)
    )
    inputs = tuple(
        ChannelSpec(
            name,
            tuple(cell_name(name, k) for k in range(_input_length(policy, name, capacity))),
            p_name(name),
        )
        for name in low_in
    )
    outputs = tuple(
        ChannelSpec(name, tuple(cell_name(name, k) for k in range(capacity)), q_name(name))
        for name in low_out
    )
    observable_outputs = {spec.name for spec in outputs}

    globals_decl = make_globals(tuple(program.variables), bits, inputs, outputs, len(rho))

    input_by_name = {spec.name: spec for spec in inputs}
    rules: list[Rule] = []
    sites: dict[str, Command] = {}

    def emit(cmd: Command, next_sym: str) -> None:
        sym = site_symbol(cmd.site.id) if not isinstance(cmd, Seq) else None
        match cmd:
            case Seq(first, second):
                emit(first, _first_symbol(second))
                emit(second, next_sym)
            case Skip(_):
                rules.append(Rule(sym, next_sym, RuleSpec.make(), "skip"))
            case Assign(_, target, expr):
                spec = RuleSpec.make(updates={target: expr})
                rules.append(Rule(sym, next_sym, spec, f"{target} := ..."))
            case DeclassAssign(site, _, _) if site.id in rho:
                sites[sym] = cmd
                rules.append(Rule(sym, next_sym, RuleSpec.make(), "downgrade site"))
            case DeclassAssign(_, target, expr):
                spec = RuleSpec.make(updates={target: expr})
                rules.append(Rule(sym, next_sym, spec, f"{target} := ... (no downgrade)"))
            case If(_, guard, then_branch, else_branch):
                rules.append(
                    Rule(sym, _first_symbol(then_branch), RuleSpec.make(guard=guard), "if taken")
                )
                zero = BinOp("==", guard, Num(0))
                rules.append(
                    Rule(sym, _first_symbol(else_branch), RuleSpec.make(guard=zero), "if not taken")
                )
                emit(then_branch, next_sym)
                emit(else_branch, next_sym)
            case While(_, guard, body):
                rules.append(
                    Rule(sym, _first_symbol(body), RuleSpec.make(guard=guard), "loop entered")
                )
                zero = BinOp("==", guard, Num(0))
                rules.append(Rule(sym, next_sym, RuleSpec.make(guard=zero), "loop exited"))
                emit(body, sym)
            case Input(_, target, channel):
                if channel in input_by_name:
                    spec = input_by_name[channel]
                    in_range = RuleSpec.make(
                        guard=BinOp("<", Var(spec.index), Num(spec.length)),
                        updates={
                            target: _cell_read(spec),
                            spec.index: BinOp("+", Var(spec.index), Num(1)),
                        },
                    )
                    rules.append(Rule(sym, next_sym, in_range, f"read {channel}"))
                else:
                    spec = RuleSpec.make(updates={target: HAVOC})
                    rules.append(Rule(sym, next_sym, spec, f"unobservable read into {target}"))
            case Output(_, _, channel) if channel in observable_outputs:
                sites[sym] = cmd
                rules.append(Rule(sym, next_sym, RuleSpec.make(), f"write {channel}"))
            case Output(_, _, _):
                rules.append(Rule(sym, next_sym, RuleSpec.make(), "unobservable write"))
            case _:
                raise TypeError(f"unknown command: {cmd!r}")

    emit(program.root, FINAL_SYMBOL)

    initial_fixed = tuple(
        [(spec.index, 0) for spec in inputs] + [(spec.index, 0) for spec in outputs]
    )
    spds = SPDS(globals_decl, tuple(rules), _first_symbol(program.root), initial_fixed)
    return ModelSkeleton(
        spds=spds,
        level=level,
        bits=bits,
        capacity=capacity,
        program=program,
        policy=policy,
        observable_vars=observable_vars,
        rho=rho,
        inputs=inputs,
        outputs=outputs,
        sites=sites,
    )


def _input_length(policy: Policy, channel: str, capacity: int) -> int:
    declared = policy.channels[channel].length
    return declared if declared is not None else capacity


def _cell_read(spec: ChannelSpec) -> CellRef:
    return CellRef(spec.cells, spec.index, f"I({spec.name})")


def _describe_site(cmd: Command) -> str:
    """The command at a site; a branch or loop by its header only."""
    match cmd:
        case If(_, guard, _, _):
            return f"if {format_expr(guard)}"
        case While(_, guard, _):
            return f"while {format_expr(guard)}"
    return format_command(cmd)


def dump_model(skeleton: ModelSkeleton) -> str:
    lines = [dump_spds(skeleton.spds)]
    lines.append(f"# level {skeleton.level}, bits {skeleton.bits}, capacity {skeleton.capacity}")
    for cmd in skeleton.program.sites:
        lines.append(f"# site g{cmd.site.id}: {_describe_site(cmd)}")
    for site in sorted(skeleton.rho):
        lines.append(f"# downgrade g{site} -> {d_name(skeleton.rho[site])}")
    return "\n".join(lines)
