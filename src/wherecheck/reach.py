"""Forward reachability over the composed finite-state system.

post_star runs a layered forward image search: layer k holds, per control
symbol, the set of valuations first reached in exactly k rule applications,
each set one BDD over the current levels.  Layer k+1 is the image of layer
k under every rule, less everything already reached.  The search stops at
the first layer that holds the error symbol, or when a layer adds nothing,
so is_error_reachable reads where it stopped.  Rules are applied in
declaration order and symbols in the order a layer first met them, so the
search statistics are deterministic.

A composed model whose level observes every variable and every channel is
not searched: post_star returns the automaton of the start layer alone,
with a reason.  That is exact.  Two runs that agree on every variable and
every input stream start in the same state, and the interpreter is
deterministic, so they take the same steps, release the same values and
end equal; the error symbol is unreachable.  A bare SPDS carries no
policy, so post_star always searches it; the tests use that to hold the
argument against the full search.

Witness extraction walks back over the stored layers: from the least
valuation at error in the last layer, it takes at every layer the first
rule into the current symbol, in declaration order, whose pre-image of
that valuation's cube meets the previous layer, and picks the least
valuation there.  That gives one shortest path.  Cubes are built one node
per bit and least valuations read off paths of the diagram, with no
conjunction and no recursion.  The mismatch is read from that path: the
step that first set the store-match MISMATCH cell names the output channel
and position; failing that, the first observable variable whose two copies
differ at the end; under tr, the channel checker that entered error.  The
decoded two-run counterexample is replayed through the reference
interpreter and the replay verdict is recorded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .bdd import BDD
from .compose import MISMATCH, ComposedModel
from .modelgen import xi_name
from .semantics import OUTCOME_HALTED, Trace, low_equiv_store, run_program
from .spds import Piece, RelationAlgebra, SPDS
from .syntax import Input

_SITE = re.compile(r"g(\d+)$")
OBSERVES_EVERYTHING = "observes every variable and channel"


def _spds_of(model: Union[ComposedModel, SPDS]) -> SPDS:
    return model if isinstance(model, SPDS) else model.spds


@dataclass
class PAutomaton:
    """The layers of one forward search, kept for the witness walk.

    steps counts frontier expansions, one per (layer, symbol): each pushes
    the valuations the symbol first reached in that layer through its
    rules.  edge_count counts the control symbols reached.  A level that
    observes everything is decided without a search (see the module
    docstring): its automaton holds the start layer alone, compiles no rule
    relation, takes no step, and says why in reason.
    """

    spds: SPDS
    algebra: RelationAlgebra
    layers: list[dict[str, int]]  # per layer: symbol -> valuations first reached there
    reached: dict[str, int]  # symbol -> every valuation reached
    rule_relations: list[tuple[Piece, ...]]  # the pieces of each rule
    steps: int
    reason: str = ""  # why the search was skipped; empty when it ran

    @property
    def edge_count(self) -> int:
        return len(self.reached)

    @property
    def node_count(self) -> int:
        return len(self.algebra.mgr)


def _through(
    mgr: BDD, step: Callable[[int, int, frozenset[str]], int], pieces: tuple[Piece, ...], s: int
) -> int:
    """The union over a rule's pieces of step(relation, s, written).

    With step the algebra's transpose_compose this is the rule's image of
    s; with its preimage, the rule's pre-image.
    """
    out = mgr.FALSE
    for rel, written in pieces:
        out = mgr.disj(out, step(rel, s, written))
    return out


def _rules_by(spds: SPDS, side: str) -> dict[str, list[int]]:
    """The indices of the rules on each symbol of one side, in declaration order."""
    out: dict[str, list[int]] = {}
    for i, rule in enumerate(spds.rules):
        out.setdefault(getattr(rule, side), []).append(i)
    return out


def post_star(model: Union[ComposedModel, SPDS], node_budget: Optional[int] = None) -> PAutomaton:
    spds = _spds_of(model)
    alg = RelationAlgebra(spds.globals, BDD(node_budget=node_budget))
    mgr = alg.mgr
    init = alg.set_from_fixed(dict(spds.initial_fixed))
    if isinstance(model, ComposedModel) and model.skeleton.observes_everything:
        start = {spds.start: init}
        return PAutomaton(spds, alg, [start], dict(start), [], 0, reason=OBSERVES_EVERYTHING)
    rels = [alg.compile_spec(rule.spec) for rule in spds.rules]
    rules_by_lhs = _rules_by(spds, "lhs")

    reached = {spds.start: init}
    layers = [{spds.start: init}]
    steps = 0
    while spds.error not in layers[-1]:
        grown: dict[str, int] = {}
        for sym, frontier in layers[-1].items():
            steps += 1
            for i in rules_by_lhs.get(sym, ()):
                target = spds.rules[i].rhs
                old = reached.get(target, mgr.FALSE)
                fresh = mgr.diff(_through(mgr, alg.transpose_compose, rels[i], frontier), old)
                if fresh == mgr.FALSE:
                    continue
                reached[target] = mgr.disj(old, fresh)
                grown[target] = mgr.disj(grown.get(target, mgr.FALSE), fresh)
        if not grown:
            break
        layers.append(grown)

    return PAutomaton(
        spds=spds, algebra=alg, layers=layers, reached=reached, rule_relations=rels, steps=steps
    )


def is_error_reachable(auto: PAutomaton, model: Union[ComposedModel, SPDS, None] = None) -> bool:
    """Whether the search stopped on a layer that holds the error symbol."""
    error = auto.spds.error
    if error is None:
        raise ValueError("system declares no error symbol")
    return error in auto.layers[-1]


# ---------------------------------------------------------------------------
# Witness extraction


@dataclass
class WitnessStep:
    rule_index: Optional[int]  # None for the initial configuration
    note: str
    valuation: dict[str, int]
    symbol: str


@dataclass
class Witness:
    steps: list[WitnessStep]
    mu1: dict[str, int]
    mu2: dict[str, int]
    inputs1: dict[str, tuple[int, ...]]
    inputs2: dict[str, tuple[int, ...]]
    channel: Optional[str]  # the output channel that differs; None for the final store
    index: int  # position in that channel, or of the variable in observable_vars
    replay_ok: bool = False
    runs: tuple[Trace, ...] = field(default=(), repr=False)  # the two replayed runs

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    @property
    def replay_outcomes(self) -> tuple[str, ...]:
        return tuple(trace.outcome for trace in self.runs)


def _backward_path(auto: PAutomaton) -> tuple[tuple[int, ...], str, list]:
    """Concretize one shortest error path; first rule in declaration order wins ties."""
    spds, alg, layers = auto.spds, auto.algebra, auto.layers
    sym = spds.error
    val = alg.pick_set(layers[-1][sym])
    rules_by_rhs = _rules_by(spds, "rhs")
    tail: list[tuple[int, tuple[int, ...], str]] = []
    for k in range(len(layers) - 1, 0, -1):
        here = alg.set_from_valuation(val)
        for i in rules_by_rhs.get(sym, ()):
            rule = spds.rules[i]
            prev = layers[k - 1].get(rule.lhs)
            if prev is None:
                continue
            pre = _through(alg.mgr, alg.preimage, auto.rule_relations[i], here)
            cand = alg.mgr.conj(pre, prev)
            if cand == alg.mgr.FALSE:
                continue
            tail.append((i, val, sym))
            val, sym = alg.pick_set(cand), rule.lhs
            break
        else:
            raise RuntimeError("path reconstruction lost the predecessor layer")
    return val, sym, list(reversed(tail))


def _strip_second_run(symbol: str) -> tuple[str, bool]:
    if symbol.startswith("xi(") and symbol.endswith(")"):
        return symbol[3:-1], True
    return symbol, False


def _decode(model: ComposedModel, steps: list[WitnessStep]) -> Witness:
    skel = model.skeleton
    program, policy, level = skel.program, skel.policy, skel.level
    base = steps[1].valuation if len(steps) > 1 else steps[0].valuation
    mu1 = {x: base[x] for x in program.variables}
    mu2 = {x: base[xi_name(x)] for x in program.variables}

    inputs1: dict[str, list[int]] = {}
    inputs2: dict[str, list[int]] = {}
    for spec in skel.inputs:  # observable channels share one recorded stream
        stream = [base[c] for c in spec.cells]
        inputs1[spec.name] = list(stream)
        inputs2[spec.name] = list(stream)
    rules = model.spds.rules
    for st in steps[1:]:
        rule = rules[st.rule_index]
        sym, second = _strip_second_run(rule.lhs)
        m = _SITE.match(sym)
        if not m:
            continue
        cmd = program.site_command(int(m.group(1)))
        if isinstance(cmd, Input) and not policy.observable(cmd.channel, level):
            target = xi_name(cmd.target) if second else cmd.target
            bucket = inputs2 if second else inputs1
            bucket.setdefault(cmd.channel, []).append(st.valuation[target])

    channel, index = _mismatch_location(model, steps)
    return Witness(
        steps=steps,
        mu1=mu1,
        mu2=mu2,
        inputs1={c: tuple(v) for c, v in inputs1.items()},
        inputs2={c: tuple(v) for c, v in inputs2.items()},
        channel=channel,
        index=index,
    )


def _mismatch_location(
    model: ComposedModel, steps: list[WitnessStep]
) -> tuple[Optional[str], int]:
    skel = model.skeleton
    last = model.spds.rules[steps[-1].rule_index]
    before = steps[-2].valuation
    m = re.match(r"chk(\d+)$", last.lhs)  # tr's channel checker
    if m:
        spec = skel.outputs[int(m.group(1))]
        q1, q2 = before[spec.index], before[xi_name(spec.index)]
        if q1 != q2:
            return spec.name, min(q1, q2)
        for k, cell in enumerate(spec.cells):
            if k < q1 and before[cell] != before[xi_name(cell)]:
                return spec.name, k
        raise RuntimeError("checker fired without a stream difference")
    for k in range(1, len(steps)):
        if steps[k].valuation.get(MISMATCH):
            site, _ = _strip_second_run(model.spds.rules[steps[k].rule_index].lhs)
            name = skel.sites[site].channel
            return name, steps[k - 1].valuation[skel.output_spec(name).index]
    for k, x in enumerate(skel.observable_vars):
        if before[x] != before[xi_name(x)]:
            return None, k
    raise RuntimeError("end check fired without a difference")


def _stream_difference(o1: tuple[int, ...], o2: tuple[int, ...], k: int) -> bool:
    in1, in2 = k < len(o1), k < len(o2)
    if in1 and in2:
        return o1[k] != o2[k]
    return in1 != in2


def _releases(trace) -> dict[int, list[int]]:
    by_site: dict[int, list[int]] = {}
    for site, value in trace.declass_events():
        by_site.setdefault(site, []).append(value)
    return by_site


def replay_witness(model: ComposedModel, witness: Witness) -> tuple[bool, tuple[Trace, Trace]]:
    """Run both decoded executions and confirm the claimed observation gap.

    Returns whether the gap is confirmed, and the two traces.  The gap
    counts only under the downgrade premise: every downgrade site that both
    runs execute must release the same values.
    """
    skel = model.skeleton
    fuel = max(1024, 8 * len(witness.steps))
    kw = dict(bits=skel.bits, capacity=skel.capacity, fuel=fuel)
    t1 = run_program(skel.program, skel.policy, store=witness.mu1, inputs=witness.inputs1, **kw)
    t2 = run_program(skel.program, skel.policy, store=witness.mu2, inputs=witness.inputs2, **kw)
    runs = (t1, t2)
    if (t1.outcome, t2.outcome) != (OUTCOME_HALTED, OUTCOME_HALTED):
        return False, runs
    if not low_equiv_store(witness.mu1, witness.mu2, skel.level, skel.policy):
        return False, runs
    rel1, rel2 = _releases(t1), _releases(t2)
    if any(rel1[site] != rel2[site] for site in rel1.keys() & rel2.keys()):
        return False, runs
    if witness.channel is None:
        var = skel.observable_vars[witness.index]
        ok = t1.final.mu.get(var) != t2.final.mu.get(var)
    else:
        ok = _stream_difference(
            t1.final.outs.get(witness.channel, ()),
            t2.final.outs.get(witness.channel, ()),
            witness.index,
        )
    return ok, runs


def extract_witness(auto: PAutomaton, model: ComposedModel) -> Witness:
    if not is_error_reachable(auto, model):
        raise ValueError("the error symbol is not reachable")
    spds = model.spds
    val0, sym0, tail = _backward_path(auto)
    as_dict = spds.globals.as_dict
    steps = [WitnessStep(None, "initial", as_dict(val0), sym0)]
    for i, val, sym in tail:
        steps.append(WitnessStep(i, spds.rules[i].note, as_dict(val), sym))
    witness = _decode(model, steps)
    witness.replay_ok, witness.runs = replay_witness(model, witness)
    return witness


def format_witness(model: ComposedModel, witness: Witness) -> str:
    skel = model.skeleton
    lines = [
        f"counterexample after {witness.length} rule applications",
        f"run 1: store {witness.mu1} inputs {witness.inputs1}",
        f"run 2: store {witness.mu2} inputs {witness.inputs2}",
    ]
    if witness.channel is None:
        var = skel.observable_vars[witness.index]
        lines.append(f"mismatch: final value of {var}")
    else:
        lines.append(f"mismatch: channel {witness.channel} position {witness.index}")
    lines.append(
        "replay: confirmed" if witness.replay_ok else f"replay: FAILED {witness.replay_outcomes}"
    )
    return "\n".join(lines)
