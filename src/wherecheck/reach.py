"""Forward reachability over the composed pushdown system.

post_star saturates a small automaton whose edges carry relations over the
global valuations; a configuration (valuation, stack word) is reachable
from the initial set iff the automaton accepts it.  Edge relations use a
chain convention: a pair (g, c) on an edge means the edge's symbol can be
exposed as top of stack at valuation g, handing the promise c down to the
edge that consumes the next stack symbol.  The promise threads pushes and
pops so that acceptance needs no re-exploration: follow a path, linking
each edge's second component to the next edge's first.

A promise c on an edge into q is feasible when a path from q to the final
state can complete from it: the least sets F with F(final) holding every
valuation and F(p) holding g whenever (g, c) lies on an edge (p, sym, q)
with c in F(q), over the saturated automaton.  Every promise post_star
stores is feasible.  By induction over the order in which pairs are added,
and since edges only grow:

- the initial edge enters the final state, where every promise is feasible;
- a rename rule's transpose_compose keeps the promise c of the delta;
- a push rule puts identity_on_domain(moved), the pairs (b, b) with b in
  the domain of moved, on (initial, rhs0, m_i), and the same step puts
  moved, whose promises come from the delta, on (m_i, rhs1, q); so each
  such b is in F(m_i);
- both compose calls of a pop take each new pair's promise from an existing
  relation on an edge into the same target.

As grow stores no empty relation, a configuration with the error symbol on
top is reachable iff the automaton holds an (initial, error, q) edge, and
the decision is a lookup of the edge keys.

Push rules get one auxiliary mid-state each; the worklist carries
(edge, relation-delta) pairs and is FIFO over rules in declaration order,
so saturation statistics are deterministic.

Witness extraction does not walk the saturation history.  It re-runs a
layered breadth-first search with the same relation algebra (layer k holds
the valuations first reached in k rule applications, per stack word), then
concretizes one shortest path backwards, picking the numerically smallest
valuation at every step.  The mismatch is read from that path: the step
that first set the store-match MISMATCH cell names the output channel and
position; failing that, the first observable variable whose two copies
differ at the end; under tr, the channel checker that entered error.  The
decoded two-run counterexample is replayed through the reference
interpreter and the replay verdict is recorded.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .bdd import BDD, BudgetExceeded
from .compose import MISMATCH, ComposedModel
from .modelgen import xi_name
from .semantics import OUTCOME_HALTED, low_equiv_store, run_program
from .spds import RelationAlgebra, SPDS, successors
from .syntax import Input

INITIAL_STATE = "s"
FINAL_STATE = "f"

_SITE = re.compile(r"g(\d+)$")


def _spds_of(model: Union[ComposedModel, SPDS]) -> SPDS:
    return model if isinstance(model, SPDS) else model.spds


@dataclass
class PAutomaton:
    """Saturated reachability automaton for one pushdown system."""

    spds: SPDS
    algebra: RelationAlgebra
    initial: str
    final: str
    trans: dict[tuple[str, str, str], int]  # (state, symbol, state) -> relation
    eps: dict[str, int]  # state -> pop contraction relation
    rule_relations: list[tuple[int, frozenset[str]]]  # (relation, written cells) per rule
    steps: int  # worklist deltas processed

    @property
    def edge_count(self) -> int:
        return len(self.trans)

    @property
    def node_count(self) -> int:
        return len(self.algebra.mgr)


def post_star(model: Union[ComposedModel, SPDS], node_budget: Optional[int] = None) -> PAutomaton:
    spds = _spds_of(model)
    alg = RelationAlgebra(spds.globals, BDD(node_budget=node_budget))
    mgr = alg.mgr
    rels = [(alg.compile_spec(rule.spec), rule.spec.written_globals()) for rule in spds.rules]

    rules_by_lhs: dict[str, list[int]] = {}
    for i, rule in enumerate(spds.rules):
        rules_by_lhs.setdefault(rule.lhs, []).append(i)
    mid = {i: f"m{i}" for i, rule in enumerate(spds.rules) if len(rule.rhs) == 2}

    trans: dict[tuple[str, str, str], int] = {}
    out_edges: dict[str, list[tuple[str, str]]] = {}
    eps: dict[str, int] = {}
    queue: deque[tuple[str, str, str, int]] = deque()

    def grow(p: str, sym: str, q: str, cand: int) -> None:
        cur = trans.get((p, sym, q), mgr.FALSE)
        delta = mgr.diff(cand, cur)
        if delta == mgr.FALSE:
            return
        if (p, sym, q) not in trans:
            out_edges.setdefault(p, []).append((sym, q))
        trans[(p, sym, q)] = mgr.disj(cur, delta)
        queue.append((p, sym, q, delta))

    grow(INITIAL_STATE, spds.start, FINAL_STATE, alg.set_from_fixed(dict(spds.initial_fixed)))

    steps = 0
    while queue:
        p, sym, q, delta = queue.popleft()
        steps += 1
        if p == INITIAL_STATE:
            for i in rules_by_lhs.get(sym, ()):
                rule = spds.rules[i]
                rel, written = rels[i]
                moved = alg.transpose_compose(rel, delta, written)
                if moved == mgr.FALSE:
                    continue
                if len(rule.rhs) == 1:
                    grow(INITIAL_STATE, rule.rhs[0], q, moved)
                elif len(rule.rhs) == 2:
                    grow(INITIAL_STATE, rule.rhs[0], mid[i], alg.identity_on_domain(moved))
                    grow(mid[i], rule.rhs[1], q, moved)
                else:
                    held = eps.get(q, mgr.FALSE)
                    fresh = mgr.diff(moved, held)
                    if fresh == mgr.FALSE:
                        continue
                    eps[q] = mgr.disj(held, fresh)
                    for sym2, q2 in list(out_edges.get(q, ())):
                        grow(INITIAL_STATE, sym2, q2, alg.compose(fresh, trans[(q, sym2, q2)]))
        held = eps.get(p, mgr.FALSE)
        if held != mgr.FALSE:
            grow(INITIAL_STATE, sym, q, alg.compose(held, delta))

    return PAutomaton(
        spds=spds,
        algebra=alg,
        initial=INITIAL_STATE,
        final=FINAL_STATE,
        trans=trans,
        eps=eps,
        rule_relations=rels,
        steps=steps,
    )


def is_error_reachable(auto: PAutomaton, model: Union[ComposedModel, SPDS, None] = None) -> bool:
    """Whether an error-top configuration is reachable: a lookup of the edge keys.

    grow stores no empty relation and every promise is feasible (see the
    module docstring), so an (initial, error, q) edge answers the question.
    """
    error = auto.spds.error
    if error is None:
        raise ValueError("system declares no error symbol")
    return any(p == auto.initial and sym == error for p, sym, _ in auto.trans)


def explicit_error_search(
    model: Union[ComposedModel, SPDS], max_configs: int = 250_000
) -> bool:
    """Concrete breadth-first search; the independent check on post_star."""
    spds = _spds_of(model)
    if spds.error is None:
        raise ValueError("system declares no error symbol")
    seen: set[tuple[tuple[int, ...], tuple[str, ...]]] = set()
    work: deque[tuple[tuple[int, ...], tuple[str, ...]]] = deque(
        (val, (spds.start,)) for val in spds.initial_valuations()
    )
    while work:
        val, stack = work.popleft()
        if (val, stack) in seen:
            continue
        seen.add((val, stack))
        if len(seen) > max_configs:
            raise BudgetExceeded(f"explicit search budget {max_configs} exhausted")
        if stack and stack[0] == spds.error:
            return True
        for nxt in successors(spds, val, stack):
            if nxt not in seen:
                work.append(nxt)
    return False


# ---------------------------------------------------------------------------
# Witness extraction


@dataclass
class WitnessStep:
    rule_index: Optional[int]  # None for the initial configuration
    note: str
    valuation: dict[str, int]
    stack: tuple[str, ...]


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
    replay_outcomes: tuple[str, str] = ("", "")

    @property
    def length(self) -> int:
        return len(self.steps) - 1


def _forward_layers(spds: SPDS, alg: RelationAlgebra, rels: list[tuple[int, frozenset[str]]]):
    """Per-layer first-reached valuation sets, keyed by stack word."""
    mgr = alg.mgr
    start_word = (spds.start,)
    init = alg.set_from_fixed(dict(spds.initial_fixed))
    seen: dict[tuple[str, ...], int] = {start_word: init}
    layers: list[dict[tuple[str, ...], int]] = [{start_word: init}]
    depth_cap = len(spds.alphabet) + 2
    while True:
        frontier = layers[-1]
        grown: dict[tuple[str, ...], int] = {}
        for word, dset in frontier.items():
            if not word:
                continue
            for i, rule in enumerate(spds.rules):
                if rule.lhs != word[0]:
                    continue
                rel, written = rels[i]
                img = alg.transpose_compose(rel, dset, written)
                if img == mgr.FALSE:
                    continue
                nw = rule.rhs + word[1:]
                if len(nw) > depth_cap:
                    continue
                old = seen.get(nw, mgr.FALSE)
                delta = mgr.diff(img, old)
                if delta == mgr.FALSE:
                    continue
                seen[nw] = mgr.disj(old, delta)
                grown[nw] = mgr.disj(grown.get(nw, mgr.FALSE), delta)
        if not grown:
            return layers, False
        layers.append(grown)
        if any(w and w[0] == spds.error for w in grown):
            return layers, True


def _backward_path(
    spds: SPDS, alg: RelationAlgebra, rels: list[tuple[int, frozenset[str]]], layers
):
    """Concretize one shortest error path; first rule in declaration order wins ties."""
    last = layers[-1]
    word = next(w for w in last if w and w[0] == spds.error)
    val = alg.pick_set(last[word])
    tail: list[tuple[int, tuple[int, ...], tuple[str, ...]]] = []
    for k in range(len(layers) - 1, 0, -1):
        here = alg.set_from_valuation(val)
        for i, rule in enumerate(spds.rules):
            n = len(rule.rhs)
            if word[:n] != rule.rhs:
                continue
            pred_word = (rule.lhs,) + word[n:]
            prev = layers[k - 1].get(pred_word)
            if prev is None:
                continue
            rel, written = rels[i]
            cand = alg.mgr.conj(alg.preimage(rel, here, written), prev)
            if cand == alg.mgr.FALSE:
                continue
            tail.append((i, val, word))
            val, word = alg.pick_set(cand), pred_word
            break
        else:
            raise RuntimeError("path reconstruction lost the predecessor layer")
    return val, word, list(reversed(tail))


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
            entry, _ = _strip_second_run(model.spds.rules[steps[k].rule_index].lhs)
            name = next(n for n, (e, _) in skel.output_symbols.items() if e == entry)
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


def replay_witness(model: ComposedModel, witness: Witness) -> tuple[bool, tuple[str, str]]:
    """Run both decoded executions and confirm the claimed observation gap.

    The gap counts only under the downgrade premise: every downgrade site
    that both runs execute must release the same values.
    """
    skel = model.skeleton
    fuel = max(1024, 8 * len(witness.steps))
    kw = dict(bits=skel.bits, capacity=skel.capacity, fuel=fuel)
    t1 = run_program(skel.program, skel.policy, store=witness.mu1, inputs=witness.inputs1, **kw)
    t2 = run_program(skel.program, skel.policy, store=witness.mu2, inputs=witness.inputs2, **kw)
    outcomes = (t1.outcome, t2.outcome)
    if outcomes != (OUTCOME_HALTED, OUTCOME_HALTED):
        return False, outcomes
    if not low_equiv_store(witness.mu1, witness.mu2, skel.level, skel.policy):
        return False, outcomes
    rel1, rel2 = _releases(t1), _releases(t2)
    if any(rel1[site] != rel2[site] for site in rel1.keys() & rel2.keys()):
        return False, outcomes
    if witness.channel is None:
        var = skel.observable_vars[witness.index]
        ok = t1.final.mu.get(var) != t2.final.mu.get(var)
    else:
        ok = _stream_difference(
            t1.final.outs.get(witness.channel, ()),
            t2.final.outs.get(witness.channel, ()),
            witness.index,
        )
    return ok, outcomes


def extract_witness(auto: PAutomaton, model: ComposedModel) -> Witness:
    if not is_error_reachable(auto, model):
        raise ValueError("no error-top configuration is reachable")
    spds = model.spds
    alg, rels = auto.algebra, auto.rule_relations
    layers, found = _forward_layers(spds, alg, rels)
    if not found:
        raise RuntimeError("saturation and layered search disagree on reachability")
    val0, word0, tail = _backward_path(spds, alg, rels, layers)
    as_dict = spds.globals.as_dict
    steps = [WitnessStep(None, "initial", as_dict(val0), word0)]
    for i, val, word in tail:
        steps.append(WitnessStep(i, spds.rules[i].note, as_dict(val), word))
    witness = _decode(model, steps)
    witness.replay_ok, witness.replay_outcomes = replay_witness(model, witness)
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
