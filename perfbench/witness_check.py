"""Check a two-run counterexample against the reference interpreter.

This is the benchmark's own witness check, independent of
``reach.replay_witness``.  Both runs are replayed with
``semantics.run_program`` and the witness is accepted only when

- both runs halt,
- they start observably equal (stores, and contents of observable inputs),
- every downgrade site that both runs execute released the same values,
- they end with a differing observable variable or observable output stream.
"""

from __future__ import annotations

from wherecheck import semantics


def replay(program, policy, witness, bits, capacity):
    """The two runs the witness describes, as interpreter traces."""
    return tuple(
        semantics.run_program(
            program,
            policy,
            store=dict(store),
            inputs={ch: list(v) for ch, v in inputs.items()},
            bits=bits,
            capacity=capacity,
        )
        for store, inputs in ((witness.mu1, witness.inputs1), (witness.mu2, witness.inputs2))
    )


def _released(trace) -> dict[int, list[int]]:
    by_site: dict[int, list[int]] = {}
    for site, value in trace.declass_events():
        by_site.setdefault(site, []).append(value)
    return by_site


def runs_problem(policy, level, witness, t1, t2) -> str | None:
    """Why the two runs are no leak at ``level``, or None if they are one."""
    if (t1.outcome, t2.outcome) != (semantics.OUTCOME_HALTED,) * 2:
        return f"runs end {t1.outcome}/{t2.outcome}, not both halted"
    if not semantics.low_equiv_store(witness.mu1, witness.mu2, level, policy):
        return "initial stores differ observably"
    for name, ch in policy.channels.items():
        if ch.direction == "input" and policy.observable(name, level):
            if tuple(witness.inputs1.get(name, ())) != tuple(witness.inputs2.get(name, ())):
                return f"observable input {name} differs"
    rel1, rel2 = _released(t1), _released(t2)
    for site in sorted(rel1.keys() & rel2.keys()):
        if rel1[site] != rel2[site]:
            return f"site g{site} released {rel1[site]} vs {rel2[site]}"
    f1, f2 = t1.final, t2.final
    if not semantics.low_equiv_store(f1.mu, f2.mu, level, policy):
        return None
    for name, ch in policy.channels.items():
        if ch.direction == "output" and policy.observable(name, level):
            if f1.outs.get(name, ()) != f2.outs.get(name, ()):
                return None
    return "final observations are equal"


def witness_problem(program, policy, level, witness, bits, capacity) -> str | None:
    """Why the witness is not a real leak at ``level``, or None if it is."""
    t1, t2 = replay(program, policy, witness, bits, capacity)
    return runs_problem(policy, level, witness, t1, t2)
