"""Verdicts, search counts and witnesses pinned across commits.

Each line of ``pinned_outputs.txt`` is one (program, bits, mode, level):
the verdict, the forward search's ``steps`` and ``edge_count``, and the first
16 hex digits of a sha256 over the formatted witness and its step path
(``-`` on a secure level).  Each line of ``decoded_witnesses.txt`` is one
insecure (program, bits, mode, level): the decoded witness without its
path, that is both initial stores and input streams, the ``mismatch:`` line
of ``format_witness`` and whether the witness replays.  Each line of
``pinned_oracle.txt`` is the brute-force oracle's where-security verdict on
one benchmark input (``table3`` and ``iobench`` at bits 2 and capacity 8, the
103 ``randprog-sweep`` programs at bits 2 and capacity 4): its status,
``pairs_checked`` and note, and its witness's level, both initial states and
reason.  Each line of ``pinned_traces.txt`` pins the reference interpreter on
one of those oracle inputs: a sha256 over the lone run of every initial
state (its ``format_trace`` text, final configuration with the remaining
command its point stands for, and ``declass_events()``), at the default
fuel and at fuel 3.  A change that
means to move none of these leaves all four files as they are; on a
mismatch the test names the first line that differs.  Regenerate them,
only when an output is meant to change, with

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

from __future__ import annotations

import functools
import hashlib
import sys
from pathlib import Path

from wherecheck.compose import MODE_STORE_MATCH, MODE_TR, self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.oracle import _Runs, check_where_security
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, generate
from wherecheck.reach import extract_witness, format_witness, is_error_reachable, post_star
from wherecheck.semantics import DECLASS, DEFAULT_FUEL, format_trace, run_program
from tree_step import residual

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "pinned_outputs.txt"
DECODED = Path(__file__).resolve().parent / "decoded_witnesses.txt"
ORACLE = Path(__file__).resolve().parent / "pinned_oracle.txt"
TRACES = Path(__file__).resolve().parent / "pinned_traces.txt"

# The randprog-sweep benchmark's programs: seeds 0-99, odd seeds with
# channel I/O, plus three more I/O seeds.
SWEEP_SEEDS = [(s, s % 2 == 1) for s in range(100)] + [(113, True), (135, True), (141, True)]


def _corpus(corpus: str, name: str) -> tuple[str, str]:
    path = ROOT / "corpus" / corpus / name
    return path.read_text(), path.with_suffix(".policy").read_text()


def _cases():
    """(name, program text, policy text, bits, capacity, mode), in a fixed order."""
    for i in range(8):
        for bits in (2, 3, 4):
            yield (f"table3/P{i}", *_corpus("table3", f"P{i}"), bits, 8, MODE_STORE_MATCH)
    for i in range(8):
        for mode in (MODE_STORE_MATCH, MODE_TR):
            yield (f"iobench/B{i}", *_corpus("iobench", f"B{i}"), 2, 8, mode)
    for seed in range(100):
        for io in (False, True):
            gen = generate(seed, GenConfig(io=io))
            name = f"randprog/{seed}{'io' if io else ''}"
            yield name, gen.text, gen.policy_text, 2, 4, MODE_STORE_MATCH


def _oracle_cases():
    """(name, program text, policy text, bits, capacity) of each benchmark input."""
    for corpus, stem in (("table3", "P"), ("iobench", "B")):
        for i in range(8):
            yield (f"{corpus}/{stem}{i}", *_corpus(corpus, f"{stem}{i}"), 2, 8)
    for seed, io in SWEEP_SEEDS:
        gen = generate(seed, GenConfig(io=io))
        yield f"randprog/{seed}{'io' if io else ''}", gen.text, gen.policy_text, 2, 4


def _witness_digest(model, witness) -> str:
    path = [
        (step.rule_index, step.note, sorted(step.valuation.items()), step.symbol)
        for step in witness.steps
    ]
    text = format_witness(model, witness) + "\n" + repr(path)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _decoded_line(prefix: str, model, witness) -> str:
    mismatch = next(
        line for line in format_witness(model, witness).splitlines() if line.startswith("mismatch:")
    )
    return (
        f"{prefix} mu1={witness.mu1} mu2={witness.mu2} inputs1={witness.inputs1} "
        f"inputs2={witness.inputs2} {mismatch} replay_ok={witness.replay_ok}"
    )


@functools.cache
def _outputs() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The lines of the pinned-output file and of the decoded-witness file."""
    lines, decoded = [], []
    for name, text, policy_text, bits, capacity, mode in _cases():
        program = parse_program(text)
        policy = gather_downgrades(program, parse_policy(policy_text))
        compose = tr_compose if mode == MODE_TR else self_compose
        for level in sorted(policy.domains):
            model = compose(build_model(program, policy, level, bits=bits, capacity=capacity))
            auto = post_star(model)
            digest = "-"
            verdict = "secure"
            prefix = f"{name} bits={bits} mode={mode} level={level}"
            if is_error_reachable(auto, model):
                verdict = "insecure"
                witness = extract_witness(auto, model)
                digest = _witness_digest(model, witness)
                decoded.append(_decoded_line(prefix, model, witness))
            lines.append(
                f"{prefix} {verdict} steps={auto.steps} edges={auto.edge_count} witness={digest}"
            )
    return tuple(lines), tuple(decoded)


def _state(state) -> str:
    return f"store={state.store} inputs={state.inputs}"


def oracle_lines() -> list[str]:
    lines = []
    for name, text, policy_text, bits, capacity in _oracle_cases():
        program = parse_program(text)
        policy = gather_downgrades(program, parse_policy(policy_text))
        verdict = check_where_security(program, policy, bits=bits, capacity=capacity)
        w = verdict.witness
        witness = (
            "-"
            if w is None
            else f"{w.level} first: {_state(w.first)} second: {_state(w.second)} reason: {w.reason}"
        )
        lines.append(
            f"ORACLE {name} bits={bits} capacity={capacity} {verdict.status} "
            f"pairs={verdict.pairs_checked} note={verdict.note or '-'} witness={witness}"
        )
    return lines


def _run_text(program, trace) -> str:
    """A lone run's trace text, final configuration, with the remaining
    command its point stands for, and downgrades."""
    f = trace.final
    cmd = residual(program, f.point)
    final = f"mu={f.mu} ins={f.ins} outs={f.outs} p={f.p} cmd={cmd!r}"
    return f"{format_trace(trace)}\nfinal {final}\ndeclass {trace.declass_events()}\n"


def _lone_runs(text: str, policy_text: str, bits: int, capacity: int):
    """(fuel, program, lone runs) at each pinned fuel: the run of every
    initial state of one oracle input, in the oracle's order, made as they
    are read."""
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy(policy_text))
    runs = _Runs(program, policy, bits, capacity, DEFAULT_FUEL)
    states = [runs.state(i) for i in range(runs.count)]
    for fuel in (DEFAULT_FUEL, 3):
        yield fuel, program, (
            run_program(program, policy, store, ins, bits, capacity, fuel)
            for store, ins in states
        )


def trace_lines() -> list[str]:
    lines = []
    for name, text, policy_text, bits, capacity in _oracle_cases():
        digests = []
        for fuel, program, traces in _lone_runs(text, policy_text, bits, capacity):
            digest = hashlib.sha256()
            states = 0
            for trace in traces:
                digest.update(_run_text(program, trace).encode())
                states += 1
            digests.append(f"fuel={fuel}:{digest.hexdigest()[:16]}")
        lines.append(
            f"TRACES {name} bits={bits} capacity={capacity} states={states} "
            + " ".join(digests)
        )
    return lines


def pinned_lines() -> list[str]:
    return list(_outputs()[0])


def decoded_lines() -> list[str]:
    return list(_outputs()[1])


def _assert_lines_match(path: Path, got: list[str]) -> None:
    expected = path.read_text().splitlines()
    for i, (want, have) in enumerate(zip(expected, got)):
        assert have == want, f"line {i + 1} differs:\n  pinned: {want}\n  now:    {have}"
    assert len(got) == len(expected), f"{len(got)} lines now, {len(expected)} pinned"


def test_outputs_match_the_pinned_file():
    _assert_lines_match(GOLDEN, pinned_lines())


def test_decoded_witnesses_match_the_pinned_file():
    _assert_lines_match(DECODED, decoded_lines())


def test_oracle_verdicts_match_the_pinned_file():
    _assert_lines_match(ORACLE, oracle_lines())


def test_interpreter_runs_match_the_pinned_file():
    _assert_lines_match(TRACES, trace_lines())


def _stepped_downgrades(trace) -> list:
    """(index in the run, key before, after, label) of each downgrade
    step, read off the trace's steps."""
    found, before = [], trace.start
    for k, (after, label) in enumerate(trace.entries):
        if label.kind == DECLASS:
            found.append((k, before, after, label))
        before = after
    return found


def test_lone_runs_record_the_downgrades_they_step():
    # The pinned trace digests read only the (site, value) of a downgrade,
    # not the stores before and after it, which the oracle's buckets read.
    for name, text, policy_text, bits, capacity in _oracle_cases():
        for fuel, _, traces in _lone_runs(text, policy_text, bits, capacity):
            for trace in traces:
                assert trace.downgrades == _stepped_downgrades(trace), (name, fuel)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(pinned_lines()) + "\n")
    DECODED.write_text("\n".join(decoded_lines()) + "\n")
    ORACLE.write_text("\n".join(oracle_lines()) + "\n")
    TRACES.write_text("\n".join(trace_lines()) + "\n")
    print(f"wrote {GOLDEN}, {DECODED}, {ORACLE} and {TRACES}", file=sys.stderr)
