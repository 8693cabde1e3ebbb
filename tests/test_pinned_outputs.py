"""Verdicts, search counts and witnesses pinned across commits.

Each line of ``pinned_outputs.txt`` is one (program, bits, mode, level):
the verdict, the forward search's ``steps`` and ``edge_count``, and the first
16 hex digits of a sha256 over the formatted witness and its step path
(``-`` on a secure level).  Each line of ``decoded_witnesses.txt`` is one
insecure (program, bits, mode, level): the decoded witness without its
path, that is both initial stores and input streams, the ``mismatch:`` line
of ``format_witness`` and whether the witness replays.  A change that means
to move none of these leaves both files as they are; on a mismatch the test
names the first line that differs.  Regenerate both, only when an output is
meant to change, with

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

from __future__ import annotations

import functools
import hashlib
import sys
from pathlib import Path

from wherecheck.compose import MODE_STORE_MATCH, MODE_TR, self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, generate
from wherecheck.reach import extract_witness, format_witness, is_error_reachable, post_star

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "pinned_outputs.txt"
DECODED = Path(__file__).resolve().parent / "decoded_witnesses.txt"


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


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(pinned_lines()) + "\n")
    DECODED.write_text("\n".join(decoded_lines()) + "\n")
    print(f"wrote {GOLDEN} and {DECODED}", file=sys.stderr)
