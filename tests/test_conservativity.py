"""Prudent-principle checks: the property behaves sanely under edits.

Substituting observably equivalent declass-free command forms never moves
any verdict, the analyzer's or the oracle's.  The other two principles
(dropping declass collapses where-security to plain noninterference, and
turning a plain assignment into a downgrade never makes a secure program
insecure) are acceptance criterion 5's, in tests/test_acceptance.py.
"""

from pathlib import Path

import pytest

from wherecheck.cli import analyze
from wherecheck.oracle import check_where_security
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import generate

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "table3"

BITS = 2
CAPACITY = 4


def _load(text: str, policy_text: str):
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy(policy_text))
    return program, policy


# Each entry wraps a whole program in an observably equivalent context.
CATALOGUE = [
    ("seq-skip", lambda text, var: f"{text};\nskip"),
    ("skip-seq", lambda text, var: f"skip;\n{text}"),
    ("if-true", lambda text, var: f"if 1 then\n{text}\nelse\nskip\nfi"),
    ("if-false", lambda text, var: f"if 0 then\nskip\nelse\n{text}\nfi"),
    ("dead-loop", lambda text, var: f"while 0 do\nskip\nod;\n{text}"),
    ("self-assign", lambda text, var: f"{text};\n{var} := {var}"),
]


@pytest.mark.parametrize("name", ["P0", "P3", "P4", "P7"])
@pytest.mark.parametrize("label,wrap", CATALOGUE)
def test_catalogue_preserves_corpus_verdicts(name, label, wrap):
    text = (CORPUS / name).read_text()
    policy_text = (CORPUS / f"{name}.policy").read_text()
    program, policy = _load(text, policy_text)
    var = program.variables[0]
    base = analyze(program, policy, bits=BITS, capacity=CAPACITY)
    wrapped_prog, wrapped_pol = _load(wrap(text.strip(), var), policy_text)
    wrapped = analyze(wrapped_prog, wrapped_pol, bits=BITS, capacity=CAPACITY)
    assert [(l.level, l.verdict) for l in base.levels] == [
        (l.level, l.verdict) for l in wrapped.levels
    ]
    assert (
        check_where_security(program, policy, bits=BITS, capacity=CAPACITY).status
        == check_where_security(wrapped_prog, wrapped_pol, bits=BITS, capacity=CAPACITY).status
    )


def test_catalogue_preserves_generated_verdicts():
    for seed in range(16):
        gen = generate(seed)
        program, policy = _load(gen.text, gen.policy_text)
        var = gen.variables[0]
        base = [(l.level, l.verdict) for l in analyze(program, policy, bits=BITS, capacity=CAPACITY).levels]
        for label, wrap in CATALOGUE:
            wp, wpol = _load(wrap(gen.text.strip(), var), gen.policy_text)
            got = [(l.level, l.verdict) for l in analyze(wp, wpol, bits=BITS, capacity=CAPACITY).levels]
            assert got == base, f"seed {seed} {label}"
