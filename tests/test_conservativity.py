"""Prudent-principle checks: the property behaves sanely under edits.

Substituting observably equivalent declass-free command forms never moves
any verdict, the analyzer's or the oracle's.  The other two principles
(dropping declass collapses where-security to plain noninterference, and
turning a plain assignment into a downgrade never makes a secure program
insecure) are acceptance criterion 5's, in tests/test_acceptance.py.
"""

import pytest

from wherecheck.cli import analyze
from wherecheck.oracle import check_where_security
from programs import TABLE3, load_text, random_program

BITS = 2
CAPACITY = 4


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
    text = (TABLE3 / name).read_text()
    policy_text = (TABLE3 / f"{name}.policy").read_text()
    program, policy = load_text(text, policy_text)
    var = program.variables[0]
    base = analyze(program, policy, bits=BITS, capacity=CAPACITY)
    wrapped_prog, wrapped_pol = load_text(wrap(text.strip(), var), policy_text)
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
        gen, program, policy = random_program(seed)
        var = gen.variables[0]
        base = [(l.level, l.verdict) for l in analyze(program, policy, bits=BITS, capacity=CAPACITY).levels]
        for label, wrap in CATALOGUE:
            wp, wpol = load_text(wrap(gen.text.strip(), var), gen.policy_text)
            got = [(l.level, l.verdict) for l in analyze(wp, wpol, bits=BITS, capacity=CAPACITY).levels]
            assert got == base, f"seed {seed} {label}"
