"""Where the tests get their programs: the two corpora, program text written
in a test, and the seeded random generator.

Every program comes with its policy, its downgrades gathered.  Each call
parses afresh, since ``gather_downgrades`` fills dicts of the policy it
returns, so no two tests share a ``Policy``.  A test whose subject is the
parser, or that needs a policy before its downgrades are gathered, calls
``parse_program`` and ``parse_policy`` itself.

The generator's test-only profile and its declass substitution live here
too: release monotonicity (acceptance criterion 5) turns one top-level
assignment of a declass-free program into a downgrade, rendered from the
program's sketch.
"""

from pathlib import Path

from wherecheck.parser import parse_program
from wherecheck.policy import Policy, gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, GeneratedProgram, generate, render
from wherecheck.syntax import Program

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
TABLE3 = CORPUS / "table3"
IOBENCH = CORPUS / "iobench"


def load_text(text: str, policy_text: str) -> tuple[Program, Policy]:
    program = parse_program(text)
    return program, gather_downgrades(program, parse_policy(policy_text))


def load(name: str, corpus: str = "table3") -> tuple[Program, Policy]:
    path = CORPUS / corpus / name
    return load_text(path.read_text(), path.with_suffix(".policy").read_text())


def corpus(name: str) -> list[tuple[str, str, str]]:
    """(program name, program text, policy text) of every program of one
    corpus, in name order."""
    return [
        (path.stem, path.with_suffix("").read_text(), path.read_text())
        for path in sorted((CORPUS / name).glob("*.policy"))
    ]


def random_program(seed: int, io: bool = False) -> tuple[GeneratedProgram, Program, Policy]:
    """The generated program of one seed, parsed, with its policy."""
    gen = generate(seed, GenConfig(io=io))
    return (gen, *load_text(gen.text, gen.policy_text))


def declass_free(cfg: GenConfig = GenConfig()) -> GenConfig:
    return cfg._replace(max_declass=0)


def assign_slots(gen: GeneratedProgram) -> list[int]:
    """Top-level plain assignments eligible for declass substitution."""
    return [i for i, cmd in enumerate(gen.body) if cmd.kind == "assign"]


def with_declass(gen: GeneratedProgram, slot: int) -> str:
    """The text of ``gen`` with its assignment at ``slot`` a downgrade."""
    assert gen.body[slot].kind == "assign"
    body = list(gen.body)
    body[slot] = body[slot]._replace(kind="declass")
    return render(body)
