"""Where the tests get their programs: the two corpora, program text written
in a test, the seeded random generator, and drawn expressions.

Every program comes with its policy, its downgrades gathered.  Each call
parses afresh, since ``gather_downgrades`` fills dicts of the policy it
returns, so no two tests share a ``Policy``.  A test whose subject is the
parser, or that needs a policy before its downgrades are gathered, calls
``parse_program`` and ``parse_policy`` itself.

The generator's test-only profile and its declass substitution live here
too: release monotonicity (acceptance criterion 5) turns one top-level
assignment of a declass-free program into a downgrade, rendered from the
program's sketch.

Every sweep takes its inputs from one case table, ``cases``.  Its groups
are the two corpora, ``table3`` and ``iobench``, each in name order;
``randprog`` and ``randprog-io``, the generated program of each seed
without and with channel I/O; and ``sweep``, the benchmark's 103
``randprog-sweep`` inputs, whose (seed, io) list ``SWEEP_SEEDS`` is
``perfbench/workloads.py``'s ``RANDPROG_SEEDS`` (``tests/test_bench_rounds.py``
holds the two equal).  A program's id is ``table3/P0``, ``iobench/B3``,
``randprog/17`` or ``randprog/17io``.  A consumer names its groups, each
with its size, such as (bits, capacity), or a list of sizes, and the seeds
of its generated groups.  A new sweep takes its inputs from the table, not
from a generator of its own: only this module and ``tests/test_randprog.py``,
which tests the generator, import ``wherecheck.randprog``
(``tests/test_layering.py`` holds that).  ``pinned_cases`` lists the inputs
whose outputs and models are pinned.  A group that one test alone reads,
such as a variant of program D, stays in that test.
"""

import itertools
from collections.abc import Sequence
from pathlib import Path

from hypothesis import strategies as st

from wherecheck.compose import MODE_STORE_MATCH, MODE_TR
from wherecheck.parser import parse_program
from wherecheck.policy import Policy, gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, GeneratedProgram, generate, render
from wherecheck.syntax import BinOp, Num, Program, Var

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
TABLE3 = CORPUS / "table3"
IOBENCH = CORPUS / "iobench"

RANDPROG = ("randprog", "randprog-io")
# The randprog-sweep benchmark's programs: seeds 0-99, odd seeds with
# channel I/O, plus three more I/O seeds.
SWEEP_SEEDS = [(s, s % 2 == 1) for s in range(100)] + [(113, True), (135, True), (141, True)]

# Program D, a counting loop of n iterations over i (ROADMAP item 6), and
# its policy.
D_TEXT = "i := 0;\nwhile (i < {n}) do\n  i := i + 1;\n  l := l + 1\nod;\nl := l + h\n"
D_POLICY = "lattice: L < H\nvar h : H\nvar l : L\nvar i : L\n"


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


def _generated(seed: int, io: bool) -> tuple[str, str, str]:
    gen = generate(seed, GenConfig(io=io))
    return f"randprog/{seed}{'io' if io else ''}", gen.text, gen.policy_text


def _listed(group: str) -> list[tuple[str, str, str]]:
    """(id, program text, policy text) of a corpus, or of the sweep."""
    if group == "sweep":
        return [_generated(seed, io) for seed, io in SWEEP_SEEDS]
    if group not in ("table3", "iobench"):
        raise KeyError(group)
    return [(f"{group}/{name}", text, pol) for name, text, pol in corpus(group)]


def cases(sizes: dict[str, tuple | list[tuple]], seeds: Sequence[int] = range(400)) -> list[tuple]:
    """(id, program text, policy text, *size) of every program of each group
    that ``sizes`` names, in the order named, once for each size its group
    is given.  A size is a tuple, as a rule (bits, capacity), to which a
    consumer may add what else it varies per program, such as a
    composition; a group given a list of sizes lists each program once per
    size, and one given ``()`` lists (id, program text, policy text).
    ``randprog`` and ``randprog-io`` take their programs from ``seeds``;
    named one after the other, they go seed by seed: ``randprog/0``,
    ``randprog/0io``, ``randprog/1``, ..."""
    rows = []
    for generated, run in itertools.groupby(sizes, key=RANDPROG.__contains__):
        run = list(run)
        if generated:
            programs = [(g, _generated(seed, g == "randprog-io")) for seed in seeds for g in run]
        else:
            programs = [(g, case) for g in run for case in _listed(g)]
        for group, case in programs:
            size = sizes[group]
            rows += [(*case, *each) for each in (size if isinstance(size, list) else [size])]
    return rows


def pinned_cases() -> list[tuple]:
    """(id, program text, policy text, bits, capacity, mode) of every input of
    ``pinned_outputs.txt`` and ``model_dumps.txt``, in a fixed order."""
    return cases(
        {
            "table3": [(bits, 8, MODE_STORE_MATCH) for bits in (2, 3, 4)],
            "iobench": [(2, 8, MODE_STORE_MATCH), (2, 8, MODE_TR)],
            "randprog": (2, 4, MODE_STORE_MATCH),
            "randprog-io": (2, 4, MODE_STORE_MATCH),
        },
        seeds=range(100),
    )


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


EXPR_NAMES = ("h", "l", "x0", "k")


def exprs():
    """Expressions of up to six leaves, each a constant 0-7 or a name of
    ``EXPR_NAMES``, under any operator."""
    return st.recursive(
        st.one_of(st.integers(0, 7).map(Num), st.sampled_from(EXPR_NAMES).map(Var)),
        lambda inner: st.tuples(
            st.sampled_from(["+", "-", "*", "==", "!=", "<", "<=", "&", "|"]),
            inner,
            inner,
        ).map(lambda t: BinOp(*t)),
        max_leaves=6,
    )
