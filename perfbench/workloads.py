"""The benchmark's three workloads and the checks on their results.

One operation is one (program, width, composition) with every level of the
policy decided and checked.  It fails if it raises or if any check fails.
Stages are called one by one through the package's public functions, in
the order ``cli.analyze`` uses, so each layer can be timed from outside.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from wherecheck import cli, compose, modelgen, oracle, parser, policy, randprog, reach

from witness_check import witness_problem

ROOT = Path(__file__).resolve().parent.parent
SECURE, INSECURE = "secure", "insecure"

# table3 as printed in the paper: P3-P5 leak at every width, the rest do not.
TABLE3_INSECURE = {"P3", "P4", "P5"}

# randprog-sweep: generator seeds 0-99 (odd seeds with channel I/O) and
# three more I/O seeds on which storematch returns a false witness.
RANDPROG_SEEDS = [(s, s % 2 == 1) for s in range(100)] + [(113, True), (135, True), (141, True)]

# Operations that fail on today's code, every time, whatever the seed.
KNOWN_FAILURES = {
    # cli.analyze deletes the automaton before it reads its step count
    *(f"table3/P{i}@2/cli" for i in range(8)),
    # storematch returns a witness whose second run does not halt, or
    # releases another value at a downgrade site (see witness_check)
    *(f"randprog/{s}io" for s in (81, 113, 135, 141)),
}


@dataclass
class Source:
    name: str
    text: str
    policy_text: str


@dataclass
class Counters:
    """Work done by the program in one round, read from its own objects."""

    values: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, n: int) -> None:
        self.values[name] = self.values.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        self.values[name] = max(self.values.get(name, 0), n)


@dataclass
class Round:
    """Timings, counters and operation outcomes of one pass over a workload."""

    # perf_counter intervals: parse to decision, each level's decision,
    # witness extraction, oracle
    verdict: list[tuple[float, float]] = field(default_factory=list)
    levels: list[tuple[float, float]] = field(default_factory=list)
    witness: list[tuple[float, float]] = field(default_factory=list)
    oracle: list[tuple[float, float]] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    failures: dict[str, str] = field(default_factory=dict)  # operation -> reason
    attempted: int = 0
    tracer: object = None  # labels spans with the operation that caused them

    def operation(self, name: str, body) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.operation = name
        try:
            problems = body()
        except Exception as exc:  # an operation that raises is a failed operation
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{Path(frame.filename).name}:{frame.lineno}"
            problems = [f"{type(exc).__name__} at {where}: {exc}"]
        if problems:
            self.failures[name] = "; ".join(problems)


@dataclass
class Decision:
    program: object
    policy: object
    verdicts: dict[str, str]
    global_bits: dict[str, int]
    problems: list[str]


def _corpus(name: str) -> list[Source]:
    programs = sorted(p.with_suffix("") for p in (ROOT / "corpus" / name).glob("*.policy"))
    return [Source(p.name, p.read_text(), p.with_suffix(".policy").read_text()) for p in programs]


def load(workload: str, seed: int) -> list[Source]:
    """The workload's inputs; the seed fixes the order they run in."""
    if workload == "table3":
        sources = _corpus("table3")
    elif workload == "iobench-cap8":
        sources = _corpus("iobench")
    else:
        sources = []
        for s, io in RANDPROG_SEEDS:
            gen = randprog.generate(s, randprog.GenConfig(io=io))
            sources.append(Source(f"{s}{'io' if io else ''}", gen.text, gen.policy_text))
    random.Random(seed).shuffle(sources)
    return sources


def decide(src: Source, bits: int, capacity: int, mode: str, rnd: Round) -> Decision:
    """Parse, then model, compose, saturate and decide every level; check witnesses."""
    clock = time.perf_counter
    start = clock()
    program = parser.parse_program(src.text)
    pol = policy.gather_downgrades(program, policy.parse_policy(src.policy_text))
    rnd.verdict.append((start, clock()))
    compose_fn = compose.tr_compose if mode == compose.MODE_TR else compose.self_compose
    c = rnd.counters
    verdicts, global_bits, problems = {}, {}, []
    for level in sorted(pol.domains):
        start = clock()
        skeleton = modelgen.build_model(program, pol, level, bits=bits, capacity=capacity)
        model = compose_fn(skeleton)
        auto = reach.post_star(model)
        insecure = reach.is_error_reachable(auto, model)
        decided = (start, clock())
        rnd.verdict.append(decided)
        rnd.levels.append(decided)
        verdicts[level] = INSECURE if insecure else SECURE
        global_bits[level] = model.spds.globals.total_bits
        if insecure:
            start = clock()
            witness = reach.extract_witness(auto, model)
            rnd.witness.append((start, clock()))
            if not witness.replay_ok:
                problems.append(f"level {level}: replay_witness fails {witness.replay_outcomes}")
            why = witness_problem(program, pol, level, witness, bits, capacity)
            if why:
                problems.append(f"level {level}: witness rejected, {why}")
        mgr = auto.algebra.mgr
        c.add("modelgen.rules", len(skeleton.spds.rules))
        c.add("compose.rules", len(model.spds.rules))
        c.add("compose.global_bits", model.spds.globals.total_bits)
        c.add("reach.steps", auto.steps)
        c.add("reach.edges", auto.edge_count)
        c.add("bdd.nodes", auto.node_count)
        c.peak("bdd.nodes_max", auto.node_count)
        c.add("bdd.cache_clears", mgr.cache_clears)
        c.add("bdd.collections", mgr.collections)
        del auto, mgr
    return Decision(program, pol, verdicts, global_bits, problems)


def run_oracle(d: Decision, bits: int, capacity: int, rnd: Round):
    start = time.perf_counter()
    verdict = oracle.check_where_security(d.program, d.policy, bits=bits, capacity=capacity)
    rnd.oracle.append((start, time.perf_counter()))
    rnd.counters.add("oracle.pairs", verdict.pairs_checked)
    return verdict


def oracle_problems(d: Decision, verdict) -> list[str]:
    """The symbolic verdict may be stricter than the oracle, never laxer."""
    if verdict.status == INSECURE and d.verdicts[verdict.witness.level] == SECURE:
        return [f"secure at {verdict.witness.level}, oracle finds {verdict.witness.reason}"]
    if verdict.status not in (SECURE, INSECURE):
        return [f"oracle {verdict.status}: {verdict.note}"]
    return []


def table_problems(src: Source, d: Decision) -> list[str]:
    expected = INSECURE if src.name in TABLE3_INSECURE else SECURE
    overall = INSECURE if INSECURE in d.verdicts.values() else SECURE
    return [] if overall == expected else [f"overall {overall}, paper says {expected}"]


def table3_round(sources: list[Source], rnd: Round) -> None:
    sm = compose.MODE_STORE_MATCH
    for src in sources:
        def wide():
            d = decide(src, 4, 8, sm, rnd)
            return d.problems + table_problems(src, d)

        narrow = None

        def small():
            nonlocal narrow
            narrow = decide(src, 2, 8, sm, rnd)
            checked = run_oracle(narrow, 2, 8, rnd)
            return narrow.problems + table_problems(src, narrow) + oracle_problems(narrow, checked)

        def entry_point():
            # untimed: the same width through the user-facing function
            report = cli.analyze(narrow.program, narrow.policy, bits=2, capacity=8)
            got = {r.level: r.verdict for r in report.levels}
            return [] if got == narrow.verdicts else [f"cli.analyze says {got}, stages say {narrow.verdicts}"]

        rnd.operation(f"table3/{src.name}@4", wide)
        rnd.operation(f"table3/{src.name}@2", small)
        rnd.operation(f"table3/{src.name}@2/cli", entry_point)


def iobench_round(sources: list[Source], rnd: Round) -> None:
    for src in sources:
        sm = None

        def store_match():
            nonlocal sm
            sm = decide(src, 2, 8, compose.MODE_STORE_MATCH, rnd)
            return sm.problems + oracle_problems(sm, run_oracle(sm, 2, 8, rnd))

        def two_runs():
            d = decide(src, 2, 8, compose.MODE_TR, rnd)
            problems = d.problems + oracle_problems(d, run_oracle(d, 2, 8, rnd))
            if sm is not None:
                if sm.verdicts != d.verdicts:
                    problems.append(f"storematch {sm.verdicts} but tr {d.verdicts}")
                wider = [lvl for lvl, b in sm.global_bits.items() if b >= d.global_bits[lvl]]
                if wider:
                    problems.append(f"storematch uses no fewer global bits than tr at {wider}")
            return problems

        rnd.operation(f"iobench/{src.name}/storematch", store_match)
        rnd.operation(f"iobench/{src.name}/tr", two_runs)


def randprog_round(sources: list[Source], rnd: Round) -> None:
    for src in sources:
        def sweep():
            d = decide(src, 2, 4, compose.MODE_STORE_MATCH, rnd)
            return d.problems + oracle_problems(d, run_oracle(d, 2, 4, rnd))

        rnd.operation(f"randprog/{src.name}", sweep)


ROUNDS = {"table3": table3_round, "iobench-cap8": iobench_round, "randprog-sweep": randprog_round}

