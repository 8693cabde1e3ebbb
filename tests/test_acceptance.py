"""End-to-end acceptance gate.

Each criterion gets one test and one PASS/FAIL line on the real stdout
(bypassing capture) so a full run reads as a checklist.  Shared heavy
artifacts (the default-width corpus reports, the big random sweep) are
computed once per module and reused.
"""

import sys
import time
from pathlib import Path

import pytest

from wherecheck.bdd import BudgetExceeded
from wherecheck.cli import INSECURE, SECURE, analyze, bench, find_nmin, result_lines
from wherecheck.compose import self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.oracle import check_noninterference, check_where_security
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, declass_free, generate
from wherecheck.reach import is_error_reachable, post_star
from explicit import explicit_error_search

ROOT = Path(__file__).resolve().parent.parent
TABLE3 = ROOT / "corpus" / "table3"
IOBENCH = ROOT / "corpus" / "iobench"

TABLE3_VERDICTS = {
    "P0": SECURE,
    "P1": SECURE,
    "P2": SECURE,
    "P3": INSECURE,
    "P4": INSECURE,
    "P5": INSECURE,
    "P6": SECURE,
    "P7": SECURE,
}

NMIN = {"P0": None, "P1": None, "P2": None, "P3": 1, "P4": 1, "P5": 1, "P6": None, "P7": None}

SWEEP_SEEDS = 500
SWEEP_BITS = 2
SWEEP_CAPACITY = 4


def report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _load(text: str, policy_text: str):
    program = parse_program(text)
    policy = gather_downgrades(program, parse_policy(policy_text))
    return program, policy


def _load_corpus(directory: Path, name: str):
    return _load((directory / name).read_text(), (directory / f"{name}.policy").read_text())


@pytest.fixture(scope="module")
def table3_reports():
    out = {}
    started = time.perf_counter()
    for name in sorted(TABLE3_VERDICTS):
        out[name] = analyze(
            TABLE3 / name, TABLE3 / f"{name}.policy", bits=3, capacity=8, want_witness=True
        )
    out["_seconds"] = time.perf_counter() - started
    return out


@pytest.fixture(scope="module")
def random_sweep():
    """(seed, generated, report, oracle verdict) for the soundness regime."""
    rows = []
    for seed in range(SWEEP_SEEDS):
        gen = generate(seed)
        program, policy = _load(gen.text, gen.policy_text)
        rep = analyze(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY, want_witness=True)
        oracle = check_where_security(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY)
        rows.append((seed, gen, rep, oracle))
    return rows


def test_criterion_1_table_verdicts(table3_reports):
    got = {name: table3_reports[name].overall for name in TABLE3_VERDICTS}
    seconds = table3_reports["_seconds"]
    ok = got == TABLE3_VERDICTS and seconds < 5.0
    report(1, ok, f"verdicts={'exact' if got == TABLE3_VERDICTS else got} in {seconds:.2f}s")


def test_criterion_2_minimum_widths():
    got = {}
    started = time.perf_counter()
    for name in sorted(NMIN):
        program, policy = _load_corpus(TABLE3, name)
        got[name] = find_nmin(program, policy, max_bits=6, capacity=8)
    seconds = time.perf_counter() - started
    ok = got == NMIN
    detail = "exact" if ok else str(got)
    report(2, ok, f"nmin={detail} in {seconds:.0f}s")


def test_criterion_3_random_soundness(random_sweep):
    violations = [
        seed
        for seed, _, rep, oracle in random_sweep
        if rep.overall == SECURE and oracle.status == INSECURE
    ]
    insecure = sum(1 for _, _, rep, _ in random_sweep if rep.overall == INSECURE)
    ok = len(random_sweep) >= 500 and not violations
    report(3, ok, f"{len(random_sweep)} programs, {insecure} insecure, violations={violations}")


def test_criterion_4_witness_replay(table3_reports, random_sweep):
    bad = []
    checked = 0
    for name in sorted(TABLE3_VERDICTS):
        for level in table3_reports[name].levels:
            if level.verdict == INSECURE:
                checked += 1
                if not (level.witness and level.witness.replay_ok):
                    bad.append(f"{name}:{level.level}")
    for seed, _, rep, _ in random_sweep:
        for level in rep.levels:
            if level.verdict == INSECURE:
                checked += 1
                if not (level.witness and level.witness.replay_ok):
                    bad.append(f"seed{seed}:{level.level}")
    ok = checked > 0 and not bad
    report(4, ok, f"{checked} witnesses replayed, failures={bad[:5]}")


def test_criterion_5_prudent_principles():
    cfg = declass_free(GenConfig())
    mismatched = []
    for seed in range(200):
        gen = generate(seed, cfg)
        program, policy = _load(gen.text, gen.policy_text)
        where = check_where_security(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY)
        ni = check_noninterference(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY)
        if where.status != ni.status:
            mismatched.append(seed)

    revoked = []
    checked = 0
    seed = 0
    while checked < 200 and seed < 4000:
        gen = generate(seed, cfg)
        seed += 1
        slots = gen.assign_slots()
        if not slots:
            continue
        program, policy = _load(gen.text, gen.policy_text)
        if check_where_security(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY).status != SECURE:
            continue
        checked += 1
        for slot in slots:
            relaxed, pol2 = _load(gen.with_declass(slot), gen.policy_text)
            after = check_where_security(relaxed, pol2, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY)
            if after.status != SECURE:
                revoked.append((seed - 1, slot))

    catalogue = [
        lambda text, var: f"{text};\nskip",
        lambda text, var: f"skip;\n{text}",
        lambda text, var: f"if 1 then\n{text}\nelse\nskip\nfi",
        lambda text, var: f"if 0 then\nskip\nelse\n{text}\nfi",
        lambda text, var: f"while 0 do\nskip\nod;\n{text}",
        lambda text, var: f"{text};\n{var} := {var}",
    ]
    moved = []
    for name in sorted(TABLE3_VERDICTS):
        text = (TABLE3 / name).read_text().strip()
        policy_text = (TABLE3 / f"{name}.policy").read_text()
        program, policy = _load(text, policy_text)
        var = program.variables[0]
        base = [(l.level, l.verdict) for l in analyze(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY).levels]
        for i, wrap in enumerate(catalogue):
            wp, wpol = _load(wrap(text, var), policy_text)
            got = [(l.level, l.verdict) for l in analyze(wp, wpol, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY).levels]
            if got != base:
                moved.append((name, i))

    ok = checked >= 200 and not mismatched and not revoked and not moved
    report(
        5,
        ok,
        f"conservativity 200 ok={not mismatched}, monotonicity {checked} ok={not revoked}, "
        f"catalogue ok={not moved}",
    )


def test_criterion_6_backend_agreement():
    disagreements = []
    skipped = 0
    compared = 0

    def compare(program, policy, label, bits, capacity):
        nonlocal skipped, compared
        for level in sorted(policy.domains):
            for compose in (self_compose, tr_compose):
                model = compose(build_model(program, policy, level, bits=bits, capacity=capacity))
                try:
                    explicit = explicit_error_search(model)
                except BudgetExceeded:
                    skipped += 1
                    continue
                # the bare system: a level that observes everything is searched too
                auto = post_star(model.spds)
                symbolic = is_error_reachable(auto, model)
                compared += 1
                if explicit != symbolic:
                    disagreements.append(f"{label}:{level}:{compose.__name__}")

    for name in sorted(TABLE3_VERDICTS):
        program, policy = _load_corpus(TABLE3, name)
        compare(program, policy, name, bits=1, capacity=2)
    for name in sorted(p.name for p in IOBENCH.glob("*.policy")):
        base = name[: -len(".policy")]
        program, policy = _load_corpus(IOBENCH, base)
        compare(program, policy, base, bits=1, capacity=2)

    seed = 0
    while compared < 16 * 4 + 100 and seed < 400:
        cfg = GenConfig(io=bool(seed % 3))
        gen = generate(seed, cfg)
        seed += 1
        program, policy = _load(gen.text, gen.policy_text)
        compare(program, policy, f"seed{seed - 1}", bits=1, capacity=2)

    ok = not disagreements and compared >= 16 * 4 + 100
    report(6, ok, f"{compared} models agree, {skipped} over explicit budget, bad={disagreements[:4]}")


def test_criterion_7_storematch_economy():
    table = bench(IOBENCH, bits=2, capacity=4)
    no_gap = [r.name for r in table.rows if not r.store_bits < r.tr_bits]
    ratio = table.step_ratio
    ok = len(table.rows) == 8 and not no_gap and 0.0 < ratio < 1.0
    report(7, ok, f"8 programs, bit gap everywhere={not no_gap}, step ratio={ratio:.4f}")


def test_criterion_8_deterministic_output():
    def machine_output():
        lines = []
        for corpus in (TABLE3, IOBENCH):
            for policy_path in sorted(corpus.glob("*.policy")):
                name = policy_path.name[: -len(".policy")]
                rep = analyze(corpus / name, policy_path, bits=2, capacity=4)
                lines.append(f"== {corpus.name}/{name}")
                lines.extend(result_lines(rep))
        return "\n".join(lines).encode()

    first = machine_output()
    second = machine_output()
    ok = first == second
    report(8, ok, f"{len(first)} bytes, identical={ok}")
