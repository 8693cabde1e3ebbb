"""End-to-end acceptance gate.

Each criterion gets one test and one PASS/FAIL line on the real stdout
(bypassing capture) so a full run reads as a checklist.  Shared heavy
artifacts (the default-width corpus reports, the big random sweep) are
computed once per module and reused.
"""

import os
import subprocess
import sys
import time

import pytest

from wherecheck.bdd import BudgetExceeded
from wherecheck.cli import INSECURE, SECURE, analyze, bench, find_nmin, result_lines
from wherecheck.compose import MODE_STORE_MATCH, MODE_TR, self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.oracle import INCONCLUSIVE, check_noninterference, check_where_security
from wherecheck.reach import is_error_reachable, post_star
from explicit import explicit_error_search
from programs import IOBENCH, ROOT, TABLE3, cases, corpus, load, load_text, random_program
from programs import assign_slots, declass_free, generate, with_declass
from sweep import disagreements, sweep

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
SWEEP_KINDS = {"plain": False, "io": True}
# storematch extracts every insecure level's witness, tr decides alone
SWEEP_MODES = {MODE_STORE_MATCH: True, MODE_TR: False}

# The seeds of the sweep where `analyze` and the oracle disagree, the same
# in both modes.  On each, `analyze` says insecure and the oracle secure:
# in the witness or a probe pair only one run executes the downgrade, and
# the oracle, which pairs downgrades by position, imposes nothing on such a
# pair (ROADMAP item 2, whose fix empties both sets).
SWEEP_DISAGREEMENTS = {
    "plain": [8, 173, 187, 251, 282, 359, 439, 493],
    "io": [41, 266, 280, 333, 351, 438],
}


def report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


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
    """Generator kind -> one `sweep.Row` per seed, in both modes."""
    return {
        kind: sweep(range(SWEEP_SEEDS), io, SWEEP_BITS, SWEEP_CAPACITY, SWEEP_MODES)
        for kind, io in SWEEP_KINDS.items()
    }


def test_criterion_1_table_verdicts(table3_reports):
    got = {name: table3_reports[name].overall for name in TABLE3_VERDICTS}
    seconds = table3_reports["_seconds"]
    ok = got == TABLE3_VERDICTS and seconds < 5.0
    report(1, ok, f"verdicts={'exact' if got == TABLE3_VERDICTS else got} in {seconds:.2f}s")


def test_criterion_2_minimum_widths():
    got = {}
    started = time.perf_counter()
    for name in sorted(NMIN):
        program, policy = load(name)
        got[name] = find_nmin(program, policy, max_bits=6, capacity=8)
    seconds = time.perf_counter() - started
    ok = got == NMIN
    detail = "exact" if ok else str(got)
    report(2, ok, f"nmin={detail} in {seconds:.0f}s")


def test_criterion_3_random_soundness(random_sweep):
    rows = [(kind, row) for kind in SWEEP_KINDS for row in random_sweep[kind]]
    violations = [
        f"{kind}{row.seed}"
        for kind, row in rows
        if row.reports[MODE_STORE_MATCH].overall == SECURE and row.oracle.status == INSECURE
    ]
    insecure = sum(1 for _, row in rows if row.reports[MODE_STORE_MATCH].overall == INSECURE)
    ok = len(rows) >= 1000 and not violations
    report(3, ok, f"{len(rows)} programs, {insecure} insecure, violations={violations}")


def test_criterion_4_witness_replay(table3_reports, random_sweep):
    bad = []
    checked = 0
    for name in sorted(TABLE3_VERDICTS):
        for level in table3_reports[name].levels:
            if level.verdict == INSECURE:
                checked += 1
                if not (level.witness and level.witness.replay_ok):
                    bad.append(f"{name}:{level.level}")
    generated = 0
    for kind in SWEEP_KINDS:
        for row in random_sweep[kind]:
            for level in row.reports[MODE_STORE_MATCH].levels:
                if level.verdict == INSECURE:
                    generated += 1
                    if not (level.witness and level.witness.replay_ok):
                        bad.append(f"{kind}{row.seed}:{level.level}")
    # The generator regime produces plenty of leaks; a handful would mean
    # the replay requirement was barely exercised on random programs.
    ok = generated >= 10 and not bad
    report(4, ok, f"{checked + generated} witnesses replayed, failures={bad[:5]}")


@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_random_disagreements_with_the_oracle_are_pinned(random_sweep, kind, mode):
    rows = random_sweep[kind]
    assert [row.seed for row in rows if row.oracle.status == INCONCLUSIVE] == []
    assert disagreements(rows, mode) == SWEEP_DISAGREEMENTS[kind]


def test_criterion_5_prudent_principles():
    cfg = declass_free()
    mismatched = []
    for seed in range(200):
        gen = generate(seed, cfg)
        program, policy = load_text(gen.text, gen.policy_text)
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
        slots = assign_slots(gen)
        if not slots:
            continue
        program, policy = load_text(gen.text, gen.policy_text)
        if check_where_security(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY).status != SECURE:
            continue
        checked += 1
        for slot in slots:
            relaxed, pol2 = load_text(with_declass(gen, slot), gen.policy_text)
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
    for name, text, policy_text in corpus("table3"):
        text = text.strip()
        program, policy = load_text(text, policy_text)
        var = program.variables[0]
        base = [(l.level, l.verdict) for l in analyze(program, policy, bits=SWEEP_BITS, capacity=SWEEP_CAPACITY).levels]
        for i, wrap in enumerate(catalogue):
            wp, wpol = load_text(wrap(text, var), policy_text)
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

    for name, text, policy_text, bits, capacity in cases({"table3": (1, 2), "iobench": (1, 2)}):
        compare(*load_text(text, policy_text), name, bits=bits, capacity=capacity)

    seed = 0
    while compared < 16 * 4 + 100 and seed < 400:
        _, program, policy = random_program(seed, io=bool(seed % 3))
        compare(program, policy, f"seed{seed}", bits=1, capacity=2)
        seed += 1

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
        for folder in (TABLE3, IOBENCH):
            for policy_path in sorted(folder.glob("*.policy")):
                name = policy_path.name[: -len(".policy")]
                rep = analyze(folder / name, policy_path, bits=2, capacity=4)
                lines.append(f"== {folder.name}/{name}")
                lines.extend(result_lines(rep))
        return "\n".join(lines).encode()

    first = machine_output()
    second = machine_output()
    ok = first == second
    report(8, ok, f"{len(first)} bytes, identical={ok}")


# Every program of both corpora at bits 2 and capacity 4: its result lines
# and witnesses (stores, inputs, mismatch and both runs' traces) in both
# modes, and its oracle line.
MACHINE_OUTPUT = """\
from wherecheck.cli import MODES, _witness_block, analyze, result_lines
from wherecheck.oracle import check_where_security
from programs import corpus, load_text

for group in ("table3", "iobench"):
    for name, text, policy_text in corpus(group):
        program, policy = load_text(text, policy_text)
        print(f"== {group}/{name}")
        for mode in MODES:
            report = analyze(program, policy, bits=2, capacity=4, mode=mode, want_witness=True)
            print("\\n".join(result_lines(report) + _witness_block(report)))
        verdict = check_where_security(program, policy, bits=2, capacity=4)
        print(f"ORACLE verdict={verdict.status} pairs={verdict.pairs_checked} note={verdict.note}")
"""


def test_output_does_not_depend_on_the_hash_seed():
    # A set of names iterates in an order that the hash seed picks: output
    # that follows that order differs between the two processes, though
    # each process repeats itself (criterion 8).
    path = os.pathsep.join(str(ROOT / part) for part in ("src", "tests"))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", MACHINE_OUTPUT],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0].count(b"ORACLE verdict=") == 16
    assert outputs[0] == outputs[1]
