"""Differential check of the analyzer against the brute-force oracle.

Random programs stay inside the regime the oracle can enumerate quickly:
few variables, short bodies, at most one loop and one downgrade.  The
analyzer may reject programs the oracle accepts (it abstracts loops and
pairs downgrades structurally), but it must never accept a program the
oracle rejects.
"""

import pytest

from wherecheck.cli import INSECURE, SECURE, analyze
from wherecheck.oracle import check_where_security
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.randprog import GenConfig, generate

BITS = 2
CAPACITY = 4

SWEEP_SEEDS = 150


def _load(gen):
    program = parse_program(gen.text)
    policy = gather_downgrades(program, parse_policy(gen.policy_text))
    return program, policy


def sweep(seeds, cfg=GenConfig(), want_witness=True):
    """Analyze and oracle-check each seed; returns per-seed result rows."""
    rows = []
    for seed in seeds:
        gen = generate(seed, cfg)
        program, policy = _load(gen)
        report = analyze(program, policy, bits=BITS, capacity=CAPACITY, want_witness=want_witness)
        verdict = check_where_security(program, policy, bits=BITS, capacity=CAPACITY)
        rows.append((seed, gen, report, verdict))
    return rows


@pytest.fixture(scope="module")
def plain_rows():
    """One sweep of the default profile, with witnesses, for both checks below."""
    return sweep(range(SWEEP_SEEDS))


def test_analyzer_never_accepts_an_oracle_rejection(plain_rows):
    unsound = []
    for seed, gen, report, verdict in plain_rows:
        if report.overall == SECURE and verdict.status == INSECURE:
            unsound.append(seed)
    assert unsound == []


def test_every_insecure_verdict_carries_a_replaying_witness(plain_rows):
    insecure = 0
    for seed, gen, report, verdict in plain_rows:
        for level in report.levels:
            if level.verdict != INSECURE:
                continue
            insecure += 1
            assert level.witness is not None, f"seed {seed} level {level.level}"
            assert level.witness.replay_ok, f"seed {seed} level {level.level}"
    # The generator regime produces plenty of leaks; an empty sample would
    # mean the replay requirement was never exercised.
    assert insecure >= 10


def test_io_programs_stay_sound():
    cfg = GenConfig(io=True)
    for seed, gen, report, verdict in sweep(range(60), cfg, want_witness=False):
        assert not (report.overall == SECURE and verdict.status == INSECURE), f"seed {seed}"
