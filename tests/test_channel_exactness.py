"""Both compositions decide a leak only where run 2 ends.

An insecure verdict must mean two runs that both halt, keep the downgrade
premise and end with a differing observation.  Store-match therefore defers
a mismatched output to the second run's end, and a read past the end of an
observable input blocks, as in the interpreter.  These tests pin that on
channel programs: the baseline's program E, the agreement of store-match
and tr, and the replay of every witness through both the package's own
check and the benchmark's independent ``witness_check``.
"""

import sys

import pytest

from wherecheck.cli import EXIT_SECURE, INSECURE, analyze, main
from wherecheck.compose import MODE_STORE_MATCH, MODE_TR
from programs import ROOT, cases, load_text

sys.path.insert(0, str(ROOT / "perfbench"))

from witness_check import witness_problem  # noqa: E402

MODES = (MODE_STORE_MATCH, MODE_TR)

# A read of src happens twice only when h != 0, and src holds one value:
# that run is stuck, so every pair of halting runs reads the same y.
PROGRAM_E = """\
if (h != 0) then
  input(x, src)
else
  skip
fi;
input(y, src);
l := y
"""
POLICY_E = """\
lattice: L < H
var h : H
var x : L
var y : L
var l : L
channel src : L input length 1
"""


@pytest.mark.parametrize("mode", MODES)
def test_program_e_is_secure(tmp_path, capsys, mode):
    (tmp_path / "e").write_text(PROGRAM_E)
    (tmp_path / "e.policy").write_text(POLICY_E)
    argv = ["analyze", str(tmp_path / "e"), "--policy", str(tmp_path / "e.policy")]
    code = main([*argv, "--bits", "2", "--capacity", "4", "--mode", mode])
    out = capsys.readouterr().out
    assert code == EXIT_SECURE
    assert [ln for ln in out.splitlines() if ln.startswith("RESULT")] == [
        "RESULT level=H verdict=secure",
        "RESULT level=L verdict=secure",
        "RESULT overall=secure",
    ]


@pytest.fixture(scope="module")
def channel_reports():
    """(name, program, policy, bits, capacity, {mode: report with witnesses})."""
    rows = []
    for name, text, policy_text, bits, capacity in cases({"randprog-io": (2, 4), "iobench": (2, 8)}):
        program, policy = load_text(text, policy_text)
        reports = {
            mode: analyze(
                program, policy, bits=bits, capacity=capacity, mode=mode, want_witness=True
            )
            for mode in MODES
        }
        rows.append((name, program, policy, bits, capacity, reports))
    return rows


def test_storematch_and_tr_agree_on_every_level(channel_reports):
    assert len(channel_reports) == 408
    split = []
    for name, _, _, _, _, reports in channel_reports:
        verdicts = {
            mode: [(r.level, r.verdict) for r in report.levels] for mode, report in reports.items()
        }
        if verdicts[MODE_STORE_MATCH] != verdicts[MODE_TR]:
            split.append((name, verdicts))
    assert not split


def test_every_witness_replays_and_passes_the_witness_check(channel_reports):
    checked = 0
    bad = []
    for name, program, policy, bits, capacity, reports in channel_reports:
        for mode, report in reports.items():
            for level in report.levels:
                if level.verdict != INSECURE:
                    continue
                checked += 1
                w = level.witness
                why = witness_problem(program, policy, level.level, w, bits, capacity)
                if not w.replay_ok or why:
                    bad.append((name, mode, level.level, w.replay_outcomes, why))
    assert checked > 100
    assert not bad
