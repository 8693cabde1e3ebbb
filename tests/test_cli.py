"""Driver tests: verdicts, exit codes, machine lines, search and bench."""

import contextlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wherecheck import cli
from wherecheck.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INSECURE,
    EXIT_SECURE,
    EXIT_USAGE,
    AnalysisReport,
    analyze,
    bench,
    find_nmin,
    main,
)
from wherecheck.parser import parse_program
from wherecheck.policy import parse_policy

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "table3"

LAUNDER_LOOP = "l := 0;\nwhile l < 1 do h := h; l := l + 1 od;\nl := h\n"
TWO_LEVEL = "lattice: L < H\nvar l : L\nvar h : H\n"


def corpus_args(name: str) -> list[str]:
    return [str(CORPUS / name), "--policy", str(CORPUS / f"{name}.policy")]


def write_pair(tmp_path: Path, text: str, policy: str) -> list[str]:
    prog = tmp_path / "prog"
    pol = tmp_path / "prog.policy"
    prog.write_text(text)
    pol.write_text(policy)
    return [str(prog), "--policy", str(pol)]


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_lines(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln.startswith("RESULT")]


# ------------------------------------------------------------------ analyze


def test_analyze_secure_program_exits_zero(capsys):
    code, out, _ = run(capsys, ["analyze", *corpus_args("P0")])
    assert code == EXIT_SECURE
    assert "RESULT overall=secure" in out
    assert "RESULT level=L verdict=secure" in out
    assert "RESULT level=H verdict=secure" in out


def test_analyze_insecure_program_exits_one(capsys):
    code, out, _ = run(capsys, ["analyze", *corpus_args("P3")])
    assert code == EXIT_INSECURE
    assert "RESULT level=L verdict=insecure" in out
    assert "RESULT overall=insecure" in out


def test_analyze_structured_secure_program(capsys):
    code, out, _ = run(capsys, ["analyze", *corpus_args("P7"), "--bits", "2"])
    assert code == EXIT_SECURE
    assert "RESULT overall=secure" in out


def test_analyze_laundering_loop(tmp_path, capsys):
    args = write_pair(tmp_path, LAUNDER_LOOP, TWO_LEVEL)
    code, out, _ = run(capsys, ["analyze", *args, "--bits", "1"])
    assert code == EXIT_INSECURE
    assert "RESULT level=L verdict=insecure" in out


def test_analyze_tr_mode_agrees(capsys):
    code_sm, out_sm, _ = run(capsys, ["analyze", *corpus_args("P4"), "--bits", "2"])
    code_tr, out_tr, _ = run(
        capsys, ["analyze", *corpus_args("P4"), "--bits", "2", "--mode", "tr"]
    )
    assert code_sm == code_tr == EXIT_INSECURE
    assert result_lines(out_sm) == result_lines(out_tr)


def test_result_lines_are_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, ["analyze", *corpus_args("P4")])
    _, second, _ = run(capsys, ["analyze", *corpus_args("P4")])
    assert result_lines(first) == result_lines(second)
    # timing may differ, machine lines must not
    assert result_lines(first)


def test_config_echo_line(capsys):
    _, out, _ = run(capsys, ["analyze", *corpus_args("P0"), "--bits", "2", "--capacity", "4"])
    assert "config bits=2 capacity=4 mode=storematch" in out


def test_witness_flag_prints_replayed_counterexample(capsys):
    code, out, _ = run(capsys, ["analyze", *corpus_args("P3"), "--witness"])
    assert code == EXIT_INSECURE
    assert "--- witness level=L ---" in out
    assert "replay: confirmed" in out
    assert "run 1 trace:" in out and "run 2 trace:" in out
    assert out.count("outcome: halted") == 2


def test_witness_traces_are_the_replayed_runs(capsys, monkeypatch):
    # The printed traces are the runs the replay judged, not a second run.
    witnesses = []

    def extracting(*args):
        witnesses.append(real(*args))
        return witnesses[-1]

    def no_second_run(*args, **kwargs):
        raise AssertionError("the witness block ran the interpreter again")

    real = cli.extract_witness
    monkeypatch.setattr(cli, "extract_witness", extracting)
    monkeypatch.setattr(cli, "run_program", no_second_run)
    code, out, _ = run(capsys, ["analyze", *corpus_args("P3"), "--witness"])
    assert code == EXIT_INSECURE
    assert "run 1 trace:" in out and "run 2 trace:" in out
    outcomes = [ln.split(": ", 1)[1] for ln in out.splitlines() if ln.startswith("  outcome: ")]
    assert witnesses
    assert outcomes == [o for w in witnesses for o in w.replay_outcomes]


def test_oracle_flag_reports_ground_truth(capsys):
    _, out, _ = run(capsys, ["analyze", *corpus_args("P0"), "--bits", "2", "--oracle"])
    assert "ORACLE verdict=secure pairs=80" in out.splitlines()


def test_oracle_flag_on_insecure_program(capsys):
    # The pair count stops at the lexicographically first violating pair.
    _, out, _ = run(capsys, ["analyze", *corpus_args("P3"), "--bits", "1", "--oracle"])
    assert "ORACLE verdict=insecure pairs=18" in out.splitlines()
    _, out, _ = run(capsys, ["analyze", *corpus_args("P3"), "--bits", "2", "--oracle"])
    assert "ORACLE verdict=insecure pairs=258" in out.splitlines()


def test_dump_flags_render_models(capsys):
    # level H observes everything and is not searched; its models still print
    _, out, _ = run(
        capsys,
        ["analyze", *corpus_args("P0"), "--bits", "1", "--dump-model", "--dump-composed"],
    )
    for level in ("H", "L"):
        for kind in ("model", "composed"):
            section = out.split(f"--- {kind} level={level} ---\n")[1]
            assert section.startswith("globals: h:1 ")


def test_level_line_names_why_a_level_was_not_searched(capsys):
    code, out, _ = run(capsys, ["analyze", *corpus_args("P3")])
    assert code == EXIT_INSECURE
    lines = out.splitlines()
    high = next(ln for ln in lines if ln.startswith("level H:"))
    assert high.startswith("level H: secure (observes every variable and channel) [rules=")
    assert " steps=0 " in high
    low = next(ln for ln in lines if ln.startswith("level L:"))
    assert low.startswith("level L: insecure [rules=") and " steps=0 " not in low
    assert result_lines(out) == [
        "RESULT level=H verdict=secure",
        "RESULT level=L verdict=insecure",
        "RESULT overall=insecure",
    ]


def test_trace_flag_prints_reference_run(capsys):
    _, out, _ = run(capsys, ["analyze", *corpus_args("P0"), "--trace"])
    assert "--- reference run (all-zero store) ---" in out
    assert "outcome: halted" in out


def test_budget_env_degrades_to_inconclusive(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "200")
    code, out, _ = run(capsys, ["analyze", *corpus_args("P7")])
    assert code == EXIT_INCONCLUSIVE
    assert "RESULT overall=inconclusive" in out
    assert "budget exceeded" in out


def chain_program(n: int) -> tuple[str, str]:
    """x_i := x_(i-1) + 1 for i < n, with x0 secret and the rest public."""
    text = ";\n".join(f"x{i} := x{i - 1} + 1" for i in range(1, n)) + "\n"
    policy = "lattice: L < H\nvar x0 : H\n" + "".join(f"var x{i} : L\n" for i in range(1, n))
    return text, policy


def test_wide_chain_reaches_a_verdict(tmp_path, capsys):
    # 24 variables at 8 bits: 384 global bits in the composed state
    args = write_pair(tmp_path, *chain_program(24))
    code, out, _ = run(capsys, ["analyze", *args, "--bits", "8"])
    assert code == EXIT_INSECURE
    assert result_lines(out) == [
        "RESULT level=H verdict=secure",
        "RESULT level=L verdict=insecure",
        "RESULT overall=insecure",
    ]


def test_recursion_overflow_is_inconclusive_not_insecure(tmp_path, capsys):
    # A limit 100 frames above this one leaves the parser room but not the
    # BDD kernels; the overflow must not surface as exit code 1 (insecure).
    args = write_pair(tmp_path, *chain_program(12))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        code, out, _ = run(capsys, ["analyze", *args, "--bits", "8"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == EXIT_INCONCLUSIVE
    assert "RESULT overall=inconclusive" in out
    assert "inconclusive (recursion limit" in out


def assert_overflow_is_inconclusive(capsys, args):
    for command in ("analyze", "nmin"):
        code, out, err = run(capsys, [command, *args])
        assert code == EXIT_INCONCLUSIVE, err
        reason = f"recursion limit {sys.getrecursionlimit()} exceeded"
        assert out == f"inconclusive ({reason})\nRESULT overall=inconclusive\n"


def test_deep_expression_overflow_is_inconclusive(tmp_path, capsys):
    # The parser reads the sum as a loop; checking its variables recurses.
    text = "l := " + " + ".join(["h"] * 1200) + "\n"
    assert_overflow_is_inconclusive(capsys, write_pair(tmp_path, text, TWO_LEVEL))


def test_long_sequence_overflow_is_inconclusive(tmp_path, capsys):
    # The parser nests one Seq per ";", so 3000 statements overflow it.
    text = ";\n".join(["l := l + 1"] * 3000) + "\n"
    assert_overflow_is_inconclusive(capsys, write_pair(tmp_path, text, TWO_LEVEL))


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(cli, "post_star", broken)
    code, out, err = run(capsys, ["analyze", *corpus_args("P0")])
    assert code == EXIT_USAGE
    assert "error: internal error: RuntimeError: kernel fault" in err
    assert "RESULT" not in out


class ClosedPipe:
    """Standard output whose reader has gone away."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("name,expected", [("P0", EXIT_SECURE), ("P3", EXIT_INSECURE)])
def test_a_closed_stdout_ends_quietly_with_the_verdict_exit_code(capsys, name, expected):
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        with contextlib.redirect_stdout(ClosedPipe(fd)):
            code = main(["analyze", *corpus_args(name), "--dump-composed"])
    finally:
        os.close(fd)
    assert code == expected
    assert capsys.readouterr().err == ""


def test_a_pipe_closed_by_its_reader_leaves_no_error_at_exit():
    # the interpreter flushes standard output once more as it exits
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "wherecheck.cli", "analyze", *corpus_args("P3"), "--dump-composed"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_INSECURE
    assert err == b""


def test_bad_budget_env_is_usage_error(capsys, monkeypatch):
    for raw in ("lots", "0", "-3"):
        monkeypatch.setenv(cli.BUDGET_ENV, raw)
        code, out, err = run(capsys, ["analyze", *corpus_args("P0")])
        assert code == EXIT_USAGE, raw
        assert err.startswith("error:") and err.count("\n") == 1
        assert cli.BUDGET_ENV in err
        assert "RESULT" not in out


# --------------------------------------------------------------- exit codes


def test_parse_error_exits_three(tmp_path, capsys):
    args = write_pair(tmp_path, "l := := h", TWO_LEVEL)
    code, _, err = run(capsys, ["analyze", *args])
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_policy_error_exits_three(tmp_path, capsys):
    args = write_pair(tmp_path, "l := h", "lattice: L < H\nvar l : L\n")  # h unbound
    code, _, err = run(capsys, ["analyze", *args])
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize("mode", ["storematch", "tr"])
def test_a_variable_named_tmp_is_like_any_other(tmp_path, capsys, mode):
    # a downgrade and a low output through the variable, and a leak of k in l
    text = "tmp := declass(h); output(tmp, o); l := k + tmp"
    policy = TWO_LEVEL + "var k : H\nvar tmp : L\nchannel o : L output\n"
    lines = []
    for name in ("tmp", "t"):
        (tmp_path / name).mkdir()
        args = write_pair(tmp_path / name, text.replace("tmp", name), policy.replace("tmp", name))
        code, out, err = run(capsys, ["analyze", *args, "--bits", "2", "--mode", mode])
        assert code == EXIT_INSECURE, err
        lines.append(result_lines(out))
    assert lines[0] == lines[1] == [
        "RESULT level=H verdict=secure",
        "RESULT level=L verdict=insecure",
        "RESULT overall=insecure",
    ]


def test_missing_flag_exits_three(capsys):
    code, _, err = run(capsys, ["analyze", str(CORPUS / "P0")])
    assert code == EXIT_USAGE
    assert "--policy" in err


def test_unknown_mode_exits_three(capsys):
    code, _, err = run(capsys, ["analyze", *corpus_args("P0"), "--mode", "fancy"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analyze", "--bits", "0"),
        ("analyze", "--bits", "-1"),
        ("analyze", "--capacity", "-1"),
        ("nmin", "--max-bits", "0"),
        ("nmin", "--capacity", "-1"),
        ("bench", "--bits", "0"),
        ("bench", "--capacity", "-1"),
    ],
)
def test_out_of_range_number_is_usage_error(capsys, command, flag, value):
    inputs = [str(CORPUS)] if command == "bench" else corpus_args("P0")
    code, out, err = run(capsys, [command, *inputs, flag, value])
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err
    assert out == ""


@pytest.mark.parametrize(
    "kwargs, name",
    [({"bits": 0}, "bits"), ({"bits": -1}, "bits"), ({"capacity": -1}, "capacity")],
)
def test_analyze_rejects_out_of_range_numbers(kwargs, name):
    with pytest.raises(ValueError, match=name):
        analyze(CORPUS / "P0", CORPUS / "P0.policy", **kwargs)


@pytest.mark.parametrize(
    "kwargs, name", [({"max_bits": 0}, "max_bits"), ({"capacity": -1}, "capacity")]
)
def test_find_nmin_rejects_out_of_range_numbers(kwargs, name):
    with pytest.raises(ValueError, match=name):
        find_nmin(CORPUS / "P3", CORPUS / "P3.policy", **kwargs)


@pytest.mark.parametrize("check", ["analyze", "find_nmin"])
def test_unknown_mode_is_rejected_not_run_as_storematch(check):
    fn = analyze if check == "analyze" else find_nmin
    with pytest.raises(ValueError, match="mode must be one of storematch, tr, got 'TR'"):
        fn(CORPUS / "P0", CORPUS / "P0.policy", capacity=4, mode="TR")


@pytest.mark.parametrize(
    "kwargs, name", [({"bits": 0}, "bits"), ({"capacity": -1}, "capacity")]
)
def test_bench_rejects_out_of_range_numbers(tmp_path, kwargs, name):
    # checked before the corpus is read: this directory holds no pairs
    with pytest.raises(ValueError, match=name):
        bench(tmp_path, **kwargs)


def test_missing_file_exits_three(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/prog", "--policy", "/nonexistent/pol"])
    assert code == EXIT_USAGE
    assert "cannot read" in err


# --------------------------------------------------------------------- nmin


def test_nmin_finds_width_one_for_laundering(capsys):
    code, out, _ = run(capsys, ["nmin", *corpus_args("P3")])
    assert code == EXIT_INSECURE
    assert "NMIN bits=1" in out


def test_nmin_masked_branch_needs_one_bit(capsys):
    code, out, _ = run(capsys, ["nmin", *corpus_args("P5")])
    assert code == EXIT_INSECURE
    assert "NMIN bits=1" in out


def test_nmin_absent_for_secure_program(capsys):
    code, out, _ = run(capsys, ["nmin", *corpus_args("P0"), "--max-bits", "4"])
    assert code == EXIT_SECURE
    assert "NMIN absent" in out
    assert "bits=4: secure" in out


def test_nmin_unknown_when_every_width_runs_out_of_budget(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    code, out, _ = run(capsys, ["nmin", *corpus_args("P0"), "--max-bits", "3"])
    assert code == EXIT_INCONCLUSIVE
    assert [ln for ln in out.splitlines() if ln.startswith("bits=")] == [
        f"bits={w}: inconclusive" for w in (1, 2, 3)
    ]
    assert out.splitlines()[-1] == "NMIN unknown"


def test_nmin_passes_capacity(capsys):
    code, out, _ = run(capsys, ["nmin", *corpus_args("P3"), "--capacity", "4"])
    assert code == EXIT_INSECURE
    assert "probing bits 1..6 (capacity=4 mode=storematch)" in out


def test_nmin_library_api():
    program = parse_program((CORPUS / "P3").read_text())
    policy = parse_policy((CORPUS / "P3.policy").read_text())
    assert find_nmin(program, policy) == 1
    secure = parse_program((CORPUS / "P0").read_text())
    secure_policy = parse_policy((CORPUS / "P0.policy").read_text())
    assert find_nmin(secure, secure_policy, max_bits=3) is None


# -------------------------------------------------------------------- bench


def test_bench_corpus(capsys):
    code, out, _ = run(capsys, ["bench", str(CORPUS), "--bits", "1"])
    assert code == EXIT_SECURE
    rows = [ln for ln in out.splitlines() if ln.startswith("BENCH program=")]
    assert len(rows) == 8
    agg = [ln for ln in out.splitlines() if ln.startswith("BENCH aggregate")]
    assert len(agg) == 1 and "step_ratio=" in agg[0]


def test_bench_passes_capacity(capsys, monkeypatch):
    seen = []
    real = cli.analyze

    def spy(*args, **kwargs):
        seen.append(kwargs["capacity"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze", spy)
    code, _, _ = run(capsys, ["bench", str(CORPUS), "--bits", "1", "--capacity", "4"])
    assert code == EXIT_SECURE
    assert seen and set(seen) == {4}


def test_bench_table_api():
    table = bench(CORPUS, bits=1)
    assert len(table.rows) == 8
    for row in table.rows:
        # these programs have no output channels, so nothing is duplicated
        assert row.store_bits == row.tr_bits
    assert 0.0 < table.step_ratio


def test_bench_rejects_unpaired_directory(tmp_path, capsys):
    code, _, err = run(capsys, ["bench", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "no <name>" in err


# ------------------------------------------------------------- library API


def test_analyze_accepts_parsed_objects():
    program = parse_program((CORPUS / "P4").read_text())
    policy = parse_policy((CORPUS / "P4.policy").read_text())
    report = analyze(program, policy, bits=2)
    assert isinstance(report, AnalysisReport)
    assert [r.level for r in report.levels] == sorted(policy.domains)
    assert report.overall == "insecure"
    assert report.exit_code == EXIT_INSECURE
    by_level = {r.level: r for r in report.levels}
    assert by_level["L"].verdict == "insecure"
    assert by_level["H"].verdict == "secure"
    assert by_level["L"].steps > 0
    assert by_level["L"].composed_rules > len(by_level["L"].skeleton.spds.rules)


def test_analyze_witness_only_on_request():
    program = parse_program((CORPUS / "P5").read_text())
    policy = parse_policy((CORPUS / "P5.policy").read_text())
    bare = analyze(program, policy, bits=1)
    assert all(r.witness is None for r in bare.levels)
    rich = analyze(program, policy, bits=1, want_witness=True)
    insecure = [r for r in rich.levels if r.verdict == "insecure"]
    assert insecure and all(r.witness is not None for r in insecure)
    assert all(r.witness.replay_ok for r in insecure)
