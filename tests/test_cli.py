"""Driver tests: verdicts, exit codes, machine lines, search and bench."""

import contextlib
import inspect
import os
import re
import shutil
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
    MODES,
    AnalysisReport,
    ModeDisagreement,
    analyze,
    bench,
    find_nmin,
    main,
)
from wherecheck.compose import MODE_TR, self_compose, tr_compose
from wherecheck.modelgen import build_model
from wherecheck.oracle import check_where_security
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.reach import is_error_reachable, post_star, replay_witness
from wherecheck.syntax import Assign, BinOp, If, Num, Program, SiteLabel, Skip, Var, While
from programs import IOBENCH, ROOT, TABLE3, load, load_text

LAUNDER_LOOP = "l := 0;\nwhile l < 1 do h := h; l := l + 1 od;\nl := h\n"
TWO_LEVEL = "lattice: L < H\nvar l : L\nvar h : H\n"


def corpus_args(name: str) -> list[str]:
    return [str(TABLE3 / name), "--policy", str(TABLE3 / f"{name}.policy")]


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


def test_oracle_line_notes_why_it_is_inconclusive(tmp_path, capsys):
    # eight variables at bits 3 are 2^24 initial states, past the budget of 2^21
    policy = "lattice: L < H\n" + "".join(f"var {n} : L\n" for n in "labcdef") + "var h : H\n"
    args = write_pair(tmp_path, "l := a + b + c + d + e + f;\nh := l\n", policy)
    _, out, _ = run(capsys, ["analyze", *args, "--bits", "3", "--oracle"])
    oracle = "ORACLE verdict=inconclusive pairs=0 note=budget-exceeded: 16777216 states > 2097152"
    assert oracle in out.splitlines()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "text",
    [
        "if 2 then skip else l := h fi\n",
        "while 1 < 2 do skip od; l := h\n",
        "k := 3; if (k < 2) + 2 then skip else l := h fi\n",
    ],
)
def test_a_guard_with_no_width_of_its_own_is_read_as_the_interpreter_reads_it(
    tmp_path, capsys, text, mode
):
    # At bits 2 each guard is nonzero, so the leak never runs: the model reads
    # the guard at the width of a program value, as the interpreter does.
    args = write_pair(tmp_path, text, TWO_LEVEL + "var k : L\n")
    argv = ["analyze", *args, "--bits", "2", "--witness", "--oracle", "--mode", mode]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_SECURE
    assert "RESULT level=L verdict=secure" in result_lines(out)
    assert any(ln.startswith("ORACLE verdict=secure ") for ln in out.splitlines())
    assert "replay: FAILED" not in out
    # Every guard has a known value, so the typing check decides L without a
    # search; the full search of the composed model must agree.
    program, policy = load_text(text, TWO_LEVEL + "var k : L\n")
    compose = tr_compose if mode == MODE_TR else self_compose
    model = compose(build_model(program, policy, "L", bits=2))
    assert not is_error_reachable(post_star(model.spds), model)


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


def test_level_line_shows_the_witness_time_only_with_a_witness(capsys):
    _, out, _ = run(capsys, ["analyze", *corpus_args("P3"), "--witness"])
    low = next(ln for ln in out.splitlines() if ln.startswith("level L:"))
    assert re.search(r" time=[0-9.]+ms witness=[0-9.]+ms\]$", low)
    high = next(ln for ln in out.splitlines() if ln.startswith("level H:"))
    assert "witness=" not in high
    assert not any("witness" in ln for ln in result_lines(out))
    _, out, _ = run(capsys, ["analyze", *corpus_args("P3")])
    assert "witness=" not in out


def test_trace_flag_prints_reference_run(capsys):
    _, out, _ = run(capsys, ["analyze", *corpus_args("P0"), "--trace"])
    assert "--- reference run (all-zero store) ---" in out
    assert "outcome: halted" in out


@pytest.mark.parametrize(
    "path", sorted(TABLE3.glob("P?")) + sorted(IOBENCH.glob("B?")), ids=lambda p: p.name
)
def test_every_flag_on_every_corpus_program(capsys, path):
    policy = Path(f"{path}.policy")
    argv = ["analyze", str(path), "--policy", str(policy), "--witness", "--oracle", "--trace"]
    code, out, _ = run(capsys, [*argv, "--dump-model", "--dump-composed"])
    lines = out.splitlines()
    assert (lines[-1], code) in {
        ("RESULT overall=secure", EXIT_SECURE),
        ("RESULT overall=insecure", EXIT_INSECURE),
    }
    for level in parse_policy(policy.read_text()).domains:
        assert f"--- model level={level} ---" in lines
        assert f"--- composed level={level} ---" in lines
    assert "--- reference run (all-zero store) ---" in lines
    [oracle] = [ln for ln in lines if ln.startswith("ORACLE ")]
    assert not oracle.startswith("ORACLE verdict=inconclusive")
    assert "replay: FAILED" not in out


# Secure at L only by algebra: (h + 1) - (1 + h) is 0, which the typing
# check does not know (its operands differ), so level L is searched.
ALGEBRA = "x := (h + 1) - (1 + h);\nl := l + x\n"
ALGEBRA_POLICY = "lattice: L < H\nvar h : H\nvar l : L\nvar x : L\n"


def test_budget_env_degrades_to_inconclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "200")
    code, out, _ = run(capsys, ["analyze", *write_pair(tmp_path, ALGEBRA, ALGEBRA_POLICY)])
    assert code == EXIT_INCONCLUSIVE
    assert "RESULT overall=inconclusive" in out
    assert "budget exceeded" in out


def test_a_budget_hit_while_extracting_a_witness_keeps_the_verdict():
    # one node more than the search at L makes: the search decides L, and
    # the witness walk, which makes more than one node, runs out
    program, policy = load("P3")
    model = {r.level: r for r in analyze(program, policy, bits=4).levels}["L"].model
    budget = post_star(model).node_count + 1
    bare = analyze(program, policy, bits=4, node_budget=budget)
    report = analyze(program, policy, bits=4, node_budget=budget, want_witness=True)
    level = {r.level: r for r in report.levels}["L"]
    assert level.verdict == "insecure" and level.witness is None
    assert level.reason == f"no witness: budget exceeded: BDD node budget {budget} exhausted"
    assert cli.result_lines(report) == cli.result_lines(bare)


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


def deep_sum(terms: int) -> str:
    return " + ".join(["l"] * (terms - 1) + ["h"])


def assert_decides_insecure_at_l(text: str) -> None:
    """In both modes, at bits 2: H secure, L insecure with a witness that
    replays, and the oracle agrees."""
    program, policy = load_text(text, TWO_LEVEL)
    for mode in MODES:
        report = analyze(program, policy, bits=2, capacity=0, mode=mode, want_witness=True)
        assert [(r.level, r.verdict) for r in report.levels] == [("H", "secure"), ("L", "insecure")]
        assert replay_witness(report.levels[1].model, report.levels[1].witness)[0]
    verdict = check_where_security(program, policy, bits=2, capacity=0)
    assert verdict.status == "insecure"


def test_deep_expression_decides():
    # Every expression pass loops over the sum's postfix list, so sums far
    # deeper than the recursion limit decide, in an assignment and as a guard.
    for terms in (1500, 3000):
        assert_decides_insecure_at_l(f"l := {deep_sum(terms)}\n")
    assert_decides_insecure_at_l(f"if {deep_sum(3000)} then l := 1 else l := 0 fi\n")


def test_deep_if_nesting_overflow_is_inconclusive(tmp_path, capsys):
    # The parser recurses into each nested body, so 600 nested ifs overflow it.
    text = "if l then " * 600 + "skip" + " else skip fi" * 600 + "\n"
    assert_overflow_is_inconclusive(capsys, write_pair(tmp_path, text, TWO_LEVEL))


def nested_program(kind: str, depth: int) -> Program:
    """l := l + 1 inside depth nested `if h then ... else skip fi` or
    `while h < 1 do ... od`, built in code with dense preorder labels."""
    cmd = Assign(SiteLabel(depth), "l", BinOp("+", Var("l"), Num(1)))
    for k in reversed(range(depth)):
        if kind == "if":
            cmd = If(SiteLabel(k), Var("h"), cmd, Skip(SiteLabel(2 * depth - k)))
        else:
            cmd = While(SiteLabel(k), BinOp("<", Var("h"), Num(1)), cmd)
    return Program(cmd)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind, expected", [("if", "insecure"), ("while", "secure")])
def test_deep_nesting_built_in_code_decides(kind, expected, mode):
    # The model, the typing check and the interpreter's point table loop
    # over the site table, so 1500 levels decide, with a witness that
    # replays and against the oracle, as 3 levels do.
    policy = parse_policy(TWO_LEVEL)
    for depth in (3, 1500):
        program = nested_program(kind, depth)
        report = analyze(program, policy, bits=2, capacity=0, mode=mode, want_witness=True)
        assert [(r.level, r.verdict) for r in report.levels] == [("H", "secure"), ("L", expected)]
        for r in report.levels:
            if r.verdict == "insecure":
                assert replay_witness(r.model, r.witness)[0], depth
        verdict = check_where_security(
            program, gather_downgrades(program, policy), bits=2, capacity=0
        )
        assert verdict.status == expected, depth


def test_a_deep_expression_before_a_statement_decides():
    # A sequence does not hash its first command, so the 1500-term sum
    # parses into a program of two sites, and no pass recurses into it.
    text = "l := " + " + ".join(["l"] * 1500) + "; l := l + h\n"
    assert len(parse_program(text).flow) == 2
    assert_decides_insecure_at_l(text)


def test_long_sequence_decides(tmp_path, capsys):
    # The parser reads a sequence in a loop, so 3000 statements decide.
    args = write_pair(tmp_path, ";\n".join(["l := l + 1"] * 3000) + "\n", TWO_LEVEL)
    code, out, err = run(capsys, ["analyze", *args, "--bits", "2"])
    assert code == 0, err
    assert out.endswith("RESULT overall=secure\n")
    code, out, err = run(capsys, ["nmin", *args, "--max-bits", "2"])
    assert code == 0, err
    assert out.endswith("NMIN absent\n")


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
    src = str(ROOT / "src")
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


@pytest.mark.parametrize(
    "text, declared, flag",
    [
        ("input(x, c); output(x, c)", "input length 1", "--oracle"),
        ("output(x, c); input(x, c)", "output", "--trace"),
    ],
)
def test_channel_used_both_ways_exits_three(tmp_path, capsys, text, declared, flag):
    policy = f"lattice: L < H\nvar x : L\nchannel c : L {declared}\n"
    code, out, err = run(capsys, ["analyze", *write_pair(tmp_path, text, policy), flag])
    assert code == EXIT_USAGE
    assert err.startswith("error: channel 'c' is declared") and err.count("\n") == 1
    assert "Traceback" not in err and "RESULT" not in out


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
    code, _, err = run(capsys, ["analyze", str(TABLE3 / "P0")])
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
    inputs = [str(TABLE3)] if command == "bench" else corpus_args("P0")
    code, out, err = run(capsys, [command, *inputs, flag, value])
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err
    assert out == ""


def test_a_number_that_is_not_an_integer_is_usage_error(capsys):
    code, out, err = run(capsys, ["analyze", *corpus_args("P0"), "--bits", "two"])
    assert code == EXIT_USAGE
    assert err == "error: argument --bits: invalid int value: 'two'\n"
    assert out == ""


@pytest.mark.parametrize(
    "kwargs, name",
    [({"bits": 0}, "bits"), ({"bits": -1}, "bits"), ({"capacity": -1}, "capacity")],
)
def test_analyze_rejects_out_of_range_numbers(kwargs, name):
    with pytest.raises(ValueError, match=name):
        analyze(TABLE3 / "P0", TABLE3 / "P0.policy", **kwargs)


@pytest.mark.parametrize(
    "kwargs, name", [({"max_bits": 0}, "max_bits"), ({"capacity": -1}, "capacity")]
)
def test_find_nmin_rejects_out_of_range_numbers(kwargs, name):
    with pytest.raises(ValueError, match=name):
        find_nmin(TABLE3 / "P3", TABLE3 / "P3.policy", **kwargs)


@pytest.mark.parametrize("check", ["analyze", "find_nmin"])
def test_unknown_mode_is_rejected_not_run_as_storematch(check):
    fn = analyze if check == "analyze" else find_nmin
    with pytest.raises(ValueError, match="mode must be one of storematch, tr, got 'TR'"):
        fn(TABLE3 / "P0", TABLE3 / "P0.policy", capacity=4, mode="TR")


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


@pytest.mark.parametrize("name", [f"P{i}" for i in range(8)])
def test_nmin_to_6_bits_over_table3(capsys, name):
    # find_nmin's None on a secure program would also hide a width that ended
    # inconclusive; the command line says "absent" only if every width is secure.
    code, out, _ = run(capsys, ["nmin", *corpus_args(name), "--max-bits", "6"])
    if name in ("P3", "P4", "P5"):
        assert (code, out.splitlines()[-1]) == (EXIT_INSECURE, "NMIN bits=1")
    else:
        assert (code, out.splitlines()[-1]) == (EXIT_SECURE, "NMIN absent")


def test_nmin_unknown_when_every_width_runs_out_of_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "5")
    # secure and untyped at L, so its search runs at every width
    args = write_pair(tmp_path, ALGEBRA, ALGEBRA_POLICY)
    code, out, _ = run(capsys, ["nmin", *args, "--max-bits", "3"])
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
    program = parse_program((TABLE3 / "P3").read_text())
    policy = parse_policy((TABLE3 / "P3.policy").read_text())
    assert find_nmin(program, policy) == 1
    secure = parse_program((TABLE3 / "P0").read_text())
    secure_policy = parse_policy((TABLE3 / "P0.policy").read_text())
    assert find_nmin(secure, secure_policy, max_bits=3) is None


# -------------------------------------------------------------------- bench


def test_bench_corpus(capsys):
    code, out, _ = run(capsys, ["bench", str(TABLE3), "--bits", "1"])
    assert code == EXIT_SECURE
    rows = [ln for ln in out.splitlines() if ln.startswith("BENCH program=")]
    assert len(rows) == 8
    agg = [ln for ln in out.splitlines() if ln.startswith("BENCH aggregate")]
    assert len(agg) == 1 and "step_ratio=" in agg[0]


def test_bench_prints_the_precision_of_the_typing_check(capsys):
    # every secure program types at every level: P0, P1, P2, P7, and P6 by
    # its constant h2; B7 by its constant guard
    code, out, _ = run(capsys, ["bench", str(TABLE3), "--bits", "2"])
    assert code == EXIT_SECURE
    lines = out.splitlines()
    agg = next(i for i, ln in enumerate(lines) if ln.startswith("BENCH aggregate"))
    assert lines[agg + 1] == "BENCH precision programs=8 secure=5 typable=5"
    assert [row.typable for row in bench(TABLE3, bits=2).rows] == [
        True, True, True, False, False, False, True, True
    ]
    code, out, _ = run(capsys, ["bench", str(IOBENCH), "--bits", "2"])
    assert code == EXIT_SECURE
    assert "BENCH precision programs=8 secure=6 typable=6" in out.splitlines()


def test_bench_passes_capacity(capsys, monkeypatch):
    seen = []
    real = cli.analyze

    def spy(*args, **kwargs):
        seen.append(kwargs["capacity"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze", spy)
    code, _, _ = run(capsys, ["bench", str(TABLE3), "--bits", "1", "--capacity", "4"])
    assert code == EXIT_SECURE
    assert seen and set(seen) == {4}


def test_bench_table_api():
    table = bench(TABLE3, bits=1)
    assert len(table.rows) == 8
    for row in table.rows:
        # these programs have no output channels, so nothing is duplicated
        assert row.store_bits == row.tr_bits
    assert 0.0 < table.step_ratio


def test_bench_reads_a_backend_out_of_budget_as_inconclusive(capsys, monkeypatch):
    # at this budget tr cannot decide B1, which storematch finds insecure
    table = bench(IOBENCH, bits=2, capacity=8, node_budget=900)
    assert len(table.rows) == 8
    assert {row.name: row.verdict for row in table.rows}["B1"] == "inconclusive"
    # through the command line at budget 1000, B4 is the row left undecided:
    # no disagreement, so exit 0
    monkeypatch.setenv(cli.BUDGET_ENV, "1000")
    code, out, _ = run(capsys, ["bench", str(IOBENCH), "--bits", "2"])
    assert code == EXIT_SECURE
    undecided = [ln.split()[1] for ln in out.splitlines() if " verdict=inconclusive " in ln]
    assert undecided == ["program=B4"]


def test_bench_step_ratio_reads_only_conclusive_rows(tmp_path, capsys, monkeypatch):
    # iobench with B7's constant l := 0 made l := (h + 1) - (1 + h), which is
    # secure and does not type.  At this budget B1, B4 and B7 are inconclusive
    # with tr's steps cut short; the five conclusive rows search no level in
    # either backend.
    shutil.copytree(IOBENCH, tmp_path, dirs_exist_ok=True)
    b7 = tmp_path / "B7"
    b7.write_text(b7.read_text().replace("l := 0;", "l := (h + 1) - (1 + h);", 1))
    assert bench(tmp_path, bits=2, capacity=8).step_ratio == pytest.approx(0.92)
    table = bench(tmp_path, bits=2, capacity=8, node_budget=900)
    assert [row.name for row in table.rows if row.verdict == "inconclusive"] == ["B1", "B4", "B7"]
    assert table.step_ratio is None
    monkeypatch.setenv(cli.BUDGET_ENV, "900")
    code, out, _ = run(capsys, ["bench", str(tmp_path), "--bits", "2"])
    assert code == EXIT_SECURE
    assert "BENCH aggregate programs=8 step_ratio=-" in out.splitlines()


def test_an_inconclusive_level_keeps_its_composed_model_size():
    # tr's model of B1 at level L is built; the budget fires in its search.
    args = (IOBENCH / "B1", IOBENCH / "B1.policy")
    full = analyze(*args, bits=2, capacity=8, mode="tr").levels[-1]
    cut = analyze(*args, bits=2, capacity=8, mode="tr", node_budget=900).levels[-1]
    assert (cut.level, cut.verdict, full.verdict) == ("L", "inconclusive", "insecure")
    assert cut.composed_rules == full.composed_rules > 0
    assert cut.global_bits == full.global_bits > 0


def test_a_real_backend_disagreement_fails(capsys, monkeypatch):
    real = cli.tr_compose

    def blind(skeleton):  # tr's model can no longer reach its error symbol
        model = real(skeleton)
        return model._replace(spds=model.spds._replace(error="nowhere"))

    monkeypatch.setattr(cli, "tr_compose", blind)
    with pytest.raises(ModeDisagreement, match="backends disagree on P3"):
        bench(TABLE3, bits=2)
    code, _, err = run(capsys, ["bench", str(TABLE3), "--bits", "2"])
    assert code == EXIT_USAGE
    assert [ln for ln in err.splitlines() if ln.startswith("error: backends disagree")] == [
        "error: backends disagree on P3: storematch=insecure tr=secure"
    ]


def test_bench_rejects_unpaired_directory(tmp_path, capsys):
    code, _, err = run(capsys, ["bench", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "no <name>" in err


# ------------------------------------------------------------- library API


def test_analyze_accepts_parsed_objects():
    program = parse_program((TABLE3 / "P4").read_text())
    policy = parse_policy((TABLE3 / "P4.policy").read_text())
    report = analyze(program, policy, bits=2)
    assert isinstance(report, AnalysisReport)
    assert [r.level for r in report.levels] == sorted(policy.domains)
    assert report.overall == "insecure"
    assert report.exit_code == EXIT_INSECURE
    by_level = {r.level: r for r in report.levels}
    assert by_level["L"].verdict == "insecure"
    assert by_level["H"].verdict == "secure"
    assert by_level["L"].steps > 0
    assert by_level["L"].composed_rules > len(by_level["L"].model.skeleton.spds.rules)


def test_analyze_witness_only_on_request():
    program, policy = load("P5")
    bare = analyze(program, policy, bits=1)
    assert all(r.witness is None for r in bare.levels)
    rich = analyze(program, policy, bits=1, want_witness=True)
    insecure = [r for r in rich.levels if r.verdict == "insecure"]
    assert insecure and all(r.witness is not None for r in insecure)
    assert all(r.witness.replay_ok for r in insecure)


def test_the_readme_library_example_runs(monkeypatch):
    section = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    example = section.split("```python", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(example, namespace)
    report = namespace["report"]
    assert report.overall == "insecure"
    assert [(r.level, r.verdict) for r in report.levels] == [
        ("H", "secure"), ("L", "insecure"),
    ]
