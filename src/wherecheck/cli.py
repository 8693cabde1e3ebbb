"""Command line driver.

Wires the pipeline (parse, model, compose, search, decide) across every
security level of the policy lattice, searches for the minimal bit width
that exposes a leak, and benchmarks the two composition backends against
each other.

Exit codes: 0 secure, 1 insecure, 2 inconclusive, 3 usage, parse or
internal errors.
Machine-readable verdict lines are prefixed with RESULT and are
byte-identical across repeated runs; timing figures appear only in the
human-readable lines.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .bdd import BudgetExceeded
from .compose import (
    MODE_STORE_MATCH,
    MODE_TR,
    ComposedModel,
    self_compose,
    tr_compose,
)
from .modelgen import build_model, dump_model
from .oracle import INCONCLUSIVE, INSECURE, SECURE, check_where_security
from .parser import ParseError, parse_program
from .policy import (
    OBSERVES_EVERYTHING,
    TYPABLE,
    Policy,
    PolicyError,
    gather_downgrades,
    parse_policy,
)
from .reach import Witness, extract_witness, format_witness, is_error_reachable, post_star
from .semantics import DEFAULT_BITS, DEFAULT_CAPACITY, format_trace, run_program
from .spds import dump_spds
from .syntax import Program

DEFAULT_MAX_BITS = 6
MODES = (MODE_STORE_MATCH, MODE_TR)
BUDGET_ENV = "WHERECHECK_BUDGET"

EXIT_SECURE = 0
EXIT_INSECURE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_EXIT_BY_VERDICT = {SECURE: EXIT_SECURE, INSECURE: EXIT_INSECURE, INCONCLUSIVE: EXIT_INCONCLUSIVE}


class UsageError(Exception):
    """Bad invocation: unknown flag, missing file, malformed env var."""


class ModeDisagreement(RuntimeError):
    """The two composition backends decided the same program differently."""


class LevelReport(NamedTuple):
    """Outcome of the reachability check at one observer level."""

    level: str
    verdict: str
    reason: str = ""
    witness: Witness | None = None
    composed_rules: int = 0
    global_bits: int = 0
    steps: int = 0
    seconds: float = 0.0  # the whole level
    witness_seconds: float = 0.0  # the part spent in extract_witness
    model: ComposedModel | None = None  # kept for witness formatting and --dump-*


class AnalysisReport(NamedTuple):
    bits: int
    capacity: int
    mode: str
    levels: list[LevelReport]

    @property
    def overall(self) -> str:
        if any(r.verdict == INSECURE for r in self.levels):
            return INSECURE
        if any(r.verdict == INCONCLUSIVE for r in self.levels):
            return INCONCLUSIVE
        return SECURE

    @property
    def exit_code(self) -> int:
        return _EXIT_BY_VERDICT[self.overall]


def _coerce_program(program: Program | str | Path) -> Program:
    if isinstance(program, Program):
        return program
    return parse_program(_read(Path(program)))


def _coerce_policy(policy: Policy | str | Path) -> Policy:
    if isinstance(policy, Policy):
        return policy
    return parse_policy(_read(Path(policy)))


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _inconclusive_reason(exc: Exception) -> str:
    if isinstance(exc, RecursionError):
        return f"recursion limit {sys.getrecursionlimit()} exceeded"
    if isinstance(exc, MemoryError):
        return "out of memory"
    return f"budget exceeded: {exc}"


def _sizes(model: ComposedModel) -> dict[str, int]:
    """The composed system's rule count and state bits, as a LevelReport holds them."""
    return {
        "composed_rules": len(model.spds.rules),
        "global_bits": model.spds.globals.total_bits,
    }


def _check_at_least(low: int, **numbers: int) -> None:
    for name, value in numbers.items():
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")


def analyze(
    program: Program | str | Path,
    policy: Policy | str | Path,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    mode: str = MODE_STORE_MATCH,
    node_budget: int | None = None,
    want_witness: bool = False,
) -> AnalysisReport:
    """Decide where-security at every level of the policy lattice.

    Each level gets its own model and composition, and post_star searches
    it unless the level types, which it decides secure with the typing
    check's reason (see reach); the overall verdict is
    secure only when every level is.  A blown resource budget,
    recursion limit or memory downgrades that level to inconclusive instead
    of aborting the report, with the size of its composed model if that was
    built; one blown while the witness of an insecure
    level is extracted leaves the level insecure, with no witness and the
    reason "no witness: ...".  A width below 1, a capacity below 0 or a mode
    not in MODES raises ValueError.
    """
    _check_at_least(1, bits=bits)
    _check_at_least(0, capacity=capacity)
    _check_mode(mode)
    program = _coerce_program(program)
    policy = gather_downgrades(program, _coerce_policy(policy))
    compose = tr_compose if mode == MODE_TR else self_compose
    levels = []
    for level in sorted(policy.domains):
        start = time.perf_counter()
        model = None
        try:
            skeleton = build_model(program, policy, level, bits=bits, capacity=capacity)
            model = compose(skeleton)
            auto = post_star(model, node_budget=node_budget)
        except (BudgetExceeded, RecursionError, MemoryError) as exc:
            reason = _inconclusive_reason(exc)
            sizes = {} if model is None else _sizes(model)
            levels.append(
                LevelReport(
                    level, INCONCLUSIVE, reason, **sizes, seconds=time.perf_counter() - start
                )
            )
            continue
        verdict = INSECURE if is_error_reachable(auto, model) else SECURE
        reason, witness, witness_seconds = auto.reason, None, 0.0
        if verdict == INSECURE and want_witness:
            began = time.perf_counter()
            try:
                witness = extract_witness(auto, model)
            except (BudgetExceeded, RecursionError, MemoryError) as exc:
                reason = f"no witness: {_inconclusive_reason(exc)}"
            witness_seconds = time.perf_counter() - began
        steps = auto.steps
        del auto  # free this level's BDD before the next level builds its own
        levels.append(
            LevelReport(
                level,
                verdict,
                reason=reason,
                witness=witness,
                **_sizes(model),
                steps=steps,
                seconds=time.perf_counter() - start,
                witness_seconds=witness_seconds,
                model=model,
            )
        )
    return AnalysisReport(bits, capacity, mode, levels)


def _probe_widths(
    program: Program,
    policy: Policy,
    max_bits: int,
    capacity: int,
    mode: str,
    node_budget: int | None,
) -> Iterator[tuple[int, AnalysisReport]]:
    """(width, report) for widths 1 to max_bits, each analyzed when it is asked for."""
    for width in range(1, max_bits + 1):
        yield width, analyze(
            program, policy, bits=width, capacity=capacity, mode=mode, node_budget=node_budget
        )


def find_nmin(
    program: Program | str | Path,
    policy: Policy | str | Path,
    max_bits: int = DEFAULT_MAX_BITS,
    capacity: int = DEFAULT_CAPACITY,
    mode: str = MODE_STORE_MATCH,
    node_budget: int | None = None,
) -> int | None:
    """Least bit width in [1, max_bits] at which the program is insecure.

    None means no width in range was shown insecure.  Widths are probed in
    increasing order, so the first hit is minimal.  A max_bits below 1, a
    capacity below 0 or a mode not in MODES raises ValueError.
    """
    _check_at_least(1, max_bits=max_bits)
    _check_at_least(0, capacity=capacity)
    _check_mode(mode)
    program = _coerce_program(program)
    policy = _coerce_policy(policy)
    probes = _probe_widths(program, policy, max_bits, capacity, mode, node_budget)
    return next((width for width, report in probes if report.overall == INSECURE), None)


class BenchRow(NamedTuple):
    name: str
    verdict: str
    store_bits: int
    store_steps: int
    store_seconds: float
    tr_bits: int
    tr_steps: int
    tr_seconds: float
    typable: bool  # every storematch level types or observes everything


class BenchTable(NamedTuple):
    rows: list[BenchRow]

    @property
    def step_ratio(self) -> float | None:
        """Aggregate storematch/tr search-step ratio (< 1 favors storematch)
        over the conclusive rows, or None when they have no tr step.  An
        inconclusive row's steps stop wherever its budget fired."""
        rows = [r for r in self.rows if r.verdict != INCONCLUSIVE]
        total_tr = sum(r.tr_steps for r in rows)
        if total_tr == 0:
            return None
        return sum(r.store_steps for r in rows) / total_tr


def _discover(corpus_dir: Path) -> list[tuple[str, Path, Path]]:
    entries = []
    for policy_path in sorted(corpus_dir.glob("*.policy")):
        program_path = policy_path.with_suffix("")
        if program_path.is_file():
            entries.append((program_path.name, program_path, policy_path))
    if not entries:
        raise UsageError(f"no <name> / <name>.policy pairs found in {corpus_dir}")
    return entries


def bench(
    corpus_dir: str | Path,
    bits: int = DEFAULT_BITS,
    capacity: int = DEFAULT_CAPACITY,
    node_budget: int | None = None,
) -> BenchTable:
    """Run both composition backends over a corpus and compare their cost.

    A disagreement between two conclusive verdicts is a bug in one of the
    backends, so it raises ModeDisagreement instead of being folded into the
    table; a row where either backend is inconclusive reads inconclusive.
    A width below 1 or a capacity below 0 raises ValueError.
    """
    _check_at_least(1, bits=bits)
    _check_at_least(0, capacity=capacity)
    rows = []
    for name, program_path, policy_path in _discover(Path(corpus_dir)):
        program = _coerce_program(program_path)
        policy = _coerce_policy(policy_path)
        sm, tr = (
            analyze(program, policy, bits=bits, capacity=capacity, mode=m, node_budget=node_budget)
            for m in MODES
        )
        verdicts = {sm.overall, tr.overall}
        if len(verdicts) > 1 and INCONCLUSIVE not in verdicts:
            raise ModeDisagreement(
                f"backends disagree on {name}: storematch={sm.overall} tr={tr.overall}"
            )
        verdict = INCONCLUSIVE if INCONCLUSIVE in verdicts else sm.overall
        rows.append(
            BenchRow(
                name=name,
                verdict=verdict,
                store_bits=max(r.global_bits for r in sm.levels),
                store_steps=sum(r.steps for r in sm.levels),
                store_seconds=sum(r.seconds for r in sm.levels),
                tr_bits=max(r.global_bits for r in tr.levels),
                tr_steps=sum(r.steps for r in tr.levels),
                tr_seconds=sum(r.seconds for r in tr.levels),
                typable=all(r.reason in (TYPABLE, OBSERVES_EVERYTHING) for r in sm.levels),
            )
        )
    return BenchTable(rows)


# ---------------------------------------------------------------- formatting


def _level_line(r: LevelReport) -> str:
    if r.verdict == INCONCLUSIVE:
        return f"level {r.level}: inconclusive ({r.reason})"
    why = f" ({r.reason})" if r.reason else ""
    witness = f" witness={r.witness_seconds * 1000:.1f}ms" if r.witness is not None else ""
    return (
        f"level {r.level}: {r.verdict}{why} [rules={r.composed_rules}"
        f" global-bits={r.global_bits} steps={r.steps} time={r.seconds * 1000:.1f}ms{witness}]"
    )


def result_lines(report: AnalysisReport) -> list[str]:
    lines = [f"RESULT level={r.level} verdict={r.verdict}" for r in report.levels]
    lines.append(f"RESULT overall={report.overall}")
    return lines


def _witness_block(report: AnalysisReport) -> list[str]:
    """Each witness with the two runs its replay ran."""
    lines = []
    for r in report.levels:
        if r.witness is None or r.model is None:
            continue
        lines.append(f"--- witness level={r.level} ---")
        lines.append(format_witness(r.model, r.witness))
        for n, trace in enumerate(r.witness.runs, 1):
            lines.append(f"run {n} trace:")
            lines.extend("  " + ln for ln in format_trace(trace).splitlines())
    return lines


# ----------------------------------------------------------------- commands


def _emit(text: str) -> None:
    """Print to standard output; once its reader has gone away, drop the rest.

    A pipe closed early, as by `| head`, is no fault of the analysis, so
    the command runs on to its own exit code.  Python flushes standard
    output again at exit, so the stream is pointed at the null device.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _node_budget() -> int | None:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"{BUDGET_ENV} must be at least 1, got {value}")
    return value


def _cmd_analyze(args: argparse.Namespace) -> int:
    program = _coerce_program(args.program)
    policy = gather_downgrades(program, _coerce_policy(args.policy))
    report = analyze(
        program,
        policy,
        bits=args.bits,
        capacity=args.capacity,
        mode=args.mode,
        node_budget=_node_budget(),
        want_witness=args.witness,
    )
    out = [
        f"program {args.program}",
        f"policy {args.policy}",
        f"config bits={report.bits} capacity={report.capacity} mode={report.mode}",
    ]
    out.extend(_level_line(r) for r in report.levels)
    if args.dump_model:
        for r in report.levels:
            if r.model is not None:
                out.append(f"--- model level={r.level} ---")
                out.append(dump_model(r.model.skeleton))
    if args.dump_composed:
        for r in report.levels:
            if r.model is not None:
                out.append(f"--- composed level={r.level} ---")
                out.append(dump_spds(r.model.spds))
    if args.witness:
        out.extend(_witness_block(report))
    if args.trace:
        trace = run_program(program, policy, bits=args.bits, capacity=args.capacity)
        out.append("--- reference run (all-zero store) ---")
        out.append(format_trace(trace))
    if args.oracle:
        verdict = check_where_security(program, policy, bits=args.bits, capacity=args.capacity)
        line = f"ORACLE verdict={verdict.status} pairs={verdict.pairs_checked}"
        if verdict.note:
            line += f" note={verdict.note}"
        out.append(line)
    out.extend(result_lines(report))
    _emit("\n".join(out))
    return report.exit_code


def _cmd_nmin(args: argparse.Namespace) -> int:
    program = _coerce_program(args.program)
    policy = gather_downgrades(program, _coerce_policy(args.policy))
    _emit(f"probing bits 1..{args.max_bits} (capacity={args.capacity} mode={MODE_STORE_MATCH})")
    probes = _probe_widths(
        program, policy, args.max_bits, args.capacity, MODE_STORE_MATCH, _node_budget()
    )
    inconclusive = False
    for width, report in probes:
        _emit(f"bits={width}: {report.overall}")
        if report.overall == INSECURE:
            _emit(f"NMIN bits={width}")
            return EXIT_INSECURE
        inconclusive = inconclusive or report.overall == INCONCLUSIVE
    if inconclusive:
        _emit("NMIN unknown")
        return EXIT_INCONCLUSIVE
    _emit("NMIN absent")
    return EXIT_SECURE


def _cmd_bench(args: argparse.Namespace) -> int:
    table = bench(args.corpus, bits=args.bits, capacity=args.capacity, node_budget=_node_budget())
    for row in table.rows:
        _emit(
            f"BENCH program={row.name} verdict={row.verdict}"
            f" storematch_bits={row.store_bits} storematch_steps={row.store_steps}"
            f" tr_bits={row.tr_bits} tr_steps={row.tr_steps}"
        )
    ratio = "-" if table.step_ratio is None else f"{table.step_ratio:.4f}"
    _emit(f"BENCH aggregate programs={len(table.rows)} step_ratio={ratio}")
    secure = sum(row.verdict == SECURE for row in table.rows)
    typed = sum(row.typable for row in table.rows)
    _emit(f"BENCH precision programs={len(table.rows)} secure={secure} typable={typed}")
    store_s = sum(r.store_seconds for r in table.rows)
    tr_s = sum(r.tr_seconds for r in table.rows)
    _emit(f"wall time: storematch {store_s:.2f}s tr {tr_s:.2f}s")
    return EXIT_SECURE


# --------------------------------------------------------------------- main


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: ANN201 - argparse signature
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type: an integer no less than low."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="wherecheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_analyze = sub.add_parser("analyze", help="decide where-security at every level")
    p_analyze.add_argument("program")
    p_analyze.add_argument("--policy", required=True)
    p_analyze.add_argument("--bits", type=_int_at_least(1), default=DEFAULT_BITS)
    p_analyze.add_argument("--capacity", type=_int_at_least(0), default=DEFAULT_CAPACITY)
    p_analyze.add_argument("--mode", choices=MODES, default=MODE_STORE_MATCH)
    p_analyze.add_argument("--witness", action="store_true", help="decode a counterexample")
    p_analyze.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p_analyze.add_argument("--dump-model", action="store_true")
    p_analyze.add_argument("--dump-composed", action="store_true")
    p_analyze.add_argument("--trace", action="store_true", help="print a reference run")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_nmin = sub.add_parser("nmin", help="least bit width exposing a leak")
    p_nmin.add_argument("program")
    p_nmin.add_argument("--policy", required=True)
    p_nmin.add_argument("--max-bits", type=_int_at_least(1), default=DEFAULT_MAX_BITS)
    p_nmin.add_argument("--capacity", type=_int_at_least(0), default=DEFAULT_CAPACITY)
    p_nmin.set_defaults(func=_cmd_nmin)

    p_bench = sub.add_parser("bench", help="compare composition backends over a corpus")
    p_bench.add_argument("corpus")
    p_bench.add_argument("--bits", type=_int_at_least(1), default=DEFAULT_BITS)
    p_bench.add_argument("--capacity", type=_int_at_least(0), default=DEFAULT_CAPACITY)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ParseError, PolicyError, ModeDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:  # as a program too deep to parse; each level catches its own
        _emit(f"inconclusive ({_inconclusive_reason(exc)})\nRESULT overall=inconclusive")
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # an internal fault must not exit 1, which means insecure
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
