"""The random differential sweep: randprog programs analyzed in each mode and
checked against the brute-force oracle, and the seeds where the two differ.

A disagreement cuts both ways: an `analyze` `secure` that the oracle refutes
is a soundness fault, and an `analyze` `insecure` that the oracle proves
secure is a loss of precision.  The sweeps pin the seeds of the second kind
exactly, so a seed that joins a set fails, and so does one that leaves it.
"""

from typing import NamedTuple

from wherecheck.cli import AnalysisReport, analyze
from wherecheck.oracle import INCONCLUSIVE, OracleVerdict, check_where_security
from programs import random_program


class Row(NamedTuple):
    seed: int
    reports: dict[str, AnalysisReport]  # by mode
    oracle: OracleVerdict


def sweep(seeds, io: bool, bits: int, capacity: int, modes: dict[str, bool]) -> list[Row]:
    """One row per seed: the program's report in each of ``modes`` (mode ->
    whether to extract witnesses) and its one oracle verdict."""
    rows = []
    for seed in seeds:
        _, program, policy = random_program(seed, io)
        reports = {
            mode: analyze(program, policy, bits=bits, capacity=capacity, mode=mode, want_witness=witness)
            for mode, witness in modes.items()
        }
        oracle = check_where_security(program, policy, bits=bits, capacity=capacity)
        rows.append(Row(seed, reports, oracle))
    return rows


def disagreements(rows: list[Row], mode: str) -> list[int]:
    """The seeds where ``mode``'s verdict differs from a conclusive oracle's."""
    return [
        row.seed
        for row in rows
        if row.oracle.status != INCONCLUSIVE and row.reports[mode].overall != row.oracle.status
    ]
