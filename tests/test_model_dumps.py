"""Model text and cell layout pinned across commits.

Each line of ``model_dumps.txt`` is one (program, bits, level) of the cases
``test_pinned_outputs`` runs: the first 16 hex digits of a sha256 over
``dump_model`` of the skeleton, and over ``dump_spds`` plus the sorted
control cells of each composition.  Together they pin every rule's text and
the declaration order of the cells, which fixes the BDD variable order and,
through ``pick_set``, the witnesses.  A change that means to move neither
leaves the file as it is.  Regenerate it, only when a model is meant to
change, with

    PYTHONPATH=src python tests/test_model_dumps.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from wherecheck.compose import self_compose, tr_compose
from wherecheck.modelgen import build_model, dump_model
from wherecheck.parser import parse_program
from wherecheck.policy import gather_downgrades, parse_policy
from wherecheck.spds import dump_spds

from test_pinned_outputs import _cases

GOLDEN = Path(__file__).resolve().parent / "model_dumps.txt"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _composed_digest(model) -> str:
    control = " ".join(sorted(model.spds.globals.control))
    return _digest(dump_spds(model.spds) + "\ncontrol: " + control)


def dump_lines() -> list[str]:
    lines = []
    seen = set()
    for name, text, policy_text, bits, capacity, _ in _cases():
        if (name, bits, capacity) in seen:
            continue  # the same model under the other transformer
        seen.add((name, bits, capacity))
        program = parse_program(text)
        policy = gather_downgrades(program, parse_policy(policy_text))
        for level in sorted(policy.domains):
            skeleton = build_model(program, policy, level, bits=bits, capacity=capacity)
            lines.append(
                f"{name} bits={bits} level={level} model={_digest(dump_model(skeleton))} "
                f"storematch={_composed_digest(self_compose(skeleton))} "
                f"tr={_composed_digest(tr_compose(skeleton))}"
            )
    return lines


def test_model_dumps_match_the_pinned_file():
    expected = GOLDEN.read_text().splitlines()
    got = dump_lines()
    for i, (want, have) in enumerate(zip(expected, got)):
        assert have == want, f"line {i + 1} differs:\n  pinned: {want}\n  now:    {have}"
    assert len(got) == len(expected), f"{len(got)} lines now, {len(expected)} pinned"


def test_every_composed_rule_line_splits_into_three_columns():
    # symbols, guard and effect; no expression or effect prints the separator
    for name, text, policy_text, bits, capacity, _ in _cases():
        program = parse_program(text)
        policy = gather_downgrades(program, parse_policy(policy_text))
        for level in sorted(policy.domains):
            skeleton = build_model(program, policy, level, bits=bits, capacity=capacity)
            for model in (self_compose(skeleton), tr_compose(skeleton)):
                for line in dump_spds(model.spds).splitlines():
                    if line.startswith("<"):
                        assert len(line.split(" ; ")) == 3, (name, level, line)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(dump_lines()) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
