"""The benchmark's witness check accepts a real leak and rejects a forged one."""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from wherecheck import compose, modelgen, parser, policy, reach, semantics  # noqa: E402

from witness_check import replay, runs_problem  # noqa: E402

BITS, CAPACITY = 2, 8


def _p3_witness():
    folder = ROOT / "corpus" / "table3"
    program = parser.parse_program((folder / "P3").read_text())
    pol = policy.gather_downgrades(program, policy.parse_policy((folder / "P3.policy").read_text()))
    skeleton = modelgen.build_model(program, pol, "L", bits=BITS, capacity=CAPACITY)
    model = compose.self_compose(skeleton)
    auto = reach.post_star(model)
    return program, pol, reach.extract_witness(auto, model)


def test_accepts_p3_witness_and_rejects_a_changed_release():
    program, pol, witness = _p3_witness()
    t1, t2 = replay(program, pol, witness, BITS, CAPACITY)
    assert runs_problem(pol, "L", witness, t1, t2) is None

    # the same witness, with the second run's downgrade releasing another value
    entries = [
        (config, replace(label, value=label.value + 1) if label.kind == semantics.DECLASS else label)
        for config, label in t2.entries
    ]
    assert t2.declass_events(), "P3 downgrades in both runs"
    forged = replace(t2, entries=entries)
    assert "released" in runs_problem(pol, "L", witness, t1, forged)
