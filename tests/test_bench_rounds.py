"""One round of each benchmark workload runs through with no failed operation.

``perfbench/workloads.py`` drives the package from outside, through its
public functions, and reads attributes of their results (for example
``BDD.collections``, ``PAutomaton.node_count`` and
``Witness.replay_outcomes``).  An operation that raises counts as failed,
so a rename or a deletion there would fail every benchmark operation; here
it fails a test instead.  The case table's ``sweep`` group holds the
tests' copy of the ``randprog-sweep`` inputs, which must stay the
benchmark's.
"""

import sys

import pytest

from programs import ROOT, SWEEP_SEEDS, cases

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_one_round_has_no_failure(name):
    rnd = workloads.Round()
    workloads.ROUNDS[name](workloads.load(name, seed=0), rnd)
    assert rnd.attempted > 0
    assert rnd.failures == {}


def test_the_sweep_group_is_the_benchmarks_randprog_inputs():
    assert SWEEP_SEEDS == workloads.RANDPROG_SEEDS
    sources = workloads.load("randprog-sweep", seed=0)
    expected = [(f"randprog/{s.name}", s.text, s.policy_text) for s in sources]
    assert sorted(cases({"sweep": ()})) == sorted(expected)
