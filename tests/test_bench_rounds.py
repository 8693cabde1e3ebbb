"""One round of each benchmark workload runs through with no failed operation.

``perfbench/workloads.py`` drives the package from outside, through its
public functions, and reads attributes of their results (for example
``BDD.collections``, ``PAutomaton.node_count`` and
``Witness.replay_outcomes``).  An operation that raises counts as failed,
so a rename or a deletion there would fail every benchmark operation; here
it fails a test instead.
"""

import sys

import pytest

from programs import ROOT

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_one_round_has_no_failure(name):
    rnd = workloads.Round()
    workloads.ROUNDS[name](workloads.load(name, seed=0), rnd)
    assert rnd.attempted > 0
    assert rnd.failures == {}
