"""Every name the benchmark's tracer patches still resolves on the package.

``perfbench/tracer.py`` wraps the functions and methods it lists in
``STAGES`` and ``HOT`` by name, from outside the package.  A rename there
would crash a traced benchmark run; here it fails a test instead.
"""

import importlib
import importlib.util

import pytest

from programs import ROOT

TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
NAMES = [(mod, attr) for mod, attr in tracer.STAGES] + [
    (mod, path) for mod, path, _ in tracer.HOT
]


@pytest.mark.parametrize("mod, path", NAMES, ids=[f"{m}.{p}" for m, p in NAMES])
def test_tracer_name_resolves(mod, path):
    owner = importlib.import_module(f"wherecheck.{mod}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
