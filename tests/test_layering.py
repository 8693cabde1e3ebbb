"""The oracle is the independent reference the model is checked against, so
neither side may reach the other through its imports.  The imports are read
from each module's source with ``ast``, and followed through the modules
both sides share (``syntax``, ``policy``, ``semantics``)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wherecheck"
MODULES = {path.stem for path in SRC.glob("*.py")}
MODEL = ("bdd", "spds", "modelgen", "compose", "reach")


def imports(name: str) -> set[str]:
    """The wherecheck modules that module ``name`` imports itself."""
    found: set[str] = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            # "from . import m" has no module; "from .m import x" has m.
            module = ".".join(filter(None, ["wherecheck" if node.level else "", node.module]))
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return {m.split(".")[1] for m in found if m.startswith("wherecheck.")} & MODULES


def reached(name: str) -> set[str]:
    """Every wherecheck module that module ``name`` imports, directly or not."""
    seen, todo = set(), [name]
    while todo:
        for module in imports(todo.pop()) - seen:
            seen.add(module)
            todo.append(module)
    return seen


def test_the_import_reader_sees_relative_and_absolute_imports():
    assert imports("modelgen") >= {"policy", "semantics", "spds", "syntax"}
    assert imports("reach") >= {"bdd", "compose", "modelgen"}
    assert reached("compose") >= {"modelgen", "spds", "bdd", "policy", "syntax"}


@pytest.mark.parametrize("name", MODEL)
def test_no_model_module_reaches_the_oracle(name):
    assert "oracle" not in reached(name)


def test_the_oracle_reaches_no_model_module():
    assert not reached("oracle") & set(MODEL)
