"""The oracle is the independent reference the model is checked against, so
neither side may reach the other through its imports.  The imports are read
from each module's source with ``ast``, and followed through the modules
both sides share (``syntax``, ``policy``, ``semantics``).

No pass over a program or an expression recurses, so their depth cannot
exhaust Python's stack: the same ``ast`` reading lists every function that
calls itself, and only a few are allowed to.  It also lists every
``@dataclass``: a record is a NamedTuple unless it needs one of the
features of a dataclass that the keep-list names, and only the modules of
the kept ones import ``dataclasses``.  Every module of the package, the
tests and the benchmark parses as Python 3.10, the oldest version that
``pyproject.toml`` supports."""

import ast

import pytest

from programs import ROOT

SRC = ROOT / "src" / "wherecheck"
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


# The BDD kernels, whose depth is the variable count; the generator's
# printer and expression builder, whose depth it bounds; and the parser,
# which recurses on nesting in source.
RECURSIVE = {"bdd.BDD.apply", "bdd.BDD.relprod", "randprog.render", "randprog._expr"}


def self_calls() -> set[str]:
    """Every function of wherecheck that calls itself by name, as
    module.qualified name; a method's ``self.f()`` counts as a call of f."""
    found: set[str] = set()
    todo = [(path.stem, ast.parse(path.read_text())) for path in SRC.glob("*.py")]
    while todo:
        prefix, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                todo.append((name, child))
                calls = {
                    call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                    for call in ast.walk(child)
                    if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
                }
                if isinstance(child, ast.FunctionDef) and child.name in calls:
                    found.add(name)
    return found


def test_only_the_kernels_the_parser_and_the_generator_recurse():
    found = self_calls()
    assert "parser._Parser.parse_expr" in found
    assert {name for name in found if not name.startswith("parser.")} == RECURSIVE


# A record is a NamedTuple, which is faster to import, build, compare and
# hash, unless it needs a dataclass feature; these are the ones that do.
KEPT_DATACLASSES = {
    "syntax.Program": "cached_property needs an instance __dict__",
    "spds.GlobalsDecl": "cached_property needs an instance __dict__",
    "semantics.StepLabel": "a rule left out of == and repr; perfbench replaces it",
    "semantics.Trace": "perfbench calls dataclasses.replace on it",
}


def dataclasses_in_source() -> set[str]:
    """Every class of wherecheck under ``@dataclass``, as module.name."""
    found: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    deco = deco.func if isinstance(deco, ast.Call) else deco
                    name = deco.id if isinstance(deco, ast.Name) else getattr(deco, "attr", "")
                    if name == "dataclass":
                        found.add(f"{path.stem}.{node.name}")
    return found


def test_only_the_kept_records_are_dataclasses():
    assert dataclasses_in_source() == set(KEPT_DATACLASSES)
    # and only the modules that keep one import dataclasses
    importers = {
        path.stem
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
    }
    assert importers == {name.split(".")[0] for name in KEPT_DATACLASSES}


def parse_as_3_10(text: str, filename: str = "<text>") -> ast.Module:
    """``text`` parsed as Python 3.10, or SyntaxError.

    ``ast.parse(..., feature_version=(3, 10))`` flags some newer forms, such
    as ``except*``, but accepts two that Python 3.10 rejects (PEP 646): a
    starred subscript ``a[*b]`` and a starred ``*args`` annotation.  A walk
    of the tree rejects both.  A subscript's tuple with a starred element is
    legal in 3.10 only in parentheses, so it is rejected when it starts where
    its first element starts."""
    tree = ast.parse(text, filename=filename, feature_version=(3, 10))
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            elts = node.slice.elts
            bare = elts and (node.slice.lineno, node.slice.col_offset) == (
                elts[0].lineno, elts[0].col_offset,
            )
            if bare and any(isinstance(e, ast.Starred) for e in elts):
                raise SyntaxError(f"{where}: a starred subscript needs Python 3.11")
        if isinstance(node, ast.arguments) and node.vararg is not None:
            if isinstance(node.vararg.annotation, ast.Starred):
                raise SyntaxError(f"{where}: a starred *args annotation needs Python 3.11")
    return tree


def test_every_module_parses_as_python_3_10():
    # requires-python = ">=3.10".
    paths = [path for part in ("src", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")]
    assert len(paths) > 40
    for path in sorted(paths):
        parse_as_3_10(path.read_text(), str(path))


@pytest.mark.parametrize(
    "text",
    ["a[*b]", "a[x, *b] = c", "a[\n    *b,\n]", "def f(*args: *tuple[int, ...]): pass"],
)
def test_the_3_10_parse_rejects_each_newer_form(text):
    with pytest.raises(SyntaxError):
        parse_as_3_10(text)


def test_the_3_10_parse_accepts_their_3_10_spellings():
    parse_as_3_10("a[(*b,)]\na[(x, *b)] = c\na[x, y]\ndef f(*args: tuple[int, ...]): pass")
