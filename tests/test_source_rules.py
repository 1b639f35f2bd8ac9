"""Standing rules on the package source, checked on its syntax tree."""

import ast
import inspect
import re
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

import crossbt
from crossbt import harness
from crossbt.engine import EngineConvention
from crossbt.marketdata import _FIELD_KINDS, SynthSpec
from crossbt.mlsignals import ElasticNetConfig, WalkForwardConfig

PACKAGE = Path(crossbt.__file__).parent


def _float_sums(source: str, filename: str) -> list[str]:
    """``file:line`` of each builtin ``sum()`` call that is not a
    ``sum(1 for ...)`` count."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            continue
        arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
        counts = (isinstance(arg, ast.GeneratorExp) and isinstance(arg.elt, ast.Constant)
                  and type(arg.elt.value) is int and arg.elt.value == 1)
        if not counts:
            found.append(f"{filename}:{node.lineno}")
    return found


def test_builtin_sum_only_counts():
    # The builtin sum() adds floats with compensation from Python 3.12 on, so
    # a float sum written with it gives different bytes on 3.11 and 3.12. An
    # integer count is exact on both.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _float_sums(path.read_text(), str(path.relative_to(PACKAGE.parent)))
    assert not found, "builtin sum() that is not a sum(1 for ...) count at " + ", ".join(found)


@pytest.mark.parametrize("source, flagged", [
    ("n = sum(1 for a in xs if a)", []),
    ("n = sum(1 for a in xs)\ntotal = sum(xs)", ["m.py:2"]),
    ("total = sum(1.0 for a in xs)", ["m.py:1"]),
    ("total = sum(True for a in xs)", ["m.py:1"]),
    ("total = sum(w for w in xs)", ["m.py:1"]),
    ("total = sum((1 for a in xs), 0.0)", ["m.py:1"]),
    ("total = sum([1 for a in xs])", ["m.py:1"]),
    ("total = np.sum(xs) + xs.sum()", []),
])
def test_float_sum_check_names_file_and_line(source, flagged):
    assert _float_sums(source, "m.py") == flagged


def _generator_params(source: str, filename: str) -> list[str]:
    """``file:line function(param)`` of each parameter of a public function
    annotated as a ``random.Generator``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        a = node.args
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
            if arg is not None and arg.annotation is not None and re.search(
                    r"\brandom\.Generator\b", ast.unparse(arg.annotation)):
                found.append(f"{filename}:{arg.lineno} {node.name}({arg.arg})")
    return found


def test_public_samplers_take_integer_seeds():
    # A run is fixed by its config and integer seeds: a sampler that takes a
    # generator leaves its draws to whatever state the caller's generator is in.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _generator_params(path.read_text(), str(path.relative_to(PACKAGE.parent)))
    assert not found, "public function takes a random.Generator at " + ", ".join(found)


@pytest.mark.parametrize("source, flagged", [
    ("def draw(n: int, seed: int) -> np.random.Generator: ...", []),
    ("def draw(n, rng: np.random.Generator): ...", ["m.py:1 draw(rng)"]),
    ("def _draw(n, rng: np.random.Generator): ...", []),
    ("def draw(n, *, rng: 'numpy.random.Generator | None' = None): ...", ["m.py:1 draw(rng)"]),
    ("class S:\n    def draw(self,\n             rng: np.random.Generator): ...", ["m.py:3 draw(rng)"]),
    ("def draw(n, rng: Generator[int, None, None]): ...", []),
])
def test_generator_param_check_names_file_and_line(source, flagged):
    assert _generator_params(source, "m.py") == flagged


def _string_literals(source: str, filename: str, names) -> dict[str, list[str]]:
    """``file:line`` of each string literal in ``source`` that is one of
    ``names``, by name, in line order."""
    found: dict[str, list[int]] = {name: [] for name in names}
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in found:
            found[node.value].append(node.lineno)
    return {name: [f"{filename}:{line}" for line in sorted(lines)] for name, lines in found.items()}


def test_each_table_is_named_once():
    # A table is declared by its one harness.TABLES entry. Its name written
    # again, in a builder or a reader, is a second place to keep in step.
    found: dict[str, list[str]] = {name: [] for name in harness.TABLES}
    for path in sorted(PACKAGE.rglob("*.py")):
        named = _string_literals(path.read_text(), str(path.relative_to(PACKAGE.parent)), harness.TABLES)
        for name, where in named.items():
            found[name] += where
    again = {name: where for name, where in found.items() if len(where) != 1}
    assert not again, f"table names not written exactly once: {again}"


@pytest.mark.parametrize("source, flagged", [
    ('TABLES = {"alpha": ("benchmark alpha".split(), _alpha)}', {"alpha": ["m.py:1"]}),
    ('TABLES = {"alpha": (["benchmark", "alpha"], _alpha)}', {"alpha": ["m.py:1", "m.py:1"]}),
    ('TABLES = {"alpha": (COLUMNS, _alpha)}\n\n\ndef _alpha(t):\n    return _row("alpha", t)',
     {"alpha": ["m.py:1", "m.py:5"]}),
    ('print(f"alpha rows: {n}", tables[ALPHA])', {"alpha": []}),
])
def test_table_name_check_names_file_and_line(source, flagged):
    assert _string_literals(source, "m.py", ["alpha"]) == flagged


#: The records a config or a convention id is read into, and the learner's
#: settings, which read and refuse their fields the same way.
CONFIG_RECORDS = (harness.RunConfig, harness.BucketConfig, SynthSpec, EngineConvention,
                  ElasticNetConfig, WalkForwardConfig)


def test_every_config_field_is_read_by_kind():
    # read_fields checks and stores a field only when every part of its
    # annotation is a _FIELD_KINDS entry, and passes over one that names a
    # nested record, which is read when it is built. A field of any other
    # annotation would be read by neither.
    records = {record.__name__ for record in CONFIG_RECORDS}
    unread = [f"{record.__name__}.{f.name}: {f.type}" for record in CONFIG_RECORDS for f in fields(record)
              if not all(part in _FIELD_KINDS or part in records for part in f.type.split(" | "))]
    assert not unread, f"fields no _FIELD_KINDS entry reads: {unread}"


def test_records_refuse_only_through_the_helper():
    # Each rule of these records is a refuse_unless row (or a read_fields
    # kind), so every refusal reads "<path> must be <rule>, got <value>".
    # RunConfig keeps two checks of its own, which name the bad entry: the
    # unknown or repeated benchmark ids, and each benchmark's cost.
    raising = [record.__name__ for record in CONFIG_RECORDS
               if record is not harness.RunConfig and any(isinstance(node, ast.Raise)
                      for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(record.__post_init__)))))]
    assert not raising, f"__post_init__ with a raise of its own: {raising}"
