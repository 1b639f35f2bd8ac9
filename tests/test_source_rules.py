"""Standing rules on the package source, checked on its syntax tree."""

import ast
import re
from pathlib import Path

import pytest

import crossbt

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
