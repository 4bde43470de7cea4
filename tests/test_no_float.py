"""No floating point in the library: every module under src/hitchinforge
is walked as a syntax tree, and a float or complex literal, the names
`float` and `complex`, and math's sqrt, log, exp and pi (as `math.x` or
imported by name) are refused wherever they appear."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hitchinforge"
MODULES = sorted(SRC.glob("*.py"))
FLOAT_MATH = {"sqrt", "log", "exp", "pi"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"{where}: name {node.id}")
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where}: from math import {alias.name}"
                         for alias in node.names if alias.name in FLOAT_MATH)
    return found


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {
        "exactnum.py", "symrep.py", "modp.py", "cli.py", "qforms.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("source, hit", [
    ("x = 0.5", "literal 0.5"),
    ("x = 2j", "literal 2j"),
    ("x = float(y)", "name float"),
    ("x = isinstance(y, complex)", "name complex"),
    ("import math\nx = math.sqrt(2)", "math.sqrt"),
    ("import math\nx = math.pi", "math.pi"),
    ("from math import log, isqrt", "from math import log"),
])
def test_the_check_finds_each_kind_of_use(source, hit):
    found = float_uses(ast.parse(source))
    assert len(found) == 1 and found[0].endswith(hit)


def test_exact_code_passes_the_check():
    source = ("from math import isqrt, gcd\nfrom fractions import Fraction\n"
              "x = Fraction(1, 2) + isqrt(10) // gcd(4, 6)\ny = 10 ** 6\n")
    assert float_uses(ast.parse(source)) == []
