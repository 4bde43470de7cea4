"""Every module under src/, tests/ and bench/ parses under the grammar of
Python 3.10, the `requires-python` floor, with `ast.parse(...,
feature_version=(3, 10))` on the running interpreter.  This checks grammar
only, as far as that option reaches (it refuses `except*`, for one), not
library calls that exist only in 3.11 or later, such as `tomllib` or
`ExceptionGroup`.  bench/ is only read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
FLOOR = (3, 10)


def test_every_tree_is_checked():
    tops = {p.relative_to(ROOT).parts[0] for p in MODULES}
    assert tops == {"src", "tests", "bench"}
    assert {"exactnum.py", "test_python_floor.py", "run.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(), str(path), feature_version=FLOOR)


def test_the_check_refuses_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)
