"""Every module under src/, tests/ and bench/ parses under the grammar of
Python 3.10, the `requires-python` floor, with `ast.parse(...,
feature_version=(3, 10))` on the running interpreter, and names no
module, builtin or module attribute of the standard library that exists
only from 3.11 on (`tomllib`, `ExceptionGroup`, `typing.Self`, ...), in an
import or in a name or attribute reference.  The grammar check reaches as
far as that option does (it refuses `except*`, for one); the name check
reads the table below, so a newer name missing from it, or one reached by
`getattr` or through a class (`datetime.datetime.UTC`), is not seen.
bench/ is only read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
FLOOR = (3, 10)

# standard-library names added in 3.11 or later
NEWER_MODULES = {"tomllib", "wsgiref.types"}
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
NEWER_ATTRIBUTES = {
    "asyncio": {"Barrier", "BrokenBarrierError", "Runner", "TaskGroup", "timeout",
                "timeout_at"},
    "contextlib": {"chdir"},
    "copy": {"replace"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum",
             "member", "nonmember", "verify"},
    "hashlib": {"file_digest"},
    "inspect": {"getmembers_static", "markcoroutinefunction"},
    "itertools": {"batched"},
    "logging": {"getLevelNamesMapping"},
    "math": {"cbrt", "exp2", "sumprod"},
    "operator": {"call"},
    "re": {"NOFLAG"},
    "sys": {"exception"},
    "typing": {"LiteralString", "Never", "NotRequired", "Required", "Self",
               "TypeVarTuple", "Unpack", "assert_never", "assert_type",
               "dataclass_transform", "get_overloads", "override",
               "reveal_type"},
    "warnings": {"deprecated"},
}


def newer_names(source: str) -> list[str]:
    """The standard-library names of 3.11 or later that a module imports
    or references: `import X` and `from X import Y`, a builtin by its
    bare name, and `M.Y` for a module M imported under any alias."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}   # local name -> the module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEWER_MODULES:
                    found.append(alias.name)
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    modules[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module in NEWER_MODULES:
                found.append(node.module)
            newer = NEWER_ATTRIBUTES.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in newer]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.attr in NEWER_ATTRIBUTES.get(modules.get(node.value.id), ())):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_every_tree_is_checked():
    tops = {p.relative_to(ROOT).parts[0] for p in MODULES}
    assert tops == {"src", "tests", "bench"}
    assert {"exactnum.py", "test_python_floor.py", "run.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(), str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_names_nothing_newer_than_the_floor(path):
    assert newer_names(path.read_text()) == []


def test_the_check_refuses_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)


@pytest.mark.parametrize("source, names", [
    ("import tomllib", ["tomllib"]),
    ("from tomllib import loads", ["tomllib"]),
    ("raise ExceptionGroup('x', [ValueError()])", ["ExceptionGroup"]),
    ("except_types = (BaseExceptionGroup,)", ["BaseExceptionGroup"]),
    ("import typing\nx: typing.Self", ["typing.Self"]),
    ("from typing import Optional, Self", ["typing.Self"]),
    ("import enum as e\nclass C(e.StrEnum): pass", ["enum.StrEnum"]),
    ("import asyncio\nasyncio.TaskGroup()", ["asyncio.TaskGroup"]),
    ("import datetime\ndatetime.UTC", ["datetime.UTC"]),
    ("from hashlib import file_digest", ["hashlib.file_digest"]),
    ("import operator\noperator.call(print)", ["operator.call"]),
    ("from contextlib import chdir", ["contextlib.chdir"]),
    ("import itertools\nitertools.batched([], 2)", ["itertools.batched"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_the_check_refuses_newer_names(source, names):
    assert newer_names(source) == names


def test_the_check_passes_floor_names():
    """Names of 3.10 pass, as do newer attribute names on objects that are
    not the module: a local `call` or a class `datetime`."""
    source = ("import typing, operator\nfrom datetime import datetime\n"
              "from fractions import Fraction\nx: typing.Optional[int]\n"
              "operator.mul\ndatetime.now\ncall = 1\nFraction.limit_denominator\n")
    assert newer_names(source) == []
