"""Every exception class the library raises by name has an exit code: each
module under src/hitchinforge is walked as a syntax tree, the class of
every `raise` statement is resolved, and any class that `cli.run` does not
catch (by its `except` clauses, subclasses included) is refused, so a new
kind of failure cannot reach the user as a traceback unnoticed.

Only explicit `raise` statements are in reach: an exception raised
implicitly (an IndexError from a bad index, a RecursionError, a
MemoryError, or one from the standard library) is not seen by this check."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import hitchinforge.cli as cli

SRC = Path(__file__).resolve().parent.parent / "src" / "hitchinforge"
MODULES = sorted(SRC.glob("*.py"))

# raised on purpose without an exit code:
ALLOWED = {
    "TypeError",       # misuse of the library by a caller
    "AttributeError",  # writing to an immutable value
    "CapExceeded",     # the known `trace-set --cap` defect (ROADMAP item 1)
}


def _handled_names(tree: ast.AST) -> list[str]:
    """The class names in the `except` clauses of `run`."""
    run = next(node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    names = []
    for node in ast.walk(run):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.extend(t.id for t in types)
    return names


def raised_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of the class of every `raise X` and `raise X(...)`;
    a bare re-raise names no class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "?")
            found.append((node.lineno, name))
    return found


def _resolve(name: str, namespace):
    return getattr(namespace, name, None) or getattr(builtins, name, None)


HANDLED = tuple(_resolve(name, cli) for name in
                _handled_names(ast.parse((SRC / "cli.py").read_text())))


def unmapped(tree: ast.AST, namespace) -> list[str]:
    out = []
    for line, name in raised_names(tree):
        cls = _resolve(name, namespace)
        if name in ALLOWED or (isinstance(cls, type) and issubclass(cls, HANDLED)):
            continue
        out.append(f"line {line}: {name}")
    return out


def test_run_maps_the_documented_classes():
    assert set(HANDLED) >= {cli.UsageError, ValueError, KeyError,
                            ZeroDivisionError, OSError, AssertionError}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raised_class_has_an_exit_code(path):
    module = importlib.import_module(f"hitchinforge.{path.stem}")
    assert unmapped(ast.parse(path.read_text(), str(path)), module) == []


@pytest.mark.parametrize("source, hit", [
    ("raise RuntimeError('no')", "RuntimeError"),
    ("raise StopIteration", "StopIteration"),
    ("import x\nraise x.NotImplementedError()", "NotImplementedError"),
])
def test_the_check_finds_an_unmapped_class(source, hit):
    found = unmapped(ast.parse(source), builtins)
    assert len(found) == 1 and found[0].endswith(hit)


def test_mapped_and_allowed_classes_pass_the_check():
    source = ("raise ValueError('bad')\nraise KeyError\nraise TypeError()\n"
              "raise FileNotFoundError('x')\ntry:\n    pass\nexcept OSError:\n"
              "    raise\n")
    assert unmapped(ast.parse(source), builtins) == []
