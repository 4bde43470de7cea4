"""The library's public surface is what its certificates and the benchmark
use.  Every top-level name of src/hitchinforge that does not start with
`_` (a function, a class or an assignment) must be reached: read by
another module of src/ (as a name, an attribute or a `from` import), read
by its own module outside its own definition, or named as a word in
bench/*.py, whose tracer binds functions by their names as strings.  A
name only the tests reach belongs in tests/, beside the oracles that use
it; the few that wait for a caller are listed with the ROADMAP item that
gives them one."""

import ast
import re
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "hitchinforge").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# public names no certificate reads yet, each with the item that gives it one
AWAITING_A_CALLER = {
    "modp.trace_witness": "ROADMAP item 3",
    "qforms.hermitian_invariants": "ROADMAP item 12",
    "quatalg.is_cocompact_gamma": "ROADMAP item 12",
}


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's public top-level names, each with its defining statement."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, stmt) for name in names if not name.startswith("_"))
    return out


def reads(stmts: Iterable[ast.stmt]) -> set[str]:
    """The names the statements read: loaded names, attribute names and
    names imported by `from`."""
    found = set()
    for node in (n for stmt in stmts for n in ast.walk(stmt)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreached(src: dict[str, str], bench_text: str) -> set[str]:
    """The public top-level names of the modules in `src` (name -> source)
    that no module of it and no word of `bench_text` reaches."""
    trees = {name: ast.parse(text) for name, text in src.items()}
    bench_words = set(re.findall(r"\w+", bench_text))
    out = set()
    for module, tree in trees.items():
        elsewhere = reads(s for m, t in trees.items() if m != module for s in t.body)
        for name, stmt in definitions(tree).items():
            own = reads(s for s in tree.body if s is not stmt)
            if name not in elsewhere | own | bench_words:
                out.add(f"{module}.{name}")
    return out


def test_every_public_name_is_reached_or_awaits_its_item():
    src = {p.stem: p.read_text() for p in SRC}
    bench_text = "\n".join(p.read_text() for p in BENCH)
    assert unreached(src, bench_text) == set(AWAITING_A_CALLER)


def test_the_scan_finds_each_kind_of_reach():
    src = {
        "a": "def used_here(): pass\n"
             "def by_attr(): pass\n"
             "def by_import(): pass\n"
             "def by_bench(): pass\n"
             "def lonely(): return lonely()\n"
             "class Alone:\n    def make(self): return Alone()\n"
             "CONST = 1\n"
             "def _private(): pass\n"
             "x = used_here()\n",
        "b": "from .a import by_import\nimport a\na.by_attr()\n",
    }
    assert unreached(src, "WRAP = ('by_bench',)") == {
        "a.lonely", "a.Alone", "a.CONST", "a.x"}
