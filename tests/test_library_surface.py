"""The library's surface is what its certificates and the benchmark use.
Every top-level name of src/hitchinforge (a function, a class or an
assignment; dunder names aside), public or private, must be reached: read
by another module of src/ (as a name, an attribute or a `from` import),
read by its own module outside its own definition, or named as a word in
bench/*.py, whose tracer binds functions by their names as strings.  So
must every member of its classes (a method, a property, a dataclass field
or a class attribute; dunder names and Enum's `_sunder_` hooks, which Enum
itself calls, aside): some module of src/ reads an attribute of its name
outside the member's own definition, or it is a word in bench/*.py.  A
name only the tests reach belongs in tests/, beside the oracles that use
it; the few public ones that wait for a caller are listed with the
ROADMAP item that gives them one.  Every name a module binds by a `from`
import must be read by that module, so a simplification leaves no helper
and no import behind."""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "hitchinforge").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# public names no certificate reads yet, each with the item that gives it one
AWAITING_A_CALLER = {
    "modp.trace_witness": "ROADMAP item 3",
    "qforms.hermitian_invariants": "ROADMAP item 12",
    "qforms.HermitianInvariants.disc_rep": "ROADMAP item 12",
    "qforms.HermitianInvariants.congruent_to_identity_up_to_sign": "ROADMAP item 12",
    "quatalg.is_cocompact_gamma": "ROADMAP item 12",
}


def definitions(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """The names a module or class body binds but dunders, each with its
    defining statement."""
    out = {}
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, stmt) for name in names
                   if not (name.startswith("__") and name.endswith("__")))
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


def attribute_reads(root: ast.AST) -> Counter:
    """How often each attribute name is read under `root`."""
    return Counter(n.attr for n in ast.walk(root)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unreached(src: dict[str, str], bench_text: str) -> set[str]:
    """The top-level names of the modules in `src` (name -> source), and
    the members of their classes, that no module of it and no word of
    `bench_text` reaches."""
    trees = {name: ast.parse(text) for name, text in src.items()}
    bench_words = set(re.findall(r"\w+", bench_text))
    everywhere = sum(map(attribute_reads, trees.values()), Counter())
    out = set()
    for module, tree in trees.items():
        elsewhere = reads(s for m, t in trees.items() if m != module for s in t.body)
        for name, stmt in definitions(tree.body).items():
            own = reads(s for s in tree.body if s is not stmt)
            if name not in elsewhere | own | bench_words:
                out.add(f"{module}.{name}")
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            for name, stmt in definitions(cls.body).items():
                # Enum calls its _sunder_ hooks itself (dunders are not listed)
                if name[0] == name[-1] == "_" or name in bench_words:
                    continue
                if everywhere[name] == attribute_reads(stmt)[name]:
                    out.add(f"{module}.{cls.name}.{name}")
    return out


def unused_imports(src: dict[str, str]) -> set[str]:
    """The names bound by a `from` import (other than `__future__`) in a
    module of `src` that the module never loads."""
    out = set()
    for module, text in src.items():
        nodes = list(ast.walk(ast.parse(text)))
        loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.update(f"{module}.{alias.asname or alias.name}"
                   for n in nodes if isinstance(n, ast.ImportFrom) and n.module != "__future__"
                   for alias in n.names if (alias.asname or alias.name) not in loaded)
    return out


def test_every_from_import_is_read():
    assert unused_imports({p.stem: p.read_text() for p in SRC}) == set()


def test_every_public_name_is_reached_or_awaits_its_item():
    src = {p.stem: p.read_text() for p in SRC}
    bench_text = "\n".join(p.read_text() for p in BENCH)
    assert unreached(src, bench_text) == set(AWAITING_A_CALLER)


def test_the_scan_finds_each_kind_of_reach():
    src = {
        "a": "from __future__ import annotations\n"
             "from operator import add, sub as minus, mul\n"
             "def used_here(): pass\n"
             "def by_attr(): pass\n"
             "def by_import(): pass\n"
             "def by_bench(): pass\n"
             "def lonely(): return lonely()\n"
             "class Alone:\n    def make(self): return Alone()\n"
             "class Kind(Enum):\n    RED = 'r'\n    BLUE = 'b'\n"
             "    def _missing_(cls, v): pass\n"
             "    def __str__(self): return self.name\n"
             "@dataclass\nclass Rec:\n    field: int\n    unread: int\n"
             "    tag = 'rec'\n    def used(self): return self.field\n"
             "    def wrapped(self): pass\n"
             "    def alone(self): return self.alone()\n"
             "    @property\n    def shown(self): return Kind.RED\n"
             "CONST = 1\n"
             "def _private(): pass\n"
             "def _helper(): return add\n"
             "def _imported(): pass\n"
             "__version__ = '1'\n"
             "x = used_here() or _helper()\n",
        "b": "from .a import by_import, _imported\nimport a\na.by_attr()\n"
             "def f():\n    from .a import used_here\n    return by_import(), mul\n"
             "def g(r):\n    r.tag = 1\n    return r.used(), r.shown\n",
    }
    assert unreached(src, "WRAP = ('by_bench', 'Rec.wrapped')") == {
        "a.lonely", "a.Alone", "a.CONST", "a.x", "a._private", "b.f", "b.g",
        "a.Alone.make", "a.Kind.BLUE", "a.Rec.unread", "a.Rec.tag", "a.Rec.alone"}
    assert unused_imports(src) == {"a.minus", "a.mul", "b._imported", "b.used_here"}
