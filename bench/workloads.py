"""The three benchmark workloads.

Each workload turns a seeded ``random.Random`` into a fixed list of tasks.
The seed changes how inputs are presented (conjugating matrices,
symmetries that keep every entry's size, square factors), never how much
work they take.  Every task checks
its own answer against something the task did not compute: a closed
formula, a mathematical identity, an expected table, or the exit code and
a stdout digest recorded in ``expected.json``.

Library functions are always reached through their module
(``modp.group_closure``), so the tracer's replacements are the ones called.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

from hitchinforge import bender, cli, exactnum, g2core, lattices, modp, qforms, symrep
from hitchinforge.exactnum import ExactMatrix, FieldElem

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Task:
    id: str
    fn: Callable[[], bool]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# -- CLI tasks ----------------------------------------------------------------

GENUS2_SPEC = json.dumps({
    "n": 5,
    "mode": "presentation",
    "genus": 2,
    "curve": {"kind": "separating", "h": 1},
    "sl2_assignment": {
        "a1": [["0", "1"], ["-1", "0"]],
        "b1": [["2+sqrt(3)", "0"], ["0", "2-sqrt(3)"]],
        "a2": [["2+sqrt(3)", "0"], ["0", "2-sqrt(3)"]],
        "b2": [["0", "1"], ["-1", "0"]],
    },
    "b0": {"kind": "SU_split_a", "d": 3, "k": 1},
}, sort_keys=True)

FREE_SPEC = json.dumps({
    "n": 3,
    "mode": "free",
    "curve": {"gamma": "g1"},
    "sl2_assignment": {
        "g1": [["2+sqrt(3)", "0"], ["0", "2-sqrt(3)"]],
        "g2": [["2", "sqrt(3)"], ["sqrt(3)", "2"]],
    },
    "b0": {"kind": "SU_split_a", "d": 3, "k": 1},
}, sort_keys=True)

# task id -> (argv, expected exit code); stdout digests live in expected.json
CLI_CASES: dict[str, dict[str, tuple[list[str], int]]] = {
    "closure-modp": {},
    "qfield-exact": {
        "cli.lattice-check": (["lattice-check", "--kind", "SU_sqrt_d", "--n", "5",
                               "--d", "3", "--matrix", "B0:SU_split_a:5"], 0),
        # the genus-2 assignment lies in the normaliser of the diagonal
        # torus, so it has no eigenline breaker and cannot certify density
        "cli.certify-density.genus2": (["certify-density", "--spec", GENUS2_SPEC,
                                        "--target", "SLn"], 1),
        "cli.certify-density.free": (["certify-density", "--spec", FREE_SPEC,
                                      "--target", "SLn"], 0),
        "cli.orbit-separate": (["orbit-separate", "--n", "3", "--p", "5",
                                "--B", "SU_split_a"], 0),
        "cli.symrep.diagonal": (["symrep", "--n", "5", "--matrix",
                                 '[["2+sqrt(3)","0"],["0","2-sqrt(3)"]]'], 0),
        "cli.symrep.dense": (["symrep", "--n", "5", "--matrix",
                              '[["2","sqrt(3)"],["sqrt(3)","2"]]'], 0),
    },
    "rational-forms": {
        "cli.pell.3": (["pell", "--d", "3"], 0),
        "cli.pell.13": (["pell", "--d", "13"], 0),
        "cli.quat-info": (["quat-info", "--a", "3", "--b", "3", "--height", "2"], 0),
        "cli.classify-form.J5": (["classify-form", "--matrix", "J5"], 0),
        "cli.classify-form.J7": (["classify-form", "--matrix", "J7"], 0),
        "cli.so-form": (["so-form", "--n", "5", "--a", "3", "--b", "5",
                         "--case", "degree-2"], 0),
        "cli.g2-check": (["g2-check", "--tau-word", "t s t^-1"], 0),
        "cli.reduce-modp": (["reduce-modp", "--p", "11", "--d", "3",
                             "--value", "2+sqrt(3)"], 0),
    },
}

# The trace-set closure of SL(3,5) has 372,000 elements, so a cap of 1000
# must stop it.  The expected outcome is a nonzero exit with a one-line
# message and no exception (exit codes 0/1 mean "computed").
CAP_CASE = ("cli.trace-set.cap-hit",
            ["trace-set", "--family", "SL", "--n", "3", "--p", "5", "--cap", "1000"])


def run_cli(argv: list[str], counters: dict) -> tuple[int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    data = out.getvalue().encode()
    counters["cli.stdout_bytes"] += len(data)
    return code, data, err.getvalue()


def _cli_tasks(workload: str, expected: dict, counters: dict) -> list[Task]:
    digests = expected["cli_stdout_sha256"]
    tasks = []
    for tid, (argv, code) in CLI_CASES[workload].items():
        def fn(argv=argv, code=code, digest=digests[f"{workload}/{tid}"]):
            got, data, _ = run_cli(argv, counters)
            return got == code and hashlib.sha256(data).hexdigest() == digest
        tasks.append(Task(tid, fn))
    return tasks


def _cap_task(counters: dict) -> Task:
    def fn():
        code, _, err = run_cli(CAP_CASE[1], counters)
        return code != 0 and len(err.strip().splitlines()) == 1
    return Task(CAP_CASE[0], fn)


# -- closure-modp -------------------------------------------------------------

# name -> (family, n, p, generator factory, bounded word length, conjugates)
# The conjugate counts make the bounded-word tasks clusters of unequal
# size, so the task p50 falls inside the Sp cluster and p90 inside the SU
# cluster rather than on the edge between two clusters.
CLOSURE_SETS = {
    "SL3-3": ("SL", 3, 3, lambda: modp.sl_generators(3, 3), 10, 20),
    "SL3-5": ("SL", 3, 5, lambda: modp.sl_generators(3, 5), 10, 20),
    "SU3-3": ("SU", 3, 3, lambda: modp.su3_generators(3)[0], 2, 20),
    "Sp4-3": ("Sp", 4, 3, lambda: modp.sp_generators(4, 3), 4, 40),
}


def _random_invertible(rng: random.Random, like, n: int) -> ExactMatrix:
    """A uniformly random invertible n x n matrix over the field of `like`."""
    p, r2 = like.p, like.r2
    while True:
        m = ExactMatrix([[modp.FqElem(p, rng.randrange(p),
                                      rng.randrange(p) if r2 is not None else 0, r2)
                          for _ in range(n)] for _ in range(n)])
        if not m.det().is_zero():
            return m


def _conjugate(rng: random.Random, gens: list[ExactMatrix]) -> list[ExactMatrix]:
    """The generators conjugated by one random invertible matrix: the
    group, its order and its trace set are unchanged."""
    p = _random_invertible(rng, gens[0].entries[0][0], gens[0].nrows)
    p_inv = p.inverse()
    return [p_inv * g * p for g in gens]


def _covers_field(traces, p: int, degree: int) -> bool:
    return ({(t.x, t.y) for t in traces}
            == {(x, y) for x in range(p) for y in range(p if degree == 2 else 1)})


def build_closure_modp(rng: random.Random, tiny: bool, counters: dict) -> list[Task]:
    expected = load_expected()
    full_sets = ["SL3-3"] if tiny else ["SL3-3", "SL3-5", "SU3-3", "Sp4-3"]
    order_only = "SL3-3" if tiny else "SL3-5"
    omega_primes = (3,) if tiny else (3, 5)
    tasks = []
    bases = {name: spec[3]() for name, spec in CLOSURE_SETS.items()}
    for name in full_sets:
        family, n, p, *_ = CLOSURE_SETS[name]
        gens = _conjugate(rng, bases[name])
        degree = 2 if family == "SU" else 1

        def closure(gens=gens, family=family, n=n, p=p, degree=degree):
            order, traces = modp.group_closure_and_traces(gens)
            return (order == modp.group_order_formula(family, n, p)
                    and _covers_field(traces, p, degree))
        tasks.append(Task(f"closure+traces.{name}", closure))
    family, n, p, *_ = CLOSURE_SETS[order_only]
    gens = _conjugate(rng, bases[order_only])
    tasks.append(Task(f"closure.{order_only}", lambda gens=gens, family=family, n=n, p=p: (
        modp.group_closure(gens) == modp.group_order_formula(family, n, p))))
    for p in omega_primes:
        tasks.append(Task(f"trace-set.Omega4-{p}", lambda p=p: _covers_field(
            modp.trace_set("Omega", 4, p), p, 1)))
    for name, (*_, length, conjugates) in CLOSURE_SETS.items():
        want = expected["word_traces"][name]
        for i in range(2 if tiny else conjugates):
            gens = _conjugate(rng, bases[name])
            tasks.append(Task(f"words.{name}.{i}", lambda gens=gens, length=length, want=want: (
                sorted(str(t) for t in modp.trace_set(gens, word_length=length)) == want)))
    tasks.append(_cap_task(counters))
    return tasks


# -- qfield-exact -------------------------------------------------------------

B0_CASES = (("SU_split_a", 5), ("SU_nonsplit", 5), ("SU_even_split", 4),
            ("SU_quat_even", 6), ("SO_odd", 5), ("SO_n7", 7), ("G2", 7), ("Sp", 4))

DENSITY_TARGETS = ("SLn", "Sp", "SO", "G2")


def _sl2_word(rng: random.Random, letters: list[Callable], length: int) -> ExactMatrix:
    """Product of `length` factors, cycling through the letter kinds, each
    with a random choice of parameter."""
    m = None
    for i in range(length):
        step = letters[i % len(letters)](rng)
        m = step if m is None else m * step
    return m


def _base(workload: str) -> random.Random:
    """The generator of a workload's base inputs, the same for every seed;
    the seed only picks how each base input is presented."""
    return random.Random(f"{workload}/base")


def _present(rng: random.Random, mats: list[ExactMatrix],
             galois: exactnum.GaloisAction | None = None) -> list[ExactMatrix]:
    """One seeded symmetry applied to every 2x2 matrix of a group: the
    identity or conjugation by the rotation S, by diag(1, -1) or by both,
    then possibly the Galois action.  Each preserves determinants, products
    and the size of every entry, so the work stays the same."""
    k = rng.randrange(4)
    flip = galois is not None and rng.random() < 0.5
    out = []
    for m in mats:
        (a, b), (c, d) = m.entries
        m = ExactMatrix((((a, b), (c, d)), ((d, -c), (-b, a)),
                         ((a, -b), (-c, d)), ((d, c), (b, a)))[k])
        out.append(exactnum.galois_matrix(galois, m) if flip else m)
    return out


def build_qfield_exact(rng: random.Random, tiny: bool, counters: dict) -> list[Task]:
    expected = load_expected()
    desc = exactnum.field(3)
    unit = exactnum.fundamental_unit(3).value
    one = FieldElem.one(desc)
    zero = FieldElem.zero(desc)
    sqrt3 = FieldElem.sqrt_int(desc, 3)
    params = [one, -one, sqrt3, -sqrt3]
    letters = [
        lambda r: ExactMatrix([[one, r.choice(params)], [zero, one]]),
        lambda r: ExactMatrix([[one, zero], [r.choice(params), one]]),
        lambda r: (ExactMatrix.diagonal([unit, unit.inverse()]) if r.random() < 0.5
                   else ExactMatrix.diagonal([unit.inverse(), unit])),
    ]
    tasks = []

    for n in (3,) if tiny else (3, 5):
        def containment(n=n):
            report = lattices.containment_check(3, 3, n, height=1 if tiny else 4)
            return report.failures == () and report.total == (20 if tiny else 372)
        tasks.append(Task(f"containment.n{n}", containment))

    profiles = bender.B0_EXPECTED_PROFILE
    for name, n in B0_CASES[:2] if tiny else B0_CASES:
        for k in (1, 2) if tiny else range(1, 6):
            def ledger(name=name, n=n, k=k):
                b = bender.b0_family(name, n, unit, k)
                return (b.det() == one and bender.b0_breaking_profile(name, b, n)
                        == profiles[bender.B0Kind.from_name(name)])
            tasks.append(Task(f"b0.{name}.k{k}", ledger))

    base = _base("qfield-exact")
    sigma = exactnum.GaloisAction.flipping(3)
    for n in (5, 7):
        for i in range(2 if tiny else 30):
            a, b = _present(rng, [_sl2_word(base, letters, 3),
                                  _sl2_word(base, letters, 3)], sigma)

            def multiplicative(n=n, a=a, b=b):
                ta = symrep.tau(n, a)
                return ta.det() == one and symrep.tau(n, a * b) == ta * symrep.tau(n, b)
            tasks.append(Task(f"tau-mult.n{n}.{i}", multiplicative))

    alpha = ExactMatrix([[zero, one], [-one, zero]])
    beta = ExactMatrix.diagonal([unit, unit.inverse()])
    n = 5
    for kind in ("SU_split_a", "SO_odd"):
        for k in (1,) if tiny else (1, 2):
            b_matrix = bender.b0_family(kind, n, unit, k)
            # criterion-10 kind: [a1,b1][a2,b2] = [A,B][B,A] is the identity,
            # and [A,B] is diagonal, so the bending matrix commutes with the
            # curve.  A normalises the diagonal torus, so no 2x2 eigenline
            # breaker exists and no density certificate is valid.
            a_img = alpha if rng.random() < 0.5 else -alpha          # alpha^(+-1)
            b_img = beta if rng.random() < 0.5 else beta.inverse()
            sl2 = {"a1": a_img, "b1": b_img, "a2": b_img, "b2": a_img}
            spec = bender.BendingSpec(
                n=n, assignment={g: symrep.tau(n, m) for g, m in sl2.items()},
                b_matrix=b_matrix, curve=bender.CurveSpec("separating", h=1),
                presentation=bender.SurfacePresentation(2), sl2_assignment=sl2)
            tasks.append(Task(f"bend.{kind}.k{k}.relator", lambda spec=spec: (
                bender.relator_ok(spec).ok and spec.invariant_violations() == []
                and not any(bender.density_certificate(spec, t).valid
                            for t in DENSITY_TARGETS))))
            # free mode with a dense 2x2 pair: valid for every target except
            # SLn under an orthogonal bending, which preserves the form
            s = rng.choice((sqrt3, -sqrt3))
            dense = {"g1": b_img, "g2": ExactMatrix([[2 * one, s], [s, 2 * one]])}
            free = bender.BendingSpec(
                n=n, assignment={g: symrep.tau(n, m) for g, m in dense.items()},
                b_matrix=b_matrix, curve=bender.CurveSpec("free", gamma_name="g1"),
                sl2_assignment=dense)
            for target in DENSITY_TARGETS:
                valid = not (kind == "SO_odd" and target == "SLn")
                tasks.append(Task(
                    f"bend.{kind}.k{k}.density.{target}",
                    lambda free=free, target=target, valid=valid: (
                        bender.density_certificate(free, target).valid == valid)))

    tasks += _cli_tasks("qfield-exact", expected, counters)
    return tasks


# -- rational-forms -----------------------------------------------------------

def _display_diagonal(n: int, case: str, a: int, b: int) -> list[int]:
    """The diagonal of the orthogonal-form recipe as displayed in the
    paper, extended entry for entry by the two-sided factorial rule."""
    k = (n - 1) // 2

    def f(j):
        return factorial(n - j) * factorial(j - 1)
    out = []
    if case == "degree-2":
        out += [2 * f(j) for j in range(1, k + 1)]
        out.append(factorial(k) ** 2 if n % 4 == 1 else -a * factorial(k) ** 2)
        out += [-2 * a * f(j) for j in range(k, 0, -1)]
    elif n % 4 == 1:
        out += [(-2 * a if j % 2 else -2 * b) * f(j) for j in range(1, k + 1)]
        out.append(factorial(k) ** 2)
        out += [(2 if j % 2 else 2 * a * b) * f(j) for j in range(k, 0, -1)]
    else:
        out += [(-2 * b if j % 2 else 2) * f(j) for j in range(1, k + 1)]
        out.append(-a * factorial(k) ** 2)
        out += [(2 * a * b if j % 2 else -2 * a) * f(j) for j in range(k, 0, -1)]
    return out


def _hilbert_base_pairs(count: int) -> list[tuple[int, int]]:
    """A fixed list of square-free pairs; the same for every seed, so the
    oracle does the same work whatever the seed."""
    values = [v for v in range(-30, 31)
              if v and exactnum.square_free_part(v) == v]
    fixed = random.Random(20240819)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        pair = (fixed.choice(values), fixed.choice(values))
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def _sl2z_letters(q: Fraction) -> list[Callable]:
    up = [ExactMatrix([[1, q], [0, 1]]), ExactMatrix([[1, -q], [0, 1]])]
    low = [ExactMatrix([[1, 0], [1 / q, 1]]), ExactMatrix([[1, 0], [-1 / q, 1]])]
    return [lambda r: r.choice(up), lambda r: r.choice(low)]


def _elementary_product(rng: random.Random, n: int, steps: int) -> ExactMatrix:
    """A product of `steps` random elementary matrices: unimodular."""
    m = ExactMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = rng.choice((1, -1))
        m = m * ExactMatrix(rows)
    return m


def build_rational_forms(rng: random.Random, tiny: bool, counters: dict) -> list[Task]:
    expected = load_expected()
    integral = _sl2z_letters(Fraction(1))
    rational = _sl2z_letters(Fraction(2))   # conjugate of SL2(Z) by diag(2, 1)
    base = _base("rational-forms")
    tasks = []

    for n in (2, 4) if tiny else range(2, 9):
        j = symrep.j_matrix(n)
        for i in range(2 if tiny else 12):
            letters = integral if i % 2 else rational
            a, b = _present(rng, [_sl2_word(base, letters, 4),
                                  _sl2_word(base, letters, 4)])

            def tau_checks(n=n, j=j, a=a, b=b):
                ta = symrep.tau(n, a)
                return (ta.det() == 1 and ta.transpose() * j * ta == j
                        and symrep.tau(n, a * b) == ta * symrep.tau(n, b))
            tasks.append(Task(f"tau.n{n}.{i}", tau_checks))

    squares = (Fraction(1), Fraction(4), Fraction(9), Fraction(1, 4), Fraction(4, 9))
    for a, b in _hilbert_base_pairs(4 if tiny else 40):
        for shown in range(2):   # the second presentation hits the oracle cache
            sa = a * rng.choice(squares)
            sb = b * rng.choice(squares)

            def hilbert(sa=sa, sb=sb):
                product = 1
                for v in qforms.hasse_scan_places(sa, sb):
                    symbol = qforms.hilbert_symbol(sa, sb, v)
                    if symbol != qforms.hilbert_symbol_oracle(sa, sb, v):
                        return False
                    product *= symbol
                return product == 1
            tasks.append(Task(f"hilbert.{a}.{b}.{shown}", hilbert))

    for n in (3, 5) if tiny else (3, 5, 7, 9):
        s = symrep.j_matrix(n)
        for i in range(1 if tiny else 4):
            # diagonal signs change no entry size, so no elimination step
            signs = ExactMatrix.diagonal([rng.choice((1, -1)) for _ in range(n)])
            p = _elementary_product(base, n, n + 2) * signs
            congruent = p.transpose() * s * p

            def forms(s=s, congruent=congruent):
                return (qforms.forms_equivalent(s, congruent)
                        and not qforms.forms_equivalent(s, -congruent))
            tasks.append(Task(f"forms.n{n}.{i}", forms))

    so_cases = [(n, case, a, b) for n in (5, 7) for case in ("degree-2", "degree-4")
                for a, b in ((3, 5), (2, 3))]
    for n, case, a, b in so_cases[:2] if tiny else so_cases:
        def so_form(n=n, case=case, a=a, b=b):
            res = symrep.so_form_from_cocycle(n, a, b, case)
            got = [e if isinstance(e, Fraction) else e.rational_value()
                   for e in res.diagonal_matrix.diagonal_entries()]
            return got == _display_diagonal(n, case, a, b)
        tasks.append(Task(f"so-form.n{n}.{case}.{a}-{b}", so_form))

    for i in range(2 if tiny else 8):
        m, = _present(rng, [_sl2_word(base, integral, 4)])
        tasks.append(Task(f"g2.tau7.{i}", lambda m=m: g2core.in_g2(symrep.tau(7, m))))

    def vec7():
        return g2core.Vec7([Fraction(base.randint(-9, 9), base.randint(1, 4))
                            * rng.choice((1, -1)) for _ in range(7)])
    for i in range(4 if tiny else 20):
        v, w = vec7(), vec7()

        def cross(v=v, w=w):
            c = g2core.cross7(v, w)
            return (v.pair_j7(c) == 0 and c.pair_j7(c)
                    == v.pair_j7(v) * w.pair_j7(w) - v.pair_j7(w) ** 2)
        tasks.append(Task(f"cross7.{i}", cross))

    tasks += _cli_tasks("rational-forms", expected, counters)
    return tasks


# workload name -> build(seeded rng, tiny, counters) -> task list
WORKLOADS: dict[str, Callable[[random.Random, bool, dict], list[Task]]] = {
    "closure-modp": build_closure_modp,
    "qfield-exact": build_qfield_exact,
    "rational-forms": build_rational_forms,
}
