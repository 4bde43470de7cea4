"""Fraction-free elimination (`exactnum._Elimination`) against the scalar
eliminations it replaced, which live here as its oracles: `_echelon`,
Gaussian elimination on ring elements behind the old det, inverse, rank and
re-eliminating span_dimension, and the congruence loops (`add_col`,
`swap`) of the old diagonalize_qform.  Also the scalars a det builds, the
span's single reduction per candidate, and the callers that now eliminate
once."""

import random
import sys
from fractions import Fraction

import pytest

from hitchinforge import qforms, symrep
from hitchinforge.bender import b0_family
from hitchinforge.exactnum import (
    ExactMatrix,
    FieldElem,
    _Elimination,
    _invert,
    _zero_like,
    field,
    fundamental_unit,
    span_dimension,
)
from hitchinforge.qforms import diagonalize_qform, hermitian_invariants
from hitchinforge.symrep import tau
from test_exactnum import ELIMINATION_RINGS, _seeded_matrix

OM = fundamental_unit(3).value
B0_CASES = [
    ("SU_split_a", 5), ("SU_nonsplit", 5), ("SU_even_split", 4),
    ("SU_quat_even", 6), ("SO_odd", 5), ("SO_n7", 7), ("G2", 7), ("Sp", 4),
]


# -- the scalar oracles -------------------------------------------------------

def _echelon(rows, ncols):
    """Rows to echelon form in place by Gaussian elimination on ring
    elements; the pivot columns and the sign of the row permutation."""
    pivots = []
    sign = 1
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            sign = -sign
        pivots.append(col)
        below = [r for r in range(top + 1, len(rows)) if rows[r][col]]
        if below:
            prow = rows[top][col:]
            inv = _invert(prow[0])
            for r in below:
                row = rows[r]
                factor = row[col] * inv
                rows[r] = row[:col] + [a - factor * b for a, b in zip(row[col:], prow)]
    return pivots, sign


def old_det(m):
    rows = [list(r) for r in m.entries]
    pivots, sign = _echelon(rows, m.ncols)
    if len(pivots) < m.nrows:
        return _zero_like(rows[0][0])
    det = rows[0][0]
    for i in range(1, m.nrows):
        det = det * rows[i][i]
    return det if sign == 1 else -det


def old_inverse(m):
    n = m.nrows
    ident = ExactMatrix.identity(n, like=m.entries[0][0])
    aug = [list(r) + list(e) for r, e in zip(m.entries, ident.entries)]
    if len(_echelon(aug, n)[0]) < n:
        raise ZeroDivisionError("matrix is singular")
    out = [None] * n
    for i in reversed(range(n)):
        row = aug[i][n:]
        for j in range(i + 1, n):
            if aug[i][j]:
                factor = aug[i][j]
                row = [a - factor * b for a, b in zip(row, out[j])]
        inv = _invert(aug[i][i])
        out[i] = [e * inv for e in row]
    return ExactMatrix(out)


def old_rank(m):
    return len(_echelon([list(r) for r in m.entries], m.ncols)[0])


def old_span_dimension(mats):
    """The span of products of length <= 2n-1, re-eliminating the whole
    basis for each candidate."""
    n = mats[0].nrows
    cap = n * n
    basis = []

    def add_matrix(m):
        rows = basis + [[e for row in m.entries for e in row]]
        if len(_echelon(rows, cap)[0]) == len(basis):
            return False
        basis[:] = rows
        return True

    frontier = [m for m in [ExactMatrix.identity(n, like=mats[0].entries[0][0])]
                if add_matrix(m)]
    for _ in range(2 * n - 1):
        if len(basis) >= cap or not frontier:
            break
        new_frontier = []
        for m in frontier:
            for g in mats:
                prod = m * g
                if add_matrix(prod):
                    new_frontier.append(prod)
        frontier = new_frontier
    return len(basis)


def old_diagonalize(S):
    """(classes, diagonal, P) by congruence operations on Fractions."""
    n = S.nrows
    a = [list(row) for row in S.entries]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_col(dst, src, factor):
        for i in range(n):
            a[i][dst] += factor * a[i][src]
        for j in range(n):
            a[dst][j] += factor * a[src][j]
        for i in range(n):
            p[i][dst] += factor * p[i][src]

    def swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if a[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if a[i][j] != 0), None)
                if pair is None:
                    break
                i, j = pair
                if i != k:
                    swap(k, i)
                add_col(k, j, Fraction(1))
        pv = a[k][k]
        for j in range(k + 1, n):
            if a[k][j] != 0:
                add_col(j, k, -a[k][j] / pv)
    diag = tuple(a[i][i] for i in range(n))
    classes = tuple(qforms.square_class(d) if d != 0 else 0 for d in diag)
    return classes, diag, ExactMatrix(p)


def _same(got, want):
    """Equal matrices whose entries are also of equal types."""
    assert got == want
    assert [type(x) for row in got.entries for x in row] == \
        [type(x) for row in want.entries for x in row]


def _check_against_oracle(m):
    det = m.det()
    assert det == old_det(m) and type(det) is type(old_det(m))
    assert m.rank() == old_rank(m) == m.rank_and_det()[0]
    assert m.transpose().rank() == m.rank()
    if det:
        _same(m.inverse(), old_inverse(m))
    else:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    return bool(det)


# -- det, rank and inverse ----------------------------------------------------

@pytest.mark.parametrize("ring", sorted(ELIMINATION_RINGS))
def test_det_rank_and_inverse_match_the_scalar_elimination(ring, rng):
    """n = 5..9, past the Leibniz oracle's n <= 4, full rank and not."""
    invertible = singular = 0
    for n in range(5, 10):
        for rank in (None, None, n - 1, n - 3):
            if _check_against_oracle(_seeded_matrix(rng, ring, n, n, rank)):
                invertible += 1
            else:
                singular += 1
        # rectangular ranks, both ways round
        m = _seeded_matrix(rng, ring, n, n + 2, n - 1)
        assert m.rank() == old_rank(m) == m.transpose().rank()
    assert invertible >= 5 and singular >= 5


def _huge(rng, desc, digits):
    """Scalars whose coordinates are near 10^digits, with small
    denominators; a quarter are zero."""
    def coordinate():
        return Fraction(10 ** digits * rng.choice((1, -1)) + rng.randint(-9, 9),
                        rng.randint(1, 4))
    if rng.random() < 0.25:
        return Fraction(0) if not desc.radicands else FieldElem.zero(desc)
    if not desc.radicands:
        return coordinate()
    return FieldElem(desc, [coordinate() for _ in range(desc.dim)])


@pytest.mark.parametrize("digits", [30, 600])
@pytest.mark.parametrize("radicands", [(), (2, 3)], ids=["Q", "Q(sqrt2,sqrt3)"])
def test_exact_divisions_never_truncate_huge_coordinates(radicands, digits):
    """Coordinates near 10^30 and 10^600: every division of the step must
    be exact, so det, rank and inverse agree with the scalar elimination,
    including a singular matrix whose rows cancel only exactly."""
    rng = random.Random(digits + len(radicands))
    desc = field(*radicands)
    for n in (3, 4):
        m = ExactMatrix([[_huge(rng, desc, digits) for _ in range(n)] for _ in range(n)])
        while not old_det(m):
            m = ExactMatrix([[_huge(rng, desc, digits) for _ in range(n)] for _ in range(n)])
        assert _check_against_oracle(m)
        assert (m * m.inverse()).is_identity()
        rows = [list(r) for r in m.entries]
        rows[-1] = [a + b * Fraction(3, 7) for a, b in zip(rows[0], rows[1])]
        assert not _check_against_oracle(ExactMatrix(rows))


def _calls(code, fn):
    """fn() and the number of calls it made to the Python function whose
    code object is code."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, len(calls)


@pytest.mark.parametrize("ring", ["Q", "Q(sqrt3)"])
def test_a_det_builds_scalars_linear_in_n_not_cubic(ring):
    """A dense 7x7 det builds at most n scalars (the scalar elimination
    built about n^3/3), so the gain cannot quietly come back."""
    n = 7
    if ring == "Q":
        m = tau(n, ExactMatrix([[Fraction(3, 2), 5], [Fraction(7, 3), Fraction(29, 3)]]))
        code = Fraction.__new__.__code__
    else:
        m = tau(n, ExactMatrix([[OM, FieldElem(field(3), [1, 1])],
                                [FieldElem(field(3), [0, 1]), FieldElem(field(3), [2, 3])]]))
        code = FieldElem.__init__.__code__
    assert all(m.entries[i][j] for i in range(n) for j in range(n))
    det, built = _calls(code, m.det)
    assert built <= n
    assert det == old_det(m) != 0
    _, scalar_built = _calls(code, lambda: old_det(m))
    assert scalar_built > n * n


# -- span_dimension -----------------------------------------------------------

def _unipotent(n, like):
    return tau(n, ExactMatrix([[like, like], [_zero_like(like), like]]))


@pytest.mark.parametrize("kind, n", B0_CASES, ids=[k for k, _ in B0_CASES])
def test_span_dimension_matches_the_re_eliminating_oracle_on_b0_kinds(kind, n):
    """The bending matrix with tau of a unipotent spans the upper
    triangular algebra; with tau of a diagonal unit, its diagonal one."""
    b = b0_family(kind, n, OM, 1)
    one = FieldElem.one(field(3))
    for other in (_unipotent(n, one), tau(n, ExactMatrix.diagonal([OM, OM ** -1]))):
        assert span_dimension([b, other]) == old_span_dimension([b, other])


@pytest.mark.parametrize("ring", ["Q", "Q(sqrt3)"])
def test_span_dimension_matches_the_re_eliminating_oracle_on_random_sets(ring, rng):
    draw = ELIMINATION_RINGS[ring]
    dims = set()
    for n in (2, 3, 4):
        for count in (1, 2, 3):
            for sparse in (0.2, 0.7):
                mats = [ExactMatrix([[draw(rng) if rng.random() > sparse else
                                      _zero_like(draw(rng)) for _ in range(n)]
                                     for _ in range(n)]) for _ in range(count)]
                got = span_dimension(mats)
                assert got == old_span_dimension(mats)
                dims.add((n, got == n * n))
    assert len(dims) == 6  # full and partial spans at every n


def test_span_dimension_reduces_each_candidate_once(monkeypatch):
    """One `add` per candidate (the identity and every product), and in it
    each pivot steps the candidate at most once."""
    adds, steps, products = [], [], []
    add, step, mul = _Elimination.add, _Elimination._step, ExactMatrix.__mul__

    def counting_add(self, r, width=None):
        adds.append(len(self.pivots))
        steps.append([])
        return add(self, r, width)

    def counting_step(self, r, t):
        steps[-1].append(t)
        return step(self, r, t)

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(_Elimination, "add", counting_add)
    monkeypatch.setattr(_Elimination, "_step", counting_step)
    monkeypatch.setattr(ExactMatrix, "__mul__", counting_mul)
    g = tau(3, ExactMatrix([[2, 1], [3, 2]]))
    h = tau(3, ExactMatrix([[1, 4], [1, 5]]))
    assert span_dimension([g, h]) == 9
    monkeypatch.undo()
    assert len(adds) == len(products) + 1 > 9
    for before, ts in zip(adds, steps):
        assert len(set(ts)) == len(ts) and all(t < before for t in ts)
    assert sum(map(len, steps)) > 9


# -- the congruence diagonalization --------------------------------------------

def _symmetric(rows):
    n = len(rows)
    return ExactMatrix([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def _forms(rng, n):
    """Dense, zero-diagonal, sparse zero-diagonal, rank-deficient and
    rank-deficient zero-diagonal symmetric forms of size n."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    dense = _symmetric([[entry() for _ in range(n)] for _ in range(n)])
    yield dense
    yield _symmetric([[0 if i == j else dense[i, j] for j in range(n)] for i in range(n)])
    yield _symmetric([[0 if i == j or rng.random() < 0.6 else dense[i, j]
                       for j in range(n)] for i in range(n)])
    # small factors: a square class of a large D_k is found by trial
    # division, which can take seconds whatever eliminates
    r = rng.randint(1, max(1, n - 1))
    left = ExactMatrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)])
    diag = ExactMatrix.diagonal([Fraction(rng.choice((-2, -1, 1, 3))) for _ in range(r)])
    yield left * diag * left.transpose()
    hyper = _symmetric([[0 if i == j else rng.randint(-1, 1) for j in range(r)]
                        for i in range(r)])
    low = left * hyper * left.transpose()
    yield _symmetric([[0 if i == j else low[i, j] for j in range(n)] for i in range(n)])


def test_diagonalization_matches_the_congruence_loops():
    """classes and diagonal equal the Fraction loops' entry for entry on
    random forms up to n = 9, and the loops' P has P^T S P = D."""
    rng = random.Random(27)
    deficient = hyperbolic = 0
    for n in range(1, 10):
        for _ in range(2 if n > 6 else 3):
            for s in _forms(rng, n):
                dg = diagonalize_qform(s)
                classes, diagonal, witness = old_diagonalize(s)
                assert dg.classes == classes and dg.diagonal == diagonal
                assert all(type(x) is Fraction for x in dg.diagonal)
                assert witness.transpose() * s * witness == \
                    ExactMatrix.diagonal(list(dg.diagonal))
                deficient += 0 in dg.classes
                # a nonzero form with an all-zero diagonal opens with the
                # hyperbolic substitution
                hyperbolic += (not any(s[i, i] for i in range(n))
                               and any(map(any, s.entries)))
    assert deficient >= 20 and hyperbolic >= 20


# -- callers that eliminate once --------------------------------------------------

def test_so_form_reads_its_diagonal_without_diagonalizing(monkeypatch):
    """Counted through both bindings, so a diagonalization reached through
    `qforms.form_invariants` counts too: none in a non-trivial case, and
    one, of J, in the trivial case, whose closed form needs none."""
    calls = []
    diagonalize = qforms.diagonalize_qform
    for module in (qforms, symrep):
        monkeypatch.setattr(module, "diagonalize_qform",
                            lambda m: calls.append(m) or diagonalize(m))
    res = symrep.so_form_from_cocycle(5, 3, 5, "degree-2")
    assert calls == []
    symrep.so_form_from_cocycle(25, 1, 4, "trivial")
    assert len(calls) == 1 and calls[0] == symrep.j_matrix(25)
    assert res.invariants == qforms.invariants_from_classes(
        diagonalize(res.diagonal_matrix).classes)


def test_hermitian_invariants_eliminate_once(monkeypatch):
    passes = []
    of_rows = _Elimination.of_rows.__func__
    monkeypatch.setattr(_Elimination, "of_rows", classmethod(
        lambda cls, entries, identity=False: passes.append(1) or
        of_rows(cls, entries, identity)))
    h = symrep.hermitian_h(3, 3, 3, (-1, -1))
    passes.clear()
    inv = hermitian_invariants(h, 3)
    assert passes == [1] and inv.rank == 3
    assert inv.disc_rep == qforms.square_class(old_det(h))
