import random
from fractions import Fraction

import pytest

from hitchinforge.exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    apply_galois,
    field,
    fundamental_unit,
    square_free_part,
)
from hitchinforge.bender import b0_family
from hitchinforge.lattices import (
    LatticeSpec,
    _in_su,
    applicable_sign_patterns,
    containment_check,
    diagonal_su_nonsplit_conditions,
    in_g2z,
    in_sl_quat,
    in_slnz,
    in_so_q,
    in_sp,
    in_su_quat,
    in_su_sqrt_d,
    is_integral_matrix,
    is_integral_scalar,
    preserves_form,
)
from hitchinforge.quatalg import QuatAlgebra, gamma_enumerate
from hitchinforge.symrep import hermitian_h, j_matrix, tau
from conftest import random_sl2q, random_sl2z
from test_kernels import _dot

OM = fundamental_unit(3).value
SIG = apply_galois(GaloisAction.flipping(3), OM)
ONE = FieldElem.one(field(3))


def test_in_su_sqrt_d_examples():
    assert in_su_sqrt_d(ExactMatrix.identity(5), 5, 3)
    b = ExactMatrix.diagonal([OM ** 4, ONE, ONE, OM ** -2, OM ** -2])
    assert in_su_sqrt_d(b, 5, 3)
    assert not in_su_sqrt_d(ExactMatrix.diagonal([OM, ONE, ONE, ONE, ONE]), 5, 3)
    # membership goes by the entries' values: the identity stored over
    # Q(sqrt5) is a member, a real sqrt5 entry is not in Q(sqrt3)
    assert in_su_sqrt_d(ExactMatrix.diagonal([FieldElem.one(field(5))] * 5), 5, 3)
    s5 = FieldElem.sqrt_int(field(5), 5)
    with pytest.raises(ValueError, match=r"^sqrt\(5\) does not lie in Q\(sqrt\(3\)\)$"):
        in_su_sqrt_d(ExactMatrix.diagonal([s5, s5.inverse(), ONE, ONE, ONE]), 5, 3)


def test_in_su_sqrt_d_closed_under_group_ops():
    b = ExactMatrix.diagonal([OM ** 4, ONE, ONE, OM ** -2, OM ** -2])
    c = ExactMatrix.diagonal([OM ** 2, OM ** -2, ONE, OM ** 2, OM ** -2])
    assert in_su_sqrt_d(c, 5, 3)
    assert in_su_sqrt_d(b * c, 5, 3)
    assert in_su_sqrt_d(b.inverse(), 5, 3)


def test_in_su_sqrt_d_diagonal_forces_unit_norm_entries():
    sigma = GaloisAction.flipping(3)
    for b in [ExactMatrix.diagonal([OM ** 4, ONE, ONE, OM ** -2, OM ** -2]),
              ExactMatrix.diagonal([OM ** 2, OM ** -2, ONE, OM ** 2, OM ** -2])]:
        assert in_su_sqrt_d(b, 5, 3)
        for w in b.diagonal_entries():
            assert w * apply_galois(sigma, w) == ONE


def test_preserves_form_examples(rng):
    j5 = j_matrix(5)
    for _ in range(5):
        m = random_sl2q(rng)
        assert preserves_form(tau(5, m), j5)
    b = ExactMatrix.diagonal([OM ** 4, ONE, ONE, OM ** -2, OM ** -2])
    assert not preserves_form(b, j5)
    assert preserves_form(ExactMatrix.identity(5), j5)
    # a scalar multiple of the symmetric-power image preserves J only up
    # to a scalar, which the closure profile decides (test_bender)
    two = ExactMatrix.diagonal([Fraction(2)] * 5)
    assert not preserves_form(two, j5)


def test_in_su_quat_examples():
    alg = QuatAlgebra(3, 3)
    ident = [[alg(1), alg(0)], [alg(0), alg(1)]]
    assert in_su_quat(ident, 2, 3, 3, 3)
    th = OM
    m = [[alg(th ** 2), alg(0)], [alg(0), alg(th ** -2)]]
    assert in_su_quat(m, 2, 3, 3, 3)
    mj = [[alg.j(), alg(0)], [alg(0), alg(1)]]
    assert not in_su_quat(mj, 2, 3, 3, 3)


def test_diagonal_su_nonsplit_conditions():
    th = OM
    b = ExactMatrix.diagonal([th ** 2, ONE, th ** -4, ONE, th ** 2])
    assert diagonal_su_nonsplit_conditions(b, 3)
    bad = ExactMatrix.diagonal([th ** 2, ONE, th ** -4, ONE, th ** -2])
    assert not diagonal_su_nonsplit_conditions(bad, 3)


def _old_diagonal_su_nonsplit_conditions(m, d):
    """The entrywise conditions that the unitary predicate of the exchange
    form replaced, as they were written."""
    d = square_free_part(d)
    if not m.is_diagonal():
        return False
    desc = field(d)
    mm = m.lift(desc)
    if not (is_integral_matrix(mm) and mm.det() == 1):
        return False
    w = mm.diagonal_entries()
    tau_d = GaloisAction.flipping(d)
    return all(x == y and x * apply_galois(tau_d, y) == FieldElem.one(desc)
               for x, y in zip(w, reversed(w)))


@pytest.mark.parametrize("d", [2, 3])
def test_diagonal_su_nonsplit_matches_the_entrywise_conditions(rng, d):
    """Random diagonals of powers of the unit, its conjugate and small
    rationals, half of them palindromic, against the old conditions."""
    u = fundamental_unit(d).value
    su = apply_galois(GaloisAction.flipping(d), u)
    one = FieldElem.one(field(d))
    pool = [one, -one, Fraction(2), Fraction(1, 2), u, su, -u, -su, u ** 2,
            su ** 2, u ** -1, su ** -1, u ** -4, u * 2, Fraction(1)]
    seen = set()
    for _ in range(400):
        n = rng.randint(2, 6)
        w = [rng.choice(pool) for _ in range(n)]
        if rng.random() < 0.5:
            w[n - (n // 2):] = reversed(w[:n // 2])
        m = ExactMatrix.diagonal(w)
        got = diagonal_su_nonsplit_conditions(m, d)
        assert got == _old_diagonal_su_nonsplit_conditions(m, d)
        seen.add(got)
    assert seen == {True, False}


def test_diagonal_su_nonsplit_needs_the_palindrome():
    """1+sqrt(2) has norm -1, so w_i * tau(w_(n+1-i)) = 1 allows
    w_(n+1-i) = -w_i: diag(u, 1/u, -1/u, -u) preserves the exchange form
    with determinant one, but is not palindromic."""
    u = fundamental_unit(2).value
    m = ExactMatrix.diagonal([u, u ** -1, -u ** -1, -u])
    exchange = ExactMatrix([[int(i + j == 3) for j in range(4)]
                            for i in range(4)])
    assert _in_su(m, 4, 2, exchange)
    assert not diagonal_su_nonsplit_conditions(m, 2)
    assert not _old_diagonal_su_nonsplit_conditions(m, 2)


def test_diagonal_su_nonsplit_refuses_what_in_su_sqrt_d_refuses():
    exchange = ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    # -exchange has determinant one and preserves the exchange form, but
    # is not diagonal
    assert _in_su(-exchange, 3, 3, exchange)
    assert not diagonal_su_nonsplit_conditions(-exchange, 3)
    for d in (1, 4, 0):
        with pytest.raises(ValueError, match="positive non-square"):
            diagonal_su_nonsplit_conditions(ExactMatrix.identity(3), d)
        with pytest.raises(ValueError, match="positive non-square"):
            in_su_sqrt_d(ExactMatrix.identity(3), 3, d)


def test_unitary_predicate_takes_a_hermitian_form():
    """H = hermitian_h(3, 3, 3, (-1, -1)) = diag(2, 1, 2): tau of a
    generator of the Gamma(3, 3) Fuchsian group and the SU_split_a bending
    matrix both preserve it under sqrt(3) -> -sqrt(3); the bending matrix
    does not preserve the H of the pattern (+, +)."""
    h = hermitian_h(3, 3, 3, (-1, -1))
    assert h == ExactMatrix.diagonal([2, 1, 2])
    b = b0_family("SU_split_a", 3, OM)
    assert _in_su(tau(3, ExactMatrix.diagonal([OM, SIG])), 3, 3, h)
    assert _in_su(b, 3, 3, h)
    assert not _in_su(b, 3, 3, hermitian_h(3, 3, 3, (1, 1)))
    # the identity form is in_su_sqrt_d
    assert _in_su(b, 3, 3, ExactMatrix.identity(3)) == in_su_sqrt_d(b, 3, 3)


def test_in_sp_and_in_so_q():
    rot = ExactMatrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                       [0, 0, 1, 0], [0, 0, 0, 1]])
    assert in_sp(rot, 4)
    assert not in_sp(ExactMatrix.identity(4) * Fraction(2), 4)
    b = ExactMatrix.diagonal([OM ** 2, ONE, ONE, ONE, SIG ** 2])
    assert in_so_q(b, j_matrix(5))
    assert not in_slnz(ExactMatrix.diagonal([2, Fraction(1, 2)]))
    assert in_slnz(ExactMatrix([[1, 5], [0, 1]]))


def test_z_point_kinds_reject_irrational_integers():
    # integral on the monomial basis of Q(sqrt(2)), but not a Z-point
    m = ExactMatrix([[1, FieldElem.sqrt_int(field(2), 2)], [0, 1]])
    assert is_integral_scalar(m.entries[0][1])
    assert not in_slnz(m)
    assert not in_sp(m, 2)
    assert in_slnz(ExactMatrix([[1, 2], [0, 1]]).lift(field(2)))
    assert in_sp(ExactMatrix([[1, 2], [0, 1]]).lift(field(2)), 2)


def test_in_g2z_tau_image(rng):
    assert in_g2z(tau(7, random_sl2z(rng)))
    half = ExactMatrix.diagonal([Fraction(1, 2), 2, 1, 1, 1, 2, Fraction(1, 2)])
    assert not in_g2z(half)


def test_in_sl_quat():
    alg = QuatAlgebra(3, 3)
    m = [[alg(2, 0, 1, 0), alg(0)], [alg(0), alg(2, 0, -1, 0)]]
    assert in_sl_quat(m, 2, 3, 3)
    m_frac = [[alg(Fraction(1, 2)), alg(0)], [alg(0), alg(2)]]
    assert not in_sl_quat(m_frac, 2, 3, 3)
    with pytest.raises(ValueError):
        in_sl_quat(m, 2, 3, 5)


def test_in_sl_quat_joins_the_fields_of_all_blocks():
    # the blocks of alg(0) lie in Q(sqrt2, sqrt5), those of q also need sqrt3
    alg = QuatAlgebra(2, 5)
    q = alg(fundamental_unit(3).value)
    assert in_sl_quat([[alg(0), q], [q.inverse(), alg(0)]], 2, 2, 5)
    assert not in_sl_quat([[alg(1), alg(0)], [alg(0), q]], 2, 2, 5)


def _reduced_norm_det(m):
    """The reduced-norm determinant of a 1x1 or 2x2 quaternion matrix:
    nrd(a) at size 1; at size 2, nrd(a) nrd(d - c a^-1 b) for invertible
    a, else nrd(b) nrd(c), since exchanging the two block rows has
    determinant one."""
    if len(m) == 1:
        return m[0][0].nred()
    (a, b), (c, d) = m
    if a.nred():
        return a.nred() * (d - c * a.inverse() * b).nred()
    return b.nred() * c.nred()


def _integral(q):
    return all(c.denominator == 1 if isinstance(c, Fraction) else c.den == 1
               for c in q.coords)


def _oracle_sl(m):
    return all(map(_integral, sum(m, []))) and _reduced_norm_det(m) == 1


def _oracle_su(m, d):
    """In SL, and sigma(M)* M = I in quaternion arithmetic, each entry of
    the product a generic-loop dot product."""
    sigma = GaloisAction.flipping(d)
    adjoint = [[row[i].conj().apply_galois(sigma) for row in m] for i in range(len(m))]
    cols = list(zip(*m))
    return _oracle_sl(m) and all(_dot(adjoint[i], cols[k]) == int(i == k)
                                 for i in range(len(m)) for k in range(len(m)))


def _quat_product(x, y):
    return [[_dot(row, col) for col in zip(*y)] for row in x]


def _norm_one_unit(d):
    u = fundamental_unit(d).value
    return u if fundamental_unit(d).norm == 1 else u * u


# (a, b) with d the square class of a or b first, then an independent d;
# d = ab is left out, as field(a, b, ab) refuses dependent radicands
QUAT_CASES = [(3, 3, 3), (3, 3, 2), (2, 5, 2), (2, 5, 5), (2, 5, 3),
              (3, 5, 3), (3, 5, 5), (3, 5, 2)]


@pytest.mark.parametrize("a, b, d", QUAT_CASES)
def test_quaternion_predicates_match_the_reduced_norm_and_unitarity(a, b, d):
    """in_sl_quat and in_su_quat on the block embedding against the
    quaternion-level oracles: random 1x1 and 2x2 matrices built from
    norm-one quaternions g of height <= 2 and powers of a norm-one unit u
    of Z[sqrt(d)] (diagonal, antidiagonal [[0, u^k g], [u^-k g', 0]],
    triangular and their products), some corrupted."""
    rng = random.Random(100 * a + 10 * b + d)
    alg = QuatAlgebra(a, b)
    gammas = [e.quaternion() for e in gamma_enumerate(a, b, 2)]
    u, zero = _norm_one_unit(d), alg(0)

    def unit_power():
        return u ** rng.randint(-2, 2)

    def coordinate():
        return rng.choice([0, 0, 1, -1, 2, u, -u, u - 1])

    def square():
        g1, g2, k = rng.choice(gammas), rng.choice(gammas), unit_power()
        return rng.choice([
            [[g1 * k, zero], [zero, g2 * k.inverse()]],
            [[zero, g1 * k], [g2 * k.inverse(), zero]],
            [[g1, alg(*(coordinate() for _ in range(4)))], [zero, g2]]])

    def corrupt(m):
        rows = [list(row) for row in m]
        i, j = rng.randrange(len(m)), rng.randrange(len(m))
        rows[i][j] = rng.choice([rows[i][j] + 1, rows[i][j] * 2, rows[i][j] * Fraction(1, 2),
                                 rows[i][j] + alg(0, 0, 0, 1), rows[i][j].conj()])
        return rows

    inputs = []
    for _ in range(12):
        inputs.append([[rng.choice(gammas) * (unit_power() if rng.random() < 0.3 else 1)]])
        m = square()
        for _ in range(rng.randint(0, 2)):
            m = _quat_product(m, square())
        inputs.append(m)
    inputs += [corrupt(m) for m in inputs]
    found = {"sl": 0, "su": 0, "su off the diagonal": 0}
    for m in inputs:
        size = len(m)
        sl, su = _oracle_sl(m), _oracle_su(m, d)
        assert in_sl_quat(m, size, a, b) is sl, m
        assert in_su_quat(m, size, a, b, d) is su, m
        found["sl"] += sl
        found["su"] += su
        found["su off the diagonal"] += su and size == 2 and bool(m[0][1])
    assert all(found.values()), found
    assert found["sl"] < len(inputs)


def test_lattice_spec_dispatch():
    spec = LatticeSpec(kind="SU_sqrt_d", n=5, d=3)
    assert spec.contains(ExactMatrix.identity(5))
    spec_sp = LatticeSpec(kind="Sp", n=4)
    assert spec_sp.contains(ExactMatrix.identity(4))
    with pytest.raises(ValueError):
        LatticeSpec(kind="SU_sqrt_d", n=5, d=4)
    with pytest.raises(ValueError):
        LatticeSpec(kind="nope", n=2)


@pytest.mark.parametrize("kind", ["SU_quat", "SL_quat"])
def test_lattice_spec_has_no_quaternion_kinds(kind):
    """in_su_quat and in_sl_quat take their algebra as arguments; a spec
    names no algebra, so it offers neither kind."""
    with pytest.raises(ValueError, match="unknown lattice kind"):
        LatticeSpec(kind=kind, n=2, d=3)


def test_applicable_sign_patterns():
    assert applicable_sign_patterns(3, 3) == [(1, 1), (-1, -1)]
    assert applicable_sign_patterns(3, 5) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert applicable_sign_patterns(3, 4) == [(1, 1), (-1, 1)]


def test_containment_check_passes():
    report = containment_check(3, 3, 3, height=2)
    assert report.all_passed
    assert report.patterns == ((1, 1), (-1, -1))
    assert report.total == 2 * 66


def test_containment_with_non_square_free_a_b_passes():
    assert containment_check(2, 8, 3, height=1).all_passed


def test_containment_identity_element():
    report = containment_check(3, 3, 3, height=0)
    assert report.all_passed and report.total == 4


def test_containment_detects_corruption():
    """Negative control: a corrupted image must be flagged by the same
    unitarity equation the batch check runs."""
    from hitchinforge.exactnum import galois_matrix
    from hitchinforge.symrep import hermitian_h
    desc = field(3)
    g = gamma_enumerate(3, 3, 1)[0]
    m = tau(3, g.matrix())
    rows = [list(r) for r in m.entries]
    rows[0][0] = rows[0][0] + 1
    corrupted = ExactMatrix(rows)
    h = hermitian_h(3, 3, 3, (-1, -1)).map_entries(
        lambda e: FieldElem.from_rational(desc, e))
    sigma = GaloisAction.flipping(3)
    assert galois_matrix(sigma, corrupted).transpose() * h * corrupted != h


def test_containment_rejects_bad_signs():
    with pytest.raises(ValueError):
        containment_check(3, 3, 3, signs=(-1, 1), height=1)
    with pytest.raises(ValueError):
        containment_check(4, 3, 3, height=1)


def test_field_integrality_is_a_denominator_of_one():
    d = field(3)
    assert is_integral_scalar(FieldElem(d, [2, -1]))
    assert is_integral_scalar(FieldElem(d, [Fraction(4, 2), 0]))
    assert not is_integral_scalar(FieldElem(d, [Fraction(1, 2), 1]))
    assert not is_integral_scalar(FieldElem(d, [1, Fraction(1, 3)]))
    half = ExactMatrix.diagonal([FieldElem(d, [Fraction(1, 2), 0]),
                                 FieldElem(d, [2, 0])])
    assert in_slnz(half) is False
