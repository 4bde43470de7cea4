from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from hitchinforge.exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    field,
    preserves_form,
    square_free_part,
)
from hitchinforge.qforms import Place, diagonalize_qform, form_invariants
from hitchinforge.symrep import (
    SIGN_CASES,
    _galois_group,
    _sign_action,
    applicable_sign_patterns,
    cocycle_matrix,
    hermitian_h,
    j_matrix,
    so_form_closed_hasse,
    so_form_from_cocycle,
    tau,
    trace_poly,
)
from conftest import random_sl2q


def test_tau_examples():
    assert tau(4, ExactMatrix.identity(2)).is_identity()
    lam = Fraction(5)
    d = tau(3, ExactMatrix.diagonal([lam, 1 / lam]))
    assert d == ExactMatrix.diagonal([lam ** 2, Fraction(1), lam ** -2])
    u = tau(3, ExactMatrix([[1, 1], [0, 1]]))
    assert u == ExactMatrix([[1, 1, 1], [0, 1, 2], [0, 0, 1]])


def test_tau_rejects_singular():
    with pytest.raises(ValueError):
        tau(3, ExactMatrix([[1, 1], [1, 1]]))


def test_tau_homomorphism_and_invariance(rng):
    for n in range(2, 8):
        j = j_matrix(n)
        for _ in range(10):
            m = random_sl2q(rng)
            nn = random_sl2q(rng)
            tm, tn = tau(n, m), tau(n, nn)
            assert tau(n, m * nn) == tm * tn
            assert tm.det() == 1
            assert tm.transpose() * j * tm == j


SQRT3 = field(3)
Q_SQRT3 = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)).map(
    lambda t: FieldElem(SQRT3, [t[0], t[1]], t[2]))


def _sl2_generator(kind: int, x: FieldElem) -> ExactMatrix:
    """[[1, x], [0, 1]], [[1, 0], [x, 1]] or [[0, -1], [1, 0]] over Q(sqrt3)."""
    one, zero = FieldElem.one(SQRT3), FieldElem.zero(SQRT3)
    if kind == 0:
        return ExactMatrix([[one, x], [zero, one]])
    if kind == 1:
        return ExactMatrix([[one, zero], [x, one]])
    return ExactMatrix([[zero, -one], [one, zero]])


def _sl2_word(letters) -> ExactMatrix:
    m = _sl2_generator(*letters[0])
    for letter in letters[1:]:
        m = m * _sl2_generator(*letter)
    return m


SL2_WORDS_Q_SQRT3 = st.lists(st.tuples(st.integers(0, 2), Q_SQRT3),
                             min_size=1, max_size=4).map(_sl2_word)


@pytest.mark.parametrize("n", range(2, 8))
def test_tau_over_q_sqrt3_is_a_homomorphism_preserving_j(n):
    j = j_matrix(n)

    @given(SL2_WORDS_Q_SQRT3, SL2_WORDS_Q_SQRT3)
    def check(m, mm):
        tm = tau(n, m)
        assert tau(n, m * mm) == tm * tau(n, mm)
        assert tm.det() == 1
        assert preserves_form(tm, j)
    check()


def test_j_matrix_examples():
    assert j_matrix(2) == ExactMatrix([[0, 1], [-1, 0]])
    j3 = j_matrix(3)
    assert [j3.entries[i][2 - i] for i in range(3)] == [2, -1, 2]
    for n in range(2, 10):
        jn = j_matrix(n)
        assert jn.transpose() == ((-1) ** (n - 1)) * jn
        for i in range(1, n + 1):
            expected = (-1) ** (i - 1) * factorial(n - i) * factorial(i - 1)
            assert jn.entries[i - 1][n - i] == expected


def test_trace_poly_recurrence_and_examples():
    assert trace_poly(2).coefficients == (0, 1)
    assert trace_poly(3).coefficients == (-1, 0, 1)       # t^2 - 1
    assert trace_poly(4).coefficients == (0, -2, 0, 1)    # t^3 - 2t
    for n in range(3, 10):
        p, q, r = trace_poly(n - 2), trace_poly(n - 1), trace_poly(n)
        t = Fraction(7, 3)
        assert r(t) == t * q(t) - p(t)


def test_trace_identity(rng):
    for n in range(2, 9):
        poly = trace_poly(n)
        for _ in range(8):
            m = random_sl2q(rng)
            assert poly(m.trace()) == tau(n, m).trace()


def test_cocycle_matrix_cases():
    assert cocycle_matrix(3, 5, (1, 1)).is_identity()
    assert cocycle_matrix(3, 5, (1, -1)) == ExactMatrix.diagonal([1, -1])
    assert cocycle_matrix(3, 5, (-1, 1)) == ExactMatrix([[0, 1], [1, 0]])
    assert cocycle_matrix(3, 5, (-1, -1)) == ExactMatrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        cocycle_matrix(4, 5, (-1, 1))
    with pytest.raises(ValueError):
        cocycle_matrix(3, 9, (1, -1))


def test_patterns_no_galois_element_realizes_are_refused():
    """Equal radicands flip together, so (+,-) has no cocycle over
    Q(sqrt(3)); containment refuses the same pattern."""
    with pytest.raises(ValueError, match="not realizable"):
        cocycle_matrix(3, 3, (1, -1))
    with pytest.raises(ValueError, match="not realizable"):
        hermitian_h(5, 3, 3, (1, -1))
    with pytest.raises(ValueError, match="not realizable"):
        cocycle_matrix(3, 12, (-1, 1))
    with pytest.raises(ValueError, match=r"pattern \(2\)\+ is not"):
        hermitian_h(3, 3, 5, (2, 1))


# The sign rules as they were written out before one rule served them all:
# the realizable patterns, containment_check's action and the two cases of
# so_form_from_cocycle's Galois group.

def _old_applicable_sign_patterns(a, b):
    a_sf, b_sf = square_free_part(a), square_free_part(b)
    out = []
    for sa in (1, -1):
        for sb in (1, -1):
            if sa == -1 and a_sf == 1:
                continue
            if sb == -1 and b_sf == 1:
                continue
            if a_sf == b_sf and a_sf != 1 and sa != sb:
                continue
            out.append((sa, sb))
    return out


def _old_containment_action(a, b, p):
    a_sf, b_sf = square_free_part(a), square_free_part(b)
    return GaloisAction.from_signs(
        {a_sf: p[0], b_sf: p[1]} if a_sf != b_sf else {a_sf: p[0]})


def _old_galois_group(case, a, b):
    if case == "degree-2":
        a = square_free_part(a)
        return [
            ((1, 1), GaloisAction.from_signs({a: 1})),
            ((-1, -1), GaloisAction.from_signs({a: -1})),
        ]
    a, b = square_free_part(a), square_free_part(b)
    return [
        ((1, 1), GaloisAction.from_signs({a: 1, b: 1})),
        ((1, -1), GaloisAction.from_signs({a: 1, b: -1})),
        ((-1, 1), GaloisAction.from_signs({a: -1, b: 1})),
        ((-1, -1), GaloisAction.from_signs({a: -1, b: -1})),
    ]


# squares (1, 4, 9, 16), equal radicands (3 and 12, 2 and 8 and 18, 5 and 20)
SIGN_GRID = range(1, 21)


def test_sign_rule_matches_the_old_formulas():
    for a in SIGN_GRID:
        for b in SIGN_GRID:
            patterns = applicable_sign_patterns(a, b)
            assert patterns == _old_applicable_sign_patterns(a, b)
            for p in patterns:
                assert _sign_action(a, b, p) == _old_containment_action(a, b, p)
            for p in SIGN_CASES:
                if p in patterns:
                    cocycle_matrix(a, b, p)
                else:
                    with pytest.raises(ValueError):
                        cocycle_matrix(a, b, p)


def test_galois_group_matches_the_old_lists():
    for a in SIGN_GRID:
        if square_free_part(a) == 1:
            continue
        for b in SIGN_GRID:
            assert _galois_group("degree-2", a, b) == _old_galois_group(
                "degree-2", a, b)
            if 1 not in {square_free_part(b), square_free_part(a * b)}:
                assert _galois_group("degree-4", a, b) == _old_galois_group(
                    "degree-4", a, b)


def test_hermitian_h_examples():
    assert hermitian_h(3, 3, 3, (-1, -1)) == ExactMatrix.diagonal([2, 1, 2])
    assert hermitian_h(2, 3, 3, (1, 1)) == j_matrix(2)


def test_hermitian_h_symmetry_and_commutation():
    for n in range(2, 8):
        for signs in SIGN_CASES:
            h = hermitian_h(n, 3, 5, signs)  # asserts +-symmetry internally
            if n % 2:
                assert h.transpose() == h
            # the cocycle image commutes with J for odd n, and up to sign
            # (projectively) for even n
            J, T = j_matrix(n), tau(n, cocycle_matrix(2, 3, signs))
            if n % 2:
                assert J * T == T * J
            else:
                assert J * T in (T * J, -(T * J))


def _fact_pattern(n, case, a, b):
    """The diagonal the construction must reproduce, from the closed
    factorial patterns (corners and center as displayed; interior entries
    follow the same two-sided rule)."""
    k = (n - 1) // 2
    f = lambda j: factorial(n - j) * factorial(j - 1)
    out = []
    if case == "degree-2":
        for j in range(1, k + 1):
            out.append(2 * f(j))
        out.append(factorial(k) ** 2 if n % 4 == 1 else -a * factorial(k) ** 2)
        for j in range(k, 0, -1):
            out.append(-2 * a * f(j))
        return out
    if n % 4 == 1:
        for j in range(1, k + 1):
            out.append((-2 * a if j % 2 else -2 * b) * f(j))
        out.append(factorial(k) ** 2)
        for j in range(k, 0, -1):
            out.append((2 if j % 2 else 2 * a * b) * f(j))
        return out
    for j in range(1, k + 1):
        out.append((-2 * b if j % 2 else 2) * f(j))
    out.append(-a * factorial(k) ** 2)
    for j in range(k, 0, -1):
        out.append((2 * a * b if j % 2 else -2 * a) * f(j))
    return out


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("case", ["degree-2", "degree-4"])
@pytest.mark.parametrize("ab", [(3, 5), (2, 3)])
def test_so_form_matches_displayed_diagonals(n, case, ab):
    a, b = ab
    res = so_form_from_cocycle(n, a, b, case)
    got = [Fraction(e) if not isinstance(e, FieldElem) else e.rational_value()
           for e in res.diagonal_matrix.diagonal_entries()]
    assert got == _fact_pattern(n, case, a, b)


def test_so_form_example_values():
    res = so_form_from_cocycle(5, 3, 5, "degree-2")
    assert [int(e) for e in res.diagonal_matrix.diagonal_entries()] == [
        48, 12, 4, -36, -144]


def test_so_form_hasse_closed_form():
    for n in (5, 7):
        for case in ("degree-2", "degree-4"):
            for a, b in ((3, 5), (2, 3)):
                res = so_form_from_cocycle(n, a, b, case)
                for place in [Place.finite(2), Place.finite(3),
                              Place.finite(5), Place.real()]:
                    assert res.invariants.hasse(place) == \
                        so_form_closed_hasse(n, a, b, case, place)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_so_form_trivial_case(n):
    res = so_form_from_cocycle(n, 1, 4, "trivial")
    dg = diagonalize_qform(j_matrix(n))
    assert res.invariants == form_invariants(j_matrix(n))
    assert res.diagonal_matrix.is_diagonal()
    assert res.diagonal_matrix.diagonal_entries() == dg.diagonal
    assert res.basis_inverse == dg.witness
    for place, sign in res.closed_form_hasse.items():
        assert sign == form_invariants(j_matrix(n)).hasse(place)


def test_so_form_case_mismatch():
    with pytest.raises(ValueError):
        so_form_from_cocycle(5, 4, 9, "degree-2")
    with pytest.raises(ValueError):
        so_form_from_cocycle(5, 3, 3, "degree-4")   # ab = 9 is a square
    with pytest.raises(ValueError):
        so_form_from_cocycle(5, 3, 5, "trivial")
    with pytest.raises(ValueError):
        so_form_from_cocycle(6, 3, 5, "degree-2")
