from fractions import Fraction
from itertools import combinations

from hitchinforge.exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    apply_galois,
    field,
    fundamental_unit,
)
from hitchinforge.g2core import _TERMS, Vec7, cross7, in_g2
from hitchinforge.symrep import tau
from conftest import random_sl2z
from octonions import Octonion, oct_mul, oct_norm, scale


def _rvec(rng):
    return Vec7([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(7)])


def test_str_prints_coordinates_of_any_size():
    """A 5,000-digit coordinate prints whole under the interpreter's own
    int <-> str digit limit; small ones print as str does."""
    big = Fraction(-(10 ** 4999 + 7), 3)
    v = Vec7([big, Fraction(1, 2), 0, 0, 0, 0, Fraction(-3)])
    assert str(v) == "(-1" + "0" * 4998 + "7/3, 1/2, 0, 0, 0, 0, -3)"
    assert repr(Vec7.basis(2)) == "(0, 1, 0, 0, 0, 0, 0)"


def test_cross_basis_examples():
    e = Vec7.basis
    assert cross7(e(1), e(4)) == scale(e(1), 6)
    assert cross7(e(2), e(3)) == scale(e(1), -4)
    assert cross7(e(1), e(2)).is_zero()


def test_cross_terms_carry_the_slot_bound():
    """in_g2 checks every row of cross7's term table and sizes its slots
    by it: 15 terms, one per basis pair with a nonzero product, so each
    e_i x e_j has one nonzero coordinate at most; every row has a term; 148
    is the largest row weight sum |c| and 120 the largest |c|."""
    e = Vec7.basis
    products = [cross7(e(i), e(j)).coords for i, j in combinations(range(1, 8), 2)]
    assert all(sum(map(bool, p)) <= 1 for p in products)
    assert len(_TERMS) == sum(map(any, products)) == 15
    assert {r for r, *_ in _TERMS} == set(range(7))
    assert max(sum(abs(c) for r, *_, c in _TERMS if r == row) for row in range(7)) == 148
    assert max(abs(c) for *_, c in _TERMS) == 120
    for r, a, b, c in _TERMS:
        assert cross7(e(a + 1), e(b + 1)) == Vec7([c if k == r else 0 for k in range(7)])


def test_cross_alternating(rng):
    for _ in range(30):
        v = _rvec(rng)
        assert cross7(v, v).is_zero()
        w = _rvec(rng)
        assert cross7(v, w) == -cross7(w, v)
        assert (cross7(v, w) + cross7(w, v)).is_zero()


def test_cross_form_identities(rng):
    for _ in range(40):
        v, w = _rvec(rng), _rvec(rng)
        assert v.pair_j7(cross7(v, w)) == 0
        lhs = cross7(v, w).pair_j7(cross7(v, w))
        rhs = v.pair_j7(v) * w.pair_j7(w) - v.pair_j7(w) ** 2
        assert lhs == rhs


def test_octonion_unit_and_norm(rng):
    one = Octonion.unit()
    assert oct_norm(one) == 1
    q = Octonion(Fraction(3), _rvec(rng))
    assert oct_mul(one, q) == q
    assert oct_mul(q, one) == q


def test_octonion_norm_multiplicative(rng):
    for _ in range(40):
        p = Octonion(Fraction(rng.randint(-5, 5)), _rvec(rng))
        q = Octonion(Fraction(rng.randint(-5, 5)), _rvec(rng))
        assert oct_norm(oct_mul(p, q)) == oct_norm(p) * oct_norm(q)


def test_in_g2_tau_images(rng):
    assert in_g2(tau(7, ExactMatrix([[1, 1], [0, 1]])))
    for _ in range(5):
        assert in_g2(tau(7, random_sl2z(rng)))


def test_in_g2_diagonal_examples():
    t = Fraction(2)
    assert in_g2(ExactMatrix.diagonal([t, t, 1, 1, 1, 1 / t, 1 / t]))
    om = fundamental_unit(3).value
    sig = apply_galois(GaloisAction.flipping(3), om)
    one = FieldElem.one(field(3))
    inside = ExactMatrix.diagonal([om ** 2, om ** 2, one, one, one,
                                   sig ** 2, sig ** 2])
    assert in_g2(inside)
    outside = ExactMatrix.diagonal([om ** 2, sig ** 2, one, one, one,
                                    om ** 2, sig ** 2])
    assert not in_g2(outside)


def test_in_g2_group_axioms(rng):
    mats = [tau(7, random_sl2z(rng)) for _ in range(3)]
    for m in mats:
        assert in_g2(m.inverse())
    assert in_g2(mats[0] * mats[1])


def test_in_g2_implies_orthogonal(rng):
    from hitchinforge.lattices import in_so_q
    from hitchinforge.symrep import j_matrix
    m = tau(7, random_sl2z(rng))
    assert in_g2(m)
    assert in_so_q(m, j_matrix(7))
