import itertools
import random
from fractions import Fraction

import pytest

from hitchinforge.exactnum import ExactMatrix, FieldElem, field, square_class
from hitchinforge.qforms import (
    Place,
    _legendre,
    diagonalize_qform,
    form_invariants,
    forms_equivalent,
    hasse_scan_places,
    hermitian_invariants,
    hilbert_symbol,
    hilbert_symbol_oracle,
    invariants_from_classes,
    is_norm_from,
)
from hitchinforge.symrep import j_matrix
from conftest import primes_up_to

INF = Place.real()
P2 = Place.finite(2)


def test_place_validation():
    with pytest.raises(ValueError):
        Place.finite(6)
    assert str(INF) == "inf"
    assert str(Place.finite(7)) == "7"


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, P2) == -1
    assert hilbert_symbol_oracle(-1, -1, P2) == -1
    for v in [INF, P2, Place.finite(3), Place.finite(7)]:
        assert hilbert_symbol(1, 5, v) == 1
        assert hilbert_symbol(1, -7, v) == 1


def test_hilbert_symbol_oracle_agreement_small():
    places = [INF, P2, Place.finite(3), Place.finite(5), Place.finite(7)]
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a == 0 or b == 0:
                continue
            for v in places:
                assert hilbert_symbol(a, b, v) == hilbert_symbol_oracle(a, b, v), (a, b, v)


def test_hilbert_reciprocity(rng):
    for _ in range(60):
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        prod = 1
        for v in hasse_scan_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_diagonalize_examples():
    assert diagonalize_qform(ExactMatrix.identity(3)).classes == (1, 1, 1)
    j3 = j_matrix(3)
    dg = diagonalize_qform(j3)
    # completing the square in 4xz - y^2 gives classes {1, -1, -1}
    assert sorted(dg.classes) == [-1, -1, 1]
    assert dg.witness.transpose() * j3 * dg.witness == ExactMatrix.diagonal(
        list(dg.diagonal))
    already = ExactMatrix.diagonal([2, -1, 2])
    assert diagonalize_qform(already).classes == (2, -1, 2)


def test_diagonalize_rank_deficient():
    dg = diagonalize_qform(ExactMatrix([[1, 0], [0, 0]]))
    assert dg.classes == (1, 0)
    with pytest.raises(ValueError):
        form_invariants(ExactMatrix([[1, 0], [0, 0]]))


def test_diagonalize_witness_random(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        s = ExactMatrix(m)
        s = s + s.transpose()
        dg = diagonalize_qform(s)
        assert dg.witness.transpose() * s * dg.witness == ExactMatrix.diagonal(
            list(dg.diagonal))


def test_form_invariants_examples():
    inv3 = form_invariants(j_matrix(3))
    assert inv3.rank == 3 and inv3.disc == 1 and inv3.signature == (1, 2)
    assert inv3.hasse(P2) == -1
    assert all(inv3.hasse(Place.finite(p)) == 1 for p in (3, 5, 7, 11, 13))

    inv7 = form_invariants(j_matrix(7))
    assert inv7.signature == (3, 4) and inv7.hasse(P2) == 1

    i32 = form_invariants(ExactMatrix.diagonal([1, 1, 1, -1, -1]))
    assert i32.disc == 1 and i32.signature == (3, 2) and i32.hasse(P2) == -1


def test_form_invariants_congruence_invariant(rng):
    s = ExactMatrix.diagonal([1, 2, -3])
    base = form_invariants(s)
    for _ in range(10):
        p = _random_unimodular(rng, 3)
        assert form_invariants(p.transpose() * s * p) == base


def _random_unimodular(rng, n):
    m = ExactMatrix.identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        rows = [list(r) for r in m.entries]
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        m = ExactMatrix(rows)
    return m


def test_forms_equivalent_examples():
    j5 = j_matrix(5)
    assert forms_equivalent(j5, ExactMatrix.diagonal([1, 1, 1, -1, -1]))
    j7 = j_matrix(7)
    assert forms_equivalent(j7, ExactMatrix.diagonal([-1, -1, -1, -1, 1, 1, 1]))
    assert not forms_equivalent(ExactMatrix.identity(3),
                                ExactMatrix.diagonal([1, 1, 2]))


def test_forms_equivalent_matches_congruence_search(rng):
    """One-sided oracle: any pair related by an explicit rational
    congruence must be declared equivalent."""
    small = [ExactMatrix.diagonal(list(d))
             for d in itertools.product([1, -1, 2, 3], repeat=2)]
    mats = []
    for e in itertools.product([-1, 0, 1, 2], repeat=3):
        a, b, c = e
        m = ExactMatrix([[a, b], [b, c]])
        if m.det():
            mats.append(m)
    ps = [ExactMatrix([[1, 1], [0, 1]]), ExactMatrix([[2, 1], [1, 1]]),
          ExactMatrix([[1, 0], [3, 1]]), ExactMatrix([[0, 1], [1, 0]])]
    for s in small + mats[:20]:
        for p in ps:
            assert forms_equivalent(s, p.transpose() * s * p)


def test_forms_equivalent_is_equivalence(rng):
    corpus = [j_matrix(3), ExactMatrix.diagonal([1, -1, -1]),
              ExactMatrix.identity(3), ExactMatrix.diagonal([2, -1, 2]),
              ExactMatrix.diagonal([1, 1, 2])]
    for s in corpus:
        assert forms_equivalent(s, s)
    for s, t in itertools.product(corpus, corpus):
        assert forms_equivalent(s, t) == forms_equivalent(t, s)
    for s, t, u in itertools.product(corpus, repeat=3):
        if forms_equivalent(s, t) and forms_equivalent(t, u):
            assert forms_equivalent(s, u)


def test_invariants_reciprocity_holds():
    inv = invariants_from_classes([3, -5, 7, -2])
    prod = 1
    for place in hasse_scan_places(3, -5, 7, -2):
        prod *= inv.hasse(place)
    assert prod == 1


def test_is_norm_from():
    assert is_norm_from(3, 4)        # 4 = 2^2
    assert is_norm_from(2, -1)       # 1 - 2*1 = -1
    assert not is_norm_from(3, 2)
    assert is_norm_from(3, -2)       # 1 - 3 = -2


def test_hermitian_invariants_examples():
    d = field(3)
    ident = ExactMatrix.identity(4, like=FieldElem.one(d))
    hi = hermitian_invariants(ident, 3)
    assert (hi.rank, hi.disc_class) == (4, "+")

    diag = ExactMatrix.diagonal([FieldElem.from_rational(d, 2),
                                 FieldElem.one(d),
                                 FieldElem.from_rational(d, 2)])
    hi = hermitian_invariants(diag, 3)
    assert hi.rank == 3 and hi.disc_class == "+"
    assert hi.congruent_to_identity_up_to_sign

    s3 = FieldElem.sqrt_int(d, 3)
    with pytest.raises(ValueError):
        hermitian_invariants(ExactMatrix.diagonal([s3, FieldElem.one(d)]), 3)


def test_hermitian_invariants_nontrivial_sigma_entries():
    d = field(3)
    s3 = FieldElem.sqrt_int(d, 3)
    one = FieldElem.one(d)
    # [[1, s], [sigma(s), 1]] with s = 1 + sqrt(3) is sigma-Hermitian
    s = one + s3
    sbar = one - s3
    h = ExactMatrix([[one, s], [sbar, one]])
    hi = hermitian_invariants(h, 3)
    assert hi.rank == 2
    # det = 1 - (1+s3)(1-s3) = 1 - (-2) = 3, not a norm up to sign
    assert hi.disc_rep == 3


def test_legendre_is_membership_in_the_squares():
    for p in sorted(primes_up_to(60) - {2}):
        squares = {z * z % p for z in range(1, p)}
        for u in range(-p, 2 * p):
            if u % p:
                assert _legendre(u, p) == (1 if u % p in squares else -1)


def test_hasse_scan_places_brute_force():
    rng = random.Random(7)
    odd_primes = sorted(primes_up_to(10_000) - {2})
    grid = ([n for n in range(-60, 61) if n]
            + [Fraction(a, b) for a in (-98, -15, 7, 45) for b in (11, 26, 99)])
    for _ in range(150):
        values = rng.sample(grid, rng.randint(1, 3))
        classes = [square_class(v) for v in values]
        odd = [p for p in odd_primes if any(c % p == 0 for c in classes)]
        assert hasse_scan_places(*values) == (
            [P2] + [Place.finite(p) for p in odd] + [INF])
