import enum
from fractions import Fraction

import pytest

from hitchinforge.exactnum import ExactMatrix, FieldElem, field
from hitchinforge.qforms import Place
from hitchinforge.quatalg import (
    GammaElement,
    QuatAlgebra,
    QuatElem,
    embed_m2,
    gamma_enumerate,
    is_cocompact_gamma,
    is_division,
)


def test_algebra_normalization():
    alg = QuatAlgebra(12, -18)
    assert (alg.a, alg.b) == (3, -2)
    with pytest.raises(ValueError):
        QuatAlgebra(0, 3)


def test_str_prints_coordinates_of_any_size():
    """A 5,000-digit coordinate prints whole under the interpreter's own
    int <-> str digit limit; small ones print as str does."""
    alg = QuatAlgebra(3, 5)
    big = Fraction(-(10 ** 4999 + 7), 3)
    assert (str(QuatElem(alg, big, 0, Fraction(1, 2), -1))
            == "(-1" + "0" * 4998 + "7/3) + (1/2)j + (-1)ij")
    sqrt3 = FieldElem(field(3), [Fraction(0), Fraction(2)])
    assert repr(alg.i() * sqrt3) == "(2sqrt(3))i" and str(alg(0)) == "0"


def test_scalar_quaternions_hash_like_their_coordinate():
    alg = QuatAlgebra(3, 5)
    third = FieldElem(field(3), [Fraction(1, 3), Fraction(0)])
    for x in (3, Fraction(1, 2), third):
        q = alg(x)
        assert q == x and x in {q} and q in {x}
    assert alg.i() not in {0, 1} and alg(3) != QuatAlgebra(2, 5)(3)
    assert len({alg(3), QuatAlgebra(2, 5)(3)}) == 2


def test_basic_relations():
    alg = QuatAlgebra(3, 5)
    i, j, ij = alg.i(), alg.j(), alg(0, 0, 0, 1)
    assert i * i == alg(3)
    assert j * j == alg(5)
    assert i * j == ij
    assert j * i == -ij
    assert ij * ij == alg(-15)


def test_nred_examples():
    alg = QuatAlgebra(3, 3)
    assert alg.i().nred() == -3
    assert alg(2, 0, 1, 0).nred() == 1
    assert alg(1, 2, 3, 4).conj().conj() == alg(1, 2, 3, 4)


def nred_closed_form(x):
    """Independent route: the explicit quadratic form on coordinates."""
    a, b = x.algebra.a, x.algebra.b
    x0, x1, x2, x3 = x.coords
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def test_nred_is_product_with_conjugate_and_multiplicative(rng):
    alg = QuatAlgebra(3, 5)
    for _ in range(40):
        x = alg(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)])
        y = alg(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)])
        prod = x * x.conj()
        assert prod.is_scalar()
        assert prod.coords[0] == nred_closed_form(x)
        assert (x * y).nred() == x.nred() * y.nred()


def test_quat_inverse(rng):
    alg = QuatAlgebra(2, 3)
    x = alg(1, 1, 1, 1)
    assert x * x.inverse() == alg.one()


def test_embed_examples():
    alg = QuatAlgebra(3, 3)
    assert embed_m2(alg.one()).is_identity()
    jm = embed_m2(alg.j())
    d = field(3)
    s3 = FieldElem.sqrt_int(d, 3)
    assert jm == ExactMatrix([[FieldElem.zero(d), s3], [s3, FieldElem.zero(d)]])
    im = embed_m2(alg.i())
    assert im == ExactMatrix.diagonal([s3, -s3])


def test_embed_is_homomorphism_with_norm_determinant(rng):
    alg = QuatAlgebra(3, 5)
    for _ in range(20):
        x = alg(*[Fraction(rng.randint(-5, 5)) for _ in range(4)])
        y = alg(*[Fraction(rng.randint(-5, 5)) for _ in range(4)])
        assert embed_m2(x * y) == embed_m2(x) * embed_m2(y)
        det = embed_m2(x).det()
        assert det.rational_value() == x.nred()
        # linear and injective: distinct quaternions embed differently
        if x != y:
            assert embed_m2(x) != embed_m2(y)


def test_embed_needs_split_algebra():
    with pytest.raises(ValueError):
        embed_m2(QuatAlgebra(-1, -1).one())


def test_is_division_examples():
    division, ram = is_division(QuatAlgebra(3, 3))
    assert division
    assert ram == frozenset({Place.finite(2), Place.finite(3)})
    assert is_division(QuatAlgebra(1, 1)) == (False, frozenset())
    assert not is_division(QuatAlgebra(5, 5))[0]


def test_ramification_set_has_even_size(rng):
    for _ in range(30):
        a = rng.choice([x for x in range(-15, 16) if x])
        b = rng.choice([x for x in range(-15, 16) if x])
        _, ram = is_division(QuatAlgebra(a, b))
        assert len(ram) % 2 == 0


def test_cocompactness():
    assert is_cocompact_gamma(3, 3)
    assert not is_cocompact_gamma(1, 1)
    assert not is_cocompact_gamma(5, 5)
    with pytest.raises(ValueError):
        is_cocompact_gamma(-3, 3)


def test_gamma_element_validation():
    g = GammaElement(3, 3, 2, 1, 0, 0)
    assert g.norm_value() == 1
    with pytest.raises(ValueError):
        GammaElement(3, 3, 2, 1, 1, 0)


@pytest.mark.parametrize("quintuple", [(2, 8, 3, 0, 1, 0), (12, 5, -3, -2, -2, -1)])
def test_gamma_element_of_non_square_free_a_b_has_norm_one(quintuple):
    # (2, 8) is the algebra (2, 2) with j scaled by 2, and (12, 5) is (3, 5)
    # with i scaled by 2; the element maps through that isomorphism
    assert GammaElement(*quintuple).matrix().det() == 1


def test_gamma_enumerate_examples():
    quads = [g.quadruple() for g in gamma_enumerate(3, 3, 0)]
    assert quads == [(-1, 0, 0, 0), (1, 0, 0, 0)]
    quads2 = [g.quadruple() for g in gamma_enumerate(3, 3, 2)]
    assert (2, 1, 0, 0) in quads2
    assert (2, 0, 1, 0) in quads2
    assert (2, 1, 1, 0) not in quads2
    assert quads2 == sorted(quads2)


def test_gamma_enumerate_is_exhaustive():
    """Cross-check against a direct quadruple scan with a safe x0 range."""
    h = 2
    expected = set()
    for x0 in range(-10, 11):
        for x1 in range(-h, h + 1):
            for x2 in range(-h, h + 1):
                for x3 in range(-h, h + 1):
                    if x0 * x0 - 3 * x1 * x1 - 3 * x2 * x2 + 9 * x3 * x3 == 1:
                        expected.add((x0, x1, x2, x3))
    got = {g.quadruple() for g in gamma_enumerate(3, 3, h)}
    assert got == expected


def test_gamma_embeds_integrally():
    from hitchinforge.symrep import tau
    d = field(3)
    for g in gamma_enumerate(3, 3, 2):
        m = g.matrix()
        for row in m.entries:
            for e in row:
                assert all(c.denominator == 1 for c in e.coeffs)
        assert m.det() == FieldElem.one(d)
    # the symmetric-power images stay integral too
    for g in gamma_enumerate(3, 3, 1):
        im = tau(4, g.matrix())
        for row in im.entries:
            for e in row:
                assert all(c.denominator == 1 for c in e.coeffs)


class _LiftKind(enum.Enum):
    DIAGONAL = "diagonal"
    DISJOINT_LIFT = "disjoint_lift"
    DEGENERATE = "degenerate"


def _diagonal_lift_disjointness(g: GammaElement) -> _LiftKind:
    """Trichotomy for the axis geodesic of a norm-one element: diagonal
    elements (x2 = x3 = 0) fix the axis; otherwise the translate is
    disjoint when (x0^2 - a*x1^2)(x0^2 - a*x1^2 - 1) > 0, and the boundary
    values 0 and 1 of x0^2 - a*x1^2 are reported, not decided."""
    if g.x2 == 0 and g.x3 == 0:
        return _LiftKind.DIAGONAL
    t = g.x0 ** 2 - g.a * g.x1 ** 2
    if t * (t - 1) > 0:
        return _LiftKind.DISJOINT_LIFT
    return _LiftKind.DEGENERATE


def test_disjointness_examples():
    assert _diagonal_lift_disjointness(GammaElement(3, 3, 2, 1, 0, 0)) is _LiftKind.DIAGONAL
    assert _diagonal_lift_disjointness(GammaElement(3, 3, 2, 0, 1, 0)) is _LiftKind.DISJOINT_LIFT
    assert _diagonal_lift_disjointness(GammaElement(3, 3, 1, 0, 0, 0)) is _LiftKind.DIAGONAL


def test_disjointness_trichotomy_over_enumeration():
    for g in gamma_enumerate(3, 3, 3):
        kind = _diagonal_lift_disjointness(g)
        t = g.x0 ** 2 - 3 * g.x1 ** 2
        if g.x2 == 0 and g.x3 == 0:
            assert kind is _LiftKind.DIAGONAL
        elif t in (0, 1):
            assert kind is _LiftKind.DEGENERATE
        else:
            assert kind is _LiftKind.DISJOINT_LIFT
            assert t * (t - 1) > 0
