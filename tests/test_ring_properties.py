"""Property tests for the exact scalar rings: the ring axioms, inverses,
mixed operands on either side, the reduced norm of quaternions, and
reduction mod p as a ring homomorphism."""

import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from hitchinforge.exactnum import FieldElem, _invert, _one_like, _zero_like, field
from hitchinforge.modp import FqElem, ReductionContext, reduce_scalar
from hitchinforge.quatalg import QuatAlgebra

RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _field_elems(*radicands):
    desc = field(*radicands)
    return st.lists(RATIONALS, min_size=desc.dim, max_size=desc.dim).map(
        lambda c: FieldElem(desc, c))


QUAT35 = QuatAlgebra(3, 5)  # ramified at 5, so a division algebra

# name -> (strategy, commutative)
RINGS = {
    "Q": (RATIONALS, True),
    "Q(sqrt3)": (_field_elems(3), True),
    "Q(sqrt2,sqrt3)": (_field_elems(2, 3), True),
    "F5": (st.integers(0, 4).map(lambda x: FqElem(5, x)), True),
    # F_9 = F_3[r]/(r^2 - 2): 2 is not a square mod 3
    "F9": (st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda t: FqElem(3, t[0], t[1], r2=2)), True),
    "(3,5)": (st.lists(RATIONALS, min_size=4, max_size=4).map(
        lambda c: QUAT35(*c)), False),
}
NAMES = sorted(RINGS)
COMMUTATIVE = [name for name in NAMES if RINGS[name][1]]


def _triples(name):
    s = RINGS[name][0]
    return st.tuples(s, s, s)


def _coerced(x, n):
    """n (an int or Fraction) as an element of the ring of x."""
    return Fraction(n) if isinstance(x, Fraction) else x._coerce(n)


@pytest.mark.parametrize("name", NAMES)
def test_associativity(name):
    @given(_triples(name))
    def check(t):
        x, y, z = t
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
    check()


@pytest.mark.parametrize("name", NAMES)
def test_distributivity(name):
    @given(_triples(name))
    def check(t):
        x, y, z = t
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
    check()


@pytest.mark.parametrize("name", NAMES)
def test_identities_and_additive_inverses(name):
    @given(_triples(name))
    def check(t):
        x, y, _ = t
        zero, one = _zero_like(x), _one_like(x)
        assert x + zero == x == zero + x
        assert x * one == x == one * x
        assert x + (-x) == zero and -x + x == zero
        assert x - y == x + (-y)
        assert x - x == zero
    check()


@pytest.mark.parametrize("name", NAMES)
def test_multiplicative_inverse(name):
    @given(RINGS[name][0])
    def check(x):
        assume(x != 0)
        assert x * _invert(x) == 1
        assert _invert(x) * x == 1
    check()


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_commutativity(name):
    @given(_triples(name))
    def check(t):
        x, y, _ = t
        assert x + y == y + x
        assert x * y == y * x
    check()


@given(RINGS["(3,5)"][0], RINGS["(3,5)"][0])
def test_reduced_norm_is_multiplicative(x, y):
    assert (x * y).nred() == x.nred() * y.nred()


# denominators prime to 3 and 5, so every value has a residue in F_5 and F_9
OPERANDS = st.one_of(st.integers(-12, 12), st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 4, 7])))
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("name", NAMES)
def test_mixed_operands_match_the_coerced_operation(name, op):
    """An int or a Fraction on either side gives the same-ring operation
    on its coerced value, operands in the same order."""
    fn = OPS[op]

    @given(RINGS[name][0], OPERANDS)
    def check(x, n):
        n_in_ring = _coerced(x, n)
        if op == "/":
            assume(x != 0)
        assert fn(n, x) == fn(n_in_ring, x)
        if op != "/" or n_in_ring != 0:
            assert fn(x, n) == fn(x, n_in_ring)
    check()


SQRT3 = field(3)
Z_SQRT3 = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(
    lambda t: FieldElem(SQRT3, t))


@pytest.mark.parametrize("p, mode", [(11, "split"), (5, "inert")])
def test_reduction_is_a_ring_homomorphism(p, mode):
    ctx = ReductionContext.build(p, 3)
    assert ctx.mode == mode

    @given(Z_SQRT3, Z_SQRT3)
    def check(x, y):
        red = lambda v: reduce_scalar(v, ctx)  # noqa: E731
        assert red(x + y) == red(x) + red(y)
        assert red(x - y) == red(x) - red(y)
        assert red(x * y) == red(x) * red(y)
    check()
    assert reduce_scalar(FieldElem.one(SQRT3), ctx) == 1


# -- what every ring element gets from the shared operators ----------------


def test_zero_is_falsy_in_every_ring():
    for zero, nonzero in ((FqElem(5, 0), FqElem(5, 3)),
                          (FqElem(3, 0, 0, r2=2), FqElem(3, 0, 1, r2=2)),
                          (QUAT35(0), QUAT35(0, 0, 1)),
                          (FieldElem.zero(SQRT3), FieldElem.sqrt_int(SQRT3, 3))):
        assert not zero and bool(nonzero)


def test_rationals_divide_finite_field_elements():
    x = FqElem(5, 3)
    assert 1 / x == FqElem(5, 2) == x.inverse()
    assert Fraction(1, 2) / x == FqElem(5, 1)
    assert 1 / FqElem(3, 0, 1, r2=2) == FqElem(3, 0, 2, r2=2)


def test_quaternion_division_is_right_division():
    i, j = QUAT35.i(), QUAT35.j()
    q, r = i + 2, j + i * 3
    assert q / r == q * r.inverse()
    assert q / r != r.inverse() * q
    assert (q / r) * r == q
    assert 2 / r == r.inverse() * 2
