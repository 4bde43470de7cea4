"""Differential tests: the integer-coordinate FieldElem (numerators over
one common denominator) against the Fraction-coefficient reference kept
in reference_field, over Q(sqrt3), Q(sqrt2, sqrt3) and Q(sqrt2, sqrt3,
sqrt5).  Every result must also be in canonical form."""

import itertools
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import reference_field as ref
from hitchinforge.exactnum import (
    FieldElem,
    GaloisAction,
    apply_galois,
    field,
    format_scalar,
    lift,
)
from hitchinforge.modp import FqElem, ReductionContext, _mod_p, reduce_scalar

FIELDS = {"Q(sqrt3)": field(3), "Q(sqrt2,sqrt3)": field(2, 3),
          "Q(sqrt2,sqrt3,sqrt5)": field(2, 3, 5)}
NAMES = sorted(FIELDS)

# zeros, small rationals and large ones, so sums cancel and gcds bite
COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)),
)
RATIONALS = st.one_of(st.integers(-20, 20),
                      st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)))


def _pairs(desc):
    """(FieldElem, reference element) built from the same coefficients."""
    return st.lists(COEFFS, min_size=desc.dim, max_size=desc.dim).map(
        lambda c: (FieldElem(desc, c), ref.FieldElem(desc, c)))


def assert_matches(x, r):
    """x is canonical and has the coefficients of the reference r."""
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int for n in x.nums)
    assert gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.den == 1
    assert x.coeffs == r.coeffs


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("name", NAMES)
def test_field_operations_match_reference(name, op):
    desc, fn = FIELDS[name], OPS[op]

    @given(_pairs(desc), _pairs(desc), RATIONALS)
    def check(a, b, q):
        (x, rx), (y, ry) = a, b
        if op != "/" or not ry.is_zero():
            assert_matches(fn(x, y), fn(rx, ry))
        if op != "/" or q != 0:
            assert_matches(fn(x, q), fn(rx, q))
        if op != "/" or not rx.is_zero():
            assert_matches(fn(q, x), fn(q, rx))
        assert_matches(-x, -rx)
    check()


@pytest.mark.parametrize("name", NAMES)
def test_inverse_and_power_match_reference(name):
    @given(_pairs(FIELDS[name]), st.integers(-3, 4))
    def check(a, e):
        x, rx = a
        if not rx.is_zero():
            assert_matches(x.inverse(), rx.inverse())
        elif e < 0:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            return
        assert_matches(x ** e, rx ** e)
    check()


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_match_reference(name):
    @given(_pairs(FIELDS[name]), _pairs(FIELDS[name]), RATIONALS)
    def check(a, b, q):
        (x, rx), (y, ry) = a, b
        assert (x == y) == (rx == ry)
        assert (x == q) == (rx == q)
        # the same value built another way: equal, with equal hash
        again = (x + y) - y
        assert again == x and hash(again) == hash(x)
        if rx.is_rational():
            assert x.rational_value() == rx.rational_value()
            assert hash(x) == hash(rx) == hash(rx.coeffs[0])
        assert x.is_rational() == rx.is_rational()
        assert bool(x) == bool(rx)
    check()


@pytest.mark.parametrize("name", NAMES)
def test_sign_order_and_printing_match_reference(name):
    @given(_pairs(FIELDS[name]), _pairs(FIELDS[name]))
    def check(a, b):
        (x, rx), (y, ry) = a, b
        assert x.signum() == rx.signum()
        assert (x < y) == (rx < ry)
        assert (x > y) == (rx > ry)
        assert format_scalar(x) == ref.format_scalar(rx)
        assert str(x) == str(rx) and repr(x) == repr(rx)
    check()


@pytest.mark.parametrize("name", NAMES)
def test_galois_action_and_extension_match_reference(name):
    desc = FIELDS[name]
    big = field(2, 3, 5)

    @given(_pairs(desc))
    def check(a):
        x, rx = a
        for signs in itertools.product((1, -1), repeat=desc.k):
            action = GaloisAction.from_signs(dict(zip(desc.radicands, signs)))
            assert_matches(apply_galois(action, x), ref.apply_galois(action, rx))
        assert_matches(x.extend(big), rx.extend(big))
    check()


def _reference_reduce(r, ctx):
    """The reduction Z[sqrt(d)] -> F_p on the reference element, by value
    on its Fraction coefficients: every nonzero coefficient must sit on
    the monomial 1 or sqrt(d)."""
    p = ctx.p
    coeffs = {r.desc.monomial_radicand(mask): c
              for mask, c in enumerate(r.coeffs) if c}
    foreign = sorted(coeffs.keys() - {1, ctx.d})
    if foreign:
        raise ValueError(f"sqrt({foreign[0]}) does not lie in Q(sqrt({ctx.d}))")
    a = _mod_p(coeffs.get(1, 0), p)
    b = _mod_p(coeffs.get(ctx.d, 0), p)
    if ctx.mode == "split":
        return FqElem(p, a + b * ctx.root)
    return FqElem(p, a, b, ctx.d % p)


@pytest.mark.parametrize("p", [5, 11])
@pytest.mark.parametrize("name", NAMES)
def test_reduction_mod_p_matches_reference(name, p):
    ctx = ReductionContext.build(p, 3)

    @given(_pairs(FIELDS[name]))
    def check(a):
        x, rx = a
        try:
            want = _reference_reduce(rx, ctx)
        except (ValueError, ZeroDivisionError) as e:
            with pytest.raises(type(e)):
                reduce_scalar(x, ctx)
        else:
            assert reduce_scalar(x, ctx) == want
    check()


# fields that contain sqrt3, the last one only as sqrt2 * sqrt6 / 2
BIGGER = [field(2, 3), field(3, 5), field(2, 3, 5), field(2, 6)]


@pytest.mark.parametrize("big", BIGGER, ids=str)
def test_lift_places_by_value(big):
    small = field(3)

    @given(st.lists(COEFFS, min_size=2, max_size=2))
    def check(coeffs):
        x = FieldElem(small, coeffs)
        y = lift(x, big)
        assert y.desc is big and lift(y, small) == x
        # y plus the root of any other radicand of big leaves Q(sqrt3)
        outside = [y + FieldElem.sqrt_int(big, r) for r in set(big.radicands) - {3}]
        for z in outside:
            with pytest.raises(ValueError, match=r"does not lie in Q\(sqrt\(3\)\)$"):
                lift(z, small)
        for p in (5, 11):
            ctx = ReductionContext.build(p, 3)
            try:
                want = reduce_scalar(x, ctx)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    reduce_scalar(y, ctx)
            else:
                assert reduce_scalar(y, ctx) == want
            for z in outside:
                with pytest.raises(ValueError):
                    reduce_scalar(z, ctx)
    check()


@pytest.mark.parametrize("name", NAMES)
def test_rational_elements_hash_like_their_fraction(name):
    desc = FIELDS[name]

    @given(RATIONALS)
    def check(q):
        x = FieldElem.from_rational(desc, q)
        assert hash(x) == hash(q) == hash(Fraction(q))
        assert x == q and x.nums[1:] == (0,) * (desc.dim - 1)
        if q:
            # q / 2 may keep the numerator of q and double its denominator
            assert x != Fraction(q) / 2 and x != Fraction(q) * 2
    check()


def _pell_pairs(bound):
    """(p, q) > 0 with p^2 - 3 q^2 in {-2, 1}, up to p <= bound: the best
    rational approximations p/q of sqrt(3) from both sides."""
    out = []
    for n in (-2, 1):
        p, q = (1, 1) if n == -2 else (2, 1)
        while p <= bound:
            out.append((p, q, n))
            p, q = 2 * p + 3 * q, p + 2 * q   # times the unit 2 + sqrt(3)
    return out


@pytest.mark.parametrize("p, q, n", _pell_pairs(10 ** 6))
def test_sign_near_zero_matches_the_norm(p, q, n):
    """p - q sqrt(3) has the sign of p^2 - 3 q^2 and is within 1/p of
    zero: the reference sign refines its intervals to their finest steps,
    while the library sign is one tower descent to that norm."""
    desc = field(3)
    x = FieldElem(desc, [p, -q], 1)
    rx = ref.FieldElem(desc, [p, -q])
    assert x.signum() == rx.signum() == (1 if n > 0 else -1)
    assert (-x).signum() == (-rx).signum() == (-1 if n > 0 else 1)
    assert (x < 0) == (n < 0)


def test_integer_numerators_are_normalised():
    desc = field(3)
    x = FieldElem(desc, [2, -4], -6)
    assert (x.nums, x.den) == ((-1, 2), 3)
    assert x == FieldElem(desc, [Fraction(-1, 3), Fraction(2, 3)])
    zero = FieldElem(desc, [0, 0], 7)
    assert (zero.nums, zero.den) == ((0, 0), 1)
    with pytest.raises(ZeroDivisionError):
        FieldElem(desc, [1, 0], 0)
    with pytest.raises(ValueError):
        FieldElem(desc, [1, 2, 3], 1)
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(1), Fraction(0))
    assert desc.plan == ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 3))


# sparse coefficient vectors: inverses of elements of every subfield
# (u = 0 or v = 0 at some level) take the closed form's edge cases
SPARSE = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), COEFFS)


@pytest.mark.parametrize("name", NAMES)
def test_closed_form_inverse_matches_reference(name, monkeypatch):
    """The closed-form inverse down the tower against the reference, and
    one element built, as every level is integer sums."""
    desc = FIELDS[name]
    built = []
    init = FieldElem.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    @given(st.lists(SPARSE, min_size=desc.dim, max_size=desc.dim))
    def check(coeffs):
        x, rx = FieldElem(desc, coeffs), ref.FieldElem(desc, coeffs)
        if rx.is_zero():
            return
        built.clear()
        monkeypatch.setattr(FieldElem, "__init__", counting)
        inv = x.inverse()
        monkeypatch.undo()
        assert len(built) == 1
        assert_matches(inv, rx.inverse())
        assert x * inv == 1
    check()
