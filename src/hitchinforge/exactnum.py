"""Exact arithmetic: rationals, multiquadratic field elements, Galois
actions, dense matrices over any of these rings, and Pell units.

Everything in this module (and everything built on it) is exact; there is
no floating point anywhere.  Field elements live in a tower
Q(sqrt(d1),...,sqrt(dk)) with k <= 3, represented on the monomial basis
indexed by subsets of the radicands: integer numerators over one common
positive denominator in lowest terms (Cohen, A Course in Computational
Algebraic Number Theory, 4.2; FLINT's fmpq_poly), so a field operation is
integer arithmetic plus one gcd.  Each field descriptor caches its product
plan, the monomial pairs with the radicand factor their product picks up,
and `field` interns descriptors, so equal fields are one object.  An
inverse descends the tower in closed form on integers, building one
element, and a sign descends it too, decided from signs one level down.  `fundamental_unit` stops
where the period of the continued fraction of sqrt(d) ends, for every d.

Every matrix entry is of a ring with a kernel, the ring's descriptor
itself, and each matrix product picks its kernel in one pass over both
operands and runs the whole product there.  Over Q and over one field a
vector is split once into integer coordinates over one denominator, each
output entry is integer sums and one scalar, and a Fraction meeting one
field's elements is read as an element of that field there.  Over one
finite field F_q (modp's FqDescriptor) the product runs on modp's packed
row codes, in a layout sized by the inner dimension, and decodes into
interned entries.  A matrix refuses quaternion entries, and a product of
entries that no one kernel takes (Fractions with FqElems, two fields) is
a ValueError.  An int or Fraction operand of a ring element is coerced
into its ring.  Every elimination is fraction-free, one step on the
kernels' integer coordinates (`_Elimination`), and the isometry test
sigma(M)^T J M = J compares Kronecker-packed rows of those coordinates
(`preserves_form`), building no scalar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:
    from .modp import FqDescriptor

Scalar = Union[int, Fraction, "RingElem"]


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation {prime: exponent} of |n| by trial division;
    empty for |n| <= 1."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def _is_prime(n: int) -> bool:
    return _factor(n) == {n: 1}


def square_free_decomposition(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m square-free.  Returns (s, m); the sign of
    n stays on m."""
    if n == 0:
        return 1, 0
    s, m = 1, 1
    for q, e in _factor(n).items():
        s *= q ** (e // 2)
        if e % 2:
            m *= q
    return s, m if n > 0 else -m


def square_free_part(n: int) -> int:
    return square_free_decomposition(n)[1]


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def square_class(q: Union[int, Fraction]) -> int:
    """Square-free integer representative of the square class of q != 0.
    A reduced fraction's parts are coprime, so each is factored alone."""
    q = Fraction(q)
    if q == 0:
        return 0
    return square_free_part(q.numerator) * square_free_part(q.denominator)


def _times(desc: FieldDescriptor, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The integer numerators of a product, over the product of the two
    denominators, by the descriptor's plan."""
    out = [0] * desc.dim
    for s, t, st, common in desc.plan:
        out[st] += a[s] * b[t] * common
    return out


@dataclass(frozen=True)
class FieldDescriptor:
    """A multiquadratic tower Q(sqrt(r) for r in radicands), and the
    kernel of matrices over it (see the dot-products comment below).

    Radicands are square-free integers > 1, strictly increasing, at most
    three of them.  They must be multiplicatively independent modulo
    squares (no nonempty subset has square product), which makes the
    2**k monomial basis an actual basis and keeps representations unique.
    """

    radicands: tuple[int, ...]

    def __post_init__(self) -> None:
        rads = self.radicands
        if len(rads) > 3:
            raise ValueError("at most three radicands are supported")
        for r in rads:
            if r <= 1:
                raise ValueError(f"radicand {r} must be > 1")
            if square_free_part(r) != r:
                raise ValueError(f"radicand {r} is not square-free")
        if list(rads) != sorted(set(rads)):
            raise ValueError("radicands must be strictly increasing")
        for mask in range(1, 1 << len(rads)):
            if is_square(self.monomial_radicand(mask)):
                raise ValueError(
                    "radicands are multiplicatively dependent modulo squares"
                )

    @property
    def k(self) -> int:
        return len(self.radicands)

    @cached_property
    def dim(self) -> int:
        return 1 << len(self.radicands)

    @cached_property
    def plan(self) -> tuple[tuple[int, int, int, int], ...]:
        """The product plan: one (s, t, s ^ t, common) entry per pair of
        monomials, since sqrt(prod S) * sqrt(prod T) = common * sqrt(prod
        S ^ T) with common = prod(S & T)."""
        return tuple((s, t, s ^ t, self.monomial_radicand(s & t))
                     for s in range(self.dim) for t in range(self.dim))

    @cached_property
    def unit(self) -> list[int]:
        return [1] + [0] * (self.dim - 1)

    @cached_property
    def split(self) -> Callable:
        return partial(_split_field, (0,) * (self.dim - 1))

    @cached_property
    def build(self) -> Callable:
        return partial(FieldElem, self)

    times = _times

    def signs(self, action: Optional[GaloisAction]) -> tuple[int, ...]:
        """The sign of each coordinate under a Galois action (`_signs`)."""
        return _signs(self.radicands, action)

    def products(self, rows: Sequence[Sequence], right: Sequence[Sequence]) -> tuple:
        split, dot = self.split, self.dot
        cols = [split(c) for c in zip(*right)]
        return tuple([tuple([dot(r, c) for c in cols]) for r in map(split, rows)])

    def dot(self, a, b):
        (da, ra), (db, rb) = a, b
        out = [0] * len(ra)
        for s, t, st, common in self.plan:
            out[st] += sum(map(mul, ra[s], rb[t])) * common
        return self.build(out, da * db)

    def divisor(self, d: Sequence[int]) -> tuple[Optional[list[int]], int]:
        """(C, N) with C/N = 1/d by `_norm_parts`; C is None over Q, where
        it is 1."""
        conj, norm = _norm_parts(self, d, self.k)
        return (conj if self.k else None), norm

    def exact(self, coords: list, norm: int) -> list:
        """Coordinates divided by the integer norm, which divides each."""
        if norm == 1:
            return coords
        return [[x // norm for x in c] for c in coords]

    def __str__(self) -> str:
        roots = ", ".join(f"sqrt({r})" for r in self.radicands)
        return f"Q({roots})" if roots else "Q"

    def monomial_radicand(self, mask: int) -> int:
        n = 1
        for i, r in enumerate(self.radicands):
            if mask >> i & 1:
                n *= r
        return n


_FIELDS: dict[tuple[int, ...], FieldDescriptor] = {}


def field(*radicands: int) -> FieldDescriptor:
    """Descriptor for Q(sqrt(r), ...), normalizing radicands to square-free
    form and dropping squares.  Descriptors are interned: equal fields give
    the same object, and so one kernel."""
    rads = tuple(sorted({square_free_part(r) for r in radicands} - {1}))
    desc = _FIELDS.get(rads)
    if desc is None:
        desc = _FIELDS[rads] = FieldDescriptor(rads)
    return desc


# -- the scalar ring protocol ---------------------------------------------
#
# Every scalar is an int, a Fraction or a RingElem (FieldElem here, QuatElem
# and FqElem in their modules), and every scalar is falsy exactly when it
# is zero.  A RingElem subclass supplies only what differs between rings:
# _coerce (the other operand in its own ring, or None), the same-ring
# kernels _add, _sub and _mul, __neg__, inverse, is_zero, __eq__ and
# __hash__; optionally `desc`, its ring's descriptor, which is the kernel
# of matrix products over the ring.  RingElem derives every other operator
# from these once.  The helpers below are the one place where bare
# rationals join the protocol.


def _zero_like(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    return x.zero_like()


def _one_like(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    return x.one_like()


def _invert(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / x
    return x.inverse()


def _power(x, e: int, one):
    """x ** e by square-and-multiply from the unit one; a negative e
    inverts x first."""
    if e < 0:
        x, e = _invert(x), -e
    out = one
    while e:
        if e & 1:
            out = out * x
        e >>= 1
        if e:
            x = x * x
    return out


def _operator_fallbacks(kernel: Callable):
    """The forward and reflected operator of one same-ring kernel, as
    fractions.Fraction builds its operators: each coerces the other
    operand into the ring of self and keeps the order of the operands."""

    def forward(a, b):
        o = a._coerce(b)
        if o is None:
            return NotImplemented
        return kernel(a, o)

    def reverse(b, a):
        o = b._coerce(a)
        if o is None:
            return NotImplemented
        return kernel(o, b)

    return forward, reverse


class RingElem:
    """Base class of the exact ring elements.  Division is right division,
    a / b = a * b.inverse(), which matters only where products need not
    commute, as for quaternions."""

    __slots__ = ()
    desc = None  # no kernel: an ExactMatrix refuses the element

    def __init_subclass__(cls) -> None:
        # Operators closed over this subclass's own kernels add one frame
        # above the kernel and live on the subclass itself, where a
        # per-class wrapper finds them (bench/tracer.py wraps FieldElem.__mul__).
        mul = cls._mul

        def div(a, b):
            return mul(a, b.inverse())

        for name, kernel in (("add", cls._add), ("sub", cls._sub),
                             ("mul", mul), ("truediv", div)):
            forward, reverse = _operator_fallbacks(kernel)
            setattr(cls, f"__{name}__", forward)
            setattr(cls, f"__r{name}__", reverse)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __pow__(self, e: int):
        return _power(self, e, self._coerce(1))

    def one_like(self):
        return self._coerce(1)

    def zero_like(self):
        return self._coerce(0)

    def __bool__(self) -> bool:
        return not self.is_zero()


class FieldElem(RingElem):
    """Element of a multiquadratic field on the subset monomial basis,
    stored as integer numerators `nums` over one positive denominator
    `den` in lowest terms: gcd(den, *nums) == 1, and zero has den == 1.
    Equal elements therefore have equal (nums, den).  `coeffs` is the
    read-only view of the coefficients as Fractions.

    FieldElem(desc, coeffs) takes any rationals; FieldElem(desc, nums, den)
    takes integer numerators over an integer denominator and divides out
    their gcd.  Products run over the descriptor's `plan`."""

    __slots__ = ("desc", "nums", "den")

    def __init__(self, desc: FieldDescriptor, coeffs: Sequence,
                 den: Optional[int] = None):
        if len(coeffs) != desc.dim:
            raise ValueError("coefficient vector has wrong length")
        if den is None:
            fracs = [Fraction(c) for c in coeffs]
            den = lcm(*(c.denominator for c in fracs))
            nums = tuple(c.numerator * (den // c.denominator) for c in fracs)
        else:
            if not den:
                raise ZeroDivisionError("field element with zero denominator")
            g = gcd(den, *coeffs)
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                nums = tuple(c // g for c in coeffs)
            else:
                nums = tuple(coeffs)
        _set_desc(self, desc)
        _set_nums(self, nums)
        _set_den(self, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, desc: FieldDescriptor) -> "FieldElem":
        return cls(desc, [0] * desc.dim, 1)

    @classmethod
    def one(cls, desc: FieldDescriptor) -> "FieldElem":
        return cls.from_rational(desc, 1)

    @classmethod
    def from_rational(cls, desc: FieldDescriptor, q: Union[int, Fraction]) -> "FieldElem":
        nums = [0] * desc.dim
        nums[0] = q.numerator
        return cls(desc, nums, q.denominator)

    @classmethod
    def sqrt_int(cls, desc: FieldDescriptor, n: int) -> "FieldElem":
        """sqrt(n) for an integer n >= 1 expressible in the field."""
        if n < 1:
            raise ValueError("sqrt_int takes a positive integer")
        s, m = square_free_decomposition(n)
        if m == 1:
            return cls.from_rational(desc, s)
        for mask in range(1, desc.dim):
            prod = desc.monomial_radicand(mask)
            if prod % m == 0 and is_square(prod // m):
                nums = [0] * desc.dim
                nums[mask] = s
                return cls(desc, nums, isqrt(prod // m))
        raise ValueError(f"sqrt({n}) does not lie in {desc}")

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> Optional["FieldElem"]:
        if isinstance(other, FieldElem):
            if other.desc is not self.desc and other.desc != self.desc:
                raise ValueError("field descriptor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem.from_rational(self.desc, other)
        return None

    def _add(self, o: "FieldElem") -> "FieldElem":
        da, db = self.den, o.den
        if da == db:
            return FieldElem(self.desc, [a + b for a, b in zip(self.nums, o.nums)], da)
        return FieldElem(self.desc, [a * db + b * da for a, b in zip(self.nums, o.nums)],
                         da * db)

    def _sub(self, o: "FieldElem") -> "FieldElem":
        da, db = self.den, o.den
        if da == db:
            return FieldElem(self.desc, [a - b for a, b in zip(self.nums, o.nums)], da)
        return FieldElem(self.desc, [a * db - b * da for a, b in zip(self.nums, o.nums)],
                         da * db)

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.desc, [-a for a in self.nums], self.den)

    def _mul(self, o: "FieldElem") -> "FieldElem":
        return FieldElem(self.desc, _times(self.desc, self.nums, o.nums), self.den * o.den)

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        conj, norm = _norm_parts(self.desc, self.nums, self.desc.k)
        den = self.den
        return FieldElem(self.desc, [c * den for c in conj], norm)

    # -- predicates and accessors --------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def extend(self, desc: FieldDescriptor) -> "FieldElem":
        """The same value in the field desc, placed by value: each nonzero
        monomial sqrt(r) goes to `sqrt_int(desc, r)`, so desc must contain
        the value, not the radicands it is stored over."""
        out = FieldElem.zero(desc)
        for mask, c in enumerate(self.nums):
            if c:
                out += c * FieldElem.sqrt_int(desc, self.desc.monomial_radicand(mask))
        return out * Fraction(1, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return ((self.desc is other.desc or self.desc == other.desc)
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.desc, self.nums, self.den))

    # -- exact sign ------------------------------------------------------

    def signum(self) -> int:
        """Exact sign of the real value, every square root taken positive."""
        return _sign(self.desc, self.nums, self.desc.k)

    def __lt__(self, other) -> bool:
        return (self - other).signum() < 0

    def __gt__(self, other) -> bool:
        return (self - other).signum() > 0

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"FieldElem({format_scalar(self)!r})"


# The slot setters of FieldElem, past the immutable RingElem.__setattr__;
# calling them directly is faster than object.__setattr__ by name.
_set_desc, _set_nums, _set_den = (FieldElem.__dict__[name].__set__
                                  for name in FieldElem.__slots__)


def _split(desc: FieldDescriptor, nums: Sequence[int], level: int):
    """x = u + v*sqrt(r) for numerators on the monomials of the first
    `level` radicands: the numerators of u, v and the norm u^2 - r*v^2
    (over the square of x's denominator), all one level down."""
    bit = 1 << (level - 1)
    r = desc.radicands[level - 1]
    u = [c if mask < bit else 0 for mask, c in enumerate(nums)]
    v = [nums[mask | bit] if mask < bit else 0 for mask in range(desc.dim)]
    return u, v, [x - r * y for x, y in zip(_times(desc, u, u), _times(desc, v, v))]


def _norm_parts(desc, nums: Sequence[int], level: int) -> tuple[list[int], int]:
    """(C, N) for nonzero integer numerators x on the monomials of the
    first `level` radicands: x * C = N, an integer, so 1/x = C/N.  It
    descends the tower: x = u + v*sqrt(r) with u, v in the subfield below,
    and x * (u - v*sqrt(r)) = u^2 - r*v^2 is one level down.  Every step is
    integer sums, so an inverse builds one element."""
    if level == 0:
        return [1] + [0] * (desc.dim - 1), nums[0]
    below, norm = _norm_parts(desc, _split(desc, nums, level)[2], level - 1)
    bit = 1 << (level - 1)
    conj = [-c if mask & bit else c for mask, c in enumerate(nums)]
    return _times(desc, conj, below), norm


def _sign(desc: FieldDescriptor, nums: Sequence[int], level: int) -> int:
    """The sign of numerators on the monomials of the first `level`
    radicands, by the split x = u + v*sqrt(r) of `_split`: x has the sign
    of u and v when they agree or one is zero, and otherwise sign(u) *
    sign(u^2 - r*v^2), as |u| and |v|*sqrt(r) compare as their squares
    do.  Each sign is decided one level down."""
    if level == 0:
        return (nums[0] > 0) - (nums[0] < 0)
    u, v, norm = _split(desc, nums, level)
    su, sv = _sign(desc, u, level - 1), _sign(desc, v, level - 1)
    if su * sv >= 0:
        return su or sv
    return su * _sign(desc, norm, level - 1)


@dataclass(frozen=True)
class GaloisAction:
    """A sign choice sqrt(r) -> sign * sqrt(r) per radicand; acts as a ring
    automorphism of any field whose radicands are all covered."""

    signs: tuple[tuple[int, int], ...]

    @classmethod
    def flipping(cls, *flipped: int) -> "GaloisAction":
        return cls(tuple(sorted({(square_free_part(r), -1) for r in flipped})))

    @classmethod
    def from_signs(cls, signs: Mapping[int, int]) -> "GaloisAction":
        return cls(tuple(sorted((r, s) for r, s in signs.items())))

    def sign_of(self, radicand: int) -> int:
        for r, s in self.signs:
            if r == radicand:
                return s
        raise ValueError(f"no sign recorded for sqrt({radicand})")


def _signs(radicands: tuple[int, ...], action: Optional[GaloisAction]) -> tuple[int, ...]:
    """The one sign rule: the sign of each monomial, indexed by its mask
    over `radicands`, under a Galois action (all +1 for None); every
    radicand must have a recorded sign."""
    out = [1]
    for r in radicands:
        s = 1 if action is None else action.sign_of(r)
        out += [s * x for x in out]
    return tuple(out)


def apply_galois(action: GaloisAction, x: Scalar) -> Scalar:
    """Apply a Galois sign action to a FieldElem; rationals are fixed."""
    if isinstance(x, (int, Fraction)):
        return x
    if not isinstance(x, FieldElem):
        raise TypeError(f"no Galois action on {type(x).__name__}")
    return FieldElem(x.desc, list(map(mul, x.nums, x.desc.signs(action))), x.den)


# -- Pell units ---------------------------------------------------------


@dataclass(frozen=True)
class FundamentalUnit:
    value: FieldElem
    x: int
    y: int
    norm: int  # x**2 - d*y**2, either +1 or -1


def fundamental_unit(d: int) -> FundamentalUnit:
    """Fundamental unit x + y*sqrt(d) of the order Z[sqrt(d)], by the
    continued-fraction expansion of sqrt(d).

    The returned (x, y) is the minimal positive solution of
    x^2 - d*y^2 = +-1; the norm flag records which sign is attained.  The
    convergent h/k before the complete quotient with denominator q has
    h^2 - d*k^2 = +-q, so the loop stops where the period ends, at the
    first q = 1 (Cohen, ch. 5).
    """
    if d <= 1:
        raise ValueError("d must be an integer > 1")
    if square_free_part(d) != d:
        raise ValueError(f"{d} is not square-free")
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        m = q * a - m
        q = (d - m * m) // q
        if q == 1:
            return FundamentalUnit(FieldElem(field(d), [h, k], 1), h, k, h * h - d * k * k)
        a = (a0 + m) // q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k


def lift(x: Scalar, desc: FieldDescriptor) -> FieldElem:
    """x as an element of the field desc: rationals embed, and a field
    element keeps its value (see `FieldElem.extend`)."""
    if isinstance(x, FieldElem):
        return x if x.desc == desc else x.extend(desc)
    if isinstance(x, (int, Fraction)):
        return FieldElem.from_rational(desc, x)
    raise ValueError(f"{x} is not a rational or field element")


def common_field(scalars: Iterable) -> FieldDescriptor:
    """The smallest field containing every given scalar (Q when all are
    rational)."""
    return field(*(r for x in scalars if isinstance(x, FieldElem)
                   for r in x.desc.radicands))


def value_radicands(scalars: Iterable) -> set[int]:
    """The square-free r > 1 whose sqrt(r) has a nonzero coordinate in
    some given field element: what the values need, whatever fields they
    are stored in."""
    return {square_free_part(x.desc.monomial_radicand(mask))
            for x in scalars if isinstance(x, FieldElem)
            for mask, c in enumerate(x.nums) if mask and c}


# -- matrices ------------------------------------------------------------


class ExactMatrix:
    """Dense matrix with exact entries of rings with a kernel
    (rationals, field elements or finite-field elements; a product of
    Fractions and one field's elements is over that field)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(map(tuple, entries))
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows have unequal length")
        # a ring's elements name its descriptor, `desc`, their kernel, and
        # a type with none (RingElem.desc is None) has no kernel
        kinds = set(map(type, chain.from_iterable(rows)))
        if any(not issubclass(t, (int, Fraction)) and getattr(t, "desc", None) is None
               for t in kinds):
            raise ValueError("matrix entries must be of a ring with a kernel")
        if any(issubclass(t, int) for t in kinds):
            rows = tuple(tuple(Fraction(e) if isinstance(e, int) else e for e in row)
                         for row in rows)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple, ...]) -> "ExactMatrix":
        """A kernel's output, stored as given: a nonempty tuple of
        equal-length row tuples with no int entry."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        return m

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int, like=None) -> "ExactMatrix":
        one = _one_like(like) if like is not None else Fraction(1)
        zero = _zero_like(like) if like is not None else Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag: Sequence) -> "ExactMatrix":
        zero = _zero_like(diag[0])
        n = len(diag)
        return cls([[diag[i] if i == j else zero for j in range(n)] for i in range(n)])

    # -- shape -----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, idx: tuple[int, int]):
        i, j = idx
        return self.entries[i][j]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix([
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix([
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    def __neg__(self) -> "ExactMatrix":
        return self.map_entries(lambda e: -e)

    def _check_shape(self, other: "ExactMatrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shapes differ")

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("matrix dimensions incompatible for product")
            return ExactMatrix._from_rows(_products(self.entries, other.entries))
        return self.map_entries(lambda e: e * other)

    def __rmul__(self, other):
        return self.map_entries(lambda e: other * e)

    def __pow__(self, e: int) -> "ExactMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        return _power(self, e, ExactMatrix.identity(self.nrows, like=self.entries[0][0]))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.entries)))

    def map_entries(self, fn: Callable) -> "ExactMatrix":
        return ExactMatrix([[fn(e) for e in row] for row in self.entries])

    def lift(self, desc: FieldDescriptor) -> "ExactMatrix":
        """Every entry lifted into the field desc (see `lift`)."""
        return self.map_entries(lambda e: lift(e, desc))

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        t = self.entries[0][0]
        for i in range(1, self.nrows):
            t = t + self.entries[i][i]
        return t

    def det(self):
        """Determinant by fraction-free elimination (`_Elimination`)."""
        return self.rank_and_det()[1]

    def rank_and_det(self) -> tuple:
        """Rank and determinant of a square matrix, from one elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        elim, dens = _Elimination.of_rows(self.entries)
        return len(elim.pivots), elim.det(dens)

    def inverse(self) -> "ExactMatrix":
        """Inverse by fraction-free Gauss-Jordan elimination on [A | I]."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        elim, dens = _Elimination.of_rows(self.entries, identity=True)
        if len(elim.pivots) < self.nrows:
            raise ZeroDivisionError("matrix is singular")
        return ExactMatrix._from_rows(elim.solve(dens))

    def rank(self) -> int:
        return len(_Elimination.of_rows(self.entries)[0].pivots)

    # -- predicates ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            a == b
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def __hash__(self) -> int:
        return hash(self.entries)

    def is_identity(self) -> bool:
        return self.is_square() and self == ExactMatrix.identity(
            self.nrows, like=self.entries[0][0])

    def is_diagonal(self) -> bool:
        return self.is_square() and all(
            not self.entries[i][j]
            for i in range(self.nrows) for j in range(self.ncols) if i != j
        )

    def diagonal_entries(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(min(self.nrows, self.ncols)))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(format_scalar(e) for e in row) for row in self.entries
        ) + "]"

    __repr__ = __str__


# -- dot products ----------------------------------------------------------
#
# A ring's descriptor is the kernel of its matrices: a FieldDescriptor for
# one multiquadratic field, `_RATIONALS` for Q on Fraction entries, and
# modp's FqDescriptor for one finite field.  Every product picks its kernel
# once, in one pass over all the entries it will see (_kernel): every entry
# but a Fraction names its kernel by its descriptor `desc`.  A kernel's
# `split` turns a vector once into coordinates over one denominator: (den,
# one list per coordinate).  Over Q and over one field (FieldElems of one
# descriptor, and Fractions, the elements with only a constant coordinate)
# they are the integer numerators over the lcm of the denominators, one
# list per monomial; over F_p or F_p[r]/(r^2 - r2) (FqElems of one
# descriptor, no Fraction) they are the integer coordinates x and y over 1,
# multiplied by the plan of Q(sqrt(r2)).  `products(rows, right)` is a
# whole matrix product of two matrices given by their rows, as row tuples:
# over Q and a field every row and every column of `right` is split once,
# and each entry is one `dot`, one integer sum per plan entry and one
# scalar, whose constructor takes the only gcd (Cohen, A Course in
# Computational Algebraic Number Theory, 4.2); over F_q it runs modp's
# `_Layout` row codes on `right`'s rows, in a layout sized by the inner
# dimension, decoded into interned entries.  `unit` and `times` are the one
# and the product on integer coordinates of any size, never reduced, so
# `symrep.tau` and `preserves_form` multiply coordinates that each pack a
# polynomial's coefficients or a matrix row (Kronecker substitution) without
# building scalars; `signs(action)` is a Galois action's sign on each
# coordinate, by the one rule `_signs` (over F_p^2 the Frobenius is the
# action negating sqrt(r2)); `build(nums, den)` makes the one scalar of a
# result entry.  `divisor`
# and `exact` divide coordinates for `_Elimination`: exactly over Q and its
# fields, and mod p over F_q.  Every other mix (two fields, Fractions with
# FqElems) has no kernel and is refused.


def _split_rationals(vec: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    den = lcm(*(x.denominator for x in vec))
    return den, [[x.numerator * (den // x.denominator) for x in vec]]


def _split_field(zeros: tuple, vec: Sequence) -> tuple[int, list[tuple[int, ...]]]:
    """FieldElems and Fractions; a Fraction's other coordinates are `zeros`."""
    den = lcm(*[x.den if type(x) is FieldElem else x.denominator for x in vec])
    return den, list(zip(*(
        (x.nums if x.den == den else [n * (den // x.den) for n in x.nums])
        if type(x) is FieldElem else (x.numerator * (den // x.denominator), *zeros)
        for x in vec)))


class _Rationals(FieldDescriptor):
    """Q's kernel on all-Fraction entries, whose results are Fractions.
    Q's other kernel is field(), whose results are FieldElems."""

    split = staticmethod(_split_rationals)

    def build(self, nums: Sequence[int], den: int) -> Fraction:
        return Fraction(nums[0], den)


_RATIONALS = _Rationals(())


def _kernel(vectors: Sequence[Sequence]) -> Union[FieldDescriptor, FqDescriptor]:
    """The kernel of the entries of `vectors`, from one pass: `_RATIONALS`
    if all are Fractions, else the first descriptor, which every other
    entry's descriptor equals (a field's also takes the Fractions, a finite
    field's none).  Any other mix is a ValueError."""
    desc, rational = None, False
    for x in chain.from_iterable(vectors):
        if type(x) is Fraction:  # first: all-Fraction input is the common case
            rational = True
        elif x.desc is not desc or desc is None:
            if desc is None and x.desc is not None:
                desc = x.desc
            elif x.desc is None or x.desc != desc:
                raise ValueError("the entries are not of one ring with a kernel")
    if desc is None:
        return _RATIONALS
    if rational and not isinstance(desc, FieldDescriptor):
        raise ValueError("the entries are not of one ring with a kernel")
    return desc


def _products(rows: Sequence[Sequence], right: Sequence[Sequence]) -> tuple:
    """The rows, as tuples, of the product of the matrices whose rows are
    `rows` and `right`, by the one kernel of all their entries."""
    return _kernel((*rows, *right)).products(rows, right)


# -- fraction-free elimination ----------------------------------------------
#
# det, inverse, rank, span_dimension and qforms' congruence diagonalization
# run one step on the integer coordinates of rows split by their kernel,
# and build scalars only for results (Bareiss, "Sylvester's identity and
# multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
# For pivot p of step t in column c, its row p_j and d the pivot of step
# t - 1, a row becomes a_j <- (p*a_j - a_c*p_j) / d.  Every entry is a minor
# of the rows, so the division is exact: over Q an integer division, over
# Q(sqrt(r)...) a product by d's conjugates and a division by its norm
# (`_norm_parts`), over F_q a product by 1/d mod p.  A row with a_c = 0 is
# skipped, not rescaled: its `level` is the last step that touched it, so
# it holds step t - 1's values times d_level / d, and the next step that
# touches it divides by d_level instead.  A pivot row is rescaled to its
# step, and a divisor's conjugates are found, only when a row needs them.


def _axpy(plan, p: Sequence[int], u: Sequence, f: Optional[Sequence[int]],
          v: Optional[Sequence]) -> list[list[int]]:
    """p*u - f*v, or p*u when f is None, for scalars p, f and vectors u, v
    on integer coordinates (one list per coordinate), by the plan."""
    out: list = [None] * len(u)
    for s, t, st, common in plan:
        a, b = p[s] * common, f[s] * common if f is not None else 0
        if b:
            new = ([a * x - b * y for x, y in zip(u[t], v[t])] if a
                   else [-b * y for y in v[t]])
        elif a:
            new = [a * x for x in u[t]]
        else:
            continue
        out[st] = new if out[st] is None else list(map(add, out[st], new))
    return [[0] * len(u[0]) if o is None else o for o in out]


class _Elimination:
    """Rows of one kernel's integer coordinates under the step.  `add(r)`
    reduces row r against every pivot so far and pivots on its first
    nonzero column; qforms.diagonalize_qform picks its own pivots through
    `reduce`, `pivot` and `lift`.  `pivots` holds each step's (row, column)
    and `values` its pivot, so the last of n pivots of n rows is their
    determinant up to the sign of the column order.  A pivot row keeps the
    values of the step before its own, which makes `solve` Gauss-Jordan."""

    __slots__ = ("kernel", "rows", "levels", "pivots", "values", "_divisors")

    def __init__(self, kernel: Union[FieldDescriptor, FqDescriptor], rows: Iterable = ()):
        self.kernel, self.rows, self.levels = kernel, [], []
        self.pivots: list[tuple[int, int]] = []
        self.values: list[list[int]] = []
        self._divisors: dict[int, tuple] = {}
        for row in rows:
            self.append(row)

    @classmethod
    def of_rows(cls, entries: Sequence[Sequence], identity: bool = False):
        """Each row of a matrix, extended by the identity's row when asked,
        added; and the rows' denominators."""
        kernel = _kernel(entries)
        dens, rows = zip(*map(kernel.split, entries))
        n = len(rows)
        if identity:
            rows = [[list(c) + ([int(i == j) for j in range(n)] if k == 0 else [0] * n)
                     for k, c in enumerate(row)] for i, row in enumerate(rows)]
        elim = cls(kernel, rows)
        for r in range(n):
            elim.add(r, len(entries[0]))
        return elim, dens

    def append(self, row: Sequence) -> int:
        self.rows.append(row)
        self.levels.append(-1)
        return len(self.rows) - 1

    def pop(self) -> None:
        self.rows.pop()
        self.levels.pop()

    def add(self, r: int, width: Optional[int] = None) -> Optional[int]:
        """Reduce row r and pivot on its first nonzero column if that is
        among the first `width`; that column, or None."""
        self.reduce(r)
        c = next((j for j, e in enumerate(zip(*self.rows[r])) if any(e)), None)
        if c is None or (width is not None and c >= width):
            return None
        self.pivot(r, c)
        return c

    def reduce(self, r: int) -> None:
        """Row r, not a pivot, reduced against each pivot after its level:
        a skipped pivot left a zero in its column, and a step keeps the
        earlier pivot columns zero."""
        pivots = self.pivots
        for t in range(self.levels[r] + 1, len(pivots)):
            c = pivots[t][1]
            for x in self.rows[r]:
                if x[c]:
                    self._step(r, t)
                    break

    def pivot(self, r: int, c: int) -> None:
        """Make row r, reduced, the next pivot, at column c."""
        t, level = len(self.pivots), self.levels[r]
        value = [x[c] for x in self.rows[r]]
        if level == -1 and t:  # untouched: a product, with no remainder over F_q
            value = self.kernel.times(self.values[t - 1], value)
        elif level < t - 1:
            value = [x for x, in self._combine(self.values[t - 1], [[x] for x in value],
                                                None, None, level)]
        self.pivots.append((r, c))
        self.values.append(value)

    def lift(self, r: int, level: int) -> None:
        """Rescale row r to its values at step `level`."""
        if self.levels[r] < level:
            self.rows[r] = self._combine(self.values[level], self.rows[r], None, None,
                                         self.levels[r])
            self.levels[r] = level

    def _current(self, t: int) -> list:
        """The row of pivot t at its own step."""
        r = self.pivots[t][0]
        if self.levels[r] < t:
            self.lift(r, t - 1)
            self.levels[r] = t
        return self.rows[r]

    def _step(self, r: int, t: int) -> None:
        """The one step: row r by pivot t."""
        prow, row, c = self._current(t), self.rows[r], self.pivots[t][1]
        self.rows[r] = self._combine(self.values[t], row, [x[c] for x in row], prow,
                                     self.levels[r])
        self.levels[r] = t

    def _combine(self, p, u, f, v, level: int) -> list[list[int]]:
        """(p*u - f*v) / d_level, or p*u / d_level when f is None."""
        kernel, norm = self.kernel, 1
        if level >= 0:
            divisor = self._divisors.get(level)
            if divisor is None:
                divisor = self._divisors[level] = kernel.divisor(self.values[level])
            conj, norm = divisor
            if conj is not None:
                p = kernel.times(p, conj)
                f = f if f is None else kernel.times(f, conj)
        return kernel.exact(_axpy(kernel.plan, p, u, f, v), norm)

    def det(self, dens: Sequence[int]):
        """The determinant of n rows over denominators dens."""
        kernel = self.kernel
        if len(self.pivots) < len(self.rows):
            return kernel.build([0] * len(kernel.unit), 1)
        cols = [c for _, c in self.pivots]
        odd = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:]) % 2
        return kernel.build([-x if odd else x for x in self.values[-1]], prod(dens))

    def solve(self, dens: Sequence[int]) -> tuple:
        """The rows of A^-1 from the n pivots of [A | I], A's rows over
        dens: in row order each pivot row is cleared at the later pivots
        (which are still at their own steps), then divided by its pivot."""
        kernel, n = self.kernel, len(dens)
        out: list = [None] * n
        for i, (r, c) in enumerate(self.pivots):
            for t in range(i + 1, n):
                if any(x[self.pivots[t][1]] for x in self.rows[r]):
                    self._current(i)
                    self._step(r, t)
            conj, norm = kernel.divisor([x[c] for x in self.rows[r]])
            right = [x[n:] for x in self.rows[r]]
            if conj is not None:
                right = _axpy(kernel.plan, conj, right, None, None)
            out[c] = tuple([kernel.build([x[j] * dens[j] for x in right], norm)
                            for j in range(n)])
        return tuple(out)


def galois_matrix(action: GaloisAction, m: ExactMatrix) -> ExactMatrix:
    """Entrywise Galois action."""
    return m.map_entries(lambda e: apply_galois(action, e))


# -- the isometry test -----------------------------------------------------
#
# sigma(M)^T J M = J is decided on the kernel's integer coordinates, with no
# scalar and no matrix product.  M and J are split once, M = M'/dm and J =
# J'/dj, so G' = sigma(M')^T J' M' is G's numerator over dm^2 dj and G = J
# when G' = dm^2 J'.  A row of n coordinates packs into one integer per
# coordinate by Kronecker substitution, sum_j x_j 2^(w j) (`_pack`), and
# packing commutes with `times` by a scalar, so row k of J'M' is sum_l
# times(J'_kl, M'_l) over J's nonzero entries only, and row i of G' is
# sum_k times(sigma(M'_ki), (J'M')_k) over M's nonzero entries only, sigma
# one sign per coordinate (the kernel's `signs`).  Every G'_ij is a sum of
# at most nnz(J) triple products, each coordinate of which is at most
# (dim F)^2 A^2 B, F the largest plan factor and A, B the largest
# |coordinate| of M' and J'; w is one bit above the bound of the compared
# difference, so a packed difference is zero exactly when each signed
# digit (`_digits`) is, and over F_q the digits are reduced mod p by the
# kernel's `exact`.  Each row of G' - dm^2 J' is tested as it is built.


def _pack(values: Sequence[int], w: int) -> int:
    """sum_k values[k] 2^(w k), for values of any sign."""
    out = 0
    for v in reversed(values):
        out = (out << w) + v
    return out


def _digits(v: int, w: int, count: int) -> list[int]:
    """The signed digits d_0..d_(count-1) of v = sum_k d_k 2^(w k), each
    |d_k| < 2^(w - 1)."""
    half, mask = 1 << w - 1, (1 << w) - 1
    v += half * ((1 << w * count) - 1) // mask
    return [(v >> w * k & mask) - half for k in range(count)]


def preserves_form(m: ExactMatrix, j: ExactMatrix,
                   action: Optional[GaloisAction] = None) -> bool:
    """sigma(M)^T J M = J, sigma the Galois action on M's entries (none
    when None): a conjugation for unitary groups, and over F_p^2 the
    Frobenius, the action negating sqrt(r2).  A rational J needs no cast:
    the kernel of M's field takes its Fraction entries.  Decided on
    integer coordinates (see the comment above); no scalar is built."""
    if m.ncols != j.nrows or not m.is_square() or not j.is_square():
        raise ValueError("incompatible dimensions")
    n, kernel = m.nrows, _kernel((*m.entries, *j.entries))
    signs = kernel.signs(action)
    dm, mc = kernel.split(list(chain.from_iterable(m.entries)))
    jc = kernel.split(list(chain.from_iterable(j.entries)))[1]
    m_entries, j_entries = list(zip(*mc)), list(zip(*jc))
    nonzero = [(k, l, e) for k in range(n)
               for l, e in enumerate(j_entries[k * n:k * n + n]) if any(e)]
    dim, factor = len(mc), max(abs(common) for *_, common in kernel.plan)
    top_j = max((abs(x) for *_, e in nonzero for x in e), default=0)
    top_g = len(nonzero) * (dim * factor) ** 2 * max(map(abs, chain(*mc))) ** 2 * top_j
    w = (top_g + dm * dm * top_j).bit_length() + 1

    def packed(coords, row: int) -> list[int]:
        return [_pack(c[row * n:row * n + n], w) for c in coords]

    m_rows = [packed(mc, l) for l in range(n)]
    jm: list = [None] * n
    for k, l, e in nonzero:
        t = kernel.times(e, m_rows[l])
        jm[k] = t if jm[k] is None else list(map(add, jm[k], t))
    for i in range(n):
        row = [-dm * dm * x for x in packed(jc, i)]
        for k in range(n):
            e = m_entries[k * n + i]
            if jm[k] is not None and any(e):
                row = list(map(add, row, kernel.times(list(map(mul, signs, e)), jm[k])))
        if any(row) and any(map(any, kernel.exact([_digits(x, w, n) for x in row], 1))):
            return False
    return True


def in_group(m: ExactMatrix, n: int, form: Optional[ExactMatrix] = None,
             action: Optional[GaloisAction] = None) -> bool:
    """Membership in the determinant-one group of n x n matrices that
    preserve form under a Galois action: M is n x n, sigma(M)^T J M = J
    when a form J is given (see preserves_form), and det M = 1.
    Integrality is the caller's condition."""
    if m.nrows != n or m.ncols != n:
        return False
    if form is not None and not preserves_form(m, form, action):
        return False
    return m.det() == 1


def span_dimension(mats: Sequence[ExactMatrix]) -> int:
    """Dimension of the algebra spanned by all products of the inputs of
    length at most 2n-1 (including the empty product), by fraction-free
    elimination on vectorized matrices: the echelon rows are kept, and each
    candidate is reduced against them once.  Capped at n^2."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].nrows
    for m in mats:
        if not m.is_square() or m.nrows != n:
            raise ValueError("all matrices must be square of equal size")
    cap = n * n
    kernel = _kernel([row for m in mats for row in m.entries])
    basis = _Elimination(kernel)

    def add_matrix(m: ExactMatrix) -> bool:
        r = basis.append(kernel.split(list(chain.from_iterable(m.entries)))[1])
        if basis.add(r) is None:
            basis.pop()
            return False
        return True

    frontier = [ExactMatrix.identity(n, like=mats[0].entries[0][0])]
    frontier = [m for m in frontier if add_matrix(m)]
    for _ in range(2 * n - 1):
        if len(basis.pivots) >= cap or not frontier:
            break
        new_frontier = []
        for m in frontier:
            for g in mats:
                product = m * g
                if add_matrix(product):
                    new_frontier.append(product)
        frontier = new_frontier
    return len(basis.pivots)


# -- parsing and printing of exact scalars --------------------------------

_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*(?P<num>\d+)?(?:/(?P<den>\d+))?"
    r"\s*(?:(?P<sqrt>sqrt\((?P<rad>\d+)\)))?"
)


# Exact integers meet text _CHUNK decimal digits at a time, below the least
# int <-> str digit limit CPython accepts (640), whatever limit is set.
_CHUNK = 600
_CHUNK_BASE = 10 ** _CHUNK


def _rational_text(q: Union[int, Fraction]) -> str:
    """str(q) for an int or Fraction, converted one chunk at a time."""
    parts = []
    for n in (abs(q.numerator), q.denominator):
        chunks = []
        while n >= _CHUNK_BASE:
            n, low = divmod(n, _CHUNK_BASE)
            chunks.append(f"{low:0{_CHUNK}d}")
        parts.append(str(n) + "".join(reversed(chunks)))
    sign = "-" if q < 0 else ""
    return sign + (parts[0] if q.denominator == 1 else "/".join(parts))


def _text_int(digits: str) -> int:
    """int(digits) for a string of decimal digits, one chunk at a time."""
    if digits.startswith("-"):
        return -_text_int(digits[1:])
    n = int(digits[:len(digits) % _CHUNK] or 0)
    for i in range(len(digits) % _CHUNK, len(digits), _CHUNK):
        n = n * _CHUNK_BASE + int(digits[i:i + _CHUNK])
    return n


def format_scalar(x: Scalar) -> str:
    """Render on the grammar int('/'int)? (('+'|'-') coeff 'sqrt(' int ')')*.

    Monomials over several radicands print as c*sqrt(m) with m the
    square-free radicand of the product.
    """
    if not isinstance(x, FieldElem):
        return _rational_text(x) if isinstance(x, (int, Fraction)) else str(x)
    parts: list[str] = []
    coeffs = x.coeffs
    if coeffs[0]:
        parts.append(_rational_text(coeffs[0]))
    for mask in range(1, x.desc.dim):
        c = coeffs[mask]
        if not c:
            continue
        s, m = square_free_decomposition(x.desc.monomial_radicand(mask))
        c = c * s
        coeff = "" if abs(c) == 1 else _rational_text(abs(c))
        term = f"{coeff}sqrt({m})"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    if not parts:
        return "0"
    return "".join(parts)


def parse_scalar(text: str) -> Scalar:
    """Parse the CLI scalar grammar.  Returns a Fraction when no radical
    appears, else a FieldElem of the field the radicals generate."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar")
    terms: list[tuple[Fraction, int]] = []  # (coefficient, square-free radicand)
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse scalar {text!r} at offset {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        num, den = m.group("num", "den")
        if num is None and not m.group("sqrt"):
            raise ValueError(f"cannot parse scalar {text!r} at offset {pos}")
        coeff = Fraction(_text_int(num or "1"), _text_int(den or "1")) * sign
        if m.group("sqrt"):
            s, rad = square_free_decomposition(_text_int(m.group("rad")))
            terms.append((coeff * s, rad) if rad else (Fraction(0), 1))
        else:
            terms.append((coeff, 1))
        pos = m.end()
    rads = sorted({r for _, r in terms if r != 1})
    if not rads:
        return sum((c for c, _ in terms), Fraction(0))
    desc = field(*rads)
    out = FieldElem.zero(desc)
    for c, r in terms:
        if r == 1:
            out = out + c
        else:
            out = out + FieldElem.sqrt_int(desc, r) * c
    return out
