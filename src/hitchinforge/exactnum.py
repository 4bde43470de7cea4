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
inverse descends the tower in closed form, one element per level, and so
does a sign, decided from signs one level down.  `fundamental_unit` stops
where the period of the continued fraction of sqrt(d) ends, for every d.

Every matrix entry is of a ring with a kernel, and each matrix product
picks its kernel in one pass over both operands and runs the whole
product there.  Over Q and over one field a vector is split once into
integer coordinates over one denominator, each output entry is integer
sums and one scalar, and a Fraction meeting one field's elements is read
as an element of that field there.  Over one finite field F_q (the kernel
its entries' descriptor names) the product runs on modp's packed row
codes, in a layout sized by the inner dimension, and decodes into
interned entries.  A matrix refuses quaternion entries, and a product of
entries that no one kernel takes (Fractions with FqElems, two fields) is
a ValueError.  An int or Fraction operand of a ring element is coerced
into its ring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

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
    """Square-free integer representative of the square class of q != 0."""
    q = Fraction(q)
    if q == 0:
        return 0
    return square_free_part(q.numerator * q.denominator)


@dataclass(frozen=True)
class FieldDescriptor:
    """A multiquadratic tower Q(sqrt(r) for r in radicands).

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
    def kernel(self) -> "_Fused":
        """The fused dot-product kernel of this field, built once."""
        return _Fused(self)

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
# __hash__; optionally `desc`, a descriptor whose `kernel` runs matrix
# products over the ring.  RingElem derives every other operator from
# these once.  The helpers below are the one place where bare rationals
# join the protocol.


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
        return _field_inverse(self.desc, self.nums, self.den, self.desc.k)

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


def _times(desc: FieldDescriptor, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The integer numerators of a product, over the product of the two
    denominators, by the descriptor's plan."""
    out = [0] * desc.dim
    for s, t, st, common in desc.plan:
        out[st] += a[s] * b[t] * common
    return out


def _split(desc: FieldDescriptor, nums: Sequence[int], level: int):
    """x = u + v*sqrt(r) for numerators on the monomials of the first
    `level` radicands: the numerators of u, v and the norm u^2 - r*v^2
    (over the square of x's denominator), all one level down."""
    bit = 1 << (level - 1)
    r = desc.radicands[level - 1]
    u = [c if mask < bit else 0 for mask, c in enumerate(nums)]
    v = [nums[mask | bit] if mask < bit else 0 for mask in range(desc.dim)]
    return u, v, [x - r * y for x, y in zip(_times(desc, u, u), _times(desc, v, v))]


def _field_inverse(desc: FieldDescriptor, nums: Sequence[int], den: int,
                   level: int) -> FieldElem:
    """1 / (nums / den) for nonzero integer numerators on the monomials of
    the first `level` radicands, by descending the tower: x = u + v*sqrt(r)
    with u, v in the subfield below, so 1/x = (u - v*sqrt(r)) / (u^2 -
    r*v^2).  The norm's numerators over den^2 and the final product are
    integer sums, so each level builds one element."""
    if level == 0:
        out = [0] * desc.dim
        out[0] = den
        return FieldElem(desc, out, nums[0])
    ninv = _field_inverse(desc, _split(desc, nums, level)[2], den * den, level - 1)
    bit = 1 << (level - 1)
    conj = [-c if mask & bit else c for mask, c in enumerate(nums)]
    return FieldElem(desc, _times(desc, conj, ninv.nums), den * ninv.den)


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


def apply_galois(action: GaloisAction, x: Scalar) -> Scalar:
    """Apply a Galois sign action; rationals are fixed."""
    if isinstance(x, (int, Fraction)):
        return x
    if not isinstance(x, FieldElem):
        # quaternion and other composite scalars implement their own hook
        return x.apply_galois(action)  # type: ignore[union-attr]
    out = list(x.nums)
    for mask in range(1, x.desc.dim):
        if not out[mask]:
            continue
        s = 1
        for i, r in enumerate(x.desc.radicands):
            if mask >> i & 1:
                s *= action.sign_of(r)
        out[mask] *= s
    return FieldElem(x.desc, out, x.den)


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
        # a ring's elements name their kernel's descriptor, `desc`, and a
        # type with none (RingElem.desc is None) has no kernel
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
        """Determinant by exact Gaussian elimination: the signed product
        of the echelon pivots."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        rows = [list(r) for r in self.entries]
        pivots, sign = _echelon(rows, self.ncols)
        if len(pivots) < self.nrows:
            return _zero_like(rows[0][0])
        det = rows[0][0]
        for i in range(1, self.nrows):
            det = det * rows[i][i]
        return det if sign == 1 else -det

    def inverse(self) -> "ExactMatrix":
        """Inverse by elimination on [A | I] and back-substitution."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        ident = ExactMatrix.identity(n, like=self.entries[0][0])
        aug = [list(r) + list(e) for r, e in zip(self.entries, ident.entries)]
        if len(_echelon(aug, n)[0]) < n:
            raise ZeroDivisionError("matrix is singular")
        out: list = [None] * n
        for i in reversed(range(n)):
            row = aug[i][n:]
            for j in range(i + 1, n):
                if aug[i][j]:
                    factor = aug[i][j]
                    row = [a - factor * b for a, b in zip(row, out[j])]
            inv = _invert(aug[i][i])
            out[i] = [e * inv for e in row]
        return ExactMatrix(out)

    def rank(self) -> int:
        return len(_echelon([list(r) for r in self.entries], self.ncols)[0])

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


def _echelon(rows: list[list], ncols: int) -> tuple[list[int], int]:
    """Bring rows to row echelon form in place by exact Gaussian
    elimination on the first ncols columns.  Returns the pivot columns
    (row i holds the pivot of column pivots[i]) and the sign of the row
    permutation.  A pivot is inverted only when a row below needs
    clearing."""
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows))
                      if rows[r][col]), None)
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
                # entries left of col are zero in every row from top down
                rows[r] = row[:col] + [a - factor * b for a, b in zip(row[col:], prow)]
    return pivots, sign


# -- dot products ----------------------------------------------------------
#
# Every product picks its kernel once, in one pass over all the entries it
# will see (_kernel): every entry but a Fraction names its kernel by its
# descriptor `desc`.  A kernel splits a vector once into coordinates over
# one denominator: (den, one list per coordinate).  Over
# Q (every entry a Fraction) and over one multiquadratic field (FieldElems
# of one descriptor, and Fractions, the elements with only a constant
# coordinate) the coordinates are the integer numerators over the lcm of
# the denominators, one list per monomial; over one finite field F_p or
# F_p[r]/(r^2 - r2) (FqElems of one descriptor, no Fraction; modp builds
# the kernel) they are the integer coordinates x and y over 1, multiplied
# by the plan of Q(sqrt(r2)).  A dot product of two split vectors is one
# integer sum per plan entry and one scalar, whose constructor takes the
# only gcd or the only reduction mod p (Cohen, A Course in Computational
# Algebraic Number Theory, 4.2).  A finite field's matrix product skips
# them: it runs on modp's packed row codes.  Every other mix (two fields,
# Fractions with FqElems) has no kernel and is refused.


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


class _Fused:
    """The fused kernel of Q (desc is field(), entries are Fractions), of a
    finite field (desc is modp's plan-shaped descriptor, with its own
    split, build and products; no Fractions) or, by default, of one field
    (entries are FieldElems of desc and Fractions).  Each is built once per
    descriptor, as `desc.kernel`; it is the only kernel.
    `products(rows, right)` is a whole matrix product of two matrices
    given by their rows, as row tuples: by default every row and every
    column of `right` split once and one `dot` per entry; a finite field's
    runs modp's `_Layout` row codes on `right`'s rows, in a layout sized by
    the inner dimension, decoded into interned entries.
    `unit` and `times` are the one and the product on integer coordinates
    of any size, never reduced, so `symrep.tau` multiplies coordinates
    that each pack a polynomial's coefficients (Kronecker substitution)
    without building scalars; `build(nums, den)` makes the one scalar of a
    result entry, and `rationals` says whether `split` reads Fraction
    entries."""

    __slots__ = ("desc", "plan", "split", "build", "unit", "rationals", "products")

    def __init__(self, desc, split: Optional[Callable] = None,
                 build: Optional[Callable] = None, rationals: bool = True,
                 products: Optional[Callable] = None):
        self.desc, self.plan, self.unit = desc, desc.plan, [1] + [0] * (desc.dim - 1)
        self.split = split or partial(_split_field, (0,) * (desc.dim - 1))
        self.build = build or partial(FieldElem, desc)
        self.rationals = rationals
        self.products = products or self._split_products

    def _split_products(self, rows: Sequence[Sequence], right: Sequence[Sequence]) -> tuple:
        split, dot = self.split, self.dot
        cols = [split(c) for c in zip(*right)]
        return tuple([tuple([dot(r, c) for c in cols]) for r in map(split, rows)])

    def times(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        return _times(self.desc, u, v)

    def dot(self, a, b):
        (da, ra), (db, rb) = a, b
        out = [0] * len(ra)
        for s, t, st, common in self.plan:
            out[st] += sum(map(mul, ra[s], rb[t])) * common
        return self.build(out, da * db)


_RATIONALS = _Fused(field(), _split_rationals, lambda nums, den: Fraction(nums[0], den))


def _kernel(vectors: Sequence[Sequence]) -> _Fused:
    """The kernel of the entries of `vectors`, from one pass: Q's if all
    are Fractions, else the kernel of the first descriptor, which every
    other entry's descriptor equals (a field's also takes the Fractions,
    a finite field's none).  Any other mix is a ValueError."""
    desc, rational = None, False
    for x in chain.from_iterable(vectors):
        if type(x) is Fraction:  # first: all-Fraction input is the common case
            rational = True
        elif x.desc is not desc or desc is None:
            if desc is None and x.desc is not None:
                desc = x.desc
            elif x.desc is None or x.desc != desc:
                raise ValueError("the entries are not of one ring with a kernel")
    kernel = _RATIONALS if desc is None else desc.kernel
    if rational and not kernel.rationals:
        raise ValueError("the entries are not of one ring with a kernel")
    return kernel


def _products(rows: Sequence[Sequence], right: Sequence[Sequence]) -> tuple:
    """The rows, as tuples, of the product of the matrices whose rows are
    `rows` and `right`, by the one kernel of all their entries."""
    return _kernel((*rows, *right)).products(rows, right)


def galois_matrix(action: GaloisAction, m: ExactMatrix) -> ExactMatrix:
    """Entrywise Galois action."""
    return m.map_entries(lambda e: apply_galois(action, e))


def preserves_form(m: ExactMatrix, j: ExactMatrix,
                   twist: Optional[Callable] = None,
                   up_to_scalar: bool = False) -> bool:
    """twist(M)^T J M = J, or = lambda*J for some scalar when up_to_scalar.

    twist is an entrywise map (the identity when None): a Galois action
    for unitary groups or a Frobenius.  A rational J needs no cast: the
    kernel of M's field takes its Fraction entries."""
    if m.ncols != j.nrows or not m.is_square() or not j.is_square():
        raise ValueError("incompatible dimensions")
    mt = m if twist is None else m.map_entries(twist)
    got = mt.transpose() * j * m
    if got == j:
        return True
    if not up_to_scalar:
        return False
    pivot = next(((g, e) for grow, jrow in zip(got.entries, j.entries)
                  for g, e in zip(grow, jrow) if e), None)
    if pivot is None:
        raise ValueError("form matrix is zero")
    lam = pivot[0] * _invert(pivot[1])
    return got == j.map_entries(lambda e: e * lam)


def in_group(m: ExactMatrix, n: int, form: Optional[ExactMatrix] = None,
             twist: Optional[Callable] = None) -> bool:
    """Membership in the determinant-one group of n x n matrices that
    preserve form under twist: M is n x n, twist(M)^T J M = J when a form
    J is given (see preserves_form), and det M = 1.  Integrality is the
    caller's condition."""
    if m.nrows != n or m.ncols != n:
        return False
    if form is not None and not preserves_form(m, form, twist):
        return False
    return m.det() == 1


def span_dimension(mats: Sequence[ExactMatrix]) -> int:
    """Dimension of the algebra spanned by all products of the inputs of
    length at most 2n-1 (including the empty product), by exact Gaussian
    elimination on vectorized matrices.  Capped at n^2."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].nrows
    for m in mats:
        if not m.is_square() or m.nrows != n:
            raise ValueError("all matrices must be square of equal size")
    cap = n * n

    basis: list[list] = []  # echelon rows of the vectorized span

    def add_matrix(m: ExactMatrix) -> bool:
        rows = basis + [[e for row in m.entries for e in row]]
        if len(_echelon(rows, cap)[0]) == len(basis):
            return False
        basis[:] = rows
        return True

    frontier = [ExactMatrix.identity(n, like=mats[0].entries[0][0])]
    frontier = [m for m in frontier if add_matrix(m)]
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
            terms.append((coeff * s, rad))
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
