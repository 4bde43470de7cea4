"""Exact arithmetic: rationals, multiquadratic field elements, Galois
actions, dense matrices over any of these rings, and Pell units.

Everything in this module (and everything built on it) is exact; there is
no floating point anywhere.  Field elements live in a tower
Q(sqrt(d1),...,sqrt(dk)) with k <= 3, represented on the monomial basis
indexed by subsets of the radicands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction, "FieldElem"]


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

    @property
    def dim(self) -> int:
        return 1 << len(self.radicands)

    def monomial_radicand(self, mask: int) -> int:
        n = 1
        for i, r in enumerate(self.radicands):
            if mask >> i & 1:
                n *= r
        return n


def field(*radicands: int) -> FieldDescriptor:
    """Descriptor for Q(sqrt(r), ...), normalizing radicands to square-free
    form and dropping squares."""
    rads = sorted({square_free_part(r) for r in radicands} - {1})
    return FieldDescriptor(tuple(rads))


RATIONAL_FIELD = FieldDescriptor(())


class FieldElem:
    """Element of a multiquadratic field, exact coefficients on the subset
    monomial basis."""

    __slots__ = ("desc", "coeffs")

    def __init__(self, desc: FieldDescriptor, coeffs: Sequence[Fraction]):
        if len(coeffs) != desc.dim:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FieldElem is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, desc: FieldDescriptor) -> "FieldElem":
        return cls(desc, [Fraction(0)] * desc.dim)

    @classmethod
    def one(cls, desc: FieldDescriptor) -> "FieldElem":
        return cls.from_rational(desc, 1)

    @classmethod
    def from_rational(cls, desc: FieldDescriptor, q: Union[int, Fraction]) -> "FieldElem":
        c = [Fraction(0)] * desc.dim
        c[0] = Fraction(q)
        return cls(desc, c)

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
                t = isqrt(prod // m)
                c = [Fraction(0)] * desc.dim
                c[mask] = Fraction(s, t)
                return cls(desc, c)
        raise ValueError(f"sqrt({n}) does not lie in Q{desc.radicands}")

    # -- coercion helpers ---------------------------------------------

    def _coerce(self, other) -> Optional["FieldElem"]:
        if isinstance(other, FieldElem):
            if other.desc != self.desc:
                raise ValueError("field descriptor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem.from_rational(self.desc, other)
        return None

    def one_like(self) -> "FieldElem":
        return FieldElem.one(self.desc)

    def zero_like(self) -> "FieldElem":
        return FieldElem.zero(self.desc)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.desc, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.desc, [-a for a in self.coeffs])

    def __sub__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.desc, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other) -> "FieldElem":
        return (-self) + other

    def __mul__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        desc = self.desc
        out = [Fraction(0)] * desc.dim
        for s, cs in enumerate(self.coeffs):
            if not cs:
                continue
            for t, ct in enumerate(o.coeffs):
                if not ct:
                    continue
                # sqrt(prod S) * sqrt(prod T) = prod(S&T) * sqrt(prod S^T)
                common = desc.monomial_radicand(s & t)
                out[s ^ t] += cs * ct * common
        return FieldElem(desc, out)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self._inverse_rec(self.desc.k)

    def _inverse_rec(self, level: int) -> "FieldElem":
        """Invert by descending the tower: x = u + v*sqrt(r) with u, v in
        the subfield, so 1/x = (u - v*sqrt(r)) / (u^2 - r*v^2)."""
        if level == 0:
            return FieldElem.from_rational(self.desc, Fraction(1) / self.coeffs[0])
        bit = 1 << (level - 1)
        r = self.desc.radicands[level - 1]
        u = [Fraction(0)] * self.desc.dim
        v = [Fraction(0)] * self.desc.dim
        for mask, c in enumerate(self.coeffs):
            if mask & bit:
                v[mask ^ bit] = c
            else:
                u[mask] = c
        ue = FieldElem(self.desc, u)
        ve = FieldElem(self.desc, v)
        norm = ue * ue - (ve * ve) * r
        ninv = norm._inverse_rec(level - 1)
        conj_coeffs = list(self.coeffs)
        for mask in range(self.desc.dim):
            if mask & bit:
                conj_coeffs[mask] = -conj_coeffs[mask]
        return FieldElem(self.desc, conj_coeffs) * ninv

    def __truediv__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "FieldElem":
        return self.inverse() * other

    def __pow__(self, e: int) -> "FieldElem":
        return _power(self, e, FieldElem.one(self.desc))

    # -- predicates and accessors --------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def extend(self, desc: FieldDescriptor) -> "FieldElem":
        """Reinterpret in a larger field containing all current radicands."""
        out = [Fraction(0)] * desc.dim
        for mask, c in enumerate(self.coeffs):
            new_mask = 0
            for i, r in enumerate(self.desc.radicands):
                if mask >> i & 1:
                    new_mask |= 1 << desc.radicands.index(r)
            out[new_mask] = c
        return FieldElem(desc, out)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.desc == other.desc and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.desc, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- exact sign via rational interval refinement --------------------

    def signum(self) -> int:
        """Sign of the real value (all square roots taken positive).

        Exact: zero is decided from the coefficients, nonzero values by
        refining rational enclosures of the square roots.
        """
        if self.is_zero():
            return 0
        bits = 16
        while True:
            lo, hi = self._interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
            if bits > 2 ** 16:  # unreachable for nonzero exact input
                raise RuntimeError("sign refinement failed to converge")

    def _interval(self, bits: int) -> tuple[Fraction, Fraction]:
        lo = hi = Fraction(0)
        scale = 1 << bits
        for mask, c in enumerate(self.coeffs):
            if not c:
                continue
            m = self.desc.monomial_radicand(mask)
            root_lo = isqrt(m * scale * scale)
            mlo = Fraction(root_lo, scale)
            mhi = Fraction(root_lo + 1, scale)
            if c > 0:
                lo += c * mlo
                hi += c * mhi
            else:
                lo += c * mhi
                hi += c * mlo
        return lo, hi

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).signum() < 0

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).signum() > 0

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"FieldElem({format_scalar(self)!r})"


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
    out = list(x.coeffs)
    for mask in range(1, x.desc.dim):
        if not out[mask]:
            continue
        s = 1
        for i, r in enumerate(x.desc.radicands):
            if mask >> i & 1:
                s *= action.sign_of(r)
        out[mask] *= s
    return FieldElem(x.desc, out)


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
    x^2 - d*y^2 = +-1; the norm flag records which sign is attained.
    """
    if d <= 1:
        raise ValueError("d must be an integer > 1")
    if square_free_part(d) != d:
        raise ValueError(f"{d} is not square-free")
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for _ in range(10_000):
        norm = h * h - d * k * k
        if norm in (1, -1):
            desc = field(d)
            value = FieldElem(desc, [Fraction(h), Fraction(k)])
            return FundamentalUnit(value, h, k, norm)
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    raise RuntimeError(f"continued fraction for sqrt({d}) did not close")


# -- the scalar ring protocol ---------------------------------------------
#
# FieldElem, QuatElem and FqElem answer zero_like, one_like, is_zero and
# inverse themselves; these helpers are the one place where bare rationals
# join that protocol.


def _zero_like(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(0)
    return x.zero_like()


def _one_like(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    return x.one_like()


def _is_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


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


def lift(x: Scalar, desc: FieldDescriptor) -> FieldElem:
    """x as an element of the field desc: rationals embed, elements of a
    subfield extend."""
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


# -- matrices ------------------------------------------------------------


class ExactMatrix:
    """Dense matrix with exact entries (rationals, field elements,
    quaternions, or finite-field elements; one ring per matrix)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(e) if isinstance(e, int) else e for e in row)
                     for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows have unequal length")
        object.__setattr__(self, "entries", rows)

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
            cols = list(zip(*other.entries))
            return ExactMatrix([
                [_dot(row, col) for col in cols] for row in self.entries
            ])
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
        """Determinant by exact Gaussian elimination (commutative entries):
        the signed product of the echelon pivots."""
        self._require_commutative()
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
        self._require_commutative()
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        zero = _zero_like(self.entries[0][0])
        one = _one_like(self.entries[0][0])
        aug = [list(r) + [one if i == j else zero for j in range(n)]
               for i, r in enumerate(self.entries)]
        if len(_echelon(aug, n)[0]) < n:
            raise ZeroDivisionError("matrix is singular")
        out: list = [None] * n
        for i in reversed(range(n)):
            row = aug[i][n:]
            for j in range(i + 1, n):
                if not _is_zero(aug[i][j]):
                    factor = aug[i][j]
                    row = [a - factor * b for a, b in zip(row, out[j])]
            inv = _invert(aug[i][i])
            out[i] = [e * inv for e in row]
        return ExactMatrix(out)

    def rank(self) -> int:
        self._require_commutative()
        return len(_echelon([list(r) for r in self.entries], self.ncols)[0])

    def _require_commutative(self) -> None:
        if getattr(self.entries[0][0], "noncommutative", False):
            raise TypeError("operation requires commutative entries")

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
            _is_zero(self.entries[i][j])
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
                      if not _is_zero(rows[r][col])), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            sign = -sign
        pivots.append(col)
        below = [r for r in range(top + 1, len(rows)) if not _is_zero(rows[r][col])]
        if below:
            prow = rows[top][col:]
            inv = _invert(prow[0])
            for r in below:
                row = rows[r]
                factor = row[col] * inv
                # entries left of col are zero in every row from top down
                rows[r] = row[:col] + [a - factor * b for a, b in zip(row[col:], prow)]
    return pivots, sign


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def galois_matrix(action: GaloisAction, m: ExactMatrix) -> ExactMatrix:
    """Entrywise Galois action."""
    return m.map_entries(lambda e: apply_galois(action, e))


def preserves_form(m: ExactMatrix, j: ExactMatrix,
                   twist: Optional[Callable] = None,
                   up_to_scalar: bool = False) -> bool:
    """twist(M)^T J M = J, or = lambda*J for some scalar when up_to_scalar.

    twist is an entrywise map (the identity when None): a Galois action
    for unitary groups, a quaternion conjugation, a Frobenius.  Rational
    entries of J are cast once into the ring of M, so the products do not
    coerce them again."""
    if m.ncols != j.nrows or not m.is_square() or not j.is_square():
        raise ValueError("incompatible dimensions")
    one = _one_like(m.entries[0][0])
    jj = j.map_entries(lambda e: e * one if isinstance(e, Fraction) else e)
    mt = m if twist is None else m.map_entries(twist)
    got = mt.transpose() * jj * m
    if got == jj:
        return True
    if not up_to_scalar:
        return False
    pivot = next(((g, e) for grow, jrow in zip(got.entries, jj.entries)
                  for g, e in zip(grow, jrow) if not _is_zero(e)), None)
    if pivot is None:
        raise ValueError("form matrix is zero")
    lam = pivot[0] * _invert(pivot[1])
    return got == jj.map_entries(lambda e: e * lam)


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


def format_scalar(x: Scalar) -> str:
    """Render on the grammar int('/'int)? (('+'|'-') coeff 'sqrt(' int ')')*.

    Monomials over several radicands print as c*sqrt(m) with m the
    square-free radicand of the product.
    """
    if not isinstance(x, FieldElem):
        return str(x)
    parts: list[str] = []
    rat = x.coeffs[0]
    if rat:
        parts.append(str(rat))
    for mask in range(1, x.desc.dim):
        c = x.coeffs[mask]
        if not c:
            continue
        s, m = square_free_decomposition(x.desc.monomial_radicand(mask))
        c = c * s
        coeff = "" if abs(c) == 1 else str(abs(c))
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
        num = m.group("num")
        den = m.group("den")
        if num is None and not m.group("sqrt"):
            raise ValueError(f"cannot parse scalar {text!r} at offset {pos}")
        coeff = Fraction(int(num) if num is not None else 1,
                         int(den) if den is not None else 1) * sign
        if m.group("sqrt"):
            s, rad = square_free_decomposition(int(m.group("rad")))
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
