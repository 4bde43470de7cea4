"""The Fraction-coefficient field element, kept as a slow reference.

`FieldElem` below is the multiquadratic field element as it stood before
`exactnum.FieldElem` moved to integer numerators over one common
denominator: one `fractions.Fraction` per monomial coefficient.  It is
copied verbatim, with the two module functions it reads (`apply_galois`
and `format_scalar`), so the differential tests can check every operation
of the fast representation against it."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

from hitchinforge.exactnum import (
    FieldDescriptor,
    GaloisAction,
    RingElem,
    Scalar,
    is_square,
    square_free_decomposition,
)


class FieldElem(RingElem):
    """Element of a multiquadratic field, exact coefficients on the subset
    monomial basis."""

    __slots__ = ("desc", "coeffs")

    def __init__(self, desc: FieldDescriptor, coeffs: Sequence[Fraction]):
        if len(coeffs) != desc.dim:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

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

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> Optional["FieldElem"]:
        if isinstance(other, FieldElem):
            if other.desc != self.desc:
                raise ValueError("field descriptor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem.from_rational(self.desc, other)
        return None

    def _add(self, o: "FieldElem") -> "FieldElem":
        return FieldElem(self.desc, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def _sub(self, o: "FieldElem") -> "FieldElem":
        return FieldElem(self.desc, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.desc, [-a for a in self.coeffs])

    def _mul(self, o: "FieldElem") -> "FieldElem":
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

    # -- predicates and accessors --------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
        return (self - other).signum() < 0

    def __gt__(self, other) -> bool:
        return (self - other).signum() > 0

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"FieldElem({format_scalar(self)!r})"



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
