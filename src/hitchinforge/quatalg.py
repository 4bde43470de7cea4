"""Quaternion algebras (a,b) over Q, their standard order, the explicit
embedding into 2x2 matrices over Q(sqrt(a),sqrt(b)), and the norm-one
lattice of integer quaternions with its diagonal/Pell structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    ExactMatrix,
    FieldDescriptor,
    FieldElem,
    GaloisAction,
    RingElem,
    Scalar,
    _invert,
    apply_galois,
    common_field,
    field,
    lift,
    square_free_part,
)
from .qforms import Place, hasse_scan_places, hilbert_symbol


@dataclass(frozen=True)
class QuatAlgebra:
    """The algebra with basis (1, i, j, ij), i^2 = a, j^2 = b, ij = -ji.

    a and b are normalized to square-free integers (scaling by squares
    gives an isomorphic algebra).
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == 0 or self.b == 0:
            raise ValueError("a and b must be nonzero")
        object.__setattr__(self, "a", square_free_part(self.a))
        object.__setattr__(self, "b", square_free_part(self.b))

    def __call__(self, x0=0, x1=0, x2=0, x3=0) -> "QuatElem":
        return QuatElem(self, x0, x1, x2, x3)

    def one(self) -> "QuatElem":
        return QuatElem(self, 1, 0, 0, 0)

    def i(self) -> "QuatElem":
        return QuatElem(self, 0, 1, 0, 0)

    def j(self) -> "QuatElem":
        return QuatElem(self, 0, 0, 1, 0)

    def ij(self) -> "QuatElem":
        return QuatElem(self, 0, 0, 0, 1)


def _coerce_coeff(x) -> Scalar:
    if isinstance(x, int):
        return Fraction(x)
    return x


class QuatElem(RingElem):
    """Quaternion with coordinates in Q or in a multiquadratic field.

    Division is right division: q / r = q * r.inverse(), and x / r =
    x * r.inverse() for a scalar x."""

    __slots__ = ("algebra", "coords")
    noncommutative = True

    def __init__(self, algebra: QuatAlgebra, x0=0, x1=0, x2=0, x3=0):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords",
                           tuple(_coerce_coeff(c) for c in (x0, x1, x2, x3)))

    def _coerce(self, other):
        if isinstance(other, QuatElem):
            if other.algebra != self.algebra:
                raise ValueError("quaternion algebra mismatch")
            return other
        if isinstance(other, (int, Fraction, FieldElem)):
            return QuatElem(self.algebra, other, 0, 0, 0)
        return None

    def _add(self, o: "QuatElem") -> "QuatElem":
        return QuatElem(self.algebra, *(a + b for a, b in zip(self.coords, o.coords)))

    def _sub(self, o: "QuatElem") -> "QuatElem":
        return QuatElem(self.algebra, *(a - b for a, b in zip(self.coords, o.coords)))

    def __neg__(self):
        return QuatElem(self.algebra, *(-c for c in self.coords))

    def _mul(self, o: "QuatElem") -> "QuatElem":
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords
        y0, y1, y2, y3 = o.coords
        return QuatElem(
            self.algebra,
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def conj(self) -> "QuatElem":
        x0, x1, x2, x3 = self.coords
        return QuatElem(self.algebra, x0, -x1, -x2, -x3)

    def nred(self) -> Scalar:
        """Reduced norm x * conj(x) = x0^2 - a*x1^2 - b*x2^2 + ab*x3^2."""
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self) -> "QuatElem":
        n = self.nred()
        if not n:
            raise ZeroDivisionError("quaternion has reduced norm zero")
        inv = _invert(n)
        return QuatElem(self.algebra, *(c * inv for c in self.conj().coords))

    def apply_galois(self, action: GaloisAction) -> "QuatElem":
        """Galois action on the coordinates only (quaternion basis fixed)."""
        return QuatElem(self.algebra, *(apply_galois(action, c) for c in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_scalar(self) -> bool:
        return not any(self.coords[1:])

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self) -> int:
        return hash((self.algebra, self.coords))

    def __str__(self) -> str:
        names = ("", "i", "j", "ij")
        parts = []
        for c, name in zip(self.coords, names):
            if not c:
                continue
            parts.append(f"({c}){name}" if name else f"({c})")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


# -- the embedding into 2x2 matrices ---------------------------------------


def splitting_field(alg: QuatAlgebra) -> FieldDescriptor:
    if alg.a <= 0 or alg.b <= 0:
        raise ValueError("embedding needs a, b > 0 (real-split algebra)")
    return field(alg.a, alg.b)


def embed_m2(x: QuatElem) -> ExactMatrix:
    """The matrix realization over Q(sqrt(a),sqrt(b)):

        1 -> I,  i -> diag(sqrt(a), -sqrt(a)),
        j -> offdiag(sqrt(b), sqrt(b)),  ij -> offdiag(sqrt(ab), -sqrt(ab)).

    A ring homomorphism with det = Nred.  Coordinates may themselves lie in
    Q(sqrt(d)); the target field then adjoins d as well.
    """
    alg = x.algebra
    desc = field(*splitting_field(alg).radicands,
                 *common_field(x.coords).radicands)
    x0, x1, x2, x3 = (lift(c, desc) for c in x.coords)
    sa = FieldElem.sqrt_int(desc, alg.a)
    sb = FieldElem.sqrt_int(desc, alg.b)
    sab = sa * sb
    return ExactMatrix([
        [x0 + sa * x1, sb * x2 + sab * x3],
        [sb * x2 - sab * x3, x0 - sa * x1],
    ])


# -- division / ramification -----------------------------------------------


def ramified_places(alg: QuatAlgebra) -> frozenset[Place]:
    """Places where the Hilbert symbol (a,b) is -1.  Only 2, the real
    place, and odd primes dividing ab can ramify."""
    return frozenset(v for v in hasse_scan_places(alg.a, alg.b)
                     if hilbert_symbol(alg.a, alg.b, v) == -1)


def is_division(alg: QuatAlgebra) -> tuple[bool, frozenset[Place]]:
    """Division algebra iff ramified somewhere; returns the ramification
    set as the witness."""
    ram = ramified_places(alg)
    return bool(ram), ram


def is_cocompact_gamma(a: int, b: int) -> bool:
    """Whether the norm-one integer quaternions of (a,b) embed as a
    cocompact lattice of SL(2,R): equivalent to (a,b) being division."""
    if a < 1 or b < 1:
        raise ValueError("cocompactness test is for a, b >= 1")
    return is_division(QuatAlgebra(a, b))[0]


# -- the integral norm-one lattice -----------------------------------------


@dataclass(frozen=True)
class GammaElement:
    """Integer quadruple with x0^2 - a*x1^2 - b*x2^2 + ab*x3^2 = 1, i.e. a
    determinant-one element of the standard order of (a,b)."""

    a: int
    b: int
    x0: int
    x1: int
    x2: int
    x3: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError("a and b must be positive")
        if self.norm_value() != 1:
            raise ValueError("quadruple does not satisfy the norm-one equation")

    def norm_value(self) -> int:
        a, b = self.a, self.b
        return (self.x0 ** 2 - a * self.x1 ** 2 - b * self.x2 ** 2
                + a * b * self.x3 ** 2)

    def quaternion(self) -> QuatElem:
        return QuatElem(QuatAlgebra(self.a, self.b),
                        self.x0, self.x1, self.x2, self.x3)

    def matrix(self) -> ExactMatrix:
        return embed_m2(self.quaternion())

    def quadruple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.x1, self.x2, self.x3)


def gamma_enumerate(a: int, b: int, height: int) -> list[GammaElement]:
    """All elements with |x1|, |x2|, |x3| <= height; x0 is determined up to
    sign by the norm-one equation.  Lexicographic order of (x0,x1,x2,x3).
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if height < 0:
        raise ValueError("height must be nonnegative")
    from math import isqrt

    out = []
    rng = range(-height, height + 1)
    for x1 in rng:
        for x2 in rng:
            t = 1 + a * x1 * x1 + b * x2 * x2
            for x3 in rng:
                sq = t - a * b * x3 * x3
                if sq < 0:
                    continue
                x0 = isqrt(sq)
                if x0 * x0 != sq:
                    continue
                out.append(GammaElement(a, b, x0, x1, x2, x3))
                if x0:
                    out.append(GammaElement(a, b, -x0, x1, x2, x3))
    out.sort(key=GammaElement.quadruple)
    return out


class LiftKind(enum.Enum):
    DIAGONAL = "diagonal"
    DISJOINT_LIFT = "disjoint_lift"
    DEGENERATE = "degenerate"


def diagonal_lift_disjointness(g: GammaElement) -> LiftKind:
    """Trichotomy for the axis geodesic of a norm-one element: diagonal
    elements (x2 = x3 = 0) fix the axis; otherwise the translate is
    disjoint when (x0^2 - a*x1^2)(x0^2 - a*x1^2 - 1) > 0, and the boundary
    values 0 and 1 of x0^2 - a*x1^2 are reported, not decided."""
    if g.x2 == 0 and g.x3 == 0:
        return LiftKind.DIAGONAL
    t = g.x0 ** 2 - g.a * g.x1 ** 2
    if t * (t - 1) > 0:
        return LiftKind.DISJOINT_LIFT
    return LiftKind.DEGENERATE
