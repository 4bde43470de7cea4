"""The explicit 7-dimensional cross product compatible with the
antidiagonal form in dimension 7, the split octonion algebra built on it,
and the exceptional-group membership predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import ExactMatrix, Scalar, _dot, _one_like, preserves_form
from .symrep import j_matrix

J7 = j_matrix(7)


class Vec7:
    """Length-7 column vector with exact entries."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        coords = tuple(Fraction(c) if isinstance(c, int) else c for c in coords)
        if len(coords) != 7:
            raise ValueError("Vec7 needs exactly 7 coordinates")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("Vec7 is immutable")

    @classmethod
    def basis(cls, i: int) -> "Vec7":
        """e_i, 1-indexed."""
        return cls([Fraction(1) if j == i - 1 else Fraction(0) for j in range(7)])

    def __add__(self, other: "Vec7") -> "Vec7":
        return Vec7([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vec7") -> "Vec7":
        return Vec7([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vec7":
        return Vec7([-a for a in self.coords])

    def scale(self, s) -> "Vec7":
        return Vec7([a * s for a in self.coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec7):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def pair_j7(self, other: "Vec7") -> Scalar:
        """v^T J7 w for the antidiagonal 7-dimensional form."""
        acc = None
        for i in range(7):
            term = self.coords[i] * J7.entries[i][6 - i] * other.coords[6 - i]
            acc = term if acc is None else acc + term
        return acc

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    __repr__ = __str__


def cross7(x: Vec7, y: Vec7) -> Vec7:
    """The bilinear product on 7-space whose automorphisms (together with
    the antidiagonal form) cut out the split exceptional group."""
    x1, x2, x3, x4, x5, x6, x7 = x.coords
    y1, y2, y3, y4, y5, y6, y7 = y.coords
    return Vec7([
        6 * (x1 * y4 - x4 * y1) - 4 * (x2 * y3 - x3 * y2),
        24 * (x1 * y5 - x5 * y1) - 6 * (x2 * y4 - x4 * y2),
        60 * (x1 * y6 - x6 * y1) - 6 * (x3 * y4 - x4 * y3),
        120 * (x1 * y7 - x7 * y1) + 20 * (x2 * y6 - x6 * y2)
        - 8 * (x3 * y5 - x5 * y3),
        60 * (x2 * y7 - x7 * y2) - 6 * (x4 * y5 - x5 * y4),
        24 * (x3 * y7 - x7 * y3) - 6 * (x4 * y6 - x6 * y4),
        6 * (x4 * y7 - x7 * y4) - 4 * (x5 * y6 - x6 * y5),
    ])


@dataclass(frozen=True)
class Octonion:
    """Split octonion: a scalar part plus a 7-vector, multiplied via the
    cross product and the antidiagonal pairing."""

    t: Scalar
    v: Vec7

    @classmethod
    def unit(cls) -> "Octonion":
        return cls(Fraction(1), Vec7([0] * 7))

    def conj(self) -> "Octonion":
        return Octonion(self.t, -self.v)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.t + other.t, self.v + other.v)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.t - other.t, self.v - other.v)


def oct_mul(p: Octonion, q: Octonion) -> Octonion:
    """(t,v)(s,w) = (ts - v^T J7 w, tw + sv + v x w)."""
    t, v = p.t, p.v
    s, w = q.t, q.v
    return Octonion(t * s - v.pair_j7(w),
                    w.scale(t) + v.scale(s) + cross7(v, w))


def oct_norm(p: Octonion) -> Scalar:
    """N(t,v) = t^2 + v^T J7 v; multiplicative for the product above."""
    return p.t * p.t + p.v.pair_j7(p.v)


_BASIS_PAIRS = [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]


def in_g2(m: ExactMatrix) -> bool:
    """Membership in the split exceptional group: preserves the
    antidiagonal form, determinant one, and respects the cross product on
    all 21 basis pairs (bilinearity makes those sufficient)."""
    if m.nrows != 7 or m.ncols != 7:
        return False
    if not preserves_form(m, J7):
        return False
    if m.det() != _one_like(m.entries[0][0]):
        return False
    cols = [Vec7([m.entries[r][c] for r in range(7)]) for c in range(7)]
    for i, j in _BASIS_PAIRS:
        lhs = _apply(m, cross7(Vec7.basis(i), Vec7.basis(j)))
        rhs = cross7(cols[i - 1], cols[j - 1])
        if lhs != rhs:
            return False
    return True


def _apply(m: ExactMatrix, v: Vec7) -> Vec7:
    return Vec7([_dot(row, v.coords) for row in m.entries])
