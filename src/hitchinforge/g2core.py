"""The explicit 7-dimensional cross product compatible with the
antidiagonal form in dimension 7, and the exceptional-group membership
predicate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactnum import ExactMatrix, Scalar, format_scalar, in_group
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
        return "(" + ", ".join(format_scalar(c) for c in self.coords) + ")"

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


_BASIS_PAIRS = [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]

# the cross products of the 21 basis pairs, as the columns of one matrix
_BASIS_CROSS = ExactMatrix(list(zip(*(cross7(Vec7.basis(i), Vec7.basis(j)).coords
                                      for i, j in _BASIS_PAIRS))))


def in_g2(m: ExactMatrix) -> bool:
    """Membership in the split exceptional group: preserves the
    antidiagonal form, determinant one, and respects the cross product on
    all 21 basis pairs (bilinearity makes those sufficient)."""
    if not in_group(m, 7, J7):
        return False
    cols = [Vec7([m.entries[r][c] for r in range(7)]) for c in range(7)]
    # the images of the basis cross products, as one product: a matrix
    # over one field runs that field's kernel on the rational columns
    images = zip(*(m * _BASIS_CROSS).entries)
    for (i, j), image in zip(_BASIS_PAIRS, images):
        if Vec7(image) != cross7(cols[i - 1], cols[j - 1]):
            return False
    return True
