"""The explicit 7-dimensional cross product compatible with the
antidiagonal form in dimension 7, and the exceptional-group membership
predicate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter, mul, sub
from typing import Sequence

from .exactnum import ExactMatrix, Scalar, _digits, _kernel, _pack, format_scalar, in_group
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

    def __neg__(self) -> "Vec7":
        return Vec7([-a for a in self.coords])

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


# cross7 as its terms (r, a, b, c), 0-indexed, read off the 21 basis pairs:
# cross7(x, y)_r is the sum of c (x_a y_b - x_b y_a) over the terms of row r
_TERMS = sorted((r, a, b, int(c)) for a in range(7) for b in range(a + 1, 7)
                for r, c in enumerate(cross7(Vec7.basis(a + 1), Vec7.basis(b + 1)).coords) if c)


# -- the trilinear test ------------------------------------------------------
#
# M(e_i x e_j) = Me_i x Me_j is decided on the kernel's integer coordinates,
# as `preserves_form` decides its bilinear identity, with no scalar.  M is
# split once, M = M'/dm, and row a of M' packs twice (`_pack`), Y_a = sum_i
# M'_ai 2^(w i) and Z_a = sum_j M'_aj 2^(7w j), so times(Y_a, Z_b) -
# times(Y_b, Z_a) holds the 2x2 minor of rows a, b and columns i, j in slot
# i + 7j.  Row r of every Me_i x Me_j, times dm^2, is the sum of c times that
# difference over the terms of row r, and row r of every M(e_i x e_j), times
# dm^2, is dm sum_k M'_rk Q_k, Q_k the packed k-th coordinate of e_i x e_j.
# A coordinate of a minor is two sums of dim plan products, at most 2 dim F
# A^2 with F the largest plan factor and A the largest |coordinate| of M',
# and a row's weight sum |c| is at most 148, so a slot of the first side is
# at most 2 * 148 dim F A^2.  Each basis pair is at most one term, so e_i x
# e_j has at most one nonzero coordinate, at most 120 (the largest |c|),
# and a slot of the second side is at most 120 dm A.  w is one bit above
# the sum, so a packed difference is zero exactly when each signed digit
# (`_digits`) is, and over F_q the digits are reduced mod p by the kernel's
# `exact`.  Each row is tested as it is built.


def in_g2(m: ExactMatrix) -> bool:
    """Membership in the split exceptional group: preserves the
    antidiagonal form, determinant one, and respects the cross product on
    all 21 basis pairs (bilinearity makes those sufficient), decided on
    integer coordinates (see the comment above)."""
    if not in_group(m, 7, J7):
        return False
    kernel = _kernel(m.entries)
    dm, mc = kernel.split(list(chain.from_iterable(m.entries)))
    top, factor = max(map(abs, chain(*mc))), max(abs(f) for *_, f in kernel.plan)
    w = (2 * 148 * len(mc) * factor * top * top + 120 * dm * top).bit_length() + 1
    y, z = ([[_pack(x[7 * a:7 * a + 7], s) for x in mc] for a in range(7)] for s in (w, 7 * w))
    q = [0] * 7
    for k, a, b, c in _TERMS:
        q[k] += c * ((1 << w * (a + 7 * b)) - (1 << w * (b + 7 * a)))
    for r, row in groupby(_TERMS, itemgetter(0)):
        diff = [-dm * sum(map(mul, x[7 * r:7 * r + 7], q)) for x in mc]
        for _, a, b, c in row:
            minors = map(sub, kernel.times(y[a], z[b]), kernel.times(y[b], z[a]))
            diff = [d + c * minor for d, minor in zip(diff, minors)]
        if any(diff) and any(map(any, kernel.exact([_digits(x, w, 49) for x in diff], 1))):
            return False
    return True
