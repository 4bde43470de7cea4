"""The split octonion algebra on the 7-dimensional cross product, kept as
the oracle of `g2core.cross7`: its norm is multiplicative only if the
cross product fits the antidiagonal form."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hitchinforge.exactnum import Scalar
from hitchinforge.g2core import Vec7, cross7


@dataclass(frozen=True)
class Octonion:
    """Split octonion: a scalar part plus a 7-vector, multiplied via the
    cross product and the antidiagonal pairing."""

    t: Scalar
    v: Vec7

    @classmethod
    def unit(cls) -> "Octonion":
        return cls(Fraction(1), Vec7([0] * 7))


def oct_mul(p: Octonion, q: Octonion) -> Octonion:
    """(t,v)(s,w) = (ts - v^T J7 w, tw + sv + v x w)."""
    t, v = p.t, p.v
    s, w = q.t, q.v
    return Octonion(t * s - v.pair_j7(w),
                    w.scale(t) + v.scale(s) + cross7(v, w))


def oct_norm(p: Octonion) -> Scalar:
    """N(t,v) = t^2 + v^T J7 v; multiplicative for the product above."""
    return p.t * p.t + p.v.pair_j7(p.v)
