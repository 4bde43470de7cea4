"""Quadratic forms over Q: Hilbert symbols at every place, congruence
diagonalization, the full invariant set (rank, discriminant class,
signature, Hasse invariants), Hasse-Minkowski equivalence, and invariants
of sigma-Hermitian matrices over a real quadratic field.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import prod
from typing import Optional, Sequence, Union

from .exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    _Elimination,
    _RATIONALS,
    _factor,
    _is_prime,
    format_scalar,
    galois_matrix,
    square_class,
    square_free_part,
)


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or the real place (prime=None)."""

    prime: Optional[int]

    def __post_init__(self) -> None:
        if self.prime is not None and not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)

    def sort_key(self) -> tuple:
        return (1, 0) if self.prime is None else (0, self.prime)


def _split_valuation(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a: Union[int, Fraction], b: Union[int, Fraction],
                   place: Place) -> int:
    """Hilbert symbol (a,b) at a place of Q: +1 iff z^2 = a*x^2 + b*y^2 has
    a nontrivial solution over the completion.

    Closed form: sign inspection at the real place, Legendre symbols with
    the valuation correction at odd p, the epsilon/omega exponent formula
    at p = 2.
    """
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.prime
    if p == 2:
        alpha, u = _split_valuation(a, 2)
        beta, v = _split_valuation(b, 2)
        eps_u = (u - 1) // 2
        eps_v = (v - 1) // 2
        omega_u = (u * u - 1) // 8
        omega_v = (v * v - 1) // 8
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    alpha, u = _split_valuation(a, p)
    beta, v = _split_valuation(b, p)
    e = alpha * beta * ((p - 1) // 2)
    sym = -1 if e % 2 else 1
    if beta % 2:
        sym *= _legendre(u, p)
    if alpha % 2:
        sym *= _legendre(v, p)
    return sym


def _legendre(u: int, p: int) -> int:
    """Legendre symbol of u prime to the odd prime p, by Euler's
    criterion."""
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# -- independent solvability oracle ---------------------------------------


@lru_cache(maxsize=None)
def _squares_mod(q: int) -> frozenset[int]:
    return frozenset(z * z % q for z in range(q))


@lru_cache(maxsize=None)
def _oracle_cached(a: int, b: int, prime: Optional[int]) -> int:
    if prime is None:
        return -1 if a < 0 and b < 0 else 1
    p = prime
    if p == 2:
        k = 6
    elif a % p == 0 or b % p == 0:
        k = 3
    else:
        k = 1
    q = p ** k
    squares = _squares_mod(q)
    # primitive solutions are covered by fixing each coordinate to 1 in turn
    for y in range(q):
        if (a + b * y * y) % q in squares:  # x = 1
            return 1
    for x in range(q):
        if (a * x * x + b) % q in squares:  # y = 1
            return 1
    b_values = frozenset(b * y * y % q for y in range(q))
    for x in range(q):
        if (1 - a * x * x) % q in b_values:  # z = 1
            return 1
    return -1


def hilbert_symbol_oracle(a: Union[int, Fraction], b: Union[int, Fraction],
                          place: Place) -> int:
    """Brute-force local solvability of z^2 = a*x^2 + b*y^2.

    Searches primitive solutions modulo p^k (k = 6 at p = 2, 3 at ramified
    odd p, 1 otherwise), which decide Z_p-solvability by Hensel lifting.
    Independent of the closed-form symbol.
    """
    return _oracle_cached(square_class(a), square_class(b), place.prime)


def hasse_scan_places(*values: Union[int, Fraction]) -> list[Place]:
    """2, the real place, and the odd primes dividing any of the inputs;
    Hilbert symbols of the inputs are +1 everywhere else."""
    primes = {p for v in values for p in _factor(square_class(v))} - {2}
    places = [Place.finite(2)] + [Place.finite(p) for p in sorted(primes)]
    places.append(Place.real())
    return places


# -- diagonalization and invariants ----------------------------------------


@dataclass(frozen=True)
class Diagonalization:
    """The diagonal D of a congruence diagonalization P^T S P = D of a
    symmetric rational matrix S, and its square classes."""

    classes: tuple[int, ...]          # square-free square classes (0 on rank defect)
    diagonal: tuple[Fraction, ...]    # actual diagonal entries of P^T S P


def diagonalize_qform(S: ExactMatrix) -> Diagonalization:
    """Congruence-diagonalize a symmetric rational matrix.

    Pivot rule: first nonzero diagonal entry in the remaining block; if the
    diagonal is entirely zero, split a nonzero off-diagonal pair with the
    hyperbolic substitution.  Rank deficiency yields zero entries.  This is
    the symmetric variant of `exactnum._Elimination` on the rows of S over
    one denominator, with symmetric swaps as a relabelling: D_k is
    Delta_k / Delta_(k-1) for the leading minors Delta_k, the pivots.
    """
    if not S.is_square():
        raise ValueError("quadratic form matrix must be square")
    if S.entries != tuple(zip(*S.entries)):
        raise ValueError("quadratic form matrix must be symmetric")
    if not all(isinstance(x, Fraction) for row in S.entries for x in row):
        raise ValueError("quadratic form matrix must be rational")
    n = S.nrows
    den, (flat,) = _RATIONALS.split(list(chain.from_iterable(S.entries)))
    elim = _Elimination(_RATIONALS, ([flat[i * n:(i + 1) * n]] for i in range(n)))
    rows, order = elim.rows, list(range(n))

    def diagonal_nonzero(i: int) -> bool:
        elim.reduce(order[i])
        return rows[order[i]][0][order[i]] != 0

    for k in range(n):
        swap = partner = None
        if not diagonal_nonzero(k):
            swap = next((j for j in range(k + 1, n) if diagonal_nonzero(j)), None)
            if swap is None:
                # every remaining row is reduced now, as the search read it
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if rows[order[i]][0][order[j]]), None)
                if pair is None:
                    break  # remaining block is zero
                i, partner = pair
                swap = i if i != k else None
            if swap is not None:
                order[k], order[swap] = order[swap], order[k]
            if partner is not None:
                # congruence by column k += column j: row k += row j at one
                # step's scale, then the column in every remaining row
                rk, rj = order[k], order[partner]
                elim.lift(rk, k - 1)
                elim.lift(rj, k - 1)
                rows[rk] = [list(map(operator.add, x, y)) for x, y in zip(rows[rk], rows[rj])]
                for r in order[k:]:
                    rows[r] = [x[:rk] + [x[rk] + x[rj]] + x[rk + 1:] for x in rows[r]]
        elim.pivot(order[k], order[k])

    minors = [1] + [value for value, in elim.values]
    diag = [Fraction(b, a * den) for a, b in zip(minors, minors[1:])]
    diag += [Fraction(0)] * (n - len(diag))
    classes = tuple(square_class(d) if d != 0 else 0 for d in diag)
    return Diagonalization(classes, tuple(diag))


@dataclass(frozen=True)
class FormInvariants:
    """Complete equivalence invariants of a nondegenerate form over Q."""

    rank: int
    disc: int                       # square-free signed representative
    signature: tuple[int, int]
    hasse_minus: frozenset[Place]   # places with Hasse invariant -1

    def hasse(self, place: Place) -> int:
        return -1 if place in self.hasse_minus else 1

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "disc": format_scalar(self.disc),
            "signature": list(self.signature),
            "hasse": [[str(v), -1] for v in sorted(self.hasse_minus,
                                                   key=Place.sort_key)],
        }


def invariants_from_classes(classes: Sequence[int]) -> FormInvariants:
    if any(c == 0 for c in classes):
        raise ValueError("form is degenerate")
    disc = square_free_part(prod(classes))
    pos = sum(1 for c in classes if c > 0)
    neg = len(classes) - pos
    minus = set()
    for place in hasse_scan_places(*classes):
        eps = 1
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                eps *= hilbert_symbol(classes[i], classes[j], place)
        if eps == -1:
            minus.add(place)
    if len(minus) % 2:
        raise AssertionError("Hilbert reciprocity violated")  # unreachable
    return FormInvariants(len(classes), disc, (pos, neg), frozenset(minus))


def form_invariants(S: ExactMatrix) -> FormInvariants:
    """Rank, discriminant square class, signature and Hasse invariants of a
    nondegenerate symmetric rational matrix."""
    return invariants_from_classes(diagonalize_qform(S).classes)


def forms_equivalent(S1: ExactMatrix, S2: ExactMatrix) -> bool:
    """Hasse-Minkowski: two nondegenerate forms over Q are equivalent iff
    rank, discriminant class, signature and all Hasse invariants agree."""
    return form_invariants(S1) == form_invariants(S2)


# -- norms and Hermitian forms over Q(sqrt(d)) ------------------------------


def is_norm_from(d: int, q: Union[int, Fraction]) -> bool:
    """Whether q is a norm x^2 - d*y^2 from Q(sqrt(d)): true iff the
    Hilbert symbol (d, q) is +1 at every place."""
    q = square_class(q)
    if q == 0:
        raise ValueError("norm test needs a nonzero value")
    return all(hilbert_symbol(d, q, v) == 1 for v in hasse_scan_places(d, q))


@dataclass(frozen=True)
class HermitianInvariants:
    """Rank and discriminant class (modulo norms) of a sigma-Hermitian
    matrix over Q(sqrt(d)); these classify such forms."""

    d: int
    rank: int
    disc_class: str   # "+", "-", or "other"
    disc_rep: int     # square-free representative of det (0 if degenerate)

    @property
    def congruent_to_identity_up_to_sign(self) -> bool:
        return self.disc_class in ("+", "-")


def hermitian_invariants(H: ExactMatrix, d: int) -> HermitianInvariants:
    """Invariants of H with sigma(H)^T = H for the nontrivial automorphism
    sigma of Q(sqrt(d))/Q."""
    d = square_free_part(d)
    if d <= 1:
        raise ValueError("d must be a non-square positive integer")
    sigma = GaloisAction.flipping(d)
    if galois_matrix(sigma, H).transpose() != H:
        raise ValueError("matrix is not sigma-Hermitian")
    rank, det = H.rank_and_det()
    if rank < H.nrows:
        return HermitianInvariants(d, rank, "other", 0)
    det = det.rational_value() if isinstance(det, FieldElem) else Fraction(det)
    if is_norm_from(d, det):
        cls = "+"
    elif is_norm_from(d, -det):
        cls = "-"
    else:
        cls = "other"
    return HermitianInvariants(d, rank, cls, square_class(det))
