"""The irreducible representation of 2x2 matrices on degree-(n-1) binary
forms, its invariant antidiagonal form, the Galois cocycle matrices, the
derived Hermitian matrices, the trace polynomial, and the Hilbert-90
construction of diagonal orthogonal forms from a cocycle.

The monomial basis is fixed as (X^{n-1}, X^{n-2} Y, ..., Y^{n-1}), so the
image of an upper-triangular matrix stays upper-triangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Literal

from .exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    _dot,
    _one_like,
    _zero_like,
    apply_galois,
    field,
    is_square,
    square_free_part,
)
from .qforms import (
    FormInvariants,
    Place,
    diagonalize_qform,
    form_invariants,
    hasse_scan_places,
    hilbert_symbol,
)

SignPair = tuple[int, int]

SIGN_CASES: tuple[SignPair, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def tau(n: int, m: ExactMatrix) -> ExactMatrix:
    """Action of an invertible 2x2 matrix [[a,b],[c,d]] on binary forms of
    degree n-1: the basis monomial X^(n-1-i) Y^i maps to
    (aX+cY)^(n-1-i) (bX+dY)^i, expanded on the same basis.

    Multiplicative, and of determinant 1 on determinant-1 input.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if m.nrows != 2 or m.ncols != 2:
        raise ValueError("input must be 2x2")
    a, b = m.entries[0]
    c, d = m.entries[1]
    det = a * d - b * c
    if not det:
        raise ValueError("matrix is singular")
    one = _one_like(a)
    zero = _zero_like(a)

    def powers(x, k: int) -> list:
        out = [one]
        for _ in range(k):
            out.append(out[-1] * x)
        return out

    pa, pb = powers(a, n - 1), powers(b, n - 1)
    pc, pd = powers(c, n - 1), powers(d, n - 1)
    cols = []
    for i in range(n):
        # (aX+cY)^(n-1-i): coefficient of Y^s is C(n-1-i, s) a^(n-1-i-s) c^s
        left = [comb(n - 1 - i, s) * pa[n - 1 - i - s] * pc[s]
                for s in range(n - i)]
        right = [comb(i, t) * pb[i - t] * pd[t] for t in range(i + 1)]
        col = [zero] * n
        for s, ls in enumerate(left):
            for t, rt in enumerate(right):
                col[s + t] = col[s + t] + ls * rt
        cols.append(col)
    return ExactMatrix(list(zip(*cols)))


def j_matrix(n: int) -> ExactMatrix:
    """The invariant bilinear form of the degree-(n-1) action: antidiagonal
    with entry (i, n+1-i) equal to (-1)^(i-1) (n-i)! (i-1)! (1-indexed).
    Symmetric for odd n, alternating for even n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rows = []
    for i in range(1, n + 1):
        row = [Fraction(0)] * n
        row[n - i] = Fraction((-1) ** (i - 1) * factorial(n - i) * factorial(i - 1))
        rows.append(row)
    return ExactMatrix(rows)


@dataclass(frozen=True)
class TracePoly:
    """Integer polynomial P with trace(tau(n, A)) = P(trace(A)) for
    determinant-one A.  Satisfies P_n = t*P_(n-1) - P_(n-2)."""

    n: int
    coefficients: tuple[int, ...]  # ascending degree

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def eval_mod(self, t: int, p: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * t + c) % p
        return acc

    def image_mod(self, p: int) -> frozenset[int]:
        return frozenset(self.eval_mod(t, p) for t in range(p))


def trace_poly(n: int) -> TracePoly:
    if n < 1:
        raise ValueError("n must be at least 1")
    prev = [1]          # P_1 = 1
    if n == 1:
        return TracePoly(1, (1,))
    cur = [0, 1]        # P_2 = t
    for _ in range(n - 2):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return TracePoly(n, tuple(cur))


def cocycle_matrix(a: int, b: int, signs: SignPair) -> ExactMatrix:
    """The 2x2 matrix attached to a Galois element acting on sqrt(a) and
    sqrt(b) by the given signs: I; diag(1,-1); antidiag(1,1); or the
    rotation [[0,1],[-1,0]] when both flip.

    A sign of -1 on a radicand that is a perfect square is rejected (no
    Galois element flips a rational square root).
    """
    sa, sb = signs
    if sa not in (1, -1) or sb not in (1, -1):
        raise ValueError("signs must be +-1")
    if sa == -1 and is_square(a):
        raise ValueError(f"sqrt({a}) is rational and cannot change sign")
    if sb == -1 and is_square(b):
        raise ValueError(f"sqrt({b}) is rational and cannot change sign")
    if (sa, sb) == (1, 1):
        return ExactMatrix.identity(2)
    if (sa, sb) == (1, -1):
        return ExactMatrix([[1, 0], [0, -1]])
    if (sa, sb) == (-1, 1):
        return ExactMatrix([[0, 1], [1, 0]])
    return ExactMatrix([[0, 1], [-1, 0]])


def tau_of_lifted_cocycle(n: int, signs: SignPair) -> ExactMatrix:
    """tau(n, .) of a determinant-one lift of the cocycle matrix.

    The two determinant -1 cases lift by multiplying with sqrt(-1), which
    contributes the rational factor (-1)^((n-1)/2); n must be odd then.
    """
    t = cocycle_matrix(2, 3, signs)  # matrix shape depends only on signs
    image = tau(n, t)
    if signs in ((1, -1), (-1, 1)):
        if n % 2 == 0:
            raise ValueError("determinant -1 cases only lift for odd n")
        if ((n - 1) // 2) % 2:
            image = -image
    return image


def hermitian_h(n: int, a: int, b: int, signs: SignPair) -> ExactMatrix:
    """The rational matrix J * tau(n, T)^(-1) for the cocycle matrix T of
    the given sign pattern.  It is symmetric or antisymmetric (checked),
    and T's image commutes with J."""
    J = j_matrix(n)
    T = tau(n, cocycle_matrix(a, b, signs))
    H = J * T.inverse()
    Ht = H.transpose()
    if Ht != H and Ht != -H:
        raise AssertionError("derived matrix is neither symmetric nor skew")
    return H


def cocycle_commutes_with_form(n: int, signs: SignPair,
                               strict: bool = False) -> bool:
    """Commutation of the cocycle image with the invariant form.

    Exact commutation holds for odd n (and for the determinant-one sign
    cases in any dimension); the determinant -1 cases anticommute in even
    dimension, which is still commutation projectively.  `strict` demands
    the exact version.
    """
    J = j_matrix(n)
    T = tau(n, cocycle_matrix(2, 3, signs))
    if J * T == T * J:
        return True
    return (not strict) and J * T == -(T * J)


# -- Hilbert 90: diagonal orthogonal forms from the cocycle -----------------

CaseName = Literal["trivial", "degree-2", "degree-4"]


@dataclass(frozen=True)
class SoFormResult:
    diagonal_matrix: ExactMatrix
    invariants: FormInvariants
    basis_inverse: ExactMatrix       # (f(v_1) | ... | f(v_n)) = S^(-1)
    closed_form_hasse: dict[Place, int]


def _averaging_vectors(n: int, case: CaseName, desc) -> list[list[FieldElem]]:
    """The explicit v_i whose averaged images give the congruence basis.
    Indexing is 1-based in the formulas below; k = (n-1)/2."""
    k = (n - 1) // 2
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)

    def elem(mask_value: Fraction = Fraction(0)) -> FieldElem:
        return FieldElem.from_rational(desc, mask_value)

    def sqrt_of(m: int) -> FieldElem:
        return FieldElem.sqrt_int(desc, m)

    v: dict[int, list[FieldElem]] = {}

    def put(idx: int, vec: dict[int, FieldElem]) -> None:
        if idx in v:
            return  # center index collides with the loop at its boundary
        col = [elem() for _ in range(n)]
        for pos, val in vec.items():
            col[pos - 1] = val
        v[idx] = col

    if case == "trivial":
        one = FieldElem.one(desc)
        for i in range(1, n + 1):
            put(i, {i: one})
        return [v[i] for i in range(1, n + 1)]

    a = desc.radicands[0]
    sa = sqrt_of(a)
    if case == "degree-2":
        if n % 4 == 1:
            put(k + 1, {k + 1: elem(half)})
            for i in range(1, k // 2 + 1):
                put(2 * i - 1, {2 * i - 1: elem(half),
                                2 * k - 2 * i + 3: elem(half)})
                put(2 * i, {2 * i: elem(half),
                            2 * k - 2 * i + 2: elem(-half)})
                put(2 * k - 2 * i + 2, {2 * i: sa * half,
                                        2 * k - 2 * i + 2: sa * half})
                put(2 * k - 2 * i + 3, {2 * i - 1: sa * half,
                                        2 * k - 2 * i + 3: sa * (-half)})
        else:
            put(k + 1, {k + 1: sa * half})
            for i in range(1, (k + 1) // 2 + 1):
                put(2 * i - 1, {2 * i - 1: FieldElem.one(desc)})
                put(2 * i, {2 * i: FieldElem.one(desc)})
                put(2 * k - 2 * i + 2, {2 * k - 2 * i + 2: sa})
                put(2 * k - 2 * i + 3, {2 * k - 2 * i + 3: -sa})
        return [v[i] for i in range(1, n + 1)]

    b = desc.radicands[1]
    sb = sqrt_of(b)
    sab = sa * sb
    if n % 4 == 1:
        put(k + 1, {k + 1: elem(quarter)})
        for i in range(1, k // 2 + 1):
            put(2 * i - 1, {2 * i - 1: sa * half})
            put(2 * i, {2 * i: sb * half})
            put(2 * k - 2 * i + 2, {2 * k - 2 * i + 2: sab * (-half)})
            put(2 * k - 2 * i + 3, {2 * k - 2 * i + 3: elem(half)})
    else:
        put(k + 1, {k + 1: sa * quarter})
        for i in range(1, (k + 1) // 2 + 1):
            put(2 * i - 1, {2 * i - 1: sb * half})
            put(2 * i, {2 * i: elem(half)})
            put(2 * k - 2 * i + 2, {2 * k - 2 * i + 2: sa * half})
            put(2 * k - 2 * i + 3, {2 * k - 2 * i + 3: sab * half})
    return [v[i] for i in range(1, n + 1)]


def _galois_group(case: CaseName, a: int, b: int) -> list[tuple[SignPair, GaloisAction]]:
    """Sign patterns and field actions of the Galois group used in the
    averaging map, per extension degree."""
    if case == "trivial":
        return [((1, 1), GaloisAction.from_signs({}))]
    if case == "degree-2":
        a = square_free_part(a)
        return [
            ((1, 1), GaloisAction.from_signs({a: 1})),
            ((-1, -1), GaloisAction.from_signs({a: -1})),
        ]
    a, b = square_free_part(a), square_free_part(b)
    return [
        ((1, 1), GaloisAction.from_signs({a: 1, b: 1})),
        ((1, -1), GaloisAction.from_signs({a: 1, b: -1})),
        ((-1, 1), GaloisAction.from_signs({a: -1, b: 1})),
        ((-1, -1), GaloisAction.from_signs({a: -1, b: -1})),
    ]


def so_form_closed_hasse(n: int, a: int, b: int, case: CaseName,
                         place: Place) -> int:
    """The closed-form Hasse invariant of the constructed diagonal form:
    a power of (-1,-1) tensored with a symbol (a, .) depending on the
    congruence class of n mod 4 and the extension degree."""
    if case == "trivial":
        base = form_invariants(j_matrix(n))
        return base.hasse(place)
    if n % 4 == 1:
        e = (n - 1) // 4
        second = (-1) ** e if case == "degree-2" else b ** e
    else:
        e = (n + 1) // 4
        second = ((-1) ** ((n - 3) // 4)) * a if case == "degree-2" else b ** e
    sym = hilbert_symbol(-1, -1, place) ** e
    sym *= hilbert_symbol(a, second, place)
    return sym


def so_form_from_cocycle(n: int, a: int, b: int, case: CaseName) -> SoFormResult:
    """Construct the diagonal rational form congruent to the invariant
    antidiagonal form through the cocycle of (a, b), for odd n.

    The congruence basis is assembled by averaging the explicit vectors
    over the Galois group, with each Galois element weighted by the image
    of a determinant-one lift of its cocycle matrix.  The result is
    asserted diagonal, and its Hasse invariants are asserted equal to the
    closed form at every scanned place.

    Cases: trivial (both a and b square), degree-2 (a not a square; the
    quadratic field carries both square roots), degree-4 (a, b, ab all
    non-square).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    if case not in ("trivial", "degree-2", "degree-4"):
        raise ValueError(f"unknown case {case!r}")
    a_sf, b_sf = square_free_part(a), square_free_part(b)
    if case == "trivial" and (a_sf != 1 or b_sf != 1):
        raise ValueError("trivial case needs both a and b square")
    if case == "degree-2" and a_sf == 1:
        raise ValueError("degree-2 case needs a to be a non-square")
    if case == "degree-4" and (a_sf == 1 or b_sf == 1 or
                               square_free_part(a_sf * b_sf) == 1):
        raise ValueError("degree-4 case needs a, b, ab all non-square")

    if case == "trivial":
        desc = field()
    elif case == "degree-2":
        desc = field(a_sf)
    else:
        desc = field(a_sf, b_sf)

    group = _galois_group(case, a_sf, b_sf)
    weights = {signs: tau_of_lifted_cocycle(n, signs).lift(desc)
               for signs, _ in group}
    vs = _averaging_vectors(n, case, desc)

    def average(vec: list[FieldElem]) -> list[FieldElem]:
        out = [FieldElem.zero(desc)] * n
        for signs, action in group:
            moved = [apply_galois(action, x) for x in vec]
            out = [x + _dot(row, moved) for x, row in zip(out, weights[signs].entries)]
        return out

    columns = [average(vec) for vec in vs]
    s_inv = ExactMatrix(list(zip(*columns)))
    if not s_inv.det():
        raise AssertionError("averaged vectors are not a basis")
    J = j_matrix(n).lift(desc)
    D = s_inv.transpose() * J * s_inv
    if not D.is_diagonal():
        if case != "trivial":
            raise AssertionError("constructed form is not diagonal")
        # identity cocycle reproduces the antidiagonal form; finish by
        # congruence diagonalization
        dg = diagonalize_qform(j_matrix(n))
        s_inv = s_inv * dg.witness.lift(desc)
        D = s_inv.transpose() * J * s_inv
    D_rat = ExactMatrix.diagonal([e.rational_value()
                                  for e in D.diagonal_entries()])
    inv = form_invariants(D_rat)
    closed = {}
    classes = diagonalize_qform(D_rat).classes
    scan = sorted(set(hasse_scan_places(*classes))
                  | set(hasse_scan_places(a_sf, b_sf, -1)),
                  key=Place.sort_key)
    for place in scan:
        expected = so_form_closed_hasse(n, a_sf, b_sf, case, place)
        if inv.hasse(place) != expected:
            raise AssertionError(
                f"Hasse invariant at {place} is {inv.hasse(place)}, "
                f"closed form gives {expected}")
        closed[place] = expected
    return SoFormResult(D_rat, inv, s_inv, closed)
