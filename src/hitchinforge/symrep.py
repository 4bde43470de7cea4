"""The irreducible representation of 2x2 matrices on degree-(n-1) binary
forms, its invariant antidiagonal form, the Galois cocycle matrices, the
derived Hermitian matrices, the trace polynomial, and the Hilbert-90
construction of diagonal orthogonal forms from a cocycle.

The monomial basis is fixed as (X^{n-1}, X^{n-2} Y, ..., Y^{n-1}), so the
image of an upper-triangular matrix stays upper-triangular.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial
from typing import Literal

from .exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    Scalar,
    _digits,
    _kernel,
    galois_matrix,
    field,
    square_free_part,
)
from .qforms import (
    FormInvariants,
    Place,
    diagonalize_qform,
    form_invariants,
    hasse_scan_places,
    hilbert_symbol,
    invariants_from_classes,
)

SignPair = tuple[int, int]

SIGN_CASES: tuple[SignPair, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def applicable_sign_patterns(a: int, b: int) -> list[SignPair]:
    """Sign patterns realizable by a Galois element of Q(sqrt(a),sqrt(b)):
    a square radicand cannot flip, and equal radicands flip together."""
    a_sf, b_sf = square_free_part(a), square_free_part(b)
    return [(sa, sb) for sa, sb in SIGN_CASES
            if (sa == 1 or a_sf != 1) and (sb == 1 or b_sf != 1)
            and (sa == sb or a_sf != b_sf)]


def _pattern_name(signs: SignPair) -> str:
    return "".join({1: "+", -1: "-"}.get(s, f"({s})") for s in signs)


def _sign_action(a: int, b: int, signs: SignPair) -> GaloisAction:
    """The Galois element acting on sqrt(a) and sqrt(b) by an applicable
    sign pattern; equal radicands give one radicand's action."""
    return GaloisAction.from_signs({square_free_part(a): signs[0],
                                    square_free_part(b): signs[1]})


def tau(n: int, m: ExactMatrix) -> ExactMatrix:
    """Action of an invertible 2x2 matrix [[a,b],[c,d]] on binary forms of
    degree n-1: the basis monomial X^(n-1-i) Y^i maps to
    (aX+cY)^(n-1-i) (bX+dY)^i, expanded on the same basis.

    Multiplicative, and of determinant 1 on determinant-1 input.  The
    entries must be of one ring with a kernel (Q, one field, one finite
    field); any other mix is exactnum._kernel's ValueError.
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
    # The expansion runs on the coordinates of m's ring, through the kernel
    # protocol of its descriptor (exactnum._kernel), by Kronecker
    # substitution: m = M / den with M integral, and column i lists the
    # coefficients of (a + cY)^(n-1-i) (b + dY)^i over den^(n-1).
    # At Y = 2^w each coordinate of a + cY and of b + dY is one integer, so
    # a column is one kernel product of two powers, and its Y^k coefficient
    # is the k-th signed w-bit digit of each coordinate.  Every coefficient
    # is below (2 dim F M)^(n-1), F the largest plan factor and M the
    # largest |coordinate|, so w = its bit length + 1 keeps digits apart.
    kernel = _kernel(m.entries)
    den, coords = kernel.split(m.entries[0] + m.entries[1])
    top = max(abs(x) for vec in coords for x in vec)
    factor = max(abs(common) for *_, common in kernel.plan)
    w = ((2 * len(coords) * factor * top) ** (n - 1)).bit_length() + 1
    a, b, c, d = zip(*coords)

    def powers(lo, hi) -> list:
        x, out = [u + (v << w) for u, v in zip(lo, hi)], [kernel.unit]
        for _ in range(n - 1):
            out.append(kernel.times(out[-1], x))
        return out

    pa, pb = powers(a, c), powers(b, d)
    scale = den ** (n - 1)
    cols = []
    for i in range(n):
        digits = [_digits(x, w, n) for x in kernel.times(pa[n - 1 - i], pb[i])]
        cols.append([kernel.build(coeffs, scale) for coeffs in zip(*digits)])
    return ExactMatrix._from_rows(tuple(zip(*cols)))


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

    A pattern no Galois element realizes is rejected (see
    applicable_sign_patterns).
    """
    sa, sb = signs
    if (sa, sb) not in applicable_sign_patterns(a, b):
        raise ValueError(f"sign pattern {_pattern_name(signs)} is not "
                         f"realizable for (a,b)=({a},{b})")
    return ExactMatrix([[1, 0], [0, sb]] if sa == 1 else [[0, 1], [sb, 0]])


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


# -- Hilbert 90: diagonal orthogonal forms from the cocycle -----------------

CaseName = Literal["trivial", "degree-2", "degree-4"]


@dataclass(frozen=True)
class SoFormResult:
    diagonal_matrix: ExactMatrix
    invariants: FormInvariants
    basis_inverse: ExactMatrix       # (f(v_1) | ... | f(v_n)) = S^(-1)
    closed_form_hasse: dict[Place, int]


def _averaging_vectors(n: int, case: CaseName, desc) -> list[list[Scalar]]:
    """The explicit v_i whose averaged images give the congruence basis.
    Indexing is 1-based in the formulas below; k = (n-1)/2."""
    k = (n - 1) // 2
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)

    v: dict[int, list[Scalar]] = {}

    def put(idx: int, vec: dict[int, Scalar]) -> None:
        if idx in v:
            return  # center index collides with the loop at its boundary
        col = [Fraction(0)] * n
        for pos, val in vec.items():
            col[pos - 1] = val
        v[idx] = col

    a = desc.radicands[0]
    sa = FieldElem.sqrt_int(desc, a)
    if case == "degree-2":
        if n % 4 == 1:
            put(k + 1, {k + 1: half})
            for i in range(1, k // 2 + 1):
                put(2 * i - 1, {2 * i - 1: half, 2 * k - 2 * i + 3: half})
                put(2 * i, {2 * i: half, 2 * k - 2 * i + 2: -half})
                put(2 * k - 2 * i + 2, {2 * i: sa * half,
                                        2 * k - 2 * i + 2: sa * half})
                put(2 * k - 2 * i + 3, {2 * i - 1: sa * half,
                                        2 * k - 2 * i + 3: sa * (-half)})
        else:
            put(k + 1, {k + 1: sa * half})
            for i in range(1, (k + 1) // 2 + 1):
                put(2 * i - 1, {2 * i - 1: Fraction(1)})
                put(2 * i, {2 * i: Fraction(1)})
                put(2 * k - 2 * i + 2, {2 * k - 2 * i + 2: sa})
                put(2 * k - 2 * i + 3, {2 * k - 2 * i + 3: -sa})
        return [v[i] for i in range(1, n + 1)]

    b = desc.radicands[1]
    sb = FieldElem.sqrt_int(desc, b)
    sab = sa * sb
    if n % 4 == 1:
        put(k + 1, {k + 1: quarter})
        for i in range(1, k // 2 + 1):
            put(2 * i - 1, {2 * i - 1: sa * half})
            put(2 * i, {2 * i: sb * half})
            put(2 * k - 2 * i + 2, {2 * k - 2 * i + 2: sab * (-half)})
            put(2 * k - 2 * i + 3, {2 * k - 2 * i + 3: half})
    else:
        put(k + 1, {k + 1: sa * quarter})
        for i in range(1, (k + 1) // 2 + 1):
            put(2 * i - 1, {2 * i - 1: sb * half})
            put(2 * i, {2 * i: half})
            put(2 * k - 2 * i + 2, {2 * k - 2 * i + 2: sa * half})
            put(2 * k - 2 * i + 3, {2 * k - 2 * i + 3: sab * half})
    return [v[i] for i in range(1, n + 1)]


def _galois_group(case: CaseName, a: int, b: int) -> list[tuple[SignPair, GaloisAction]]:
    """Sign patterns and field actions of the Galois group used in the
    averaging map, per extension degree."""
    if case == "degree-2":  # both square roots act as sqrt(a)
        b = a
    return [(p, _sign_action(a, b, p)) for p in applicable_sign_patterns(a, b)]


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
    of a determinant-one lift of its cocycle matrix; a trivial cocycle
    leaves the antidiagonal form, whose congruence diagonalization is the
    basis.  The result is asserted diagonal, and its Hasse invariants are
    asserted equal to the closed form at every scanned place.

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
        s_inv = diagonalize_qform(j_matrix(n)).witness.lift(field())
    else:
        desc = field(a_sf) if case == "degree-2" else field(a_sf, b_sf)
        # the averaged basis: sum over the Galois group of the weight
        # tau(lifted cocycle) times the Galois image of the v_i
        basis = ExactMatrix(list(zip(*_averaging_vectors(n, case, desc))))
        s_inv = reduce(operator.add, (
            tau_of_lifted_cocycle(n, signs) * galois_matrix(action, basis)
            for signs, action in _galois_group(case, a_sf, b_sf)))
        if not s_inv.det():
            raise AssertionError("averaged vectors are not a basis")
    D = s_inv.transpose() * j_matrix(n) * s_inv
    if not D.is_diagonal():
        raise AssertionError("constructed form is not diagonal")
    D_rat = ExactMatrix.diagonal([e.rational_value()
                                  for e in D.diagonal_entries()])
    classes = diagonalize_qform(D_rat).classes
    inv = invariants_from_classes(classes)
    closed = {}
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
