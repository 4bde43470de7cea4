"""Exact membership predicates for the arithmetic groups in play
(special linear, unitary over real quadratic rings, quaternionic unitary,
symplectic, orthogonal, and the exceptional group over Z), plus batch
verification that the symmetric-power image of the quaternion lattice
lands in the predicted unitary group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    _invert,
    _one_like,
    apply_galois,
    field,
    preserves_form,
    square_free_part,
)
from .g2core import in_g2
from .quatalg import QuatElem, embed_m2, gamma_enumerate
from .symrep import SignPair, hermitian_h, tau


def is_integral_scalar(x) -> bool:
    """Integrality on the monomial basis: all coefficients in Z."""
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, FieldElem):
        return all(c.denominator == 1 for c in x.coeffs)
    if isinstance(x, QuatElem):
        return all(is_integral_scalar(c) for c in x.coords)
    raise TypeError(f"unsupported scalar {type(x)!r}")


def is_integral_matrix(m: ExactMatrix) -> bool:
    return all(is_integral_scalar(e) for row in m.entries for e in row)


def in_slnz(m: ExactMatrix) -> bool:
    """SL(n, Z): integer entries and determinant one."""
    if not m.is_square():
        return False
    if not is_integral_matrix(m):
        return False
    return m.det() == _one_like(m.entries[0][0])


def in_su_sqrt_d(m: ExactMatrix, n: int, d: int) -> bool:
    """The unitary lattice over Z[sqrt(d)]: entries integral over Z[sqrt(d)],
    determinant one, and sigma(M)^T M = I for the conjugation of
    Q(sqrt(d))/Q."""
    d = square_free_part(d)
    if d <= 1:
        raise ValueError("d must be a positive non-square")
    if m.nrows != n or m.ncols != n:
        return False
    desc = field(d)
    for row in m.entries:
        for e in row:
            if isinstance(e, FieldElem) and e.desc != desc and not e.is_rational():
                if any(r != d for r in e.desc.radicands):
                    raise ValueError(f"entry {e} is not in Q(sqrt({d}))")
    mm = m.lift(desc)
    if not is_integral_matrix(mm):
        return False
    if mm.det() != FieldElem.one(desc):
        return False
    sigma = GaloisAction.flipping(d)
    return preserves_form(mm, ExactMatrix.identity(n), partial(apply_galois, sigma))


def diagonal_su_nonsplit_conditions(m: ExactMatrix, d: int) -> bool:
    """Diagonal membership conditions in the unitary lattice attached to a
    quadratic extension not containing the splitting root: the entry
    vector is palindromic and w_i * tau(w_(n+1-i)) = 1 for the conjugation
    tau of Q(sqrt(d))/Q, with integral entries and determinant one."""
    d = square_free_part(d)
    if not m.is_diagonal():
        return False
    desc = field(d)
    mm = m.lift(desc)
    if not is_integral_matrix(mm):
        return False
    if mm.det() != FieldElem.one(desc):
        return False
    w = mm.diagonal_entries()
    tau_d = GaloisAction.flipping(d)
    return all(x == y and x * apply_galois(tau_d, y) == FieldElem.one(desc)
               for x, y in zip(w, reversed(w)))


def is_tau_pgl2_diagonal(b: ExactMatrix) -> bool:
    """Whether a diagonal matrix is a scalar multiple of the
    symmetric-power image of a 2x2 diagonal matrix: equivalent to its
    entries forming a geometric progression."""
    if not b.is_square() or not b.is_diagonal():
        raise ValueError("predicate is defined for diagonal matrices only")
    diag = b.diagonal_entries()
    if not all(diag):
        raise ValueError("diagonal entries must be nonzero")
    if len(diag) == 1:
        return True
    ratio = diag[0] * _invert(diag[1])
    return all(diag[i] * _invert(diag[i + 1]) == ratio
               for i in range(1, len(diag) - 1))


def in_su_quat(m: ExactMatrix, size: int, a: int, b: int, d: int) -> bool:
    """Quaternionic unitary lattice: entries are quaternions over (a,b)
    with coordinates integral over Z[sqrt(d)], the twisted conjugate
    transpose is the inverse, and the reduced-norm determinant (via the
    2x2 embedding) is one."""
    if m.nrows != size or m.ncols != size:
        return False
    _check_quat_entries(m, a, b)
    if not is_integral_matrix(m):
        return False
    tau_d = GaloisAction.flipping(d)
    if not preserves_form(m, ExactMatrix.identity(size),
                          lambda q: q.conj().apply_galois(tau_d)):
        return False
    return _quat_block_det_is_one(m)


def _check_quat_entries(m: ExactMatrix, a: int, b: int) -> None:
    for row in m.entries:
        for e in row:
            if not isinstance(e, QuatElem):
                raise ValueError("entries must be quaternions")
            if (square_free_part(e.algebra.a) != square_free_part(a)
                    or square_free_part(e.algebra.b) != square_free_part(b)):
                raise ValueError("entries lie in the wrong quaternion algebra")


def _quat_block_det_is_one(m: ExactMatrix) -> bool:
    blocks = [[embed_m2(e) for e in row] for row in m.entries]
    desc = blocks[0][0].entries[0][0].desc
    size = m.nrows
    big = [[None] * (2 * size) for _ in range(2 * size)]
    for i in range(size):
        for j in range(size):
            blk = blocks[i][j].lift(desc)
            for r in range(2):
                for c in range(2):
                    big[2 * i + r][2 * j + c] = blk.entries[r][c]
    det = ExactMatrix(big).det()
    return det == FieldElem.one(desc)


def in_sp(m: ExactMatrix, n: int) -> bool:
    """The Z-point lattice of the symplectic group for the block-diagonal
    form with 2x2 blocks [[0,1],[-1,0]]."""
    if n % 2:
        raise ValueError("symplectic dimension must be even")
    if m.nrows != n or m.ncols != n:
        return False
    if not is_integral_matrix(m):
        return False
    return preserves_form(m, symplectic_form(n))


def symplectic_form(n: int) -> ExactMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n // 2):
        rows[2 * k][2 * k + 1] = Fraction(1)
        rows[2 * k + 1][2 * k] = Fraction(-1)
    return ExactMatrix(rows)


def in_so_q(m: ExactMatrix, q: ExactMatrix, integral: bool = True) -> bool:
    """Special orthogonal group of a symmetric matrix; with integrality the
    Z-point lattice."""
    if m.nrows != q.nrows or not m.is_square():
        return False
    if integral and not is_integral_matrix(m):
        return False
    return preserves_form(m, q) and m.det() == _one_like(m.entries[0][0])


def in_g2z(m: ExactMatrix) -> bool:
    """Integer points of the exceptional group: integrality plus the
    cross-product membership conditions."""
    return is_integral_matrix(m) and in_g2(m)


def in_sl_quat(m: ExactMatrix, size: int, a: int, b: int) -> bool:
    """SL(size, O) for the standard order O of (a,b): integer quaternion
    entries with reduced-norm determinant one."""
    if m.nrows != size or m.ncols != size:
        return False
    _check_quat_entries(m, a, b)
    if not is_integral_matrix(m):
        return False
    return _quat_block_det_is_one(m)


# kind -> membership predicate of a LatticeSpec; the CLI offers the kinds
# in this order
LATTICE_KINDS = {
    "SLnZ": lambda s, m: m.nrows == s.n and in_slnz(m),
    "SU_sqrt_d": lambda s, m: in_su_sqrt_d(m, s.n, s.d),
    "SU_quat": lambda s, m: in_su_quat(m, s.n, s.a, s.b, s.d),
    "Sp": lambda s, m: in_sp(m, s.n),
    "SO_Q": lambda s, m: in_so_q(m, s.q_matrix),
    "SL_quat": lambda s, m: in_sl_quat(m, s.n, s.a, s.b),
    "G2Z": lambda s, m: m.nrows == 7 and in_g2z(m),
}


@dataclass(frozen=True)
class LatticeSpec:
    """A named arithmetic group with parameters; dispatches membership."""

    kind: str  # a key of LATTICE_KINDS
    n: int = 0
    d: int = 0
    a: int = 0
    b: int = 0
    q_matrix: Optional[ExactMatrix] = None

    def __post_init__(self) -> None:
        if self.kind not in LATTICE_KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.kind == "SU_sqrt_d" and square_free_part(self.d) <= 1:
            raise ValueError("SU_sqrt_d needs a positive non-square d")
        if self.kind == "SU_quat" and square_free_part(self.d) <= 1:
            raise ValueError("SU_quat needs a positive non-square d")
        if self.kind == "Sp" and self.n % 2:
            raise ValueError("Sp needs even dimension")
        if self.kind == "SO_Q":
            if self.q_matrix is None or not self.q_matrix.is_symmetric():
                raise ValueError("SO_Q needs a symmetric form matrix")
        if self.kind == "G2Z" and self.n not in (0, 7):
            raise ValueError("G2Z lives in dimension 7")

    def contains(self, m: ExactMatrix) -> bool:
        return LATTICE_KINDS[self.kind](self, m)


# -- batch containment -------------------------------------------------------


def applicable_sign_patterns(a: int, b: int) -> list[SignPair]:
    """Sign patterns realizable by a Galois element of Q(sqrt(a),sqrt(b)):
    a square radicand cannot flip, and equal radicands flip together."""
    a_sf, b_sf = square_free_part(a), square_free_part(b)
    out = []
    for sa in (1, -1):
        for sb in (1, -1):
            if sa == -1 and a_sf == 1:
                continue
            if sb == -1 and b_sf == 1:
                continue
            if a_sf == b_sf and a_sf != 1 and sa != sb:
                continue
            out.append((sa, sb))
    return out


@dataclass(frozen=True)
class ContainmentReport:
    a: int
    b: int
    n: int
    height: int
    patterns: tuple[SignPair, ...]
    total: int
    passed: int
    failures: tuple[tuple[tuple[int, int, int, int], SignPair], ...]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "params": {"a": self.a, "b": self.b, "n": self.n},
            "patterns": [_pattern_name(p) for p in self.patterns],
            "height": self.height,
            "total": self.total,
            "passed": self.passed,
            "failures": [
                {"element": [str(x) for x in quad], "pattern": _pattern_name(p)}
                for quad, p in self.failures
            ],
        }


def _pattern_name(signs: SignPair) -> str:
    return ("+" if signs[0] == 1 else "-") + ("+" if signs[1] == 1 else "-")


def containment_check(a: int, b: int, n: int,
                      signs: Optional[SignPair] = None,
                      height: int = 2) -> ContainmentReport:
    """For every enumerated norm-one integer quaternion g, verify the
    twisted unitarity of tau(n, embed(g)) against the derived Hermitian
    matrix, under the requested Galois sign pattern (or all applicable
    ones)."""
    a_sf, b_sf = square_free_part(a), square_free_part(b)
    if a < 1 or b < 1 or a_sf == 1 or b_sf == 1:
        raise ValueError("a and b must be positive non-squares")
    if n < 2:
        raise ValueError("n must be at least 2")
    patterns = applicable_sign_patterns(a, b)
    if signs is not None:
        if signs not in patterns:
            raise ValueError(
                f"sign pattern {_pattern_name(signs)} is not realizable "
                f"for (a,b)=({a},{b})")
        patterns = [signs]
    elements = gamma_enumerate(a, b, height)
    rads = sorted({a_sf, b_sf})
    desc = field(*rads)
    twists = {
        p: partial(apply_galois, GaloisAction.from_signs(
            {a_sf: p[0], b_sf: p[1]} if a_sf != b_sf else {a_sf: p[0]}))
        for p in patterns
    }
    hmats = {
        p: hermitian_h(n, a, b, p).lift(desc)
        for p in patterns
    }
    failures = []
    checked = 0
    for g in elements:
        m = tau(n, g.matrix().lift(desc))
        for p in patterns:
            checked += 1
            if not preserves_form(m, hmats[p], twists[p]):
                failures.append((g.quadruple(), p))
    return ContainmentReport(a, b, n, height, tuple(patterns),
                             checked, checked - len(failures),
                             tuple(failures))
