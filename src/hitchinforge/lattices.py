"""Exact membership predicates for the arithmetic groups in play
(special linear, unitary over real quadratic rings, quaternionic unitary,
symplectic, orthogonal, and the exceptional group over Z), plus batch
verification that the symmetric-power image of the quaternion lattice
lands in the predicted unitary group.

Both unitary lattices over Z[sqrt(d)] are `_in_su` under two forms.  A
quaternion matrix is given by its rows, and its predicates run on the
2x2-block embedding (`quatalg.embed_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    _invert,
    field,
    in_group,
    is_square,
    lift,
    preserves_form,
    square_free_part,
)
from .g2core import in_g2
from .quatalg import QuatElem, embed_blocks, gamma_enumerate
from .symrep import (
    SignPair,
    _pattern_name,
    _sign_action,
    applicable_sign_patterns,
    hermitian_h,
    tau,
)


def is_integral_scalar(x) -> bool:
    """Integrality on the monomial basis: all coefficients in Z."""
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, FieldElem):
        return x.den == 1
    if isinstance(x, QuatElem):
        return all(is_integral_scalar(c) for c in x.coords)
    raise TypeError(f"unsupported scalar {type(x)!r}")


def is_integral_matrix(m: ExactMatrix) -> bool:
    return all(is_integral_scalar(e) for row in m.entries for e in row)


def _rational_integer_entries(m: ExactMatrix) -> bool:
    """All entries in Z itself: a field element must also be rational, so
    a Z[sqrt(d)] entry such as sqrt(2) does not count."""
    return all(
        e.is_rational() and e.den == 1 if isinstance(e, FieldElem)
        else isinstance(e, Fraction) and e.denominator == 1
        for row in m.entries for e in row)


def in_slnz(m: ExactMatrix) -> bool:
    """SL(n, Z): rational-integer entries and determinant one."""
    return _rational_integer_entries(m) and in_group(m, m.nrows)


def _in_su(m: ExactMatrix, n: int, d: int, form: ExactMatrix) -> bool:
    """The unitary lattice of a form over Z[sqrt(d)]: M is n x n with
    entries integral over Z[sqrt(d)], determinant one, and
    sigma(M)^T form M = form for the conjugation sigma of Q(sqrt(d))/Q."""
    d = square_free_part(d)
    if d <= 1:
        raise ValueError("d must be a positive non-square")
    # a wrong shape answers False before the entries are lifted
    if m.nrows != n or m.ncols != n:
        return False
    mm = m.lift(field(d))
    return is_integral_matrix(mm) and in_group(mm, n, form, GaloisAction.flipping(d))


def in_su_sqrt_d(m: ExactMatrix, n: int, d: int) -> bool:
    """The unitary lattice over Z[sqrt(d)] of the identity form."""
    return _in_su(m, n, d, ExactMatrix.identity(n))


def diagonal_su_nonsplit_conditions(m: ExactMatrix, d: int) -> bool:
    """Diagonal membership in the unitary lattice attached to a quadratic
    extension not containing the splitting root: a palindromic diagonal in
    the unitary lattice of the exchange form (ones on the antidiagonal),
    that is w_i * tau(w_(n+1-i)) = 1 for the conjugation tau of
    Q(sqrt(d))/Q."""
    n = m.nrows
    exchange = ExactMatrix([[int(i + j == n - 1) for j in range(n)]
                            for i in range(n)])
    if not (_in_su(m, n, d, exchange) and m.is_diagonal()):
        return False
    w = [lift(x, field(d)) for x in m.diagonal_entries()]
    return w == w[::-1]


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


def in_su_quat(m: Sequence[Sequence[QuatElem]], size: int, a: int, b: int,
               d: int) -> bool:
    """Quaternionic unitary lattice: SL(size, O) whose twisted conjugate
    transpose sigma(M)* is the inverse, the quaternion coordinates
    integral over Z[sqrt(d)].  sigma(M)* is built on the quaternions, each
    entry conjugated and its coordinates moved by sqrt(d) -> -sqrt(d), and
    sigma(M)* M = I is read on the embedding."""
    if not in_sl_quat(m, size, a, b):
        return False
    tau_d = GaloisAction.flipping(d)
    adjoint = [[row[i].conj().apply_galois(tau_d) for row in m] for i in range(size)]
    e_adjoint, e_m = embed_blocks(adjoint, m)
    return (e_adjoint * e_m).is_identity()


def in_sp(m: ExactMatrix, n: int) -> bool:
    """The Z-point lattice of the symplectic group for the block-diagonal
    form with 2x2 blocks [[0,1],[-1,0]]: rational-integer entries."""
    if n % 2:
        raise ValueError("symplectic dimension must be even")
    return _rational_integer_entries(m) and in_group(m, n, symplectic_form(n))


def symplectic_form(n: int) -> ExactMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n // 2):
        rows[2 * k][2 * k + 1] = Fraction(1)
        rows[2 * k + 1][2 * k] = Fraction(-1)
    return ExactMatrix(rows)


def in_so_q(m: ExactMatrix, q: ExactMatrix) -> bool:
    """Z-points of the special orthogonal group of a symmetric matrix.
    Integrality is on the monomial basis, so entries in Z[sqrt(d)] count
    (the orthogonal bending family lives there)."""
    return is_integral_matrix(m) and in_group(m, q.nrows, q)


def in_g2z(m: ExactMatrix) -> bool:
    """Integer points of the exceptional group: integrality on the
    monomial basis (entries in Z[sqrt(d)] count, as for in_so_q) plus the
    cross-product membership conditions."""
    return is_integral_matrix(m) and in_g2(m)


def in_sl_quat(m: Sequence[Sequence[QuatElem]], size: int, a: int, b: int) -> bool:
    """SL(size, O) for the standard order O of (a,b): integer quaternion
    entries with reduced-norm determinant one, the determinant of the
    2x2-block embedding."""
    if len(m) != size or any(len(row) != size for row in m):
        return False
    for e in chain.from_iterable(m):
        if not isinstance(e, QuatElem):
            raise ValueError("entries must be quaternions")
        if (square_free_part(e.algebra.a) != square_free_part(a)
                or square_free_part(e.algebra.b) != square_free_part(b)):
            raise ValueError("entries lie in the wrong quaternion algebra")
    return (all(map(is_integral_scalar, chain.from_iterable(m)))
            and in_group(embed_blocks(m)[0], 2 * size))


# kind -> membership predicate of a LatticeSpec; the CLI offers the kinds
# in this order
LATTICE_KINDS = {
    "SLnZ": lambda s, m: m.nrows == s.n and in_slnz(m),
    "SU_sqrt_d": lambda s, m: in_su_sqrt_d(m, s.n, s.d),
    "Sp": lambda s, m: in_sp(m, s.n),
    "SO_Q": lambda s, m: in_so_q(m, s.q_matrix),
    "G2Z": lambda s, m: m.nrows == 7 and in_g2z(m),
}


@dataclass(frozen=True)
class LatticeSpec:
    """A named arithmetic group with parameters; dispatches membership."""

    kind: str  # a key of LATTICE_KINDS
    n: int = 0
    d: int = 0
    q_matrix: Optional[ExactMatrix] = None

    def __post_init__(self) -> None:
        if self.kind not in LATTICE_KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.kind == "SU_sqrt_d" and square_free_part(self.d) <= 1:
            raise ValueError("SU_sqrt_d needs a positive non-square d")
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


def containment_check(a: int, b: int, n: int,
                      signs: Optional[SignPair] = None,
                      height: int = 2) -> ContainmentReport:
    """For every enumerated norm-one integer quaternion g, verify the
    twisted unitarity of tau(n, embed(g)) against the derived Hermitian
    matrix, under the requested Galois sign pattern (or all applicable
    ones)."""
    if a < 1 or b < 1 or is_square(a) or is_square(b):
        raise ValueError("a and b must be positive non-squares")
    if n < 2:
        raise ValueError("n must be at least 2")
    patterns = applicable_sign_patterns(a, b) if signs is None else [signs]
    # hermitian_h refuses a pattern that no Galois element realizes
    hmats = {p: hermitian_h(n, a, b, p) for p in patterns}
    actions = {p: _sign_action(a, b, p) for p in patterns}
    elements = gamma_enumerate(a, b, height)
    failures = []
    checked = 0
    for g in elements:
        m = tau(n, g.matrix())
        for p in patterns:
            checked += 1
            if not preserves_form(m, hmats[p], actions[p]):
                failures.append((g.quadruple(), p))
    return ContainmentReport(a, b, n, height, tuple(patterns),
                             checked, checked - len(failures),
                             tuple(failures))
