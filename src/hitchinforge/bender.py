"""Surface-group bending: presentations, the deformation that conjugates
one side of a splitting curve by a commuting matrix, the explicit
diagonal matrix families used to break each possible Zariski closure, and
density certificates that record exactly which closures were broken and
under which named assumptions.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    _one_like,
    apply_galois,
    span_dimension,
)
from .g2core import in_g2
from .lattices import (
    diagonal_su_nonsplit_conditions,
    in_g2z,
    in_so_q,
    in_su_sqrt_d,
    is_integral_matrix,
    is_tau_pgl2_diagonal,
    preserves_form,
)
from .symrep import j_matrix


class B0Kind(enum.Enum):
    SU_SPLIT_A = "SU_split_a"
    SU_NONSPLIT = "SU_nonsplit"
    SU_EVEN_SPLIT = "SU_even_split"
    SU_QUAT_EVEN = "SU_quat_even"
    SO_ODD = "SO_odd"
    SO_N7 = "SO_n7"
    G2 = "G2"
    SP = "Sp"

    @classmethod
    def from_name(cls, name: str) -> "B0Kind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown bending family {name!r}")


def _unit_data(unit: FieldElem) -> tuple[int, FieldElem, int]:
    """(radicand, conjugate, norm) of a quadratic unit; norm must be +-1."""
    if len(unit.desc.radicands) != 1:
        raise ValueError("unit must lie in a single quadratic field")
    rad = unit.desc.radicands[0]
    conj = apply_galois(GaloisAction.flipping(rad), unit)
    norm = unit * conj
    if not norm.is_rational() or norm.rational_value() not in (1, -1):
        raise ValueError("not a unit: norm must be +-1")
    return rad, conj, int(norm.rational_value())


def b0_family(kind: Union[B0Kind, str], n: int, unit: FieldElem,
              k: int = 1) -> ExactMatrix:
    """The k-th power of the diagonal bending matrix of the given family,
    built from a fundamental unit.  The output is verified to have
    determinant one and to pass the membership predicate of its target
    lattice; construction fails hard otherwise."""
    if isinstance(kind, str):
        kind = B0Kind.from_name(kind)
    rad, conj, _ = _unit_data(unit)
    one = FieldElem.one(unit.desc)
    u2, u4 = unit ** 2, unit ** 4
    c2 = conj * conj

    if kind in (B0Kind.SU_SPLIT_A, B0Kind.SU_EVEN_SPLIT):
        if n < 3:
            raise ValueError("family needs n >= 3")
        if kind is B0Kind.SU_EVEN_SPLIT and n % 2:
            raise ValueError("SU_even_split needs even n")
        if kind is B0Kind.SU_SPLIT_A and n % 2 == 0:
            raise ValueError("SU_split_a needs odd n")
        diag = [u4] + [one] * (n - 3) + [u2.inverse(), u2.inverse()]
    elif kind is B0Kind.SU_NONSPLIT:
        if n < 3 or n % 2 == 0:
            raise ValueError("SU_nonsplit needs odd n >= 3")
        diag = [one] * n
        diag[0] = u2
        diag[-1] = u2
        diag[(n - 1) // 2] = u4.inverse()
    elif kind is B0Kind.SU_QUAT_EVEN:
        if n < 4 or n % 2:
            raise ValueError("SU_quat_even needs even n >= 4")
        diag = [one] * n
        diag[0] = diag[-1] = u2
        diag[1] = diag[-2] = u2.inverse()
    elif kind is B0Kind.SO_ODD:
        if n < 5 or n % 2 == 0:
            raise ValueError("SO_odd needs odd n >= 5")
        diag = [u2] + [one] * (n - 2) + [c2]
    elif kind is B0Kind.SO_N7:
        if n != 7:
            raise ValueError("SO_n7 lives in dimension 7")
        diag = [u2, c2, one, one, one, u2, c2]
    elif kind is B0Kind.G2:
        if n != 7:
            raise ValueError("G2 family lives in dimension 7")
        diag = [u2, u2, one, one, one, c2, c2]
    else:  # SP
        if n < 4 or n % 2:
            raise ValueError("Sp family needs even n >= 4")
        diag = [u2] * (n // 2) + [c2] * (n // 2)

    b = ExactMatrix.diagonal([e ** k for e in diag])
    det = b.det()
    if det != one:
        raise AssertionError(f"bending matrix has determinant {det}, not 1")
    if not _b0_membership(kind, b, n, rad):
        raise AssertionError(
            f"bending matrix fails its {kind.value} lattice membership")
    return b


def _b0_membership(kind: B0Kind, b: ExactMatrix, n: int, rad: int) -> bool:
    if kind in (B0Kind.SU_SPLIT_A, B0Kind.SU_EVEN_SPLIT):
        return in_su_sqrt_d(b, n, rad)
    if kind in (B0Kind.SU_NONSPLIT, B0Kind.SU_QUAT_EVEN):
        return diagonal_su_nonsplit_conditions(b, rad)
    if kind in (B0Kind.SO_ODD, B0Kind.SO_N7):
        return in_so_q(b, j_matrix(n))
    if kind is B0Kind.G2:
        return in_g2z(b)
    return (is_integral_matrix(b) and preserves_form(b, j_matrix(n)))


def b0_breaking_profile(kind: Union[B0Kind, str], b: ExactMatrix,
                        n: int) -> dict[str, bool]:
    """The membership/breaking pattern asserted for each family: which of
    the possible closed subgroups the matrix stays in and which it leaves."""
    if isinstance(kind, str):
        B0Kind.from_name(kind)
    return _closure_profile(b, n)


def _closure_profile(b: ExactMatrix, n: int) -> dict[str, bool]:
    """Which of the candidate closed subgroups contain b: the one
    computation behind both the family profiles and the "breaks" of a
    density certificate."""
    profile = {
        "preserves_form": preserves_form(b, j_matrix(n), up_to_scalar=True),
        "tau_pgl2": is_tau_pgl2_diagonal(b),
    }
    if n == 7:
        profile["in_g2"] = in_g2(b)
    return profile


B0_EXPECTED_PROFILE: dict[B0Kind, dict[str, bool]] = {
    # SU families must leave the form-preserving groups entirely
    B0Kind.SU_SPLIT_A: {"preserves_form": False, "tau_pgl2": False},
    B0Kind.SU_EVEN_SPLIT: {"preserves_form": False, "tau_pgl2": False},
    B0Kind.SU_NONSPLIT: {"preserves_form": False, "tau_pgl2": False},
    B0Kind.SU_QUAT_EVEN: {"preserves_form": False, "tau_pgl2": False},
    # orthogonal / symplectic / exceptional families preserve their form
    # but must leave the principal 2x2 image; in dimension 7 the SO family
    # must also leave the exceptional group while the G2 family stays in
    B0Kind.SO_ODD: {"preserves_form": True, "tau_pgl2": False},
    B0Kind.SO_N7: {"preserves_form": True, "tau_pgl2": False, "in_g2": False},
    B0Kind.G2: {"preserves_form": True, "tau_pgl2": False, "in_g2": True},
    B0Kind.SP: {"preserves_form": True, "tau_pgl2": False},
}


# -- surface presentations and bending --------------------------------------


@dataclass(frozen=True)
class SurfacePresentation:
    """Standard one-relator presentation of a closed orientable surface
    group: generators a1,b1,...,ag,bg with relator the product of
    commutators."""

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("genus must be at least 2")

    @property
    def generators(self) -> list[str]:
        out = []
        for i in range(1, self.genus + 1):
            out += [f"a{i}", f"b{i}"]
        return out

    def relator(self) -> list[tuple[str, int]]:
        return self.boundary_word(self.genus)

    def boundary_word(self, h: int) -> list[tuple[str, int]]:
        """Product of the first h commutators: the separating curve that
        splits off genus h."""
        word: list[tuple[str, int]] = []
        for i in range(1, h + 1):
            word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
        return word


@dataclass(frozen=True)
class CurveSpec:
    """The simple closed curve along which to bend: either separating
    (split index h, side C carries a1..bh) or non-separating (an HNN
    stable letter)."""

    kind: str                 # "separating" | "nonseparating"
    h: int = 1
    stable: str = "s"
    gamma_name: Optional[str] = None   # free mode: designated diagonal element

    def __post_init__(self) -> None:
        if self.kind not in ("separating", "nonseparating", "free"):
            raise ValueError(f"unknown curve kind {self.kind!r}")


_WORD_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?\s*")


def parse_word(text: str) -> list[tuple[str, int]]:
    """Words over generator names with optional ^exponents, whitespace or
    '*' separated: "a1 b1 a1^-1 b1^-1"."""
    out: list[tuple[str, int]] = []
    pos = 0
    text = text.replace("*", " ")
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse word {text!r} at offset {pos}")
        out.append((m.group(1), int(m.group(2) or 1)))
        pos = m.end()
    return out


@dataclass
class BendingSpec:
    """Everything needed to evaluate a bent representation.

    Presentation mode carries a surface presentation whose relator is
    checked; free mode carries finitely many group elements with a
    designated diagonal curve image and no relator.  The 2x2 preimages of
    the assignment (when the images come from the symmetric-power
    representation) are kept as provenance for density certification.
    """

    n: int
    assignment: Mapping[str, ExactMatrix]
    b_matrix: ExactMatrix
    curve: CurveSpec
    presentation: Optional[SurfacePresentation] = None
    sl2_assignment: Optional[Mapping[str, ExactMatrix]] = None

    @property
    def mode(self) -> str:
        return "presentation" if self.presentation is not None else "free"

    def curve_word(self) -> list[tuple[str, int]]:
        if self.mode == "free":
            if not self.curve.gamma_name:
                raise ValueError("free mode needs a designated curve element")
            return [(self.curve.gamma_name, 1)]
        if self.curve.kind == "separating":
            return self.presentation.boundary_word(self.curve.h)
        raise ValueError("a non-separating curve has no boundary word")

    def curve_image(self) -> ExactMatrix:
        if self.curve.kind == "nonseparating":
            # the curve class is the conjugation core of the stable letter;
            # its image is the designated assignment entry
            name = self.curve.gamma_name or self.curve.stable
            return self.assignment[name]
        return evaluate_word(self.assignment, self.curve_word())

    def d_side(self) -> frozenset[str]:
        if self.mode == "free" or self.curve.kind != "separating":
            return frozenset()
        gens = self.presentation.generators
        return frozenset(gens[2 * self.curve.h:])

    def invariant_violations(self) -> list[str]:
        issues = []
        gamma = self.curve_image()
        bg = self.b_matrix * gamma
        gb = gamma * self.b_matrix
        if bg != gb:
            issues.append("bending matrix does not commute with the curve image")
        for name, m in self.assignment.items():
            if m.det() - _one_like(m.entries[0][0]):
                issues.append(f"assignment of {name} has determinant != 1")
        return issues


def evaluate_word(assignment: Mapping[str, ExactMatrix],
                  word: Sequence[tuple[str, int]]) -> ExactMatrix:
    result: Optional[ExactMatrix] = None
    for name, exp in word:
        if name not in assignment:
            raise KeyError(f"word uses unknown generator {name!r}")
        m = assignment[name] ** exp
        result = m if result is None else result * m
    if result is None:
        some = next(iter(assignment.values()))
        return ExactMatrix.identity(some.nrows, like=some.entries[0][0])
    return result


def bend_eval(spec: BendingSpec, word: Union[str, Sequence[tuple[str, int]]]
              ) -> ExactMatrix:
    """Evaluate the bent representation on a word: C-side generators map
    through the assignment, D-side generators are conjugated by the
    bending matrix, and a non-separating stable letter is premultiplied by
    it."""
    if isinstance(word, str):
        word = parse_word(word)
    b = spec.b_matrix
    b_inv = b.inverse()
    d_side = spec.d_side()
    images: dict[str, ExactMatrix] = {}
    for name, m in spec.assignment.items():
        if name in d_side:
            images[name] = b * m * b_inv
        elif (spec.curve.kind == "nonseparating"
              and name == spec.curve.stable):
            images[name] = b * m
        else:
            images[name] = m
    return evaluate_word(images, word)


@dataclass(frozen=True)
class RelatorCheck:
    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def relator_ok(spec: BendingSpec) -> RelatorCheck:
    """Well-definedness of the bent representation.

    Separating: the surface relator must evaluate to the identity (it does
    exactly when the unbent assignment satisfies it and the bending matrix
    commutes with the curve image).  Non-separating: the stable-letter
    conjugation relation on the curve class is checked.  Free mode has no
    relator and is vacuously fine.
    """
    if spec.mode == "free":
        return RelatorCheck(True, "free mode: no relator to check")
    if spec.curve.kind == "separating":
        image = bend_eval(spec, spec.presentation.relator())
        ok = image.is_identity()
        return RelatorCheck(ok, "relator evaluates to identity" if ok else
                            "relator image differs from identity")
    gamma = spec.curve_image()
    s_img = bend_eval(spec, [(spec.curve.stable, 1)])
    ok = s_img.inverse() * gamma * s_img == gamma
    return RelatorCheck(ok, "stable-letter conjugation fixes the curve class"
                        if ok else "stable letter breaks the curve relation")


# -- density certificates -----------------------------------------------------


@dataclass(frozen=True)
class Sl2Evidence:
    span_rank: int
    witness_word: Optional[str]
    witness_trace: Optional[str]
    eigenline_breaker: Optional[str]

    @property
    def complete(self) -> bool:
        return (self.span_rank == 4 and self.witness_word is not None
                and self.eigenline_breaker is not None)


@dataclass(frozen=True)
class DensityCertificate:
    target: str
    n: int
    sl2: Sl2Evidence
    breaks: dict[str, bool]       # predicate name -> broken?
    required_breaks: tuple[str, ...]
    assumptions: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.sl2.complete and all(self.breaks.get(r, False)
                                         for r in self.required_breaks)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "n": self.n,
            "valid": self.valid,
            "sl2_dense": {
                "span_rank": self.sl2.span_rank,
                "infinite_order_witness": self.sl2.witness_word,
                "witness_trace": self.sl2.witness_trace,
                "eigenline_breaker": self.sl2.eigenline_breaker,
            },
            "breaks": dict(sorted(self.breaks.items())),
            "required_breaks": list(self.required_breaks),
            "assumptions": list(self.assumptions),
        }


GUICHARD_ASSUMPTION = "Hitchin + Guichard classification"

_TARGETS = {"SLn", "Sp", "SO", "G2"}


def _sl2_density_evidence(gens: Mapping[str, ExactMatrix]) -> Sl2Evidence:
    """Evidence that a 2x2 generating set is Zariski-dense in SL2: full
    Burnside span, an infinite-order element (|trace| > 2), and a
    generator moving that element's eigenline pair (so no torus
    normalizer, no finite group, no reducible closure)."""
    mats = list(gens.values())
    names = list(gens.keys())
    rank = span_dimension(mats)
    witness_word = witness = None
    # breadth-first over short words to find |trace| > 2
    frontier = [(name, gens[name]) for name in names]
    seen_words = list(frontier)
    for _ in range(3):
        nxt = []
        for word, m in frontier:
            t = m.trace()
            if t * t - 4 > 0:
                witness_word, witness = word, m
                break
            for name in names:
                nxt.append((word + " " + name, m * gens[name]))
        if witness is not None:
            break
        frontier = nxt
    if witness is None:
        return Sl2Evidence(rank, None, None, None)
    breaker = None
    ident = ExactMatrix.identity(2, like=witness.entries[0][0])
    for name in names:
        g = gens[name]
        conj = g.inverse() * witness * g
        stack = ExactMatrix([
            [e for row in ident.entries for e in row],
            [e for row in witness.entries for e in row],
            [e for row in conj.entries for e in row],
        ])
        if stack.rank() == 3:
            breaker = name
            break
    return Sl2Evidence(rank, witness_word, str(witness.trace()), breaker)


def required_breaks_for(target: str, n: int) -> tuple[str, ...]:
    if target == "SLn":
        req = ["preserves_form", "tau_pgl2"]
        if n == 7:
            req.append("in_g2")
    elif target == "SO":
        req = ["tau_pgl2"]
        if n == 7:
            req.append("in_g2")
    else:  # Sp, G2
        req = ["tau_pgl2"]
    return tuple(req)


def density_certificate(spec: BendingSpec, target: str) -> DensityCertificate:
    """Certificate that the bent representation is Zariski-dense in the
    target group, conditional on the named classification assumption: the
    unbent 2x2 data is certified dense in SL2, and the bending matrix is
    certified to lie outside every smaller group on the classification
    list for the target."""
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if spec.sl2_assignment is None:
        raise ValueError(
            "density certification needs the 2x2 provenance of the assignment")
    sl2 = _sl2_density_evidence(spec.sl2_assignment)
    n = spec.n
    breaks = {name: not kept
              for name, kept in _closure_profile(spec.b_matrix, n).items()}
    return DensityCertificate(
        target=target,
        n=n,
        sl2=sl2,
        breaks=breaks,
        required_breaks=required_breaks_for(target, n),
        assumptions=(GUICHARD_ASSUMPTION,),
    )


def distinct_bendings(b: ExactMatrix, k1: int, k2: int) -> bool:
    """Whether the k1-th and k2-th powers of the bending matrix differ;
    distinct powers give non-conjugate bent representations (for diagonal
    matrices of infinite multiplicative order commuting with the curve)."""
    if not b.is_diagonal():
        raise ValueError("bending matrices are diagonal")
    return b ** k1 != b ** k2
