import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import T, T_INV, random_sl2q
from hitchinforge.bender import (
    B0Kind,
    B0_EXPECTED_PROFILE,
    BendingSpec,
    CurveSpec,
    SurfacePresentation,
    _closure_profile,
    _sl2_density_evidence,
    b0_breaking_profile,
    b0_family,
    bend_eval,
    density_certificate,
    evaluate_word,
    parse_word,
    relator_ok,
)
from hitchinforge.exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    _invert,
    apply_galois,
    field,
    fundamental_unit,
    lift,
)
from hitchinforge.quatalg import GammaElement
from hitchinforge.symrep import j_matrix, tau
from test_exactnum import scalar_preserves_form

OM = fundamental_unit(3).value
SIG = apply_galois(GaloisAction.flipping(3), OM)
ONE = FieldElem.one(field(3))

KIND_DIMENSIONS = [
    ("SU_split_a", 5), ("SU_nonsplit", 5), ("SU_even_split", 4),
    ("SU_quat_even", 6), ("SO_odd", 5), ("SO_n7", 7), ("G2", 7), ("Sp", 4),
]


def test_b0_family_frozen_entries():
    # (2+sqrt3)^2 = 7+4sqrt3, ^4 = 97+56sqrt3
    b = b0_family("SU_split_a", 5, OM)
    assert b.diagonal_entries()[0] == OM ** 4
    assert b.diagonal_entries()[0].coeffs == (Fraction(97), Fraction(56))
    so = b0_family("SO_odd", 5, OM)
    assert list(so.diagonal_entries()) == [OM ** 2, ONE, ONE, ONE, SIG ** 2]
    g2 = b0_family("G2", 7, OM, 2)
    assert g2.diagonal_entries()[0] == OM ** 4


@pytest.mark.parametrize("name,n", KIND_DIMENSIONS)
def test_b0_family_membership_and_breaking(name, n):
    for k in (1, 2, 3):
        b = b0_family(name, n, OM, k)
        assert b.det() == ONE
        profile = b0_breaking_profile(name, b, n)
        expected = B0_EXPECTED_PROFILE[B0Kind.from_name(name)]
        assert profile == expected, (name, k, profile)


# -- the closure profile against the rules it replaced -----------------------


def _old_tau_pgl2(b):
    """The old ratio rule: every ratio of consecutive diagonal entries is
    the first."""
    diag = b.diagonal_entries()
    if len(diag) == 1:
        return True
    ratio = diag[0] * _invert(diag[1])
    return all(diag[i] * _invert(diag[i + 1]) == ratio for i in range(1, len(diag) - 1))


def _old_rules(b, n):
    """The profile's two answers by the old paths: the scalar isometry test
    up to a scalar, lambda from the first nonzero entry of J, and the
    ratio rule."""
    return {"preserves_form": scalar_preserves_form(b, j_matrix(n), None, True),
            "tau_pgl2": _old_tau_pgl2(b)}


# an element of coordinates at most 4 in size: a Fraction, or over Q(sqrt3)
DIAGONAL_RINGS = {
    "Q": lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    "Q(sqrt3)": lambda rng: FieldElem(field(3), [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                                 for _ in range(2)]),
}


def _random_diagonal(rng, elem, n):
    """n nonzero entries: independent ones, or a geometric progression
    c r^i or a form-preserving w_i w_(n-1-i) = lambda, half of these two
    with one entry scaled."""
    def nonzero():
        while True:
            x = elem(rng)
            if x:
                return x

    shape = rng.choice(["geometric", "form", "independent"])
    if shape == "independent":
        return [nonzero() for _ in range(n)]
    if shape == "geometric":
        c, r = nonzero(), nonzero()
        w = [c * r ** i for i in range(n)]
    else:
        half = [nonzero() for _ in range(n // 2)]
        middle = [nonzero()] if n % 2 else []
        lam = middle[0] ** 2 if middle else nonzero()
        w = half + middle + [lam / x for x in reversed(half)]
    if rng.randrange(2):
        w[rng.randrange(n)] *= nonzero()
    return w


def test_closure_profile_matches_the_old_rules():
    """Every family at k = 0..5 and 1,200 seeded random diagonals of sizes
    2-8 over Q and Q(sqrt3): the profile's "preserves_form" and
    "tau_pgl2" answer as the old up-to-scalar isometry test and the old
    ratio rule, and each answer of each rule is common."""
    cases = [(b0_family(name, n, OM, k), n) for name, n in KIND_DIMENSIONS for k in range(6)]
    for ring, elem in sorted(DIAGONAL_RINGS.items()):
        rng = random.Random(f"closure-profile-{ring}")
        for _ in range(600):
            n = rng.randint(2, 8)
            cases.append((ExactMatrix.diagonal(_random_diagonal(rng, elem, n)), n))
    answers = Counter()
    for b, n in cases:
        want = _old_rules(b, n)
        got = _closure_profile(b, n)
        assert {name: got[name] for name in want} == want, (b, n)
        answers.update(want.items())
    assert min(answers[rule, value] for rule in ("preserves_form", "tau_pgl2")
               for value in (False, True)) > len(cases) // 5, answers


def test_closure_profile_reads_a_geometric_diagonal():
    """The profile's "tau_pgl2" is a geometric progression of the diagonal,
    and any other matrix is refused: one not n x n first, as the old
    isometry test did, then one not diagonal or with a zero entry."""
    for diag, geometric in (([OM ** 2, ONE, OM ** -2], True),
                            ([OM ** 4, ONE, OM ** -2], False)):
        assert _closure_profile(ExactMatrix.diagonal(diag), 3)["tau_pgl2"] is geometric
    assert _closure_profile(ExactMatrix.identity(6), 6)["tau_pgl2"]
    for b, n, message in ((ExactMatrix([[1, 1], [0, 1]]), 2, "diagonal matrices only"),
                          (ExactMatrix.diagonal([1, 0]), 2, "diagonal entries must be nonzero"),
                          (ExactMatrix([[1, 0, 0], [0, 1, 0]]), 2, "incompatible dimensions"),
                          (ExactMatrix.identity(5), 7, "incompatible dimensions"),
                          (ExactMatrix.diagonal([1, 0]), 3, "incompatible dimensions")):
        with pytest.raises(ValueError, match=message):
            _closure_profile(b, n)


@pytest.mark.parametrize("kind", [5, None, ["SU_split_a"], "SU_split"],
                         ids=["int", "none", "list", "typo"])
def test_unknown_bending_kind_is_named(kind):
    b = b0_family("SU_split_a", 5, OM)
    for call in (lambda: b0_family(kind, 5, OM), lambda: b0_breaking_profile(kind, b, 5)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"unknown bending family {kind!r}"


def test_bending_kind_by_member_or_value():
    assert b0_family(B0Kind.SP, 4, OM) == b0_family("Sp", 4, OM)
    assert B0Kind.from_name("Sp") is B0Kind("Sp") is B0Kind(B0Kind.SP) is B0Kind.SP


def test_b0_family_dimension_validation():
    with pytest.raises(ValueError):
        b0_family("SO_odd", 3, OM)       # would be a geometric progression
    with pytest.raises(ValueError):
        b0_family("G2", 5, OM)
    with pytest.raises(ValueError):
        b0_family("Sp", 5, OM)
    with pytest.raises(ValueError):
        b0_family("SU_split_a", 4, OM)


def test_b0_family_norm_minus_one_unit():
    # 1+sqrt(2) has norm -1; the families still land in their lattices
    u2 = fundamental_unit(2).value
    b = b0_family("SU_split_a", 5, u2)
    assert b.det() == FieldElem.one(field(2))
    so = b0_family("SO_odd", 5, u2)
    assert so.det() == FieldElem.one(field(2))


def test_b0_family_finds_the_radicand_by_value():
    # 2+sqrt3 stored over Q(sqrt2, sqrt3) builds the same matrices as over Q(sqrt3)
    wide = lift(OM, field(2, 3))
    assert b0_family("SU_split_a", 3, wide, 2) == b0_family("SU_split_a", 3, OM, 2)
    for unit in (lift(ONE, field(2, 3)), wide + FieldElem.sqrt_int(field(2, 3), 2)):
        with pytest.raises(ValueError, match="single quadratic field"):
            b0_family("SU_split_a", 3, unit)


def test_word_parsing():
    assert parse_word("a1 b1 a1^-1 b1^-1") == [
        ("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)]
    assert parse_word("s^3 * a2") == [("s", 3), ("a2", 1)]
    with pytest.raises(ValueError):
        parse_word("a1 ^^")


def _genus2_spec(n, b_matrix):
    """Genus-2 assignment built from commuting-compatible 2x2 matrices:
    the swapped second handle makes the relator hold for any alpha, beta,
    and the boundary commutator is diagonal."""
    desc = field(3)
    alpha = ExactMatrix([[0, 1], [-1, 0]]).map_entries(
        lambda e: FieldElem.from_rational(desc, e))
    beta = ExactMatrix.diagonal([OM, OM.inverse()])
    sl2 = {"a1": alpha, "b1": beta, "a2": beta, "b2": alpha}
    assignment = {k: tau(n, v) for k, v in sl2.items()}
    return BendingSpec(
        n=n, assignment=assignment, b_matrix=b_matrix,
        curve=CurveSpec("separating", h=1),
        presentation=SurfacePresentation(2), sl2_assignment=sl2)


def test_bend_eval_identity_bending():
    spec = _genus2_spec(3, ExactMatrix.identity(3, like=ONE))
    for word in ["a1", "b2", "a1 b1 a2^-1"]:
        from hitchinforge.bender import evaluate_word
        assert bend_eval(spec, word) == evaluate_word(spec.assignment,
                                                      parse_word(word))


def test_bend_eval_conjugates_far_side():
    b = b0_family("SU_split_a", 3, OM)
    spec = _genus2_spec(3, b)
    got = bend_eval(spec, "a2")
    expected = b * spec.assignment["a2"] * b.inverse()
    assert got == expected
    # the near side is untouched
    assert bend_eval(spec, "a1") == spec.assignment["a1"]


def test_bend_eval_fixes_curve_class():
    b = b0_family("SU_split_a", 3, OM)
    spec = _genus2_spec(3, b)
    gamma_word = "a1 b1 a1^-1 b1^-1"
    from hitchinforge.bender import evaluate_word
    assert bend_eval(spec, gamma_word) == evaluate_word(
        spec.assignment, parse_word(gamma_word))


def test_relator_ok_with_commuting_bending():
    for k in (1, 2):
        b = b0_family("SU_split_a", 5, OM, k)
        spec = _genus2_spec(5, b)
        assert spec.invariant_violations() == []
        assert relator_ok(spec)


def test_relator_fails_with_noncommuting_bending():
    desc = field(3)
    bad = tau(5, ExactMatrix([[1, 1], [0, 1]]).map_entries(
        lambda e: FieldElem.from_rational(desc, e)))
    spec = _genus2_spec(5, bad)
    assert "does not commute" in spec.invariant_violations()[0]
    check = relator_ok(spec)
    assert not check.ok


DUAL = {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"}


def test_nonseparating_curve_has_image_but_no_boundary_word():
    # the curve is the generator dual to the stable letter, not the stable
    # letter itself, and a gamma_name does not override it
    b = b0_family("SU_split_a", 3, OM)
    for stable, dual in DUAL.items():
        for gamma_name in (None, stable, "a2"):
            curve = CurveSpec("nonseparating", stable=stable, gamma_name=gamma_name)
            spec = replace(_genus2_spec(3, b), curve=curve)
            assert spec.curve_word() == [(dual, 1)]
            assert spec.curve_image() == spec.assignment[dual]


def _over_q3(rows):
    desc = field(3)
    return ExactMatrix(rows).map_entries(lambda e: FieldElem.from_rational(desc, e))


@pytest.mark.parametrize("stable", sorted(DUAL))
def test_nonseparating_relator_matches_the_hand_product(stable):
    """The bent relator multiplied out from the tau images, without
    bend_eval: rho(s) becomes rho(s)*B and the two commutators are formed
    by hand.  relator_ok agrees with it.  When the unbent relator holds,
    both hold exactly when B commutes with the image of the generator dual
    to s; when it fails, a commuting B does not mend it."""
    unipotent = _over_q3([[1, 1], [0, 1]])
    bendings = [b0_family("SU_split_a", 5, OM), tau(5, unipotent),
                tau(5, _over_q3([[0, 1], [-1, 0]]))]
    other_handle = ("a2", "b2") if stable[1] == "1" else ("a1", "b1")
    seen = set()
    for unbent_holds in (True, False):
        for b in bendings:
            spec = replace(_genus2_spec(5, b),
                           curve=CurveSpec("nonseparating", stable=stable))
            rho = dict(spec.assignment)
            if not unbent_holds:
                rho[other_handle[0]] = tau(5, unipotent)
                rho[other_handle[1]] = tau(5, unipotent.transpose())
                spec = replace(spec, assignment=dict(rho))
            rho[stable] = rho[stable] * b
            a1, b1, a2, b2 = (rho[g] for g in ("a1", "b1", "a2", "b2"))
            product = (a1 * b1 * a1.inverse() * b1.inverse()
                       * a2 * b2 * a2.inverse() * b2.inverse())
            holds = product.is_identity()
            assert relator_ok(spec).ok is holds
            commutes = spec.invariant_violations() == []
            assert holds is (unbent_holds and commutes)
            seen.add((unbent_holds, commutes))
    # every case is met: each stable letter has a commuting and a
    # non-commuting bending, with the unbent relator holding or not
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# the curve kind states the mode, and the spec refuses what does not fit it
@pytest.mark.parametrize("change, message", [
    ({"curve": CurveSpec("free", gamma_name="a1")}, "'curve.kind' must be"),
    ({"presentation": None}, "'curve.kind' must be"),
    ({"curve": CurveSpec("nonseparating"), "presentation": None},
     "'curve.kind' must be"),
    ({"curve": CurveSpec("separating", h=0)}, "'curve.h' must lie in 1..1 for genus 2"),
    ({"curve": CurveSpec("separating", h=2)}, "'curve.h' must lie in 1..1 for genus 2"),
    ({"b_matrix": b0_family("SU_split_a", 3, OM)}, "bending matrix is 3x3, not 5x5"),
    ({"curve": CurveSpec("nonseparating")},
     "'curve.stable' 's' is not a generator of the genus-2 surface"),
], ids=["free-with-presentation", "separating-without", "nonseparating-without",
        "h-0", "h-2", "3x3-at-n5", "stable-not-a-generator"])
def test_bending_spec_checks_itself(change, message):
    spec = _genus2_spec(5, b0_family("SU_split_a", 5, OM))
    with pytest.raises(ValueError, match=message):
        replace(spec, **change)


def test_relator_free_mode_flagged():
    g = GammaElement(3, 3, 2, 1, 0, 0)
    spec = BendingSpec(
        n=3, assignment={"g1": tau(3, g.matrix())},
        b_matrix=b0_family("SU_split_a", 3, OM),
        curve=CurveSpec("free", gamma_name="g1"),
        sl2_assignment={"g1": g.matrix()})
    check = relator_ok(spec)
    assert check.ok and "free mode" in check.detail


def test_bend_eval_homomorphism_in_free_mode():
    g1 = GammaElement(3, 3, 2, 1, 0, 0).matrix()
    g2 = GammaElement(3, 3, 2, 0, 1, 0).matrix()
    spec = BendingSpec(
        n=3, assignment={"g1": tau(3, g1), "g2": tau(3, g2)},
        b_matrix=b0_family("SU_split_a", 3, OM),
        curve=CurveSpec("free", gamma_name="g1"),
        sl2_assignment={"g1": g1, "g2": g2})
    u, v = "g1 g2", "g2^-1 g1"
    assert bend_eval(spec, u + " " + v) == bend_eval(spec, u) * bend_eval(spec, v)


def _free_spec(n, b_matrix, extra=()):
    gens = {"g1": GammaElement(3, 3, 2, 1, 0, 0).matrix(),
            "g2": GammaElement(3, 3, 2, 0, 1, 0).matrix()}
    for idx, g in enumerate(extra):
        gens[f"h{idx}"] = g
    return BendingSpec(
        n=n, assignment={k: tau(n, v) for k, v in gens.items()},
        b_matrix=b_matrix, curve=CurveSpec("free", gamma_name="g1"),
        sl2_assignment=gens)


def test_density_certificate_examples():
    ident = ExactMatrix.identity(3, like=ONE)
    assert not density_certificate(_free_spec(3, ident), "SLn").valid

    good = ExactMatrix.diagonal([OM ** 4, OM ** -2, OM ** -2])
    cert = density_certificate(_free_spec(3, good), "SLn")
    assert cert.valid
    assert cert.breaks == {"preserves_form": True, "tau_pgl2": True}
    assert cert.assumptions == ("Hitchin + Guichard classification",)

    geom = ExactMatrix.diagonal([OM ** 2, ONE, OM ** -2])
    cert = density_certificate(_free_spec(3, geom), "SLn")
    assert not cert.valid
    assert not cert.breaks["tau_pgl2"]


def test_density_certificate_targets():
    so_b = b0_family("SO_odd", 5, OM)
    cert = density_certificate(_free_spec(5, so_b), "SO")
    assert cert.valid and cert.required_breaks == ("tau_pgl2",)

    so7 = b0_family("SO_n7", 7, OM)
    cert7 = density_certificate(_free_spec(7, so7), "SO")
    assert cert7.valid and "in_g2" in cert7.required_breaks

    g2b = b0_family("G2", 7, OM)
    certg = density_certificate(_free_spec(7, g2b), "G2")
    assert certg.valid
    # the same matrix cannot certify full special-linear density: it is
    # orthogonal, so the form break is missing
    assert not density_certificate(_free_spec(7, g2b), "SLn").valid


def test_density_certificate_monotone_under_extra_generators():
    good = ExactMatrix.diagonal([OM ** 4, OM ** -2, OM ** -2])
    base = density_certificate(_free_spec(3, good), "SLn")
    extra = GammaElement(3, 3, 2, 0, -1, 0).matrix()
    bigger = density_certificate(_free_spec(3, good, extra=[extra]), "SLn")
    assert base.valid and bigger.valid


def _span_rank(w, c):
    """The rank of I, W and c as vectors of the 4-dimensional matrix space:
    the independent oracle of the eigenline-breaker test."""
    ident = ExactMatrix.identity(2, like=w[0, 0])
    return ExactMatrix([[e for row in m.entries for e in row]
                        for m in (ident, w, c)]).rank()


def test_eigenline_breaker_by_commutation_matches_the_span_rank():
    """g^-1 W g and W fail to commute exactly when I, W, g^-1 W g span a
    3-dimensional space: for hyperbolic, elliptic, parabolic and scalar W,
    and for the breaker the density evidence names."""
    rng = random.Random(16)
    ident = ExactMatrix.identity(2)
    special = [ident, -ident, T, T_INV, -T, ExactMatrix([[0, -1], [1, 0]]),
               ExactMatrix([[1, 0], [3, 1]])]
    for _ in range(300):
        w = rng.choice(special) if rng.random() < 0.5 else random_sl2q(rng)
        g = rng.choice(special) if rng.random() < 0.2 else random_sl2q(rng)
        c = g.inverse() * w * g
        assert (c * w != w * c) == (_span_rank(w, c) == 3)
    breakers = set()
    for _ in range(60):
        gens = {f"g{i}": rng.choice(special) if rng.random() < 0.3
                else random_sl2q(rng) for i in range(rng.randint(1, 3))}
        evidence = _sl2_density_evidence(gens)
        expected = None
        if evidence.witness_word is not None:
            w = evaluate_word(gens, parse_word(evidence.witness_word))
            expected = next((name for name, g in gens.items()
                             if _span_rank(w, g.inverse() * w * g) == 3), None)
        assert evidence.eigenline_breaker == expected
        breakers.add(expected)
    assert None in breakers and len(breakers) > 1


def test_density_certificate_needs_provenance():
    good = ExactMatrix.diagonal([OM ** 4, OM ** -2, OM ** -2])
    spec = BendingSpec(n=3, assignment={"g": tau(3, GammaElement(3, 3, 2, 1, 0, 0).matrix())},
                       b_matrix=good, curve=CurveSpec("free", gamma_name="g"))
    with pytest.raises(ValueError):
        density_certificate(spec, "SLn")


def distinct_bendings(b: ExactMatrix, k1: int, k2: int) -> bool:
    """Whether the k1-th and k2-th powers of the bending matrix differ;
    distinct powers give non-conjugate bent representations (for diagonal
    matrices of infinite multiplicative order commuting with the curve)."""
    if not b.is_diagonal():
        raise ValueError("bending matrices are diagonal")
    return b ** k1 != b ** k2


def test_distinct_bendings():
    b = ExactMatrix.diagonal([OM ** 4, OM ** -2, OM ** -2])
    assert distinct_bendings(b, 1, 2)
    assert not distinct_bendings(b, 2, 2)
    assert not distinct_bendings(ExactMatrix.identity(3, like=ONE), 1, 5)
    with pytest.raises(ValueError):
        distinct_bendings(tau(3, ExactMatrix([[1, 1], [0, 1]])), 1, 2)
