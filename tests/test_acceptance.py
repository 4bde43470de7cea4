"""Acceptance suite: one test per criterion, exact equality throughout,
with the stated runtime budget enforced.  Each test prints a single
PASS line with its timing (run pytest with -s to see them on success).
"""

import random
import time
from fractions import Fraction
from math import factorial

from hitchinforge.bender import (
    B0Kind,
    B0_EXPECTED_PROFILE,
    BendingSpec,
    CurveSpec,
    SurfacePresentation,
    b0_breaking_profile,
    b0_family,
    relator_ok,
)
from hitchinforge.exactnum import (
    ExactMatrix,
    FieldElem,
    field,
    fundamental_unit,
)
from hitchinforge.g2core import Vec7, cross7, in_g2
from hitchinforge.lattices import containment_check
from hitchinforge.modp import (
    find_nonsurjective_prime,
    group_closure,
    group_closure_and_traces,
    group_order_formula,
    omega4_elements,
    separation_certificate,
    sl_generators,
    sp_generators,
    su3_generators,
    trace_set,
)
from hitchinforge.qforms import Place, form_invariants
from hitchinforge.symrep import j_matrix, so_form_from_cocycle, tau
from conftest import random_sl2q, random_sl2z
from octonions import Octonion, oct_mul, oct_norm


class Budget:
    def __init__(self, name: str, limit: float):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            status = "PASS" if elapsed <= self.limit else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.name}: {status} "
                  f"[{elapsed:.2f}s / {self.limit:.0f}s]")
            assert elapsed <= self.limit, (
                f"{self.name} exceeded its {self.limit}s budget: {elapsed:.2f}s")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL "
                  f"[{time.monotonic() - self.start:.2f}s]")
        return False


def test_criterion_1_symmetric_power_suite():
    rng = random.Random(101)
    with Budget("1 symmetric-power suite", 10):
        for n in range(2, 9):
            j = j_matrix(n)
            mats = [random_sl2q(rng, entry_bound=50) for _ in range(100)]
            for m in mats:
                assert all(abs(e.numerator) <= 50 and e.denominator <= 50
                           for row in m.entries for e in row)
                im = tau(n, m)
                assert im.det() == 1
                assert im.transpose() * j * im == j
            for k in range(0, 100, 2):
                a, b = mats[k], mats[k + 1]
                assert tau(n, a * b) == tau(n, a) * tau(n, b)


def test_criterion_2_invariant_form_classification():
    with Budget("2 antidiagonal form invariants", 5):
        odd_primes = [p for p in range(3, 51)
                      if all(p % q for q in range(2, p))]
        # the form is symmetric exactly in odd dimension; the stated
        # signature/Hasse formulas are for n = 2k+1
        for n in range(3, 12, 2):
            inv = form_invariants(j_matrix(n))
            k = (n - 1) // 2
            assert inv.disc == 1
            if n % 4 == 1:
                assert inv.signature == (k + 1, k)
            else:
                assert inv.signature == (k, k + 1)
            for p in odd_primes:
                assert inv.hasse(Place.finite(p)) == 1
            expected_two = 1 if n % 8 in (1, 7) else -1
            assert inv.hasse(Place.finite(2)) == expected_two


def _display_diagonal(n, case, a, b):
    """The proof displays, extended entry-for-entry by the two-sided
    factorial rule."""
    k = (n - 1) // 2
    f = lambda j: factorial(n - j) * factorial(j - 1)
    out = []
    if case == "degree-2":
        out += [2 * f(j) for j in range(1, k + 1)]
        out.append(factorial(k) ** 2 if n % 4 == 1 else -a * factorial(k) ** 2)
        out += [-2 * a * f(j) for j in range(k, 0, -1)]
    elif n % 4 == 1:
        out += [(-2 * a if j % 2 else -2 * b) * f(j) for j in range(1, k + 1)]
        out.append(factorial(k) ** 2)
        out += [(2 if j % 2 else 2 * a * b) * f(j) for j in range(k, 0, -1)]
    else:
        out += [(-2 * b if j % 2 else 2) * f(j) for j in range(1, k + 1)]
        out.append(-a * factorial(k) ** 2)
        out += [(2 * a * b if j % 2 else -2 * a) * f(j) for j in range(k, 0, -1)]
    return out


def test_criterion_3_orthogonal_form_recipe():
    with Budget("3 orthogonal form recipe", 5):
        for n in (5, 7):
            for case in ("degree-2", "degree-4"):
                for a, b in ((3, 5), (2, 3), (5, 3), (3, 2)):
                    res = so_form_from_cocycle(n, a, b, case)
                    got = [Fraction(e) if isinstance(e, Fraction)
                           else e.rational_value()
                           for e in res.diagonal_matrix.diagonal_entries()]
                    assert got == _display_diagonal(n, case, a, b), (n, case, a, b)
                    # the closed-form Hasse match is asserted inside the
                    # construction; re-assert it was recorded at 2 and inf
                    assert Place.finite(2) in res.closed_form_hasse
                    assert Place.real() in res.closed_form_hasse


def test_criterion_4_containment():
    with Budget("4 norm-one lattice containment", 30):
        for n in (3, 5):
            report = containment_check(3, 3, n, height=4)
            assert report.failures == ()
            assert report.total == report.passed
            assert report.total == 186 * 2   # 186 elements, two sign patterns


def test_criterion_5_hilbert_symbol_oracle():
    from hitchinforge.qforms import (
        hasse_scan_places,
        hilbert_symbol,
        hilbert_symbol_oracle,
    )
    with Budget("5 local symbol oracle agreement", 60):
        odd_primes = [p for p in range(3, 31)
                      if all(p % q for q in range(2, p))]
        places = [Place.real(), Place.finite(2)] + [
            Place.finite(p) for p in odd_primes]
        for a in range(-30, 31):
            if a == 0:
                continue
            for b in range(-30, 31):
                if b == 0:
                    continue
                for v in places:
                    assert hilbert_symbol(a, b, v) == \
                        hilbert_symbol_oracle(a, b, v), (a, b, str(v))
                prod = 1
                for v in hasse_scan_places(a, b):
                    prod *= hilbert_symbol(a, b, v)
                assert prod == 1, (a, b)


B0_CASES = [
    ("SU_split_a", 5), ("SU_nonsplit", 5), ("SU_even_split", 4),
    ("SU_quat_even", 6), ("SO_odd", 5), ("SO_n7", 7), ("G2", 7), ("Sp", 4),
]


def test_criterion_6_bending_matrix_ledger():
    with Budget("6 bending matrix ledger", 10):
        unit = fundamental_unit(3).value   # doubles as theta where needed
        one = FieldElem.one(field(3))
        for name, n in B0_CASES:
            expected = B0_EXPECTED_PROFILE[B0Kind.from_name(name)]
            for k in range(1, 6):
                b = b0_family(name, n, unit, k)  # verifies membership, det
                assert b.det() == one
                assert b0_breaking_profile(name, b, n) == expected, (name, k)
        # the dimension-7 specifics called out explicitly:
        assert not in_g2(b0_family("SO_n7", 7, unit))
        assert in_g2(b0_family("G2", 7, unit))


def test_criterion_7_exceptional_suite():
    rng = random.Random(107)
    with Budget("7 exceptional-group suite", 10):
        def rvec():
            return Vec7([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(7)])
        for _ in range(200):
            v, w = rvec(), rvec()
            assert v.pair_j7(cross7(v, w)) == 0
            assert cross7(v, w).pair_j7(cross7(v, w)) == \
                v.pair_j7(v) * w.pair_j7(w) - v.pair_j7(w) ** 2
        for _ in range(100):
            p = Octonion(Fraction(rng.randint(-5, 5)), rvec())
            q = Octonion(Fraction(rng.randint(-5, 5)), rvec())
            assert oct_norm(oct_mul(p, q)) == oct_norm(p) * oct_norm(q)
        for _ in range(5):
            assert in_g2(tau(7, random_sl2z(rng)))


def test_criterion_8_finite_group_suite():
    with Budget("8 finite-group suite", 120):
        assert group_closure(sl_generators(2, 3)) == 24
        assert group_closure(sl_generators(2, 5)) == 120

        order, traces = group_closure_and_traces(sl_generators(3, 3))
        assert order == group_order_formula("SL", 3, 3) == 5616
        assert {t.x for t in traces} == set(range(3))

        order, traces = group_closure_and_traces(sl_generators(3, 5))
        assert order == group_order_formula("SL", 3, 5) == 372000
        assert {t.x for t in traces} == set(range(5))

        assert {t.x for t in trace_set("SL", 3, 2)} == set(range(2))

        su_gens, _, _ = su3_generators(3)
        order, traces = group_closure_and_traces(su_gens)
        assert order == group_order_formula("SU", 3, 3) == 6048
        assert len(traces) == 9   # all of the 9-element field

        order, traces = group_closure_and_traces(sp_generators(4, 3))
        assert order == group_order_formula("Sp", 4, 3) == 51840
        assert {t.x for t in traces} == set(range(3))

        for p in (3, 5):
            so_order, omega = omega4_elements(p)
            assert so_order == 2 * len(omega)
            assert {t.x for t in trace_set("Omega", 4, p)} == set(range(p))


def test_criterion_9_orbit_separation():
    with Budget("9 orbit separation", 30):
        cert5 = separation_certificate(
            3, b0_family("SU_split_a", 3, fundamental_unit(3).value), 5)
        assert len(cert5.poly_image) == 3
        assert cert5.b_order_verified and cert5.separates

        cert3 = separation_certificate(
            3, b0_family("SU_split_a", 3, fundamental_unit(2).value), 3)
        assert len(cert3.poly_image) == 2
        assert cert3.b_order_verified and cert3.separates

        p = find_nonsurjective_prime(5, bound=50)
        assert p is not None and p % 2 == 1


def test_criterion_10_bending_well_definedness():
    with Budget("10 bending well-definedness", 5):
        desc = field(3)
        om = fundamental_unit(3).value
        alpha = ExactMatrix([[0, 1], [-1, 0]]).map_entries(
            lambda e: FieldElem.from_rational(desc, e))
        beta = ExactMatrix.diagonal([om, om.inverse()])
        sl2 = {"a1": alpha, "b1": beta, "a2": beta, "b2": alpha}
        n = 5
        assignment = {k: tau(n, v) for k, v in sl2.items()}

        def spec_with(b):
            return BendingSpec(
                n=n, assignment=assignment, b_matrix=b,
                curve=CurveSpec("separating", h=1),
                presentation=SurfacePresentation(2), sl2_assignment=sl2)

        for kind in ("SU_split_a", "SO_odd"):
            for k in (1, 2):
                spec = spec_with(b0_family(kind, n, om, k))
                assert spec.invariant_violations() == []
                assert relator_ok(spec).ok
        noncommuting = tau(n, ExactMatrix([[1, 1], [0, 1]]).map_entries(
            lambda e: FieldElem.from_rational(desc, e)))
        bad = spec_with(noncommuting)
        assert bad.invariant_violations() != []
        assert not relator_ok(bad).ok
