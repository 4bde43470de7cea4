import random
from fractions import Fraction

import pytest

from hitchinforge.bender import b0_family
from hitchinforge.exactnum import ExactMatrix, FieldElem, field, fundamental_unit
from hitchinforge.modp import (
    CapExceeded,
    FqElem,
    ReductionContext,
    find_nonsurjective_prime,
    group_closure,
    group_order_formula,
    matrix_order,
    group_closure_and_traces,
    omega4_elements,
    reduce_scalar,
    separation_certificate,
    sl_generators,
    so4_generators,
    so4_order,
    sp_generators,
    su3_generators,
    trace_set,
    trace_set_of_generators,
    trace_witness,
)
from hitchinforge.modp import _non_residue


def test_fq_arithmetic():
    a = FqElem(7, 3)
    assert a + 5 == FqElem(7, 1)
    assert a * a == FqElem(7, 2)
    assert (a / a) == FqElem(7, 1)
    b = FqElem(5, 2, 1, 3)     # 2 + r with r^2 = 3 over F_5
    assert b * b == FqElem(5, 7, 4, 3)
    assert b * b.inverse() == FqElem(5, 1, 0, 3)
    assert b.frobenius() == FqElem(5, 2, -1, 3)
    assert (b ** 24) == FqElem(5, 1, 0, 3)   # F_25 multiplicative order


def test_fq_equals_rationals_through_their_residue():
    x = FqElem(5, 3)
    assert x == 3 and x == 8 and x == Fraction(3) and x == Fraction(1, 2)
    assert Fraction(3) == x and Fraction(-7, 1) == x
    assert x != Fraction(3, 5) and Fraction(3, 5) != x
    assert x != Fraction(1, 3) and FqElem(3, 0, 1, r2=2) != Fraction(0)
    ident = ExactMatrix.identity(2, like=x)
    assert ident == ExactMatrix.identity(2) and ExactMatrix.identity(2) == ident


def test_reduction_context_modes():
    ctx = ReductionContext.build(11, 3)
    assert ctx.mode == "split" and ctx.root == 5
    assert ReductionContext.build(5, 3).mode == "inert"
    with pytest.raises(ValueError):
        ReductionContext.build(3, 3)
    with pytest.raises(ValueError):
        ReductionContext.build(2, 3)


def test_reduce_examples():
    d = field(3)
    x = FieldElem(d, [Fraction(2), Fraction(1)])
    assert reduce_scalar(x, ReductionContext.build(11, 3)) == FqElem(11, 7)
    assert reduce_scalar(7, ReductionContext.build(5, 3)) == FqElem(5, 2)
    inert = reduce_scalar(x, ReductionContext.build(5, 3))
    assert (inert.x, inert.y) == (2, 1) and inert.degree == 2


def test_reduce_is_ring_homomorphism(rng):
    d = field(3)
    for p in (5, 7, 11, 13):
        ctx = ReductionContext.build(p, 3)
        for _ in range(15):
            x = FieldElem(d, [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4]))
                              for _ in range(2)])
            y = FieldElem(d, [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4]))
                              for _ in range(2)])
            assert reduce_scalar(x * y, ctx) == reduce_scalar(x, ctx) * reduce_scalar(y, ctx)
            assert reduce_scalar(x + y, ctx) == reduce_scalar(x, ctx) + reduce_scalar(y, ctx)


def test_reduce_denominator_failure():
    ctx = ReductionContext.build(5, 3)
    with pytest.raises(ZeroDivisionError):
        reduce_scalar(Fraction(1, 5), ctx)


def test_group_closure_examples():
    ident = ExactMatrix([[FqElem(3, 1), FqElem(3, 0)],
                         [FqElem(3, 0), FqElem(3, 1)]])
    assert group_closure([ident]) == 1
    e = ExactMatrix([[FqElem(3, 1), FqElem(3, 1)], [FqElem(3, 0), FqElem(3, 1)]])
    f = ExactMatrix([[FqElem(3, 1), FqElem(3, 0)], [FqElem(3, 1), FqElem(3, 1)]])
    assert group_closure([e, f]) == 24
    assert group_closure(sl_generators(3, 3)) == 5616


def test_group_closure_cap():
    with pytest.raises(CapExceeded) as exc:
        group_closure(sl_generators(3, 3), cap=100)
    assert exc.value.partial == 101


def test_word_walk_cap():
    with pytest.raises(CapExceeded) as exc:
        trace_set_of_generators(sl_generators(3, 5), cap=10, word_length=5)
    assert exc.value.partial == 11


def test_order_formulas():
    assert group_order_formula("SL", 3, 5) == 372000
    assert group_order_formula("SL", 3, 3) == 5616
    assert group_order_formula("SU", 3, 3) == 6048
    assert group_order_formula("Sp", 4, 3) == 51840


def test_closures_match_formulas_small():
    for q in (3, 5, 7):
        assert group_closure(sl_generators(2, q)) == group_order_formula("SL", 2, q)
    su_gens, _, _ = su3_generators(3)
    assert group_closure(su_gens) == group_order_formula("SU", 3, 3)
    assert group_closure(sp_generators(4, 3)) == group_order_formula("Sp", 4, 3)


def test_omega_index_two():
    so_order, omega = omega4_elements(3)
    assert so_order == 576 and len(omega) == 288


@pytest.mark.parametrize("p", [3, 5])
def test_omega_matches_commutator_closure(p):
    # Omega(4, p) by definition: the group generated by the commutators
    # [g, h] of SO(I_4, F_p) generators, multiplied out as exact matrices
    gens = so4_generators(p)
    comms = [g * h * g.inverse() * h.inverse() for g in gens for h in gens]
    order, traces = group_closure_and_traces(comms)
    assert order == so4_order(p) // 2 == len(omega4_elements(p)[1])
    assert traces == trace_set("Omega", 4, p)


@pytest.mark.parametrize("p", [3, 5])
def test_so4_generators_generate_so(p):
    assert group_closure(so4_generators(p)) == so4_order(p)


def test_trace_sets_match_lemmas():
    assert {t.x for t in trace_set("SL", 2, 3)} == {0, 1, 2}
    assert len(trace_set("SU", 3, 3)) == 9
    assert {t.x for t in trace_set("Sp", 4, 3)} == {0, 1, 2}
    assert {t.x for t in trace_set("Omega", 4, 3)} == {0, 1, 2}


def test_trace_witness_sl():
    w = trace_witness("SL", 2, 7, 4)
    assert w.matrix == ExactMatrix([[FqElem(7, 4), FqElem(7, 1)],
                                    [FqElem(7, -1), FqElem(7, 0)]])
    assert w.trace == FqElem(7, 4)
    for n in (3, 5):
        for a in range(7):
            assert trace_witness("SL", n, 7, a).trace == FqElem(7, a)


def test_trace_witness_su():
    p = 3
    r2 = _non_residue(p)
    a = FqElem(p, 0, 1, r2)
    w = trace_witness("SU", 3, p, a)
    assert w.trace == a - 1
    frob = w.matrix.map_entries(FqElem.frobenius)
    assert frob.transpose() * w.form * w.matrix == w.form
    # every target value is realized as some witness trace
    values = {trace_witness("SU", 3, p, FqElem(p, x, y, r2)).trace
              for x in range(p) for y in range(p)}
    assert len(values) == p * p


def test_trace_witness_omega():
    w = trace_witness("Omega", 4, 5, 1)
    assert w.trace == FqElem(5, 2)           # -2*1 + 4
    assert w.matrix.transpose() * w.form * w.matrix == w.form
    with pytest.raises(ValueError):
        trace_witness("Omega", 4, 5, 0)
    # witness traces are really attained inside the commutator subgroup
    omega_traces = {t.x for t in trace_set("Omega", 4, 5)}
    for a in range(1, 5):
        assert trace_witness("Omega", 4, 5, a).trace.x in omega_traces


def test_trace_witness_sp():
    w = trace_witness("Sp", 4, 3, 2)
    assert w.trace == FqElem(3, 2)
    assert w.matrix.transpose() * w.form * w.matrix == w.form


def test_matrix_order():
    m = ExactMatrix([[FqElem(7, 0), FqElem(7, -1)], [FqElem(7, 1), FqElem(7, 0)]])
    assert matrix_order(m) == 4


@pytest.mark.parametrize("p, r2", [(5, None), (3, 2)])
def test_matrix_order_is_least_power_to_identity(p, r2):
    """F_5 and F_9: the walk's order is the least k > 0 with m**k = 1, and
    a singular matrix is refused."""
    rng = random.Random(11)
    coords = [(x, y) for x in range(p) for y in range(p if r2 else 1)]
    orders, singular = [], 0
    while len(orders) < 8:
        n = rng.choice([2, 3])
        m = ExactMatrix([[FqElem(p, *rng.choice(coords), r2) for _ in range(n)]
                         for _ in range(n)])
        if m.det() == 0:
            singular += 1
            with pytest.raises(ValueError):
                matrix_order(m)
            continue
        ident = ExactMatrix.identity(n, like=m[0, 0])
        k, power = 1, m
        while power != ident:
            k, power = k + 1, power * m
        assert matrix_order(m) == k
        orders.append(k)
    assert singular and len(set(orders)) > 2


def brute_poly_image(coeffs, p):
    out = set()
    for t in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * t + c) % p
        out.add(acc)
    return out


def test_separation_certificate_examples():
    om = fundamental_unit(3).value
    b3 = b0_family("SU_split_a", 3, om)
    cert = separation_certificate(3, b3, 5)
    assert set(cert.poly_image) == brute_poly_image((-1, 0, 1), 5) == {0, 3, 4}
    assert cert.separates and cert.mode == "inert"

    om2 = fundamental_unit(2).value
    cert3 = separation_certificate(3, b0_family("SU_split_a", 3, om2), 3)
    assert set(cert3.poly_image) == {0, 2}
    assert cert3.separates

    b2 = ExactMatrix.diagonal([om, om.inverse()])
    cert2 = separation_certificate(2, b2, 7)
    assert not cert2.image_is_proper and not cert2.separates


def test_separation_orders_verified_small_primes():
    om = fundamental_unit(3).value
    families = [("SU_split_a", 3), ("SU_nonsplit", 5), ("SU_even_split", 4),
                ("SU_quat_even", 4), ("SO_odd", 5), ("SO_n7", 7),
                ("G2", 7), ("Sp", 4)]
    for name, n in families:
        b = b0_family(name, n, om)
        for p in (5, 7, 11, 13):
            cert = separation_certificate(n, b, p, word_length=2)
            assert cert.b_order_verified
            assert cert.sample_inside_image


def test_find_nonsurjective_prime():
    assert find_nonsurjective_prime(5) == 3
    assert find_nonsurjective_prime(2) is None
