import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from hitchinforge.bender import b0_family
from hitchinforge.exactnum import (
    ExactMatrix,
    FieldElem,
    field,
    fundamental_unit,
    preserves_form,
)
from hitchinforge.lattices import symplectic_form
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
    reduce_matrix,
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
from hitchinforge import exactnum, modp
from hitchinforge.modp import (
    DEFAULT_CLOSURE_CAP,
    _Chain,
    _non_residue,
    _omega4_schreier_generators,
    _traces,
    _walk,
    reduce_int_matrix,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_fq_elements_compare_within_one_field():
    assert FqElem(5, 1) != FqElem(7, 1) and FqElem(7, 1) != FqElem(5, 1)
    assert FqElem(5, 2) == FqElem(5, 2, 0, 3) and FqElem(5, 2, 1, 3) != FqElem(5, 2, 1, 2)
    with pytest.raises(ValueError, match="mixed characteristics"):
        FqElem(5, 1) + FqElem(7, 1)


@pytest.mark.parametrize("p, r2", [(7, None), (5, 2), (7, 3)])
def test_fq_norm_is_x_times_frobenius(p, r2):
    for x in range(p):
        for y in range(p if r2 else 1):
            e = FqElem(p, x, y, r2)
            assert e * e.frobenius() == e.norm()


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


def test_rationals_and_field_elements_reduce_into_one_field_at_an_inert_prime():
    """At the inert 7 a matrix of Fractions and elements of Q(sqrt(3))
    reduces into the one field F_49, and its order is the first power that
    is the identity."""
    s3 = FieldElem.sqrt_int(field(3), 3)
    red = reduce_matrix(ExactMatrix([[2 + s3, Fraction(1, 2)], [0, 2 - s3]]),
                        ReductionContext.build(7, 3))
    assert len({e.desc for row in red.entries for e in row}) == 1
    powers = [red]
    while not powers[-1].is_identity():
        powers.append(powers[-1] * red)
    assert matrix_order(red) == len(powers)


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


def _words(gens, length):
    """The distinct products of at most `length` generators, multiplied
    out as ExactMatrix products."""
    level = {ExactMatrix.identity(gens[0].nrows, like=gens[0].entries[0][0])}
    words = set(level)
    for _ in range(length):
        level = {m * g for m in level for g in gens} - words
        words |= level
    return words


WORD_SETS = {
    "SL2-5": (lambda: sl_generators(2, 5), 4),
    "SU3-3-first6": (lambda: su3_generators(3)[0][:6], 2),
    "Sp4-3": (lambda: sp_generators(4, 3), 2),
}


@pytest.mark.parametrize("name", list(WORD_SETS))
def test_word_walk_matches_matrix_products(name):
    build, length = WORD_SETS[name]
    gens = build()
    words = _words(gens, length)
    assert len(_walk(gens, modp._layout(gens), DEFAULT_CLOSURE_CAP, length)) == len(words)
    assert trace_set(gens, word_length=length) == {m.trace() for m in words}


def test_word_walk_cap():
    with pytest.raises(CapExceeded) as exc:
        trace_set_of_generators(sl_generators(3, 5), cap=10, word_length=5)
    assert exc.value.partial == 11


@pytest.mark.parametrize("gens, length", [(lambda: sl_generators(3, 5), 5),
                                          (lambda: su3_generators(3)[0], 2)],
                         ids=["SL3-5", "SU3-3"])
def test_word_walk_cap_boundary(gens, length):
    """A cap equal to the number of distinct words passes; one lower
    raises with that number as the partial count."""
    gens = gens()
    count = len(_words(gens, length))
    assert trace_set_of_generators(gens, cap=count, word_length=length)
    with pytest.raises(CapExceeded) as exc:
        trace_set_of_generators(gens, cap=count - 1, word_length=length)
    assert exc.value.partial == count


def test_negative_word_length():
    with pytest.raises(ValueError):
        trace_set_of_generators(sl_generators(2, 3), word_length=-1)
    assert trace_set_of_generators(sl_generators(2, 3), word_length=0) == {FqElem(3, 2)}


def _unipotent(p, r2=None):
    one, zero = FqElem(p, 1, 0, r2), FqElem(p, 0, 0, r2)
    return ExactMatrix([[one, one], [zero, one]])


REFUSED_GENERATORS = {
    "Fraction": lambda: [ExactMatrix([[1, Fraction(1, 2)], [0, 1]])],
    "FieldElem": lambda: [ExactMatrix([[1, FieldElem.sqrt_int(field(3), 3)], [0, 1]])],
    "two characteristics": lambda: [_unipotent(3), _unipotent(5)],
    "F_p next to F_p^2": lambda: [_unipotent(5), _unipotent(5, 2)],
    "empty": lambda: [],
}


@pytest.mark.parametrize("name", list(REFUSED_GENERATORS))
def test_closures_refuse_generators_not_over_one_finite_field(name):
    """Full closures, both trace sets and matrix_order raise one
    ValueError unless every entry is of one finite field.  matrix_order
    takes one matrix: the first generator's first row over the last
    one's second row, as no matrix is empty."""
    gens = REFUSED_GENERATORS[name]()
    calls = [group_closure, group_closure_and_traces, trace_set_of_generators,
             lambda g: trace_set_of_generators(g, word_length=2)]
    if gens:
        calls.append(lambda g: matrix_order(
            ExactMatrix([g[0].entries[0], g[-1].entries[1]])))
    for call in calls:
        with pytest.raises(ValueError, match="one ring with a kernel|one finite field"):
            call(gens)


MISSHAPEN_GENERATORS = {
    "3x3 then 4x4": lambda: [sl_generators(3, 5)[0], sl_generators(4, 5)[0]],
    "4x4 then 3x3": lambda: [sl_generators(4, 5)[0], sl_generators(3, 5)[0]],
    "2x3": lambda: _fq_matrices(5, [[1, 1, 0], [0, 1, 0]]),
}


@pytest.mark.parametrize("name", list(MISSHAPEN_GENERATORS))
def test_closures_refuse_generators_not_n_by_n_for_one_n(name):
    """Generators of two sizes, or one that is not square, are one
    ValueError from every closure entry point, not an order of the first
    generator's rows or an IndexError."""
    gens = MISSHAPEN_GENERATORS[name]()
    calls = [group_closure, group_closure_and_traces, trace_set_of_generators,
             lambda g: trace_set_of_generators(g, word_length=2)]
    if len(gens) == 1:
        calls.append(lambda g: matrix_order(g[0]))
    for call in calls:
        with pytest.raises(ValueError, match="n x n matrices for one n"):
            call(gens)


def test_a_word_trace_set_lays_out_its_generators_once(monkeypatch):
    """The 55 SU(3, 3) generators are scanned by one `_kernel` pass, for
    the walk and the trace decode together."""
    gens = su3_generators(3)[0]
    assert len(gens) == 55
    calls = []
    kernel = exactnum._kernel

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)
    monkeypatch.setattr(exactnum, "_kernel", counted)
    monkeypatch.setattr(modp, "_kernel", counted)
    assert trace_set_of_generators(gens, word_length=2) == trace_set(gens, word_length=2)
    assert calls == [55 * 3, 55 * 3]     # the call above, then trace_set's
    calls.clear()
    trace_set_of_generators(gens, word_length=2)
    assert calls == [55 * 3]


def test_matrix_order_computes_no_determinant(monkeypatch):
    """The chain alone refuses a singular matrix: it never sifts to the
    identity, so its residue reaches `_Chain._add`."""
    def no_det(self):
        raise AssertionError("matrix_order computed a determinant")
    monkeypatch.setattr(ExactMatrix, "det", no_det)
    assert matrix_order(_fq_matrices(7, [[0, -1], [1, 1]])[0]) == 6
    singular = _fq_matrices(5, [[1, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 2], [2, 4]],
                            [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for m in singular:
        with pytest.raises(ValueError, match="invertible"):
            matrix_order(m)


@pytest.mark.parametrize("build, word_length", [
    (lambda: sl_generators(3, 5), None), (lambda: sl_generators(3, 5), 3),
    (lambda: su3_generators(3)[0], None), (lambda: su3_generators(3)[0][:6], 2)],
    ids=["SL3-5", "SL3-5-words", "SU3-3", "SU3-3-words"])
def test_traces_are_the_layouts_interned_elements(build, word_length):
    """Every trace is decoded by the element table every entry is read
    from, keyed by its reduced code x + (y << width)."""
    gens = build()
    layout = modp._layout(gens)
    traces = trace_set_of_generators(gens, word_length=word_length)
    assert traces
    for t in traces:
        assert t is layout.element[t.x + (t.y << layout.width)]


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


@pytest.mark.parametrize("p, r2, n", [(5, None, 2), (5, None, 4), (3, 2, 3),
                                      (7, 3, 2), (3, None, 8)])
def test_row_action_is_the_matrix_product(p, r2, n):
    """The packed-integer row action agrees with ExactMatrix products, for
    one matrix and for three side by side in one sum."""
    rng = random.Random(5)
    layout = modp._LAYOUTS[p, r2, n]
    row_mask = (1 << layout.bits) - 1

    def fq():
        return FqElem(p, rng.randrange(p), rng.randrange(p) if r2 else 0, r2)

    def matrix(nrows):
        return ExactMatrix([[fq() for _ in range(n)] for _ in range(nrows)])
    for _ in range(5):
        ms = [matrix(n) for _ in range(3)]
        table = modp._Lazy(layout.product([layout.codes(ms[0].entries)]))
        stacked = layout.product([layout.codes(m.entries) for m in ms])
        for _ in range(40):
            row = matrix(1)
            code, = layout.codes(row.entries)
            assert layout.entries(code) == list(row.entries[0])
            images = [(row * m).entries[0] for m in ms]
            assert layout.entries(table[code]) == list(images[0])
            acc = stacked(code)
            assert [layout.entries(acc >> layout.bits * i & row_mask)
                    for i in range(3)] == [list(image) for image in images]
            assert acc >> 3 * layout.bits == 0


@pytest.mark.parametrize("p", [p for p in range(2, 32) if all(p % d for d in range(2, p))])
@pytest.mark.parametrize("degree", [1, 2])
def test_row_code_reduction_is_exact_on_every_field_value(p, degree):
    """For n = 1..16, top * mult fits in a field, mult and shift give
    v // p for every field value v up to top = dim * n * (p - 1)^2, and the
    one-step reduction of fields holding every such value, v next to
    top - v so that a borrow or carry across fields would show, leaves
    v mod p in each field."""
    for n in range(1, 17):
        layout = modp._Layout(p, 1 if degree == 2 else None, n)
        top = degree * n * (p - 1) ** 2
        assert layout.top == top and layout.fields == degree * n
        assert (top * layout.mult).bit_length() <= layout.width
        values = range(top + 1)
        assert all(v * layout.mult >> layout.shift == v // p for v in values)
        seq = [v for pair in zip(values, reversed(values)) for v in pair]
        reduce = layout.reduce[2]
        for at in range(0, len(seq), 2 * layout.fields):
            chunk = seq[at:at + 2 * layout.fields]
            reduced = reduce(sum(v << layout.width * f for f, v in enumerate(chunk)))
            assert [reduced >> layout.width * f & layout.mask
                    for f in range(len(chunk))] == [v % p for v in chunk]
            assert reduced >> layout.width * len(chunk) == 0


def _fq_matrices(p, *rows_list):
    return [reduce_int_matrix(ExactMatrix(rows), p) for rows in rows_list]


# The oracle grid: the breadth-first walk of the whole group is the slow
# reference for the stabilizer chain's order, elements and trace set.
ORACLE_GRID = {
    **{f"SL2-{q}": lambda q=q: sl_generators(2, q) for q in (3, 5, 7)},
    "SL3-3": lambda: sl_generators(3, 3),
    "SU3-3": lambda: su3_generators(3)[0],
    "Sp4-3": lambda: sp_generators(4, 3),
    "Omega4-3": lambda: _omega4_schreier_generators(3),
    "Omega4-5": lambda: _omega4_schreier_generators(5),
    "SO4-3": lambda: so4_generators(3),
    "SO4-5": lambda: so4_generators(5),
    "trivial": lambda: _fq_matrices(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    # a Singer cycle: one generator, one orbit of all 342 nonzero rows
    "cyclic": lambda: _fq_matrices(7, [[0, 1, 0], [0, 0, 1], [5, 1, 0]]),
    "unitriangular": lambda: _fq_matrices(
        5, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    "Borel": lambda: _fq_matrices(
        3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[2, 0, 0], [0, 1, 0], [0, 0, 2]], [[1, 0, 0], [0, 2, 0], [0, 0, 2]]),
}


def _decoded(m, layout):
    """The FqElem matrix of an element's row codes, its fields read with
    plain shifts, checked to encode back to the same codes."""
    n, w, dim = len(m), layout.width, layout.dim
    rows = []
    for code in m:
        assert code >> w * dim * n == 0
        values = [code >> w * f & (1 << w) - 1 for f in range(dim * n)]
        ys = values[1::2] if dim == 2 else [0] * n
        rows.append([FqElem(layout.p, x, y, layout.r2) for x, y in zip(values[::dim], ys)])
    matrix = ExactMatrix(rows)
    assert layout.codes(matrix.entries) == m
    return matrix


def _reference_traces(walked, layout):
    """The trace set of every walked element, with no early stop: one
    element per diagonal, its fields read with plain shifts, is decoded
    into an ExactMatrix and its trace taken there."""
    w, dim = layout.width, layout.dim
    diagonal = [(w * dim * (i + 1), w * dim * i) for i in range(len(layout.base))]
    firsts = {tuple(c % (1 << hi) >> lo for c, (hi, lo) in zip(m, diagonal)): m
              for m in walked}
    return frozenset(_decoded(m, layout).trace() for m in firsts.values())


def _assert_chain_matches_walk(gens):
    layout = modp._layout(gens)
    walked = _walk(gens, layout, DEFAULT_CLOSURE_CAP, DEFAULT_CLOSURE_CAP)
    chain = _Chain(gens, DEFAULT_CLOSURE_CAP)
    enumerated = list(chain.elements())
    assert chain.order == len(walked) == len(enumerated)
    assert set(enumerated) == walked
    assert group_closure(gens) == len(walked)
    traces = _reference_traces(walked, layout)
    assert _traces(walked, layout) == traces
    assert group_closure_and_traces(gens) == (len(walked), traces)
    assert trace_set_of_generators(gens) == traces


@pytest.mark.parametrize("name", list(ORACLE_GRID))
def test_chain_matches_walk(name):
    _assert_chain_matches_walk(ORACLE_GRID[name]())


def test_full_trace_set_stops_once_it_holds_all_of_the_field(monkeypatch):
    read = [0]
    elements = _Chain.elements

    def counted(chain):
        for m in elements(chain):
            read[0] += 1
            yield m
    monkeypatch.setattr(_Chain, "elements", counted)
    assert group_closure_and_traces(sl_generators(3, 5)) == (
        372000, frozenset(FqElem(5, a) for a in range(5)))
    assert read[0] <= 100
    # the unitriangular group has the one trace 3, so every element is read
    read[0] = 0
    assert group_closure_and_traces(ORACLE_GRID["unitriangular"]()) == (
        125, frozenset({FqElem(5, 3)}))
    assert read[0] == 125


def test_oracle_grid_orders():
    orders = {name: group_closure(build()) for name, build in ORACLE_GRID.items()}
    assert orders == {
        "SL2-3": 24, "SL2-5": 120, "SL2-7": 336, "SL3-3": 5616, "SU3-3": 6048,
        "Sp4-3": 51840, "Omega4-3": 288, "Omega4-5": 7200, "SO4-3": 576,
        "SO4-5": 14400, "trivial": 1, "cyclic": 342, "unitriangular": 125,
        "Borel": 108}


def _invertible_generators(p, r2, n):
    entry = st.builds(lambda x, y: FqElem(p, x, y, r2), st.integers(0, p - 1),
                      st.integers(0, p - 1) if r2 else st.just(0))
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n).map(ExactMatrix)
    return st.lists(matrix, min_size=1, max_size=3)


@pytest.mark.parametrize("p, r2, n", [(3, None, 2), (3, None, 3), (3, 2, 2)],
                         ids=["F3-n2", "F3-n3", "F9-n2"])
def test_chain_matches_walk_on_random_generators(p, r2, n):
    @given(_invertible_generators(p, r2, n))
    def check(gens):
        assume(all(g.det() != 0 for g in gens))
        _assert_chain_matches_walk(gens)
    check()


def test_singular_generator_is_refused():
    with pytest.raises(ValueError):
        group_closure(_fq_matrices(5, [[1, 1], [0, 1]], [[1, 1], [1, 1]]))


def test_full_closures_never_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a full closure walked")
    monkeypatch.setattr(modp, "_walk", no_walk)
    assert group_closure(sl_generators(3, 3)) == 5616
    assert group_closure_and_traces(sp_generators(4, 3))[0] == 51840
    assert len(trace_set("SL", 3, 3)) == 3
    assert len(trace_set("SU", 3, 3)) == 9
    assert len(trace_set("Omega", 4, 5)) == 5
    assert len(omega4_elements(3)[1]) == 288
    assert matrix_order(reduce_int_matrix(ExactMatrix([[0, -1], [1, 1]]), 7)) == 6


@pytest.mark.parametrize("family, n, p", [("SL", 3, 7), ("SL", 4, 3),
                                          ("SL", 4, 5), ("Sp", 4, 5)])
def test_orders_past_the_walks_reach(family, n, p):
    gens = sl_generators(n, p) if family == "SL" else sp_generators(n, p)
    order = group_order_formula(family, n, p)
    assert order > 5_000_000
    assert group_closure(gens, cap=order) == order
    with pytest.raises(CapExceeded) as exc:
        group_closure(gens, cap=order - 1)
    assert exc.value.partial == order


def test_omega_index_two():
    so_order, omega = omega4_elements(3)
    assert so_order == 576 and len(omega) == 288


def test_omega_index_two_check_refuses_wrong_generators(monkeypatch):
    monkeypatch.setattr(modp, "_omega4_schreier_generators",
                        lambda p: so4_generators(p)[:1])
    with pytest.raises(AssertionError):
        omega4_elements(3)
    with pytest.raises(AssertionError):
        trace_set("Omega", 4, 3)


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


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_sp_generators_are_symplectic_transvections(n, p):
    form = reduce_int_matrix(symplectic_form(n), p)
    ident = ExactMatrix.identity(n, like=FqElem(p, 1))
    for g in sp_generators(n, p):
        assert g.det() == 1
        assert preserves_form(g, form)
        assert (g - ident).rank() == 1


def test_trace_sets_match_lemmas():
    assert {t.x for t in trace_set("SL", 2, 3)} == {0, 1, 2}
    assert len(trace_set("SU", 3, 3)) == 9
    assert {t.x for t in trace_set("Sp", 4, 3)} == {0, 1, 2}
    assert {t.x for t in trace_set("Omega", 4, 3)} == {0, 1, 2}


BAD_FAMILY_INPUTS = [("SL", 2, 4), ("Sp", 4, 9), ("Omega", 4, 9),
                     ("SL", 3, -3), ("SL", 1, 7), ("SU", 3, 2),
                     ("SP", 4, 3), ("Sp", 3, 3), ("SU", 4, 3), ("Omega", 3, 5)]


@pytest.mark.parametrize("family, n, p", BAD_FAMILY_INPUTS)
def test_trace_set_and_witness_share_the_family_check(family, n, p):
    with pytest.raises(ValueError) as from_set:
        trace_set(family, n, p)
    with pytest.raises(ValueError) as from_witness:
        trace_witness(family, n, p, 1)
    assert str(from_set.value) == str(from_witness.value)


@pytest.mark.parametrize("build, args", [
    (sl_generators, (2, 4)), (sl_generators, (1, 5)), (sl_generators, (3, -3)),
    (sp_generators, (3, 5)), (sp_generators, (4, 9)),
    (su3_generators, (2,)), (su3_generators, (9,)),
], ids=["SL-2-4", "SL-1-5", "SL-3-neg3", "Sp-3-5", "Sp-4-9", "SU-2", "SU-9"])
def test_public_builders_check_their_family(build, args):
    """Z/4 is not a field, so SL(2, Z/4) generators would close on 48
    elements against the formula's 60; a 3x3 symplectic form is
    degenerate."""
    with pytest.raises(ValueError):
        build(*args)


# each replacement for _block_witness breaks one witness equation
BROKEN_WITNESSES = {
    "trace": ("SL", 3, 5, 1, "ExactMatrix.identity(n, like=modp.FqElem(p, 1))"),
    "det": ("SL", 3, 5, 1, "ExactMatrix.identity(n, like=modp.FqElem(p, 1)) * 2"),
    "form": ("Sp", 4, 5, 4, "modp.reduce_int_matrix(ExactMatrix("
             "[[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), p)"),
}


@pytest.mark.parametrize("family, n, p, a, matrix", BROKEN_WITNESSES.values(),
                         ids=list(BROKEN_WITNESSES))
def test_witness_check_survives_optimised_python(family, n, p, a, matrix):
    """Under python -O a bare assert vanishes; the witness verification
    must still refuse a matrix that fails one of its equations."""
    code = (
        "from hitchinforge import modp\n"
        "from hitchinforge.exactnum import ExactMatrix\n"
        f"modp._block_witness = lambda n, p, a: {matrix}\n"
        "try:\n"
        f"    modp.trace_witness({family!r}, {n}, {p}, {a})\n"
        "except AssertionError:\n"
        "    print('refused')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout == "refused\n"


def test_trace_witness_sl():
    w = trace_witness("SL", 2, 7, 4)
    assert w.matrix == ExactMatrix([[FqElem(7, 4), FqElem(7, 1)],
                                    [FqElem(7, -1), FqElem(7, 0)]])
    assert w.trace == FqElem(7, 4)
    for n in (3, 5):
        for a in range(7):
            assert trace_witness("SL", n, 7, a).trace == FqElem(7, a)
    # a rational target is taken through its residue, as reduce_scalar does
    assert trace_witness("SL", 2, 5, Fraction(1, 2)).trace == FqElem(5, 3)
    assert trace_witness("SU", 3, 3, Fraction(1, 2)).trace == FqElem(3, 1, 0, 2)


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


def test_separation_certificate_finds_the_radicand_by_value():
    b = b0_family("SU_split_a", 3, fundamental_unit(3).value)
    assert separation_certificate(3, b.lift(field(2, 3)), 11) == separation_certificate(3, b, 11)
    sqrt2 = FieldElem.sqrt_int(field(2, 3), 2)
    for m in (ExactMatrix.identity(3), b.lift(field(2, 3)) * sqrt2):
        with pytest.raises(ValueError, match="exactly one quadratic irrationality"):
            separation_certificate(3, m, 11)


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
