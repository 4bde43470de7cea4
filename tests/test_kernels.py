"""The dot-product kernels behind ExactMatrix products, g2core and tau:
each fused kernel (Q, one multiquadratic field, one finite field) against
the generic loop `_dot` defined here, entrywise and in canonical form; the
scan that picks a kernel and the mixes it refuses; interned field
descriptors; and tau against the expansion in ring operations that it
replaced.  Every kernel any test here picks through a product or tau is a
ring's descriptor: a FieldDescriptor (Q's `_RATIONALS` among them) or an
FqDescriptor."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import partial
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

from hitchinforge import exactnum, g2core
from hitchinforge.bender import b0_family
from hitchinforge.exactnum import (
    ExactMatrix,
    FieldDescriptor,
    FieldElem,
    GaloisAction,
    _RATIONALS,
    _kernel,
    _products,
    apply_galois,
    field,
    fundamental_unit,
    in_group,
)
from hitchinforge import symrep
from hitchinforge.exactnum import preserves_form
from hitchinforge.g2core import J7, Vec7, cross7, in_g2
from hitchinforge.lattices import containment_check
from hitchinforge import modp
from hitchinforge.modp import FqDescriptor, FqElem, trace_witness
from hitchinforge.quatalg import QuatAlgebra
from hitchinforge.symrep import j_matrix, so_form_from_cocycle, tau
from test_elimination import _calls
from test_exactnum import _frobenius_case, _galois_case, scalar_preserves_form

RINGS = {"Q": field(), "Q(sqrt3)": field(3), "Q(sqrt2,sqrt3)": field(2, 3)}
KERNELS = (FieldDescriptor, FqDescriptor)

# zeros, small rationals with mixed denominators, and large ones
COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)),
)


def scalars(desc):
    """Fractions over Q, FieldElems of desc otherwise; a fifth are zero."""
    if not desc.radicands:
        elem = COEFFS
    else:
        elem = st.lists(COEFFS, min_size=desc.dim, max_size=desc.dim).map(
            lambda c: FieldElem(desc, c))
    return st.one_of(elem, elem, elem, elem, st.just(
        Fraction(0) if not desc.radicands else FieldElem.zero(desc)))


def matrices(desc, nrows, ncols):
    """nrows x ncols entries, sometimes with a whole zero row or column."""
    zero = Fraction(0) if not desc.radicands else FieldElem.zero(desc)
    return blanked_matrices(scalars(desc), zero, nrows, ncols)


def blanked_matrices(entries, zero, nrows, ncols):
    """nrows x ncols draws of entries, sometimes with a whole zero row or
    column."""
    rows = st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)

    def blank(rows, what):
        kind, k = what
        if kind == "row":
            rows[k % nrows] = [zero] * ncols
        elif kind == "col":
            for row in rows:
                row[k % ncols] = zero
        return rows

    return st.tuples(rows, st.tuples(st.sampled_from(["row", "col", None]),
                                     st.integers(0, 8))).map(lambda a: blank(*a))


def shapes():
    return st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


def assert_canonical(x):
    if isinstance(x, Fraction):
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        return
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.nums)
    assert gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.den == 1


def _dot(row, col):
    """The generic loop: a dot product in ring operations alone, the
    oracle of every fused kernel."""
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def generic(rows, cols):
    return tuple(tuple(_dot(r, c) for c in cols) for r in rows)


@pytest.fixture(autouse=True)
def kernels_are_never_none(monkeypatch):
    """Every product and every tau in this module picks a descriptor as
    its kernel or raises: `_kernel` never answers None."""
    def checked(vectors):
        kernel = _kernel(vectors)
        assert isinstance(kernel, KERNELS)
        return kernel

    monkeypatch.setattr(exactnum, "_kernel", checked)
    monkeypatch.setattr(symrep, "_kernel", checked)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_fused_kernel_matches_generic_loop(name):
    desc = RINGS[name]

    @given(shapes().flatmap(lambda s: st.tuples(matrices(desc, s[0], s[1]),
                                                matrices(desc, s[1], s[2]))))
    def check(pair):
        a, b = pair
        cols = list(zip(*b))
        # Q's kernel on Fractions is _RATIONALS; field() builds FieldElems
        assert _kernel((*a, *cols)) is (desc if desc.radicands else _RATIONALS)
        got = _products(a, b)
        want = generic(a, cols)
        assert got == want
        for row_got, row_want in zip(got, want):
            for x, y in zip(row_got, row_want):
                assert type(x) is type(y)
                assert_canonical(x)
                if isinstance(x, FieldElem):
                    assert x.desc is desc and (x.nums, x.den) == (y.nums, y.den)
        assert (ExactMatrix(a) * ExactMatrix(b)).entries == tuple(map(tuple, want))
    check()


def test_a_product_builds_one_field_element_per_entry(monkeypatch):
    desc = field(2, 3)
    m = ExactMatrix([[FieldElem(desc, [i + j, Fraction(1, i + 2), 0, Fraction(-j, 1 + i * j)])
                      for j in range(3)] for i in range(3)])
    built = []
    init = FieldElem.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(FieldElem, "__init__", counting)
    product = m * m
    monkeypatch.undo()
    assert len(built) == 9
    assert product.entries == tuple(map(tuple, generic(m.entries, list(zip(*m.entries)))))


@pytest.mark.parametrize("p, r2", [(5, None), (3, 2)])
def test_a_warm_finite_field_product_builds_no_element(monkeypatch, p, r2):
    """Its entries are the layout's interned FqElems: equal and hash-equal
    to fresh ones, and as frozen."""
    m = ExactMatrix([[FqElem(p, i + 2 * j, 0 if r2 is None else i * j + 1, r2)
                      for j in range(3)] for i in range(3)])
    want = generic(m.entries, list(zip(*m.entries)))
    m * m  # fills the element table
    built = []
    post_init = FqElem.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(FqElem, "__post_init__", counting)
    product = m * m
    monkeypatch.undo()
    assert built == []
    for row_got, row_want in zip(product.entries, want):
        for x, y in zip(row_got, row_want):
            fresh = FqElem(p, x.x, x.y, r2)
            assert x == fresh and hash(x) == hash(fresh)
            assert fq_coordinates(x) == fq_coordinates(y)
    shared = product.entries[0][0]
    assert (m * m).entries[0][0] is shared
    with pytest.raises(FrozenInstanceError):
        shared.x = 0
    assert fq_coordinates(shared) == fq_coordinates(want[0][0])


def test_a_large_field_interns_a_bounded_number_of_elements():
    p, rng = 1000003, random.Random(3)

    def matrix():
        return ExactMatrix([[FqElem(p, rng.randrange(p)) for _ in range(3)] for _ in range(3)])
    for _ in range(modp._INTERNED // 9 + 20):
        a, b = matrix(), matrix()
        assert (a * b).entries == tuple(map(tuple, generic(a.entries, list(zip(*b.entries)))))
    assert len(modp._LAYOUTS[p, None, 3].element) == modp._INTERNED


def test_mixed_fraction_and_field_matrix_takes_the_field_kernel():
    s3 = FieldElem.sqrt_int(field(3), 3)
    m = ExactMatrix([[1, s3], [Fraction(1, 2), 3]])
    cols = list(zip(*m.entries))
    assert _kernel((*m.entries, *cols)) is field(3)
    got = (m * m).entries
    assert got == tuple(map(tuple, generic(m.entries, cols)))
    # a product that mixes Fractions with one field's elements is a matrix
    # over that field, even where every term was rational
    assert all(type(x) is FieldElem and x.desc is field(3) for row in got for x in row)


FIELDS = ["Q(sqrt3)", "Q(sqrt2,sqrt3)"]


@pytest.mark.parametrize("order", ["rational x field", "field x rational"])
@pytest.mark.parametrize("name", FIELDS)
def test_rational_and_field_product_takes_the_field_kernel(name, order):
    desc = RINGS[name]
    q = field()

    def pair(s):
        first, second = (q, desc) if order == "rational x field" else (desc, q)
        return st.tuples(matrices(first, s[0], s[1]), matrices(second, s[1], s[2]))

    @given(shapes().flatmap(pair))
    def check(ab):
        a, b = ab
        cols = list(zip(*b))
        assert _kernel((*a, *cols)) is desc
        got = _products(a, b)
        assert got == generic(a, cols)
        for x in sum(got, ()):
            assert type(x) is FieldElem and x.desc is desc
            assert_canonical(x)
        assert (ExactMatrix(a) * ExactMatrix(b)).entries == tuple(map(tuple, got))
    check()


@pytest.mark.parametrize("name", FIELDS)
def test_tau_of_mixed_input_takes_the_field_kernel(name):
    desc = RINGS[name]

    @given(st.lists(st.one_of(scalars(desc), COEFFS), min_size=4, max_size=4),
           st.integers(1, 7))
    def check(abcd, n):
        m = ExactMatrix([abcd[:2], abcd[2:]])
        if not m.det() or all(type(x) is Fraction for x in abcd):
            return
        assert _kernel(m.entries) is desc
        got = tau(n, m)
        assert got == reference_tau(n, m)
        for x in sum(got.entries, ()):
            assert type(x) is FieldElem and x.desc is desc
            assert_canonical(x)
    check()


NO_KERNEL = "not of one ring with a kernel"


def test_other_mixes_are_refused():
    half, one = Fraction(1, 2), Fraction(1)
    s2, s3 = FieldElem.sqrt_int(field(2), 2), FieldElem.sqrt_int(field(3), 3)
    own = FieldElem(FieldDescriptor((3,)), [1, 1])
    f5 = FqElem(5, 2)
    # Fractions with an FqElem, two fields, F_p with F_p^2; each from
    # either end of the scan
    f9 = FqElem(5, 1, 1, 2)
    for vectors in [((half, f5), (f5, one)), ((f5, half), (one, f5)),
                    ((half, s2), (s3, one)), ((s2, s3), (half, one)), ((s3, half), (one, s2)),
                    ((f5, f9), (f9, f5))]:
        for mixed in (vectors, [(half, one), *vectors]):
            with pytest.raises(ValueError, match=NO_KERNEL):
                _kernel(mixed)
    # Fractions with a descriptor that is not interned take its own kernel
    for vectors in [((half, own), (own, one)), ((own, half), (one, own))]:
        assert _kernel(vectors) is own.desc, vectors
        assert _kernel([(half, one), *vectors]) is own.desc, vectors
    assert _kernel([(half, s3), (s3, one)]) is field(3)
    # a matrix may hold a mix, but its products are refused
    for a in [ExactMatrix([[half, f5], [f5, 3]]), ExactMatrix([[s2, s3], [half, one]])]:
        with pytest.raises(ValueError, match=NO_KERNEL):
            a * a
    with pytest.raises(ValueError, match=NO_KERNEL):
        tau(3, ExactMatrix([[half, f5], [one, f5]]))


def recorded_kernels(monkeypatch):
    """The kind of every kernel picked from now on, by ExactMatrix products
    and by tau."""
    kinds = []

    def recording(vectors):
        kernel = _kernel(vectors)
        kinds.append(type(kernel))
        return kernel

    monkeypatch.setattr(exactnum, "_kernel", recording)
    monkeypatch.setattr(symrep, "_kernel", recording)
    return kinds


@pytest.mark.parametrize("call", [
    "preserves_form", "containment_check", "so_form degree-2", "so_form degree-4"])
def test_rational_data_meets_a_field_on_its_kernel(monkeypatch, call):
    s3 = FieldElem.sqrt_int(field(3), 3)
    m = ExactMatrix([[2 + s3, 1], [0, 2 - s3]])
    run = {
        "preserves_form": lambda: preserves_form(tau(5, m), j_matrix(5)),
        "containment_check": lambda: containment_check(3, 3, 5, height=1).all_passed,
        "so_form degree-2": lambda: so_form_from_cocycle(5, 3, 1, "degree-2"),
        "so_form degree-4": lambda: so_form_from_cocycle(5, 2, 3, "degree-4"),
    }[call]
    kinds = recorded_kernels(monkeypatch)
    assert run()
    assert kinds and all(issubclass(kind, FieldDescriptor) for kind in kinds)


def test_equal_but_distinct_descriptors_share_the_first_kernel():
    own = FieldDescriptor((3,))
    assert own == field(3) and own is not field(3)
    a = ExactMatrix([[FieldElem(own, [1, 2]), FieldElem(own, [0, Fraction(1, 3)])],
                     [FieldElem(own, [5, -1]), FieldElem(own, [Fraction(2, 7), 0])]])
    b = a.map_entries(lambda e: FieldElem(field(3), e.coeffs))
    cols = list(zip(*b.entries))
    assert _kernel((*a.entries, *cols)) is own
    assert _kernel((*b.entries, *zip(*a.entries))) is field(3)
    assert (a * b).entries == tuple(map(tuple, generic(a.entries, cols)))
    assert all(x.desc is own for x in sum((a * b).entries, ()))
    assert a * b == b * b  # equal values whichever kernel ran
    assert b * a == a * a
    assert _kernel((*a.entries, *zip(*a.entries))) is own


@pytest.mark.parametrize("ring", ["F9", "quaternion"])
def test_finite_field_and_quaternion_products_match_the_generic_loop(ring):
    """F_9 products match the loop; a quaternion matrix is refused by the
    constructor, since no kernel multiplies quaternions."""
    if ring == "F9":
        make = lambda x, y: FqElem(3, x, y, r2=2)  # noqa: E731
    else:
        alg = QuatAlgebra(3, 5)
        make = lambda x, y: alg(x, y, x - y, Fraction(y, 2))  # noqa: E731
    a_rows = [[make(i + j, i * j + 1) for j in range(3)] for i in range(2)]
    b_rows = [[make(i - j, 2 * j) for j in range(2)] for i in range(3)]
    if ring == "quaternion":
        for rows in (a_rows, b_rows):
            with pytest.raises(ValueError, match="ring with a kernel"):
                ExactMatrix(rows)
        return
    a, b = ExactMatrix(a_rows), ExactMatrix(b_rows)
    cols = list(zip(*b.entries))
    assert _kernel((*a.entries, *cols)) is a_rows[0][0].desc
    assert (a * b).entries == tuple(map(tuple, generic(a.entries, cols)))


@pytest.mark.parametrize("entry", [QuatAlgebra(3, 5)(1), QuatAlgebra(2, 3)(0, 1, 1, 0),
                                   "1", None], ids=["alg(1)", "alg(i+j)", "str", "None"])
def test_a_matrix_refuses_an_entry_with_no_kernel(entry):
    for rows in ([[entry]], [[1, 0], [0, entry]], [[Fraction(1, 2), entry]]):
        with pytest.raises(ValueError, match="ring with a kernel"):
            ExactMatrix(rows)
    alg = QuatAlgebra(3, 5)
    with pytest.raises(ValueError, match="ring with a kernel"):
        ExactMatrix.identity(2, like=alg(1))


# F_p and F_p[r]/(r^2 - 2): 2 is not a square mod 3, 5 or 101
FINITE_FIELDS = [(p, r2) for p in (3, 5, 101) for r2 in (None, 2)]


def fq_scalars(p, r2):
    """FqElems from unreduced coordinates; a quarter are zero."""
    coord = st.integers(-3 * p, 3 * p)
    elem = st.builds(lambda x, y: FqElem(p, x, 0 if r2 is None else y, r2), coord, coord)
    return st.one_of(elem, elem, elem, st.just(FqElem(p, 0, 0, r2)))


def fq_coordinates(x):
    return x.p, x.x, x.y, x.r2


@pytest.mark.parametrize("p, r2", FINITE_FIELDS)
def test_finite_field_kernel_matches_generic_loop(p, r2):
    zero = FqElem(p, 0, 0, r2)

    def pair(s):
        return st.tuples(blanked_matrices(fq_scalars(p, r2), zero, s[0], s[1]),
                         blanked_matrices(fq_scalars(p, r2), zero, s[1], s[2]))

    @given(shapes().flatmap(pair))
    def check(ab):
        a, b = ab
        cols = list(zip(*b))
        assert _kernel((*a, *cols)) is zero.desc
        got = _products(a, b)
        want = generic(a, cols)
        for row_got, row_want in zip(got, want):
            for x, y in zip(row_got, row_want):
                assert type(x) is FqElem
                assert fq_coordinates(x) == fq_coordinates(y)
                assert 0 <= x.x < p and 0 <= x.y < p
        assert (ExactMatrix(a) * ExactMatrix(b)).entries == tuple(map(tuple, want))
    check()


@pytest.mark.parametrize("p, r2", [(p, None) for p in (2, 3, 5, 101)]
                         + [(p, 2) for p in (3, 5, 101)])
def test_finite_field_products_size_their_layout_by_the_inner_dimension(p, r2):
    """Every coordinate p - 1 makes each field of a row sum as large as it
    gets; with more inner entries than columns, a layout sized by the
    column count alone overflows its fields."""
    top = FqElem(p, p - 1, 0 if r2 is None else p - 1, r2)
    for k in range(2, 17):
        for nrows in (1, 2):
            a, b = [[top] * k] * nrows, [[top]] * k
            assert _kernel((*a, *b)) is top.desc
            got = _products(a, b)
            assert [list(map(fq_coordinates, row)) for row in got] == [
                list(map(fq_coordinates, row)) for row in generic(a, list(zip(*b)))]


def test_finite_field_power_matches_repeated_products():
    f9 = fq_scalars(3, 2)

    @given(st.integers(1, 4).flatmap(
        lambda n: blanked_matrices(f9, FqElem(3, 0, 0, 2), n, n)), st.integers(0, 9))
    def check(rows, e):
        m = ExactMatrix(rows)
        want = ExactMatrix.identity(m.nrows, like=rows[0][0]).entries
        for _ in range(e):
            want = generic(want, list(zip(*rows)))
        got = (m ** e).entries
        assert [fq_coordinates(x) for x in sum(got, ())] == [
            fq_coordinates(x) for x in sum(map(tuple, want), ())]
    check()


@pytest.mark.parametrize("left, right, message", [
    (FqElem(5, 2), FqElem(7, 3), "mixed characteristics"),
    (FqElem(5, 1, 1, 2), FqElem(5, 1, 1, 3), "mixed quadratic extensions"),
])
def test_two_finite_fields_refuse_to_mix(left, right, message):
    """The matrix product is refused by the kernel scan, the scalar product
    by FqElem itself."""
    a = ExactMatrix([[left, left], [left, left]])
    b = ExactMatrix([[right, right], [right, right]])
    with pytest.raises(ValueError, match=NO_KERNEL):
        _kernel((*a.entries, *zip(*b.entries)))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=NO_KERNEL):
            x * y
    with pytest.raises(ValueError, match=message):
        left * right


def test_prime_field_times_its_extension_is_refused():
    a = ExactMatrix([[FqElem(3, i + 2 * j) for j in range(3)] for i in range(2)])
    b = ExactMatrix([[FqElem(3, i - j, j + 1, 2) for j in range(2)] for i in range(3)])
    cols = list(zip(*b.entries))
    with pytest.raises(ValueError, match=NO_KERNEL):
        _kernel((*a.entries, *cols))
    with pytest.raises(ValueError, match=NO_KERNEL):
        a * b
    with pytest.raises(ValueError, match="mixed quadratic extensions"):
        a.entries[0][0] * b.entries[0][0]


def su3_conjugates():
    gens = modp.su3_generators(3)[0]
    c = gens[1] * gens[2]
    c_inv = c.inverse()
    return [c * g * c_inv for g in gens[:6]]


@pytest.mark.parametrize("call", [
    "omega4 Schreier generators", "trace witnesses", "separation certificate",
    "su3 conjugation"])
def test_finite_field_data_takes_its_kernel(monkeypatch, call):
    """Every product over reduced data runs the kernel of its finite field;
    the rational data these build before reducing it runs Q's."""
    bending = b0_family("SU_split_a", 3, fundamental_unit(3).value, 1)
    run = {
        "omega4 Schreier generators": lambda: modp._omega4_schreier_generators(5),
        "trace witnesses": lambda: [
            trace_witness("SL", 3, 5, 2), trace_witness("Sp", 4, 5, 2),
            trace_witness("SU", 3, 3, FqElem(3, 1, 1, 2)), trace_witness("Omega", 4, 5, 2)],
        "separation certificate": lambda: modp.separation_certificate(3, bending, 5),
        "su3 conjugation": su3_conjugates,
    }[call]
    kernels = []

    def recording(vectors):
        kernel = _kernel(vectors)
        kernels.append(kernel)
        return kernel

    monkeypatch.setattr(exactnum, "_kernel", recording)
    monkeypatch.setattr(symrep, "_kernel", recording)
    assert run()
    assert all(isinstance(k, KERNELS) for k in kernels)
    assert {type(k) for k in kernels} - {FieldDescriptor, type(_RATIONALS)} == {FqDescriptor}


BASIS_PAIRS = [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]


def reference_in_g2(m):
    """in_g2 as it was checked before the kernels: one generic matrix-vector
    product per basis pair."""
    if not in_group(m, 7, J7):
        return False
    cols = [Vec7([m.entries[r][c] for r in range(7)]) for c in range(7)]
    return all(
        Vec7([_dot(row, cross7(Vec7.basis(i), Vec7.basis(j)).coords)
              for row in m.entries]) == cross7(cols[i - 1], cols[j - 1])
        for i, j in BASIS_PAIRS)


def test_g2_basis_images_take_the_kernel_of_the_matrix_ring(monkeypatch):
    unit = fundamental_unit(3).value
    s3 = FieldElem.sqrt_int(field(3), 3)
    members = [tau(7, ExactMatrix([[2 + s3, 1], [0, 2 - s3]])),
               b0_family("G2", 7, unit, 2), tau(7, ExactMatrix([[2, 1], [3, 2]]))]
    others = [b0_family("SO_n7", 7, unit, 1),
              ExactMatrix.diagonal([2, 1, 1, 1, 1, 1, Fraction(1, 2)])]
    kinds = []

    def recording(vectors):
        kernel = _kernel(vectors)
        kinds.append(type(kernel))
        return kernel

    monkeypatch.setattr(exactnum, "_kernel", recording)
    monkeypatch.setattr(g2core, "_kernel", recording)
    for m in members + others:
        kinds.clear()
        assert in_g2(m) == reference_in_g2(m) == (m in members)
        assert kinds and all(issubclass(kind, FieldDescriptor) for kind in kinds)


def _sl2(x, y):
    """[[1, y], [x, xy + 1]], of determinant one over any ring."""
    return ExactMatrix([[1, y], [x, x * y + 1]])


def _so7_diagonal(u):
    """The SO_n7 bending pattern diag(u^2, u^-2, 1, 1, 1, u^2, u^-2): in
    SO(J7), and outside G2 for u^4 != 1."""
    one, v = u / u, 1 / u
    return ExactMatrix.diagonal([u * u, v * v, one, one, one, u * u, v * v])


def _g2_cases(ring, x, y):
    """Members tau7(g), tau7(h), their product and an inverse, and the
    non-members tau7(g) D tau7(g)^-1 of SO(J7) minus G2, D of the SO_n7
    pattern, for g, h dense matrices of determinant one over the ring."""
    if ring == "Q":
        r, u = Fraction(1), Fraction(2)
    else:
        desc = RINGS[ring]
        r = FieldElem.sqrt_int(desc, desc.radicands[-1])
        u = 2 + r if ring == "Q(sqrt3)" else FieldElem.sqrt_int(desc, 2) + r
    g, h = tau(7, _sl2(x + r, y - 2 * r)), tau(7, _sl2(y * r / 3, Fraction(1, 2) - x))
    members = [g, h, g * h, h.inverse()]
    others = [g * _so7_diagonal(u) * g.inverse(), h.inverse() * _so7_diagonal(u) * h]
    return members, others


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("x, y", [(3, 5), (10 ** 5 + 7, 10 ** 5 + 3), (10 ** 50 + 7, 10 ** 50 + 3)],
                         ids=["small", "near 10^60", "near 10^600"])
def test_in_g2_agrees_with_the_scalar_oracle(ring, x, y):
    """tau7 images over Q, Q(sqrt3) and Q(sqrt2,sqrt3), with products and
    inverses, are members, and dense conjugates of the SO_n7 diagonal are
    not: the packed check and the scalar cross products agree, with small
    coordinates and with coordinates near 10^60 and 10^600."""
    members, others = _g2_cases(ring, x, y)
    for m in members + others:
        assert all(m.entries[i][j] for i in range(7) for j in range(7))
        assert in_g2(m) is reference_in_g2(m) is (m in members)
        assert in_group(m, 7, J7)


@pytest.mark.parametrize("size", [10 ** 60 + 7, 10 ** 600 + 7], ids=["10^60", "10^600"])
def test_in_g2_slots_hold_the_largest_difference(monkeypatch, size):
    """The slot width meets its bound: with the form test skipped and only
    row 4 of the cross product checked (its terms e1 x e7, e2 x e6 and
    e3 x e5 have weights 120, 20 and 8, 148 together), a matrix with
    entries +-A in columns 1 and 7 of rows 1-3 and 5-7 and -A at (4, 4) puts
    2 * 148 A^2 + 120 A, the whole bound, in the slot of the pair (1, 7).
    Its digits are the scalar differences, and that slot would not fit a
    slot one bit narrower, whose signed digits are below 2^(w - 2)."""
    a = Fraction(size)
    rows = [[Fraction(0)] * 7 for _ in range(7)]
    for top, bottom, c in [(0, 6, 120), (1, 5, 20), (2, 4, -8)]:
        rows[top][0], rows[top][6] = a, -a if c > 0 else a
        rows[bottom][0], rows[bottom][6] = a, a if c > 0 else -a
    rows[3][3] = -a
    m = ExactMatrix(rows)
    decoded = []

    def recorded(v, w, count):
        out = digits(v, w, count)
        assert g2core._pack(out, w) == v
        decoded.append((out, w))
        return out

    digits = g2core._digits
    monkeypatch.setattr(g2core, "in_group", lambda *args: True)
    monkeypatch.setattr(g2core, "_TERMS", [t for t in g2core._TERMS if t[0] == 3])
    monkeypatch.setattr(g2core, "_digits", recorded)
    assert not in_g2(m)
    (out, w), = decoded
    cols = [Vec7([rows[r][c] for r in range(7)]) for c in range(7)]
    want = [(cross7(cols[i], cols[j]).coords[3]
             - sum(rows[3][k] * cross7(Vec7.basis(i + 1), Vec7.basis(j + 1)).coords[k]
                   for k in range(7)))
            for j in range(7) for i in range(7)]
    assert out == want
    bound = 2 * 148 * size * size + 120 * size
    assert out[0 + 7 * 6] == max(map(abs, out)) == bound
    assert w == bound.bit_length() + 1 and bound >= 1 << w - 2


def test_in_g2_refuses_other_shapes_and_finite_fields():
    """A matrix that is not 7 x 7 is no member, and FqElem entries raise
    the one ValueError of `_kernel`, as in_group raises it."""
    assert in_g2(ExactMatrix.identity(5)) is False
    assert in_g2(ExactMatrix([[1] * 6] * 7)) is False
    fq = ExactMatrix.identity(7, like=FqElem(5, 1))
    for check in (in_g2, lambda m: in_group(m, 7, J7)):
        with pytest.raises(ValueError, match="^the entries are not of one ring with a kernel$"):
            check(fq)


def _scalars_built(fn) -> int:
    """The FieldElems and Fractions fn() builds, counted as calls of their
    constructors' Python code (Python 3.12 builds a reduced Fraction by
    `_from_coprime_ints`, which skips `__new__`)."""
    codes = [FieldElem.__init__.__code__, Fraction.__new__.__code__]
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.append(Fraction._from_coprime_ints.__func__.__code__)
    return sum(_calls(code, fn)[1] for code in codes)


@pytest.mark.parametrize("case", ["G2 bending", "tau7 over Q", "tau7 over Q(sqrt3)"])
def test_in_g2_builds_no_scalar_beyond_in_group(case):
    """The cross check runs on coordinates: in_g2 builds exactly the
    FieldElems and Fractions of its in_group call, on a G2 bending matrix
    and on tau7 images."""
    s3 = FieldElem.sqrt_int(field(3), 3)
    make = {"G2 bending": lambda: b0_family("G2", 7, fundamental_unit(3).value, 2),
            "tau7 over Q": lambda: tau(7, _sl2(Fraction(3, 2), 5)),
            "tau7 over Q(sqrt3)": lambda: tau(7, _sl2(2 + s3, Fraction(1, 3) - s3))}[case]
    assert in_g2(make())
    assert _scalars_built(partial(in_g2, make())) == _scalars_built(
        partial(in_group, make(), 7, J7)) > 0


def test_a_field_builds_its_kernel_once():
    s3 = FieldElem.sqrt_int(field(3), 3)
    a = ExactMatrix([[2 + s3, 1], [Fraction(1, 2), 2 - s3]])
    b = ExactMatrix([[s3, 0], [1, s3]])
    kernels = [_kernel((*x.entries, *zip(*y.entries))) for x, y in [(a, b), (b, a * b)]]
    assert kernels[0] is kernels[1] is field(3)
    assert _kernel(tau(5, a).entries) is field(3)


def test_field_descriptors_are_interned():
    assert field(12) is field(3)
    assert field(3, 2) is field(2, 3) is field(8, 27)
    assert field() is field(1, 4, 9)
    assert field(3) is not FieldDescriptor((3,))


def reference_tau(n, m):
    """tau as it was built before the kernels: ring operations throughout,
    every term added into its entry."""
    a, b = m.entries[0]
    c, d = m.entries[1]
    one = a.one_like() if hasattr(a, "one_like") else Fraction(1)
    zero = a.zero_like() if hasattr(a, "zero_like") else Fraction(0)

    def powers(x, k):
        out = [one]
        for _ in range(k):
            out.append(out[-1] * x)
        return out

    pa, pb = powers(a, n - 1), powers(b, n - 1)
    pc, pd = powers(c, n - 1), powers(d, n - 1)
    cols = []
    for i in range(n):
        left = [comb(n - 1 - i, s) * pa[n - 1 - i - s] * pc[s] for s in range(n - i)]
        right = [comb(i, t) * pb[i - t] * pd[t] for t in range(i + 1)]
        col = [zero] * n
        for s, ls in enumerate(left):
            for t, rt in enumerate(right):
                col[s + t] = col[s + t] + ls * rt
        cols.append(col)
    return ExactMatrix(list(zip(*cols)))


@pytest.mark.parametrize("name", sorted(RINGS) + ["mixed"])
def test_tau_matches_the_ring_expansion(name):
    desc = RINGS.get(name, field(3))
    entries = scalars(desc)
    if name == "mixed":
        entries = st.one_of(entries, COEFFS)

    @given(st.lists(entries, min_size=4, max_size=4), st.integers(1, 7))
    def check(abcd, n):
        m = ExactMatrix([abcd[:2], abcd[2:]])
        if not m.det():
            return
        got, want = tau(n, m), reference_tau(n, m)
        assert got == want
        # any field element among the inputs makes every entry one of its field
        ring = FieldElem if any(isinstance(x, FieldElem) for x in abcd) else Fraction
        for x in sum(got.entries, ()):
            assert type(x) is ring and (ring is Fraction or x.desc is desc)
            assert_canonical(x)
    check()


@pytest.mark.parametrize("ring", ["F9", "quaternion"])
def test_tau_over_generic_rings_matches_the_ring_expansion(ring):
    """Over F_9 tau matches the ring expansion; a quaternion matrix, over
    which tau would not be multiplicative, is refused by the constructor."""
    if ring == "quaternion":
        alg = QuatAlgebra(3, 5)
        with pytest.raises(ValueError, match="ring with a kernel"):
            ExactMatrix([[alg(1, 1, 0, 0), alg(0, 0, 1, 0)],
                         [alg(2, 0, 0, 1), alg(1, 0, 0, 0)]])
        return
    m = ExactMatrix([[FqElem(3, 1, 1, r2=2), FqElem(3, 2, 0, r2=2)],
                     [FqElem(3, 0, 1, r2=2), FqElem(3, 1, 0, r2=2)]])
    for n in range(1, 6):
        assert tau(n, m) == reference_tau(n, m)


# the fields of 1-3 radicands, Q(sqrt2,sqrt3,sqrt5) with plan factor up to 30
WIDE_FIELDS = [field(), field(3), field(2, 3), field(2, 3, 5)]
MERSENNE_61 = 2 ** 61 - 1
# the least non-square mod 2^61 - 1, so F_p[r]/(r^2 - r2) is F_p^2
R2_61 = next(r for r in range(2, 100) if pow(r, MERSENNE_61 // 2, MERSENNE_61) != 1)


def signed_entries(desc, size, signs):
    """Entries over desc with every coordinate +-size, one per sign in
    `signs`: +1 gives every coordinate +size, -1 gives -size, +size,
    -size, ... along the monomials."""
    def entry(sign):
        coords = [sign * size * (-1) ** (mask * (sign < 0)) for mask in range(desc.dim)]
        return Fraction(coords[0]) if not desc.radicands else FieldElem(desc, coords)
    return [entry(s) for s in signs]


# all positive but d: every power of a + cY has only positive coefficients,
# the largest a column can reach; the others mix signs
SIGN_PATTERNS = [(1, 1, 1, -1), (1, -1, 1, 1), (-1, 1, -1, -1), (1, 1, -1, 1)]


@pytest.mark.parametrize("desc", WIDE_FIELDS, ids=str)
def test_tau_digits_hold_the_largest_coefficients(desc):
    """Kronecker digits sized by the coordinate bound: entries whose every
    coordinate is +-M, over Q and fields of 1-3 radicands.  M = 1 for
    n = 1..9 in every sign pattern, where the plan factor and the dimension
    weigh most in the bound; M about 10^600 in the pattern of the largest
    coefficients, for n = 1..9 (n = 1..5 over the 8-dimensional field,
    whose ring expansion at n = 9 takes seconds)."""
    big = 10 ** 600 + 7
    cases = [(1, signs, 9) for signs in SIGN_PATTERNS]
    cases.append((big, SIGN_PATTERNS[0], 9 if desc.dim < 8 else 5))
    for size, signs, top in cases:
        m = ExactMatrix([signed_entries(desc, size, signs[:2]),
                         signed_entries(desc, size, signs[2:])])
        assert m.det()
        for n in range(1, top + 1):
            assert tau(n, m) == reference_tau(n, m), (size, signs, n)


@pytest.mark.parametrize("r2", [None, R2_61])
def test_tau_over_a_large_prime_field_matches_the_ring_expansion(r2):
    """F_p and F_p^2 at p = 2^61 - 1: `times` does not reduce, so the
    digits hold coordinates up to p - 1 and their products unreduced."""
    p, rng = MERSENNE_61, random.Random(61)
    top = p - 1
    cases = [[[top, top], [top, 1]], [[top, 1], [2, top]]]
    cases += [[[rng.randrange(p) for _ in range(2)] for _ in range(2)] for _ in range(3)]
    for rows in cases:
        m = ExactMatrix([[FqElem(p, x, 0 if r2 is None else p - 1 - x, r2) for x in row]
                         for row in rows])
        assert m.det()
        for n in range(1, 10):
            got = tau(n, m)
            assert got == reference_tau(n, m), (rows, n)
            assert all(0 <= x.x < p and 0 <= x.y < p for x in sum(got.entries, ()))


def test_tau_runs_no_dot_product(monkeypatch):
    """tau is one kernel product per column, read by digits: no entry is a
    dot product of its own."""
    def refuse(self, a, b):
        raise AssertionError("tau ran a descriptor's dot")

    monkeypatch.setattr(FieldDescriptor, "dot", refuse)
    s5 = FieldElem.sqrt_int(field(2, 3, 5), 5)
    for m in [ExactMatrix([[2, 1], [Fraction(3, 7), 5]]),
              ExactMatrix([[2 + s5, 1], [Fraction(1, 3), 2 - s5]]),
              ExactMatrix([[FqElem(7, 1, 2, 3), FqElem(7, 3, 0, 3)],
                           [FqElem(7, 0, 5, 3), FqElem(7, 2, 2, 3)]])]:
        for n in range(1, 10):
            assert tau(n, m) == reference_tau(n, m)


def test_preserves_form_runs_no_product_and_builds_no_element(monkeypatch):
    """The isometry test runs on coordinates: with every matrix product
    refused and every FieldElem and FqElem construction counted, it
    decides twisted isometries, their perturbations and their scalar
    multiples over Q(sqrt3) and F_9, and builds no element.  Each scalar c
    has sigma(c) c != 1: 2, and 1 + r over F_9 = F_3[r]/(r^2 - 2), where
    2 * 2 = 1."""
    cases = []
    for case, c in ((_galois_case, 2), (_frobenius_case, FqElem(3, 1, 1, 2))):
        action, _, j, good, bad = case()
        cases += [(good, j, action, True), (bad, j, action, False),
                  (good * c, j, action, False)]
    built = []
    field_init, fq_post_init = FieldElem.__init__, FqElem.__post_init__

    def counted(init):
        def wrapper(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)
        return wrapper

    def refuse(rows, right):
        raise AssertionError("preserves_form ran a matrix product")

    monkeypatch.setattr(exactnum, "_products", refuse)
    monkeypatch.setattr(FieldElem, "__init__", counted(field_init))
    monkeypatch.setattr(FqElem, "__post_init__", counted(fq_post_init))
    for m, j, action, expected in cases:
        assert preserves_form(m, j, action) is expected
    assert built == []


@pytest.mark.parametrize("ring", [*WIDE_FIELDS, None, R2_61],
                         ids=[*map(str, WIDE_FIELDS), "F_p", "F_p^2"])
def test_form_digits_hold_the_largest_sums(monkeypatch, ring):
    """Slots sized by the bound of the compared difference: J = y * ones
    and M built from x, with every coordinate of x and y +size, over Q and
    fields of 1-3 radicands (size 1 and about 10^600) and over F_p and
    F_p^2 at p = 2^61 - 1 (size p - 1), so that every triple product adds
    at full size.  M = x * ones gives sigma(M)^T J M = sigma(x) x n^2 J,
    which fails; M with x in its first n - 1 rows and 1 - (n - 1) x in its
    last has columns summing to one, so sigma(M)^T J M = J, and its
    full-size triple products cancel.  Each fails once perturbed.  Every
    decoded digit string packs back to the integer it came from, and each
    answer is the scalar path's."""
    def checked(v, w, count):
        out = digits(v, w, count)
        assert exactnum._pack(out, w) == v
        return out

    def perturbed(m):
        rows = [list(r) for r in m.entries]
        rows[-1][0] = rows[-1][0] + 1
        return ExactMatrix(rows)

    digits = exactnum._digits
    monkeypatch.setattr(exactnum, "_digits", checked)
    if isinstance(ring, FieldDescriptor):
        entries = [signed_entries(ring, size, (1, 1)) for size in (1, 10 ** 600 + 7)]
        action = GaloisAction.flipping(*ring.radicands) if ring.radicands else None
    else:
        p = MERSENNE_61
        entries = [[FqElem(p, p - 1, 0 if ring is None else p - 1, ring)] * 2]
        action = None if ring is None else GaloisAction.from_signs({ring: -1})
    for x, y in entries:
        for n in range(2, 6):
            ones = ExactMatrix([[x] * n] * n)
            summing = ExactMatrix([[x] * n] * (n - 1) + [[1 - (n - 1) * x] * n])
            j = ExactMatrix([[y] * n] * n)
            for sigma in (None, action):
                twist = None if sigma is None else (
                    partial(apply_galois, sigma) if isinstance(ring, FieldDescriptor)
                    else FqElem.frobenius)
                for cand, expected in ((ones, False), (perturbed(ones), False),
                                       (summing, True), (perturbed(summing), False)):
                    assert scalar_preserves_form(cand, j, twist) is expected
                    assert preserves_form(cand, j, sigma) is expected, (n, sigma)


def test_kernel_results_are_stored_as_row_tuples():
    """Products on every path and tau keep the constructor's storage: a
    tuple of row tuples, equal and hash-equal to the same rows passed to
    ExactMatrix, with no int entry."""
    s3 = FieldElem.sqrt_int(field(3), 3)
    matrices = [ExactMatrix([[2, 1], [Fraction(1, 3), 5]]),
                ExactMatrix([[2 + s3, 1], [Fraction(1, 3), 2 - s3]]),
                ExactMatrix([[FqElem(5, 1), FqElem(5, 2)], [FqElem(5, 3), FqElem(5, 3)]]),
                ExactMatrix([[FqElem(3, 1, 1, 2), FqElem(3, 2, 0, 2)],
                             [FqElem(3, 0, 1, 2), FqElem(3, 1, 0, 2)]])]
    results = [m * m for m in matrices]
    results += [tau(4, m) for m in matrices]
    for got in results:
        assert type(got.entries) is tuple
        assert all(type(row) is tuple for row in got.entries)
        assert not any(type(x) is int for row in got.entries for x in row)
        fresh = ExactMatrix([list(row) for row in got.entries])
        assert got == fresh and hash(got) == hash(fresh)
