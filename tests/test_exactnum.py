import random
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from math import isqrt, prod

import pytest

from hitchinforge import exactnum
from hitchinforge.exactnum import (
    ExactMatrix,
    FieldDescriptor,
    FieldElem,
    GaloisAction,
    _factor,
    _invert,
    _is_prime,
    _one_like,
    _text_int,
    _zero_like,
    apply_galois,
    common_field,
    field,
    format_scalar,
    fundamental_unit,
    galois_matrix,
    in_group,
    lift,
    parse_scalar,
    preserves_form,
    span_dimension,
    square_class,
    square_free_decomposition,
    square_free_part,
)
from hitchinforge.modp import FqElem, trace_witness
from hitchinforge.quatalg import QuatAlgebra, QuatElem, embed_blocks, gamma_enumerate
from hitchinforge.symrep import hermitian_h, tau
from conftest import primes_up_to


def brute_force_pell(d: int, x_bound: int = 100000):
    """Smallest x >= 1 with x^2 - d*y^2 = +-1 for some y >= 1."""
    from math import isqrt
    for x in range(1, x_bound):
        for target in (x * x - 1, x * x + 1):
            if target <= 0:
                continue
            y2, rem = divmod(target, d)
            if rem == 0:
                y = isqrt(y2)
                if y >= 1 and y * y == y2:
                    return x, y, x * x - d * y * y
    raise AssertionError("no Pell solution found below bound")


def test_square_free_decomposition():
    assert square_free_decomposition(12) == (2, 3)
    assert square_free_decomposition(1) == (1, 1)
    assert square_free_decomposition(-18) == (3, -2)
    assert square_class(Fraction(8, 3)) == 6


def test_square_class_factors_numerator_and_denominator_apart(monkeypatch):
    """A reduced fraction's parts are coprime, so each is factored alone:
    trial division of their product would run up to the square root of
    its cofactor 8956821383 * 92347 * 81621259."""
    q = Fraction(1303665352295650, 7537478404873)
    seen = []

    def recording(n):
        seen.append(n)
        return _factor(n)

    monkeypatch.setattr(exactnum, "_factor", recording)
    assert square_class(q) == 2 * 41 * 71 * 8956821383 * 92347 * 81621259
    assert seen and q.numerator * q.denominator not in seen
    assert square_class(Fraction(-50, 27)) == -6


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor((4,))         # not square-free
    with pytest.raises(ValueError):
        FieldDescriptor((3, 2))       # not increasing
    with pytest.raises(ValueError):
        FieldDescriptor((2, 3, 6))    # dependent: 2*3*6 = 36
    assert field(12).radicands == (3,)
    assert field(2, 3, 5).dim == 8


def test_field_mul_examples():
    d = field(3)
    s3 = FieldElem.sqrt_int(d, 3)
    assert (1 + s3) * (1 - s3) == -2
    assert (2 + s3) * (2 - s3) == 1
    d23 = field(2, 3)
    prod = FieldElem.sqrt_int(d23, 2) * FieldElem.sqrt_int(d23, 3)
    assert prod == FieldElem.sqrt_int(d23, 6)


def test_field_mul_descriptor_mismatch():
    x = FieldElem.sqrt_int(field(3), 3)
    y = FieldElem.sqrt_int(field(5), 5)
    with pytest.raises(ValueError):
        x * y


def _random_elem(rng, desc):
    return FieldElem(desc, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(desc.dim)])


def test_field_ring_axioms(rng):
    desc = field(2, 3)
    for _ in range(50):
        x, y, z = (_random_elem(rng, desc) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_field_inverse(rng):
    for desc in (field(3), field(2, 3), field(2, 3, 5)):
        for _ in range(20):
            x = _random_elem(rng, desc)
            if x.is_zero():
                continue
            assert x * x.inverse() == 1


def test_galois_examples():
    d = field(3)
    s3 = FieldElem.sqrt_int(d, 3)
    sigma = GaloisAction.flipping(3)
    assert apply_galois(sigma, 2 + s3) == 2 - s3


def test_galois_action_refuses_other_scalars():
    """Only rationals and FieldElems take the module's Galois action; a
    quaternion applies it to its coordinates through its own method."""
    sigma = GaloisAction.flipping(3)
    q = QuatElem(QuatAlgebra(3, 5), 1, FieldElem.sqrt_int(field(3), 3))
    assert q.apply_galois(sigma) == QuatElem(q.algebra, 1, -FieldElem.sqrt_int(field(3), 3))
    for x in (q, FqElem(5, 2)):
        with pytest.raises(TypeError, match="no Galois action"):
            apply_galois(sigma, x)


def test_galois_is_ring_automorphism(rng):
    desc = field(2, 5)
    sigma = GaloisAction.from_signs({2: -1, 5: 1})
    for _ in range(30):
        x, y = _random_elem(rng, desc), _random_elem(rng, desc)
        assert apply_galois(sigma, x * y) == apply_galois(sigma, x) * apply_galois(sigma, y)
        assert apply_galois(sigma, x + y) == apply_galois(sigma, x) + apply_galois(sigma, y)
        assert apply_galois(sigma, apply_galois(sigma, x)) == x


def test_galois_commutes_with_matrix_ops(rng):
    desc = field(3)
    sigma = GaloisAction.flipping(3)
    for _ in range(10):
        a = ExactMatrix([[_random_elem(rng, desc) for _ in range(3)]
                         for _ in range(3)])
        b = ExactMatrix([[_random_elem(rng, desc) for _ in range(3)]
                         for _ in range(3)])
        assert galois_matrix(sigma, a * b) == galois_matrix(sigma, a) * galois_matrix(sigma, b)


def test_fundamental_unit_examples():
    u3 = fundamental_unit(3)
    assert (u3.x, u3.y, u3.norm) == (2, 1, 1)
    assert format_scalar(u3.value) == "2+sqrt(3)"
    u2 = fundamental_unit(2)
    assert (u2.x, u2.y, u2.norm) == (1, 1, -1)
    with pytest.raises(ValueError):
        fundamental_unit(4)
    with pytest.raises(ValueError):
        fundamental_unit(1)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 19, 21, 22])
def test_fundamental_unit_is_minimal(d):
    u = fundamental_unit(d)
    x, y, norm = brute_force_pell(d)
    assert (u.x, u.y, u.norm) == (x, y, norm)
    # unit times its conjugate is the norm, exactly
    sigma = GaloisAction.flipping(d)
    prod = u.value * apply_galois(sigma, u.value)
    assert prod == norm


def capped_pell(d: int, steps: int = 10_000) -> tuple[int, int, int]:
    """The old slow path: the same continued fraction, multiplying out
    h^2 - d*k^2 at every convergent and giving up after `steps`."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for _ in range(steps):
        norm = h * h - d * k * k
        if norm in (1, -1):
            return h, k, norm
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    raise AssertionError(f"continued fraction for sqrt({d}) did not close")


def test_fundamental_unit_matches_the_capped_loop():
    squarefree = [d for d in range(2, 2001) if square_free_part(d) == d]
    assert len(squarefree) == 1214
    for d in squarefree:
        u = fundamental_unit(d)
        assert (u.x, u.y, u.norm) == capped_pell(d), d
        assert u.value == FieldElem(field(d), [u.x, u.y])


def test_fundamental_unit_past_the_old_step_cap():
    """The period of sqrt(1000000007) ends after 12,351 steps."""
    d = 1_000_000_007
    u = fundamental_unit(d)
    assert u.y > 0 and u.x * u.x - d * u.y * u.y == u.norm in (1, -1)


def test_matrix_examples():
    d = field(3)
    s3 = FieldElem.sqrt_int(d, 3)
    m = ExactMatrix([[2, s3], [s3, 2]])
    assert m.det() == 1
    assert ExactMatrix.identity(4).det() == 1
    assert (m * m.inverse()).is_identity()


def test_matrix_inverse_random(rng):
    desc = field(3)
    found = 0
    while found < 5:
        m = ExactMatrix([[_random_elem(rng, desc) for _ in range(3)]
                         for _ in range(3)])
        if not m.det():
            continue
        found += 1
        assert (m * m.inverse()).is_identity()


def test_matrix_singular_inverse():
    with pytest.raises(ZeroDivisionError):
        ExactMatrix([[1, 1], [1, 1]]).inverse()


def test_span_dimension_examples():
    assert span_dimension([ExactMatrix.identity(2)]) == 1
    e = ExactMatrix([[1, 1], [0, 1]])
    f = ExactMatrix([[1, 0], [1, 1]])
    assert span_dimension([e, f]) == 4
    g = tau(3, ExactMatrix([[2, 1], [3, 2]]))
    h = tau(3, ExactMatrix([[1, 4], [1, 5]]))
    assert span_dimension([g, h]) == 9


def test_signum_exact():
    d = field(2, 3)
    s2 = FieldElem.sqrt_int(d, 2)
    s3 = FieldElem.sqrt_int(d, 3)
    assert (s3 - s2).signum() == 1
    assert (s2 - s3).signum() == -1
    # sqrt(2)*sqrt(3) - sqrt(6) is exactly zero
    assert (s2 * s3 - FieldElem.sqrt_int(d, 6)).signum() == 0
    # 7/5 < sqrt(2) < 17/12, tight rational comparisons
    assert (s2 - Fraction(7, 5)).signum() == 1
    assert (s2 - Fraction(17, 12)).signum() == -1


@pytest.mark.parametrize("n", [17_000, 18_000, 30_000])
def test_sign_of_unit_powers_past_the_old_bit_cap(n):
    """(2 - sqrt(3))**n is about 3.73**-n with coefficients near 3.73**n
    / 2: positive, and from n = 18,000 on it needs rational enclosures of
    sqrt(3) finer than 2**-65536 to resolve.  sqrt(3) - 2 and sqrt(2) -
    sqrt(3) are negative, so their powers alternate in sign."""
    q3, q23 = field(3), field(2, 3)
    assert FieldElem(q3, [2, -1]) ** n > 0
    assert (FieldElem(q3, [2, -1]) ** n).signum() == 1
    assert (FieldElem(q3, [-2, 1]) ** n).signum() == (-1) ** n
    s2, s3 = FieldElem.sqrt_int(q23, 2), FieldElem.sqrt_int(q23, 3)
    assert ((s2 - s3) ** n).signum() == (-1) ** n
    assert ((s3 - s2) ** n).signum() == 1


def test_scalar_parsing_roundtrip():
    for text in ["2+sqrt(3)", "1/2-3sqrt(5)", "-1+2/3sqrt(2)+sqrt(6)", "0", "-7/2"]:
        x = parse_scalar(text)
        assert format_scalar(x) == text or parse_scalar(format_scalar(x)) == x
    assert format_scalar(parse_scalar("sqrt(12)")) == "2sqrt(3)"
    with pytest.raises(ValueError):
        parse_scalar("sqrt(-3)+")


def test_a_zero_radicand_reads_as_zero():
    """`coeff 'sqrt(' int ')'` admits 0 as it admits the squares 1 and 4."""
    for text, value in [("sqrt(0)", 0), ("2+3sqrt(0)", 2)]:
        x = parse_scalar(text)
        assert isinstance(x, Fraction) and x == value
    x = parse_scalar("sqrt(3)+sqrt(0)")
    assert isinstance(x, FieldElem) and x.desc == field(3)
    assert x == parse_scalar("sqrt(3)")



@pytest.mark.parametrize("n", [0, 7, -7, 10 ** 600, -(10 ** 5000 + 3), 2 ** 20000],
                         ids=["0", "7", "-7", "10^600", "-(10^5000+3)", "2^20000"])
def test_integer_text_converts_in_chunks_with_its_sign(n):
    """_text_int reads what format_scalar prints, a leading '-' included,
    at any size under the interpreter's own digit limit."""
    assert _text_int(format_scalar(n)) == n

RING_SAMPLES = {
    "Q": Fraction(-3, 7),
    "Q(sqrt3)": parse_scalar("2+sqrt(3)"),
    "Q(sqrt2,sqrt3)": FieldElem(field(2, 3), [Fraction(1, 2), 1, 0, -3]),
    "F5": FqElem(5, 3),
    "F9": FqElem(3, 1, 2, r2=2),
    "(3,5)": QuatAlgebra(3, 5)(1, 2, 0, -1),
}


@pytest.mark.parametrize("name", sorted(RING_SAMPLES))
def test_scalar_ring_protocol(name):
    x = RING_SAMPLES[name]
    zero, one = _zero_like(x), _one_like(x)
    assert type(zero) is type(one) is type(x)
    assert zero == x - x
    assert one * x == x and x * one == x
    assert not zero and bool(one) and bool(x)
    assert x * _invert(x) == one


def test_extend_into_a_field_without_its_radicands_names_both_fields():
    s2 = FieldElem.sqrt_int(field(2), 2)
    with pytest.raises(ValueError) as err:
        s2.extend(field(3))
    assert str(err.value) == "sqrt(2) does not lie in Q(sqrt(3))"
    # extend goes by the value, not the fields: zero in Q(sqrt2) lies in Q
    assert lift(s2 - s2, field()) == 0
    assert s2.extend(field(2, 3)) == FieldElem.sqrt_int(field(2, 3), 2)


def test_lift_and_common_field():
    small, big = field(3), field(2, 3)
    s3 = FieldElem.sqrt_int(small, 3)
    m = ExactMatrix([[Fraction(1, 2), s3], [s3 + 1, 0]])
    assert common_field(e for row in m.entries for e in row) == small
    assert common_field([Fraction(1), 2]) == field()
    assert common_field([s3, FieldElem.sqrt_int(field(2), 2)]) == big
    expected = ExactMatrix([
        [FieldElem.from_rational(big, Fraction(1, 2)), s3.extend(big)],
        [(s3 + 1).extend(big), FieldElem.from_rational(big, 0)],
    ])
    lifted = m.lift(big)
    assert lifted == expected
    assert all(e.desc == big for row in lifted.entries for e in row)
    assert lift(s3, small) is s3
    with pytest.raises(ValueError):
        lift(FqElem(5, 1), big)
    # a rational matrix equals its lift whichever side the comparison starts on
    rational = ExactMatrix([[1, Fraction(-2, 3)], [0, 5]])
    rational_lift = rational.lift(small)
    assert rational == rational_lift and rational_lift == rational
    other = (rational * 2).lift(small)
    assert rational != other and other != rational


# -- elimination and power oracles ----------------------------------------

ELIMINATION_RINGS = {
    "Q": lambda r: Fraction(r.randint(-4, 4), r.randint(1, 3)),
    "Q(sqrt3)": lambda r: FieldElem(field(3), [r.randint(-3, 3) for _ in range(2)]),
    "Q(sqrt2,sqrt3)": lambda r: FieldElem(field(2, 3),
                                          [r.randint(-2, 2) for _ in range(4)]),
    "F5": lambda r: FqElem(5, r.randrange(5)),
    "F9": lambda r: FqElem(3, r.randrange(3), r.randrange(3), r2=2),
}


def _seeded_matrix(rng, ring, nrows, ncols, rank=None):
    """Random matrix over the ring; about a third of the entries are zero.
    With rank given, a product of nrows x rank and rank x ncols factors."""
    draw = ELIMINATION_RINGS[ring]

    def entry():
        x = draw(rng)
        return _zero_like(x) if rng.random() < 0.3 else x
    if rank is None:
        return ExactMatrix([[entry() for _ in range(ncols)] for _ in range(nrows)])
    left = ExactMatrix([[entry() for _ in range(rank)] for _ in range(nrows)])
    right = ExactMatrix([[entry() for _ in range(ncols)] for _ in range(rank)])
    return left * right


def _leibniz(rows):
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = _zero_like(rows[0][0])
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = _one_like(rows[0][0])
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def _largest_nonzero_minor(m):
    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rs in combinations(range(m.nrows), k):
            for cs in combinations(range(m.ncols), k):
                if _leibniz([[m[r, c] for c in cs] for r in rs]):
                    return k
    return 0


@pytest.mark.parametrize("ring", sorted(ELIMINATION_RINGS))
def test_det_matches_leibniz(ring, rng):
    singular = 0
    for n in (1, 2, 3, 4):
        for rank in (None, None, None, n - 1):
            if rank == 0:
                continue
            m = _seeded_matrix(rng, ring, n, n, rank)
            d = m.det()
            assert d == _leibniz(m.entries)
            singular += not d
    assert singular >= 3


@pytest.mark.parametrize("ring", sorted(ELIMINATION_RINGS))
def test_rank_matches_largest_nonzero_minor(ring, rng):
    for nrows, ncols in ((3, 3), (3, 5), (4, 4)):
        for rank in (None, 1, 2, min(nrows, ncols) - 1):
            m = _seeded_matrix(rng, ring, nrows, ncols, rank)
            assert m.rank() == _largest_nonzero_minor(m)
            assert m.transpose().rank() == m.rank()


@pytest.mark.parametrize("ring", sorted(ELIMINATION_RINGS))
def test_inverse_is_two_sided(ring, rng):
    inverted = 0
    for n in (1, 2, 3, 4):
        for rank in (None, None, None, n - 1):
            if rank == 0:
                continue
            m = _seeded_matrix(rng, ring, n, n, rank)
            if not m.det():
                with pytest.raises(ZeroDivisionError):
                    m.inverse()
                continue
            inverted += 1
            ident = ExactMatrix.identity(n, like=m[0, 0])
            assert m * m.inverse() == ident and m.inverse() * m == ident
    assert inverted >= 5


POWER_SAMPLES = {
    "Q(sqrt2,sqrt3)": FieldElem(field(2, 3), [Fraction(1, 2), 1, 0, -3]),
    "F9": FqElem(3, 1, 2, r2=2),
    "F5": FqElem(5, 3),
    "(3,5)": QuatAlgebra(3, 5)(1, 2, 0, -1),
    "M3(Q(sqrt3))": ExactMatrix([[2, parse_scalar("sqrt(3)"), 0], [1, 1, 0], [0, 0, 3]]),
    "M2(F9)": ExactMatrix([[FqElem(3, 1, 1, r2=2), FqElem(3, 0, 0, r2=2)],
                           [FqElem(3, 2, 0, r2=2), FqElem(3, 0, 1, r2=2)]]),
}


@pytest.mark.parametrize("name", sorted(POWER_SAMPLES))
def test_power_matches_repeated_products(name):
    x = POWER_SAMPLES[name]
    one = x ** 0
    assert one * x == x and x * one == x
    for e in range(-3, 6):
        expected = one
        for _ in range(abs(e)):
            expected = expected * (x if e > 0 else x.inverse())
        assert x ** e == expected
        assert x ** e * x ** -e == one


PRIMES = primes_up_to(1000)
NONZERO = [n for n in range(-1000, 1001) if n]


def test_factor_multiplies_back_over_primes():
    for n in NONZERO:
        f = _factor(n)
        assert set(f) <= PRIMES and all(e > 0 for e in f.values())
        assert prod(q ** e for q, e in f.items()) == abs(n)


def test_square_free_decomposition_oracle():
    for n in NONZERO:
        s, m = square_free_decomposition(n)
        assert s > 0 and s * s * m == n
        assert all(m % (q * q) for q in PRIMES if q * q <= abs(m))


def test_is_prime_matches_sieve():
    assert {n for n in range(-10, 1001) if _is_prime(n)} == PRIMES


def _galois_case():
    """tau(3) of a norm-one quaternion of (3,3) against its Hermitian
    matrix, and a corrupted copy."""
    desc = field(3)
    m = tau(3, gamma_enumerate(3, 3, 1)[0].matrix().lift(desc))
    rows = [list(r) for r in m.entries]
    rows[0][0] = rows[0][0] + 1
    h = hermitian_h(3, 3, 3, (-1, -1)).lift(desc)
    sigma = GaloisAction.flipping(3)
    return sigma, partial(apply_galois, sigma), h, m, ExactMatrix(rows)


def _frobenius_case():
    """The unitary trace witness over F_9 and a corrupted copy; the
    Frobenius is the action negating sqrt(r2)."""
    w = trace_witness("SU", 3, 3, 1)
    rows = [list(r) for r in w.matrix.entries]
    rows[0][1] = rows[0][1] + 1
    return (GaloisAction.from_signs({w.trace.r2: -1}), FqElem.frobenius, w.form,
            w.matrix, ExactMatrix(rows))


def _quaternion_case():
    """The block embeddings of diag(u*g, g) and diag(2*u*g, g) over (2,5)
    with Q(sqrt 3) coordinates, u the fundamental unit and g of reduced
    norm one, so that the conjugate-Galois twist of each entry of the
    first inverts it.  The embedding takes conjugation to the adjugate, and
    sqrt(3) is independent of sqrt(2) and sqrt(5), so that twist is the
    Galois twist of the embedding under the form of 2x2 blocks [[0, 1],
    [-1, 0]]."""
    sigma = GaloisAction.from_signs({2: 1, 3: -1, 5: 1})
    u = fundamental_unit(3).value
    g = next(e.quaternion() for e in gamma_enumerate(2, 5, 2) if e.x2)
    zero = g.zero_like()
    good, bad = embed_blocks([[g * u, zero], [zero, g]], [[g * u * 2, zero], [zero, g]])
    omega = ExactMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return sigma, partial(apply_galois, sigma), omega, good, bad


@pytest.mark.parametrize("case", [_galois_case, _frobenius_case, _quaternion_case],
                         ids=["galois", "frobenius", "quaternion"])
def test_preserves_form_twists_match_the_product(case):
    """Each case's action against the entrywise twist of the old product."""
    action, twist, j, good, bad = case()
    for m, expected in ((good, True), (bad, False)):
        assert (m.map_entries(twist).transpose() * j * m == j) is expected
        assert preserves_form(m, j, action) is expected


def test_in_group_fails_on_each_condition_alone():
    ident = ExactMatrix.identity(2)
    rotation = ExactMatrix([[0, -1], [1, 0]])
    assert in_group(rotation, 2, ident)
    assert in_group(rotation, 2)
    # the shape alone fails
    assert not in_group(rotation, 3)
    assert not in_group(ExactMatrix([[1, 0, 0], [0, 1, 0]]), 2)
    # the determinant alone fails: a reflection preserves the identity form
    reflection = ExactMatrix.diagonal([1, -1])
    assert preserves_form(reflection, ident)
    assert not in_group(reflection, 2, ident)
    assert not in_group(reflection, 2)
    # the form alone fails: a unipotent has determinant one
    unipotent = ExactMatrix([[1, 1], [0, 1]])
    assert in_group(unipotent, 2)
    assert not in_group(unipotent, 2, ident)


@pytest.mark.parametrize("case", [_galois_case, _frobenius_case],
                         ids=["galois", "frobenius"])
def test_in_group_twisted_form(case):
    action, _, j, good, bad = case()
    assert in_group(good, 3, j, action)
    assert not in_group(bad, 3, j, action)
    # without the twist the Hermitian equation is a different one
    assert not in_group(good, 3, j)


# -- the isometry test against the scalar path it replaced -------------------


def scalar_preserves_form(m, j, twist=None, up_to_scalar=False):
    """The old path, kept as the oracle: each entry twisted by an entrywise
    map, two matrix products and a comparison of scalars; up to a scalar,
    lambda from the first nonzero entry of J, the old rule of the closure
    profile's "preserves_form" (see test_bender)."""
    mt = m if twist is None else m.map_entries(twist)
    got = mt.transpose() * j * m
    if got == j:
        return True
    if not up_to_scalar:
        return False
    g, e = next((g, e) for grow, jrow in zip(got.entries, j.entries)
                for g, e in zip(grow, jrow) if e)
    lam = g * _invert(e)
    return got == j.map_entries(lambda x: x * lam)


def _rational(rng, size):
    return Fraction(rng.randint(-size, size), rng.randint(1, 4))


# ring name -> (a random element of coordinates up to size, the action and
# the entrywise twist it replaces); F_p's Frobenius is the identity
FORM_RINGS = {
    "Q": (_rational, GaloisAction.flipping(3), partial(apply_galois, GaloisAction.flipping(3))),
    "Q(sqrt3)": (lambda rng, size: FieldElem(field(3), [_rational(rng, size) for _ in range(2)]),
                 GaloisAction.flipping(3), partial(apply_galois, GaloisAction.flipping(3))),
    "Q(sqrt2,sqrt3,sqrt5)": (
        lambda rng, size: FieldElem(field(2, 3, 5), [_rational(rng, size) for _ in range(8)]),
        GaloisAction.from_signs({2: -1, 3: 1, 5: -1}),
        partial(apply_galois, GaloisAction.from_signs({2: -1, 3: 1, 5: -1}))),
    "F7": (lambda rng, size: FqElem(7, rng.randrange(7)),
           GaloisAction.from_signs({}), FqElem.frobenius),
    "F49": (lambda rng, size: FqElem(7, rng.randrange(7), rng.randrange(7), 3),
            GaloisAction.from_signs({3: -1}), FqElem.frobenius),
}


def _nonzero(elem, rng, size):
    while True:
        x = elem(rng, size)
        if x:
            return x


def _isometry(elem, twist, form, n, rng, size):
    """M and J with twist(M)^T J M = J.  M0 cycles the first k coordinates
    (k = n, or 2 for a rank-deficient J), so M0^k = 1 and J0, the sum of
    (M0^t)^T S M0^t over t < k, is preserved by M0: S is one entry for a
    monomial J0, dense, or of rank one for a rank-deficient J0.  Unless J0
    is monomial, both are conjugated by a unipotent A: A^-1 M0 A preserves
    twist(A)^T J0 A."""
    x = _nonzero(elem, rng, size)
    one, zero = _one_like(x), _zero_like(x)
    k = 2 if form == "rank-deficient" else n
    m0 = ExactMatrix([[one if (i < k and c == (i + 1) % k) or (i >= k and c == i) else zero
                       for c in range(n)] for i in range(n)])
    if form == "monomial":
        s = [[x if (i, c) == (0, 1) else zero for c in range(n)] for i in range(n)]
    elif form == "dense":
        s = [[elem(rng, size) for _ in range(n)] for _ in range(n)]
    else:
        u, v = [elem(rng, size) for _ in range(n)], [elem(rng, size) for _ in range(n)]
        s = [[a * b for b in v] for a in u]
    s, power, j0 = ExactMatrix(s), ExactMatrix.identity(n, like=x), None
    for _ in range(k):
        term = power.transpose() * s * power
        j0 = term if j0 is None else j0 + term
        power = power * m0
    if form == "monomial":
        return m0, j0
    a = ExactMatrix([[one if i == c else elem(rng, size) if c > i else zero
                      for c in range(n)] for i in range(n)])
    twisted = a if twist is None else a.map_entries(twist)
    return a.inverse() * m0 * a, twisted.transpose() * j0 * a


def _perturbed(m, rng, elem, size):
    rows = [list(r) for r in m.entries]
    i, c = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows[i][c] = rows[i][c] + _nonzero(elem, rng, size)
    return ExactMatrix(rows)


@pytest.mark.parametrize("form", ["monomial", "dense", "rank-deficient"])
@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("ring", sorted(FORM_RINGS))
def test_preserves_form_matches_the_scalar_path(ring, twisted, form):
    """Random isometries of monomial, dense and rank-deficient forms, their
    single-entry perturbations, scalar multiples and random matrices, with
    and without the twist, at n = 3 and 4, and at n = 3 with coordinates
    near +-10^600 over Q and its fields: the coordinate test answers as the
    scalar path."""
    elem, action, twist = FORM_RINGS[ring]
    if not twisted:
        action = twist = None
    rng = random.Random(f"{ring}-{twisted}-{form}")
    cases = [(3, 9), (4, 9)] + ([] if ring.startswith("F") else [(3, 10 ** 600)])
    for n, size in cases:
        m, j = _isometry(elem, twist, form, n, rng, size)
        bad = _perturbed(m, rng, elem, size)
        scaled = m * _nonzero(elem, rng, size)
        noise = ExactMatrix([[elem(rng, size) for _ in range(n)] for _ in range(n)])
        assert scalar_preserves_form(m, j, twist)
        assert not scalar_preserves_form(bad, j, twist)
        assert scalar_preserves_form(scaled, j, twist, True)
        for cand in (m, bad, scaled, noise):
            want = scalar_preserves_form(cand, j, twist)
            assert preserves_form(cand, j, action) is want, (n, size)


def test_preserves_form_keeps_its_refusals():
    """Bad shapes, a mixed ring and an action with no sign for one of the
    field's radicands are ValueErrors.  A zero form is preserved by every
    matrix."""
    ident2, ident3 = ExactMatrix.identity(2), ExactMatrix.identity(3)
    s2, s3 = FieldElem.sqrt_int(field(2, 3), 2), FieldElem.sqrt_int(field(2, 3), 3)
    for m, j in ((ExactMatrix([[1, 0, 0], [0, 1, 0]]), ident3),
                 (ident2, ident3),
                 (ident2, ExactMatrix([[1, 0, 0], [0, 1, 0]]))):
        with pytest.raises(ValueError, match="incompatible dimensions"):
            preserves_form(m, j)
    f5 = ExactMatrix([[FqElem(5, 1), FqElem(5, 0)], [FqElem(5, 0), FqElem(5, 1)]])
    other = ExactMatrix.diagonal([FieldElem.sqrt_int(field(3), 3)] * 2)
    for m, j in ((f5, ident2), (ExactMatrix.diagonal([FieldElem.sqrt_int(field(2), 2)] * 2),
                               other)):
        with pytest.raises(ValueError, match="not of one ring"):
            preserves_form(m, j)
    zero = ExactMatrix([[0, 0], [0, 0]])
    assert preserves_form(ident2, zero)
    both = ExactMatrix.diagonal([s2 + s3, 1])
    with pytest.raises(ValueError, match=r"no sign recorded for sqrt\(2\)"):
        preserves_form(both, ident2, GaloisAction.flipping(3))
    f49 = ExactMatrix.diagonal([FqElem(7, 1, 1, 3), FqElem(7, 1, 0, 3)])
    with pytest.raises(ValueError, match=r"no sign recorded for sqrt\(3\)"):
        preserves_form(f49, f49, GaloisAction.flipping(2))
