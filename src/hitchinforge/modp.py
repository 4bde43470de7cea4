"""Reduction of exact data modulo an odd prime, one breadth-first walk of
finite matrix groups and bounded words (elements as tuples of row codes,
multiplied through lazily filled row-action tables), the standard order
formulas, trace sets and trace witnesses over finite fields, Omega(4, p)
from Schreier generators, and the mod-p orbit-separation certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Callable, Optional, Sequence, Union

from .exactnum import (
    ExactMatrix,
    FieldElem,
    RingElem,
    _is_prime,
    preserves_form,
    square_free_part,
)
from .qforms import _legendre
from .symrep import tau, trace_poly

DEFAULT_CLOSURE_CAP = 5_000_000


class CapExceeded(Exception):
    """Closure walked past the cap; carries the partial element count."""

    def __init__(self, partial: int):
        super().__init__(f"closure exceeded cap with {partial} elements found")
        self.partial = partial


# -- finite field elements ---------------------------------------------------


def _mod_p(q: Union[int, Fraction], p: int) -> int:
    """A residue of the rational q mod p; its denominator must be prime
    to p."""
    if q.denominator % p == 0:
        raise ZeroDivisionError(f"denominator {q.denominator} not invertible mod {p}")
    return q.numerator * pow(q.denominator, -1, p)


@dataclass(frozen=True)
class FqElem(RingElem):
    """Element of F_p (degree 1) or F_p[r]/(r^2 - r2) (degree 2), with
    coordinates reduced mod p."""

    p: int
    x: int
    y: int = 0
    r2: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", self.x % self.p)
        object.__setattr__(self, "y", self.y % self.p)
        if self.r2 is not None:
            object.__setattr__(self, "r2", self.r2 % self.p)
        if self.r2 is None and self.y:
            raise ValueError("degree-1 element cannot have a second coordinate")

    @property
    def degree(self) -> int:
        return 1 if self.r2 is None else 2

    def _coerce(self, other) -> Optional["FqElem"]:
        if isinstance(other, (int, Fraction)):
            return FqElem(self.p, _mod_p(other, self.p), 0, self.r2)
        if isinstance(other, FqElem):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            if self.r2 is not None and other.r2 is None:
                return FqElem(self.p, other.x, 0, self.r2)
            if self.r2 != other.r2 and other.r2 is not None and self.r2 is not None:
                raise ValueError("mixed quadratic extensions")
            return other
        return None

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def _add(self, o: "FqElem") -> "FqElem":
        r2 = self.r2 if self.r2 is not None else o.r2
        return FqElem(self.p, self.x + o.x, self.y + o.y, r2)

    def _sub(self, o: "FqElem") -> "FqElem":
        r2 = self.r2 if self.r2 is not None else o.r2
        return FqElem(self.p, self.x - o.x, self.y - o.y, r2)

    def __neg__(self):
        return FqElem(self.p, -self.x, -self.y, self.r2)

    def _mul(self, o: "FqElem") -> "FqElem":
        r2 = self.r2 if self.r2 is not None else o.r2
        if r2 is None:
            return FqElem(self.p, self.x * o.x)
        return FqElem(self.p,
                      self.x * o.x + r2 * self.y * o.y,
                      self.x * o.y + self.y * o.x, r2)

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.r2 is None:
            return FqElem(self.p, pow(self.x, -1, self.p))
        n = (self.x * self.x - self.r2 * self.y * self.y) % self.p
        ninv = pow(n, -1, self.p)
        return FqElem(self.p, self.x * ninv, -self.y * ninv, self.r2)

    def frobenius(self) -> "FqElem":
        return FqElem(self.p, self.x, -self.y, self.r2)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            # a rational without a residue mod p equals no element
            return (self.y == 0 and other.denominator % self.p != 0
                    and self.x == _mod_p(other, self.p) % self.p)
        if not isinstance(other, FqElem):
            return NotImplemented
        if self.p != other.p:
            return False
        if self.y == 0 and other.y == 0:
            return self.x == other.x
        return (self.x, self.y, self.r2) == (other.x, other.y, other.r2)

    def __hash__(self) -> int:
        if self.y == 0:
            return hash((self.p, self.x))
        return hash((self.p, self.x, self.y, self.r2))

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        return f"{self.x}+{self.y}r"

    __repr__ = __str__


# -- reduction contexts ------------------------------------------------------


@dataclass(frozen=True)
class ReductionContext:
    """Reduction of Z[sqrt(d)] modulo an odd prime p not dividing d: when d
    is a square mod p the ring splits and sqrt(d) goes to a chosen root;
    otherwise the image is the quadratic field extension."""

    p: int
    d: int
    mode: str              # "split" | "inert"
    root: Optional[int]    # the chosen square root of d mod p when split

    @classmethod
    def build(cls, p: int, d: int) -> "ReductionContext":
        if p == 2 or not _is_prime(p):
            raise ValueError("reduction needs an odd prime")
        d = square_free_part(d)
        if d <= 1:
            raise ValueError("d must be a positive non-square")
        if d % p == 0:
            raise ValueError(f"{p} divides {d}; reduction context undefined")
        if _legendre(d, p) == 1:
            root = next(r for r in range(1, p) if r * r % p == d % p)
            return cls(p, d, "split", root)
        return cls(p, d, "inert", None)


def reduce_scalar(x: Union[int, Fraction, FieldElem],
                  ctx: ReductionContext) -> FqElem:
    """Ring homomorphism onto the residue ring; denominators must be
    invertible mod p."""
    p = ctx.p
    if isinstance(x, (int, Fraction)):
        return FqElem(p, _mod_p(x, p))
    if isinstance(x, FieldElem):
        rads = x.desc.radicands
        if len(rads) > 1 or (rads and rads[0] != ctx.d):
            raise ValueError(f"element lies in Q{rads}, context is for sqrt({ctx.d})")
        a = _mod_p(x.coeffs[0], p)
        b = _mod_p(x.coeffs[1], p) if len(x.coeffs) > 1 else 0
        if ctx.mode == "split":
            return FqElem(p, a + b * ctx.root)
        return FqElem(p, a, b, ctx.d % p)
    raise TypeError(f"cannot reduce {type(x)!r}")


def reduce_matrix(m: ExactMatrix, ctx: ReductionContext) -> ExactMatrix:
    return m.map_entries(lambda e: reduce_scalar(e, ctx))


def reduce_int_matrix(m: ExactMatrix, p: int) -> ExactMatrix:
    """Reduce a rational matrix with p-invertible denominators mod p."""
    return m.map_entries(lambda e: FqElem(p, _mod_p(e, p)))


def matrix_order(m: ExactMatrix, cap: int = 1_000_000) -> int:
    """Multiplicative order of an invertible FqElem matrix: the size of
    the cyclic group it generates, by the row-action walk."""
    if m.det() == 0:
        raise ValueError("a singular matrix has no multiplicative order")
    return len(_walk([m], cap))


# -- the row-action walk ------------------------------------------------------
#
# A walked element is the tuple of its row codes.  An entry x + y*r of F_q
# (q = p, or q = p^2 with r^2 = r2) is the integer u = x + p*y, and a row
# (u_0, ..., u_(n-1)) is the code sum u_j q^j.  Right multiplication by a
# generator maps each row code on its own, so it is n lookups in a table of
# the generator's action on rows, filled the first time a row is met.


class _Lazy(dict):
    """A map filled on first lookup: a missing key k is stored as fn(k)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[int], int]):
        super().__init__()
        self.fn = fn

    def __missing__(self, key: int) -> int:
        value = self[key] = self.fn(key)
        return value


def _field(gens: Sequence[ExactMatrix]) -> tuple[int, Optional[int]]:
    """(p, r2) of the field that holds every generator entry; r2 is None
    for the prime field."""
    if not gens:
        raise ValueError("need at least one generator")
    entries = [e for g in gens for row in g.entries for e in row]
    if not all(isinstance(e, FqElem) for e in entries):
        raise TypeError("closure needs FqElem entries")
    if len({e.p for e in entries}) > 1:
        raise ValueError("mixed characteristics")
    r2s = {e.r2 for e in entries} - {None}
    if len(r2s) > 1:
        raise ValueError("mixed quadratic extensions")
    return entries[0].p, next(iter(r2s), None)


def _row_action(g: ExactMatrix, p: int, r2: Optional[int]) -> _Lazy:
    """Lazy table from a row code to the code of that row times g."""
    n = g.nrows
    q = p if r2 is None else p * p
    r2 = r2 or 0
    powers = [q ** j for j in range(n)]
    cols = [[(g.entries[j][k].x, g.entries[j][k].y) for j in range(n)]
            for k in range(n)]

    def image(code: int) -> int:
        row = [(u % p, u // p) for u in (code // s % q for s in powers)]
        out = 0
        for col, s in zip(cols, powers):
            x = y = 0
            for (a, b), (c, d) in zip(row, col):
                x += a * c + r2 * b * d
                y += a * d + b * c
            out += (x % p + p * (y % p)) * s
        return out
    return _Lazy(image)


def _walk(gens: Sequence[ExactMatrix], cap: int,
          depth: Optional[int] = None) -> set[tuple[int, ...]]:
    """Breadth-first walk of the products of the generators from the
    identity: the whole group when depth is None, else the words of length
    at most depth.  Returns the set of elements; raises CapExceeded (with
    the partial count, cap + 1) as soon as the set outgrows the cap."""
    p, r2 = _field(gens)
    q = p if r2 is None else p * p
    steps = [_row_action(g, p, r2).__getitem__ for g in gens]
    ident = tuple(q ** i for i in range(gens[0].nrows))
    seen = {ident}
    frontier = [ident]
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        new = []
        for m in frontier:
            for step in steps:
                prod = tuple(map(step, m))
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise CapExceeded(len(seen))
                    new.append(prod)
        frontier = new
    return seen


def _traces(elements: set[tuple[int, ...]], p: int,
            r2: Optional[int]) -> frozenset[FqElem]:
    """Trace set of walked elements.  Row i contributes its i-th
    coordinate x + y*r as the integer x + big*y, so one integer sum per
    element carries both coordinates of the trace."""
    n = len(next(iter(elements)))
    q = p if r2 is None else p * p
    big = n * p
    diagonal = [_Lazy(lambda code, s=q ** i: code // s % q % p
                      + big * (code // s % q // p)) for i in range(n)]
    sums = {sum(map(getitem, diagonal, m)) for m in elements}
    return frozenset(FqElem(p, s % big, s // big, r2) for s in sums)


def group_closure(gens: Sequence[ExactMatrix],
                  cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """Exact order of the group generated by invertible FqElem matrices,
    by the breadth-first row-action walk.  Raises CapExceeded (with the
    partial count) past the cap."""
    return len(_walk(gens, cap))


def group_closure_and_traces(gens: Sequence[ExactMatrix],
                             cap: int = DEFAULT_CLOSURE_CAP
                             ) -> tuple[int, frozenset[FqElem]]:
    """Order and full trace set from a single walk."""
    elements = _walk(gens, cap)
    return len(elements), _traces(elements, *_field(gens))


def group_order_formula(family: str, n: int, q: int) -> int:
    """Textbook orders of the finite classical groups."""
    if family == "SL":
        out = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            out *= q ** i - 1
        return out
    if family == "SU":
        out = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            out *= q ** i - (-1) ** i
        return out
    if family == "Sp":
        if n % 2:
            raise ValueError("symplectic dimension must be even")
        m = n // 2
        out = q ** (m * m)
        for i in range(1, m + 1):
            out *= q ** (2 * i) - 1
        return out
    raise ValueError(f"no order formula for family {family!r}")


# -- standard generators ------------------------------------------------------


def sl_generators(n: int, p: int) -> list[ExactMatrix]:
    """An elementary transvection and a signed cycle generate SL(n, p)."""
    e12 = [[FqElem(p, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    e12[0][1] = FqElem(p, 1)
    cyc = [[FqElem(p, 0) for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        cyc[i + 1][i] = FqElem(p, 1)
    cyc[0][n - 1] = FqElem(p, (-1) ** (n - 1))
    return [ExactMatrix(e12), ExactMatrix(cyc)]


def hermitian_3form(p: int, r2: int) -> ExactMatrix:
    one = FqElem(p, 1, 0, r2)
    zero = FqElem(p, 0, 0, r2)
    return ExactMatrix([[zero, zero, one], [zero, one, zero], [one, zero, zero]])


def su3_generators(p: int) -> tuple[list[ExactMatrix], ExactMatrix, int]:
    """Generators of the 3-dimensional unitary group for the antidiagonal
    Hermitian form over F_(p^2): the unipotent root elements together with
    a Weyl representative.  Returns (generators, form, r2)."""
    r2 = _non_residue(p)
    q2 = p * p

    def fq(x, y=0):
        return FqElem(p, x, y, r2)

    def norm(e: FqElem) -> int:
        return (e.x * e.x - r2 * e.y * e.y) % p

    gens = []
    elements = [fq(x, y) for x in range(p) for y in range(p)]
    for a in elements:
        na = norm(a)
        for c in elements:
            # condition for [[1,a,c],[0,1,-frob(a)],[0,0,1]] to be unitary
            if (c.x * 2 + na) % p == 0:
                u = ExactMatrix([
                    [fq(1), a, c],
                    [fq(0), fq(1), -a.frobenius()],
                    [fq(0), fq(0), fq(1)],
                ])
                gens.append(u)
                gens.append(u.transpose())
    w = ExactMatrix([[fq(0), fq(0), fq(-1)],
                     [fq(0), fq(-1), fq(0)],
                     [fq(-1), fq(0), fq(0)]])
    gens.append(w)
    return gens, hermitian_3form(p, r2), r2


def _non_residue(p: int) -> int:
    return next(r for r in range(2, p) if _legendre(r, p) == -1)


def sp_generators(n: int, p: int) -> list[ExactMatrix]:
    """Symplectic transvections x -> x + <x,v> v for a spanning set of v,
    for the block-diagonal form."""
    from .lattices import symplectic_form
    j = symplectic_form(n)
    vs = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        vs.append(tuple(e))
    for i in range(n - 1):
        e = [0] * n
        e[i] = 1
        e[i + 1] = 1
        vs.append(tuple(e))
    e = [1] * n
    vs.append(tuple(e))
    gens = []
    for v in vs:
        jv = [sum(int(j.entries[r][c]) * v[c] for c in range(n)) % p
              for r in range(n)]
        rows = [[FqElem(p, (1 if r == c else 0) + v[r] * jv[c])
                 for c in range(n)] for r in range(n)]
        gens.append(ExactMatrix(rows))
    return gens


def so4_order(p: int) -> int:
    """|SO(I_4, F_p)| for odd p: the form has square discriminant, so the
    group is of plus type, of order p^2 (p^2-1)^2."""
    return p * p * (p * p - 1) ** 2


_SO4_VECTORS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
                (1, 1, 1, 0), (1, 1, 1, 1), (1, 2, 0, 0), (1, 0, 2, 0))


def _so4_anisotropic(p: int) -> list[tuple[tuple[int, ...], int]]:
    """The vectors v of _SO4_VECTORS with Q(v) = v.v nonzero mod p, paired
    with Q(v); e1 comes first."""
    return [(v, nv) for v in _SO4_VECTORS if (nv := sum(x * x for x in v) % p)]


def so4_generators(p: int) -> list[ExactMatrix]:
    """A small generating set of SO(I_4, F_p): products of the reflection
    in e1 with reflections in a fixed spanning set of anisotropic vectors.

    No walk of SO is made here; `omega4_elements` proves that these
    generate SO.  Its Schreier generators have square spinor norm, so
    they lie in Omega, while t does not; hence the generated group has
    order at least 2 |walk of Omega| = |SO|."""
    if p == 2:
        raise ValueError("odd characteristic only")

    def reflection(v, nv):
        inv2 = 2 * pow(nv, -1, p)
        return [[(int(r == c) - inv2 * v[r] * v[c]) % p for c in range(4)]
                for r in range(4)]

    base, *refs = [reflection(v, nv) for v, nv in _so4_anisotropic(p)]
    gens = []
    for h in refs:
        prod = [[sum(base[r][k] * h[k][c] for k in range(4)) % p
                 for c in range(4)] for r in range(4)]
        gens.append(ExactMatrix([[FqElem(p, e) for e in row] for row in prod]))
    return gens


def omega4_elements(p: int, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[int, set]:
    """Omega(4, p), the commutator subgroup of SO(I_4, F_p): returns (order
    of SO, the set of walked elements of the index-2 subgroup).

    Omega is the kernel of the spinor norm, and the spinor norm of
    r_e1 r_v is the square class of Q(v).  With t a generator of non-square
    norm, {1, t} is a transversal, so Omega is generated by the Schreier
    generators: g and t g t^-1 for g of square norm, g t^-1 and t g for g
    of non-square norm.

    The index-2 check also proves that `so4_generators` generates SO: the
    Schreier generators have square norm, so their walk lies in Omega; t
    does not, so the group G generated by the reflection products holds
    the walk and its coset under t, and |SO| >= |G| >= 2 |walk| = |SO|."""
    gens = so4_generators(p)
    square = [_legendre(nv, p) == 1 for _, nv in _so4_anisotropic(p)[1:]]
    t = next(g for g, sq in zip(gens, square) if not sq)
    t_inv = t.inverse()
    schreier = []
    for g, sq in zip(gens, square):
        schreier += [g, t * g * t_inv] if sq else [g * t_inv, t * g]
    so_order = so4_order(p)
    elements = _walk(schreier, cap)
    if 2 * len(elements) != so_order:
        raise AssertionError("Schreier generators fail to give an index-2 subgroup")
    return so_order, elements


# -- trace sets ---------------------------------------------------------------


def trace_set_of_generators(gens: Sequence[ExactMatrix],
                            cap: int = DEFAULT_CLOSURE_CAP,
                            word_length: Optional[int] = None
                            ) -> frozenset[FqElem]:
    """Traces over the full closure, or over words of bounded length when
    word_length is given; the cap bounds either walk."""
    return _traces(_walk(gens, cap, word_length), *_field(gens))


def trace_set(family_or_gens, n: Optional[int] = None, p: Optional[int] = None,
              cap: int = DEFAULT_CLOSURE_CAP,
              word_length: Optional[int] = None) -> frozenset[FqElem]:
    """Trace set of a named family (SL/SU/Sp/Omega at the given n, p) by
    full closure, or of an explicit generator list."""
    if isinstance(family_or_gens, str):
        family = family_or_gens
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2 and family in ("SU", "Omega"):
            raise ValueError(f"{family} is built for odd p")
        if n < 2:
            raise ValueError("n must be at least 2")
        if family == "Sp" and n % 2:
            raise ValueError("symplectic dimension must be even")
        if family == "SL":
            gens = sl_generators(n, p)
        elif family == "SU":
            if n != 3:
                raise ValueError("unitary generators are built for n = 3")
            gens = su3_generators(p)[0]
        elif family == "Sp":
            gens = sp_generators(n, p)
        elif family == "Omega":
            if n != 4:
                raise ValueError("commutator orthogonal group is built for n = 4")
            _, elements = omega4_elements(p, cap)
            return _traces(elements, p, None)
        else:
            raise ValueError(f"unknown family {family!r}")
        return trace_set_of_generators(gens, cap, word_length)
    return trace_set_of_generators(family_or_gens, cap, word_length)


# -- trace witnesses ----------------------------------------------------------


@dataclass(frozen=True)
class TraceWitness:
    family: str
    matrix: ExactMatrix
    form: Optional[ExactMatrix]   # preserved bilinear/Hermitian form, if any
    trace: FqElem


def trace_witness(family: str, n: int, p: int, a) -> TraceWitness:
    """An element of the family with prescribed trace behaviour, verified
    against its defining equations mod p.

    SL and Sp: trace exactly a (companion 2x2 block, identity padding).
    SU (n = 3): the standard unitary witness with trace a - 1.
    Omega (n = 4): the squared orthogonal witness, trace -2a + 4 (a != 0).
    """
    if family == "SL":
        a_int = a.x if isinstance(a, FqElem) else a % p
        shift = (a_int - (n - 2)) % p
        m = _block_witness(n, p, shift)
        w = TraceWitness("SL", m, None, FqElem(p, a_int))
        _check_det_one(m)
        assert m.trace() == FqElem(p, a_int)
        return w
    if family == "Sp":
        if n % 2:
            raise ValueError("symplectic dimension must be even")
        a_int = a.x if isinstance(a, FqElem) else a % p
        shift = (a_int - (n - 2)) % p
        m = _block_witness(n, p, shift)
        from .lattices import symplectic_form
        form = reduce_int_matrix(symplectic_form(n), p)
        assert preserves_form(m, form)
        assert m.trace() == FqElem(p, a_int)
        return TraceWitness("Sp", m, form, FqElem(p, a_int))
    if family == "SU":
        if n != 3:
            raise ValueError("unitary witness is built for n = 3")
        return _su3_witness(p, a)
    if family == "Omega":
        if n != 4:
            raise ValueError("orthogonal witness is built for n = 4")
        return _omega4_witness(p, a)
    raise ValueError(f"unknown family {family!r}")


def _block_witness(n: int, p: int, a: int) -> ExactMatrix:
    rows = [[FqElem(p, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows[0][0] = FqElem(p, a)
    rows[0][1] = FqElem(p, 1)
    rows[1][0] = FqElem(p, -1)
    rows[1][1] = FqElem(p, 0)
    return ExactMatrix(rows)


def _check_det_one(m: ExactMatrix) -> None:
    one = m.entries[0][0].one_like()
    if m.det() != one:
        raise AssertionError("witness determinant is not 1")


def _su3_witness(p: int, a) -> TraceWitness:
    r2 = _non_residue(p)
    if isinstance(a, FqElem):
        a = FqElem(p, a.x, a.y, r2 if a.r2 is None else a.r2)
        r2 = a.r2
    else:
        a = FqElem(p, a, 0, r2)

    def norm(e: FqElem) -> int:
        return (e.x * e.x - r2 * e.y * e.y) % p

    target = (-(a + a.frobenius()).x) % p
    b = next(FqElem(p, x, y, r2) for x in range(p) for y in range(p)
             if norm(FqElem(p, x, y, r2)) == target)
    zero, one = FqElem(p, 0, 0, r2), FqElem(p, 1, 0, r2)
    m = ExactMatrix([
        [a, b, one],
        [b.frobenius(), -one, zero],
        [one, zero, zero],
    ])
    form = hermitian_3form(p, r2)
    _check_det_one(m)
    if not preserves_form(m, form, FqElem.frobenius):
        raise AssertionError("unitary witness fails its form equation")
    assert m.trace() == a - 1
    return TraceWitness("SU", m, form, a - one)


def _omega4_witness(p: int, a) -> TraceWitness:
    a_int = a.x if isinstance(a, FqElem) else a % p
    if a_int % p == 0:
        raise ValueError("witness construction needs a != 0")
    inv_a = pow(a_int, -1, p)
    m = ExactMatrix([
        [FqElem(p, 0), FqElem(p, 0), FqElem(p, -a_int), FqElem(p, a_int)],
        [FqElem(p, 0), FqElem(p, 0), FqElem(p, 1), FqElem(p, 0)],
        [FqElem(p, 1), FqElem(p, 1), FqElem(p, 0), FqElem(p, 0)],
        [FqElem(p, inv_a), FqElem(p, 0), FqElem(p, 0), FqElem(p, 0)],
    ])
    form = ExactMatrix([[FqElem(p, 1 if i + j == 3 else 0) for j in range(4)]
                        for i in range(4)])
    _check_det_one(m)
    if not preserves_form(m, form):
        raise AssertionError("orthogonal witness fails its form equation")
    m2 = m * m
    expected = FqElem(p, -2 * a_int + 4)
    assert m2.trace() == expected
    # squares of orthogonal elements land in the index-2 commutator subgroup
    return TraceWitness("Omega", m2, form, expected)


# -- orbit separation ---------------------------------------------------------


@dataclass(frozen=True)
class SeparationCertificate:
    """Mod-p evidence that bent and unbent trace sets can be told apart:
    the trace polynomial image is a proper subset of F_p, the bending
    matrix has the recorded multiplicative order (so its order-th power
    bends trivially mod p), and the sampled unbent traces all lie in the
    polynomial image."""

    n: int
    p: int
    d: int
    mode: str
    poly_image: tuple[int, ...]
    image_is_proper: bool
    b_order: int
    b_order_verified: bool
    word_length: int
    sampled_traces: tuple[int, ...]
    sample_inside_image: bool

    @property
    def separates(self) -> bool:
        return (self.image_is_proper and self.b_order_verified
                and self.sample_inside_image)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "d": self.d,
            "mode": self.mode,
            "poly_image": [str(t) for t in self.poly_image],
            "image_size": len(self.poly_image),
            "field_size": self.p,
            "image_is_proper": self.image_is_proper,
            "bending_order": str(self.b_order),
            "bending_order_verified": self.b_order_verified,
            "word_length": self.word_length,
            "sampled_traces": [str(t) for t in self.sampled_traces],
            "sample_inside_image": self.sample_inside_image,
            "separates": self.separates,
        }


def separation_certificate(n: int, b: ExactMatrix, p: int,
                           word_length: int = 4) -> SeparationCertificate:
    """Certificate for the given bending matrix over Z[sqrt(d)] and odd p:
    computes the image of the trace polynomial on F_p by brute force, the
    order of the reduced bending matrix, and a sampled trace set of words
    in reduced symmetric-power generators (the order-th bending power acts
    trivially mod p, so these are the bent traces)."""
    d = None
    for row in b.entries:
        for e in row:
            if isinstance(e, FieldElem) and e.desc.radicands:
                d = e.desc.radicands[0]
    if d is None:
        raise ValueError("bending matrix carries no quadratic irrationality")
    ctx = ReductionContext.build(p, d)
    poly = trace_poly(n)
    image = sorted(poly.image_mod(p))
    proper = len(image) < p

    b_red = reduce_matrix(b, ctx)
    order = matrix_order(b_red)
    ident = ExactMatrix.identity(n, like=b_red.entries[0][0])
    order_ok = (b_red ** order) == ident

    unipotent_u = ExactMatrix([[1, 1], [0, 1]])
    unipotent_l = ExactMatrix([[1, 0], [1, 1]])
    gens = [reduce_int_matrix(tau(n, unipotent_u), p),
            reduce_int_matrix(tau(n, unipotent_l), p)]
    sampled = trace_set_of_generators(gens, word_length=word_length)
    sample_vals = sorted({t.x for t in sampled})
    inside = all(v in set(image) for v in sample_vals)
    return SeparationCertificate(
        n=n, p=p, d=d, mode=ctx.mode,
        poly_image=tuple(image),
        image_is_proper=proper,
        b_order=order,
        b_order_verified=order_ok,
        word_length=word_length,
        sampled_traces=tuple(sample_vals),
        sample_inside_image=inside,
    )


def find_nonsurjective_prime(n: int, bound: int = 50) -> Optional[int]:
    """Smallest odd prime up to the bound where the trace polynomial is
    not surjective on F_p."""
    poly = trace_poly(n)
    for p in range(3, bound + 1, 2):
        if _is_prime(p) and len(poly.image_mod(p)) < p:
            return p
    return None
