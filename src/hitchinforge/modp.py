"""Reduction of exact data modulo an odd prime; finite matrix groups as
permutation groups on row codes (an element is the tuple of its row codes,
each row's coordinates packed in fixed-width fields of one integer, so a
row times matrices is one integer sum reduced mod p in one step, held in
lazily filled row-action tables): one stabilizer chain by deterministic
Schreier-Sims for every full closure (orders, element enumeration and
trace sets, `matrix_order` too), one breadth-first walk for bounded words,
where one sum gives a row's images under every generator; the standard
order formulas, trace sets and trace witnesses over finite fields,
Omega(4, p) from Schreier generators, and the mod-p orbit-separation
certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import rshift
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .exactnum import (
    ExactMatrix,
    FieldElem,
    GaloisAction,
    RingElem,
    _is_prime,
    _kernel,
    _signs,
    _times,
    field,
    format_scalar,
    in_group,
    lift,
    preserves_form,
    square_free_part,
    value_radicands,
)
from .lattices import symplectic_form
from .qforms import _legendre
from .symrep import tau, trace_poly

DEFAULT_CLOSURE_CAP = 5_000_000
FAMILIES = ("SL", "SU", "Sp", "Omega")


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
        raise ZeroDivisionError(
            f"denominator {format_scalar(q.denominator)} not invertible mod {p}")
    return q.numerator * pow(q.denominator, -1, p)


@dataclass(frozen=True)
class FqElem(RingElem):
    """Element of F_p (degree 1) or F_p[r]/(r^2 - r2) (degree 2), with
    coordinates reduced mod p.  It equals every rational of its residue
    class (3 and 8 both equal FqElem(5, 3)), so no hash can agree with all
    of them: an int or a Fraction never finds an equal FqElem in a set."""

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

    @cached_property  # read for every entry by exactnum._kernel's scan
    def desc(self) -> "FqDescriptor":
        """The descriptor of this element's field, its kernel."""
        return _FQ_DESCRIPTORS[self.p, self.r2]

    def _coerce(self, other) -> Optional["FqElem"]:
        if isinstance(other, FqElem):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            if other.r2 != self.r2:  # F_p next to F_p^2 too: one field per operation
                raise ValueError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return FqElem(self.p, _mod_p(other, self.p), 0, self.r2)
        return None

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def _add(self, o: "FqElem") -> "FqElem":
        return FqElem(self.p, self.x + o.x, self.y + o.y, self.r2)

    def _sub(self, o: "FqElem") -> "FqElem":
        return FqElem(self.p, self.x - o.x, self.y - o.y, self.r2)

    def __neg__(self):
        return FqElem(self.p, -self.x, -self.y, self.r2)

    def _mul(self, o: "FqElem") -> "FqElem":
        desc = self.desc
        return desc.build(desc.times((self.x, self.y), (o.x, o.y)), 1)

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self.desc.build(*self.desc.divisor((self.x, self.y)))

    def norm(self) -> int:
        """x * frobenius(x), by the descriptor's `norm`."""
        return self.desc.norm((self.x, self.y))

    def frobenius(self) -> "FqElem":
        return FqElem(self.p, self.x, -self.y, self.r2)

    def __eq__(self, other) -> bool:
        if isinstance(other, FqElem):
            if self.p != other.p:
                return False
            if self.y == 0 and other.y == 0:
                return self.x == other.x
            return (self.x, self.y, self.r2) == (other.x, other.y, other.r2)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # a rational without a residue mod p equals no element
        return (self.y == 0 and other.denominator % self.p != 0
                and self.x == _mod_p(other, self.p) % self.p)

    def __hash__(self) -> int:
        if self.y == 0:
            return hash((self.p, self.x))
        return hash((self.p, self.x, self.y, self.r2))

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        return f"{self.x}+{self.y}r"

    __repr__ = __str__


class FqDescriptor:
    """F_p (r2 None) or F_p[r]/(r^2 - r2): the kernel of its matrices (see
    exactnum's dot-products comment) and of FqElem, whose product, inverse
    and norm run `times`, `divisor` and `norm` on its coordinates (x, y).
    A matrix product is `_Layout.times` in the layout sized by the larger
    of the inner dimension and the column count.  `times` multiplies
    integer coordinates by the plan of Q(sqrt(r2)) (F_p keeps its constant
    entry) unreduced, so packed polynomials multiply as polynomials for
    `symrep.tau` and `exactnum.preserves_form`, and `build` reduces mod p;
    for `exactnum._Elimination` `divisor` inverts and `exact` reduces, and
    `signs` reads a Galois action on the coordinates.  One per field, in
    _FQ_DESCRIPTORS."""

    __slots__ = ("p", "r2", "dim", "plan", "unit")

    def __init__(self, p: int, r2: Optional[int]):
        self.p, self.r2 = p, r2
        self.dim = 1 if r2 is None else 2
        self.plan = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, r2))[:self.dim ** 2]
        self.unit = [1, 0][:self.dim]

    times = _times

    def split(self, vec: Sequence[FqElem]) -> tuple[int, list[list[int]]]:
        if self.r2 is None:
            return 1, [[e.x for e in vec]]
        return 1, [[e.x for e in vec], [e.y for e in vec]]

    def build(self, nums: Sequence[int], den: int) -> FqElem:
        return FqElem(self.p, *nums, r2=self.r2)

    def signs(self, action: Optional[GaloisAction]) -> tuple[int, ...]:
        """One sign per coordinate: F_p^2 is read on the plan of Q(sqrt(r2)),
        so its Frobenius is the action negating sqrt(r2)."""
        return _signs(() if self.r2 is None else (self.r2,), action)

    def products(self, rows, right) -> tuple:
        # every field of a row sum is at most top only when the layout
        # covers the inner dimension, not just the columns
        return _LAYOUTS[self.p, self.r2, max(len(right), len(right[0]))].times(rows, right)

    def norm(self, d: Sequence[int]) -> int:
        """N(x + y r) = x^2 - r2 y^2 mod p for d = (x, y), y 0 over F_p."""
        return (d[0] * d[0] - (self.r2 or 0) * d[1] * d[1]) % self.p

    def divisor(self, d: Sequence[int]) -> tuple[list[int], int]:
        """(1/d mod p, 1), as 1/(x + y r) = (x - y r) / N(x + y r)."""
        p = self.p
        if self.r2 is None:
            return [pow(d[0], -1, p)], 1
        inv = pow(self.norm(d), -1, p)
        return [d[0] * inv % p, -d[1] * inv % p], 1

    def exact(self, coords: list, norm: int) -> list:
        return [[x % self.p for x in c] for c in coords]


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
    """Ring homomorphism onto the residue ring of Z[sqrt(d)], on values
    lifted into Q(sqrt(d)); denominators must be invertible mod p.  Every
    value, a rational too, lands in that one ring: F_p when p splits,
    F_p^2 when p is inert."""
    p = ctx.p
    if isinstance(x, (int, Fraction)):
        a, b = _mod_p(x, p), 0
    elif isinstance(x, FieldElem):
        x = lift(x, field(ctx.d))
        den_inv = _mod_p(Fraction(1, x.den), p)
        a, b = (c * den_inv for c in x.nums)
    else:
        raise TypeError(f"cannot reduce {type(x)!r}")
    if ctx.mode == "split":
        return FqElem(p, a + b * ctx.root)
    return FqElem(p, a, b, ctx.d % p)


def reduce_matrix(m: ExactMatrix, ctx: ReductionContext) -> ExactMatrix:
    return m.map_entries(lambda e: reduce_scalar(e, ctx))


def reduce_int_matrix(m: ExactMatrix, p: int) -> ExactMatrix:
    """Reduce a rational matrix with p-invertible denominators mod p."""
    return m.map_entries(lambda e: FqElem(p, _mod_p(e, p)))


def matrix_order(m: ExactMatrix) -> int:
    """Multiplicative order of an invertible FqElem matrix, the order of
    the cyclic group it generates, from its stabilizer chain; a singular
    one never sifts to the identity, so the chain's `_add` refuses it."""
    return _Chain([m], DEFAULT_CLOSURE_CAP).order


# -- row codes and the row action ----------------------------------------------
#
# An element is the tuple of its row codes.  An entry x + y*r of F_q (q = p,
# or q = p^2 with r^2 = r2) keeps x, and y over F_p^2, in fields `width` bits
# wide of one integer, the row's code.  A row (x_j + y_j r)_j times a matrix
# with rows R_j is then the one integer sum of x_j R_j + y_j (r R_j) over
# the codes, every field at most `top`, and one step reduces every field mod
# p at once: with mult about 2^shift / p, each field v becomes
# v - p * (v * mult >> shift) (Granlund and Montgomery, "Division by
# invariant integers using multiplication", PLDI 1994), which is already
# the image's code.  Matrices side by side in the sum give a row's images
# under each of them at once.  The codes are the points of a permutation
# action, and the base images of the base e_1, ..., e_n under an element
# are its row codes.


class _Lazy(dict):
    """A map filled on first lookup: a missing key k is stored as fn(k)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Interned(_Lazy):
    """A _Lazy that stores at most _INTERNED values; past that, a missing
    key gets a fresh fn(k) each time, so a large field's table stays small."""

    __slots__ = ()

    def __missing__(self, key):
        value = self.fn(key)
        if len(self) < _INTERNED:
            self[key] = value
        return value


_INTERNED = 1 << 12     # about 1 MB of FqElems per layout at most
_FQ_DESCRIPTORS = _Lazy(lambda key: FqDescriptor(*key))  # by (p, r2 mod p)


class _Layout:
    """The row codes of rows of at most n entries over F_p (r2 None) or
    F_p[r]/(r^2 - r2), times matrices of at most n rows: `fields` fields of
    `width` bits per row, `bits` in all, one entry every `step` bits.  mult
    and shift give v // p as v * mult >> shift for every field v up to
    `top`, the largest field of an unreduced row times such a matrix, and
    top * mult fits in a field.  `element` maps an entry's code (its fields)
    to its one interned FqElem, filled on first lookup, for the first
    _INTERNED values met.  Interned in _LAYOUTS by (p, r2, n)."""

    __slots__ = ("p", "r2", "dim", "fields", "top", "shift", "mult", "width",
                 "mask", "bits", "base", "x_fields", "reduce", "step", "shifts",
                 "element")

    def __init__(self, p: int, r2: Optional[int], n: int):
        self.p, self.r2 = p, r2
        self.dim = 1 if r2 is None else 2
        self.fields = self.dim * n
        self.top = self.fields * (p - 1) ** 2
        # v * mult / 2^shift exceeds v / p by under 1 / p when top * p < 2^shift
        self.shift = (self.top * p).bit_length()
        self.mult = -(-(1 << self.shift) // p)
        self.width = (self.top * self.mult).bit_length()
        self.mask = (1 << self.width) - 1
        self.bits = self.width * self.fields
        self.step = self.width * self.dim
        self.shifts = range(0, self.bits, self.step)
        self.base = tuple(1 << s for s in self.shifts)
        self.x_fields = sum(self.mask << self.width * f for f in range(0, self.fields, self.dim))
        # by the number of codes side by side: a map that reduces every
        # field of such an integer, each at most top, mod p at once
        self.reduce = _Lazy(self._reducer)
        self.element = _Interned(self._element)

    def _reducer(self, blocks: int) -> Callable[[int], int]:
        p, mult, shift = self.p, self.mult, self.shift
        quotient = (1 << self.width - shift) - 1
        low = sum(quotient << self.width * f for f in range(self.fields * blocks))
        return lambda acc: acc - p * (acc * mult >> shift & low)

    def _element(self, code: int) -> FqElem:
        return FqElem(self.p, code & self.mask, code >> self.width, self.r2)

    def codes(self, rows: Sequence[Sequence[FqElem]]) -> tuple[int, ...]:
        """The codes of rows of FqElems, such as an FqElem matrix's
        entries (y is 0 over F_p)."""
        w = self.width
        return tuple(sum((e.x + (e.y << w)) << s for s, e in zip(self.shifts, row))
                     for row in rows)

    def entries(self, code: int, count: Optional[int] = None) -> list[FqElem]:
        """The first `count` (by default all n) FqElems of the row with the
        given code, read from the element table."""
        element, mask = self.element, (1 << self.step) - 1
        return [element[code >> s & mask] for s in self.shifts[:count]]

    def _terms(self, matrices: Sequence[tuple[int, ...]]) -> list[int]:
        """What field f of a row multiplies: R_j, and over F_p^2 also
        r R_j, for the row codes R_j of each matrix, side by side every
        `bits` bits."""
        r2, width, bits, xs = self.r2, self.width, self.bits, self.x_fields
        reduce_row = self.reduce[1]
        terms = [0] * self.fields
        for i, rows in enumerate(matrices):
            for j, code in enumerate(rows):
                terms[self.dim * j] += code << bits * i
                if r2 is not None:      # r (x + y r) = r2 y + x r, field by field
                    r_code = reduce_row(r2 * (code >> width & xs) + ((code & xs) << width))
                    terms[2 * j + 1] += r_code << bits * i
        return terms

    def times(self, rows: Sequence[Sequence[FqElem]],
              right: Sequence[Sequence[FqElem]]) -> tuple[tuple[FqElem, ...], ...]:
        """The rows, as tuples, of the product of two FqElem matrices given
        by their rows: each output row is the one integer sum of
        x_j R_j + y_j (r R_j) over the right factor's row codes R_j, read
        from the left row's entries x_j + y_j r, reduced once and decoded."""
        terms = self._terms([self.codes(right)])
        reduce_row, count = self.reduce[1], len(right[0])
        if self.r2 is None:
            sums = (sum([e.x * t for e, t in zip(row, terms)]) for row in rows)
        else:
            xt, yt = terms[::2], terms[1::2]
            sums = (sum([e.x * s + e.y * t for e, s, t in zip(row, xt, yt)]) for row in rows)
        return tuple([tuple(self.entries(reduce_row(acc), count)) for acc in sums])

    def product(self, matrices: Sequence[tuple[int, ...]]) -> Callable[[int], int]:
        """The map from a row code to its images under each matrix, given
        by its row codes, side by side every `bits` bits: one integer sum
        over the fields of the row, reduced once."""
        width, mask, terms = self.width, self.mask, self._terms(matrices)
        reduce = self.reduce[len(matrices)]

        def image(code: int) -> int:
            acc = 0
            for term in terms:
                acc += (code & mask) * term
                code >>= width
            return reduce(acc)
        return image


_LAYOUTS = _Lazy(lambda key: _Layout(*key))  # by (p, r2, n)


def _layout(gens: Sequence[ExactMatrix]) -> _Layout:
    """The row-code layout of the generators, the one intake of every
    closure, run once per call: `_kernel`'s one pass names their one
    finite field, and every generator must be n x n for one n."""
    desc = _kernel([row for g in gens for row in g.entries])
    if not isinstance(desc, FqDescriptor):  # no generators at all pick Q
        raise ValueError("the generators are not matrices over one finite field")
    n = gens[0].nrows
    if any(g.nrows != n or g.ncols != n for g in gens):
        raise ValueError("the generators are not n x n matrices for one n")
    return _LAYOUTS[desc.p, desc.r2, n]


def _walk(gens: Sequence[ExactMatrix], layout: _Layout, cap: int,
          depth: int) -> set[tuple[int, ...]]:
    """The words of length at most depth in the generators, in their
    `_layout`, by a breadth-first walk: a row's first lookup gives its
    images under every generator.  Raises CapExceeded (with the partial
    count, cap + 1) as soon as the set of elements outgrows the cap."""
    image = layout.product([layout.codes(g.entries) for g in gens])
    bits, mask = layout.bits, (1 << layout.bits) - 1
    shifts = range(0, bits * len(gens), bits)

    def images(code: int) -> list[int]:
        acc = image(code)
        return [acc >> s & mask for s in shifts]
    table = _Lazy(images).__getitem__
    seen = {layout.base}
    frontier = [layout.base]
    level = 0
    while frontier and level < depth:
        level += 1
        new = []
        for m in frontier:
            for prod in zip(*map(table, m)):
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise CapExceeded(len(seen))
                    new.append(prod)
        frontier = new
    return seen


# -- the stabilizer chain -------------------------------------------------------
#
# Full closures build a stabilizer chain of the row action by deterministic
# Schreier-Sims (Seress, Permutation Group Algorithms, 2003, Ch. 4;
# Holt-Eick-O'Brien, Handbook of Computational Group Theory, 2005, Ch. 4).
# Level i holds the orbit of the base point e_(i+1) under the strong
# generators that fix e_1, ..., e_i, and for each orbit point gamma the row
# codes of a transversal element u_gamma with e_(i+1) u_gamma = gamma.
# Elements are sifted by their base images, that is by their row codes, so
# no table is built for an element that sifts: only the strong generators
# and the transversal inverses carry lazy row-action tables.


class _Chain:
    """Stabilizer chain of the group generated by invertible FqElem
    matrices.  `order` is the product of the orbit sizes; `elements()`
    yields each element once.  The order, a lower bound while the chain is
    built, raises CapExceeded (cap + 1) as soon as it passes the cap."""

    def __init__(self, gens: Sequence[ExactMatrix], cap: int):
        self.layout = layout = _layout(gens)
        self.cap, self.order = cap, 1
        self.base = layout.base
        # level i: orbit point gamma -> (row codes of u_gamma, the point
        # beta and the strong generator s with u_gamma = u_beta s); the
        # base point has u = 1 and no beta
        self.trans = [{b: (self.base, None, None)} for b in self.base]
        # level i: orbit point gamma -> row action of u_gamma^-1, built on
        # first use; a range is the identity on every code
        self.inverses: list[dict] = [{b: range(1 << layout.bits)} for b in self.base]
        # level i: the row action of each strong generator fixing the
        # first i base points, with the row codes of its inverse
        self.strong: list[list[tuple[_Lazy, tuple[int, ...]]]] = [[] for _ in self.base]
        # level i: orbit point -> how many strong generators have had their
        # Schreier generator at that point sifted
        self.done = [{b: 0} for b in self.base]
        for g in gens:
            level = self._add(self._sift(layout.codes(g.entries), 0))
            while level is not None and level >= 0:
                added = self._schreier(level)
                level = level - 1 if added is None else added

    def _inverse(self, i: int, gamma: int) -> Union[range, _Lazy]:
        """The row action of u_gamma^-1 at level i.  It is built from the
        rows s^-1 u_beta^-1, so the tables up the orbit tree come first."""
        trans, cache = self.trans[i], self.inverses[i]
        path = []
        while gamma not in cache:
            path.append(gamma)
            gamma = trans[gamma][1]
        for gamma in reversed(path):
            _, beta, (_, s_inv_rows) = trans[gamma]
            rows = tuple(map(cache[beta].__getitem__, s_inv_rows))
            cache[gamma] = _Lazy(self.layout.product([rows]))
        return cache[gamma]

    def _sift(self, rows: tuple[int, ...], level: int
              ) -> Optional[tuple[tuple[int, ...], int]]:
        """Strip an element that fixes the first `level` base points
        through the chain, from its row codes.  Returns None when it sifts
        to the identity, else the residue's row codes and the level where
        its base image has no transversal element."""
        for i in range(level, len(self.base)):
            if rows[i] not in self.trans[i]:
                return rows, i
            rows = tuple(map(self._inverse(i, rows[i]).__getitem__, rows))
        return None

    def _add(self, residue: Optional[tuple[tuple[int, ...], int]]) -> Optional[int]:
        """Make a residue that failed to sift at level j a strong generator
        of levels 0..j, extend their orbits and return j."""
        if residue is None:
            return None
        rows, level = residue
        layout = self.layout
        try:
            inverse = ExactMatrix(list(map(layout.entries, rows))).inverse()
        except ZeroDivisionError:
            raise ValueError("closure needs invertible generators") from None
        gen = (_Lazy(layout.product([rows])), layout.codes(inverse.entries))
        for i in range(level + 1):
            self.strong[i].append(gen)
            self._close(i)
        return level

    def _close(self, i: int) -> None:
        """Extend the orbit of level i under its strong generators; a new
        point gamma = beta s gets u_gamma = u_beta s.  The cap is checked
        at every new point."""
        trans, done, gens = self.trans[i], self.done[i], self.strong[i]
        others = self.order // len(trans)
        frontier = list(trans)
        while frontier:
            new = []
            for beta in frontier:
                rows = trans[beta][0]
                for gen in gens:
                    gamma = gen[0][beta]
                    if gamma not in trans:
                        if others * (len(trans) + 1) > self.cap:
                            raise CapExceeded(self.cap + 1)
                        trans[gamma] = (tuple(map(gen[0].__getitem__, rows)), beta, gen)
                        done[gamma] = 0
                        new.append(gamma)
            frontier = new
        self.order = others * len(trans)

    def _schreier(self, i: int) -> Optional[int]:
        """Sift the Schreier generators u_beta s u_(beta s)^-1 of level i
        not sifted before; at the first that fails, add its residue and
        return the level it was added at, else return None."""
        trans, done, gens = self.trans[i], self.done[i], self.strong[i]
        for beta in list(trans):
            rows = trans[beta][0]
            while done[beta] < len(gens):
                perm = gens[done[beta]][0]
                done[beta] += 1
                u_inv = self._inverse(i, perm[beta])
                images = tuple(u_inv[perm[code]] for code in rows)
                added = self._add(self._sift(images, i + 1))
                if added is not None:
                    return added
        return None

    def elements(self) -> Iterator[tuple[int, ...]]:
        """Each element once, as its row codes: the products
        u_n ... u_2 u_1 of one transversal element per level, with no
        seen set."""
        elements: Iterator[tuple[int, ...]] = iter([self.base])
        for level in reversed(self.trans):
            elements = _times_each(elements, _transversal_actions(level))
        return elements

    def traces(self) -> frozenset[FqElem]:
        return _traces(self.elements(), self.layout)


def _transversal_actions(level: dict) -> list[Callable[[int], int]]:
    """The row actions of a level's transversal elements, in orbit order:
    u_gamma = u_beta s acts as s after u_beta, whose table the same row
    has just filled, since beta comes before gamma."""
    tables: dict[int, Callable[[int], int]] = {}
    for gamma, (_, beta, gen) in level.items():
        # int is the identity on codes, the action of u = 1 at the base point
        tables[gamma] = int if beta is None else _Lazy(
            lambda code, parent=tables[beta], perm=gen[0]: perm[parent(code)]).__getitem__
    return list(tables.values())


def _times_each(elements: Iterator[tuple[int, ...]],
                steps: list[Callable[[int], int]]) -> Iterator[tuple[int, ...]]:
    """Every element times every matrix given by its row action.  A
    function, not a generator expression in the loop of `elements`, so
    that each level keeps its own steps."""
    return itertools.chain.from_iterable(
        map(tuple, map(map, steps, itertools.repeat(h))) for h in elements)


def _traces(elements: Iterable[tuple[int, ...]], layout: _Layout) -> frozenset[FqElem]:
    """Trace set of elements given by their row codes.  Row i shifted
    down by its diagonal's place puts that entry in the lowest fields, so
    the sum of the shifted rows is the trace's code, unreduced, and no
    field carries into the next.  Each sum is reduced when first seen and
    read from the layout's element table; reading stops once all q values
    of F_q have appeared."""
    shifts, reduce, element = layout.shifts, layout.reduce[1], layout.element
    low = (1 << layout.step) - 1
    q = layout.p ** layout.dim
    sums: set[int] = set()
    traces: set[FqElem] = set()
    for m in elements:
        s = sum(map(rshift, m, shifts)) & low
        if s not in sums:
            sums.add(s)
            traces.add(element[reduce(s)])
            if len(traces) == q:
                break
    return frozenset(traces)


def group_closure(gens: Sequence[ExactMatrix],
                  cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """Exact order of the group generated by invertible FqElem matrices,
    from its stabilizer chain.  Raises CapExceeded (cap + 1) once the
    order is known to pass the cap."""
    return _Chain(gens, cap).order


def group_closure_and_traces(gens: Sequence[ExactMatrix],
                             cap: int = DEFAULT_CLOSURE_CAP
                             ) -> tuple[int, frozenset[FqElem]]:
    """Order and full trace set from one stabilizer chain."""
    chain = _Chain(gens, cap)
    return chain.order, chain.traces()


def group_order_formula(family: str, n: int, q: int) -> int:
    """Textbook orders of the finite classical groups."""
    if family in ("SL", "SU"):
        sign = -1 if family == "SU" else 1
        out = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            out *= q ** i - sign ** i
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
    _check_family("SL", n, p)
    e12 = [[int(i == j) for j in range(n)] for i in range(n)]
    e12[0][1] = 1
    cyc = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    cyc[0][n - 1] = (-1) ** (n - 1)
    return [reduce_int_matrix(ExactMatrix(m), p) for m in (e12, cyc)]


def hermitian_3form(p: int, r2: int) -> ExactMatrix:
    one = FqElem(p, 1, 0, r2)
    zero = FqElem(p, 0, 0, r2)
    return ExactMatrix([[zero, zero, one], [zero, one, zero], [one, zero, zero]])


def su3_generators(p: int) -> tuple[list[ExactMatrix], ExactMatrix, int]:
    """Generators of the 3-dimensional unitary group for the antidiagonal
    Hermitian form over F_(p^2): the unipotent root elements together with
    a Weyl representative.  Returns (generators, form, r2)."""
    _check_family("SU", 3, p)
    r2 = _non_residue(p)

    def fq(x, y=0):
        return FqElem(p, x, y, r2)

    gens = []
    elements = [fq(x, y) for x in range(p) for y in range(p)]
    for a in elements:
        na = a.norm()
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
    form = hermitian_3form(p, r2)
    gens.append(-form)     # the Weyl representative
    return gens, form, r2


def _non_residue(p: int) -> int:
    return next(r for r in range(2, p) if _legendre(r, p) == -1)


def sp_generators(n: int, p: int) -> list[ExactMatrix]:
    """Symplectic transvections x -> x + <x,v> v, that is I + v (Jv)^T, for
    the spanning set e_i, e_i + e_(i+1), e_1 + ... + e_n of v, for the
    block-diagonal form J."""
    _check_family("Sp", n, p)
    j = symplectic_form(n)
    vs = ([[int(k == i) for k in range(n)] for i in range(n)]
          + [[int(k in (i, i + 1)) for k in range(n)] for i in range(n - 1)]
          + [[1] * n])
    ident = ExactMatrix.identity(n)
    cols = [ExactMatrix([[x] for x in v]) for v in vs]
    return [reduce_int_matrix(ident + v * (j * v).transpose(), p) for v in cols]


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

    No closure of SO is built here; the Omega chain proves that these
    generate SO.  Its Schreier generators have square spinor norm, so
    they lie in Omega, while t does not; hence the generated group has
    order at least 2 |Omega| = |SO|."""
    if p == 2:
        raise ValueError("odd characteristic only")
    ident = ExactMatrix.identity(4)

    def reflection(v, nv):
        """I - 2 v v^T / Q(v), with the residue nv standing for Q(v)."""
        col = ExactMatrix([[x] for x in v])
        return ident - col * col.transpose() * Fraction(2, nv)

    base, *refs = [reflection(v, nv) for v, nv in _so4_anisotropic(p)]
    return [reduce_int_matrix(base * h, p) for h in refs]


def _omega4_schreier_generators(p: int) -> list[ExactMatrix]:
    """Generators of Omega(4, p), the commutator subgroup of SO(I_4, F_p).

    Omega is the kernel of the spinor norm, and the spinor norm of
    r_e1 r_v is the square class of Q(v).  With t a generator of non-square
    norm, {1, t} is a transversal, so Omega is generated by the Schreier
    generators: g and t g t^-1 for g of square norm, g t^-1 and t g for g
    of non-square norm."""
    gens = so4_generators(p)
    square = [_legendre(nv, p) == 1 for _, nv in _so4_anisotropic(p)[1:]]
    t = next(g for g, sq in zip(gens, square) if not sq)
    t_inv = t.inverse()
    schreier = []
    for g, sq in zip(gens, square):
        schreier += [g, t * g * t_inv] if sq else [g * t_inv, t * g]
    return schreier


def _omega4_chain(p: int, cap: int) -> _Chain:
    """Stabilizer chain of Omega(4, p), checked to have index 2 in SO.

    The index-2 check also proves that `so4_generators` generates SO: the
    Schreier generators have square norm, so the group H they generate
    lies in Omega; t, a generator of non-square norm, does not, so the
    group G generated by the reflection products holds H and its coset
    under t, and |SO| >= |G| >= 2 |H| = |SO|."""
    chain = _Chain(_omega4_schreier_generators(p), cap)
    if 2 * chain.order != so4_order(p):
        raise AssertionError("Schreier generators fail to give an index-2 subgroup")
    return chain


def omega4_elements(p: int, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[int, set]:
    """(order of SO(I_4, F_p), the set of elements of Omega(4, p) as row
    codes), from the chain of `_omega4_chain`."""
    return so4_order(p), set(_omega4_chain(p, cap).elements())


# -- trace sets ---------------------------------------------------------------


def trace_set_of_generators(gens: Sequence[ExactMatrix],
                            cap: int = DEFAULT_CLOSURE_CAP,
                            word_length: Optional[int] = None
                            ) -> frozenset[FqElem]:
    """Traces over the full closure, from its stabilizer chain, or over
    the walk of the words of bounded length when word_length is given
    (ValueError if negative).  The cap bounds the group order, or the
    number of distinct words."""
    if word_length is None:
        return _Chain(gens, cap).traces()
    if word_length < 0:
        raise ValueError(f"word length {word_length} is negative")
    layout = _layout(gens)
    return _traces(_walk(gens, layout, cap, word_length), layout)


def _check_family(family: str, n: int, p: int) -> None:
    """Raise ValueError unless family, one of FAMILIES, is built at (n, p):
    p prime, odd for SU and Omega; n >= 2, even for Sp, 3 for SU, 4 for Omega."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p == 2 and family in ("SU", "Omega"):
        raise ValueError(f"{family} is built for odd p")
    if n < 2:
        raise ValueError("n must be at least 2")
    if family == "Sp" and n % 2:
        raise ValueError("symplectic dimension must be even")
    if family == "SU" and n != 3:
        raise ValueError("unitary generators are built for n = 3")
    if family == "Omega" and n != 4:
        raise ValueError("commutator orthogonal group is built for n = 4")


def trace_set(family_or_gens, n: Optional[int] = None, p: Optional[int] = None,
              cap: int = DEFAULT_CLOSURE_CAP,
              word_length: Optional[int] = None) -> frozenset[FqElem]:
    """Trace set of a named family (SL/SU/Sp/Omega at the given n, p) by
    full closure, or of an explicit generator list.  Omega, built from
    Schreier generators, has no bounded-word mode."""
    if not isinstance(family_or_gens, str):
        return trace_set_of_generators(family_or_gens, cap, word_length)
    family = family_or_gens
    _check_family(family, n, p)
    if family == "Omega":
        if word_length is not None:
            raise ValueError("Omega trace sets are computed by full closure only")
        return _omega4_chain(p, cap).traces()
    if family == "SL":
        gens = sl_generators(n, p)
    elif family == "SU":
        gens = su3_generators(p)[0]
    else:
        gens = sp_generators(n, p)
    return trace_set_of_generators(gens, cap, word_length)


# -- trace witnesses ----------------------------------------------------------


@dataclass(frozen=True)
class TraceWitness:
    family: str
    matrix: ExactMatrix
    form: Optional[ExactMatrix]   # preserved bilinear/Hermitian form, if any
    trace: FqElem


def trace_witness(family: str, n: int, p: int, a) -> TraceWitness:
    """An element of the family with prescribed trace behaviour, verified
    against its defining equations mod p: determinant one, the family's
    form (Hermitian through the Frobenius for SU) and the trace.  A failed
    check raises AssertionError.  A rational a stands for its residue mod p.

    SL and Sp: trace exactly a (companion 2x2 block, identity padding).
    SU (n = 3): the standard unitary witness with trace a - 1.
    Omega (n = 4): the squared orthogonal witness, trace -2a + 4 (a != 0).
    """
    _check_family(family, n, p)
    if not isinstance(a, FqElem):
        a = FqElem(p, _mod_p(a, p))
    if family == "SU":
        m, form, trace = _su3_witness(p, a)
    elif family == "Omega":
        m, form, trace = _omega4_witness(p, a.x)
    else:
        m = _block_witness(n, p, (a.x - (n - 2)) % p)
        form = reduce_int_matrix(symplectic_form(n), p) if family == "Sp" else None
        trace = FqElem(p, a.x)
    # the Hermitian form of SU is read under the Frobenius, which negates sqrt(r2)
    frobenius = GaloisAction.from_signs({trace.r2: -1}) if family == "SU" else None
    if not in_group(m, n, form, frobenius):
        raise AssertionError(f"{family} witness fails its defining equations")
    if m.trace() != trace:
        raise AssertionError(f"{family} witness trace is not {trace}")
    return TraceWitness(family, m, form, trace)


def _block_witness(n: int, p: int, a: int) -> ExactMatrix:
    """The companion block [[a, 1], [-1, 0]] padded by the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[0][:2] = [a, 1]
    rows[1][:2] = [-1, 0]
    return reduce_int_matrix(ExactMatrix(rows), p)


def _su3_witness(p: int, a: FqElem) -> tuple[ExactMatrix, ExactMatrix, FqElem]:
    r2 = _non_residue(p) if a.r2 is None else a.r2
    a = FqElem(p, a.x, a.y, r2)
    target = (-(a + a.frobenius()).x) % p
    candidates = (FqElem(p, x, y, r2) for x in range(p) for y in range(p))
    b = next(c for c in candidates if c.norm() == target)
    zero, one = FqElem(p, 0, 0, r2), FqElem(p, 1, 0, r2)
    m = ExactMatrix([
        [a, b, one],
        [b.frobenius(), -one, zero],
        [one, zero, zero],
    ])
    return m, hermitian_3form(p, r2), a - one


def _omega4_witness(p: int, a_int: int) -> tuple[ExactMatrix, ExactMatrix, FqElem]:
    if a_int == 0:
        raise ValueError("witness construction needs a != 0")
    m = reduce_int_matrix(ExactMatrix([
        [0, 0, -a_int, a_int],
        [0, 0, 1, 0],
        [1, 1, 0, 0],
        [Fraction(1, a_int), 0, 0, 0],
    ]), p)
    form = reduce_int_matrix(
        ExactMatrix([[int(i + j == 3) for j in range(4)] for i in range(4)]), p)
    if not preserves_form(m, form):
        raise AssertionError("orthogonal witness fails its form equation")
    # squares of orthogonal elements land in the index-2 commutator subgroup
    return m * m, form, FqElem(p, -2 * a_int + 4)


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
    rads = value_radicands(e for row in b.entries for e in row)
    if len(rads) != 1:
        raise ValueError("bending matrix must carry exactly one quadratic "
                         f"irrationality, not {len(rads)}")
    d, = rads
    ctx = ReductionContext.build(p, d)
    poly = trace_poly(n)
    image = sorted(poly.image_mod(p))
    proper = len(image) < p

    b_red = reduce_matrix(b, ctx)
    order = matrix_order(b_red)
    order_ok = (b_red ** order).is_identity()

    unipotents = (ExactMatrix([[1, 1], [0, 1]]), ExactMatrix([[1, 0], [1, 1]]))
    gens = [reduce_int_matrix(tau(n, u), p) for u in unipotents]
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
