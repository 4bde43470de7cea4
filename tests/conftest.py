import random
from fractions import Fraction
from math import isqrt

import pytest

from hitchinforge.exactnum import ExactMatrix

S = ExactMatrix([[0, -1], [1, 0]])
T = ExactMatrix([[1, 1], [0, 1]])
T_INV = ExactMatrix([[1, -1], [0, 1]])


def random_sl2z(rng: random.Random, entry_bound: int = 50,
                max_length: int = 8) -> ExactMatrix:
    """Random word in the modular group with all entries bounded."""
    while True:
        m = ExactMatrix.identity(2)
        for _ in range(rng.randint(1, max_length)):
            m = m * rng.choice([S, T, T_INV])
            if any(abs(e) > entry_bound for row in m.entries for e in row):
                break
        else:
            if not m.is_identity():
                return m


def random_sl2q(rng: random.Random, entry_bound: int = 50) -> ExactMatrix:
    """Random determinant-one matrix with numerators and denominators of
    all entries bounded; roughly half have non-integer entries."""
    m = random_sl2z(rng, entry_bound=12)
    if rng.random() < 0.5:
        return m
    d = ExactMatrix([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]])
    conj = d * m * d.inverse()
    ok = all(abs(e.numerator) <= entry_bound and e.denominator <= entry_bound
             for row in conj.entries for e in row)
    return conj if ok else m


def primes_up_to(limit: int) -> set[int]:
    """Sieve of Eratosthenes."""
    flags = [False, False] + [True] * (limit - 1)
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = [False] * len(range(i * i, limit + 1, i))
    return {i for i, prime in enumerate(flags) if prime}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240819)
