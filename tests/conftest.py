"""Shared helpers: parsing shortcuts, random generators, brute-force oracles.

The oracles are deliberately independent of the Groebner engine: monomial
ideal membership is decided by divisibility against the raw generators, and
dimensions by exhaustive search over variable subsets.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from logfol.poly import Poly, parse_poly


def mono_degree(a) -> int:
    return sum(a)


def mono_divides(a, b) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def P(text: str, arity: int) -> Poly:
    return parse_poly(text, arity)


def variables(arity: int):
    return [Poly.variable(arity, i) for i in range(arity)]


def permuted_poly(p: Poly, perm) -> Poly:
    """Rename variables by ``perm``: x_i becomes x_{perm[i]}."""
    if sorted(perm) != list(range(p.arity)):
        raise ValueError("perm must be a permutation of the variable indices")
    inverse = sorted(range(p.arity), key=lambda i: perm[i])
    return Poly(p.arity, {tuple(mono[i] for i in inverse): coeff
                          for mono, coeff in p.terms.items()})


def random_poly(rng: random.Random, arity: int, degree: int, terms: int = 4) -> Poly:
    out = {}
    for _ in range(terms):
        mono = [0] * arity
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(arity)] += 1
        out[tuple(mono)] = Fraction(rng.randint(-5, 5))
    return Poly(arity, out)


def random_homogeneous_poly(rng: random.Random, arity: int, degree: int,
                            terms: int = 4) -> Poly:
    out = {}
    for _ in range(terms):
        mono = [0] * arity
        for _ in range(degree):
            mono[rng.randrange(arity)] += 1
        out[tuple(mono)] = Fraction(rng.randint(-5, 5))
    return Poly(arity, out)


def random_monomial(rng: random.Random, arity: int, max_degree: int):
    mono = [0] * arity
    for _ in range(rng.randint(1, max_degree)):
        mono[rng.randrange(arity)] += 1
    return tuple(mono)


def random_monomial_ideal_gens(rng: random.Random, arity: int, max_degree: int,
                               count: int):
    return sorted({random_monomial(rng, arity, max_degree) for _ in range(count)})


# ---------------------------------------------------------------------------
# monomial-ideal oracles
# ---------------------------------------------------------------------------

def monomials_upto(arity: int, max_degree: int):
    """Every exponent tuple of total degree <= max_degree."""
    for degree in range(max_degree + 1):
        for bars in itertools.combinations(range(degree + arity - 1), arity - 1):
            prev = -1
            mono = []
            for b in bars:
                mono.append(b - prev - 1)
                prev = b
            mono.append(degree + arity - 2 - prev)
            yield tuple(mono)


def in_monomial_ideal(mono, gens) -> bool:
    return any(mono_divides(g, mono) for g in gens)


def oracle_intersection(mono, gens_list) -> bool:
    return all(in_monomial_ideal(mono, gens) for gens in gens_list)


def oracle_colon(mono, gens, divisor_mono) -> bool:
    """mono in (I : u) iff mono * u in I."""
    shifted = tuple(a + b for a, b in zip(mono, divisor_mono))
    return in_monomial_ideal(shifted, gens)


def oracle_saturation(mono, gens, sat_gens) -> bool:
    """mono in (I : J^inf) = intersection over u in J of (I : u^inf)."""
    power = max(mono_degree(g) for g in gens)
    for u in sat_gens:
        shifted = tuple(a + power * b for a, b in zip(mono, u))
        if not in_monomial_ideal(shifted, gens):
            return False
    return True


def oracle_dimension(gens, arity: int) -> int:
    """Largest variable subset containing no generator's support; -1 if the
    ideal contains a constant."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    if any(not s for s in supports):
        return -1
    best = 0
    for size in range(arity, 0, -1):
        for subset in itertools.combinations(range(arity), size):
            chosen = frozenset(subset)
            if not any(s <= chosen for s in supports):
                return size
    return best


def mono_poly(arity: int, mono) -> Poly:
    return Poly(arity, {tuple(mono): Fraction(1)})


def strip_timings(obj):
    """A report without its ``seconds`` fields, the only ones that vary."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj
