"""Seeded random generation of validated foliation instances.

Hyperplane coefficients and residues are drawn from small integer ranges
and draws that fail validation (degenerate residues, non-transversal
arrangements) are rejected and retried, so a returned
instance always carries a validation certificate at the requested level.
All randomness flows through the caller's ``random.Random`` so batches are
reproducible from a recorded seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .foliation import (
    FoliationSpec,
    SpecValidationError,
    ValidatedSpec,
    degenerate_strata,
    validate_spec,
)
from .poly import Poly


def random_linear_form(rng: random.Random, arity: int) -> Poly:
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(arity)]
        if any(coeffs):
            return Poly(arity, {tuple(int(j == i) for j in range(arity)): c
                                for i, c in enumerate(coeffs) if c})


def _descent_matrix(rng: random.Random, q: int, s: int) -> list:
    """A q x s integer matrix whose rows sum to zero: the residues of s
    hyperplanes satisfy descent."""
    rows = []
    for _ in range(q):
        head = [rng.randint(-4, 4) for _ in range(s - 1)]
        rows.append([Fraction(c) for c in head + [-sum(head)]])
    return rows


def random_foliation_spec(rng: random.Random, n: int, q: int, s: int) -> FoliationSpec:
    """One random draw of s hyperplanes, each a coordinate hyperplane not
    drawn yet with probability 1/2; may fail validation (callers should
    retry)."""
    arity = n + 1
    divisors = []
    free_coords = list(range(arity))
    for _ in range(s):
        if free_coords and rng.random() < 0.5:
            i = free_coords.pop(rng.randrange(len(free_coords)))
            divisors.append(Poly.variable(arity, i))
        else:
            divisors.append(random_linear_form(rng, arity))
    return FoliationSpec(n, q, divisors, residue_matrix=_descent_matrix(rng, q, s))


def random_validated_spec(rng: random.Random, n: int, q: int, s: int,
                          level: str = "full-snc") -> ValidatedSpec:
    """Draw until a spec passes validation at ``level``, at most 200 times."""
    for _ in range(200):
        spec = random_foliation_spec(rng, n, q, s)
        try:
            vs = validate_spec(spec, level)
        except SpecValidationError:
            continue
        # reject residue draws that degenerate on some deep stratum; the
        # validation levels do not ask for this, but the locus theorems do
        if degenerate_strata(vs.lambdas, q, s):
            continue
        return vs
    raise RuntimeError(f"no valid instance found in 200 draws for n={n} q={q} s={s}")


def instance_menu():
    """The (n, q, s) shapes the random suites draw from."""
    return [(n, q, s) for n in (2, 3, 4) for q in (1, 2) if q <= n - 1
            for s in range(q + 2, 6)]
