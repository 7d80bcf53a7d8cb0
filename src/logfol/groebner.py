"""Ideal arithmetic through reduced Groebner bases.

The engine is Buchberger's algorithm with the normal (degree first, then
order) pair-selection strategy and the two classical pair-elimination
criteria.  Everything else in the module reduces to it:

* membership and normal forms come from the division algorithm,
* intersections come from elimination of an auxiliary variable ``t``
  (``t*I + (1-t)*J`` under a block order),
* the colon by a polynomial divides the intersection with the principal
  ideal it generates, and ``module_annihilator`` is the one colon by an
  ideal: it intersects those colons and skips each one that the
  intersection so far already lies in,
* saturation iterates ``module_annihilator`` to a fixed point,
* radical membership is decided by adjoining ``1 - t*f``,
* Krull dimension is read off the leading-term ideal as the size of the
  largest subset of variables meeting the support of no leading monomial.

Ideals are homogeneous by construction (intermediate elimination steps are
not, which is fine for Buchberger); reduced bases are cached per order on
the ideal object, so repeated queries are cheap.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import (
    GREVLEX,
    Block,
    MonomialOrder,
    Poly,
    exact_div,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_support,
)

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the Buchberger engine (works on raw term dicts)
# ---------------------------------------------------------------------------

def _prep(terms: dict, order) -> tuple:
    """Split a nonzero term dict into (leading monomial, monic tail list)."""
    lm = max(terms, key=order.key)
    lc = terms[lm]
    inv = _ONE / lc
    tail = [(m, c * inv) for m, c in terms.items() if m != lm]
    return lm, tail


def _reduce(p: dict, basis: list, order) -> dict:
    """Full normal form of ``p`` modulo monic basis entries ``(lm, tail)``.

    Monomials are processed from the largest down; every reduction step only
    creates strictly smaller monomials, so each monomial is handled once.
    """
    work = dict(p)
    heap = [(order.revkey(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if not c:
            continue
        for lm, tail in basis:
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                for tm, tc in tail:
                    nm = mono_mul(tm, shift)
                    old = work.get(nm)
                    acc = (old or 0) - c * tc
                    if acc:
                        if old is None:
                            heapq.heappush(heap, (order.revkey(nm), nm))
                        work[nm] = acc
                    elif old is not None:
                        del work[nm]
                break
        else:
            remainder[m] = c
    return remainder


def _spoly(f: tuple, g: tuple) -> dict:
    """S-polynomial of two monic basis entries ``(lm, tail)``.

    The leading terms cancel, so only the shifted tails are combined.
    """
    (lm_f, tail_f), (lm_g, tail_g) = f, g
    lcm = mono_lcm(lm_f, lm_g)
    uf = mono_div(lcm, lm_f)
    ug = mono_div(lcm, lm_g)
    out = {mono_mul(m, uf): c for m, c in tail_f}
    for m, c in tail_g:
        nm = mono_mul(m, ug)
        acc = out.get(nm, 0) - c
        if acc:
            out[nm] = acc
        else:
            out.pop(nm, None)
    return out


def groebner_terms(generators: list[dict], order) -> list[dict]:
    """Reduced Groebner basis of the ideal generated by raw term dicts.

    Returns monic, fully inter-reduced term dicts sorted by decreasing
    leading monomial; the result is canonical for (ideal, order).
    """
    seed = []
    for g in generators:
        if g:
            lm = max(g, key=order.key)
            if mono_degree(lm) == 0:
                return [{(0,) * len(lm): _ONE}]
            seed.append(g)
    if not seed:
        return []
    # deterministic seed order: by leading monomial, then size
    seed.sort(key=lambda g: (order.key(max(g, key=order.key)), len(g)))

    basis = []        # list of (lm, tail) with tail monic
    pairs = []        # heap of (lcm degree, lcm key, i, j)
    pending = set()   # pairs not yet treated, for the chain criterion

    def add(terms: dict):
        lm, tail = _prep(terms, order)
        j = len(basis)
        for i, (lm_i, _) in enumerate(basis):
            lcm = mono_lcm(lm_i, lm)
            heapq.heappush(pairs, (mono_degree(lcm), order.key(lcm), i, j))
            pending.add((i, j))
        basis.append((lm, tail))

    for g in seed:
        r = _reduce(g, basis, order)
        if r:
            add(r)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        lm_i, lm_j = basis[i][0], basis[j][0]
        lcm = mono_lcm(lm_i, lm_j)
        if lcm == mono_mul(lm_i, lm_j):
            continue  # coprime leading terms: S-polynomial reduces to zero
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(basis[k][0], lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce(_spoly(basis[i], basis[j]), basis, order)
        if r:
            lm_r = max(r, key=order.key)
            if mono_degree(lm_r) == 0:
                return [{(0,) * len(lm_r): _ONE}]
            add(r)

    # minimal basis: drop entries whose leading monomial another one divides
    kept = []
    for lm, tail in sorted(basis, key=lambda e: order.key(e[0])):
        if not any(mono_divides(k, lm) for k, _ in kept):
            kept.append((lm, tail))

    # inter-reduce tails; leading monomials are untouched by construction
    return [{lm: _ONE, **_reduce(dict(tail), [e for e in kept if e[0] != lm], order)}
            for lm, tail in reversed(kept)]


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis; unique for a given (ideal, order)."""

    order: MonomialOrder
    elements: tuple[Poly, ...]
    _prepped: list = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        prepped = [_prep(g.terms, self.order) for g in self.elements]
        object.__setattr__(self, "_prepped", prepped)

    def leading_monomials(self):
        return [lm for lm, _ in self._prepped]

    def __len__(self):
        return len(self.elements)


class Ideal:
    """An ideal of Q[x0..xn] with cached reduced Groebner bases.

    Every ideal arising from a foliation instance is homogeneous; the class
    does not insist on it, because the radical-membership machinery builds
    non-homogeneous ideals internally.
    """

    __slots__ = ("arity", "generators", "_cache")

    def __init__(self, arity: int, generators=()):
        self.arity = arity
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("ideal generators must be Poly instances")
            if g.arity != arity:
                raise ValueError(f"generator arity {g.arity} does not match ideal arity {arity}")
            if g.is_zero:
                continue
            if g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    @staticmethod
    def unit(arity: int) -> "Ideal":
        return Ideal(arity, [Poly.one(arity)])

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        gb = self._cache.get(order)
        if gb is None:
            terms = groebner_terms([g.terms for g in self.generators], order)
            gb = GroebnerBasis(order, tuple(_poly(self.arity, t) for t in terms))
            self._cache[order] = gb
        return gb

    @property
    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb.elements[0] == Poly.one(self.arity)

    def contains(self, p: Poly) -> bool:
        return normal_form(p, self.groebner_basis()).is_zero

    def __add__(self, other):
        return ideal_sum(self, other)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return ideal_equal(self, other)

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


def _poly(arity: int, terms: dict) -> Poly:
    out = Poly.__new__(Poly)
    out.arity = arity
    out.terms = terms
    return out


def normal_form(p: Poly, basis: GroebnerBasis) -> Poly:
    """Remainder of ``p`` on division by ``basis``; zero iff p lies in the ideal."""
    if p.is_zero:
        return p
    return _poly(p.arity, _reduce(p.terms, basis._prepped, basis.order))


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    return Ideal(I.arity, I.generators + J.generators)


def _extend_front(terms: dict, t_exponent: int = 0) -> dict:
    return {(t_exponent,) + m: c for m, c in terms.items()}


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """Set-theoretic intersection, by eliminating t from t*I + (1-t)*J."""
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    if I.is_zero or J.is_zero:
        return Ideal(I.arity)
    arity = I.arity
    gens = [_extend_front(g.terms, 1) for g in I.generators]
    # (1-t)*g: the halves g and -t*g share no monomial
    gens += [{**_extend_front(g.terms), **_extend_front((-g).terms, 1)} for g in J.generators]
    eliminated = groebner_terms(gens, Block(1))
    # the t-free part of a Groebner basis under the elimination order is a
    # Groebner basis of the intersection
    out = []
    for terms in eliminated:
        if all(m[0] == 0 for m in terms):
            out.append(_poly(arity, {m[1:]: c for m, c in terms.items()}))
    return Ideal(arity, out)


def intersect_all(ideals, arity: int) -> Ideal:
    """Intersection of a family of ideals; the empty family gives (1)."""
    ideals = list(ideals)
    if not ideals:
        return Ideal.unit(arity)
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = ideal_intersection(acc, nxt)
    return acc


def ideal_quotient(I: Ideal, g: Poly) -> Ideal:
    """The colon ideal I : g = {h : h*g in I}."""
    if g.is_zero:
        raise ValueError("colon ideal by the zero polynomial")
    inter = ideal_intersection(I, Ideal(I.arity, [g]))
    return Ideal(I.arity, [exact_div(h, g) for h in inter.generators])


def ideal_saturation(I: Ideal, J: Ideal) -> Ideal:
    """The saturation I : J^infinity, iterated to a fixed point."""
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    current = I
    while True:
        nxt = module_annihilator(J.generators, current)
        if ideal_equal(nxt, current):
            return current
        current = nxt


def radical_membership(f: Poly, I: Ideal) -> bool:
    """Whether f vanishes on the zero locus of I (i.e. f is in the radical).

    Decided by testing 1 in I + (1 - t*f) in the ring with one extra
    variable; a cheap plain-membership test short-circuits the common case.
    """
    if f.is_zero:
        raise ValueError("radical membership of the zero polynomial")
    if I.contains(f):
        return True
    if I.is_zero:
        return False
    gens = [_extend_front(g.terms) for g in I.generators]
    # 1-t*f: the halves 1 and -t*f share no monomial
    gens.append({**_extend_front(Poly.one(I.arity).terms), **_extend_front((-f).terms, 1)})
    gb = groebner_terms(gens, GREVLEX)
    return len(gb) == 1 and mono_degree(next(iter(gb[0]))) == 0


def krull_dimension(I: Ideal) -> int:
    """Krull dimension of the quotient ring by I (the affine cone).

    The unit ideal returns -1.  Computed from the grevlex leading-term
    ideal: the dimension equals the size of the largest set of variables
    containing the support of no leading monomial.
    """
    gb = I.groebner_basis(GREVLEX)
    supports = [mono_support(lm) for lm in gb.leading_monomials()]
    if any(not s for s in supports):
        return -1  # a constant leading term: the unit ideal
    n = I.arity
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            chosen = frozenset(subset)
            if not any(s <= chosen for s in supports):
                return size
    return 0


def projective_dimension(I: Ideal) -> int:
    """Dimension of the projective locus; -1 means empty."""
    return max(krull_dimension(I) - 1, -1)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Exact ideal equality: identical reduced grevlex bases."""
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    return I.groebner_basis(GREVLEX).elements == J.groebner_basis(GREVLEX).elements


def module_annihilator(components, I: Ideal) -> Ideal:
    """The colon ideal I : (b_1..b_N), the annihilator of a vector modulo I.

    ``components`` are the coordinates b_i of an element of a free module
    over the quotient ring by I, and the colon ideal is the intersection of
    the colons I : b_i.  The intersection so far, ``acc``, starts as the
    whole ring; a component b is skipped when h*b lies in I for every
    generator h of ``acc``, because then ``acc`` is inside I : b already.
    With ``acc`` the whole ring that is the test b in I, so a vector whose
    components all lie in I has the whole ring as its annihilator.
    """
    gb = I.groebner_basis(GREVLEX)
    whole = acc = Ideal.unit(I.arity)
    for b in components:
        if all(normal_form(h * b, gb).is_zero for h in acc.generators):
            continue
        colon = ideal_quotient(I, b)
        acc = colon if acc is whole else ideal_intersection(acc, colon)
    return acc
