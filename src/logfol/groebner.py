"""Ideal arithmetic through reduced Groebner bases.

The engine is Buchberger's algorithm with the normal (degree first, then
order) pair-selection strategy and the two classical pair-elimination
criteria.  Everything else in the module reduces to it:

* membership and normal forms come from the division algorithm,
* intersections come from elimination of an auxiliary variable ``t``
  (``t*I + (1-t)*J`` under the elimination order of t),
* the colon by a polynomial divides the intersection with the principal
  ideal it generates, and ``module_annihilator`` is the one colon by an
  ideal: it intersects those colons and skips each one that the
  intersection so far already lies in,
* saturation iterates ``module_annihilator`` to a fixed point,
* radical membership is decided by adjoining ``1 - t*f``, in the same
  elimination layout,
* Krull dimension is read off the leading-term ideal as the size of the
  largest subset of variables meeting the support of no leading monomial.

Every number is a Python int, and the engine speaks the representation
of ``Poly`` (see ``poly.py``): integer numerators on monomials packed by a
``_Layout``.  ``groebner_terms``, ``normal_form`` and ``GroebnerBasis``
take and return packed numerators; grevlex runs need no conversion, and an
elimination puts t in the top field of an ``ELIMINATION`` layout, under
which the t-free monomials pack exactly as grevlex.  A basis entry is
``(lm, lc, tail, top)``, a primitive polynomial with ``lc > 0`` and ``top``
the fieldwise maximum of its tail.  ``_reduce`` is fraction-free: it scales the work
polynomial by ``lc/gcd`` before subtracting ``c/gcd`` times a shifted
entry, and keeps the product of those factors, so that ``remainder /
scale`` is the exact rational normal form.  x^a divides x^b exactly when
``(b - a) & guard`` is zero, and one guard-bit test of ``shift + top``
before a shifted tail is formed catches any field that would overflow;
the computation then starts again at twice the field width.

Ideals are homogeneous by construction (intermediate elimination steps are
not, which is fine for Buchberger).  Every ideal, basis and normal form is
grevlex; the reduced basis is cached on the ideal object, so repeated
queries are cheap.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd

from .poly import (
    ELIMINATION,
    GREVLEX,
    Poly,
    _aligned,
    _Layout,
    _layout,
    _make,
    _Overflow,
    _repack,
    exact_div,
)


# ---------------------------------------------------------------------------
# the Buchberger engine (integer coefficients, packed monomials)
# ---------------------------------------------------------------------------

def _entry(terms: dict, layout: _Layout) -> tuple:
    """Basis entry ``(lm, lc, tail, top)`` of a nonzero packed polynomial,
    divided by its content and signed so that ``lc > 0``."""
    flip = layout.flip
    lm = max(terms, key=lambda m: m ^ flip)
    content = gcd(*terms.values())
    if terms[lm] < 0:
        content = -content
    tail = [(m, c // content) for m, c in terms.items() if m != lm]
    return lm, terms[lm] // content, tail, layout.fieldmax(m for m, _ in tail)


def _reduce(terms: dict, basis: list, layout: _Layout) -> tuple:
    """Fraction-free full reduction of ``terms`` modulo basis entries.

    Returns ``(remainder, scale)``: ``scale > 0`` and ``scale*terms -
    remainder`` lies in the ideal of the entries, so ``remainder / scale``
    is the rational normal form.  Monomials are processed from the largest
    down; every step only creates strictly smaller monomials, so each
    monomial is handled once, and its coefficient is final when it is
    popped.  A final term records the scale at that moment and is brought
    to the last scale at the end.
    """
    guard, rev = layout.guard, layout.rev
    work = dict(terms)
    heap = [m ^ rev for m in work]
    heapify(heap)
    done = []
    scale = 1
    while heap:
        m = heappop(heap) ^ rev
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, lc, tail, top in basis:
            shift = m - lm
            if shift & guard:
                continue
            if (shift + top) & guard:
                raise _Overflow
            if lc != 1:
                g = gcd(c, lc)
                if g != lc:
                    f = lc // g
                    scale *= f
                    for k in work:
                        work[k] *= f
                c //= g
            for tm, tc in tail:
                nm = tm + shift
                old = work.get(nm)
                if old is None:
                    work[nm] = -c * tc
                    heappush(heap, nm ^ rev)
                else:
                    old -= c * tc
                    if old:
                        work[nm] = old
                    else:
                        del work[nm]
            break
        else:
            done.append((m, c, scale))
    return {m: c * (scale // s) for m, c, s in done}, scale


def _spoly(f: tuple, g: tuple, lcm_fg: int, guard: int) -> dict:
    """Integer S-polynomial of two basis entries with the given packed lcm.

    The leading terms cancel, so only the shifted tails are combined.
    """
    lm_f, lc_f, tail_f, top_f = f
    lm_g, lc_g, tail_g, top_g = g
    uf, ug = lcm_fg - lm_f, lcm_fg - lm_g
    if (uf + top_f) & guard or (ug + top_g) & guard:
        raise _Overflow
    d = gcd(lc_f, lc_g)
    a, b = lc_f // d, lc_g // d
    out = {m + uf: c * b for m, c in tail_f}
    for m, c in tail_g:
        nm = m + ug
        acc = out.get(nm, 0) - c * a
        if acc:
            out[nm] = acc
        else:
            out.pop(nm, None)
    return out


def _buchberger(seed: list, layout: _Layout):
    """Reduced basis entries of the ideal of packed integer polynomials, in
    increasing order of leading monomial, or None for the unit ideal."""
    flip, guard = layout.flip, layout.guard
    basis = []        # entries (lm, lc, tail, top)
    lms = []          # their leading monomials, for divisibility scans
    exps = []         # and those as exponent tuples, for lcms
    pairs = []        # heap of (lcm degree, lcm key, i, j)
    pending = set()   # pairs not yet treated, for the chain criterion

    def add(terms: dict) -> bool:
        """Adds an entry; True when its leading monomial is 1."""
        entry = _entry(terms, layout)
        lm = entry[0]
        if not lm:
            return True
        ex = layout.unpack(lm)
        j = len(basis)
        for i, ex_i in enumerate(exps):
            ex_lcm = [max(a, b) for a, b in zip(ex_i, ex)]
            heappush(pairs, (sum(ex_lcm), layout.pack(ex_lcm) ^ flip, i, j))
            pending.add((i, j))
        basis.append(entry)
        lms.append(lm)
        exps.append(ex)
        return False

    for g in seed:
        r, _ = _reduce(g, basis, layout)
        if r and add(r):
            return None

    while pairs:
        _, key, i, j = heappop(pairs)
        pending.discard((i, j))
        lcm_ij = key ^ flip
        if lcm_ij == lms[i] + lms[j]:
            continue  # coprime leading terms: S-polynomial reduces to zero
        for k, lm_k in enumerate(lms):
            if k != i and k != j and not (lcm_ij - lm_k) & guard:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    break
        else:
            r, _ = _reduce(_spoly(basis[i], basis[j], lcm_ij, guard), basis, layout)
            if r and add(r):
                return None

    # minimal basis: drop entries whose leading monomial another one divides
    kept = []
    for entry in sorted(basis, key=lambda e: e[0] ^ flip):
        if all((entry[0] - k[0]) & guard for k in kept):
            kept.append(entry)

    # inter-reduce tails; leading monomials are untouched by construction
    out = []
    for entry in kept:
        lm, lc, tail, _ = entry
        rem, scale = _reduce(dict(tail), [e for e in kept if e is not entry], layout)
        out.append((lm, lc * scale, rem))
    return out


def groebner_terms(generators: list[dict], layout: _Layout) -> tuple:
    """Reduced Groebner basis of the ideal generated by packed polynomials,
    under the order of ``layout`` (named by ``layout.name``).

    ``generators`` map monomials packed by ``layout`` to integers; a
    generator stands for any nonzero rational multiple of itself.  Returns
    ``(run, elements)``: ``run`` is the layout of the same order at the
    width the computation finished in (``layout`` itself when nothing
    overflowed), and ``elements`` are the monic, fully inter-reduced basis
    polynomials as ``(numerators, denominator)`` pairs packed by ``run``,
    sorted by decreasing leading monomial; the result is canonical for
    (ideal, order).
    """
    seed = [g for g in generators if g]
    if any(len(g) == 1 and 0 in g for g in seed):
        return layout, [({0: 1}, 1)]  # a nonzero constant generator
    bits = layout.bits
    while True:
        run = _layout(layout.name, layout.arity, bits)
        try:
            packed = [g if run is layout else _repack(g, layout, run) for g in seed]
            # deterministic seed order: by leading monomial, then size
            packed.sort(key=lambda g: (max(m ^ run.flip for m in g), len(g)))
            reduced = _buchberger(packed, run)
            break
        except _Overflow:
            bits *= 2
    if reduced is None:
        return run, [({0: 1}, 1)]
    return run, [({lm: denom, **rem}, denom) for lm, denom, rem in reversed(reduced)]


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced grevlex Groebner basis; unique for a given ideal."""

    elements: tuple[Poly, ...]
    _packed: tuple = field(init=False, repr=False, compare=False, default=None)

    def leading_monomials(self):
        """The leading exponent tuples of the elements."""
        return [g.leading()[0] for g in self.elements]

    def _entries(self, arity: int, bits: int) -> tuple:
        """(layout, basis entries) at a field width of at least ``bits``
        that holds every element."""
        if self._packed is not None and self._packed[0].bits >= bits:
            return self._packed
        bits = max([bits] + [g.layout.bits for g in self.elements])
        layout = _layout(GREVLEX, arity, bits)
        entries = [_entry(g.num if g.layout is layout else _repack(g.num, g.layout, layout),
                          layout)
                   for g in self.elements]
        object.__setattr__(self, "_packed", (layout, entries))
        return self._packed

    def __len__(self):
        return len(self.elements)


class Ideal:
    """An ideal of Q[x0..xn] with its cached reduced grevlex basis.

    Every ideal arising from a foliation instance is homogeneous; the class
    does not insist on it, because the radical-membership machinery builds
    non-homogeneous ideals internally.
    """

    __slots__ = ("arity", "generators", "_gb")

    def __init__(self, arity: int, generators=()):
        self.arity = arity
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("ideal generators must be Poly instances")
            if g.arity != arity:
                raise ValueError(f"generator arity {g.arity} does not match ideal arity {arity}")
        # distinct nonzero generators, in order
        self.generators = tuple(dict.fromkeys(g for g in generators if not g.is_zero))
        self._gb = None

    @staticmethod
    def unit(arity: int) -> "Ideal":
        return Ideal(arity, [Poly.one(arity)])

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self) -> GroebnerBasis:
        if self._gb is None:
            elements = ()
            if self.generators:
                layout, nums = _aligned(self.generators)
                run, basis = groebner_terms(nums, layout)
                elements = tuple(_make(run, num, den) for num, den in basis)
            self._gb = GroebnerBasis(elements)
        return self._gb

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


def normal_form(p: Poly, basis: GroebnerBasis) -> Poly:
    """Remainder of ``p`` on division by ``basis``; zero iff p lies in the ideal."""
    if p.is_zero or not basis.elements:
        return p
    # No overflow, so no retry: grevlex is graded, so a reduction step only
    # brings in monomials of at most the degree of the one it removes, and no
    # field of a monomial (nor of ``shift + top`` in ``_reduce``) exceeds
    # that degree; every field stays within deg p, which the width of p holds.
    layout, entries = basis._entries(p.arity, p.layout.bits)
    num = p.num if layout is p.layout else _repack(p.num, p.layout, layout)
    rem, scale = _reduce(num, entries, layout)
    return _make(layout, rem, p.den * scale)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    return Ideal(I.arity, I.generators + J.generators)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """Set-theoretic intersection, by eliminating t from t*I + (1-t)*J.

    t is the first variable of an ``ELIMINATION`` layout, whose t-free
    monomials pack exactly as grevlex on the other variables, so t*g adds
    the packed t and the t-free part of the result needs no conversion.
    """
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    if I.is_zero or J.is_zero:
        return Ideal(I.arity)
    arity = I.arity
    layout, nums = _aligned(I.generators + J.generators)
    block = _layout(ELIMINATION, arity + 1, layout.bits)
    t = block.weights[0]
    gens = [{m + t: c for m, c in g.items()} for g in nums[:len(I.generators)]]
    # (1-t)*g: the halves g and -t*g share no monomial
    gens += [{**g, **{m + t: -c for m, c in g.items()}} for g in nums[len(I.generators):]]
    run, eliminated = groebner_terms(gens, block)
    # the t-free part of a Groebner basis under the elimination order is a
    # Groebner basis of the intersection
    rest = _layout(GREVLEX, arity, run.bits)
    t = run.weights[0]
    return Ideal(arity, [_make(rest, num, den) for num, den in eliminated if max(num) < t])


def intersect_all(ideals, arity: int) -> Ideal:
    """Intersection of a family of ideals; the empty family gives (1)."""
    ideals = list(ideals)
    return functools.reduce(ideal_intersection, ideals) if ideals else Ideal.unit(arity)


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
    variable t, packed as in ``ideal_intersection``; a cheap plain-membership
    test short-circuits the common case.
    """
    if f.is_zero:
        raise ValueError("radical membership of the zero polynomial")
    if I.contains(f):
        return True
    if I.is_zero:
        return False
    layout, nums = _aligned(I.generators + (f,))
    block = _layout(ELIMINATION, I.arity + 1, layout.bits)
    t = block.weights[0]
    # den*(1 - t*f): the halves den and -t*num share no monomial
    nums[-1] = {0: f.den, **{m + t: -c for m, c in nums[-1].items()}}
    _, gb = groebner_terms(nums, block)
    return len(gb) == 1 and not max(gb[0][0])


def krull_dimension(I: Ideal) -> int:
    """Krull dimension of the quotient ring by I (the affine cone).

    The unit ideal returns -1.  Computed from the grevlex leading-term
    ideal: the dimension equals the size of the largest set of variables
    containing the support of no leading monomial.
    """
    gb = I.groebner_basis()
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leading_monomials()]
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
    return I.groebner_basis().elements == J.groebner_basis().elements


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
    gb = I.groebner_basis()
    whole = acc = Ideal.unit(I.arity)
    for b in components:
        if all(normal_form(h * b, gb).is_zero for h in acc.generators):
            continue
        colon = ideal_quotient(I, b)
        acc = colon if acc is whole else ideal_intersection(acc, colon)
    return acc
