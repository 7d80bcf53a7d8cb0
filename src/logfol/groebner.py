"""Ideal arithmetic through reduced Groebner bases.

The engine is Buchberger's algorithm with the normal (degree first, then
order) pair-selection strategy and the two classical pair-elimination
criteria.  Everything else in the module reduces to it, or to exponent
arithmetic when the ideals are monomial:

* membership and normal forms come from the division algorithm,
* intersections and colons by a polynomial are runs on submodules of the
  free module R*e1 + R*e0 (Greuel & Pfister, *A Singular Introduction to
  Commutative Algebra*, module quotients): position over term with
  e1 > e0 eliminates e1, so the e0 part of the reduced basis is the
  reduced basis of the answer, and the only part a module run
  inter-reduces and returns.  I ∩ J is the e0 part of the submodule
  generated by f*e1 for f in I and g*(e1 + e0) for g in J, and I : g that
  of f*e1 for f in I and g*e1 + e0,
* a run may be given known entries, a Groebner basis already, which make
  no S-pairs among themselves: a colon or an intersection seeds the reduced
  basis of I at e1 that way, computed once and cached on I,
* ``module_annihilator`` is the one colon by an ideal: the intersection of
  the colons by its nonzero components, densest first, with the
  intersection so far as the side seeded as known entries, ending early
  when that intersection is I itself; once a colon repeats that
  intersection, a b whose product with it lies in I takes no colon,
* saturation iterates ``module_annihilator`` to a fixed point, squaring a
  principal divisor f from the third step on (colons by f, f, f^2, f^4,
  ...), and f lies in the radical of I exactly when I : f^infinity is the
  unit ideal,
* Krull dimension is the number of variables less the fewest variables
  meeting the support of every leading monomial,
* a monomial ideal, whose cached basis, or else whose generators, are
  single terms, never enters the engine (Cox, Little & O'Shea, *Ideals,
  Varieties, and Algorithms*, ch. 2 §4 and ch. 4 §3-4).  Its packed form,
  its minimal generators m, is its basis; I : g for a term g is generated
  by the m / gcd(m, g), I ∩ J by pairwise lcms, p lies in I when an m
  divides each term of p, equality compares forms and dimension reads
  their supports; no ``Poly`` is made until a basis is read.

Every number is a Python int, and the engine speaks the representation
of ``Poly`` (see ``poly.py``): integer numerators on monomials packed by a
``_Layout``.  ``groebner_terms`` takes and returns packed numerators, and
an ``Ideal`` keeps its reduced basis packed as engine entries for
``normal_form``; grevlex runs need no conversion, and a
module run puts the position in the top field of an ``ELIMINATION``
layout, under which the terms at e0 pack exactly as grevlex.  A basis entry is
``(lm, lc, tail, top)``, a primitive polynomial with ``lc > 0`` and ``top``
the fieldwise maximum of its tail.  ``_reduce`` is fraction-free: it scales the work
polynomial by ``lc/gcd`` before subtracting ``c/gcd`` times a shifted
entry, and keeps the product of those factors, so that ``remainder /
scale`` is the exact rational normal form.  x^a e_i divides x^b e_j exactly
when ``(b - a) & divmask`` is zero, so S-pairs are formed only of leading
terms at the same position, and the engine keeps its entries grouped by
position, so that ``_reduce`` scans only the group of the popped
monomial's position for a divisor.  One guard-bit test of ``shift + top``
before a shifted tail is formed catches any field that would overflow;
the computation then starts again at twice the field width.

Ideals are homogeneous by construction, and so are an intersection's seeds
g*(e1 + e0).  A colon's seed g*e1 + e0 is not: e0 counts degree 0, so the
pair queue, ordered by the x-degree of the lcm, takes pairs at e0 too early.
The basis is still correct, but such runs can stall (quadric-p4's residual
colons, ROADMAP.md).  Every ideal, basis and normal form is grevlex.
"""

from __future__ import annotations

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
    _width,
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


def _reduce(terms: dict, groups: list, layout: _Layout) -> tuple:
    """Fraction-free full reduction of ``terms`` modulo basis entries.

    ``groups[k]`` holds the entries whose leading monomial is at position
    k (grevlex has the one position 0); only they can divide a monomial at
    position k, so a popped monomial scans its own group alone.  Returns
    ``(remainder, scale)``: ``scale > 0`` and ``scale*terms - remainder``
    lies in the module of the entries, so ``remainder / scale`` is the
    rational normal form.  Monomials are processed from the largest down;
    every step only creates strictly smaller monomials, so each monomial is
    handled once, and its coefficient is final when it is popped.  A final
    term records the scale at that moment and is brought to the last scale
    at the end.
    """
    guard, mask, rev, at = layout.guard, layout.divmask, layout.rev, layout.top
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
        for lm, lc, tail, top in groups[m >> at]:
            shift = m - lm
            if shift & mask:
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


def _buchberger(seed: list, layout: _Layout, known: list):
    """Reduced basis entries of the ideal of packed integer polynomials
    ``known + seed``, or of the e0 part of the module they generate, in
    increasing order of leading monomial, or None when it contains 1 (1*e0
    in a module).  ``known`` is a Groebner basis already: its entries go in
    as they are and make no S-pairs among themselves."""
    flip, guard, mask, at = layout.flip, layout.guard, layout.divmask, layout.top
    basis = []        # entries (lm, lc, tail, top)
    lms = []          # their leading monomials, for divisibility scans
    groups = [[] for _ in range(layout.positions)]   # position -> its entries
    indices = [[] for _ in range(layout.positions)]  # position -> their indices
    pairs = []        # heap of (lcm degree, lcm key, i, j)
    pending = set()   # pairs not yet treated, for the chain criterion

    def add(entry: tuple, pair: bool = True) -> bool:
        """Adds an entry; True when its leading monomial is 1."""
        lm = entry[0]
        if not lm:
            return True
        j = len(basis)
        same = indices[lm >> at]
        for i in same if pair else ():  # S-pairs only at the same position
            lcm_ij, degree = layout.lcm(lms[i], lm)
            heappush(pairs, (degree, lcm_ij ^ flip, i, j))
            pending.add((i, j))
        same.append(j)
        groups[lm >> at].append(entry)
        basis.append(entry)
        lms.append(lm)
        return False

    for g in known:
        if add(_entry(g, layout), pair=False):
            return None
    for g in seed:
        r, _ = _reduce(g, groups, layout)
        if r and add(_entry(r, layout)):
            return None

    while pairs:
        _, key, i, j = heappop(pairs)
        pending.discard((i, j))
        lcm_ij = key ^ flip
        if lcm_ij == lms[i] + lms[j]:
            # coprime leading terms at e0 (never at e1, where the sum holds
            # position 2): the S-polynomial reduces to zero
            continue
        for k in indices[lcm_ij >> at]:
            if k != i and k != j and not (lcm_ij - lms[k]) & mask:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    break
        else:
            r, _ = _reduce(_spoly(basis[i], basis[j], lcm_ij, guard), groups, layout)
            if r and add(_entry(r, layout)):
                return None

    # minimal basis at e0 (all of a grevlex run, the answer of a module run):
    # drop entries whose leading monomial another one divides; an entry at
    # e1 divides nothing at e0, so leaving those out changes nothing there
    kept = []
    for entry in sorted(basis, key=lambda e: e[0] ^ flip):
        if not entry[0] >> at and all((entry[0] - k[0]) & mask for k in kept):
            kept.append(entry)

    # inter-reduce tails; leading monomials are untouched by construction,
    # and no entry divides a monomial of its own tail, which is smaller
    out = []
    for lm, lc, tail, _ in kept:
        rem, scale = _reduce(dict(tail), [kept], layout)
        out.append((lm, lc * scale, rem))
    return out


def groebner_terms(generators: list[dict], layout: _Layout, known: list = ()) -> tuple:
    """Reduced Groebner basis of the ideal generated by packed polynomials,
    under the order of ``layout`` (named by ``layout.name``); under
    ``ELIMINATION``, the e0 part of the reduced basis of the submodule of
    R*e1 + R*e0 they generate, which is the reduced basis of the ideal of
    its e0 coordinates: a module run inter-reduces and returns nothing at e1.

    ``generators`` map monomials packed by ``layout`` to integers; a
    generator stands for any nonzero rational multiple of itself.  ``known``
    are more generators, packed alike, that form a Groebner basis of what
    they span already (a cached basis): they make no S-pairs among
    themselves.  Returns
    ``(run, elements)``: ``run`` is the layout of the same order at the
    width the computation finished in (``layout`` itself when nothing
    overflowed), and ``elements`` are the monic, fully inter-reduced basis
    polynomials as ``(numerators, denominator)`` pairs packed by ``run``,
    sorted by decreasing leading monomial; the result is canonical for
    (ideal, order).  When the span holds 1 (1*e0 for a module), the basis
    is returned as that one element.
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
            basis = [g if run is layout else _repack(g, layout, run) for g in known]
            reduced = _buchberger(packed, run, basis)
            break
        except _Overflow:
            bits *= 2
    if reduced is None:
        return run, [({0: 1}, 1)]
    return run, [({lm: denom, **rem}, denom) for lm, denom, rem in reversed(reduced)]


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

class Ideal:
    """An ideal of Q[x0..xn], the one owner of its reduced grevlex basis.

    ``groebner_basis()`` computes the basis once and keeps it; every
    membership test, normal form and dimension reads it from the ideal,
    packed as engine entries at the widest field width asked for so far.
    A monomial ideal reads its packed form (``_monomials``) instead, and
    one made from that form makes its generators, its basis, into
    polynomials only when read.  Every ideal arising from a foliation
    instance is homogeneous; the class does not insist on it.
    """

    __slots__ = ("arity", "_gens", "_basis", "_packed", "_mono")

    def __init__(self, arity: int, generators=()):
        self.arity = arity
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("ideal generators must be Poly instances")
            if g.arity != arity:
                raise ValueError(f"generator arity {g.arity} does not match ideal arity {arity}")
        # distinct nonzero generators, in order
        self._gens = tuple(dict.fromkeys(g for g in generators if not g.is_zero))
        self._basis = self._packed = self._mono = None

    @staticmethod
    def unit(arity: int) -> "Ideal":
        return _from_monomials(arity, (_layout(GREVLEX, arity, _width(0)), (0,)))

    @property
    def generators(self) -> tuple:
        return self.groebner_basis() if self._gens is None else self._gens

    @property
    def is_zero(self) -> bool:
        return not (self._gens if self._mono is None else self._mono[1])

    def groebner_basis(self) -> tuple:
        """The reduced, monic basis polynomials, by decreasing leading monomial."""
        if self._basis is None:
            mono = _monomials(self)
            if mono:  # a monomial ideal, the zero ideal too
                self._basis = tuple(_make(mono[0], {m: 1}) for m in mono[1])
            else:
                layout, nums = _aligned(self._gens)
                run, basis = groebner_terms(nums, layout)
                self._basis = tuple(_make(run, num, den) for num, den in basis)
        return self._basis

    def _entries(self, bits: int) -> tuple:
        """(layout, basis entries) at a field width of at least ``bits``
        that holds every basis element."""
        if self._packed is not None and self._packed[0].bits >= bits:
            return self._packed
        basis = self.groebner_basis()
        bits = max([bits] + [g.layout.bits for g in basis])
        layout = _layout(GREVLEX, self.arity, bits)
        self._packed = layout, [
            _entry(g.num if g.layout is layout else _repack(g.num, g.layout, layout), layout)
            for g in basis]
        return self._packed

    @property
    def is_unit(self) -> bool:
        return ideal_equal(self, Ideal.unit(self.arity))

    def contains(self, p: Poly) -> bool:
        mono = _monomials(self)
        return _inside((p.layout, p.num), mono) if mono else normal_form(p, self).is_zero

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


def normal_form(p: Poly, ideal: Ideal) -> Poly:
    """Remainder of ``p`` on division by the reduced basis of ``ideal``;
    zero iff p lies in the ideal."""
    if p.is_zero or ideal.is_zero:
        return p
    # No overflow, so no retry: grevlex is graded, so a reduction step only
    # brings in monomials of at most the degree of the one it removes, and no
    # field of a monomial (nor of ``shift + top`` in ``_reduce``) exceeds
    # that degree; every field stays within deg p, which the width of p holds.
    layout, entries = ideal._entries(p.layout.bits)
    num = p.num if layout is p.layout else _repack(p.num, p.layout, layout)
    rem, scale = _reduce(num, [entries], layout)
    return _make(layout, rem, p.den * scale)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    return Ideal(I.arity, I.generators + J.generators)


def _e0_coordinates(arity: int, vectors: list, known=()) -> Ideal:
    """The ideal of the e0 coordinates of the submodule of R*e1 + R*e0
    generated by ``vectors``, pairs (a, b) standing for a*e1 + b*e0, and by
    f*e1 for f in ``known``, a Groebner basis of the ideal it spans; the
    result has its reduced basis cached: the e0 part of the module's
    reduced basis.

    The terms at e0 of an ``ELIMINATION`` layout pack exactly as grevlex,
    and e1 adds the top field's weight, so no monomial is converted.
    """
    layout, nums = _aligned([p for v in vectors for p in v] + list(known))
    block = _layout(ELIMINATION, arity + 1, layout.bits)
    e1 = block.weights[0]
    # (a*b.den)*e1 + (b*a.den)*e0, a multiple of a*e1 + b*e0 with integer terms
    gens = [{**{m + e1: c * b.den for m, c in na.items()},
             **{m: c * a.den for m, c in nb.items()}}
            for (a, b), na, nb in zip(vectors, nums[::2], nums[1::2])]
    at_e1 = [{m + e1: c for m, c in nf.items()} for nf in nums[2 * len(vectors):]]
    run, basis = groebner_terms(gens, block, at_e1)
    rest = _layout(GREVLEX, arity, run.bits)
    ideal = Ideal(arity, [_make(rest, num, den) for num, den in basis])
    ideal._basis = ideal._gens
    return ideal


def _from_monomials(arity: int, mono: tuple) -> Ideal:
    """The monomial ideal of a packed form, with no polynomial made."""
    ideal = object.__new__(Ideal)
    ideal.arity, ideal._mono = arity, mono
    ideal._gens = ideal._basis = ideal._packed = None
    return ideal


def _monomials(I: Ideal):
    """If I's cached basis, or its generators while none is cached, are single
    terms, I's packed form: (layout, minimal generators by decreasing grevlex)
    at the narrowest width that holds them, so equal forms are equal ideals."""
    if I._mono is None:
        polys = I._gens if I._basis is None else I._basis
        if not all(len(p.num) == 1 for p in polys):
            return None
        layout, nums = _aligned(polys) if polys else (_layout(GREVLEX, I.arity, _width(0)), ())
        I._mono = _minimal(layout, [m for num in nums for m in num])
    return I._mono


def _minimal(layout: _Layout, monomials) -> tuple:
    """The packed form of the ideal of monomials packed by ``layout``.  A
    proper divisor k of m, ``(m - k) & guard == 0``, has the smaller degree."""
    guard, kept = layout.guard, []
    for m in sorted(set(monomials), key=layout.flip.__xor__):
        for k in kept:
            if not (m - k) & guard:
                break
        else:
            kept.append(m)
    narrow = _layout(GREVLEX, layout.arity, _width(kept[-1] >> layout.degshift if kept else 0))
    return narrow, tuple(_at((layout, kept[::-1]), narrow))


def _degree(mono: tuple) -> int:
    """The largest degree of a packed form's generators (0 for none)."""
    return mono[1][0] >> mono[0].degshift if mono[1] else 0


def _at(mono: tuple, layout: _Layout):
    """A packed form's generators packed by ``layout``, as wide or wider."""
    return mono[1] if mono[0] is layout else [layout.pack(mono[0].unpack(m)) for m in mono[1]]


def _lcms(a: tuple, b: tuple, colon: bool) -> tuple:
    """a ∩ b of packed forms, by pairwise lcms, or with ``colon`` a : u for b = (u)."""
    layout = _layout(GREVLEX, a[0].arity, _width(_degree(a) + _degree(b)))
    lcm, us = layout.lcm, _at(b, layout)
    return _minimal(layout, [lcm(m, u)[0] - colon * u for m in _at(a, layout) for u in us])


def _inside(a: tuple, b: tuple) -> bool:
    """Whether a generator of the packed form b divides each monomial of a."""
    layout = max(a[0], b[0], key=lambda lay: lay.bits)
    guard, kept = layout.guard, _at(b, layout)
    return all(any(not (m - k) & guard for k in kept) for m in _at(a, layout))


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """Set-theoretic intersection: the e0 coordinates of the submodule
    generated by f*e1 for f in I and g*(e1 + e0) for g in J, or, when both
    are monomial, the pairwise lcms of their generators.  When one side is
    monomial and holds 1, the answer is the other side."""
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    if I.is_zero or J.is_zero:
        return Ideal(I.arity)
    a, b = _monomials(I), _monomials(J)
    for one, other in ((a, J), (b, I)):
        if one and one[1] == (0,):
            return other
    if a and b:
        return _from_monomials(I.arity, _lcms(a, b, False))
    return _e0_coordinates(I.arity, [(g, g) for g in J.generators], I.groebner_basis())


def ideal_quotient(I: Ideal, g: Poly) -> Ideal:
    """The colon ideal I : g = {h : h*g in I}: the e0 coordinates of the
    submodule generated by f*e1 for f in I and g*e1 + e0, or, for a monomial
    I and a single term g, the lcm(m, g) / g of I's generators m."""
    if g.is_zero:
        raise ValueError("colon ideal by the zero polynomial")
    mono = _monomials(I)
    if mono and len(g.num) == 1:
        return _from_monomials(I.arity, _lcms(mono, (g.layout, tuple(g.num)), True))
    return _e0_coordinates(I.arity, [(g, Poly.one(I.arity))], I.groebner_basis())


def ideal_saturation(I: Ideal, J: Ideal) -> Ideal:
    """The saturation I : J^infinity, iterated to a fixed point.

    A step takes the colon of the last result by J.  When J = (f) the steps
    are by f, f, f^2, f^4, ..., so after k + 1 steps the result is I : f^(2^k)
    and a power f^d in I costs about log2(d) colons, not d.  Two equal
    results in a row end it: K = I : f^e = I : f^(2e) gives K : f^e = K, so
    K : f = K is saturated.  For monomial I and J, J not principal, the
    steps are by the packed forms (u) of J's generators.
    """
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    current, square, mono = I, False, _monomials(I) and _monomials(J)
    factors = [(mono[0], (u,)) for u in mono[1]] if mono and len(mono[1]) > 1 else J.generators
    while True:
        nxt = module_annihilator(factors, current)
        if ideal_equal(nxt, current):
            return current
        if square:
            factors = [factors[0] * factors[0]]
        current, square = nxt, len(factors) == 1


def radical_membership(f: Poly, I: Ideal) -> bool:
    """Whether f vanishes on the zero locus of I (i.e. f is in the radical),
    that is, whether I : f^infinity is the unit ideal; a cheap
    plain-membership test short-circuits the common case."""
    if f.is_zero:
        raise ValueError("radical membership of the zero polynomial")
    return I.contains(f) or ideal_saturation(I, Ideal(I.arity, [f])).is_unit


def _transversal(supports: list, bound: int) -> int:
    """The fewest variables meeting every support (a nonzero bitmask of
    variables), or ``bound`` when that is not below ``bound``.

    A one-variable support forces its variable.  Otherwise branch k takes
    the k-th variable of a smallest support and leaves out the ones before
    it, which may leave new one-variable supports.  Each level takes a
    variable, so the depth is at most the answer."""
    forced = sum({s for s in supports if not s & (s - 1)})  # distinct bits, so an or
    size = forced.bit_count()
    supports = [s for s in supports if not s & forced]
    if not supports or size >= bound:
        return min(size, bound)
    best, left_out = bound, 0
    smallest = min(supports, key=int.bit_count)
    while smallest and size + 1 < best:
        v = smallest & -smallest
        smallest ^= v
        rest = [s & ~left_out for s in supports if not s & v]
        if all(rest):
            best = size + 1 + _transversal(rest, best - size - 1)
        left_out |= v
    return best


def krull_dimension(I: Ideal) -> int:
    """Krull dimension of the quotient ring by I (the affine cone).

    The unit ideal returns -1.  Computed from the grevlex leading-term
    ideal (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 9): the largest set of variables containing the support of no
    leading monomial leaves out the fewest variables meeting every one.
    """
    if I.is_zero:
        return I.arity
    layout, lms = _monomials(I) or (I._entries(1)[0], [e[0] for e in I._entries(1)[1]])
    shifts, cap = layout.shifts, layout.cap
    supports = {sum(1 << i for i, shift in enumerate(shifts) if (lm >> shift) & cap)
                for lm in lms}
    if 0 in supports:
        return -1  # a constant leading term: the unit ideal
    return I.arity - _transversal(list(supports), I.arity)


def projective_dimension(I: Ideal) -> int:
    """Dimension of the projective locus; -1 means empty."""
    return max(krull_dimension(I) - 1, -1)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Exact ideal equality: identical reduced grevlex bases, or packed forms."""
    if I.arity != J.arity:
        raise ValueError("arity mismatch between ideals")
    a, b = _monomials(I), _monomials(J)
    return a == b if a and b else I.groebner_basis() == J.groebner_basis()


def module_annihilator(components, I: Ideal) -> Ideal:
    """The colon ideal I : (b_1..b_N), the annihilator of a vector modulo I.

    ``components`` are the coordinates b_i of an element of a free module
    over the quotient ring by I, and the colon ideal is the intersection of
    the colons I : b_i, taken densest first (by term count, stably), whose
    colons tend to be the smallest.  A zero component is dropped, as its
    colon is the whole ring, so without a nonzero component the answer is
    the whole ring.  The answer always contains I, as each I : b does, so
    once the intersection so far equals I it is the answer: a saturation's
    last step, which finds I : b = I, takes one colon.  A colon whose
    reduced basis is the intersection's so far leaves it as it is, so in a
    saturation, where most colons are one ideal, it takes no intersection,
    and then no colon by a b with ann*b in I (b may be a packed form (u)).
    """
    ann, repeated = Ideal.unit(I.arity), False
    for b in sorted((b for b in components if b), reverse=True,
                    key=lambda b: 1 if type(b) is tuple else len(b.num)):
        if repeated and _annihilates(ann, b, I):
            continue
        colon = (ideal_quotient(I, b) if type(b) is not tuple
                 else _from_monomials(I.arity, _lcms(_monomials(I), b, True)))
        if ideal_equal(colon, ann):
            repeated = True
        else:
            ann = ideal_intersection(ann, colon)
        if ideal_equal(ann, I):
            break
    return ann


def _annihilates(ann: Ideal, b, I: Ideal) -> bool:
    """Whether ann*b lies in I, so that ann lies in I : b: each basis element
    of ann times b, smallest first; by exponents when all are monomial."""
    a, mono = _monomials(ann), _monomials(I)
    u = b if type(b) is tuple else (b.layout, tuple(b.num)) if len(b.num) == 1 else None
    if a and mono and u:
        layout = _layout(GREVLEX, I.arity, _width(_degree(a) + _degree(u)))
        return _inside((layout, [h + _at(u, layout)[0] for h in reversed(_at(a, layout))]), mono)
    return all(I.contains(h * b) for h in reversed(ann.groebner_basis()))
