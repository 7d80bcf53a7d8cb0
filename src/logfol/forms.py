"""Exterior algebra of differential forms with polynomial coefficients.

A p-form on the coordinate ring of affine (n+1)-space maps strictly
increasing index tuples (the basis monomials dx_{j1}^...^dx_{jp}) to
``Poly`` coefficients.  The operators share one kernel on integer
numerators: ``_numerators`` packs the coefficients of a form by one grevlex
layout over a common denominator, and three maps act on such numerators by
index tuple, on ints only: ``_contract``, the interior product with a
coordinate multivector; ``_derivative``, the exterior derivative; and
``_product_sums``, the wedge product.  ``contract``, ``exterior_derivative``
and ``wedge`` pack their arguments once, apply one map and make ``Poly``s
of what it gives.  Signs follow one convention: basis tuples are kept
increasing, and contracting with the j-th coordinate field picks up (-1)^k
when j sits at (zero-based) position k of the tuple.  The anti-derivation
laws in the test suite check the three maps against each other.

Contraction with the radial (Euler) field sum_i x_i d/dx_i detects descent
to projective space: a homogeneous form is the pullback of a form on P^n
exactly when its radial contraction vanishes.  A q-form a defines a
codimension-q foliation away from its zero locus when it is decomposable,
(i_Xi a) ∧ a = 0, and integrable, d(i_Xi a) ∧ a = 0, for every coordinate
(q-1)-multivector Xi.  Both tests are one loop over Xi on the numerators
of a, packed once.  Xi runs over the coordinates that a's index tuples
hold, since any other coordinate field contracts a to zero.  For a 2-form
the decomposability family is the single test a ∧ a = 0, because
i_Xi(a ∧ a) = 2 (i_Xi a) ∧ a.  The tests only ask whether a product
vanishes, so they never build it: each coefficient is summed in turn, and
the test stops at the first one that is not zero.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .poly import GREVLEX, Poly, _layout, _make, _repack, _signed_sum, _width

IndexTuple = tuple  # strictly increasing tuple of variable indices


def _merge_sign(a: IndexTuple, b: IndexTuple):
    """Merge two disjoint increasing tuples; return (merged, parity sign).

    The sign is (-1) to the number of transpositions needed to sort the
    concatenation a + b; None when the tuples share an index.
    """
    if not set(a).isdisjoint(b):
        return None, 0
    inversions = sum(x > y for x in a for y in b)
    return tuple(sorted(a + b)), -1 if inversions % 2 else 1


class PForm:
    """A differential p-form with Poly coefficients, immutable by convention."""

    __slots__ = ("arity", "degree", "coeffs")

    def __init__(self, arity: int, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("form degree must be non-negative")
        self.arity = arity
        self.degree = degree
        clean = {}
        for subset, poly in (coeffs or {}).items():
            subset = tuple(subset)
            if len(subset) != degree:
                raise ValueError(f"index tuple {subset} does not have length {degree}")
            if any(subset[i] >= subset[i + 1] for i in range(len(subset) - 1)):
                raise ValueError(f"index tuple {subset} must be strictly increasing")
            if subset and not (0 <= subset[0] and subset[-1] < arity):
                raise ValueError(f"index tuple {subset} out of range for arity {arity}")
            if not isinstance(poly, Poly):
                raise TypeError("form coefficients must be Poly instances")
            if poly.arity != arity:
                raise ValueError("coefficient arity does not match form arity")
            if not poly.is_zero:
                clean[subset] = poly
        if degree > arity and clean:
            raise ValueError(f"a nonzero {degree}-form cannot exist on {arity} coordinates")
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- linear structure ------------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other."""
        if not isinstance(other, PForm):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch between forms")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return _collect(self.arity, self.degree, itertools.chain(
            ((s, p, 1) for s, p in self.coeffs.items()),
            ((s, p, sign) for s, p in other.coeffs.items())))

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return PForm(self.arity, self.degree, {s: -p for s, p in self.coeffs.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, Poly)):
            return PForm(self.arity, self.degree,
                         {s: p * scalar for s, p in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PForm):
            return NotImplemented
        return (self.arity == other.arity and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.arity, self.degree, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        chunks = []
        for subset in sorted(self.coeffs):
            dx = "∧".join(f"dx{i}" for i in subset) or "1"
            chunks.append(f"({self.coeffs[subset]})·{dx}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"PForm({self})"


def _collect(arity: int, degree: int, pieces) -> PForm:
    """The form whose coefficient at each index tuple is the sum of
    sign * poly over the (index tuple, Poly, sign) pieces, in one pass."""
    grouped = {}
    for subset, poly, sign in pieces:
        polys, signs = grouped.setdefault(subset, ([], []))
        polys.append(poly)
        signs.append(sign)
    return PForm(arity, degree, {subset: polys[0] if signs == [1] else _signed_sum(polys, signs)
                                 for subset, (polys, signs) in grouped.items()})


def _degree(form: PForm) -> int:
    return max((p.total_degree() for p in form.coeffs.values()), default=0)


def _numerators(form: PForm, degree: int) -> tuple:
    """``(layout, numerators, den)``: the coefficients of ``form`` by index
    tuple as integer numerators, packed by the grevlex ``layout`` that holds
    ``degree``, over their common denominator ``den``."""
    layout = _layout(GREVLEX, form.arity, _width(degree))
    den = lcm(*(p.den for p in form.coeffs.values()))
    out = {}
    for subset, p in form.coeffs.items():
        num = p.num if p.layout is layout else _repack(p.num, p.layout, layout)
        f = den // p.den
        out[subset] = num if f == 1 else {m: c * f for m, c in num.items()}
    return layout, out, den


def _unpacked(arity: int, degree: int, layout, sums, den: int) -> PForm:
    """The form of (index tuple, numerators) pairs over ``den``."""
    return PForm(arity, degree, {subset: _make(layout, num, den) for subset, num in sums if num})


def _contract(nums: dict, xi: tuple) -> dict:
    """The numerators of i_Xi a from the numerators ``nums`` of a, by index
    tuple, for the coordinate multivector ``xi``: its fields are contracted
    rightmost first, and each one at position k of the index tuple left
    so far contributes (-1)^k."""
    out = {}
    for subset, num in nums.items():
        sign, rest = 1, subset
        for index in reversed(xi):
            if index not in rest:
                break
            k = rest.index(index)
            rest = rest[:k] + rest[k + 1:]
            sign = -sign if k % 2 else sign
        else:
            out[rest] = num if sign == 1 else {m: -c for m, c in num.items()}
    return out


def _derivative(nums: dict, layout) -> dict:
    """The numerators of da from the numerators ``nums`` of a, by index
    tuple: d(c dx_J) = sum_i dc/dx_i dx_i ∧ dx_J, over the variables x_i
    that the coefficients hold."""
    shifts, weights, cap = layout.shifts, layout.weights, layout.cap
    used = layout.fieldmax(m for num in nums.values() for m in num)
    variables = [i for i in range(layout.arity) if (used >> shifts[i]) & cap]
    out = {}
    for subset, num in nums.items():
        for i in variables:
            if i in subset:
                continue
            merged, sign = _merge_sign((i,), subset)
            acc = out.setdefault(merged, {})
            get, shift, weight = acc.get, shifts[i], weights[i]
            for m, c in num.items():
                e = (m >> shift) & cap
                if e:
                    m -= weight
                    acc[m] = get(m, 0) + sign * e * c
    return {subset: {m: c for m, c in acc.items() if c} for subset, acc in out.items()}


def _product_sums(na: dict, nb: dict):
    """(index tuple, numerators) for every coefficient of a ∧ b that some
    product reaches, from the numerators ``na`` and ``nb`` of a and b by
    index tuple, zeros dropped.  Each coefficient is summed on ints in one
    pass over its products, and only when the generator reaches it."""
    grouped = {}
    for sa, a in na.items():
        for sb, b in nb.items():
            merged, sign = _merge_sign(sa, sb)
            if merged is not None:
                grouped.setdefault(merged, []).append((sign, a, b))
    for merged, products in grouped.items():
        out = {}
        get = out.get
        for sign, a, b in products:
            for mb, cb in b.items():
                cb *= sign
                for ma, ca in a.items():
                    m = ma + mb
                    out[m] = get(m, 0) + ca * cb
        yield merged, {m: c for m, c in out.items() if c}


def wedge(a: PForm, b: PForm) -> PForm:
    """Exterior product a ∧ b."""
    if a.arity != b.arity:
        raise ValueError("arity mismatch between forms")
    degree = _degree(a) + _degree(b)
    layout, na, da = _numerators(a, degree)
    _, nb, db = _numerators(b, degree)
    return _unpacked(a.arity, a.degree + b.degree, layout, _product_sums(na, nb), da * db)


def exterior_derivative(a: PForm) -> PForm:
    """d(sum c_J dx_J) = sum_i dc_J/dx_i dx_i ∧ dx_J."""
    layout, nums, den = _numerators(a, _degree(a))
    return _unpacked(a.arity, a.degree + 1, layout, _derivative(nums, layout).items(), den)


def contract(a: PForm, indices) -> PForm:
    """Iterated interior product with d/dx_{j1} ∧ ... ∧ d/dx_{jp}.

    ``indices`` must be strictly increasing; the rightmost field is
    contracted first.  The empty multivector acts as the identity.
    """
    indices = tuple(indices)
    if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
        raise ValueError("multivector indices must be strictly increasing")
    if len(indices) > a.degree:
        raise ValueError(f"cannot contract a {a.degree}-form with a {len(indices)}-multivector")
    for index in reversed(indices):
        if not 0 <= index < a.arity:
            raise IndexError(f"index {index} out of range for arity {a.arity}")
    layout, nums, den = _numerators(a, _degree(a))
    out = _contract(nums, indices).items()
    return _unpacked(a.arity, a.degree - len(indices), layout, out, den)


def radial_contraction(a: PForm) -> PForm:
    """Interior product with the radial field sum_i x_i d/dx_i.

    Vanishes exactly on homogeneous forms that descend to projective space.
    """
    if a.degree == 0:
        return PForm(a.arity, 0)
    pieces = ((subset[:k] + subset[k + 1:], poly * Poly.variable(a.arity, i), (-1) ** k)
              for subset, poly in a.coeffs.items() for k, i in enumerate(subset))
    return _collect(a.arity, a.degree - 1, pieces)


def _vanishes(a: PForm, derive: bool) -> bool:
    """Whether op(i_Xi a) ∧ a = 0 for every coordinate (q-1)-multivector Xi
    over the coordinates of a's index tuples, op being d when ``derive`` and
    the identity otherwise; without ``derive`` a 2-form tests a ∧ a alone."""
    layout, nums, _ = _numerators(a, 2 * _degree(a))  # a constant factor moves no zero test
    if a.degree == 2 and not derive:
        contractions = [nums]
    else:
        used = sorted(set().union(*nums))
        contractions = (_contract(nums, xi) for xi in itertools.combinations(used, a.degree - 1))
    return not any(num for b in contractions
                   for _, num in _product_sums(_derivative(b, layout) if derive else b, nums))


def plucker_check(a: PForm) -> bool:
    """Local decomposability of a q-form into a product of q 1-forms:
    (i_Xi a) ∧ a = 0 for every coordinate (q-1)-multivector Xi, which
    suffices by linearity over functions.  A 1-form passes by antisymmetry.
    """
    if a.degree < 1:
        raise ValueError("decomposability is only defined for forms of degree >= 1")
    return a.degree == 1 or _vanishes(a, derive=False)


def frobenius_check(a: PForm) -> bool:
    """Integrability of the distribution cut out by a q-form: d(i_Xi a) ∧ a
    = 0 for every coordinate (q-1)-multivector Xi, da ∧ a = 0 for q = 1."""
    if a.degree < 1:
        raise ValueError("integrability is only defined for forms of degree >= 1")
    return _vanishes(a, derive=True)
