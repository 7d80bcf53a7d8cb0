"""Exterior algebra of differential forms with polynomial coefficients.

A p-form on the coordinate ring of affine (n+1)-space maps strictly
increasing index tuples (the basis monomials dx_{j1}^...^dx_{jp}) to
``Poly`` coefficients, integer numerators on packed monomials, so the
operators below compute on ints only.  Signs follow one convention:
basis tuples are kept increasing, and contracting with the j-th coordinate
field picks up (-1)^k when j sits at (zero-based) position k of the tuple.
The wedge, exterior derivative and contraction operators are derived from
that single choice and are checked against each other by the
anti-derivation laws in the test suite.

Contraction with the radial (Euler) field sum_i x_i d/dx_i detects descent
to projective space: a homogeneous form is the pullback of a form on P^n
exactly when its radial contraction vanishes.  The decomposability test
(contract with every coordinate (q-1)-multivector, wedge back, demand zero)
and the integrability test (same with an exterior derivative in between)
are the two pointwise conditions a q-form must satisfy to define a
codimension-q foliation away from its zero locus.  For a 2-form the
decomposability family is the single test a ∧ a = 0, because
i_Xi(a ∧ a) = 2 (i_Xi a) ∧ a.  Both tests only ask whether a wedge product
vanishes, so they never build it as a form: one product loop sums each
coefficient on integer numerators over a common denominator, and the zero
test stops at the first coefficient that is not zero.  ``wedge`` builds its
form from the same loop, and the integrability test forms each d(i_Xi a)
on the numerators of a as well.
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

    def coefficient(self, subset) -> Poly:
        return self.coeffs.get(tuple(subset), Poly.zero(self.arity))

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


def _numerators(form: PForm, layout) -> tuple:
    """``(numerators, den)``: the coefficients of ``form`` by index tuple as
    integer numerators packed by the grevlex ``layout``, over their common
    denominator ``den``."""
    den = lcm(*(p.den for p in form.coeffs.values()))
    out = {}
    for subset, p in form.coeffs.items():
        num = p.num if p.layout is layout else _repack(p.num, p.layout, layout)
        f = den // p.den
        out[subset] = num if f == 1 else {m: c * f for m, c in num.items()}
    return out, den


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


def _wedge_sums(a: PForm, b: PForm):
    """The coefficients of a ∧ b, one index tuple at a time.

    Returns ``(layout, den, sums)``: ``sums`` is ``_product_sums`` of the
    numerators of a and b, packed by the grevlex ``layout`` of a field width
    that holds every product, and ``den`` is their common denominator.
    """
    if a.arity != b.arity:
        raise ValueError("arity mismatch between forms")
    if a.degree + b.degree > a.arity or not a.coeffs or not b.coeffs:
        return None, 1, iter(())
    degree = sum(max(p.total_degree() for p in form.coeffs.values()) for form in (a, b))
    layout = _layout(GREVLEX, a.arity, _width(degree))
    (na, da), (nb, db) = _numerators(a, layout), _numerators(b, layout)
    return layout, da * db, _product_sums(na, nb)


def wedge(a: PForm, b: PForm) -> PForm:
    """Exterior product a ∧ b."""
    layout, den, sums = _wedge_sums(a, b)
    return PForm(a.arity, a.degree + b.degree,
                 {subset: _make(layout, num, den) for subset, num in sums if num})


def _wedge_is_zero(a: PForm, b: PForm) -> bool:
    """Whether a ∧ b = 0, stopping at the first nonzero coefficient."""
    _, _, sums = _wedge_sums(a, b)
    return not any(num for _, num in sums)


def exterior_derivative(a: PForm) -> PForm:
    """d(sum c_J dx_J) = sum_i dc_J/dx_i dx_i ∧ dx_J."""
    pieces = []
    for subset, poly in a.coeffs.items():
        for i in range(a.arity):
            if i not in subset:
                merged, sign = _merge_sign((i,), subset)
                pieces.append((merged, poly.partial_derivative(i), sign))
    return _collect(a.arity, a.degree + 1, pieces)


def contract_index(a: PForm, index: int) -> PForm:
    """Interior product with the coordinate field d/dx_index."""
    if a.degree == 0:
        raise ValueError("cannot contract a 0-form")
    if not 0 <= index < a.arity:
        raise IndexError(f"index {index} out of range for arity {a.arity}")
    coeffs = {}
    for subset, poly in a.coeffs.items():
        if index not in subset:
            continue
        k = subset.index(index)
        reduced = subset[:k] + subset[k + 1:]
        coeffs[reduced] = poly if k % 2 == 0 else -poly
    return PForm(a.arity, a.degree - 1, coeffs)


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
    out = a
    for index in reversed(indices):
        out = contract_index(out, index)
    return out


def radial_contraction(a: PForm) -> PForm:
    """Interior product with the radial field sum_i x_i d/dx_i.

    Vanishes exactly on homogeneous forms that descend to projective space.
    """
    if a.degree == 0:
        return PForm(a.arity, 0)
    pieces = ((subset[:k] + subset[k + 1:], poly * Poly.variable(a.arity, i), (-1) ** k)
              for subset, poly in a.coeffs.items() for k, i in enumerate(subset))
    return _collect(a.arity, a.degree - 1, pieces)


def _derivative_of_contraction(nums: dict, xi: tuple, layout) -> dict:
    """The numerators of d(i_Xi a) from the numerators ``nums`` of a, by
    index tuple: the contraction by the coordinate multivector ``xi`` as
    ``contract`` takes it, then the derivative as ``exterior_derivative``
    takes it, with each sign carried to the partial derivatives."""
    shifts, weights, cap = layout.shifts, layout.weights, layout.cap
    out = {}
    for subset, num in nums.items():
        sign, rest = 1, subset
        for index in reversed(xi):  # the rightmost field first
            if index not in rest:
                break
            k = rest.index(index)
            rest = rest[:k] + rest[k + 1:]
            sign = -sign if k % 2 else sign
        else:
            for i in range(layout.arity):
                if i in rest:
                    continue
                merged, order = _merge_sign((i,), rest)
                acc = out.setdefault(merged, {})
                get, shift, weight, f = acc.get, shifts[i], weights[i], sign * order
                for m, c in num.items():
                    e = (m >> shift) & cap
                    if e:
                        m -= weight
                        acc[m] = get(m, 0) + f * e * c
    return {subset: {m: c for m, c in acc.items() if c} for subset, acc in out.items()}


def plucker_check(a: PForm) -> bool:
    """Local decomposability of a q-form into a product of q 1-forms.

    Requires (i_Xi a) ∧ a = 0 for every coordinate (q-1)-multivector Xi;
    linearity over functions makes the coordinate multivectors sufficient.
    A 1-form passes without a product: a ∧ a = 0 by antisymmetry.  For a
    2-form the family is the one test a ∧ a = 0, since i_Xi(a ∧ a) =
    2 (i_Xi a) ∧ a and a form whose every coordinate contraction vanishes is
    zero.
    """
    if a.degree < 1:
        raise ValueError("decomposability is only defined for forms of degree >= 1")
    if a.degree == 1:
        return True
    if a.degree == 2:
        return _wedge_is_zero(a, a)
    return all(_wedge_is_zero(contract(a, xi), a)
               for xi in itertools.combinations(range(a.arity), a.degree - 1))


def frobenius_check(a: PForm) -> bool:
    """Integrability of the distribution cut out by a q-form.

    Requires d(i_Xi a) ∧ a = 0 for every coordinate (q-1)-multivector Xi;
    for q = 1 this is the classical da ∧ a = 0.  Each d(i_Xi a) is formed on
    the integer numerators of a and goes into the product loop as they are.
    """
    if a.degree < 1:
        raise ValueError("integrability is only defined for forms of degree >= 1")
    if not a.coeffs:
        return True
    degree = max(p.total_degree() for p in a.coeffs.values())
    layout = _layout(GREVLEX, a.arity, _width(2 * degree))
    nums, _ = _numerators(a, layout)  # a constant factor moves no zero test
    return not any(num for xi in itertools.combinations(range(a.arity), a.degree - 1)
                   for _, num in _product_sums(_derivative_of_contraction(nums, xi, layout),
                                               nums))
