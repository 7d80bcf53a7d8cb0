import itertools
import random
from fractions import Fraction

import pytest

from logfol.foliation import FoliationSpec, ValidatedSpec, build_form, validate_spec
from logfol.forms import (
    PForm,
    _merge_sign,
    contract,
    exterior_derivative,
    frobenius_check,
    plucker_check,
    radial_contraction,
    wedge,
)
from logfol.poly import Poly

from conftest import P, random_poly, variables


def dx(arity, *indices):
    return PForm(arity, len(indices), {tuple(indices): Poly.one(arity)})


def random_form(rng, arity, degree, coeff_degree=3):
    coeffs = {}
    for subset in itertools.combinations(range(arity), degree):
        coeffs[subset] = random_poly(rng, arity, coeff_degree, terms=3)
    return PForm(arity, degree, coeffs)


# -- wedge ---------------------------------------------------------------------

def test_wedge_basis():
    assert wedge(dx(3, 0), dx(3, 1)) == dx(3, 0, 1)


def test_wedge_repeated_index_vanishes():
    x = variables(3)
    a = PForm(3, 1, {(0,): x[0]})
    b = PForm(3, 1, {(0,): x[1]})
    assert wedge(a, b).is_zero


def test_wedge_expansion():
    one = Poly.one(3)
    a = PForm(3, 1, {(0,): one, (1,): one})
    b = PForm(3, 1, {(0,): one, (1,): -one})
    assert wedge(a, b) == PForm(3, 2, {(0, 1): Poly.const(3, -2)})


def product_wedge(a, b):
    """a ∧ b from ``Poly`` products and sums, the definition term by term."""
    coeffs = {}
    for sa, pa in a.coeffs.items():
        for sb, pb in b.coeffs.items():
            merged, sign = _merge_sign(sa, sb)
            if merged is not None:
                coeffs[merged] = coeffs.get(merged, Poly(a.arity)) + pa * pb * sign
    return PForm(a.arity, a.degree + b.degree, coeffs)


def rational_form(rng, arity, degree, high=False):
    """A random form whose coefficients have different denominators; with
    ``high`` each coefficient is a multiple of a variable to the 70th."""
    coeffs = {}
    for subset in itertools.combinations(range(arity), degree):
        p = random_poly(rng, arity, 3, terms=3) * Fraction(rng.randint(1, 7), rng.randint(2, 9))
        if high:
            p = p * Poly.variable(arity, rng.randrange(arity)) ** 70
        coeffs[subset] = p
    return PForm(arity, degree, coeffs)


def test_wedge_zero_test_matches_the_product_wedge():
    """``wedge`` against the product definition on seeded random forms of
    degree 1-3 with rational coefficients over different denominators, and
    the zero test of the foliation checks against that product:
    ``plucker_check`` of a 2-form tests a ∧ a = 0 and ``frobenius_check``
    of a 1-form da ∧ a = 0.  Multiples of a 1-form, decomposable 2-forms
    and multiples of exact 1-forms give zero products; coefficients of
    degree 70 and more make products of degree 140 and more, past the
    narrowest field width."""
    rng = random.Random(2208)
    seen = set()
    for case in range(60):
        arity = rng.randint(3, 5)
        high = case % 4 == 3
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a = rational_form(rng, arity, p, high)
        if case % 3 == 0:  # a ∧ (f a) = 0 for a 1-form, a ∧ alpha = 0 for a = alpha ∧ beta
            alpha = rational_form(rng, arity, 1, high)
            b = alpha * (random_poly(rng, arity, 3, terms=2) + Fraction(1, 3))
            a = product_wedge(alpha, rational_form(rng, arity, 1)) if p == 2 else alpha
        else:
            b = rational_form(rng, arity, q, high)
        expected = product_wedge(a, b)
        assert wedge(a, b) == expected
        seen.add(("wedge", expected.is_zero))
        if high and not expected.is_zero:
            assert min(c.total_degree() for c in expected.coeffs.values()) >= 140
        if a.degree == 2:
            square = product_wedge(a, a)
            assert plucker_check(a) == square.is_zero
            seen.add(("plucker", square.is_zero))
        if a.degree == 1:
            if case % 2:  # f dg is integrable
                g = PForm(arity, 0, {(): random_poly(rng, arity, 3, terms=3)})
                a = exterior_derivative(g) * (random_poly(rng, arity, 2, terms=2) + 1)
            obstruction = product_wedge(exterior_derivative(a), a)
            assert frobenius_check(a) == obstruction.is_zero
            seen.add(("frobenius", obstruction.is_zero))
    assert len(seen) == 6  # each test sees zero and nonzero products


def test_wedge_zero_test_reads_every_coefficient():
    """For a = f (dx01 + dx02 + dx13 + dx23) + g dx04 the product loop of
    a ∧ a reaches dx0123 first, where f*f dx01∧dx23 cancels f*f dx02∧dx13,
    and only then dx0134 and dx0234, which are nonzero: a zero test that
    stopped at the first coefficient it reached would call a decomposable.
    Without the g term a = f (dx0 - dx3) ∧ (dx1 + dx2) is decomposable."""
    rng = random.Random(9)
    f = random_poly(rng, 5, 3) * Fraction(2, 3) + Fraction(1, 5)
    g = random_poly(rng, 5, 3) * Fraction(5, 7) + 1
    square = {(0, 1): f, (0, 2): f, (1, 3): f, (2, 3): f}
    a = PForm(5, 2, {**square, (0, 4): g})
    assert wedge(a, a) == PForm(5, 4, {(0, 1, 3, 4): 2 * f * g, (0, 2, 3, 4): 2 * f * g})
    assert not plucker_check(a)
    assert plucker_check(PForm(5, 2, square))


def test_wedge_overflow_degree_is_zero():
    assert wedge(dx(2, 0, 1), dx(2, 0)).is_zero


def test_wedge_graded_commutativity_random():
    rng = random.Random(15)
    for _ in range(40):
        arity = rng.randint(2, 4)
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        a = random_form(rng, arity, p)
        b = random_form(rng, arity, q)
        sign = (-1) ** (p * q)
        assert wedge(a, b) == wedge(b, a) * sign


# -- exterior derivative --------------------------------------------------------

def test_d_of_x0_dx1():
    x = variables(3)
    assert exterior_derivative(PForm(3, 1, {(1,): x[0]})) == dx(3, 0, 1)


def test_d_of_log_form_instance():
    x = variables(3)
    omega = PForm(3, 1, {(0,): x[1] * x[2], (1,): 2 * x[0] * x[2], (2,): -3 * x[0] * x[1]})
    d_omega = exterior_derivative(omega)
    assert d_omega == PForm(3, 2, {(0, 1): x[2], (0, 2): -4 * x[1], (1, 2): -5 * x[0]})
    assert exterior_derivative(d_omega).is_zero


def test_d_of_constant_form_is_zero():
    assert exterior_derivative(dx(4, 1, 3)).is_zero


def test_d_squared_zero_random():
    rng = random.Random(23)
    for _ in range(60):
        arity = rng.randint(2, 4)
        degree = rng.randint(0, arity - 1)
        a = random_form(rng, arity, degree)
        assert exterior_derivative(exterior_derivative(a)).is_zero


def test_d_antiderivation_random():
    rng = random.Random(29)
    for _ in range(40):
        arity = rng.randint(2, 4)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        a = random_form(rng, arity, p)
        b = random_form(rng, arity, q)
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)) * ((-1) ** p)
        assert lhs == rhs


# -- contraction ------------------------------------------------------------------

def test_contract_single_index():
    assert contract(dx(3, 0, 1), (0,)) == dx(3, 1)
    assert contract(dx(3, 0, 1), (2,)).is_zero
    assert contract(dx(3, 0, 1), (1,)) == -dx(3, 0)


def test_contract_multivector_sign_consistent_with_wedge():
    x = variables(3)
    a = PForm(3, 2, {(0, 1): x[2]})
    out = contract(a, (0, 1))
    assert out.degree == 0
    assert out.coeffs in ({(): x[2]}, {(): -x[2]})


def test_contract_empty_multivector_is_identity():
    a = dx(3, 0, 2)
    assert contract(a, ()) == a


def test_contract_errors():
    with pytest.raises(ValueError):
        contract(dx(3, 0), (0, 1))
    with pytest.raises(ValueError):
        contract(dx(3, 0, 1), (1, 0))


def test_contraction_antiderivation_random():
    rng = random.Random(37)
    for _ in range(40):
        arity = rng.randint(2, 4)
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        a = random_form(rng, arity, p)
        b = random_form(rng, arity, q)
        j = (rng.randrange(arity),)
        lhs = contract(wedge(a, b), j)
        rhs = wedge(contract(a, j), b) + wedge(a, contract(b, j)) * ((-1) ** p)
        assert lhs == rhs


def reference_contract(a, xi):
    """i_Xi a field by field on ``Poly`` coefficients, rightmost first."""
    for j in reversed(xi):
        coeffs = {}
        for subset, poly in a.coeffs.items():
            if j in subset:
                k = subset.index(j)
                coeffs[subset[:k] + subset[k + 1:]] = poly if k % 2 == 0 else -poly
        a = PForm(a.arity, a.degree - 1, coeffs)
    return a


def reference_derivative(a):
    """da from ``Poly.partial_derivative``, one basis product at a time."""
    out = PForm(a.arity, a.degree + 1)
    for subset, poly in a.coeffs.items():
        for i in range(a.arity):
            merged, sign = _merge_sign((i,), subset)
            if merged is not None:
                out = out + PForm(a.arity, a.degree + 1,
                                  {merged: poly.partial_derivative(i) * sign})
    return out


def test_kernel_matches_the_poly_reference():
    """``contract`` by every coordinate multivector and
    ``exterior_derivative`` on integer numerators, against the field by
    field references on ``Poly`` coefficients, on seeded forms of degree 0-3
    with rational coefficients over different denominators, some of degree
    70 and more."""
    rng = random.Random(1808)
    for case in range(40):
        arity = rng.randint(2, 5)
        degree = case % min(4, arity + 1)
        a = rational_form(rng, arity, degree, high=case % 5 == 4)
        assert exterior_derivative(a) == reference_derivative(a)
        for size in range(degree + 1):
            for xi in itertools.combinations(range(arity), size):
                assert contract(a, xi) == reference_contract(a, xi)


def every_multivector_vanishes(a, op):
    """op(i_Xi a) ∧ a = 0 for every coordinate (q-1)-multivector Xi."""
    return all(product_wedge(op(reference_contract(a, xi)), a).is_zero
               for xi in itertools.combinations(range(a.arity), a.degree - 1))


def sparse_hyperplane_form(rng, n, s, lambdas=None):
    """sum_I lambda_I (prod_{j not in I} f_j) df_I for s sparse random
    hyperplanes f_j on P^n, q = 3: the logarithmic form of a residue matrix
    whose rows sum to zero, or the same sum over a raw ``lambdas`` table."""
    arity = n + 1
    x = [Poly.variable(arity, i) for i in rng.sample(range(arity), s + 1)]
    divisors = [x[j] + x[s] * rng.choice([-3, -1, 2, 5]) for j in range(s)]
    if lambdas is None:
        rows = [[rng.randint(-4, 4) for _ in range(s - 1)] for _ in range(3)]
        spec = FoliationSpec(n, 3, divisors, [row + [-sum(row)] for row in rows])
        return build_form(validate_spec(spec, "basic"))
    spec = FoliationSpec(n, 3, divisors, lambdas=lambdas)
    return build_form(ValidatedSpec(spec, "basic", (1,) * s, spec.lambdas))


def three_form(rng, case):
    """A random 3-form (case 0 mod 3), a product of three 1-forms with
    linear coefficients (1 mod 3) or of three exact 1-forms (2 mod 3), times
    a random polynomial."""
    arity = rng.randint(4, 5)
    if case % 3 == 0:
        return rational_form(rng, arity, 3)
    if case % 3 == 1:
        factors = [random_form(rng, arity, 1, coeff_degree=1) for _ in range(3)]
    else:
        factors = [exterior_derivative(PForm(arity, 0, {(): random_poly(rng, arity, 2)}))
                   for _ in range(3)]
    a = product_wedge(product_wedge(factors[0], factors[1]), factors[2])
    return a * (random_poly(rng, arity, 1, terms=2) + 1)


def test_foliation_checks_match_every_coordinate_multivector():
    """``plucker_check`` and ``frobenius_check`` take Xi over the coordinates
    of a's index tuples only; a loop over every coordinate 2-multivector of
    the ambient space agrees on 3-forms: random ones, products of three
    1-forms (decomposable, seldom integrable), g times a product of exact
    1-forms (both), dx_k ∧ eta for a 2-form eta free of dx_k, whose
    failures only multivectors holding x_k see, for the first and the last
    coordinate (neither), and 3-forms of 5 sparse hyperplanes on P^40: the
    logarithmic form of a residue matrix (both), and the same sum over a raw
    table (integrable, not decomposable)."""
    rng = random.Random(40)
    forms = [three_form(rng, case) for case in range(9)]
    for k in (0, 4):  # dx_k ∧ eta: only multivectors holding x_k see it fail
        eta = {subset: random_poly(rng, 5, 1, terms=2) + 1
               for subset in itertools.combinations(range(5), 2) if k not in subset}
        forms.append(product_wedge(dx(5, k), PForm(5, 2, eta)))
    forms.append(sparse_hyperplane_form(rng, 40, 5))
    forms.append(sparse_hyperplane_form(rng, 40, 5, lambdas={
        subset: rng.randint(1, 9) for subset in itertools.combinations(range(5), 3)}))
    seen = set()
    for a in forms:
        assert not a.is_zero
        decomposable = every_multivector_vanishes(a, lambda b: b)
        integrable = every_multivector_vanishes(a, exterior_derivative)
        assert plucker_check(a) == decomposable
        assert frobenius_check(a) == integrable
        seen.add((decomposable, integrable))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert [(plucker_check(a), frobenius_check(a)) for a in forms[-4:]] == \
        [(False, False), (False, False), (True, True), (False, True)]


# -- radial contraction --------------------------------------------------------------

def test_radial_on_descending_instance():
    x = variables(3)
    omega = PForm(3, 1, {(0,): x[1] * x[2], (1,): 2 * x[0] * x[2], (2,): -3 * x[0] * x[1]})
    assert radial_contraction(omega).is_zero


def test_radial_on_dx0():
    x = variables(3)
    assert radial_contraction(dx(3, 0)) == PForm(3, 0, {(): x[0]})


def test_radial_squared_zero():
    rng = random.Random(43)
    for _ in range(30):
        arity = rng.randint(2, 4)
        a = random_form(rng, arity, 2)
        assert radial_contraction(radial_contraction(a)).is_zero


# -- decomposability and integrability --------------------------------------------------

def test_plucker_one_forms_trivially_pass():
    rng = random.Random(47)
    for _ in range(10):
        assert plucker_check(random_form(rng, 3, 1))


def test_plucker_rejects_symplectic_type_form():
    one = Poly.one(4)
    a = PForm(4, 2, {(0, 1): one, (2, 3): one})
    assert not plucker_check(a)
    assert plucker_check(PForm(4, 2, {(0, 1): one}))


def test_plucker_of_a_two_form_matches_the_contraction_family():
    """For a 2-form the one test a ∧ a = 0 agrees with (i_k a) ∧ a = 0 for
    every coordinate field d/dx_k, on random decomposable and
    non-decomposable 2-forms."""
    rng = random.Random(4)
    seen = set()
    for case in range(30):
        arity = rng.randint(4, 6)
        if case % 2:
            a = product_wedge(rational_form(rng, arity, 1), rational_form(rng, arity, 1))
        else:
            a = rational_form(rng, arity, 2)
        family = all(product_wedge(contract(a, (k,)), a).is_zero for k in range(arity))
        assert plucker_check(a) == family
        seen.add(family)
    assert seen == {True, False}


def test_frobenius_examples():
    x = variables(3)
    omega = PForm(3, 1, {(0,): x[1] * x[2], (1,): 2 * x[0] * x[2], (2,): -3 * x[0] * x[1]})
    assert frobenius_check(omega)
    assert frobenius_check(dx(3, 0, 1))
    # x1 dx0: the candidate obstruction dx1 ^ dx0 ^ dx0 vanishes by repetition
    assert frobenius_check(PForm(3, 1, {(0,): x[1]}))


def test_frobenius_detects_non_integrable():
    # dx2 + x0 dx1 is the standard contact-type non-integrable 1-form
    x = variables(3)
    a = PForm(3, 1, {(2,): Poly.one(3), (1,): x[0]})
    d_a = exterior_derivative(a)
    assert not wedge(d_a, a).is_zero
    assert not frobenius_check(a)


def test_frobenius_matches_the_form_built_test():
    """The integrability test on integer numerators against d(i_Xi a) ∧ a
    built as forms, on seeded forms of degree 1-3 with rational
    coefficients: random ones, which are seldom integrable, and g times a
    wedge of exact 1-forms df_i, which always is."""
    rng = random.Random(2208)
    seen = set()
    for case in range(36):
        arity = rng.randint(3, 5)
        degree = 1 + case % 3
        if case % 2:
            exact = [exterior_derivative(PForm(arity, 0, {(): random_poly(rng, arity, 2, terms=3)}))
                     for _ in range(degree)]
            a = exact[0]
            for b in exact[1:]:
                a = wedge(a, b)
            a = a * (random_poly(rng, arity, 2, terms=2) * Fraction(3, 7) + 1)
        else:
            a = rational_form(rng, arity, degree)
        built = all(wedge(exterior_derivative(contract(a, xi)), a).is_zero
                    for xi in itertools.combinations(range(arity), degree - 1))
        assert frobenius_check(a) == built
        seen.add((degree, built))
    assert {built for _, built in seen} == {True, False}


def test_checks_reject_zero_degree():
    with pytest.raises(ValueError):
        plucker_check(PForm(3, 0, {(): Poly.one(3)}))
    with pytest.raises(ValueError):
        frobenius_check(PForm(3, 0, {(): Poly.one(3)}))
