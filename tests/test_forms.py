import itertools
import random
from fractions import Fraction

import pytest

from logfol.forms import (
    PForm,
    _merge_sign,
    _wedge_is_zero,
    _wedge_sums,
    contract,
    contract_index,
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
                coeffs[merged] = coeffs.get(merged, Poly.zero(a.arity)) + pa * pb * sign
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
    """The zero test against ``wedge(a, b).is_zero``, and ``wedge`` against
    the product definition, on seeded random forms of degree 1-3 with
    rational coefficients over different denominators.  Multiples of a
    1-form and of a decomposable 2-form give zero products; coefficients of
    degree 70 and more make products of degree 140 and more, past the
    narrowest field width."""
    rng = random.Random(2208)
    zeros = 0
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
        assert _wedge_is_zero(a, b) == expected.is_zero
        zeros += expected.is_zero
        if high and not expected.is_zero:
            assert min(c.total_degree() for c in expected.coeffs.values()) >= 140
    assert 10 <= zeros <= 50


def test_wedge_zero_test_reads_every_coefficient():
    """a ∧ b reaches dx0123 and dx0124, and only the last of them is
    nonzero: f*f dx01∧dx23 cancels -f*f dx23∧dx01, so a zero test that
    stopped early would call the product zero."""
    rng = random.Random(9)
    f = random_poly(rng, 5, 3) * Fraction(2, 3) + Fraction(1, 5)
    g = random_poly(rng, 5, 3) * Fraction(5, 7) + 1
    a = PForm(5, 2, {(0, 1): f, (2, 3): f})
    b = PForm(5, 2, {(0, 1): f, (2, 3): -f, (2, 4): g})
    _, _, sums = _wedge_sums(a, b)
    reached = [(subset, bool(num)) for subset, num in sums]
    assert reached == [((0, 1, 2, 3), False), ((0, 1, 2, 4), True)]
    assert wedge(a, b) == PForm(5, 4, {(0, 1, 2, 4): f * g})
    assert not _wedge_is_zero(a, b)
    assert _wedge_is_zero(a, PForm(5, 2, {(0, 1): f, (2, 3): -f}))


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
    assert contract_index(dx(3, 0, 1), 1) == -dx(3, 0)


def test_contract_multivector_sign_consistent_with_wedge():
    x = variables(3)
    a = PForm(3, 2, {(0, 1): x[2]})
    out = contract(a, (0, 1))
    assert out.degree == 0
    value = out.coefficient(())
    assert value == x[2] or value == -x[2]


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
        j = rng.randrange(arity)
        lhs = contract_index(wedge(a, b), j)
        rhs = wedge(contract_index(a, j), b) + wedge(a, contract_index(b, j)) * ((-1) ** p)
        assert lhs == rhs


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
