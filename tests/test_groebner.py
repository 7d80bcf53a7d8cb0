import json
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logfol import groebner
from logfol.cli import main
from logfol.groebner import (
    Ideal,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    ideal_saturation,
    ideal_sum,
    krull_dimension,
    module_annihilator,
    normal_form,
    projective_dimension,
    radical_membership,
)
from logfol.poly import ELIMINATION, GREVLEX, Poly, _aligned, _layout, _make, parse_poly

from conftest import (
    P,
    in_monomial_ideal,
    mono_poly,
    monomials_upto,
    oracle_colon,
    oracle_dimension,
    oracle_intersection,
    oracle_saturation,
    random_homogeneous_poly,
    random_monomial,
    random_monomial_ideal_gens,
    random_poly,
    variables,
)
from test_poly import order_key


def gens_of(ideal):
    return sorted(str(g) for g in ideal.groebner_basis())


# -- reduced Groebner bases -----------------------------------------------------

def test_monomial_ideal_is_its_own_basis():
    x0, x1, x2 = variables(3)
    I = Ideal(3, [x0 * x1, x0 * x2, x1 * x2])
    assert gens_of(I) == ["x0*x1", "x0*x2", "x1*x2"]


def test_linear_reduction():
    I = Ideal(2, [P("x0", 2), P("x0 + x1", 2)])
    assert gens_of(I) == ["x0", "x1"]


def test_unit_ideal_basis():
    assert gens_of(Ideal.unit(3)) == ["1"]
    I = Ideal(2, [P("x0", 2), P("x0 + 1", 2)])  # contains 1
    assert gens_of(I) == ["1"]


def test_generators_reduce_to_zero():
    rng = random.Random(5)
    for _ in range(20):
        gens = [mono_poly(3, random_monomial(rng, 3, 3)) for _ in range(3)]
        lin = P("x0 + 2*x1 - x2", 3)
        I = Ideal(3, gens + [lin * gens[0]])
        for g in I.generators:
            assert normal_form(g, I).is_zero


def test_reduced_basis_unique_under_regeneration():
    """Different generating sets of the same ideal share one reduced basis."""
    rng = random.Random(17)
    x = variables(3)
    base = [x[0] * x[1] - x[2] * x[2], x[1] * x[2], x[0] * x[0] * x[2]]
    I = Ideal(3, base)
    reference = I.groebner_basis()
    for _ in range(10):
        mixed = list(base)
        a, b = rng.sample(range(len(base)), 2)
        coeff = rng.randint(1, 4)
        # replace a generator by itself plus a multiple of another
        mixed[a] = mixed[a] + coeff * x[rng.randrange(3)] ** (
            max(0, mixed[a].total_degree() - mixed[b].total_degree())) * mixed[b]
        J = Ideal(3, mixed + [base[a]])
        assert J.groebner_basis() == reference
    assert I.groebner_basis() is I.groebner_basis()  # computed once per ideal


def test_reducedness_property():
    """No term of a basis element is divisible by another's leading term."""
    I = Ideal(3, [P("x0^2 + x1*x2", 3), P("x0*x1 - x2^2", 3), P("x1^3 - x2^3", 3)])
    basis = I.groebner_basis()
    from conftest import mono_divides
    leads = [max(g.terms, key=lambda mono: order_key(GREVLEX, mono)) for g in basis]
    for i, g in enumerate(basis):
        assert g.terms[leads[i]] == 1
        for mono in g.terms:
            for j, lm in enumerate(leads):
                if i == j and mono == leads[i]:
                    continue
                assert not mono_divides(lm, mono)


# -- normal forms -----------------------------------------------------------------

def test_normal_form_examples():
    I = Ideal(2, [P("x0", 2)])
    assert normal_form(P("x0*x1", 2), I).is_zero
    assert normal_form(P("x1^2", 2), I) == P("x1^2", 2)
    J = Ideal(2, [P("x0 - x1", 2)])
    assert normal_form(P("x0^2 + x1", 2), J) == P("x1^2 + x1", 2)


def test_normal_form_membership_witness():
    I = Ideal(3, [P("x0*x1 - x2^2", 3), P("x0^2 - x1*x2", 3)])
    member = P("x1", 3) * I.generators[0] + P("x2", 3) * I.generators[1]
    assert normal_form(member, I).is_zero
    assert p_minus_nf_in_ideal(P("x0^3 + x1^3 + x2^3", 3), I)


def p_minus_nf_in_ideal(p, I):
    diff = p - normal_form(p, I)
    return normal_form(diff, I).is_zero


# -- sums --------------------------------------------------------------------------

def test_ideal_sum():
    x0, x1, x2 = variables(3)
    assert gens_of(ideal_sum(Ideal(3, [x0]), Ideal(3, [x1]))) == ["x0", "x1"]
    I = Ideal(3, [x0 * x1])
    assert ideal_equal(ideal_sum(I, Ideal(3)), I)
    assert gens_of(ideal_sum(Ideal(3, [x0 * x1]), Ideal(3, [x0 * x2]))) == ["x0*x1", "x0*x2"]
    with pytest.raises(ValueError):
        ideal_sum(Ideal(2), Ideal(3))


# -- intersections ------------------------------------------------------------------

def test_intersection_coprime_principal():
    x0, x1, _ = variables(3)
    assert gens_of(ideal_intersection(Ideal(3, [x0]), Ideal(3, [x1]))) == ["x0*x1"]


def test_intersection_three_coordinate_planes():
    x0, x1, x2 = variables(3)
    cap = reduce(ideal_intersection,
                 [Ideal(3, [x0, x1]), Ideal(3, [x0, x2]), Ideal(3, [x1, x2])])
    assert gens_of(cap) == ["x0*x1", "x0*x2", "x1*x2"]


def test_intersection_idempotent():
    I = Ideal(3, [P("x0^2 - x1*x2", 3), P("x1*x2^2", 3)])
    assert ideal_intersection(I, I).groebner_basis() == I.groebner_basis()


def test_intersection_against_monomial_oracle():
    rng = random.Random(2024)
    for _ in range(25):
        arity = rng.randint(2, 4)
        gens_a = random_monomial_ideal_gens(rng, arity, 4, rng.randint(1, 4))
        gens_b = random_monomial_ideal_gens(rng, arity, 4, rng.randint(1, 4))
        A = Ideal(arity, [mono_poly(arity, m) for m in gens_a])
        B = Ideal(arity, [mono_poly(arity, m) for m in gens_b])
        engine = ideal_intersection(A, B)
        bound = max(sum(m) for m in gens_a) + max(sum(m) for m in gens_b)
        for mono in monomials_upto(arity, bound):
            expected = oracle_intersection(mono, [gens_a, gens_b])
            assert normal_form(mono_poly(arity, mono), engine).is_zero == expected


# -- colon ideals ---------------------------------------------------------------------

def test_colon_monomial_example():
    x0, x1, x2 = variables(3)
    I = Ideal(3, [x0 * x1, x0 * x2, x1 * x2])
    assert gens_of(ideal_quotient(I, x2)) == ["x0", "x1"]


def test_colon_by_unit_and_power():
    x0, _, _ = variables(3)
    I = Ideal(3, [P("x0*x1", 3), P("x2^3", 3)])
    assert ideal_equal(ideal_quotient(I, Poly.one(3)), I)
    assert gens_of(ideal_quotient(Ideal(3, [x0 * x0]), x0)) == ["x0"]
    with pytest.raises(ValueError):
        ideal_quotient(I, Poly(3))


def test_colon_against_monomial_oracle():
    rng = random.Random(31)
    for _ in range(25):
        arity = rng.randint(2, 4)
        gens = random_monomial_ideal_gens(rng, arity, 4, rng.randint(1, 4))
        u = random_monomial(rng, arity, 3)
        I = Ideal(arity, [mono_poly(arity, m) for m in gens])
        engine = ideal_quotient(I, mono_poly(arity, u))
        bound = max(sum(m) for m in gens)
        for mono in monomials_upto(arity, bound):
            expected = oracle_colon(mono, gens, u)
            assert normal_form(mono_poly(arity, mono), engine).is_zero == expected


def test_colon_containments():
    """I  is inside I : g, and (I : g) * g is inside the intersection with (g)."""
    rng = random.Random(12)
    for _ in range(10):
        arity = 3
        gens = random_monomial_ideal_gens(rng, arity, 3, 3)
        I = Ideal(arity, [mono_poly(arity, m) for m in gens])
        g = mono_poly(arity, random_monomial(rng, arity, 2))
        Q = ideal_quotient(I, g)
        for gen in I.generators:
            assert normal_form(gen, Q).is_zero
        inter = ideal_intersection(I, Ideal(arity, [g]))
        for h in Q.generators:
            assert normal_form(h * g, inter).is_zero


# -- soundness properties of colon and intersection --------------------------------

def _small_forms(arity):
    """Nonzero homogeneous polynomials of degree 1 or 2 with small integer
    coefficients: every ideal of a foliation instance is homogeneous."""
    def forms(degree):
        monomial = st.tuples(*[st.integers(0, degree)] * arity).filter(
            lambda m: sum(m) == degree)
        terms = st.dictionaries(monomial, st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=3)
        return terms.map(lambda d: Poly(arity, {m: Fraction(c) for m, c in d.items()}))
    return forms(1) | forms(2)


@st.composite
def _ideals_and_poly(draw):
    arity = draw(st.integers(2, 3))
    forms = _small_forms(arity)
    ideal = lambda: Ideal(arity, draw(st.lists(forms, min_size=1, max_size=3)))
    return ideal(), ideal(), draw(forms)


_PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@_PROPERTY_SETTINGS
@given(_ideals_and_poly())
def test_colon_generators_multiply_into_the_ideal(case):
    I, _, g = case
    colon = ideal_quotient(I, g)
    for h in colon.generators:
        assert normal_form(h * g, I).is_zero
    assert all(colon.contains(f) for f in I.generators)  # and I lies in I : g


@_PROPERTY_SETTINGS
@given(_ideals_and_poly())
def test_intersection_generators_lie_in_both_ideals(case):
    I, J, _ = case
    cap = ideal_intersection(I, J)
    for h in cap.generators:
        assert I.contains(h) and J.contains(h)
    assert all(cap.contains(f * g) for f in I.generators for g in J.generators)  # and I*J


# -- saturation -------------------------------------------------------------------------

def test_saturation_examples():
    x0, x1, x2 = variables(3)
    I = Ideal(3, [x0 * x1, x0 * x2, x1 * x2])
    assert gens_of(ideal_saturation(Ideal(3, [x0 * x1]), Ideal(3, [x0]))) == ["x1"]
    assert ideal_saturation(I, I).is_unit
    assert ideal_equal(ideal_saturation(I, Ideal.unit(3)), I)


def test_saturation_against_monomial_oracle():
    rng = random.Random(77)
    for _ in range(20):
        arity = rng.randint(2, 4)
        gens = random_monomial_ideal_gens(rng, arity, 4, rng.randint(1, 3))
        sat_gens = random_monomial_ideal_gens(rng, arity, 2, rng.randint(1, 2))
        I = Ideal(arity, [mono_poly(arity, m) for m in gens])
        J = Ideal(arity, [mono_poly(arity, m) for m in sat_gens])
        engine = ideal_saturation(I, J)
        bound = max(sum(m) for m in gens)
        for mono in monomials_upto(arity, bound):
            expected = oracle_saturation(mono, gens, sat_gens)
            assert normal_form(mono_poly(arity, mono), engine).is_zero == expected, (
                gens, sat_gens, mono)


def _saturation_by_single_colons(I, f):
    """I : f^infinity one colon by f at a time, to a fixed point."""
    current = I
    while True:
        nxt = module_annihilator([f], current)
        if ideal_equal(nxt, current):
            return current
        current = nxt


def test_principal_saturation_matches_single_colons():
    """Saturating by (f) through colons by f, f, f^2, f^4, ... gives the
    ideal that one colon by f at a time reaches, on powers of a variable and
    of a dense quadric, and on a few random homogeneous ideals."""
    x0, x1, x2 = variables(3)
    quadric = P("x0^2 + 2*x0*x1 - 3*x1*x2 + x2^2", 3)
    cases = [(Ideal(3, [x0 ** 5 * x1, x0 ** 3 * x2 ** 2]), x0),
             (Ideal(3, [x0 ** 5 * x1, x1 ** 2 * x2]), x0 * x1),
             (Ideal(3, [quadric ** 3 * x1, quadric * x2 ** 3, x0 ** 7]), quadric),
             (Ideal(3, [quadric ** 3 * x0, x2 * x1 ** 4]), quadric)]
    rng = random.Random(12)
    for _ in range(4):
        gens = [random_homogeneous_poly(rng, 3, rng.randint(2, 3), 3) for _ in range(2)]
        cases.append((Ideal(3, gens), random_homogeneous_poly(rng, 3, 1, 2)))
    for I, f in cases:
        expected = _saturation_by_single_colons(I, f)
        assert ideal_equal(ideal_saturation(I, Ideal(3, [f])), expected), (I, f)
    assert gens_of(ideal_saturation(cases[0][0], Ideal(3, [x0]))) == ["x1", "x2^2"]


@pytest.mark.parametrize("exponent", [9999, 999999])
def test_saturation_by_a_high_power_is_bounded_work(tmp_path, exponent):
    """``verify --waive-preconditions`` of the divisors x0^d, x1, x2 saturates
    by powers of x0 in ``radical_membership``: one colon per unit of d took
    seconds for d = 9999 and minutes for d = 999999, squaring takes well
    under 2 s for both."""
    spec = {"n": 2, "q": 1, "divisors": [f"x0^{exponent}", "x1", "x2"],
            "residue_matrix": [[1, 1, -(exponent + 1)]], "validation_level": "basic"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.perf_counter()
    code = main(["verify", str(path), "--waive-preconditions", "--format", "machine",
                 "--output", str(tmp_path / "report.json")])
    assert time.perf_counter() - t0 < 2
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert code == 3
    assert report["failed_checks"] == ["residual-dimension", "kupka-formula", "disjointness"]


# -- radical membership -------------------------------------------------------------------

def test_radical_membership_examples():
    x0, x1, _ = variables(3)
    assert radical_membership(x0, Ideal(3, [x0 * x0]))
    assert not radical_membership(x1, Ideal(3, [x0 * x0]))
    # non-homogeneous: modulo x2 = 1 the ideal contains (x0+x1)^3
    J = Ideal(3, [P("(x0 + x1)^3 * x2", 3), P("x2 - 1", 3)])
    assert radical_membership(P("x0 + x1", 3), J)
    assert not radical_membership(P("x0", 3), J)


def test_generators_are_radical_members():
    rng = random.Random(3)
    for _ in range(10):
        gens = [mono_poly(3, random_monomial(rng, 3, 3)) for _ in range(3)]
        I = Ideal(3, gens)
        for g in I.generators:
            assert radical_membership(g, I)


# -- dimension -------------------------------------------------------------------------------

def test_krull_dimension_examples():
    x = variables(3)
    assert krull_dimension(Ideal(3, [x[0] * x[1], x[0] * x[2], x[1] * x[2]])) == 1
    assert krull_dimension(Ideal(4)) == 4
    assert krull_dimension(Ideal(4, variables(4))) == 0
    assert krull_dimension(Ideal.unit(3)) == -1
    assert projective_dimension(Ideal(4, variables(4))) == -1
    assert projective_dimension(Ideal.unit(3)) == -1


def test_dimension_against_independent_set_oracle():
    rng = random.Random(41)
    for _ in range(40):
        arity = rng.randint(2, 4)
        gens = random_monomial_ideal_gens(rng, arity, 4, rng.randint(1, 5))
        I = Ideal(arity, [mono_poly(arity, m) for m in gens])
        assert krull_dimension(I) == oracle_dimension(gens, arity)


def test_dimension_in_many_variables_is_bounded_work(tmp_path):
    """The dimension is found as the fewest variables meeting every leading
    support, not by a walk over the subsets of variables: a 60-variable
    Jacobian of a diagonal quadric, and ``logfol check`` of a smooth
    quadric and two hyperplanes on P^40, take well under 10 s each.
    Supports of two or three variables, where no variable is forced, are
    checked against the subset walk in 12 variables."""
    t0 = time.perf_counter()
    x = variables(60)
    quadric = sum((x[i] * x[i] * (i + 1) for i in range(60)), Poly(60))
    assert krull_dimension(Ideal(60, [quadric.partial_derivative(i) for i in range(60)])) == 0
    assert time.perf_counter() - t0 < 10

    t0 = time.perf_counter()
    spec = {"n": 40, "q": 1, "divisors": [" + ".join(f"x{i}^2" for i in range(41)), "x0", "x1"],
            "residue_matrix": [[2, -1, -3]], "validation_level": "generic"}
    path = tmp_path / "p40.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["check", str(path), "--format", "machine", "--output",
                 str(tmp_path / "report.json")]) == 0
    assert time.perf_counter() - t0 < 10

    rng = random.Random(60)
    for _ in range(8):
        gens = {tuple(int(i in chosen) for i in range(12))
                for chosen in (rng.sample(range(12), rng.randint(2, 3)) for _ in range(10))}
        I = Ideal(12, [mono_poly(12, m) for m in gens])
        assert krull_dimension(I) == oracle_dimension(gens, 12)


# -- equality ---------------------------------------------------------------------------------

def test_ideal_equal():
    x0, x1, _ = variables(3)
    assert ideal_equal(Ideal(3, [x0, x1]), Ideal(3, [x1, x0 + x1]))
    assert not ideal_equal(Ideal(3, [x0]), Ideal(3, [x0 * x0]))


def test_sum_vs_cap_identity_smallest_case():
    """s=3, q=1 coordinate arrangement: complementary products generate the
    intersection of the pairwise coordinate ideals; cross-checked against
    monomial membership."""
    x0, x1, x2 = variables(3)
    sum_form = Ideal(3, [x1 * x2, x0 * x2, x0 * x1])
    cap_form = reduce(ideal_intersection,
                      [Ideal(3, [x0, x1]), Ideal(3, [x0, x2]), Ideal(3, [x1, x2])])
    assert ideal_equal(sum_form, cap_form)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for mono in monomials_upto(3, 3):
        # a monomial lies in the intersection iff every pair contributes a factor
        oracle = all(any(mono[i] > 0 for i in pair) for pair in pairs)
        member = normal_form(mono_poly(3, mono), cap_form).is_zero
        assert member == oracle


# -- module annihilator -------------------------------------------------------------------------

def test_module_annihilator_examples(monkeypatch):
    x0, x1, x2 = variables(3)
    I = Ideal(3, [x0 * x1, x0 * x2, x1 * x2])
    ann = module_annihilator([x2, -4 * x1, -5 * x0], I)
    assert ideal_equal(ann, I)
    assert module_annihilator([x0 * x1, x1 * x2], I).is_unit
    assert gens_of(module_annihilator([x0], Ideal(3, [x0 * x1]))) == ["x1"]
    # the colon by a zero component is the whole ring: it drops out
    assert gens_of(module_annihilator([Poly(3), x0], Ideal(3, [x0 * x1]))) == ["x1"]

    # I : (b_1..b_N) is the intersection of the colons I : b_i, also with
    # components that lie in I, repeat, or are multiples of an earlier one
    rng = random.Random(58)
    for _ in range(8):
        I = Ideal(3, [random_homogeneous_poly(rng, 3, 2, 3) for _ in range(2)])
        if I.is_zero:
            continue
        b, c = (random_homogeneous_poly(rng, 3, 1, 2) for _ in range(2))
        components = [b, I.generators[0], c, b, b * random_homogeneous_poly(rng, 3, 1, 2)]
        components = [g for g in components if not g.is_zero]
        ann = module_annihilator(components, I)
        reference = reduce(ideal_intersection, [ideal_quotient(I, g) for g in components])
        assert ideal_equal(ann, reference)
        for h in ann.generators:
            for g in components:
                assert normal_form(h * g, I).is_zero

    # the colon by x0*x2 repeats (x1); then (x1)*x0^2 lies in (x0*x1), so
    # x0^2 takes no colon
    calls = []

    def counting_quotient(J, g):
        calls.append(g)
        return ideal_quotient(J, g)

    monkeypatch.setattr(groebner, "ideal_quotient", counting_quotient)
    ann = module_annihilator([x0, x0 * x2, x0 * x0], Ideal(3, [x0 * x1]))
    assert gens_of(ann) == ["x1"]
    assert calls == [x0, x0 * x2]
    # the same through the engine: modulo (h*x1), h = x0 + x2, the colons by
    # h*(x0 + x1 + x2) and h*(x0 - x2) are both (x1), and (x1)*h*x2 lies in I
    calls.clear()
    h = x0 + x2
    components = [h * (x0 + x1 + x2), h * (x0 - x2), h * x2]
    ann = module_annihilator(components, Ideal(3, [h * x1]))
    assert gens_of(ann) == ["x1"] and calls == components[:2]
    assert ideal_equal(ann, reduce(ideal_intersection, [ideal_quotient(Ideal(3, [h * x1]), g)
                                                        for g in components]))
    # I : x2 is I, so the answer is I after one colon
    calls.clear()
    assert gens_of(module_annihilator([x2, x0], Ideal(3, [x0 * x1]))) == ["x0*x1"]
    assert calls == [x2]

    # a colon equal to the intersection so far is not intersected with it:
    # modulo (x0*x1, x2^2) the colons by x0 and x0^2 are both (x1, x2^2)
    intersections = []
    monkeypatch.setattr(groebner, "ideal_intersection",
                        lambda A, B: intersections.append(B) or ideal_intersection(A, B))
    calls.clear()
    ann = module_annihilator([x0, x0 * x0, x2], Ideal(3, [x0 * x1, x2 * x2]))
    assert gens_of(ann) == gens_of(Ideal(3, [x0 * x1, x1 * x2, x2 * x2]))
    assert calls == [x0, x0 * x0, x2]
    assert [gens_of(B) for B in intersections] == [["x1", "x2^2"], ["x0*x1", "x2"]]


def test_module_annihilator_is_the_intersection_of_every_colon():
    """Seeded vectors with dense and sparse components, components in I,
    repeats and multiples: the densest-first order leaves the answer equal
    to the intersection of the colons in the given order."""
    rng = random.Random(1309)
    for trial in range(12):
        arity = 3 + trial % 2
        I = Ideal(arity, [random_homogeneous_poly(rng, arity, 2, 4) for _ in range(2)]
                  + [mono_poly(arity, random_monomial(rng, arity, 3))])
        dense = random_homogeneous_poly(rng, arity, 2, 6)
        sparse = mono_poly(arity, random_monomial(rng, arity, 2))
        inside = I.generators[0] * random_homogeneous_poly(rng, arity, 1, 2)
        components = [sparse, inside, dense, sparse, dense * sparse, -dense]
        components = [g for g in components if not g.is_zero]
        every = reduce(ideal_intersection, [ideal_quotient(I, g) for g in components])
        assert module_annihilator(components, I).groebner_basis() == every.groebner_basis()
        # components that all lie in I: the unit answer
        multiples = [g * f for g in I.generators for f in (sparse, dense) if not f.is_zero]
        assert module_annihilator(multiples, I).is_unit
    x0, x1, x2 = variables(3)
    assert module_annihilator([x0 + x1, x2], Ideal.unit(3)).is_unit
    assert module_annihilator([], Ideal(3, [x0])).is_unit


def test_colon_by_a_cached_basis_is_one_run_with_it_known(monkeypatch):
    """I's cached basis goes into the module run as known entries: one run,
    and the same reduced basis as the run seeded with I's raw generators.
    An intersection with the whole ring makes no run at all."""
    known_sizes = []
    original = groebner.groebner_terms

    def recording(generators, layout, known=()):
        known_sizes.append(len(known))
        return original(generators, layout, known)

    monkeypatch.setattr(groebner, "groebner_terms", recording)
    rng = random.Random(1310)
    for _ in range(6):
        gens = [random_homogeneous_poly(rng, 3, 2, 4) for _ in range(3)]
        g, h = random_homogeneous_poly(rng, 3, 1, 3), random_homogeneous_poly(rng, 3, 2, 3)
        if any(p.is_zero for p in gens + [g, h]):
            continue
        raw = [_engine_colon(gens, g), _engine_intersection(gens, [h])]
        cached = Ideal(3, gens)
        size = len(cached.groebner_basis())
        known_sizes.clear()
        assert ideal_quotient(cached, g).groebner_basis() == raw[0].groebner_basis()
        assert ideal_intersection(cached, Ideal(3, [h])).groebner_basis() == \
            raw[1].groebner_basis()
        assert known_sizes == [size, size]
        known_sizes.clear()
    I = Ideal(3, [P("x0*x1 - x2^2", 3)])
    assert ideal_intersection(Ideal.unit(3), I) is I
    assert ideal_intersection(I, Ideal(3, [P("x0", 3), P("7", 3)])) is I
    assert known_sizes == []


# -- monomial ideals: exponent arithmetic against the engine -----------------------------------

def _engine_basis(gens):
    """The engine's reduced basis of the ideal the polynomials generate."""
    layout, nums = _aligned(gens)
    run, basis = groebner.groebner_terms(nums, layout)
    return tuple(_make(run, num, den) for num, den in basis)


def _engine_colon(gens, g):
    zero, one = Poly(g.arity), Poly.one(g.arity)
    return groebner._e0_coordinates(g.arity, [(f, zero) for f in gens] + [(g, one)])


def _engine_intersection(gens_a, gens_b):
    zero = Poly(gens_a[0].arity)
    return groebner._e0_coordinates(gens_a[0].arity,
                                    [(f, zero) for f in gens_a] + [(h, h) for h in gens_b])


def _single_term(rng, arity, top):
    exps = tuple(rng.randint(1, top) if rng.random() < 0.6 else 0 for _ in range(arity))
    return Poly(arity, {exps: rng.choice([1, 1, 3, -2, Fraction(1, 5)])})


def test_monomial_ideals_take_exponent_arithmetic_and_match_the_engine(monkeypatch):
    """Seeded monomial ideals in 2-5 variables, with repeated generators,
    non-unit coefficients, constants and exponents past 127: the reduced
    basis, a colon by a single term and an intersection come from exponent
    arithmetic, with no engine run, and equal the engine's tuples exactly,
    in order and field width.  So do membership of single terms and sums
    (narrow and wide), dimension, equality and saturation, both ways by a
    monomial ideal, against the engine's bases, normal forms and colons."""
    rng = random.Random(1601)
    cases = []
    for trial in range(80):
        arity = 2 + trial % 4
        top = 150 if trial % 5 == 0 else 3
        a = [_single_term(rng, arity, top) for _ in range(rng.randint(1, 5))]
        a += [a[0], 3 * a[-1]]  # an exact repeat and a multiple
        b = [_single_term(rng, arity, top) for _ in range(rng.randint(1, 4))]
        g = _single_term(rng, arity, top) if trial % 7 else Poly.const(arity, 7)
        cases.append((a, b, g))
    x0, x1, x2 = variables(3)
    big = [P("x0^100*x1^27", 3), P("x1^127", 3)]
    cases += [
        ([3 * x0 * x1, Poly.const(3, 5), x2], [x0 * x0], x1),  # a constant generator
        ([x0 * x1, x1 * x2], [x0], x0 * x1 * x2),              # a colon that gives (1)
        (big, [P("x0^127", 3), P("x2^100", 3)], P("x0^90*x2^60", 3)),
    ]
    runs = []
    terms = groebner.groebner_terms
    monkeypatch.setattr(groebner, "groebner_terms",
                        lambda gens, layout, known=(): runs.append(layout.name)
                        or terms(gens, layout, known))
    answers = []
    for a, b, g in cases:
        cached = Ideal(a[0].arity, a)
        cached.groebner_basis()
        answers.append((Ideal(a[0].arity, a).groebner_basis(),
                        ideal_quotient(Ideal(a[0].arity, a), g).groebner_basis(),
                        ideal_quotient(cached, g).groebner_basis(),
                        ideal_intersection(Ideal(a[0].arity, a), Ideal(a[0].arity, b)),
                        ideal_intersection(cached, Ideal(a[0].arity, b)).groebner_basis()))
    assert runs == []
    widths, units = set(), 0
    for (a, b, g), (basis, colon, colon_cached, cap, cap_cached) in zip(cases, answers):
        assert basis == _engine_basis(a)
        assert colon == colon_cached == _engine_colon(a, g).groebner_basis()
        if any(p.total_degree() == 0 for p in a):
            assert Ideal(a[0].arity, a).is_unit and cap.generators == Ideal(g.arity, b).generators
            units += 1
            continue
        assert cap.groebner_basis() == cap_cached == _engine_intersection(a, b).groebner_basis()
        widths.update(p.layout.bits for p in cap.groebner_basis() + colon)
    assert Ideal(3, [x0 * x1, x1 * x2]).groebner_basis() == (x0 * x1, x1 * x2)
    assert ideal_quotient(Ideal(3, [x0 * x1, x1 * x2]), x0 * x1 * x2).is_unit
    assert ideal_quotient(Ideal(3, big), Poly.const(3, 7)).groebner_basis() \
        == Ideal(3, big).groebner_basis()
    assert widths == {7, 14}  # lcms past degree 127 cross the narrowest width
    assert 0 < units < 20

    # membership, equality, dimension and saturation read the packed form:
    # computed from fresh ideals before any basis is read, with no engine
    # run, they match ideals whose bases the engine computed
    rng = random.Random(1602)
    runs.clear()
    found, saturated = [], []
    for a, b, g in cases:
        arity = g.arity
        fresh = (Ideal(arity, a), ideal_quotient(Ideal(arity, a), g),
                 ideal_intersection(Ideal(arity, a), Ideal(arity, b)))
        probes = [_single_term(rng, arity, 200 if k % 2 else 3) for k in range(4)]
        probes += [a[0] * probes[0], a[-1] * b[0], a[0] * b[-1] * g + probes[1],
                   a[1] * probes[2] - 2 * a[0] * g, g * probes[3] + a[0] * b[0]]
        found.append([[X.contains(p) for p in probes] for X in fresh]
                     + [[krull_dimension(X) for X in fresh],
                        [[ideal_equal(X, Y) for Y in fresh] for X in fresh], probes])
        assert all(X._basis is None for X in fresh)  # no basis made for them
        saturated.append([ideal_saturation(X, Ideal(arity, b)) for X in fresh]
                         + [ideal_saturation(Ideal(arity, b), X) for X in fresh])
    assert runs == []
    truths = set()
    for (a, b, g), answers, sats in zip(cases, found, saturated):
        arity = g.arity
        one = Poly.one(arity)
        engine = [_engine_colon(a, one), _engine_colon(a, g),
                  _engine_colon(_engine_intersection(a, b).groebner_basis(), one)]
        *member, dims, equal, probes = answers
        for Y, row in zip(engine, member):
            assert row == [normal_form(p, Y).is_zero for p in probes]
            truths.update(row)
        assert dims == [oracle_dimension([next(iter(h.terms)) for h in Y.groebner_basis()], arity)
                        for Y in engine]
        assert equal == [[Y.groebner_basis() == Z.groebner_basis() for Z in engine]
                         for Y in engine]

        def engine_saturation(gens, by):
            # I : J^inf is the intersection of the I : u^N, N past every exponent of I
            power = 1 + max(h.total_degree() for h in gens)
            return reduce(lambda A, B: _engine_intersection(A.groebner_basis(),
                                                            B.groebner_basis()),
                          [_engine_colon(list(gens), u ** power) for u in by])

        bases = [Y.groebner_basis() for Y in engine]
        expected = ([engine_saturation(basis, b) for basis in bases]
                    + [engine_saturation(b, basis) for basis in bases])
        assert [X.groebner_basis() for X in sats] == [E.groebner_basis() for E in expected]
    assert truths == {True, False}


# -- independent oracle: SymPy's reduced Groebner bases ----------------------------------------

def _sympy_polys(sympy, polys, xs):
    return [sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                  for m, c in g.terms.items()}, *xs, domain="QQ")
            for g in polys]


def _sympy_terms(p):
    return frozenset((m, Fraction(str(c))) for m, c in p.as_dict().items())


def _sympy_block1(sympy):
    """SymPy's spelling of the elimination order of x0 (the engine's
    ``block(1)``): grevlex on x0, then grevlex on the rest."""
    from sympy.polys.orderings import ProductOrder, grevlex
    return ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))


def _sympy_reduced_basis(sympy, gens, arity, order):
    """SymPy's reduced basis over QQ, monic in the same order (a SymPy order
    name or object), as term sets."""
    xs = sympy.symbols(f"x0:{arity}")
    out = set()
    for p in sympy.groebner(_sympy_polys(sympy, gens, xs), *xs,
                            order=order, domain="QQ").polys:
        p = p.to_field()
        out.add(_sympy_terms(p.quo_ground(p.LC(order=order))))
    return out


def _with_t(g):
    """``g`` in the ring with a new first variable t."""
    return Poly(g.arity + 1, {(0,) + m: c for m, c in g.terms.items()})


def _sympy_eliminated(sympy, I, J):
    """SymPy's side of I ∩ J: the t-free part of its reduced basis of
    t*I + (1-t)*J under the elimination order of t, as SymPy polynomials in
    the variables of I."""
    arity = I.arity + 1
    t = Poly.variable(arity, 0)
    gens = [t * _with_t(f) for f in I.generators]
    gens += [(1 - t) * _with_t(g) for g in J.generators]
    xs = sympy.symbols(f"x0:{arity}")
    basis = sympy.groebner(_sympy_polys(sympy, gens, xs), *xs,
                           order=_sympy_block1(sympy), domain="QQ")
    ys = sympy.symbols(f"x0:{I.arity}")
    return [sympy.Poly.from_dict({m[1:]: c for m, c in p.as_dict().items()}, *ys, domain="QQ")
            for p in basis.polys if p.degree(xs[0]) <= 0]


def _monic_terms(sympy, polys):
    """Term sets of SymPy polynomials made monic in grevlex."""
    return {_sympy_terms(p.quo_ground(p.LC(order="grevlex"))) for p in polys}


def _basis_terms(ideal):
    return {frozenset(g.terms.items()) for g in ideal.groebner_basis()}


def _recorded_runs(monkeypatch):
    """A list that records (input layout, run layout) of every engine run."""
    runs = []
    original = groebner.groebner_terms

    def recording(generators, layout, known=()):
        result = original(generators, layout, known)
        runs.append((layout, result[0]))
        return result

    monkeypatch.setattr(groebner, "groebner_terms", recording)
    return runs


def test_reduced_bases_match_sympy():
    """Non-homogeneous ideals reach S-polynomial tails the monomial oracles miss."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2208)
    for _ in range(60):
        arity = rng.randint(2, 4)
        gens = [random_poly(rng, arity, 3, 3) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        engine = {frozenset(g.terms.items()) for g in Ideal(arity, gens).groebner_basis()}
        assert engine == _sympy_reduced_basis(sympy, gens, arity, "grevlex"), gens


def test_block1_bases_and_normal_forms_match_sympy():
    """Intersections and colons, the ``block(1)`` module runs, against SymPy's
    elimination of t from t*I + (1-t)*J, on homogeneous and non-homogeneous
    ideals: I ∩ J is the t-free part of that basis, and M : g the ideal of
    that part for (M, (g)), divided by g.  Then the normal forms of rational
    polynomials modulo the cached basis of the intersection, which are
    unique modulo a Groebner basis."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5089)
    for case in range(24):
        arity = rng.randint(2, 3)
        if case % 2:
            draw = lambda: random_homogeneous_poly(rng, arity, rng.randint(1, 2), 3)
        else:
            draw = lambda: random_poly(rng, arity, 2, 3)
        I = Ideal(arity, [draw() for _ in range(rng.randint(1, 2))])
        J = Ideal(arity, [draw() for _ in range(rng.randint(1, 2))])
        if I.is_zero or J.is_zero:
            continue
        cap = ideal_intersection(I, J)
        assert _basis_terms(cap) == _monic_terms(sympy, _sympy_eliminated(sympy, I, J)), (I, J)

        # M : g contains I, and most often strictly contains M
        g, rest = J.generators[0], J.generators[1:]
        M = Ideal(arity, [f * g for f in I.generators] + list(rest))
        xs = sympy.symbols(f"x0:{arity}")
        G = _sympy_polys(sympy, [g], xs)[0]
        quotients = [p.exquo(G) for p in _sympy_eliminated(sympy, M, Ideal(arity, [g]))]
        expected = sympy.groebner(quotients, *xs, order="grevlex", domain="QQ").polys
        assert _basis_terms(ideal_quotient(M, g)) == _monic_terms(sympy, expected), (M, g)

        basis = _sympy_polys(sympy, cap.groebner_basis(), xs)
        for _ in range(2):
            p = random_poly(rng, arity, 4, 5) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            p = p + Poly.const(arity, Fraction(1, rng.randint(2, 7)))
            _, expected = sympy.reduced(_sympy_polys(sympy, [p], xs)[0], basis,
                                        *xs, order="grevlex", domain="QQ")
            nf = normal_form(p, cap)
            assert frozenset(nf.terms.items()) == _sympy_terms(expected), p


def test_module_runs_reduce_and_pair_only_at_one_position():
    """A module run returns the e0 part of its reduced basis alone.  x0*e0
    divides the x-part of the leading term x0*e1 of x0*e1 + x1*e0, but
    neither a reduction nor an S-pair may join them: either would bring in
    x1*e0, so the e0 part stays (x0).  At e1, x1*(x0 + x1)*e1 reduces by
    x1^2*e1 + e0 to x0*x1*e1 - e0, and the S-pair of the two gives
    (x0 + x1)*e0, the one element at e0."""
    layout = _layout(ELIMINATION, 3, 7)  # (position, x0, x1)
    m = lambda *exps: layout.pack(exps)
    _, basis = groebner.groebner_terms([{m(0, 1, 0): 1}, {m(1, 1, 0): 1, m(0, 0, 1): 1}],
                                       layout)
    assert basis == [({m(0, 1, 0): 1}, 1)]
    seeds = [{m(1, 1, 1): 1, m(1, 0, 2): 1}, {m(1, 0, 2): 1, m(0, 0, 0): 1}]
    _, basis = groebner.groebner_terms(seeds, layout)
    assert basis == [({m(0, 1, 0): 1, m(0, 0, 1): 1}, 1)]


def test_intersection_and_colon_cache_their_bases(monkeypatch):
    """The module run's e0 part is the result's reduced basis: asking for
    it runs the engine no further.  The first run also computes I's basis,
    one grevlex run, to seed it as known entries."""
    runs = _recorded_runs(monkeypatch)
    I = Ideal(3, [P("x0^2 - x1*x2", 3), P("x1*x2^2", 3)])
    J = Ideal(3, [P("x0 + x2", 3)])
    for compute in (lambda: ideal_intersection(I, J), lambda: ideal_quotient(I, P("x2", 3))):
        result = compute()
        assert [run.name for _, run in runs].count(ELIMINATION) == 1
        count = len(runs)
        assert result.groebner_basis() is result.groebner_basis()
        assert len(runs) == count
        fresh = Ideal(3, result.generators).groebner_basis()
        assert result.groebner_basis() == fresh
        runs.clear()


def test_non_homogeneous_intersection_matches_sympy():
    """Two small non-homogeneous ideals whose intersection, as an
    elimination of t from t*I + (1-t)*J, ran for more than 100 s; the
    expected basis is SymPy's (t-free part of the product-order basis)."""
    I = Ideal(3, [P("2*x1^2*x2 + 3*x1*x2^2 + 3*x0*x1", 3), P("x1^2*x2 + 3*x0*x2 - 2", 3),
                  P("-2*x0*x1^2 - 3*x0*x2^2 + x0*x2", 3)])
    J = Ideal(3, [P("x0*x1*x2 + 3*x0*x2^2 + 2*x1*x2^2", 3), P("3*x0^2", 3), P("2*x0*x2^2", 3)])
    assert gens_of(ideal_intersection(I, J)) == sorted([
        "x1*x2^5 - 1/2*x0^2*x2^2 - 101/9*x0*x2^3 + 3/2*x0^3 + 38/9*x0^2*x1 - 19/3*x0^2*x2"
        " - 4/9*x0*x1*x2 + 20/27*x0*x2^2 - 8/9*x1*x2^2 - 2/3*x0^2",
        "x0^2*x2^3 - 17/175*x0^2*x2^2 - 368/1575*x0*x2^3 - 6/175*x0^3 + 152/1575*x0^2*x1"
        " - 76/525*x0^2*x2 - 1648/4725*x0*x2^2 + 4/35*x0^2",
        "x1^2*x2^3 + 3/2*x1*x2^4 + 3/2*x0*x2^3 - 3/2*x0^2*x1 - 1/2*x0*x2^2",
        "x0*x2^4 + 6/5*x0^2*x2^2 - 97/15*x0*x2^3 + 3/5*x0^3 + 38/15*x0^2*x1 - 19/5*x0^2*x2"
        " + 38/45*x0*x2^2",
        "x0^4 - 839/55125*x0^2*x2^2 - 3319202/165375*x0*x2^3 + 22/6125*x0^3"
        " + 1394828/165375*x0^2*x1 - 640714/55125*x0^2*x2 + 1347428/496125*x0*x2^2"
        " + 988/11025*x0^2",
        "x0^3*x1 + 281/1050*x0^2*x2^2 + 6679/1575*x0*x2^3 - 39/350*x0^3 - 2656/1575*x0^2*x1"
        " + 1328/525*x0^2*x2 - 8506/4725*x0*x2^2 - 22/35*x0^2",
        "x0^2*x1^2 + 3/2*x0^2*x2^2 - 1/2*x0^2*x2",
        "x0^3*x2 + 62/525*x0^2*x2^2 - 184/1575*x0*x2^3 - 3/175*x0^3 + 76/1575*x0^2*x1"
        " - 38/525*x0^2*x2 - 824/4725*x0*x2^2 - 64/105*x0^2",
        "x0^2*x1*x2 + 3/2*x0^2*x2^2 - 15*x0*x2^3 + 3/2*x0^3 + 6*x0^2*x1 - 9*x0^2*x2"
        " + 2*x0*x2^2",
        "x0*x1^2*x2 + 2*x1^2*x2^2 + 24*x0*x2^3 + 3*x1*x2^3 - 9*x0^2*x1 + 27/2*x0^2*x2"
        " - 8*x0*x2^2 - 9/2*x0^2",
        "x0*x1*x2^2 - x0*x2^3 + x0^2*x1 + 1/3*x0*x2^2",
    ])


def test_radical_membership_matches_sympy():
    """f is in the radical of I exactly when SymPy's reduced basis of
    I + (1 - t*f), under the elimination order of t, is {1} (Rabinowitsch).
    Plain membership fails in every case, so each one reaches the
    saturation I : f^infinity."""
    sympy = pytest.importorskip("sympy")
    order = _sympy_block1(sympy)
    rng = random.Random(8209)
    # deg f = 131 is past the narrowest width
    cases = [(Ideal(3, [P("x0^2", 3)]), P("x0*x1^130", 3))]
    while len(cases) < 17:
        arity = rng.randint(2, 3)
        homogeneous = len(cases) % 2
        if homogeneous:
            a, b, c = (random_homogeneous_poly(rng, arity, d, 3) for d in (2, 1, 1))
        else:
            a, b, c = (random_poly(rng, arity, 2, 3) for _ in range(3))
        # a + c*b lies in the radical of (a^2, b); a form of degree 2 need not
        f = a + c * b if len(cases) % 4 < 2 else random_homogeneous_poly(rng, arity, 2, 3)
        I = Ideal(arity, [a * a, b])
        if not f.is_zero and not I.is_zero and not I.contains(f):
            cases.append((I, f))
    answers = []
    for I, f in cases:
        answers.append(radical_membership(f, I))
        arity = I.arity + 1
        gens = [_with_t(g) for g in I.generators]
        gens.append(1 - Poly.variable(arity, 0) * _with_t(f))
        expected = _sympy_reduced_basis(sympy, gens, arity, order)
        assert answers[-1] == (expected == {frozenset({((0,) * arity, 1)})}), (I, f)
    assert answers[0] and True in answers[1:] and False in answers[1:]


def test_exponents_beyond_a_fixed_field_width_match_sympy(monkeypatch):
    """Exponents above 4096 in the input, a normal form wider than the
    entries its ideal has packed so far, and a module run whose lcm degrees
    outgrow the width chosen from the input degrees."""
    sympy = pytest.importorskip("sympy")
    # x -> x^2500 maps a grevlex Groebner basis to one, with every step alike
    small = ["x0^2 + x1*x2 - 3", "x0*x1 - x2^2 + x0", "x1^3 - x2^3 + 2"]
    gens = [Poly(3, {tuple(2500 * e for e in m): c for m, c in P(s, 3).terms.items()})
            for s in small]
    assert max(g.total_degree() for g in gens) == 7500
    G = Ideal(3, gens)
    engine = {frozenset(g.terms.items()) for g in G.groebner_basis()}
    assert engine == _sympy_reduced_basis(sympy, gens, 3, "grevlex")
    xs = sympy.symbols("x0:3")

    def sympy_normal_form(p, ideal):
        _, expected = sympy.reduced(_sympy_polys(sympy, [p], xs)[0],
                                    _sympy_polys(sympy, ideal.groebner_basis(), xs), *xs,
                                    order="grevlex", domain="QQ")
        return _sympy_terms(expected)

    p = P("x0^9000*x1^5000 + 1/3*x1^12000 - x2^7600", 3)
    assert frozenset(normal_form(p, G).terms.items()) == sympy_normal_form(p, G)

    # a degree-2 basis packed at 7 bits, then a degree-200 polynomial (14
    # bits): the entries are widened, and a later narrower one reuses them
    Q = Ideal(3, [P("x0^2 + 2*x1*x2 - x2^2", 3), P("x1^2 - 3*x0*x2", 3)])
    assert [g.total_degree() for g in Q.groebner_basis()] == [2, 2]
    narrow = P("x0^3*x1 + x1^3 - 1/2*x2", 3)
    assert frozenset(normal_form(narrow, Q).terms.items()) == sympy_normal_form(narrow, Q)
    assert Q._packed[0].bits == 7
    p = P("x0^120*x1^80 - 5*x1^150*x2^50 + 2/3*x0*x2^199 + x1^3", 3)
    assert p.layout.bits == 14
    assert frozenset(normal_form(p, Q).terms.items()) == sympy_normal_form(p, Q)
    packed = Q._packed
    assert packed[0].bits == 14
    assert frozenset(normal_form(narrow, Q).terms.items()) == sympy_normal_form(narrow, Q)
    assert Q._packed is packed

    # the lcm x0^50*x1^100 of the leading terms at e1 has degree 150: the run
    # starts again wider than the input's width
    runs = _recorded_runs(monkeypatch)
    I, J = Ideal(3, [P("x0 - x1^100", 3)]), Ideal(3, [P("x0^50 - 2*x2", 3)])
    cap = ideal_intersection(I, J)
    (layout, run), = [(layout, run) for layout, run in runs if run.name == ELIMINATION]
    assert run.bits > layout.bits
    assert _basis_terms(cap) == _monic_terms(sympy, _sympy_eliminated(sympy, I, J))
    assert max(g.total_degree() for g in cap.groebner_basis()) == 150
