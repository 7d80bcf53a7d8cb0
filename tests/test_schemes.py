import os
import random
import sys
import time
from fractions import Fraction
from functools import reduce

import pytest

from logfol.foliation import FoliationSpec, SpecValidationError, build_form, validate_spec
from logfol.forms import PForm, exterior_derivative
from logfol import cli, groebner, schemes
from logfol import poly as poly_module
from logfol.groebner import (
    Ideal,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    ideal_sum,
    krull_dimension,
    normal_form,
    projective_dimension,
    radical_membership,
)
from logfol.poly import ELIMINATION, Poly
from logfol.sampling import random_validated_spec
from logfol.schemes import (
    SchemeIdeals,
    kupka_ideal,
    persistent_cap,
    persistent_sum,
    residual_ideal,
    run_checks,
    singular_ideal,
)

from conftest import P, permuted_poly, variables

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def coordinate_vs(n, q, s, matrix, level="full-snc"):
    spec = FoliationSpec(n, q, [Poly.variable(n + 1, i) for i in range(s)],
                         residue_matrix=matrix)
    return validate_spec(spec, level)


def gens_of(ideal):
    return sorted(str(g) for g in ideal.groebner_basis())


def decomposition(vs, waive=False):
    """The decomposition sub-checks of one instance, by name."""
    return {c["name"]: c for c in run_checks(SchemeIdeals(vs), ("decomposition",), waive)}


VS_P2 = coordinate_vs(2, 1, 3, [[1, 2, -3]])
OMEGA_P2 = build_form(VS_P2)

# residue minors of this shape necessarily repeat, so only basic validates
VS_P3_Q2 = coordinate_vs(3, 2, 3, [[1, 1, -2], [1, -1, 0]], level="basic")
OMEGA_P3_Q2 = build_form(VS_P3_Q2)


# -- the three ideals ------------------------------------------------------------

def test_singular_ideal_worked_instance():
    J = singular_ideal(OMEGA_P2)
    assert gens_of(J) == ["x0*x1", "x0*x2", "x1*x2"]


def test_singular_ideal_constant_form_is_unit():
    form = PForm(3, 2, {(0, 1): Poly.one(3)})
    assert singular_ideal(form).is_unit


def test_singular_ideal_codim_two_instance():
    J = singular_ideal(OMEGA_P3_Q2)
    assert gens_of(J) == ["x0", "x1", "x2"]
    assert projective_dimension(J) == 0  # a single point of P^3


def test_singular_ideal_of_zero_form_raises():
    with pytest.raises(ValueError):
        singular_ideal(PForm(3, 1))


def test_kupka_equals_singular_on_worked_instance():
    J = singular_ideal(OMEGA_P2)
    K = kupka_ideal(OMEGA_P2, J)
    assert ideal_equal(K, J)


def test_kupka_of_closed_form_is_unit():
    # d(x0*x1) has zero differential, so the class annihilator is everything
    x = variables(3)
    closed = PForm(3, 1, {(0,): x[1], (1,): x[0]})
    assert exterior_derivative(closed).is_zero
    J = singular_ideal(closed)
    assert not J.is_unit
    assert kupka_ideal(closed, J).is_unit


def test_kupka_codim_two_instance():
    d_omega = exterior_derivative(OMEGA_P3_Q2)
    assert d_omega == PForm(4, 3, {(0, 1, 2): Poly.const(4, -6)})
    K = kupka_ideal(OMEGA_P3_Q2, singular_ideal(OMEGA_P3_Q2))
    assert gens_of(K) == ["x0", "x1", "x2"]


# a verify-p4 benchmark instance: five hyperplanes of P^4, q = 2
P4_Q2 = FoliationSpec(4, 2, [P(f, 5) for f in ("x0 + x1 + 3*x2 - 3*x3 - 3*x4", "x2",
                                               "-x0 + 3*x1 - 3*x2 + 3*x3 - 3*x4", "x4", "x3")],
                      residue_matrix=[[8, -6, -7, -4, 9], [3, -5, 1, 2, -1]])


def test_kupka_ideal_run_counts(monkeypatch):
    """Counted work, no wall clock: with the singular basis cached, the Kupka
    ideal of a P^4 instance built in the spec's coordinates takes one colon
    per nonzero component of d(form) until the intersection so far is J, all
    module runs and no grevlex run, and keeps its basis, so asking for it
    runs nothing.  It is J + ann, and
    ann is the intersection of every colon.  ``verify`` builds this instance
    in adapted coordinates instead, where its ideals are monomial and make
    no engine run at all (``test_monomial_instances_make_no_engine_run``)."""
    form = build_form(validate_spec(P4_Q2, "full-snc"))
    J = singular_ideal(form)
    J.groebner_basis()
    colons, runs = [], []
    quotient, terms = groebner.ideal_quotient, groebner.groebner_terms
    monkeypatch.setattr(groebner, "ideal_quotient",
                        lambda I, g: colons.append(g) or quotient(I, g))
    monkeypatch.setattr(groebner, "groebner_terms",
                        lambda gens, layout, known=(): runs.append(layout.name)
                        or terms(gens, layout, known))
    K = kupka_ideal(form, J)
    K.groebner_basis()
    components = list(exterior_derivative(form).coeffs.values())
    nonzero = sorted((b for b in components if not b.is_zero),
                     key=lambda b: len(b.num), reverse=True)
    # a colon per component, densest first, until the intersection is J
    assert colons == nonzero[:len(colons)]
    assert len(colons) == len(nonzero) or ideal_equal(K, J)
    # a run per colon, and at most one per intersection of two
    assert runs == [ELIMINATION] * len(runs) and len(runs) <= 2 * len(colons) - 1
    monkeypatch.setattr(groebner, "ideal_quotient", quotient)
    monkeypatch.setattr(groebner, "groebner_terms", terms)
    every = reduce(ideal_intersection, [ideal_quotient(J, b) for b in components])
    assert ideal_equal(K, every) and ideal_equal(K, ideal_sum(J, K))


def test_residual_ideal_repeats_no_engine_input(monkeypatch):
    """Two ``batch-p2p3`` pool instances that adapted coordinates leave
    non-monomial: building the singular, Kupka and residual ideals gives no
    ``groebner_terms`` run the input of an earlier one.  In the saturation
    J : K^inf most colons J : k are one ideal; a colon whose basis is the
    intersection's so far is not intersected with it again, and after it a
    k whose product with that intersection lies in J takes no colon (12
    and 19 runs when every k took one)."""
    sys.path.insert(0, BENCH)
    import run
    pool = run.batch_pool()
    terms, inputs = groebner.groebner_terms, []

    def recording_terms(gens, layout, known=()):
        inputs.append((layout.name, layout.bits, repr(sorted(sorted(g.items()) for g in gens)),
                       repr(sorted(sorted(g.items()) for g in known))))
        return terms(gens, layout, known)

    monkeypatch.setattr(groebner, "groebner_terms", recording_terms)
    for label, count in (("p2-q1-s5-00", 9), ("p3-q2-s5-00", 11)):
        doc = cli.parse_spec_document(pool[label], label)
        ids = SchemeIdeals(validate_spec(doc.spec, doc.level))
        inputs.clear()
        for ideal in (ids.singular, ids.kupka, ids.residual):
            ideal.groebner_basis()
        assert ids.matrix is not None and len(inputs) == len(set(inputs)) == count, label


def test_monomial_instances_make_no_engine_run(monkeypatch):
    """With s <= n+1 hyperplanes every ideal is monomial in adapted
    coordinates: the Kupka ideal, the cap, the residual ideal and the
    singular ideal's dimension make no engine run, grevlex or module, and
    the first three make no polynomial (no ``_make`` call, d(form) given)
    until their bases are read.  Four lines of P^2 (s = n+2) are not
    monomial there; they still take the engine, module runs included, and
    give the bases of the spec's coordinates."""
    runs = []
    terms = groebner.groebner_terms
    monkeypatch.setattr(groebner, "groebner_terms",
                        lambda gens, layout, known=(): runs.append(layout.name)
                        or terms(gens, layout, known))
    ids = SchemeIdeals(validate_spec(P4_Q2, "full-snc"))
    assert ids.matrix is not None and ids.singular
    d_omega, made = exterior_derivative(ids.form), []
    with monkeypatch.context() as patch:
        patch.setattr(schemes, "exterior_derivative", lambda form: d_omega)
        for module in (groebner, poly_module):  # groebner imports _make by name
            patch.setattr(module, "_make", lambda *args, make=module._make:
                          made.append(args) or make(*args))
        for attr in ("kupka", "persistent_cap", "residual"):
            getattr(ids, attr)
        assert made == []
        for ideal in (ids.kupka, ids.persistent_cap, ids.residual):
            assert ideal.groebner_basis()
        assert made
    assert projective_dimension(ids.singular) == 1 and ids.residual.is_unit
    assert runs == []

    lines = FoliationSpec(2, 1, [P(f, 3) for f in ("x0", "x1", "x0 + x1 + x2", "x0 - 2*x1 + 3*x2")],
                          residue_matrix=[[1, 2, 3, -6]])
    vs = validate_spec(lines, "full-snc")
    ids, plain = SchemeIdeals(vs), SchemeIdeals(vs, adapt=False)
    assert ids.matrix is not None
    for attr in ("singular", "kupka", "persistent_sum", "persistent_cap", "residual"):
        runs.clear()
        ideal = getattr(ids, attr)
        assert ids.spec_basis(ideal) == getattr(plain, attr).groebner_basis(), attr
        if attr in ("kupka", "persistent_cap"):
            assert ELIMINATION in runs, attr


def test_singular_consistency_with_no_residual_makes_no_module_run(monkeypatch):
    """An empty residual is the unit ideal, and its intersection with the
    Kupka ideal is the Kupka ideal itself: the check runs no engine."""
    ids = SchemeIdeals(validate_spec(P4_Q2, "full-snc"))
    assert ids.residual.is_unit and ids.kupka.groebner_basis()
    runs = []
    terms = groebner.groebner_terms
    monkeypatch.setattr(groebner, "groebner_terms",
                        lambda gens, layout, known=(): runs.append(layout.name)
                        or terms(gens, layout, known))
    assert schemes._singular_consistency(ids) == (True, {"radical_equal": True})
    assert runs == []


def test_persistent_sum_examples():
    assert gens_of(persistent_sum(VS_P2)) == ["x0*x1", "x0*x2", "x1*x2"]
    assert gens_of(persistent_sum(VS_P3_Q2)) == ["x0", "x1", "x2"]
    vs4 = coordinate_vs(3, 1, 4, [[1, 2, 3, -6]])
    assert gens_of(persistent_sum(vs4)) == [
        "x0*x1*x2", "x0*x1*x3", "x0*x2*x3", "x1*x2*x3"]


def test_persistent_cap_examples():
    assert gens_of(persistent_cap(VS_P2)) == ["x0*x1", "x0*x2", "x1*x2"]
    # q+1 = 3 = s: a single intersectand
    assert gens_of(persistent_cap(VS_P3_Q2)) == ["x0", "x1", "x2"]
    vs4 = coordinate_vs(3, 1, 4, [[1, 2, 3, -6]])
    cap = persistent_cap(vs4)
    assert gens_of(cap) == ["x0*x1*x2", "x0*x1*x3", "x0*x2*x3", "x1*x2*x3"]
    assert ideal_equal(cap, persistent_sum(vs4))


def test_residual_ideal_examples():
    J = singular_ideal(OMEGA_P2)
    K = kupka_ideal(OMEGA_P2, J)
    assert residual_ideal(J, K).is_unit
    x = variables(3)
    assert gens_of(residual_ideal(Ideal(3, [x[0] * x[1]]), Ideal(3, [x[0]]))) == ["x1"]


def test_scheme_ideals_bundle():
    ids = SchemeIdeals(VS_P2)
    assert isinstance(ids, SchemeIdeals)
    assert ideal_equal(ids.singular, ids.kupka)
    assert ids.residual.is_unit
    assert ideal_equal(ids.persistent_sum, ids.persistent_cap)


# -- arrangement identity check ------------------------------------------------------

def descent_rows(q, s):
    """A q x s residue matrix with every row summing to zero."""
    rows = []
    for k in range(q):
        row = [0] * s
        row[k] = 1
        row[-1] = -1
        rows.append(row)
    return rows


def test_lemma_passes_on_coordinate_instances():
    for (n, q, s) in [(2, 1, 3), (3, 1, 4), (3, 2, 3), (4, 3, 4)]:
        vs = coordinate_vs(n, q, s, descent_rows(q, s), level="basic")
        result = run_checks(SchemeIdeals(vs), ("lemma",))[0]
        assert result["status"] == "pass", (n, q, s, result["details"])
        assert result["details"]["precondition_ok"]


def test_lemma_trivial_single_intersectand():
    result = run_checks(SchemeIdeals(VS_P3_Q2), ("lemma",))[0]
    assert result["status"] == "pass"
    assert result["details"]["ideals_equal"]


def test_lemma_precondition_violated_is_not_a_counterexample():
    x = variables(3)
    spec = FoliationSpec(2, 1, [x[0], x[1], x[0] + x[1]], residue_matrix=[[1, 2, -3]])
    vs = validate_spec(spec, "generic")
    ids = SchemeIdeals(vs)
    skipped = run_checks(ids, ("lemma",))[0]
    assert skipped["status"] == "skipped"
    assert not skipped["details"]["precondition_ok"]
    assert skipped["details"]["violations"] == ["{1,2,3}"]
    assert "precondition violated: snc at {1,2,3}" == skipped["details"]["message"]
    forced = run_checks(ids, ("lemma",), waive=True)[0]
    assert forced["status"] == "fail"
    assert forced["details"]["ideals_equal"] is False
    assert not forced["details"]["precondition_ok"]


# -- decomposition report ----------------------------------------------------------

def test_decomposition_worked_instance_p2():
    report = decomposition(VS_P2)
    assert all(c["status"] != "fail" for c in report.values())
    names = list(report)
    assert names == ["kupka-codimension", "residual-dimension", "kupka-formula",
                     "disjointness", "singular-consistency"]
    codim = report["kupka-codimension"]
    assert codim["details"]["projective_dimension"] == 0  # codim 2 in P^2
    assert report["residual-dimension"]["details"]["empty"]
    assert report["kupka-formula"]["details"]["radical_equal"]


def test_decomposition_codim_two_instance_p3():
    report = decomposition(VS_P3_Q2)
    assert all(c["status"] != "fail" for c in report.values())
    assert report["kupka-codimension"]["details"]["projective_dimension"] == 0  # codim 3


def test_decomposition_four_hyperplanes_p3():
    vs = coordinate_vs(3, 1, 4, [[1, 2, 3, -6]])
    report = decomposition(vs)
    assert all(c["status"] != "fail" for c in report.values())
    # six coordinate lines in P^3: dimension 1 = n - (q+1)
    assert report["kupka-codimension"]["details"]["projective_dimension"] == 1


def test_decomposition_three_conics_p2():
    """Degree-2 divisors leave genuine isolated residual singularities."""
    spec = FoliationSpec(2, 1, [P("x0^2 + x1^2 + x2^2", 3),
                                P("x0^2 + 2*x1^2 + 3*x2^2", 3),
                                P("x0^2 - x1^2 + 2*x2^2", 3)],
                         residue_matrix=[[1, 2, -3]])
    vs = validate_spec(spec, "full-snc")
    ids = SchemeIdeals(vs)
    report = {c["name"]: c for c in run_checks(ids, ("decomposition",))}
    assert all(c["status"] != "fail" for c in report.values())
    assert not ids.residual.is_unit  # nonempty residual part
    assert report["residual-dimension"]["details"]["projective_dimension"] == 0


def test_decomposition_on_a_cone_is_a_failed_precondition():
    """Five hyperplanes of P^4 that all miss x0 meet at [1:0:0:0:0], so SNC
    fails at depth 5 only; the isolated singular point of the cone becomes a
    residual line that meets the Kupka locus."""
    divisors = [P(text, 5) for text in
                ("x3", "x1", "x2", "x4", "-2*x1 + 3*x2 - 3*x3 - x4")]
    spec = FoliationSpec(4, 1, divisors, residue_matrix=[[-3, 1, -2, -1, 5]])
    with pytest.raises(SpecValidationError) as err:
        validate_spec(spec, "full-snc")
    assert [(f.check, f.subject) for f in err.value.failures] == [
        ("transversality", "subset {1,2,3,4,5}")]

    vs = validate_spec(spec, "generic")
    report = decomposition(vs)
    assert [c["status"] for c in report.values()] == ["skipped"] * 5
    for check in report.values():
        assert not check["details"]["precondition_ok"]
        assert check["details"]["violations"] == ["{1,2,3,4,5}"]
        assert check["details"]["degenerate_strata"] == []

    waived = decomposition(vs, waive=True)
    residual = waived["residual-dimension"]
    assert residual["status"] == "fail"
    assert residual["details"]["generators"] == ["x1 + 1/2*x4", "x2 + 2/3*x4", "x3 - x4"]
    assert waived["disjointness"]["status"] == "fail"
    assert all(c["details"]["violations"] == ["{1,2,3,4,5}"] for c in waived.values())


def test_decomposition_skips_degenerate_residues():
    # residues 1 and 1 collide, so the stratum {1,2} degenerates
    vs = coordinate_vs(2, 1, 3, [[1, 1, -2]], level="basic")
    report = decomposition(vs)
    assert [c["status"] for c in report.values()] == ["skipped"] * 5
    details = report["kupka-formula"]["details"]
    assert details["violations"] == [] and details["degenerate_strata"] == ["{1,2}"]
    assert details["message"] == "precondition violated: degenerate residues at {1,2}"


def test_identities_check():
    result = run_checks(SchemeIdeals(VS_P2), ("identities",))[0]
    assert result["status"] == "pass"
    assert result["details"]["radial_contraction_zero"]
    assert result["details"]["integrable"]
    assert result["details"]["decomposable"]
    assert result["details"]["coefficient_ideal_projective_codim"] == 2


def test_identities_check_decomposability_of_a_raw_lambda_table():
    """A raw lambda table builds a 2-form whether or not it is decomposable,
    so the identities check tests decomposability in both residue modes.
    This table on six transversal hyperplanes of P^4 passes full-snc and is
    not decomposable."""
    values = {"1,2": 7, "1,3": 9, "1,4": 2, "1,5": 3, "1,6": -21, "2,3": 4, "2,4": -8,
              "2,5": -1, "2,6": 12, "3,4": -6, "3,5": -4, "3,6": 23, "4,5": -3, "4,6": -9,
              "5,6": -5}
    lambdas = {tuple(int(i) - 1 for i in key.split(",")): v for key, v in values.items()}
    divisors = variables(5) + [P("x0 + 2*x1 + 3*x2 + 5*x3 + 7*x4", 5)]
    vs = validate_spec(FoliationSpec(4, 2, divisors, lambdas=lambdas), "full-snc")
    result = run_checks(SchemeIdeals(vs), ("identities",))[0]
    assert result["details"]["decomposable"] is False
    assert result["details"]["integrable"] is False
    assert result["status"] == "fail"


# -- printed generators ---------------------------------------------------------------------

# five hyperplanes of P^4 with q = 2: the persistent generators are listed by
# ``persistent`` (sum and cap), ``lemma`` and ``kupka-formula``
P4_SPEC = {"n": 4, "q": 2,
           "divisors": ["x0 + x1 + 3*x2 - 3*x3 - 3*x4", "x2", "-x0 + 3*x1 - 3*x2 + 3*x3 - 3*x4",
                        "x4", "x3"],
           "residue_matrix": [[8, -6, -7, -4, 9], [3, -5, 1, 2, -1]],
           "validation_level": "full-snc"}


def _printed_polys(monkeypatch) -> list:
    """Every polynomial printed through ``Poly.__str__`` from now on."""
    printed = []
    original = poly_module.poly_to_str

    def spy(p, names=None):
        printed.append(p)
        return original(p, names)

    monkeypatch.setattr(poly_module, "poly_to_str", spy)
    return printed


def _listed_generators(report) -> list:
    """Every generator string the checks of a verify report list."""
    listed = []
    for check in report["checks"]:
        details = check["details"]
        blocks = [details, details.get("sum", {}), details.get("cap", {})]
        for block in blocks:
            for key in ("generators", "sum_generators", "cap_generators",
                        "persistent_generators"):
                listed += block.get(key, [])
    return listed


def test_verify_prints_each_reduced_generator_once(monkeypatch):
    """One ``verify`` lists generators many times over, and prints each
    distinct reduced generator once."""
    printed = _printed_polys(monkeypatch)
    report, code = cli.run_verify(cli.parse_spec_document(P4_SPEC, "p4"))
    assert code == 0
    listed = _listed_generators(report)
    assert len(listed) > 2 * len(set(listed))
    assert len(printed) == len(set(printed)) == len(set(listed))


def test_verify_calls_share_no_printed_strings(monkeypatch):
    """The printed generators are kept by the instance, one entry per
    distinct reduced basis: a second ``verify`` of the same spec in the same
    process prints every one of them again, and a second report from the
    same instance prints none."""
    instances = []

    class Recording(SchemeIdeals):
        def __init__(self, vs):
            super().__init__(vs)
            instances.append(self)

    monkeypatch.setattr(cli, "SchemeIdeals", Recording)
    printed = _printed_polys(monkeypatch)
    doc = cli.parse_spec_document(P4_SPEC, "p4")
    first, _ = cli.run_verify(doc)
    count = len(printed)
    second, _ = cli.run_verify(doc)
    assert count and len(printed) == 2 * count
    assert _listed_generators(first) == _listed_generators(second)
    one, two = instances
    assert one.printed is not two.printed and one.printed == two.printed
    bases = {getattr(one, attr).groebner_basis()
             for attr in ("singular", "kupka", "persistent_sum", "persistent_cap", "residual")}
    assert set(one.printed) == bases
    assert sum(len(texts) for texts in one.printed.values()) == count
    monkeypatch.setattr(cli, "SchemeIdeals", lambda vs: one)
    third, _ = cli.run_verify(doc)
    assert len(printed) == 2 * count
    assert _listed_generators(third) == _listed_generators(first)


# -- structural invariants --------------------------------------------------------------

def test_singular_inside_kupka():
    rng = random.Random(83)
    for _ in range(5):
        vs = random_validated_spec(rng, 3, 1, 4, level="generic")
        form = build_form(vs)
        J = singular_ideal(form)
        K = kupka_ideal(form, J)
        assert all(normal_form(g, K).is_zero for g in J.generators)


def test_scaling_leaves_ideals_fixed():
    for c in (Fraction(2), Fraction(-1), Fraction(7, 3)):
        scaled = OMEGA_P2 * c
        J = singular_ideal(OMEGA_P2)
        J_c = singular_ideal(scaled)
        assert J.groebner_basis() == J_c.groebner_basis()
        K = kupka_ideal(OMEGA_P2, J)
        K_c = kupka_ideal(scaled, J_c)
        assert K.groebner_basis() == K_c.groebner_basis()
        H = residual_ideal(J, K)
        H_c = residual_ideal(J_c, K_c)
        assert H.groebner_basis() == H_c.groebner_basis()


def test_permutation_equivariance():
    """Permuting coordinates and divisors transports every computed ideal."""
    perm = (2, 0, 1, 3)
    spec = FoliationSpec(3, 1,
                         [P("x0 + x3", 4), P("x1 - 2*x3", 4), P("x2", 4), P("x0 + x1 + x2", 4)],
                         residue_matrix=[[1, 2, 3, -6]])
    vs = validate_spec(spec, "generic")
    permuted_spec = FoliationSpec(3, 1, [permuted_poly(f, perm) for f in spec.divisors],
                                  residue_matrix=[[1, 2, 3, -6]])
    vs_p = validate_spec(permuted_spec, "generic")
    ids = SchemeIdeals(vs)
    ids_p = SchemeIdeals(vs_p)
    for attr in ("singular", "kupka", "persistent_sum", "persistent_cap", "residual"):
        direct = Ideal(4, ids_p.spec_basis(getattr(ids_p, attr)))
        transported = Ideal(4, [permuted_poly(g, perm)
                                for g in ids.spec_basis(getattr(ids, attr))])
        assert ideal_equal(direct, transported), attr


def test_sum_always_inside_cap():
    rng = random.Random(89)
    for _ in range(5):
        vs = random_validated_spec(rng, rng.choice([2, 3]), 1, rng.randint(3, 4),
                                   level="generic")
        cap = persistent_cap(vs)
        assert all(normal_form(g, cap).is_zero for g in persistent_sum(vs).generators)


def test_cap_locus_is_union_of_deep_intersections():
    """On a transversal instance every persistent generator vanishes on each
    (q+1)-fold intersection."""
    import itertools
    vs = coordinate_vs(3, 1, 4, [[1, 2, 3, -6]])
    cap = persistent_cap(vs)
    for subset in itertools.combinations(range(vs.s), vs.q + 1):
        stratum = Ideal(vs.arity, [vs.divisors[i] for i in subset])
        for g in cap.generators:
            assert radical_membership(g, stratum)


# -- adapted coordinates -----------------------------------------------------------------

# where each report names each of the five ideals: (check or None for
# ``compute``, key path) -> ideal
_PRINTED = {
    (None, ("singular", "generators")): "singular", (None, ("kupka", "generators")): "kupka",
    (None, ("persistent_sum", "generators")): "sum",
    (None, ("persistent_cap", "generators")): "cap",
    ("sing", ("generators",)): "singular", ("kupka", ("generators",)): "kupka",
    ("persistent", ("sum", "generators")): "sum", ("persistent", ("cap", "generators")): "cap",
    ("lemma", ("sum_generators",)): "sum", ("lemma", ("cap_generators",)): "cap",
    ("kupka-codimension", ("generators",)): "kupka",
    ("residual-dimension", ("generators",)): "residual",
    ("kupka-formula", ("persistent_generators",)): "cap",
}


def _printed_bases(report) -> list:
    """(ideal, generator list) for every generator list a report prints."""
    blocks = {None: report.get("ideals", {})}
    blocks.update((c["name"], c["details"]) for c in report.get("checks", []))
    out = []
    for (check, path), ideal in _PRINTED.items():
        value = blocks.get(check, {})
        for key in path:
            value = value.get(key, {})
        if value != {}:
            out.append((ideal, value))
    return out


def _oracle_bases(doc) -> dict:
    """The five reduced bases from the module-level constructors, in the
    spec's coordinates."""
    vs = validate_spec(doc.spec, "basic")
    form = build_form(vs)
    J = singular_ideal(form)
    K = kupka_ideal(form, J)
    ideals = {"singular": J, "kupka": K, "sum": persistent_sum(vs),
              "cap": persistent_cap(vs), "residual": residual_ideal(J, K)}
    return {name: [str(g) for g in ideal.groebner_basis()] for name, ideal in ideals.items()}


def _adapted_oracle_docs() -> dict:
    rng = random.Random(2208)
    docs = {}
    for k in range(8):
        n = rng.choice([2, 3, 4])
        q = rng.randint(1, n - 1)
        s = rng.randint(max(q + 1, n), n + 2)
        rows = [[rng.choice([-2, -1, 0, 1, 3]) if rng.random() < 0.6 else 0
                 for _ in range(n + 1)] for _ in range(s)]
        for row in rows:
            row[rng.randrange(n + 1)] = rng.choice([1, 2, -3])
        matrix = []
        for _ in range(q):
            head = [rng.randint(-5, 5) for _ in range(s - 1)]
            matrix.append(head + [-sum(head)])
        text = [" + ".join(f"{c}*x{j}" for j, c in enumerate(row) if c) for row in rows]
        docs[f"random-{k}"] = {"n": n, "q": q, "divisors": text, "residue_matrix": matrix}
    docs["concurrent-lines"] = {"n": 2, "q": 1, "divisors": ["x0 + x1", "x0 - x1", "x0 + 2*x1"],
                                "residue_matrix": [[1, 2, -3]]}
    docs["concurrent-planes"] = {"n": 3, "q": 1,
                                 "divisors": ["x0 + x1 + x2", "x0 - x2", "x1 + 2*x2", "x3",
                                              "x0 + x1 - x3"],
                                 "residue_matrix": [[1, 2, -3, 4, -4]]}
    docs["cone"] = {"n": 4, "q": 1,
                    "divisors": ["x3", "x1", "x2", "x4", "-2*x1 + 3*x2 - 3*x3 - x4"],
                    "residue_matrix": [[-3, 1, -2, -1, 5]]}
    docs["raw"] = {"n": 3, "q": 2, "divisors": ["x0", "x1 + x2", "x2 - x3", "x0 + x1 + x3"],
                   # half the minors of [[1, 2, -4, 1], [1, -1, 1, -1]]
                   "lambdas": {"1,2": "-3/2", "1,3": "5/2", "1,4": -1, "2,3": -1,
                               "2,4": "-1/2", "3,4": "3/2"}}
    docs["variables"] = {"n": 2, "q": 1, "variables": ["a", "b", "c"],
                         "divisors": ["a + b", "b - 2*c", "a + b + c", "c"],
                         "residue_matrix": [[1, 2, 3, -6]]}
    docs["coordinates"] = {"n": 3, "q": 1, "divisors": ["x2", "x0", "x3", "x1"],
                           "residue_matrix": [[1, 2, 3, -6]]}
    return docs


def _without_seconds(report):
    if isinstance(report, dict):
        return {k: _without_seconds(v) for k, v in report.items() if k != "seconds"}
    if isinstance(report, list):
        return [_without_seconds(v) for v in report]
    return report


def test_adapted_coordinates_print_the_spec_bases(monkeypatch):
    """Every basis that ``verify --waive-preconditions`` and ``compute --which
    all`` print, on seeded hyperplane arrangements, rank-deficient ones, a raw
    table, custom variables and an arrangement of coordinate hyperplanes,
    equals the reduced basis that the module-level constructors give in the
    spec's coordinates; and each report, witnesses included, is the one
    computed in the spec's coordinates throughout."""
    adapted, verdicts = 0, set()
    for label, payload in _adapted_oracle_docs().items():
        payload = dict(payload, validation_level="basic")
        doc = cli.parse_spec_document(payload, label)
        adapted += SchemeIdeals(validate_spec(doc.spec, "basic")).matrix is not None
        oracle = _oracle_bases(doc)
        runs = [lambda: cli.run_verify(doc, waive=True), lambda: cli.run_compute(doc, "all")]
        for run in runs:
            report, code = run()
            verdicts.add(report["verdict"])
            printed = _printed_bases(report)
            assert len(printed) >= 4, label
            for ideal, generators in printed:
                assert generators == oracle[ideal], (label, ideal)
            with monkeypatch.context() as m:
                m.setattr(cli, "SchemeIdeals", lambda vs: SchemeIdeals(vs, adapt=False))
                plain, plain_code = run()
            assert _without_seconds(plain) == _without_seconds(report) and plain_code == code, label
    assert adapted >= 10 and verdicts == {"pass", "fail"}


def test_adapted_coordinates_cost_does_not_grow_with_n():
    """Three lines through no common point of P^1000 verify ``pass`` in 5 s:
    the coordinate change takes its minors on the kept hyperplanes' pivot
    columns, where (n+1) x (n+1) minors took about 40 s."""
    doc = cli.parse_spec_document(
        {"n": 1000, "q": 1, "divisors": ["x0", "x1", "x0 + x1 + x2"],
         "residue_matrix": [[1, 2, -3]]}, "p1000")
    start = time.perf_counter()
    report, code = cli.run_verify(doc)
    assert (report["verdict"], code) == ("pass", cli.EXIT_OK)
    assert time.perf_counter() - start <= 5


def test_adapted_coordinates_of_a_five_hyperplane_arrangement():
    """The five hyperplanes of ``P4_Q2`` become the five coordinates, so the
    adapted singular and Kupka ideals are monomial."""
    ids = SchemeIdeals(validate_spec(P4_Q2, "full-snc"))
    assert sorted(len(f.num) for f in ids.work.divisors) == [1] * 5
    assert sorted(str(f) for f in ids.work.divisors) == [f"x{i}" for i in range(5)]
    for ideal in (ids.singular, ids.kupka):
        assert all(len(g.num) == 1 for g in ideal.groebner_basis())
    assert ids.spec_basis(ids.kupka) == persistent_cap(ids.vs).groebner_basis()


def test_adapted_coordinates_keep_the_spec_witness():
    """A failed locus comparison names the generator the spec's coordinates
    give it."""
    doc = cli.parse_spec_document(
        {"n": 2, "q": 1, "divisors": ["x0", "x1", "x0 + 2*x1 + 3*x2"],
         "residue_matrix": [[1, 1, -2]], "validation_level": "basic"}, "witness")
    assert SchemeIdeals(validate_spec(doc.spec, "basic")).matrix is not None
    report, _ = cli.run_verify(doc, waive=True)
    formula = next(c for c in report["checks"] if c["name"] == "kupka-formula")
    assert formula["details"]["witness"] == \
        "x0 + 2*x1 + 3*x2 not radical-member of the second ideal"


def test_a_quadric_keeps_the_spec_coordinates():
    spec = FoliationSpec(2, 1, [P("x0 + x1", 3), P("x0 - x2", 3), P("x0^2 + x1^2 + x2^2", 3)],
                         residue_matrix=[[1, 3, -2]])
    vs = validate_spec(spec, "generic")
    ids = SchemeIdeals(vs)
    assert ids.matrix is None and ids.work is vs
    assert ids.spec_basis(ids.singular) == ids.singular.groebner_basis()


def _substituted(p: Poly, rows) -> Poly:
    """Oracle for ``linear_substitution``: each term of p with every x_i
    replaced by sum_j rows[i][j] x_j, through ``Poly`` arithmetic."""
    forms = [sum((x * c for x, c in zip(variables(p.arity), row)), Poly(p.arity))
             for row in rows]
    total = Poly(p.arity)
    for mono, coeff in p.terms.items():
        term = Poly.const(p.arity, coeff)
        for form, e in zip(forms, mono):
            term = term * form ** e
        total = total + term
    return total


def test_linear_substitution_matches_term_by_term_substitution():
    """On the seeded arrangements of the adapted-coordinate oracle, every
    reduced basis of the adapted instance and its complementary products,
    of mixed degrees in one call, substitute as term-by-term ``Poly``
    arithmetic does; so does a call that needs a wider field."""
    checked = 0
    for label, payload in _adapted_oracle_docs().items():
        doc = cli.parse_spec_document(payload, label)
        ids = SchemeIdeals(validate_spec(doc.spec, "basic"))
        if ids.matrix is None:
            continue
        polys = [g for attr in ("singular", "kupka", "persistent_cap", "residual")
                 for g in getattr(ids, attr).groebner_basis()]
        polys += list(ids.work.complements.values())
        assert poly_module.linear_substitution(polys, ids.matrix) == \
            [_substituted(p, ids.matrix) for p in polys], label
        checked += 1
    assert checked >= 10
    assert poly_module.linear_substitution([], [[1]]) == []
    rows = [[1, 1, 0], [0, 2, -1], [0, 0, 3]]
    polys = [P("x0^130 - x1*x2", 3), P("x0 + x1", 3), P("1/2*x1^2*x2 - x2^3", 3)]
    assert poly_module.linear_substitution(polys, rows) == [_substituted(p, rows) for p in polys]


def test_complementary_products_are_built_once_per_instance(monkeypatch):
    """The form and the persistent sum share one product per q-subset: the
    generators of ``persistent_sum`` are the very objects of
    ``vs.complements``, and a second ``build_form`` multiplies no divisor."""
    vs = validate_spec(P4_Q2, "full-snc")
    products = []
    multiply = Poly.__mul__

    def spy(a, b):
        if any(b is f for f in vs.divisors):
            products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(Poly, "__mul__", spy)
    form = build_form(vs)
    assert len(products) == 10 * 2  # C(5, 2) products of three divisors each
    products.clear()
    assert build_form(vs) == form and products == []
    generators = persistent_sum(vs).generators
    assert len(generators) == len(vs.complements) == 10
    assert all(g is p for g, p in zip(generators, vs.complements.values()))


def test_preconditions_walk_only_below_full_snc(monkeypatch):
    """An instance validated at ``full-snc`` has passed the transversality
    walk, so its preconditions take none; one validated at ``generic``, or
    waived to ``basic``, takes exactly one."""
    walks = []
    walk = schemes.transversality_violations
    monkeypatch.setattr(schemes, "transversality_violations",
                        lambda *args: walks.append(args) or walk(*args))
    for level, expected in (("full-snc", 0), ("generic", 1)):
        walks.clear()
        assert SchemeIdeals(validate_spec(P4_Q2, level)).preconditions["violations"] == []
        assert len(walks) == expected, level
    walks.clear()
    cone = {"n": 4, "q": 1, "divisors": ["x3", "x1", "x2", "x4", "-2*x1 + 3*x2 - 3*x3 - x4"],
            "residue_matrix": [[-3, 1, -2, -1, 5]], "validation_level": "full-snc",
            "checks": ["lemma"]}
    report, _ = cli.run_verify(cli.parse_spec_document(cone, "cone"), waive=True)
    assert report["validation"]["status"] == "waived" and len(walks) == 1
    assert report["checks"][0]["details"]["violations"] == ["{1,2,3,4,5}"]


def test_a_raw_table_that_is_no_foliation_fails_a_precondition():
    """A raw table whose form is neither integrable nor decomposable: the
    decomposition is skipped as a failed hypothesis, runs with the waiver
    and carries the message, and ``identities`` fails the verdict."""
    values = {"1,2": 7, "1,3": 9, "1,4": 2, "1,5": 3, "1,6": -21, "2,3": 4, "2,4": -8,
              "2,5": -1, "2,6": 12, "3,4": -6, "3,5": -4, "3,6": 23, "4,5": -3, "4,6": -9,
              "5,6": -5}
    doc = cli.parse_spec_document(
        {"n": 4, "q": 2, "divisors": ["x0", "x1", "x2", "x3", "x4",
                                      "x0 + 2*x1 + 3*x2 + 5*x3 + 7*x4"],
         "lambdas": values, "validation_level": "full-snc"}, "raw")
    message = "precondition violated: form not integrable and not decomposable"
    for waive in (False, True):
        report, code = cli.run_verify(doc, waive)
        assert (report["verdict"], code) == ("fail", cli.EXIT_CHECKS)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["identities"]["status"] == "fail"
        assert checks["lemma"]["status"] == "pass"
        for name, _ in schemes.CHECKS["decomposition"][1]:
            details = checks[name]["details"]
            assert details["precondition_ok"] is False and details["message"] == message
            assert (checks[name]["status"] == "skipped") != waive
