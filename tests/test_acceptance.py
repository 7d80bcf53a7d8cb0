"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Everything here is exact; the only tolerances are the
wall-clock budgets of criteria 1 and 3.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce

import pytest

from logfol.cli import (
    EXIT_CHECKS,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_spec_document,
)
from logfol.foliation import FoliationSpec, build_form, validate_spec
from logfol.forms import (
    contract,
    exterior_derivative,
    frobenius_check,
    plucker_check,
    radial_contraction,
    wedge,
)
from logfol.groebner import (
    Ideal,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    ideal_saturation,
    ideal_sum,
    krull_dimension,
    normal_form,
    projective_dimension,
    radical_membership,
)
from logfol.poly import Poly
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

from conftest import (
    P,
    mono_poly,
    monomials_upto,
    oracle_colon,
    oracle_dimension,
    oracle_intersection,
    oracle_saturation,
    permuted_poly,
    random_monomial,
    random_monomial_ideal_gens,
    variables,
)
from test_forms import random_form


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: arrangement identity for every coordinate arrangement, s <= 6
# ---------------------------------------------------------------------------

def test_criterion_1_lemma_identity_suite():
    with criterion(1, "lemma-identity-suite"):
        t0 = time.perf_counter()
        for s in range(2, 7):
            arity = s
            xs = variables(arity)
            for q in range(1, s):
                q_subsets = list(itertools.combinations(range(s), q))
                deep_subsets = list(itertools.combinations(range(s), q + 1))
                sum_gens = []
                for J in q_subsets:
                    p = Poly.one(arity)
                    for i in range(s):
                        if i not in J:
                            p = p * xs[i]
                    sum_gens.append(p)
                sum_ideal = Ideal(arity, sum_gens)
                cap_ideal = reduce(ideal_intersection,
                                   [Ideal(arity, [xs[i] for i in K]) for K in deep_subsets])
                assert sum_ideal.groebner_basis() == cap_ideal.groebner_basis(), (s, q)
                # independent oracle on monomials of degree <= s
                for mono in monomials_upto(arity, s):
                    in_sum = any(all(mono[i] >= 1 for i in range(s) if i not in J)
                                 for J in q_subsets)
                    in_cap = all(any(mono[i] >= 1 for i in K) for K in deep_subsets)
                    assert in_sum == in_cap, (s, q, mono)
                    member = normal_form(mono_poly(arity, mono), sum_ideal).is_zero
                    assert member == in_sum, (s, q, mono)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: the worked instance in P^2
# ---------------------------------------------------------------------------

def test_criterion_2_worked_instance():
    with criterion(2, "worked-instance-p2"):
        x = variables(3)
        spec = FoliationSpec(2, 1, x, residue_matrix=[[1, 2, -3]])
        vs = validate_spec(spec, "full-snc")
        omega = build_form(vs)
        J = singular_ideal(omega)
        assert sorted(str(g) for g in J.groebner_basis()) == [
            "x0*x1", "x0*x2", "x1*x2"]
        d_omega = exterior_derivative(omega)
        assert d_omega.coeffs == {(0, 1): x[2], (0, 2): -4 * x[1], (1, 2): -5 * x[0]}
        K = kupka_ideal(omega, J)
        assert K.groebner_basis() == J.groebner_basis()
        H = residual_ideal(J, K)
        assert H.is_unit


# ---------------------------------------------------------------------------
# criteria 3 and 4 share one instance suite
# ---------------------------------------------------------------------------

def _coordinate_instance(n, q, s, matrix, label):
    spec = FoliationSpec(n, q, [Poly.variable(n + 1, i) for i in range(s)],
                         residue_matrix=matrix)
    return label, validate_spec(spec, "full-snc")


def _conic_instance():
    spec = FoliationSpec(2, 1, [P("x0^2 + x1^2 + x2^2", 3),
                                P("x0^2 + 2*x1^2 + 3*x2^2", 3),
                                P("x0^2 - x1^2 + 2*x2^2", 3)],
                         residue_matrix=[[1, 2, -3]])
    return "conics-p2", validate_spec(spec, "full-snc")


def _mixed_degree_instance():
    spec = FoliationSpec(2, 1, [P("x0", 3), P("x1", 3), P("x0^2 + x1^2 + x2^2", 3)],
                         residue_matrix=[[1, 3, -2]])
    return "line-line-conic-p2", validate_spec(spec, "full-snc")


_SUITE_CACHE = []


def decomposition_suite():
    """At least 20 validated generic instances: coordinate and random linear
    divisors across P^2..P^4, q in {1,2}, degrees 1..2, s <= 5."""
    if _SUITE_CACHE:
        return _SUITE_CACHE
    instances = [
        _coordinate_instance(2, 1, 3, [[1, 2, -3]], "coords-p2-s3"),
        _coordinate_instance(3, 1, 4, [[1, 2, 3, -6]], "coords-p3-s4"),
        _coordinate_instance(4, 1, 5, [[1, 2, 3, 4, -10]], "coords-p4-s5"),
        _coordinate_instance(3, 2, 4, [[4, 1, -2, -3], [1, 3, -2, -2]], "coords-p3-q2-s4"),
        _coordinate_instance(4, 2, 4, [[4, 1, -2, -3], [1, 3, -2, -2]], "coords-p4-q2-s4"),
        _conic_instance(),
        _mixed_degree_instance(),
    ]
    rng = random.Random(20250810)
    shapes = [(2, 1, 3), (2, 1, 4), (3, 1, 3), (3, 1, 4), (3, 1, 5),
              (3, 2, 4), (3, 2, 5), (4, 1, 4), (4, 1, 5), (4, 2, 4),
              (4, 2, 5), (2, 1, 5), (3, 2, 4), (4, 1, 4), (2, 1, 4)]
    for i, (n, q, s) in enumerate(shapes):
        vs = random_validated_spec(rng, n, q, s, level="full-snc")
        instances.append((f"random-{i:02d}-n{n}q{q}s{s}", vs))
    assert len(instances) >= 20
    for label, vs in instances:
        _SUITE_CACHE.append((label, vs, build_form(vs)))
    return _SUITE_CACHE


def test_criterion_3_decomposition_suite():
    with criterion(3, "decomposition-theorem-suite"):
        t0 = time.perf_counter()
        suite = decomposition_suite()
        for label, vs, form in suite:
            ids = SchemeIdeals(vs)
            failed = [c["name"] for c in run_checks(ids, ("decomposition",))
                      if c["status"] == "fail"]
            assert not failed, (label, failed)
            # the four headline assertions, re-stated directly
            assert projective_dimension(ids.kupka) == vs.n - vs.q - 1, label
            assert projective_dimension(ids.residual) <= vs.q - 1, label
            assert projective_dimension(ideal_sum(ids.kupka, ids.residual)) == -1, label
            for g in ids.kupka.generators:
                assert radical_membership(g, ids.persistent_cap), label
            for g in ids.persistent_cap.generators:
                assert radical_membership(g, ids.kupka), label
        elapsed = time.perf_counter() - t0
        print(f"\n  [{len(suite)} instances in {elapsed:.1f}s]", flush=True)
        assert elapsed < 60.0, f"decomposition suite took {elapsed:.1f}s"


def test_criterion_4_identity_suite_on_built_forms():
    with criterion(4, "constructed-form-identities"):
        suite = decomposition_suite()
        for label, vs, form in suite:
            assert radial_contraction(form).is_zero, label
            assert frobenius_check(form), label
            assert vs.spec.mode == "matrix" and plucker_check(form), label


# ---------------------------------------------------------------------------
# criterion 5: exterior algebra property suite
# ---------------------------------------------------------------------------

def test_criterion_5_exterior_algebra_properties():
    with criterion(5, "exterior-algebra-properties"):
        rng = random.Random(5150)
        checked = 0
        while checked < 200:
            arity = rng.randint(2, 4)
            p = rng.randint(0, min(2, arity - 1))
            q = rng.randint(0, min(2, arity - 1))
            a = random_form(rng, arity, p)
            b = random_form(rng, arity, q)
            assert exterior_derivative(exterior_derivative(a)).is_zero
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) + \
                wedge(a, exterior_derivative(b)) * ((-1) ** p)
            assert lhs == rhs
            assert wedge(a, b) == wedge(b, a) * ((-1) ** (p * q))
            if p >= 1 and q >= 1:
                j = (rng.randrange(arity),)
                lhs = contract(wedge(a, b), j)
                rhs = wedge(contract(a, j), b) + wedge(a, contract(b, j)) * ((-1) ** p)
                assert lhs == rhs
            checked += 1


# ---------------------------------------------------------------------------
# criterion 6: Groebner engine against monomial oracles
# ---------------------------------------------------------------------------

def test_criterion_6_groebner_oracle_suite():
    with criterion(6, "groebner-monomial-oracles"):
        rng = random.Random(6280)
        for case in range(100):
            arity = rng.randint(2, 4)
            gens_a = random_monomial_ideal_gens(rng, arity, 4, rng.randint(1, 4))
            gens_b = random_monomial_ideal_gens(rng, arity, 4, rng.randint(1, 3))
            A = Ideal(arity, [mono_poly(arity, m) for m in gens_a])
            B = Ideal(arity, [mono_poly(arity, m) for m in gens_b])
            u = random_monomial(rng, arity, 3)

            assert krull_dimension(A) == oracle_dimension(gens_a, arity)

            inter = ideal_intersection(A, B)
            colon = ideal_quotient(A, mono_poly(arity, u))
            sat = ideal_saturation(A, B)
            bound = max(sum(m) for m in gens_a) + max(sum(m) for m in gens_b)
            for mono in monomials_upto(arity, bound):
                mp = mono_poly(arity, mono)
                assert normal_form(mp, inter).is_zero == \
                    oracle_intersection(mono, [gens_a, gens_b])
                assert normal_form(mp, colon).is_zero == \
                    oracle_colon(mono, gens_a, u)
                assert normal_form(mp, sat).is_zero == \
                    oracle_saturation(mono, gens_a, gens_b)


# ---------------------------------------------------------------------------
# criterion 7: scaling and permutation invariance
# ---------------------------------------------------------------------------

def test_criterion_7_invariance_suite():
    with criterion(7, "scaling-and-permutation-invariance"):
        suite = decomposition_suite()[:4]
        for label, vs, form in suite:
            J = singular_ideal(form)
            K = kupka_ideal(form, J)
            H = residual_ideal(J, K)
            for c in (Fraction(3), Fraction(-1), Fraction(2, 5)):
                scaled = form * c
                J_c = singular_ideal(scaled)
                assert J.groebner_basis() == J_c.groebner_basis()
                K_c = kupka_ideal(scaled, J_c)
                assert K.groebner_basis() == K_c.groebner_basis()
                H_c = residual_ideal(J_c, K_c)
                assert H.groebner_basis() == H_c.groebner_basis()

        # permutation equivariance on a coordinate and a generic instance
        for label, vs, form in (decomposition_suite()[0], decomposition_suite()[3]):
            arity = vs.arity
            perm = tuple(reversed(range(arity)))
            permuted = FoliationSpec(vs.n, vs.q,
                                     [permuted_poly(f, perm) for f in vs.divisors],
                                     residue_matrix=vs.spec.residue_matrix)
            vs_p = validate_spec(permuted, "basic")
            direct = SchemeIdeals(vs_p)
            original = SchemeIdeals(vs)
            for attr in ("singular", "kupka", "residual"):
                transported = Ideal(arity, [permuted_poly(g, perm) for g in
                                            original.spec_basis(getattr(original, attr))])
                assert ideal_equal(Ideal(arity, direct.spec_basis(getattr(direct, attr))),
                                   transported), (label, attr)


# ---------------------------------------------------------------------------
# criterion 8: CLI contract
# ---------------------------------------------------------------------------

def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def test_criterion_8_cli_contract(tmp_path, capsys):
    with criterion(8, "cli-contract"):
        good = {"n": 2, "q": 1, "divisors": ["x0", "x1", "x2"],
                "residue_matrix": [[1, 2, -3]], "validation_level": "full-snc"}
        spec_path = tmp_path / "good.json"
        spec_path.write_text(json.dumps(good), encoding="utf-8")

        # exit code table
        assert main(["verify", str(spec_path)]) == EXIT_OK
        assert main(["check", str(tmp_path / "missing.json")]) == EXIT_IO
        bad_parse = tmp_path / "bad.json"
        bad_parse.write_text("{", encoding="utf-8")
        assert main(["check", str(bad_parse)]) == EXIT_IO
        invalid = dict(good, residue_matrix=[[1, 1, -2]], validation_level="generic")
        invalid_path = tmp_path / "invalid.json"
        invalid_path.write_text(json.dumps(invalid), encoding="utf-8")
        assert main(["check", str(invalid_path)]) == EXIT_VALIDATION
        concurrent = dict(good, divisors=["x0", "x1", "x0 + x1"], checks=["lemma"])
        concurrent_path = tmp_path / "concurrent.json"
        concurrent_path.write_text(json.dumps(concurrent), encoding="utf-8")
        assert main(["verify", str(concurrent_path), "--waive-preconditions"]) == EXIT_CHECKS
        capsys.readouterr()

        # deterministic machine reports on a fixed seed
        assert main(["batch", "2", "--seed", "7", "--format", "machine"]) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert main(["batch", "2", "--seed", "7", "--format", "machine"]) == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        assert json.dumps(_strip(first), sort_keys=True) == \
            json.dumps(_strip(second), sort_keys=True)

        # spec -> report -> re-parse round trip
        assert main(["verify", str(spec_path), "--format", "machine"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        reparsed = parse_spec_document(report["spec"], "roundtrip")
        assert reparsed.echo() == report["spec"]
        total = sum(Fraction(c) * d
                    for c, d in zip(report["spec"]["residue_matrix"][0], (1, 1, 1)))
        assert total == 0
