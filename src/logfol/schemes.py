"""Scheme-theoretic invariants of a logarithmic foliation form.

Three homogeneous ideals control the geometry of a q-form omega built from
a divisor arrangement:

* the singular ideal, generated by all coefficients of omega; its locus is
  the singular scheme of the foliation;
* the Kupka ideal, the singular ideal plus the annihilator of the class of
  d(omega) modulo it, which is that annihilator alone; its locus carries
  the stable (Kupka) part of the singular scheme;
* the persistent ideal, in two combinatorial presentations: the sum of the
  principal ideals of the complementary products prod_{j not in J} f_j over
  q-subsets J, and the intersection over (q+1)-subsets K of the ideals
  (f_i : i in K).

For a generic transversal arrangement the expected picture, verified here
instance by instance, is: the two persistent presentations agree as ideals;
the Kupka locus has codimension exactly q+1 and coincides set-theoretically
with the persistent locus; the rest of the singular scheme is a residual
component of dimension at most q-1 disjoint from the Kupka locus.

Comparisons are made at two strengths.  The arrangement identity is an
exact ideal identity and is checked by equality of reduced Groebner bases;
the locus statements compare zero sets, so they are checked by mutual
radical membership, which is insensitive to embedded or non-reduced
structure.  Both results are recorded when they differ.

The ideals are built from the divisors alone, so a linear change of
coordinates carries each of them to the same ideal of the moved
arrangement, and keeps every membership, equality, radical equality and
dimension.  An arrangement of hyperplanes is therefore computed in
coordinates y = Mx in which n+1 independent ones of them are coordinate
functions (``foliation.adapted_coordinates``): the form and the ideals are
sparse there, and monomial when s <= n+1.  ``groebner`` takes the bases,
colons, intersections, memberships, equalities and dimensions of monomial
ideals by exponent arithmetic, and makes no polynomial for such an ideal
until its basis is read, so with s <= n+1 no ideal enters the Groebner
engine except to be printed in the spec's coordinates, or to name the
witness of a failed locus check there (``_same_locus``).  Every generator a
report prints is carried back to the spec's coordinates and reduced there,
once per distinct reduced basis, so reports read as if computed in the
spec's coordinates throughout; an arrangement with a divisor of higher
degree, where the substitution would make it dense, is computed as given.

One instance is one ``SchemeIdeals``: its form, its ideals and the paper's
hypotheses on it are each computed on first use and then kept.  A check is
a function of the instance returning ``(passed, details)``.  ``CHECKS`` is
the one table of the checks ``logfol verify`` can run on an instance, in
report order, with the hypotheses each assumes, and ``run_checks`` gates
and times any selection of it.
"""

from __future__ import annotations

import itertools
import time
from functools import cached_property, reduce

from .foliation import (
    ValidatedSpec,
    adapted_coordinates,
    build_form,
    degenerate_strata,
    format_subset,
    transversality_violations,
)
from .forms import (
    PForm,
    exterior_derivative,
    frobenius_check,
    plucker_check,
    radial_contraction,
)
from .groebner import (
    Ideal,
    ideal_equal,
    ideal_intersection,
    ideal_saturation,
    ideal_sum,
    krull_dimension,
    module_annihilator,
    projective_dimension,
    radical_membership,
)
from .poly import linear_substitution


def singular_ideal(form: PForm) -> Ideal:
    """Ideal generated by every coefficient of the form."""
    if form.is_zero:
        raise ValueError("the zero form has no singular ideal")
    return Ideal(form.arity, list(form.coeffs.values()))


def kupka_ideal(form: PForm, singular: Ideal) -> Ideal:
    """Singular ideal J plus the annihilator of the class of d(form) modulo J.

    That sum is the annihilator itself: J : b contains J for every
    component b of d(form), so the annihilator contains J, and J + ann =
    ann.  The annihilator comes with its reduced basis cached, so building
    the Kupka ideal makes no grevlex run of its own.  When d(form) vanishes
    identically the class is zero, its annihilator is the whole ring, and
    the Kupka ideal is the unit ideal (empty locus).
    """
    components = list(exterior_derivative(form).coeffs.values())
    return module_annihilator(components, singular)


def persistent_sum(vs: ValidatedSpec) -> Ideal:
    """Ideal generated by the complementary products prod_{j not in J} f_j."""
    return Ideal(vs.arity, list(vs.complements.values()))


def persistent_cap(vs: ValidatedSpec) -> Ideal:
    """Intersection over the (q+1)-subsets K of the ideals (f_i : i in K),
    of which there is at least one, as s >= q+1.  A left fold: the running
    intersection is I in ``ideal_intersection(I, J)``, so its cached basis
    goes in at e1 as known entries, and each next ideal on the g*(e1 + e0)
    side."""
    return reduce(ideal_intersection, (
        Ideal(vs.arity, [vs.divisors[i] for i in subset])
        for subset in itertools.combinations(range(vs.s), vs.q + 1)))


def residual_ideal(singular: Ideal, kupka: Ideal) -> Ideal:
    """Saturation of the singular ideal by the Kupka ideal.

    Its locus is the closure of the part of the singular scheme away from
    the Kupka locus; the unit ideal means there is no residual component.
    """
    return ideal_saturation(singular, kupka)


class SchemeIdeals:
    """One validated instance: its form, the five ideals and the hypotheses.

    Each attribute is computed on first use and kept, so every ideal, and
    the Groebner bases cached on it, is built once per instance.  The
    attributes call the module-level constructors by name.

    The form and the ideals are those of ``work``: the instance in adapted
    coordinates y = Mx (``foliation.adapted_coordinates``) when ``adapt``
    and the divisors are hyperplanes, with ``matrix`` holding M, and the
    instance ``vs`` itself otherwise, with ``matrix`` None, and then the
    form of a raw table is the one its descent test built.  The hypotheses
    are read from ``vs``.  ``printed`` maps each distinct reduced basis the
    report lists to its generators printed in the spec's coordinates, so a
    basis is carried back and printed once per instance however many checks
    list it; ``gates`` keeps the report fields of the hypotheses.
    """

    def __init__(self, vs: ValidatedSpec, adapt: bool = True):
        self.vs = vs
        self.printed, self.gates = {}, {}
        change = adapted_coordinates(vs) if adapt else None
        self.matrix, self.work = change or (None, vs)

    def spec_basis(self, ideal: Ideal) -> tuple:
        """The reduced grevlex basis of one of the instance's ideals, in the
        spec's coordinates: y_i becomes (row i of M).x in each element of its
        basis, and the results are reduced again."""
        basis = ideal.groebner_basis()
        if self.matrix is None:
            return basis
        return Ideal(self.vs.arity, linear_substitution(basis, self.matrix)).groebner_basis()

    def gate(self, residues: bool) -> dict:
        """``_precondition_details`` of the instance, built once for each value
        of ``residues``; a caller that adds fields adds them to a copy."""
        if residues not in self.gates:
            self.gates[residues] = _precondition_details(self, residues)
        return self.gates[residues]

    @cached_property
    def form(self) -> PForm:
        return build_form(self.work) if self.work.form is None else self.work.form

    @cached_property
    def singular(self) -> Ideal:
        return singular_ideal(self.form)

    @cached_property
    def kupka(self) -> Ideal:
        return kupka_ideal(self.form, self.singular)

    @cached_property
    def persistent_sum(self) -> Ideal:
        return persistent_sum(self.work)

    @cached_property
    def persistent_cap(self) -> Ideal:
        return persistent_cap(self.work)

    @cached_property
    def residual(self) -> Ideal:
        return residual_ideal(self.singular, self.kupka)

    @cached_property
    def preconditions(self) -> dict:
        """The paper's hypotheses: the subsets where simple normal crossings
        fail, at every depth, and the degenerate residue strata.  An instance
        validated at ``full-snc`` has passed the sweep, so it has none."""
        vs = self.vs
        bad = []
        if vs.level != "full-snc":
            bad = transversality_violations(vs.divisors)
        return {
            "violations": [format_subset(subset) for subset, _ in bad],
            "degenerate_strata": [format_subset(K)
                                  for K in degenerate_strata(vs.lambdas, vs.q, vs.s)],
        }

    @cached_property
    def structure(self) -> dict:
        """Whether the form is integrable and whether it is decomposable: a
        q-form defines a codimension-q foliation only when both hold."""
        return {"integrable": frobenius_check(self.form), "decomposable": plucker_check(self.form)}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def generator_strings(ids: SchemeIdeals, ideal: Ideal) -> list:
    """The reduced grevlex generators of one of the instance's ideals, in
    the spec's coordinates, printed; each distinct basis is printed once
    per instance."""
    basis = ideal.groebner_basis()
    out = ids.printed.get(basis)
    if out is None:
        out = ids.printed[basis] = tuple(str(g) for g in ids.spec_basis(ideal))
    return list(out)


def ideal_block(ids: SchemeIdeals, ideal: Ideal) -> dict:
    """Report entry of an ideal: reduced generators and projective dimension."""
    return {"generators": generator_strings(ids, ideal),
            "projective_dimension": projective_dimension(ideal)}


def radical_equal(I: Ideal, J: Ideal):
    """Mutual radical membership: same zero locus over the algebraic closure.

    Returns (equal, witness) where witness names a generator of one side
    that does not vanish on the other side's locus, if any.
    """
    for g in I.generators:
        if not radical_membership(g, J):
            return False, f"{g} not radical-member of the second ideal"
    for g in J.generators:
        if not radical_membership(g, I):
            return False, f"{g} not radical-member of the first ideal"
    return True, None


def _precondition_details(ids: SchemeIdeals, residues: bool) -> dict:
    """Report fields of the hypotheses: simple normal crossings at every
    depth and, with ``residues``, no degenerate residue stratum and a form
    that defines a foliation.  A residue matrix builds a wedge of closed
    logarithmic 1-forms, integrable and decomposable by construction, so
    only a raw table is tested."""
    violations = ids.preconditions["violations"]
    details = {"precondition_ok": True, "violations": violations}
    problems = ["snc at " + ", ".join(violations)] if violations else []
    if residues:
        strata = ids.preconditions["degenerate_strata"]
        details["degenerate_strata"] = strata
        if strata:
            problems.append("degenerate residues at " + ", ".join(strata))
        if ids.vs.spec.mode == "raw":
            failed = [name for name, holds in ids.structure.items() if not holds]
            if failed:
                problems.append("form not " + " and not ".join(failed))
    if problems:
        details["precondition_ok"] = False
        details["message"] = "precondition violated: " + "; ".join(problems)
    return details


def _identities(ids: SchemeIdeals):
    form = ids.form
    codim = ids.vs.n - projective_dimension(ids.singular)
    details = {"radial_contraction_zero": radial_contraction(form).is_zero,
               **ids.structure,
               "coefficient_ideal_projective_codim": codim,
               "coefficient_ideal_positive_codim": codim >= 1}
    return all(v for v in details.values() if isinstance(v, bool)), details


def _sing(ids: SchemeIdeals):
    return True, ideal_block(ids, ids.singular)


def _kupka(ids: SchemeIdeals):
    contained = all(ids.kupka.contains(g) for g in ids.singular.generators)
    details = ideal_block(ids, ids.kupka)
    details["contains_singular_ideal"] = contained
    return contained, details


def _persistent(ids: SchemeIdeals):
    included = all(ids.persistent_cap.contains(g) for g in ids.persistent_sum.generators)
    return included, {"sum": ideal_block(ids, ids.persistent_sum),
                      "cap": ideal_block(ids, ids.persistent_cap), "sum_included_in_cap": included,
                      "ideals_equal": ideal_equal(ids.persistent_sum, ids.persistent_cap)}


def _lemma(ids: SchemeIdeals):
    equal = ideal_equal(ids.persistent_sum, ids.persistent_cap)
    details = dict(ids.gate(False))
    details["ideals_equal"] = equal
    details["sum_generators"] = generator_strings(ids, ids.persistent_sum)
    details["cap_generators"] = generator_strings(ids, ids.persistent_cap)
    return equal, details


def _kupka_codimension(ids: SchemeIdeals):
    cone = krull_dimension(ids.kupka)
    proj = max(cone - 1, -1)
    expected = ids.vs.n - (ids.vs.q + 1)
    return proj == expected, {"cone_dimension": cone, "projective_dimension": proj,
                              "expected_projective_dimension": expected,
                              "generators": generator_strings(ids, ids.kupka)}


def _residual_dimension(ids: SchemeIdeals):
    proj, bound = projective_dimension(ids.residual), ids.vs.q - 1
    return proj <= bound, {"projective_dimension": proj, "empty": proj == -1, "bound": bound,
                           "generators": generator_strings(ids, ids.residual)}


def _same_locus(ids: SchemeIdeals, pair):
    """``radical_equal`` of the two ideals ``pair(ids)`` as a check: the
    witness is reported when there is one.  It names a generator as the
    ideals are built in the spec's coordinates, so an instance in adapted
    coordinates builds the pair again in the spec's own to find it."""
    same, witness = radical_equal(*pair(ids))
    if not same and ids.matrix is not None:
        same, witness = radical_equal(*pair(SchemeIdeals(ids.vs, adapt=False)))
    return same, {"radical_equal": same, **({"witness": witness} if witness else {})}


def _kupka_formula(ids: SchemeIdeals):
    same, details = _same_locus(ids, lambda i: (i.kupka, i.persistent_cap))
    details["ideals_equal"] = ideal_equal(ids.kupka, ids.persistent_cap)
    details["persistent_generators"] = generator_strings(ids, ids.persistent_cap)
    return same, details


def _disjointness(ids: SchemeIdeals):
    proj = projective_dimension(ideal_sum(ids.kupka, ids.residual))
    return proj == -1, {"intersection_projective_dimension": proj}


def _singular_consistency(ids: SchemeIdeals):
    return _same_locus(ids, lambda i: (i.singular, ideal_intersection(i.kupka, i.residual)))


# Each name a spec's ``checks`` field selects maps to the hypotheses its
# report entries assume, as ``residues`` of ``_precondition_details`` (None:
# ungated), and to the entries, (name, check) pairs in report order:
# identities    descent (radial contraction zero), integrability,
#               decomposability and a coefficient ideal of positive codim
# sing, kupka, persistent   reduced bases; singular in Kupka; sum in cap
# lemma         persistent sum = cap, on a transversal arrangement
# kupka-codimension     the Kupka locus has projective codimension q+1
# residual-dimension    the residual locus is empty or of dimension <= q-1
# kupka-formula         rad(Kupka) = rad(persistent cap); ideal equality too
# disjointness          the Kupka and residual loci do not meet
# singular-consistency  rad(singular) = rad(Kupka cap residual)
CHECKS = {
    "identities": (None, (("identities", _identities),)),
    "sing": (None, (("sing", _sing),)),
    "kupka": (None, (("kupka", _kupka),)),
    "persistent": (None, (("persistent", _persistent),)),
    "lemma": (False, (("lemma", _lemma),)),
    "decomposition": (True, (("kupka-codimension", _kupka_codimension),
                             ("residual-dimension", _residual_dimension),
                             ("kupka-formula", _kupka_formula),
                             ("disjointness", _disjointness),
                             ("singular-consistency", _singular_consistency))),
}


def run_checks(ids: SchemeIdeals, names, waive: bool = False) -> list:
    """The report entries of the ``CHECKS`` that ``names`` selects, in table
    order, each timed by itself.  When the hypotheses an entry assumes fail
    it is ``skipped`` with their details, unless ``waive``: then it still
    runs and carries them alongside its own."""
    results = []
    for name, (residues, entries) in CHECKS.items():
        if name not in names:
            continue
        pre = None if residues is None else ids.gate(residues)
        failed = pre is not None and not pre["precondition_ok"]
        for entry, check in entries:
            if failed and not waive:
                results.append({"name": entry, "status": "skipped", "details": dict(pre),
                                "seconds": 0.0})
                continue
            t0 = time.perf_counter()
            passed, details = check(ids)
            if failed:
                details.update(pre)
            results.append({"name": entry, "status": "pass" if passed else "fail",
                            "details": details,
                            "seconds": round(time.perf_counter() - t0, 6)})
    return results
