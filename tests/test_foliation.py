import collections
import itertools
import math
import os
import random
from fractions import Fraction
from functools import reduce

import pytest

from logfol import foliation
from logfol.foliation import (
    FoliationSpec,
    SpecValidationError,
    build_form,
    degenerate_strata,
    transversality_violations,
    validate_spec,
)
from logfol.forms import (
    PForm,
    exterior_derivative,
    frobenius_check,
    plucker_check,
    radial_contraction,
    wedge,
)
from logfol.groebner import Ideal, krull_dimension
from logfol.poly import Poly
from logfol.sampling import random_linear_form, random_validated_spec

from conftest import P, variables

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def coordinate_spec(n, q, s, matrix):
    return FoliationSpec(n, q, [Poly.variable(n + 1, i) for i in range(s)],
                         residue_matrix=matrix)


def lambda_table(spec):
    """Residue scalar for every q-subset: minors in matrix mode, as given in raw mode."""
    scalars, scale = foliation._residue_scalars(spec)
    return {subset: Fraction(value, scale) for subset, value in scalars.items()}


def random_smooth_quadric(rng, arity):
    """A diagonal quadric with nonzero entries; always a smooth hypersurface."""
    return Poly(arity, {tuple(2 * (j == i) for j in range(arity)):
                        rng.choice([-3, -2, -1, 1, 2, 3]) for i in range(arity)})


# -- structural validation at construction -----------------------------------------

def test_structural_errors():
    x = variables(3)
    with pytest.raises(ValueError):
        FoliationSpec(2, 2, x, residue_matrix=[[1, 1, -2], [1, -1, 0]])  # q > n-1
    with pytest.raises(ValueError):
        FoliationSpec(2, 1, x[:2], residue_matrix=[[1, -1]], lambdas={(0,): 1})
    with pytest.raises(ValueError):
        FoliationSpec(2, 1, x, residue_matrix=[[1, 2]])  # wrong row width
    with pytest.raises(ValueError):
        FoliationSpec(2, 1, x, lambdas={(0, 1): 1})      # wrong subset size
    with pytest.raises(ValueError):
        FoliationSpec(3, 3, [Poly.variable(4, i) for i in range(3)],
                      residue_matrix=[[1, 1, -2]] * 3)   # s <= q


# -- validation levels ---------------------------------------------------------------

def test_full_snc_coordinate_instance():
    vs = validate_spec(coordinate_spec(2, 1, 3, [[1, 2, -3]]), "full-snc")
    assert vs.degrees == (1, 1, 1)
    assert vs.lambdas == {(0,): 1, (1,): 2, (2,): -3}
    assert any("transversality" in line for line in vs.certificate)


def test_duplicate_residues_rejected_at_generic():
    with pytest.raises(SpecValidationError) as err:
        validate_spec(coordinate_spec(2, 1, 3, [[1, 1, -2]]), "generic")
    failures = err.value.failures
    assert any(f.check == "genericity" and "{1}" in f.subject and "{2}" in f.subject
               for f in failures)
    # the same spec is fine at basic level
    validate_spec(coordinate_spec(2, 1, 3, [[1, 1, -2]]), "basic")


def _fraction_genericity(lam) -> list:
    """The genericity failures found by sorting the rational scalars."""
    out = [f"[genericity] subset {foliation.format_subset(I)}: residue scalar is zero"
           for I, value in lam.items() if value == 0]
    by_value = {}
    for I, value in sorted(lam.items()):
        by_value.setdefault(value, []).append(I)
    for value, subsets in sorted(by_value.items()):
        if value != 0 and len(subsets) > 1:
            listed = ", ".join(foliation.format_subset(I) for I in subsets)
            out.append(f"[genericity] subsets {listed}: residue scalar {value} repeats: "
                       "not pairwise distinct")
    return out


def test_genericity_on_integers_matches_the_rational_order():
    """The genericity failures of the ``repeated-residue`` specs of the
    check benchmark, their messages and order, against sorting the
    rational scalars: as drawn, with each residue row divided by a
    different integer, and as the raw table of those scalars with a zero
    and two repeated values put first."""
    import sys
    sys.path.insert(0, BENCH)
    import instances
    from logfol.cli import parse_spec_document

    rng = instances.rng_for("check-snc", "genericity")
    seen = 0
    for n, q, s in instances.CHECK_SHAPES:
        doc = instances.check_spec(rng, n, q, s, "repeated-residue")
        scaled = dict(doc, residue_matrix=[[f"{c}/{k + 2}" for c in row]
                                           for k, row in enumerate(doc["residue_matrix"])])
        lam = lambda_table(parse_spec_document(scaled, "scaled").spec)
        raw = {k: v for k, v in scaled.items() if k != "residue_matrix"}
        # zero at the first subset; the next two repeat a large value, and
        # the two after them a small one
        values = [0, 1000, 1000, "-1000/3", "-1000/3"] + [str(v) for v in lam.values()][5:]
        raw["lambdas"] = {",".join(str(i + 1) for i in subset): value
                          for subset, value in zip(lam, values)}
        for variant in (doc, scaled, raw):
            spec = parse_spec_document(variant, "spec").spec
            with pytest.raises(SpecValidationError) as err:
                validate_spec(spec, "generic")
            found = [str(f) for f in err.value.failures if f.check == "genericity"]
            assert found == _fraction_genericity(lambda_table(spec)) and found
            seen += len(found)
    assert seen > 3 * len(instances.CHECK_SHAPES)


def test_zero_residue_rejected_at_generic():
    with pytest.raises(SpecValidationError) as err:
        validate_spec(coordinate_spec(2, 1, 3, [[0, 3, -3]]), "generic")
    assert any(f.check == "genericity" and "zero" in f.message for f in err.value.failures)


def test_concurrent_lines_fail_snc():
    x = variables(3)
    spec = FoliationSpec(2, 1, [x[0], x[1], x[0] + x[1]], residue_matrix=[[1, 2, -3]])
    with pytest.raises(SpecValidationError) as err:
        validate_spec(spec, "full-snc")
    assert any(f.check == "transversality" and f.subject == "subset {1,2,3}"
               for f in err.value.failures)
    validate_spec(spec, "generic")  # the lines themselves are smooth and distinct

    # linear subsets are measured by a rank, the others by a Groebner basis:
    # both must agree with the Krull dimension of (f_i : i in K) at every depth
    rng = random.Random(4242)
    violating = mixed = 0
    for case in range(60):
        arity = rng.randint(3, 5)
        divisors = []
        for _ in range(rng.randint(3, 6)):
            if case % 2 and rng.random() < 0.3:
                divisors.append(random_smooth_quadric(rng, arity))
            elif rng.random() < 0.4:
                divisors.append(Poly.variable(arity, rng.randrange(arity)))
            else:
                scale = Fraction(rng.randint(1, 4), rng.randint(1, 5))
                divisors.append(random_linear_form(rng, arity) * scale)
        max_size = min(len(divisors), arity)
        expected = []
        for size in range(2, max_size + 1):
            for subset in itertools.combinations(range(len(divisors)), size):
                dim = krull_dimension(Ideal(arity, [divisors[i] for i in subset]))
                if arity - dim != size and dim > 0:
                    expected.append((subset, arity - dim))
        assert transversality_violations(divisors) == expected, divisors
        violating += bool(expected)
        mixed += any(f.total_degree() == 2 for f in divisors)
    assert violating >= 10 and mixed >= 10


def _linear(arity, row, scale=1):
    return Poly(arity, {tuple(int(j == i) for j in range(arity)): Fraction(c) * scale
                        for i, c in enumerate(row) if c})


def _combination(rows, coeffs):
    return [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(len(rows[0]))]


# (n, linear forms, planted dependencies, smooth quadric added): 6..8 divisors on P^4, P^5
DEPENDENT_CASES = (
    (4, 6, "repeat+3", False), (5, 6, "span-n", False), (4, 6, "repeat+4", False),
    (4, 7, "repeat+span-n", False), (5, 7, "repeat+3", True), (4, 7, "span-n", False),
    (5, 8, "repeat+span-n", False), (5, 7, "repeat+4", True), (5, 8, "span-n", False),
    (4, 8, "repeat+3", False), (4, 7, "span-n", True), (4, 7, "repeat+span-n", True),
)


def _dependent_arrangement(rng, n, count, kind, quadric):
    """Divisors on P^n, shuffled: ``count`` linear forms, dense random rows
    (generically in general position) with planted dependencies, and maybe
    a smooth quadric.  "repeat" repeats a hyperplane, "3" and "4" make three
    or four forms dependent, and "span-n" puts a form in the span of n
    others, which is seen only at depth n+1."""
    arity = n + 1
    rows = [[rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]) for _ in range(arity)]
            for _ in range(count)]
    repeat = kind.startswith("repeat")
    if repeat:  # the last form is a multiple of the first
        factor = rng.choice([-2, -1, 3])
        rows[-1] = [factor * c for c in rows[0]]
    others = {"3": 2, "4": 3, "span-n": n}[kind.rsplit("+", 1)[-1]]
    rows[-1 - repeat] = _combination(rows[repeat:repeat + others],
                                     [rng.choice([-2, -1, 1, 3]) for _ in range(others)])
    divisors = [_linear(arity, row, Fraction(1, rng.randint(1, 3))) for row in rows]
    if quadric:
        divisors.append(random_smooth_quadric(rng, arity))
    rng.shuffle(divisors)
    return divisors, arity


def test_walk_matches_rank_oracle_at_check_snc_size():
    """The walk's (subset, height) list, order included, against SymPy's rank
    of each linear subset and the Krull dimension of each mixed one."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(2208)
    first_depths, depths = set(), set()
    for case, (n, count, kind, quadric) in enumerate(DEPENDENT_CASES):
        divisors, arity = _dependent_arrangement(rng, n, count, kind, quadric)
        max_size = min(len(divisors), arity)
        expected = []
        for size in range(2, max_size + 1):
            for subset in itertools.combinations(range(len(divisors)), size):
                fs = [divisors[i] for i in subset]
                if all(f.total_degree() == 1 for f in fs):
                    coeffs = [[f.terms.get(tuple(int(j == i) for j in range(arity)), 0)
                               for i in range(arity)] for f in fs]
                    height = DomainMatrix([[QQ(c.numerator, c.denominator) for c in row]
                                           for row in coeffs], (size, arity), QQ).rank()
                else:
                    height = arity - krull_dimension(Ideal(arity, fs))
                if height != size and height < arity:
                    expected.append((subset, height))
        assert transversality_violations(divisors) == expected, case
        first_depths.add((len(expected[0][0]), kind if quadric else kind + "/linear"))
        depths.add(len({len(subset) for subset, _ in expected}))
    # repeated hyperplanes at depth 2; a form in the span of n others first at n+1
    assert {(2, "repeat+3/linear"), (2, "repeat+span-n/linear"), (2, "repeat+4")} <= first_depths
    assert {d for d, kind in first_depths if kind == "span-n/linear"} == {5, 6}
    assert max(depths) >= 4


def test_descent_violation_names_row():
    with pytest.raises(SpecValidationError) as err:
        validate_spec(coordinate_spec(2, 1, 3, [[1, 2, -1]]), "basic")
    assert any(f.check == "descent" and f.subject == "residue row 1"
               for f in err.value.failures)


def test_raw_mode_descent_checked_on_built_form():
    x = variables(3)
    good = FoliationSpec(2, 1, x, lambdas={(0,): 1, (1,): 2, (2,): -3})
    validate_spec(good, "basic")
    bad = FoliationSpec(2, 1, x, lambdas={(0,): 1, (1,): 2, (2,): -4})
    with pytest.raises(SpecValidationError) as err:
        validate_spec(bad, "basic")
    assert any(f.check == "descent" for f in err.value.failures)


def test_singular_divisor_rejected():
    x = variables(3)
    # x0^2 - x1*x2 is smooth, x0*x1 is a singular (reducible) conic
    spec = FoliationSpec(2, 1, [P("x0^2 - x1*x2", 3), x[1], x[0] * x[1]],
                         residue_matrix=[[1, 2, "-4"]])
    with pytest.raises(SpecValidationError) as err:
        validate_spec(spec, "generic")
    assert any(f.check == "smoothness" and f.subject == "divisor 3"
               for f in err.value.failures)


def test_non_homogeneous_divisor_fails_basic():
    spec = FoliationSpec(2, 1, [P("x0 + 1", 3), P("x1", 3), P("x2", 3)],
                         residue_matrix=[[1, 2, -3]])
    with pytest.raises(SpecValidationError) as err:
        validate_spec(spec, "basic")
    assert any(f.check == "homogeneity" for f in err.value.failures)


# -- construction -----------------------------------------------------------------------

def test_build_form_codim_one_instance():
    vs = validate_spec(coordinate_spec(2, 1, 3, [[1, 2, -3]]), "full-snc")
    x = variables(3)
    omega = build_form(vs)
    assert omega == PForm(3, 1, {(0,): x[1] * x[2], (1,): 2 * x[0] * x[2],
                                 (2,): -3 * x[0] * x[1]})
    assert radial_contraction(omega).is_zero


def laplace(matrix) -> Fraction:
    """Determinant by expansion along the first row, on Fractions."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum((-1) ** c * matrix[0][c] * laplace([row[:c] + row[c + 1:] for row in matrix[1:]])
               for c in range(len(matrix)))


def test_minors_match_a_laplace_oracle():
    """Integer-elimination minors equal Fraction Laplace expansion for q = 1..4,
    on rational matrices with zero pivots, repeated columns and dependent rows."""
    rng = random.Random(2208)
    zero_minors = pivot_swaps = 0
    for q in range(1, 5):
        for trial in range(16):
            s = q + rng.randint(1, 3)
            matrix = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))
                       for _ in range(s)] for _ in range(q)]
            if trial % 4 == 1:  # a column repeated up to a factor: some minors vanish
                j, k = rng.sample(range(s), 2)
                for row in matrix:
                    row[k] = row[j] * rng.choice([-2, Fraction(1, 3), 1])
            elif trial % 4 == 2 and q > 1:  # a dependent row: every minor vanishes
                matrix[-1] = [a - Fraction(3, 2) * b for a, b in zip(matrix[0], matrix[1])]
            elif trial % 4 == 3:  # zeros in the first row force pivot swaps
                for j in rng.sample(range(s), s // 2 + 1):
                    matrix[0][j] = Fraction(0)
                pivot_swaps += 1
            spec = coordinate_spec(max(s - 1, q + 1), q, s, matrix)
            expected = {I: laplace([[row[i] for i in I] for row in matrix])
                        for I in itertools.combinations(range(s), q)}
            table = lambda_table(spec)
            assert table == expected
            assert all(type(value) is Fraction for value in table.values())
            strata = [K for K in itertools.combinations(range(s), q + 1)
                      if sum((-1) ** k * expected[K[:k] + K[k + 1:]] for k in range(q + 1)) == 0]
            assert degenerate_strata(table, q, s) == strata
            zero_minors += sum(value == 0 for value in expected.values())
    assert zero_minors > 50 and pivot_swaps == 16


def full_minor_row(matrix, row) -> list:
    """Cramer's rule on every column of M with minors on all n+1 rows:
    det(M with row k replaced by r) * det(M), scaled to a primitive row."""
    arity = len(matrix)
    det = foliation._minor(matrix, range(arity))
    new = [foliation._minor(matrix[:k] + [row] + matrix[k + 1:], range(arity)) * det
           for k in range(arity)]
    g = math.gcd(*new)
    return [c // g for c in new]


def test_adapted_coordinates_match_the_full_minor_formula():
    """Each divisor of the adapted instance is the full-minor Cramer row of
    its spec row, on seeded arrangements of P^2..P^6 with zero entries,
    fewer or more hyperplanes than coordinates, and repeated rows."""
    rng = random.Random(2208)
    adapted = 0
    for n in range(2, 7):
        for trial in range(5):
            arity, s = n + 1, rng.randint(2, n + 3)
            rows = [[rng.choice([-2, -1, 0, 0, 1, 3]) for _ in range(arity)] for _ in range(s)]
            for row in rows:
                row[rng.randrange(arity)] = rng.choice([1, 2, -3])
            if trial == 4:
                rows[-1] = [2 * c for c in rows[0]]
            divisors = [Poly(arity, {tuple(int(j == i) for j in range(arity)): c
                                     for i, c in enumerate(row) if c}) for row in rows]
            residues = [[rng.randint(-4, 4) for _ in range(s - 1)]]
            residues[0].append(-sum(residues[0]))
            vs = validate_spec(FoliationSpec(n, 1, divisors, residue_matrix=residues), "basic")
            result = foliation.adapted_coordinates(vs)
            if result is None:
                continue
            matrix, work = result
            for row, g in zip(rows, work.divisors):
                assert foliation._linear_row(g) == full_minor_row(matrix, row)
            adapted += 1
    assert adapted >= 20


def test_walk_rows_stay_minors(monkeypatch):
    """The walk divides each elimination step by the pivot before it, so its
    rows hold minors of the divisor coefficients and stay below Hadamard's
    bound, where undivided rows would double in size with every step.  The
    last form is the negative of the one before it, so the general-position
    certificate fails and the walk visits every subset."""
    rng = random.Random(11)
    forms = [Poly(8, {tuple(int(i == j) for j in range(8)): rng.choice([-9, -7, 5, 8, 9])
                      for i in range(8)}) for _ in range(10)]
    forms[-1] = forms[-2] * -1
    expected = [(K, len(K) - 1) for size in range(2, 9)
                for K in itertools.combinations(range(10), size) if {8, 9} <= set(K)]
    widest = []
    eliminate = foliation._eliminate
    monkeypatch.setattr(foliation, "_eliminate", lambda *args: widest.extend(
        max(map(abs, row)).bit_length() for row in eliminate(*args)) or eliminate(*args))
    assert transversality_violations(forms) == expected
    assert len(widest) > 1000 and max(widest) <= 38  # 8 x 8 minors: (9 * sqrt(8))^8 < 2^38


def maximal_minors(rows) -> dict:
    """Every minor of an integer matrix on len(rows[0]) of its rows, keyed by
    the row subset, by Laplace expansion along the columns."""
    minors = {(): 1}
    for k in range(len(rows[0])):  # the minors on columns 0..k
        minors = {R: sum((-1) ** (k + t) * rows[R[t]][k] * minors[R[:t] + R[t + 1:]]
                         for t in range(k + 1))
                  for R in itertools.combinations(range(len(rows)), k + 1)}
    return minors


def in_general_position(rows) -> bool:
    """Brute force: rank s when s <= arity, else every arity-subset independent."""
    if len(rows) < len(rows[0]):
        return any(maximal_minors([list(column) for column in zip(*rows)]).values())
    return all(maximal_minors(rows).values())


def _random_rows(rng):
    """Integer rows of s hyperplanes on P^2..P^4, entries up to +-50: dense,
    sparse (dependent by chance), or with one row a combination of others."""
    arity = rng.randint(3, 5)
    s, kind = rng.randint(2, arity + 4), rng.choice(("dense", "sparse", "planted"))
    rows = []
    for _ in range(s):
        if kind == "sparse":
            row = [rng.choice([0, 0, 0, rng.randint(-50, 50)]) for _ in range(arity)]
        else:
            row = [rng.randint(-50, 50) for _ in range(arity)]
        if not any(row):
            row[rng.randrange(arity)] = rng.choice([-1, 1])
        rows.append(row)
    if kind == "planted":
        k = rng.randrange(s)
        others = rng.sample([i for i in range(s) if i != k], min(s - 1, rng.randint(1, arity - 1)))
        row = _combination([rows[i] for i in others], [rng.choice([-2, -1, 1, 3]) for _ in others])
        if any(row):
            rows[k] = row
    return rows


def test_walk_runs_only_when_the_certificate_fails(monkeypatch):
    """Nine planes on P^5 in general position are certified without the
    subset walk; with the last plane in the span of the five before it the
    certificate fails, and the walk names that one subset."""
    walks = []
    walk = foliation._subset_walk
    monkeypatch.setattr(foliation, "_subset_walk", lambda *args: walks.append(args) or walk(*args))
    rng = random.Random(24)
    rows = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(9)]
    assert in_general_position(rows)
    assert transversality_violations([_linear(6, row) for row in rows]) == [] and walks == []
    rows[-1] = _combination(rows[3:8], [2, -1, 1, 3, -2])
    assert [R for R, det in maximal_minors(rows).items() if det == 0] == [(3, 4, 5, 6, 7, 8)]
    assert transversality_violations([_linear(6, row) for row in rows]) == [((3, 4, 5, 6, 7, 8), 5)]
    assert len(walks) == 1


def test_certificate_integers_stay_below_hadamard(monkeypatch):
    """Every integer the certificate holds is a minor of the coefficient rows
    of size at most arity: for 16 planes on P^7 with entries up to 9, below
    (9 * sqrt(8))^8 < 2^38, while its minors of D alone would reach
    det(B)^7 times that."""
    rng = random.Random(7)
    rows = [[rng.choice([-9, -7, -4, 3, 5, 8, 9]) for _ in range(8)] for _ in range(16)]
    assert in_general_position(rows)
    widest = []
    eliminate = foliation._eliminate
    monkeypatch.setattr(foliation, "_eliminate", lambda *args: widest.extend(
        max(map(abs, row)).bit_length() for row in eliminate(*args)) or eliminate(*args))
    assert foliation._general_position(rows)
    assert len(widest) > 5_000 and max(widest) <= 38


def test_general_position_matches_a_minor_oracle():
    """The certificate against brute-force maximal minors on 10,000 seeded
    arrangements: fewer rows than coordinates, and more by r = 1..4, so that
    minors of D of size 3 and more are walked to the end."""
    rng = random.Random(2208)
    counts = collections.Counter()  # by (r, or 0 when s <= arity, capped at 3; verdict)
    for _ in range(10_000):
        rows = _random_rows(rng)
        expected = in_general_position(rows)
        assert foliation._general_position(rows) == expected, rows
        counts[max(0, min(len(rows) - len(rows[0]), 3)), expected] += 1
    assert counts[0, True] >= 1_500 and counts[0, False] >= 1_500
    assert counts[1, False] + counts[2, False] >= 1_500
    assert counts[3, True] >= 800 and counts[3, False] >= 1_500


def test_build_form_codim_two_minors():
    spec = coordinate_spec(3, 2, 3, [[1, 1, -2], [1, -1, 0]])
    assert lambda_table(spec) == {(0, 1): -2, (0, 2): 2, (1, 2): -2}
    vs = validate_spec(spec, "basic")  # minors collide, so only basic validates
    omega = build_form(vs)
    x = variables(4)
    assert omega == PForm(4, 2, {(0, 1): -2 * x[2], (0, 2): 2 * x[1], (1, 2): -2 * x[0]})
    assert plucker_check(omega)
    assert frobenius_check(omega)


def test_matrix_and_raw_modes_agree():
    spec = coordinate_spec(3, 2, 4, [[4, 1, -2, -3], [1, 3, -2, -2]])
    vs = validate_spec(spec, "full-snc")
    raw = FoliationSpec(3, 2, vs.divisors, lambdas=vs.lambdas)
    vs_raw = validate_spec(raw, "full-snc")
    assert build_form(vs) == build_form(vs_raw)


def factor_forms(vs) -> list:
    """Matrix mode only: the cleared 1-forms sum_i L[k][i] (prod_{j!=i} f_j) df_i.

    Their wedge equals (prod f_i)^(q-1) times the built q-form, which is the
    global decomposition property the matrix mode guarantees.  Row k of L is
    the residue row of a codimension-one instance on the same divisors, whose
    complementary products are the prod_{j!=i} f_j.
    """
    arity = vs.arity
    out = []
    for row in vs.spec.residue_matrix:
        row_vs = validate_spec(FoliationSpec(vs.n, 1, vs.divisors, residue_matrix=[row]), "basic")
        form = PForm(arity, 1)
        for i, entry in enumerate(row):
            if entry == 0:
                continue
            df = exterior_derivative(PForm(arity, 0, {(): vs.divisors[i]}))
            form = form + df * (row_vs.complements[(i,)] * entry)
        out.append(form)
    return out


def divisor_product(vs) -> Poly:
    return reduce(lambda a, b: a * b, vs.divisors)


def test_factor_form_wedge_identity():
    """In matrix mode the form decomposes: the wedge of the cleared 1-form
    factors equals F^(q-1) times the built q-form."""
    spec = coordinate_spec(3, 2, 4, [[4, 1, -2, -3], [1, 3, -2, -2]])
    vs = validate_spec(spec, "full-snc")
    factors = factor_forms(vs)
    assert len(factors) == 2
    lhs = reduce(wedge, factors)
    rhs = build_form(vs) * divisor_product(vs)  # q - 1 = 1 extra factor of F
    assert lhs == rhs


def homogeneous_coefficient_degree(form):
    """Common degree of all coefficients, or None if mixed/zero."""
    degs = set()
    for poly in form.coeffs.values():
        d = poly.homogeneous_degree()
        if d is None:
            return None
        degs.add(d)
    if len(degs) == 1:
        return degs.pop()
    return None


def test_coefficient_degrees():
    rng = random.Random(61)
    for _ in range(5):
        vs = random_validated_spec(rng, 3, 1, 4, level="generic")
        omega = build_form(vs)
        assert homogeneous_coefficient_degree(omega) == sum(vs.degrees) - vs.q


def test_scaling_residues_scales_form():
    spec = coordinate_spec(2, 1, 3, [[1, 2, -3]])
    vs = validate_spec(spec, "generic")
    scaled = FoliationSpec(2, 1, vs.divisors,
                           residue_matrix=[[Fraction(5), Fraction(10), Fraction(-15)]])
    vs5 = validate_spec(scaled, "generic")
    assert build_form(vs5) == build_form(vs) * 5


def test_built_forms_satisfy_identities():
    rng = random.Random(71)
    for _ in range(6):
        n = rng.choice([2, 3])
        q = rng.choice([1, 2]) if n == 3 else 1
        # s = q+1 with equal degrees forces duplicate residue minors, so
        # generic instances need at least q+2 divisors
        s = rng.randint(q + 2, 4)
        vs = random_validated_spec(rng, n, q, s, level="generic")
        omega = build_form(vs)
        assert radial_contraction(omega).is_zero
        assert frobenius_check(omega)
        assert plucker_check(omega)


# -- residues ------------------------------------------------------------------------------

def test_residue_table_codim_one():
    vs = validate_spec(coordinate_spec(2, 1, 3, [[1, 2, -3]]), "generic")
    assert vs.lambdas == {(0,): 1, (1,): 2, (2,): -3}


def test_residue_table_matrix_minors():
    spec = coordinate_spec(3, 2, 3, [[1, 1, -2], [1, -1, 0]])
    vs = validate_spec(spec, "basic")
    assert vs.lambdas == {(0, 1): -2, (0, 2): 2, (1, 2): -2}
