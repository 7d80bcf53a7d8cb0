"""Validation of foliation data and construction of the logarithmic form.

A foliation instance on P^n is described by s homogeneous divisor
polynomials f_1..f_s and residue data for the codimension q: either a q x s
rational matrix L (one row per logarithmic 1-form factor) or a raw table of
scalars, one per q-element subset I of the divisors.  In matrix mode the
scalar attached to I is the q x q minor of L on the columns I, and the
resulting q-form is globally a wedge product of q logarithmic 1-forms; in
raw mode arbitrary scalars are allowed and decomposability must be checked
afterwards.

The polynomial q-form built from a validated instance is

    omega = sum over I of  lambda_I * (prod_{j not in I} f_j) * df_I,

df_I being the wedge of the df_i for i in I in increasing order.  Every
coefficient of omega is homogeneous of degree (sum_i deg f_i) - q and the
radial contraction of omega vanishes, so omega lives on P^n.

Validation is layered:

* ``basic``    homogeneity of the divisors and the descent conditions;
* ``generic``  basic, plus residue scalars pairwise distinct and nonzero,
               plus smoothness of each divisor hypersurface (exact for a
               linear one: its derivatives are nonzero constants);
* ``full-snc`` generic, plus transversality of the divisor arrangement at
               every depth (every k-fold intersection, k up to
               min(s, n+1), has codimension k or is empty).

For an arrangement of hyperplanes, transversality at every depth is general
position: every (n+1)-subset of the s coefficient rows is independent (every
subset when s <= n+1).  One fraction-free Gauss-Jordan elimination of the
first min(s, n+1) rows certifies it, and then a walk over the square minors
of the matrix that writes the other rows in their basis: C(s, n+1) - 1
minors, each one elimination step from its parent.  Only when that
certificate fails, or a divisor is not linear, does the walk over all
subsets of up to min(s, n+1) divisors run, to list each violation with its
height: sum over k <= min(s, n+1) of C(s, k) nodes, so 27 minors against
247 nodes for 8 planes on P^5.

A failed validation raises ``SpecValidationError`` carrying one structured
entry per failed check; nothing is reported by crashing.

``adapted_coordinates`` rewrites a validated arrangement of hyperplanes in
linear coordinates where up to n+1 of its hyperplanes are coordinate
functions, for ``schemes`` to compute in.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, reduce

from .forms import PForm, exterior_derivative, radial_contraction, wedge
from .groebner import Ideal, krull_dimension
from .poly import GREVLEX, Poly, _layout, _make, _width

VALIDATION_LEVELS = ("basic", "generic", "full-snc")

# The most subsets of 2..min(s, n+1) divisors a spec may have.  The
# transversality walk visits them; the C(s, q) residue scalars and the
# C(s, q+1) strata tested for degenerate residues are no more, as
# q+1 <= min(s, n+1) and C(s, 1) <= C(s, 2) for s >= 3.
_MAX_SUBSETS = 100_000


def format_subset(subset) -> str:
    """Render a 0-based index tuple as a 1-based set, e.g. (0,2) -> '{1,3}'."""
    return "{" + ",".join(str(i + 1) for i in subset) + "}"


class ValidationFailure:
    """One failed validation check: its name, what it failed on and why."""

    __slots__ = ("check", "subject", "message")

    def __init__(self, check: str, subject: str, message: str):
        self.check = check
        self.subject = subject
        self.message = message

    def __str__(self):
        return f"[{self.check}] {self.subject}: {self.message}"


class SpecValidationError(Exception):
    """Raised when a foliation spec fails validation; lists every failure."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(str(f) for f in self.failures))


class FoliationSpec:
    """Divisor arrangement plus residue data, before validation.

    ``residue_matrix`` is a q x s matrix of rationals (rows are the residue
    vectors of the q logarithmic 1-form factors); ``lambdas`` maps 0-based
    strictly increasing q-subsets of the divisor indices to rationals.
    Exactly one of the two must be given.
    """

    __slots__ = ("n", "q", "divisors", "residue_matrix", "lambdas")

    def __init__(self, n, q, divisors, residue_matrix=None, lambdas=None):
        if n < 2:
            raise ValueError("ambient projective dimension must be at least 2")
        if not 1 <= q <= n - 1:
            raise ValueError(f"codimension q={q} must satisfy 1 <= q <= n-1={n - 1}")
        divisors = tuple(divisors)
        s = len(divisors)
        if s <= q:
            raise ValueError(f"need more divisors than the codimension: s={s} <= q={q}")
        count, total = s, 0  # C(s, k + 1) and C(s, 2) + ... + C(s, k + 1) after step k
        for k in range(1, min(s, n + 1)):
            count = count * (s - k) // (k + 1)
            total += count
            if total > _MAX_SUBSETS:
                raise ValueError(f"{s} divisors on P^{n} have more than {_MAX_SUBSETS} "
                                 f"subsets of 2..{min(s, n + 1)} of them to check")
        for i, f in enumerate(divisors):
            if not isinstance(f, Poly):
                raise TypeError("divisors must be Poly instances")
            if f.arity != n + 1:
                raise ValueError(f"divisor {i + 1} has arity {f.arity}, expected {n + 1}")
            if f.is_zero:
                raise ValueError(f"divisor {i + 1} is zero")
        if (residue_matrix is None) == (lambdas is None):
            raise ValueError("exactly one of residue_matrix and lambdas must be given")
        if residue_matrix is not None:
            rows = tuple(tuple(Fraction(entry) for entry in row) for row in residue_matrix)
            if len(rows) != q or any(len(row) != s for row in rows):
                raise ValueError(f"residue matrix must be {q} x {s}")
            residue_matrix = rows
        if lambdas is not None:
            table = {}
            for subset, value in lambdas.items():
                subset = tuple(subset)
                if len(subset) != q or len(set(subset)) != q or list(subset) != sorted(subset):
                    raise ValueError(f"lambda key {subset} is not an increasing q-subset")
                if subset[0] < 0 or subset[-1] >= s:
                    raise ValueError(f"lambda key {subset} out of range for s={s}")
                table[subset] = Fraction(value)
            lambdas = table
        self.n = n
        self.q = q
        self.divisors = divisors
        self.residue_matrix = residue_matrix
        self.lambdas = lambdas

    @property
    def s(self) -> int:
        return len(self.divisors)

    @property
    def arity(self) -> int:
        return self.n + 1

    @property
    def mode(self) -> str:
        return "matrix" if self.residue_matrix is not None else "raw"

    def subsets(self):
        return itertools.combinations(range(self.s), self.q)


def _minor(rows, cols) -> int:
    """The minor of an integer matrix on ``cols``, by ``_eliminate`` steps."""
    m, sign, prev = [[row[c] for c in cols] for row in rows], 1, 1
    while len(m) > 1:
        k = next((i for i, row in enumerate(m) if row[0]), None)
        if k is None:
            return 0
        m[0], m[k], sign = m[k], m[0], -sign if k else sign
        m, prev = [row[1:] for row in _eliminate(m[1:], m[0], 0, prev)], m[0][0]
    return sign * m[0][0]


def _residue_scalars(spec: FoliationSpec) -> tuple:
    """``(scalars, scale)``: an integer for every q-subset, in increasing
    subset order, and one positive scale, so that the residue scalar of the
    subset is its integer divided by the scale.

    In matrix mode the rows are cleared of denominators, each minor is taken
    over the integers, and the scale is the product of the row scales; in
    raw mode the scale is the common denominator of the table."""
    if spec.mode == "raw":
        table = {subset: spec.lambdas.get(subset, Fraction(0)) for subset in spec.subsets()}
        scale = math.lcm(*(x.denominator for x in table.values()))
        return {subset: x.numerator * (scale // x.denominator)
                for subset, x in table.items()}, scale
    scales = [math.lcm(*(x.denominator for x in row)) for row in spec.residue_matrix]
    rows = [[x.numerator * (d // x.denominator) for x in row]
            for row, d in zip(spec.residue_matrix, scales)]
    return {subset: _minor(rows, subset) for subset in spec.subsets()}, math.prod(scales)


class ValidatedSpec:
    """A foliation spec together with derived data and its validation record."""

    def __init__(self, spec: FoliationSpec, level: str, degrees: tuple, lambdas: dict,
                 certificate=()):
        self.spec = spec
        self.level = level
        self.degrees = degrees
        self.lambdas = lambdas
        self.certificate = list(certificate)
        self.form = None  # the built form, once the descent test of a raw table builds it

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def s(self) -> int:
        return self.spec.s

    @property
    def arity(self) -> int:
        return self.spec.arity

    @property
    def divisors(self):
        return self.spec.divisors

    @cached_property
    def complements(self) -> dict:
        """Each q-subset I, in increasing order, mapped to the product of the
        divisors away from I: the weight of df_I in the form and a generator
        of the persistent ideal.  There are s > q divisors, so none is empty."""
        return {subset: reduce(Poly.__mul__, [f for i, f in enumerate(self.divisors)
                                              if i not in subset])
                for subset in self.spec.subsets()}


def _jacobian_ideal(f: Poly) -> Ideal:
    gens = [f] + [f.partial_derivative(i) for i in range(f.arity)]
    return Ideal(f.arity, [g for g in gens if not g.is_zero])


def _linear_row(f: Poly):
    """Integer coefficients of a linear form, up to a nonzero factor, or
    None when f is not linear."""
    row = [f.num.get(w, 0) for w in f.layout.weights]
    if len(row) - row.count(0) != len(f.num):
        return None
    return row


def _eliminate(rows, head, col, prev):
    """``rows`` after one fraction-free elimination step by ``head`` in column
    ``col``, divided exactly by ``prev``, the pivot of the step before
    (Bareiss, Math. Comp. 1968); a row None stays None."""
    lead = head[col]
    return [None if row is None else [(lead * a - row[col] * b) // prev for a, b in zip(row, head)]
            for row in rows]


def adapted_coordinates(vs: ValidatedSpec):
    """``(M, adapted)`` for an arrangement of hyperplanes, or None.

    The linear divisors are taken sparsest first, and each one independent
    of those kept so far, by fraction-free elimination, is kept, up to n+1
    of them.  Row k of the integer matrix M is the kept divisor whose
    reduced row has its first nonzero entry in column k, and the unit row
    e_k for a column no kept divisor takes, so M is invertible and each kept
    divisor is the coordinate y_k of y = Mx.  ``adapted`` is the instance in
    the coordinates y: a kept divisor is y_k, and any other divisor f = r.x
    is its row r M^-1, scaled to a primitive integer row.  A constant factor
    on a divisor only scales the form, so every ideal of ``adapted`` is the
    ideal of the given instance carried by the coordinate change.  Residues,
    degrees and the validation record are those of ``vs``.

    None when a divisor is not linear, or when every kept divisor is a
    multiple of a coordinate already.
    """
    rows = [_linear_row(f) for f in vs.divisors]
    if None in rows:
        return None
    arity = vs.arity
    matrix = [[int(j == k) for j in range(arity)] for k in range(arity)]
    echelon = []  # (pivot column, kept row reduced against those before it)
    kept = {}     # divisor index -> its coordinate
    for i in sorted(range(vs.s), key=lambda i: len(vs.divisors[i].num)):
        row = rows[i]
        for col, head in echelon:
            if row[col]:
                row = _eliminate([row], head, col, 1)[0]
        col = next((c for c, a in enumerate(row) if a), None)
        if col is not None:
            echelon.append((col, row))
            matrix[col], kept[i] = rows[i], col
            if len(kept) == arity:
                break
    if all(arity - rows[i].count(0) == 1 for i in kept):
        return None
    # M is the identity outside the pivot rows, so expanding along its unit
    # rows leaves minors on the pivots, and on the pivots and k for column k
    pivots = sorted(kept.values())
    det = _minor([matrix[p] for p in pivots], pivots)
    layout = _layout(GREVLEX, arity, _width(1))
    divisors = []
    for i, row in enumerate(rows):
        if i in kept:
            new = {layout.weights[kept[i]]: 1}
        else:  # Cramer: (r M^-1)_k = det(M with row k replaced by r) / det(M)
            new = []
            for k in range(arity):
                cols = sorted({*pivots, k})
                new.append(_minor([row if j == k else matrix[j] for j in cols], cols) * det)
            g = math.gcd(*new)
            new = {w: c // g for w, c in zip(layout.weights, new) if c}
        divisors.append(_make(layout, new))
    spec = vs.spec
    adapted = FoliationSpec(spec.n, spec.q, divisors, spec.residue_matrix, spec.lambdas)
    return matrix, ValidatedSpec(adapted, vs.level, vs.degrees, vs.lambdas, vs.certificate)


def _minors_nonzero(matrix, prev) -> bool:
    """Whether every square minor of ``matrix`` of size two or more is
    nonzero, given that every entry is.

    Pivoting on the entry (i, c) by one ``_eliminate`` step, divided by
    ``prev``, leaves in the rows below i and the columns right of c the
    minors one size larger that extend the pivot (Sylvester's identity, as
    in Bareiss's elimination), and the same walk on them gives the next
    size.  A minor on rows i_1 < ... < i_k and columns c_1 < ... < c_k is
    taken once, under the pivots (i_1, c_1), ..., (i_(k-1), c_(k-1)), and
    the walk stops at the first zero."""
    for i, head in enumerate(matrix[:-1]):
        for c in range(len(head) - 1):
            below = _eliminate([row[c:] for row in matrix[i + 1:]], head[c:], 0, prev)
            below = [row[1:] for row in below]
            if not all(map(all, below)) or not _minors_nonzero(below, head[c]):
                return False
    return True


def _general_position(rows) -> bool:
    """Whether every subset of at most min(s, arity) of the s integer rows
    is linearly independent.

    Such a subset lies in a subset of exactly m = min(s, arity) rows, and a
    subset of an independent set is independent, so the m-subsets decide.
    One fraction-free Gauss-Jordan elimination of the first m rows, on the
    transposed matrix, finds them dependent, or else finds their determinant
    p = +-det B when m = arity.  When s > arity the same elimination writes
    each of the r = s - arity other rows in the basis B, scaled by p: an
    integer r x arity matrix D.  The arity-subset that takes the other rows
    R in place of the basis rows C has determinant +-p^(1-|R|) det D[R, C],
    so the rows are in general position exactly when D has no zero entry
    and no zero square minor.  ``_minors_nonzero`` walks them from ``prev``
    = p, so each integer it holds is such a determinant, below Hadamard's
    bound for the rows; every integer of the elimination is a minor too.
    """
    arity, s = len(rows[0]), len(rows)
    columns = [list(column) for column in zip(*rows)]
    prev = 1
    for k in range(min(s, arity)):
        i = next((i for i in range(k, arity) if columns[i][k]), None)
        if i is None:  # row k is in the span of the rows before it
            return False
        columns[k], columns[i] = columns[i], columns[k]
        head = columns[k]
        others = _eliminate(columns[:k] + columns[k + 1:], head, k, prev)
        columns, prev = others[:k] + [head] + others[k:], head[k]
    if s <= arity:
        return True
    extra = [list(row) for row in zip(*(column[arity:] for column in columns))]
    return all(map(all, extra)) and _minors_nonzero(extra, prev)


def _subset_walk(divisors, rows) -> list:
    """The violations of ``transversality_violations``, found by visiting
    every subset of 2..min(s, arity) divisors; ``rows`` holds the integer
    row of each linear divisor and None for the others."""
    bad = []
    arity = divisors[0].arity
    max_size = min(len(divisors), arity)

    def visit(subset, height, rows, mixed, prev):
        # rows: one for each divisor after the subset, None when not linear
        size = len(subset)
        if size >= 2:
            if mixed:
                height = arity - krull_dimension(Ideal(arity, [divisors[i] for i in subset]))
            if height != size and height < arity:
                bad.append((subset, height))
        if size == max_size:
            return
        start = subset[-1] + 1 if subset else 0
        for k, row in enumerate(rows):
            later = rows[k + 1:]
            lead = None if mixed or row is None else next(filter(None, row), None)
            if lead and size + 1 < max_size:  # pivot on the first nonzero entry
                later = _eliminate(later, row, row.index(lead), prev)
            visit(subset + (start + k,), height + bool(lead), later, mixed or row is None,
                  lead or prev)

    visit((), 0, rows, False, 1)
    return sorted(bad, key=lambda item: (len(item[0]), item[0]))


def transversality_violations(divisors) -> list:
    """(K, height) for each subset K of the s divisors, of size
    2..min(s, arity), whose intersection has the wrong codimension, sorted
    by size and then by K.

    The arrangement is transversal at K when the ideal (f_i : i in K) has
    height |K| or defines the empty projective locus.  When every divisor
    is linear, ``_general_position`` first tries to certify that every
    subset is transversal: one elimination, and when s > arity the
    C(s, arity) - 1 minors of the coefficient rows that it leaves, one
    elimination step each; then the list is empty.  When the certificate
    fails, or a divisor is not linear, one depth-first walk visits the
    subsets in increasing index order, the sum over k <= min(s, arity) of
    C(s, k) nodes (247 for 8 planes on P^5, against 27 minors), to list the
    violations with their heights.  Each node holds the integer rows of the later linear
    divisors reduced against the echelon form of its own by fraction-free
    elimination, so a child costs one elimination step per later row and
    raises the height when its reduced row is nonzero.  A subset holding a
    divisor of higher degree goes through a Groebner basis.
    """
    rows = [_linear_row(f) for f in divisors]
    if None not in rows and _general_position(rows):
        return []
    return _subset_walk(divisors, rows)


def validate_spec(spec: FoliationSpec, level: str = "generic") -> ValidatedSpec:
    """Run the validation checks for ``level`` and return a ValidatedSpec.

    Raises SpecValidationError listing every failed check.  At ``full-snc``
    the transversality sweep covers subsets of every size up to min(s, n+1),
    so simple normal crossings are checked at every depth.
    """
    if level not in VALIDATION_LEVELS:
        raise ValueError(f"unknown validation level {level!r}")
    failures = []
    scalars, scale = _residue_scalars(spec)
    lam = {subset: Fraction(value, scale) for subset, value in scalars.items()}

    # homogeneity of each divisor
    degrees = []
    for i, f in enumerate(spec.divisors):
        degrees.append(f.homogeneous_degree() or None)
        if degrees[-1] is None:
            failures.append(ValidationFailure(
                "homogeneity", f"divisor {i + 1}",
                "must be homogeneous of positive degree"))
    homogeneous = all(d is not None for d in degrees)
    vs = ValidatedSpec(spec, level, tuple(degrees), lam)
    certificate = vs.certificate
    if homogeneous:
        certificate.append(f"homogeneity: degrees {tuple(degrees)}")

    # descent to projective space
    if homogeneous:
        if spec.mode == "matrix":
            for k, row in enumerate(spec.residue_matrix):
                weighted = sum(entry * d for entry, d in zip(row, degrees))
                if weighted != 0:
                    failures.append(ValidationFailure(
                        "descent", f"residue row {k + 1}",
                        f"degree-weighted sum is {weighted}, expected 0"))
            if not any(f.check == "descent" for f in failures):
                certificate.append("descent: every residue row is degree-orthogonal")
        else:
            vs.form = build_form(vs)
            if radial_contraction(vs.form).is_zero:
                certificate.append("descent: radial contraction of the built form is zero")
            else:
                failures.append(ValidationFailure(
                    "descent", "lambda table",
                    "radial contraction of the built form is nonzero"))

    if level in ("generic", "full-snc"):
        # the scalars share one positive scale, so their integers compare as they do
        by_value = {}
        for I, value in scalars.items():  # in increasing subset order
            by_value.setdefault(value, []).append(I)
        for I in by_value.get(0, ()):
            failures.append(ValidationFailure(
                "genericity", f"subset {format_subset(I)}", "residue scalar is zero"))
        for value, subsets in sorted(by_value.items()):
            if value != 0 and len(subsets) > 1:
                listed = ", ".join(format_subset(I) for I in subsets)
                failures.append(ValidationFailure(
                    "genericity", f"subsets {listed}",
                    f"residue scalar {Fraction(value, scale)} repeats: not pairwise distinct"))
        if not any(f.check == "genericity" for f in failures):
            certificate.append("genericity: residue scalars pairwise distinct and nonzero")

        if homogeneous:
            for i, f in enumerate(spec.divisors):
                # a nonzero linear form has a nonzero constant partial derivative
                if _linear_row(f) is None and krull_dimension(_jacobian_ideal(f)) > 0:
                    failures.append(ValidationFailure(
                        "smoothness", f"divisor {i + 1}",
                        "hypersurface is singular (Jacobian locus nonempty)"))
            if not any(f.check == "smoothness" for f in failures):
                certificate.append("smoothness: every divisor hypersurface is smooth")
        # positive-degree hypersurfaces on projective space are always ample
        certificate.append("ampleness: automatic for hypersurfaces on projective space")

    if level == "full-snc" and homogeneous:
        bound = min(spec.s, spec.n + 1)
        bad = transversality_violations(spec.divisors)
        for subset, height in bad:
            failures.append(ValidationFailure(
                "transversality", f"subset {format_subset(subset)}",
                f"intersection has codimension {height}, expected {len(subset)} or empty"))
        if not bad:
            certificate.append(f"transversality: all subsets of size <= {bound} are transversal")

    if failures:
        raise SpecValidationError(failures)
    return vs


def build_form(vs: ValidatedSpec) -> PForm:
    """The polynomial q-form sum_I lambda_I (prod_{j not in I} f_j) df_I."""
    arity = vs.arity
    differentials = [exterior_derivative(PForm(arity, 0, {(): f})) for f in vs.divisors]
    total = PForm(arity, vs.q)
    for subset in sorted(vs.lambdas):
        scalar = vs.lambdas[subset]
        if scalar == 0:
            continue
        df_block = reduce(wedge, (differentials[i] for i in subset))
        total = total + df_block * (vs.complements[subset] * scalar)
    return total


def degenerate_strata(lambdas: dict, q: int, s: int) -> list:
    """(q+1)-subsets where the alternating sum of the boundary residues is zero.

    At such a stratum the differential of the built form vanishes to higher
    order, the stratum escapes the Kupka locus, and the locus-level theorems
    are not expected to hold.  For q = 1 the condition coincides with the
    residues being pairwise distinct; for larger q it is strictly stronger
    and is the practical meaning of a generic residue choice.
    """
    bad = []
    for K in itertools.combinations(range(s), q + 1):
        total = Fraction(0)
        for k, omit in enumerate(K):
            subset = tuple(i for i in K if i != omit)
            term = lambdas.get(subset, Fraction(0))
            total += term if k % 2 == 0 else -term
        if total == 0:
            bad.append(K)
    return bad

