"""Seeded instance generator and exact hypothesis oracle for the benchmark.

This module is independent of ``logfol``: it writes spec documents as plain
JSON-ready dicts and decides the paper's hypotheses with its own integer
arithmetic, so a change to the program's sampler or validator cannot change
what the benchmark asks or what it expects.

Hyperplane arrangements are integer coefficient rows, one row per linear
form over x0..xn.  The hypotheses the oracle decides are

* transversality: every subset of k forms, k up to min(s, n+1), has rank k;
* genericity: the q x q minors of the residue matrix are nonzero and
  pairwise distinct;
* non-degeneracy: no (q+1)-subset has a zero alternating sum of the minors
  of its q-subsets.

All randomness flows through a ``random.Random`` built from the caller's
seed, so the same seed always gives the same instances.
"""

from __future__ import annotations

import itertools
import random

# Specs that violate transversality only above depth q+2 are drawn only on
# request: the program's full-snc sweep stops at q+2 and wrongly passes them.
CHECK_BAD_KINDS = ("depth-2", "depth-q+2", "repeated-residue")
ABOVE_Q2 = "above-q+2"


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == len(m):
            break
    return r


def det(matrix) -> int:
    """Determinant of a small integer matrix by cofactor expansion."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = 0
    for col in range(len(matrix)):
        sub = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = matrix[0][col] * det(sub)
        total += term if col % 2 == 0 else -term
    return total


def minors(matrix, q: int) -> dict:
    """The q x q minor of the residue matrix on each q-subset of columns."""
    s = len(matrix[0])
    return {I: det([[row[i] for i in I] for row in matrix])
            for I in itertools.combinations(range(s), q)}


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def first_violation_depth(forms, n: int):
    """Smallest k <= min(s, n+1) with a k-subset of rank < k, or None."""
    for k in range(2, min(len(forms), n + 1) + 1):
        for subset in itertools.combinations(forms, k):
            if rank(subset) < k:
                return k
    return None


def degenerate_strata(lam: dict, q: int, s: int) -> list:
    bad = []
    for K in itertools.combinations(range(s), q + 1):
        total = sum((-1) ** k * lam[K[:k] + K[k + 1:]] for k in range(q + 1))
        if total == 0:
            bad.append(K)
    return bad


def residues_generic(matrix, q: int) -> bool:
    lam = minors(matrix, q)
    values = list(lam.values())
    return (all(values) and len(set(values)) == len(values)
            and not degenerate_strata(lam, q, len(matrix[0])))


def satisfies_hypotheses(forms, matrix, n: int, q: int) -> bool:
    """Transversal at every depth, with generic, non-degenerate residues."""
    return first_violation_depth(forms, n) is None and residues_generic(matrix, q)


# ---------------------------------------------------------------------------
# drawing arrangements and residues
# ---------------------------------------------------------------------------

def _dense_row(rng, arity: int, span: int) -> list:
    return [rng.choice([c for c in range(-span, span + 1) if c]) for _ in range(arity)]


def general_position_forms(rng, n: int, s: int, coordinates: int = 0,
                           span: int = 3) -> list:
    """s integer linear forms on P^n in general position: ``coordinates``
    distinct coordinate hyperplanes, the rest dense with entries in +-1..span."""
    arity = n + 1
    while True:
        forms = [[int(j == i) for j in range(arity)]
                 for i in rng.sample(range(arity), coordinates)]
        forms += [_dense_row(rng, arity, span) for _ in range(s - coordinates)]
        rng.shuffle(forms)
        if first_violation_depth(forms, n) is None:
            return forms


def generic_residues(rng, q: int, s: int, span: int) -> list:
    """A q x s integer residue matrix with zero row sums and generic minors."""
    while True:
        matrix = []
        for _ in range(q):
            head = [rng.randint(-span, span) for _ in range(s - 1)]
            matrix.append(head + [-sum(head)])
        if residues_generic(matrix, q):
            return matrix


def repeated_residues(rng, q: int, s: int, span: int) -> list:
    """Zero row sums, nonzero minors, but two q-subsets share a minor."""
    while True:
        if q == 1:
            head = [rng.randint(-span, span) for _ in range(s - 2)]
            head.append(head[rng.randrange(s - 2)])
            matrix = [head + [-sum(head)]]
        else:
            matrix = []
            for _ in range(q):
                head = [rng.randint(-span, span) for _ in range(s - 1)]
                matrix.append(head + [-sum(head)])
        values = list(minors(matrix, q).values())
        if all(values) and len(set(values)) < len(values):
            return matrix


def _dependent_form(rng, basis: list, span: int = 2) -> list:
    """A combination of ``basis`` with every coefficient nonzero."""
    coeffs = [rng.choice([c for c in range(-span, span + 1) if c]) for _ in basis]
    return [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(len(basis[0]))]


def check_arrangement(rng, kind: str, n: int, q: int, s: int) -> list:
    """Forms whose first transversality violation matches ``kind``."""
    top = min(s, n + 1)
    while True:
        if kind == "depth-2":
            depth = 2
        elif kind == "depth-q+2":
            depth = q + 2
        elif kind == "above-q+2":
            depth = rng.randint(q + 3, top)
        else:
            return general_position_forms(rng, n, s)
        forms = general_position_forms(rng, n, s - 1)
        dependent = _dependent_form(rng, forms[:depth - 1])
        forms.insert(rng.randrange(s), dependent)
        if first_violation_depth(forms, n) == depth:
            return forms


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------

def linear_form_text(row) -> str:
    parts = []
    for i, c in enumerate(row):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        body = f"x{i}" if abs(c) == 1 else f"{abs(c)}*x{i}"
        parts.append((sign, body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def spec_document(n: int, q: int, divisors: list, matrix, level: str) -> dict:
    return {
        "n": n,
        "q": q,
        "divisors": divisors,
        "residue_matrix": [[int(c) for c in row] for row in matrix],
        "validation_level": level,
    }


def hyperplane_spec(n, q, forms, matrix, level="full-snc") -> dict:
    return spec_document(n, q, [linear_form_text(f) for f in forms], matrix, level)


def verify_p4_instance(rng, q: int) -> dict:
    """Five hyperplanes on P^4 in general position, two of them dense."""
    forms = general_position_forms(rng, 4, 5, coordinates=3)
    matrix = generic_residues(rng, q, 5, span=9)
    return hyperplane_spec(4, q, forms, matrix)


BATCH_SHAPES = ((2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 3), (3, 1, 4), (3, 1, 5),
                (3, 2, 4), (3, 2, 5))

# The two quadric instances of the acceptance suite, verbatim.
FIXED_BATCH_SPECS = {
    "conics-p2": spec_document(
        2, 1, ["x0^2 + x1^2 + x2^2", "x0^2 + 2*x1^2 + 3*x2^2", "x0^2 - x1^2 + 2*x2^2"],
        [[1, 2, -3]], "full-snc"),
    "line-line-conic-p2": spec_document(
        2, 1, ["x0", "x1", "x0^2 + x1^2 + x2^2"], [[1, 3, -2]], "full-snc"),
}


def batch_instance(rng, n: int, q: int, s: int) -> dict:
    """General position, with as many coordinate hyperplanes as leave one dense form."""
    forms = general_position_forms(rng, n, s, coordinates=min(n, s - 1))
    matrix = generic_residues(rng, q, s, span=6)
    return hyperplane_spec(n, q, forms, matrix)


CHECK_SHAPES = tuple(itertools.product((4, 5), (1, 2), (6, 7, 8)))   # (n, q, s)


def check_spec(rng, n: int, q: int, s: int, kind: str) -> dict:
    """One ``check-snc`` spec of the given shape and kind."""
    forms = check_arrangement(rng, kind, n, q, s)
    if kind == "repeated-residue":
        matrix = repeated_residues(rng, q, s, span=12)
    else:
        matrix = generic_residues(rng, q, s, span=12)
    return hyperplane_spec(n, q, forms, matrix)


def check_plan(rng, per_shape: int, bad_kinds) -> list:
    """(n, q, s, kind) of every ``check-snc`` spec, in a seeded order.

    Each shape of ``CHECK_SHAPES`` gets ``per_shape`` specs, three quarters
    valid and the rest of ``bad_kinds`` in turn, so every seed asks the same
    mix of work and only the coefficients and the order change.
    """
    plan, turn = [], 0
    for n, q, s in CHECK_SHAPES:
        bad = per_shape // 4
        plan += [(n, q, s, "valid")] * (per_shape - bad)
        for _ in range(bad):
            plan.append((n, q, s, bad_kinds[turn % len(bad_kinds)]))
            turn += 1
    rng.shuffle(plan)
    return plan


def presentation(rng, doc: dict) -> dict:
    """The same hyperplane foliation written another way.

    The divisors are reordered, carrying their residue columns along, and
    some are negated.  The built form changes by a sign at most, so every
    ideal, and hence the golden answer, is that of ``doc``.  For q >= 2 a
    reordering can flip the signs of some minors and make two of them equal;
    such draws are rejected, so the result still satisfies the hypotheses.
    """
    forms = forms_of(doc)
    matrix = doc["residue_matrix"]
    s = len(forms)
    while True:
        perm = rng.sample(range(s), s)
        new_forms = [[-c for c in forms[i]] if rng.random() < 0.5 else forms[i]
                     for i in perm]
        new_matrix = [[row[i] for i in perm] for row in matrix]
        if residues_generic(new_matrix, doc["q"]):
            return hyperplane_spec(doc["n"], doc["q"], new_forms, new_matrix,
                                   doc["validation_level"])


def forms_of(doc: dict) -> list:
    """Integer coefficient rows of a hyperplane spec written by this module."""
    arity = doc["n"] + 1
    rows = []
    for text in doc["divisors"]:
        row = [0] * arity
        for sign, coeff, var in _terms(text):
            row[var] += sign * coeff
        rows.append(row)
    return rows


def _terms(text: str):
    tokens = text.replace("-", "+ -").split("+")
    for tok in tokens:
        tok = tok.replace(" ", "")
        if not tok:
            continue
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        coeff, _, var = tok.rpartition("*")
        if "^" in var:
            raise ValueError(f"not a linear form: {text!r}")
        yield sign, int(coeff) if coeff else 1, int(var[1:])


def expected_check_pass(doc: dict) -> bool:
    """The oracle's verdict on a hyperplane spec."""
    return satisfies_hypotheses(forms_of(doc), doc["residue_matrix"], doc["n"], doc["q"])


def rng_for(*parts) -> random.Random:
    """A generator seeded from a readable label, e.g. ('check-snc', 7)."""
    return random.Random(":".join(str(p) for p in parts))
