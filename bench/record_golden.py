"""Record ``golden.json``: the expected answers for the verify and batch pools.

Run from the root of a checkout, with SymPy installed::

    python3 bench/record_golden.py

Every pool instance is verified with ``logfol verify``; the report must pass,
and each of its five reduced generator lists is cross-checked with
``sympy.groebner`` before its digest is stored:

* every list is a reduced grevlex Groebner basis of itself;
* the singular ideal equals the ideal of the coefficients of the q-form,
  built here from the spec with SymPy;
* both persistent ideals equal the ideal of the complementary products
  (the arrangement identity holds for these transversal instances), and
  every persistent generator lies in each ideal (f_i : i in K);
* the Kupka ideal contains the singular ideal and annihilates d(omega)
  modulo it; the residual ideal contains the singular ideal.

The run aborts, writing nothing, if any cross-check fails.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import itertools
import json
import multiprocessing
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def _sympy_setup(doc):
    import sympy

    xs = sympy.symbols(f"x0:{doc['n'] + 1}")
    names = {str(x): x for x in xs}

    def parse(text):
        return sympy.sympify(text.replace("^", "**"), locals=names)

    return sympy, xs, parse


def _form_coefficients(sympy, xs, divisors, matrix, q):
    """Coefficients of omega = sum_I lambda_I prod_{j not in I} f_j df_I, by dx_J."""
    s = len(divisors)
    coeffs = {}
    for I in itertools.combinations(range(s), q):
        lam = sympy.Matrix([[row[i] for i in I] for row in matrix]).det()
        rest = sympy.Mul(*[divisors[j] for j in range(s) if j not in I])
        for J in itertools.combinations(range(len(xs)), q):
            jac = sympy.Matrix([[sympy.diff(divisors[i], xs[j]) for j in J] for i in I]).det()
            coeffs[J] = coeffs.get(J, 0) + lam * jac * rest
    return {J: sympy.expand(c) for J, c in coeffs.items() if sympy.expand(c) != 0}


def _exterior_derivative(sympy, xs, coeffs):
    out = {}
    for J, c in coeffs.items():
        for l in range(len(xs)):
            if l in J:
                continue
            L = tuple(sorted(J + (l,)))
            sign = (-1) ** sum(1 for j in J if j < l)
            out[L] = out.get(L, 0) + sign * sympy.diff(c, xs[l])
    return [sympy.expand(c) for c in out.values() if sympy.expand(c) != 0]


def cross_check(doc: dict, gens: dict) -> list:
    """Problems found by SymPy in one instance's five generator lists."""
    sympy, xs, parse = _sympy_setup(doc)

    def gb(polys):
        return sympy.groebner(polys, *xs, order="grevlex", domain="QQ")

    def same(basis, strings):
        return {sympy.expand(e) for e in basis.exprs} == {sympy.expand(parse(t)) for t in strings}

    def inside(strings, basis):
        return all(basis.reduce(parse(t))[1] == 0 for t in strings)

    problems = []
    bases = {}
    for name, strings in gens.items():
        bases[name] = gb([parse(t) for t in strings])
        if not same(bases[name], strings):
            problems.append(f"{name}: not a reduced Groebner basis")
    divisors = [parse(t) for t in doc["divisors"]]
    q, s = doc["q"], len(divisors)
    omega = _form_coefficients(sympy, xs, divisors, doc["residue_matrix"], q)
    if not same(gb(list(omega.values())), gens["singular"]):
        problems.append("singular: differs from the form's coefficient ideal")
    products = [sympy.Mul(*[divisors[j] for j in range(s) if j not in I])
                for I in itertools.combinations(range(s), q)]
    products_gb = gb(products)
    for name in ("persistent_sum", "persistent_cap"):
        if not same(products_gb, gens[name]):
            problems.append(f"{name}: differs from the complementary-product ideal")
    for K in itertools.combinations(range(s), q + 1):
        if not inside(gens["persistent_cap"], gb([divisors[i] for i in K])):
            problems.append(f"persistent_cap: not inside the ideal of divisors {K}")
    singular_gb = bases["singular"]
    for name in ("kupka", "residual"):
        if not inside(gens["singular"], bases[name]):
            problems.append(f"{name}: does not contain the singular ideal")
    d_omega = _exterior_derivative(sympy, xs, omega)
    for t in gens["kupka"]:
        h = parse(t)
        if any(singular_gb.reduce(sympy.expand(h * b))[1] != 0 for b in d_omega):
            problems.append(f"kupka: {t} does not annihilate d(omega) modulo the singular ideal")
            break
    return problems


def record_one(item) -> tuple:
    workload, label, doc = item
    sys.path.insert(0, run.SRC)
    from logfol import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", path, "--format", "machine"])
    report = json.loads(out.getvalue())
    if code != 0 or report["verdict"] != "pass":
        return workload, label, None, [f"verify exit {code}, verdict {report['verdict']}"]
    gens = run.ideal_generators(report)
    entry = {"spec": run.digest(doc),
             "ideals": {name: run.digest(gens[name]) for name in run.IDEALS},
             "sizes": {name: len(gens[name]) for name in run.IDEALS}}
    return workload, label, entry, cross_check(doc, gens)


def main() -> int:
    items = [("verify-p4", k, doc) for k, doc in run.verify_pool().items()]
    items += [("batch-p2p3", k, doc) for k, doc in run.batch_pool().items()]
    golden = {"verify-p4": {}, "batch-p2p3": {}}
    failures = []
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        for workload, label, entry, problems in pool.map(record_one, items):
            print(f"{workload} {label}: {'ok' if not problems else problems}", flush=True)
            if problems:
                failures.append((workload, label, problems))
            else:
                golden[workload][label] = entry
    if failures:
        print(f"{len(failures)} instance(s) failed the cross-check; golden.json unchanged",
              file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
