"""Command-line front end.

Four commands operate on JSON spec files (the schema is documented in
README.md and enforced here):

* ``check``    validate a spec and print its certificate; it builds the
               form only for the descent test of a raw ``lambdas`` table,
               and never tests the form for zero;
* ``compute``  print reduced Groebner generators and projective dimensions
               of the singular / Kupka / persistent ideals;
* ``verify``   run the checks of ``schemes.CHECKS`` and report each one;
* ``batch``    verify a directory of specs, or N freshly generated random
               instances, optionally in parallel.

Verdicts and exit codes:

* 0 ``pass``: every check run passed (``check``: the spec validates);
* 1 ``error``: the spec file cannot be read or parsed, the report cannot
  be written, or a batch instance raised an unexpected exception;
* 2 ``validation-failed``: the spec fails its validation level, or its
  form is zero; ``precondition-failed``: no check failed, but some were
  skipped because the instance breaks the paper's hypotheses;
* 3 ``fail``: a check failed.

Machine-format reports are deterministic for a fixed spec and seed up to
the ``seconds`` fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .foliation import (
    VALIDATION_LEVELS,
    FoliationSpec,
    SpecValidationError,
    ValidationFailure,
    validate_spec,
)
from .groebner import ideal_equal
from .poly import PolyParseError, parse_poly, poly_to_str
from .sampling import instance_menu, random_validated_spec
from .schemes import CHECKS, SchemeIdeals, ideal_block, run_checks

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_CHECKS = 3

ALL_CHECKS = tuple(CHECKS)

# ends the name of each report ``batch --output`` writes; spec listings skip them
REPORT_SUFFIX = ".report.json"

# The largest ambient dimension a spec may declare.  Each monomial weight is
# an int of about 8(n+1) bits, so work and memory grow with (n+1)^2: three
# lines on P^2000 verify in 0.6 s and 50 MiB, on P^10000 in 18 s and 925 MiB.
# Divisors are read and printed one packed monomial per term, so a dense
# linear form on P^2000 parses in about 0.04 s and prints in about 0.013 s.
MAX_N = 2000


class SpecFileError(Exception):
    """Unreadable, unparsable or schema-violating spec file."""


class OutputError(Exception):
    """A report, or the directory for reports, that cannot be written."""


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SpecFileError(f"{where}: expected an integer or 'a/b' string, got {value!r}")
    if isinstance(value, str) and "e" in value.lower():
        # "1e7000000" would stand for a 7-million-digit integer
        raise SpecFileError(f"{where}: exponent notation is not accepted")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"{where}: {exc}") from None


def _subset_key(key: str, q: int, s: int) -> tuple:
    try:
        parts = tuple(int(p) for p in key.split(","))
    except ValueError:
        raise SpecFileError(f"lambdas key {key!r} is not a comma-separated index list") from None
    if len(parts) != q:
        raise SpecFileError(f"lambdas key {key!r} must list exactly q={q} indices")
    if list(parts) != sorted(set(parts)):
        raise SpecFileError(f"lambdas key {key!r} must be strictly increasing")
    if parts[0] < 1 or parts[-1] > s:
        raise SpecFileError(f"lambdas key {key!r} out of range 1..{s}")
    return tuple(p - 1 for p in parts)


class SpecDocument:
    """A parsed spec file: the foliation data plus run options."""

    def __init__(self, name, spec, level, checks, variables):
        self.name = name
        self.spec = spec
        self.level = level
        self.checks = checks
        self.variables = variables

    def echo(self) -> dict:
        spec = self.spec
        out = {
            "n": spec.n,
            "q": spec.q,
            "divisors": [poly_to_str(f, self.variables) for f in spec.divisors],
            "validation_level": self.level,
            "checks": list(self.checks),
        }
        if self.variables:
            out["variables"] = list(self.variables)
        if spec.residue_matrix is not None:
            out["residue_matrix"] = [[str(c) for c in row] for row in spec.residue_matrix]
        else:
            out["lambdas"] = {
                ",".join(str(i + 1) for i in subset): str(value)
                for subset, value in sorted(spec.lambdas.items())
            }
        return out


def parse_spec_document(data: dict, name: str) -> SpecDocument:
    if not isinstance(data, dict):
        raise SpecFileError("spec file must contain a JSON object")
    for field in ("n", "q", "divisors"):
        if field not in data:
            raise SpecFileError(f"missing required field {field!r}")
    n, q = data["n"], data["q"]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, q)):
        raise SpecFileError("'n' and 'q' must be integers")
    if n < 2:
        raise SpecFileError("ambient projective dimension must be at least 2")
    if n > MAX_N:
        raise SpecFileError(f"ambient projective dimension {n} is above the limit {MAX_N}")
    divisor_strings = data["divisors"]
    if not isinstance(divisor_strings, list) or not divisor_strings:
        raise SpecFileError("'divisors' must be a non-empty list of polynomial strings")
    variables = data.get("variables")
    if variables is not None:
        if (not isinstance(variables, list)
                or not all(isinstance(v, str) for v in variables)
                or len(variables) != n + 1
                or len(set(variables)) != n + 1):
            raise SpecFileError(f"'variables' must list {n + 1} distinct names")
    divisors = []
    for i, text in enumerate(divisor_strings):
        if not isinstance(text, str):
            raise SpecFileError(f"divisor {i + 1} must be a polynomial string")
        try:
            divisors.append(parse_poly(text, n + 1, names=variables))
        except PolyParseError as exc:
            raise SpecFileError(f"divisor {i + 1}: {exc}") from None
    s = len(divisors)

    has_matrix = "residue_matrix" in data
    has_lambdas = "lambdas" in data
    if has_matrix == has_lambdas:
        raise SpecFileError("exactly one of 'residue_matrix' and 'lambdas' must be present")
    matrix = None
    lambdas = None
    if has_matrix:
        raw = data["residue_matrix"]
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise SpecFileError("'residue_matrix' must be a list of rows, each a list")
        matrix = [[_rational(entry, f"residue_matrix[{k + 1}]") for entry in row]
                  for k, row in enumerate(raw)]
    else:
        raw = data["lambdas"]
        if not isinstance(raw, dict):
            raise SpecFileError("'lambdas' must be an object keyed by subsets like '1,3'")
        lambdas = {_subset_key(key, q, s): _rational(value, f"lambdas[{key}]")
                   for key, value in raw.items()}

    level = data.get("validation_level", "generic")
    if level not in VALIDATION_LEVELS:
        raise SpecFileError(f"unknown validation_level {level!r}")
    checks = data.get("checks", list(ALL_CHECKS))
    if not isinstance(checks, list) or any(c not in ALL_CHECKS for c in checks):
        raise SpecFileError(f"'checks' entries must come from {ALL_CHECKS}")

    try:
        spec = FoliationSpec(n, q, divisors, residue_matrix=matrix, lambdas=lambdas)
    except (ValueError, TypeError) as exc:
        raise SpecFileError(str(exc)) from None
    return SpecDocument(name, spec, level, tuple(checks), variables)


def load_spec_file(path: str) -> SpecDocument:
    """Read and parse one spec file; every way it can fail is a SpecFileError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise SpecFileError(f"{path} cannot be parsed as JSON: {exc}") from None
    except RecursionError:
        raise SpecFileError(f"{path} nests JSON too deeply to read") from None
    return parse_spec_document(data, os.path.basename(path))


# ---------------------------------------------------------------------------
# running commands on a document
# ---------------------------------------------------------------------------

def _validated(doc: SpecDocument, command: str, waive: bool = False) -> tuple:
    """Validate the document; returns (report holding the validation block,
    ValidatedSpec or None).  A report without a ValidatedSpec is final."""
    try:
        vs = validate_spec(doc.spec, doc.level)
        block = {"status": "pass", "level": doc.level, "certificate": list(vs.certificate)}
    except SpecValidationError as err:
        failures = [str(f) for f in err.failures]
        vs, block = None, {"status": "fail", "level": doc.level, "failures": failures}
        if waive:
            try:
                vs = validate_spec(doc.spec, "basic")
                block = {"status": "waived", "level": doc.level,
                         "waived_failures": failures,
                         "certificate": list(vs.certificate)}
            except SpecValidationError as basic_err:
                block = {"status": "fail", "level": "basic",
                         "failures": [str(f) for f in basic_err.failures]}
    report = {
        "engine": {"name": "logfol", "version": __version__},
        "command": command,
        "spec": doc.echo(),
        "name": doc.name,
        "validation": block,
    }
    if vs is None:
        report["verdict"] = "validation-failed"
    return report, vs


def _instance(doc: SpecDocument, command: str, waive: bool = False) -> tuple:
    """Like ``_validated``, for commands that need the form: returns (report,
    SchemeIdeals or None), and a zero form fails validation."""
    report, vs = _validated(doc, command, waive)
    if vs is None:
        return report, None
    ids = SchemeIdeals(vs)
    if ids.form.is_zero:
        failure = ValidationFailure("nonzero-form", "built form", "every coefficient is zero")
        report["validation"] = {"status": "fail", "level": report["validation"]["level"],
                                "failures": [str(failure)]}
        report["verdict"] = "validation-failed"
        return report, None
    return report, ids


def run_check(doc: SpecDocument) -> tuple:
    report, vs = _validated(doc, "check")
    if vs is None:
        return report, EXIT_VALIDATION
    report["verdict"] = "pass"
    return report, EXIT_OK


def run_compute(doc: SpecDocument, which: str) -> tuple:
    report, ids = _instance(doc, "compute")
    if ids is None:
        return report, EXIT_VALIDATION
    out = {}
    if which in ("sing", "all"):
        out["singular"] = ideal_block(ids, ids.singular)
    if which in ("kupka", "all"):
        out["kupka"] = ideal_block(ids, ids.kupka)
    if which in ("persistent", "all"):
        out["persistent_sum"] = ideal_block(ids, ids.persistent_sum)
        out["persistent_cap"] = ideal_block(ids, ids.persistent_cap)
        out["persistent_equal"] = ideal_equal(ids.persistent_sum, ids.persistent_cap)
    report["ideals"] = out
    report["verdict"] = "pass"
    return report, EXIT_OK


def run_verify(doc: SpecDocument, waive: bool = False) -> tuple:
    report, ids = _instance(doc, "verify", waive)
    if ids is None:
        return report, EXIT_VALIDATION
    report["checks"] = results = run_checks(ids, doc.checks, waive)
    failed = [r["name"] for r in results if r["status"] == "fail"]
    if failed:
        report["failed_checks"] = failed
        report["verdict"], code = "fail", EXIT_CHECKS
    elif any(r["status"] == "skipped" for r in results):
        report["verdict"], code = "precondition-failed", EXIT_VALIDATION
    else:
        report["verdict"], code = "pass", EXIT_OK
    return report, code


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------

def _batch_worker(item) -> dict:
    """Verify one batch document; any exception is that document's ``error``."""
    doc, waive = item
    try:
        report, code = run_verify(doc, waive)
    except Exception as exc:  # one bad instance must not abort the batch
        return {"name": doc.name, "verdict": "error",
                "error": f"{type(exc).__name__}: {exc}", "exit_code": EXIT_IO}
    report["exit_code"] = code
    return report


def generate_batch_specs(count: int, seed: int, level: str) -> list:
    """Deterministic batch of random instance documents for a seed."""
    rng = random.Random(seed)
    menu = instance_menu()
    docs = []
    for i in range(count):
        n, q, s = menu[rng.randrange(len(menu))]
        vs = random_validated_spec(rng, n, q, s, level=level)
        docs.append(SpecDocument(f"random-{i:04d}", vs.spec, level, ALL_CHECKS, None))
    return docs


def run_batch(target: str, seed: int, workers: int, level: str | None,
              waive: bool, output_dir: str | None) -> tuple:
    if output_dir:  # before any work, so an unwritable one fails at once
        try:
            os.makedirs(output_dir, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot write {output_dir}: {exc.strerror}") from None
    errors = []
    if target.isdigit():
        docs = generate_batch_specs(int(target), seed, level or "full-snc")
    else:
        if not os.path.isdir(target):
            raise SpecFileError(f"{target} is neither a directory nor an instance count")
        paths = sorted(p for p in os.listdir(target)
                       if p.endswith(".json") and not p.endswith(REPORT_SUFFIX))
        if not paths:
            raise SpecFileError(f"no .json spec files in {target}")
        docs = []
        for p in paths:
            try:
                doc = load_spec_file(os.path.join(target, p))
            except SpecFileError as exc:
                errors.append({"name": p, "verdict": "error", "error": str(exc),
                               "exit_code": EXIT_IO})
                continue
            if level:
                doc.level = level
            docs.append(doc)

    items = [(doc, waive) for doc in docs]
    if workers > 1 and len(items) > 1:
        import concurrent.futures  # here, so that other commands start without it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_batch_worker, items))
    else:
        reports = [_batch_worker(item) for item in items]
    reports = sorted(reports + errors, key=lambda r: r["name"])

    if output_dir:
        for report in reports:
            stem = report["name"]
            if stem.endswith(".json"):
                stem = stem[:-5]
            path = os.path.join(output_dir, stem + REPORT_SUFFIX)
            _atomic_write(path, _machine_text(report))

    summary = {
        "engine": {"name": "logfol", "version": __version__},
        "command": "batch",
        "seed": seed,
        "count": len(reports),
        "results": [{"name": r["name"], "verdict": r["verdict"],
                     "exit_code": r["exit_code"]} for r in reports],
        "reports": reports,
    }
    worst = max((r["exit_code"] for r in reports), default=EXIT_OK)
    # the verdict of the first report, by name, with the batch's exit code
    summary["verdict"] = "pass" if worst == EXIT_OK else next(
        r["verdict"] for r in reports if r["exit_code"] == worst)
    return summary, worst


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _machine_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _human_lines(report: dict) -> list:
    lines = [f"logfol {report.get('command', '?')}: {report.get('name', '')}".rstrip()]
    validation = report.get("validation")
    if validation:
        lines.append(f"validation [{validation['level']}]: {validation['status']}")
        for entry in validation.get("certificate", []):
            lines.append(f"  · {entry}")
        for entry in validation.get("failures", []) + validation.get("waived_failures", []):
            prefix = "waived" if validation["status"] == "waived" else "failed"
            lines.append(f"  ! {prefix}: {entry}")
    for check in report.get("checks", []):
        status = check["status"].upper()
        lines.append(f"check {check['name']}: {status} ({check['seconds'] * 1000:.1f} ms)")
        for key, value in sorted(check["details"].items()):
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value) or "(none)"
            lines.append(f"    {key}: {value}")
    ideals = report.get("ideals")
    if ideals:
        for name, block in sorted(ideals.items()):
            if isinstance(block, dict):
                gens = ", ".join(block["generators"]) or "(zero ideal)"
                lines.append(f"{name}: dim {block['projective_dimension']}  [{gens}]")
            else:
                lines.append(f"{name}: {block}")
    results = report.get("results")
    if results is not None:
        lines.append(f"batch of {report['count']} (seed {report.get('seed')})")
        for row in results:
            lines.append(f"  {row['name']}: {row['verdict']}")
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict'].upper()}")
    return lines


def emit(report: dict, fmt: str, output: str | None) -> None:
    if fmt == "machine":
        text = _machine_text(report)
    else:
        text = "\n".join(_human_lines(report)) + "\n"
    if output:
        _atomic_write(output, text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader is gone: what is still buffered, and the interpreter's
        # last flush at exit, go to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError(f"cannot write <stdout>: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    parser.add_argument("--output", metavar="PATH", default=None)
    parser.add_argument("--level", choices=VALIDATION_LEVELS, default=None,
                        help="override the validation level declared in the spec file")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="logfol",
        description="Singular, Kupka and persistent-singularity ideals of "
                    "logarithmic foliations on projective space.")
    parser.add_argument("--version", action="version", version=f"logfol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a spec file")
    p_check.add_argument("spec")
    _add_common(p_check)

    p_compute = sub.add_parser("compute", help="compute scheme ideals")
    p_compute.add_argument("spec")
    p_compute.add_argument("--which", choices=("sing", "kupka", "persistent", "all"),
                           default="all")
    _add_common(p_compute)

    p_verify = sub.add_parser("verify", help="run the structural checks")
    p_verify.add_argument("spec")
    p_verify.add_argument("--waive-preconditions", action="store_true")
    _add_common(p_verify)

    p_batch = sub.add_parser("batch", help="verify a directory of specs or N random instances")
    p_batch.add_argument("target", help="directory of .json specs, or an instance count")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--workers", type=int, default=1)
    p_batch.add_argument("--waive-preconditions", action="store_true")
    _add_common(p_batch)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "batch":
            report, code = run_batch(args.target, args.seed, args.workers,
                                     args.level, args.waive_preconditions,
                                     args.output)
            emit(report, args.format, None)
            return code
        doc = load_spec_file(args.spec)
        if args.level:
            doc.level = args.level
        if args.command == "check":
            report, code = run_check(doc)
        elif args.command == "compute":
            report, code = run_compute(doc, args.which)
        else:
            report, code = run_verify(doc, args.waive_preconditions)
        emit(report, args.format, args.output)
        return code
    except (SpecFileError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
