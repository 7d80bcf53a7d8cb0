import collections
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest

import logfol
from logfol import cli, foliation, groebner, poly, schemes
from logfol.cli import (
    EXIT_CHECKS,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_spec_document,
)

from conftest import strip_timings

GOOD_SPEC = {
    "n": 2,
    "q": 1,
    "divisors": ["x0", "x1", "x2"],
    "residue_matrix": [[1, 2, -3]],
    "validation_level": "full-snc",
}

CONICS_SPEC = {
    "n": 2,
    "q": 1,
    "divisors": ["x0^2 + x1^2 + x2^2", "x0^2 + 2*x1^2 + 3*x2^2", "x0^2 - x1^2 + 2*x2^2"],
    "residue_matrix": [[1, 2, -3]],
    "validation_level": "full-snc",
}

# specs that validate but build the zero form
ZERO_FORM_SPECS = {
    "zero-lambdas": {"n": 2, "q": 1, "divisors": ["x0", "x1", "x2"],
                     "lambdas": {"1": 0, "2": 0, "3": 0}, "validation_level": "basic"},
    "cancelling": {"n": 2, "q": 1, "divisors": ["x0", "2*x0", "x1", "3*x1"],
                   "residue_matrix": [[1, -1, 2, -2]], "validation_level": "generic"},
}

# six hyperplanes in general position on P^4, and the same with a repeated one
LINEAR_P4_SPEC = {
    "n": 4,
    "q": 1,
    "divisors": ["x0", "x1", "x2", "x3", "x4", "x0 + x1 + x2 + x3 + x4"],
    "residue_matrix": [[1, 2, 3, 4, 5, -15]],
    "validation_level": "full-snc",
}
REPEATED_P4_SPEC = dict(LINEAR_P4_SPEC, divisors=LINEAR_P4_SPEC["divisors"][:5] + ["-2*x3"])

# the six coordinate hyperplanes of P^5 and a dense one
LINEAR_P5_SPEC = {
    "n": 5,
    "q": 1,
    "divisors": ["x0", "x1", "x2", "x3", "x4", "x5", "-3*x0 + 2*x1 - x2 + 5*x3 - 7*x4 + 4*x5"],
    "residue_matrix": [[1, 2, 3, 4, 5, 6, -21]],
    "validation_level": "full-snc",
}

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "verify_reports.json")


def hyperplanes_spec(n, q, s):
    """s coordinate hyperplanes of P^n, cycling through x0..xn, with q rows
    of residues e_k - e_s."""
    return {"n": n, "q": q, "divisors": [f"x{i % (n + 1)}" for i in range(s)],
            "residue_matrix": [[int(j == k) - int(j == s - 1) for j in range(s)]
                               for k in range(q)],
            "validation_level": "basic"}


# specs whose fields have the wrong shape, and the error each one gives
MALFORMED_SPECS = {
    "matrix-row-not-a-list": (dict(GOOD_SPEC, residue_matrix=[7]),
                              "'residue_matrix' must be a list of rows"),
    "matrix-row-a-string": (dict(GOOD_SPEC, residue_matrix=["1", "1", "-2"]),
                            "'residue_matrix' must be a list of rows"),
    "variable-not-a-string": (dict(GOOD_SPEC, variables=[["a"], "b", "c"]),
                              "'variables' must list 3 distinct names"),
    "n-below-two": (dict(GOOD_SPEC, n=-1, divisors=["1"], residue_matrix=[[1]]),
                    "ambient projective dimension must be at least 2"),
    "q-a-boolean": (dict(GOOD_SPEC, q=True), "'n' and 'q' must be integers"),
    "divisor-200-parentheses-deep": (
        dict(GOOD_SPEC, divisors=["x0", "(" * 200 + "x1" + ")" * 200, "x2"]),
        "divisor 2: expression nested deeper than"),
    "divisor-5000-signs-deep": (dict(GOOD_SPEC, divisors=["x0", "x1", "-" * 5000 + "x2"]),
                                "divisor 3: expression nested deeper than"),
    "divisor-power-of-23426-terms": (
        dict(LINEAR_P4_SPEC,
             divisors=["x0", "(x0+2*x1+3*x2+5*x3)^50"] + LINEAR_P4_SPEC["divisors"][2:]),
        "divisor 2: a 4-term base to the power 50 can expand to more than 1000 terms"),
    "divisor-coefficient-of-6021-digits": (
        dict(GOOD_SPEC, divisors=["2^20000*x0 + x1", "x1", "x2"]),
        "divisor 1: a 1-term base to the power 20000 can have coefficients of more than"),
    # raw text: json.dumps cannot write an integer past Python's digit limit
    "matrix-entry-of-5000-digits": (
        json.dumps(GOOD_SPEC).replace("-3]]", "-" + "9" * 5000 + "]]"),
        "cannot be parsed as JSON: Exceeds the limit"),
    # each exponent is a 4300-digit literal, their sum has 4301 digits
    "divisor-degree-of-4301-digits": (
        dict(GOOD_SPEC, divisors=["x0^" + "9" * 4300 + "*x0^" + "9" * 4300, "x1", "x2"]),
        "divisor 1: the total degree has more than 4300 digits"),
    "divisor-literal-of-5000-digits": (
        dict(GOOD_SPEC, divisors=["x0", "x1", "7*x2 + " + "1" * 5000]),
        "divisor 3: integer literal of 5000 digits at position 7 is too long"),
    "residue-in-exponent-notation": (
        dict(GOOD_SPEC, residue_matrix=[["1e7000000", 2, -3]]),
        "residue_matrix[1]: exponent notation is not accepted"),
    # C(30, 14) = 145,422,675 residue minors
    "subsets-past-the-bound": (
        hyperplanes_spec(29, 14, 30),
        "30 divisors on P^29 have more than 100000 subsets of 2..30 of them to check"),
}


def write_spec(path, payload):
    """Write a spec object as JSON, or raw text as it stands."""
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                    encoding="utf-8")
    return str(path)


# -- exit codes ---------------------------------------------------------------

def test_check_valid_spec_exits_zero(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    assert main(["check", spec]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == EXIT_IO


def test_bad_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_IO
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"n": 2, "name": "caf\xe9"}')
    assert main(["check", str(latin1)]) == EXIT_IO
    folder = tmp_path / "x.json"
    folder.mkdir()
    assert main(["verify", str(folder)]) == EXIT_IO
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["check", str(deep)]) == EXIT_IO
    assert "nests JSON too deeply" in capsys.readouterr().err
    for label, (payload, message) in MALFORMED_SPECS.items():
        assert main(["check", write_spec(tmp_path / f"{label}.json", payload)]) == EXIT_IO
        assert message in capsys.readouterr().err, label


def test_bad_polynomial_exits_one(tmp_path, capsys):
    payload = dict(GOOD_SPEC, divisors=["x0 +", "x1", "x2"])
    assert main(["check", write_spec(tmp_path / "s.json", payload)]) == EXIT_IO
    for label in ("divisor-200-parentheses-deep", "divisor-5000-signs-deep",
                  "divisor-power-of-23426-terms", "divisor-coefficient-of-6021-digits"):
        payload, message = MALFORMED_SPECS[label]
        assert main(["verify", write_spec(tmp_path / "s.json", payload)]) == EXIT_IO
        assert f"error: {message}" in capsys.readouterr().err
    # 50 levels of parentheses still parse
    payload = dict(GOOD_SPEC, divisors=["x0", "(" * 50 + "x1" + ")" * 50, "x2"])
    assert main(["check", write_spec(tmp_path / "s.json", payload)]) == EXIT_OK


def test_subset_bound_refuses_before_any_work(tmp_path):
    """The bound is counted before validation: 30 hyperplanes of P^29 exit 1
    at once, and 84 lines of P^2, C(84, 2) + C(84, 3) = 98,770 subsets,
    still parse where 85, with 102,340, do not."""
    t0 = time.perf_counter()
    assert main(["check", write_spec(tmp_path / "s.json", hyperplanes_spec(29, 14, 30))]) == EXIT_IO
    assert time.perf_counter() - t0 < 2.0
    assert parse_spec_document(hyperplanes_spec(2, 1, 84), "84").spec.s == 84
    with pytest.raises(cli.SpecFileError, match="more than 100000 subsets of 2..3"):
        parse_spec_document(hyperplanes_spec(2, 1, 85), "85")


def test_unwritable_output_exits_one(tmp_path, capsys, monkeypatch):
    """An --output whose parent is a regular file: ``verify`` reports it, and
    ``batch`` does before it verifies any spec."""
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["verify", spec, "--output", str(blocker / "out.json")]) == EXIT_IO
    assert f"error: cannot write {blocker / 'out.json'}: " in capsys.readouterr().err
    calls = count_calls(monkeypatch, ((cli, "run_verify"),))
    assert main(["batch", str(tmp_path), "--output", str(blocker / "reports")]) == EXIT_IO
    assert f"error: cannot write {blocker / 'reports'}: " in capsys.readouterr().err
    assert calls == {}


def test_schema_violation_exits_one(tmp_path):
    payload = dict(GOOD_SPEC)
    payload["lambdas"] = {"1": 1}  # both residue forms present
    assert main(["check", write_spec(tmp_path / "s.json", payload)]) == EXIT_IO


def test_dimension_above_the_limit_exits_one_before_parsing(tmp_path, capsys):
    """n = 100,000 is refused at once, before the divisors are read (the
    second one would not parse), instead of running out of memory."""
    payload = dict(GOOD_SPEC, n=100_000, divisors=["x0", "x1 +", "x2"])
    start = time.perf_counter()
    assert main(["check", write_spec(tmp_path / "s.json", payload)]) == EXIT_IO
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: ambient projective dimension 100000 is above the limit {cli.MAX_N}\n")
    at_limit = dict(GOOD_SPEC, n=cli.MAX_N, validation_level="basic")
    assert parse_spec_document(at_limit, "limit").spec.n == cli.MAX_N


def test_validation_failure_exits_two(tmp_path, capsys):
    payload = dict(GOOD_SPEC, residue_matrix=[[1, 1, -2]], validation_level="generic")
    spec = write_spec(tmp_path / "s.json", payload)
    assert main(["check", spec]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "not pairwise distinct" in out


def test_descent_violation_names_row(tmp_path, capsys):
    payload = dict(GOOD_SPEC, residue_matrix=[[1, 2, -1]], validation_level="basic")
    assert main(["check", write_spec(tmp_path / "s.json", payload)]) == EXIT_VALIDATION
    assert "residue row 1" in capsys.readouterr().out


def test_verify_passes_on_worked_instance(tmp_path):
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    assert main(["verify", spec]) == EXIT_OK


def test_verify_one_piece_persistent_cap(tmp_path, capsys):
    """s = q+1: the cap intersects a single ideal, which it is; two lines of
    P^2 in general position, computed in adapted coordinates."""
    payload = {"n": 2, "q": 1, "divisors": ["x0 + x1", "x1 - x2"],
               "residue_matrix": [[1, -1]], "validation_level": "full-snc"}
    spec = write_spec(tmp_path / "s.json", payload)
    doc = cli.load_spec_file(spec)
    assert foliation.adapted_coordinates(foliation.validate_spec(doc.spec, "full-snc")) is not None
    assert main(["verify", spec, "--format", "machine"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    checks = {c["name"]: c for c in report["checks"]}
    persistent = checks["persistent"]["details"]
    assert persistent["sum"]["generators"] == persistent["cap"]["generators"]
    assert checks["lemma"]["details"]["ideals_equal"] is True


def test_waived_precondition_failure_exits_three(tmp_path, capsys):
    payload = dict(GOOD_SPEC, divisors=["x0", "x1", "x0 + x1"], checks=["lemma"])
    spec = write_spec(tmp_path / "s.json", payload)
    # without the waiver the spec does not validate at full-snc
    assert main(["verify", spec]) == EXIT_VALIDATION
    assert main(["verify", spec, "--waive-preconditions"]) == EXIT_CHECKS
    out = capsys.readouterr().out
    assert "precondition violated: snc at {1,2,3}" in out


def test_cone_fails_snc_at_depth_five(tmp_path, capsys):
    # five hyperplanes of P^4 through [1:0:0:0:0]: transversal up to depth 4
    payload = {"n": 4, "q": 1, "divisors": ["x3", "x1", "x2", "x4",
                                            "-2*x1 + 3*x2 - 3*x3 - x4"],
               "residue_matrix": [[-3, 1, -2, -1, 5]], "validation_level": "full-snc"}
    spec = write_spec(tmp_path / "cone.json", payload)
    assert main(["check", spec]) == EXIT_VALIDATION
    assert "subset {1,2,3,4,5}" in capsys.readouterr().out
    # at generic it validates; the decomposition reports the failed hypothesis
    generic = write_spec(tmp_path / "cone-generic.json",
                         dict(payload, validation_level="generic",
                              checks=["lemma", "decomposition"]))
    assert main(["verify", generic, "--format", "machine"]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert {c["status"] for c in report["checks"]} == {"skipped"}
    assert report["verdict"] == "precondition-failed"
    assert main(["verify", generic, "--waive-preconditions", "--format", "machine"]) == EXIT_CHECKS
    report = json.loads(capsys.readouterr().out)
    assert report["failed_checks"] == ["residual-dimension", "disjointness"]


def test_selected_checks_report_in_table_order():
    """A ``checks`` field out of order gives the entries of the full run it
    selects, in table order, with and without the waiver; the cone's failed
    hypothesis skips ``lemma`` and the decomposition without it."""
    cone = {"n": 4, "q": 1, "divisors": ["x3", "x1", "x2", "x4", "-2*x1 + 3*x2 - 3*x3 - x4"],
            "residue_matrix": [[-3, 1, -2, -1, 5]], "validation_level": "generic"}
    selected = parse_spec_document(dict(cone, checks=["decomposition", "sing", "lemma"]), "c")
    full = parse_spec_document(cone, "c")
    for waive in (False, True):
        entries = strip_timings(cli.run_verify(selected, waive)[0]["checks"])
        names = [e["name"] for e in entries]
        assert names == ["sing", "lemma"] + [n for n, _ in schemes.CHECKS["decomposition"][1]]
        every = strip_timings(cli.run_verify(full, waive)[0]["checks"])
        assert entries == [e for e in every if e["name"] in names]
        assert (entries[1]["status"] == "skipped") != waive


def test_zero_form_fails_validation(tmp_path, capsys, monkeypatch):
    for label, payload in ZERO_FORM_SPECS.items():
        spec = write_spec(tmp_path / f"{label}.json", payload)
        for command in ("verify", "compute"):
            assert main([command, spec, "--format", "machine"]) == EXIT_VALIDATION, label
            report = json.loads(capsys.readouterr().out)
            assert report["verdict"] == "validation-failed"
            assert report["validation"]["failures"] == [
                "[nonzero-form] built form: every coefficient is zero"]

    def no_form(vs):
        raise AssertionError("check built the form")

    # check validates a matrix-mode spec without building its form
    monkeypatch.setattr(foliation, "build_form", no_form)
    monkeypatch.setattr(schemes, "build_form", no_form)
    spec = write_spec(tmp_path / "cancelling.json", ZERO_FORM_SPECS["cancelling"])
    assert main(["check", spec]) == EXIT_OK


def test_level_override_flag(tmp_path):
    payload = dict(GOOD_SPEC, residue_matrix=[[1, 1, -2]], validation_level="basic")
    spec = write_spec(tmp_path / "s.json", payload)
    assert main(["check", spec]) == EXIT_OK
    assert main(["check", spec, "--level", "generic"]) == EXIT_VALIDATION


# -- reports ---------------------------------------------------------------------

def test_machine_report_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    assert main(["verify", spec, "--format", "machine"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify", spec, "--format", "machine"]) == EXIT_OK
    second = capsys.readouterr().out
    assert strip_timings(json.loads(first)) == strip_timings(json.loads(second))
    # everything except the timings is byte-stable
    a = json.dumps(strip_timings(json.loads(first)), sort_keys=True)
    b = json.dumps(strip_timings(json.loads(second)), sort_keys=True)
    assert a == b


def test_report_spec_roundtrip(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    assert main(["verify", spec, "--format", "machine"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    echoed = report["spec"]
    doc = parse_spec_document(echoed, "roundtrip")
    assert doc.echo() == echoed


def test_machine_report_written_to_file(tmp_path):
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    out_path = tmp_path / "report.json"
    assert main(["verify", spec, "--format", "machine", "--output", str(out_path)]) == EXIT_OK
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["verdict"] == "pass"
    assert report["engine"]["name"] == "logfol"


def test_compute_outputs_ideals(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    assert main(["compute", spec, "--which", "all", "--format", "machine"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    ideals = report["ideals"]
    assert ideals["singular"]["generators"] == ["x0*x1", "x0*x2", "x1*x2"]
    assert ideals["singular"]["projective_dimension"] == 0
    assert ideals["kupka"]["generators"] == ideals["singular"]["generators"]
    assert ideals["persistent_equal"] is True


def test_compute_single_ideal(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    assert main(["compute", spec, "--which", "sing", "--format", "machine"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report["ideals"]) == {"singular"}


def test_variables_override(tmp_path, capsys):
    payload = {
        "n": 2, "q": 1,
        "variables": ["u", "v", "w"],
        "divisors": ["u", "v", "w"],
        "residue_matrix": [[1, 2, -3]],
        "validation_level": "full-snc",
    }
    spec = write_spec(tmp_path / "s.json", payload)
    assert main(["compute", spec, "--format", "machine"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # reports are canonical: polynomials echo in the spec's own variables
    assert report["spec"]["divisors"] == ["u", "v", "w"]
    assert report["spec"]["variables"] == ["u", "v", "w"]


def test_echo_with_variables_checks_again(tmp_path, capsys):
    """``check`` on a report's echoed spec gives the same verdict and echo."""
    payload = {
        "n": 2, "q": 1,
        "variables": ["u", "v", "w"],
        "divisors": ["u^2 + 2*v*w", "v", "u - 3*w"],
        "residue_matrix": [[1, 2, -4]],
        "validation_level": "full-snc",
    }
    spec = write_spec(tmp_path / "s.json", payload)
    assert main(["check", spec, "--format", "machine"]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert first["spec"]["divisors"] == ["u^2 + 2*v*w", "v", "u - 3*w"]
    echoed = write_spec(tmp_path / "echo.json", first["spec"])
    assert main(["check", echoed, "--format", "machine"]) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    assert second["verdict"] == first["verdict"] == "pass"
    assert second["spec"] == first["spec"]


def test_lambdas_spec_file(tmp_path, capsys):
    payload = {
        "n": 2, "q": 1,
        "divisors": ["x0", "x1", "x2"],
        "lambdas": {"1": 1, "2": 2, "3": -3},
        "validation_level": "generic",
    }
    spec = write_spec(tmp_path / "s.json", payload)
    assert main(["verify", spec, "--format", "machine"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["spec"]["lambdas"] == {"1": "1", "2": "2", "3": "-3"}


def test_lambda_subset_key_errors(tmp_path):
    for key in ("0", "1,1", "2,1", "1,2,3"):
        payload = {
            "n": 2, "q": 1,
            "divisors": ["x0", "x1", "x2"],
            "lambdas": {key: 1},
        }
        assert main(["check", write_spec(tmp_path / "s.json", payload)]) == EXIT_IO


def count_calls(monkeypatch, targets) -> collections.Counter:
    """Count the calls of each (module, name) in ``targets`` by name."""
    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_verify_builds_each_ideal_and_sweep_once(monkeypatch):
    """One ``verify`` builds the form, each ideal, the sweep and the report
    fields of each hypothesis gate once: the worked P^2 spec, the conics, and
    a raw table with a conic, whose form its descent test built."""
    raw_conic = {"n": 2, "q": 1, "divisors": ["x0", "x1", "x0^2 + x1^2 + x2^2"],
                 "lambdas": {"1": 1, "2": 3, "3": -2}}
    for payload in (GOOD_SPEC, CONICS_SPEC, raw_conic):
        with monkeypatch.context() as patch:
            calls = count_calls(patch, ((foliation, "transversality_violations"),
                                        (schemes, "transversality_violations"),
                                        (schemes, "singular_ideal"),
                                        (schemes, "kupka_ideal"),
                                        (schemes, "persistent_cap"),
                                        (foliation, "build_form"),
                                        (schemes, "build_form"),
                                        (schemes, "_precondition_details")))
            report, code = cli.run_verify(parse_spec_document(payload, "spec"))
        assert code == EXIT_OK and report["verdict"] == "pass", payload
        assert calls == {"transversality_violations": 1, "singular_ideal": 1,
                         "kupka_ideal": 1, "persistent_cap": 1, "build_form": 1,
                         "_precondition_details": 2}, payload


def test_check_builds_the_form_only_for_a_raw_table(monkeypatch):
    """``check`` takes the descent test of a raw ``lambdas`` table on the
    built form's radial contraction, and builds no form for a residue
    matrix, whose descent test is on its rows."""
    raw = {"n": 2, "q": 1, "divisors": ["x0", "x1", "x2"], "lambdas": {"1": 1, "2": 2, "3": -3}}
    for payload, builds in ((GOOD_SPEC, 0), (raw, 1)):
        calls = count_calls(monkeypatch, ((foliation, "build_form"),))
        report, code = cli.run_check(parse_spec_document(payload, "spec"))
        assert (report["verdict"], code) == ("pass", EXIT_OK)
        assert calls["build_form"] == builds


def test_check_on_linear_spec_runs_no_groebner_basis(tmp_path, monkeypatch, capsys):
    """Linear divisors are smooth and their crossings are ranks: no basis at all."""
    for payload, expected in ((LINEAR_P4_SPEC, EXIT_OK), (REPEATED_P4_SPEC, EXIT_VALIDATION)):
        calls = count_calls(monkeypatch, ((groebner, "groebner_terms"),
                                          (foliation, "transversality_violations")))
        assert main(["check", write_spec(tmp_path / "p4.json", payload)]) == expected
        assert calls == {"transversality_violations": 1}
    assert "subset {4,6}: intersection has codimension 1" in capsys.readouterr().out


def test_linear_divisors_make_one_poly_each_and_no_basis(tmp_path, monkeypatch):
    """Counted work, no wall clock: a linear form, or a sum of products of
    integers and variables to integer powers, parses into one canonical Poly,
    not one per term or factor, and a full-snc check of hyperplanes on P^5
    makes one Poly per divisor and no Groebner run."""
    calls = count_calls(monkeypatch, ((poly, "_make"), (groebner, "groebner_terms")))
    form = poly.parse_poly(LINEAR_P5_SPEC["divisors"][-1], 6)
    assert calls == {"_make": 1} and len(form.num) == 6
    calls.clear()
    form = poly.parse_poly("-3*x0^2*x1*2 + x2^3/4 - 7^2*x3*x4^0*x5^2 + (x1)^2*-x0", 6)
    assert calls == {"_make": 1} and len(form.num) == 4
    calls.clear()
    assert main(["check", write_spec(tmp_path / "p5.json", LINEAR_P5_SPEC)]) == EXIT_OK
    assert calls == {"_make": len(LINEAR_P5_SPEC["divisors"])}


def test_check_on_quadric_spec_runs_jacobian_bases(tmp_path, monkeypatch):
    jacobians, dimensions = [], []
    jacobian_ideal, krull_dimension = foliation._jacobian_ideal, foliation.krull_dimension
    monkeypatch.setattr(foliation, "_jacobian_ideal",
                        lambda f: jacobians.append(jacobian_ideal(f)) or jacobians[-1])
    monkeypatch.setattr(foliation, "krull_dimension",
                        lambda ideal: dimensions.append(ideal) or krull_dimension(ideal))
    calls = count_calls(monkeypatch, ((groebner, "groebner_terms"),))
    assert main(["check", write_spec(tmp_path / "conics.json", CONICS_SPEC)]) == EXIT_OK
    assert len(jacobians) == 3
    assert all(any(ideal is jacobian for ideal in dimensions) for jacobian in jacobians)
    assert calls["groebner_terms"] >= 3


def test_cached_parser_keeps_no_options_between_calls(tmp_path, monkeypatch, capsys):
    seen = []
    run_verify = cli.run_verify

    def recording(doc, waive=False):
        seen.append((doc.level, waive))
        return run_verify(doc, waive)

    monkeypatch.setattr(cli, "run_verify", recording)
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    assert main(["verify", spec, "--level", "basic", "--format", "machine",
                 "--waive-preconditions"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["validation"]["level"] == "basic"
    assert main(["verify", spec]) == EXIT_OK
    assert capsys.readouterr().out.startswith("logfol verify")
    assert seen == [("basic", True), ("full-snc", False)]
    assert cli.build_arg_parser() is cli.build_arg_parser()


def test_verify_reports_match_recorded_fixture(tmp_path, capsys):
    """Machine reports, timings stripped, of the worked P^2 instance, the
    conics instance, rational divisor coefficients with custom variables,
    raw rational residues, a q=2 matrix arrangement on P^4 and one
    ``compute --which all``, each recorded with an earlier version of the
    program, plus the concurrent-lines instance, which breaks simple normal
    crossings, under ``verify`` and ``verify --waive-preconditions``.  An
    entry without a ``command`` is a ``verify`` run, and one without an
    ``exit_code`` exits 0."""
    with open(FIXTURES, encoding="utf-8") as handle:
        recorded = json.load(handle)
    assert recorded["conics-p2"]["spec"] == CONICS_SPEC
    for label, entry in sorted(recorded.items()):
        spec = write_spec(tmp_path / f"{label}.json", entry["spec"])
        command = entry.get("command", ["verify"])
        code = main(command + [spec, "--format", "machine"])
        assert code == entry.get("exit_code", EXIT_OK), label
        assert strip_timings(json.loads(capsys.readouterr().out)) == entry["report"], label


# -- batch --------------------------------------------------------------------------

def test_batch_directory(tmp_path, capsys):
    specs = tmp_path / "specs"
    specs.mkdir()
    write_spec(specs / "a.json", GOOD_SPEC)
    write_spec(specs / "b.json", dict(GOOD_SPEC, residue_matrix=[["1/2", 1, "-3/2"]]))
    reports_dir = tmp_path / "reports"
    code = main(["batch", str(specs), "--format", "machine",
                 "--output", str(reports_dir)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "pass"
    assert [r["name"] for r in summary["results"]] == ["a.json", "b.json"]
    assert (reports_dir / "a.report.json").exists()
    assert (reports_dir / "b.report.json").exists()


def test_batch_reports_in_the_spec_directory_are_no_specs(tmp_path, capsys):
    """``batch DIR --output DIR`` twice: the second run lists the same two
    specs, not the reports the first one wrote next to them."""
    write_spec(tmp_path / "a.json", GOOD_SPEC)
    write_spec(tmp_path / "b.json", CONICS_SPEC)
    runs = []
    for _ in range(2):
        code = main(["batch", str(tmp_path), "--format", "machine", "--output", str(tmp_path)])
        assert code == EXIT_OK
        runs.append(strip_timings(json.loads(capsys.readouterr().out)))
    assert runs[0] == runs[1]
    assert [r["name"] for r in runs[1]["results"]] == ["a.json", "b.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.json", "a.report.json", "b.json", "b.report.json"]


def test_batch_directory_flags_failures(tmp_path, capsys):
    specs = tmp_path / "specs"
    specs.mkdir()
    write_spec(specs / "good.json", GOOD_SPEC)
    write_spec(specs / "bad.json", dict(GOOD_SPEC, residue_matrix=[[1, 1, -2]]))
    code = main(["batch", str(specs), "--format", "machine"])
    assert code == EXIT_VALIDATION
    summary = json.loads(capsys.readouterr().out)
    verdicts = {r["name"]: r["verdict"] for r in summary["results"]}
    assert verdicts["good.json"] == "pass"
    assert verdicts["bad.json"] == "validation-failed"
    assert summary["verdict"] == "validation-failed"
    # unreadable files and zero forms get their own verdicts, and --level
    # applies to the parsed documents
    (specs / "latin1.json").write_bytes(b'{"n": 2, "name": "caf\xe9"}')
    (specs / "x.json").mkdir()
    (specs / "deep.json").write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    write_spec(specs / "list.json", [1, 2])
    for label, payload in ZERO_FORM_SPECS.items():
        write_spec(specs / f"{label}.json", payload)
    for label, (payload, _) in MALFORMED_SPECS.items():
        write_spec(specs / f"{label}.json", payload)
    code = main(["batch", str(specs), "--level", "basic", "--format", "machine"])
    assert code == EXIT_VALIDATION
    summary = json.loads(capsys.readouterr().out)
    assert {r["name"]: r["verdict"] for r in summary["results"]} == {
        "bad.json": "precondition-failed", "cancelling.json": "validation-failed",
        "deep.json": "error", "good.json": "pass", "latin1.json": "error", "list.json": "error",
        "x.json": "error", "zero-lambdas.json": "validation-failed",
        **{f"{label}.json": "error" for label in MALFORMED_SPECS}}
    errors = {r["name"]: r["error"] for r in summary["reports"] if r["verdict"] == "error"}
    for label, (_, message) in MALFORMED_SPECS.items():
        assert message in errors[f"{label}.json"]
    assert summary["verdict"] == "precondition-failed"


def test_batch_worker_exception_is_an_error_verdict(tmp_path, capsys, monkeypatch):
    specs = tmp_path / "specs"
    specs.mkdir()
    write_spec(specs / "a.json", GOOD_SPEC)
    write_spec(specs / "b.json", CONICS_SPEC)
    write_spec(specs / "c.json", dict(GOOD_SPEC, residue_matrix=[["1/2", 1, "-3/2"]]))
    assert main(["batch", str(specs), "--workers", "1", "--format", "machine"]) == EXIT_OK
    intact = json.loads(capsys.readouterr().out)["reports"]
    run_verify = cli.run_verify

    def raising(doc, waive=False):
        if doc.name == "b.json":
            raise RuntimeError("boom")
        return run_verify(doc, waive)

    monkeypatch.setattr(cli, "run_verify", raising)
    code = main(["batch", str(specs), "--workers", "1", "--format", "machine"])
    assert code == EXIT_IO
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "error"
    reports = {r["name"]: r for r in summary["reports"]}
    assert reports["b.json"] == {"name": "b.json", "verdict": "error",
                                 "error": "RuntimeError: boom", "exit_code": EXIT_IO}
    for before in intact:
        if before["name"] != "b.json":
            assert strip_timings(reports[before["name"]]) == strip_timings(before)


def test_batch_random_seed_deterministic(capsys):
    assert main(["batch", "3", "--seed", "11", "--format", "machine"]) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert main(["batch", "3", "--seed", "11", "--format", "machine"]) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    assert strip_timings(first) == strip_timings(second)
    assert first["seed"] == 11
    assert [r["verdict"] for r in first["results"]] == ["pass"] * 3


def test_batch_bad_target(capsys):
    assert main(["batch", "/nonexistent/path"]) == EXIT_IO


# -- README -------------------------------------------------------------------

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_rows(heading: str) -> list:
    """The cells of each body row of the first table under ``heading``."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n" + heading + "\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in table]


def test_readme_lists_the_checks_in_report_order():
    row = next(cells for cells in _readme_rows("## Spec files") if cells[0] == "`checks`")
    assert tuple(re.findall(r"`([^`]+)`", row[2])) == tuple(schemes.CHECKS)


def test_readme_check_table_matches_the_registry():
    """README's table under ``## Checks`` lists every report entry of
    ``schemes.CHECKS`` in report order, with the name that selects it and
    the hypotheses it assumes."""
    gates = {"none": None, "snc": False, "snc, residues, foliation": True}
    rows = [(cells[0].strip("`"), cells[1].strip("`"), gates[cells[3]])
            for cells in _readme_rows("## Checks")]
    assert rows == [(name, entry, residues) for name, (residues, entries) in schemes.CHECKS.items()
                    for entry, _ in entries]


def test_readme_verdict_table_matches_the_emitted_verdicts(tmp_path):
    """Each row of README's verdict table is an (exit code, verdict) pair a
    batch run emits, and every pair it emits has its row."""
    rows = [(int(cells[0]), cells[1].strip("`"))
            for cells in _readme_rows("## Verdicts and exit codes")]
    specs = {
        "pass": GOOD_SPEC,
        "error": "{not json",
        "validation-failed": dict(GOOD_SPEC, residue_matrix=[[1, 1, -2]]),
        "precondition-failed": dict(GOOD_SPEC, divisors=["x0", "x1", "x0 + x1"],
                                    validation_level="generic", checks=["lemma"]),
        # a raw table whose 2-form is neither integrable nor decomposable
        "fail": {"n": 4, "q": 2, "divisors": ["x0", "x1", "x2", "x3", "x4",
                                              "x0 + 2*x1 + 3*x2 + 5*x3 + 7*x4"],
                 "lambdas": {"1,2": 7, "1,3": 9, "1,4": 2, "1,5": 3, "1,6": -21, "2,3": 4,
                             "2,4": -8, "2,5": -1, "2,6": 12, "3,4": -6, "3,5": -4,
                             "3,6": 23, "4,5": -3, "4,6": -9, "5,6": -5},
                 "checks": ["identities"]},
    }
    for name, payload in specs.items():
        write_spec(tmp_path / f"{name}.json", payload)
    summary, _ = cli.run_batch(str(tmp_path), 0, 1, None, False, None)
    emitted = {(r["exit_code"], r["verdict"]) for r in summary["results"]}
    assert {verdict for _, verdict in emitted} == set(specs)
    assert {code for code, _ in emitted} == {EXIT_OK, EXIT_IO, EXIT_VALIDATION, EXIT_CHECKS}
    assert sorted(rows) == sorted(emitted)


# -- package surface ------------------------------------------------------------

def test_package_exports_only_its_submodules():
    """``logfol`` re-exports no function or class: callers import the
    submodule.  ``import logfol`` loads the engine's modules but not ``cli``,
    so ``python -m logfol.cli`` runs without runpy's warning that the module
    was already imported."""
    assert not [name for name, value in vars(logfol).items()
                if inspect.isfunction(value) or inspect.isclass(value)]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, logfol; print(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert [m for m in loaded if m.split(".")[0] == "logfol"] == [
        "logfol", "logfol.foliation", "logfol.forms", "logfol.groebner", "logfol.poly",
        "logfol.schemes"]
    run = subprocess.run([sys.executable, "-m", "logfol.cli", "--version"],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, f"logfol {logfol.__version__}\n", "")


def test_cli_imports_no_dataclasses_or_process_pool():
    """``import logfol.cli`` in a fresh interpreter leaves out ``dataclasses``
    (with ``inspect``) and ``concurrent.futures`` (with ``logging``): only a
    batch with workers imports the pool.  The polynomial front end has its
    own regex tokenizer, so neither ``ast`` nor ``tokenize`` is loaded."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import logfol.cli; "
            "print(*(m for m in ('dataclasses', 'inspect', 'concurrent.futures', 'logging', "
            "'ast', 'tokenize') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "\n"


def test_closed_stdout_is_an_error_without_a_traceback(tmp_path):
    """A reader that is gone before the report is written: exit 1 with one
    ``error:`` line, as for any report that cannot be written."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    spec = write_spec(tmp_path / "s.json", GOOD_SPEC)
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "logfol.cli", "check", spec, "--format",
                              "machine"], stdout=write, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write)
    assert "Traceback" not in run.stderr
    assert (run.returncode, run.stderr) == (EXIT_IO, "error: cannot write <stdout>: Broken pipe\n")
