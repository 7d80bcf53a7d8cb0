"""Tests of the benchmark itself: generator, oracle, correctness gate, metrics, tracer."""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import instances  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, run.SRC)


def _check_docs(seed, per_shape=4, bad_kinds=instances.CHECK_BAD_KINDS):
    plan = instances.check_plan(instances.rng_for("check-snc", seed), per_shape, bad_kinds)
    return ([instances.check_spec(instances.rng_for("check-snc", seed, i), *entry)
             for i, entry in enumerate(plan)], [entry[3] for entry in plan])


def test_generator_is_deterministic_per_seed():
    assert _check_docs(3) == _check_docs(3)
    assert _check_docs(3) != _check_docs(4)
    assert instances.ABOVE_Q2 not in _check_docs(3)[1]
    assert run.verify_pool() == run.verify_pool()
    rng_a, rng_b = instances.rng_for("batch-p2p3", 5), instances.rng_for("batch-p2p3", 5)
    assert instances.batch_instance(rng_a, 3, 2, 5) == instances.batch_instance(rng_b, 3, 2, 5)


def test_oracle_rejects_known_non_snc_arrangements():
    # passes the seed's full-snc check, which stops at depth q+2 = 3
    batch = instances.hyperplane_spec(
        3, 1, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [2, 2, -1, 0]], [[-2, -4, -3, 9]])
    assert instances.first_violation_depth(instances.forms_of(batch), 3) == 4
    assert not instances.expected_check_pass(batch)
    # a cone over [1:0:0:0:0]: every form misses x0
    cone = instances.hyperplane_spec(
        4, 1, [[0, 0, 0, 1, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
               [0, -2, 3, -3, -1]], [[-3, 1, -2, -1, 5]])
    assert cone["divisors"] == ["x3", "x1", "x2", "x4", "-2*x1 + 3*x2 - 3*x3 - x4"]
    assert instances.first_violation_depth(instances.forms_of(cone), 4) == 5
    assert not instances.expected_check_pass(cone)


def test_check_kinds_get_the_intended_verdict():
    bad_kinds = instances.CHECK_BAD_KINDS + (instances.ABOVE_Q2,)
    docs, kinds = _check_docs(9, bad_kinds=bad_kinds)
    assert kinds.count("valid") == 36
    assert {kinds.count(kind) for kind in bad_kinds} == {3}
    for doc, kind in zip(docs, kinds):
        assert instances.expected_check_pass(doc) == (kind == "valid")
        depth = instances.first_violation_depth(instances.forms_of(doc), doc["n"])
        if kind == "above-q+2":
            assert depth > doc["q"] + 2
        elif kind == "depth-q+2":
            assert depth == doc["q"] + 2


def test_above_q2_specs_are_drawn_only_on_request(tmp_path):
    plain, _ = run.build_tasks("check-snc", 1, str(tmp_path / "plain"))
    extra, _ = run.build_tasks("check-snc", 1, str(tmp_path / "extra"), above_q2=True)
    assert len(plain) == len(extra) == 16 * len(instances.CHECK_SHAPES)
    assert not any(task.kind == instances.ABOVE_Q2 for task in plain)
    above = [task for task in extra if task.kind == instances.ABOVE_Q2]
    assert len(above) == len(instances.CHECK_SHAPES)
    assert not any(task.expect_pass for task in above)


def test_pools_match_the_golden_file():
    run.load_golden("verify-p4", run.verify_pool())
    run.load_golden("batch-p2p3", run.batch_pool())


def _line_line_conic(tmp_path):
    golden = run.load_golden("batch-p2p3", run.batch_pool())["line-line-conic-p2"]
    path = str(tmp_path / "llc.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instances.FIXED_BATCH_SPECS["line-line-conic-p2"], handle)
    return path, golden


def test_perturbed_generator_list_counts_as_a_failure(tmp_path):
    path, golden = _line_line_conic(tmp_path)
    code, text = run._call_main(["verify", path, "--format", "machine"])
    report = json.loads(text)
    assert run.verify_report_ok(report, code, golden)
    checks = {c["name"]: c for c in report["checks"]}
    checks["kupka"]["details"]["generators"][0] += " + x2"
    assert not run.verify_report_ok(report, code, golden)

    bad_golden = json.loads(json.dumps(golden))
    bad_golden["ideals"]["residual"] = "0" * 24
    loop = run.run_loop([run.VerifyTask(path, golden), run.VerifyTask(path, bad_golden)],
                        0, limit=2)
    assert (loop["attempted"], loop["right"]) == (2, 1)


def test_a_crash_is_counted_not_fatal():
    class Crash:
        size = 3
        kind = "crash"

        def run(self):
            raise RuntimeError("boom")

    loop = run.run_loop([Crash()], 0, limit=2)
    assert (loop["attempted"], loop["right"]) == (6, 0)
    assert loop["failed_by_kind"] == {"crash": 6}


def test_metric_names_and_benchmark_json_agree():
    pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert all(pattern.match(n) for n in names)
    assert len(names) == len(set(names))
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_sees_calls_through_every_namespace_and_restores(tmp_path):
    from logfol import groebner, schemes

    original = schemes.module_annihilator
    path, _ = _line_line_conic(tmp_path)
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert schemes.module_annihilator is not original
        run._call_main(["verify", path, "--format", "machine"])
    finally:
        tracer.uninstall()
    assert schemes.module_annihilator is original is groebner.module_annihilator
    spans = {(s[0], s[1]): s for s in tracer.spans}
    names = {s[3] for s in tracer.spans}
    assert {"cli.main", "schemes.kupka_ideal", "groebner.module_annihilator",
            "groebner.groebner_terms.block1", "groebner.groebner_terms.grevlex"} <= names
    annihilator = next(s for s in tracer.spans if s[3] == "groebner.module_annihilator")
    assert spans[(annihilator[0], annihilator[2])][3] == "schemes.kupka_ideal"
    assert all(-1e-9 <= s[6] <= s[5] - s[4] + 1e-9 for s in tracer.spans)
    metrics = run.layer_metrics(tracer.spans, tracer.main_process, run.WORKERS)
    assert set(metrics) | {"trace.overhead_frac"} == {n for n, _ in run.PER_LAYER}


def test_presentation_keeps_the_golden_answer(tmp_path):
    label = "p3-q2-s4-00"
    base = run.batch_pool()[label]
    golden = run.load_golden("batch-p2p3", run.batch_pool())[label]
    for seed in range(3):
        doc = instances.presentation(instances.rng_for("presentation", seed), base)
        assert doc != base and instances.expected_check_pass(doc)
        path = str(tmp_path / f"{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        code, text = run._call_main(["verify", path, "--format", "machine"])
        assert run.verify_report_ok(json.loads(text), code, golden)
