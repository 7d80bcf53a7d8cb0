"""Every spec of the benchmark's two verify pools against its golden answer.

The pools, the golden digests and the correctness gate are the benchmark's
own (``bench/run.py``), used read-only: each ``verify --format machine``
report must pass with the five reduced generator lists of ``golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from instances import (  # noqa: E402
    general_position_forms,
    generic_residues,
    hyperplane_spec,
    rng_for,
)

from conftest import strip_timings  # noqa: E402
from logfol import cli  # noqa: E402


def test_every_pool_spec_matches_its_golden_answer(tmp_path):
    checked = 0
    for workload, pool in (("verify-p4", run.verify_pool()), ("batch-p2p3", run.batch_pool())):
        golden = run.load_golden(workload, pool)
        for label, doc in sorted(pool.items()):
            path = tmp_path / f"{workload}-{label}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", str(path), "--format", "machine"])
            assert run.verify_report_ok(json.loads(out.getvalue()), code, golden[label]), \
                (workload, label)
            checked += 1
    assert checked == 38


def test_frontier_rung_matches_its_recorded_report(tmp_path):
    """The (5,2,7) rung of the frontier ladder: s = n+2 hyperplanes on P^5,
    so adapted coordinates leave its ideals non-monomial and the Kupka
    ideal takes module runs.  Its ``verify --format machine`` report,
    seconds stripped, was recorded with an earlier version of the program."""
    n, q, s = 5, 2, 7
    rng = rng_for("frontier", n, q, s, 0)
    forms = general_position_forms(rng, n, s, coordinates=min(n, s - 1))
    doc = hyperplane_spec(n, q, forms, generic_residues(rng, q, s, span=6))
    path = tmp_path / "frontier-5-2-7.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(path), "--format", "machine"]) == 0
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "frontier_5_2_7.json"),
              encoding="utf-8") as handle:
        assert strip_timings(json.loads(out.getvalue())) == json.load(handle)
