"""Benchmark of the logfol command line on three workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload verify-p4 --seed 1 --seconds 40 --trace 0

The benchmark writes its own spec files from the seed (see ``instances.py``),
calls ``logfol.cli.main`` in this process exactly as the ``logfol`` script
would, and checks every answer: exit code, verdict and, for ``verify``
reports, the reduced generator lists of the five ideals against
``golden.json``.  A wrong answer is counted, not fatal.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same instances untraced and then traced (``tracing.py``) and prints
the per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means the
run completed; 1 means the benchmark's own data is inconsistent; 2 means
there is no ``src/logfol`` to benchmark.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(HERE, "golden.json")

sys.path.insert(0, HERE)
import instances  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402

WORKLOADS = ("verify-p4", "batch-p2p3", "check-snc")
WORKERS = 2
SETUP_REPEATS = 10
CHECK_PER_SHAPE = 16     # 12 shapes, 192 specs
VERIFY_POOL = 12          # pool indices alternate q=1 and q=2
BATCH_POOL = 3            # per shape
BATCH_CALLS = 2           # distinct presentations of the batch per run
# tasks each half of a traced run covers, per 30 s of --seconds: about 15 s
TRACE_TASKS_PER_30S = {"verify-p4": 12, "batch-p2p3": 3, "check-snc": 192}
IDEALS = ("singular", "kupka", "persistent_sum", "persistent_cap", "residual")

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("instance_s.p50", "s"),
    ("instance_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

_SELF = ("groebner.groebner_terms.block1", "groebner.groebner_terms.grevlex",
         "groebner.module_annihilator", "groebner.radical_membership",
         "groebner.ideal_saturation", "foliation.validate_spec",
         "schemes.kupka_ideal", "schemes.residual_ideal", "schemes.persistent_cap",
         "schemes.verify_identities", "schemes.verify_lemma",
         "schemes.verify_decomposition", "foliation.build_form",
         "forms.frobenius_check", "cli.parse_spec_document", "cli.emit")
_CALLS = ("groebner.groebner_terms.block1", "groebner.groebner_terms.grevlex",
          "groebner.ideal_quotient", "groebner.radical_membership",
          "groebner.krull_dimension", "foliation.transversality_violations")
_FRACS = ("groebner.groebner_terms.repeat_frac", "groebner.gb_cache.hit_ratio",
          "groebner.radical_membership.shortcut_frac", "cli.run_batch.worker_busy_frac",
          "trace.overhead_frac")
PER_LAYER = (tuple((f"{n}.calls", "count") for n in _CALLS)
             + tuple((f"{n}.self_s", "s") for n in _SELF)
             + tuple((n, "frac") for n in _FRACS))


class BenchError(Exception):
    """The benchmark's own inputs or golden data are inconsistent."""


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def ideal_generators(report: dict) -> dict:
    """The reduced generator lists of the five ideals in a verify report."""
    checks = {c["name"]: c["details"] for c in report["checks"]}
    return {
        "singular": checks["sing"]["generators"],
        "kupka": checks["kupka"]["generators"],
        "persistent_sum": checks["persistent"]["sum"]["generators"],
        "persistent_cap": checks["persistent"]["cap"]["generators"],
        "residual": checks["residual-dimension"]["generators"],
    }


def verify_report_ok(report: dict, code: int, golden: dict) -> bool:
    """Expected: exit 0, verdict pass, generator lists matching the golden digests."""
    if code != 0 or report.get("verdict") != "pass":
        return False
    gens = ideal_generators(report)
    return all(digest(gens[name]) == golden["ideals"][name] for name in IDEALS)


# ---------------------------------------------------------------------------
# instance pools
# ---------------------------------------------------------------------------

def verify_pool():
    """Pool index -> spec document; ``golden.json`` holds their answers."""
    return {str(i): instances.verify_p4_instance(instances.rng_for("verify-p4", i),
                                                 1 + i % 2)
            for i in range(VERIFY_POOL)}


def batch_pool():
    pool = {}
    for n, q, s in instances.BATCH_SHAPES:
        for k in range(BATCH_POOL):
            rng = instances.rng_for("batch-p2p3", n, q, s, k)
            pool[f"p{n}-q{q}-s{s}-{k:02d}"] = instances.batch_instance(rng, n, q, s)
    pool.update(instances.FIXED_BATCH_SPECS)
    return pool


def load_golden(workload: str, pool: dict) -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)[workload]
    for label, doc in pool.items():
        if label not in golden or golden[label]["spec"] != digest(doc):
            raise BenchError(f"{workload} instance {label} does not match golden.json; "
                             "re-record it with bench/record_golden.py")
    return golden


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# tasks: one main() call each, returning (instances attempted, instances right)
# ---------------------------------------------------------------------------

def _call_main(argv) -> tuple:
    from logfol import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class VerifyTask:
    size = 1
    kind = "verify"

    def __init__(self, path, golden):
        self.path, self.golden = path, golden

    def run(self) -> tuple:
        code, text = _call_main(["verify", self.path, "--format", "machine"])
        return 1, int(verify_report_ok(json.loads(text), code, self.golden))


class CheckTask:
    size = 1

    def __init__(self, path, kind):
        self.path, self.kind = path, kind
        self.expect_pass = kind == "valid"

    def run(self) -> tuple:
        code, text = _call_main(["check", self.path, "--format", "machine"])
        verdict = json.loads(text)["verdict"]
        if self.expect_pass:
            ok = code == 0 and verdict == "pass"
        else:
            ok = code == 2 and verdict == "validation-failed"
        return 1, int(ok)


class BatchTask:
    kind = "batch"

    def __init__(self, spec_dir, out_dir, golden):
        self.spec_dir, self.out_dir, self.golden = spec_dir, out_dir, golden
        self.labels = sorted(p[:-5] for p in os.listdir(spec_dir))
        self.size = len(self.labels)

    def run(self) -> tuple:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        code, text = _call_main(["batch", self.spec_dir, "--workers", str(WORKERS),
                                 "--format", "machine", "--output", self.out_dir])
        summary = json.loads(text)
        right = 0
        for label in self.labels:
            try:
                with open(os.path.join(self.out_dir, f"{label}.report.json"),
                          encoding="utf-8") as handle:
                    report = json.load(handle)
                right += verify_report_ok(report, report["exit_code"], self.golden[label])
            except (OSError, ValueError, KeyError):
                pass
        if right == self.size and (code != 0 or summary.get("verdict") != "pass"):
            right = 0  # every report is right but the batch's own answer is not
        return self.size, right


def build_tasks(workload: str, seed: int, work: str, above_q2: bool = False) -> tuple:
    """The seed's task sequence and the spec files the set-up time parses."""
    rng = random.Random(f"{workload}:{seed}")
    spec_dir = os.path.join(work, "specs")
    os.makedirs(spec_dir)
    if workload == "verify-p4":
        pool = verify_pool()
        golden = load_golden(workload, pool)
        q1 = [k for k in pool if int(k) % 2 == 0]
        q2 = [k for k in pool if int(k) % 2 == 1]
        rng.shuffle(q1)
        rng.shuffle(q2)
        order = [k for pair in zip(q1, q2) for k in pair]
        tasks = [VerifyTask(_write(os.path.join(spec_dir, f"v{k}.json"),
                                   instances.presentation(rng, pool[k])),
                            golden[k]) for k in order]
        return tasks, spec_dir
    if workload == "batch-p2p3":
        pool = batch_pool()
        golden = load_golden(workload, pool)
        tasks = []
        for j in range(BATCH_CALLS):
            batch_dir = os.path.join(spec_dir, f"batch{j}")
            os.makedirs(batch_dir)
            for label, doc in sorted(pool.items()):
                if label not in instances.FIXED_BATCH_SPECS:
                    doc = instances.presentation(rng, doc)
                _write(os.path.join(batch_dir, f"{label}.json"), doc)
            tasks.append(BatchTask(batch_dir, os.path.join(work, f"out{j}"), golden))
        return tasks, os.path.join(spec_dir, "batch0")
    bad_kinds = instances.CHECK_BAD_KINDS + ((instances.ABOVE_Q2,) if above_q2 else ())
    tasks = []
    for i, (n, q, s, kind) in enumerate(instances.check_plan(rng, CHECK_PER_SHAPE, bad_kinds)):
        doc = instances.check_spec(instances.rng_for("check-snc", seed, i), n, q, s, kind)
        if instances.expected_check_pass(doc) != (kind == "valid"):
            raise BenchError(f"check-snc spec {i}: oracle disagrees with kind {kind}")
        tasks.append(CheckTask(_write(os.path.join(spec_dir, f"c{i:04d}.json"), doc), kind))
    return tasks, spec_dir


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_loop(tasks, seconds: float, limit: int | None = None) -> dict:
    """Run tasks in order (cycling) until ``seconds`` pass, or exactly ``limit`` tasks."""
    times, oks, attempted, right, failed_by_kind = [], [], 0, 0, collections.Counter()
    start = time.perf_counter()
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        i += 1
        t0 = time.perf_counter()
        try:
            n, ok = task.run()
        except Exception:  # a crash in the program fails the task's instances
            n, ok = task.size, 0
        times.append(time.perf_counter() - t0)
        oks.append(ok)
        attempted += n
        right += ok
        if ok < n:
            failed_by_kind[task.kind] += n - ok
        if limit is not None:
            if i >= limit:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return {"wall": time.perf_counter() - start, "times": times, "oks": oks,
            "attempted": attempted, "right": right, "calls": i,
            "failed_by_kind": failed_by_kind}


SETUP_SNIPPET = (
    "import os, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import logfol.cli as cli\n"
    "for root, _, files in os.walk(sys.argv[2]):\n"
    "    for name in sorted(files):\n"
    "        cli.load_spec_file(os.path.join(root, name))\n"
)


def setup_sample(spec_dir: str) -> float:
    """Wall time of a fresh interpreter importing logfol.cli and parsing the specs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, spec_dir], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def peak_rss_mb(workload: str) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "batch-p2p3":
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(workload: str, tasks, spec_dir: str, seconds: float) -> tuple:
    # half the set-up samples before the loop and half after, so that a slow
    # spell of the machine weighs on the median no more than on the loop;
    # the first call may write bytecode caches and is not counted
    setup_sample(spec_dir)
    setup = [setup_sample(spec_dir) for _ in range(SETUP_REPEATS // 2)]
    loop = run_loop(tasks, seconds)
    setup += [setup_sample(spec_dir) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    # every figure weighs each task the same, however far the last pass of
    # the task list got: the rate is a pass's right answers over its time,
    # both from each task's mean call; p50 and p90 are percentiles of each
    # task's median call time, because the single slowest call is set by
    # spells of a noisy machine, not by the program
    n = len(tasks)
    called = range(min(n, loop["calls"]))
    times = [loop["times"][i::n] for i in called]
    task_s = [statistics.median(t) for t in times]
    metrics = {
        "instances_per_s": (sum(statistics.mean(loop["oks"][i::n]) for i in called)
                            / sum(statistics.mean(t) for t in times)),
        "instance_s.p50": statistics.median(task_s),
        "instance_s.p90": (statistics.quantiles(task_s, n=10, method="inclusive")[-1]
                           if len(task_s) > 1 else task_s[0]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return loop, metrics


def per_layer(workload: str, seed: int, tasks, work: str, seconds: float) -> tuple:
    # a fixed task count, so that counts repeat exactly for a seed
    count = max(1, round(TRACE_TASKS_PER_30S[workload] * seconds / 30))
    plain = run_loop(tasks, 0, limit=count)
    spill = os.path.join(work, "spill")
    os.makedirs(spill)
    tracer = Tracer(spill)
    tracer.install()
    try:
        traced = run_loop(tasks, 0, limit=count)
    finally:
        tracer.uninstall()
    spans = tracer.spans + tracer.collect_spills()
    trace_dir = os.path.join(WORK, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    write_spans(os.path.join(trace_dir, f"{workload}-seed{seed}.csv"), spans)
    metrics = layer_metrics(spans, tracer.main_process, WORKERS)
    metrics["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1.0
    loop = {key: plain[key] + traced[key]
            for key in ("attempted", "right", "failed_by_kind", "calls")}
    return loop, metrics


def layer_metrics(spans, main_process: str, workers: int) -> dict:
    calls, self_s = {}, {}
    parents_of = {}           # span key -> names of its direct children
    for proc, sid, parent, name, _, _, own, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if parent is not None:
            parents_of.setdefault((proc, parent), set()).add(name)

    def share_with_child(name: str, child_prefix: str) -> float:
        keys = [(p, sid) for p, sid, _, n, *_ in spans if n == name]
        hit = sum(any(c.startswith(child_prefix) for c in parents_of.get(k, ()))
                  for k in keys)
        return hit / len(keys) if keys else 0.0

    runs = [s for s in spans if s[3].startswith("groebner.groebner_terms.")]
    batch_wall = sum(s[5] - s[4] for s in spans if s[3] == "cli.run_batch")
    busy = sum(s[5] - s[4] for s in spans if s[0] != main_process and s[2] is None)
    metrics = {f"{n}.calls": calls.get(n, 0) for n in _CALLS}
    metrics.update({f"{n}.self_s": self_s.get(n, 0.0) for n in _SELF})
    metrics["groebner.groebner_terms.repeat_frac"] = (
        sum(1 for s in runs if s[7]) / len(runs) if runs else 0.0)
    metrics["groebner.gb_cache.hit_ratio"] = (
        1.0 - share_with_child("groebner.Ideal.groebner_basis", "groebner.groebner_terms.")
        if calls.get("groebner.Ideal.groebner_basis") else 0.0)
    metrics["groebner.radical_membership.shortcut_frac"] = (
        1.0 - share_with_child("groebner.radical_membership", "groebner.groebner_terms.")
        if calls.get("groebner.radical_membership") else 0.0)
    metrics["cli.run_batch.worker_busy_frac"] = (
        busy / (workers * batch_wall) if batch_wall else 0.0)
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--with-above-q2", action="store_true",
                        help="check-snc: also draw specs that violate transversality "
                             "only above depth q+2")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "logfol", "cli.py")):
        print(f"error: no logfol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        tasks, spec_dir = build_tasks(args.workload, args.seed, work, args.with_above_q2)
        if args.trace:
            loop, metrics = per_layer(args.workload, args.seed, tasks, work, args.seconds)
            units = dict(PER_LAYER)
        else:
            loop, metrics = end_to_end(args.workload, tasks, spec_dir, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = loop["attempted"] - loop["right"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"main() calls timed {loop['calls']}")
    print(f"  attempted {loop['attempted']}  failed {failed}  "
          f"failed_frac {failed / loop['attempted']:.4f}  "
          f"by kind {json.dumps(loop['failed_by_kind'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": loop["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
