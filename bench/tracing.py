"""Span tracing of logfol's public functions, applied from outside.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) in memory.
Because ``schemes`` and ``foliation`` import engine functions by name, the
wrapper is written into every ``logfol`` namespace that holds the original
object, not only the defining module.  ``Tracer.uninstall()`` puts the
originals back.

Self time is a span's duration minus the durations of its direct children,
accumulated as spans close.  Batch workers are forked from the traced
process and inherit the wrappers; a worker keeps its own spans and appends
them to a file in ``spill_dir`` whenever its outermost span closes, and the
parent reads those files back with ``collect_spills``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import time

TRACED_MODULES = ("cli", "foliation", "forms", "schemes", "groebner")
INSTANCE_ROOTS = ("cli.run_verify", "cli.run_check")


def _order_label(order) -> str:
    return str(getattr(order, "name", order)).replace("(", "").replace(")", "")


def _terms_key(generators, order):
    return (_order_label(order),
            tuple(sorted(tuple(sorted(g.items())) for g in generators)))


class Tracer:
    """In-memory span recorder.

    A span is ``(process, id, parent, name, start, end, self_seconds, flag)``;
    ``flag`` marks a Groebner run whose input was already run for the same
    instance.  Instances are delimited by ``cli.run_verify``/``cli.run_check``.
    """

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.spans = []
        self._stack = []          # [span id, start, child seconds]
        self._ids = itertools.count(1)
        self._seen = set()
        self._pid = os.getpid()
        self._process = str(self._pid)
        self.main_process = self._process
        self._worker = False
        self._patched = []        # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter_process(self):
        # first span in a forked batch worker: start an empty record
        self._pid = os.getpid()
        self._process = f"{self._pid}.{time.perf_counter_ns()}"
        self._worker = True
        self.spans = []
        self._stack = []
        self._seen = set()

    def call(self, name, fn, args, kwargs, key=None):
        if os.getpid() != self._pid:
            self._enter_process()
        if name in INSTANCE_ROOTS:
            self._seen = set()
        flag = key is not None and key in self._seen
        if key is not None:
            self._seen.add(key)
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((self._process, sid, parent, name, frame[1], end,
                               duration - frame[2], flag))
            if self._worker and not self._stack:
                self._spill()

    def _groebner_terms(self, fn):
        def wrapper(generators, order, *args, **kwargs):
            label = "groebner.groebner_terms." + _order_label(order)
            return self.call(label, fn, (generators, order) + args, kwargs,
                             _terms_key(generators, order))
        return wrapper

    def _plain(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _spill(self):
        path = os.path.join(self.spill_dir, f"spans-{self._process}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    # -- patching ----------------------------------------------------------

    def install(self):
        import logfol  # noqa: F401  (loads every traced module)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "logfol" or n.startswith("logfol.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"logfol.{short}"]
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if short == "groebner" and attr == "groebner_terms":
                    wrapper = self._groebner_terms(obj)
                else:
                    wrapper = self._plain(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patched.append((ns, name, obj))
                            setattr(ns, name, wrapper)
        ideal = sys.modules["logfol.groebner"].Ideal
        original = ideal.groebner_basis
        self._patched.append((ideal, "groebner_basis", original))
        ideal.groebner_basis = self._plain("groebner.Ideal.groebner_basis", original)

    def uninstall(self):
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched = []

    # -- output ------------------------------------------------------------

    def collect_spills(self) -> list:
        """Read back and delete the span files written by batch workers."""
        spans = []
        for entry in sorted(os.listdir(self.spill_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                path = os.path.join(self.spill_dir, entry)
                with open(path, encoding="utf-8") as handle:
                    spans.extend(tuple(json.loads(line)) for line in handle)
                os.remove(path)
        return spans


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("process,id,parent,name,start,end,self_s,repeat\n")
        for span in spans:
            handle.write(",".join(str(v) for v in span) + "\n")
