"""Spans and counters recorded from outside the program.

`Tracer.install` replaces public functions on the program's modules with
wrappers that record a span around each call, and wraps the navigator
classes' `step` and `BinWord` construction with counters.  `uninstall`
puts every original back.  Nothing in the package changes on disk.

A span is (name, start, end, parent span, operation id); spans stay in
memory until the run writes them out.  A layer's self time is the sum of
its spans' durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

# (module, function, span name) wrapped while tracing.  The program
# calls these through the module (`measure.trace_exact(...)`), so replacing
# the module attribute puts a span around every call, including the ones
# the module makes to itself.
SPANNED = (
    ("cli", "parse", "cli.parse"),
    ("cli", "run", "cli.run"),
    ("trees", "validate", "trees.validate"),
    ("trees", "node_words", "trees.node_words"),
    ("splits", "classify", "splits.classify"),
    ("measure", "mu_cylinder", "measure.mu_cylinder"),
    ("measure", "product_measure", "measure.product_measure"),
    ("measure", "trace_upper", "measure.trace_upper"),
    ("measure", "trace_exact", "measure.trace_exact"),
    ("measure", "lemma1_refine", "measure.lemma1"),
    ("certcheck", "check_certificate", "certcheck.check"),
    ("constructions", "table1", "constructions.table1"),
    ("constructions", "table2", "constructions.table2"),
    ("constructions", "phi", "constructions.phi"),
    ("constructions", "lusin_tree", "constructions.lusin"),
)

# Per-layer time metrics: metric name -> span names whose self time it sums.
TIME_METRICS = {
    "cli.parse_ms": ("cli.parse",),
    "cli.run_self_ms": ("cli.run",),
    "trees.compile_ms": ("trees.compile",),
    "trees.validate_ms": ("trees.validate",),
    "trees.node_words_ms": ("trees.node_words",),
    "splits.classify_ms": ("splits.classify",),
    "measure.mu_cylinder_ms": ("measure.mu_cylinder",),
    "measure.product_measure_ms": ("measure.product_measure",),
    "measure.trace_upper_ms": ("measure.trace_upper",),
    "measure.trace_exact_ms": ("measure.trace_exact",),
    "measure.lemma1_ms": ("measure.lemma1",),
    "certcheck.check_ms": ("certcheck.check",),
    "constructions.ms": (
        "constructions.table1", "constructions.table2",
        "constructions.phi", "constructions.lusin",
    ),
}


class Tracer:
    """Spans, counters and certificate sizes for one traced pass."""

    def __init__(self, package):
        self.pkg = package
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.certs: List[Tuple[int, bool]] = []  # (cover size, levels mode)
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if idx in self.stack:
            del self.stack[self.stack.index(idx):]

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def start_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if name == "measure.lemma1":
                self.certs.append((sum(c for _, c in result.cover_levels), result.cover is None))
            elif name == "certcheck.check":
                self.counts["certcheck.cover_lines"] += sum(
                    1 for ln in args[0].splitlines() if ln.startswith(("cover ", "agg "))
                )
            return result
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        # The span runs from the first item to exhaustion, so the work the
        # consumer does between items shows up as child spans.
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    # -- counters ---------------------------------------------------------

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod_name, attr, span_name in SPANNED:
            mod = getattr(self.pkg, mod_name)
            fn = getattr(mod, attr)
            wrap = self._wrap_generator if attr == "node_words" else self._wrap
            self._patch(mod, attr, wrap(span_name, fn))
        todo = [self.pkg.trees.Navigator]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "step" in cls.__dict__ and cls is not self.pkg.trees.Navigator:
                self._patch(cls, "step", self._counted("trees.nav_steps", cls.__dict__["step"]))
        binword = self.pkg.words.BinWord
        self._patch(binword, "__post_init__",
                    self._counted("words.binword_new", binword.__dict__["__post_init__"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reports ----------------------------------------------------------

    def self_times_ms(self) -> Dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            by_name[name] += end - start - inner
        return {
            metric: 1000.0 * sum(by_name[n] for n in names)
            for metric, names in TIME_METRICS.items()
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# name start_s end_s parent_span op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, op]) + "\n")
