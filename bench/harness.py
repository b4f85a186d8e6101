"""Set-up, the closed loop, the per-operation deadline and the correctness gate.

One client runs operations back to back in this process: each starts when
the previous one ends.  An operation is one query run through `cli.run`
on a script holding that query and its script's tree declarations; on the
certify workload it also replays every certificate the query emitted.
"""

from __future__ import annotations

import gc
import hashlib
import re
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import model
from workloads import BUILTINS, Workload

# An operation that runs longer than this counts as failed.  The slowest
# operations take under a second at this benchmark's first commit, so
# noise cannot reach it.
DEADLINE_S = 20.0


# The host's speed drifts: on a shared two-core VM the same code runs up to
# twice as slow, in stretches from a fraction of a second to a whole run.
# So the loop runs a fixed calibration loop (`probe`) before every timed
# operation or set-up and after it, and scales the measured wall time by
# PROBE_REF_S over the mean of the two probe times.  Times are reported in
# seconds of a host on which the probe takes PROBE_REF_S; the raw wall
# times are kept in the results file.
PROBE_REF_S = 0.003
# Cylinder walks down builtin block trees, with the benchmark's own automata.
PROBE_WALKS = (("E", "011" * 107), ("Q", "0111" * 80), ("PJ", "00010111" * 40))


def probe() -> float:
    """Wall seconds that one run of the calibration loop takes now.

    Fraction arithmetic, a small-integer loop and tree walks, like the
    program's own work, in the benchmark's code, so that no change to the
    program changes the probe.  The collector is off while it runs, so the
    garbage the program leaves behind does not slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x, slots = Fraction(1, 3), {}
        for i in range(400):
            x = x * Fraction(i + 2, i + 3) + Fraction(1, i + 7)
            slots[i % 97] = x
        s = 0
        for i in range(4000):
            s += i * i % 7
        for name, word in PROBE_WALKS:
            model.cylinder_measure(BUILTINS[name].auto, word)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class DeadlineExceeded(Exception):
    """Raised inside an operation by SIGALRM when its deadline passes."""


def _alarm(signum, frame):
    raise DeadlineExceeded(f"operation exceeded {DEADLINE_S} s")


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in this thread after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class NullTracer:
    """Stands in for tracing.Tracer when a run is not traced."""

    def span(self, name):
        return nullcontext()

    def start_op(self, op):
        pass


# One single-query script per operation, as harness.setup returns them.
Prepared = List


def setup(pkg, work: Workload, tracer=NullTracer()) -> Prepared:
    """Parse every script, build the builtin environment, and compile and
    validate every presentation.  Returns one single-query script per
    operation.  Raises ValueError on an imperfect tree."""
    cli, trees = pkg.cli, pkg.trees
    presentations = list(cli.builtin_env().values())
    parsed = []
    for text in work.scripts:
        script = cli.parse(text)
        parsed.append(script)
        presentations.extend(tree for _, tree in script.declarations)
    for tree in presentations:
        with tracer.span("trees.compile"):
            tree.navigator()
        if not trees.validate(tree).perfect:
            raise ValueError(f"generated tree is not perfect: {trees.to_dsl(tree)}")
    return [
        cli.Script(parsed[op.script].declarations, (parsed[op.script].queries[op.query],))
        for op in work.ops
    ]


@dataclass
class Result:
    latency: float
    outcome: str  # "ok", a typed error kind, "deadline", "exception:<type>", "cert-rejected"
    digest: str
    text: str
    certificates: Tuple[str, ...]


_ERROR = re.compile(r"^! error\(([a-z-]+)\)", re.M)


def run_op(pkg, work: Workload, prep: Prepared, i: int, tracer=NullTracer()) -> Result:
    """Run operation i once under the deadline and classify its outcome."""
    cli, certcheck = pkg.cli, pkg.certcheck
    script = prep[i]
    replay = work.name == "certify"
    tracer.start_op(i)
    text, certs, outcome = "", (), "ok"
    start = time.perf_counter()
    try:
        with deadline(DEADLINE_S):
            start = time.perf_counter()  # after arming the timer, which is not the program's time
            report = cli.run(script)
            checks = [certcheck.check_certificate(c) for c in report.certificates] if replay else []
            latency = time.perf_counter() - start
        text, certs = report.text, report.certificates
        if report.exit_code != 0:
            m = _ERROR.search(text)
            outcome = m.group(1) if m else f"exit-{report.exit_code}"
        elif not all(c.ok for c in checks):
            outcome = "cert-rejected"
    except DeadlineExceeded:
        latency = time.perf_counter() - start
        outcome = "deadline"
    except Exception as exc:  # an untyped exception is a failed operation
        latency = time.perf_counter() - start
        outcome = f"exception:{type(exc).__name__}"
    digest = hashlib.sha256("\x00".join((outcome, text) + tuple(certs)).encode()).hexdigest()[:16]
    return Result(latency, outcome, digest, text, tuple(certs))


# ---------------------------------------------------------------------------
# Correctness gate


_LEMMA1 = re.compile(r"^= bound (\S+) cover (\d+) rounds (\d+)$", re.M)
_VALUE = re.compile(r"^= (\S+)$", re.M)


def verify(pkg, work: Workload, prep: Prepared, i: int, res: Result) -> List[str]:
    """Problems with operation i's result; empty when it is correct.

    Checks the expected outcome and the exact invariants of its kind:
    measures against the benchmark's own automata, trace-exact values
    against hull bounds and the product identity, lemma1 bounds against
    ((2^k-1)/2^k)^m and the model's cover, certificates by replay, and
    product-check's node count.
    """
    op = work.ops[i]
    if res.outcome != op.expect:
        return [f"op {i} ({op.kind}): outcome {res.outcome}, expected {op.expect}"]
    if res.outcome != "ok":
        return []
    problems: List[str] = []
    say = problems.append
    check = op.check
    if "measure" in check:
        auto, word = check["measure"]
        value = Fraction(_VALUE.search(res.text).group(1))
        if value != model.cylinder_measure(auto, word):
            say(f"op {i}: measure {value} differs from the cylinder law")
    if op.kind == "trace-exact":
        problems += _verify_trace_exact(pkg, prep, i, op, res)
    if op.kind == "lemma1":
        problems += _verify_lemma1(pkg, work, i, op, res)
    if "product_nodes" in check:
        a, b, depth = check["product_nodes"]
        want = model.node_count(model.product_auto(a, b), depth, even_only=True)
        if f"= ok {want} nodes checked" not in res.text:
            say(f"op {i}: product-check did not check {want} nodes")
    return problems


def query_trees(pkg, prep: Prepared, i: int):
    """(X, P) of a `... X in P` query, resolved like cli.run resolves them."""
    script = prep[i]
    env = pkg.cli.builtin_env()
    env.update(dict(script.declarations))
    x_name, p_name = script.queries[0].args[:2]
    return env[x_name], env[p_name]


def _verify_trace_exact(pkg, prep, i, op, res) -> List[str]:
    measure, trees = pkg.measure, pkg.trees
    value = Fraction(_VALUE.search(res.text).group(1))
    x, p = query_trees(pkg, prep, i)
    problems = []
    if op.check.get("value") is not None and value != op.check["value"]:
        problems.append(f"op {i}: trace-exact {value}, the benchmark's automata give {op.check['value']}")
    hull = measure.trace_upper(p, x, 12).upper_bounds
    if any(value > u for u in hull):
        problems.append(f"op {i}: trace-exact {value} exceeds a hull bound")
    if "components" in op.check:
        parts = Fraction(1)
        for xc, pc in op.check["components"]:
            parts *= measure.trace_exact(trees.parse_tree_expr(pc), trees.parse_tree_expr(xc)).exact
        if parts != value:
            problems.append(f"op {i}: product trace {value} != product of component traces {parts}")
    return problems


def _verify_lemma1(pkg, work, i, op, res) -> List[str]:
    m = _LEMMA1.search(res.text)
    if m is None:
        return [f"op {i}: malformed lemma1 answer"]
    bound, cover, rounds = Fraction(m.group(1)), int(m.group(2)), int(m.group(3))
    want = op.check["lemma1"]
    k = want["k"]
    problems = []
    if bound > Fraction(2**k - 1, 2**k) ** rounds:
        problems.append(f"op {i}: lemma1 bound {bound} exceeds ((2^k-1)/2^k)^m")
    if (str(bound), cover) != (want["bound"], want["cover"]):
        problems.append(f"op {i}: lemma1 bound/cover {bound}/{cover}, model {want['bound']}/{want['cover']}")
    if len(res.certificates) != 1 or f"mode {want['mode']}\n" not in res.certificates[0]:
        problems.append(f"op {i}: expected one certificate in mode {want['mode']}")
    if work.name != "certify":  # certify replays inside the timed operation
        for cert in res.certificates:
            if not pkg.certcheck.check_certificate(cert).ok:
                problems.append(f"op {i}: certificate does not replay ok")
    return problems


# ---------------------------------------------------------------------------
# Metrics


def percentile(sorted_values: List[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


@dataclass
class LoopStats:
    # (pass, op index, wall seconds, host slowness): the slowness is the mean
    # of the probes around the execution over PROBE_REF_S
    executions: List[Tuple[int, int, float, float]]
    failed: int
    problems: List[str]
    digests: List[Tuple[int, str, str]]  # (op index, outcome, digest)
    setup_times: List[Tuple[int, float, float]]  # (pass, wall seconds, host slowness)


def pass_ops(work: Workload, n: int) -> range:
    """The operations of pass n: the whole op list of a workload that may
    repeat, else the n-th round of the pool (empty once it runs out)."""
    if work.repeat:
        return range(len(work.ops))
    return range(min(n * work.pass_size, len(work.ops)), min((n + 1) * work.pass_size, len(work.ops)))


class Probes:
    """Probes around timed work; one probe serves as the `after` of one
    piece of work and the `before` of the next, unless untimed work ran
    in between."""

    def __init__(self):
        self.last: Optional[float] = None

    def before(self):
        if self.last is None:
            self.last = probe()

    def slowness(self) -> float:
        """Call right after the timed work: the host's slowness during it."""
        after = probe()
        slow = (self.last + after) / 2 / PROBE_REF_S
        self.last = after
        return slow

    def untimed(self):
        self.last = None


def closed_loop(pkg, work: Workload, seconds: float, expected: Optional[List[str]],
                setups_per_pass: int) -> LoopStats:
    """Run passes back to back until `work.passes` passes are done and the
    operations' latencies sum to `seconds`, or, on a machine or program
    too slow for that, until they sum to twice `seconds`.

    Each pass starts from fresh set-ups, timed, and runs its operations on
    the last of them, so that only sharing within one script can help, as
    in real use.  Each distinct operation is verified once, untimed; a
    later run of it must give the same digest.  Every set-up and operation
    lies between two probes of the host's speed.
    """
    setup_times: List[Tuple[int, float, float]] = []
    executions: List[Tuple[int, int, float, float]] = []
    failed = 0
    problems: List[str] = []
    digests: List[Tuple[int, str, str]] = []
    first_digest: Dict[int, str] = {}
    failing = set()
    probes = Probes()
    elapsed = 0.0
    n = 0
    while (n < work.passes or elapsed < seconds) and elapsed < 2 * seconds and pass_ops(work, n):
        for _ in range(setups_per_pass):
            probes.before()
            start = time.perf_counter()
            prep = setup(pkg, work)
            wall = time.perf_counter() - start
            setup_times.append((n, wall, probes.slowness()))
        for i in pass_ops(work, n):
            if (n >= work.passes and elapsed >= seconds) or elapsed >= 2 * seconds:
                break
            probes.before()
            res = run_op(pkg, work, prep, i)
            executions.append((n, i, res.latency, probes.slowness()))
            elapsed += res.latency
            digests.append((i, res.outcome, res.digest))
            if i in first_digest:
                bad = [] if res.digest == first_digest[i] else [f"op {i}: output changed between runs"]
                if i in failing and not bad:
                    failed += 1
            else:
                first_digest[i] = res.digest
                bad = verify(pkg, work, prep, i, res)
                probes.untimed()
                if expected is not None and expected[i] != res.digest:
                    bad.append(f"op {i}: digest {res.digest} differs from the committed {expected[i]}")
            if bad:
                failed += 1
                failing.add(i)
                problems.extend(bad)
        n += 1
    return LoopStats(executions, failed, problems, digests, setup_times)


def summarize(work: Workload, stats: LoopStats, peak_rss_mb: float, scaled: bool = True):
    """End-to-end metrics and a note on how the latency figures were taken.

    Each time is divided by the host's slowness around it (see PROBE_REF_S),
    unless `scaled` is false.  Each latency figure is the median of
    `work.passes` executions: of one operation, for a workload that repeats
    its op list, or of one slot of a round, for one that cannot.  The
    number of passes is fixed, not set by how many fit in the time, so a
    faster program gets no more samples.  Throughput, median and tail are
    taken over these figures and the set-up time over the set-ups of the
    same passes.
    """
    samples: Dict[int, List[float]] = {}
    for n, i, lat, slow in stats.executions:
        if n < work.passes:
            samples.setdefault(i % work.pass_size, []).append(lat / slow if scaled else lat)
    lat = sorted(statistics.median(v) for v in samples.values())
    setups = [t / slow if scaled else t for n, t, slow in stats.setup_times if n < work.passes]
    passes = len({n for n, *_ in stats.executions if n < work.passes})
    what = "operations" if work.repeat else "slots of a round"
    note = f"median of {passes} passes for each of {len(lat)} {what}"
    metrics = {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "query_tail_ms": (1000.0 * percentile(lat, work.tail), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, note, len(setups)
