"""Benchmark for cantormeasure: one process, one client, closed loop.

Run from the root of a checkout:

    python3 bench/run.py --workload script-mix --seed 1 --seconds 20 --trace 0

The package is imported from `src/` of that checkout; the seed alone fixes
the generated scripts (workloads.py).  `--trace 0` runs the timed loop and
prints the end-to-end metrics: each latency is the median of a fixed
number of passes over an operation or a slot of a round
(harness.summarize), and every time is scaled by the host's speed, which
a calibration loop measures around each operation (harness.PROBE_REF_S).
`--trace 1` runs a fixed prefix of the op list untraced, traced and
untraced again, then under cProfile, and prints the per-layer metrics and
the tracing overhead.  Both print a human-readable summary first and,
as the last line, one JSON object with the keys correct, attempted,
failed and metrics.  Results, spans and the profile
are written under bench/results/.

`--write-expected` runs every operation of the default seed once and
writes the digests that later runs on that seed must reproduce.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import os
import platform
import pstats
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 1
# Timed set-ups before each pass; the last one serves the pass.
SETUPS_PER_PASS = 3
# Operations in one pass of a traced run: the op list of script-mix, one
# round of exact-solve and half the op list of certify.
TRACE_OPS = {"script-mix": 192, "exact-solve": 42, "certify": 30}


def import_program():
    """The cantormeasure package from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cantormeasure
    except ImportError as exc:
        print(f"cannot import cantormeasure from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(cantormeasure.__file__).resolve().parent.parent != src.resolve():
        print(f"cantormeasure was imported from outside {src}", file=sys.stderr)
        raise SystemExit(2)
    return cantormeasure


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def expected_digests(work):
    path = BENCH / "expected" / f"{work.name}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data["seed"] != work.seed:
        return None
    if len(data["digests"]) != len(work.ops):
        raise SystemExit(f"{path} has {len(data['digests'])} digests for {len(work.ops)} ops")
    return data["digests"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def combined_digest(digests) -> str:
    return hashlib.sha256("".join(d for _, _, d in digests).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------


def timed_run(pkg, work, seconds: float):
    stats = harness.closed_loop(pkg, work, seconds, expected_digests(work), SETUPS_PER_PASS)
    rss = peak_rss_mb()
    metrics, note, setups = harness.summarize(work, stats, rss)
    wall, _, _ = harness.summarize(work, stats, rss, scaled=False)
    n = len(stats.executions)
    slowness = sorted(slow for *_, slow in stats.executions)
    lines = [
        f"workload {work.name} seed {work.seed}: {n} operations in "
        f"{sum(lat for _, _, lat, _ in stats.executions):.2f} s of operation time, "
        f"closed loop, 1 client",
        f"  latency figures: {note}",
        f"  times scaled to a host where the probe takes {1000 * harness.PROBE_REF_S:g} ms; "
        f"here it took {slowness[len(slowness) // 2]:.2f}x that (median), "
        f"{slowness[0]:.2f}x-{slowness[-1]:.2f}x",
    ]
    for name, (value, unit) in metrics.items():
        if name == "setup_s":
            extra = f"median of {setups} set-ups, {SETUPS_PER_PASS} before each measured pass"
        elif name == "peak_rss_mb":
            extra = "peak resident set of this process"
        elif name == "query_tail_ms":
            extra = f"p{work.tail:g} of {work.pass_size} figures"
        else:
            extra = f"over {work.pass_size} figures"
        lines.append(f"  {name:<15} {value:>12.4f} {unit:<4} {extra}; unscaled {wall[name][0]:.4f}")
    lines.append(f"  {'fail_share':<15} {stats.failed / n:>12.4f} 1    {stats.failed}/{n} failed")
    record = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "probe_ref_s": harness.PROBE_REF_S,
        "fail_share": stats.failed / n,
        "tail_percentile": work.tail,
        "latency_note": note,
        "samples": {"executions": n, "latency_figures": work.pass_size, "setups": setups},
        "setup_times_s": stats.setup_times,  # (pass, wall seconds, host slowness)
        "executions": stats.executions,  # (pass, op, wall seconds, host slowness)
        "problems": stats.problems[:50],
        "ops": [{"op": i, "outcome": o, "digest": d} for i, o, d in stats.digests],
    }
    return stats.failed == 0, n, stats.failed, metrics, lines, record, stats.digests


def _pass(pkg, work, count, tracer=None):
    """Set up and run the first `count` operations once; (seconds, prep, results)."""
    tracer = tracer or harness.NullTracer()
    start = time.perf_counter()
    tracer.start_op(-1)
    prep = harness.setup(pkg, work, tracer)
    results = [harness.run_op(pkg, work, prep, i, tracer) for i in range(count)]
    return time.perf_counter() - start, prep, results


def product_states(x, p) -> int:
    """Reachable (P-state, X-state) pairs, by BFS over the public navigators."""
    pn, xn = p.navigator(), x.navigator()
    start = (pn.initial, xn.initial)
    seen = {start}
    todo = [start]
    while todo:
        ps, xs = todo.pop()
        xbits = xn.bits(xs)
        for b in pn.bits(ps):
            if b in xbits:
                t = (pn.step(ps, b), xn.step(xs, b))
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    return len(seen)


def traced_run(pkg, work, results_stem: Path):
    count = min(TRACE_OPS[work.name], len(work.ops))
    expected = expected_digests(work)
    _, prep, first = _pass(pkg, work, count)
    problems, failing = [], set()
    for i, res in enumerate(first):
        bad = harness.verify(pkg, work, prep, i, res)
        if expected is not None and expected[i] != res.digest:
            bad.append(f"op {i}: digest {res.digest} differs from the committed {expected[i]}")
        if bad:
            failing.add(i)
            problems += bad
    tracer = Tracer(pkg)
    tracer.install()
    try:
        traced_s, tprep, traced = _pass(pkg, work, count, tracer)
    finally:
        tracer.uninstall()
    untraced_s, _, again = _pass(pkg, work, count)
    same = True
    for i, (a, b, c) in enumerate(zip(first, traced, again)):
        if not a.digest == b.digest == c.digest:
            same = False
            failing.add(i)
            problems.append(f"op {i}: traced or repeated output differs from the untraced one")

    profile = cProfile.Profile()
    profile.enable()
    _pass(pkg, work, count)
    profile.disable()
    text = io.StringIO()
    pstats.Stats(profile, stream=text).sort_stats("tottime").print_stats(10)
    Path(f"{results_stem}.profile.txt").write_text(text.getvalue(), encoding="utf-8")
    tracer.write_spans(f"{results_stem}.spans.jsonl.gz")

    states = sum(
        product_states(*harness.query_trees(pkg, tprep, i))
        for i in range(count) if work.ops[i].kind == "trace-exact"
    )
    levels = sum(1 for _, is_levels in tracer.certs if is_levels)
    metrics = {k: (v, "ms") for k, v in tracer.self_times_ms().items()}
    metrics.update({
        "trees.nav_steps": (tracer.counts["trees.nav_steps"], "count"),
        "words.binword_new": (tracer.counts["words.binword_new"], "count"),
        "measure.trace_exact_states": (states, "count"),
        "measure.lemma1_cover": (sum(c for c, _ in tracer.certs), "count"),
        "measure.lemma1_levels_share": (levels / len(tracer.certs) if tracer.certs else 0.0, "share"),
        "certcheck.cover_lines": (tracer.counts["certcheck.cover_lines"], "count"),
        "trace.overhead_ms": (1000.0 * (traced_s - untraced_s), "ms"),
    })
    lines = [
        f"workload {work.name} seed {work.seed}: traced run of {count} operations "
        f"plus set-up; traced {traced_s:.3f} s, untraced {untraced_s:.3f} s",
    ]
    lines += [f"  {k:<28} {v:>14.4f} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  traced outputs and certificates equal untraced: {same}")
    record = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "samples": count,
        "spans": len(tracer.spans),
        "problems": problems[:50],
        "ops": [{"op": i, "outcome": r.outcome, "digest": r.digest} for i, r in enumerate(traced)],
    }
    digests = [(i, r.outcome, r.digest) for i, r in enumerate(traced)]
    return not problems, count, len(failing), metrics, lines, record, digests


def write_expected(pkg, name: str) -> int:
    work = workloads.generate(name, DEFAULT_SEED)
    prep = harness.setup(pkg, work)
    digests, problems = [], []
    for i in range(len(work.ops)):
        res = harness.run_op(pkg, work, prep, i)
        problems += harness.verify(pkg, work, prep, i, res)
        digests.append(res.digest)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = BENCH / "expected" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=0) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    pkg = import_program()
    if args.write_expected:
        return write_expected(pkg, args.workload)
    work = workloads.generate(args.workload, args.seed)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{work.name}-seed{work.seed}"
    if args.trace:
        correct, attempted, failed, metrics, lines, record, digests = traced_run(pkg, work, stem)
    else:
        correct, attempted, failed, metrics, lines, record, digests = timed_run(pkg, work, args.seconds)
    digest = combined_digest(digests)
    lines.append(f"  outcome digest {digest}; correct: {correct}")
    record.update({
        "workload": work.name,
        "seed": work.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "outcome_digest": digest,
    })
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                      encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
