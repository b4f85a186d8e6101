"""Tests for the benchmark itself; run with `python -m pytest bench/tests`."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PKG = run.import_program()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _scripts_hash(name: str, seed: int) -> str:
    work = workloads.generate(name, seed)
    text = "\x00".join(work.scripts) + repr([(o.script, o.query, o.kind, o.expect) for o in work.ops])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    assert _scripts_hash(name, 7) == _scripts_hash(name, 7)
    assert _scripts_hash(name, 7) != _scripts_hash(name, 8)


def test_generator_ignores_hash_randomization():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_bench as t; "
        "print(','.join(t._scripts_hash(n, 3) for n in t.workloads.WORKLOADS))"
    )
    outs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            capture_output=True, text=True, env=env, check=True,
        )
        outs.add(proc.stdout.strip())
    assert outs == {",".join(_scripts_hash(n, 3) for n in workloads.WORKLOADS)}


def test_generated_trees_are_perfect():
    for name in workloads.WORKLOADS:
        harness.setup(PKG, workloads.generate(name, 5))  # raises on an imperfect tree


def _main(monkeypatch, *argv):
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.PASSES, name, 1)
    monkeypatch.setitem(run.TRACE_OPS, "exact-solve", 3)
    monkeypatch.setitem(run.TRACE_OPS, "certify", 4)
    monkeypatch.setitem(run.TRACE_OPS, "script-mix", 30)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_printed_metrics_are_declared(monkeypatch, name):
    timed = _main(monkeypatch, "--workload", name, "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
    assert set(timed["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    traced = _main(monkeypatch, "--workload", name, "--seed", "2", "--seconds", "0.5", "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        got = (timed["metrics"].get(spec["name"]) or traced["metrics"][spec["name"]])["unit"]
        assert got == spec["unit"]


COUNTS = ("trees.nav_steps", "words.binword_new", "measure.trace_exact_states",
          "measure.lemma1_cover", "certcheck.cover_lines")


@pytest.mark.parametrize("name", ["script-mix", "certify"])
def test_traced_outputs_equal_untraced_and_counts_repeat(monkeypatch, tmp_path, name):
    monkeypatch.setitem(run.TRACE_OPS, name, 12)
    work = workloads.generate(name, 4)
    runs = [run.traced_run(PKG, work, tmp_path / f"r{i}") for i in range(2)]
    for correct, attempted, failed, metrics, lines, record, digests in runs:
        assert correct and failed == 0, record["problems"]
        untraced = [harness.run_op(PKG, work, harness.setup(PKG, work), i).digest
                    for i in range(attempted)]
        assert [d for _, _, d in digests] == untraced
    assert [runs[0][3][c] for c in COUNTS] == [runs[1][3][c] for c in COUNTS]
    assert runs[0][3]["trees.nav_steps"][0] > 0


def test_deadline_fires_on_a_slow_call():
    start = time.perf_counter()
    with pytest.raises(harness.DeadlineExceeded):
        with harness.deadline(0.05):
            while time.perf_counter() - start < 5:
                pass
    assert time.perf_counter() - start < 1


def test_missed_deadline_fails_the_operation(monkeypatch):
    work = workloads.generate("certify", 1)
    slow = next(i for i, op in enumerate(work.ops) if op.expect == "witness-not-found")
    prep = harness.setup(PKG, work)
    monkeypatch.setattr(harness, "DEADLINE_S", 0.01)
    res = harness.run_op(PKG, work, prep, slow)
    assert res.outcome == "deadline"
    assert harness.verify(PKG, work, prep, slow, res)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tail_percentile_has_ten_figures_beyond(name):
    work = workloads.generate(name, 6)
    assert work.pass_size * (100.0 - work.tail) / 100.0 >= 10
    if not work.repeat:
        assert len(work.ops) >= work.passes * work.pass_size


def test_exact_solve_values_are_half_fractional():
    work = workloads.generate("exact-solve", 6)
    for slot, (shape, _) in enumerate(workloads.EXACT_ROUND):
        values = [op.check["value"] for op in work.ops[slot::work.pass_size]]
        if shape.endswith("-frac"):
            assert all(0 < v < 1 for v in values)
        else:
            assert all(v == 0 for v in values)


def test_each_pass_runs_on_fresh_setups(monkeypatch):
    work = workloads.generate("certify", 1)
    # a pool of three rounds of two operations, which the loop runs out of
    work = dataclasses.replace(work, ops=work.ops[:6], repeat=False, pass_size=2, passes=3)
    preps = []
    real_run_op = harness.run_op
    monkeypatch.setattr(harness, "run_op", lambda pkg, w, prep, i, *a: (
        preps.append(prep) or real_run_op(pkg, w, prep, i, *a)))
    stats = harness.closed_loop(PKG, work, 1000.0, None, 2)
    assert [n for n, *_ in stats.executions] == [0, 0, 1, 1, 2, 2]
    assert len(stats.setup_times) == 6
    assert preps[0] is preps[1] and len({id(preps[0]), id(preps[2]), id(preps[4])}) == 3


def test_metrics_use_only_the_fixed_passes():
    work = workloads.generate("certify", 1)
    work = dataclasses.replace(work, ops=work.ops[:2], pass_size=2, passes=3)
    executions = [(0, 0, 0.4, 1.0), (0, 1, 0.3, 1.0), (1, 0, 0.2, 1.0), (1, 1, 0.5, 1.0),
                  (2, 0, 0.3, 1.0), (2, 1, 0.4, 1.0), (3, 0, 0.01, 1.0), (3, 1, 0.01, 1.0)]
    setups = [(0, 0.2, 1.0), (1, 0.4, 1.0), (2, 0.3, 1.0), (3, 0.001, 1.0)]
    stats = harness.LoopStats(executions, 0, [], [], setups)
    metrics, note, n_setups = harness.summarize(work, stats, 1.0)
    assert metrics["queries_per_s"][0] == pytest.approx(2 / 0.7)
    assert metrics["query_p50_ms"][0] == pytest.approx(350.0)
    assert metrics["setup_s"][0] == pytest.approx(0.3) and n_setups == 3
    assert "median of 3 passes" in note


def test_times_are_scaled_by_host_slowness():
    work = workloads.generate("certify", 1)
    work = dataclasses.replace(work, ops=work.ops[:2], pass_size=2, passes=1)
    stats = harness.LoopStats([(0, 0, 0.4, 2.0), (0, 1, 0.2, 1.0)], 0, [], [], [(0, 0.3, 1.5)])
    metrics, _, _ = harness.summarize(work, stats, 1.0)
    assert metrics["queries_per_s"][0] == pytest.approx(2 / 0.4)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    wall, _, _ = harness.summarize(work, stats, 1.0, scaled=False)
    assert wall["queries_per_s"][0] == pytest.approx(2 / 0.6) and wall["setup_s"][0] == 0.3
    assert 0 < harness.probe() < 1
