"""Tests of the benchmark itself: the smoke mode, the correctness gate,
and the refusal to run without the sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_mode_reports_every_metric_of_every_workload():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--seed", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(s) for s in proc.stdout.splitlines() if s.startswith("{")]
    runs, final = lines[:-1], lines[-1]
    assert final["correct"] and final["failed"] == 0
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w["name"], t) for w in SPEC["workloads"] for t in (0, 1)
    }
    computed = set()
    for r in runs:
        key = "per_layer" if r["trace"] else "end_to_end"
        assert list(r["metrics"]) == [m["name"] for m in SPEC[key]]
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        assert [m["unit"] for m in r["metrics"].values()] == [
            m["unit"] for m in SPEC[key]]
        if r["trace"]:
            out = ROOT / "perfbench" / "out" / f"{r['workload']}-seed3-trace1.json"
            computed |= set(json.loads(out.read_text())["per_layer"])
        else:
            assert all(m["value"] > 0 for m in r["metrics"].values())
    # each per-layer metric is measured on at least one workload
    assert {m["name"] for m in SPEC["per_layer"]} <= computed


def test_gate_catches_wrong_answers(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        from lowmult import MultipleRecord, SparsePoly
        from workloads import SMOKE_WORKLOADS, timed_setup
    finally:
        del sys.path[:2]

    wl = SMOKE_WORKLOADS["exhaustive-n18-w6"]
    ctx, engine, _ = timed_setup(wl.poly, wl.engine_kwargs, trace=False)
    wl.prepare(ctx, engine, 3, tmp_path)
    run, check = wl.call("log")
    good = run(engine)
    assert check(good) == []

    # a later call that lost a record no longer matches the checked one
    again = run(engine)
    again.records.pop()
    again.report.found -= 1
    assert check(again)

    # a record that is not a multiple fails the first, full check
    wl.prepare(ctx, engine, 3, tmp_path)
    bogus = MultipleRecord(poly=SparsePoly((0, 1, 2, 3)), weight=4, degree=3)
    good.records.append(bogus)
    good.report.found += 1
    assert check(good)

    class Lying:
        def discrete_log(self, a):
            return 1

    assert wl.engine_problems(Lying())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-n43",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
