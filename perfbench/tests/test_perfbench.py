"""Smoke-size tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import layers  # noqa: E402
import referees  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.gen import iscas89  # noqa: E402
from repro.unroll import bmc  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def pool():
    return workloads.load_pool()


def trimmed(inputs):
    """A ``check`` draw cut down to two quick designs."""
    inputs.items = [item for item in inputs.items
                    if item[0] == "credit2" or item[0].startswith("S27~")]
    return inputs


def smoke_run(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    real_draw = workloads.draw
    monkeypatch.setattr(workloads, "draw", lambda *args, **kwargs:
                        trimmed(real_draw(*args, **kwargs)))
    code = run.main(["--workload", "check", "--seed", "1", "--seconds",
                     "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_matches_the_metric_tables(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert "setup_s" in run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(monkeypatch, capsys, spec, trace):
    code, detail, result = smoke_run(monkeypatch, capsys, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert detail["toggles"]["sat_profile"] is False
    assert detail["toggles"]["metrics"] is False
    assert detail["toggles"]["trace_sink"] is False
    if trace:
        assert result["metrics"]["bmc.calls"]["value"] > 0
        assert 0 <= result["metrics"]["unattributed_frac"]["value"] < 1
    else:
        assert detail["items"] > 0
        assert 0 <= detail["item_tail_quantile"] < 1


def test_speed_sampler_scales_by_the_probe_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 10
    assert sampler.factor() == pytest.approx(
        speed.REFERENCE_PROBE_S / sampler.probe_s())
    assert speed.Sampler().factor() == 1.0


def test_speed_factor_near_a_moment_uses_the_local_samples():
    sampler = speed.Sampler()
    sampler.samples = [2 * speed.REFERENCE_PROBE_S] * 50 + \
        [speed.REFERENCE_PROBE_S] * 50
    sampler.times = [float(i) for i in range(100)]
    assert sampler.factor_near(10.0) == pytest.approx(0.5)
    assert sampler.factor_near(90.0) == pytest.approx(1.0)
    assert 0.5 < sampler.factor() < 1.0


def test_seed_fixes_and_changes_the_inputs(pool):
    for name in workloads.WORKLOADS:
        first = workloads.draw(name, 1, pool).keys
        assert workloads.draw(name, 1, pool).keys == first
        assert workloads.draw(name, 2, pool).keys != first


def test_every_seed_measures_the_same_item_count(pool):
    for name in workloads.WORKLOADS:
        counts = {len(workloads.draw(name, s, pool).facts)
                  for s in range(1, 8)}
        assert len(counts) == 1, (name, counts)


def test_work_counters_repeat(pool):
    inputs = trimmed(workloads.draw("check", 1, pool))
    first = run.run_pass("check", inputs, None)
    again = run.run_pass("check", inputs, None)
    assert first.counters["sat.solve_calls"] > 0
    assert first.counters == again.counters


@pytest.fixture(scope="module")
def s27_cex():
    net = iscas89.generate("S27")
    target = net.targets[0]
    result = bmc(net, target, max_depth=10)
    assert result.status == "falsified"
    return net, target, result.counterexample


def test_replay_referee_accepts_then_rejects_corruption(s27_cex):
    net, target, cex = s27_cex
    assert referees.replay(net, target, cex) is None
    assert referees.replay(net, target, None)
    assert referees.replay(net, target, replace(cex, depth=cex.depth + 1))
    flipped = dict(cex.initial_state)
    vid = next(iter(flipped))
    flipped[vid] ^= 1
    assert referees.replay(net, target,
                           replace(cex, initial_state=flipped))


def test_verdict_referees_fire_on_corrupted_verdicts(s27_cex):
    net, target, cex = s27_cex
    good = {"status": "falsified", "bound": cex.depth + 1, "net": net,
            "target": target, "cex": cex}
    guard = {"protocol": False, "in_guard": True, "first_hit": cex.depth}
    assert referees.verdict(good, guard) is None
    cases = [
        (dict(good, status="proven"), guard),          # false PROVEN
        (dict(good, bound=cex.depth), guard),          # bound too small
        (dict(good, status="unknown"), {"protocol": True}),
        (dict(good, status="falsified"),
         dict(guard, first_hit=None)),                 # unreachable
        (dict(good, status="error", error="boom"), guard),
        (dict(good, degraded=True, reason="certification"), guard),
        (dict(good, cex=replace(cex, depth=cex.depth + 1)), guard),
    ]
    for corrupted, facts in cases:
        assert referees.verdict(corrupted, facts), corrupted


def test_table_referee_fires_on_corrupted_cells(pool):
    row = pool["table"][0]
    facts = {"cells": row["cells"]}
    good = {"cells": json.loads(json.dumps(row["cells"]))}
    assert referees.table_row(good, facts) is None
    bad = json.loads(json.dumps(row["cells"]))
    bad[2][1] += 1
    assert referees.table_row({"cells": bad}, facts)
    assert referees.table_row(
        {"cells": ["error: budget exhausted"] + bad[1:]}, facts)


def test_missing_program_source_exits_without_a_result(tmp_path, spec):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_compare_refuses_across_host_fingerprints(tmp_path):
    def result(cpu):
        detail = {"workload": "check", "seed": 1, "work_counters": {},
                  "fingerprint": {"cpu_model": cpu, "nproc": 2,
                                  "python": "x", "machine": "y",
                                  "calibration_s": 0.05}}
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        path = tmp_path / f"{cpu}.out"
        path.write_text(json.dumps({"detail": detail}) + "\n"
                        + json.dumps({"metrics": metrics}) + "\n")
        return str(path)

    assert compare.main(["--base", result("a"), "--cand", result("b")]) == 3
    assert compare.main(["--base", result("a"), "--cand", result("a")]) == 0
