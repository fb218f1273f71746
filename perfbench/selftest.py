"""The benchmark's own tests, at the tiny scale.

    python3 -m pytest -q perfbench/selftest.py

Each test runs the command in a copy of the checkout, so results and digest
history never mix with real runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import probe as probe_mod  # noqa: E402
import tracer as tracer_mod  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src" / "recourselab", root / "src" / "recourselab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def bench(root: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--seconds", "0", "--scale", "tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def test_benchmark_json_matches_the_metrics_printed():
    assert WORKLOADS == ["desk-attack", "explain-mix", "full-scale-step"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        n: metrics.END_TO_END[n] for n in metrics.GATED}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metrics.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_reports_every_metric(checkout, workload, trace):
    code, lines = bench(checkout, "--workload", workload, "--seed", "5", "--trace", str(trace))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"])
    printed = "\n".join(lines[:-1])
    for name, unit in metrics.END_TO_END.items():
        assert f"  {name} " in printed
    if trace:
        assert 0.9 < result["metrics"]["trace.coverage"]["value"] <= 1.0
        # the search reaches adam_step through the name explainers imported
        assert result["metrics"]["model.adam_step.calls"]["value"] > 0


def test_same_seed_same_digest_and_a_changed_digest_fails(checkout):
    args = ("--workload", "explain-mix", "--seed", "8")
    assert bench(checkout, *args)[0] == 0
    assert bench(checkout, *args)[0] == 0
    history_path = checkout / ".perfbench" / "digests.json"
    history = json.loads(history_path.read_text())
    (key,) = [k for k in history if k.endswith(":explain-mix:tiny:8")]
    history[key] = "0" * 64
    history_path.write_text(json.dumps(history))
    code, lines = bench(checkout, *args)
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any("differs from an earlier run" in line for line in lines)


def test_planted_invalid_result_trips_the_check(checkout):
    code, lines = bench(checkout, "--workload", "desk-attack", "--seed", "5", "--plant-fault")
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any("rejected by the model" in line for line in lines)


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench(tmp_path, "--workload", "desk-attack", "--seed", "1")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_check_unit_flags_each_kind_of_invalid_output():
    import recourselab as rl

    ds = rl.make_synthetic(40, seed=3)
    net = rl.train_baseline(ds, steps=60, seed=1, hidden=(8,)).model
    rows = ds.test_idx[np.asarray(net.forward(ds.test_features)) <= 0.5][:3]
    queries = ds.features[rows]
    batch = rl.batch_explain(net, queries, rl.CfObjective("wachter"), ds)

    def record(results, steps=()):
        rec = probe_mod.UnitRecord(phase2_steps=list(steps), phase2_evaluations=len(steps))
        rec.searches.append(probe_mod.SearchCapture(
            model=net, flat=net.flatten(), queries=queries, refs=queries,
            mad=np.asarray(ds.mad), results=results))
        return rec

    clean = probe_mod.check_unit(rl, record(batch.results))
    assert clean.correct and clean.attempted == len(rows)

    found = next(i for i, r in enumerate(batch.results) if r.found)
    for field, value, message in (("x_cf", queries[found], "rejected by the model"),
                                  ("cost", batch.results[found].cost + 1e-9, "!= dist_wachter")):
        results = list(batch.results)
        results[found] = rl.CfResult(**{**vars(results[found]), field: value})
        report = probe_mod.check_unit(rl, record(results))
        assert not report.correct and report.failed >= 1
        assert message in report.problems[0]

    step = rl.adversary.Phase2Step(disparity=0.0, np_delta_cost=float("nan"),
                                   np_clean_cost=1.0, pr_clean_cost=1.0, bce=0.1,
                                   objective=1.0, constraint_ok=False, not_found=0)
    report = probe_mod.check_unit(rl, record(batch.results, [step]))
    assert not report.correct and "non-finite phase-2 costs" in report.problems[0]


def test_latency_percentiles_need_ten_samples_beyond_them():
    few = metrics.latency_summary(np.arange(20.0))
    assert few["p50"] == 9.0 and few["p90"] is None and few["tail_pct"] == 50.0
    many = metrics.latency_summary(np.arange(100.0))
    assert many["p90"] == 89.0 and many["tail"] == 89.0
    assert metrics.latency_summary(np.arange(19.0))["p50"] is None


def test_self_time_leaves_out_children_and_benchmark_checks():
    t = tracer_mod.Tracer()
    # unit [0, 10] > search [1, 7] > (step [2, 3], bench.check [4, 6])
    for name, parent, start, end in (("unit", -1, 0.0, 10.0), ("search", 0, 1.0, 7.0),
                                     ("step", 1, 2.0, 3.0), ("bench.check", 1, 4.0, 6.0)):
        t.name_id.append(t._intern(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    spans = t.summary("bench.check")
    assert (spans["search"]["total_s"], spans["search"]["self_s"]) == (4.0, 3.0)
    assert (spans["unit"]["total_s"], spans["unit"]["self_s"]) == (8.0, 4.0)
    assert t.children_of("unit", "bench.check") == (8.0, 4.0)
