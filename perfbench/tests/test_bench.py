"""Tests of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/tests
"""

import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

W = run.load_package()

STAGES = {
    "fit-sim": {"simulate_s", "fit_s", "loglik_s"},
    "replay-dense": {"replay_cps", "rank_ms_p50", "rank_ms_p99"},
    "rankers-text": {"fit_s", "compare_s"},
}


@pytest.fixture(scope="module")
def references():
    with open(run.REFERENCE) as fh:
        return json.load(fh)


def measure(name, trace, references):
    result = run.run_workload(W, name, seed=3, seconds=0, trace=trace,
                              size="tiny", references=references)
    out = io.StringIO()
    code = run.report(result, run.environment(), out=out)
    lines = out.getvalue().splitlines()
    return result, code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit_and_every_check_passes(
        name, trace, references):
    result, code, lines, last = measure(name, trace, references)
    assert result["error"] is None
    assert result["checks"].failures == []
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    if trace:
        expected = {k: unit for k, (unit, _) in run.PER_LAYER.items()}
    else:
        expected = dict(run.END_TO_END)
        assert all(m["value"] > 0 for m in last["metrics"].values())
        for stage in STAGES[name]:
            unit = run.STAGE_UNITS[stage]
            assert any(line.startswith(f"metric {stage} ") and line.endswith(f" {unit}")
                       for line in lines), stage
        assert any(line.startswith("metric failed_frac 0 ratio") for line in lines)
    assert {k: m["unit"] for k, m in last["metrics"].items()} == expected
    for k, unit in expected.items():
        assert any(line.split()[1:2] == [k] and line.endswith(f" {unit}")
                   for line in lines), k


WRONG = {
    "fit-sim": ("heldout_loglik_at_generator", lambda v: v * (1 + 1e-10)),
    "replay-dense": ("hwk_all_trace_digest", lambda v: "0" * len(v)),
    "rankers-text": ("em_log_likelihood_trace", lambda v: [x * (1 + 1e-8) for x in v]),
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_a_wrong_reference_value_fails_the_run(name, references):
    key, spoil = WRONG[name]
    wrong = copy.deepcopy(references)
    wrong["gate"][name][key] = spoil(wrong["gate"][name][key])
    result, code, lines, last = measure(name, 0, wrong)
    assert result["checks"].failed == 1
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1
    assert any(line.startswith(f"check FAIL reference {key}") for line in lines)


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_without_the_package_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
