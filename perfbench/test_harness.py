"""Self-test of the benchmark harness on tiny (t=7) instances.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402
from spans import WRAPPED  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_named_metric_printed_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    env = json.loads(lines[-2])["record"]["env"]
    assert {"commit", "seed", "python", "nproc", "cpu_model"} <= set(env)


def test_all_workloads_print_the_stage_metrics():
    proc = _run("--workload", "all", "--seed", "1", "--seconds", "0.2", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    names = {name.split("/", 1)[1] for name in json.loads(proc.stdout.splitlines()[-1])["metrics"]}
    assert {"certify_s", "certify_jobs2_s", "orig_p50_s", "orig_p75_s", "build_s", "export_s",
            "load_s", "tables_s", "setup_s", "peak_rss_mb", "failed_ratio"} <= names


def test_wrong_pinned_digest_counts_as_failed():
    digests = dict(workloads.TABLE_DIGESTS, **{"table2_csv(8)": "0" * 64})
    tables = workloads.Tables("tiny", 0, False, digests=digests)
    tables.setup()
    tally = workloads.Tally()
    tables.unit(0, tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "table2_csv(8)" in tally.errors[0]


def test_failing_operation_is_counted_and_the_run_ends(monkeypatch):
    import broadcastnet

    def broken_build(params):
        raise ValueError("injected")

    monkeypatch.setattr(broadcastnet, "build", broken_build)
    args = worker.parse(["build_export", "--seed", "1", "--seconds", "0", "--scale", "tiny"])
    out = worker.run(args)
    assert out["attempted"] == out["failed"] == out["units"] == 4
    assert "injected" in out["errors"][0]


def test_absent_wrapped_name_is_reported_not_fatal():
    targets = WRAPPED + (("broadcastnet.verify", None, "renamed_away", "verify.renamed_away"),
                         ("broadcastnet.construct", "NoSuchClass", "tree_rounds", "x.tree_rounds"))
    args = worker.parse(["certify_shrunk", "--seed", "1", "--seconds", "0", "--trace", "1",
                         "--scale", "tiny"])
    out = worker.run(args, targets=targets)
    assert out["absent"] == ["verify.renamed_away", "x.tree_rounds"]
    assert out["failed"] == 0
    assert out["layers"]["verify.check_schedule_s"] > 0
    # every wrapped call site was restored
    from broadcastnet import verify
    assert not hasattr(verify.check_schedule, "__wrapped__")


def test_stratified_sampler_is_seeded_and_balanced():
    strata = {"C11": list("abcd"), "C12": list(range(100)), "C13": list(range(100, 150))}
    draw = lambda seed: [v for _, block in zip(range(20), workloads.stratified_blocks(strata, seed))
                         for v in block]
    first = draw(5)
    assert first == draw(5) and first != draw(6)
    tags = Counter("C11" if isinstance(v, str) else "C12" if v < 100 else "C13" for v in first)
    assert tags == {"C11": 20, "C12": 20, "C13": 20}


def test_no_result_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
