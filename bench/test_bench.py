"""Smoke tests for the benchmark itself (not part of the package's suite).

    python3 -m pytest -q bench

Each workload runs at its ``--tiny`` length, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from corpus import synthetic_corpus  # noqa: E402
from tracer import Tracer  # noqa: E402
from workload import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 4242  # results of the smoke runs are kept apart by --tiny as well


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _tiny(workload, trace):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def test_benchmark_json_names_the_workloads_and_bounds():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert len(w["why"]) <= 200
        assert f"target val loss {WORKLOADS[w['name']]['target']:.2f}" in w["why"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = _tiny(workload, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_traced_run_emits_every_layer_metric(workload):
    result = _tiny(workload, 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    record = json.loads((ROOT / ".bench_out" / "results" /
                         f"{workload}.seed{SEED}.trace1.tiny.json").read_text(encoding="utf-8"))
    traced = [r for r in record["repetitions"] if r["traced"]]
    assert traced
    for rep in traced:
        for self_s in rep["thread_self_s"].values():
            assert self_s <= rep["wall_s"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "baseline", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_corpus_is_determined_by_the_seed():
    text = synthetic_corpus(3, 5000)
    assert len(text) == 5000
    assert text == synthetic_corpus(3, 5000)
    assert text != synthetic_corpus(4, 5000)
    assert set(text) <= set("abdefgiklmnoprstuvz .")


def test_tracer_self_times_partition_the_root_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap("leaf", leaf)

    def root():
        traced_leaf()
        traced_leaf()
        time.sleep(0.002)

    start = time.monotonic()
    tracer.wrap("root", root)()
    wall = time.monotonic() - start
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["leaf"]["calls"] == 2 and spans["root"]["calls"] == 1
    assert spans["root"]["self"] == pytest.approx(spans["root"]["total"] - spans["leaf"]["total"])
    (thread_self,) = summary["thread_self_s"].values()
    assert thread_self == pytest.approx(spans["root"]["total"])
    assert thread_self <= wall
