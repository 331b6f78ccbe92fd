"""Smoke test of the benchmark at a tiny size."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from phishevade import attacks, classifier, collision, dom, mutation, pelican  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

OWN_METRICS = {
    "attack-suite": {"attack.attacks_per_s", "attack.white_ms_p50",
                     "attack.grey_ms_p50", "attack.black_ms_p50",
                     "attack.black_ms_p90", "attack.queries_mean"},
    "defend-stream": {"defend.pages_per_s", "defend.ms_p50", "defend.ms_p90"},
    "infer-corpus": {"infer.kb_per_s"},
}

# Layers a workload must never enter: (workload, per-layer metric).
NEVER_CALLED = [
    ("attack-suite", "dom.parse.calls"),
    ("attack-suite", "pelican.similarity.calls"),
    ("defend-stream", "dom.copy.calls"),
    ("infer-corpus", "dom.copy.calls"),
    ("infer-corpus", "pelican.similarity.calls"),
]


def test_workloads_are_the_ones_benchmark_json_names():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def tiny_run(name: str, trace: bool, workdir: str):
    return workloads.run_benchmark(
        name, seed=3, seconds=0.0, trace=trace, spec=SPEC, import_s=0.0,
        workdir=workdir, sizes=workloads.TINY[name], setup_repeats=1)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, details = tiny_run(name, trace, str(tmp_path))
    assert result["correct"], details.get("problems")
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float) and math.isfinite(emitted["value"])
    if trace:
        metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
        for workload, key in NEVER_CALLED:
            if workload == name:
                assert metrics[key] == 0.0, key
        self_total = sum(value for key, value in metrics.items()
                         if key.endswith(".self_s"))
        assert self_total <= metrics["trace.wall_s"]
    else:
        assert OWN_METRICS[name] <= set(details)
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0.0


def test_tracer_wraps_every_binding_and_restores_it():
    named = [(attacks, "extract_all_features"), (classifier, "extract_all_features"),
             (mutation, "extract_all_features"), (mutation, "extract_page_features"),
             (collision, "extract_page_features"), (pelican, "linear_sum_assignment"),
             (pelican, "signature_of"), (pelican, "tree_similarity_pelican"),
             (dom.DomTree, "copy")]
    bindings = [(owner, attr) for _, home, name in layers.SPANS + layers.COUNTS
                for owner, attr in layers._bindings(home, name)]
    assert set(named) <= set(bindings)
    before = {(owner, attr): vars(owner)[attr] for owner, attr in bindings}

    with layers.Tracer() as tracer:
        for owner, attr in bindings:
            assert vars(owner)[attr] is not before[(owner, attr)], (owner, attr)
        tree = dom.parse_html("<html><body><p>x</p></body></html>", "http://a.test/")
        tree.copy()
        classifier.ScoreOracle(workloads.inputs.suite_model()).score_page(tree)

    for owner, attr in bindings:
        assert vars(owner)[attr] is before[(owner, attr)], (owner, attr)
    values = tracer.values()
    assert values["dom.parse.calls"] == 1.0
    assert values["dom.copy.calls"] == 1.0
    assert values["features.extract.calls"] == 1.0
    assert values["classifier.score.calls"] == 1.0


def test_wrong_expected_verdict_is_a_failed_operation(tmp_path):
    workload = workloads.set_up("defend-stream", 3, str(tmp_path),
                                workloads.TINY["defend-stream"])
    stream = workload.inputs.stream
    stream[0] = dataclasses.replace(stream[0], expected_label=pelican.WHITELISTED)
    outcome = workloads.Outcome()
    workloads.measure(workload, 0.0, outcome)
    assert outcome.attempted == len(stream)
    assert outcome.failed == 1
    assert outcome.problems[0].startswith("page 0 ")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
