"""Tests of the benchmark's tracing on a tiny corpus.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys

import pytest

import spans
import worker
from workloads import ANNOTATIONS, CACHE

sys.path.insert(0, str(worker.SRC))

from grasp_vl import cli, harness, metrics, trainer  # noqa: E402
from grasp_vl.datastore import SyntheticSpec, generate_synthetic  # noqa: E402

TINY = {
    "dim": 64,
    "block_sizes": {"object": 4, "attribute": 8, "relation": 16, "residual": 36},
    "cardinalities": {"object": 8, "attribute": 8, "relation": 8},
    "noise_std": 0.05,
    "n_examples": 200,
    "seed": 3,
}
PIPELINE = [
    ["synth", "--spec", "spec.json", "--out", "synth", "--seed", "3"],
    ["validate", "--input", ANNOTATIONS, "--out", "validate"],
    ["train", "--cache", CACHE, "--out", "train", "--epochs", "2", "--batch-size", "64", "--seed", "3"],
    ["eval", "--cache", CACHE, "--checkpoint", "train/checkpoint.ckpt", "--annotations", ANNOTATIONS, "--out", "eval"],
    ["report", "--cache", CACHE, "--checkpoint", "train/checkpoint.ckpt", "--out", "report"],
    ["compare", "--cache", CACHE, "--out", "compare", "--epochs", "1", "--seed", "3",
     "--methods", "frozen_full,pca_prefix,matryoshka_adaptor,mlp_adapter,learned_signed_permutation,grasp_butterfly"],
    ["pool", "--cache", CACHE, "--matrix", "synth/oracle.transform", "--out", "pool"],
]


def _run_pipeline(run_dir, monkeypatch, tracer=None):
    run_dir.mkdir()
    (run_dir / "spec.json").write_text(json.dumps(TINY), encoding="utf-8")
    monkeypatch.chdir(run_dir)
    for argv in PIPELINE:
        ok, detail = worker.call_verb(argv, tracer)
        assert ok, detail
    return worker.tree_sha256(run_dir)


def test_one_diagnostic_report_call_counts():
    synth = generate_synthetic(SyntheticSpec.from_json_dict(TINY))
    with spans.Tracer() as tracer:
        metrics.diagnostic_report(synth.cache, synth.oracle, synth.contract)
    m = spans.layer_metrics(tracer.spans)
    assert m["metrics.diagnostic_report.calls"] == 1
    assert m["metrics.recall_at_1.calls"] == 20
    assert m["metrics.selectivity.calls"] == 30
    assert m["transforms.apply.calls"] == 132
    n_test = len(synth.cache.split_ids("test"))
    assert m["metrics.score_cells"] == 20 * n_test * synth.cache.n


def test_traced_outputs_are_byte_identical(tmp_path, monkeypatch):
    plain = _run_pipeline(tmp_path / "plain", monkeypatch)
    tracer = spans.Tracer()
    with tracer:
        traced = _run_pipeline(tmp_path / "traced", monkeypatch, tracer)
    assert traced == plain
    m = spans.layer_metrics(tracer.spans)
    assert m["trainer.train.calls"] == 1 + 4  # the train verb plus four trained compare methods
    for variant in ("dense_cayley", "butterfly", "signed_permutation", "low_rank", "mlp"):
        assert m[f"transforms.step.{variant}.ms_per_step"] > 0
    assert m["objective.step.calls"] == m["trainer.steps"] > 0
    assert m["harness.run_method_comparison.s"] > 0 and m["harness.run_pool_sensitivity.s"] > 0


def test_uninstall_restores_every_import_site():
    before = (cli.train, harness.train, trainer.train, cli.diagnostic_report, harness.diagnostic_report)
    with spans.Tracer():
        assert cli.train is harness.train is trainer.train
        assert cli.train is not before[0]
        assert cli.diagnostic_report is harness.diagnostic_report is metrics.diagnostic_report
    assert (cli.train, harness.train, trainer.train, cli.diagnostic_report, harness.diagnostic_report) == before


def test_self_times_sum_to_root_durations():
    # [name, start, end, parent, run_id, work]
    recorded = [
        ["cli.eval", 0.0, 10.0, -1, "r", 0],
        ["metrics.diagnostic_report", 1.0, 9.0, 0, "r", 0],
        ["transforms.apply", 2.0, 3.0, 1, "r", 5],
        ["transforms.apply", 4.0, 6.0, 1, "r", 7],
        ["cli.synth", 10.0, 12.0, -1, "r", 0],
    ]
    assert spans.self_times(recorded) == [2.0, 5.0, 1.0, 2.0, 2.0]
    m = spans.layer_metrics(recorded)
    assert m["cli.self_s"] == 4.0 and m["metrics.self_s"] == 5.0 and m["transforms.self_s"] == 3.0
    assert m["transforms.apply.rows"] == 12
    assert spans.self_time_outside(recorded, "cli.synth") == pytest.approx(10.0)
