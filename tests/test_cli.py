"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from grasp_vl.cli import main

SPEC = {
    "dim": 32,
    "block_sizes": {"object": 2, "attribute": 4, "relation": 8, "residual": 18},
    "cardinalities": {"object": 4, "attribute": 4, "relation": 4},
    "noise_std": 0.05,
    "n_examples": 160,
    "seed": 0,
}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = base / "synth"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(
        [
            "train",
            "--cache",
            str(synth_dir / "cache" / "manifest.json"),
            "--out",
            str(out),
            "--epochs",
            "3",
            "--batch-size",
            "64",
            "--lr",
            "3e-3",
            "--warmup-epochs",
            "1",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    return out


def tree_digest(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynth:
    def test_two_runs_identical_trees(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec_path), "--out", str(a), "--seed", "0"]) == 0
        assert main(["synth", "--spec", str(spec_path), "--out", str(b), "--seed", "0"]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_manifest_lists_artifacts(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["verb"] == "synth"
        assert "cache/manifest.json" in manifest["artifacts"]
        for rel in manifest["artifacts"]:
            assert (synth_dir / rel).exists(), rel


class TestValidate:
    def test_verdicts_and_summary(self, synth_dir, tmp_path):
        out = tmp_path / "val"
        rc = main(["validate", "--input", str(synth_dir / "annotations.jsonl"), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["accepted"] == SPEC["n_examples"]
        verdicts = [json.loads(line) for line in (out / "verdicts.jsonl").read_text().splitlines()]
        assert all(v["verdict"] == "accept" for v in verdicts)


class TestTrainEvalReport:
    def test_train_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint.ckpt").exists()
        history = [json.loads(x) for x in (trained_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) == 3
        assert all("term_means" in h for h in history)

    def test_eval_report_and_pool(self, synth_dir, trained_dir, tmp_path):
        cache = str(synth_dir / "cache" / "manifest.json")
        ckpt = str(trained_dir / "checkpoint.ckpt")
        ev = tmp_path / "eval"
        assert main(["eval", "--cache", cache, "--checkpoint", ckpt, "--out", str(ev)]) == 0
        report = json.loads((ev / "report.json").read_text())
        assert report["stair"] == pytest.approx((report["ret_avg"] + report["hard_avg"]) / 2)

        rp = tmp_path / "report"
        assert main(["report", "--cache", cache, "--checkpoint", ckpt, "--out", str(rp), "--label", "run"]) == 0
        assert (rp / "staircase_decomposition.csv").exists()
        assert (rp / "emergence_decomposition.csv").exists()

        pl = tmp_path / "pool"
        assert main(["pool", "--cache", cache, "--checkpoint", ckpt, "--out", str(pl)]) == 0
        rows = json.loads((pl / "pool.json").read_text())
        assert [r["pool_mode"] for r in rows] == ["full", "test_only"]
        assert rows[0]["hard_avg"] == rows[1]["hard_avg"]

    def test_eval_with_oracle_matrix(self, synth_dir, tmp_path):
        cache = str(synth_dir / "cache" / "manifest.json")
        out = tmp_path / "ev_oracle"
        rc = main(
            ["eval", "--cache", cache, "--matrix", str(synth_dir / "oracle.transform"), "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["hard_avg"] >= 99.0
        assert report["drift"] <= 1e-6

    def test_eval_with_rank_statistics(self, synth_dir, tmp_path):
        cache = str(synth_dir / "cache" / "manifest.json")
        out = tmp_path / "ev_rank"
        rc = main(
            [
                "eval",
                "--cache",
                cache,
                "--matrix",
                str(synth_dir / "oracle.transform"),
                "--annotations",
                str(synth_dir / "annotations.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        stats = report["rank_stats"]
        assert stats is not None
        assert 0.0 <= stats["purity_at_10"] <= 100.0
        assert stats["median_rank"] >= 1


class TestCompare:
    def test_subset_methods(self, synth_dir, tmp_path):
        out = tmp_path / "cmp"
        rc = main(
            [
                "compare",
                "--cache",
                str(synth_dir / "cache" / "manifest.json"),
                "--out",
                str(out),
                "--methods",
                "frozen_full,direct_prefix,grasp_dense",
                "--epochs",
                "2",
                "--batch-size",
                "64",
                "--warmup-epochs",
                "1",
                "--seed",
                "0",
            ]
        )
        assert rc == 0
        rows = json.loads((out / "methods.json").read_text())
        assert [r["method"] for r in rows] == ["frozen_full", "direct_prefix", "grasp_dense"]
        assert (out / "checkpoints" / "grasp_dense.ckpt").exists()


class TestKappa:
    def test_grid_artifacts(self, synth_dir, tmp_path):
        out = tmp_path / "kappa"
        rc = main(
            [
                "kappa",
                "--cache",
                str(synth_dir / "cache" / "manifest.json"),
                "--out",
                str(out),
                "--epochs",
                "1",
                "--batch-size",
                "64",
                "--seed",
                "0",
            ]
        )
        assert rc == 0
        rows = json.loads((out / "kappa.json").read_text())
        assert {r["setting"] for r in rows} == {
            "default",
            "relation_delayed",
            "attribute_delayed",
            "compressed_attr_rel",
        }
        assert (out / "kappa.csv").exists()


class TestThreads:
    def test_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("GRASP_THREADS", "2")
        assert main(["cost", "--dim", "64", "--gallery", "100"]) == 0
        assert "query_transform_ops" in capsys.readouterr().out


class TestCost:
    def test_stdout_table(self, capsys):
        assert main(["cost", "--dim", "512", "--gallery", "10000000"]) == 0
        out = capsys.readouterr().out
        assert "query_transform_ops\t0.26M" in out
        assert "offline_transform_ops\t2.62T" in out
        assert "storage@32\t0.64GB" in out

    def test_json_artifact(self, tmp_path):
        out = tmp_path / "cost"
        assert main(["cost", "--dim", "512", "--gallery", "10000000", "--out", str(out)]) == 0
        payload = json.loads((out / "cost.json").read_text())
        assert payload["query_ops"] == 262144


class TestGradcheck:
    def test_passes_at_dim_8(self, capsys):
        assert main(["gradcheck", "--dim", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_fails_when_tolerance_is_absurd(self):
        assert main(["gradcheck", "--dim", "8", "--seed", "1", "--tolerance", "1e-12"]) == 1


class TestErrors:
    def test_unknown_verb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["transmogrify"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "USAGE"

    def test_missing_transform_is_config_error(self, synth_dir, tmp_path, capsys):
        rc = main(
            [
                "eval",
                "--cache",
                str(synth_dir / "cache" / "manifest.json"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CONFIG"

    @pytest.mark.parametrize(
        "flags",
        [["--batch-size", "0"], ["--batch-size", "1"], ["--epochs", "0"], ["--lr", "nan"], ["--lr", "-1"]],
    )
    def test_bad_train_hyperparameter_is_config_error(self, synth_dir, tmp_path, capsys, flags):
        cache = str(synth_dir / "cache" / "manifest.json")
        rc = main(["train", "--cache", cache, "--out", str(tmp_path / "t"), *flags])
        assert rc == 3
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith('{"error"')]
        assert len(errors) == 1
        assert errors[0]["error"] == "CONFIG"

    def test_unreadable_cache_is_data_error(self, tmp_path, capsys):
        rc = main(["eval", "--cache", str(tmp_path / "nope.json"), "--matrix", "x", "--out", str(tmp_path / "o")])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DATA"
