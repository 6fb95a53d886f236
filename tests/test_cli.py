"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import grasp_vl
from grasp_vl.cli import _build_parser, main
from grasp_vl.transforms import TransformSpec, load_checkpoint

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


def one_error_line(capsys, category: str) -> dict:
    """The single JSON error line on stderr, checked to be of ``category``."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [json.loads(line) for line in err.splitlines() if line.startswith('{"error"')]
    assert len(errors) == 1 and errors[0]["error"] == category
    return errors[0]


def rewrite_header(src: Path, dst: Path, edit) -> None:
    """Copy a one-JSON-line-header file with its header replaced by ``edit(header)``."""
    header, blob = src.read_bytes().split(b"\n", 1)
    dst.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + blob)


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

    # sha256 of every file `synth --spec spec.json --out synth --seed 3` writes, on numpy 2.4 with its bundled
    # OpenBLAS on one thread: the perfbench test corpus (200 examples), the same spec at an odd size, and at a size
    # that spans several row blocks and ends in a short one
    _GOLDEN_SHA256 = {
        200: {
            "annotations.jsonl": "89ebfaa8d6fda533c1005688d4f17aa24d6d6cfb148bd9019dcd4229073c4b1d",
            "cache/ids.txt": "e804a9f9a42105e3136cc6aef12214d37ae53d019ea3ecc6e3307cbfd170f25f",
            "cache/image.f32": "b5fd1efc3a8df8ae9a15f2fa66af2cf3efcb614306e1a482b1fe46b2b6de5bef",
            "cache/manifest.json": "8f44e9b21c7ee2cda5ca0246d91d7c3c0df418fdddcbb8f3ee4d4d15d0b972ce",
            "cache/neg_action.f32": "cd104060d5004c1b659faef6225902f815a870def028d31241a5fc6af567f547",
            "cache/neg_attribute.f32": "ac9937966c8819fce29174c686450c3a62dd8f97c04db01117a91d9c7b26051c",
            "cache/neg_full.f32": "34c79dd099932067dae918b2cc2dc9a4b1eb7916d0a49c4fbe91d4089fa1c4b0",
            "cache/neg_object.f32": "be3498aace9239b97a9a606cca2e548337260c8ef674cb19951427373737303a",
            "cache/neg_order.f32": "8c16f29036eaec2d91092789388eaa8e6cbc8419dea869eca5020264f6e43ffd",
            "cache/neg_relation.f32": "bbb2e53bd0edbd0493abe91d0393fc210d46951e1c979b342bf3ded59e24898b",
            "cache/splits.json": "b52b4ec6cb61535f057c8d434c144e476999ca60f5fa1d27f5d879a5e89beaf6",
            "cache/text_G0.f32": "03fb5da6f22a1899c459fb731c183e27e1ddb2409c73e5531aea2f11df642d07",
            "cache/text_G1.f32": "c6a0d034b9cf97bfcd82db93a48424f40ff8da9cc9ab1b491060d2091958de93",
            "cache/text_G2.f32": "159f9c24f28bc539e309bf9a94000699e11287f17132e6723a05a8efa06b2b24",
            "cache/text_G3.f32": "18205536fa86bdcd0dfdf53019329b355d47fe70f5221d87937307aeee1bd2a9",
            "manifest.json": "2ecbb088085b000e1c5476d9a010ab0719b34a43c18b4a3093dd938d6c322c6c",
            "oracle.transform": "4a3af44f038c5f332853c391888e4a166a5b15146d8c3d38d6ea17506d8f157e",
            "spec.json": "25ddf43f8e0f726705d39c0e5e647280fbdbbe680f16b255d3443c156a44c2e3",
        },
        2001: {
            "annotations.jsonl": "1e7d091ea629862d2b23166353e9986081ca7988c7af23839fef6b70127c6a01",
            "cache/ids.txt": "ff4311c0cbf4fb12cd93262df698d4dde1441c75b88c300f8098f371f9bf7e49",
            "cache/image.f32": "5243ee7c24adac4730f32fb9c9c5ee820a9535ed284f78315ce0226df9cb28b3",
            "cache/manifest.json": "eb50cc89121be0e9179910df43ecff32998ca25547714ca80206b5aca8a9cae8",
            "cache/neg_action.f32": "94c0025c9eb7b78327f4c056ffef07a5b6c2feaf97219af00ff02a1d39bc1fe3",
            "cache/neg_attribute.f32": "f43c660783a2e9c6f5c153e784583300272059a74a462ce23def46383610f82d",
            "cache/neg_full.f32": "54d72e86b205a80b77c9283e9dde4db27a0b3981ba0c48a85fa0b1da2a7efd65",
            "cache/neg_object.f32": "3ff1b7e0cffa689f8080dbb1a1beb40397a501ab88ffe4fc1c99787d7debe728",
            "cache/neg_order.f32": "afbe4edc5ff7236f093fab55f0caad80c5f4320ae62667c185ac3b926cec9452",
            "cache/neg_relation.f32": "f878a0c8136d9959530bf2b1cbac25a7d558f2d293c8846e9da0e7148ff83673",
            "cache/splits.json": "225824c15c7bc63e8fcceb9c8e3f35a090c3598b4aabf625123268c5392f6023",
            "cache/text_G0.f32": "f1d64abff1dc4becf149b7bbfdd948af18c642f853476e320baea1f33238ea28",
            "cache/text_G1.f32": "2b72975a6040c65ab876466d3ccf8b325292501a34a73fe9eeca3c1b52512e0c",
            "cache/text_G2.f32": "73c61ab1f557112396c8c404035624f2b2aba4cb67e5c9a31b03dcf56ce20950",
            "cache/text_G3.f32": "5f12968b0ef298e3c345a6e1cc7f3d864b030f780193a2daa535ecbacd27a041",
            "manifest.json": "2ecbb088085b000e1c5476d9a010ab0719b34a43c18b4a3093dd938d6c322c6c",
            "oracle.transform": "4a3af44f038c5f332853c391888e4a166a5b15146d8c3d38d6ea17506d8f157e",
            "spec.json": "5a96686519cb3c2a003858b3f4dd948b8ca31cba354c3b81227fd9aa4e7c681d",
        },
        5000: {
            "annotations.jsonl": "64f8e08e80c3b1b432aa0c57519fef5d15f45413d615f7379fce0c9dc01bf3a1",
            "cache/ids.txt": "06c61e53750c1f4a965745b48c9319f013803ea398cdad24e9df6e5615f2c3a4",
            "cache/image.f32": "4d1d3b498b08911ff7ce3ad6971b51efdb53dbcbcd32a372ad48c77d614b0615",
            "cache/manifest.json": "b6b2fbc66a5d09f5874aa34e7cab6f1815c7fc5db2c8e32e5853a7f9ef6b678f",
            "cache/neg_action.f32": "c2829f86e0c40f87d8c0e5ba910db1497db1968a1ec37433a7dc8882293769a9",
            "cache/neg_attribute.f32": "4b185b9b232e0010c1ed2353260ea8d113bbe7d55be4ed058417d6e459b531c4",
            "cache/neg_full.f32": "0290a9605dac93f8485745064bff6bb263c3e7ba7c7e5bf2bb2f068dd0e793b2",
            "cache/neg_object.f32": "b969b45560244afe9efa28cb485cc7c2f7eb258b7d90199eb1f63fce630fa844",
            "cache/neg_order.f32": "9bbe6a8130f98708d01b40e52bc8b0d0efb49c93362dd87570e5322275575a17",
            "cache/neg_relation.f32": "ac1d01c05248ee5be6d61170f8cca5287ad8f0076d8e66704ed18e8b8d17521f",
            "cache/splits.json": "18973666efdc1eda8db7726a1cca7d72c8eba1486fcb6cb88fd2b04bb86c8d9f",
            "cache/text_G0.f32": "3cf4a200b23b91dbc8b9edee680c867f9845d1b17dee306c81e8e690ff5f0014",
            "cache/text_G1.f32": "9f0745233017998674ebfe7df94017a3b975f087c00eca700dd257633b331e1d",
            "cache/text_G2.f32": "9af41f94dc5d82bb9ef5856f7f2d697337836d360e13d85f430af7e5cc69e006",
            "cache/text_G3.f32": "6e7b868d2c1007e604b0d76fc08e426f5c5aa42666ff65a54a3a11b68060430e",
            "manifest.json": "2ecbb088085b000e1c5476d9a010ab0719b34a43c18b4a3093dd938d6c322c6c",
            "oracle.transform": "4a3af44f038c5f332853c391888e4a166a5b15146d8c3d38d6ea17506d8f157e",
            "spec.json": "673a64bfa47f45040fd6aa07427b676c2e3db37dcb3857df91c1857216b0ca46",
        },
    }

    @pytest.mark.parametrize("n_examples", sorted(_GOLDEN_SHA256))
    def test_every_written_byte_is_pinned(self, tmp_path, monkeypatch, n_examples):
        spec = {
            "dim": 64,
            "block_sizes": {"object": 4, "attribute": 8, "relation": 16, "residual": 36},
            "cardinalities": {"object": 8, "attribute": 8, "relation": 8},
            "noise_std": 0.05,
            "n_examples": n_examples,
            "seed": 3,
        }
        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", "spec.json", "--out", "synth", "--seed", "3"]) == 0
        digests = {rel: hashlib.sha256(blob).hexdigest() for rel, blob in tree_digest(Path("synth")).items()}
        assert digests == self._GOLDEN_SHA256[n_examples]

    _BLOCKED_SPEC = {
        "dim": 64,
        "block_sizes": {"object": 4, "attribute": 8, "relation": 16, "residual": 36},
        "cardinalities": {"object": 8, "attribute": 8, "relation": 8},
        "noise_std": 0.05,
        "n_examples": 5000,
        "seed": 3,
    }

    def test_written_cache_is_the_in_memory_cache(self, tmp_path, monkeypatch):
        # synth appends each row block to its files as it is built, and generate_synthetic(spec) gathers the same
        # blocks in memory: 5,000 rows of D = 64 are three row blocks, the last one a row shorter
        from grasp_vl import datastore as D

        spans = D.block_spans(5000, 8 * 64)
        assert len(spans) == 3 and spans[-1][1] - spans[-1][0] < spans[0][1] - spans[0][0]
        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text(json.dumps(self._BLOCKED_SPEC))
        assert main(["synth", "--spec", "spec.json", "--out", "synth", "--seed", "3"]) == 0
        in_memory = D.generate_synthetic(D.SyntheticSpec.from_json_dict(self._BLOCKED_SPEC)).cache
        for name, rows in in_memory.matrices():
            assert Path("synth", "cache", f"{name}.f32").read_bytes() == rows.tobytes(), name

    def test_synth_holds_no_whole_matrix(self, tmp_path, monkeypatch):
        # the eleven 20,000 x 64 float32 matrices are 53.7 MiB; gathered into one array before they were written,
        # synth traced 65.2 MiB, and written block by block 22.1 MiB
        from conftest import traced_peak

        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text(json.dumps({**self._BLOCKED_SPEC, "n_examples": 20000}))
        argv = ["synth", "--spec", "spec.json", "--out", "synth"]
        assert traced_peak(main, argv) < 11 * 20000 * 64 * 4

    def test_seed_flag_overrides_the_spec_seed(self, tmp_path):
        (tmp_path / "spec0.json").write_text(json.dumps(SPEC))
        (tmp_path / "spec7.json").write_text(json.dumps({**SPEC, "seed": 7}))
        flagged, from_spec = tmp_path / "flagged", tmp_path / "from_spec"
        assert main(["synth", "--spec", str(tmp_path / "spec0.json"), "--out", str(flagged), "--seed", "7"]) == 0
        assert main(["synth", "--spec", str(tmp_path / "spec7.json"), "--out", str(from_spec)]) == 0
        a, b = tree_digest(flagged), tree_digest(from_spec)
        del a["manifest.json"], b["manifest.json"]  # their config hashes name different flags
        assert a == b

    def test_manifest_lists_artifacts(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["verb"] == "synth"
        assert "cache/manifest.json" in manifest["artifacts"]
        for rel in manifest["artifacts"]:
            assert (synth_dir / rel).exists(), rel


class TestManifest:
    """Every verb's manifest lists exactly the files it wrote, with the seed the verb resolved."""

    # (argv after the verb, expected seed); {cache}, {oracle}, {ckpt}, {rows} and {spec} are filled in per test
    _VERBS = {
        "synth": (["--spec", "{spec}"], 4),
        "validate": (["--input", "{rows}"], None),
        "train": (["--cache", "{cache}", "--epochs", "1", "--batch-size", "64", "--seed", "2"], 2),
        "eval": (["--cache", "{cache}", "--checkpoint", "{ckpt}"], None),
        "report": (["--cache", "{cache}", "--matrix", "{oracle}"], None),
        "compare": (["--cache", "{cache}", "--methods", "frozen_full,grasp_dense", "--epochs", "1",
                     "--batch-size", "64", "--seed", "3"], 3),
        "kappa": (["--cache", "{cache}", "--epochs", "1", "--batch-size", "64", "--seed", "5"], 5),
        "pool": (["--cache", "{cache}", "--matrix", "{oracle}"], None),
        "cost": (["--dim", "64", "--gallery", "100"], None),
        "gradcheck": (["--dim", "8"], 0),
    }

    @pytest.mark.parametrize("verb", sorted(_VERBS))
    def test_lists_every_written_file_and_the_resolved_seed(self, synth_dir, trained_dir, tmp_path, verb):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "seed": 4}))
        paths = {
            "spec": spec,
            "rows": synth_dir / "annotations.jsonl",
            "cache": synth_dir / "cache" / "manifest.json",
            "oracle": synth_dir / "oracle.transform",
            "ckpt": trained_dir / "checkpoint.ckpt",
        }
        flags, seed = self._VERBS[verb]
        out = tmp_path / "out"
        assert main([verb, *(f.format(**paths) for f in flags), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert manifest["artifacts"] == [rel for rel in written if rel != "manifest.json"]
        assert (manifest["verb"], manifest["seed"]) == (verb, seed)


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

    def test_selected_epoch_records_the_checkpoint_temperatures(self, trained_dir):
        checkpoint = load_checkpoint(trained_dir / "checkpoint.ckpt")
        history = [json.loads(x) for x in (trained_dir / "history.jsonl").read_text().splitlines()]
        record = history[checkpoint.meta["epoch"] - 1]
        assert record["epoch"] == checkpoint.meta["epoch"]
        assert record["temperatures"] == [float(t) for t in np.exp(checkpoint.log_temps)]

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


class TestNonOrthogonalTrain:
    @pytest.mark.parametrize("variant", ["low_rank", "mlp"])
    def test_trains_ungated_and_its_config_round_trips(self, synth_dir, tmp_path, variant):
        cache = str(synth_dir / "cache" / "manifest.json")
        first, again = tmp_path / "first", tmp_path / "again"
        flags = ["--epochs", "2", "--batch-size", "64", "--warmup-epochs", "1", "--seed", "0"]
        assert main(["train", "--cache", cache, "--variant", variant, "--out", str(first), *flags]) == 0
        config = (first / "train_config.json").read_text()
        assert '"drift_gate": Infinity' in config
        assert main(["train", "--cache", cache, "--config", str(first / "train_config.json"), "--out", str(again)]) == 0
        assert (again / "train_config.json").read_text() == config
        assert (again / "checkpoint.ckpt").read_bytes() == (first / "checkpoint.ckpt").read_bytes()


class TestTrainConfigFile:
    def test_spec_flags_override_the_file_and_its_gate_follows_them(self, synth_dir, trained_dir, tmp_path, caplog):
        config = json.loads((trained_dir / "train_config.json").read_text())
        assert config["spec"]["variant"] == "dense_cayley"
        del config["drift_gate"]
        path, out = tmp_path / "dense.json", tmp_path / "t"
        path.write_text(json.dumps(config))
        cache = str(synth_dir / "cache" / "manifest.json")
        with caplog.at_level("INFO", logger="grasp"):
            rc = main(["train", "--cache", cache, "--config", str(path), "--variant", "mlp", "--rank", "4",
                       "--epochs", "1", "--out", str(out)])
        assert rc == 0
        saved = json.loads((out / "train_config.json").read_text())
        assert (saved["spec"]["variant"], saved["spec"]["rank"], saved["drift_gate"]) == ("mlp", 4, float("inf"))
        assert load_checkpoint(out / "checkpoint.ckpt").spec == TransformSpec("mlp", 32, rank=4)
        notices = [r.getMessage() for r in caplog.records if r.getMessage().startswith("flag overrides config")]
        assert notices == ["flag overrides config: variant=mlp", "flag overrides config: rank=4",
                           "flag overrides config: epochs=1"]

    def test_spec_dim_off_the_contract_is_a_config_error(self, synth_dir, trained_dir, tmp_path, capsys):
        config = json.loads((trained_dir / "train_config.json").read_text())
        config["spec"]["dim"] = 16
        path, out = tmp_path / "dim16.json", tmp_path / "t"
        path.write_text(json.dumps(config))
        rc = main(["train", "--cache", str(synth_dir / "cache" / "manifest.json"), "--config", str(path),
                   "--out", str(out)])
        assert rc == 3
        assert "dim" in one_error_line(capsys, "CONFIG")["message"]
        assert not out.exists()


class TestLossSettings:
    """The ``loss`` object of a ``train --config`` file: its weights are keyed by term name, and every number in it
    is finite and >= 0."""

    def test_default_loss_weights_are_pinned(self, trained_dir):
        loss = json.loads((trained_dir / "train_config.json").read_text())["loss"]
        assert loss["loss_weights"] == {"align": 1.0, "ret": 0.5, "rank": 1.0, "inv": 0.5, "pres": 10.0, "ortho": 1.0}

    @staticmethod
    def train_with(synth_dir, trained_dir, tmp_path, table, key, value):
        """``train --config`` with the loss number ``table[key]`` set to the JSON text ``value``."""
        config = json.loads((trained_dir / "train_config.json").read_text())
        numbers = config["loss"][table]
        for part in key[:-1]:
            numbers = numbers[part]
        numbers[key[-1]] = "@value@"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"@value@"', value))
        return main(["train", "--cache", str(synth_dir / "cache" / "manifest.json"), "--config", str(path),
                     "--epochs", "1", "--warmup-epochs", "0", "--curriculum", "none", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "table,key,value",
        [
            ("margins", ("object",), "NaN"),
            ("margins", ("object",), "1e999"),
            ("retention_weights", ("8", "G0"), "-0.5"),
            ("retention_weights", ("8", "G0"), "NaN"),
            ("tolerances", ("full",), "-1"),
        ],
        ids=["nan_margin", "overflowing_margin", "negative_retention_weight", "nan_retention_weight",
             "negative_tolerance"],
    )
    def test_a_number_that_is_not_finite_and_nonnegative_is_a_config_error(
        self, synth_dir, trained_dir, tmp_path, capsys, table, key, value
    ):
        # a NaN or overflowing margin ended the run with NONFINITE_LOSS (exit 4); the others trained with exit 0
        assert self.train_with(synth_dir, trained_dir, tmp_path, table, key, value) == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "CONFIG"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["true", '"0.5"'], ids=["bool", "string"])
    def test_a_weight_that_is_not_a_json_number_is_a_config_error(self, synth_dir, trained_dir, tmp_path, capsys, value):
        assert self.train_with(synth_dir, trained_dir, tmp_path, "loss_weights", ("ret",), value) == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "CONFIG"
        assert not (tmp_path / "o").exists()


class TestThreePrefixContract:
    def test_report_leaves_the_views_without_an_assigned_prefix_empty(self, synth_dir, trained_dir, tmp_path):
        # view_of {8: G0, 16: G1, 32: G3}: no prefix is assigned G2, and G3 only at the full prefix
        config = json.loads((trained_dir / "train_config.json").read_text())
        config["contract"] = {
            "prefix_set": [8, 16, 32],
            "view_assignment": {"8": "G0", "16": "G1", "32": "G3"},
            "boundary_map": {"object": 8, "attribute": 16, "relation": 16, "action": 16, "order": 16, "full": 32},
        }
        config["loss"]["retention_weights"] = {"16": {"G0": 0.25}, "32": {"G0": 0.125, "G1": 0.25}}
        path, trained, out = tmp_path / "three.json", tmp_path / "t", tmp_path / "report"
        path.write_text(json.dumps(config))
        cache = str(synth_dir / "cache" / "manifest.json")
        assert main(["train", "--cache", cache, "--config", str(path), "--epochs", "1", "--out", str(trained)]) == 0
        ckpt = str(trained / "checkpoint.ckpt")
        assert main(["report", "--cache", cache, "--checkpoint", ckpt, "--out", str(out), "--label", "run"]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"report.json", "staircase_decomposition.csv", "emergence_decomposition.csv", "manifest.json"}
        with open(out / "staircase_decomposition.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        retrieval = json.loads((out / "report.json").read_text())["retrieval"]
        assert (row["obj_r1"], row["attr_r1"]) == (f"{retrieval['8:G0']:.2f}", f"{retrieval['16:G1']:.2f}")
        assert row["rel_r1"] == row["cap_r1"] == ""


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


class TestColdStart:
    def test_no_verb_imports_scipy(self, tmp_path):
        # a fresh interpreter: this one imports scipy as the solver's test oracle
        (tmp_path / "spec.json").write_text(json.dumps(SPEC))
        script = textwrap.dedent(
            """
            import sys
            from grasp_vl import cli
            assert cli.main(["synth", "--spec", "spec.json", "--out", "synth", "--seed", "0"]) == 0
            cache = "synth/cache/manifest.json"
            for variant in ("dense_cayley", "permutation"):
                assert cli.main(["train", "--cache", cache, "--out", variant, "--variant", variant,
                                 "--epochs", "1", "--seed", "0"]) == 0
                assert cli.main(["eval", "--cache", cache, "--checkpoint", f"{variant}/checkpoint.ckpt",
                                 "--out", f"eval-{variant}"]) == 0
            assert cli.main(["compare", "--cache", cache, "--out", "compare", "--epochs", "1", "--batch-size", "64",
                             "--methods", "learned_permutation,learned_signed_permutation,grasp_dense"]) == 0
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            assert not loaded, loaded
            """
        )
        src = str(Path(grasp_vl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-2000:]


def _blas_threads():
    """Thread count in force in numpy's bundled OpenBLAS, read through ctypes; None if none is found."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


class TestThreads:
    def test_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("GRASP_THREADS", "2")
        assert main(["cost", "--dim", "64", "--gallery", "100"]) == 0
        assert "query_transform_ops" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_bounds_blas_inside_the_verb_and_restores_it(self, monkeypatch, source):
        from grasp_vl import cli

        before = _blas_threads()
        if before is None:
            pytest.skip("numpy has no bundled OpenBLAS here")
        want = 1 if before != 1 else 2
        seen = []
        monkeypatch.setattr(cli, "_cmd_cost", lambda args: seen.append(_blas_threads()) or 0)
        argv = ["cost", "--dim", "64", "--gallery", "100"]
        if source == "flag":
            argv += ["--threads", str(want)]
        else:
            monkeypatch.setenv("GRASP_THREADS", str(want))
        assert main(argv) == 0
        assert seen == [want]
        assert _blas_threads() == before

    def test_restored_after_a_failing_verb(self, synth_dir, tmp_path):
        before = _blas_threads()
        if before is None:
            pytest.skip("numpy has no bundled OpenBLAS here")
        want = 1 if before != 1 else 2
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--out", str(tmp_path / "x"),
                   "--threads", str(want)])
        assert rc == 3
        assert _blas_threads() == before

    def test_says_when_the_limit_is_not_applied(self, monkeypatch, caplog, capsys):
        from grasp_vl import cli

        monkeypatch.setattr(cli, "_openblas_thread_calls", lambda: [])
        with caplog.at_level("WARNING", logger="grasp"):
            assert main(["cost", "--dim", "64", "--gallery", "100", "--threads", "2"]) == 0
        assert [r.getMessage() for r in caplog.records if "not applied" in r.getMessage()] == [
            "--threads 2 not applied: no OpenBLAS thread entry point found in numpy"
        ]


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

    @pytest.mark.parametrize("flag", ["--step", "--tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_step_or_tolerance_off_its_range_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--dim", "8", flag, value, "--out", str(out)]) == 3
        assert flag[2:] in one_error_line(capsys, "CONFIG")["message"]
        assert not out.exists()

    def test_worst_error_equal_to_the_tolerance_passes(self, tmp_path):
        argv = ["gradcheck", "--dim", "8", "--seed", "1", "--out", str(tmp_path / "gc")]
        main(argv + ["--tolerance", "0"])
        worst = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())["worst"]
        assert main(argv + ["--tolerance", repr(worst)]) == 0

    def test_zero_tolerance_is_a_gate_verdict(self, capsys):
        assert main(["gradcheck", "--dim", "8", "--seed", "1", "--tolerance", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_nan_error_fails(self, monkeypatch, tmp_path, capsys):
        # Python's max() dropped a NaN error, so a NaN gradient passed with exit 0
        from grasp_vl import cli

        check = cli.finite_difference_check

        def nan_for_the_full_objective(model, params, log_temps, batch, config, *args, **kwargs):
            full = all(w > 0.0 for w in config.loss_weights.values())
            return math.nan if full else check(model, params, log_temps, batch, config, *args, **kwargs)

        monkeypatch.setattr(cli, "finite_difference_check", nan_for_the_full_objective)
        argv = ["gradcheck", "--dim", "8", "--seed", "1", "--out", str(tmp_path / "gc")]
        assert main(argv) == 1
        assert "gradcheck\tFAIL\tworst=nan" in capsys.readouterr().out
        verdict = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
        assert math.isnan(verdict["worst"]) and verdict["passed"] is False

    @pytest.mark.parametrize("tolerance,rc", [(None, 0), ("1e-12", 1)])
    def test_out_records_the_verdict(self, tmp_path, capsys, tolerance, rc):
        argv = ["gradcheck", "--dim", "8", "--seed", "1", "--out", str(tmp_path / "gc")]
        assert main(argv + (["--tolerance", tolerance] if tolerance else [])) == rc
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads((tmp_path / "gc" / "gradcheck.json").read_text())["passed"] is (rc == 0)


class TestNoTestRows:
    """A cache with no test split fails with one EMPTY_POOL line, not a NaN table."""

    @pytest.fixture(scope="class")
    def no_test_cache(self, synth_dir, tmp_path_factory):
        from grasp_vl import datastore as D

        cache = D.load_cache(synth_dir / "cache" / "manifest.json")
        cache.split_of = {i: "train" if s == "test" else s for i, s in cache.split_of.items()}
        return str(D.write_cache(cache, tmp_path_factory.mktemp("no_test") / "cache"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--methods", "frozen_full"],
            ["pool", "--matrix", "{oracle}"],
        ],
        ids=["compare", "pool"],
    )
    def test_one_error_line_and_no_out(self, synth_dir, no_test_cache, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(oracle=synth_dir / "oracle.transform") for a in argv]
        assert main(argv + ["--cache", no_test_cache, "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "DATA", "code": "EMPTY_POOL", "message": "no queries"}
        assert not out.exists()


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

    @staticmethod
    def _one_data_error(rc, capsys):
        assert rc == 4
        return one_error_line(capsys, "DATA")

    def test_missing_synth_spec_is_data_error(self, tmp_path, capsys):
        rc = main(["synth", "--spec", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "IO_ERROR"

    # {cache} is a readable cache, so the missing file is read after it where the verb has one
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--spec", "{missing}"],
            ["validate", "--input", "{missing}"],
            ["train", "--cache", "{cache}", "--config", "{missing}"],
            ["eval", "--cache", "{cache}", "--checkpoint", "{missing}"],
            ["report", "--cache", "{cache}", "--checkpoint", "{missing}"],
            ["compare", "--cache", "{missing}"],
            ["kappa", "--cache", "{missing}"],
            ["pool", "--cache", "{cache}", "--checkpoint", "{missing}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_input_leaves_no_out_directory(self, synth_dir, tmp_path, capsys, argv):
        paths = {"cache": str(synth_dir / "cache" / "manifest.json"), "missing": str(tmp_path / "missing")}
        out = tmp_path / "o1"
        rc = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert self._one_data_error(rc, capsys)["code"] == "IO_ERROR"
        assert not out.exists()

    @staticmethod
    def _tree(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    def _verb_argv(self, verb, synth_dir, out):
        if verb == "validate":
            return ["validate", "--input", str(synth_dir / "annotations.jsonl"), "--out", str(out)]
        return ["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--matrix",
                str(synth_dir / "oracle.transform"), "--out", str(out)]

    @pytest.mark.parametrize("verb", ["validate", "eval"])
    @pytest.mark.parametrize("existing", [False, True], ids=["no_out", "existing_out"])
    def test_writer_failure_leaves_out_as_it_was(self, synth_dir, tmp_path, capsys, monkeypatch, verb, existing):
        from grasp_vl import cli

        out = tmp_path / "o"
        argv = self._verb_argv(verb, synth_dir, out)
        if existing:
            assert main(argv) == 0
            (out / "notes.txt").write_text("not written by the verb")
            (out / "report.json").write_text("stale")
        before = self._tree(out) if existing else None
        capsys.readouterr()

        def failing_manifest(*args, **kwargs):  # runs after the verb's other artifacts are written
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_write_manifest", failing_manifest)
        assert self._one_data_error(main(argv), capsys)["code"] == "IO_ERROR"
        if existing:
            assert self._tree(out) == before
        else:
            assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == (["o"] if existing else [])  # no stage left behind

    def test_rerun_replaces_its_artifacts_and_keeps_other_files(self, synth_dir, tmp_path):
        out = tmp_path / "o"
        argv = self._verb_argv("eval", synth_dir, out)
        assert main(argv) == 0
        first = self._tree(out)
        (out / "notes.txt").write_text("not written by the verb")
        (out / "report.json").write_text("stale")
        assert main(argv) == 0
        assert self._tree(out) == {**first, "notes.txt": b"not written by the verb"}
        assert [p.name for p in tmp_path.iterdir()] == ["o"]

    def test_cache_without_ids_file_is_data_error(self, synth_dir, tmp_path, capsys):
        import shutil

        cache = tmp_path / "cache"
        shutil.copytree(synth_dir / "cache", cache)
        (cache / "ids.txt").unlink()
        rc = main(["eval", "--cache", str(cache / "manifest.json"), "--matrix", str(synth_dir / "oracle.transform"),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "IO_ERROR"

    @pytest.mark.parametrize("dim", [None, "x", 0])
    def test_transform_header_without_valid_dim_is_data_error(self, synth_dir, tmp_path, capsys, dim):
        bad = tmp_path / "nodim.transform"
        good = (synth_dir / "oracle.transform").read_bytes()
        header, blob = good.split(b"\n", 1)
        fields = json.loads(header)
        if dim is None:
            del fields["dim"]
        else:
            fields["dim"] = dim
        bad.write_bytes(json.dumps(fields).encode() + b"\n" + blob)
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--matrix", str(bad),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "MALFORMED"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: "{not json",
            lambda row: json.dumps([row]),
            lambda row: json.dumps({k: v for k, v in row.items() if k != "entity"}),
            lambda row: json.dumps({**row, "views": {**row["views"], "G0": 3}}),
            lambda row: json.dumps({**row, "views": {**row["views"], "G1": True}}),
            lambda row: json.dumps({**row, "views": {**row["views"], "G9": "x"}}),
            lambda row: json.dumps({**row, "negatives": {**row["negatives"], "colour": "x"}}),
            lambda row: json.dumps({**row, "distractors": "a caption"}),
            lambda row: json.dumps({**row, "id": 7}),
            lambda row: json.dumps({**row, "split": "holdout"}),
            lambda row: json.dumps({**row, "surface_form": 5}),
        ],
        ids=["bad_json", "not_an_object", "missing_field", "int_view", "bool_view", "unknown_view_level",
             "unknown_negative_type", "distractors_not_a_list", "int_id", "unknown_split", "int_surface_form"],
    )
    def test_malformed_annotation_line_is_rejected_alike_by_validate_and_eval(self, synth_dir, tmp_path, capsys, edit):
        from grasp_vl.datastore import parse_annotation_line
        from grasp_vl.errors import GraspError

        lines = (synth_dir / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
        bad_line = edit(json.loads(lines[3]))
        with pytest.raises(GraspError) as parsed:
            parse_annotation_line(bad_line)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:5] + [bad_line] + lines[5:]) + "\n", encoding="utf-8")

        assert main(["validate", "--input", str(bad), "--out", str(tmp_path / "v")]) == 0
        verdicts = [json.loads(line) for line in (tmp_path / "v" / "verdicts.jsonl").read_text().splitlines()]
        assert verdicts[5] == {"id": "line6", "verdict": "reject", "code": "MALFORMED"}
        assert json.loads((tmp_path / "v" / "summary.json").read_text())["parse_failures"] == 1
        capsys.readouterr()

        out = tmp_path / "o"
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--matrix",
                   str(synth_dir / "oracle.transform"), "--annotations", str(bad), "--out", str(out)])
        err = self._one_data_error(rc, capsys)
        assert (err["code"], err["message"]) == ("MALFORMED", parsed.value.message)
        assert not out.exists()

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_annotation_id_given_twice_is_data_error(self, synth_dir, tmp_path, capsys, where):
        lines = (synth_dir / "annotations.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[3])
        row["entity"] += "_other"
        lines = [json.dumps(row)] + lines if where == "first" else lines + [json.dumps(row)]
        bad, out = tmp_path / "twice.jsonl", tmp_path / "o"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--matrix",
                   str(synth_dir / "oracle.transform"), "--annotations", str(bad), "--out", str(out)])
        err = self._one_data_error(rc, capsys)
        assert err["code"] == "MALFORMED" and repr(row["id"]) in err["message"]
        assert not out.exists()

    def test_unreadable_cache_is_data_error(self, tmp_path, capsys):
        rc = main(["eval", "--cache", str(tmp_path / "nope.json"), "--matrix", "x", "--out", str(tmp_path / "o")])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DATA"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {k: v for k, v in h.items() if k != "params"},
            lambda h: {k: v for k, v in h.items() if k != "spec"},
            lambda h: {**h, "params": [{"name": "b"}]},
            lambda h: {**h, "params": 5},
            lambda h: [h],
        ],
        ids=["no_params", "no_spec", "param_without_shape", "params_not_a_list", "header_not_an_object"],
    )
    def test_malformed_checkpoint_header_is_data_error(self, synth_dir, trained_dir, tmp_path, capsys, edit):
        bad = tmp_path / "bad.ckpt"
        rewrite_header(trained_dir / "checkpoint.ckpt", bad, edit)
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--checkpoint", str(bad),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "MALFORMED"

    @pytest.mark.parametrize(
        "edit,code",
        [(lambda h: h["format"], "MALFORMED"), (lambda h: {**h, "dim": 2**40}, "SHAPE_MISMATCH")],
        ids=["header_not_an_object", "huge_dim"],
    )
    def test_malformed_transform_header_is_data_error(self, synth_dir, tmp_path, capsys, edit, code):
        bad = tmp_path / "bad.transform"
        rewrite_header(synth_dir / "oracle.transform", bad, edit)
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--matrix", str(bad),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == code

    @pytest.mark.parametrize(
        "form", [lambda v: v + 0.9, float, str, lambda v: True], ids=["fractional", "whole_float", "string", "bool"]
    )
    def test_non_integer_transform_header_dim_is_data_error(self, synth_dir, tmp_path, capsys, form):
        # read through int(), a dim of 32.9 or "32" loaded as a 32 x 32 matrix
        bad = tmp_path / "bad.transform"
        rewrite_header(synth_dir / "oracle.transform", bad, lambda h: {**h, "dim": form(h["dim"])})
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--matrix", str(bad),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "MALFORMED"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: {**c, "prefix_set": [float(k) for k in c["prefix_set"]]},
            lambda c: {**c, "boundary_map": {**c["boundary_map"], "full": c["boundary_map"]["full"] + 0.5}},
            lambda c: {**c, "boundary_map": {**c["boundary_map"], "object": str(c["boundary_map"]["object"])}},
        ],
        ids=["float_prefixes", "fractional_kappa", "string_kappa"],
    )
    def test_non_integer_contract_in_checkpoint_is_data_error(self, synth_dir, trained_dir, tmp_path, capsys, edit):
        bad = tmp_path / "bad.ckpt"
        rewrite_header(trained_dir / "checkpoint.ckpt", bad, lambda h: {**h, "contract": edit(h["contract"])})
        rc = main(["eval", "--cache", str(synth_dir / "cache" / "manifest.json"), "--checkpoint", str(bad),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "MALFORMED"

    @pytest.mark.parametrize(
        "field,value",
        [("epochs", 2.9), ("seed", True), ("batch_size", "256"), ("lr_transform", "0.003")],
        ids=["float_epochs", "bool_seed", "string_batch_size", "string_lr"],
    )
    def test_train_config_number_of_the_wrong_json_type_is_config_error(
        self, synth_dir, trained_dir, tmp_path, capsys, field, value
    ):
        config = json.loads((trained_dir / "train_config.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, field: value}))
        rc = main(["train", "--cache", str(synth_dir / "cache" / "manifest.json"), "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "CONFIG"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "change",
        [{"block_sizes": {**SPEC["block_sizes"], "residual": 18.5}}, {"seed": True}, {"n_examples": "160"}],
        ids=["fractional_block", "bool_seed", "string_count"],
    )
    def test_synth_spec_number_of_the_wrong_json_type_is_config_error(self, tmp_path, capsys, change):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, **change}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "CONFIG"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field,value", [("files", 5), ("ids", 5), ("splits", ["splits.json"])], ids=["files", "ids", "splits"]
    )
    def test_malformed_cache_manifest_is_data_error(self, synth_dir, tmp_path, capsys, field, value):
        import shutil

        cache = tmp_path / "cache"
        shutil.copytree(synth_dir / "cache", cache)
        manifest = json.loads((cache / "manifest.json").read_text())
        (cache / "manifest.json").write_text(json.dumps({**manifest, field: value}))
        rc = main(["eval", "--cache", str(cache / "manifest.json"), "--matrix", str(synth_dir / "oracle.transform"),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "MALFORMED"

    @pytest.mark.parametrize(
        "form", [lambda v: v + 0.9, float, str, lambda v: True], ids=["fractional", "whole_float", "string", "bool"]
    )
    @pytest.mark.parametrize("field", ["dim", "count"])
    def test_non_integer_cache_manifest_shape_is_data_error(self, synth_dir, tmp_path, capsys, field, form):
        # read through int(), a dim of 32.9 loaded as 32 and a count of "160" as 160
        import shutil

        cache = tmp_path / "cache"
        shutil.copytree(synth_dir / "cache", cache)
        manifest = json.loads((cache / "manifest.json").read_text())
        (cache / "manifest.json").write_text(json.dumps({**manifest, field: form(manifest[field])}))
        rc = main(["eval", "--cache", str(cache / "manifest.json"), "--matrix", str(synth_dir / "oracle.transform"),
                   "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "MALFORMED"

    def test_synth_failing_part_way_leaves_no_out_and_no_stage(self, tmp_path, capsys, monkeypatch):
        # synth stages its directory before it generates, and appends each row block to the cache files there
        from grasp_vl import datastore as D
        from grasp_vl.errors import GraspError

        check, names, staged = D._check_norms, [], []

        def failing_in_the_second_block(name, blocks, norm_tol):
            names.append(name)
            if len(names) > len(D.CACHE_ROLES):
                staged.extend(p.stat().st_size for p in tmp_path.glob(".o.*/cache/*.f32"))
                raise GraspError("NORM_VIOLATION", f"{name}: injected")
            check(name, blocks, norm_tol)

        monkeypatch.setattr(D, "_check_norms", failing_in_the_second_block)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "n_examples": 5000}))  # two row blocks of D = 32
        rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert self._one_data_error(rc, capsys)["code"] == "NORM_VIOLATION"
        assert len(staged) == len(D.CACHE_ROLES) and all(size > 0 for size in staged)  # the first block was written
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    @pytest.mark.parametrize("content", ["{not json", json.dumps({k: v for k, v in SPEC.items() if k != "noise_std"})],
                             ids=["not_json", "missing_field"])
    def test_bad_synth_spec_is_config_error(self, tmp_path, capsys, content):
        spec = tmp_path / "spec.json"
        spec.write_text(content)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "CONFIG"

    @pytest.mark.parametrize("edit", [lambda text: text[:-3], lambda text: json.dumps({**json.loads(text), "spec": {}})],
                             ids=["not_json", "missing_field"])
    def test_bad_train_config_is_config_error(self, synth_dir, trained_dir, tmp_path, capsys, edit):
        config = tmp_path / "config.json"
        config.write_text(edit((trained_dir / "train_config.json").read_text()))
        rc = main(["train", "--cache", str(synth_dir / "cache" / "manifest.json"), "--config", str(config),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "CONFIG"

    def test_non_string_variant_in_train_config_is_config_error(self, synth_dir, trained_dir, tmp_path, capsys):
        config = json.loads((trained_dir / "train_config.json").read_text())
        config["spec"]["variant"] = ["x"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["train", "--cache", str(synth_dir / "cache" / "manifest.json"), "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "UNKNOWN_VARIANT"

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_synth_noise_is_config_error(self, tmp_path, capsys, noise):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "noise_std": noise}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        assert one_error_line(capsys, "CONFIG")["code"] == "BLOCK_OVERFLOW"
        assert not (tmp_path / "o").exists()

    def test_cache_with_a_nan_entry_is_data_error(self, synth_dir, tmp_path, capsys):
        import shutil

        cache = tmp_path / "cache"
        shutil.copytree(synth_dir / "cache", cache)
        rows = np.fromfile(cache / "image.f32", dtype="<f4")
        rows[5] = np.nan
        rows.tofile(cache / "image.f32")
        out = tmp_path / "o"
        rc = main(["eval", "--cache", str(cache / "manifest.json"), "--matrix", str(synth_dir / "oracle.transform"),
                   "--out", str(out)])
        assert self._one_data_error(rc, capsys)["code"] == "NORM_VIOLATION"
        assert not out.exists()

    @pytest.mark.parametrize(
        "env,argv",
        [
            ("abc", ["cost", "--dim", "64", "--gallery", "100"]),
            ("0", ["cost", "--dim", "64", "--gallery", "100"]),
            (None, ["cost", "--dim", "64", "--gallery", "100", "--threads", "0"]),
            (None, ["gradcheck", "--seed", "-1"]),
            (None, ["gradcheck", "--batch", "0"]),
        ],
        ids=["threads_env_not_an_integer", "threads_env_zero", "threads_flag_zero", "negative_seed", "empty_batch"],
    )
    def test_bad_count_is_usage_error(self, monkeypatch, capsys, env, argv):
        if env is not None:
            monkeypatch.setenv("GRASP_THREADS", env)
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        one_error_line(capsys, "USAGE")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--input", "rows.jsonl", "--out", "o"],
            ["eval", "--cache", "manifest.json", "--matrix", "m.transform", "--out", "o"],
            ["report", "--cache", "manifest.json", "--matrix", "m.transform", "--out", "o"],
            ["pool", "--cache", "manifest.json", "--matrix", "m.transform", "--out", "o"],
            ["cost", "--dim", "64", "--gallery", "100"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_on_a_verb_that_draws_no_random_numbers_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main([*argv, "--seed", "0"])
        assert e.value.code == 2
        assert "--seed" in one_error_line(capsys, "USAGE")["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--spec", "spec.json", "--out", "o"],
            ["train", "--cache", "manifest.json", "--out", "o"],
            ["compare", "--cache", "manifest.json", "--out", "o"],
            ["kappa", "--cache", "manifest.json", "--out", "o"],
            ["gradcheck"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_verbs_that_draw_random_numbers_take_a_seed(self, argv):
        assert _build_parser().parse_args([*argv, "--seed", "7"]).seed == 7
