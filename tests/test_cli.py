"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
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
