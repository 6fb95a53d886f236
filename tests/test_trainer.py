"""Training loop: determinism, curriculum gating, checkpoint selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from grasp_vl import objective as O
from grasp_vl import trainer as TR
from grasp_vl import transforms as T
from grasp_vl.errors import GraspError


def small_train_config(contract, variant="dense_cayley", **overrides):
    cfg = TR.TrainConfig(
        spec=T.TransformSpec(variant, contract.dim, stacks=2, rank=4),
        contract=contract,
        loss=O.LossConfig.default(contract),
        epochs=4,
        batch_size=64,
        seed=0,
        lr_transform=3e-3,
        lr_temps=3e-3,
        warmup_epochs=1,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class TestCurriculum:
    def test_default_schedule(self):
        f = TR.enabled_types_for_epoch
        assert f("default", 3, 1) == ()
        assert f("default", 3, 3) == ()
        assert f("default", 3, 4) == ("object",)
        assert f("default", 3, 5) == ("object", "attribute")
        assert f("default", 3, 6) == ("object", "attribute", "relation", "action", "order")
        assert f("default", 3, 7) == T.NEGATIVE_TYPES
        assert f("default", 3, 20) == T.NEGATIVE_TYPES

    def test_all_after_warmup(self):
        f = TR.enabled_types_for_epoch
        assert f("all_after_warmup", 2, 2) == ()
        assert f("all_after_warmup", 2, 3) == T.NEGATIVE_TYPES

    def test_slow_schedule_takes_two_epochs_per_stage(self):
        f = TR.enabled_types_for_epoch
        assert f("slow", 1, 2) == ("object",)
        assert f("slow", 1, 3) == ("object",)
        assert f("slow", 1, 4) == ("object", "attribute")
        assert f("slow", 1, 9) == T.NEGATIVE_TYPES

    def test_none_schedule_is_everything_immediately(self):
        assert TR.enabled_types_for_epoch("none", 3, 1) == T.NEGATIVE_TYPES

    def test_unknown_curriculum(self):
        with pytest.raises(GraspError):
            TR.enabled_types_for_epoch("mystery", 1, 1)


class TestSelectCheckpoint:
    def _cand(self, epoch, stair, drift):
        return TR.CheckpointCandidate(epoch=epoch, stair=stair, drift=drift, params={}, log_temps=np.zeros(1))

    def test_gate_excludes_drifting_candidate(self):
        picked = TR.select_checkpoint(
            [self._cand(1, 60.0, 0.3), self._cand(2, 52.0, 1e-7)], drift_gate=1e-5
        )
        assert picked.stair == 52.0

    def test_single_compliant_candidate(self):
        c = self._cand(3, 10.0, 0.0)
        assert TR.select_checkpoint([c], drift_gate=1e-5) is c

    def test_tie_broken_by_earliest_epoch(self):
        picked = TR.select_checkpoint(
            [self._cand(1, 50.0, 0.0), self._cand(2, 50.0, 0.0)], drift_gate=1e-5
        )
        assert picked.epoch == 1

    def test_no_valid_checkpoint(self):
        with pytest.raises(GraspError) as e:
            TR.select_checkpoint([self._cand(1, 60.0, 0.3)], drift_gate=1e-5)
        assert e.value.code == "NO_VALID_CHECKPOINT"


class TestAdam:
    def test_per_coordinate_lr_matches_separate_optimizers(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(12)
        lr = np.full(12, 3e-3)
        lr[8:] = 1e-2
        joint = TR._Adam(12, lr)
        head, tail = TR._Adam(8, 3e-3), TR._Adam(4, 1e-2)
        xh, xt = x[:8], x[8:]
        for _ in range(6):
            g = rng.standard_normal(12)
            x = joint.step(x, g)
            xh, xt = head.step(xh, g[:8]), tail.step(xt, g[8:])
            assert np.array_equal(x, np.concatenate([xh, xt]))


class TestTrain:
    def test_identical_runs_are_bit_identical(self, small_cache, ladder32):
        cfg = small_train_config(ladder32, epochs=2)
        a, _ = TR.train(cfg, small_cache)
        b, _ = TR.train(cfg, small_cache)
        assert np.array_equal(a.params["b"], b.params["b"])
        assert np.array_equal(a.log_temps, b.log_temps)
        assert a.meta["epoch"] == b.meta["epoch"]

    def test_warmup_has_no_typed_losses(self, small_cache, ladder32):
        cfg = small_train_config(ladder32, epochs=2, warmup_epochs=2)
        _, history = TR.train(cfg, small_cache)
        for stats in history:
            assert stats.term_means["rank"] == 0.0
            assert stats.term_means["inv"] == 0.0

    def test_orthogonal_drift_stays_tiny_every_epoch(self, small_cache, ladder32):
        cfg = small_train_config(ladder32, epochs=3)
        _, history = TR.train(cfg, small_cache)
        for stats in history:
            assert stats.val_drift <= 1e-5

    def test_more_epochs_never_reduce_selected_stair(self, small_cache, ladder32):
        short, _ = TR.train(small_train_config(ladder32, epochs=2), small_cache)
        long, _ = TR.train(small_train_config(ladder32, epochs=4), small_cache)
        assert long.meta["val_stair"] >= short.meta["val_stair"]

    def test_loss_trace_finite(self, small_cache, ladder32):
        _, history = TR.train(small_train_config(ladder32, epochs=2), small_cache)
        for stats in history:
            for term, value in stats.term_means.items():
                assert np.isfinite(value), term

    def test_lr_temps_governs_only_the_temperatures(self, small_cache, ladder32):
        ckpt, _ = TR.train(small_train_config(ladder32, epochs=1, lr_temps=1e-12), small_cache)
        assert np.abs(ckpt.log_temps - np.log(0.07)).max() <= 1e-9

    @pytest.mark.parametrize(
        "variant,gate",
        [
            ("dense_cayley", 1e-5),
            ("butterfly", 1e-5),
            ("permutation", 1e-5),
            ("signed_permutation", 1e-5),
            ("low_rank", math.inf),
            ("mlp", math.inf),
        ],
    )
    def test_default_drift_gate_follows_the_evaluated_map(self, ladder32, variant, gate):
        cfg = small_train_config(ladder32, variant=variant)
        assert cfg.drift_gate == gate
        fields = cfg.to_json_dict()
        del fields["drift_gate"]
        assert TR.TrainConfig.from_json_dict(fields).drift_gate == gate
        assert TR.TrainConfig.from_json_dict({**fields, "drift_gate": 1e-3}).drift_gate == 1e-3

    def test_non_orthogonal_variant_can_fail_drift_gate(self, small_cache, ladder32):
        cfg = small_train_config(ladder32, variant="mlp", epochs=1, drift_gate=1e-12)
        with pytest.raises(GraspError) as e:
            TR.train(cfg, small_cache)
        assert e.value.code == "NO_VALID_CHECKPOINT"

    def test_checkpoint_round_trip(self, small_cache, ladder32, tmp_path):
        ckpt, _ = TR.train(small_train_config(ladder32, epochs=2), small_cache)
        path = tmp_path / "m.ckpt"
        T.save_checkpoint(path, ckpt)
        loaded = T.load_checkpoint(path)
        assert np.array_equal(loaded.params["b"], ckpt.params["b"])
        assert loaded.meta["epoch"] == ckpt.meta["epoch"]
        a = loaded.eval_transform().matrix
        b = ckpt.eval_transform().matrix
        assert np.array_equal(a, b)
