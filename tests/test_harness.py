"""Experiment grids and the scaling-cost model."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from grasp_vl import harness as H
from grasp_vl import transforms as T
from grasp_vl.datastore import generate_synthetic
from grasp_vl.errors import GraspError
from grasp_vl.metrics import DiagnosticReport, SelTable, diagnostic_report, stair_score

from conftest import SMALL_SPEC


class TestCostModel:
    def test_published_512_column(self):
        est = H.estimate_cost(512, 10_000_000)
        assert est.query_ops == 262_144
        assert est.offline_ops == 2_621_440_000_000
        assert est.storage_bytes[32] == 640_000_000
        assert est.storage_bytes[256] == 5_120_000_000
        assert est.storage_bytes[512] == 10_240_000_000
        f = est.formatted()
        assert f["query_transform_ops"] == "0.26M"
        assert f["offline_transform_ops"] == "2.62T"
        assert f["storage@32"] == "0.64GB"
        assert f["storage@256"] == "5.12GB"
        assert f["storage@512"] == "10.24GB"
        assert f["dense_transform_params"] == "0.26M"

    @pytest.mark.parametrize(
        "dim,query,offline,first_storage",
        [(768, "0.59M", "5.90T", "0.96GB"), (1024, "1.05M", "10.49T", "1.28GB")],
    )
    def test_published_wider_columns(self, dim, query, offline, first_storage):
        est = H.estimate_cost(dim, 10_000_000)
        f = est.formatted()
        assert f["query_transform_ops"] == query
        assert f["offline_transform_ops"] == offline
        assert f[f"storage@{dim // 16}"] == first_storage

    def test_single_item_gallery(self):
        est = H.estimate_cost(512, 1)
        assert est.offline_ops == est.query_ops

    def test_offline_is_gallery_times_query(self):
        for n in (10, 1234):
            est = H.estimate_cost(64, n)
            assert est.offline_ops == n * est.query_ops


def small_grid(contract, **overrides) -> H.GridConfig:
    grid = H.GridConfig(contract=contract, epochs=3, batch_size=64, seed=0, lr=3e-3, warmup_epochs=1)
    for k, v in overrides.items():
        setattr(grid, k, v)
    return grid


@pytest.fixture(scope="session")
def comparison(small_cache, ladder32):
    grid = small_grid(
        ladder32,
        methods=("frozen_full", "direct_prefix", "pca_prefix", "random_rotation", "learned_permutation", "grasp_dense"),
    )
    return H.run_method_comparison(small_cache, grid)


class TestMethodComparison:
    def test_direct_prefix_row_is_free_and_driftless(self, comparison):
        row = {r.method: r for r in comparison.rows}["direct_prefix"]
        assert row.params == 0
        assert row.drift == 0.0

    def test_orthogonal_rows_have_tiny_drift(self, comparison):
        for row in comparison.rows:
            if row.method in ("mlp_adapter", "matryoshka_adaptor"):
                continue
            assert row.drift <= 1e-5, row.method

    def test_params_match_independent_enumeration(self, comparison, ladder32):
        by_name = {r.method: r for r in comparison.rows}
        n_prefixes = len(ladder32.prefixes)
        for method, (variant, _) in H._TRAINED.items():
            if method not in by_name:
                continue
            spec = T.TransformSpec(variant, 32, stacks=8, rank=32)
            model = T.make_model(spec)
            scalars = sum(v.size for v in model.init_params(np.random.default_rng(0)).values())
            assert by_name[method].params == scalars + n_prefixes

    def test_frozen_full_has_no_staircase(self, comparison):
        row = {r.method: r for r in comparison.rows}["frozen_full"]
        assert row.stair is None
        assert row.emergence_mean is None
        assert row.params == 0

    def test_rows_ordered_canonically(self, comparison):
        methods = [r.method for r in comparison.rows]
        assert methods == [m for m in H.METHOD_ORDER if m in methods]

    def test_deterministic_given_seed(self, small_cache, ladder32, comparison):
        grid = small_grid(ladder32, methods=("grasp_dense",))
        again = H.run_method_comparison(small_cache, grid)
        row = {r.method: r for r in comparison.rows}["grasp_dense"]
        assert again.rows[0].to_json_dict() == row.to_json_dict()

    def test_unknown_method_rejected(self, small_cache, ladder32):
        with pytest.raises(GraspError) as e:
            H.run_method_comparison(small_cache, small_grid(ladder32, methods=("quantum",)))
        assert e.value.code == "UNKNOWN_METHOD"

    def test_trained_orthogonal_full_prefix_matches_frozen_row(self, comparison, ladder32):
        # at k = D an orthogonal transform reproduces the frozen caption metric exactly
        frozen = {r.method: r for r in comparison.rows}["frozen_full"]
        grasp_rep = comparison.reports["grasp_dense"]
        assert grasp_rep.retrieval[(32, "G3")] == frozen.cap_r1


class TestFullGrid:
    def test_all_twelve_methods_produce_rows(self, small_cache, ladder32):
        grid = small_grid(ladder32, epochs=2, stacks=2, rank=4)
        comparison = H.run_method_comparison(small_cache, grid)
        assert [r.method for r in comparison.rows] == list(H.METHOD_ORDER)
        by_name = {r.method: r for r in comparison.rows}
        assert by_name["mlp_adapter"].drift > by_name["grasp_dense"].drift  # unconstrained adapter rewrites geometry
        for row in comparison.rows:
            if row.method == "frozen_full":
                continue
            assert np.isfinite(row.stair)
            assert np.isfinite(row.hard_avg)


class TestKappa:
    def test_default_variant_set(self, ladder32):
        variants = H.default_kappa_variants(32)
        assert set(variants) == {"default", "relation_delayed", "attribute_delayed", "compressed_attr_rel"}
        assert variants["relation_delayed"].kappa["relation"] == 16
        assert variants["relation_delayed"].kappa["attribute"] == 4
        assert variants["compressed_attr_rel"].kappa["relation"] == 4
        assert variants["attribute_delayed"].kappa["attribute"] == 8

    def test_same_variant_twice_gives_identical_rows(self, small_cache, ladder32):
        grid = small_grid(ladder32, epochs=2)
        variants = {"a": ladder32, "b": ladder32}
        rows = H.run_kappa_sensitivity(small_cache, grid, variants)
        a, b = rows
        assert a.to_json_dict() | {"setting": ""} == b.to_json_dict() | {"setting": ""}

    def test_invalid_contract_rejected(self, small_cache, ladder32):
        with pytest.raises(GraspError) as e:
            H.run_kappa_sensitivity(small_cache, small_grid(ladder32), {"bad": "nope"})
        assert e.value.code == "INVALID_CONTRACT"


class TestPoolSensitivity:
    def test_hard_columns_shared_and_subset_pool_no_worse(self, small_synth):
        rows = H.run_pool_sensitivity(small_synth.cache, small_synth.oracle, small_synth.contract)
        full, test_only = rows
        assert full.hard_avg == test_only.hard_avg
        assert full.drift == test_only.drift
        for k, value in full.ret_cells.items():
            assert test_only.ret_cells[k] >= value  # smaller pool cannot rank the positive lower

    def test_single_pool_request(self, small_synth):
        rows = H.run_pool_sensitivity(
            small_synth.cache, small_synth.oracle, small_synth.contract, pool_modes=("test_only",)
        )
        assert len(rows) == 1
        assert rows[0].pool_mode == "test_only"

    def test_drift_is_the_reports(self):
        # 1000 examples give 2000 image and caption rows, whose first 1000 are images only
        synth = generate_synthetic(replace(SMALL_SPEC, n_examples=1000))
        rng = np.random.default_rng(0)
        bent = T.LinearTransform(np.eye(32) + 0.1 * rng.standard_normal((32, 32)), "linear", orthogonal=False)
        rows = H.run_pool_sensitivity(synth.cache, bent, synth.contract, pool_modes=("full",))
        assert rows[0].drift == diagnostic_report(synth.cache, bent, synth.contract).drift


class TestTableWriters:
    def test_csv_outputs(self, tmp_path, small_synth):
        rep = diagnostic_report(small_synth.cache, small_synth.oracle, small_synth.contract)
        named = [("oracle", rep)]
        H.write_staircase_decomposition_csv(named, small_synth.contract, tmp_path / "s.csv")
        H.write_emergence_csv(named, tmp_path / "e.csv")
        s_lines = (tmp_path / "s.csv").read_text().strip().splitlines()
        e_lines = (tmp_path / "e.csv").read_text().strip().splitlines()
        assert s_lines[0].split(",") == [
            "method",
            "obj_r1",
            "attr_r1",
            "rel_r1",
            "cap_r1",
            "ret_avg",
            "obj_neg",
            "attr_neg",
            "rel_neg",
            "full_neg",
            "hard_avg",
            "staircase",
        ]
        assert e_lines[0].split(",") == ["method", "attribute", "relation", "action", "order", "full", "mean"]
        assert s_lines[1].startswith("oracle,")


def _golden_rows():
    method = [
        H.MethodRow("frozen_full", None, None, 71.234, 55.5, 0.0, 0),
        H.MethodRow("grasp_dense", 62.6875, 12.345, 80.0, 45.375, 3.2e-15, 4165),
    ]
    kappa = [
        H.KappaRow("default", 8, 16, 66.125, 70.5, 88.875, 75.0, 4.0625, 62.5, 80.25, 1.5e-15),
        H.KappaRow("relation_delayed", 8, 32, 65.0, 59.99, 90.005, 71.25, 0.0, 61.0, 79.5, 0.0),
    ]
    pool = [
        H.PoolRow("full", 200, {4: 30.5, 8: 45.25, 16: 60.0, 32: 75.125}, 52.71875, 82.5, 67.609375, 2.25e-15),
        H.PoolRow("test_only", 20, {4: 90.0, 8: 95.0, 16: 100.0, 32: 100.0}, 96.25, 82.5, 89.375, 2.25e-15),
    ]
    return {"method": method, "kappa": kappa, "pool": pool}


def _golden_report():
    ret_avg, hard_avg = 58.375, 81.0625
    ks = T.InterfaceContract.default_ladder(64).prefixes
    return DiagnosticReport(
        retrieval={(4, "G0"): 40.0, (8, "G1"): 50.5, (16, "G2"): 61.25, (32, "G3"): 81.75, (4, "G3"): 10.0},
        sel=SelTable(ks, T.NEGATIVE_TYPES, np.arange(30.0).reshape(5, 6) * 3.125),
        ret_avg=ret_avg,
        hard_avg=hard_avg,
        stair=stair_score(ret_avg, hard_avg),
        leak=12.5,
        emergence_gaps={"attribute": 20.125, "relation": 30.0, "action": 31.5, "order": 29.875},
        emergence_mean=27.875,
        emergence_vs_first={},
        drift=1e-15,
        drift_raw=2e-15,
        pool_mode="full",
        pool_size=100,
        n_queries=100,
    )


_GOLDEN_CSV = {
    "method": (
        b"method,stair,emergence_mean,cap_r1,hard_avg,drift,params\r\n"
        b"frozen_full,,,71.23,55.50,0.0e+00,0\r\n"
        b"grasp_dense,62.69,12.35,80.00,45.38,3.2e-15,4165\r\n"
    ),
    "kappa": (
        b"setting,attr_kappa,rel_kappa,attr_at_kappa,rel_ao_at_kappa,full_at_kappa,"
        b"contract_hard_avg,pre_kappa_leak,default_stair,cap_r1,drift\r\n"
        b"default,8,16,66.12,70.50,88.88,75.00,4.06,62.50,80.25,1.5e-15\r\n"
        b"relation_delayed,8,32,65.00,59.99,90.00,71.25,0.00,61.00,79.50,0.0e+00\r\n"
    ),
    "pool": (
        b"pool_mode,candidates,r1@4,r1@8,r1@16,r1@32,ret_avg,hard_avg,stair,drift\r\n"
        b"full,200,30.50,45.25,60.00,75.12,52.72,82.50,67.61,2.2e-15\r\n"
        b"test_only,20,90.00,95.00,100.00,100.00,96.25,82.50,89.38,2.2e-15\r\n"
    ),
}

_GOLDEN_JSON = {
    "method": """[
  {
    "cap_r1": 71.234,
    "drift": 0.0,
    "emergence_mean": null,
    "hard_avg": 55.5,
    "method": "frozen_full",
    "params": 0,
    "stair": null
  },
  {
    "cap_r1": 80.0,
    "drift": 3.2e-15,
    "emergence_mean": 12.345,
    "hard_avg": 45.375,
    "method": "grasp_dense",
    "params": 4165,
    "stair": 62.6875
  }
]""",
    "kappa": """[
  {
    "attr_at_kappa": 66.125,
    "attr_kappa": 8,
    "cap_r1": 80.25,
    "contract_hard_avg": 75.0,
    "default_stair": 62.5,
    "drift": 1.5e-15,
    "full_at_kappa": 88.875,
    "pre_kappa_leak": 4.0625,
    "rel_ao_at_kappa": 70.5,
    "rel_kappa": 16,
    "setting": "default"
  },
  {
    "attr_at_kappa": 65.0,
    "attr_kappa": 8,
    "cap_r1": 79.5,
    "contract_hard_avg": 71.25,
    "default_stair": 61.0,
    "drift": 0.0,
    "full_at_kappa": 90.005,
    "pre_kappa_leak": 0.0,
    "rel_ao_at_kappa": 59.99,
    "rel_kappa": 32,
    "setting": "relation_delayed"
  }
]""",
    "pool": """[
  {
    "candidates": 200,
    "drift": 2.25e-15,
    "hard_avg": 82.5,
    "pool_mode": "full",
    "ret_avg": 52.71875,
    "ret_cells": {
      "16": 60.0,
      "32": 75.125,
      "4": 30.5,
      "8": 45.25
    },
    "stair": 67.609375
  },
  {
    "candidates": 20,
    "drift": 2.25e-15,
    "hard_avg": 82.5,
    "pool_mode": "test_only",
    "ret_avg": 96.25,
    "ret_cells": {
      "16": 100.0,
      "32": 100.0,
      "4": 90.0,
      "8": 95.0
    },
    "stair": 89.375
  }
]""",
}


class TestTableBytes:
    """Every table the harness writes, pinned byte for byte on hand-made rows."""

    _WRITERS = {"method": H.write_method_csv, "kappa": H.write_kappa_csv, "pool": H.write_pool_csv}

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_CSV))
    def test_row_csv(self, kind, tmp_path):
        self._WRITERS[kind](_golden_rows()[kind], tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == _GOLDEN_CSV[kind]

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_JSON))
    def test_row_json(self, kind):
        rows = _golden_rows()[kind]
        assert json.dumps([r.to_json_dict() for r in rows], indent=2, sort_keys=True) == _GOLDEN_JSON[kind]

    def test_staircase_decomposition_csv(self, tmp_path):
        rep = _golden_report()
        contract = T.InterfaceContract.default_ladder(64)
        H.write_staircase_decomposition_csv([("a", rep), ("b", rep)], contract, tmp_path / "s.csv")
        row = b"40.00,50.50,61.25,81.75,58.38,0.00,21.88,43.75,71.88,81.06,69.72\r\n"
        assert (tmp_path / "s.csv").read_bytes() == (
            b"method,obj_r1,attr_r1,rel_r1,cap_r1,ret_avg,obj_neg,attr_neg,rel_neg,full_neg,hard_avg,staircase\r\n"
            + b"a," + row + b"b," + row
        )

    def test_emergence_csv(self, tmp_path):
        H.write_emergence_csv([("a", _golden_report())], tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes() == (
            b"method,attribute,relation,action,order,full,mean\r\na,20.12,30.00,31.50,29.88,,27.88\r\n"
        )
