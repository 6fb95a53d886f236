"""Annotation validation, cache IO, candidate pools, synthetic generation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from grasp_vl import datastore as D
from grasp_vl import transforms as T
from grasp_vl.errors import GraspError
from grasp_vl.metrics import full_drift, selectivity

from conftest import SMALL_SPEC, traced_peak, unit_rows


def shared_rows_cache(rows: np.ndarray) -> D.EmbeddingCache:
    """A cache whose eleven matrices are all ``rows``, every example in the test split."""
    ids = tuple(f"r{i:05d}" for i in range(len(rows)))
    return D.EmbeddingCache(
        dim=rows.shape[1],
        ids=ids,
        split_of=dict.fromkeys(ids, "test"),
        images=rows,
        views=dict.fromkeys(T.VIEW_LEVELS, rows),
        negatives=dict.fromkeys(T.NEGATIVE_TYPES, rows),
    )


def compliant_row(**overrides) -> D.AnnotationRow:
    base = dict(
        id="r1",
        dataset="synthetic",
        split="train",
        caption="a photo of a brown dog running through snow",
        views={
            "G0": "dog",
            "G1": "brown dog",
            "G2": "dog running through snow",
            "G3": "a photo of a brown dog running through snow",
        },
        negatives={
            "object": "cat",
            "attribute": "black dog",
            "relation": "dog sleeping on snow",
            "action": "dog standing in snow",
            "order": "snow running through a dog",
            "full": "a red bus parked near a station",
        },
        distractors=["a red bus parked near a station", "two men playing chess"],
        entity="dog",
    )
    base.update(overrides)
    return D.AnnotationRow(**base)


# One row per audit rule, pass and fail (acceptance criterion fixture).
VALIDATOR_FIXTURE = [
    ("compliant", {}, None),
    ("surface_form_grounds", {"entity": "canine", "surface_form": "dog"}, None),
    (
        "attr_view_equals_object_view",  # diagnostic only, never rejects
        {"views": {**compliant_row().views, "G1": "dog"}},
        None,
    ),
    ("empty_entity", {"entity": "   "}, "ENTITY_UNGROUNDED"),
    ("entity_not_in_caption", {"entity": "giraffe"}, "ENTITY_UNGROUNDED"),
    (
        "missing_view",
        {"views": {k: v for k, v in compliant_row().views.items() if k != "G1"}},
        "MISSING_VIEW",
    ),
    ("g3_differs", {"views": {**compliant_row().views, "G3": "a different sentence"}}, "G3_MISMATCH"),
    (
        "event_missing_entity",
        {"views": {**compliant_row().views, "G2": "running through snow"}},
        "EVENT_UNGROUNDED",
    ),
    (
        "missing_negative",
        {"negatives": {k: v for k, v in compliant_row().negatives.items() if k != "order"}},
        "MISSING_NEGATIVE_TYPE",
    ),
    (
        "negative_equals_caption",
        {"negatives": {**compliant_row().negatives, "attribute": "A photo of a brown  dog running through snow"}},
        "NEGATIVE_EQUALS_CAPTION",
    ),
    (
        "full_negative_not_copied",
        {"negatives": {**compliant_row().negatives, "full": "an invented caption"}},
        "FULL_NEG_NOT_COPIED",
    ),
    ("wrong_split", {"split": "holdout"}, "MALFORMED"),
]


class TestValidator:
    @pytest.mark.parametrize("name,overrides,expected", VALIDATOR_FIXTURE)
    def test_fixture_row(self, name, overrides, expected):
        if expected == "MALFORMED":
            line = json.dumps({**compliant_row().to_json_dict(), **overrides})
            with pytest.raises(GraspError) as e:
                D.parse_annotation_line(line)
            assert e.value.code == "MALFORMED"
            return
        row = compliant_row(**overrides)
        res = D.validate_annotation_row(row)
        if expected is None:
            assert res.accepted, name
        else:
            assert not res.accepted
            assert res.code == expected

    def test_accepted_rows_revalidate_accept(self):
        for name, overrides, expected in VALIDATOR_FIXTURE:
            if expected is not None:
                continue
            row = compliant_row(**overrides)
            first = D.validate_annotation_row(row)
            second = D.validate_annotation_row(row)
            assert first.accepted and second.accepted

    def test_unparseable_line(self):
        with pytest.raises(GraspError) as e:
            D.parse_annotation_line("{not json")
        assert e.value.code == "MALFORMED"

    def test_grounding_is_case_and_whitespace_insensitive(self):
        assert D.validate_annotation_row(compliant_row(entity="DoG")).accepted
        assert D.validate_annotation_row(compliant_row(entity="running  THROUGH")).accepted

    def test_jsonl_summary(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [
            json.dumps(compliant_row(id="a").to_json_dict()),
            json.dumps(compliant_row(id="b", entity="zebra").to_json_dict()),
            "{broken",
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        results, summary = D.validate_jsonl(path)
        assert summary["attempted"] == 3
        assert summary["accepted"] == 1
        assert summary["parse_failures"] == 1
        assert summary["quality_failures"] == 1
        assert summary["rule_failures"] == {"ENTITY_UNGROUNDED": 1, "MALFORMED": 1}
        assert [r.accepted for r in results] == [True, False, False]

    def test_summary_counts_accepted_rows_whose_attribute_view_differs(self, tmp_path):
        same = compliant_row(id="b", views={**compliant_row().views, "G1": "dog"})
        rejected = compliant_row(id="d", entity="zebra")
        rows = [compliant_row(id="a"), same, compliant_row(id="c"), rejected]
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(json.dumps(r.to_json_dict()) + "\n" for r in rows), encoding="utf-8")
        _, summary = D.validate_jsonl(path)
        assert summary["accepted"] == 3
        assert summary["diagnostic"] == {"attribute_view_differs_from_object_view": 2}


class TestCacheIO:
    def test_round_trip_bit_exact(self, small_cache, tmp_path):
        manifest = D.write_cache(small_cache, tmp_path / "cache")
        loaded = D.load_cache(manifest)
        assert loaded.ids == small_cache.ids
        assert loaded.split_of == small_cache.split_of
        for (name_a, a), (name_b, b) in zip(small_cache.matrices(), loaded.matrices()):
            assert name_a == name_b
            assert np.array_equal(a, b)

    def test_declared_shape_honoured(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, 4)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        cache = D.EmbeddingCache(
            dim=4,
            ids=("a", "b", "c"),
            split_of={"a": "train", "b": "val", "c": "test"},
            images=rows,
            views={g: rows for g in T.VIEW_LEVELS},
            negatives={r: rows for r in T.NEGATIVE_TYPES},
        )
        loaded = D.load_cache(D.write_cache(cache, tmp_path / "c"))
        assert loaded.images.shape == (3, 4)

    def test_zero_row_rejected(self, tmp_path):
        cache_dir = self._write_small(tmp_path)
        bad = np.fromfile(cache_dir / "image.f32", dtype="<f4").reshape(3, 4)
        bad[1] = 0.0
        bad.tofile(cache_dir / "image.f32")
        with pytest.raises(GraspError) as e:
            D.load_cache(cache_dir / "manifest.json")
        assert e.value.code == "NORM_VIOLATION"

    def test_byte_count_mismatch(self, tmp_path):
        cache_dir = self._write_small(tmp_path)
        data = (cache_dir / "image.f32").read_bytes()
        (cache_dir / "image.f32").write_bytes(data[: 4 * 4 * 2])  # two rows instead of three
        with pytest.raises(GraspError) as e:
            D.load_cache(cache_dir / "manifest.json")
        assert e.value.code == "SHAPE_MISMATCH"

    def test_missing_split_assignment(self, tmp_path):
        cache_dir = self._write_small(tmp_path)
        splits = json.loads((cache_dir / "splits.json").read_text())
        del splits["b"]
        (cache_dir / "splits.json").write_text(json.dumps(splits))
        with pytest.raises(GraspError) as e:
            D.load_cache(cache_dir / "manifest.json")
        assert e.value.code == "MISSING_SPLIT"

    @pytest.mark.parametrize("count, dim", [(3, 1), (0, 4)], ids=["one_dimension", "no_rows"])
    def test_smallest_declared_shape_loads(self, tmp_path, count, dim):
        rows = np.ones((count, dim), dtype=np.float32) / np.float32(np.sqrt(dim))
        ids = tuple(f"r{i}" for i in range(count))
        cache = D.EmbeddingCache(
            dim=dim,
            ids=ids,
            split_of={i: "test" for i in ids},
            images=rows,
            views={g: rows for g in T.VIEW_LEVELS},
            negatives={r: rows for r in T.NEGATIVE_TYPES},
        )
        loaded = D.load_cache(D.write_cache(cache, tmp_path / "c"))
        assert (loaded.n, loaded.dim) == (count, dim)
        assert all(rows.shape == (count, dim) and rows.dtype == np.float32 for _, rows in loaded.matrices())

    def _write_small(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, 4)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        cache = D.EmbeddingCache(
            dim=4,
            ids=("a", "b", "c"),
            split_of={"a": "train", "b": "val", "c": "test"},
            images=rows,
            views={g: rows for g in T.VIEW_LEVELS},
            negatives={r: rows for r in T.NEGATIVE_TYPES},
        )
        D.write_cache(cache, tmp_path / "c")
        return tmp_path / "c"


    def test_norm_check_makes_no_float64_copy_of_a_matrix(self):
        # the squared norms are summed by einsum, which casts through its own small buffers; casting a whole
        # 20,000 x 64 matrix to float64 first peaked at 19.8 MiB
        rows = unit_rows(np.random.default_rng(0), 20000, 64).astype(np.float32)
        assert traced_peak(D._check_norms, "image", [rows], D._GENERATED_NORM_TOL) < 8 * 2**20


class TestMappedCache:
    """A loaded cache is checked in row blocks and served read-only from maps of its files."""

    @staticmethod
    def _written(tmp_path, n: int, dim: int = 64):
        rows = unit_rows(np.random.default_rng(0), n, dim).astype(np.float32)
        return D.write_cache(shared_rows_cache(rows), tmp_path / "c")

    @staticmethod
    def _scale_image_rows(manifest, scales: dict[int, float]):
        """Scale rows of a 6,000 x 64 image file, whose row blocks are rows 0-2999 and 3000-5999."""
        path = manifest.parent / "image.f32"
        rows = np.fromfile(path, dtype="<f4").reshape(-1, 64)
        assert D.block_spans(len(rows), 4 * 64) == [(0, 3000), (3000, 6000)]
        for i, scale in scales.items():
            rows[i] *= scale
        rows.tofile(path)

    def test_load_holds_no_copy_of_the_matrices(self, tmp_path):
        # eleven 20,000 x 64 float32 matrices are 53.7 MiB; read whole into memory they peaked at 58.4 MiB, checked
        # in row blocks and mapped at 5.7 MiB (the ids and the split table)
        manifest = self._written(tmp_path, 20000)
        assert traced_peak(D.load_cache, manifest) < 12 * 2**20

    def test_matrices_are_read_only_plain_arrays(self, tmp_path):
        cache = D.load_cache(self._written(tmp_path, 40, dim=4))
        for name, rows in cache.matrices():
            assert type(rows) is np.ndarray and rows.dtype == np.float32 and rows.shape == (40, 4), name
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0

    def test_norm_violation_names_the_worst_row_of_the_whole_file(self, tmp_path):
        manifest = self._written(tmp_path, 6000)
        self._scale_image_rows(manifest, {10: 1.01, 4500: 1.5})
        with pytest.raises(GraspError) as e:
            D.load_cache(manifest)
        assert e.value.code == "NORM_VIOLATION"
        assert "image: row norm off by 5.00e-01" in e.value.message

    def test_nan_row_in_the_last_block_is_a_norm_violation(self, tmp_path):
        manifest = self._written(tmp_path, 6000)
        self._scale_image_rows(manifest, {5999: np.nan})
        with pytest.raises(GraspError) as e:
            D.load_cache(manifest)
        assert e.value.code == "NORM_VIOLATION"


class TestPools:
    def test_full_pool_counts_all_ids(self, small_cache):
        pool = D.build_pool(small_cache, "full", "G3")
        assert len(pool.candidate_ids) == small_cache.n

    def test_test_only_pool(self, small_cache):
        pool = D.build_pool(small_cache, "test_only", "G0")
        assert set(pool.candidate_ids) == set(small_cache.split_ids("test"))

    def test_ordering_deterministic_by_id(self, small_cache):
        pool = D.build_pool(small_cache, "full", "G3")
        assert list(pool.candidate_ids) == sorted(pool.candidate_ids)

    def test_empty_pool_rejected(self, small_cache):
        with pytest.raises(GraspError) as e:
            D.build_pool(small_cache, "custom", "G3", custom_ids=())
        assert e.value.code == "EMPTY_POOL"


class TestIndicesOf:
    def test_rows_in_the_order_given(self, small_cache):
        ids = [small_cache.ids[5], small_cache.ids[0], small_cache.ids[5]]
        got = small_cache.indices_of(ids)
        assert got.dtype == np.intp and got.tolist() == [5, 0, 5]

    def test_unknown_id_names_the_first_one(self, small_cache):
        with pytest.raises(GraspError) as e:
            small_cache.indices_of([small_cache.ids[0], "nope-1", small_cache.ids[1], "nope-2"])
        assert e.value.code == "MALFORMED"
        assert "'nope-1'" in e.value.message and "nope-2" not in e.value.message

    def test_no_ids_is_an_empty_index_array(self, small_cache):
        for ids in ([], (), iter(())):
            got = small_cache.indices_of(ids)
            assert got.dtype == np.intp and got.shape == (0,)

    def test_accepts_a_generator(self, small_cache):
        ids = small_cache.split_ids("val")
        got = small_cache.indices_of(i for i in ids)
        assert np.array_equal(got, small_cache.indices_of(list(ids)))
        assert got.tolist() == [small_cache.row_index(i) for i in ids]


class TestSynthetic:
    def test_equal_specs_equal_outputs(self):
        a = D.generate_synthetic(SMALL_SPEC)
        b = D.generate_synthetic(SMALL_SPEC)
        for (name_a, ma), (name_b, mb) in zip(a.cache.matrices(), b.cache.matrices()):
            assert name_a == name_b
            assert np.array_equal(ma, mb)
        assert [r.to_json_dict() for r in a.rows] == [r.to_json_dict() for r in b.rows]
        assert np.array_equal(a.oracle.matrix, b.oracle.matrix)

    def test_cache_written_as_it_is_built_is_served_from_its_files(self, small_synth, tmp_path):
        written = D.generate_synthetic(SMALL_SPEC, tmp_path / "c")
        loaded = D.load_cache(tmp_path / "c" / "manifest.json")
        for cache in (written.cache, loaded):
            assert (cache.ids, cache.split_of) == (small_synth.cache.ids, small_synth.cache.split_of)
            for (name, rows), (_, want) in zip(cache.matrices(), small_synth.cache.matrices()):
                assert type(rows) is np.ndarray and not rows.flags.writeable, name
                assert np.array_equal(rows, want), name
        assert [r.to_json_dict() for r in written.rows] == [r.to_json_dict() for r in small_synth.rows]
        assert np.array_equal(written.oracle.matrix, small_synth.oracle.matrix)

    def test_generated_rows_pass_validator(self, small_synth):
        for row in small_synth.rows[:50]:
            assert D.validate_annotation_row(row).accepted

    @pytest.mark.parametrize(
        "change",
        [{"cardinalities": {"object": 2, "attribute": 2, "relation": 2}}, {"n_examples": 2}],
        ids=["two_values_per_factor", "two_examples"],
    )
    def test_smallest_valid_spec_generates(self, change):
        spec = D.SyntheticSpec(**{**SMALL_SPEC.to_json_dict(), "n_examples": 40, **change})
        result = D.generate_synthetic(spec)
        assert result.cache.n == spec.n_examples
        assert all(D.validate_annotation_row(row).accepted for row in result.rows)

    def test_one_example_is_a_config_error(self):
        # its full negative could only be its own caption, which the validator rejects
        with pytest.raises(GraspError) as e:
            D.SyntheticSpec(**{**SMALL_SPEC.to_json_dict(), "n_examples": 1})
        assert e.value.code == "BLOCK_OVERFLOW"

    def test_block_overflow(self):
        with pytest.raises(GraspError) as e:
            D.SyntheticSpec(
                dim=32,
                block_sizes={"object": 8, "attribute": 8, "relation": 8, "residual": 18},
                cardinalities={"object": 4, "attribute": 4, "relation": 4},
                noise_std=0.0,
                n_examples=10,
                seed=0,
            )
        assert e.value.code == "BLOCK_OVERFLOW"

    def test_noise_free_oracle_is_perfect(self):
        spec = D.SyntheticSpec(
            dim=32,
            block_sizes=dict(SMALL_SPEC.block_sizes),
            cardinalities=dict(SMALL_SPEC.cardinalities),
            noise_std=0.0,
            n_examples=200,
            seed=5,
        )
        res = D.generate_synthetic(spec)
        ids = res.cache.ids
        # oracle scores the planted pairs perfectly at every assigned boundary
        for r in T.NEGATIVE_TYPES:
            k = res.contract.kappa[r]
            assert selectivity(res.cache, res.oracle, k, r, ids) == 100.0
        rows = res.cache.images[:150].astype(np.float64)
        assert full_drift(rows, res.oracle) <= 1e-12

    def test_direct_prefixes_weaker_than_oracle(self, small_synth):
        cache, contract = small_synth.cache, small_synth.contract
        ids = cache.split_ids("test")
        ident = T.identity_transform(cache.dim)
        oracle_cells = [
            selectivity(cache, small_synth.oracle, contract.kappa[r], r, ids) for r in ("object", "attribute", "relation", "full")
        ]
        direct_cells = [
            selectivity(cache, ident, contract.kappa[r], r, ids) for r in ("object", "attribute", "relation", "full")
        ]
        assert np.mean(direct_cells) < np.mean(oracle_cells)

    def test_peak_memory_is_near_the_float32_cache(self):
        # the matrices are built in row blocks straight into one float32 array and the annotation rows are made on
        # demand: 1.65x the cache's float32 bytes here, against 1.94x with one whole matrix at a time and the rows
        # held, and 3.99x when all eleven float64 matrices are built before mixing
        spec = D.SyntheticSpec(
            dim=64,
            block_sizes={"object": 4, "attribute": 8, "relation": 16, "residual": 36},
            cardinalities={"object": 8, "attribute": 8, "relation": 8},
            noise_std=0.05,
            n_examples=4000,
            seed=0,
        )
        cache_bytes = 11 * spec.n_examples * spec.dim * 4
        assert traced_peak(D.generate_synthetic, spec) < 2.5 * cache_bytes

    def test_unit_norm_rows(self, small_cache):
        for name, rows in small_cache.matrices():
            assert rows.shape == (small_cache.n, small_cache.dim)
            D._check_norms(name, [rows], D._GENERATED_NORM_TOL)

    def test_split_fractions(self, small_cache):
        n = small_cache.n
        assert len(small_cache.split_ids("train")) == round(0.8 * n)
        assert len(small_cache.split_ids("val")) == round(0.1 * n)
