"""Metric formulas against brute-force oracles and published table cells."""

from __future__ import annotations

import json

import numpy as np
import pytest

from grasp_vl import datastore as D
from grasp_vl import metrics as M
from grasp_vl import transforms as T
from grasp_vl.errors import GraspError

from conftest import traced_peak, unit_rows


def tiny_cache(images, texts, ids=None, split="test", negatives=None):
    """Cache where every view shares the same text rows unless overridden."""
    n, d = images.shape
    ids = tuple(ids or (f"q{i}" for i in range(n)))
    texts = np.asarray(texts, dtype=np.float32)
    images = np.asarray(images, dtype=np.float32)
    negatives = negatives or {}
    return D.EmbeddingCache(
        dim=d,
        ids=ids,
        split_of={i: split for i in ids},
        images=images,
        views={g: texts for g in T.VIEW_LEVELS},
        negatives={r: negatives.get(r, texts) for r in T.NEGATIVE_TYPES},
    )


def brute_force_r1(images, texts, positives, k):
    """Exhaustive argmax oracle with strict ties-as-misses."""
    hits = 0
    for i, pos in enumerate(positives):
        q = images[i, :k] / np.linalg.norm(images[i, :k])
        scores = []
        for t in texts:
            c = t[:k] / np.linalg.norm(t[:k])
            scores.append(float(q @ c))
        best = max(scores)
        if scores[pos] == best and scores.count(best) == 1:
            hits += 1
    return 100.0 * hits / len(positives)


class TestRecallAt1:
    def test_pool_of_one_is_perfect(self):
        rng = np.random.default_rng(0)
        rows = unit_rows(rng, 1, 6)
        cache = tiny_cache(rows, rows, ids=["only"])
        pool = D.build_pool(cache, "full", "G3")
        assert M.recall_at_1(cache, T.identity_transform(6), pool, 4, ["only"]) == 100.0

    def test_strictly_second_positive_misses(self):
        # query aligns better with someone else's text
        images = np.array([[1.0, 0.0]])
        texts = np.array([[0.6, 0.8], [1.0, 0.0]])
        cache = tiny_cache(images, texts[:1], ids=["a"])
        cache.views = {g: texts[:1] for g in T.VIEW_LEVELS}
        # rebuild with two candidates: own text (worse) and distractor (better)
        cache = D.EmbeddingCache(
            dim=2,
            ids=("a", "b"),
            split_of={"a": "test", "b": "test"},
            images=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
            views={g: np.array([[0.6, 0.8], [1.0, 0.0]], dtype=np.float32) for g in T.VIEW_LEVELS},
            negatives={r: np.array([[0.6, 0.8], [1.0, 0.0]], dtype=np.float32) for r in T.NEGATIVE_TYPES},
        )
        pool = D.build_pool(cache, "full", "G3")
        got = M.recall_at_1(cache, T.identity_transform(2), pool, 2, ["a"])
        assert got == 0.0  # candidate b's text scores 1.0 > 0.6

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        images = unit_rows(rng, 3, 5)
        texts = unit_rows(rng, 4, 5)
        texts[:3] = 0.7 * images + 0.3 * texts[:3]
        texts /= np.linalg.norm(texts, axis=1, keepdims=True)
        ids = ["q0", "q1", "q2", "extra"]
        cache = D.EmbeddingCache(
            dim=5,
            ids=tuple(ids),
            split_of={i: "test" for i in ids},
            images=np.vstack([images, unit_rows(rng, 1, 5)]).astype(np.float32),
            views={g: texts.astype(np.float32) for g in T.VIEW_LEVELS},
            negatives={r: texts.astype(np.float32) for r in T.NEGATIVE_TYPES},
        )
        pool = D.build_pool(cache, "full", "G2")
        for k in (2, 5):
            got = M.recall_at_1(cache, T.identity_transform(5), pool, k, ["q0", "q1", "q2"])
            img64 = cache.images[:3].astype(np.float64)
            txt64 = cache.views["G2"][cache.indices_of(pool.candidate_ids)].astype(np.float64)
            positives = [pool.candidate_ids.index(q) for q in ["q0", "q1", "q2"]]
            assert got == pytest.approx(brute_force_r1(img64, txt64, positives, k))

    def test_positive_not_in_pool(self, small_cache):
        pool = D.build_pool(small_cache, "test_only", "G3")
        train_id = small_cache.split_ids("train")[0]
        with pytest.raises(GraspError) as e:
            M.recall_at_1(small_cache, T.identity_transform(small_cache.dim), pool, 4, [train_id])
        assert e.value.code == "POSITIVE_NOT_IN_POOL"

    def test_positive_not_in_pool_names_the_first_missing_query(self, small_cache):
        pool = D.build_pool(small_cache, "test_only", "G3")
        test_id = small_cache.split_ids("test")[0]
        first, second = small_cache.split_ids("train")[:2]
        with pytest.raises(GraspError) as e:
            M.recall_at_1(small_cache, T.identity_transform(small_cache.dim), pool, 4, [test_id, first, second])
        assert e.value.code == "POSITIVE_NOT_IN_POOL"
        assert repr(first) in e.value.message and second not in e.value.message

    def test_invariant_under_candidate_reordering(self, small_cache):
        ids = small_cache.split_ids("test")
        ordered = D.build_pool(small_cache, "test_only", "G3")
        shuffled_ids = list(ordered.candidate_ids)
        np.random.default_rng(0).shuffle(shuffled_ids)
        shuffled = D.CandidatePool(mode="custom", candidate_ids=tuple(shuffled_ids), view_level="G3")
        t = T.identity_transform(small_cache.dim)
        assert M.recall_at_1(small_cache, t, ordered, 8, ids) == M.recall_at_1(
            small_cache, t, shuffled, 8, ids
        )


class TestSelectivity:
    def test_every_positive_wins(self):
        rng = np.random.default_rng(0)
        images = unit_rows(rng, 4, 6)
        negs = {r: -images for r in T.NEGATIVE_TYPES}  # antipodal negatives always lose
        cache = tiny_cache(images, images, negatives=negs)
        got = M.selectivity(cache, T.identity_transform(6), 4, "object", cache.ids)
        assert got == 100.0

    def test_identical_positive_and_negative_score_zero(self):
        rng = np.random.default_rng(1)
        images = unit_rows(rng, 3, 6)
        cache = tiny_cache(images, images)  # negatives default to the same rows
        got = M.selectivity(cache, T.identity_transform(6), 4, "attribute", cache.ids)
        assert got == 0.0  # strict inequality fails on exact ties

    def test_half_wins_enumeration(self):
        # 4 queries with hand-set cosines: exactly 2 wins
        images = np.eye(4, 6, dtype=np.float32)
        pos = np.array(
            [[0.9, 0.1, 0, 0, 0.42, 0], [0.5, 0, 0.2, 0, 0.84, 0], [0, 0, 0.9, 0.1, 0.42, 0], [0, 0.6, 0, 0.3, 0.74, 0]],
            dtype=np.float32,
        )
        neg = np.array(
            [[0.2, 0.9, 0, 0, 0.38, 0], [0.9, 0, 0.1, 0, 0.42, 0], [0, 0, 0.3, 0.9, 0.31, 0], [0, 0.2, 0, 0.9, 0.38, 0]],
            dtype=np.float32,
        )
        pos /= np.linalg.norm(pos, axis=1, keepdims=True)
        neg /= np.linalg.norm(neg, axis=1, keepdims=True)
        # per-query full-cosine comparison: q0 0.9>0.2 win, q1 0.5<0.9 lose,
        # q2 0.9>0.3 win, q3 0.3<0.9 lose -> 50%
        cache = tiny_cache(images, pos, negatives={r: neg for r in T.NEGATIVE_TYPES})
        got = M.selectivity(cache, T.identity_transform(6), 6, "relation", cache.ids)
        assert got == 50.0


TABLE_SEL = M.SelTable(
    prefixes=(32, 64, 128, 256, 512),
    types=T.NEGATIVE_TYPES,
    values=np.array(
        [
            # object, attribute, relation, action, order, full (action/order unused here)
            [77.48, 63.69, 45.90, 0.0, 0.0, 84.21],
            [87.81, 88.41, 51.70, 0.0, 0.0, 88.07],
            [90.81, 90.47, 96.54, 0.0, 0.0, 93.54],
            [95.07, 93.74, 95.80, 0.0, 0.0, 96.60],
            [24.18, 17.06, 52.10, 0.0, 0.0, 96.87],
        ]
    ),
)


class TestStairFormulas:
    def test_published_staircase(self):
        assert M.stair_score(16.27, 89.76) == pytest.approx(53.01, abs=0.01)

    def test_published_hard_average(self):
        contract = T.InterfaceContract.default_ladder(512)
        got = M.hard_average(TABLE_SEL, contract)
        assert got == pytest.approx(89.76, abs=0.01)

    def test_published_cells(self):
        ret, sel = M.staircase_cells(T.InterfaceContract.default_ladder(512))
        assert ret == [(32, "G0"), (64, "G1"), (128, "G2"), (256, "G3")]
        assert sel == [(32, "object"), (64, "attribute"), (128, "relation"), (256, "full")]

    def test_all_zero_inputs(self):
        ret, sel = M.staircase_cells(T.InterfaceContract.default_ladder(512))
        assert M.staircase([0.0] * len(ret), [0.0] * len(sel)) == (0.0, 0.0, 0.0)

    def test_validation_scores_read_the_staircase_cells_and_equal_the_whole_table_staircase(
        self, small_synth, monkeypatch
    ):
        from grasp_vl import trainer as TR

        cache, contract = small_synth.cache, small_synth.contract
        ids = cache.split_ids("val")
        pools = {g: D.build_pool(cache, "custom", g, custom_ids=tuple(sorted(ids))) for g in T.VIEW_LEVELS}
        calls = []

        def counting_recall(cache, transform, pool, k, query_ids):
            calls.append(("r1", k, pool.view_level))
            return M.recall_at_1(cache, transform, pool, k, query_ids)

        def counting_selectivity(cache, transform, k, neg_type, query_ids):
            calls.append(("sel", k, neg_type))
            return M.selectivity(cache, transform, k, neg_type, query_ids)

        for transform in (small_synth.oracle, T.random_orthogonal(contract.dim, 3)):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(TR, "recall_at_1", counting_recall)
                m.setattr(TR, "selectivity", counting_selectivity)
                *scores, _ = TR.validation_scores(cache, transform, contract)
            assert calls == [("r1", k, contract.view_of[k]) for k in contract.prefixes[:-1]] + [
                ("sel", contract.kappa[r], r) for r in ("object", "attribute", "relation", "full")
            ]
            grid = {(k, g): M.recall_at_1(cache, transform, pools[g], k, ids) for k in contract.prefixes for g in pools}
            ret_avg = float(np.mean([grid[k, contract.view_of[k]] for k in contract.prefixes[:-1]]))
            hard_avg = M.hard_average(M.sel_table(cache, transform, contract, ids), contract)
            assert scores == [ret_avg, hard_avg, M.stair_score(ret_avg, hard_avg)]

    def test_missing_cell(self):
        contract = T.InterfaceContract(prefixes=(512,), view_of={512: "G3"}, kappa={r: 512 for r in T.NEGATIVE_TYPES})
        ret, sel = M.staircase_cells(contract)
        assert ret == []
        with pytest.raises(GraspError) as e:
            M.staircase([], [1.0] * len(sel))
        assert e.value.code == "MISSING_CELL"


class TestEmergence:
    def test_published_attribute_gap(self):
        contract = T.InterfaceContract.default_ladder(512)
        got = M.emergence_gap(TABLE_SEL, contract, "attribute")
        assert got == pytest.approx(24.72, abs=0.01)

    def test_published_relation_gap(self):
        contract = T.InterfaceContract.default_ladder(512)
        got = M.emergence_gap(TABLE_SEL, contract, "relation")
        assert got == pytest.approx(47.73, abs=0.02)  # published rounding

    def test_object_excluded(self):
        contract = T.InterfaceContract.default_ladder(512)
        with pytest.raises(GraspError) as e:
            M.emergence_gap(TABLE_SEL, contract, "object")
        assert e.value.code == "NO_EARLIER_PREFIX"
        gaps, _ = M.emergence(TABLE_SEL, contract)
        assert "object" not in gaps

    def test_constant_table_zero_gap(self):
        contract = T.InterfaceContract.default_ladder(512)
        sel = M.SelTable(prefixes=contract.prefixes, types=T.NEGATIVE_TYPES, values=np.full((5, 6), 42.0))
        gaps, mean = M.emergence(sel, contract)
        assert all(g == pytest.approx(0.0) for g in gaps.values())
        assert mean == pytest.approx(0.0)

    def test_vs_first_prefix_variant(self):
        contract = T.InterfaceContract.default_ladder(512)
        # attribute: boundary cell minus the first-prefix cell only
        assert M.emergence_vs_first(TABLE_SEL, contract, "attribute") == pytest.approx(88.41 - 63.69)
        assert M.emergence_vs_first(TABLE_SEL, contract, "relation") == pytest.approx(96.54 - 45.90)
        with pytest.raises(GraspError):
            M.emergence_vs_first(TABLE_SEL, contract, "object")


class TestLeakage:
    def test_constant_table(self):
        contract = T.InterfaceContract.default_ladder(512)
        sel = M.SelTable(prefixes=contract.prefixes, types=T.NEGATIVE_TYPES, values=np.full((5, 6), 50.0))
        assert M.leakage(sel, contract) == pytest.approx(50.0)

    def test_empty_set_when_every_boundary_is_first(self):
        contract = T.InterfaceContract(
            prefixes=(4, 8),
            view_of={4: "G0", 8: "G3"},
            kappa={r: 4 for r in T.NEGATIVE_TYPES},
        )
        sel = M.SelTable(prefixes=(4, 8), types=T.NEGATIVE_TYPES, values=np.zeros((2, 6)))
        with pytest.raises(GraspError) as e:
            M.leakage(sel, contract)
        assert e.value.code == "EMPTY_SET"

    def test_three_cell_mean(self):
        contract = T.InterfaceContract(
            prefixes=(2, 4, 8),
            view_of={2: "G0", 4: "G2", 8: "G3"},
            kappa={**{r: 2 for r in T.NEGATIVE_TYPES}, "full": 8},
        )
        values = np.zeros((3, 6))
        full_col = T.NEGATIVE_TYPES.index("full")
        values[0, full_col] = 40.0
        values[1, full_col] = 60.0
        # only "full" has pre-boundary prefixes (2 and 4): mean(40, 60) = 50
        sel = M.SelTable(prefixes=(2, 4, 8), types=T.NEGATIVE_TYPES, values=values)
        assert M.leakage(sel, contract) == pytest.approx(50.0)
        values2 = values.copy()
        values2[0, full_col], values2[1, full_col] = 40.0, 80.0
        sel2 = M.SelTable(prefixes=(2, 4, 8), types=T.NEGATIVE_TYPES, values=values2)
        assert M.leakage(sel2, contract) == pytest.approx(60.0)


class TestDrift:
    def test_identity_is_zero(self):
        rows = unit_rows(np.random.default_rng(0), 20, 8)
        assert M.full_drift(rows, T.identity_transform(8)) == 0.0

    def test_cayley_is_tiny_in_double_precision(self):
        rng = np.random.default_rng(1)
        r = T.cayley_build(rng.standard_normal((32, 32)))
        rows = unit_rows(rng, 200, 32)
        assert M.full_drift(rows, r) <= 1e-10

    def test_rank_one_bump_matches_pair_oracle(self):
        rng = np.random.default_rng(2)
        rows = unit_rows(rng, 3, 5)
        u = unit_rows(rng, 1, 5)[0]
        w = np.eye(5) + 0.5 * np.outer(u, u)
        t = T.LinearTransform(w, "linear", orthogonal=False)
        # brute-force pair oracle on renormalized transformed rows
        z = rows @ w.T
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        expect = max(
            abs(float(z[a] @ z[b]) - float(rows[a] @ rows[b]))
            for a in range(3)
            for b in range(3)
        )
        assert M.full_drift(rows, t) == pytest.approx(expect, abs=1e-15)

    def test_two_rows_are_one_pair(self):
        rows = unit_rows(np.random.default_rng(3), 2, 5)
        t = T.LinearTransform(np.diag([1.0, 2.0, 1.0, 1.0, 1.0]), "linear", orthogonal=False)
        z = rows @ t.matrix.T
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        assert M.full_drift(rows, t) == pytest.approx(abs(float(z[0] @ z[1]) - float(rows[0] @ rows[1])), abs=1e-15)
        with pytest.raises(GraspError) as e:
            M.full_drift(rows[:1], t)
        assert e.value.code == "DIM_MISMATCH"

    @staticmethod
    def _dense_drift(rows, transform, renormalize):
        e = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        z = transform.apply(rows)
        if renormalize:
            z = z / np.linalg.norm(z, axis=1, keepdims=True)
        return float(np.abs(z @ z.T - e @ e.T).max())

    @pytest.mark.parametrize("n", [904, 1000])
    def test_strips_equal_the_dense_maximum(self, n):
        # 904 rows are 7 strips, the last one shorter; both row counts are multiples of 8, as every drift of the
        # benchmark corpora is (README, "Score tiles and BLAS rounding")
        rng = np.random.default_rng(n)
        rows = unit_rows(rng, n, 64)
        u = unit_rows(rng, 1, 64)[0]
        bump = T.LinearTransform(np.eye(64) + 0.5 * np.outer(u, u), "linear", orthogonal=False)
        assert len(D.block_spans(n, 8 * n)) > 1
        for transform in (T.random_orthogonal(64, rng), bump):
            for renormalize in (True, False):
                want = self._dense_drift(rows, transform, renormalize)
                assert M.full_drift(rows, transform, renormalize) == want

    def test_a_nan_row_gives_nan_drift(self):
        rows = unit_rows(np.random.default_rng(4), 1000, 64)
        rows[700] = np.nan
        assert np.isnan(M.full_drift(rows, T.random_orthogonal(64, np.random.default_rng(5))))

    @staticmethod
    def _full_strip_drift(rows, transform, renormalize):
        """Drift from full-width strips, each pair computed twice, once from each of its rows."""
        e = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        z = transform.apply(rows)
        if renormalize:
            z = z / np.linalg.norm(z, axis=1, keepdims=True)
        n = len(rows)
        return float(np.max([np.abs(z[a:b] @ z.T - e[a:b] @ e.T).max() for a, b in D.block_spans(n, 8 * n)]))

    def test_each_pair_once_equals_the_full_strips(self):
        # every row count up to 512 (one strip up to 362 rows, two after) and 1000, the rows of a report; a
        # pair's two orders had equal bits there, so the maximum over each pair once is the full strips' maximum
        rng = np.random.default_rng(8)
        rows = unit_rows(rng, 1000, 64)
        rot = T.random_orthogonal(64, rng)
        perturbed = T.LinearTransform(rot.matrix + 0.01 * rng.standard_normal((64, 64)), "linear", orthogonal=False)
        assert len(D.block_spans(512, 8 * 512)) == 2 and len(D.block_spans(1000, 8 * 1000)) == 8
        for n in [*range(2, 513), 1000]:
            for transform in (rot, perturbed):
                for renormalize in (True, False):
                    want = self._full_strip_drift(rows[:n], transform, renormalize)
                    assert M.full_drift(rows[:n], transform, renormalize) == want, (n, renormalize)

    @pytest.mark.parametrize("row", [0, 15, 16, 500, 999])
    def test_a_nan_row_in_any_strip_gives_nan_drift(self, row):
        # the row's diagonal cell is in its own strip; a zero row is NaN on the untransformed side only
        rows = unit_rows(np.random.default_rng(9), 1000, 64)
        rot = T.random_orthogonal(64, np.random.default_rng(10))
        for bad in (np.nan, 0.0):
            rows_bad = rows.copy()
            rows_bad[row] = bad
            for renormalize in (True, False):
                with np.errstate(invalid="ignore"):  # a zero row's norm divides it
                    assert np.isnan(M.full_drift(rows_bad, rot, renormalize))

    def test_each_strip_multiplies_the_rows_from_its_aligned_first_row_on(self, monkeypatch):
        widths = []
        matmul = np.matmul

        def spy(a, b, out=None):
            widths.append((a.shape[0], b.shape[1]))
            return matmul(a, b, out=out)

        rows = unit_rows(np.random.default_rng(11), 1000, 64)
        rot = T.random_orthogonal(64, np.random.default_rng(12))
        monkeypatch.setattr(M.np, "matmul", spy)
        M.full_drift(rows, rot)
        monkeypatch.undo()
        starts = [a for a, _ in D.block_spans(1000, 8 * 1000)]
        assert widths == [(125, 1000 - (a - a % 16)) for a in starts for _ in range(2)]
        # each unordered pair once, plus the pairs inside each strip's first 16-column block: 57% of 1000 x 1000
        assert sum(r * w for r, w in widths[::2]) == 570_000

    def test_memory_is_bounded_by_the_strip(self):
        # the pair matrices are built in row strips of about 1 MiB; whole 1000 x 1000 matrices peaked at 16.2 MiB
        rows = unit_rows(np.random.default_rng(6), 1000, 64)
        assert traced_peak(M.full_drift, rows, T.random_orthogonal(64, np.random.default_rng(7))) < 6 * 2**20

    def test_drift_rows_of_a_small_cache_are_all_images_then_captions(self):
        rng = np.random.default_rng(3)
        images, texts = unit_rows(rng, 30, 4), unit_rows(rng, 30, 4)
        rows = M.drift_rows(tiny_cache(images, texts))
        assert rows.dtype == np.float64
        assert np.array_equal(rows, np.concatenate([images, texts]).astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("n", [501, 1000, 1500])
    def test_drift_rows_of_a_large_cache_stride_over_images_and_captions(self, n):
        rng = np.random.default_rng(4)
        images, texts = unit_rows(rng, n, 4), unit_rows(rng, n, 4)
        rows = M.drift_rows(tiny_cache(images, texts))
        both = np.concatenate([images, texts]).astype(np.float32).astype(np.float64)
        stride = (2 * n) // 1000
        assert rows.shape == (1000, 4)
        assert rows.base is None  # a copy of the picked rows, not a view of every row cast to float64
        assert np.array_equal(rows, both[::stride][:1000])
        # rows come from both halves, not from the images alone
        assert (np.arange(2 * n)[::stride][:1000] >= n).any()


class TestRankStats:
    def _pool_cache(self):
        # 5 candidates, labels: a a b b c; query q0 has label a and its own text first
        images = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
        texts = np.array(
            [
                [1.0, 0.0, 0.0],  # q0's own text
                [0.9, np.sqrt(1 - 0.81), 0.0],
                [0.5, np.sqrt(1 - 0.25), 0.0],
                [0.3, np.sqrt(1 - 0.09), 0.0],
                [0.1, np.sqrt(1 - 0.01), 0.0],
            ],
            dtype=np.float32,
        )
        ids = ("q0", "c1", "c2", "c3", "c4")
        cache = D.EmbeddingCache(
            dim=3,
            ids=ids,
            split_of={i: "test" for i in ids},
            images=np.vstack([images, texts[1:]]).astype(np.float32),
            views={g: texts for g in T.VIEW_LEVELS},
            negatives={r: texts for r in T.NEGATIVE_TYPES},
        )
        labels = {"q0": "a", "c1": "a", "c2": "b", "c3": "b", "c4": "c"}
        return cache, labels

    def test_median_rank_one_when_positive_first(self):
        cache, labels = self._pool_cache()
        pool = D.build_pool(cache, "full", "G3")
        stats = M.rank_stats(cache, T.identity_transform(3), pool, 3, ["q0"], labels)
        assert stats.median_rank == 1
        assert stats.r_at_1 == 100.0

    def test_purity_all_same_label(self):
        rng = np.random.default_rng(0)
        images = unit_rows(rng, 2, 4)
        cache = tiny_cache(images, images, ids=["x", "y"])
        labels = {"x": "same", "y": "same"}
        pool = D.build_pool(cache, "full", "G2")
        stats = M.rank_stats(cache, T.identity_transform(4), pool, 4, ["x", "y"], labels)
        assert stats.purity_at_10 == 100.0

    def test_map_matches_brute_force(self):
        cache, labels = self._pool_cache()
        pool = D.build_pool(cache, "full", "G3")
        stats = M.rank_stats(cache, T.identity_transform(3), pool, 3, ["q0"], labels)
        # ranking by cosine: c_own(1.0), c1(0.9), c2(0.5), c3(0.3), c4(0.1)
        # relevant (label a): positions 1 and 2 -> AP = (1/1 + 2/2) / 2 = 1.0
        assert stats.category_map == pytest.approx(100.0)
        assert stats.same_label_r_at_1 == 100.0

    def test_missing_labels(self):
        cache, labels = self._pool_cache()
        del labels["c4"]
        pool = D.build_pool(cache, "full", "G3")
        with pytest.raises(GraspError) as e:
            M.rank_stats(cache, T.identity_transform(3), pool, 3, ["q0"], labels)
        assert e.value.code == "MISSING_LABELS"

    def test_missing_labels_names_the_first_candidate_then_the_first_query(self):
        cache, labels = self._pool_cache()
        pool = D.build_pool(cache, "custom", "G3", ("q0", "c2", "c1"))
        # c3 and c4 are queries whose positives are not in the pool
        for missing, named in [(("c1", "c2", "c4"), "candidate 'c2'"), (("c4", "c3"), "query 'c3'")]:
            with pytest.raises(GraspError) as e:
                M.rank_stats(cache, T.identity_transform(3), pool, 3, ["q0", "c3", "c4"], {
                    i: v for i, v in labels.items() if i not in missing
                })
            assert (e.value.code, e.value.message) == ("MISSING_LABELS", f"{named} has no label")


class TestNoQueries:
    """An empty query set is EMPTY_POOL, not a NaN mean."""

    def test_every_query_metric_rejects_it(self, small_synth):
        cache = small_synth.cache
        ident = T.identity_transform(cache.dim)
        pool = D.build_pool(cache, "full", "G3")
        labels = {r.id: r.entity for r in small_synth.rows}
        calls = [
            lambda q: M.recall_at_1(cache, ident, pool, 4, q),
            lambda q: M.selectivity(cache, ident, 4, "object", q),
            lambda q: M.rank_stats(cache, ident, pool, 4, q, labels),
            lambda q: M.zero_shot(cache.images[cache.indices_of(q)], [], small_synth.class_rows, 4, ident),
        ]
        for call in calls:
            for q in ((), []):
                with pytest.raises(GraspError) as e:
                    call(q)
                assert e.value.code == "EMPTY_POOL" and e.value.message == "no queries"


class TestZeroShot:
    def test_image_equal_to_class_row_is_correct(self):
        classes = np.eye(3, 5)
        images = classes[[1]]
        assert M.zero_shot(images, [1], classes, 5, T.identity_transform(5)) == 100.0

    def test_two_class_enumeration(self):
        classes = np.array([[1.0, 0.0], [0.0, 1.0]])
        images = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.7], [0.1, 0.9]])
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        labels = [0, 0, 0, 1]
        # brute force: image 0 -> class 0 (hit), image 1 -> class 1 (miss),
        # image 2 -> tie (miss), image 3 -> class 1... label 1 (hit)
        got = M.zero_shot(images, labels, classes, 2, T.identity_transform(2))
        assert got == pytest.approx(50.0)

    def test_needs_two_classes(self):
        with pytest.raises(GraspError):
            M.zero_shot(np.eye(1, 4), [0], np.eye(1, 4), 4, T.identity_transform(4))

    def test_labels_must_index_a_class(self):
        for labels in ([0, 3], [-1, 0]):
            with pytest.raises(GraspError) as e:
                M.zero_shot(np.eye(2, 4), labels, np.eye(3, 4), 4, T.identity_transform(4))
            assert e.value.code == "DIM_MISMATCH"

    def test_needs_one_label_per_image(self):
        with pytest.raises(GraspError) as e:
            M.zero_shot(np.eye(2, 4), [0, 1, 1], np.eye(3, 4), 4, T.identity_transform(4))
        assert e.value.code == "DIM_MISMATCH"


# ---------------------------------------------------------------------------
# The streaming kernels against the dense Q x N reference they replaced


def _dense_scores(transform, query_rows, cand_rows, k):
    zq = T.prefix_normalize(transform.apply(np.asarray(query_rows, dtype=np.float64)), k)
    zc = T.prefix_normalize(transform.apply(np.asarray(cand_rows, dtype=np.float64)), k)
    return zq @ zc.T


def reference_recall_at_1(cache, transform, pool, k, query_ids):
    cand_pos = {cid: j for j, cid in enumerate(pool.candidate_ids)}
    positives = np.array([cand_pos[qid] for qid in query_ids], dtype=np.intp)
    q_idx = cache.indices_of(query_ids)
    c_idx = cache.indices_of(pool.candidate_ids)
    s = _dense_scores(transform, cache.images[q_idx], cache.views[pool.view_level][c_idx], k)
    top = s.max(axis=1)
    n_at_top = (s == top[:, None]).sum(axis=1)
    own = s[np.arange(len(positives)), positives]
    hits = (own == top) & (n_at_top == 1)
    return float(100.0 * hits.mean())


def reference_rank_stats(cache, transform, pool, k, query_ids, labels, padded=False):
    """Rank statistics from the dense scores, or with ``padded`` from the padded dense product."""
    cand_pos = {cid: j for j, cid in enumerate(pool.candidate_ids)}
    q_idx = cache.indices_of(query_ids)
    c_idx = cache.indices_of(pool.candidate_ids)
    scores = _padded_dense_scores if padded else _dense_scores
    s = scores(transform, cache.images[q_idx], cache.views[pool.view_level][c_idx], k)
    cand_labels = np.array([labels[cid] for cid in pool.candidate_ids])
    top_n = min(10, len(pool.candidate_ids))
    purities, aps, ranks, hits, label_hits = [], [], [], [], []
    for i, qid in enumerate(query_ids):
        scores = s[i]
        order = np.argsort(-scores, kind="stable")
        q_label = labels[qid]
        ordered_match = cand_labels[order] == q_label
        purities.append(ordered_match[:top_n].mean())
        n_rel = int(ordered_match.sum())
        if n_rel:
            hit_positions = np.flatnonzero(ordered_match) + 1
            aps.append((np.arange(1, n_rel + 1) / hit_positions).mean())
        else:
            aps.append(0.0)
        if qid in cand_pos:
            rank = int(np.sum(scores >= scores[cand_pos[qid]]))
            ranks.append(rank)
            hits.append(rank == 1)
        top = scores.max()
        unique_top = (scores == top).sum() == 1
        label_hits.append(bool(unique_top and cand_labels[np.argmax(scores)] == q_label))
    return M.RankStats(
        purity_at_10=float(100.0 * np.mean(purities)),
        category_map=float(100.0 * np.mean(aps)),
        median_rank=float(np.median(ranks)),
        r_at_1=float(100.0 * np.mean(hits)),
        same_label_r_at_1=float(100.0 * np.mean(label_hits)),
    )


def reference_zero_shot(image_rows, true_labels, class_rows, k, transform):
    s = _dense_scores(transform, image_rows, class_rows, k)
    labels = np.asarray(true_labels, dtype=np.intp)
    top = s.max(axis=1)
    n_at_top = (s == top[:, None]).sum(axis=1)
    own = s[np.arange(s.shape[0]), labels]
    return float(100.0 * np.mean((own == top) & (n_at_top == 1)))


def reference_unique_max(s):
    """Row maxima of a score block, and whether exactly one candidate reaches each (the two-pass form)."""
    top = s.max(axis=1)
    return top, (s == top[:, None]).sum(axis=1) == 1


def _planted_blocks(seed=0):
    """Random score blocks with ties at the top, NaNs, a one-candidate pool and duplicated candidates."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n, m in [(12, 9), (7, 1), (30, 40), (5, 2)]:
        s = np.round(rng.uniform(-1.0, 1.0, (n, m)), 1)  # one decimal: many exact ties
        targets = rng.integers(0, m, n)
        blocks.append((s, targets))
    s, targets = rng.uniform(-1.0, 1.0, (40, 10)), rng.integers(0, 10, 40)
    s[:, 5] = s[:, 2]  # candidates 2 and 5 are the same row
    rows = np.arange(40)
    top = s.max(axis=1)
    s[:10, 7] = s[:10, 8] = top[:10] + 0.5  # a tie at the top, some involving the target
    s[10:16, 0] = np.nan  # a NaN in another cell, or in the own cell
    s[rows[16:20], targets[16:20]] = np.nan
    s[rows[20:25], targets[20:25]] = top[20:25] + 0.5  # a target strictly on top
    s[rows[25:28], targets[25:28]] = s[rows[25:28], (targets[25:28] + 1) % 10] = top[25:28] + 0.5  # a tied target
    s[28, :] = 0.0  # a whole row tied
    s[29, :] = np.nan
    s[30:34, 2] = s[30:34, 5] = top[30:34] + 0.5  # the duplicated candidates share the top
    blocks.append((s, targets))
    return blocks


def _tiles_of(s, rows, cols):
    """Copies of the tiles the score generator would cut from ``s``, in its order."""
    return [
        (r0, c0, s[r0:r1, c0:c1].copy())
        for r0, r1 in M.row_spans(s.shape[0], rows)
        for c0, c1 in M.row_spans(s.shape[1], cols)
    ]


class TestOnePassTop1:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rows, cols", [(None, None), (2, 2), (3, 4), (5, 3)])
    def test_strict_hits_equal_the_two_pass_reference(self, seed, rows, cols):
        for s, targets in _planted_blocks(seed):
            top, unique = reference_unique_max(s)
            want = (s[np.arange(len(s)), targets] == top) & unique
            got = M._strict_top1_hits(_tiles_of(s, rows or s.shape[0], cols or s.shape[1]), targets)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_unique_top_equals_the_two_pass_reference(self, seed):
        for s, _ in _planted_blocks(seed):
            _, want = reference_unique_max(s)
            block = s.copy()
            best, unique = M._unique_top(block)
            assert np.array_equal(unique, want)
            assert np.array_equal(best, s.argmax(axis=1))
            assert block.tobytes() == s.tobytes()  # the block is restored, NaN bits included

    def test_planted_cases_are_present(self):
        s, targets = _planted_blocks()[-1]
        hits = M._strict_top1_hits([(0, 0, s.copy())], targets)
        _, unique = M._unique_top(s.copy())
        assert hits[20:25].all() and not hits[25:30].any() and not hits[10:20].any()
        assert not unique[:16].any() and unique[20:25].all() and not unique[25:34].any()

    def test_one_candidate_pool_hits_unless_nan(self):
        s = np.array([[0.3], [-1.0], [np.nan]])
        assert M._strict_top1_hits([(0, 0, s.copy())], np.zeros(3, dtype=np.intp)).tolist() == [True, True, False]
        assert M._unique_top(s)[1].tolist() == [True, True, False]


class TestTiledTop1:
    """The running row maximum across column tiles, on hand-made score blocks."""

    def _block(self, n=6, m=11, seed=0):
        return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, m))

    def test_target_in_the_last_column_tile(self):
        s = self._block()
        targets = np.full(6, 10, dtype=np.intp)  # column tiles [0, 3) [3, 6) [6, 9) [9, 11)
        s[:3, 10] = s[:3].max(axis=1) + 0.5
        s[3:, 10] = s[3:].min(axis=1) - 0.5
        got = M._strict_top1_hits(_tiles_of(s, 4, 3), targets)
        assert got.tolist() == [True] * 3 + [False] * 3

    def test_nan_in_a_tile_without_the_target_misses(self):
        s = self._block()
        targets = np.ones(6, dtype=np.intp)
        s[:, 1] = s.max(axis=1) + 0.5
        s[[0, 4], 7] = np.nan  # the tile of columns 6 to 8
        got = M._strict_top1_hits(_tiles_of(s, 2, 3), targets)
        assert got.tolist() == [False, True, True, True, False, True]

    def test_equal_maxima_in_two_column_tiles_miss(self):
        s = self._block()
        targets = np.full(6, 2, dtype=np.intp)
        s[:, 2] = s.max(axis=1) + 0.5
        s[:4, 9] = s[:4, 2]  # a tie at the top, three column tiles away
        got = M._strict_top1_hits(_tiles_of(s, 3, 3), targets)
        assert got.tolist() == [False] * 4 + [True] * 2

    def test_one_row_and_one_column_blocks(self):
        s = np.array([[0.1, 0.9, 0.9, 0.2, 0.95]])
        assert M._strict_top1_hits(_tiles_of(s, 1, 2), np.array([4])).tolist() == [True]
        assert M._strict_top1_hits(_tiles_of(s, 1, 2), np.array([1])).tolist() == [False]
        col = np.array([[0.2], [np.nan], [0.7]])
        assert M._strict_top1_hits(_tiles_of(col, 2, 1), np.zeros(3, dtype=np.intp)).tolist() == [True, False, True]


def _force_block_rows(monkeypatch, rows, n_cand):
    """Full-width blocks of ``rows`` query rows, as rank statistics read them."""
    monkeypatch.setattr(M, "BLOCK_BYTES", 8 * rows * n_cand)


def _force_tiles(monkeypatch, rows, cols):
    """Top-1 tiles of ``rows`` x ``cols``.

    ``cols`` is a multiple of 16, as ``_TILE_COLS`` is: a tile that starts inside
    an AVX-512 DGEMM kernel's 16-column unroll would sum some candidates in a
    different order from the dense product.
    """
    assert cols % 16 == 0
    monkeypatch.setattr(M, "_TILE_ROWS", rows)
    monkeypatch.setattr(M, "_TILE_COLS", cols)


def _strips(transform, query_rows, cand_rows, k):
    """Full-width strips of the query x candidate scores through ``_tiles``: every candidate and as many query
    rows as fit in ``BLOCK_BYTES``."""
    zqt = M._side(transform, query_rows, np.arange(len(query_rows)), k)
    zct = M._side(transform, cand_rows, np.arange(len(cand_rows)), k)
    return M._tiles(zqt, zct, len(query_rows), len(cand_rows), M.BLOCK_BYTES // (8 * zct.shape[1]), zct.shape[1])


def _copies(tiles):
    """The generator overwrites one buffer, so each tile is copied to be kept."""
    return [(r0, c0, s.copy()) for r0, c0, s in tiles]


def _assemble(tiles, shape):
    """The dense matrix the tiles cover, checking that each cell is written once."""
    out = np.zeros(shape)
    written = np.zeros(shape, dtype=np.intp)
    for r0, c0, s in tiles:
        out[r0 : r0 + s.shape[0], c0 : c0 + s.shape[1]] = s
        written[r0 : r0 + s.shape[0], c0 : c0 + s.shape[1]] += 1
    assert (written == 1).all()
    return out


def _tied_corpus(n=40, dim=6, seed=0, n_labels=3):
    """Cache whose text rows repeat in pairs (exact score ties), with labels and a rotation."""
    rng = np.random.default_rng(seed)
    texts = unit_rows(rng, n, dim)
    texts[1::2] = texts[0::2]
    images = 0.8 * texts + 0.2 * unit_rows(rng, n, dim)
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    ids = tuple(f"c{i:03d}" for i in range(n))
    cache = D.EmbeddingCache(
        dim=dim,
        ids=ids,
        split_of={i: "test" for i in ids},
        images=images.astype(np.float32),
        views={g: texts.astype(np.float32) for g in T.VIEW_LEVELS},
        negatives={r: texts.astype(np.float32) for r in T.NEGATIVE_TYPES},
    )
    labels = {cid: f"L{rng.integers(n_labels)}" for cid in ids}
    return cache, labels, T.random_orthogonal(dim, seed + 1)


def _assert_same_rank_stats(got, want):
    assert got.to_json_dict() == want.to_json_dict()


class TestStreamingMatchesDenseReference:
    @pytest.mark.parametrize(
        "rows, sizes",
        [(1, [2] * 10 + [3]), (2, [2] * 10 + [3]), (3, [3] * 7 + [2]), (7, [7, 7, 7, 2]), (None, [23])],
    )
    def test_blocks_concatenate_to_the_dense_matrix(self, small_synth, monkeypatch, rows, sizes):
        # no block has one row: numpy sends a one-row product to BLAS's matrix-vector kernel
        cache = small_synth.cache
        q = cache.images[cache.indices_of(cache.split_ids("test")[:-1])]
        c = cache.views["G2"]
        if rows:
            _force_block_rows(monkeypatch, rows, len(c))
        blocks = _copies(_strips(small_synth.oracle, q, c, 8))
        assert [len(s) for _, _, s in blocks] == sizes
        assert [start for start, _, _ in blocks] == [sum(sizes[:i]) for i in range(len(sizes))]
        assert all(c0 == 0 and s.shape[1] == len(c) for _, c0, s in blocks)
        dense = _dense_scores(small_synth.oracle, q, c, 8)
        assert np.array_equal(np.concatenate([s for _, _, s in blocks]), dense)

    @pytest.mark.parametrize("rows, cols", [(2, 16), (3, 32), (7, 64), (None, None)])
    def test_tiles_concatenate_to_the_dense_matrix(self, small_synth, monkeypatch, rows, cols):
        cache = small_synth.cache
        q = cache.images[cache.indices_of(cache.split_ids("test")[:-1])]
        c = cache.views["G2"]
        if rows:
            _force_tiles(monkeypatch, rows, cols)
        row_spans, col_spans = M.row_spans(len(q), M._TILE_ROWS), M.row_spans(len(c), M._TILE_COLS)
        if rows:  # short last row tiles, and short last column tiles at 32 and 64
            assert row_spans[-1][1] - row_spans[-1][0] != rows
            assert cols == 16 or col_spans[-1][1] - col_spans[-1][0] < cols
        for k in (2, 8, 32):
            tiles = _copies(M._score_tiles(small_synth.oracle, q, c, np.arange(len(c)), k))
            assert [(r0, c0) for r0, c0, _ in tiles] == [(r0, c0) for r0, _ in row_spans for c0, _ in col_spans]
            assert all(s.shape[0] > 1 and s.shape[1] > 1 for _, _, s in tiles)
            dense = _dense_scores(small_synth.oracle, q, c, k)
            assert np.array_equal(_assemble(tiles, dense.shape), dense)

    def test_one_row_query_set_and_one_candidate_pool_tile_as_the_whole_set(self, small_synth, monkeypatch):
        # each product spans two query rows and 16 candidate columns at least, into the sides' zero padding
        cache = small_synth.cache
        q = cache.images[cache.indices_of(cache.split_ids("test"))]
        c = cache.views["G2"]
        _force_tiles(monkeypatch, 2, 16)
        _force_block_rows(monkeypatch, 2, 1)
        whole = _assemble(_copies(M._score_tiles(small_synth.oracle, q, c, np.arange(len(c)), 8)), (len(q), len(c)))
        for qr, cr in ((q[:1], c), (q, c[:1]), (q[:1], c[:1])):
            for scores in (
                M._score_tiles(small_synth.oracle, qr, cr, np.arange(len(cr)), 8),
                _strips(small_synth.oracle, qr, cr, 8),
            ):
                got = _assemble(_copies(scores), (len(qr), len(cr)))
                assert np.array_equal(got, whole[: len(qr), : len(cr)])

    @pytest.mark.parametrize("rows, cols", [(2, 16), (3, 32), (7, 48), (None, None)])
    def test_synthetic_corpus_in_tiles(self, small_synth, monkeypatch, rows, cols):
        cache = small_synth.cache
        ids = cache.split_ids("test")[:-1]
        assert len(ids) % 7 and len(ids) % 3 and len(ids) % 2  # a short last tile at every forced size
        labels = {r.id: r.entity for r in small_synth.rows}
        if rows:
            _force_tiles(monkeypatch, rows, cols)
        for mode in ("full", "test_only"):
            pool = D.build_pool(cache, mode, "G3")
            if rows:
                _force_block_rows(monkeypatch, rows, len(pool.candidate_ids))
            for k in (2, 8, 32):
                want = reference_recall_at_1(cache, small_synth.oracle, pool, k, ids)
                assert M.recall_at_1(cache, small_synth.oracle, pool, k, ids) == want
                _assert_same_rank_stats(
                    M.rank_stats(cache, small_synth.oracle, pool, k, ids, labels),
                    reference_rank_stats(cache, small_synth.oracle, pool, k, ids, labels),
                )
        images = cache.images[cache.indices_of(ids)]
        objects = [small_synth.assignments["object"][cache.row_index(i)] for i in ids]
        for k in (2, 32):
            want = reference_zero_shot(images, objects, small_synth.class_rows, k, small_synth.oracle)
            assert M.zero_shot(images, objects, small_synth.class_rows, k, small_synth.oracle) == want

    @pytest.mark.parametrize("rows, cols", [(2, 16), (7, 16), (None, None)])
    def test_duplicated_candidates(self, monkeypatch, rows, cols):
        cache, labels, rot = _tied_corpus()
        full = D.build_pool(cache, "full", "G3")
        # shifted by one, twins sit in columns (15, 16) and (31, 32): a tie across two column tiles
        shifted = D.CandidatePool(mode="custom", candidate_ids=full.candidate_ids[1:] + full.candidate_ids[:1], view_level="G3")
        if rows:
            _force_tiles(monkeypatch, rows, cols)
        ids = list(cache.ids[:-1])
        for pool in (full, shifted):
            if rows:
                _force_block_rows(monkeypatch, rows, len(pool.candidate_ids))
            for k in (2, 6):
                want = reference_recall_at_1(cache, rot, pool, k, ids)
                assert want < 60.0  # every positive ties with its twin, so only broken twins can hit
                assert M.recall_at_1(cache, rot, pool, k, ids) == want
                _assert_same_rank_stats(
                    M.rank_stats(cache, rot, pool, k, ids, labels),
                    reference_rank_stats(cache, rot, pool, k, ids, labels),
                )

    def _ladder_cache(self, tied_labels):
        """Query q sees 9 candidates above a tied pair (positions 10 and 11), then the rest."""
        dim = 3
        cos = [0.99, 0.98, 0.97, 0.96, 0.95, 0.94, 0.93, 0.92, 0.91, 0.5, 0.5, 0.3, 0.2, 0.1]
        texts = np.array([[c, np.sqrt(1 - c * c), 0.0] for c in cos])
        ids = ("q",) + tuple(f"c{i:02d}" for i in range(1, len(cos)))
        cache = D.EmbeddingCache(
            dim=dim,
            ids=ids,
            split_of={i: "test" for i in ids},
            images=np.tile(np.array([[1.0, 0.0, 0.0]]), (len(cos), 1)).astype(np.float32),
            views={g: texts.astype(np.float32) for g in T.VIEW_LEVELS},
            negatives={r: texts.astype(np.float32) for r in T.NEGATIVE_TYPES},
        )
        labels = {cid: "other" for cid in ids}
        labels["q"] = "mine"
        for j, label in zip((9, 10), tied_labels):
            labels[ids[j]] = label
        scores = _dense_scores(T.identity_transform(dim), cache.images[:1], texts, dim)[0]
        assert scores[9] == scores[10] and np.sum(scores > scores[9]) == 9
        return cache, labels

    @pytest.mark.parametrize(
        "tied_labels, purity, ap",
        [
            (("other", "mine"), 10.0, 100.0 * (1 + 2 / 11) / 2),  # the relevant twin ranks 11th
            (("mine", "mine"), 20.0, 100.0 * (1 + 2 / 10 + 3 / 11) / 3),
        ],
    )
    def test_tie_at_the_tenth_position(self, tied_labels, purity, ap):
        cache, labels = self._ladder_cache(tied_labels)
        pool = D.build_pool(cache, "full", "G3")
        stats = M.rank_stats(cache, T.identity_transform(3), pool, 3, ["q"], labels)
        _assert_same_rank_stats(
            stats, reference_rank_stats(cache, T.identity_transform(3), pool, 3, ["q"], labels)
        )
        assert stats.purity_at_10 == pytest.approx(purity)
        assert stats.category_map == pytest.approx(ap)

    def test_tie_at_the_top_misses(self):
        texts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        ids = ("a", "b", "c")
        cache = D.EmbeddingCache(
            dim=2,
            ids=ids,
            split_of={i: "test" for i in ids},
            images=texts,
            views={g: texts for g in T.VIEW_LEVELS},
            negatives={r: texts for r in T.NEGATIVE_TYPES},
        )
        pool = D.build_pool(cache, "full", "G3")
        ident = T.identity_transform(2)
        assert M.recall_at_1(cache, ident, pool, 2, ids) == reference_recall_at_1(cache, ident, pool, 2, ids)
        assert M.recall_at_1(cache, ident, pool, 2, ["a", "b"]) == 0.0
        labels = {"a": "x", "b": "x", "c": "y"}
        stats = M.rank_stats(cache, ident, pool, 2, ids, labels)
        _assert_same_rank_stats(stats, reference_rank_stats(cache, ident, pool, 2, ids, labels))
        assert stats.same_label_r_at_1 == pytest.approx(100.0 / 3)  # only c's top is unique
        assert M.zero_shot(texts, [0, 1, 2], texts, 2, ident) == pytest.approx(100.0 / 3)

    @pytest.mark.parametrize("rows", [2, None])
    def test_one_candidate_pool(self, monkeypatch, rows):
        cache, labels, rot = _tied_corpus(n=8)
        pool = D.CandidatePool(mode="custom", candidate_ids=("c003",), view_level="G2")
        if rows:
            _force_block_rows(monkeypatch, rows, 1)
            _force_tiles(monkeypatch, rows, 16)
        assert M.recall_at_1(cache, rot, pool, 4, ["c003"]) == reference_recall_at_1(cache, rot, pool, 4, ["c003"])
        ids = list(cache.ids)  # one query has its positive in the pool, the others do not
        _assert_same_rank_stats(
            M.rank_stats(cache, rot, pool, 4, ids, labels),
            reference_rank_stats(cache, rot, pool, 4, ids, labels),
        )

    def test_nan_scores_rank_last_in_candidate_order(self):
        cache, labels, rot = _tied_corpus(n=30)
        cache.views = {g: v.copy() for g, v in cache.views.items()}
        cache.views["G3"][[4, 17, 25]] = np.nan
        pool = D.build_pool(cache, "full", "G3")
        ids = list(cache.ids)
        _assert_same_rank_stats(
            M.rank_stats(cache, rot, pool, 6, ids, labels),
            reference_rank_stats(cache, rot, pool, 6, ids, labels),
        )
        assert M.recall_at_1(cache, rot, pool, 6, ids) == reference_recall_at_1(cache, rot, pool, 6, ids)

    def test_memory_is_bounded_by_the_block(self):
        import tracemalloc

        synth = D.generate_synthetic(
            D.SyntheticSpec(
                dim=16,
                block_sizes={"object": 1, "attribute": 2, "relation": 4, "residual": 9},
                cardinalities={"object": 4, "attribute": 4, "relation": 4},
                noise_std=0.05,
                n_examples=16000,
                seed=0,
            )
        )
        cache = synth.cache
        ids = cache.split_ids("test")
        pool = D.build_pool(cache, "full", "G3")
        labels = {r.id: r.entity for r in synth.rows}
        dense_bytes = 8 * len(ids) * len(pool.candidate_ids)
        assert dense_bytes >= 200e6
        tracemalloc.start()
        try:
            M.recall_at_1(cache, synth.oracle, pool, 8, ids)
            M.rank_stats(cache, synth.oracle, pool, 8, ids, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


def _several_block_pool(n, dim=64, n_queries=300, seed=0):
    """A cache of random unit rows, its labels, ``n_queries`` query ids and a rotation.

    The images are noisy copies of their texts, so some queries miss; the ids sort in row order.
    """
    rng = np.random.default_rng(seed)
    texts = unit_rows(rng, n, dim)
    images = texts + 0.7 * unit_rows(rng, n, dim)
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    cache = tiny_cache(images, texts, ids=[f"c{i:05d}" for i in range(n)])
    labels = {cid: f"L{rng.integers(8)}" for cid in cache.ids}
    return cache, labels, list(cache.ids[::-1][:n_queries]), T.random_orthogonal(dim, seed + 1)


class TestRowBlocks:
    """Candidate row blocks, full-width query blocks and tiles against one block of everything, bit for bit."""

    @pytest.fixture(scope="class")
    def pool_case(self):
        case = _several_block_pool(5000)
        # three candidate blocks, the last one shorter; full-width blocks of 26 queries, the last one of 14
        assert [b - a for a, b in D.block_spans(5000, 8 * 64)] == [1667, 1667, 1666]
        return case

    @pytest.mark.parametrize("k", [8, 64])
    def test_scores_equal_the_dense_product(self, pool_case, k):
        cache, _, query_ids, rot = pool_case
        q, c = cache.images[cache.indices_of(query_ids)], cache.views["G3"]
        dense = _dense_scores(rot, q, c, k)
        for scores in (M._score_tiles(rot, q, c, np.arange(len(c)), k), _strips(rot, q, c, k)):
            tiles = _copies(scores)
            assert len(tiles) > 1
            assert np.array_equal(_assemble(tiles, dense.shape), dense)

    def test_metrics_equal_the_single_block_computation(self, pool_case, monkeypatch):
        cache, labels, query_ids, rot = pool_case
        pool = D.build_pool(cache, "full", "G3")
        q_idx = cache.indices_of(query_ids)

        def metrics():
            return [
                (
                    M.recall_at_1(cache, rot, pool, k, query_ids),
                    M.zero_shot(cache.images[q_idx], np.arange(len(q_idx)), cache.views["G3"], k, rot),
                    M.rank_stats(cache, rot, pool, k, query_ids, labels).to_json_dict(),
                )
                for k in (8, 64)
            ]

        blocked = metrics()
        monkeypatch.setattr(D, "BLOCK_BYTES", 2**62)
        monkeypatch.setattr(M, "BLOCK_BYTES", 2**62)
        monkeypatch.setattr(M, "_TILE_ROWS", len(query_ids))
        monkeypatch.setattr(M, "_TILE_COLS", len(pool.candidate_ids))
        assert blocked == metrics()
        assert 0.0 < blocked[0][0] < 100.0  # some queries miss at k = 8
        for k, (r1, _, ranks) in zip((8, 64), blocked):
            assert r1 == reference_recall_at_1(cache, rot, pool, k, query_ids)
            assert ranks == reference_rank_stats(cache, rot, pool, k, query_ids, labels).to_json_dict()

    def test_zero_prefix_in_the_last_candidate_block_is_rejected(self, pool_case):
        cache, _, query_ids, _ = pool_case
        texts = cache.views["G3"].copy()
        texts[-1] = 0.0
        texts[-1, -1] = 1.0  # a unit row whose 8-prefix is zero
        zeroed = tiny_cache(cache.images, texts, ids=cache.ids)
        pool = D.build_pool(zeroed, "full", "G3")
        ident = T.identity_transform(zeroed.dim)
        for fn in (
            lambda: M.recall_at_1(zeroed, ident, pool, 8, query_ids),
            lambda: M.rank_stats(zeroed, ident, pool, 8, query_ids, dict.fromkeys(zeroed.ids, "x")),
        ):
            with pytest.raises(GraspError) as e:
                fn()
            assert e.value.code == "ZERO_PREFIX"

    def test_rank_stats_memory_against_a_20000_row_pool(self):
        # 1 MiB score blocks and a blocked candidate side; 8 MiB blocks and the whole candidate side in float64
        # peaked at 40.0 MiB
        cache, labels, query_ids, rot = _several_block_pool(20000)
        pool = D.build_pool(cache, "full", "G3")
        assert traced_peak(M.rank_stats, cache, rot, pool, 32, query_ids, labels) < 20 * 2**20


def _padded_dense_scores(transform, query_rows, cand_rows, k):
    """``_dense_scores`` with the candidate side zero-padded to a multiple of 16 columns before the product."""
    zq = T.prefix_normalize(transform.apply(np.asarray(query_rows, dtype=np.float64)), k)
    zc = T.prefix_normalize(transform.apply(np.asarray(cand_rows, dtype=np.float64)), k)
    padded = np.zeros((k, -(-len(zc) // 16) * 16))
    padded[:, : len(zc)] = zc.T
    return (zq @ padded)[:, : len(zc)]


def reference_twin_recall_at_1(cache, transform, pool, k, query_ids):
    """R@1 from the padded dense product, with every byte-identical pair of candidates counted as a tie."""
    c_idx = cache.indices_of(pool.candidate_ids)
    cand = cache.views[pool.view_level][c_idx]
    copies: dict[bytes, int] = {}
    for row in cand:
        copies[row.tobytes()] = copies.get(row.tobytes(), 0) + 1
    twinned = np.array([copies[row.tobytes()] > 1 for row in cand])
    positives = np.array([pool.candidate_ids.index(q) for q in query_ids], dtype=np.intp)
    s = _padded_dense_scores(transform, cache.images[cache.indices_of(query_ids)], cand, k)
    top = s.max(axis=1)
    own = s[np.arange(len(positives)), positives]
    hits = (own == top) & ((s == top[:, None]).sum(axis=1) == 1) & ~twinned[positives]
    return float(100.0 * hits.mean())


def _twin_pool(n, pairs, dim=64, seed=0):
    """A cache of random unit texts, text ``b`` a byte copy of text ``a`` for each ``(a, b)`` in ``pairs``.

    The images are noisy copies of their texts and the ids sort in row order.  The query ids are the first
    200 ids, both ends of every pair, and the last id.
    """
    rng = np.random.default_rng(seed)
    texts = unit_rows(rng, n, dim).astype(np.float32)
    for a, b in pairs:
        texts[b] = texts[a]
    images = texts + 0.3 * unit_rows(rng, n, dim)
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    cache = tiny_cache(images, texts, ids=[f"c{i:05d}" for i in range(n)])
    rows = sorted(set(range(200)) | {i for pair in pairs for i in pair} | {n - 1})
    return cache, [cache.ids[i] for i in rows], T.random_orthogonal(dim, seed + 1)


class TestDistinctCandidateRows:
    """``recall_at_1`` scores each distinct candidate row once; byte-identical twins tie by construction."""

    @pytest.mark.parametrize("n", [2000, 2013, 20147])
    def test_planted_twins_equal_the_padded_dense_reference(self, n):
        # twins across the 1024-column tiles, three-way, and in the last (n mod 8) columns
        pairs = [(3, 1500), (7, 1024), (8, 1023), (10, 11), (10, 12), (40, n - 1), (n - 2, 50)]
        cache, query_ids, rot = _twin_pool(n, pairs)
        pool = D.build_pool(cache, "full", "G3")
        twins = sorted({i for pair in pairs for i in pair})
        twin_ids = [cache.ids[i] for i in twins]
        for k in (8, 32, 64):
            want = reference_twin_recall_at_1(cache, rot, pool, k, query_ids)
            assert M.recall_at_1(cache, rot, pool, k, query_ids) == want
            assert M.recall_at_1(cache, rot, pool, k, twin_ids) == 0.0
        assert want > 50.0  # most untwinned queries hit at k = 64
        q = cache.images[cache.indices_of(query_ids)]
        scores = _padded_dense_scores(rot, q, cache.views["G3"], 64)
        assert all(np.array_equal(scores[:, a], scores[:, b]) for a, b in pairs)
        first, _ = M._distinct_rows(cache.views["G3"], cache.indices_of(pool.candidate_ids))
        assert len(first) == n - 7
        tiles = _copies(M._score_tiles(rot, q, cache.views["G3"], first, 64))
        assert np.array_equal(_assemble(tiles, (len(q), len(first))), scores[:, first])

    @pytest.mark.parametrize("n", [2013, 20147])
    def test_tiles_and_blocks_equal_the_padded_dense_product_off_a_multiple_of_8(self, n):
        # unpadded, the last (n mod 8) columns went through edge kernels and differed between blockings
        cache, query_ids, rot = _twin_pool(n, [])
        q, c = cache.images[cache.indices_of(query_ids)], cache.views["G3"]
        for k in (8, 64):
            dense = _padded_dense_scores(rot, q, c, k)
            for scores in (M._score_tiles(rot, q, c, np.arange(n), k), _strips(rot, q, c, k)):
                tiles = _copies(scores)
                assert np.array_equal(_assemble(tiles, dense.shape), dense)

    @pytest.mark.parametrize("n", [2013, 20147])
    def test_rows_that_differ_past_the_prefix_tie_alike_at_every_tile_size(self, monkeypatch, n):
        # distinct rows whose k-prefixes are equal tie under the identity map; planted in the last (n mod 8)
        # columns, where an unpadded product would send them to BLAS's edge kernels
        k, tail = 32, n - n % 8
        pairs = [(40, tail), (tail + 1, n - 1)]
        rng = np.random.default_rng(3)
        texts = unit_rows(rng, n, 64).astype(np.float32)
        for a, b in pairs:
            texts[b] = np.concatenate([texts[a, :k], -texts[a, k:]])
        images = texts + 0.3 * unit_rows(rng, n, 64)
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        cache = tiny_cache(images, texts, ids=[f"c{i:05d}" for i in range(n)])
        pool = D.build_pool(cache, "full", "G3")
        ident = T.identity_transform(64)
        ends = [cache.ids[i] for pair in pairs for i in pair]
        query_ids = sorted(set(cache.ids[:20]) | set(ends))
        labels = {cid: str(i % 5) for i, cid in enumerate(cache.ids)}
        scores = _padded_dense_scores(ident, cache.images[cache.indices_of(ends)], texts, k)
        assert all(np.array_equal(scores[:, a], scores[:, b]) for a, b in pairs)
        assert len(M._distinct_rows(texts, np.arange(n))[0]) == n

        decisions = []
        for rows, cols in [(None, None), (2, 16), (7, 48)]:
            with monkeypatch.context() as m:
                if rows:
                    _force_tiles(m, rows, cols)
                    _force_block_rows(m, rows, -(-n // 16) * 16)
                decisions.append([
                    (M.recall_at_1(cache, ident, pool, k, ids), M.rank_stats(cache, ident, pool, k, ids, labels))
                    for ids in (query_ids, ends)
                ])
        assert all(d == decisions[0] for d in decisions[1:])
        (r1, _), (ends_r1, ends_rank) = decisions[0]
        assert r1 == reference_twin_recall_at_1(cache, ident, pool, k, query_ids)
        assert ends_r1 == ends_rank.r_at_1 == ends_rank.same_label_r_at_1 == 0.0
        assert ends_rank.median_rank == 2.0

    @pytest.mark.parametrize("collide", ["all_rows", "row_5_with_row_10"])
    def test_a_hash_collision_is_scored_as_distinct_rows(self, monkeypatch, collide):
        cache, query_ids, rot = _twin_pool(2013, [(3, 1500), (10, 11), (10, 2012), (40, 41)])
        pool = D.build_pool(cache, "full", "G3")
        c_idx = cache.indices_of(pool.candidate_ids)
        first, group = M._distinct_rows(cache.views["G3"], c_idx)
        assert len(first) == 2009 and group[11] == group[2012] == group[10] != group[5]
        want = [reference_twin_recall_at_1(cache, rot, pool, k, query_ids) for k in (8, 64)]
        row_keys = M._row_keys

        def colliding_keys(matrix, idx):
            keys = row_keys(matrix, idx)
            if collide == "all_rows":
                return np.zeros_like(keys)
            keys[5] = keys[10]  # row 5 comes first, so 10, 11 and 2012 are checked against it
            return keys

        monkeypatch.setattr(M, "_row_keys", colliding_keys)
        first, group = M._distinct_rows(cache.views["G3"], c_idx)
        # the rows that failed the byte check are scored as distinct rows; their scores still tie
        assert len(first) == (2013 if collide == "all_rows" else 2011)
        assert len({group[10], group[11], group[2012]}) == 3
        assert [M.recall_at_1(cache, rot, pool, k, query_ids) for k in (8, 64)] == want

    @pytest.fixture(scope="class")
    def quickstart(self):
        spec = D.SyntheticSpec(
            dim=64,
            block_sizes={"object": 4, "attribute": 8, "relation": 16, "residual": 36},
            cardinalities={"object": 8, "attribute": 8, "relation": 8},
            noise_std=0.05,
            n_examples=2000,
            seed=0,
        )
        return D.generate_synthetic(spec)

    def test_distinct_scores_equal_full_pool_scores_on_the_quickstart_corpus(self, quickstart):
        cache = quickstart.cache
        rng = np.random.default_rng(5)
        model = T.make_model(T.TransformSpec(variant="mlp", dim=64))
        mlp = model.eval_transform({k: v + 0.05 * rng.standard_normal(v.shape) for k, v in model.init_params(rng).items()})
        q = cache.images[cache.indices_of(cache.split_ids("test"))]
        distinct = {}
        for g in ("G0", "G1", "G2"):
            for mode in ("full", "test_only"):
                c_idx = cache.indices_of(D.build_pool(cache, mode, g).candidate_ids)
                first, group = M._distinct_rows(cache.views[g], c_idx)
                distinct[g, mode] = len(first)
                for transform in (quickstart.oracle, T.random_orthogonal(64, 9), mlp):
                    for k in quickstart.contract.prefixes:
                        full = _assemble(_copies(M._score_tiles(transform, q, cache.views[g], c_idx, k)), (len(q), len(c_idx)))
                        tiles = _copies(M._score_tiles(transform, q, cache.views[g], c_idx[first], k))
                        assert np.array_equal(_assemble(tiles, (len(q), len(first))), full[:, first])
                        assert np.array_equal(full[:, first][:, group], full)  # twins score alike in the full pool too
        assert (distinct["G0", "full"], distinct["G1", "full"], distinct["G2", "full"]) == (8, 64, 507)

    def test_one_row_query_set_and_one_candidate_pool(self):
        cache, query_ids, rot = _twin_pool(2000, [(3, 1500)])
        pool = D.build_pool(cache, "full", "G3")
        for qid in ("c00000", "c00003", "c01500", "c01999"):
            want = reference_twin_recall_at_1(cache, rot, pool, 64, [qid])
            assert M.recall_at_1(cache, rot, pool, 64, [qid]) == want
            assert want == (0.0 if qid in ("c00003", "c01500") else 100.0)
        one = D.CandidatePool(mode="custom", candidate_ids=("c00003",), view_level="G3")
        pair = D.CandidatePool(mode="custom", candidate_ids=("c00003", "c01500"), view_level="G3")
        assert M.recall_at_1(cache, rot, one, 8, ["c00003"]) == 100.0
        assert M.recall_at_1(cache, rot, pair, 8, ["c00003", "c01500"]) == 0.0

    def test_memory_against_a_20000_row_twin_heavy_pool(self):
        # 8 distinct rows, as the G0 view of the benchmark corpus. Scoring all 20,000 rows traced 17.1 MiB here
        # (the gathered pool, 4.9 MiB, and the 64 x 20000 normalized side, 9.8 MiB); the 8 distinct rows trace 2.0
        rng = np.random.default_rng(0)
        texts = unit_rows(rng, 8, 64)[rng.integers(8, size=20000)]
        images = texts + 0.7 * unit_rows(rng, 20000, 64)
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        cache = tiny_cache(images, texts, ids=[f"c{i:05d}" for i in range(20000)])
        pool = D.build_pool(cache, "full", "G0")
        rot = T.random_orthogonal(64, 1)
        assert traced_peak(M.recall_at_1, cache, rot, pool, 64, cache.ids[:300]) < 4 * 2**20


class TestSizeIndependentScores:
    """A row's scores do not depend on the size of its query set or of its pool."""

    @pytest.fixture(scope="class")
    def acceptance(self):
        spec = D.SyntheticSpec(
            dim=64,
            block_sizes={"object": 4, "attribute": 8, "relation": 16, "residual": 36},
            cardinalities={"object": 8, "attribute": 8, "relation": 8},
            noise_std=0.05,
            n_examples=2000,
            seed=0,
        )
        cache = D.generate_synthetic(spec).cache
        rng = np.random.default_rng(5)
        model = T.make_model(T.TransformSpec(variant="mlp", dim=64))
        mlp = model.eval_transform({k: v + 0.05 * rng.standard_normal(v.shape) for k, v in model.init_params(rng).items()})
        return cache, {"rotation": T.random_orthogonal(64, 9), "mlp": mlp}

    @pytest.mark.parametrize("name", ["rotation", "mlp"])
    def test_small_query_sets_and_pools_score_as_inside_the_whole_set(self, acceptance, name):
        cache, transforms = acceptance
        transform = transforms[name]
        q = cache.images[cache.indices_of(cache.split_ids("test"))]
        c_idx = cache.indices_of(D.build_pool(cache, "full", "G3").candidate_ids)
        assert len(q) == 200
        for pool in (c_idx[:1], c_idx[:5], c_idx):
            cands = cache.views["G3"][pool]
            for k in (4, 16, 64):
                whole = _assemble(_copies(M._score_tiles(transform, q, cache.views["G3"], pool, k)), (len(q), len(pool)))
                for n in (1, 2, 3, 7, 17):
                    rows = np.arange(0, len(q), len(q) // n)[:n]
                    tiles = M._score_tiles(transform, q[rows], cache.views["G3"], pool, k)
                    for scores in (tiles, _strips(transform, q[rows], cands, k)):
                        assert np.array_equal(_assemble(_copies(scores), (n, len(pool))), whole[rows])

    @pytest.mark.parametrize("name", ["rotation", "mlp"])
    def test_one_row_recall_equals_the_rows_hit_inside_the_whole_set(self, acceptance, name):
        cache, transforms = acceptance
        transform = transforms[name]
        pool = D.build_pool(cache, "full", "G3")
        c_idx = cache.indices_of(pool.candidate_ids)
        assert len(M._distinct_rows(cache.views["G3"], c_idx)[0]) == len(c_idx)
        query_ids = cache.split_ids("test")
        q = cache.images[cache.indices_of(query_ids)]
        positives = M._pool_columns(cache, cache.indices_of(query_ids), c_idx)
        for k in (4, 16, 64):
            hits = M._strict_top1_hits(M._score_tiles(transform, q, cache.views["G3"], c_idx, k), positives)
            for i in range(0, len(query_ids), 10):
                assert M.recall_at_1(cache, transform, pool, k, [query_ids[i]]) == 100.0 * hits[i]


def _planted_rank_corpus():
    """A cache, labels and a pool whose label-"a" queries plant every kind of row in one group.

    Under the identity map at k = 9: texts 10 and 11 tie for a query whose coordinates 6 and 7 are zero
    (text 10 has the query's label), texts 20 and 21 tie for one whose coordinates 4 and 5 are zero (neither
    has it), query 3's image is NaN, and query 4's image is orthogonal to every text. The other label-"a"
    queries are untied. Query 30's label has no candidate (its text is left out of the pool), query 31's has
    one, and each of those labels has one query.
    """
    rng = np.random.default_rng(11)
    n, dim = 40, 9
    texts = unit_rows(rng, n, dim)
    texts[:, 8] = 0.0
    s = 0.3
    texts[10, 6:8], texts[11, 6:8] = (s, -s), (-s, s)
    texts[11, :6] = texts[10, :6]
    texts[20, 4:6], texts[21, 4:6] = (s, -s), (-s, s)
    texts[21, :4], texts[21, 6:] = texts[20, :4], texts[20, 6:]
    texts /= np.linalg.norm(texts, axis=1, keepdims=True)
    images = 0.8 * texts + 0.2 * unit_rows(rng, n, dim)
    images[1, 6:8] = 0.0
    images[2, 4:6] = 0.0
    images[3] = np.nan
    images[4] = np.eye(dim)[8]
    images[[0, 1, 2, 5, 6, 7, 8, 9]] /= np.linalg.norm(images[[0, 1, 2, 5, 6, 7, 8, 9]], axis=1, keepdims=True)
    images[10:] /= np.linalg.norm(images[10:], axis=1, keepdims=True)
    cache = tiny_cache(images, texts, ids=[f"c{i:03d}" for i in range(n)])
    labels = {cid: "abc"[i % 3] for i, cid in enumerate(cache.ids)}
    labels.update({cache.ids[i]: "a" for i in range(11)})
    labels.update({cache.ids[11]: "b", cache.ids[20]: "b", cache.ids[21]: "b"})
    labels.update({cache.ids[30]: "lonely", cache.ids[31]: "single"})
    pool = D.CandidatePool(mode="custom", candidate_ids=cache.ids[:30] + cache.ids[31:], view_level="G3")
    return cache, labels, pool


class TestRankStrips:
    """Rank statistics from one sort per score row, in strips of query rows grouped by label."""

    @staticmethod
    def _strip_rows(monkeypatch, cache, pool, k, query_ids, labels):
        """The row count of each strip that ``rank_stats`` multiplies, and its statistics."""
        seen = []
        unique_top = M._unique_top

        def spy(s):
            seen.append(s.shape[0])
            return unique_top(s)

        monkeypatch.setattr(M, "_unique_top", spy)
        return seen, M.rank_stats(cache, T.identity_transform(cache.dim), pool, k, query_ids, labels)

    @staticmethod
    def _force_strip_rows(monkeypatch, rows, pool, query_ids, labels):
        """Strips of ``rows`` query rows: each strip's sort buffer is about 2 * BLOCK_BYTES."""
        counts: dict[str, int] = {}
        for cid in pool.candidate_ids:
            counts[labels[cid]] = counts.get(labels[cid], 0) + 1
        width = len(pool.candidate_ids) + max(counts.get(labels[q], 0) for q in query_ids)
        monkeypatch.setattr(M, "BLOCK_BYTES", 8 * width * rows // 2)

    def test_the_planted_rows_are_present(self):
        cache, labels, pool = _planted_rank_corpus()
        c_idx = cache.indices_of(pool.candidate_ids)
        s = _dense_scores(T.identity_transform(9), cache.images[:10], cache.views["G3"][c_idx], 9)
        col = {cid: j for j, cid in enumerate(pool.candidate_ids)}
        c10, c11, c20, c21 = (col[cache.ids[i]] for i in (10, 11, 20, 21))
        assert s[1, c10] == s[1, c11] and s[2, c20] == s[2, c21]
        assert s[1, c20] != s[1, c21] and s[2, c10] != s[2, c11]
        assert np.isnan(s[3]).all() and (s[4] == 0.0).all()
        untied = [0, 5, 6, 7, 8, 9]
        assert all(len(np.unique(s[i])) == s.shape[1] for i in untied)
        assert labels[cache.ids[10]] == "a" and {labels[cache.ids[i]] for i in (11, 20, 21)} == {"b"}
        assert cache.ids[30] not in pool.candidate_ids
        assert [labels[c] for c in pool.candidate_ids].count("single") == 1

    @pytest.mark.parametrize("rows", [None, 2, 10**9])
    def test_planted_rows_equal_the_dense_reference(self, monkeypatch, rows):
        cache, labels, pool = _planted_rank_corpus()
        ident = T.identity_transform(9)
        query_ids = list(cache.ids[:10]) + [cache.ids[i] for i in (12, 30, 31, 33, 17, 24)]
        if rows:
            self._force_strip_rows(monkeypatch, rows, pool, query_ids, labels)
        strips, stats = self._strip_rows(monkeypatch, cache, pool, 9, query_ids, labels)
        _assert_same_rank_stats(stats, reference_rank_stats(cache, ident, pool, 9, query_ids, labels))
        if rows == 2:  # a label's one query shares a strip with a neighbouring label's rows
            assert strips == [2] * 8
        else:  # the planted rows and the untied ones share one strip
            assert strips == [len(query_ids)]

    def test_ranks_equal_the_count_of_scores_at_or_above_the_positive(self):
        # ranks are pessimistic counts, (s >= own).sum(axis=1), on untied rows, rows whose positive ties inside and
        # outside its label, a tie away from the positive, NaN scores, a NaN row and a NaN positive
        rng = np.random.default_rng(4)
        s = rng.standard_normal((9, 30))
        cols = np.array([1, 4, 5, 9, 20, 29])
        own_col = cols[rng.integers(len(cols), size=9)]
        own_col[[2, 3]] = 9, 4
        s[2, 3] = s[2, 9]  # the positive ties with another label's candidate
        s[3, 5] = s[3, 4]  # and with one of its own label
        s[4, 11] = s[4, 0]
        s[5, 7] = np.nan
        s[6] = np.nan
        s[7, own_col[7]] = np.nan
        s[8, own_col[8]] = s[8].min() - 1.0  # the positive is last
        own = s[np.arange(9), own_col]
        hits, ranks = M._label_positions(s, cols, own, np.empty(9 * 36))
        assert np.array_equal(ranks, (s >= own[:, None]).sum(axis=1))
        assert ranks.dtype == np.intp and ranks[8] == 30 and len(set(ranks.tolist())) > 4
        for i in range(9):
            assert np.array_equal(hits[i], M._hit_positions(s[i], cols))
        untied = [0, 1, 8]  # a strip with no tied row
        _, ranks = M._label_positions(s[untied], cols, own[untied], np.empty(3 * 36))
        assert np.array_equal(ranks, (s[untied] >= own[untied, None]).sum(axis=1))

    def test_a_query_set_of_one_planted_row(self):
        cache, labels, pool = _planted_rank_corpus()
        ident = T.identity_transform(9)
        for i in (1, 2, 3, 4, 30, 31):
            ids = [cache.ids[i]] + ([] if i != 30 else [cache.ids[0]])  # 30's positive is not in the pool
            _assert_same_rank_stats(
                M.rank_stats(cache, ident, pool, 9, ids, labels), reference_rank_stats(cache, ident, pool, 9, ids, labels)
            )

    def test_a_nan_score_of_another_label_sorts_last(self):
        # each row's one NaN score is another label's, so its count of equal neighbours is an untied row's: only
        # the NaN check sends it to the stable argsort, which ranks the NaN last
        cache, labels, pool = _planted_rank_corpus()
        cache.views = {g: v.copy() for g, v in cache.views.items()}
        cache.views["G3"][25] = np.nan
        assert labels[cache.ids[25]] == "b"
        ident = T.identity_transform(9)
        query_ids = [cache.ids[i] for i in (0, 5, 6, 7, 8, 9)]
        stats = M.rank_stats(cache, ident, pool, 9, query_ids, labels)
        _assert_same_rank_stats(stats, reference_rank_stats(cache, ident, pool, 9, query_ids, labels))
        assert 0.0 < stats.category_map < 100.0

    @pytest.mark.parametrize("n", [2013, 20147])
    def test_pools_off_a_multiple_of_8_equal_the_padded_dense_reference(self, monkeypatch, n):
        cache, labels, query_ids, rot = _several_block_pool(n, n_queries=90)
        pool = D.build_pool(cache, "full", "G3")
        want = {k: reference_rank_stats(cache, rot, pool, k, query_ids, labels, padded=True) for k in (8, 64)}
        for rows in (None, 2, 10**9):
            with monkeypatch.context() as m:
                if rows:
                    self._force_strip_rows(m, rows, pool, query_ids, labels)
                for k in (8, 64):
                    _assert_same_rank_stats(M.rank_stats(cache, rot, pool, k, query_ids, labels), want[k])
        assert 0.0 < want[8].r_at_1 < 100.0


class TestFullPrefixInvariance:
    def test_metrics_identical_at_full_prefix_under_rotation(self, small_synth):
        cache = small_synth.cache
        d = cache.dim
        rot = T.random_orthogonal(d, 123)
        ident = T.identity_transform(d)
        ids = cache.split_ids("test")
        pool = D.build_pool(cache, "test_only", "G3")
        assert M.recall_at_1(cache, rot, pool, d, ids) == M.recall_at_1(cache, ident, pool, d, ids)
        for r in T.NEGATIVE_TYPES:
            assert M.selectivity(cache, rot, d, r, ids) == M.selectivity(cache, ident, d, r, ids)
        labels = [small_synth.assignments["object"][cache.row_index(i)] for i in ids]
        images = cache.images[cache.indices_of(ids)]
        assert M.zero_shot(images, labels, small_synth.class_rows, d, rot) == M.zero_shot(
            images, labels, small_synth.class_rows, d, ident
        )


class TestDiagnosticReport:
    def test_each_pool_is_keyed_once_and_scores_as_a_fresh_pool_per_cell(self, small_synth, monkeypatch):
        cache, contract = small_synth.cache, small_synth.contract
        labels = {row.id: row.entity for row in small_synth.iter_rows()}
        transform = T.random_orthogonal(contract.dim, 5)
        keyed = []
        distinct_rows, recall_at_1 = M._distinct_rows, M.recall_at_1

        def spy(matrix, idx):
            keyed.append(len(idx))
            return distinct_rows(matrix, idx)

        def with_a_fresh_pool(cache, transform, pool, k, query_ids):
            fresh = D.CandidatePool(mode=pool.mode, candidate_ids=pool.candidate_ids, view_level=pool.view_level)
            return recall_at_1(cache, transform, fresh, k, query_ids)

        monkeypatch.setattr(M, "_distinct_rows", spy)
        report = M.diagnostic_report(cache, transform, contract, labels=labels)
        assert keyed == [cache.n] * len(T.VIEW_LEVELS)
        keyed.clear()
        monkeypatch.setattr(M, "recall_at_1", with_a_fresh_pool)
        fresh = M.diagnostic_report(cache, transform, contract, labels=labels)
        assert len(keyed) == len(contract.prefixes) * len(T.VIEW_LEVELS)
        assert report.rank is not None
        # repr of a float is exact, so equal dumps are equal bits
        assert json.dumps(report.to_json_dict()) == json.dumps(fresh.to_json_dict())
        assert list(report.retrieval) == [(k, g) for k in contract.prefixes for g in T.VIEW_LEVELS]

    def test_a_pool_used_with_another_cache_is_keyed_again(self, small_synth):
        cache = small_synth.cache
        # the same ids over the rows in reverse: every row moves, and each query keeps its own text
        flipped = D.EmbeddingCache.from_matrices(cache.ids, cache.split_of, [m[::-1] for _, m in cache.matrices()])
        query_ids = cache.split_ids("test")
        pool = D.build_pool(cache, "full", "G1")
        ident = T.identity_transform(cache.dim)
        for c in (cache, flipped, cache):
            fresh = D.build_pool(c, "full", "G1")
            assert M.recall_at_1(c, ident, pool, 8, query_ids) == M.recall_at_1(c, ident, fresh, 8, query_ids)
            assert pool.keyed[0] is c.views["G1"]
            assert np.array_equal(pool.keyed[1], c.indices_of(pool.candidate_ids))

    def test_stair_identity_enforced(self, small_synth):
        rep = M.diagnostic_report(small_synth.cache, small_synth.oracle, small_synth.contract)
        assert rep.stair == M.stair_score(rep.ret_avg, rep.hard_avg)
        assert rep.drift <= 1e-10
        payload = rep.to_json_dict()
        assert payload["pool"]["mode"] == "full"

    def test_constructor_rejects_mismatched_stair(self, small_synth):
        rep = M.diagnostic_report(small_synth.cache, small_synth.oracle, small_synth.contract)
        with pytest.raises(GraspError):
            M.DiagnosticReport(
                retrieval=rep.retrieval,
                sel=rep.sel,
                ret_avg=rep.ret_avg,
                hard_avg=rep.hard_avg,
                stair=rep.stair + 1.0,
                leak=rep.leak,
                emergence_gaps=rep.emergence_gaps,
                emergence_mean=rep.emergence_mean,
                emergence_vs_first=rep.emergence_vs_first,
                drift=rep.drift,
                drift_raw=rep.drift_raw,
                pool_mode="full",
                pool_size=rep.pool_size,
                n_queries=rep.n_queries,
            )


class _NanRows:
    """A rotation that maps each of the float32 rows ``marked`` to NaN, wherever it meets them."""

    def __init__(self, rotation, marked):
        self.rotation, self.marked = rotation, np.asarray(marked, dtype=np.float32)

    def apply(self, rows):
        out = self.rotation.apply(rows)
        x = np.asarray(rows, dtype=np.float32)
        out[(x[:, None, :] == self.marked[None]).all(axis=2).any(axis=1)] = np.nan
        return out


def _twin_heavy_corpus(n=300, dim=16, seed=0):
    """A test-split cache whose texts come in byte-identical triples but for every fourth triple, with labels."""
    rng = np.random.default_rng(seed)
    texts = unit_rows(rng, n, dim).astype(np.float32)
    for i in range(0, n - 2, 3):
        if i % 12:
            texts[i + 1] = texts[i + 2] = texts[i]
    images = texts + 0.3 * unit_rows(rng, n, dim)
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    cache = tiny_cache(images, texts, ids=[f"c{i:03d}" for i in range(n)])
    labels = {cid: f"L{rng.integers(5)}" for cid in cache.ids}
    return cache, labels, T.InterfaceContract.default_ladder(dim)


class TestLabelledReport:
    """With labels, the rank pass on the G3 pool serves the (second-last prefix, G3) R@1 cell."""

    @staticmethod
    def _cells(cache, transform, contract, labels):
        """The rank cell of a labelled report, of an unlabelled one, and of ``recall_at_1`` on a fresh pool."""
        k = contract.prefixes[-2]
        labelled = M.diagnostic_report(cache, transform, contract, labels=labels)
        plain = M.diagnostic_report(cache, transform, contract)
        fresh = M.recall_at_1(cache, transform, D.build_pool(cache, "full", "G3"), k, cache.split_ids("test"))
        assert labelled.retrieval == plain.retrieval
        return labelled.retrieval[(k, "G3")], plain.retrieval[(k, "G3")], fresh

    @pytest.mark.parametrize("strip_rows", [None, 2])
    def test_a_twin_heavy_pool(self, monkeypatch, strip_rows):
        cache, labels, contract = _twin_heavy_corpus()
        rot = T.random_orthogonal(contract.dim, 3)
        if strip_rows:
            pool = D.build_pool(cache, "full", "G3")
            TestRankStrips._force_strip_rows(monkeypatch, strip_rows, pool, cache.split_ids("test"), labels)
        labelled, plain, fresh = self._cells(cache, rot, contract, labels)
        assert labelled == plain == fresh
        assert 0.0 < fresh < 25.0  # only the untwinned fourth of the queries can hit, and some of them do

    @pytest.mark.parametrize("strip_rows", [None, 2])
    def test_a_transform_that_puts_nan_in_some_scores(self, monkeypatch, strip_rows):
        # every score of a marked query is NaN, so it misses, though each one hits under the rotation alone
        cache, labels, contract = _twin_heavy_corpus()
        rot = T.random_orthogonal(contract.dim, 3)
        ids, k = cache.split_ids("test"), contract.prefixes[-2]
        pool = D.build_pool(cache, "full", "G3")
        marked = [q for q in ids if M.recall_at_1(cache, rot, pool, k, [q]) == 100.0][::4]
        transform = _NanRows(rot, cache.images[cache.indices_of(marked)])
        if strip_rows:
            TestRankStrips._force_strip_rows(monkeypatch, strip_rows, pool, ids, labels)
        labelled, plain, fresh = self._cells(cache, transform, contract, labels)
        assert labelled == plain == fresh
        hits = round(fresh * len(ids) / 100.0)
        assert hits > 0 and hits + len(marked) == round(M.recall_at_1(cache, rot, pool, k, ids) * len(ids) / 100.0)

    def test_a_labelled_report_makes_19_recall_calls_and_keys_each_pool_once(self, small_synth, monkeypatch):
        cache, contract = small_synth.cache, small_synth.contract
        labels = {row.id: row.entity for row in small_synth.iter_rows()}
        calls = {"recall_at_1": 0, "rank_stats": 0, "_distinct_rows": 0}
        g3_cells = []
        for name in calls:
            fn = getattr(M, name)

            def counted(*args, fn=fn, name=name):
                calls[name] += 1
                if name != "_distinct_rows" and args[2].view_level == "G3":
                    g3_cells.append((name, args[3]))
                return fn(*args)

            monkeypatch.setattr(M, name, counted)
        M.diagnostic_report(cache, small_synth.oracle, contract, labels=labels)
        assert calls == {"recall_at_1": 19, "rank_stats": 1, "_distinct_rows": 4}
        # the rank pass is the G3 view's last cell (memory: see diagnostic_report)
        k = contract.prefixes
        assert g3_cells == [("recall_at_1", j) for j in k[:-2] + k[-1:]] + [("rank_stats", k[-2])]
        calls.update(dict.fromkeys(calls, 0))
        M.diagnostic_report(cache, small_synth.oracle, contract)
        assert calls == {"recall_at_1": 20, "rank_stats": 0, "_distinct_rows": 4}

    def test_a_query_whose_positive_is_not_in_the_pool(self, small_synth):
        cache, contract = small_synth.cache, small_synth.contract
        labels = {row.id: row.entity for row in small_synth.iter_rows()}
        first = cache.split_ids("train")[0]
        for with_labels in (labels, None, {}):
            with pytest.raises(GraspError) as e:
                M.diagnostic_report(cache, small_synth.oracle, contract, "test_only", "train", with_labels)
            assert e.value.code == "POSITIVE_NOT_IN_POOL"
            assert e.value.message == f"query {first!r} has no positive in the pool"

    def test_failing_reports_fail_with_the_code_of_the_first_failing_step(self, small_synth):
        # the rank pass runs inside the R@1 grid, but its error is raised after the steps that came before rank
        # statistics: the staircase, the emergence gaps and the drift
        cache, oracle = small_synth.cache, small_synth.oracle
        labels = {row.id: row.entity for row in small_synth.iter_rows()}
        no_candidate_label = {i: v for i, v in labels.items() if i != cache.ids[0]}
        every_kappa_first = T.InterfaceContract(
            prefixes=(8, 32), view_of={8: "G0", 32: "G3"}, kappa=dict.fromkeys(T.NEGATIVE_TYPES, 8)
        )
        one_prefix = T.InterfaceContract(prefixes=(32,), view_of={32: "G3"}, kappa=dict.fromkeys(T.NEGATIVE_TYPES, 32))
        cases = [
            (small_synth.contract, no_candidate_label, "MISSING_LABELS", f"candidate {cache.ids[0]!r} has no label"),
            (every_kappa_first, no_candidate_label, "NO_EARLIER_PREFIX", None),
            (one_prefix, no_candidate_label, "MISSING_CELL", None),
            (one_prefix, labels, "MISSING_CELL", None),
        ]
        for contract, with_labels, code, message in cases:
            with pytest.raises(GraspError) as e:
                M.diagnostic_report(cache, oracle, contract, labels=with_labels)
            assert e.value.code == code
            assert message is None or e.value.message == message
        with pytest.raises(GraspError) as e:
            M.diagnostic_report(cache, oracle, small_synth.contract, query_split="none", labels=no_candidate_label)
        assert e.value.code == "EMPTY_POOL"
