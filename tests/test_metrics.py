"""Metric formulas against brute-force oracles and published table cells."""

from __future__ import annotations

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

    def test_all_zero_inputs(self):
        contract = T.InterfaceContract.default_ladder(512)
        sel = M.SelTable(prefixes=contract.prefixes, types=T.NEGATIVE_TYPES, values=np.zeros((5, 6)))
        ret = {k: 0.0 for k in contract.prefixes if k != 512}
        assert M.staircase(ret, sel, contract) == (0.0, 0.0, 0.0)

    def test_missing_cell(self):
        contract = T.InterfaceContract.default_ladder(512)
        with pytest.raises(GraspError) as e:
            M.retrieval_average({32: 1.0}, contract)
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


def reference_rank_stats(cache, transform, pool, k, query_ids, labels):
    cand_pos = {cid: j for j, cid in enumerate(pool.candidate_ids)}
    q_idx = cache.indices_of(query_ids)
    c_idx = cache.indices_of(pool.candidate_ids)
    s = _dense_scores(transform, cache.images[q_idx], cache.views[pool.view_level][c_idx], k)
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
        blocks = _copies(M._score_tiles(small_synth.oracle, q, c, 8, full_width=True))
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
            tiles = _copies(M._score_tiles(small_synth.oracle, q, c, k))
            assert [(r0, c0) for r0, c0, _ in tiles] == [(r0, c0) for r0, _ in row_spans for c0, _ in col_spans]
            assert all(s.shape[0] > 1 and s.shape[1] > 1 for _, _, s in tiles)
            dense = _dense_scores(small_synth.oracle, q, c, k)
            assert np.array_equal(_assemble(tiles, dense.shape), dense)

    def test_one_row_query_set_and_one_candidate_pool_are_one_tile(self, small_synth, monkeypatch):
        cache = small_synth.cache
        q = cache.images[cache.indices_of(cache.split_ids("test"))]
        c = cache.views["G2"]
        _force_tiles(monkeypatch, 2, 16)
        _force_block_rows(monkeypatch, 2, 1)
        for qr, cr in ((q[:1], c), (q, c[:1]), (q[:1], c[:1])):
            for full_width in (False, True):
                tiles = _copies(M._score_tiles(small_synth.oracle, qr, cr, 8, full_width=full_width))
                assert [(r0, c0, s.shape) for r0, c0, s in tiles] == [(0, 0, (len(qr), len(cr)))]
                assert np.array_equal(tiles[0][2], _dense_scores(small_synth.oracle, qr, cr, 8))

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
        for full_width in (False, True):
            tiles = _copies(M._score_tiles(rot, q, c, k, full_width=full_width))
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
