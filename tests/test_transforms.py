"""Transform families: builders, prefix scores, counts, energy, file formats."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from grasp_vl.errors import GraspError
from grasp_vl import metrics as M
from grasp_vl import objective as O
from grasp_vl import trainer as TR
from grasp_vl import transforms as T

from conftest import unit_rows


class TestInterfaceContract:
    def test_default_ladder_512(self):
        c = T.InterfaceContract.default_ladder(512)
        assert c.prefixes == (32, 64, 128, 256, 512)
        assert c.view_of == {32: "G0", 64: "G1", 128: "G2", 256: "G3", 512: "G3"}
        assert c.kappa == {
            "object": 32,
            "attribute": 64,
            "relation": 128,
            "action": 128,
            "order": 128,
            "full": 256,
        }

    def test_ladder_requires_divisibility(self):
        with pytest.raises(GraspError) as e:
            T.InterfaceContract.default_ladder(100)
        assert e.value.code == "INVALID_CONTRACT"

    def test_rank_and_invariance_prefixes_partition(self):
        c = T.InterfaceContract.default_ladder(64)
        for r in T.NEGATIVE_TYPES:
            ranked = set(c.rank_prefixes(r))
            inv = set(c.invariance_prefixes(r))
            assert ranked | inv == set(c.prefixes)
            assert not ranked & inv

    def test_non_increasing_prefixes_rejected(self):
        with pytest.raises(GraspError):
            T.InterfaceContract(
                prefixes=(4, 4, 8),
                view_of={4: "G0", 8: "G3"},
                kappa={r: 4 for r in T.NEGATIVE_TYPES},
            )

    def test_json_round_trip(self):
        c = T.InterfaceContract.default_ladder(64)
        assert T.InterfaceContract.from_json_dict(c.to_json_dict()) == c


class TestCayley:
    def test_zero_parameter_gives_identity(self):
        for d in (2, 5, 16):
            r = T.cayley_build(np.zeros((d, d)))
            assert np.allclose(r.matrix, np.eye(d), atol=1e-14)

    def test_two_by_two_closed_form(self):
        # oracle: (I+A) R = I-A with A = [[0,1],[-1,0]] solves to a quarter turn
        r = T.cayley_build(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(r.matrix, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose((np.eye(2) + a) @ r.matrix, np.eye(2) - a, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_orthogonality(self, dim):
        for seed in range(5):
            b = np.random.default_rng(seed).standard_normal((dim, dim))
            assert T.cayley_build(b).orthogonality_error() <= 1e-10

    def test_involution_consistency(self):
        rng = np.random.default_rng(0)
        r = T.cayley_build(rng.standard_normal((16, 16)))
        x = unit_rows(rng, 10, 16)
        back = r.apply(x) @ r.matrix  # apply R then R^T
        assert np.abs(back - x).max() <= 1e-9

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((6, 6))
        g = rng.standard_normal((6, 6))
        _, vjp = T.cayley_build_with_vjp(b)
        db = vjp(g)
        eps = 1e-6
        num = np.zeros_like(b)
        for i in range(6):
            for j in range(6):
                bp, bm = b.copy(), b.copy()
                bp[i, j] += eps
                bm[i, j] -= eps
                num[i, j] = ((T.cayley_build(bp).matrix - T.cayley_build(bm).matrix) * g).sum() / (2 * eps)
        assert np.abs(num - db).max() <= 1e-7

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(GraspError) as e:
            T.cayley_build(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        assert e.value.code == "NONFINITE_PARAMS"


class TestApply:
    def test_identity_returns_input(self):
        x = unit_rows(np.random.default_rng(0), 7, 12)
        assert np.array_equal(T.identity_transform(12).apply(x), x)

    def test_orthogonal_preserves_pairwise_cosines(self):
        rng = np.random.default_rng(3)
        r = T.cayley_build(rng.standard_normal((24, 24)))
        x = unit_rows(rng, 30, 24)
        z = r.apply(x)
        assert np.abs(z @ z.T - x @ x.T).max() <= 1e-6

    def test_quarter_turn_moves_basis_vector(self):
        r = T.cayley_build(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(r.apply(np.array([[1.0, 0.0]])), [[0.0, 1.0]], atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(GraspError) as e:
            T.identity_transform(4).apply(np.zeros((3, 5)))
        assert e.value.code == "DIM_MISMATCH"


class TestStoredMatrix:
    def test_matrix_is_a_read_only_copy(self):
        given = np.random.default_rng(0).standard_normal((5, 5))
        t = T.LinearTransform(given, "linear", orthogonal=False)
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 1.0
        assert given.flags.writeable and not np.shares_memory(given, t.matrix)
        assert np.array_equal(t.matrix, given)

    def _low_rank_map(self):
        model = T.make_model(T.TransformSpec("low_rank", 16, rank=3))
        params = model.init_params(np.random.default_rng(2))
        params["u"] *= 30.0  # a residual large enough to show in R^T R
        return model.eval_transform(params)

    @pytest.mark.parametrize(
        "build",
        [
            lambda self: T.cayley_build(np.random.default_rng(0).standard_normal((24, 24))),
            lambda self: T.fit_pca(np.random.default_rng(1).standard_normal((100, 12))),
            _low_rank_map,
        ],
        ids=["cayley", "pca", "low_rank"],
    )
    def test_orthogonality_error_is_that_of_the_stored_matrix(self, build):
        t = build(self)
        m = t.matrix
        assert t.orthogonality_error() == float(np.abs(m.T @ m - np.eye(t.dim)).max())

    def test_low_rank_map_is_not_orthogonal(self):
        t = self._low_rank_map()
        assert not t.orthogonal and t.orthogonality_error() > 1e-3


def prefix_score(z_img, z_txt, k, tau):
    """Temperature-scaled cosine of the independently renormalized k-prefixes of two vectors."""
    u = T.prefix_normalize(np.atleast_2d(z_img), k)[0]
    v = T.prefix_normalize(np.atleast_2d(z_txt), k)[0]
    return float(u @ v / tau)


class TestPrefixScore:
    def test_equal_vectors_score_one(self):
        v = unit_rows(np.random.default_rng(0), 1, 8)[0]
        for k in (1, 3, 8):
            assert prefix_score(v, v, k, tau=1.0) == pytest.approx(1.0)

    def test_orthogonal_prefixes_score_zero(self):
        a = np.zeros(6)
        b = np.zeros(6)
        a[0] = 1.0
        b[1] = 1.0
        assert prefix_score(a, b, 4, tau=1.0) == pytest.approx(0.0)

    def test_temperature_scaling(self):
        # cosine 0.5 at tau 0.07 is 0.5 / 0.07 by scalar division
        a = np.array([1.0, 0.0, 0.3])
        b = np.array([0.5, np.sqrt(1 - 0.25), 0.9])
        got = prefix_score(a, b, 2, tau=0.07)
        assert got == pytest.approx(0.5 / 0.07, abs=1e-12)
        assert got == pytest.approx(7.142857142857143, abs=1e-9)

    def test_zero_prefix_rejected(self):
        v = np.array([0.0, 0.0, 1.0])
        with pytest.raises(GraspError) as e:
            prefix_score(v, v, 2, tau=1.0)
        assert e.value.code == "ZERO_PREFIX"

    def test_full_prefix_invariance_under_rotation(self):
        rng = np.random.default_rng(5)
        r = T.cayley_build(rng.standard_normal((16, 16)))
        a, b = unit_rows(rng, 2, 16)
        before = prefix_score(a, b, 16, tau=0.3)
        after = prefix_score(r.apply(a[None])[0], r.apply(b[None])[0], 16, tau=0.3)
        assert abs(after - before) <= 1e-8


class TestPca:
    def test_axis_aligned_data_keeps_axes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((400, 3)) * np.sqrt([3.0, 2.0, 1.0])
        p = T.fit_pca(x)
        # eigenvectors are the axes; ordering by variance keeps them in place
        assert np.allclose(np.abs(p.matrix), np.eye(3), atol=0.15)

    def test_diagonal_direction_recovered(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(500)
        x = np.stack([t, t], axis=1) + 0.01 * rng.standard_normal((500, 2))
        p = T.fit_pca(x)
        expect = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(p.matrix[0], expect, atol=1e-2)  # sign rule makes it positive

    def test_captured_variance_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6))
        p = T.fit_pca(x)
        centered = x - x.mean(axis=0)
        evals = np.sort(np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1)))[::-1]
        proj = centered @ p.matrix.T  # the training rows along the fitted principal axes
        for k in (1, 3, 6):
            captured = float(proj[:, :k].var(axis=0, ddof=1).sum())
            assert captured == pytest.approx(evals[:k].sum(), rel=1e-10)

    def test_degenerate_covariance(self):
        with pytest.raises(GraspError) as e:
            T.fit_pca(np.ones((10, 4)))
        assert e.value.code == "DEGENERATE_COVARIANCE"

    def test_pca_is_orthogonal(self):
        x = np.random.default_rng(3).standard_normal((100, 5))
        assert T.fit_pca(x).orthogonality_error() <= 1e-10


class TestRandomOrthogonal:
    def test_orthogonality(self):
        assert T.random_orthogonal(33, 0).orthogonality_error() <= 1e-10

    def test_determinism(self):
        assert np.array_equal(T.random_orthogonal(16, 7).matrix, T.random_orthogonal(16, 7).matrix)

    def test_determinant_is_unit(self):
        for seed in range(4):
            det = np.linalg.det(T.random_orthogonal(9, seed).matrix)
            assert min(abs(det - 1.0), abs(det + 1.0)) <= 1e-8


class TestButterfly:
    def test_single_givens_is_plane_rotation(self):
        theta = 0.73
        r = T.butterfly_build(np.array([[[theta]]]))
        expect = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        assert np.allclose(r.matrix, expect, atol=1e-14)

    def test_orthogonality_any_angles(self):
        rng = np.random.default_rng(0)
        angles = rng.standard_normal(T.butterfly_angle_shape(64, 3))
        assert T.butterfly_build(angles).orthogonality_error() <= 1e-10

    def test_apply_matches_materialized_matrix(self):
        rng = np.random.default_rng(1)
        angles = rng.standard_normal(T.butterfly_angle_shape(16, 2))
        x = unit_rows(rng, 5, 16)
        assert np.allclose(T.butterfly_apply(angles, x), T.butterfly_build(angles).apply(x), atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(GraspError) as e:
            T.butterfly_angle_shape(12, 1)
        assert e.value.code == "NOT_POWER_OF_TWO"

    def test_angle_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        angles = 0.4 * rng.standard_normal(T.butterfly_angle_shape(8, 2))
        x = unit_rows(rng, 3, 8)
        g = rng.standard_normal((3, 8))
        z, ctx = T.butterfly_apply_with_ctx(angles, x)
        da = T.butterfly_vjp(angles, ctx, g)
        eps = 1e-6
        for idx in [(0, 0, 0), (1, 2, 3), (0, 1, 2)]:
            ap, am = angles.copy(), angles.copy()
            ap[idx] += eps
            am[idx] -= eps
            num = ((T.butterfly_apply(ap, x) - T.butterfly_apply(am, x)) * g).sum() / (2 * eps)
            assert abs(num - da[idx]) <= 1e-8

    def test_step_state_materializes_the_built_matrix(self):
        model = T.make_model(T.TransformSpec("butterfly", 16, stacks=3))
        params = {"angles": 0.4 * np.random.default_rng(3).standard_normal(T.butterfly_angle_shape(16, 3))}
        state = model.begin_step(params)
        assert np.abs(state.matrix - T.butterfly_build(params["angles"]).matrix).max() <= 1e-12

    def test_objective_gradient_matches_per_row_set_reference(self, tiny_contract, tiny_batch, tiny_loss_config):
        class RowSetButterflyState:
            """Reference step state: every row set runs through all Givens stages."""

            orthogonal = True
            matrix = None

            def __init__(self, params):
                self.angles = params["angles"]
                self.d_angles = np.zeros_like(self.angles)

            def apply(self, rows):
                return T.butterfly_apply_with_ctx(self.angles, rows)

            def vjp(self, ctx, d_rows):
                self.d_angles += T.butterfly_vjp(self.angles, ctx, d_rows)

            def finish(self):
                return {"angles": self.d_angles}

        class RowSetButterflyModel:
            begin_step = RowSetButterflyState

        model = T.make_model(T.TransformSpec("butterfly", 8, stacks=2))
        params = {"angles": 0.4 * np.random.default_rng(4).standard_normal(T.butterfly_angle_shape(8, 2))}
        log_temps = np.log(0.07) * np.ones(4)
        args = (params, log_temps, tiny_batch, tiny_loss_config, tiny_contract)
        total, grads, _ = O.total_loss_and_gradient(model, *args)
        ref_total, ref_grads, _ = O.total_loss_and_gradient(RowSetButterflyModel(), *args)
        ref = ref_grads.params["angles"]
        assert np.abs(grads.params["angles"] - ref).max() <= 1e-12 * np.abs(ref).max()
        assert total == pytest.approx(ref_total, rel=1e-12)
        assert np.allclose(grads.log_temps, ref_grads.log_temps, rtol=1e-12, atol=0.0)


class TestParamCount:
    @pytest.mark.parametrize(
        "variant,kwargs,expected",
        [
            ("dense_cayley", {}, 262_149),
            ("butterfly", {"stacks": 8}, 18_437),
            ("butterfly", {"stacks": 4}, 9_221),
            ("permutation", {}, 262_149),
            ("signed_permutation", {}, 262_661),
            ("low_rank", {"rank": 32}, 294_918),
            ("mlp", {}, 1_052_165),
        ],
    )
    def test_published_counts_at_512(self, variant, kwargs, expected):
        spec = T.TransformSpec(variant, 512, **kwargs)
        assert T.param_count(spec, 5) == expected

    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("dense_cayley", {}),
            ("butterfly", {"stacks": 3}),
            ("permutation", {}),
            ("signed_permutation", {}),
            ("low_rank", {"rank": 4}),
            ("mlp", {}),
        ],
    )
    def test_count_matches_container_enumeration(self, variant, kwargs):
        spec = T.TransformSpec(variant, 16, **kwargs)
        model = T.make_model(spec)
        params = model.init_params(np.random.default_rng(0))
        scalars = sum(v.size for v in params.values())
        assert T.param_count(spec, 5) == scalars + 5
        assert T.param_shapes(spec) == {name: p.shape for name, p in params.items()}

    def test_unknown_variant(self):
        with pytest.raises(GraspError) as e:
            T.param_count(T.TransformSpec("fourier", 16), 5)
        assert e.value.code == "UNKNOWN_VARIANT"


class TestPermutationEnergy:
    def test_permutation_matrix_scores_hundred(self):
        rng = np.random.default_rng(0)
        for d in (3, 8):
            perm = rng.permutation(d)
            m = np.zeros((d, d))
            m[np.arange(d), perm] = 1.0
            assert T.permutation_energy(m) == pytest.approx(100.0, abs=1e-12)

    def test_identity_scores_hundred(self):
        assert T.permutation_energy(np.eye(6)) == pytest.approx(100.0, abs=1e-12)

    def test_quarter_of_turn(self):
        # both assignments of a 45-degree rotation capture cos^2 + cos^2 = 1 of ||R||_F^2 = 2
        c = np.cos(np.pi / 4)
        m = np.array([[c, -c], [c, c]])
        assert T.permutation_energy(m) == pytest.approx(50.0, abs=1e-9)

    def test_invariant_under_row_and_column_permutations(self):
        rng = np.random.default_rng(4)
        r = T.random_orthogonal(10, 4).matrix
        base = T.permutation_energy(r)
        rowp = r[rng.permutation(10)]
        colp = r[:, rng.permutation(10)]
        assert T.permutation_energy(rowp) == pytest.approx(base, abs=1e-9)
        assert T.permutation_energy(colp) == pytest.approx(base, abs=1e-9)


class TestHardening:
    def test_harden_recovers_clean_permutation(self):
        rng = np.random.default_rng(0)
        d = 6
        perm = rng.permutation(d)
        p = np.zeros((d, d))
        p[np.arange(d), perm] = 1.0
        soft = 0.9 * p + 0.1 / d
        hard = T.harden_doubly_stochastic(soft)
        assert np.array_equal(hard, p)


class TestEvalTransforms:
    @pytest.mark.parametrize("variant,kwargs", [("permutation", {}), ("signed_permutation", {})])
    def test_hardened_permutations_are_orthogonal(self, variant, kwargs):
        spec = T.TransformSpec(variant, 8, **kwargs)
        model = T.make_model(spec)
        params = model.init_params(np.random.default_rng(1))
        t = model.eval_transform(params)
        assert t.orthogonal
        assert t.orthogonality_error() == 0.0

    def test_mlp_eval_applies_network(self):
        spec = T.TransformSpec("mlp", 6)
        model = T.make_model(spec)
        params = model.init_params(np.random.default_rng(2))
        t = model.eval_transform(params)
        x = unit_rows(np.random.default_rng(3), 4, 6)
        z, _ = model.begin_step(params).apply(x)
        assert np.allclose(t.apply(x), z, atol=1e-12)

    def test_mlp_step_forward_is_the_eval_forward_bit_for_bit(self):
        model = T.make_model(T.TransformSpec("mlp", 6))
        rng = np.random.default_rng(4)
        params = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in model.init_params(rng).items()}
        x = unit_rows(rng, 5, 6)
        z, (rows, h) = model.begin_step(params).apply(x)
        assert np.array_equal(model.eval_transform(params).apply(x), z)
        assert np.array_equal(rows, x)
        assert np.array_equal(h, np.tanh(x @ params["w1"].T + params["b1"]))


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        spec = T.TransformSpec("dense_cayley", 16)
        model = T.make_model(spec)
        params = model.init_params(np.random.default_rng(0))
        contract = T.InterfaceContract.default_ladder(16)
        log_temps = np.log(0.07) * np.ones(5)
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, T.Checkpoint(spec, contract, log_temps, params, meta={"epoch": 3}))
        loaded = T.load_checkpoint(path)
        assert loaded.spec == spec
        assert loaded.contract == contract
        assert np.array_equal(loaded.log_temps, log_temps)
        assert np.array_equal(loaded.params["b"], params["b"])
        assert loaded.meta["epoch"] == 3

    def test_truncated_blob_rejected(self, tmp_path):
        spec = T.TransformSpec("dense_cayley", 8)
        model = T.make_model(spec)
        params = model.init_params(np.random.default_rng(0))
        contract = T.InterfaceContract.default_ladder(16)
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, T.Checkpoint(spec, contract, np.zeros(5), params, meta={}))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(GraspError) as e:
            T.load_checkpoint(path)
        assert e.value.code == "SHAPE_MISMATCH"

    def test_non_finite_matrix_claimed_orthogonal_rejected(self, tmp_path):
        path = tmp_path / "nan.transform"
        T.save_matrix_transform(path, T.random_orthogonal(4, 0))
        header = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(header + b"\n" + np.full((4, 4), np.nan).astype("<f8").tobytes())
        with pytest.raises(GraspError) as e:
            T.load_matrix_transform(path)
        assert e.value.code == "ORTHOGONALITY_VIOLATION"

    def test_matrix_transform_round_trip(self, tmp_path):
        t = T.random_orthogonal(12, 9)
        path = tmp_path / "fixed.transform"
        T.save_matrix_transform(path, t)
        loaded = T.load_matrix_transform(path)
        assert loaded.provenance == "random"
        assert loaded.orthogonal
        assert np.array_equal(loaded.matrix, t.matrix)


@pytest.fixture(scope="module")
def array_records(small_synth):
    """One instance of each record type that holds arrays."""
    spec = T.TransformSpec("mlp", 16)
    params = T.make_model(spec).init_params(np.random.default_rng(0))
    return {
        "LinearTransform": T.identity_transform(3),
        "MlpTransform": T.make_model(spec).eval_transform(params),
        "Checkpoint": T.Checkpoint(spec, T.InterfaceContract.default_ladder(16), np.zeros(5), params, {}),
        "CheckpointCandidate": TR.CheckpointCandidate(1, 50.0, 0.0, params, np.zeros(5)),
        "SelTable": M.SelTable((4, 8), ("object", "full"), np.zeros((2, 2))),
        "DiagnosticReport": M.diagnostic_report(small_synth.cache, small_synth.oracle, small_synth.contract),
        "Batch": O.Batch.from_cache(small_synth.cache, np.arange(4)),
        "Grads": O.Grads(params, np.zeros(5)),
        "EmbeddingCache": small_synth.cache,
        "SyntheticResult": small_synth,
    }


class TestArrayRecordEquality:
    """A record holding arrays compares by identity: ``==`` gives a bool instead of raising."""

    @pytest.mark.parametrize(
        "name",
        [
            "LinearTransform",
            "MlpTransform",
            "Checkpoint",
            "CheckpointCandidate",
            "SelTable",
            "DiagnosticReport",
            "Batch",
            "Grads",
            "EmbeddingCache",
            "SyntheticResult",
        ],
    )
    def test_equality_is_a_bool(self, array_records, name):
        x = array_records[name]
        assert x == x
        assert isinstance(x == copy.deepcopy(x), bool)

    def test_linear_transform_hashes(self):
        x = T.identity_transform(3)
        assert hash(x) == hash(x)
