"""Transform families: builders, prefix scores, counts, energy, file formats."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

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

    def test_zero_prefix_rejected(self):
        with pytest.raises(GraspError) as e:
            T.InterfaceContract(prefixes=(0, 4), view_of={0: "G0", 4: "G3"}, kappa={r: 4 for r in T.NEGATIVE_TYPES})
        assert e.value.code == "INVALID_CONTRACT"

    def test_smallest_transform_specs_are_valid(self):
        assert T.TransformSpec("dense_cayley", 1).dim == 1
        assert T.TransformSpec("butterfly", 8, stacks=0).stacks == 0
        assert T.TransformSpec("low_rank", 8, rank=0).rank == 0


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

    def test_orthogonality_gate_admits_an_error_of_exactly_1e_8(self):
        # R^T R - I = [[1e-16, e], [e, 0]], and 1 + 1e-16 rounds to 1: the error is e itself
        t = T.LinearTransform(np.array([[1.0, 0.0], [1e-8, 1.0]]), "custom", orthogonal=True)
        assert t.orthogonality_error() == 1e-8
        with pytest.raises(GraspError) as e:
            T.LinearTransform(np.array([[1.0, 0.0], [np.nextafter(1e-8, 1), 1.0]]), "custom", orthogonal=True)
        assert e.value.code == "ORTHOGONALITY_VIOLATION"

    @pytest.mark.parametrize(
        "field,value", [("orthogonal", "false"), ("orthogonal", 0), ("provenance", ["x"])], ids=["str", "int", "list"]
    )
    def test_header_of_the_wrong_type_is_malformed(self, tmp_path, field, value):
        path = tmp_path / "m.transform"
        T.save_matrix_transform(path, T.LinearTransform(np.diag([1.0, 2.0]), "custom", orthogonal=False))
        header, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps({**json.loads(header), field: value}).encode() + b"\n" + blob)
        with pytest.raises(GraspError) as e:
            T.load_matrix_transform(path)
        assert e.value.code == "MALFORMED"


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

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_normalized_into_out_equals_the_returned_rows_bit_for_bit(self, k):
        rows = np.random.default_rng(8).standard_normal((37, 16))
        want = T.prefix_normalize(rows, k)
        # the norms as np.linalg.norm takes them
        assert want.tobytes() == (rows[:, :k] / np.linalg.norm(rows[:, :k], axis=-1, keepdims=True)).tobytes()
        side = np.full((k, 40), np.nan)
        got = T.prefix_normalize(rows, k, out=side[:, :37].T)
        assert np.shares_memory(got, side)
        assert np.ascontiguousarray(side[:, :37].T).tobytes() == want.tobytes()
        assert np.isnan(side[:, 37:]).all()

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

    def test_each_component_has_a_positive_largest_coordinate(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 12)) @ rng.standard_normal((12, 12))
        m = T.fit_pca(x).matrix
        assert (m[np.arange(12), np.abs(m).argmax(axis=1)] > 0.0).all()
        # the eigensolver's own signs leave some of those coordinates negative: the sign rule is what flips them
        centered = x - x.mean(axis=0)
        raw = np.linalg.eigh(centered.T @ centered / (len(x) - 1))[1].T
        assert (raw[np.arange(12), np.abs(raw).argmax(axis=1)] < 0.0).any()


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

            def apply(self, rows, out):
                out[...], ctx = T.butterfly_apply_with_ctx(self.angles, rows)
                return out, ctx

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


ORACLE = settings(max_examples=150, deadline=None, database=None, derandomize=True)


class TestSolveAssignment:
    """The numpy solver against scipy's ``linear_sum_assignment``, the test-only oracle."""

    @ORACLE
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.sampled_from(["gaussian", "squared_rotation", "sinkhorn"]))
    def test_float_costs_get_scipys_assignment(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            cost = rng.standard_normal((n, n))
        elif kind == "squared_rotation":
            cost = -T.random_orthogonal(n, rng).matrix ** 2
        else:  # near-uniform, as a permutation baseline is hardened early in training
            cost = -T._sinkhorn(1e-2 * rng.standard_normal((n, n)))[0]
        assert np.array_equal(T._solve_assignment(cost), linear_sum_assignment(cost)[1])

    @ORACLE
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_tied_integer_costs_reach_scipys_optimum_the_same_way_each_call(self, n, seed, levels):
        cost = np.random.default_rng(seed).integers(0, levels, (n, n)).astype(np.float64)
        cols = T._solve_assignment(cost)
        assert np.array_equal(np.sort(cols), np.arange(n))
        rows, ref = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == cost[rows, ref].sum()
        assert np.array_equal(T._solve_assignment(cost), cols)

    def test_all_tied_costs_take_the_lowest_index_column(self):
        assert np.array_equal(T._solve_assignment(np.zeros((5, 5))), np.arange(5))
        assert np.array_equal(T.harden_doubly_stochastic(np.full((4, 4), 0.25)), np.eye(4))

    @pytest.mark.parametrize("solve", [T._solve_assignment, T.harden_doubly_stochastic, T.permutation_energy])
    @pytest.mark.parametrize(
        "cost,code",
        [
            (np.ones((2, 3)), "DIM_MISMATCH"),
            (np.ones(3), "DIM_MISMATCH"),
            (np.ones((2, 2, 2)), "DIM_MISMATCH"),
            (np.array([[0.0, np.nan], [1.0, 0.0]]), "NONFINITE_COST"),
            (np.array([[0.0, np.inf], [1.0, 0.0]]), "NONFINITE_COST"),
            (np.array([[0.0, -np.inf], [1.0, 0.0]]), "NONFINITE_COST"),
        ],
    )
    def test_bad_cost_is_a_grasp_error(self, solve, cost, code):
        with pytest.raises(GraspError) as e:
            solve(cost)
        assert e.value.code == code

    def test_energy_of_a_zero_matrix_is_a_grasp_error(self):
        with pytest.raises(GraspError) as e:
            T.permutation_energy(np.zeros((3, 3)))
        assert e.value.code == "ZERO_MATRIX"

    @pytest.mark.parametrize("entry", [1e154, 1e200])
    def test_energy_of_a_finite_matrix_whose_squared_norm_overflows_is_a_grasp_error(self, entry):
        # 1e154 squares to a finite 1e308 whose sum overflows; 1e200 already overflows when squared
        with pytest.raises(GraspError) as e:
            T.permutation_energy(np.full((3, 3), entry))
        assert e.value.code == "ZERO_MATRIX"

    def test_energy_of_a_matrix_whose_squared_norm_is_just_finite(self):
        # squares of 1.6e307 sum to 1.44e308; 100 times the best assignment's 4.8e307 would overflow
        assert T.permutation_energy(np.full((3, 3), 4e153)) == pytest.approx(100.0 / 3.0, abs=1e-12)


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

    def test_sign_logit_of_zero_hardens_to_plus_one(self):
        model = T.make_model(T.TransformSpec("signed_permutation", 3))
        params = model.init_params(np.random.default_rng(0))
        params["sign_logits"] = np.array([0.0, -0.5, 0.5])
        t = model.eval_transform(params)
        assert t.matrix.sum(axis=0).tolist() == [1.0, -1.0, 1.0]


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


def _reference_draws(variant: str, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Each variant's initial parameters written out by hand, at dim 16, stacks 2 and rank 4, in draw order."""
    d, h = 16, 32
    if variant == "dense_cayley":
        return {"b": 1e-3 * rng.standard_normal((d, d))}
    if variant == "butterfly":
        return {"angles": 1e-3 * rng.standard_normal((2, 4, d // 2))}
    if variant == "permutation":
        return {"logits": 1e-2 * rng.standard_normal((d, d))}
    if variant == "signed_permutation":
        return {"logits": 1e-2 * rng.standard_normal((d, d)), "sign_logits": 1.0 + 0.1 * rng.standard_normal(d)}
    if variant == "low_rank":
        return {
            "b": 1e-3 * rng.standard_normal((d, d)),
            "u": 1e-2 * rng.standard_normal((d, 4)),
            "v": 1e-2 * rng.standard_normal((d, 4)),
            "gate": np.array(1.0),
        }
    return {
        "w1": rng.standard_normal((h, d)) * np.sqrt(2.0 / (d + h)),
        "b1": np.zeros(h),
        "scale": np.ones(h),
        "shift": np.zeros(h),
        "w2": rng.standard_normal((d, h)) * np.sqrt(2.0 / (d + h)),
        "b2": np.zeros(d),
    }


# provenance and orthogonality of each variant's evaluated map
_EVALUATED_AS = {
    "dense_cayley": ("cayley", True),
    "butterfly": ("butterfly", True),
    "permutation": ("permutation", True),
    "signed_permutation": ("signed_permutation", True),
    "low_rank": ("linear", False),
    "mlp": ("mlp", False),
}


class TestVariantTable:
    """Each variant's parameters and initial draws come from one table, and a linear variant's evaluated map from
    the builder its training step uses."""

    @staticmethod
    def _model(variant):
        return T.make_model(T.TransformSpec(variant, 16, stacks=2, rank=4))

    @pytest.mark.parametrize("variant", sorted(_EVALUATED_AS))
    def test_initial_draws_equal_the_hand_written_ones_bit_for_bit(self, variant):
        params = self._model(variant).init_params(np.random.default_rng(0))
        reference = _reference_draws(variant, np.random.default_rng(0))
        assert list(params) == list(reference)
        for name, value in reference.items():
            assert params[name].dtype == np.float64 and params[name].shape == value.shape
            assert params[name].tobytes() == value.tobytes(), name
        if variant == "low_rank":
            assert params["gate"].ndim == 0

    @pytest.mark.parametrize("variant", ["dense_cayley", "butterfly", "low_rank"])
    def test_evaluated_matrix_is_the_step_matrix(self, variant):
        model = self._model(variant)
        rng = np.random.default_rng(5)
        params = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in model.init_params(rng).items()}
        assert np.array_equal(model.eval_transform(params).matrix, model.begin_step(params).matrix)

    @pytest.mark.parametrize("variant", ["dense_cayley", "low_rank"])
    def test_cayley_step_matrix_is_the_solve_bit_for_bit(self, variant):
        # the step's matrix is the bare solve, as the LinearTransform copy of it read before, and low-rank adds its
        # gated residual to that matrix
        model = self._model(variant)
        rng = np.random.default_rng(7)
        params = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in model.init_params(rng).items()}
        b = params["b"]
        a, eye = b - b.T, np.eye(16)
        want = T.LinearTransform(np.linalg.solve(eye + a, eye - a), "cayley", orthogonal=True).matrix
        if variant == "low_rank":
            want = want + float(params["gate"]) * params["u"] @ params["v"].T
        got, _ = model.matrix(params)
        assert type(got) is np.ndarray and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert T.cayley_build(b).matrix.tobytes() == T.cayley_build_with_vjp(b)[0].tobytes()

    def test_evaluated_permutation_hardens_the_step_matrix(self):
        model = self._model("permutation")
        rng = np.random.default_rng(6)
        params = {"logits": rng.standard_normal((16, 16))}
        hard = T.harden_doubly_stochastic(model.begin_step(params).matrix)
        assert np.array_equal(model.eval_transform(params).matrix, hard)

    @pytest.mark.parametrize("variant", sorted(_EVALUATED_AS))
    def test_provenance_and_orthogonality(self, variant):
        model = self._model(variant)
        t = model.eval_transform(model.init_params(np.random.default_rng(0)))
        assert (t.provenance, t.orthogonal) == _EVALUATED_AS[variant]

    @pytest.mark.parametrize("variant", sorted(_EVALUATED_AS))
    def test_flat_layout_round_trips(self, variant):
        model = self._model(variant)
        params = model.init_params(np.random.default_rng(0))
        log_temps = np.array([-2.5, -2.0, -1.5, -1.0, -0.5])
        back, back_temps = O.unflatten_state(model, O.flatten_state(model, params, log_temps))
        assert list(back) == list(params)
        for name, value in params.items():
            assert back[name].shape == value.shape and np.array_equal(back[name], value)
        assert np.array_equal(back_temps, log_temps)


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

    @pytest.mark.parametrize("variant", sorted(_EVALUATED_AS))
    def test_every_variant_round_trips(self, tmp_path, variant):
        spec = T.TransformSpec(variant, 16, stacks=2, rank=1)
        params = T.make_model(spec).init_params(np.random.default_rng(0))
        log_temps = np.array([-2.6, -2.0, -1.5, -1.0, -0.5])
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, T.Checkpoint(spec, T.InterfaceContract.default_ladder(16), log_temps, params, {}))
        loaded = T.load_checkpoint(path)
        assert loaded.spec == spec and np.array_equal(loaded.log_temps, log_temps)
        assert list(loaded.params) == sorted(params)
        for name, value in params.items():
            assert loaded.params[name].shape == np.shape(value) and np.array_equal(loaded.params[name], value)

    @staticmethod
    def _edited_low_rank_checkpoint(tmp_path, edit):
        """A rank-1 low-rank checkpoint (``u`` is 16 x 1) whose JSON header went through ``edit``."""
        spec = T.TransformSpec("low_rank", 16, rank=1)
        params = T.make_model(spec).init_params(np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, T.Checkpoint(spec, T.InterfaceContract.default_ladder(16), np.full(5, -2.6), params, {}))
        header, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        return path

    @pytest.mark.parametrize(
        "temperature", ["-2.6", True, "nan", float("nan"), float("inf")], ids=["str", "bool", "nan_str", "nan", "inf"]
    )
    def test_temperature_that_is_not_a_finite_json_number_is_malformed(self, tmp_path, temperature):
        def edit(header):
            header["log_temperatures"][0] = temperature

        with pytest.raises(GraspError) as e:
            T.load_checkpoint(self._edited_low_rank_checkpoint(tmp_path, edit))
        assert e.value.code == "MALFORMED"

    @pytest.mark.parametrize(
        "shape", [[16.9, 1.2], [16.0, 1], [16, True], ["16", 1]], ids=["fraction", "integral_float", "bool", "str"]
    )
    def test_shape_entry_that_is_not_a_json_integer_is_malformed(self, tmp_path, shape):
        def edit(header):
            (entry,) = (e for e in header["params"] if e["name"] == "u")
            entry["shape"] = shape

        with pytest.raises(GraspError) as e:
            T.load_checkpoint(self._edited_low_rank_checkpoint(tmp_path, edit))
        assert e.value.code == "MALFORMED"

    def test_non_finite_matrix_claimed_orthogonal_rejected(self, tmp_path):
        path = tmp_path / "nan.transform"
        T.save_matrix_transform(path, T.random_orthogonal(4, 0))
        header = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(header + b"\n" + np.full((4, 4), np.nan).astype("<f8").tobytes())
        with pytest.raises(GraspError) as e:
            T.load_matrix_transform(path)
        assert e.value.code == "ORTHOGONALITY_VIOLATION"

    def test_one_by_one_matrix_transform_round_trip(self, tmp_path):
        path = tmp_path / "one.transform"
        T.save_matrix_transform(path, T.LinearTransform(np.array([[-1.0]]), "custom", orthogonal=True))
        loaded = T.load_matrix_transform(path)
        assert loaded.matrix.tolist() == [[-1.0]] and loaded.orthogonal

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
