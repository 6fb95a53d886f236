"""Loss terms against hand oracles, gradient checks, objective properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from grasp_vl import objective as O
from grasp_vl import transforms as T
from grasp_vl.errors import GraspError

from conftest import unit_rows


def make_batch(rng, n, d):
    return O.Batch(
        images=unit_rows(rng, n, d),
        views={g: unit_rows(rng, n, d) for g in T.VIEW_LEVELS},
        negatives={r: unit_rows(rng, n, d) for r in T.NEGATIVE_TYPES},
    )


def embed_with_cosine(c: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Two unit d-vectors whose full cosine (and any prefix >= 2 cosine) is c."""
    a = np.zeros(d)
    b = np.zeros(d)
    a[0] = 1.0
    b[0] = c
    b[1] = math.sqrt(1.0 - c * c)
    return a, b


class TestAlign:
    def test_single_pair_batch_is_zero(self, tiny_contract):
        rng = np.random.default_rng(0)
        z = make_batch(rng, 1, 8)
        val = O.loss_align(z, tiny_contract, np.zeros(4))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_under_modality_swap(self):
        rng = np.random.default_rng(1)
        z = make_batch(rng, 5, 8)
        c = T.InterfaceContract(
            prefixes=(8,), view_of={8: "G3"}, kappa={r: 8 for r in T.NEGATIVE_TYPES}
        )
        swapped = O.Batch(images=z.views["G3"], views={**z.views, "G3": z.images}, negatives=z.negatives)
        assert O.loss_align(swapped, c, np.zeros(1)) == pytest.approx(
            O.loss_align(z, c, np.zeros(1)), abs=1e-12
        )

    def test_two_pair_hand_oracle(self):
        # prefix cosines [[0.9, 0.1], [0.1, 0.9]] at tau=1: value from explicit 2x2 softmax
        contract = T.InterfaceContract(
            prefixes=(3,), view_of={3: "G3"}, kappa={r: 3 for r in T.NEGATIVE_TYPES}
        )
        images = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rest = math.sqrt(1.0 - 0.9**2 - 0.1**2)
        texts = np.array([[0.9, 0.1, rest], [0.1, 0.9, rest]])
        # oracle: cross-entropy of the 2x2 score matrix, both directions
        s = np.array([[0.9, 0.1], [0.1, 0.9]])
        expect = 0.0
        for i in range(2):
            row = s[i]
            expect += -row[i] + math.log(math.exp(row[0]) + math.exp(row[1]))
            col = s[:, i]
            expect += -col[i] + math.log(math.exp(col[0]) + math.exp(col[1]))
        expect /= 4.0  # mean over 2 rows, averaged over the two directions
        z = O.Batch(
            images=images,
            views={g: texts for g in T.VIEW_LEVELS},
            negatives={r: texts for r in T.NEGATIVE_TYPES},
        )
        got = O.loss_align(z, contract, np.zeros(1))
        assert got == pytest.approx(expect, abs=1e-9)

    def test_invariant_under_batch_permutation(self, tiny_contract):
        rng = np.random.default_rng(2)
        z = make_batch(rng, 6, 8)
        perm = rng.permutation(6)
        zp = O.Batch(
            images=z.images[perm],
            views={g: v[perm] for g, v in z.views.items()},
            negatives={r: v[perm] for r, v in z.negatives.items()},
        )
        a = O.loss_align(z, tiny_contract, np.log(0.1) * np.ones(4))
        b = O.loss_align(zp, tiny_contract, np.log(0.1) * np.ones(4))
        assert a == pytest.approx(b, abs=1e-10)


class TestRetention:
    def test_zero_weights_zero_loss(self, tiny_contract):
        rng = np.random.default_rng(0)
        z = make_batch(rng, 4, 8)
        assert O.loss_retention(z, tiny_contract, {}, np.zeros(4)) == 0.0

    def test_coarsest_prefix_has_no_retention(self, tiny_contract):
        weights = O.default_retention_weights(tiny_contract)
        assert 1 not in weights  # prefix assigned to G0 has no coarser view

    def test_single_pair_matches_scaled_align(self, tiny_contract):
        rng = np.random.default_rng(3)
        z = make_batch(rng, 5, 8)
        log_temps = np.log(0.2) * np.ones(4)
        got = O.loss_retention(z, tiny_contract, {4: {"G0": 0.5}}, log_temps)
        # oracle: same InfoNCE with the coarser view substituted at that prefix
        sub = T.InterfaceContract(
            prefixes=(4,), view_of={4: "G0"}, kappa={r: 4 for r in T.NEGATIVE_TYPES}
        )
        align = O.loss_align(z, sub, np.array([math.log(0.2)]))
        assert got == pytest.approx(0.5 * align, abs=1e-12)

    def test_default_weights_halve_per_gap(self, ladder32):
        w = O.default_retention_weights(ladder32)
        assert w[4] == {"G0": 0.25}
        assert w[8] == {"G0": 0.125, "G1": 0.25}
        assert w[16] == {"G0": 0.0625, "G1": 0.125, "G2": 0.25}
        assert w[32] == {"G0": 0.0625, "G1": 0.125, "G2": 0.25}


class TestRankLoss:
    def _batch_with_gap(self, cos_p, cos_n, d=8, n=3):
        img = np.zeros((n, d))
        img[:, 0] = 1.0
        pos = np.zeros((n, d))
        neg = np.zeros((n, d))
        for i in range(n):
            p = embed_with_cosine(cos_p, d)[1]
            q = embed_with_cosine(cos_n, d)[1]
            pos[i] = p
            neg[i] = q
        views = {g: pos for g in T.VIEW_LEVELS}
        negs = {r: neg for r in T.NEGATIVE_TYPES}
        return O.Batch(images=img, views=views, negatives=negs)

    def test_satisfied_margin_is_zero(self, tiny_contract):
        # negative cosine keeps the gap above margin at every prefix length
        z = self._batch_with_gap(0.9, -0.5)
        margins = {r: 0.1 for r in T.NEGATIVE_TYPES}
        assert O.loss_rank(z, tiny_contract, margins) == pytest.approx(0.0, abs=1e-12)

    def test_equal_scores_cost_margin_per_active_term(self, tiny_contract):
        z = self._batch_with_gap(0.5, 0.5)
        margins = {r: 0.1 for r in T.NEGATIVE_TYPES}
        active = sum(len(tiny_contract.rank_prefixes(r)) for r in T.NEGATIVE_TYPES)
        got = O.loss_rank(z, tiny_contract, margins)
        assert got == pytest.approx(0.1 * active, abs=1e-9)

    def test_scalar_arithmetic_example(self):
        # cos_p=0.60, cos_n=0.55, margin 0.10 -> hinge 0.05 for the single active term
        contract = T.InterfaceContract(
            prefixes=(8,), view_of={8: "G3"}, kappa={r: 8 for r in T.NEGATIVE_TYPES}
        )
        z = self._batch_with_gap(0.60, 0.55)
        margins = {r: 0.10 for r in T.NEGATIVE_TYPES}
        got = O.loss_rank(z, contract, margins, enabled_types=("object",))
        assert got == pytest.approx(0.05, abs=1e-9)

    def test_temperature_free(self, tiny_contract):
        rng = np.random.default_rng(4)
        z = make_batch(rng, 4, 8)
        margins = {r: 0.1 for r in T.NEGATIVE_TYPES}
        assert O.loss_rank(z, tiny_contract, margins) == O.loss_rank(z, tiny_contract, margins)


class TestInvarianceLoss:
    def test_within_tolerance_is_zero(self, tiny_contract):
        rng = np.random.default_rng(0)
        rows = unit_rows(rng, 3, 8)
        z = O.Batch(
            images=rows,
            views={g: rows for g in T.VIEW_LEVELS},
            negatives={r: rows for r in T.NEGATIVE_TYPES},
        )
        tol = {r: 0.05 for r in T.NEGATIVE_TYPES}
        assert O.loss_invariance(z, tiny_contract, tol) == pytest.approx(0.0, abs=1e-12)

    def test_gap_above_tolerance(self):
        # |gap| = 0.20 with tolerance 0.05 leaves 0.15 for the single pre-boundary term
        contract = T.InterfaceContract(
            prefixes=(4, 8),
            view_of={4: "G2", 8: "G3"},
            kappa={**{r: 4 for r in T.NEGATIVE_TYPES}, "full": 8},
        )
        img = np.zeros((2, 8))
        img[:, 0] = 1.0
        pos = np.stack([embed_with_cosine(0.70, 8)[1]] * 2)
        neg = np.stack([embed_with_cosine(0.50, 8)[1]] * 2)
        z = O.Batch(
            images=img,
            views={g: pos for g in T.VIEW_LEVELS},
            negatives={r: neg for r in T.NEGATIVE_TYPES},
        )
        got = O.loss_invariance(z, contract, {r: 0.05 for r in T.NEGATIVE_TYPES}, enabled_types=("full",))
        assert got == pytest.approx(0.15, abs=1e-9)

    def test_full_type_excluded_at_its_boundary(self, tiny_contract):
        # kappa(full)=8: prefix 8 is not < 8, so no invariance term exists there
        assert tiny_contract.invariance_prefixes("full") == (1, 2, 4)

    def test_rank_and_invariance_partition_prefixes(self, tiny_contract):
        for r in T.NEGATIVE_TYPES:
            ranked = set(tiny_contract.rank_prefixes(r))
            inv = set(tiny_contract.invariance_prefixes(r))
            assert ranked.isdisjoint(inv)
            assert ranked | inv == set(tiny_contract.prefixes)


class TestPreservation:
    def test_orthogonal_transform_zero(self):
        rng = np.random.default_rng(0)
        e = unit_rows(rng, 6, 10)
        r = T.cayley_build(rng.standard_normal((10, 10)))
        assert O.loss_preservation(e, r.apply(e)) <= 1e-10

    def test_scaling_removed_by_renormalization(self):
        # doubling every row leaves all cosines fixed: algebraic oracle on 3 rows
        rng = np.random.default_rng(1)
        e = unit_rows(rng, 3, 6)
        assert O.loss_preservation(e, 2.0 * e) == pytest.approx(0.0, abs=1e-15)

    def test_random_mlp_strictly_positive(self):
        rng = np.random.default_rng(2)
        e = unit_rows(rng, 5, 8)
        model = T.make_model(T.TransformSpec("mlp", 8))
        t = model.eval_transform(model.init_params(np.random.default_rng(3)))
        assert O.loss_preservation(e, t.apply(e)) > 0.0


class TestTotalLossAndGradient:
    def test_all_weights_zero_gives_zero(self, tiny_contract, tiny_batch):
        config = O.LossConfig.default(
            tiny_contract,
            align_weight=0.0,
            lambda_ret=0.0,
            lambda_rank=0.0,
            lambda_inv=0.0,
            lambda_pres=0.0,
            lambda_ortho=0.0,
        )
        model = T.make_model(T.TransformSpec("dense_cayley", 8))
        params = model.init_params(np.random.default_rng(0))
        total, grads, values = O.total_loss_and_gradient(
            model, params, np.zeros(4), tiny_batch, config, tiny_contract
        )
        assert total == 0.0
        assert np.all(grads.params["b"] == 0.0)
        assert np.all(grads.log_temps == 0.0)

    def test_gradient_container_mirrors_parameters(self, tiny_contract, tiny_batch, tiny_loss_config):
        model = T.make_model(T.TransformSpec("mlp", 8))
        params = model.init_params(np.random.default_rng(0))
        _, grads, _ = O.total_loss_and_gradient(
            model, params, np.zeros(4), tiny_batch, tiny_loss_config, tiny_contract
        )
        assert set(grads.params) == set(params)
        for name in params:
            assert grads.params[name].shape == params[name].shape

    def test_terms_are_nonnegative_and_finite(self, tiny_contract, tiny_batch, tiny_loss_config):
        for variant in ("dense_cayley", "low_rank", "mlp"):
            model = T.make_model(T.TransformSpec(variant, 8, rank=4))
            params = model.init_params(np.random.default_rng(1))
            total, _, values = O.total_loss_and_gradient(
                model, params, np.zeros(4), tiny_batch, tiny_loss_config, tiny_contract
            )
            assert np.isfinite(total)
            for term, v in values.items():
                assert v >= 0.0, term

    def test_full_space_align_has_zero_rotation_gradient(self, tiny_batch):
        # only the k=D align term active: full-space scores are rotation invariant,
        # so the gradient with respect to the skew parameter must vanish
        contract = T.InterfaceContract(
            prefixes=(8,), view_of={8: "G3"}, kappa={r: 8 for r in T.NEGATIVE_TYPES}
        )
        config = O.LossConfig.default(
            contract, lambda_ret=0.0, lambda_rank=0.0, lambda_inv=0.0, lambda_pres=0.0, lambda_ortho=0.0
        )
        model = T.make_model(T.TransformSpec("dense_cayley", 8))
        params = model.init_params(np.random.default_rng(2))
        _, grads, _ = O.total_loss_and_gradient(
            model, params, np.zeros(1), tiny_batch, config, contract, terms=("align",)
        )
        assert np.abs(grads.params["b"]).max() <= 1e-8

    def test_doubling_temperatures_keeps_rank_and_invariance(self, tiny_contract, tiny_batch, tiny_loss_config):
        model = T.make_model(T.TransformSpec("dense_cayley", 8))
        params = model.init_params(np.random.default_rng(3))
        for terms in (("rank",), ("inv",)):
            a, _, _ = O.total_loss_and_gradient(
                model, params, np.zeros(4), tiny_batch, tiny_loss_config, tiny_contract, terms=terms
            )
            b, _, _ = O.total_loss_and_gradient(
                model,
                params,
                np.zeros(4) + math.log(2.0),
                tiny_batch,
                tiny_loss_config,
                tiny_contract,
                terms=terms,
            )
            assert a == pytest.approx(b, abs=1e-14)


class TestFiniteDifferences:
    def test_quadratic_oracle_is_exact(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((6, 6))
        q = q @ q.T
        x0 = rng.standard_normal(6)

        def fn(x):
            return 0.5 * float(x @ q @ x)

        err = O.central_difference_max_error(fn, x0, q @ x0, step=1e-5)
        assert err <= 1e-8

    def test_truncation_error_grows_with_step(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(4)

        def fn(x):
            return float(np.sum(np.sin(3.0 * x)))  # curvature makes step size matter

        grad = 3.0 * np.cos(3.0 * x0)
        errs = [O.central_difference_max_error(fn, x0, grad, step=s) for s in (1e-6, 1e-4, 1e-2)]
        assert errs[0] <= errs[1] <= errs[2]

    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("dense_cayley", {}),
            ("low_rank", {"rank": 4}),
            ("mlp", {}),
            ("butterfly", {"stacks": 2}),
            ("permutation", {}),
            ("signed_permutation", {}),
        ],
    )
    def test_full_objective_fd(self, variant, kwargs, tiny_contract, tiny_batch, tiny_loss_config):
        model = T.make_model(T.TransformSpec(variant, 8, **kwargs))
        params = model.init_params(np.random.default_rng(4))
        err = O.finite_difference_check(
            model, params, np.log(0.07) * np.ones(4), tiny_batch, tiny_loss_config, tiny_contract, step=1e-5
        )
        assert err <= 1e-4

    def test_subset_sampling_for_larger_dims(self, ladder32):
        rng = np.random.default_rng(5)
        batch = O.Batch(
            images=unit_rows(rng, 3, 32),
            views={g: unit_rows(rng, 3, 32) for g in T.VIEW_LEVELS},
            negatives={r: unit_rows(rng, 3, 32) for r in T.NEGATIVE_TYPES},
        )
        config = O.LossConfig.default(ladder32)
        model = T.make_model(T.TransformSpec("dense_cayley", 32))
        params = model.init_params(np.random.default_rng(6))
        err = O.finite_difference_check(
            model, params, np.zeros(5), batch, config, ladder32, step=1e-5, max_coords=50
        )
        assert err <= 1e-4

    def test_nonpositive_step_rejected(self):
        with pytest.raises(GraspError):
            O.central_difference_max_error(lambda x: 0.0, np.zeros(2), np.zeros(2), step=0.0)
