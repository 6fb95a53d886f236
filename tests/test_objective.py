"""Loss terms against hand oracles, gradient checks, objective properties."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from grasp_vl import objective as O
from grasp_vl import transforms as T
from grasp_vl.errors import GraspError

from conftest import only, traced_peak, unit_rows


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


def term_value(term, batch, contract, log_temps=None, enabled_types=None, **loss_fields):
    """One term's value from total_loss_and_gradient, with every row set passed through the identity map.

    The map is dense_cayley at b = 0, whose R is exactly I, so the term sees the batch rows unchanged.
    """
    model = T.make_model(T.TransformSpec("dense_cayley", batch.dim))
    params = {"b": np.zeros((batch.dim, batch.dim))}
    if log_temps is None:
        log_temps = np.zeros(len(contract.prefixes))
    config = only(O.LossConfig.default(contract, **loss_fields), term)
    _, _, values = O.total_loss_and_gradient(
        model, params, log_temps, batch, config, contract, enabled_types
    )
    return values[term]


def preservation_value(model, params, images, texts):
    """The preservation term over the image rows stacked on the G3 text rows."""
    dim = images.shape[1]
    contract = T.InterfaceContract(prefixes=(dim,), view_of={dim: "G3"}, kappa={r: dim for r in T.NEGATIVE_TYPES})
    batch = O.Batch(
        images=images,
        views={g: texts for g in T.VIEW_LEVELS},
        negatives={r: texts for r in T.NEGATIVE_TYPES},
    )
    config = only(O.LossConfig.default(contract), "pres")
    _, _, values = O.total_loss_and_gradient(model, params, np.zeros(1), batch, config, contract)
    return values["pres"]


class TestAlign:
    def test_single_pair_batch_is_zero(self, tiny_contract):
        rng = np.random.default_rng(0)
        z = make_batch(rng, 1, 8)
        val = term_value("align", z, tiny_contract, np.zeros(4))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_under_modality_swap(self):
        rng = np.random.default_rng(1)
        z = make_batch(rng, 5, 8)
        c = T.InterfaceContract(
            prefixes=(8,), view_of={8: "G3"}, kappa={r: 8 for r in T.NEGATIVE_TYPES}
        )
        swapped = O.Batch(images=z.views["G3"], views={**z.views, "G3": z.images}, negatives=z.negatives)
        assert term_value("align", swapped, c, np.zeros(1)) == pytest.approx(
            term_value("align", z, c, np.zeros(1)), abs=1e-12
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
        got = term_value("align", z, contract, np.zeros(1))
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
        a = term_value("align", z, tiny_contract, np.log(0.1) * np.ones(4))
        b = term_value("align", zp, tiny_contract, np.log(0.1) * np.ones(4))
        assert a == pytest.approx(b, abs=1e-10)


class TestRetention:
    def test_zero_weights_zero_loss(self, tiny_contract):
        rng = np.random.default_rng(0)
        z = make_batch(rng, 4, 8)
        assert term_value("ret", z, tiny_contract, np.zeros(4), retention_weights={}) == 0.0

    def test_coarsest_prefix_has_no_retention(self, tiny_contract):
        weights = O.default_retention_weights(tiny_contract)
        assert 1 not in weights  # prefix assigned to G0 has no coarser view

    def test_single_pair_matches_scaled_align(self, tiny_contract):
        rng = np.random.default_rng(3)
        z = make_batch(rng, 5, 8)
        log_temps = np.log(0.2) * np.ones(4)
        got = term_value("ret", z, tiny_contract, log_temps, retention_weights={4: {"G0": 0.5}})
        # oracle: same InfoNCE with the coarser view substituted at that prefix
        sub = T.InterfaceContract(
            prefixes=(4,), view_of={4: "G0"}, kappa={r: 4 for r in T.NEGATIVE_TYPES}
        )
        align = term_value("align", z, sub, np.array([math.log(0.2)]))
        assert got == pytest.approx(0.5 * align, abs=1e-12)

    def test_weights_for_a_prefix_outside_the_contract_are_a_configuration_error(self, tiny_contract):
        z = make_batch(np.random.default_rng(2), 4, 8)
        with pytest.raises(GraspError) as e:
            term_value("ret", z, tiny_contract, np.zeros(4), retention_weights={3: {"G0": 0.5}})
        assert e.value.code == "CONFIG"

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
        assert term_value("rank", z, tiny_contract, margins=margins) == pytest.approx(0.0, abs=1e-12)

    def test_equal_scores_cost_margin_per_active_term(self, tiny_contract):
        z = self._batch_with_gap(0.5, 0.5)
        margins = {r: 0.1 for r in T.NEGATIVE_TYPES}
        active = sum(len(tiny_contract.rank_prefixes(r)) for r in T.NEGATIVE_TYPES)
        got = term_value("rank", z, tiny_contract, margins=margins)
        assert got == pytest.approx(0.1 * active, abs=1e-9)

    def test_scalar_arithmetic_example(self):
        # cos_p=0.60, cos_n=0.55, margin 0.10 -> hinge 0.05 for the single active term
        contract = T.InterfaceContract(
            prefixes=(8,), view_of={8: "G3"}, kappa={r: 8 for r in T.NEGATIVE_TYPES}
        )
        z = self._batch_with_gap(0.60, 0.55)
        margins = {r: 0.10 for r in T.NEGATIVE_TYPES}
        got = term_value("rank", z, contract, enabled_types=("object",), margins=margins)
        assert got == pytest.approx(0.05, abs=1e-9)

    def test_temperature_free(self, tiny_contract):
        rng = np.random.default_rng(4)
        z = make_batch(rng, 4, 8)
        margins = {r: 0.1 for r in T.NEGATIVE_TYPES}
        assert term_value("rank", z, tiny_contract, np.zeros(4), margins=margins) == term_value(
            "rank", z, tiny_contract, np.log(0.1) * np.ones(4), margins=margins
        )


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
        assert term_value("inv", z, tiny_contract, tolerances=tol) == pytest.approx(0.0, abs=1e-12)

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
        got = term_value(
            "inv", z, contract, enabled_types=("full",), tolerances={r: 0.05 for r in T.NEGATIVE_TYPES}
        )
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


def reference_preservation(images, texts, z_images, z_texts):
    """The preservation term from the two 2n x 2n cosine matrices, ``mean((UZ UZ^T - UE UE^T)^2)`` over the image
    rows stacked on the text rows, and its gradient with respect to the stacked map outputs."""

    def unit(rows):
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    z = np.concatenate([z_images, z_texts])
    ue, uz = unit(np.concatenate([images, texts])), unit(z)
    m = len(z)
    delta = uz @ uz.T - ue @ ue.T
    d_uz = 4.0 / (m * m) * (delta @ uz)
    d_z = (d_uz - np.einsum("ij,ij->i", d_uz, uz)[:, None] * uz) / np.linalg.norm(z, axis=1, keepdims=True)
    return float((delta * delta).mean()), d_z


class TestPreservation:
    # preservation applies only to maps whose step state is not orthogonal, so the
    # linear cases run through low_rank and set W = R + gate * u v^T by hand

    def test_orthogonal_transform_zero(self):
        # gate 0 leaves W = R, the Cayley rotation of a random b
        rng = np.random.default_rng(0)
        e = unit_rows(rng, 6, 10)
        model = T.make_model(T.TransformSpec("low_rank", 10, rank=2))
        params = {
            "b": rng.standard_normal((10, 10)),
            "u": np.ones((10, 2)),
            "v": np.ones((10, 2)),
            "gate": np.array(0.0),
        }
        assert preservation_value(model, params, e[:3], e[3:]) <= 1e-10

    def test_scaling_removed_by_renormalization(self):
        # b = 0, u = v = I and gate 1 give W = 2I: doubling every row leaves all cosines fixed
        rng = np.random.default_rng(1)
        e = unit_rows(rng, 3, 6)
        texts = unit_rows(rng, 3, 6)
        model = T.make_model(T.TransformSpec("low_rank", 6, rank=6))
        params = {"b": np.zeros((6, 6)), "u": np.eye(6), "v": np.eye(6), "gate": np.array(1.0)}
        assert preservation_value(model, params, e, texts) == pytest.approx(0.0, abs=1e-15)

    def test_random_mlp_strictly_positive(self):
        rng = np.random.default_rng(2)
        e = unit_rows(rng, 5, 8)
        texts = unit_rows(rng, 5, 8)
        model = T.make_model(T.TransformSpec("mlp", 8))
        params = model.init_params(np.random.default_rng(3))
        assert preservation_value(model, params, e, texts) > 0.0


class TestPreservationAgainstCosineMatrices:
    @pytest.mark.parametrize("variant", ["permutation", "signed_permutation", "low_rank", "mlp"])
    @pytest.mark.parametrize("n", [7, 64, 256])
    def test_value_and_row_gradients_equal_the_cosine_matrix_form(self, variant, n):
        dim, weight = 64, 10.0
        batch = make_batch(np.random.default_rng(n), n, dim)
        model = T.make_model(T.TransformSpec(variant, dim, rank=4))
        state = model.begin_step(model.init_params(np.random.default_rng(1)))
        sets = O._RowSets(state, batch, O.StepWorkspace())
        value = O._preservation_into(sets, weight)
        want, d_z = reference_preservation(batch.images, batch.views["G3"], sets.z("image"), sets.z("view:G3"))
        # 1e-16 absolute for the low-rank and MLP values (below 0.03); the relaxed permutations read about 0.9 here,
        # where the two forms differ by a few ulp (at most 1.6e-15)
        assert math.isclose(value, want, rel_tol=1e-14, abs_tol=1e-16)
        got = np.concatenate([sets.dz("image"), sets.dz("view:G3")])
        assert np.abs(got - weight * d_z).max() <= 1e-10 * np.abs(weight * d_z).max()


class TestTotalLossAndGradient:
    def test_all_weights_zero_gives_zero(self, tiny_contract, tiny_batch):
        config = O.LossConfig.default(tiny_contract, loss_weights=dict.fromkeys(O.TERM_NAMES, 0.0))
        model = T.make_model(T.TransformSpec("dense_cayley", 8))
        params = model.init_params(np.random.default_rng(0))
        total, grads, values = O.total_loss_and_gradient(
            model, params, np.zeros(4), tiny_batch, config, tiny_contract
        )
        assert total == 0.0
        assert np.all(grads.params["b"] == 0.0)
        assert np.all(grads.log_temps == 0.0)

    @pytest.mark.parametrize("term", O.TERM_NAMES)
    def test_a_term_whose_weight_is_zero_reads_zero(self, term, tiny_contract, tiny_batch):
        # low_rank's step state is not orthogonal, so the preservation and orthogonality terms run as well
        model = T.make_model(T.TransformSpec("low_rank", 8, rank=4))
        params = model.init_params(np.random.default_rng(0))
        for weight, reads_zero in ((1.0, False), (0.0, True)):
            config = O.LossConfig.default(tiny_contract, loss_weights={**O.DEFAULT_WEIGHTS, term: weight})
            _, _, values = O.total_loss_and_gradient(model, params, np.zeros(4), tiny_batch, config, tiny_contract)
            assert (values[term] == 0.0) == reads_zero

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
        config = only(O.LossConfig.default(contract), "align")
        model = T.make_model(T.TransformSpec("dense_cayley", 8))
        params = model.init_params(np.random.default_rng(2))
        _, grads, _ = O.total_loss_and_gradient(model, params, np.zeros(1), tiny_batch, config, contract)
        assert np.abs(grads.params["b"]).max() <= 1e-8

    def test_doubling_temperatures_keeps_rank_and_invariance(self, tiny_contract, tiny_batch, tiny_loss_config):
        model = T.make_model(T.TransformSpec("dense_cayley", 8))
        params = model.init_params(np.random.default_rng(3))
        for term in ("rank", "inv"):
            config = only(tiny_loss_config, term)
            a, _, _ = O.total_loss_and_gradient(model, params, np.zeros(4), tiny_batch, config, tiny_contract)
            b, _, _ = O.total_loss_and_gradient(
                model, params, np.zeros(4) + math.log(2.0), tiny_batch, config, tiny_contract
            )
            assert a == pytest.approx(b, abs=1e-14)


def reference_infonce_grad(zi, zt, k, tau):
    """Symmetric InfoNCE with each softmax shifted by its own row or column maximum, a fresh array for every
    intermediate: the oracle that bounds the shared-shift kernel's rounding.  Returns row gradients."""

    def unit_prefix(rows):
        sl = rows[:, :k]
        norms = np.maximum(np.linalg.norm(sl, axis=1, keepdims=True), 1e-12)
        return sl / norms, norms

    def unit_prefix_backprop(d_unit, unit, norms, d_rows):
        inner = (d_unit * unit).sum(axis=1, keepdims=True)
        d_rows[:, :k] += (d_unit - inner * unit) / norms

    ui, ni = unit_prefix(zi)
    ut, nt = unit_prefix(zt)
    s = (ui @ ut.T) / tau
    n = s.shape[0]
    diag = np.arange(n)
    lse, soft = {}, {}
    for axis in (1, 0):
        m = s.max(axis=axis, keepdims=True)
        e = np.exp(s - m)
        total = e.sum(axis=axis, keepdims=True)
        lse[axis] = (m + np.log(total)).squeeze(axis)
        soft[axis] = e / total
    value = 0.5 * float(np.mean(lse[1] - s[diag, diag]) + np.mean(lse[0] - s[diag, diag]))
    ds = (soft[1] + soft[0]) / (2.0 * n)
    ds[diag, diag] -= 1.0 / n
    d_log_tau = -float((ds * s).sum())
    dc = ds / tau
    d_zi = np.zeros_like(zi)
    d_zt = np.zeros_like(zt)
    unit_prefix_backprop(dc @ ut, ui, ni, d_zi)
    unit_prefix_backprop(dc.T @ ui, ut, nt, d_zt)
    return value, d_zi, d_zt, d_log_tau


def reference_shared_shift_infonce(ui, ut, tau):
    """The kernel's arithmetic written out with a fresh array for every intermediate; the kernel must match it
    bit for bit.

    Both softmaxes are shifted by 1/tau.  A row or column whose shifted sum is below 1e-280 is redone with its
    own maximum.  Returns (value, g_i, g_t, d_log_tau), with the gradients taken with respect to ``ui``, ``ut``.
    """
    n = ui.shape[0]
    shifted = (ui @ ut.T - 1.0) * (1.0 / tau)
    e = np.exp(shifted)
    log_sums, scales, redone = [], [], []
    for own, other, total in ((ui, ut, e.sum(axis=1)), (ut, ui, e.sum(axis=0))):
        low = np.flatnonzero(total < 1e-280)
        kept = np.where(total < 1e-280, 1.0, total)
        log_sum = np.log(kept)
        scale = 1.0 / (kept * (2.0 * n * tau))
        scale[low] = 0.0
        s = (own[low] @ other.T - 1.0) * (1.0 / tau)
        m = s.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(s - m).sum(axis=1, keepdims=True))
        log_sum[low] = lse[:, 0]
        log_sums.append(log_sum)
        scales.append(scale)
        redone.append((low, np.exp(s - lse) / (2.0 * n * tau)))
    value = 0.5 * float(np.mean(log_sums[0] - np.diag(shifted)) + np.mean(log_sums[1] - np.diag(shifted)))
    dc = (scales[0][:, None] + scales[1][None, :]) * e
    (rows, row_part), (cols, col_part) = redone
    dc[rows] += row_part
    dc[:, cols] += col_part.T
    dc[np.arange(n), np.arange(n)] -= 1.0 / (n * tau)
    g_i = dc @ ut
    return value, g_i, dc.T @ ui, -float(np.vdot(ui, g_i))


def kernel_row_gradients(zi, zt, k, tau):
    """``_infonce_grad`` on the k-prefixes of ``zi``, ``zt``, its unit gradients carried back to the rows."""
    (ui, ni), (ut, nt) = O._unit_prefix(zi, k), O._unit_prefix(zt, k)
    n = zi.shape[0]
    value, g_i, g_t, d_log_tau = O._infonce_grad(ui, ut, tau, np.full((2, n, n), np.nan))
    d_zi, d_zt = np.zeros_like(zi), np.zeros_like(zt)
    O._unit_prefix_backprop(g_i, ui, ni, d_zi, k)
    O._unit_prefix_backprop(g_t, ut, nt, d_zt, k)
    return value, d_zi, d_zt, d_log_tau


def assert_within_rtol(got, want, rtol, scale):
    """Every entry within ``rtol`` of the reference, relative to the larger of its size and ``scale``."""
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert np.all(np.isfinite(g))
        assert np.all(np.abs(g - w) <= rtol * np.maximum(np.abs(w), scale))


def underflow_batch(rng, n, d, far):
    """Text rows clustered near e_0 and image rows near their own text, except the rows ``far``, which sit near
    -e_0: their prefix cosines are near -1 with every text row."""
    texts = np.zeros((n, d))
    texts[:, 0] = 1.0
    texts[:, 1:] = 0.15 * rng.standard_normal((n, d - 1))
    images = texts + 0.02 * rng.standard_normal((n, d))
    images[far] = -texts[far] + 0.02 * rng.standard_normal((len(far), d))
    return images, texts


class TestInfoNCEKernel:
    DIM = 64
    # The shared shift rounds differently from the per-row one.  Relative to the larger of an entry's size and
    # 1/tau, the kernel is within 9e-16 of the per-row-shift reference over the grid below, and within 1.4e-14
    # at tau = 1e-3 with underflowing sums.  1/tau is the scale of the score gradient; it keeps entries whose
    # exact value is 0 (the two-row duplicated batches) from turning rounding noise into a relative error.
    RTOL = 1e-12

    def batch(self, n, k, duplicated):
        rng = np.random.default_rng(n * 1000 + k)
        zi = rng.standard_normal((n, self.DIM))
        zt = rng.standard_normal((n, self.DIM))
        if duplicated:
            # two equal image rows and two equal text rows: row and column maxima tie
            zi[1] = zi[0]
            zt[1] = zt[0]
        return zi, zt

    @pytest.mark.parametrize("tau", [0.07, 1.0])
    @pytest.mark.parametrize("k", [1, 4, DIM])
    @pytest.mark.parametrize("n", [2, 3, 256])
    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    def test_bit_identical_to_the_fresh_array_reference(self, n, k, tau, duplicated):
        zi, zt = self.batch(n, k, duplicated)
        ui, ut = O._unit_prefix(zi, k)[0], O._unit_prefix(zt, k)[0]
        work = np.full((2, n, n), np.nan)  # whatever the buffers held must not leak into the result
        got = O._infonce_grad(ui, ut, tau, work)
        want = reference_shared_shift_infonce(ui, ut, tau)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert got[3] == want[3]

    @pytest.mark.parametrize("tau", [0.07, 1.0])
    @pytest.mark.parametrize("k", [1, 4, DIM])
    @pytest.mark.parametrize("n", [2, 3, 256])
    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    def test_within_rtol_of_the_per_row_shift_reference(self, n, k, tau, duplicated):
        zi, zt = self.batch(n, k, duplicated)
        got = kernel_row_gradients(zi, zt, k, tau)
        assert_within_rtol(got, reference_infonce_grad(zi, zt, k, tau), self.RTOL, 1.0 / tau)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("side", ["rows", "columns"])
    def test_underflowing_sums_are_redone_with_their_own_maximum(self, side, k):
        tau = 1e-3
        images, texts = underflow_batch(np.random.default_rng(0), 6, 8, far=[0, 3])
        zi, zt = (images, texts) if side == "rows" else (texts, images)
        ui, ut = O._unit_prefix(zi, k)[0], O._unit_prefix(zt, k)[0]
        sums = np.exp((ui @ ut.T - 1.0) / tau).sum(axis=1 if side == "rows" else 0)
        assert np.all(sums[[0, 3]] < 1e-280) and np.all(sums[[1, 2, 4, 5]] > 1e-280)
        got = kernel_row_gradients(zi, zt, k, tau)
        assert_within_rtol(got, reference_infonce_grad(zi, zt, k, tau), self.RTOL, 1.0 / tau)
        kernel = O._infonce_grad(ui, ut, tau, np.full((2, 6, 6), np.nan))
        want = reference_shared_shift_infonce(ui, ut, tau)
        assert kernel[0] == want[0] and kernel[3] == want[3]
        assert np.array_equal(kernel[1], want[1]) and np.array_equal(kernel[2], want[2])


class TestStepCaches:
    def test_each_prefix_and_paired_cosine_is_computed_once_per_step(self, monkeypatch):
        dim = 64
        contract = T.InterfaceContract.default_ladder(dim)
        batch = make_batch(np.random.default_rng(0), 8, dim)
        model = T.make_model(T.TransformSpec("dense_cayley", dim))
        params = model.init_params(np.random.default_rng(1))
        normalized, paired = [], []
        unit_prefix, paired_cosine = O._unit_prefix, O._paired_cosine

        def counting_unit_prefix(rows, k, out=None):
            normalized.append((id(rows), k))
            return unit_prefix(rows, k, out=out)

        def counting_paired_cosine(pi, pt):
            paired.append((id(pi[0]), id(pt[0])))
            return paired_cosine(pi, pt)

        monkeypatch.setattr(O, "_unit_prefix", counting_unit_prefix)
        monkeypatch.setattr(O, "_paired_cosine", counting_paired_cosine)
        O.total_loss_and_gradient(
            model, params, np.zeros(len(contract.prefixes)), batch, O.LossConfig.default(contract), contract
        )
        # 11 row sets (image, 4 views, 6 negatives) x 5 prefixes, each normalized once
        assert len(normalized) == len(set(normalized)) == 55
        others = {f"view:{T.STYLE_VIEW[r]}" for r in T.NEGATIVE_TYPES} | {f"neg:{r}" for r in T.NEGATIVE_TYPES}
        assert len(paired) == len(set(paired)) == len(others) * len(contract.prefixes)


class TestStepMemory:
    @staticmethod
    def step_peak(variant: str) -> int:
        """Traced peak bytes of one default-ladder step at n = 256, D = 64."""
        dim = 64
        contract = T.InterfaceContract.default_ladder(dim)
        batch = make_batch(np.random.default_rng(0), 256, dim)
        model = T.make_model(T.TransformSpec(variant, dim))
        params = model.init_params(np.random.default_rng(1))
        args = (model, params, np.zeros(len(contract.prefixes)), batch, O.LossConfig.default(contract), contract)
        return traced_peak(O.total_loss_and_gradient, *args)

    def test_prefix_caches_are_freed_before_the_preservation_term(self):
        # a step that frees its prefix caches and InfoNCE buffers after the hinge terms peaks at
        # 10.9 MiB here; one that holds them through the preservation term peaks at 14.8 MiB
        assert self.step_peak("mlp") < 12 * 2**20

    def test_dense_step_holds_no_per_term_gradients(self):
        # unit gradients go straight into their row set's accumulator: 6.97 MiB here, and 7.35 MiB with n x D
        # gradient arrays per term.  Keeping one accumulator per (row set, k) to the end of the step would
        # hold 55 more n x k arrays, about 2.8 MiB
        assert self.step_peak("dense_cayley") < 7.5 * 2**20


VARIANTS = ("dense_cayley", "butterfly", "permutation", "signed_permutation", "low_rank", "mlp")


def default_ladder_step(variant: str, n: int, dim: int = 64, seed: int = 0):
    """(model, params, log_temps, batch, config, contract) of a full-curriculum default-ladder step."""
    contract = T.InterfaceContract.default_ladder(dim)
    batch = make_batch(np.random.default_rng(seed), n, dim)
    model = T.make_model(T.TransformSpec(variant, dim, stacks=2, rank=4))
    params = model.init_params(np.random.default_rng(1))
    log_temps = np.log(0.07) + 0.01 * np.arange(len(contract.prefixes))
    return model, params, log_temps, batch, O.LossConfig.default(contract), contract


def assert_same_step(got, want):
    """Two ``total_loss_and_gradient`` results are equal bit for bit."""
    assert got[0] == want[0]
    assert got[2] == want[2]
    assert np.array_equal(got[1].log_temps, want[1].log_temps)
    assert set(got[1].params) == set(want[1].params)
    for name, g in got[1].params.items():
        assert np.array_equal(g, want[1].params[name]), name


class TestPrefixMajorStep:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_full_step_is_the_sum_of_its_single_term_steps(self, variant):
        model, params, log_temps, batch, config, contract = args = default_ladder_step(variant, 16, dim=16)
        total, grads, values = O.total_loss_and_gradient(*args)
        summed = {name: np.zeros_like(g) for name, g in grads.params.items()}
        summed_temps = np.zeros_like(grads.log_temps)
        for term in O.TERM_NAMES:
            _, g, v = O.total_loss_and_gradient(model, params, log_temps, batch, only(config, term), contract)
            assert v[term] == values[term]
            assert all(v[t] == 0.0 for t in O.TERM_NAMES if t != term)
            for name in summed:
                summed[name] += g.params[name]
            summed_temps += g.log_temps
        assert (values["pres"] > 0.0) == (variant not in ("dense_cayley", "butterfly"))  # the sum covers it where it runs
        for name, g in grads.params.items():
            assert np.abs(g - summed[name]).max() <= 1e-12 * np.abs(g).max(), name
        assert np.abs(grads.log_temps - summed_temps).max() <= 1e-12 * np.abs(grads.log_temps).max()

    @pytest.mark.parametrize("variant", ["dense_cayley", "low_rank", "mlp"])
    @pytest.mark.parametrize("sizes", [(256, 64), (64, 256)], ids=["shrink", "grow"])
    def test_a_reused_workspace_leaks_nothing_into_the_next_step(self, variant, sizes):
        first, second = (default_ladder_step(variant, n, seed=n) for n in sizes)
        workspace = O.StepWorkspace()
        O.total_loss_and_gradient(*first, workspace=workspace)
        reused = O.total_loss_and_gradient(*second, workspace=workspace)
        assert_same_step(reused, O.total_loss_and_gradient(*second))
        # and the first size again, now through a leading view or a grown buffer
        assert_same_step(O.total_loss_and_gradient(*first, workspace=workspace), O.total_loss_and_gradient(*first))

    def test_one_backprop_per_row_set_and_prefix(self, monkeypatch):
        calls = []
        backprop = O._unit_prefix_backprop

        def counting_backprop(d_unit, unit, norms, d_rows, k):
            calls.append(k)
            return backprop(d_unit, unit, norms, d_rows, k)

        monkeypatch.setattr(O, "_unit_prefix_backprop", counting_backprop)
        O.total_loss_and_gradient(*default_ladder_step("dense_cayley", 8))
        # 11 row sets (image, 4 views, 6 negatives) x 5 prefixes; one per term that reads a prefix would be 118
        assert len(calls) == 55
        assert sorted(set(calls)) == [4, 8, 16, 32, 64] and all(calls.count(k) == 11 for k in set(calls))

    def test_a_warm_workspace_step_allocates_little(self):
        # n = 256, D = 64: a step that allocates its own buffers peaks at 6.97 MiB without a workspace (6.4 MiB
        # with a fresh one).  On a warm workspace the step allocates only a few n x k temporaries: 0.66 MiB
        args = default_ladder_step("dense_cayley", 256)
        workspace = O.StepWorkspace()
        O.total_loss_and_gradient(*args, workspace=workspace)
        peak = traced_peak(lambda: O.total_loss_and_gradient(*args, workspace=workspace))
        assert peak < 1.5 * 2**20


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

    @pytest.mark.parametrize("side", ["rows", "columns"])
    def test_align_fd_where_shifted_sums_underflow(self, side, tiny_contract):
        images, texts = underflow_batch(np.random.default_rng(0), 6, 8, far=[0, 3])
        if side == "columns":
            images, texts = texts, images
        batch = O.Batch(
            images=images,
            views={g: texts for g in T.VIEW_LEVELS},
            negatives={r: texts for r in T.NEGATIVE_TYPES},
        )
        model = T.make_model(T.TransformSpec("dense_cayley", 8))
        params = model.init_params(np.random.default_rng(4))
        tau = 1e-3
        rotation = model.eval_transform(params)
        for k in tiny_contract.prefixes:
            # the gradient runs through the redone sums: rows (or columns) 0 and 3 underflow at every prefix
            ui, ut = (O._unit_prefix(rotation.apply(rows), k)[0] for rows in (batch.images, texts))
            sums = np.exp((ui @ ut.T - 1.0) / tau).sum(axis=1 if side == "rows" else 0)
            assert np.array_equal(np.flatnonzero(sums < 1e-280), [0, 3])
        err = O.finite_difference_check(
            model,
            params,
            np.log(tau) * np.ones(4),
            batch,
            only(O.LossConfig.default(tiny_contract), "align"),
            tiny_contract,
            step=1e-5,
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

    def test_a_nan_error_is_the_worst(self):
        # Python's max() dropped it and returned 0.0
        nan_grad = np.array([np.nan, np.nan])
        assert math.isnan(O.central_difference_max_error(lambda x: 0.0, np.zeros(2), nan_grad, step=1e-5))
        one_nan = np.array([0.0, np.nan, 0.0])
        assert math.isnan(O.central_difference_max_error(lambda x: 0.0, np.zeros(3), one_nan, step=1e-5))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(GraspError):
            O.central_difference_max_error(lambda x: 0.0, np.zeros(2), np.zeros(2), step=0.0)

    def test_infinite_step_rejected(self):
        with pytest.raises(GraspError) as e:
            O.central_difference_max_error(lambda x: 0.0, np.zeros(2), np.zeros(2), step=math.inf)
        assert e.value.code == "CONFIG"

    @staticmethod
    def checked_coords(monkeypatch, dim: int, max_coords=None):
        """(coordinate count, the ``coords`` that ``finite_difference_check`` hands the oracle) of a dense step."""
        seen = []

        def spy(fn, x0, analytic, step, coords):
            seen.append((x0.size, coords))
            return 0.0

        monkeypatch.setattr(O, "central_difference_max_error", spy)
        contract = T.InterfaceContract(prefixes=(dim,), view_of={dim: "G3"}, kappa={r: dim for r in T.NEGATIVE_TYPES})
        model = T.make_model(T.TransformSpec("dense_cayley", dim))
        params = model.init_params(np.random.default_rng(0))
        batch = make_batch(np.random.default_rng(1), 3, dim)
        O.finite_difference_check(
            model, params, np.zeros(1), batch, O.LossConfig.default(contract), contract, max_coords=max_coords
        )
        return seen[0]

    def test_every_coordinate_is_checked_at_dim_16(self, monkeypatch):
        size, coords = self.checked_coords(monkeypatch, 16)
        assert size > 64 and coords is None
        _, coords = self.checked_coords(monkeypatch, 32)
        assert len(coords) == 64

    def test_a_cap_equal_to_the_coordinate_count_takes_no_subset(self, monkeypatch):
        size, _ = self.checked_coords(monkeypatch, 4)
        _, coords = self.checked_coords(monkeypatch, 4, max_coords=size)
        assert coords is None
        _, coords = self.checked_coords(monkeypatch, 4, max_coords=size - 1)
        assert len(coords) == size - 1


class TestLossConfigJson:
    """The ``loss`` JSON object: ``loss_weights`` is keyed by term name, and a term it leaves out takes its default."""

    def test_a_partial_loss_weights_object_takes_the_defaults_for_the_rest(self):
        config = O.LossConfig.from_json_dict({"loss_weights": {"ret": 2.0}})
        assert config.loss_weights == {"align": 1.0, "ret": 2.0, "rank": 1.0, "inv": 0.5, "pres": 10.0, "ortho": 1.0}

    def test_a_key_that_names_no_term_is_ignored(self):
        config = O.LossConfig.from_json_dict({"loss_weights": {"ret": 2.0, "lambda_ret": 7.0, "bogus": 3.0}})
        assert config == O.LossConfig.from_json_dict({"loss_weights": {"ret": 2.0}})

    @pytest.mark.parametrize("weight", [True, "0.5"], ids=["bool", "string"])
    def test_a_weight_that_is_not_a_json_number_is_a_type_error(self, weight):
        with pytest.raises(TypeError):
            O.LossConfig.from_json_dict({"loss_weights": {"ret": weight}})

    def test_to_json_dict_round_trips(self, tiny_contract):
        config = O.LossConfig.default(
            tiny_contract,
            loss_weights={"align": 2.0, "ret": 0.0, "rank": 0.25, "inv": 3.0, "pres": 0.5, "ortho": 0.0},
            margins={r: 0.2 for r in T.NEGATIVE_TYPES},
            align_view_mode="g3",
        )
        assert O.LossConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict()))) == config

    def test_weights_must_name_every_term(self):
        with pytest.raises(GraspError) as e:
            O.LossConfig(loss_weights={"align": 1.0})
        assert e.value.code == "CONFIG"

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize("table", ["loss_weights", "margins", "tolerances", "retention_weights"])
    def test_every_number_is_finite_and_nonnegative(self, tiny_contract, table, value):
        config = O.LossConfig.default(tiny_contract)
        numbers = config.retention_weights[8] if table == "retention_weights" else getattr(config, table)
        numbers[next(iter(numbers))] = value
        with pytest.raises(GraspError) as e:
            replace(config)
        assert e.value.code == "CONFIG"
