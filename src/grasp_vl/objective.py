"""The granularity-selective loss, its exact gradients, and the
finite-difference verification oracle.

Gradient layout mirrors the parameter containers: a dict of arrays per
transform parameter plus one array of per-prefix log-temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GraspError
from .transforms import (
    NEGATIVE_TYPES,
    STYLE_VIEW,
    VIEW_LEVELS,
    InterfaceContract,
    VariantModel,
)

TERM_NAMES = ("align", "ret", "rank", "inv", "pres", "ortho")


# ---------------------------------------------------------------------------
# Config


def default_retention_weights(contract: InterfaceContract) -> dict[int, dict[str, float]]:
    """alpha_{k,l} = 0.25 * 2^-(gap-1) for each view l coarser than k's view."""
    weights: dict[int, dict[str, float]] = {}
    for k in contract.prefixes:
        g = VIEW_LEVELS.index(contract.view_of[k])
        per = {}
        for li in range(g):
            gap = g - li
            per[VIEW_LEVELS[li]] = 0.25 * 2.0 ** (-(gap - 1))
        if per:
            weights[k] = per
    return weights


@dataclass
class LossConfig:
    lambda_ret: float = 0.5
    lambda_rank: float = 1.0
    lambda_inv: float = 0.5
    lambda_pres: float = 10.0
    lambda_ortho: float = 1.0
    align_weight: float = 1.0
    margins: dict[str, float] = field(default_factory=lambda: {r: 0.1 for r in NEGATIVE_TYPES})
    tolerances: dict[str, float] = field(default_factory=lambda: {r: 0.05 for r in NEGATIVE_TYPES})
    retention_weights: dict[int, dict[str, float]] = field(default_factory=dict)
    align_view_mode: str = "assigned"  # "assigned" aligns each prefix to its view; "g3" aligns all to G3

    def __post_init__(self):
        for name in ("lambda_ret", "lambda_rank", "lambda_inv", "lambda_pres", "lambda_ortho", "align_weight"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise GraspError("CONFIG", f"{name} must be finite and >= 0, got {v}")
        if set(self.margins) != set(NEGATIVE_TYPES) or set(self.tolerances) != set(NEGATIVE_TYPES):
            raise GraspError("CONFIG", f"margins and tolerances must name exactly {NEGATIVE_TYPES}")
        if self.align_view_mode not in ("assigned", "g3"):
            raise GraspError("CONFIG", f"unknown align_view_mode {self.align_view_mode!r}")

    @classmethod
    def default(cls, contract: InterfaceContract, **overrides) -> "LossConfig":
        return replace(cls(retention_weights=default_retention_weights(contract)), **overrides)

    def to_json_dict(self) -> dict:
        return {
            "loss_weights": {
                "ret": self.lambda_ret,
                "rank": self.lambda_rank,
                "inv": self.lambda_inv,
                "pres": self.lambda_pres,
                "ortho": self.lambda_ortho,
                "align": self.align_weight,
            },
            "margins": dict(self.margins),
            "tolerances": dict(self.tolerances),
            "retention_weights": {str(k): dict(v) for k, v in self.retention_weights.items()},
            "align_view_mode": self.align_view_mode,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LossConfig":
        lw = d.get("loss_weights", {})
        return cls(
            lambda_ret=float(lw.get("ret", 0.5)),
            lambda_rank=float(lw.get("rank", 1.0)),
            lambda_inv=float(lw.get("inv", 0.5)),
            lambda_pres=float(lw.get("pres", 10.0)),
            lambda_ortho=float(lw.get("ortho", 1.0)),
            align_weight=float(lw.get("align", 1.0)),
            margins={r: float(v) for r, v in d.get("margins", {}).items()} or {r: 0.1 for r in NEGATIVE_TYPES},
            tolerances={r: float(v) for r, v in d.get("tolerances", {}).items()}
            or {r: 0.05 for r in NEGATIVE_TYPES},
            retention_weights={
                int(k): {g: float(w) for g, w in v.items()} for k, v in d.get("retention_weights", {}).items()
            },
            align_view_mode=d.get("align_view_mode", "assigned"),
        )


# ---------------------------------------------------------------------------
# Batches


@dataclass(eq=False)
class Batch:
    """Aligned raw (e-space) row sets for one step."""

    images: np.ndarray
    views: dict[str, np.ndarray]
    negatives: dict[str, np.ndarray]

    def __post_init__(self):
        n, d = self.images.shape
        for name, rows in (*self.views.items(), *self.negatives.items()):
            if rows.shape != (n, d):
                raise GraspError("DIM_MISMATCH", f"batch rows for {name!r} have shape {rows.shape}, want {(n, d)}")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def dim(self) -> int:
        return self.images.shape[1]

    @classmethod
    def from_cache(cls, cache, indices) -> "Batch":
        idx = np.asarray(indices, dtype=np.intp)
        return cls(
            images=cache.images[idx].astype(np.float64),
            views={g: cache.views[g][idx].astype(np.float64) for g in VIEW_LEVELS},
            negatives={r: cache.negatives[r][idx].astype(np.float64) for r in NEGATIVE_TYPES},
        )


# ---------------------------------------------------------------------------
# Differentiable primitives

_NORM_FLOOR = 1e-12


def _unit_prefix(rows: np.ndarray, k: int):
    sl = rows[:, :k]
    norms = np.maximum(np.linalg.norm(sl, axis=1, keepdims=True), _NORM_FLOOR)
    return sl / norms, norms


def _unit_prefix_backprop(d_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray, d_rows: np.ndarray, k: int):
    inner = (d_unit * unit).sum(axis=1, keepdims=True)
    d_rows[:, :k] += (d_unit - inner * unit) / norms


def _infonce_grad(pi, pt, dim: int, tau: float, work: np.ndarray):
    """Symmetric InfoNCE over the ``(unit, norms)`` k-prefixes ``pi``, ``pt``.

    Each direction's softmax fills one of the two n x n ``work`` buffers.
    Returns (value, d_zi, d_zt, d_log_tau), the row gradients ``dim`` wide.
    """
    (ui, ni), (ut, nt) = pi, pt
    k = ui.shape[1]
    s = ui @ ut.T
    s /= tau
    n = s.shape[0]
    diag = np.arange(n)
    lse = {}
    for axis, soft in ((1, work[0]), (0, work[1])):
        m = s.max(axis=axis, keepdims=True)
        np.subtract(s, m, out=soft)
        np.exp(soft, out=soft)
        total = soft.sum(axis=axis, keepdims=True)
        lse[axis] = (m + np.log(total)).squeeze(axis)
        np.divide(soft, total, out=soft)
    value = 0.5 * float(np.mean(lse[1] - s[diag, diag]) + np.mean(lse[0] - s[diag, diag]))
    ds = np.add(work[0], work[1], out=work[0])
    ds /= 2.0 * n
    ds[diag, diag] -= 1.0 / n
    d_log_tau = -float(np.multiply(ds, s, out=work[1]).sum())  # s = c * exp(-log tau)
    ds /= tau
    d_zi = np.zeros((n, dim))
    d_zt = np.zeros((n, dim))
    _unit_prefix_backprop(ds @ ut, ui, ni, d_zi, k)
    _unit_prefix_backprop(ds.T @ ui, ut, nt, d_zt, k)
    return value, d_zi, d_zt, d_log_tau


def _paired_cosine(pi, pt):
    (ui, ni), (ut, nt) = pi, pt
    c = np.einsum("ij,ij->i", ui, ut)
    return c, (ui, ni, ut, nt)


def _paired_cosine_backprop(dc: np.ndarray, ctx, d_zi: np.ndarray, d_zt: np.ndarray, k: int):
    ui, ni, ut, nt = ctx
    _unit_prefix_backprop(dc[:, None] * ut, ui, ni, d_zi, k)
    _unit_prefix_backprop(dc[:, None] * ui, ut, nt, d_zt, k)


def _temps(contract: InterfaceContract, log_temps: np.ndarray) -> dict[int, float]:
    lt = np.asarray(log_temps, dtype=np.float64)
    if lt.shape != (len(contract.prefixes),):
        raise GraspError("DIM_MISMATCH", f"need {len(contract.prefixes)} log-temperatures, got {lt.shape}")
    return {k: float(np.exp(t)) for k, t in zip(contract.prefixes, lt)}


# ---------------------------------------------------------------------------
# Full objective with gradients


@dataclass(eq=False)
class Grads:
    """Mirrors the parameter containers: per-name arrays plus log-temperatures."""

    params: dict[str, np.ndarray]
    log_temps: np.ndarray


class _RowSets:
    """Lazy row sets, k-prefixes and paired cosines, each computed once per step, with per-set gradient accumulators."""

    def __init__(self, state, batch: Batch):
        self._state = state
        self._batch = batch
        self._z: dict[str, np.ndarray] = {}
        self._ctx: dict[str, object] = {}
        self._dz: dict[str, np.ndarray] = {}
        self._unit: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        self._cosine: dict[tuple[str, int], tuple[np.ndarray, tuple]] = {}

    def raw(self, name: str) -> np.ndarray:
        if name == "image":
            return self._batch.images
        kind, _, key = name.partition(":")
        return self._batch.views[key] if kind == "view" else self._batch.negatives[key]

    def z(self, name: str) -> np.ndarray:
        if name not in self._z:
            z, ctx = self._state.apply(self.raw(name))
            self._z[name] = z
            self._ctx[name] = ctx
            self._dz[name] = np.zeros_like(z)
        return self._z[name]

    def unit(self, name: str, k: int):
        """``(unit, norms)`` of the k-prefixes of row set ``name``."""
        if (name, k) not in self._unit:
            self._unit[name, k] = _unit_prefix(self.z(name), k)
        return self._unit[name, k]

    def paired_cosine(self, other: str, k: int):
        """``(c, ctx)``: the row-wise prefix-k cosines of the images with row set ``other``."""
        if (other, k) not in self._cosine:
            self._cosine[other, k] = _paired_cosine(self.unit("image", k), self.unit(other, k))
        return self._cosine[other, k]

    def drop_prefixes(self) -> None:
        """Free the cached prefixes and cosines once the last term that reads them has run."""
        self._unit.clear()
        self._cosine.clear()

    def add_grad(self, name: str, g: np.ndarray) -> None:
        self._dz[name] += g

    def backprop(self) -> None:
        for name, dz in self._dz.items():
            if np.any(dz):
                self._state.vjp(self._ctx[name], dz)


def total_loss_and_gradient(
    model: VariantModel,
    params: dict[str, np.ndarray],
    log_temps: np.ndarray,
    batch: Batch,
    config: LossConfig,
    contract: InterfaceContract,
    enabled_types=None,
    terms=None,
):
    """Weighted objective value plus exact gradients.

    ``enabled_types`` gates which negative types feed rank/invariance
    (curriculum); ``terms`` restricts to a subset of TERM_NAMES.  Returns
    (total, Grads, per-term values).
    """
    active = set(TERM_NAMES if terms is None else terms)
    types = tuple(NEGATIVE_TYPES if enabled_types is None else enabled_types)
    taus = _temps(contract, log_temps)
    n = batch.n
    state = model.begin_step(params)
    sets = _RowSets(state, batch)
    d_log_temps = np.zeros(len(contract.prefixes))
    tau_slot = {k: i for i, k in enumerate(contract.prefixes)}
    values = {t: 0.0 for t in TERM_NAMES}
    work = np.empty((2, n, n))  # the InfoNCE buffers, shared by every align and retention term

    def infonce_into(k: int, level: str, weight: float) -> float:
        pi, pt = sets.unit("image", k), sets.unit(f"view:{level}", k)
        value, d_zi, d_zt, d_lt = _infonce_grad(pi, pt, batch.dim, taus[k], work)
        sets.add_grad("image", weight * d_zi)
        sets.add_grad(f"view:{level}", weight * d_zt)
        d_log_temps[tau_slot[k]] += weight * d_lt
        return value

    if "align" in active and config.align_weight > 0.0:
        for k in contract.prefixes:
            level = "G3" if config.align_view_mode == "g3" else contract.view_of[k]
            values["align"] += infonce_into(k, level, config.align_weight)

    if "ret" in active and config.lambda_ret > 0.0:
        # ascending (prefix, level) order: a config read back from JSON sums and trains bit-identically
        for k, per in sorted(config.retention_weights.items()):
            for level, alpha in sorted(per.items()):
                if alpha > 0.0:
                    values["ret"] += alpha * infonce_into(k, level, config.lambda_ret * alpha)

    def hinge_pair(r: str, k: int, threshold: float, weight: float, invariance: bool) -> float:
        positive, negative = f"view:{STYLE_VIEW[r]}", f"neg:{r}"
        cp, ctx_p = sets.paired_cosine(positive, k)
        cn, ctx_n = sets.paired_cosine(negative, k)
        gap = cp - cn
        h = np.abs(gap) - threshold if invariance else threshold - gap
        value = float(np.maximum(0.0, h).mean())
        d_gap = np.where(h > 0, np.sign(gap) if invariance else -1.0, 0.0) / n
        d_zi = np.zeros((n, batch.dim))
        d_zp = np.zeros((n, batch.dim))
        d_zn = np.zeros((n, batch.dim))
        _paired_cosine_backprop(weight * d_gap, ctx_p, d_zi, d_zp, k)
        _paired_cosine_backprop(-weight * d_gap, ctx_n, d_zi, d_zn, k)
        sets.add_grad("image", d_zi)
        sets.add_grad(positive, d_zp)
        sets.add_grad(negative, d_zn)
        return value

    if "rank" in active and config.lambda_rank > 0.0:
        for r in types:
            for k in contract.rank_prefixes(r):
                values["rank"] += hinge_pair(r, k, config.margins[r], config.lambda_rank, invariance=False)

    if "inv" in active and config.lambda_inv > 0.0:
        for r in types:
            for k in contract.invariance_prefixes(r):
                values["inv"] += hinge_pair(r, k, config.tolerances[r], config.lambda_inv, invariance=True)

    if "pres" in active and config.lambda_pres > 0.0 and not state.orthogonal:
        # no later term reads the prefixes or the InfoNCE buffers: free them before the three 2n x 2n
        # matrices.  Without this term there is nothing to make room for, and an early free only
        # lets the allocator trim the heap top and fault it back in on the next step.
        sets.drop_prefixes()
        del work
        d = batch.dim
        e_rows = np.concatenate([sets.raw("image"), sets.raw("view:G3")], axis=0)
        z_img = sets.z("image")
        z_txt = sets.z("view:G3")
        z_rows = np.concatenate([z_img, z_txt], axis=0)
        ue, _ = _unit_prefix(e_rows, d)
        uz, nz = _unit_prefix(z_rows, d)
        delta = uz @ uz.T - ue @ ue.T
        m = delta.shape[0]
        values["pres"] = float((delta * delta).mean())
        d_uz = (4.0 / (m * m)) * delta @ uz
        d_z = np.zeros_like(z_rows)
        _unit_prefix_backprop(config.lambda_pres * d_uz, uz, nz, d_z, d)
        sets.add_grad("image", d_z[: batch.n])
        sets.add_grad("view:G3", d_z[batch.n :])

    if "ortho" in active and config.lambda_ortho > 0.0 and not state.orthogonal and state.matrix is not None:
        w = state.matrix
        d = w.shape[0]
        o = w.T @ w - np.eye(d)
        values["ortho"] = float((o * o).sum() / (d * d))
        state.add_matrix_grad(config.lambda_ortho * (4.0 / (d * d)) * (w @ o))

    total = (
        config.align_weight * values["align"]
        + config.lambda_ret * values["ret"]
        + config.lambda_rank * values["rank"]
        + config.lambda_inv * values["inv"]
        + config.lambda_pres * values["pres"]
        + config.lambda_ortho * values["ortho"]
    )
    if not np.isfinite(total):
        raise GraspError("NONFINITE_LOSS", f"objective evaluated to {total}")

    sets.backprop()
    return total, Grads(params=state.finish(), log_temps=d_log_temps), values


# ---------------------------------------------------------------------------
# Finite-difference verification oracle


def flatten_grads(model: VariantModel, grads: Grads) -> np.ndarray:
    parts = [grads.params[name].ravel() for name in model.param_names]
    parts.append(np.asarray(grads.log_temps, dtype=np.float64).ravel())
    return np.concatenate(parts)


def flatten_state(model: VariantModel, params: dict[str, np.ndarray], log_temps: np.ndarray) -> np.ndarray:
    parts = [np.asarray(params[name], dtype=np.float64).ravel() for name in model.param_names]
    parts.append(np.asarray(log_temps, dtype=np.float64).ravel())
    return np.concatenate(parts)


def unflatten_state(model: VariantModel, template: dict[str, np.ndarray], n_temps: int, vec: np.ndarray):
    params = {}
    pos = 0
    for name in model.param_names:
        shape = template[name].shape
        size = int(np.prod(shape)) if shape else 1
        params[name] = vec[pos : pos + size].reshape(shape).copy()
        pos += size
    log_temps = vec[pos : pos + n_temps].copy()
    return params, log_temps


def central_difference_max_error(fn, x0: np.ndarray, analytic: np.ndarray, step: float, coords=None) -> float:
    """Max relative error between central differences of fn and analytic.

    Denominator is max(|numeric|, |analytic|, 1e-8) per coordinate.
    """
    if step <= 0:
        raise GraspError("CONFIG", "finite-difference step must be positive")
    idx = range(x0.size) if coords is None else coords
    worst = 0.0
    for i in idx:
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        num = (fn(xp) - fn(xm)) / (2.0 * step)
        err = abs(num - analytic[i]) / max(abs(num), abs(analytic[i]), 1e-8)
        worst = max(worst, err)
    return worst


def finite_difference_check(
    model: VariantModel,
    params: dict[str, np.ndarray],
    log_temps: np.ndarray,
    batch: Batch,
    config: LossConfig,
    contract: InterfaceContract,
    step: float = 1e-5,
    enabled_types=None,
    terms=None,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    Every coordinate is checked when the problem is small (dim <= 16 and no
    explicit cap); otherwise a seeded random subset of ``max_coords``
    coordinates (64 when no cap is given) is used.
    """
    _, grads, _ = total_loss_and_gradient(model, params, log_temps, batch, config, contract, enabled_types, terms)
    analytic = flatten_grads(model, grads)
    x0 = flatten_state(model, params, log_temps)
    n_temps = len(contract.prefixes)

    def fn(vec):
        p, lt = unflatten_state(model, params, n_temps, vec)
        value, _, _ = total_loss_and_gradient(model, p, lt, batch, config, contract, enabled_types, terms)
        return value

    coords = None
    if max_coords is None and batch.dim > 16:
        max_coords = 64
    if max_coords is not None and x0.size > max_coords:
        rng = np.random.default_rng(seed)
        coords = rng.choice(x0.size, size=max_coords, replace=False)
    return central_difference_max_error(fn, x0, analytic, step, coords)
