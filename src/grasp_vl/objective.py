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
    fields_from_json,
    fields_to_json,
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


# key in the JSON ``loss_weights`` object -> LossConfig field
_WEIGHT_FIELDS = {
    "ret": "lambda_ret",
    "rank": "lambda_rank",
    "inv": "lambda_inv",
    "pres": "lambda_pres",
    "ortho": "lambda_ortho",
    "align": "align_weight",
}


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
        for name in _WEIGHT_FIELDS.values():
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
        d = fields_to_json(self)
        d["loss_weights"] = {key: d.pop(name) for key, name in _WEIGHT_FIELDS.items()}
        d["retention_weights"] = {str(k): v for k, v in self.retention_weights.items()}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "LossConfig":
        """Settings from JSON, with the weights read from ``loss_weights`` only; a key that is left out, or an
        empty ``margins`` or ``tolerances`` object, takes the default."""
        kept = {k: v for k, v in d.items() if k not in _WEIGHT_FIELDS.values()}
        for name in ("margins", "tolerances"):
            if kept.get(name) == {}:
                del kept[name]
        weights = {_WEIGHT_FIELDS[k]: w for k, w in d.get("loss_weights", {}).items() if k in _WEIGHT_FIELDS}
        return fields_from_json(cls, {**kept, **weights})


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
# A shifted exp sum below this has lost precision in its smallest terms and is redone with its own maximum;
# at 1e-280 every term that can matter is still a normal float.
_SUM_FLOOR = 1e-280


def _unit_prefix(rows: np.ndarray, k: int):
    sl = rows[:, :k]
    norms = np.sqrt(np.einsum("ij,ij->i", sl, sl))[:, None]
    np.maximum(norms, _NORM_FLOOR, out=norms)
    return sl / norms, norms


def _unit_prefix_backprop(d_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray, d_rows: np.ndarray, k: int):
    inner = np.einsum("ij,ij->i", d_unit, unit)[:, None]
    d_rows[:, :k] += (d_unit - inner * unit) / norms


def _infonce_grad(ui: np.ndarray, ut: np.ndarray, tau: float, work: np.ndarray):
    """Symmetric InfoNCE over the unit k-prefixes ``ui``, ``ut`` of paired rows.

    Both softmaxes come from one ``exp(s - 1/tau)`` in ``work[0]``: every
    prefix cosine is at most 1, so 1/tau bounds every score ``s``.  A row or
    column whose shifted sum falls below ``_SUM_FLOOR`` (only when tau is
    below about 2/645) is redone with its own maximum.  The score gradient
    is built once in ``work[1]``.  Returns (value, g_i, g_t, d_log_tau),
    where g_i and g_t are the gradients with respect to ``ui`` and ``ut``.
    """
    n = ui.shape[0]
    inv_tau = 1.0 / tau
    e = np.matmul(ui, ut.T, out=work[0])
    e -= 1.0
    e *= inv_tau  # s - 1/tau
    shifted_diag = e.diagonal().copy()
    np.exp(e, out=e)
    log_sums, scales, redone = [], [], []
    for axis, own, other in ((1, ui, ut), (0, ut, ui)):
        total = e.sum(axis=axis)
        low = np.flatnonzero(total < _SUM_FLOOR)
        total[low] = 1.0  # a placeholder: the redone sums replace these entries
        log_sum = np.log(total)
        scale = 1.0 / (total * (2.0 * n * tau))  # softmax / (2 n tau) = e * scale
        if low.size:
            s = own[low] @ other.T
            s -= 1.0
            s *= inv_tau
            m = s.max(axis=1, keepdims=True)
            lse = m + np.log(np.exp(s - m).sum(axis=1, keepdims=True))
            log_sum[low] = lse[:, 0]
            scale[low] = 0.0
            s -= lse
            redone.append((axis, low, np.exp(s, out=s) / (2.0 * n * tau)))
        log_sums.append(log_sum)
        scales.append(scale)
    value = 0.5 * float(np.mean(log_sums[0] - shifted_diag) + np.mean(log_sums[1] - shifted_diag))
    dc = np.add.outer(scales[0], scales[1], out=work[1])
    dc *= e  # (row softmax + column softmax) / (2 n tau)
    for axis, low, part in redone:
        if axis == 1:
            dc[low] += part
        else:
            dc[:, low] += part.T
    diag = np.arange(n)
    dc[diag, diag] -= 1.0 / (n * tau)  # dc is now d value / d cosine
    g_i = dc @ ut
    g_t = dc.T @ ui
    d_log_tau = -float(np.vdot(ui, g_i))  # s = c * exp(-log tau)
    return value, g_i, g_t, d_log_tau


def _paired_cosine(pi, pt) -> np.ndarray:
    """Row-wise cosines of the ``(unit, norms)`` prefixes ``pi`` and ``pt``."""
    return np.einsum("ij,ij->i", pi[0], pt[0])


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
        self._cosine: dict[tuple[str, int], np.ndarray] = {}

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

    def dz(self, name: str) -> np.ndarray:
        """The gradient accumulator of row set ``name``, which ``z(name)`` created."""
        return self._dz[name]

    def unit(self, name: str, k: int):
        """``(unit, norms)`` of the k-prefixes of row set ``name``."""
        if (name, k) not in self._unit:
            self._unit[name, k] = _unit_prefix(self.z(name), k)
        return self._unit[name, k]

    def paired_cosine(self, other: str, k: int) -> np.ndarray:
        """The row-wise prefix-k cosines of the images with row set ``other``."""
        if (other, k) not in self._cosine:
            self._cosine[other, k] = _paired_cosine(self.unit("image", k), self.unit(other, k))
        return self._cosine[other, k]

    def drop_prefixes(self) -> None:
        """Free the cached prefixes and cosines once the last term that reads them has run."""
        self._unit.clear()
        self._cosine.clear()

    def add_unit_grad(self, name: str, k: int, d_unit: np.ndarray) -> None:
        """Back-propagate a gradient with respect to the unit k-prefixes of ``name`` into its accumulator."""
        unit, norms = self.unit(name, k)
        _unit_prefix_backprop(d_unit, unit, norms, self._dz[name], k)

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
        view = f"view:{level}"
        value, g_i, g_t, d_lt = _infonce_grad(sets.unit("image", k)[0], sets.unit(view, k)[0], taus[k], work)
        g_i *= weight
        g_t *= weight
        sets.add_unit_grad("image", k, g_i)
        sets.add_unit_grad(view, k, g_t)
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
        gap = sets.paired_cosine(positive, k) - sets.paired_cosine(negative, k)
        h = np.abs(gap) - threshold if invariance else threshold - gap
        value = float(np.maximum(0.0, h).mean())
        # d value / d gap, weighted; gap = <u_image, u_positive> - <u_image, u_negative>
        d_gap = weight * (np.where(h > 0, np.sign(gap) if invariance else -1.0, 0.0) / n)[:, None]
        u_image = sets.unit("image", k)[0]
        sets.add_unit_grad("image", k, d_gap * (sets.unit(positive, k)[0] - sets.unit(negative, k)[0]))
        sets.add_unit_grad(positive, k, d_gap * u_image)
        sets.add_unit_grad(negative, k, -d_gap * u_image)
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
        d_uz = config.lambda_pres * ((4.0 / (m * m)) * delta @ uz)
        for name, rows in (("image", slice(0, n)), ("view:G3", slice(n, m))):
            _unit_prefix_backprop(d_uz[rows], uz[rows], nz[rows], sets.dz(name), d)

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
