"""The granularity-selective loss, its exact gradients, and the
finite-difference verification oracle.

Gradient layout mirrors the parameter containers: a dict of arrays per
transform parameter plus one array of per-prefix log-temperatures.
"""

from __future__ import annotations

import math
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


# each term's default weight, keyed by its name, in the order the total sums the terms
DEFAULT_WEIGHTS = {"align": 1.0, "ret": 0.5, "rank": 1.0, "inv": 0.5, "pres": 10.0, "ortho": 1.0}
TERM_NAMES = tuple(DEFAULT_WEIGHTS)


@dataclass
class LossConfig:
    loss_weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))  # 0 drops a term
    margins: dict[str, float] = field(default_factory=lambda: {r: 0.1 for r in NEGATIVE_TYPES})
    tolerances: dict[str, float] = field(default_factory=lambda: {r: 0.05 for r in NEGATIVE_TYPES})
    retention_weights: dict[int, dict[str, float]] = field(default_factory=dict)
    align_view_mode: str = "assigned"  # "assigned" aligns each prefix to its view; "g3" aligns all to G3

    def __post_init__(self):
        if set(self.loss_weights) != set(TERM_NAMES):
            raise GraspError("CONFIG", f"loss_weights must name exactly {TERM_NAMES}")
        if set(self.margins) != set(NEGATIVE_TYPES) or set(self.tolerances) != set(NEGATIVE_TYPES):
            raise GraspError("CONFIG", f"margins and tolerances must name exactly {NEGATIVE_TYPES}")
        tables = {"loss_weights": self.loss_weights, "margins": self.margins, "tolerances": self.tolerances}
        tables.update((f"retention_weights[{k}]", per) for k, per in self.retention_weights.items())
        for name, table in tables.items():
            for key, v in table.items():
                if not (math.isfinite(v) and v >= 0):
                    raise GraspError("CONFIG", f"{name}[{key!r}] must be finite and >= 0, got {v}")
        if self.align_view_mode not in ("assigned", "g3"):
            raise GraspError("CONFIG", f"unknown align_view_mode {self.align_view_mode!r}")

    @classmethod
    def default(cls, contract: InterfaceContract, **overrides) -> "LossConfig":
        return replace(cls(retention_weights=default_retention_weights(contract)), **overrides)

    def to_json_dict(self) -> dict:
        d = fields_to_json(self)
        d["retention_weights"] = {str(k): v for k, v in self.retention_weights.items()}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "LossConfig":
        """Settings from JSON; a key, or a ``loss_weights`` term, that is left out, or an empty ``margins`` or
        ``tolerances`` object, takes the default.  A ``loss_weights`` key that names no term is ignored."""
        given = d.get("loss_weights", {})
        kept = {**d, "loss_weights": {t: given.get(t, w) for t, w in DEFAULT_WEIGHTS.items()}}
        for name in ("margins", "tolerances"):
            if kept.get(name) == {}:
                del kept[name]
        return fields_from_json(cls, kept)


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


def _unit_prefix(rows: np.ndarray, k: int, out: np.ndarray | None = None):
    sl = rows[:, :k]
    norms = np.sqrt(np.einsum("ij,ij->i", sl, sl))[:, None]
    np.maximum(norms, _NORM_FLOOR, out=norms)
    return np.divide(sl, norms, out=out), norms


def _unit_prefix_backprop(d_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray, d_rows: np.ndarray, k: int):
    """Add the gradient carried back from ``d_unit`` through the prefix normalization into ``d_rows[:, :k]``;
    ``d_unit`` is overwritten."""
    inner = np.einsum("ij,ij->i", d_unit, unit)[:, None]
    d_unit -= inner * unit
    d_unit /= norms
    d_rows[:, :k] += d_unit


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
    dc = work[1]
    dc[...] = scales[0][:, None]
    dc += scales[1]
    dc *= e  # (row softmax + column softmax) / (2 n tau)
    for axis, low, part in redone:
        if axis == 1:
            dc[low] += part
        else:
            dc[:, low] += part.T
    dc.flat[:: n + 1] -= 1.0 / (n * tau)  # dc is now d value / d cosine
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


class StepWorkspace:
    """Float64 buffers that the objective steps of one training run reuse, handed out as contiguous leading views.

    Each buffer is sized by the first request under its key and replaced only by a larger one, so a short last
    batch reads leading views of the first batch's buffers.  A request for a key, user and shape seen before gets
    the same view object back.  The steps then allocate little besides n x k temporaries, and the heap keeps its
    shape from step to step instead of being trimmed and faulted back in.
    """

    def __init__(self):
        self._flat: dict[object, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def array(self, key, shape: tuple[int, ...], size: int = 0, user=None) -> np.ndarray:
        """An uninitialized array of ``shape`` over the leading elements of buffer ``key``, which holds at least
        ``size`` elements.  Users that take turns in one buffer get their own view objects."""
        view = self._views.get((key, user, shape))
        if view is None:
            used = math.prod(shape)
            flat = self._flat.get(key)
            if flat is None or flat.size < used:
                flat = self._flat[key] = np.empty(max(used, size))
                self._views = {k: v for k, v in self._views.items() if k[0] != key}
            view = self._views[key, user, shape] = flat[:used].reshape(shape)
        return view


class _RowSets:
    """Lazy row sets, k-prefixes and paired cosines of one step, with per-set gradient accumulators.

    The transformed rows, the accumulators, the unit prefixes and the per-prefix unit-gradient sums live in a
    ``StepWorkspace``, each set's in one n x D buffer.  Prefixes are built for one k at a time: ``end_prefix``
    back-propagates each row set's summed unit gradient at k once and drops that k's prefixes and cosines.
    """

    def __init__(self, state, batch: Batch, workspace: StepWorkspace):
        self._state = state
        self._batch = batch
        self._ws = workspace
        self._z: dict[str, np.ndarray] = {}
        self._ctx: dict[str, object] = {}
        self._dz: dict[str, np.ndarray] = {}
        self._unit: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        self._cosine: dict[tuple[str, int], np.ndarray] = {}
        self._d_unit: dict[str, np.ndarray] = {}  # row set -> summed gradient w.r.t. its unit prefixes at this k

    def raw(self, name: str) -> np.ndarray:
        if name == "image":
            return self._batch.images
        kind, _, key = name.partition(":")
        return self._batch.views[key] if kind == "view" else self._batch.negatives[key]

    def _rows(self, kind: str, name: str, k: int) -> np.ndarray:
        """The (n, k) array of ``kind`` for row set ``name``, over the leading elements of its n x D buffer.  The
        negatives' unit prefixes take turns in one buffer: each is read by one hinge, which drops it."""
        n, d = self._batch.images.shape
        owner = "neg" if kind == "unit" and name.startswith("neg:") else name
        return self._ws.array((kind, owner), (n, k), n * d, user=name)

    def z(self, name: str) -> np.ndarray:
        if name not in self._z:
            d = self._batch.dim
            self._z[name], self._ctx[name] = self._state.apply(self.raw(name), out=self._rows("z", name, d))
            self._dz[name] = self._rows("dz", name, d)
            self._dz[name].fill(0.0)
        return self._z[name]

    def dz(self, name: str) -> np.ndarray:
        """The gradient accumulator of row set ``name``, which ``z(name)`` created."""
        return self._dz[name]

    def unit(self, name: str, k: int):
        """``(unit, norms)`` of the k-prefixes of row set ``name``."""
        if (name, k) not in self._unit:
            self._unit[name, k] = _unit_prefix(self.z(name), k, out=self._rows("unit", name, k))
        return self._unit[name, k]

    def paired_cosine(self, other: str, k: int) -> np.ndarray:
        """The row-wise prefix-k cosines of the images with row set ``other``."""
        if (other, k) not in self._cosine:
            self._cosine[other, k] = _paired_cosine(self.unit("image", k), self.unit(other, k))
        return self._cosine[other, k]

    def add_unit_grad(self, name: str, k: int, d_unit: np.ndarray) -> None:
        """Add a gradient with respect to the unit k-prefixes of ``name`` into that prefix's sum."""
        total = self._d_unit.get(name)
        if total is None:
            self._d_unit[name] = total = self._rows("d_unit", name, k)
            np.copyto(total, d_unit)
        else:
            total += d_unit

    def backprop_negative_grad(self, name: str, k: int, d_unit: np.ndarray) -> None:
        """Back-propagate the only gradient that negative row set ``name`` gets at k straight into its accumulator,
        and drop its k-prefix and cosine, whose buffer the next negative reuses."""
        unit, norms = self._unit.pop((name, k))
        del self._cosine[name, k]
        _unit_prefix_backprop(d_unit, unit, norms, self._dz[name], k)

    def end_prefix(self, k: int) -> None:
        """Back-propagate each row set's unit-gradient sum at k into its accumulator; drop k's prefixes and cosines."""
        for name, d_unit in self._d_unit.items():
            unit, norms = self._unit[name, k]
            _unit_prefix_backprop(d_unit, unit, norms, self._dz[name], k)
        self._d_unit.clear()
        self._unit.clear()
        self._cosine.clear()

    def backprop(self) -> None:
        # one fixed set order, so the matrix gradient sums the same way whichever term first read a set
        for name in ("image", *(f"view:{g}" for g in VIEW_LEVELS), *(f"neg:{r}" for r in NEGATIVE_TYPES)):
            dz = self._dz.get(name)
            if dz is not None and np.any(dz):
                self._state.vjp(self._ctx[name], dz)


def _preservation_into(sets: _RowSets, weight: float) -> float:
    """The preservation term ``||UZ UZ^T - UE UE^T||^2 / m^2`` over the m = 2n unit rows of the images stacked on
    the G3 rows, after (UZ) and before (UE) the map; its weighted gradient goes into both row sets' accumulators.

    With ``[UZ UE] = Q [RZ RE]`` the QR factorization of the m x 2D matrix of both, the value is ``||RZ RZ^T -
    RE RE^T||^2 / m^2`` and the gradient with respect to UZ is ``4 (UZ (RZ^T RZ) - UE (RE^T RZ)) / m^2``.  The
    Gram identity ``||UZ^T UZ||^2 - 2 ||UE^T UZ||^2 + ||UE^T UE||^2`` squares before it subtracts: a value near
    1e-7 loses too many bits to it for the finite-difference check.
    """
    images, texts = sets.raw("image"), sets.raw("view:G3")
    n, d = images.shape
    ue, _ = _unit_prefix(np.concatenate([images, texts], axis=0), d)
    uz, nz = _unit_prefix(np.concatenate([sets.z("image"), sets.z("view:G3")], axis=0), d)
    m = 2 * n
    r = np.linalg.qr(np.concatenate([uz, ue], axis=1), mode="r")
    rz, re = r[:, :d], r[:, d:]
    delta = rz @ rz.T - re @ re.T
    value = float((delta * delta).sum() / (m * m))
    d_uz = uz @ (rz.T @ rz) - ue @ (re.T @ rz)
    d_uz *= 4.0 * weight / (m * m)
    for name, rows in (("image", slice(0, n)), ("view:G3", slice(n, m))):
        _unit_prefix_backprop(d_uz[rows], uz[rows], nz[rows], sets.dz(name), d)
    return value


def total_loss_and_gradient(
    model: VariantModel,
    params: dict[str, np.ndarray],
    log_temps: np.ndarray,
    batch: Batch,
    config: LossConfig,
    contract: InterfaceContract,
    enabled_types=None,
    workspace: StepWorkspace | None = None,
):
    """Weighted objective value plus exact gradients.

    ``enabled_types`` gates which negative types feed rank/invariance
    (curriculum); a term whose weight is 0 is not computed.  The step
    runs prefix by prefix: every align, retention, rank and invariance term
    that reads k runs, then each row set's summed unit gradient at k is
    back-propagated once.  Each term value still sums in term-major order.
    ``workspace`` holds the step's large buffers; a training run passes one
    to every step, and without one the step builds its own.  Returns
    (total, Grads, per-term values).
    """
    types = tuple(NEGATIVE_TYPES if enabled_types is None else enabled_types)
    taus = _temps(contract, log_temps)
    if not set(config.retention_weights) <= set(contract.prefixes):
        raise GraspError("CONFIG", f"retention weights name prefixes outside {contract.prefixes}")
    n = batch.n
    state = model.begin_step(params)
    ws = StepWorkspace() if workspace is None else workspace
    sets = _RowSets(state, batch, ws)
    d_log_temps = np.zeros(len(contract.prefixes))
    tau_slot = {k: i for i, k in enumerate(contract.prefixes)}
    values = {t: 0.0 for t in TERM_NAMES}
    w = config.loss_weights

    if w["pres"] > 0.0 and not state.orthogonal:
        values["pres"] = _preservation_into(sets, w["pres"])

    def infonce_into(k: int, level: str, weight: float) -> float:
        view = f"view:{level}"
        work = ws.array("square", (2, n, n))  # shared by every align and retention term
        value, g_i, g_t, d_lt = _infonce_grad(sets.unit("image", k)[0], sets.unit(view, k)[0], taus[k], work)
        g_i *= weight
        g_t *= weight
        sets.add_unit_grad("image", k, g_i)
        sets.add_unit_grad(view, k, g_t)
        d_log_temps[tau_slot[k]] += weight * d_lt
        return value

    def hinge_pair(r: str, k: int, threshold: float, weight: float, invariance: bool) -> float:
        positive, negative = f"view:{STYLE_VIEW[r]}", f"neg:{r}"
        gap = sets.paired_cosine(positive, k) - sets.paired_cosine(negative, k)
        h = np.abs(gap) - threshold if invariance else threshold - gap
        value = float(np.maximum(0.0, h).mean())
        # d value / d gap, weighted; gap = <u_image, u_positive> - <u_image, u_negative>
        d_gap = weight * (np.where(h > 0, np.sign(gap) if invariance else -1.0, 0.0) / n)[:, None]
        sets.add_unit_grad("image", k, d_gap * (sets.unit(positive, k)[0] - sets.unit(negative, k)[0]))
        d_other = d_gap * sets.unit("image", k)[0]
        sets.add_unit_grad(positive, k, d_other)
        sets.backprop_negative_grad(negative, k, np.negative(d_other, out=d_other))  # no other term reads it at k
        return value

    hinges = {}  # (term, type, k) -> value, summed type-major below
    for k in contract.prefixes:
        if w["align"] > 0.0:
            level = "G3" if config.align_view_mode == "g3" else contract.view_of[k]
            values["align"] += infonce_into(k, level, w["align"])
        if w["ret"] > 0.0:
            # ascending (prefix, level) order: a config read back from JSON sums and trains bit-identically
            for level, alpha in sorted(config.retention_weights.get(k, {}).items()):
                if alpha > 0.0:
                    values["ret"] += alpha * infonce_into(k, level, w["ret"] * alpha)
        for r in types:
            if w["rank"] > 0.0 and k >= contract.kappa[r]:
                hinges["rank", r, k] = hinge_pair(r, k, config.margins[r], w["rank"], invariance=False)
            if w["inv"] > 0.0 and k < contract.kappa[r]:
                hinges["inv", r, k] = hinge_pair(r, k, config.tolerances[r], w["inv"], invariance=True)
        sets.end_prefix(k)
    for term, prefixes_of in (("rank", contract.rank_prefixes), ("inv", contract.invariance_prefixes)):
        for r in types:  # type-major, the order of a step that ran each term whole
            for k in prefixes_of(r):
                values[term] += hinges.get((term, r, k), 0.0)

    if w["ortho"] > 0.0 and not state.orthogonal and state.matrix is not None:
        m = state.matrix
        d = m.shape[0]
        o = m.T @ m - np.eye(d)
        values["ortho"] = float((o * o).sum() / (d * d))
        state.add_matrix_grad(w["ortho"] * (4.0 / (d * d)) * (m @ o))

    total = sum(w[t] * values[t] for t in TERM_NAMES)
    if not np.isfinite(total):
        raise GraspError("NONFINITE_LOSS", f"objective evaluated to {total}")

    sets.backprop()
    return total, Grads(params=state.finish(), log_temps=d_log_temps), values


# ---------------------------------------------------------------------------
# Finite-difference verification oracle


def flatten_state(model: VariantModel, params: dict[str, np.ndarray], log_temps: np.ndarray) -> np.ndarray:
    """Parameters in ``model.shapes`` order, then log-temperatures, as one vector; gradients flatten the same way."""
    parts = [np.asarray(params[name], dtype=np.float64).ravel() for name in model.shapes]
    parts.append(np.asarray(log_temps, dtype=np.float64).ravel())
    return np.concatenate(parts)


def unflatten_state(model: VariantModel, vec: np.ndarray):
    """The ``(params, log_temps)`` that ``flatten_state`` laid out as ``vec``, copied out of it."""
    params = {}
    pos = 0
    for name, shape in model.shapes.items():
        size = math.prod(shape)
        params[name] = vec[pos : pos + size].reshape(shape).copy()
        pos += size
    return params, vec[pos:].copy()


def central_difference_max_error(fn, x0: np.ndarray, analytic: np.ndarray, step: float, coords=None) -> float:
    """Max relative error between central differences of fn and analytic.

    Denominator is max(|numeric|, |analytic|, 1e-8) per coordinate.
    """
    if not 0 < step < math.inf:  # a NaN step fails too
        raise GraspError("CONFIG", f"finite-difference step must be finite and positive, got {step:g}")
    idx = range(x0.size) if coords is None else coords
    errs = []
    for i in idx:
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        num = (fn(xp) - fn(xm)) / (2.0 * step)
        errs.append(abs(num - analytic[i]) / max(abs(num), abs(analytic[i]), 1e-8))
    # np.max keeps a NaN error, which Python's max() may drop
    return float(np.max(errs, initial=0.0))


def finite_difference_check(
    model: VariantModel,
    params: dict[str, np.ndarray],
    log_temps: np.ndarray,
    batch: Batch,
    config: LossConfig,
    contract: InterfaceContract,
    step: float = 1e-5,
    enabled_types=None,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    Every coordinate is checked when the problem is small (dim <= 16 and no
    explicit cap); otherwise a seeded random subset of ``max_coords``
    coordinates (64 when no cap is given) is used.
    """
    _, grads, _ = total_loss_and_gradient(model, params, log_temps, batch, config, contract, enabled_types)
    analytic = flatten_state(model, grads.params, grads.log_temps)
    x0 = flatten_state(model, params, log_temps)

    def fn(vec):
        p, lt = unflatten_state(model, vec)
        value, _, _ = total_loss_and_gradient(model, p, lt, batch, config, contract, enabled_types)
        return value

    coords = None
    if max_coords is None and batch.dim > 16:
        max_coords = 64
    if max_coords is not None and x0.size > max_coords:
        rng = np.random.default_rng(seed)
        coords = rng.choice(x0.size, size=max_coords, replace=False)
    return central_difference_max_error(fn, x0, analytic, step, coords)
