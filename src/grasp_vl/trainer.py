"""Minibatch training of the shared transform and prefix temperatures with a
warmup/negative curriculum and drift-gated checkpoint selection."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .datastore import EmbeddingCache, build_pool
from .errors import GraspError
from .metrics import full_drift, recall_at_1, selectivity, staircase, staircase_cells
from .objective import Batch, LossConfig, StepWorkspace, TERM_NAMES, default_retention_weights
from .objective import flatten_state, total_loss_and_gradient, unflatten_state
from .transforms import (
    Checkpoint,
    InterfaceContract,
    NEGATIVE_TYPES,
    TransformSpec,
    VIEW_LEVELS,
    fields_from_json,
    fields_to_json,
    make_model,
)

log = logging.getLogger(__name__)

CURRICULA = ("default", "all_after_warmup", "slow", "none")

# Stage order for the hard-negative curriculum; one stage is added per epoch
# ("default"), or per two epochs ("slow").
_STAGES = (("object",), ("attribute",), ("relation", "action", "order"), ("full",))

# Variants whose evaluated map is not orthogonal: by default they report drift
# instead of gating checkpoint selection on it.
_UNGATED_VARIANTS = ("low_rank", "mlp")


def enabled_types_for_epoch(curriculum: str, warmup_epochs: int, epoch: int) -> tuple[str, ...]:
    """Negative types active in a given 1-based epoch."""
    if curriculum not in CURRICULA:
        raise GraspError("CONFIG", f"unknown curriculum {curriculum!r}")
    if curriculum == "none":
        return NEGATIVE_TYPES
    if epoch <= warmup_epochs:
        return ()
    since = epoch - warmup_epochs
    if curriculum == "all_after_warmup":
        return NEGATIVE_TYPES
    per_stage = 2 if curriculum == "slow" else 1
    n_stages = min(len(_STAGES), (since + per_stage - 1) // per_stage)
    types: list[str] = []
    for stage in _STAGES[:n_stages]:
        types.extend(stage)
    return tuple(types)


@dataclass
class TrainConfig:
    spec: TransformSpec
    contract: InterfaceContract
    loss: LossConfig
    epochs: int = 12
    batch_size: int = 256
    seed: int = 0
    lr_transform: float = 1e-3
    lr_temps: float = 1e-3
    curriculum: str = "default"
    warmup_epochs: int = 3
    drift_gate: float | None = None  # None: 1e-5, or inf for the variants in _UNGATED_VARIANTS
    temperature_init: float = 0.07

    def __post_init__(self):
        if self.epochs < 1:
            raise GraspError("CONFIG", f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise GraspError("CONFIG", f"batch_size must be >= 2, got {self.batch_size}")
        if self.spec.dim != self.contract.dim:
            raise GraspError("CONFIG", f"spec dim {self.spec.dim} differs from contract dim {self.contract.dim}")
        for name in ("lr_transform", "lr_temps", "temperature_init"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise GraspError("CONFIG", f"{name} must be finite and > 0, got {v}")
        if self.warmup_epochs < 0 or self.seed < 0:
            raise GraspError("CONFIG", "warmup_epochs and seed must be >= 0")
        for k, per in self.loss.retention_weights.items():
            if k not in self.contract.prefixes or not set(per) <= set(VIEW_LEVELS):
                raise GraspError("CONFIG", f"retention weights {k}: {per} name a prefix or view outside the contract")
        if self.drift_gate is None:
            self.drift_gate = math.inf if self.spec.variant in _UNGATED_VARIANTS else 1e-5
        if not self.drift_gate > 0:
            raise GraspError("CONFIG", "drift_gate must be positive")
        if self.curriculum not in CURRICULA:
            raise GraspError("CONFIG", f"unknown curriculum {self.curriculum!r}")

    def to_json_dict(self) -> dict:
        return fields_to_json(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        """Settings from JSON; a key that is left out takes its default.  A left-out ``loss`` is an empty one, and a
        ``loss`` without ``retention_weights`` takes the contract's default ones."""
        config = fields_from_json(cls, {"loss": {}, **d})
        if "retention_weights" not in d.get("loss", {}):
            config.loss.retention_weights = default_retention_weights(config.contract)
        return config


@dataclass
class EpochStats:
    epoch: int
    term_means: dict[str, float]
    enabled_types: tuple[str, ...]
    val_ret_avg: float
    val_hard_avg: float
    val_stair: float
    val_drift: float
    temperatures: list[float]  # exp(log_temps) per prefix at the end of the epoch

    def to_json_dict(self) -> dict:
        return asdict(self)


class _Adam:
    """Per-coordinate adaptive first-order updates with bias correction.

    ``lr`` is a scalar or a per-coordinate vector; the update is elementwise.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, size: int, lr: float | np.ndarray):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return x - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def validation_scores(cache: EmbeddingCache, transform, contract: InterfaceContract):
    """(ret_avg, hard_avg, stair, drift) against the validation split.

    Drift is measured on the first 512 rows of the validation images followed
    by their G3 captions: images only once there are 512 validation rows.
    Only those rows are gathered and cast.
    """
    val_ids = cache.split_ids("val")
    if not val_ids:
        raise GraspError("MISSING_SPLIT", "cache has no validation split")
    pool_ids = tuple(sorted(val_ids))
    pools = {g: build_pool(cache, "custom", g, custom_ids=pool_ids) for g in VIEW_LEVELS}
    ret_cells, sel_cells = staircase_cells(contract)
    ret = [recall_at_1(cache, transform, pools[g], k, val_ids) for k, g in ret_cells]
    sel = [selectivity(cache, transform, k, r, val_ids) for k, r in sel_cells]
    idx = cache.indices_of(val_ids)[:512]
    rows = np.concatenate([cache.images[idx], cache.views["G3"][idx[: 512 - len(idx)]]]).astype(np.float64)
    return (*staircase(ret, sel), full_drift(rows, transform, renormalize=True))


@dataclass(eq=False)
class CheckpointCandidate:
    epoch: int
    stair: float
    drift: float
    params: dict[str, np.ndarray]
    log_temps: np.ndarray


def select_checkpoint(candidates: list[CheckpointCandidate], drift_gate: float) -> CheckpointCandidate:
    """Best validation staircase among drift-compliant candidates; earliest epoch wins ties."""
    if not candidates:
        raise GraspError("NO_VALID_CHECKPOINT", "no checkpoint candidates")
    eligible = [c for c in candidates if c.drift <= drift_gate]
    if not eligible:
        raise GraspError("NO_VALID_CHECKPOINT", f"no candidate has drift <= {drift_gate:g}")
    best = eligible[0]
    for c in eligible[1:]:
        if c.stair > best.stair:
            best = c
    return best


def train(config: TrainConfig, cache: EmbeddingCache):
    """Run the training loop; returns (checkpoint, history).

    Each step rebuilds the transform from its parameters, transforms the
    batch rows, assembles the curriculum-gated objective, and updates the
    transform parameters and log-temperatures.  Every step runs on one
    ``StepWorkspace``, which is dropped when training returns.  After each
    epoch the hardened transform is scored on the validation split; the
    returned checkpoint is the drift-gated best by validation staircase.
    """
    if cache.dim != config.spec.dim or cache.dim != config.contract.dim:
        raise GraspError("DIM_MISMATCH", "cache, spec and contract disagree on dim")
    train_ids = cache.split_ids("train")
    if not train_ids:
        raise GraspError("MISSING_SPLIT", "cache has no train split")
    model = make_model(config.spec)
    rng = np.random.default_rng(config.seed)
    params = model.init_params(rng)
    n_prefixes = len(config.contract.prefixes)
    log_temps = np.full(n_prefixes, math.log(config.temperature_init))

    flat = flatten_state(model, params, log_temps)
    lr = np.full(flat.size, config.lr_transform)
    lr[-n_prefixes:] = config.lr_temps  # flatten_state puts the log-temperatures last
    opt = _Adam(flat.size, lr)

    train_idx = cache.indices_of(train_ids)
    history: list[EpochStats] = []
    candidates: list[CheckpointCandidate] = []
    workspace = StepWorkspace()

    for epoch in range(1, config.epochs + 1):
        enabled = enabled_types_for_epoch(config.curriculum, config.warmup_epochs, epoch)
        order = rng.permutation(len(train_idx))
        term_sums = {t: 0.0 for t in TERM_NAMES}
        n_steps = 0
        t0 = time.perf_counter()
        for start in range(0, len(order), config.batch_size):
            batch_idx = train_idx[order[start : start + config.batch_size]]
            if len(batch_idx) < 2:
                continue  # a single pair makes the in-batch objective degenerate
            batch = Batch.from_cache(cache, batch_idx)
            _, grads, values = total_loss_and_gradient(
                model, params, log_temps, batch, config.loss, config.contract, enabled, workspace=workspace
            )
            flat = opt.step(flat, flatten_state(model, grads.params, grads.log_temps))
            params, log_temps = unflatten_state(model, flat)
            for t in TERM_NAMES:
                term_sums[t] += values[t]
            n_steps += 1
            del batch  # so that two batches are never alive at once
        step_s = time.perf_counter() - t0
        term_means = {t: (term_sums[t] / n_steps if n_steps else 0.0) for t in TERM_NAMES}

        t0 = time.perf_counter()
        transform = model.eval_transform(params)
        ret_avg, hard_avg, stair, drift = validation_scores(cache, transform, config.contract)
        val_s = time.perf_counter() - t0
        stats = EpochStats(
            epoch=epoch,
            term_means=term_means,
            enabled_types=enabled,
            val_ret_avg=ret_avg,
            val_hard_avg=hard_avg,
            val_stair=stair,
            val_drift=drift,
            temperatures=[float(t) for t in np.exp(log_temps)],
        )
        history.append(stats)
        candidates.append(
            CheckpointCandidate(
                epoch=epoch,
                stair=stair,
                drift=drift,
                params={k: v.copy() for k, v in params.items()},
                log_temps=log_temps.copy(),
            )
        )
        log.info(
            "epoch %d/%d types=%s %s val_stair=%.2f val_drift=%.2e step_ms=%.1f val_ms=%.1f",
            epoch,
            config.epochs,
            ",".join(enabled) or "-",
            " ".join(f"{t}={term_means[t]:.3e}" for t in TERM_NAMES),
            stair,
            drift,
            1e3 * step_s,
            1e3 * val_s,
        )

    best = select_checkpoint(candidates, config.drift_gate)
    meta = {
        "epoch": best.epoch,
        "val_stair": best.stair,
        "val_drift": best.drift,
        "loss_trace": [s.to_json_dict() for s in history],
    }
    return Checkpoint(config.spec, config.contract, best.log_temps, best.params, meta), history
