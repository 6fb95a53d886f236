"""Minibatch training of the shared transform and prefix temperatures with a
warmup/negative curriculum and drift-gated checkpoint selection."""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .datastore import EmbeddingCache, build_pool
from .errors import GraspError
from .metrics import full_drift, hard_average, recall_at_1, retrieval_average, sel_table, stair_score
from .objective import Batch, LossConfig, TERM_NAMES, total_loss_and_gradient
from .objective import flatten_grads, flatten_state, unflatten_state
from .transforms import (
    Checkpoint,
    InterfaceContract,
    NEGATIVE_TYPES,
    TransformSpec,
    VIEW_LEVELS,
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
        return {
            "spec": self.spec.to_json_dict(),
            "contract": self.contract.to_json_dict(),
            "loss": self.loss.to_json_dict(),
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "lr_transform": self.lr_transform,
            "lr_temps": self.lr_temps,
            "curriculum": self.curriculum,
            "warmup_epochs": self.warmup_epochs,
            "drift_gate": self.drift_gate,
            "temperature_init": self.temperature_init,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        return cls(
            spec=TransformSpec.from_json_dict(d["spec"]),
            contract=InterfaceContract.from_json_dict(d["contract"]),
            loss=LossConfig.from_json_dict(d.get("loss", {})),
            epochs=int(d.get("epochs", 12)),
            batch_size=int(d.get("batch_size", 256)),
            seed=int(d.get("seed", 0)),
            lr_transform=float(d.get("lr_transform", 1e-3)),
            lr_temps=float(d.get("lr_temps", 1e-3)),
            curriculum=d.get("curriculum", "default"),
            warmup_epochs=int(d.get("warmup_epochs", 3)),
            drift_gate=float(d["drift_gate"]) if "drift_gate" in d else None,
            temperature_init=float(d.get("temperature_init", 0.07)),
        )


@dataclass
class EpochStats:
    epoch: int
    term_means: dict[str, float]
    enabled_types: tuple[str, ...]
    val_ret_avg: float
    val_hard_avg: float
    val_stair: float
    val_drift: float

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
    """(ret_avg, hard_avg, stair, drift) against the validation split; drift over its first 512 rows."""
    val_ids = cache.split_ids("val")
    if not val_ids:
        raise GraspError("MISSING_SPLIT", "cache has no validation split")
    pool_ids = tuple(sorted(val_ids))
    ret_cells = {}
    for k in contract.prefixes:
        if k == contract.dim:
            continue
        level = contract.view_of[k]
        pool = build_pool(cache, "custom", level, custom_ids=pool_ids)
        ret_cells[k] = recall_at_1(cache, transform, pool, k, val_ids)
    sel = sel_table(cache, transform, contract, val_ids)
    ret_avg = retrieval_average(ret_cells, contract)
    hard_avg = hard_average(sel, contract)
    idx = cache.indices_of(val_ids)
    rows = np.concatenate([cache.images[idx], cache.views["G3"][idx]], axis=0).astype(np.float64)[:512]
    drift = full_drift(rows, transform, renormalize=True)
    return ret_avg, hard_avg, stair_score(ret_avg, hard_avg), drift


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
    transform parameters and log-temperatures.  After each epoch the hardened
    transform is scored on the validation split; the returned checkpoint is
    the drift-gated best by validation staircase.
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

    for epoch in range(1, config.epochs + 1):
        enabled = enabled_types_for_epoch(config.curriculum, config.warmup_epochs, epoch)
        order = rng.permutation(len(train_idx))
        term_sums = {t: 0.0 for t in TERM_NAMES}
        n_steps = 0
        for start in range(0, len(order), config.batch_size):
            batch_idx = train_idx[order[start : start + config.batch_size]]
            if len(batch_idx) < 2:
                continue  # a single pair makes the in-batch objective degenerate
            batch = Batch.from_cache(cache, batch_idx)
            _, grads, values = total_loss_and_gradient(
                model, params, log_temps, batch, config.loss, config.contract, enabled_types=enabled
            )
            flat = opt.step(flat, flatten_grads(model, grads))
            params, log_temps = unflatten_state(model, params, n_prefixes, flat)
            for t in TERM_NAMES:
                term_sums[t] += values[t]
            n_steps += 1
        term_means = {t: (term_sums[t] / n_steps if n_steps else 0.0) for t in TERM_NAMES}

        transform = model.eval_transform(params)
        ret_avg, hard_avg, stair, drift = validation_scores(cache, transform, config.contract)
        stats = EpochStats(
            epoch=epoch,
            term_means=term_means,
            enabled_types=enabled,
            val_ret_avg=ret_avg,
            val_hard_avg=hard_avg,
            val_stair=stair,
            val_drift=drift,
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
            "epoch %d/%d types=%s %s val_stair=%.2f val_drift=%.2e",
            epoch,
            config.epochs,
            ",".join(enabled) or "-",
            " ".join(f"{t}={term_means[t]:.3e}" for t in TERM_NAMES),
            stair,
            drift,
        )

    best = select_checkpoint(candidates, config.drift_gate)
    meta = {
        "epoch": best.epoch,
        "val_stair": best.stair,
        "val_drift": best.drift,
        "loss_trace": [s.to_json_dict() for s in history],
    }
    return Checkpoint(config.spec, config.contract, best.log_temps, best.params, meta), history
