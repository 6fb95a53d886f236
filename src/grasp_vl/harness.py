"""Experiment grids: method comparison, boundary-map sensitivity,
candidate-pool sensitivity, and the scaling-cost estimator."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datastore import EmbeddingCache, build_pool
from .errors import GraspError
from .metrics import (
    DiagnosticReport,
    HARD_AVG_TYPES,
    diagnostic_report,
    drift_rows,
    full_drift,
    hard_average,
    leakage,
    recall_at_1,
    retrieval_average,
    sel_table,
    selectivity,
    stair_score,
)
from .objective import LossConfig
from .trainer import TrainConfig, train
from .transforms import (
    NEGATIVE_TYPES,
    VIEW_LEVELS,
    Checkpoint,
    InterfaceContract,
    TransformSpec,
    fit_pca,
    identity_transform,
    param_count,
    random_orthogonal,
)

METHOD_ORDER = (
    "frozen_full",
    "direct_prefix",
    "pca_prefix",
    "random_rotation",
    "mrl_style",
    "matryoshka_adaptor",
    "smec_style",
    "mlp_adapter",
    "learned_permutation",
    "learned_signed_permutation",
    "grasp_dense",
    "grasp_butterfly",
)

# Trained methods: transform variant plus which parts of the objective they
# use.  Compression-style baselines keep their nested-retrieval spirit and do
# not use the typed boundary losses; the permutation/MLP controls train with
# the full objective.
_TRAINED = {
    "mrl_style": ("dense_cayley", {"align_view_mode": "g3", "lambda_ret": 0.0, "lambda_rank": 0.0, "lambda_inv": 0.0}),
    "matryoshka_adaptor": ("low_rank", {"align_view_mode": "g3", "lambda_ret": 0.0, "lambda_rank": 0.0, "lambda_inv": 0.0}),
    "smec_style": ("dense_cayley", {"lambda_rank": 0.0, "lambda_inv": 0.0}),
    "mlp_adapter": ("mlp", {}),
    "learned_permutation": ("permutation", {}),
    "learned_signed_permutation": ("signed_permutation", {}),
    "grasp_dense": ("dense_cayley", {}),
    "grasp_butterfly": ("butterfly", {}),
}


@dataclass
class GridConfig:
    contract: InterfaceContract
    epochs: int = 20
    batch_size: int = 256
    seed: int = 0
    lr: float = 3e-3
    warmup_epochs: int = 3
    curriculum: str = "default"
    pool_mode: str = "full"
    stacks: int = 8
    rank: int = 32
    methods: tuple[str, ...] | None = None


@dataclass
class MethodRow:
    method: str
    stair: float | None
    emergence_mean: float | None
    cap_r1: float
    hard_avg: float
    drift: float
    params: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class MethodComparison:
    rows: list[MethodRow]
    reports: dict[str, DiagnosticReport]
    checkpoints: dict[str, Checkpoint]


def _method_seed(grid: GridConfig, method: str) -> int:
    return grid.seed + 1000 * METHOD_ORDER.index(method)


def _train_method(cache: EmbeddingCache, grid: GridConfig, method: str):
    variant, overrides = _TRAINED[method]
    spec = TransformSpec(variant, cache.dim, stacks=grid.stacks, rank=grid.rank)
    cfg = TrainConfig(
        spec=spec,
        contract=grid.contract,
        loss=LossConfig.default(grid.contract, **overrides),
        epochs=grid.epochs,
        batch_size=grid.batch_size,
        seed=_method_seed(grid, method),
        lr_transform=grid.lr,
        lr_temps=grid.lr,
        curriculum=grid.curriculum,
        warmup_epochs=grid.warmup_epochs,
    )
    checkpoint, _ = train(cfg, cache)
    return checkpoint


def run_method_comparison(cache: EmbeddingCache, grid: GridConfig) -> MethodComparison:
    """Evaluate the full method family on one cache; deterministic in the seed."""
    methods = grid.methods if grid.methods is not None else METHOD_ORDER
    for m in methods:
        if m not in METHOD_ORDER:
            raise GraspError("UNKNOWN_METHOD", f"no such method {m!r}")
    contract = grid.contract
    dim = cache.dim
    n_prefixes = len(contract.prefixes)
    rows: list[MethodRow] = []
    reports: dict[str, DiagnosticReport] = {}
    checkpoints: dict[str, Checkpoint] = {}

    for method in METHOD_ORDER:
        if method not in methods:
            continue
        if method == "frozen_full":
            transform = identity_transform(dim)
            test_ids = cache.split_ids("test")
            pool = build_pool(cache, grid.pool_mode, "G3")
            cap = recall_at_1(cache, transform, pool, dim, test_ids)
            hard = float(
                np.mean([selectivity(cache, transform, dim, r, test_ids) for r in HARD_AVG_TYPES])
            )
            rows.append(
                MethodRow(method=method, stair=None, emergence_mean=None, cap_r1=cap, hard_avg=hard, drift=0.0, params=0)
            )
            continue
        if method == "direct_prefix":
            transform, params = identity_transform(dim), 0
        elif method == "pca_prefix":
            train_idx = cache.indices_of(cache.split_ids("train"))
            fit_rows = np.concatenate(
                [cache.images[train_idx], cache.views["G3"][train_idx]], axis=0
            ).astype(np.float64)
            transform, params = fit_pca(fit_rows), 0
        elif method == "random_rotation":
            transform, params = random_orthogonal(dim, _method_seed(grid, method)), 0
        else:
            checkpoint = _train_method(cache, grid, method)
            checkpoints[method] = checkpoint
            transform = checkpoint.eval_transform()
            params = param_count(checkpoint.spec, n_prefixes)
        rep = diagnostic_report(cache, transform, contract, pool_mode=grid.pool_mode)
        reports[method] = rep
        rows.append(
            MethodRow(
                method=method,
                stair=rep.stair,
                emergence_mean=rep.emergence_mean,
                cap_r1=rep.retrieval[(contract.prefixes[-2], "G3")],
                hard_avg=rep.hard_avg,
                drift=rep.drift,
                params=params,
            )
        )
    return MethodComparison(rows=rows, reports=reports, checkpoints=checkpoints)


# ---------------------------------------------------------------------------
# Boundary-map sensitivity


def default_kappa_variants(dim: int) -> dict[str, InterfaceContract]:
    base = InterfaceContract.default_ladder(dim)
    ks = base.prefixes

    def shifted(attr_k: int, rel_k: int) -> InterfaceContract:
        kappa = dict(base.kappa)
        kappa["attribute"] = attr_k
        kappa["relation"] = kappa["action"] = kappa["order"] = rel_k
        return InterfaceContract(prefixes=base.prefixes, view_of=dict(base.view_of), kappa=kappa)

    return {
        "default": base,
        "relation_delayed": shifted(ks[1], ks[3]),
        "attribute_delayed": shifted(ks[2], ks[2]),
        "compressed_attr_rel": shifted(ks[1], ks[1]),
    }


@dataclass
class KappaRow:
    setting: str
    attr_kappa: int
    rel_kappa: int
    attr_at_kappa: float
    rel_ao_at_kappa: float
    full_at_kappa: float
    contract_hard_avg: float
    pre_kappa_leak: float
    default_stair: float
    cap_r1: float
    drift: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def run_kappa_sensitivity(
    cache: EmbeddingCache,
    grid: GridConfig,
    variants: dict[str, InterfaceContract] | None = None,
) -> list[KappaRow]:
    """Train one model per boundary-map variant and score it both under its
    own contract and under the default ladder."""
    if variants is None:
        variants = default_kappa_variants(cache.dim)
    for name, contract in variants.items():
        if not isinstance(contract, InterfaceContract):
            raise GraspError("INVALID_CONTRACT", f"variant {name!r} is not an interface contract")
        if contract.dim != cache.dim:
            raise GraspError("INVALID_CONTRACT", f"variant {name!r} dim {contract.dim} != cache dim {cache.dim}")
    default_contract = InterfaceContract.default_ladder(cache.dim)
    test_ids = cache.split_ids("test")
    rows = []
    for name, contract in variants.items():
        vgrid = replace(grid, contract=contract)
        checkpoint = _train_method(cache, vgrid, "grasp_dense")
        transform = checkpoint.eval_transform()
        st = sel_table(cache, transform, contract, test_ids)
        attr_cell = st.cell(contract.kappa["attribute"], "attribute")
        rel_ao = float(np.mean([st.cell(contract.kappa[r], r) for r in ("relation", "action", "order")]))
        full_cell = st.cell(contract.kappa["full"], "full")
        obj_cell = st.cell(contract.kappa["object"], "object")
        contract_hard = float(np.mean([obj_cell, attr_cell, rel_ao, full_cell]))
        leak = leakage(st, contract)
        rep = diagnostic_report(cache, transform, default_contract, pool_mode=grid.pool_mode)
        rows.append(
            KappaRow(
                setting=name,
                attr_kappa=contract.kappa["attribute"],
                rel_kappa=contract.kappa["relation"],
                attr_at_kappa=attr_cell,
                rel_ao_at_kappa=rel_ao,
                full_at_kappa=full_cell,
                contract_hard_avg=contract_hard,
                pre_kappa_leak=leak,
                default_stair=rep.stair,
                cap_r1=rep.retrieval[(default_contract.prefixes[-2], "G3")],
                drift=rep.drift,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Candidate-pool sensitivity


@dataclass
class PoolRow:
    pool_mode: str
    candidates: int
    ret_cells: dict[int, float]
    ret_avg: float
    hard_avg: float
    stair: float
    drift: float

    def to_json_dict(self) -> dict:
        return {
            "pool_mode": self.pool_mode,
            "candidates": self.candidates,
            "ret_cells": {str(k): v for k, v in self.ret_cells.items()},
            "ret_avg": self.ret_avg,
            "hard_avg": self.hard_avg,
            "stair": self.stair,
            "drift": self.drift,
        }


def run_pool_sensitivity(
    cache: EmbeddingCache,
    transform,
    contract: InterfaceContract,
    pool_modes: tuple[str, ...] = ("full", "test_only"),
) -> list[PoolRow]:
    """Retrieval under different candidate pools.

    Hard-negative selectivity is computed once on the held-out queries and
    shared by every row: it does not involve the candidate pool.
    """
    test_ids = cache.split_ids("test")
    st = sel_table(cache, transform, contract, test_ids)
    hard = hard_average(st, contract)
    drift = full_drift(drift_rows(cache), transform)
    out = []
    for mode in pool_modes:
        cells = {}
        n_cand = None
        for k in contract.prefixes:
            if k == contract.dim:
                continue
            pool = build_pool(cache, mode, contract.view_of[k])
            n_cand = len(pool.candidate_ids)
            cells[k] = recall_at_1(cache, transform, pool, k, test_ids)
        ret_avg = retrieval_average(cells, contract)
        out.append(
            PoolRow(
                pool_mode=mode,
                candidates=n_cand or 0,
                ret_cells=cells,
                ret_avg=ret_avg,
                hard_avg=hard,
                stair=stair_score(ret_avg, hard),
                drift=drift,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Scaling-cost estimator


@dataclass
class CostEstimate:
    dim: int
    gallery: int
    prefixes: tuple[int, ...]
    precision_bytes: int
    query_ops: int
    offline_ops: int
    storage_bytes: dict[int, int]
    dense_params: int

    def formatted(self) -> dict[str, str]:
        rows = {
            "query_transform_ops": _fmt_ops(self.query_ops),
            "offline_transform_ops": _fmt_ops(self.offline_ops),
        }
        for k in self.prefixes:
            rows[f"storage@{k}"] = _fmt_gb(self.storage_bytes[k])
        rows["dense_transform_params"] = _fmt_ops(self.dense_params)
        return rows

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "gallery": self.gallery,
            "prefixes": list(self.prefixes),
            "precision_bytes": self.precision_bytes,
            "query_ops": self.query_ops,
            "offline_ops": self.offline_ops,
            "storage_bytes": {str(k): v for k, v in self.storage_bytes.items()},
            "dense_params": self.dense_params,
            "formatted": self.formatted(),
        }


def _fmt_ops(n: int) -> str:
    if n >= 10**12:
        return f"{n / 1e12:.2f}T"
    return f"{n / 1e6:.2f}M"


def _fmt_gb(n: int) -> str:
    return f"{n / 1e9:.2f}GB"


def estimate_cost(dim: int, gallery: int, precision_bytes: int = 2) -> CostEstimate:
    """Dense-transform cost model: query ops D^2, offline ops N*D^2, storage N*k*bytes."""
    if dim < 1 or gallery < 1 or precision_bytes < 1:
        raise GraspError("CONFIG", "dim, gallery and precision must be positive")
    prefixes = InterfaceContract.default_ladder(dim).prefixes
    query_ops = dim * dim
    return CostEstimate(
        dim=dim,
        gallery=gallery,
        prefixes=prefixes,
        precision_bytes=precision_bytes,
        query_ops=query_ops,
        offline_ops=gallery * query_ops,
        storage_bytes={k: gallery * k * precision_bytes for k in prefixes},
        dense_params=dim * dim + len(prefixes),
    )


# ---------------------------------------------------------------------------
# Table writers


def write_method_csv(rows: list[MethodRow], path: str | Path) -> None:
    _write_records(MethodRow, rows, path)


def write_staircase_decomposition_csv(
    named_reports: list[tuple[str, DiagnosticReport]], contract: InterfaceContract, path: str | Path
) -> None:
    """Columns mirror the staircase decomposition: per-view R@1, per-type
    boundary selectivity, then the two averages and their mean."""
    views = list(zip(contract.prefixes, VIEW_LEVELS))
    header = ["method", "obj_r1", "attr_r1", "rel_r1", "cap_r1", "ret_avg"]
    header += ["obj_neg", "attr_neg", "rel_neg", "full_neg", "hard_avg", "staircase"]
    rows = []
    for name, rep in named_reports:
        ret = [rep.retrieval[kv] for kv in views]
        sel = [rep.sel.cell(contract.kappa[t], t) for t in HARD_AVG_TYPES]
        rows.append([name, *ret, rep.ret_avg, *sel, rep.hard_avg, rep.stair])
    _write_csv(path, header, rows)


def write_emergence_csv(named_reports: list[tuple[str, DiagnosticReport]], path: str | Path) -> None:
    cols = ("attribute", "relation", "action", "order", "full")
    rows = [[name, *[rep.emergence_gaps.get(c) for c in cols], rep.emergence_mean] for name, rep in named_reports]
    _write_csv(path, ["method", *cols, "mean"], rows)


def write_kappa_csv(rows: list[KappaRow], path: str | Path) -> None:
    _write_records(KappaRow, rows, path)


def write_pool_csv(rows: list[PoolRow], path: str | Path) -> None:
    if not rows:
        return
    ks = sorted(rows[0].ret_cells)
    header = ["pool_mode", "candidates", *[f"r1@{k}" for k in ks], "ret_avg", "hard_avg", "stair", "drift"]
    cells = [
        [r.pool_mode, r.candidates, *[r.ret_cells[k] for k in ks], r.ret_avg, r.hard_avg, r.stair, r.drift]
        for r in rows
    ]
    _write_csv(path, header, cells)


def _write_records(record_type, rows, path: str | Path) -> None:
    """One column per field of ``record_type``, in declaration order."""
    names = [f.name for f in fields(record_type)]
    _write_csv(path, names, [[getattr(r, n) for n in names] for r in rows])


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Cells are formatted by column: ``None`` is empty, strings and integers are
    written as they are, ``drift`` in ``.1e``, every other number in ``.2f``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(column, x) for column, x in zip(header, row, strict=True)])


def _cell(column: str, x):
    if x is None:
        return ""
    if isinstance(x, (str, int)):
        return x
    return f"{x:.1e}" if column == "drift" else f"{x:.2f}"
