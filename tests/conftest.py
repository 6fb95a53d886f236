"""Shared fixtures: a small synthetic corpus and common contracts."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from grasp_vl.cli import _thread_limit
from grasp_vl.datastore import SyntheticSpec, generate_synthetic
from grasp_vl.objective import Batch, LossConfig
from grasp_vl.transforms import (
    NEGATIVE_TYPES,
    VIEW_LEVELS,
    InterfaceContract,
)


SMALL_SPEC = SyntheticSpec(
    dim=32,
    block_sizes={"object": 2, "attribute": 4, "relation": 8, "residual": 18},
    cardinalities={"object": 4, "attribute": 4, "relation": 4},
    noise_std=0.05,
    n_examples=240,
    seed=0,
)


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Numpy's BLAS on one thread for the whole session, so printed errors do not depend on the host's cores."""
    with _thread_limit(1):
        yield


@pytest.fixture(scope="session")
def small_synth():
    return generate_synthetic(SMALL_SPEC)


@pytest.fixture(scope="session")
def small_cache(small_synth):
    return small_synth.cache


@pytest.fixture(scope="session")
def ladder32():
    return InterfaceContract.default_ladder(32)


@pytest.fixture()
def tiny_contract():
    """A 4-step ladder usable at dim 8 (the default ladder needs 16 | D)."""
    return InterfaceContract(
        prefixes=(1, 2, 4, 8),
        view_of={1: "G0", 2: "G1", 4: "G2", 8: "G3"},
        kappa={"object": 1, "attribute": 2, "relation": 4, "action": 4, "order": 4, "full": 8},
    )


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def only(config: LossConfig, *terms: str) -> LossConfig:
    """``config`` with the weight of every term outside ``terms`` at 0."""
    return replace(config, loss_weights={t: w if t in terms else 0.0 for t, w in config.loss_weights.items()})


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture()
def tiny_batch():
    rng = np.random.default_rng(11)
    return Batch(
        images=unit_rows(rng, 4, 8),
        views={g: unit_rows(rng, 4, 8) for g in VIEW_LEVELS},
        negatives={r: unit_rows(rng, 4, 8) for r in NEGATIVE_TYPES},
    )


@pytest.fixture()
def tiny_loss_config(tiny_contract):
    return LossConfig.default(tiny_contract)
