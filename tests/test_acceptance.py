"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (written to the real stdout so the
lines survive pytest capture).  Run `pytest tests/test_acceptance.py -v` to
see them inline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from grasp_vl import datastore as D
from grasp_vl import harness as H
from grasp_vl import metrics as M
from grasp_vl import objective as O
from grasp_vl import trainer as TR
from grasp_vl import transforms as T

from conftest import unit_rows
from test_datastore import VALIDATOR_FIXTURE, compliant_row
from test_metrics import TABLE_SEL


def emit(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


ACCEPT_SPEC = D.SyntheticSpec(
    dim=64,
    block_sizes={"object": 4, "attribute": 8, "relation": 16, "residual": 36},
    cardinalities={"object": 8, "attribute": 8, "relation": 8},
    noise_std=0.05,
    n_examples=2000,
    seed=0,
)


@dataclass
class Bundle:
    synth: D.SyntheticResult
    dense: T.Checkpoint
    perm: T.Checkpoint
    build_seconds: float


@pytest.fixture(scope="session")
def bundle() -> Bundle:
    t0 = time.monotonic()
    synth = D.generate_synthetic(ACCEPT_SPEC)
    contract = synth.contract
    dense_cfg = TR.TrainConfig(
        spec=T.TransformSpec("dense_cayley", 64),
        contract=contract,
        loss=O.LossConfig.default(contract),
        epochs=30,
        batch_size=256,
        seed=0,
        lr_transform=3e-3,
        lr_temps=3e-3,
    )
    dense, _ = TR.train(dense_cfg, synth.cache)
    perm_cfg = TR.TrainConfig(
        spec=T.TransformSpec("permutation", 64),
        contract=contract,
        loss=O.LossConfig.default(contract),
        epochs=20,
        batch_size=256,
        seed=0,
        lr_transform=3e-3,
        lr_temps=3e-3,
    )
    perm, _ = TR.train(perm_cfg, synth.cache)
    return Bundle(synth=synth, dense=dense, perm=perm, build_seconds=time.monotonic() - t0)


@pytest.fixture(scope="session")
def small_butterfly(bundle) -> T.Checkpoint:
    contract = bundle.synth.contract
    cfg = TR.TrainConfig(
        spec=T.TransformSpec("butterfly", 64, stacks=2),
        contract=contract,
        loss=O.LossConfig.default(contract),
        epochs=6,
        batch_size=256,
        seed=0,
        lr_transform=3e-3,
        lr_temps=3e-3,
    )
    ckpt, _ = TR.train(cfg, bundle.synth.cache)
    return ckpt


def test_criterion_1_cayley_orthogonality(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for dim in (2, 8, 64, 512):
        for seed in range(100):
            b = np.random.default_rng(seed).standard_normal((dim, dim))
            worst = max(worst, T.cayley_build(b).orthogonality_error())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    emit(capsys, 1, ok, f"cayley orthogonality max|R^T R - I|={worst:.2e} (gate 1e-10) in {elapsed:.1f}s (gate 10s)")
    assert ok


def _orthogonal_family(dim: int, rows: np.ndarray) -> dict[str, T.LinearTransform]:
    rng = np.random.default_rng(0)
    perm_model = T.make_model(T.TransformSpec("permutation", dim))
    signed_model = T.make_model(T.TransformSpec("signed_permutation", dim))
    return {
        "cayley": T.cayley_build(rng.standard_normal((dim, dim))),
        "butterfly": T.butterfly_build(rng.standard_normal(T.butterfly_angle_shape(dim, 2))),
        "permutation": perm_model.eval_transform(perm_model.init_params(rng)),
        "signed_permutation": signed_model.eval_transform(signed_model.init_params(rng)),
        "random": T.random_orthogonal(dim, 7),
        "identity": T.identity_transform(dim),
        "pca": T.fit_pca(rows),
    }


def test_criterion_2_preservation(capsys):
    dim = 128
    rows = unit_rows(np.random.default_rng(1), 1000, dim)
    worst64 = 0.0
    worst32 = 0.0
    for name, transform in _orthogonal_family(dim, rows).items():
        worst64 = max(worst64, M.full_drift(rows, transform))
        # 32-bit pipeline: apply and renormalize in float32 throughout
        r32 = transform.matrix.astype(np.float32)
        e32 = rows.astype(np.float32)
        z32 = e32 @ r32.T
        z32 /= np.linalg.norm(z32, axis=1, keepdims=True).astype(np.float32)
        e32n = e32 / np.linalg.norm(e32, axis=1, keepdims=True).astype(np.float32)
        drift32 = float(np.abs(z32 @ z32.T - e32n @ e32n.T).max())
        worst32 = max(worst32, drift32)
    ok = worst64 <= 1e-10 and worst32 <= 1e-5
    emit(capsys, 2, ok, f"drift across orthogonal family: 64-bit {worst64:.2e} (gate 1e-10), 32-bit {worst32:.2e} (gate 1e-5)")
    assert ok


def test_criterion_3_gradient_correctness(tiny_contract, capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    batch = O.Batch(
        images=unit_rows(rng, 4, 8),
        views={g: unit_rows(rng, 4, 8) for g in T.VIEW_LEVELS},
        negatives={r: unit_rows(rng, 4, 8) for r in T.NEGATIVE_TYPES},
    )
    config = O.LossConfig.default(tiny_contract)
    log_temps = np.full(4, math.log(0.07))
    worst = 0.0
    details = []
    plans = [
        ("dense_cayley", {}, (*[(t,) for t in O.TERM_NAMES], None)),
        ("low_rank", {"rank": 4}, (("pres",), ("ortho",), None)),
        ("mlp", {}, (None,)),
    ]
    for variant, kwargs, term_sets in plans:
        model = T.make_model(T.TransformSpec(variant, 8, **kwargs))
        params = model.init_params(np.random.default_rng(3))
        for terms in term_sets:
            err = O.finite_difference_check(
                model, params, log_temps, batch, config, tiny_contract, step=1e-5, terms=terms
            )
            worst = max(worst, err)
            details.append(f"{variant}/{terms[0] if terms else 'full'}={err:.1e}")
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    emit(capsys, 3, ok, f"gradient check worst rel err {worst:.2e} (gate 1e-4) in {elapsed:.1f}s (gate 60s)")
    assert ok, details


def test_criterion_4_aggregate_formulas(capsys):
    contract512 = T.InterfaceContract.default_ladder(512)
    stair = M.stair_score(16.27, 89.76)
    hard = M.hard_average(TABLE_SEL, contract512)
    attr_gap = M.emergence_gap(TABLE_SEL, contract512, "attribute")
    rel_gap = M.emergence_gap(TABLE_SEL, contract512, "relation")
    direct_mean = float(np.mean([-6.66, 13.32, 14.69, 11.16, 6.68]))
    checks = [
        abs(stair - 53.01) <= 0.01,
        abs(hard - 89.76) <= 0.01,
        abs(attr_gap - 24.72) <= 0.01,
        abs(rel_gap - 47.73) <= 0.02,
        abs(direct_mean - 7.84) <= 0.01,
    ]
    ok = all(checks)
    emit(
        capsys,
        4,
        ok,
        f"stair={stair:.3f} hard={hard:.4f} emerg_attr={attr_gap:.2f} emerg_rel={rel_gap:.2f} "
        f"direct_mean={direct_mean:.3f}",
    )
    assert ok


def test_criterion_5_parameter_counts(capsys):
    expected = {
        ("dense_cayley", ()): 262_149,
        ("butterfly", (("stacks", 8),)): 18_437,
        ("butterfly", (("stacks", 4),)): 9_221,
        ("signed_permutation", ()): 262_661,
        ("mlp", ()): 1_052_165,
        ("low_rank", (("rank", 32),)): 294_918,
    }
    got = {
        key: T.param_count(T.TransformSpec(key[0], 512, **dict(key[1])), 5) for key in expected
    }
    ok = got == expected
    emit(capsys, 5, ok, f"parameter counts {sorted(got.values())} == published")
    assert got == expected


def test_criterion_6_cost_model(capsys):
    est = H.estimate_cost(512, 10_000_000)
    f = est.formatted()
    ok = (
        est.query_ops == 262_144
        and est.offline_ops == 2_621_440_000_000
        and f["query_transform_ops"] == "0.26M"
        and f["offline_transform_ops"] == "2.62T"
        and f["storage@32"] == "0.64GB"
        and f["storage@256"] == "5.12GB"
        and f["storage@512"] == "10.24GB"
    )
    emit(capsys, 6, ok, f"cost table {f}")
    assert ok


def test_criterion_7_synthetic_staircase(bundle, capsys):
    t0 = time.monotonic()
    synth = bundle.synth
    cache, contract = synth.cache, synth.contract
    test_ids = cache.split_ids("test")

    oracle_cells = {
        r: M.selectivity(cache, synth.oracle, contract.kappa[r], r, test_ids) for r in T.NEGATIVE_TYPES
    }
    a_ok = min(oracle_cells.values()) >= 99.0

    dense_transform = bundle.dense.eval_transform()
    dense_rep = M.diagnostic_report(cache, dense_transform, contract)
    dense_cells = {r: dense_rep.sel.cell(contract.kappa[r], r) for r in T.NEGATIVE_TYPES}
    b_ok = min(dense_cells.values()) >= 90.0 and dense_rep.drift <= 1e-5

    direct_rep = M.diagnostic_report(cache, T.identity_transform(64), contract)
    c_ok = direct_rep.hard_avg <= dense_rep.hard_avg - 15.0

    perm_rep = M.diagnostic_report(cache, bundle.perm.eval_transform(), contract)
    d_ok = dense_rep.stair > perm_rep.stair

    elapsed = bundle.build_seconds + (time.monotonic() - t0)
    time_ok = elapsed <= 900.0
    ok = a_ok and b_ok and c_ok and d_ok and time_ok
    emit(
        capsys,
        7,
        ok,
        f"(a) oracle min Sel {min(oracle_cells.values()):.1f}>=99 "
        f"(b) trained min Sel {min(dense_cells.values()):.1f}>=90, drift {dense_rep.drift:.1e}<=1e-5 "
        f"(c) direct hard {direct_rep.hard_avg:.1f} <= trained {dense_rep.hard_avg:.1f}-15 "
        f"(d) stair {dense_rep.stair:.1f} > permutation {perm_rep.stair:.1f}; {elapsed:.0f}s<=900s",
    )
    assert a_ok and b_ok and c_ok and d_ok and time_ok


def test_criterion_8_full_space_invariance(bundle, small_butterfly, capsys):
    synth = bundle.synth
    cache, contract = synth.cache, synth.contract
    d = cache.dim
    test_ids = cache.split_ids("test")
    pool = D.build_pool(cache, "full", "G3")
    ident = T.identity_transform(d)
    labels = [synth.assignments["object"][cache.row_index(i)] for i in test_ids]
    images = cache.images[cache.indices_of(test_ids)]

    base_r1 = M.recall_at_1(cache, ident, pool, d, test_ids)
    base_sel = {r: M.selectivity(cache, ident, d, r, test_ids) for r in T.NEGATIVE_TYPES}
    base_zs = M.zero_shot(images, labels, synth.class_rows, d, ident)

    mismatches = []
    for name, ckpt in (("dense", bundle.dense), ("butterfly", small_butterfly)):
        transform = ckpt.eval_transform()
        if M.recall_at_1(cache, transform, pool, d, test_ids) != base_r1:
            mismatches.append(f"{name}:r@1")
        for r in T.NEGATIVE_TYPES:
            if M.selectivity(cache, transform, d, r, test_ids) != base_sel[r]:
                mismatches.append(f"{name}:sel:{r}")
        if M.zero_shot(images, labels, synth.class_rows, d, transform) != base_zs:
            mismatches.append(f"{name}:zero_shot")
    ok = not mismatches
    emit(
        capsys,
        8,
        ok,
        f"full-prefix metrics equal untransformed baseline exactly for trained dense+butterfly "
        f"(r@1={base_r1:.2f}, zs={base_zs:.2f}){'; mismatches: ' + ','.join(mismatches) if mismatches else ''}",
    )
    assert ok


def test_criterion_9_validator_and_pool_invariant(bundle, capsys):
    failures = []
    for name, overrides, expected in VALIDATOR_FIXTURE:
        if expected == "MALFORMED":
            import json as _json

            from grasp_vl.datastore import parse_annotation_line
            from grasp_vl.errors import GraspError

            try:
                parse_annotation_line(_json.dumps({**compliant_row().to_json_dict(), **overrides}))
                failures.append(f"{name}: parsed but should be MALFORMED")
            except GraspError as exc:
                if exc.code != "MALFORMED":
                    failures.append(f"{name}: {exc.code}")
            continue
        res = D.validate_annotation_row(compliant_row(**overrides))
        if expected is None and not res.accepted:
            failures.append(f"{name}: rejected {res.code}")
        elif expected is not None and (res.accepted or res.code != expected):
            failures.append(f"{name}: got {res.code}, want {expected}")

    rows = H.run_pool_sensitivity(bundle.synth.cache, bundle.dense.eval_transform(), bundle.synth.contract)
    pool_ok = rows[0].hard_avg == rows[1].hard_avg
    if not pool_ok:
        failures.append("hard-negative columns differ across pools")
    ok = not failures
    emit(
        capsys,
        9,
        ok,
        f"validator fixture {len(VALIDATOR_FIXTURE)} rows, pool hard columns "
        f"{rows[0].hard_avg:.2f}=={rows[1].hard_avg:.2f}{'; ' + '; '.join(failures) if failures else ''}",
    )
    assert ok, failures


def test_criterion_10_permutation_energy(capsys):
    rng = np.random.default_rng(0)
    failures = []
    for d in (3, 7, 16):
        perm = rng.permutation(d)
        m = np.zeros((d, d))
        m[np.arange(d), perm] = 1.0
        if abs(T.permutation_energy(m) - 100.0) > 1e-9:
            failures.append(f"perm d={d}")
    c = np.cos(np.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    rot_energy = T.permutation_energy(rot)
    if abs(rot_energy - 50.0) > 1e-9:
        failures.append("rot45")
    r = T.random_orthogonal(12, 3).matrix
    base = T.permutation_energy(r)
    for _ in range(3):
        rp = r[rng.permutation(12)][:, rng.permutation(12)]
        if abs(T.permutation_energy(rp) - base) > 1e-9:
            failures.append("permutation invariance")
    ok = not failures
    emit(capsys, 10, ok, f"permutation energy: perm=100, rot45={rot_energy:.10f}, invariant under row/col perms")
    assert ok, failures
