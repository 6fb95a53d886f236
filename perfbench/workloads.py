"""Workload definitions: the generated corpus spec, the verbs run on it, and
the checks its outputs must pass.  Paths are relative to the run directory,
so the configuration hash each manifest records does not depend on where the
run happens.

Why these workloads (see README.md for the layer map):

* ``quickstart`` is the README quick start on the acceptance corpus (D=64,
  N=2000, 8/1/1 split): the paper's headline run.  Dense training dominates;
  the metrics layer is used as many small per-epoch validation calls.
* ``compare_family`` runs the 12-method grid on the same corpus, the only
  workload that exercises every transform variant (butterfly Givens stacks,
  Sinkhorn and Hungarian hardening, low-rank and MLP terms) and the harness.
* ``gallery_eval`` evaluates the synthetic oracle on a 10x larger corpus with
  no training: the metrics layer and the datastore dominate, with 2000 x
  20000 score matrices.
"""

from __future__ import annotations

import json

CACHE = "synth/cache/manifest.json"
ANNOTATIONS = "synth/annotations.jsonl"

# constructively orthogonal methods of the comparison grid: full-space drift must vanish
ORTHOGONAL_METHODS = (
    "frozen_full",
    "direct_prefix",
    "pca_prefix",
    "random_rotation",
    "mrl_style",
    "smec_style",
    "learned_permutation",
    "learned_signed_permutation",
    "grasp_dense",
    "grasp_butterfly",
)
COMPARE_EPOCHS = 7  # warmup 3 + 4 curriculum stages: every negative type is on by epoch 7

WORKLOADS = ("quickstart", "compare_family", "gallery_eval")


def spec(workload: str, seed: int) -> dict:
    """The corpus spec: the acceptance corpus, 10x larger for ``gallery_eval``."""
    return {
        "dim": 64,
        "block_sizes": {"object": 4, "attribute": 8, "relation": 16, "residual": 36},
        "cardinalities": {"object": 8, "attribute": 8, "relation": 8},
        "noise_std": 0.05,
        "n_examples": 20000 if workload == "gallery_eval" else 2000,
        "seed": seed,
    }


def synth_argv(seed: int) -> list[str]:
    return ["synth", "--spec", "spec.json", "--out", "synth", "--seed", str(seed)]


def verbs(workload: str, seed: int) -> list[list[str]]:
    """The verbs run after ``synth``, in order; each starts when the previous returns."""
    s = str(seed)
    if workload == "quickstart":
        return [
            ["validate", "--input", ANNOTATIONS, "--out", "validate"],
            ["train", "--cache", CACHE, "--out", "train", "--epochs", "30", "--batch-size", "256",
             "--lr", "3e-3", "--seed", s],
            ["eval", "--cache", CACHE, "--checkpoint", "train/checkpoint.ckpt", "--annotations", ANNOTATIONS,
             "--out", "eval"],
            ["report", "--cache", CACHE, "--checkpoint", "train/checkpoint.ckpt", "--out", "report"],
        ]
    if workload == "compare_family":
        return [
            ["compare", "--cache", CACHE, "--out", "compare", "--epochs", str(COMPARE_EPOCHS), "--seed", s],
            ["eval", "--cache", CACHE, "--checkpoint", "compare/checkpoints/grasp_dense.ckpt",
             "--annotations", ANNOTATIONS, "--out", "eval"],
        ]
    if workload == "gallery_eval":
        return [
            ["validate", "--input", ANNOTATIONS, "--out", "validate"],
            ["eval", "--cache", CACHE, "--matrix", "synth/oracle.transform", "--annotations", ANNOTATIONS,
             "--out", "eval"],
            ["pool", "--cache", CACHE, "--matrix", "synth/oracle.transform", "--out", "pool"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


ACCEPTANCE_SEED = 0  # acceptance criterion 7 is stated for the seed-0 acceptance corpus and training run


def _load(run_dir, rel):
    return json.loads((run_dir / rel).read_text(encoding="utf-8"))


def _min_sel_at_kappa(report: dict, kappa: dict) -> float:
    sel = report["selectivity"]
    return min(sel["values"][sel["prefixes"].index(k)][sel["types"].index(t)] for t, k in kappa.items())


def _selected_epoch_is_gated_best(run_dir) -> bool:
    """The checkpoint is the earliest best validation staircase among drift-compliant epochs."""
    gate = _load(run_dir, "train/train_config.json")["drift_gate"]
    history = [json.loads(line) for line in (run_dir / "train/history.jsonl").read_text(encoding="utf-8").splitlines()]
    eligible = [h for h in history if h["val_drift"] <= gate]
    best = max(eligible, key=lambda h: (h["val_stair"], -h["epoch"]))
    with open(run_dir / "train/checkpoint.ckpt", "rb") as fh:
        meta = json.loads(fh.readline())["meta"]
    return meta["epoch"] == best["epoch"] and meta["val_stair"] == best["val_stair"]


def _without_rank_stats(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "rank_stats"}


def checks(workload: str, seed: int, run_dir) -> tuple[float, float, list[tuple[str, bool]]]:
    """(stair of the workload's main result, its minimum Sel at kappa, [(check name, passed)])."""
    from grasp_vl.transforms import InterfaceContract

    # every verb here runs under the default ladder of the corpus dimension
    kappa = dict(InterfaceContract.default_ladder(_load(run_dir, "spec.json")["dim"]).kappa)
    if workload == "quickstart":
        rep = _load(run_dir, "eval/report.json")
        sel = _min_sel_at_kappa(rep, kappa)
        passed = [
            ("drift<=1e-5", rep["drift"] <= 1e-5),
            ("checkpoint_is_drift_gated_best_epoch", _selected_epoch_is_gated_best(run_dir)),
            ("eval_and_report_agree", _without_rank_stats(rep) == _without_rank_stats(_load(run_dir, "report/report.json"))),
            ("rank_stats_present", bool(rep.get("rank_stats"))),
        ]
        if seed == ACCEPTANCE_SEED:
            passed.append(("min_sel_at_kappa>=90", sel >= 90.0))
        return rep["stair"], sel, passed
    if workload == "compare_family":
        rows = {r["method"]: r for r in _load(run_dir, "compare/methods.json")}
        rep = _load(run_dir, "eval/report.json")
        dense = rows.get("grasp_dense", {}).get("stair")
        return dense, _min_sel_at_kappa(rep, kappa), [
            ("12_rows", len(rows) == 12),
            ("orthogonal_drift<=1e-10", all(rows[m]["drift"] <= 1e-10 for m in ORTHOGONAL_METHODS if m in rows)),
            ("eval_stair==grasp_dense_row", rep["stair"] == dense),
        ]
    if workload == "gallery_eval":
        rep = _load(run_dir, "eval/report.json")
        sel = _min_sel_at_kappa(rep, kappa)
        return rep["stair"], sel, [
            ("oracle_min_sel_at_kappa>=99", sel >= 99.0),
            ("rank_stats_present", bool(rep.get("rank_stats"))),
        ]
    raise ValueError(f"unknown workload {workload!r}")
