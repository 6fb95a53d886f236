"""Single command-line entry point for every workflow.

Every run with ``--out`` writes all artifacts under that directory plus a
``manifest.json`` recording the config hash, seed, tool version and artifact
list.  They are staged next to ``--out`` and moved into it only when the verb
succeeds.  Inputs are never mutated.  Failures print one machine-readable JSON
line to stderr; exit codes: 0 success, 1 gate failure, 2 usage, 3 config,
4 data.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import logging
import math
import os
import shutil
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .datastore import (
    SyntheticSpec,
    checked_annotation,
    generate_synthetic,
    load_cache,
    validate_jsonl,
)
from .errors import GraspError
from .harness import (
    GridConfig,
    estimate_cost,
    run_kappa_sensitivity,
    run_method_comparison,
    run_pool_sensitivity,
    write_emergence_csv,
    write_kappa_csv,
    write_method_csv,
    write_pool_csv,
    write_staircase_decomposition_csv,
)
from .metrics import diagnostic_report
from .objective import (
    Batch,
    LossConfig,
    TERM_NAMES,
    finite_difference_check,
)
from .trainer import CURRICULA, TrainConfig, train
from .transforms import (
    InterfaceContract,
    NEGATIVE_TYPES,
    TransformSpec,
    VIEW_LEVELS,
    load_checkpoint,
    load_matrix_transform,
    make_model,
    save_checkpoint,
    save_matrix_transform,
)

log = logging.getLogger("grasp")

_CONFIG_CODES = {
    "CONFIG",
    "UNKNOWN_VARIANT",
    "INVALID_CONTRACT",
    "UNKNOWN_METHOD",
    "NOT_POWER_OF_TWO",
    "BLOCK_OVERFLOW",
}


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


_seed = _int_at_least(0)
_threads = _int_at_least(1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "USAGE", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _write_manifest(out: Path, verb: str, payload: dict, seed: int | None) -> None:
    """Write ``manifest.json`` into ``out``, listing every file already under it."""
    artifacts = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    manifest = {
        "tool": "grasp",
        "version": __version__,
        "verb": verb,
        "config_hash": _config_hash(payload),
        "seed": seed,
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


class _Stage:
    """A verb's artifacts, written into a temporary sibling of ``--out`` and moved into ``--out`` only when the
    verb returns, so a verb that fails part way leaves ``--out`` as it was."""

    def __init__(self, out: str | None):
        self.out = None if out is None else Path(out)
        self.path: Path | None = None
        self.seed: int | None = None

    def directory(self, seed: int | None) -> Path:
        """The directory to write artifacts into, created on the first call; ``seed`` is the manifest's, the seed
        the verb resolved (``None`` for a verb that draws no random numbers).  A verb calls this once its inputs
        have loaded: most once their work has succeeded too, and ``synth`` before it generates, since it writes
        its cache as it builds it.  When the verb returns, ``main`` writes the manifest of every staged file and
        commits them into ``--out``; when it fails, the stage is removed and ``--out`` is left as it was."""
        self.seed = seed
        if self.path is None:
            self.out.parent.mkdir(parents=True, exist_ok=True)
            self.path = Path(tempfile.mkdtemp(prefix=f".{self.out.name}.", dir=self.out.parent))
        return self.path

    def commit(self) -> None:
        """Move every staged file into ``--out``, replacing files of the same name and keeping all others."""
        if self.path is None:
            return
        self.out.mkdir(parents=True, exist_ok=True)
        for staged in sorted(self.path.rglob("*")):  # a directory sorts before its contents
            target = self.out / staged.relative_to(self.path)
            if staged.is_dir():
                target.mkdir(exist_ok=True)
            else:
                os.replace(staged, target)

    def discard(self) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
            self.path = None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")


def _transform_and_contract(args, cache):
    """The transform to evaluate and its contract: the checkpoint's, or the default ladder for --matrix."""
    if args.checkpoint:
        checkpoint = load_checkpoint(args.checkpoint)
        return checkpoint.eval_transform(), checkpoint.contract
    if args.matrix:
        return load_matrix_transform(args.matrix), InterfaceContract.default_ladder(cache.dim)
    raise GraspError("CONFIG", "pass either --checkpoint or --matrix")


def _read_settings(path, from_json_dict):
    """Build settings from a JSON file; content that does not parse into them is a CONFIG error."""
    data = Path(path).read_bytes()
    try:
        return from_json_dict(json.loads(data))
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise GraspError("CONFIG", f"{path}: {exc!r}") from exc


def _args_payload(args) -> dict:
    # out path and thread count affect where/how work runs, not what it computes
    skip = {"func", "out", "stage", "threads"}
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# Verbs


def _cmd_synth(args) -> int:
    spec = _read_settings(args.spec, SyntheticSpec.from_json_dict)
    if args.seed is not None and args.seed != spec.seed:
        log.info("flag --seed %d overrides spec seed %d", args.seed, spec.seed)
        spec = replace(spec, seed=args.seed)
    out = args.stage.directory(spec.seed)
    result = generate_synthetic(spec, out / "cache")
    with open(out / "annotations.jsonl", "w", encoding="utf-8") as fh:
        for row in result.iter_rows():
            fh.write(json.dumps(row.to_json_dict(), sort_keys=True) + "\n")
    save_matrix_transform(out / "oracle.transform", result.oracle)
    _write_json(out / "spec.json", spec.to_json_dict())
    return 0


def _cmd_validate(args) -> int:
    results, summary = validate_jsonl(args.input)
    out = args.stage.directory(None)
    with open(out / "verdicts.jsonl", "w", encoding="utf-8") as fh:
        for res in results:
            fh.write(json.dumps(res.to_json_dict(), sort_keys=True) + "\n")
    _write_json(out / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _train_config(args, cache) -> TrainConfig:
    """The --config file's settings, or the defaults for the cache, with each spec flag that is given in place of
    the spec's setting.  The spec is set before the TrainConfig is built, which resolves the drift gate for it."""
    given = {name: getattr(args, name) for name in ("variant", "stacks", "rank") if getattr(args, name) is not None}
    if not args.config:
        contract = InterfaceContract.default_ladder(cache.dim)
        spec = TransformSpec(**{"variant": "dense_cayley", **given}, dim=cache.dim)
        return TrainConfig(spec, contract, LossConfig.default(contract))

    def with_spec_flags(d: dict) -> TrainConfig:
        for name, value in given.items():
            if d["spec"].get(name) != value:
                log.info("flag overrides config: %s=%s", name, value)
        return TrainConfig.from_json_dict({**d, "spec": {**d["spec"], **given}})

    return _read_settings(args.config, with_spec_flags)


def _cmd_train(args) -> int:
    cache = load_cache(args.cache)
    config = _train_config(args, cache)
    overrides = {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr_transform": args.lr,
        "lr_temps": args.lr,
        "curriculum": args.curriculum,
        "warmup_epochs": args.warmup_epochs,
        "seed": args.seed,
    }
    changed = {name: v for name, v in overrides.items() if v is not None and getattr(config, name) != v}
    if args.config:
        for name, value in changed.items():
            log.info("flag overrides config: %s=%s", name, value)
    config = replace(config, **changed)  # re-runs TrainConfig's checks on the overridden values
    checkpoint, history = train(config, cache)
    out = args.stage.directory(config.seed)
    save_checkpoint(out / "checkpoint.ckpt", checkpoint)
    with open(out / "history.jsonl", "w", encoding="utf-8") as fh:
        for stats in history:
            fh.write(json.dumps(stats.to_json_dict(), sort_keys=True) + "\n")
    _write_json(out / "train_config.json", config.to_json_dict())
    meta = checkpoint.meta
    print(json.dumps({"best_epoch": meta["epoch"], "val_stair": meta["val_stair"], "val_drift": meta["val_drift"]}))
    return 0


def _entity_labels(path) -> dict[str, str]:
    """Each annotation's entity by id, from lines with the structure ``validate`` parses; the audit rules are not
    applied.  A malformed line or a repeated id is ``MALFORMED``."""
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                obj = checked_annotation(line)
                if obj["id"] in labels:
                    raise GraspError("MALFORMED", f"line {lineno}: duplicate id {obj['id']!r} in the annotations")
                labels[obj["id"]] = obj["entity"]
    return labels


def _write_report(args):
    """Evaluate the flags' transform on the cache and write ``report.json``; returns (out, report, contract)."""
    cache = load_cache(args.cache)
    transform, contract = _transform_and_contract(args, cache)
    labels = _entity_labels(args.annotations) if args.annotations else None
    report = diagnostic_report(
        cache, transform, contract, pool_mode=args.pool, query_split=args.split, labels=labels
    )
    out = args.stage.directory(None)
    _write_json(out / "report.json", report.to_json_dict())
    return out, report, contract


def _cmd_eval(args) -> int:
    _, report, _ = _write_report(args)
    print(json.dumps({"stair": report.stair, "hard_avg": report.hard_avg, "drift": report.drift}))
    return 0


def _cmd_report(args) -> int:
    out, report, contract = _write_report(args)
    named = [(args.label, report)]
    write_staircase_decomposition_csv(named, contract, out / "staircase_decomposition.csv")
    write_emergence_csv(named, out / "emergence_decomposition.csv")
    return 0


def _grid_from_args(args, cache) -> GridConfig:
    """GridConfig's defaults, with each flag that is given in place of the field of its name."""
    given = {f.name: getattr(args, f.name, None) for f in fields(GridConfig)}
    given["contract"] = InterfaceContract.default_ladder(cache.dim)
    given["methods"] = tuple(given["methods"].split(",")) if given["methods"] else None
    return GridConfig(**{name: value for name, value in given.items() if value is not None})


def _cmd_compare(args) -> int:
    cache = load_cache(args.cache)
    grid = _grid_from_args(args, cache)
    comparison = run_method_comparison(cache, grid)
    out = args.stage.directory(grid.seed)
    write_method_csv(comparison.rows, out / "methods.csv")
    _write_json(out / "methods.json", [r.to_json_dict() for r in comparison.rows])
    named = [(name, rep) for name, rep in comparison.reports.items()]
    write_staircase_decomposition_csv(named, grid.contract, out / "staircase_decomposition.csv")
    write_emergence_csv(named, out / "emergence_decomposition.csv")
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for name, checkpoint in comparison.checkpoints.items():
        save_checkpoint(ckpt_dir / f"{name}.ckpt", checkpoint)
    return 0


def _cmd_kappa(args) -> int:
    cache = load_cache(args.cache)
    grid = _grid_from_args(args, cache)
    rows = run_kappa_sensitivity(cache, grid)
    out = args.stage.directory(grid.seed)
    write_kappa_csv(rows, out / "kappa.csv")
    _write_json(out / "kappa.json", [r.to_json_dict() for r in rows])
    return 0


def _cmd_pool(args) -> int:
    cache = load_cache(args.cache)
    transform, contract = _transform_and_contract(args, cache)
    rows = run_pool_sensitivity(cache, transform, contract)
    out = args.stage.directory(None)
    write_pool_csv(rows, out / "pool.csv")
    _write_json(out / "pool.json", [r.to_json_dict() for r in rows])
    return 0


def _cmd_cost(args) -> int:
    est = estimate_cost(args.dim, args.gallery, precision_bytes=args.precision_bytes)
    for name, value in est.formatted().items():
        print(f"{name}\t{value}")
    if args.out:
        _write_json(args.stage.directory(None) / "cost.json", est.to_json_dict())
    return 0


def _gradcheck_contract(dim: int) -> InterfaceContract:
    ks = sorted({max(1, dim // 16), max(1, dim // 8), max(1, dim // 4), max(1, dim // 2), dim})
    view_of = {}
    for i, k in enumerate(ks):
        view_of[k] = VIEW_LEVELS[min(i, len(ks) - 1, 3)]
    view_of[ks[-1]] = "G3"
    kappa = {
        "object": ks[0],
        "attribute": ks[min(1, len(ks) - 1)],
        "relation": ks[min(2, len(ks) - 1)],
        "action": ks[min(2, len(ks) - 1)],
        "order": ks[min(2, len(ks) - 1)],
        "full": ks[min(3, len(ks) - 1)],
    }
    return InterfaceContract(prefixes=tuple(ks), view_of=view_of, kappa=kappa)


def _cmd_gradcheck(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise GraspError("CONFIG", f"--tolerance must be finite and >= 0, got {args.tolerance:g}")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    contract = _gradcheck_contract(args.dim)

    def unit(n, d):
        x = rng.standard_normal((n, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    batch = Batch(
        images=unit(args.batch, args.dim),
        views={g: unit(args.batch, args.dim) for g in VIEW_LEVELS},
        negatives={r: unit(args.batch, args.dim) for r in NEGATIVE_TYPES},
    )
    full = LossConfig.default(contract)
    model = make_model(TransformSpec(args.variant, args.dim, stacks=args.stacks, rank=args.rank))
    params = model.init_params(np.random.default_rng(seed + 1))
    log_temps = np.full(len(contract.prefixes), math.log(0.07))
    results = {}
    for label in (*TERM_NAMES, "full"):  # a single-term check is the objective with the other weights at 0
        weights = {t: w if label in (t, "full") else 0.0 for t, w in full.loss_weights.items()}
        config = replace(full, loss_weights=weights)
        results[label] = finite_difference_check(model, params, log_temps, batch, config, contract, step=args.step)
        print(f"{label}\tmax_rel_error={results[label]:.3e}")
    worst = float(np.max(list(results.values())))  # a NaN error stays the worst, so it fails
    passed = bool(worst <= args.tolerance)
    print(f"gradcheck\t{'PASS' if passed else 'FAIL'}\tworst={worst:.3e}\ttolerance={args.tolerance:g}")
    if args.out:
        verdict = {"results": results, "worst": worst, "passed": passed}
        _write_json(args.stage.directory(seed) / "gradcheck.json", verdict)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="grasp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, seeded: bool, out_required: bool = True):
        # only the verbs that draw random numbers take a seed
        if seeded:
            p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--threads", type=_threads, default=None)
        p.add_argument("--out", required=out_required, default=None)

    p = sub.add_parser("synth", help="generate a synthetic cache with a planted staircase")
    p.add_argument("--spec", required=True)
    common(p, seeded=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="validate an annotation JSONL file")
    p.add_argument("--input", required=True)
    common(p, seeded=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("train", help="train a transform on a cache")
    p.add_argument("--cache", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--stacks", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--curriculum", choices=CURRICULA, default=None)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int, default=None)
    common(p, seeded=True)
    p.set_defaults(func=_cmd_train)

    for verb, fn in (("eval", _cmd_eval), ("report", _cmd_report)):
        p = sub.add_parser(verb, help=f"{verb} a checkpoint or fixed transform on a cache")
        p.add_argument("--cache", required=True)
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--matrix", default=None)
        p.add_argument("--pool", choices=("full", "test_only"), default="full")
        p.add_argument("--split", choices=("train", "val", "test"), default="test")
        p.add_argument("--annotations", default=None, help="JSONL rows; enables entity-label rank statistics")
        if verb == "report":
            p.add_argument("--label", default="checkpoint")
        common(p, seeded=False)
        p.set_defaults(func=fn)

    p = sub.add_parser("compare", help="run the method-comparison grid")
    p.add_argument("--cache", required=True)
    p.add_argument("--methods", default=None, help="comma-separated subset of methods")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int, default=None)
    p.add_argument("--curriculum", choices=CURRICULA, default=None)
    p.add_argument("--pool-mode", dest="pool_mode", choices=("full", "test_only"), default=None)
    p.add_argument("--stacks", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    common(p, seeded=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("kappa", help="boundary-map sensitivity grid")
    p.add_argument("--cache", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    common(p, seeded=True)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("pool", help="candidate-pool sensitivity for one checkpoint")
    p.add_argument("--cache", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--matrix", default=None)
    common(p, seeded=False)
    p.set_defaults(func=_cmd_pool)

    p = sub.add_parser("cost", help="scaling-cost estimates for a gallery")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gallery", type=int, required=True)
    p.add_argument("--precision-bytes", dest="precision_bytes", type=int, default=2)
    common(p, seeded=False, out_required=False)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("gradcheck", help="finite-difference verification of the objective gradients")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--batch", type=_int_at_least(1), default=4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--variant", default="dense_cayley")
    p.add_argument("--stacks", type=int, default=2)
    p.add_argument("--rank", type=int, default=4)
    common(p, seeded=True, out_required=False)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


# (set, get) entry points of numpy's bundled OpenBLAS, by build: scipy-openblas with 64-bit
# or 32-bit integers, then a plain OpenBLAS
_OPENBLAS_THREAD_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_calls():
    """(set, get) ctypes functions of each OpenBLAS library bundled with numpy."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    calls = []
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for set_name, get_name in _OPENBLAS_THREAD_ENTRY_POINTS:
            set_fn, get_fn = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if set_fn is not None and get_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                calls.append((set_fn, get_fn))
                break
    return calls


@contextlib.contextmanager
def _thread_limit(n: int):
    """Run the body with numpy's BLAS bounded to ``n`` threads; the previous counts come back on exit."""
    calls = _openblas_thread_calls()
    if not calls:
        log.warning("--threads %d not applied: no OpenBLAS thread entry point found in numpy", n)
    previous = [(set_fn, get_fn()) for set_fn, get_fn in calls]
    try:
        for set_fn, _ in previous:
            set_fn(n)
        yield
    finally:
        for set_fn, count in previous:
            set_fn(count)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is None:
        try:
            threads = _threads(os.environ.get("GRASP_THREADS", "1"))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"GRASP_THREADS: {exc}")
    args.stage = _Stage(args.out)
    try:
        with _thread_limit(threads):
            code = args.func(args)
        if args.stage.path is not None:
            _write_manifest(args.stage.path, args.verb, _args_payload(args), args.stage.seed)
        args.stage.commit()
        return code
    except GraspError as exc:
        category = "CONFIG" if exc.code in _CONFIG_CODES else "DATA"
        print(json.dumps({"error": category, "code": exc.code, "message": exc.message}), file=sys.stderr)
        return 3 if category == "CONFIG" else 4
    except OSError as exc:  # a missing or unreadable input or output file
        print(json.dumps({"error": "DATA", "code": "IO_ERROR", "message": str(exc)}), file=sys.stderr)
        return 4
    finally:
        args.stage.discard()


if __name__ == "__main__":
    sys.exit(main())
