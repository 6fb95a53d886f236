"""In-memory span tracing of grasp_vl's layers, installed from outside.

A ``Tracer`` wraps each layer's public functions at every module that
imports them (``train`` is bound in ``trainer``, ``harness`` and ``cli``;
``diagnostic_report`` in ``metrics``, ``harness`` and ``cli``), the public
methods that do per-row work (``EmbeddingCache.indices_of``,
``LinearTransform.apply``, ``MlpTransform.apply``), each variant's
``begin_step``/``eval_transform``, and the ``apply``/``vjp``/``finish`` of
the step state that ``begin_step`` returns.  No file of the program changes.

A span is ``[name, start, end, parent, run_id, work]``: ``parent`` is the
index of the enclosing span (or -1), ``work`` a count of the work the call
did (rows, ids, score cells, bytes) or 0.  A span's layer is the first
component of its name.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter

LAYERS = ("cli", "datastore", "transforms", "objective", "trainer", "metrics", "harness")
VARIANTS = ("dense_cayley", "butterfly", "permutation", "signed_permutation", "low_rank", "mlp")
VERBS = ("synth", "validate", "train", "eval", "report", "compare", "pool")


def _score_cells(args, kwargs):
    # recall_at_1 / rank_stats(cache, transform, pool, k, query_ids, ...): one Q x N score matrix
    pool = args[2] if len(args) > 2 else kwargs["pool"]
    query_ids = args[4] if len(args) > 4 else kwargs["query_ids"]
    return len(query_ids) * len(pool.candidate_ids)


# (module, function name, span name, work(args, kwargs, result) or None)
_FUNCTIONS = (
    ("datastore", "generate_synthetic", "datastore.generate_synthetic", None),
    ("datastore", "write_cache", "datastore.write_cache", None),
    ("datastore", "load_cache", "datastore.load_cache", lambda a, k, r: sum(m.nbytes for _, m in r.matrices())),
    ("datastore", "validate_jsonl", "datastore.validate_jsonl", lambda a, k, r: len(r[0])),
    ("datastore", "build_pool", "datastore.build_pool", None),
    ("transforms", "save_checkpoint", "transforms.checkpoint_io", None),
    ("transforms", "load_checkpoint", "transforms.checkpoint_io", None),
    ("transforms", "save_matrix_transform", "transforms.checkpoint_io", None),
    ("transforms", "load_matrix_transform", "transforms.checkpoint_io", None),
    ("objective", "total_loss_and_gradient", "objective.step", None),
    ("trainer", "train", "trainer.train", lambda a, k, r: a[0].epochs * len(a[1].split_ids("train"))),
    ("trainer", "validation_scores", "trainer.validation_scores", None),
    ("metrics", "diagnostic_report", "metrics.diagnostic_report", None),
    ("metrics", "recall_at_1", "metrics.recall_at_1", lambda a, k, r: _score_cells(a, k)),
    ("metrics", "rank_stats", "metrics.rank_stats", lambda a, k, r: _score_cells(a, k)),
    ("metrics", "selectivity", "metrics.selectivity", None),
    ("metrics", "sel_table", "metrics.sel_table", None),
    ("metrics", "full_drift", "metrics.full_drift", None),
    ("harness", "run_method_comparison", "harness.run_method_comparison", None),
    ("harness", "run_pool_sensitivity", "harness.run_pool_sensitivity", None),
    ("harness", "write_method_csv", "harness.write_csv", None),
    ("harness", "write_staircase_decomposition_csv", "harness.write_csv", None),
    ("harness", "write_emergence_csv", "harness.write_csv", None),
    ("harness", "write_pool_csv", "harness.write_csv", None),
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` restore every binding."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, 0)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.run_id, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, work: int) -> None:
        span = self.spans[idx]
        span[2] = _clock()
        span[5] = work
        self._stack.pop()

    def _wrap(self, fn, name, work=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    n = work(args, kwargs, result)
                return result
            finally:
                tracer._close(idx, n)

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import grasp_vl.cli  # noqa: F401  (imports every module whose bindings are rewritten)
        from grasp_vl import datastore, transforms

        modules = [m for n, m in sys.modules.items() if n == "grasp_vl" or n.startswith("grasp_vl.")]
        for mod_name, fn_name, span_name, work in _FUNCTIONS:
            orig = getattr(sys.modules[f"grasp_vl.{mod_name}"], fn_name)
            wrapped = self._wrap(orig, span_name, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapped)

        self._set(
            datastore.EmbeddingCache,
            "indices_of",
            self._wrap(datastore.EmbeddingCache.indices_of, "datastore.indices_of", lambda a, k, r: len(r)),
        )
        for cls in (transforms.LinearTransform, transforms.MlpTransform):
            self._set(cls, "apply", self._wrap(cls.apply, "transforms.apply", lambda a, k, r: len(a[1])))
        for cls in transforms.VariantModel.__subclasses__():
            self._set(cls, "begin_step", self._traced_begin_step(cls.begin_step))
            self._set(cls, "eval_transform", self._traced_eval_transform(cls.eval_transform))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _traced_begin_step(self, begin_step):
        tracer = self

        def traced(model, params):
            variant = model.spec.variant
            idx = tracer._open(f"transforms.begin_step.{variant}")
            try:
                state = begin_step(model, params)
            finally:
                tracer._close(idx, 0)
            # instance attributes shadow the state class's methods for this step only
            state.apply = tracer._wrap(state.apply, f"transforms.state_apply.{variant}", lambda a, k, r: len(a[0]))
            state.vjp = tracer._wrap(state.vjp, f"transforms.state_vjp.{variant}")
            state.finish = tracer._wrap(state.finish, f"transforms.state_finish.{variant}")
            return state

        return traced

    def _traced_eval_transform(self, eval_transform):
        tracer = self

        def traced(model, params):
            idx = tracer._open(f"transforms.eval_transform.{model.spec.variant}")
            try:
                return eval_transform(model, params)
            finally:
                tracer._close(idx, 0)

        return traced

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "run_id", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics derived from spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def self_time_outside(spans, root_name: str) -> float:
    """Sum of self times of every span not under a root span named ``root_name``."""
    own = self_times(spans)
    root = []
    for s in spans:
        root.append(root[s[3]] if s[3] >= 0 else s[0])
    return sum(o for o, r in zip(own, root) if r != root_name)


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics keyed by name; every name is present, 0 where a layer was idle."""
    own = self_times(spans)
    durs: dict[str, list[float]] = {}
    owns: dict[str, list[float]] = {}
    works: dict[str, list[int]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, o in zip(spans, own):
        durs.setdefault(s[0], []).append(s[2] - s[1])
        owns.setdefault(s[0], []).append(o)
        works.setdefault(s[0], []).append(s[5])
        layer_self[s[0].split(".", 1)[0]] += o

    def total(name):
        return sum(durs.get(name, ()))

    def count(name):
        return len(durs.get(name, ()))

    def done(name):
        return sum(works.get(name, ()))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    for verb in VERBS:
        m[f"cli.{verb}.s"] = total(f"cli.{verb}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    m["datastore.generate_synthetic.s"] = total("datastore.generate_synthetic")
    m["datastore.write_cache.s"] = total("datastore.write_cache")
    m["datastore.load_cache.s"] = total("datastore.load_cache")
    m["datastore.load_cache.calls"] = count("datastore.load_cache")
    m["datastore.load_cache.mb_per_s"] = rate(done("datastore.load_cache") / 2**20, total("datastore.load_cache"))
    m["datastore.validate_jsonl.s"] = total("datastore.validate_jsonl")
    m["datastore.validate_jsonl.rows_per_s"] = rate(done("datastore.validate_jsonl"), total("datastore.validate_jsonl"))
    m["datastore.indices_of.s"] = total("datastore.indices_of")
    m["datastore.indices_of.calls"] = count("datastore.indices_of")
    m["datastore.indices_of.ids"] = done("datastore.indices_of")
    m["datastore.build_pool.s"] = total("datastore.build_pool")
    m["datastore.build_pool.calls"] = count("datastore.build_pool")

    step_rows = 0
    for v in VARIANTS:
        parts = sum(total(f"transforms.{p}.{v}") for p in ("begin_step", "state_apply", "state_vjp", "state_finish"))
        m[f"transforms.step.{v}.ms_per_step"] = 1e3 * rate(parts, count(f"transforms.begin_step.{v}"))
        m[f"transforms.eval_transform.{v}.ms"] = 1e3 * rate(
            total(f"transforms.eval_transform.{v}"), count(f"transforms.eval_transform.{v}")
        )
        step_rows += done(f"transforms.state_apply.{v}")
    m["transforms.step.rows"] = step_rows
    m["transforms.apply.s"] = total("transforms.apply")
    m["transforms.apply.calls"] = count("transforms.apply")
    m["transforms.apply.rows"] = done("transforms.apply")
    m["transforms.checkpoint_io.s"] = total("transforms.checkpoint_io")

    step_ms = [1e3 * d for d in durs.get("objective.step", [])]
    self_ms = [1e3 * o for o in owns.get("objective.step", [])]
    m["objective.step.calls"] = len(step_ms)
    m["objective.step.ms.p50"] = statistics.median(step_ms) if step_ms else 0.0
    m["objective.step.ms.p90"] = _pct(step_ms, 0.9)
    m["objective.self.ms.p50"] = statistics.median(self_ms) if self_ms else 0.0

    m["trainer.train.s"] = total("trainer.train")
    m["trainer.train.calls"] = count("trainer.train")
    m["trainer.validation_scores.s"] = total("trainer.validation_scores")
    m["trainer.validation_scores.calls"] = count("trainer.validation_scores")
    train_idx = {i for i, s in enumerate(spans) if s[0] == "trainer.train"}
    m["trainer.steps"] = sum(1 for s in spans if s[0] == "objective.step" and s[3] in train_idx)
    m["trainer.epochs"] = count("trainer.validation_scores")
    m["trainer.examples_per_s"] = rate(done("trainer.train"), total("trainer.train"))

    for fn in ("diagnostic_report", "recall_at_1", "selectivity"):
        m[f"metrics.{fn}.s"] = total(f"metrics.{fn}")
        m[f"metrics.{fn}.calls"] = count(f"metrics.{fn}")
    m["metrics.rank_stats.s"] = total("metrics.rank_stats")
    m["metrics.full_drift.s"] = total("metrics.full_drift")
    m["metrics.score_cells"] = done("metrics.recall_at_1") + done("metrics.rank_stats")
    m["metrics.score_bytes_max"] = 8 * max(works.get("metrics.recall_at_1", []) + works.get("metrics.rank_stats", []) + [0])

    m["harness.run_method_comparison.s"] = total("harness.run_method_comparison")
    m["harness.run_pool_sensitivity.s"] = total("harness.run_pool_sensitivity")
    return m
