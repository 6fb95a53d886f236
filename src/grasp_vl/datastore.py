"""Embedding caches, annotation rows and their validator, candidate pools,
and the synthetic block-structured corpus generator.

Cache file format: a JSON manifest naming one raw binary file per role.
Matrix files are little-endian float32, row-major, N x D, with unit-norm
rows.  Ids are one per line; splits are a JSON object id -> split.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import GraspError
from .transforms import (
    NEGATIVE_TYPES,
    VIEW_LEVELS,
    InterfaceContract,
    LinearTransform,
    fields_from_json,
    fields_to_json,
    random_orthogonal,
)

SPLITS = ("train", "val", "test")

CACHE_MANIFEST_VERSION = 1

# The eleven matrices of a cache, in the order they are written and listed.
CACHE_ROLES = ("image", *(f"text_{g}" for g in VIEW_LEVELS), *(f"neg_{r}" for r in NEGATIVE_TYPES))

_ROW_FIELDS = ("id", "dataset", "split", "caption", "views", "negatives", "distractors", "entity")
_VIEW_SET, _NEGATIVE_SET = frozenset(VIEW_LEVELS), frozenset(NEGATIVE_TYPES)

# Every transient whose size grows with the number of rows (the synthetic corpus as it is built, the evaluated
# candidate side, score blocks and drift strips) is made in row blocks of about this many bytes.
BLOCK_BYTES = 2**20

# Largest |norm - 1| of a cache row: a loaded cache may come from any embedding pipeline, a generated one is
# checked against its own construction.
_LOADED_NORM_TOL = 1e-3
_GENERATED_NORM_TOL = 1e-5


def row_spans(n: int, size: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` spans of at most ``size`` covering ``range(n)``.

    A last span of one is merged into the one before, so no span has length one
    unless ``n`` is one.
    """
    size = max(2, size)
    spans = []
    start = 0
    while start < n:
        stop = n if start + size >= n - 1 else start + size
        spans.append((start, stop))
        start = stop
    return spans


def block_spans(n: int, row_bytes: int) -> list[tuple[int, int]]:
    """Spans of near-equal length covering ``range(n)``, each of at most about ``BLOCK_BYTES`` of ``row_bytes`` rows.

    The rows are shared out evenly rather than leaving a short last block: a product of a few rows goes to
    BLAS's small-matrix kernel, which rounds differently from the kernel that multiplies all the rows at once.
    """
    blocks = max(1, -(-n * row_bytes // BLOCK_BYTES))
    return row_spans(n, -(-n // blocks))


# ---------------------------------------------------------------------------
# Annotation rows and the structural validator


@dataclass
class AnnotationRow:
    id: str
    dataset: str
    split: str
    caption: str
    views: dict[str, str]
    negatives: dict[str, str]
    distractors: list[str]
    entity: str
    surface_form: str | None = None

    def to_json_dict(self) -> dict:
        d = fields_to_json(self)
        if self.surface_form is None:
            del d["surface_form"]
        return d


def checked_annotation(line: str) -> dict:
    """The JSON object of one JSONL line, with the fields and types an ``AnnotationRow`` needs; raises MALFORMED
    on any structural problem.  It is not checked against the audit rules."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise GraspError("MALFORMED", f"unparseable JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise GraspError("MALFORMED", "annotation line is not a JSON object")
    for f in _ROW_FIELDS:
        if f not in obj:
            raise GraspError("MALFORMED", f"missing field {f!r}")
    views, negatives, distractors = obj["views"], obj["negatives"], obj["distractors"]
    # the keys of a JSON object are always strings; map(isinstance, ..., repeat(str)) checks the values without a
    # Python frame per value
    if not isinstance(views, dict) or not all(map(isinstance, views.values(), repeat(str))):
        raise GraspError("MALFORMED", "views must map level names to strings")
    if not _VIEW_SET.issuperset(views):
        raise GraspError("MALFORMED", f"unknown view level in {sorted(views)}")
    if not isinstance(negatives, dict) or not all(map(isinstance, negatives.values(), repeat(str))):
        raise GraspError("MALFORMED", "negatives must map type names to strings")
    if not _NEGATIVE_SET.issuperset(negatives):
        raise GraspError("MALFORMED", f"unknown negative type in {sorted(negatives)}")
    if not isinstance(distractors, list) or not all(map(isinstance, distractors, repeat(str))):
        raise GraspError("MALFORMED", "distractors must be a list of strings")
    for f in ("id", "dataset", "split", "caption", "entity"):
        if not isinstance(obj[f], str):
            raise GraspError("MALFORMED", f"field {f!r} must be a string")
    if obj["split"] not in SPLITS:
        raise GraspError("MALFORMED", f"unknown split {obj['split']!r}")
    sf = obj.get("surface_form")
    if sf is not None and not isinstance(sf, str):
        raise GraspError("MALFORMED", "surface_form must be a string when present")
    return obj


def parse_annotation_line(line: str) -> AnnotationRow:
    """Parse one JSONL line; raises MALFORMED on any structural problem (``checked_annotation``)."""
    obj = checked_annotation(line)
    return AnnotationRow(**{f: obj[f] for f in _ROW_FIELDS}, surface_form=obj.get("surface_form"))


@dataclass
class ValidationResult:
    id: str
    accepted: bool
    code: str | None = None

    def to_json_dict(self) -> dict:
        return {"id": self.id, "verdict": "accept" if self.accepted else "reject", "code": self.code}


def _squash(s: str) -> str:
    # grounding checks are literal substring matches (no lemmatization),
    # case-insensitive after whitespace collapsing
    return " ".join(s.split()).lower()


def validate_annotation_row(row: AnnotationRow) -> ValidationResult:
    """Apply the structural audit rules in order; first failure wins.

    "Attribute view differs from object view" is diagnostic only and never
    rejects a row.
    """

    def reject(code: str) -> ValidationResult:
        return ValidationResult(id=row.id, accepted=False, code=code)

    if not row.entity.strip():
        return reject("ENTITY_UNGROUNDED")
    missing_views = [g for g in VIEW_LEVELS if g not in row.views]
    if missing_views:
        return reject("MISSING_VIEW")
    if row.views["G3"] != row.caption:
        return reject("G3_MISMATCH")
    caption = _squash(row.caption)
    anchors = [_squash(row.entity)]
    if row.surface_form and row.surface_form.strip():
        anchors.append(_squash(row.surface_form))
    if not any(a in caption for a in anchors):
        return reject("ENTITY_UNGROUNDED")
    event = _squash(row.views["G2"])
    if not any(a in event for a in anchors):
        return reject("EVENT_UNGROUNDED")
    missing_negs = [r for r in NEGATIVE_TYPES if r not in row.negatives]
    if missing_negs:
        return reject("MISSING_NEGATIVE_TYPE")
    for r in NEGATIVE_TYPES:
        if _squash(row.negatives[r]) == caption:
            return reject("NEGATIVE_EQUALS_CAPTION")
    if row.negatives["full"] not in row.distractors:
        return reject("FULL_NEG_NOT_COPIED")
    return ValidationResult(id=row.id, accepted=True)


def validate_jsonl(path: str | Path):
    """Validate every line of a JSONL file.

    Returns (results, summary); the summary mirrors the audit-table layout:
    generation counts first, then per-rule rejection counts, then the
    non-filtering attribute-view diagnostic.
    """
    results: list[ValidationResult] = []
    rule_failures: dict[str, int] = {}
    attempted = 0
    parse_failures = 0
    attr_differs = 0
    accepted = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            if not line.strip():
                continue
            attempted += 1
            try:
                row = parse_annotation_line(line)
            except GraspError:
                parse_failures += 1
                res = ValidationResult(id=f"line{lineno + 1}", accepted=False, code="MALFORMED")
                rule_failures["MALFORMED"] = rule_failures.get("MALFORMED", 0) + 1
                results.append(res)
                continue
            res = validate_annotation_row(row)
            results.append(res)
            if res.accepted:
                accepted += 1
                if row.views.get("G1") != row.views.get("G0"):
                    attr_differs += 1
            else:
                rule_failures[res.code] = rule_failures.get(res.code, 0) + 1
    summary = {
        "attempted": attempted,
        "parse_failures": parse_failures,
        "quality_failures": attempted - parse_failures - accepted,
        "accepted": accepted,
        "accept_rate": (100.0 * accepted / attempted) if attempted else 0.0,
        "rule_failures": rule_failures,
        "diagnostic": {"attribute_view_differs_from_object_view": attr_differs},
    }
    return results, summary


# ---------------------------------------------------------------------------
# Embedding cache


@dataclass(eq=False)
class EmbeddingCache:
    dim: int
    ids: tuple[str, ...]
    split_of: dict[str, str]
    images: np.ndarray  # (N, D) float32 unit rows
    views: dict[str, np.ndarray]  # level -> (N, D)
    negatives: dict[str, np.ndarray]  # type -> (N, D)

    def __post_init__(self):
        self._index = {i: n for n, i in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise GraspError("MALFORMED", "duplicate ids in cache")
        for i in self.split_of:
            if i not in self._index:
                raise GraspError("MISSING_SPLIT", f"split table references unknown id {i!r}")
        for i in self.ids:
            if i not in self.split_of:
                raise GraspError("MISSING_SPLIT", f"id {i!r} has no split assignment")
            if self.split_of[i] not in SPLITS:
                raise GraspError("MISSING_SPLIT", f"unknown split {self.split_of[i]!r} for id {i!r}")

    @property
    def n(self) -> int:
        return len(self.ids)

    def row_index(self, id_: str) -> int:
        try:
            return self._index[id_]
        except KeyError:
            raise GraspError("MALFORMED", f"unknown id {id_!r}") from None

    def indices_of(self, ids) -> np.ndarray:
        """Row indices of ``ids``, any iterable, in one pass; the first unknown id is ``MALFORMED``."""
        try:
            return np.fromiter(map(self._index.__getitem__, ids), np.intp)
        except KeyError as e:
            raise GraspError("MALFORMED", f"unknown id {e.args[0]!r}") from None

    def split_ids(self, split: str) -> tuple[str, ...]:
        return tuple(i for i in self.ids if self.split_of[i] == split)

    def matrices(self):
        """``(role, rows)`` of the eleven matrices in ``CACHE_ROLES`` order."""
        matrices = (self.images, *(self.views[g] for g in VIEW_LEVELS), *(self.negatives[r] for r in NEGATIVE_TYPES))
        return zip(CACHE_ROLES, matrices)

    @classmethod
    def from_matrices(cls, ids: Sequence[str], split_of: dict[str, str], matrices) -> "EmbeddingCache":
        """A cache of the eleven ``matrices`` in ``CACHE_ROLES`` order."""
        images, views, negatives = matrices[0], matrices[1 : 1 + len(VIEW_LEVELS)], matrices[1 + len(VIEW_LEVELS) :]
        return cls(
            dim=images.shape[1],
            ids=tuple(ids),
            split_of=split_of,
            images=images,
            views=dict(zip(VIEW_LEVELS, views)),
            negatives=dict(zip(NEGATIVE_TYPES, negatives)),
        )


def _check_norms(name: str, blocks: Iterable[np.ndarray], norm_tol: float) -> None:
    """Raise ``NORM_VIOLATION`` unless every row of every block has a norm within ``norm_tol`` of 1; the message
    names the worst deviation over all the blocks.  A NaN row fails."""
    worst = 0.0
    for rows in blocks:
        # einsum sums the float32 rows in float64 through its own small cast buffers: no float64 copy of the rows
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
        worst = np.maximum(worst, np.abs(norms - 1.0).max())  # np.maximum keeps a NaN
    if not worst <= norm_tol:  # a NaN norm fails too
        raise GraspError("NORM_VIOLATION", f"{name}: row norm off by {worst:.2e} (tolerance {norm_tol:g})")


@dataclass(frozen=True)
class _CacheManifest:
    """A cache's ``manifest.json``: its shape, and the files that hold its matrices (by role), ids and splits,
    relative to the manifest's directory."""

    dim: int
    count: int
    files: dict[str, str]
    ids: str
    splits: str
    version: int = CACHE_MANIFEST_VERSION

    def __post_init__(self):
        if self.dim < 1 or self.count < 0:
            raise GraspError("MALFORMED", f"manifest declares dim {self.dim} and count {self.count}")
        if set(self.files) != set(CACHE_ROLES):
            raise GraspError("MALFORMED", f"manifest roles {sorted(self.files)} != required {sorted(CACHE_ROLES)}")
        if not all(isinstance(p, str) for p in (self.ids, self.splits, *self.files.values())):
            raise GraspError("MALFORMED", "manifest files, ids and splits must name files")


def _write_cache_blocks(
    out_dir: str | Path, dim: int, ids: Sequence[str], split_of: dict[str, str], blocks: Iterable[Iterable[np.ndarray]]
) -> Path:
    """Write a cache into ``out_dir``; returns the manifest path.  Each of ``blocks`` holds the next rows of the
    eleven matrices in ``CACHE_ROLES`` order, appended to their files as it comes, so no whole matrix need exist."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {name: f"{name}.f32" for name in CACHE_ROLES}
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(out / rel, "wb")) for rel in files.values()]
        for block in blocks:
            for fh, rows in zip(handles, block, strict=True):
                fh.write(np.ascontiguousarray(rows, dtype="<f4"))
    (out / "ids.txt").write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")
    (out / "splits.json").write_text(json.dumps(split_of, sort_keys=True), encoding="utf-8")
    manifest = _CacheManifest(dim=dim, count=len(ids), files=files, ids="ids.txt", splits="splits.json")
    path = out / "manifest.json"
    path.write_text(json.dumps(fields_to_json(manifest), indent=2, sort_keys=True), encoding="utf-8")
    return path


def write_cache(cache: EmbeddingCache, out_dir: str | Path) -> Path:
    """Write manifest plus binary matrices; returns the manifest path."""
    return _write_cache_blocks(out_dir, cache.dim, cache.ids, cache.split_of, [[rows for _, rows in cache.matrices()]])


def _map_matrix(name: str, path: Path, count: int, dim: int, norm_tol: float | None) -> np.ndarray:
    """The ``count`` x ``dim`` float32 rows of ``path``, served read-only from a map of the file: the process holds
    no anonymous copy of the matrix, and only the rows a verb reads become resident.  The file's size is checked
    first, and unless ``norm_tol`` is None its row norms too, in row blocks read from the same descriptor."""
    with open(path, "rb") as fh:
        nbytes = os.fstat(fh.fileno()).st_size
        if nbytes != 4 * count * dim:
            raise GraspError("SHAPE_MISMATCH", f"{name}: {nbytes} bytes cannot hold {count} x {dim} float32 rows")
        if norm_tol is not None:
            blocks = (np.fromfile(fh, "<f4", (b - a) * dim).reshape(b - a, dim) for a, b in block_spans(count, 4 * dim))
            _check_norms(name, blocks, norm_tol)
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if count else b""  # an empty file cannot be mapped
    return np.frombuffer(data, dtype="<f4").reshape(count, dim)


def load_cache(manifest_path: str | Path) -> EmbeddingCache:
    """Load and fully verify a cache; rejects shape or norm violations.  The matrices are read-only arrays over
    maps of their files, which must not change while the cache is in use."""
    manifest_path = Path(manifest_path)
    try:
        manifest = fields_from_json(_CacheManifest, json.loads(manifest_path.read_text(encoding="utf-8")))
    except OSError as exc:
        raise GraspError("IO_ERROR", str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes or JSON
        raise GraspError("MALFORMED", f"unreadable manifest: {exc}") from exc
    except (TypeError, AttributeError) as exc:  # not an object, a missing field, or a field of another JSON type
        raise GraspError("MALFORMED", f"invalid manifest: {exc!r}") from exc

    base, count = manifest_path.parent, manifest.count
    loaded: dict[str, np.ndarray] = {}
    try:
        ids = tuple((base / manifest.ids).read_text(encoding="utf-8").splitlines())
        if len(ids) != count:
            raise GraspError("SHAPE_MISMATCH", f"manifest declares {count} ids, file has {len(ids)}")
        split_of = json.loads((base / manifest.splits).read_text(encoding="utf-8"))
        for name, rel in manifest.files.items():
            loaded[name] = _map_matrix(name, base / rel, count, manifest.dim, _LOADED_NORM_TOL)
    except OSError as exc:
        raise GraspError("IO_ERROR", str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes or JSON, or a bad file name
        raise GraspError("MALFORMED", f"unreadable cache file: {exc}") from exc
    if not isinstance(split_of, dict):
        raise GraspError("MALFORMED", "split table must map ids to splits")
    return EmbeddingCache.from_matrices(ids, split_of, [loaded[name] for name in CACHE_ROLES])


# ---------------------------------------------------------------------------
# Candidate pools


@dataclass
class CandidatePool:
    mode: str  # full | test_only | custom
    candidate_ids: tuple[str, ...]
    view_level: str
    # what evaluation derives from the pool's rows of one cache matrix, kept for its next use on that matrix
    # (metrics._pool_rows); a pool dropped takes it along
    keyed: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.candidate_ids:
            raise GraspError("EMPTY_POOL", "candidate pool is empty")
        if len(set(self.candidate_ids)) != len(self.candidate_ids):
            raise GraspError("EMPTY_POOL", "candidate pool contains duplicates")
        if self.view_level not in VIEW_LEVELS:
            raise GraspError("MALFORMED", f"unknown view level {self.view_level!r}")


def build_pool(
    cache: EmbeddingCache,
    mode: str,
    view_level: str,
    custom_ids: tuple[str, ...] | None = None,
) -> CandidatePool:
    """Candidate id list for retrieval; ordering is deterministic by id."""
    if mode == "full":
        ids = tuple(sorted(cache.ids))
    elif mode == "test_only":
        ids = tuple(sorted(cache.split_ids("test")))
    elif mode == "custom":
        ids = tuple(custom_ids or ())
        for i in ids:
            cache.row_index(i)
    else:
        raise GraspError("MALFORMED", f"unknown pool mode {mode!r}")
    return CandidatePool(mode=mode, candidate_ids=ids, view_level=view_level)


# ---------------------------------------------------------------------------
# Synthetic corpus with a planted prefix staircase

_FACTORS = ("object", "attribute", "relation")


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int
    block_sizes: dict[str, int]  # object, attribute, relation, residual
    cardinalities: dict[str, int]  # per factor, >= 2
    noise_std: float
    n_examples: int
    seed: int

    def __post_init__(self):
        required = set(_FACTORS) | {"residual"}
        if set(self.block_sizes) != required:
            raise GraspError("BLOCK_OVERFLOW", f"block sizes must name exactly {sorted(required)}")
        total = sum(self.block_sizes.values())
        if total != self.dim:
            raise GraspError("BLOCK_OVERFLOW", f"block sizes sum to {total}, dim is {self.dim}")
        if set(self.cardinalities) != set(_FACTORS):
            raise GraspError("BLOCK_OVERFLOW", f"cardinalities must name exactly {sorted(_FACTORS)}")
        if any(c < 2 for c in self.cardinalities.values()):
            raise GraspError("BLOCK_OVERFLOW", "factor cardinalities must be >= 2")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise GraspError("BLOCK_OVERFLOW", f"noise_std must be finite and nonnegative, got {self.noise_std}")
        if self.n_examples < 2:  # each example's full negative is another example's caption
            raise GraspError("BLOCK_OVERFLOW", f"n_examples must be >= 2, got {self.n_examples}")
        if self.seed < 0:
            raise GraspError("BLOCK_OVERFLOW", "seed must be nonnegative")

    def to_json_dict(self) -> dict:
        return fields_to_json(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SyntheticSpec":
        return fields_from_json(cls, d)


@dataclass(eq=False)
class SyntheticResult:
    cache: EmbeddingCache
    oracle: LinearTransform
    contract: InterfaceContract
    class_rows: np.ndarray  # (object cardinality, D): mixed object-value embeddings
    assignments: dict[str, np.ndarray]  # factor -> value index per example
    flips: dict[str, np.ndarray]  # typed negative other than full -> the flipped value index per example
    distractors: np.ndarray  # the example whose caption is each example's full negative

    def iter_rows(self) -> Iterator[AnnotationRow]:
        """The annotation rows in id order, made one at a time, so that ``synth`` holds none of them."""
        n = self.cache.n
        obj, attr, rel = (self.assignments[f].tolist() for f in _FACTORS)
        flips = {r: v.tolist() for r, v in self.flips.items()}
        captions = [
            f"a photo of obj{o} attr{a} rel{r} in scene {i:05d}" for i, (o, a, r) in enumerate(zip(obj, attr, rel))
        ]
        for i, (id_, j) in enumerate(zip(self.cache.ids, self.distractors.tolist())):
            o, a, rl = f"obj{obj[i]}", f"attr{attr[i]}", f"rel{rel[i]}"
            extra = captions[(i + n // 2) % n]
            distractors = [captions[j]]
            if extra != captions[j] and extra != captions[i]:
                distractors.append(extra)
            yield AnnotationRow(
                id=id_,
                dataset="synthetic",
                split=self.cache.split_of[id_],
                caption=captions[i],
                views={"G0": o, "G1": f"{o} {a}", "G2": f"{o} {a} {rl}", "G3": captions[i]},
                negatives={
                    "object": f"obj{flips['object'][i]}",
                    "attribute": f"{o} attr{flips['attribute'][i]}",
                    "relation": f"{o} {a} rel{flips['relation'][i]}",
                    "action": f"{o} {a} rel{flips['action'][i]}",
                    "order": f"{o} {a} rel{flips['order'][i]}",
                    "full": captions[j],
                },
                distractors=distractors,
                entity=o,
            )

    @property
    def rows(self) -> list[AnnotationRow]:
        return list(self.iter_rows())


_VISIBLE_ENERGY = 0.7  # value-vector energy placed inside the factor's assigned prefix

# Relative block amplitudes.  The residual dominates so that typed flips are
# hard to separate under arbitrary (mixed-coordinate) prefixes, yet cleanly
# separable once the inverse mixing concentrates each factor in its own block.
_BLOCK_AMPLITUDE = {"object": 0.35, "attribute": 0.35, "relation": 0.4, "residual": 2.2}


def _value_table(rng: np.random.Generator, card: int, visible: int, hidden: int) -> np.ndarray:
    """Per-value block vectors, separable already in the visible sub-block.

    When the cardinality fits, visible parts are distinct signed unit axes
    (pairwise cosine 0 or -1); otherwise the best of 64 random draws by
    minimal worst-case pairwise alignment is used.
    """
    if card <= 2 * visible:
        vis = np.zeros((card, visible))
        for j in range(card):
            vis[j, j % visible] = 1.0 if j < visible else -1.0
    else:
        best, best_score = None, np.inf
        for _ in range(64):
            cand = rng.standard_normal((card, visible))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            gram = np.abs(cand @ cand.T) - np.eye(card)
            score = gram.max()
            if score < best_score:
                best, best_score = cand, score
        vis = best
    if hidden == 0:
        return vis
    hid = rng.standard_normal((card, hidden))
    hid /= np.linalg.norm(hid, axis=1, keepdims=True)
    table = np.concatenate(
        [np.sqrt(_VISIBLE_ENERGY) * vis, np.sqrt(1.0 - _VISIBLE_ENERGY) * hid], axis=1
    )
    return table


def generate_synthetic(spec: SyntheticSpec, cache_dir: str | Path | None = None) -> SyntheticResult:
    """Build a cache whose staircase is planted behind a random rotation.

    Block layout (object, attribute, relation, residual) follows the default
    prefix ladder; every view/negative embedding lives on the same blocks,
    typed negatives flip exactly the factor named by their type, and all rows
    are mixed by one random orthogonal matrix and renormalized.  The returned
    oracle is the inverse mixing, under which prefixes see the blocks again.

    The matrices are built one row block at a time.  Without ``cache_dir``
    the blocks are gathered into one array in memory.  With it, each block is
    appended to the files of a cache written there as soon as it is built, so
    no whole matrix is ever held, and the result's matrices are read-only maps
    of those files.
    """
    contract = InterfaceContract.default_ladder(spec.dim)
    rng = np.random.default_rng(spec.seed)

    starts = {}
    pos = 0
    for f in (*_FACTORS, "residual"):
        starts[f] = pos
        pos += spec.block_sizes[f]
    for f in _FACTORS:
        boundary = contract.kappa[f]
        if starts[f] >= boundary:
            raise GraspError(
                "BLOCK_OVERFLOW",
                f"{f} block starts at {starts[f]}, past its assigned prefix {boundary}",
            )

    tables = {}
    for f in _FACTORS:
        boundary = contract.kappa[f]
        size = spec.block_sizes[f]
        visible = min(size, boundary - starts[f])
        tables[f] = _value_table(rng, spec.cardinalities[f], visible, size - visible)

    n = spec.n_examples
    d = spec.dim
    assign = {f: rng.integers(spec.cardinalities[f], size=n) for f in _FACTORS}
    res_size = spec.block_sizes["residual"]
    residuals = rng.standard_normal((n, res_size))
    residuals /= np.linalg.norm(residuals, axis=1, keepdims=True)
    residuals *= _BLOCK_AMPLITUDE["residual"]

    # each typed negative moves its factor to one of the other values, drawn for every row at once, type by type
    flips = {}
    for neg_type, f in (("object", "object"), ("attribute", "attribute"), ("relation", "relation"),
                        ("action", "relation"), ("order", "relation")):
        other = rng.integers(spec.cardinalities[f] - 1, size=n)
        flips[neg_type] = other + (other >= assign[f])
    distractor_idx = (np.arange(n) + 1 + rng.integers(n - 1, size=n)) % n

    mixing = random_orthogonal(d, np.random.default_rng(spec.seed + 1))
    spans = block_spans(n, 8 * d)
    # three float64 buffers of the largest block (or the class rows), reused by every block through leading-row
    # views: freed block temporaries would let the allocator trim the heap and fault it back on the next block
    rows_max = max(max(b - a for a, b in spans), spec.cardinalities["object"])
    level_buf, copy_buf, product_buf = (np.empty((rows_max, d)) for _ in range(3))
    norm_buf = np.empty((rows_max, 1))

    def mix(rows: np.ndarray, out: np.ndarray) -> None:
        """Mix ``rows``, renormalize them and cast them into the float32 rows ``out``, with the bits of
        ``rows @ mixing.T / np.linalg.norm(..., axis=1, keepdims=True)``.  The squares overwrite ``copy_buf``,
        which is either free or holds ``rows``, read by then."""
        m = len(rows)
        mixed = np.matmul(rows, mixing.matrix.T, out=product_buf[:m])
        norms = np.add.reduce(np.multiply(mixed, mixed, out=copy_buf[:m]), axis=1, keepdims=True, out=norm_buf[:m])
        mixed /= np.sqrt(norms, out=norms)
        out[...] = mixed

    class_raw = np.zeros((spec.cardinalities["object"], d))
    class_raw[:, : spec.block_sizes["object"]] = tables["object"]
    class_rows = np.empty(class_raw.shape, dtype="<f4")
    mix(class_raw, class_rows)

    def placed(buf: np.ndarray, factor: str, values: np.ndarray) -> np.ndarray:
        s = starts[factor]
        buf[:, s : s + spec.block_sizes[factor]] = _BLOCK_AMPLITUDE[factor] * tables[factor][values]
        return buf

    def copied(rows: np.ndarray) -> np.ndarray:
        copy = copy_buf[: len(rows)]
        copy[...] = rows
        return copy

    def g3_rows(idx: np.ndarray) -> np.ndarray:
        rows = copy_buf[: len(idx)]
        rows.fill(0.0)
        for f in _FACTORS:
            placed(rows, f, assign[f][idx])
        rows[:, starts["residual"] :] = residuals[idx]
        return rows

    def blocks() -> Iterator[np.ndarray]:
        """The eleven matrices one row block at a time, in row order: each block is the (11, rows, D) float32 rows
        of the matrices in ``CACHE_ROLES`` order, checked for unit norms, in one buffer that the next block reuses.

        Within a block G0 -> G1 -> G2 -> G3 grow in one buffer, a typed negative is a copy of the level whose
        factor it flips, and the full negative is rebuilt from the G3 factors and residual of its distractor.  The
        image noise is the last draw from ``rng``, drawn block by block in row order, and adding G3 into it gives
        the bits of G3 + noise_std * noise.  Each row is computed as when every matrix was built whole, so the
        random draws and every written byte are unchanged."""
        block_buf = np.empty((len(CACHE_ROLES), rows_max, d), dtype="<f4")
        for a, b in spans:
            block = block_buf[:, : b - a]
            views = dict(zip(VIEW_LEVELS, block[1:]))
            negatives = dict(zip(NEGATIVE_TYPES, block[1 + len(VIEW_LEVELS) :]))
            level = level_buf[: b - a]
            level.fill(0.0)
            for g, factor, types in (
                ("G0", "object", ("object",)),
                ("G1", "attribute", ("attribute",)),
                ("G2", "relation", ("relation", "action", "order")),
            ):
                mix(placed(level, factor, assign[factor][a:b]), views[g])
                for r in types:
                    mix(placed(copied(level), factor, flips[r][a:b]), negatives[r])
            level[:, starts["residual"] :] = residuals[a:b]
            mix(level, views["G3"])
            mix(g3_rows(distractor_idx[a:b]), negatives["full"])
            noise = rng.standard_normal((b - a, d), out=copy_buf[: b - a])
            noise *= spec.noise_std
            noise += level
            mix(noise, block[0])
            for name, rows in zip(CACHE_ROLES, block):
                _check_norms(name, (rows,), _GENERATED_NORM_TOL)
            yield block

    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    splits = ["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val)
    ids = [f"ex{i:05d}" for i in range(n)]
    split_of = {ids[i]: splits[i] for i in range(n)}

    if cache_dir is None:
        matrices = np.empty((len(CACHE_ROLES), n, d), dtype="<f4")
        for block, (a, b) in zip(blocks(), spans):
            matrices[:, a:b] = block
    else:
        manifest = _write_cache_blocks(cache_dir, d, ids, split_of, blocks())
        matrices = [_map_matrix(name, manifest.parent / f"{name}.f32", n, d, None) for name in CACHE_ROLES]

    oracle = LinearTransform(mixing.matrix.T, "random", orthogonal=True)
    return SyntheticResult(
        cache=EmbeddingCache.from_matrices(ids, split_of, matrices),
        oracle=oracle,
        contract=contract,
        class_rows=class_rows.astype(np.float64),
        assignments=assign,
        flips=flips,
        distractors=distractor_idx,
    )
