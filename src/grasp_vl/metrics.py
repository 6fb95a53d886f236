"""Retrieval, selectivity, staircase, emergence, leakage, drift, rank and
zero-shot diagnostics over embedding caches.

Tie policy everywhere: a positive must win strictly; equal scores count as
misses so that degenerate collapses are never credited.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .datastore import BLOCK_BYTES, CandidatePool, EmbeddingCache, block_spans, build_pool, row_spans
from .errors import GraspError
from .transforms import (
    NEGATIVE_TYPES,
    STYLE_VIEW,
    VIEW_LEVELS,
    InterfaceContract,
    prefix_normalize,
)


def _rows64(rows: np.ndarray) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64)


# Top-1 scores 128 query rows against 1024 candidates at a time: a BLOCK_BYTES
# (1 MiB) float64 tile, which stays in a core's L2 cache between the product and
# the max pass.  Column tiles start on multiples of 16, the column unroll of
# OpenBLAS's AVX-512 DGEMM kernel, so when the pool size is a multiple of 8 every
# score is summed exactly as in a full-width product (README, "Score tiles and
# BLAS rounding").  Rank statistics sort whole rows, so they read full-width row
# blocks of at most BLOCK_BYTES: 6 query rows against 20000 candidates, or 65
# rows against 2000.
_TILE_ROWS = 128
_TILE_COLS = BLOCK_BYTES // (8 * _TILE_ROWS)


def _score_tiles(transform, query_rows, cand_rows, k: int, full_width: bool = False):
    """Yield ``(row_start, col_start, scores)`` for the tiles of the query x candidate scores.

    Tiles cover the candidates of one span of query rows, then move to the next
    span.  A tile has at most ``_TILE_ROWS`` x ``_TILE_COLS`` cells, or, with
    ``full_width``, every candidate and as many query rows as fit in
    ``BLOCK_BYTES``.  Each row is transformed once, and each tile is written
    into one buffer that the next tile overwrites: copy a tile to keep it.  The
    candidate side is transformed and normalized one row block at a time,
    straight into the contiguous (k, candidates) buffer that the tiles read.

    No tile has one row or one column unless the query set or the pool does:
    numpy hands such a product to BLAS's matrix-vector kernel, which rounds
    differently.  A one-row query set or a one-candidate pool is one tile, and
    a one-row query set keeps the operand layout it has always had.
    """
    zq = prefix_normalize(transform.apply(_rows64(query_rows)), k)
    n, m = zq.shape[0], len(cand_rows)
    # the transposed candidate side is cheaper for BLAS to pack, and its column slices need no copy
    zct = np.empty((k, m))
    for c0, c1 in block_spans(m, 8 * cand_rows.shape[1]):
        zct[:, c0:c1] = prefix_normalize(transform.apply(cand_rows[c0:c1]), k).T
    if n == 1 or m == 1:
        # a one-row query set multiplies the candidates in the row-major (m, k) layout it always has
        yield 0, 0, zq @ (np.ascontiguousarray(zct.T).T if n == 1 else zct)
        return
    if full_width:
        rows, cols = row_spans(n, BLOCK_BYTES // (8 * m)), [(0, m)]
    else:
        rows, cols = row_spans(n, _TILE_ROWS), row_spans(m, _TILE_COLS)
    buf = np.empty(max(b - a for a, b in rows) * max(b - a for a, b in cols))
    for r0, r1 in rows:
        for c0, c1 in cols:
            s = buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            np.matmul(zq[r0:r1], zct[:, c0:c1], out=s)
            yield r0, c0, s


def _unique_top(s: np.ndarray):
    """Each row's first maximal column, and whether it beats every other score of its row.

    The top cells are set to -inf for one pass over the block and then
    restored, so ``s`` ends as it began.  A NaN in the row is never a unique
    top; as in ``_strict_top1_hits``, a lone candidate scoring -inf is not one
    either.
    """
    rows = np.arange(s.shape[0])
    best = s.argmax(axis=1)
    top = s[rows, best]
    s[rows, best] = -np.inf
    unique = top > s.max(axis=1)
    s[rows, best] = top
    return best, unique


def _strict_top1_hits(tiles, targets: np.ndarray) -> np.ndarray:
    """Whether each query's target candidate is the strict row maximum; a tie at the top misses.

    One pass per tile: the target's score is read where the tile holds it, its
    cell set to -inf, and each row's running maximum over the other cells is
    carried across the row's column tiles with ``np.maximum``, which propagates
    NaN.  The target hits if it beats that maximum, so a NaN anywhere in the
    row misses, as does an equal score in any tile.  This is "equals the row
    maximum, and is its only candidate" for every score except a target of
    -inf in a one-candidate pool, which a cosine of finite rows cannot take.
    """
    own = np.zeros(len(targets))
    best = np.full(len(targets), -np.inf)
    for r0, c0, s in tiles:
        r1 = r0 + s.shape[0]
        cols = targets[r0:r1] - c0
        rows = np.flatnonzero((cols >= 0) & (cols < s.shape[1]))
        cols = cols[rows]
        own[r0 + rows] = s[rows, cols]
        s[rows, cols] = -np.inf
        np.maximum(best[r0:r1], s.max(axis=1), out=best[r0:r1])
    return own > best


def _pool_columns(cache: EmbeddingCache, q_idx: np.ndarray, c_idx: np.ndarray) -> np.ndarray:
    """Each query's own column in the pool, or -1 where the pool does not hold it."""
    col_of_row = np.full(cache.n, -1, dtype=np.intp)
    col_of_row[c_idx] = np.arange(len(c_idx))
    return col_of_row[q_idx]


def recall_at_1(
    cache: EmbeddingCache,
    transform,
    pool: CandidatePool,
    k: int,
    query_ids,
) -> float:
    """Image-to-text R@1 percentage; the query's own text must rank strictly first."""
    if len(query_ids) == 0:
        raise GraspError("EMPTY_POOL", "no queries")
    q_idx = cache.indices_of(query_ids)
    c_idx = cache.indices_of(pool.candidate_ids)
    positives = _pool_columns(cache, q_idx, c_idx)
    missing = np.flatnonzero(positives < 0)
    if missing.size:
        raise GraspError("POSITIVE_NOT_IN_POOL", f"query {query_ids[missing[0]]!r} has no positive in the pool")
    tiles = _score_tiles(transform, cache.images[q_idx], cache.views[pool.view_level][c_idx], k)
    return float(100.0 * _strict_top1_hits(tiles, positives).mean())


def selectivity(
    cache: EmbeddingCache,
    transform,
    k: int,
    neg_type: str,
    query_ids,
) -> float:
    """Percentage of queries whose style-matched positive beats the typed negative."""
    if len(query_ids) == 0:
        raise GraspError("EMPTY_POOL", "no queries")
    idx = cache.indices_of(query_ids)
    zi = prefix_normalize(transform.apply(_rows64(cache.images[idx])), k)
    zp = prefix_normalize(transform.apply(_rows64(cache.views[STYLE_VIEW[neg_type]][idx])), k)
    zn = prefix_normalize(transform.apply(_rows64(cache.negatives[neg_type][idx])), k)
    cp = np.einsum("ij,ij->i", zi, zp)
    cn = np.einsum("ij,ij->i", zi, zn)
    return float(100.0 * np.mean(cp > cn))


# ---------------------------------------------------------------------------
# Selectivity table and aggregates


@dataclass(eq=False)
class SelTable:
    prefixes: tuple[int, ...]
    types: tuple[str, ...]
    values: np.ndarray  # (len(prefixes), len(types)) percentages

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.prefixes), len(self.types)):
            raise GraspError("MISSING_CELL", f"selectivity table shape {self.values.shape} inconsistent")

    def cell(self, k: int, neg_type: str) -> float:
        try:
            return float(self.values[self.prefixes.index(k), self.types.index(neg_type)])
        except ValueError:
            raise GraspError("MISSING_CELL", f"no selectivity cell ({k}, {neg_type})") from None

    def to_json_dict(self) -> dict:
        return {
            "prefixes": list(self.prefixes),
            "types": list(self.types),
            "values": [[float(v) for v in row] for row in self.values],
        }


def sel_table(cache: EmbeddingCache, transform, contract: InterfaceContract, query_ids) -> SelTable:
    values = np.zeros((len(contract.prefixes), len(NEGATIVE_TYPES)))
    for i, k in enumerate(contract.prefixes):
        for j, r in enumerate(NEGATIVE_TYPES):
            values[i, j] = selectivity(cache, transform, k, r, query_ids)
    return SelTable(prefixes=contract.prefixes, types=NEGATIVE_TYPES, values=values)


HARD_AVG_TYPES = ("object", "attribute", "relation", "full")


def hard_average(sel: SelTable, contract: InterfaceContract) -> float:
    """Mean selectivity at each staircase type's assigned boundary prefix."""
    return float(np.mean([sel.cell(contract.kappa[r], r) for r in HARD_AVG_TYPES]))


def retrieval_average(ret_cells: dict[int, float], contract: InterfaceContract) -> float:
    """Mean R@1 over the assigned (prefix, view) cells, excluding the full prefix."""
    cells = []
    for k in contract.prefixes:
        if k == contract.dim:
            continue
        if k not in ret_cells:
            raise GraspError("MISSING_CELL", f"missing retrieval cell for prefix {k}")
        cells.append(ret_cells[k])
    if not cells:
        raise GraspError("MISSING_CELL", "no assigned retrieval cells")
    return float(np.mean(cells))


def stair_score(ret_avg: float, hard_avg: float) -> float:
    return 0.5 * (ret_avg + hard_avg)


def staircase(ret_cells: dict[int, float], sel: SelTable, contract: InterfaceContract):
    """(RetAvg, HardAvg, Stair) from assigned retrieval cells and the Sel table."""
    ret_avg = retrieval_average(ret_cells, contract)
    hard_avg = hard_average(sel, contract)
    return ret_avg, hard_avg, stair_score(ret_avg, hard_avg)


def emergence_gap(sel: SelTable, contract: InterfaceContract, neg_type: str) -> float:
    """Selectivity at the assigned boundary minus its mean over earlier prefixes."""
    boundary = contract.kappa[neg_type]
    earlier = [k for k in sel.prefixes if k < boundary]
    if not earlier:
        raise GraspError("NO_EARLIER_PREFIX", f"kappa({neg_type}) is the first prefix")
    at_boundary = sel.cell(boundary, neg_type)
    return float(at_boundary - np.mean([sel.cell(k, neg_type) for k in earlier]))


def emergence(sel: SelTable, contract: InterfaceContract):
    """Per-type emergence gaps and their mean.

    Types whose boundary is the first prefix have no earlier prefix and are
    excluded from the mean.
    """
    gaps: dict[str, float] = {}
    for r in NEGATIVE_TYPES:
        if any(k < contract.kappa[r] for k in sel.prefixes):
            gaps[r] = emergence_gap(sel, contract, r)
    if not gaps:
        raise GraspError("NO_EARLIER_PREFIX", "every type's boundary is the first prefix")
    return gaps, float(np.mean(list(gaps.values())))


def emergence_vs_first(sel: SelTable, contract: InterfaceContract, neg_type: str) -> float:
    """Boundary selectivity minus the first-prefix cell only.

    Companion readout to the mean-over-earlier-prefixes gap: the two published
    summaries differ for external probes, so both are reported.
    """
    boundary = contract.kappa[neg_type]
    first = sel.prefixes[0]
    if boundary <= first:
        raise GraspError("NO_EARLIER_PREFIX", f"kappa({neg_type}) is the first prefix")
    return float(sel.cell(boundary, neg_type) - sel.cell(first, neg_type))


def leakage(sel: SelTable, contract: InterfaceContract) -> float:
    """Mean selectivity over all (prefix, type) cells before the assigned boundary."""
    cells = [sel.cell(k, r) for r in NEGATIVE_TYPES for k in sel.prefixes if k < contract.kappa[r]]
    if not cells:
        raise GraspError("EMPTY_SET", "no pre-boundary cells under this contract")
    return float(np.mean(cells))


# ---------------------------------------------------------------------------
# Full-space drift


# Drift compares all pairs of at most this many rows, in strips of about BLOCK_BYTES.
_DRIFT_ROWS = 1000


def drift_rows(cache: EmbeddingCache) -> np.ndarray:
    """The rows whose drift a report states: at most 1000, strided over the images then the G3 captions.

    The rows are gathered before the cast to float64, so the result is a copy of those rows alone.
    """
    picks = np.arange(2 * cache.n)
    if picks.size > _DRIFT_ROWS:
        picks = picks[:: picks.size // _DRIFT_ROWS][:_DRIFT_ROWS]
    images = picks[picks < cache.n]
    texts = picks[images.size :] - cache.n
    return np.concatenate([cache.images[images], cache.views["G3"][texts]]).astype(np.float64)


def full_drift(rows: np.ndarray, transform, renormalize: bool = True) -> float:
    """Max absolute change of full-dimensional similarities over all pairs of ``rows``.

    With ``renormalize`` the transformed rows are re-unitized first, so the
    value measures cosine drift; without it the raw inner products are
    compared.
    """
    e = _rows64(rows)
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    z = transform.apply(_rows64(rows))
    if renormalize:
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n = e.shape[0]
    if n < 2:
        raise GraspError("DIM_MISMATCH", "drift needs at least two rows")
    # the maximum over row strips of the pair matrices; np.max keeps a NaN that Python's max() may drop
    return float(np.max([np.abs(z[a:b] @ z.T - e[a:b] @ e.T).max() for a, b in block_spans(n, 8 * n)]))


# ---------------------------------------------------------------------------
# Rank statistics and zero-shot classification


@dataclass
class RankStats:
    purity_at_10: float
    category_map: float
    median_rank: float
    r_at_1: float
    same_label_r_at_1: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def rank_stats(
    cache: EmbeddingCache,
    transform,
    pool: CandidatePool,
    k: int,
    query_ids,
    labels: dict[str, str],
) -> RankStats:
    """Label-aware ranking statistics for one prefix.

    Ranks are 1-based and pessimistic about ties: tied candidates count as
    ranked above the positive.  Purity@10 and category mAP follow the stable
    descending order, in which equal scores keep candidate order.
    """
    if len(query_ids) == 0:
        raise GraspError("EMPTY_POOL", "no queries")
    for cid in pool.candidate_ids:
        if cid not in labels:
            raise GraspError("MISSING_LABELS", f"candidate {cid!r} has no label")
    for qid in query_ids:
        if qid not in labels:
            raise GraspError("MISSING_LABELS", f"query {qid!r} has no label")
    q_idx = cache.indices_of(query_ids)
    c_idx = cache.indices_of(pool.candidate_ids)
    positives = _pool_columns(cache, q_idx, c_idx)
    if not np.any(positives >= 0):
        raise GraspError("POSITIVE_NOT_IN_POOL", "no query has its positive in the pool")
    codes: dict[str, int] = {}
    cand_codes = np.array([codes.setdefault(labels[cid], len(codes)) for cid in pool.candidate_ids], dtype=np.intp)
    q_codes = np.array([codes.setdefault(labels[qid], len(codes)) for qid in query_ids], dtype=np.intp)
    # the candidates labelled c are by_code[bounds[c]:bounds[c + 1]], in candidate order
    by_code = np.argsort(cand_codes, kind="stable")
    bounds = np.searchsorted(cand_codes[by_code], np.arange(len(codes) + 1))
    top_n = min(10, len(pool.candidate_ids))

    purities = np.zeros(len(query_ids))
    aps = np.zeros(len(query_ids))
    ranks = np.zeros(len(query_ids), dtype=np.intp)
    label_hits = np.zeros(len(query_ids), dtype=bool)
    q_rows, c_rows = cache.images[q_idx], cache.views[pool.view_level][c_idx]
    for start, _, s in _score_tiles(transform, q_rows, c_rows, k, full_width=True):
        stop = start + s.shape[0]
        rows = np.arange(s.shape[0])
        # rows whose positive is not in the pool read column 0 here and are dropped below
        own = s[rows, np.maximum(positives[start:stop], 0)]
        ranks[start:stop] = (s >= own[:, None]).sum(axis=1)  # counts self; ties rank above
        best, unique = _unique_top(s)
        label_hits[start:stop] = unique & (cand_codes[best] == q_codes[start:stop])
        ordered = np.sort(s, axis=1)
        maybe_tied = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1) | np.isnan(ordered[:, -1])
        for r in rows:
            c = q_codes[start + r]
            cols = by_code[bounds[c] : bounds[c + 1]]
            hit_positions = _hit_positions(s[r], ordered[r], cols, maybe_tied[r])
            purities[start + r] = np.count_nonzero(hit_positions <= top_n) / top_n
            if len(hit_positions):
                aps[start + r] = (np.arange(1, len(hit_positions) + 1) / hit_positions).mean()
    ranks = ranks[positives >= 0]
    return RankStats(
        purity_at_10=float(100.0 * np.mean(purities)),
        category_map=float(100.0 * np.mean(aps)),
        median_rank=float(np.median(ranks)),
        r_at_1=float(100.0 * np.mean(ranks == 1)),
        same_label_r_at_1=float(100.0 * np.mean(label_hits)),
    )


def _hit_positions(row: np.ndarray, ordered: np.ndarray, cols: np.ndarray, maybe_tied: bool) -> np.ndarray:
    """Ascending 1-based positions of candidates ``cols`` in the stable descending order of ``row``.

    ``ordered`` is ``np.sort(row)``; ``maybe_tied`` says whether it holds an
    equal pair or a NaN.  Candidate j sits at #(s > s_j) + #(s == s_j and
    index < j) + 1.  The second count is zero unless s_j is tied, so untied
    candidates need only a search of the sorted row.  A tie involving
    ``cols``, or a NaN (sorted last, where the search would count it as the
    largest score), takes the row's stable argsort: one sort of the row,
    however many values are tied.
    """
    v = np.sort(row[cols])  # sorted keys search faster and give the positions in order
    right = np.searchsorted(ordered, v, side="right")
    if maybe_tied and (np.isnan(ordered[-1]) or np.any(right - np.searchsorted(ordered, v, side="left") > 1)):
        where = np.empty(len(row), dtype=np.intp)
        where[np.argsort(-row, kind="stable")] = np.arange(1, len(row) + 1)
        return np.sort(where[cols])
    return len(row) + 1 - right[::-1]


def zero_shot(
    image_rows: np.ndarray,
    true_labels: np.ndarray,
    class_rows: np.ndarray,
    k: int,
    transform,
) -> float:
    """Top-1 percentage classifying each image against class text rows; ties miss."""
    if len(image_rows) == 0:
        raise GraspError("EMPTY_POOL", "no queries")
    class_rows = _rows64(class_rows)
    if class_rows.shape[0] < 2:
        raise GraspError("DIM_MISMATCH", "zero-shot needs at least two classes")
    labels = np.asarray(true_labels, dtype=np.intp)
    if labels.shape != (len(image_rows),):
        raise GraspError("DIM_MISMATCH", f"{labels.size} labels for {len(image_rows)} images")
    if labels.min() < 0 or labels.max() >= class_rows.shape[0]:
        raise GraspError("DIM_MISMATCH", f"labels must index the {class_rows.shape[0]} classes")
    tiles = _score_tiles(transform, image_rows, class_rows, k)
    return float(100.0 * np.mean(_strict_top1_hits(tiles, labels)))


# ---------------------------------------------------------------------------
# The assembled diagnostic report


@dataclass(eq=False)
class DiagnosticReport:
    retrieval: dict[tuple[int, str], float]  # (prefix, view) -> R@1
    sel: SelTable
    ret_avg: float
    hard_avg: float
    stair: float
    leak: float
    emergence_gaps: dict[str, float]
    emergence_mean: float
    emergence_vs_first: dict[str, float]
    drift: float
    drift_raw: float
    pool_mode: str
    pool_size: int
    n_queries: int
    rank: RankStats | None = None

    def __post_init__(self):
        want = stair_score(self.ret_avg, self.hard_avg)
        if self.stair != want:
            raise GraspError("MISSING_CELL", "stored staircase must equal (RetAvg + HardAvg) / 2")

    def to_json_dict(self) -> dict:
        return {
            "retrieval": {f"{k}:{g}": v for (k, g), v in self.retrieval.items()},
            "selectivity": self.sel.to_json_dict(),
            "ret_avg": self.ret_avg,
            "hard_avg": self.hard_avg,
            "stair": self.stair,
            "leak": self.leak,
            "emergence": {
                "per_type": self.emergence_gaps,
                "mean": self.emergence_mean,
                "vs_first_prefix": self.emergence_vs_first,
            },
            "drift": self.drift,
            "drift_raw": self.drift_raw,
            "pool": {"mode": self.pool_mode, "size": self.pool_size},
            "n_queries": self.n_queries,
            "rank_stats": self.rank.to_json_dict() if self.rank else None,
        }


def diagnostic_report(
    cache: EmbeddingCache,
    transform,
    contract: InterfaceContract,
    pool_mode: str = "full",
    query_split: str = "test",
    labels: dict[str, str] | None = None,
) -> DiagnosticReport:
    """Evaluate the full prefix grid for one transform."""
    query_ids = cache.split_ids(query_split)
    if not query_ids:
        raise GraspError("EMPTY_POOL", f"no queries in split {query_split!r}")
    retrieval: dict[tuple[int, str], float] = {}
    pools = {g: build_pool(cache, pool_mode, g) for g in VIEW_LEVELS}
    for k in contract.prefixes:
        for g in VIEW_LEVELS:
            retrieval[(k, g)] = recall_at_1(cache, transform, pools[g], k, query_ids)
    sel = sel_table(cache, transform, contract, query_ids)
    ret_cells = {k: retrieval[(k, contract.view_of[k])] for k in contract.prefixes if k != contract.dim}
    ret_avg, hard_avg, stair = staircase(ret_cells, sel, contract)
    gaps, gap_mean = emergence(sel, contract)
    vs_first = {r: emergence_vs_first(sel, contract, r) for r in gaps}
    leak = leakage(sel, contract)

    rows = drift_rows(cache)
    drift = full_drift(rows, transform, renormalize=True)
    drift_raw = full_drift(rows, transform, renormalize=False)

    rank = None
    if labels is not None:
        pool = pools["G3"]
        rank = rank_stats(cache, transform, pool, contract.prefixes[-2], query_ids, labels)

    return DiagnosticReport(
        retrieval=retrieval,
        sel=sel,
        ret_avg=ret_avg,
        hard_avg=hard_avg,
        stair=stair,
        leak=leak,
        emergence_gaps=gaps,
        emergence_mean=gap_mean,
        emergence_vs_first=vs_first,
        drift=drift,
        drift_raw=drift_raw,
        pool_mode=pool_mode,
        pool_size=len(pools["G3"].candidate_ids),
        n_queries=len(query_ids),
        rank=rank,
    )
