"""Retrieval, selectivity, staircase, emergence, leakage, drift, rank and
zero-shot diagnostics over embedding caches.

Tie policy everywhere: a positive must win strictly; equal scores count as
misses so that degenerate collapses are never credited.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .datastore import CandidatePool, EmbeddingCache, build_pool
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


# Bytes of one float64 score block: 52 query rows against 20000 candidates, or
# a whole query set of up to 524 rows against 2000.
_BLOCK_BYTES = 8 * 2**20


def _score_blocks(transform, query_rows, cand_rows, k: int):
    """Yield ``(start, scores)`` for consecutive blocks of query rows against every candidate.

    Each query and candidate row is transformed once; only one block of scores
    exists at a time, so memory is O(block x candidates) whatever the query
    count.  A block never has a single row unless the query set does: numpy
    hands a one-row product to BLAS's matrix-vector kernel, which rounds
    differently from the matrix-matrix kernel that computes the other rows.
    """
    zq = prefix_normalize(transform.apply(_rows64(query_rows)), k)
    zc = prefix_normalize(transform.apply(_rows64(cand_rows)), k)
    rows = max(2, _BLOCK_BYTES // (8 * max(1, zc.shape[0])))
    n = zq.shape[0]
    # a contiguous copy of zc.T is cheaper for BLAS to pack once per block; a one-row
    # product keeps the view, since the matrix-vector kernel rounds by operand layout
    zct = zc.T if n == 1 else np.ascontiguousarray(zc.T)
    start = 0
    while start < n:
        stop = n if start + rows >= n - 1 else start + rows
        yield start, zq[start:stop] @ zct
        start = stop


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


def _strict_top1_hits(blocks, targets: np.ndarray) -> np.ndarray:
    """Whether each query's target candidate is the strict row maximum; a tie at the top misses.

    One pass per block: the target's score is read, its cell set to -inf (each
    block is a fresh array), and the target hits if it beats every other score.
    A NaN anywhere in the row misses.  This is "equals the row maximum, and is
    its only candidate" for every score except a target of -inf in a
    one-candidate pool, which a cosine of finite rows cannot take.
    """
    hits = np.zeros(len(targets), dtype=bool)
    for start, s in blocks:
        stop = start + s.shape[0]
        rows = np.arange(s.shape[0])
        cols = targets[start:stop]
        own = s[rows, cols]
        s[rows, cols] = -np.inf
        hits[start:stop] = own > s.max(axis=1)
    return hits


def recall_at_1(
    cache: EmbeddingCache,
    transform,
    pool: CandidatePool,
    k: int,
    query_ids,
) -> float:
    """Image-to-text R@1 percentage; the query's own text must rank strictly first."""
    cand_pos = {cid: j for j, cid in enumerate(pool.candidate_ids)}
    positives = []
    for qid in query_ids:
        if qid not in cand_pos:
            raise GraspError("POSITIVE_NOT_IN_POOL", f"query {qid!r} has no positive in the pool")
        positives.append(cand_pos[qid])
    positives = np.array(positives, dtype=np.intp)
    q_idx = cache.indices_of(query_ids)
    c_idx = cache.indices_of(pool.candidate_ids)
    blocks = _score_blocks(transform, cache.images[q_idx], cache.views[pool.view_level][c_idx], k)
    return float(100.0 * _strict_top1_hits(blocks, positives).mean())


def selectivity(
    cache: EmbeddingCache,
    transform,
    k: int,
    neg_type: str,
    query_ids,
) -> float:
    """Percentage of queries whose style-matched positive beats the typed negative."""
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


# Drift compares all pairs of at most this many rows: a 1000 x 1000 float64 matrix.
_DRIFT_ROWS = 1000


def drift_rows(cache: EmbeddingCache) -> np.ndarray:
    """The rows whose drift a report states: at most 1000, strided over the images then the G3 captions."""
    rows = np.concatenate([cache.images, cache.views["G3"]], axis=0).astype(np.float64)
    if rows.shape[0] > _DRIFT_ROWS:
        rows = rows[:: rows.shape[0] // _DRIFT_ROWS][:_DRIFT_ROWS]
    return rows


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
    return float(np.abs(z @ z.T - e @ e.T).max())


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
    for cid in pool.candidate_ids:
        if cid not in labels:
            raise GraspError("MISSING_LABELS", f"candidate {cid!r} has no label")
    for qid in query_ids:
        if qid not in labels:
            raise GraspError("MISSING_LABELS", f"query {qid!r} has no label")
    cand_pos = {cid: j for j, cid in enumerate(pool.candidate_ids)}
    q_idx = cache.indices_of(query_ids)
    c_idx = cache.indices_of(pool.candidate_ids)
    positives = np.array([cand_pos.get(qid, -1) for qid in query_ids], dtype=np.intp)
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
    for start, s in _score_blocks(transform, cache.images[q_idx], cache.views[pool.view_level][c_idx], k):
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
    class_rows = _rows64(class_rows)
    if class_rows.shape[0] < 2:
        raise GraspError("DIM_MISMATCH", "zero-shot needs at least two classes")
    labels = np.asarray(true_labels, dtype=np.intp)
    if labels.shape != (len(image_rows),):
        raise GraspError("DIM_MISMATCH", f"{labels.size} labels for {len(image_rows)} images")
    blocks = _score_blocks(transform, image_rows, class_rows, k)
    return float(100.0 * np.mean(_strict_top1_hits(blocks, labels)))


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
