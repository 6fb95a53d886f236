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


# Top-1 scores 128 query rows against 1024 candidates at a time: a BLOCK_BYTES
# (1 MiB) float64 tile, which stays in a core's L2 cache between the product and
# the max pass.  Both sides of every score are built by ``_side``: rows are
# transformed in blocks of at least 32 rows (a product of a few rows goes to
# BLAS's small-matrix kernel, which rounds differently), and zero-padded to a
# multiple of 16 columns, the column unroll of OpenBLAS's AVX-512 DGEMM kernel.
# Column tiles start on multiples of 16, so every score is summed exactly as in
# one padded full-width product, whatever the blocking and the size of its query
# set or pool (README, "Score tiles and BLAS rounding").  Rank statistics sort
# whole rows, so they read full-width strips, each with a sort buffer of about
# 2 * BLOCK_BYTES: 11 query rows against 20000 candidates of which 2500 share the
# query's label.
_TILE_ROWS = 128
_TILE_COLS = BLOCK_BYTES // (8 * _TILE_ROWS)
_COL_ALIGN = 16
_MIN_BLOCK_ROWS = 32


def _score_tiles(transform, query_rows, cand_matrix, cand_idx, k: int):
    """The tiles of the query x candidate scores, as ``_tiles`` yields them.

    The candidates are the rows ``cand_matrix[cand_idx]``, gathered one row
    block at a time.  A tile has at most ``_TILE_ROWS`` x ``_TILE_COLS``
    cells.  Each row is transformed once, by ``_side``.
    """
    zqt = _side(transform, query_rows, np.arange(len(query_rows)), k)
    zct = _side(transform, cand_matrix, cand_idx, k)
    return _tiles(zqt, zct, len(query_rows), len(cand_idx), _TILE_ROWS, _TILE_COLS)


def _tiles(zqt: np.ndarray, zct: np.ndarray, n: int, m: int, tile_rows: int, tile_cols: int):
    """Yield ``(row_start, col_start, scores)`` for tiles of the first ``n`` columns of ``zqt`` by ``m`` of ``zct``.

    Tiles cover the candidates of one span of at most ``tile_rows`` query
    rows, then move to the next span.  Each tile is written into one buffer
    that the next tile overwrites: copy a tile to keep it.

    No product has one row or one column: numpy hands such a product to BLAS's
    matrix-vector kernel, which rounds differently.  The spans cover
    ``max(n, 2)`` query rows and each product runs to the next multiple of 16
    columns, into the sides' zero padding; the yielded tiles stop at the
    query set's and the pool's ends.
    """
    rows, cols = row_spans(max(n, 2), tile_rows), row_spans(m, tile_cols)
    width = [min(_aligned(c1 - c0), zct.shape[1] - c0) for c0, c1 in cols]
    buf = np.empty(max(b - a for a, b in rows) * max(width))
    for r0, r1 in rows:
        for (c0, c1), w in zip(cols, width):
            s = buf[: (r1 - r0) * w].reshape(r1 - r0, w)
            np.matmul(zqt[:, r0:r1].T, zct[:, c0 : c0 + w], out=s)
            yield r0, c0, s[: n - r0, : c1 - c0]


def _side(transform, matrix, idx, k: int) -> np.ndarray:
    """The transformed, k-prefix-normalized rows ``matrix[idx]`` as the columns of a (k, padded) array.

    The rows are gathered into the leading rows of one reused block buffer and
    transformed one block of at least ``_MIN_BLOCK_ROWS`` rows at a time, zero
    rows padding a shorter block; each block is normalized straight into the
    side.  The transposed side is cheaper for BLAS to pack, and its column
    slices need no copy.  Its columns past the rows are zero.
    """
    m, d = len(idx), matrix.shape[1]
    spans = block_spans(m, 8 * d)
    # np.empty and explicit zero fills: calloc'd buffers (np.zeros) raised compare_family's peak RSS by up to 1 MiB
    side = np.empty((k, _aligned(m)))
    side[:, m:] = 0.0
    buf = np.empty((max([_MIN_BLOCK_ROWS] + [b - a for a, b in spans]), d))
    for c0, c1 in spans:
        block = buf[: max(c1 - c0, _MIN_BLOCK_ROWS)]
        block[c1 - c0 :] = 0.0
        block[: c1 - c0] = matrix[idx[c0:c1]]
        prefix_normalize(transform.apply(block)[: c1 - c0], k, out=side[:, c0:c1].T)
    return side


def _aligned(m: int) -> int:
    """``m`` rounded up to a multiple of ``_COL_ALIGN``."""
    return -(-m // _COL_ALIGN) * _COL_ALIGN


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


def _row_words(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows ``matrix[idx]`` as unsigned 32-bit words: equal words are equal bytes."""
    return matrix[idx].view(np.uint32)


def _row_keys(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A 64-bit hash of the bytes of each row ``matrix[idx]``, computed one row block at a time."""
    words = matrix.shape[1] * matrix.itemsize // 4
    # odd multipliers from a fixed seed; the products and their sum wrap modulo 2**64
    mult = np.random.default_rng(0).integers(0, 2**63, size=words, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    keys = np.empty(len(idx), dtype=np.uint64)
    for a, b in block_spans(len(idx), 8 * words):
        keys[a:b] = _row_words(matrix, idx[a:b]) @ mult
    return keys


def _distinct_rows(matrix: np.ndarray, idx: np.ndarray):
    """``(first, group)``: the positions in ``idx`` of its distinct rows, and each position's distinct row.

    Rows are distinct unless byte-identical.  ``first`` holds the first
    position of each distinct row, in ``idx`` order, and ``idx[first][group]``
    has the bytes of ``matrix[idx]``.  Rows are grouped by a hash of their
    bytes, and each is checked against its group's first row, byte for byte; a
    row that fails the check, a hash collision, is a distinct row of its own.
    """
    keys = _row_keys(matrix, idx)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_key = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    rep = np.empty(len(idx), dtype=np.intp)
    # the stable sort puts the first position of each run of equal keys first
    rep[order] = order[np.flatnonzero(new_key)][np.cumsum(new_key) - 1]
    twins = np.flatnonzero(rep != np.arange(len(idx)))
    for a, b in block_spans(len(twins), 8 * matrix.shape[1]):
        same = (_row_words(matrix, idx[twins[a:b]]) == _row_words(matrix, idx[rep[twins[a:b]]])).all(axis=1)
        rep[twins[a:b][~same]] = twins[a:b][~same]
    first = np.flatnonzero(rep == np.arange(len(idx)))
    group = np.empty(len(idx), dtype=np.intp)
    group[first] = np.arange(len(first))
    return first, group[rep]


def _pool_rows(cache: EmbeddingCache, pool: CandidatePool):
    """``(c_idx, first, group)``: the cache rows of ``pool``'s candidates, and ``_distinct_rows`` of them in its view.

    Computed on the pool's first use with a cache matrix and kept on the pool
    (``CandidatePool.keyed``), so the cells that score one pool key it once;
    a use with another matrix computes them again.
    """
    matrix = cache.views[pool.view_level]
    if pool.keyed is None or pool.keyed[0] is not matrix:
        c_idx = cache.indices_of(pool.candidate_ids)
        pool.keyed = (matrix, c_idx, *_distinct_rows(matrix, c_idx))
    return pool.keyed[1:]


def recall_at_1(
    cache: EmbeddingCache,
    transform,
    pool: CandidatePool,
    k: int,
    query_ids,
) -> float:
    """Image-to-text R@1 percentage; the query's own text must rank strictly first.

    Each distinct candidate row is scored once.  A query whose positive has a
    byte-identical twin in the pool misses: the twin's score ties with it.
    The pool's rows are keyed once per pool (``_pool_rows``).
    """
    if len(query_ids) == 0:
        raise GraspError("EMPTY_POOL", "no queries")
    q_idx = cache.indices_of(query_ids)
    c_idx, first, group = _pool_rows(cache, pool)
    positives = _pool_columns(cache, q_idx, c_idx)
    missing = np.flatnonzero(positives < 0)
    if missing.size:
        raise GraspError("POSITIVE_NOT_IN_POOL", f"query {query_ids[missing[0]]!r} has no positive in the pool")
    matrix = cache.views[pool.view_level]
    targets = group[positives]
    untwinned = np.bincount(group, minlength=len(first))[targets] == 1
    zqt = _side(transform, cache.images, q_idx, k)
    zct = _side(transform, matrix, c_idx[first], k)
    tiles = _tiles(zqt, zct, len(q_idx), len(first), _TILE_ROWS, _TILE_COLS)
    return float(100.0 * (_strict_top1_hits(tiles, targets) & untwinned).mean())


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
    zi = prefix_normalize(transform.apply(cache.images[idx]), k)
    zp = prefix_normalize(transform.apply(cache.views[STYLE_VIEW[neg_type]][idx]), k)
    zn = prefix_normalize(transform.apply(cache.negatives[neg_type][idx]), k)
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
    return float(np.mean([sel.cell(k, r) for k, r in staircase_cells(contract)[1]]))


def staircase_cells(contract: InterfaceContract):
    """The cells the staircase reads, in order: ``(ret, sel)``.

    ``ret`` holds the R@1 cells ``(k, view)`` of every prefix but the full one,
    each at the view level the contract assigns it; ``sel`` holds the
    selectivity cells ``(kappa[r], r)`` of every type ``r`` in ``HARD_AVG_TYPES``.
    """
    ret = [(k, contract.view_of[k]) for k in contract.prefixes if k != contract.dim]
    return ret, [(contract.kappa[r], r) for r in HARD_AVG_TYPES]


def stair_score(ret_avg: float, hard_avg: float) -> float:
    return 0.5 * (ret_avg + hard_avg)


def staircase(ret, sel) -> tuple[float, float, float]:
    """(RetAvg, HardAvg, Stair) from the values of the cells that ``staircase_cells`` lists, in its order."""
    if not ret:
        raise GraspError("MISSING_CELL", "no assigned retrieval cells")
    ret_avg, hard_avg = float(np.mean(ret)), float(np.mean(sel))
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
    e = np.asarray(rows, dtype=np.float64)
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    z = transform.apply(rows)
    if renormalize:
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n = e.shape[0]
    if n < 2:
        raise GraspError("DIM_MISMATCH", "drift needs at least two rows")
    spans = block_spans(n, 8 * n)
    longest = max(b - a for a, b in spans)
    z_buf, e_buf = np.empty(longest * n), np.empty(longest * n)
    worst = np.empty(len(spans))
    for i, (a, b) in enumerate(spans):
        # both pair strips are written into reused buffers; the difference and its abs are taken in place
        diff = np.matmul(z[a:b], z.T, out=z_buf[: (b - a) * n].reshape(b - a, n))
        diff -= np.matmul(e[a:b], e.T, out=e_buf[: (b - a) * n].reshape(b - a, n))
        worst[i] = np.abs(diff, out=diff).max()
    # the maximum over the strips; np.max keeps a NaN that Python's max() may drop
    return float(worst.max())


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

    The query rows are grouped by label and scored in full-width strips whose
    sort buffer holds about ``2 * BLOCK_BYTES``; a strip may run across labels,
    and as in ``_tiles`` no product has one row.  The unique top is read from
    the strip's scores.  Each row's label positions and its positive's rank
    come from one sort of the row with its label's scores
    (``_label_positions``): the positive carries its query's label.
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
    bounds = np.concatenate(([0], np.cumsum(np.bincount(cand_codes, minlength=len(codes)))))
    top_n = min(10, len(pool.candidate_ids))

    purities = np.zeros(len(query_ids))
    aps = np.zeros(len(query_ids))
    ranks = np.zeros(len(query_ids), dtype=np.intp)
    label_hits = np.zeros(len(query_ids), dtype=bool)
    # the query rows grouped by label, each label's rows in query order; a strip may run across labels
    grouped = np.argsort(q_codes, kind="stable")
    zqt = _side(transform, cache.images, q_idx[grouped], k)
    zct = _side(transform, cache.views[pool.view_level], c_idx, k)
    width = len(c_idx) + int(np.diff(bounds)[q_codes].max())  # the longest row sorted with its label's scores
    work = np.empty(0)
    for start, _, s in _tiles(zqt, zct, len(q_idx), len(c_idx), 2 * BLOCK_BYTES // (8 * width), zct.shape[1]):
        rows = grouped[start : start + s.shape[0]]
        if work.size < s.shape[0] * width:
            work = np.empty(s.shape[0] * width)
        # rows whose positive is not in the pool read column 0 here and are dropped below
        own = s[np.arange(len(rows)), np.maximum(positives[rows], 0)]
        best, unique = _unique_top(s)
        label_hits[rows] = unique & (cand_codes[best] == q_codes[rows])
        cuts = np.flatnonzero(np.diff(q_codes[rows])) + 1
        for r0, r1 in zip([0, *cuts], [*cuts, len(rows)]):
            c = q_codes[rows[r0]]
            cols = by_code[bounds[c] : bounds[c + 1]]
            # a label with no candidate has no query whose positive is in the pool
            if len(cols):
                hits, ranks[rows[r0:r1]] = _label_positions(s[r0:r1], cols, own[r0:r1], work)
                purities[rows[r0:r1]] = np.count_nonzero(hits <= top_n, axis=1) / top_n
                # numpy sums each contiguous row pairwise, so each AP has the bits of its row's 1-D mean
                aps[rows[r0:r1]] = (np.arange(1, len(cols) + 1) / hits).mean(axis=1)
    ranks = ranks[positives >= 0]
    return RankStats(
        purity_at_10=float(100.0 * np.mean(purities)),
        category_map=float(100.0 * np.mean(aps)),
        median_rank=float(np.median(ranks)),
        r_at_1=float(100.0 * np.mean(ranks == 1)),
        same_label_r_at_1=float(100.0 * np.mean(label_hits)),
    )


def _label_positions(s: np.ndarray, cols: np.ndarray, own: np.ndarray, work: np.ndarray):
    """``(hits, ranks)``: the ascending 1-based positions of candidates ``cols`` in the stable descending order of
    each row of ``s``, and the rank of each row's score ``own``, one of its ``cols`` scores: the count of the row's
    scores >= it, so that ties rank above.

    Each row and a copy of its ``cols`` scores are sorted together, in place
    in ``work``; ``s`` keeps the unsorted scores.  In a row with no tie and no
    NaN every ``cols`` score is then the first of an adjacent equal pair, and
    there are no other equal neighbours: pair ``i`` (from 0, counted from the
    bottom) at sorted index ``j`` has ``j - i`` scores below it, so it sits at
    descending position ``m - (j - i)``, and ``own`` sits at the position of
    the ``cols`` score after the ones above it.  A row with any other count of
    equal neighbours, or with a NaN (sorted last), is placed by
    ``_hit_positions`` from its unsorted scores, and its scores >= ``own`` are
    counted.  A row whose ``own`` is not a ``cols`` score gets no meaningful
    rank.
    """
    r, m = s.shape
    n_cols = len(cols)
    x = work[: r * (m + n_cols)].reshape(r, m + n_cols)
    x[:, :m] = s
    x[:, m:] = s[:, cols]
    # the cols scores above own, counted before the sort; at most n_cols - 1 when own is one of them
    above = np.minimum(np.count_nonzero(x[:, m:] > own[:, None], axis=1), n_cols - 1)
    x.sort(axis=1)
    # equal neighbours, as flat indices into the (r, m + n_cols - 1) comparison; a NaN-free row has at least n_cols
    at = np.flatnonzero(x[:, 1:] == x[:, :-1])
    tied = np.isnan(x[:, -1])
    if len(at) != r * n_cols or tied.any():
        row = at // (m + n_cols - 1)
        tied |= np.bincount(row, minlength=r) != n_cols
        at = at[~tied[row]]
    untied = np.flatnonzero(~tied)
    # the sorted index of each pair, less the pairs below it: the scores below each cols score
    below = at.reshape(len(untied), n_cols) - (m + n_cols - 1) * untied[:, None] - np.arange(n_cols)
    if len(untied) == r:
        hits = (m - below)[:, ::-1]
        return hits, hits[np.arange(r), above]
    hits = np.empty((r, n_cols), dtype=np.intp)
    hits[untied] = (m - below)[:, ::-1]
    ranks = hits[np.arange(r), above]
    for i in np.flatnonzero(tied):
        hits[i] = _hit_positions(s[i], cols)
        ranks[i] = np.count_nonzero(s[i] >= own[i])  # a NaN score, or a NaN own, is counted nowhere
    return hits, ranks


def _hit_positions(row: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Ascending 1-based positions of candidates ``cols`` in the stable descending order of ``row``.

    One stable argsort of the row, however many scores are tied or NaN.
    """
    where = np.empty(len(row), dtype=np.intp)
    where[np.argsort(-row, kind="stable")] = np.arange(1, len(row) + 1)
    return np.sort(where[cols])


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
    if class_rows.shape[0] < 2:
        raise GraspError("DIM_MISMATCH", "zero-shot needs at least two classes")
    labels = np.asarray(true_labels, dtype=np.intp)
    if labels.shape != (len(image_rows),):
        raise GraspError("DIM_MISMATCH", f"{labels.size} labels for {len(image_rows)} images")
    if labels.min() < 0 or labels.max() >= class_rows.shape[0]:
        raise GraspError("DIM_MISMATCH", f"labels must index the {class_rows.shape[0]} classes")
    tiles = _score_tiles(transform, image_rows, class_rows, np.arange(class_rows.shape[0]), k)
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
    # view by view, each view's pool dropped before the next is built, so that one pool's keyed rows are alive
    # at a time; the cells are then listed prefix-major
    cells = {}
    for g in VIEW_LEVELS:
        pool = build_pool(cache, pool_mode, g)
        pool_size = len(pool.candidate_ids)
        for k in contract.prefixes:
            cells[(k, g)] = recall_at_1(cache, transform, pool, k, query_ids)
        del pool
    retrieval = {(k, g): cells[(k, g)] for k in contract.prefixes for g in VIEW_LEVELS}
    sel = sel_table(cache, transform, contract, query_ids)
    ret_cells, sel_cells = staircase_cells(contract)
    ret_avg, hard_avg, stair = staircase([retrieval[c] for c in ret_cells], [sel.cell(*c) for c in sel_cells])
    gaps, gap_mean = emergence(sel, contract)
    vs_first = {r: emergence_vs_first(sel, contract, r) for r in gaps}
    leak = leakage(sel, contract)

    rows = drift_rows(cache)
    drift = full_drift(rows, transform, renormalize=True)
    drift_raw = full_drift(rows, transform, renormalize=False)

    rank = None
    if labels is not None:
        pool = build_pool(cache, pool_mode, "G3")  # a pool of its own: the G3 cells' keyed rows are gone
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
        pool_size=pool_size,
        n_queries=len(query_ids),
        rank=rank,
    )
