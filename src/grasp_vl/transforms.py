"""Transform families, prefix scoring, and the prefix interface contract.

All transforms act on row matrices: ``Z = X @ R.T`` for a linear map with
matrix ``R``, so row ``i`` of ``Z`` is ``R @ X[i]``.
"""

from __future__ import annotations

import json
import math
import os
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import GraspError

VIEW_LEVELS = ("G0", "G1", "G2", "G3")
NEGATIVE_TYPES = ("object", "attribute", "relation", "action", "order", "full")

# Style-matched positive view for each negative type: the view that renders
# the same granularity as the perturbation the negative applies.
STYLE_VIEW = {
    "object": "G0",
    "attribute": "G1",
    "relation": "G2",
    "action": "G2",
    "order": "G2",
    "full": "G3",
}


# ---------------------------------------------------------------------------
# Interface contract


@dataclass(frozen=True)
class InterfaceContract:
    """Prefix ladder, per-prefix view assignment, and type boundary map."""

    prefixes: tuple[int, ...]
    view_of: dict[int, str]  # prefix -> view level assigned to it
    kappa: dict[str, int]  # negative type -> earliest prefix where it applies

    def __post_init__(self):
        ks = self.prefixes
        if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
            raise GraspError("INVALID_CONTRACT", "prefix set must be strictly increasing")
        if any(k <= 0 for k in ks):
            raise GraspError("INVALID_CONTRACT", "prefixes must be positive")
        if set(self.view_of) != set(ks):
            raise GraspError("INVALID_CONTRACT", "view assignment must cover exactly the prefix set")
        if any(v not in VIEW_LEVELS for v in self.view_of.values()):
            raise GraspError("INVALID_CONTRACT", f"unknown view level in {self.view_of}")
        if set(self.kappa) != set(NEGATIVE_TYPES):
            raise GraspError("INVALID_CONTRACT", "boundary map must cover all negative types")
        for r, k in self.kappa.items():
            if k not in ks:
                raise GraspError("INVALID_CONTRACT", f"kappa({r})={k} is not a prefix")

    @property
    def dim(self) -> int:
        return self.prefixes[-1]

    @classmethod
    def default_ladder(cls, dim: int) -> "InterfaceContract":
        """The ratio ladder D/16, D/8, D/4, D/2, D; requires 16 | D."""
        if dim % 16 != 0:
            raise GraspError("INVALID_CONTRACT", f"default ladder needs dim divisible by 16, got {dim}")
        ks = (dim // 16, dim // 8, dim // 4, dim // 2, dim)
        view_of = {ks[0]: "G0", ks[1]: "G1", ks[2]: "G2", ks[3]: "G3", ks[4]: "G3"}
        kappa = {
            "object": ks[0],
            "attribute": ks[1],
            "relation": ks[2],
            "action": ks[2],
            "order": ks[2],
            "full": ks[3],
        }
        return cls(prefixes=ks, view_of=view_of, kappa=kappa)

    def rank_prefixes(self, neg_type: str) -> tuple[int, ...]:
        b = self.kappa[neg_type]
        return tuple(k for k in self.prefixes if k >= b)

    def invariance_prefixes(self, neg_type: str) -> tuple[int, ...]:
        b = self.kappa[neg_type]
        return tuple(k for k in self.prefixes if k < b)

    def to_json_dict(self) -> dict:
        return {
            "prefix_set": list(self.prefixes),
            "view_assignment": {str(k): v for k, v in self.view_of.items()},
            "boundary_map": dict(self.kappa),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "InterfaceContract":
        return cls(
            prefixes=tuple(_from_json(int, k) for k in d["prefix_set"]),
            view_of=_from_json(dict[int, str], d["view_assignment"]),
            kappa=_from_json(dict[str, int], d["boundary_map"]),
        )


# ---------------------------------------------------------------------------
# Built transforms


@dataclass(frozen=True, eq=False)
class LinearTransform:
    """A dense linear map with provenance and (claimed) orthogonality.

    ``matrix`` is a read-only float64 copy of the given matrix, so its
    ``max|R^T R - I|``, computed once here, cannot go stale.
    """

    matrix: np.ndarray
    provenance: str
    orthogonal: bool
    _orthogonality_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GraspError("DIM_MISMATCH", f"transform matrix must be square, got {m.shape}")
        m.flags.writeable = False
        error = float(np.abs(m.T @ m - np.eye(m.shape[0])).max())
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_orthogonality_error", error)
        if self.orthogonal and not error <= 1e-8:  # a NaN error fails too
            raise GraspError("ORTHOGONALITY_VIOLATION", f"{self.provenance} map deviates from orthogonality by {error:.2e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def orthogonality_error(self) -> float:
        """``max|R^T R - I|`` of the stored matrix."""
        return self._orthogonality_error

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1] != self.dim:
            raise GraspError("DIM_MISMATCH", f"rows have width {rows.shape[-1]}, transform expects {self.dim}")
        return rows @ self.matrix.T


def _mlp_forward(p: dict[str, np.ndarray], rows: np.ndarray, out: np.ndarray | None = None):
    """The MLP adapter's output rows, written into ``out`` when given, and its tanh hidden layer, ``(z, h)``."""
    h = np.tanh(rows @ p["w1"].T + p["b1"])
    z = np.matmul(p["scale"] * h + p["shift"], p["w2"].T, out=out)
    z += p["b2"]
    return z, h


@dataclass(eq=False)
class MlpTransform:
    """Nonlinear adapter: D -> 2D tanh hidden with per-feature scale/shift -> D."""

    params: dict[str, np.ndarray]
    provenance: str = "mlp"
    orthogonal: bool = False

    @property
    def dim(self) -> int:
        return self.params["w2"].shape[0]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1] != self.dim:
            raise GraspError("DIM_MISMATCH", f"rows have width {rows.shape[-1]}, transform expects {self.dim}")
        return _mlp_forward(self.params, rows)[0]


def identity_transform(dim: int) -> LinearTransform:
    return LinearTransform(np.eye(dim), "identity", orthogonal=True)


def cayley_build(b: np.ndarray) -> LinearTransform:
    """Map an unconstrained square parameter to an orthogonal matrix (see cayley_build_with_vjp)."""
    return LinearTransform(cayley_build_with_vjp(b)[0], "cayley", orthogonal=True)


def cayley_build_with_vjp(b: np.ndarray):
    """Map an unconstrained square parameter to an orthogonal matrix, returning (R, vjp) with R a bare array.

    Skew-symmetrize A = B - B^T, then solve (I + A) R = (I - A).  The solve
    cannot be singular for finite A (eigenvalues of I + A are 1 + i*mu).

    vjp(dL/dR) -> dL/dB is the adjoint of the forward linear solve: with
    M = I + A and R = M^{-1}(I - A), a perturbation dA gives
    dR = -M^{-1} dA (R + I), so dL/dA = -M^{-T} G (R + I)^T and
    dL/dB = dL/dA - (dL/dA)^T.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise GraspError("DIM_MISMATCH", f"skew parameter must be square, got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise GraspError("NONFINITE_PARAMS", "skew parameter contains non-finite entries")
    a = b - b.T
    eye = np.eye(b.shape[0])
    m = eye + a
    try:
        r = np.linalg.solve(m, eye - a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - analytically impossible
        raise GraspError("SINGULAR_SOLVE", str(exc)) from exc

    def vjp(d_r: np.ndarray) -> np.ndarray:
        d_a = -np.linalg.solve(m.T, d_r) @ (r + eye).T
        return d_a - d_a.T

    return r, vjp


def random_orthogonal(dim: int, seed: int | np.random.Generator) -> LinearTransform:
    """Haar-style orthogonal matrix from QR of a seeded Gaussian draw."""
    if dim < 1:
        raise GraspError("DIM_MISMATCH", "dim must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return LinearTransform(q, "random", orthogonal=True)


def fit_pca(rows: np.ndarray) -> LinearTransform:
    """Rotation onto principal axes of the row covariance, by descending variance.

    The returned map is a pure rotation (no centering is applied at transform
    time), so full-space cosines are preserved.  Component signs are fixed by
    making each component's largest-magnitude coordinate positive.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise GraspError("DIM_MISMATCH", "expected an N x D training matrix")
    centered = rows - rows.mean(axis=0, keepdims=True)
    if np.abs(centered).max() == 0.0:
        raise GraspError("DEGENERATE_COVARIANCE", "training rows are all identical")
    cov = centered.T @ centered / max(rows.shape[0] - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    components = evecs[:, order].T  # row i = i-th principal direction
    anchor = np.abs(components).argmax(axis=1)
    signs = np.sign(components[np.arange(components.shape[0]), anchor])
    signs[signs == 0] = 1.0
    components = components * signs[:, None]
    t = LinearTransform(components, "pca", orthogonal=True)
    return t


# ---------------------------------------------------------------------------
# Butterfly-Givens stacks


def _require_power_of_two(dim: int) -> int:
    stages = int(round(math.log2(dim)))
    if dim < 2 or 2**stages != dim:
        raise GraspError("NOT_POWER_OF_TWO", f"butterfly transforms need a power-of-two dim, got {dim}")
    return stages


def butterfly_angle_shape(dim: int, stacks: int) -> tuple[int, int, int]:
    return (stacks, _require_power_of_two(dim), dim // 2)


def _stage_pairs(x: np.ndarray, stride: int) -> np.ndarray:
    """View (N, D) as (N, D/(2*stride), 2, stride): paired lanes at this stage."""
    n, d = x.shape
    return x.reshape(n, d // (2 * stride), 2, stride)


def butterfly_apply(angles: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Apply the stack of Givens stages to each row; stride doubles per stage."""
    z, _ = _butterfly_forward(angles, rows, keep_ctx=False)
    return z


def _butterfly_forward(angles: np.ndarray, rows: np.ndarray, keep_ctx: bool):
    angles = np.asarray(angles, dtype=np.float64)
    x = np.asarray(rows, dtype=np.float64)
    stacks, stages, half = angles.shape
    d = 2 * half
    if x.shape[-1] != d:
        raise GraspError("DIM_MISMATCH", f"rows have width {x.shape[-1]}, angles imply {d}")
    _require_power_of_two(d)
    x = x.copy()
    ctx = [] if keep_ctx else None
    for s in range(stacks):
        for t in range(stages):
            stride = 1 << t
            theta = angles[s, t].reshape(d // (2 * stride), stride)
            c = np.cos(theta)
            sn = np.sin(theta)
            p = _stage_pairs(x, stride)
            u = p[:, :, 0, :]
            v = p[:, :, 1, :]
            if keep_ctx:
                ctx.append((u.copy(), v.copy()))
            new_u = c * u - sn * v
            new_v = sn * u + c * v
            p[:, :, 0, :] = new_u
            p[:, :, 1, :] = new_v
    return x, ctx


def butterfly_apply_with_ctx(angles: np.ndarray, rows: np.ndarray):
    return _butterfly_forward(angles, rows, keep_ctx=True)


def butterfly_vjp(angles: np.ndarray, ctx: list, d_out: np.ndarray) -> np.ndarray:
    """Backward through the stages; returns dL/dangles (dL/drows is discarded)."""
    angles = np.asarray(angles, dtype=np.float64)
    stacks, stages, half = angles.shape
    d = 2 * half
    g = np.asarray(d_out, dtype=np.float64).copy()
    d_angles = np.zeros_like(angles)
    idx = len(ctx)
    for s in reversed(range(stacks)):
        for t in reversed(range(stages)):
            idx -= 1
            stride = 1 << t
            theta = angles[s, t].reshape(d // (2 * stride), stride)
            c = np.cos(theta)
            sn = np.sin(theta)
            u, v = ctx[idx]
            gp = _stage_pairs(g, stride)
            gu = gp[:, :, 0, :]
            gv = gp[:, :, 1, :]
            # d/dtheta of (c u - s v, s u + c v) = (-s u - c v, c u - s v)
            dth = (gu * (-sn * u - c * v) + gv * (c * u - sn * v)).sum(axis=0)
            d_angles[s, t] = dth.reshape(-1)
            # transpose rotation carries the gradient back to stage inputs
            new_gu = c * gu + sn * gv
            new_gv = -sn * gu + c * gv
            gp[:, :, 0, :] = new_gu
            gp[:, :, 1, :] = new_gv
    return d_angles


def butterfly_build(angles: np.ndarray) -> LinearTransform:
    """Materialize the stack product as a dense orthogonal matrix."""
    angles = np.asarray(angles, dtype=np.float64)
    d = 2 * angles.shape[2]
    basis = np.eye(d)
    # rows of butterfly_apply(I) are the images of the basis vectors, i.e. R^T
    rt = butterfly_apply(angles, basis)
    return LinearTransform(rt.T, "butterfly", orthogonal=True)


# ---------------------------------------------------------------------------
# Prefix projection and scoring


def prefix_normalize(rows: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """First k coordinates of each row, renormalized to unit length, written into ``out`` when it is given."""
    rows = np.asarray(rows, dtype=np.float64)
    if k < 1 or k > rows.shape[-1]:
        raise GraspError("DIM_MISMATCH", f"prefix {k} invalid for width {rows.shape[-1]}")
    sl = rows[..., :k]
    # the bits of np.linalg.norm(sl, axis=-1, keepdims=True), without the copy of sl it makes for conj()
    norms = np.sqrt(np.add.reduce(sl * sl, axis=-1, keepdims=True))
    if np.any(norms < 1e-12):
        raise GraspError("ZERO_PREFIX", f"prefix of length {k} has near-zero norm")
    return np.divide(sl, norms, out=out)


# ---------------------------------------------------------------------------
# Settings and records as JSON: each dataclass field declares its key, type and default once.


def fields_to_json(record) -> dict:
    """A dataclass's fields by name, each nested setting through its own ``to_json_dict``; values are not copied.

    The fields are read from the instance dict, which holds exactly them and costs a fifth of ``fields()``:
    ``synth`` writes one record per annotation row."""
    return {k: v.to_json_dict() if hasattr(v, "to_json_dict") else v for k, v in vars(record).items()}


def _from_json(kind, value):
    """``value`` read from JSON as type ``kind``: a nested setting through its ``from_json_dict``, a dict key by key
    (an ``int`` key parsed from its string) and value by value, an ``int`` from a JSON integer, a ``float`` from any
    JSON number, anything else (such as a string) as it is.  A bool or a string for a number is a TypeError."""
    if isinstance(kind, types.UnionType):  # ``float | None``: a value present in the JSON is not None
        kind = typing.get_args(kind)[0]
    if hasattr(kind, "from_json_dict"):
        return kind.from_json_dict(value)
    if typing.get_origin(kind) is dict:
        key_kind, value_kind = typing.get_args(kind)
        return {(int(k) if key_kind is int else k): _from_json(value_kind, v) for k, v in value.items()}
    if kind in (int, float) and type(value) not in (int, kind):  # bool is a subclass of int, not int itself
        raise TypeError(f"{value!r} is not a JSON {'integer' if kind is int else 'number'}")
    return kind(value) if kind in (int, float) else value


def fields_from_json(cls, d: dict):
    """A ``cls`` built from the keys of ``d`` that name its fields, each read as its field's type; a key that ``d``
    leaves out takes the field's default."""
    kinds = typing.get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    return cls(**{k: _from_json(kinds[k], v) for k, v in d.items() if k in names})


# ---------------------------------------------------------------------------
# Transform specs, parameter counting, trainable variant models


@dataclass(frozen=True)
class TransformSpec:
    """Which trainable family to use and its structural hyperparameters."""

    variant: str  # dense_cayley | butterfly | permutation | signed_permutation | low_rank | mlp
    dim: int
    stacks: int = 8  # butterfly only
    rank: int = 32  # low_rank only

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in _VARIANT_MODELS:
            raise GraspError("UNKNOWN_VARIANT", f"no such transform variant: {self.variant}")
        if self.dim < 1 or self.stacks < 0 or self.rank < 0:
            raise GraspError("CONFIG", f"transform needs dim >= 1 and stacks, rank >= 0: {self}")

    def to_json_dict(self) -> dict:
        return fields_to_json(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TransformSpec":
        return fields_from_json(cls, d)


def _param_draws(spec: TransformSpec) -> dict[str, tuple[tuple[int, ...], float, float]]:
    """Each trainable parameter of a variant in draw order, temperatures excluded, as ``(shape, mean, std)``: it
    starts at ``mean + std * rng.standard_normal(shape)``, or at ``mean`` throughout when ``std`` is 0."""
    d, h = spec.dim, 2 * spec.dim
    if spec.variant == "dense_cayley":
        return {"b": ((d, d), 0.0, 1e-3)}
    if spec.variant == "butterfly":
        return {"angles": (butterfly_angle_shape(d, spec.stacks), 0.0, 1e-3)}
    if spec.variant == "permutation":
        return {"logits": ((d, d), 0.0, 1e-2)}
    if spec.variant == "signed_permutation":
        return {"logits": ((d, d), 0.0, 1e-2), "sign_logits": ((d,), 1.0, 0.1)}
    if spec.variant == "low_rank":
        r = spec.rank
        return {"b": ((d, d), 0.0, 1e-3), "u": ((d, r), 0.0, 1e-2), "v": ((d, r), 0.0, 1e-2), "gate": ((), 1.0, 0.0)}
    glorot = math.sqrt(2.0 / (d + h))  # mlp
    return {
        "w1": ((h, d), 0.0, glorot),
        "b1": ((h,), 0.0, 0.0),
        "scale": ((h,), 1.0, 0.0),
        "shift": ((h,), 0.0, 0.0),
        "w2": ((d, h), 0.0, glorot),
        "b2": ((d,), 0.0, 0.0),
    }


def param_shapes(spec: TransformSpec) -> dict[str, tuple[int, ...]]:
    """Shape of each trainable parameter of a variant, temperatures excluded."""
    return {name: shape for name, (shape, _, _) in _param_draws(spec).items()}


def param_count(spec: TransformSpec, n_prefixes: int) -> int:
    """Exact trainable-scalar count for a variant, temperatures included."""
    return sum(math.prod(shape) for shape in param_shapes(spec).values()) + n_prefixes


_SINKHORN_ITERS = 8


def _sinkhorn(logits: np.ndarray):
    """Doubly-stochastic relaxation with saved intermediates for the backward pass."""
    m = np.exp(np.clip(logits, -30.0, 30.0))
    trace = [m]
    for _ in range(_SINKHORN_ITERS):
        m = m / m.sum(axis=1, keepdims=True)
        trace.append(m)
        m = m / m.sum(axis=0, keepdims=True)
        trace.append(m)
    return m, trace


def _sinkhorn_vjp(logits: np.ndarray, trace: list, d_out: np.ndarray) -> np.ndarray:
    g = d_out
    pos = len(trace) - 1
    for _ in range(_SINKHORN_ITERS):
        # undo column normalization: out = m / colsum(m)
        m_in = trace[pos - 1]
        out = trace[pos]
        s = m_in.sum(axis=0, keepdims=True)
        g = (g - (g * out).sum(axis=0, keepdims=True)) / s
        pos -= 1
        # undo row normalization
        m_in = trace[pos - 1]
        out = trace[pos]
        s = m_in.sum(axis=1, keepdims=True)
        g = (g - (g * out).sum(axis=1, keepdims=True)) / s
        pos -= 1
    return g * trace[0]  # chain through exp


def _solve_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of a square, finite cost matrix.

    Shortest augmenting paths with dual potentials ``u``, ``v`` (Crouse, IEEE
    TAES 2016, as in ``scipy.optimize.linear_sum_assignment``): each row in
    turn is joined by a Dijkstra search over the reduced costs
    ``c[i, j] - u[i] - v[j]`` that ends at the nearest free column, then the
    path is flipped and the potentials updated.  A search step is one Python
    iteration, vectorized over the columns; O(D^3) in all.  Among open columns
    of equal path cost the lowest index is reached first, so tied costs give
    the same assignment on every call.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise GraspError("DIM_MISMATCH", f"an assignment needs a square cost matrix, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise GraspError("NONFINITE_COST", "assignment costs must be finite")
    n = len(c)
    u, v = np.zeros(n), np.zeros(n)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    for cur in range(n):
        path_cost = np.full(n, np.inf)  # cheapest path from ``cur`` to each column
        path = np.zeros(n, dtype=np.intp)  # the row before each column on that path
        reached = np.zeros(n, dtype=bool)
        rows = []  # assigned rows the search passed through
        i, min_val = cur, 0.0
        for _ in range(n):  # each pass reaches one more column, and a free column is among them
            r = min_val + c[i]  # scipy's order of operations, so near-ties round the same way
            r -= u[i]
            r -= v
            shorter = (r < path_cost) & ~reached
            path_cost[shorter] = r[shorter]
            path[shorter] = i
            j = int(np.argmin(np.where(reached, np.inf, path_cost)))
            min_val = path_cost[j]
            reached[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
        else:
            raise GraspError("SOLVER_BOUND", f"row {cur}: no free column reached in {n} passes")
        u[cur] += min_val
        rows = np.array(rows, dtype=np.intp)
        u[rows] += min_val - path_cost[col4row[rows]]
        v[reached] -= min_val - path_cost[reached]
        for _ in range(n):  # flip the path back from the free column ``j`` to ``cur``, at most one pass per row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
        else:
            raise GraspError("SOLVER_BOUND", f"row {cur}: augmenting path longer than {n} rows")
    return col4row


def harden_doubly_stochastic(p: np.ndarray) -> np.ndarray:
    """Optimal-assignment rounding of a doubly-stochastic matrix to a permutation."""
    cols = _solve_assignment(-p)
    perm = np.zeros_like(p)
    perm[np.arange(len(cols)), cols] = 1.0
    return perm


class _LinearStepState:
    """Per-step differentiable view of a trainable linear map ``rows @ matrix.T``.

    ``apply`` maps raw rows to transformed rows, written into ``out`` when it
    is given, and returns them with a context for ``vjp``, which accumulates
    dL/dmatrix; ``finish`` sends the accumulated gradient back through
    ``matrix_vjp`` to the variant's parameters.
    """

    def __init__(self, matrix: np.ndarray, matrix_vjp, orthogonal: bool):
        self.orthogonal = orthogonal
        self.matrix = matrix
        self._matrix_vjp = matrix_vjp
        self._d_matrix = np.zeros_like(matrix)

    def apply(self, rows, out=None):
        rows = np.asarray(rows, dtype=np.float64)
        return np.matmul(rows, self.matrix.T, out=out), rows

    def vjp(self, ctx, d_rows):
        self._d_matrix += d_rows.T @ ctx

    def add_matrix_grad(self, d_matrix):
        self._d_matrix += d_matrix

    def finish(self):
        return self._matrix_vjp(self._d_matrix)


class _MlpStepState:
    """Per-step differentiable view of the MLP adapter, with ``_LinearStepState``'s ``apply``/``vjp``/``finish``."""

    orthogonal = False
    matrix = None  # no effective linear matrix

    def __init__(self, params: dict[str, np.ndarray]):
        self._p = params
        self._g = {k: np.zeros_like(v) for k, v in params.items()}

    def apply(self, rows, out=None):
        rows = np.asarray(rows, dtype=np.float64)
        z, h = _mlp_forward(self._p, rows, out)
        return z, (rows, h)

    def vjp(self, ctx, d_rows):
        rows, h = ctx
        p, g = self._p, self._g
        g["w2"] += d_rows.T @ (p["scale"] * h + p["shift"])
        g["b2"] += d_rows.sum(axis=0)
        d_mod = d_rows @ p["w2"]
        g["scale"] += (d_mod * h).sum(axis=0)
        g["shift"] += d_mod.sum(axis=0)
        d_h = d_mod * p["scale"] * (1.0 - h * h)
        g["w1"] += d_h.T @ rows
        g["b1"] += d_h.sum(axis=0)

    def finish(self):
        return self._g


class VariantModel:
    """Base for trainable transform families; ``shapes`` is ``param_shapes(spec)``, in the flat layout's order.

    A linear variant defines ``matrix(params) -> (matrix, matrix_vjp)``, which the training step and evaluation
    both build from; ``provenance`` and ``orthogonal`` label the map.  A variant overrides ``eval_transform`` only
    where the map it evaluates is not the step's matrix.
    """

    provenance = "linear"
    orthogonal = False

    def __init__(self, spec: TransformSpec):
        self.spec = spec
        self.dim = spec.dim
        self.shapes = param_shapes(spec)

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {
            name: mean + std * rng.standard_normal(shape) if std else np.full(shape, mean)
            for name, (shape, mean, std) in _param_draws(self.spec).items()
        }

    def begin_step(self, params: dict[str, np.ndarray]):
        return _LinearStepState(*self.matrix(params), self.orthogonal)

    def eval_transform(self, params: dict[str, np.ndarray]):
        return LinearTransform(self.matrix(params)[0], self.provenance, self.orthogonal)


class DenseCayleyModel(VariantModel):
    provenance = "cayley"
    orthogonal = True

    def matrix(self, params):
        r, vjp = cayley_build_with_vjp(params["b"])
        return r, lambda dm: {"b": vjp(dm)}


class ButterflyModel(VariantModel):
    provenance = "butterfly"
    orthogonal = True

    def matrix(self, params):
        angles = params["angles"]
        # rows of butterfly_apply(I) are R^T (see butterfly_build), so dL/dR^T = (dL/dR)^T
        rt, ctx = butterfly_apply_with_ctx(angles, np.eye(self.dim))
        return rt.T, lambda dm: {"angles": butterfly_vjp(angles, ctx, dm.T)}

    def eval_transform(self, params):
        return butterfly_build(params["angles"])  # without the step's per-stage context


class PermutationModel(VariantModel):
    """Doubly-stochastic relaxation while training; hardened at evaluation."""

    def matrix(self, params):
        p, trace = _sinkhorn(params["logits"])
        return p, lambda dm: {"logits": _sinkhorn_vjp(params["logits"], trace, dm)}

    def eval_transform(self, params):
        p, _ = _sinkhorn(params["logits"])
        return LinearTransform(harden_doubly_stochastic(p), "permutation", orthogonal=True)


class SignedPermutationModel(VariantModel):
    def matrix(self, params):
        p, trace = _sinkhorn(params["logits"])
        t = np.tanh(params["sign_logits"])

        def matrix_vjp(dm):
            dp = dm * t[None, :]
            dt = (dm * p).sum(axis=0)
            return {
                "logits": _sinkhorn_vjp(params["logits"], trace, dp),
                "sign_logits": dt * (1.0 - t * t),
            }

        return p * t[None, :], matrix_vjp

    def eval_transform(self, params):
        p, _ = _sinkhorn(params["logits"])
        perm = harden_doubly_stochastic(p)
        signs = np.where(params["sign_logits"] >= 0.0, 1.0, -1.0)
        return LinearTransform(perm * signs[None, :], "signed_permutation", orthogonal=True)


class LowRankModel(VariantModel):
    """Shared Cayley rotation plus a gated rank-r residual; not orthogonal."""

    def matrix(self, params):
        r, cayley_vjp = cayley_build_with_vjp(params["b"])
        u, v, gate = params["u"], params["v"], float(params["gate"])

        def matrix_vjp(dm):
            return {
                "b": cayley_vjp(dm),
                "u": gate * dm @ v,
                "v": gate * dm.T @ u,
                "gate": np.array(np.sum(dm * (u @ v.T))),
            }

        return r + gate * u @ v.T, matrix_vjp


class MlpModel(VariantModel):
    def begin_step(self, params):
        return _MlpStepState(params)

    def eval_transform(self, params):
        return MlpTransform({k: v.copy() for k, v in params.items()})


_VARIANT_MODELS = {
    "dense_cayley": DenseCayleyModel,
    "butterfly": ButterflyModel,
    "permutation": PermutationModel,
    "signed_permutation": SignedPermutationModel,
    "low_rank": LowRankModel,
    "mlp": MlpModel,
}


def make_model(spec: TransformSpec) -> VariantModel:
    return _VARIANT_MODELS[spec.variant](spec)


# ---------------------------------------------------------------------------
# Permutation-energy analysis


def permutation_energy(r: np.ndarray | LinearTransform) -> float:
    """Percentage of squared mass explained by the best single permutation.

    100 * max_sigma sum_j R[sigma(j), j]^2 / ||R||_F^2, solved as a linear
    assignment over squared entries.
    """
    m = r.matrix if isinstance(r, LinearTransform) else np.asarray(r, dtype=np.float64)
    with np.errstate(over="ignore"):  # a square or a total past the float64 range is inf, rejected below
        sq = m * m
        total = sq.sum()
    # a non-finite entry is the solver's NONFINITE_COST
    if np.isfinite(m).all() and not 0.0 < total < np.inf:
        raise GraspError("ZERO_MATRIX", "permutation energy needs a nonzero matrix with a finite squared norm")
    cols = _solve_assignment(-sq)
    best = sq[np.arange(len(sq)), cols].sum()
    return float(best / total * 100.0)  # best <= total: the ratio cannot overflow


# ---------------------------------------------------------------------------
# Fixed-transform file format: one JSON header line, then the float64 LE matrix.

_MATRIX_FORMAT = "grasp-transform-v1"


@dataclass(frozen=True)
class _MatrixHeader:
    dim: int
    provenance: str = "identity"
    orthogonal: bool = False
    format: str = _MATRIX_FORMAT

    def __post_init__(self):
        if self.dim < 1:
            raise GraspError("MALFORMED", f"transform header declares dim {self.dim}")
        if not isinstance(self.provenance, str) or not isinstance(self.orthogonal, bool):
            raise GraspError("MALFORMED", f"transform header types: provenance {self.provenance!r}, "
                             f"orthogonal {self.orthogonal!r}")


def save_matrix_transform(path: str | Path, transform: LinearTransform) -> None:
    header = _MatrixHeader(transform.dim, transform.provenance, transform.orthogonal)
    with open(path, "wb") as fh:
        fh.write(json.dumps(fields_to_json(header), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(transform.matrix, dtype="<f8").tobytes())


def _read_header(fh, fmt: str) -> dict:
    """The JSON object on the first line of a file in format ``fmt``."""
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # undecodable bytes or JSON
        raise GraspError("MALFORMED", f"unreadable {fmt} header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise GraspError("MALFORMED", f"header is not a {fmt} object")
    return header


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def load_matrix_transform(path: str | Path) -> LinearTransform:
    with open(path, "rb") as fh:
        try:
            header = fields_from_json(_MatrixHeader, _read_header(fh, _MATRIX_FORMAT))
        except TypeError as exc:  # a missing dim or a field of the wrong JSON type
            raise GraspError("MALFORMED", f"invalid transform header: {exc!r}") from exc
        d = header.dim
        if _bytes_left(fh) != 8 * d * d:
            raise GraspError("SHAPE_MISMATCH", "transform blob does not match declared dim")
        blob = fh.read(8 * d * d)
    matrix = np.frombuffer(blob, dtype="<f8").reshape(d, d).copy()
    return LinearTransform(matrix, header.provenance, header.orthogonal)


# ---------------------------------------------------------------------------
# Checkpoint file format: one JSON header line, then float64 LE parameter blobs
# in the header's declared order.

_CHECKPOINT_FORMAT = "grasp-checkpoint-v1"


@dataclass(eq=False)
class Checkpoint:
    """A trained map and its per-prefix log-temperatures; ``meta`` is free-form JSON."""

    spec: TransformSpec
    contract: InterfaceContract
    log_temps: np.ndarray
    params: dict[str, np.ndarray]
    meta: dict

    def eval_transform(self):
        return make_model(self.spec).eval_transform(self.params)


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    names = sorted(checkpoint.params)
    header = {
        "format": _CHECKPOINT_FORMAT,
        "spec": checkpoint.spec.to_json_dict(),
        "contract": checkpoint.contract.to_json_dict(),
        "log_temperatures": [float(x) for x in np.asarray(checkpoint.log_temps)],
        "params": [{"name": n, "shape": list(checkpoint.params[n].shape)} for n in names],
        "meta": checkpoint.meta,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(checkpoint.params[n], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; its parameter names and shapes must be those of its spec."""
    with open(path, "rb") as fh:
        header = _read_header(fh, _CHECKPOINT_FORMAT)
        try:
            spec = TransformSpec.from_json_dict(header["spec"])
            contract = InterfaceContract.from_json_dict(header["contract"])
            log_temps = np.array([_from_json(float, t) for t in header["log_temperatures"]])
            entries = [(str(e["name"]), tuple(_from_json(int, n) for n in e["shape"])) for e in header["params"]]
            expected = param_shapes(spec)
            meta = header.get("meta", {})
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError, GraspError) as exc:
            raise GraspError("MALFORMED", f"invalid checkpoint header: {exc!r}") from exc
        if len(entries) != len(expected) or dict(entries) != expected:
            raise GraspError("MALFORMED", f"checkpoint parameters {entries} do not match {spec}")
        finite = np.isfinite(log_temps).all()
        if log_temps.shape != (len(contract.prefixes),) or not finite or not isinstance(meta, dict):
            raise GraspError("MALFORMED", "checkpoint temperatures (finite, one per prefix) or meta do not fit")
        sizes = [8 * math.prod(shape) for _, shape in entries]
        if _bytes_left(fh) != sum(sizes):
            raise GraspError("SHAPE_MISMATCH", "checkpoint blobs do not match the declared parameter shapes")
        params = {
            name: np.frombuffer(fh.read(size), dtype="<f8").reshape(shape).copy()
            for (name, shape), size in zip(entries, sizes)
        }
    return Checkpoint(spec=spec, contract=contract, log_temps=log_temps, params=params, meta=meta)
