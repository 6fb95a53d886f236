"""Transform families, prefix scoring, and the prefix interface contract.

All transforms act on row matrices: ``Z = X @ R.T`` for a linear map with
matrix ``R``, so row ``i`` of ``Z`` is ``R @ X[i]``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
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
            prefixes=tuple(int(k) for k in d["prefix_set"]),
            view_of={int(k): v for k, v in d["view_assignment"].items()},
            kappa={r: int(k) for r, k in d["boundary_map"].items()},
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


def _mlp_forward(p: dict[str, np.ndarray], rows: np.ndarray):
    """The MLP adapter's output rows and its tanh hidden layer, ``(z, h)``."""
    h = np.tanh(rows @ p["w1"].T + p["b1"])
    return (p["scale"] * h + p["shift"]) @ p["w2"].T + p["b2"], h


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
    return cayley_build_with_vjp(b)[0]


def cayley_build_with_vjp(b: np.ndarray):
    """Map an unconstrained square parameter to an orthogonal matrix, returning (R, vjp).

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

    return LinearTransform(r, "cayley", orthogonal=True), vjp


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


def prefix_normalize(rows: np.ndarray, k: int) -> np.ndarray:
    """First k coordinates of each row, renormalized to unit length."""
    rows = np.asarray(rows, dtype=np.float64)
    if k < 1 or k > rows.shape[-1]:
        raise GraspError("DIM_MISMATCH", f"prefix {k} invalid for width {rows.shape[-1]}")
    sl = rows[..., :k]
    norms = np.linalg.norm(sl, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise GraspError("ZERO_PREFIX", f"prefix of length {k} has near-zero norm")
    return sl / norms


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
        if self.dim < 1 or self.stacks < 0 or self.rank < 0:
            raise GraspError("CONFIG", f"transform needs dim >= 1 and stacks, rank >= 0: {self}")

    def to_json_dict(self) -> dict:
        return {"variant": self.variant, "dim": self.dim, "stacks": self.stacks, "rank": self.rank}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TransformSpec":
        return cls(
            variant=d["variant"],
            dim=int(d["dim"]),
            stacks=int(d.get("stacks", 8)),
            rank=int(d.get("rank", 32)),
        )


def param_shapes(spec: TransformSpec) -> dict[str, tuple[int, ...]]:
    """Shape of each trainable parameter of a variant, temperatures excluded."""
    d, h = spec.dim, 2 * spec.dim
    if spec.variant == "dense_cayley":
        return {"b": (d, d)}
    if spec.variant == "butterfly":
        return {"angles": butterfly_angle_shape(d, spec.stacks)}
    if spec.variant == "permutation":
        return {"logits": (d, d)}
    if spec.variant == "signed_permutation":
        return {"logits": (d, d), "sign_logits": (d,)}
    if spec.variant == "low_rank":
        return {"b": (d, d), "u": (d, spec.rank), "v": (d, spec.rank), "gate": ()}
    if spec.variant == "mlp":
        return {"w1": (h, d), "b1": (h,), "scale": (h,), "shift": (h,), "w2": (d, h), "b2": (d,)}
    raise GraspError("UNKNOWN_VARIANT", f"no such transform variant: {spec.variant}")


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


def _solve_assignment(cost: np.ndarray):
    """``(rows, cols)`` of the minimum-cost assignment of a square cost matrix.

    scipy.optimize costs about half a second and 40 MiB to import, and only
    the permutation baselines and ``permutation_energy`` solve an assignment,
    so it is imported here, on the first solve, and not with this module.
    """
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)


def harden_doubly_stochastic(p: np.ndarray) -> np.ndarray:
    """Optimal-assignment rounding of a doubly-stochastic matrix to a permutation."""
    rows, cols = _solve_assignment(-p)
    perm = np.zeros_like(p)
    perm[rows, cols] = 1.0
    return perm


class _LinearStepState:
    """Per-step differentiable view of a trainable linear map ``rows @ matrix.T``.

    ``apply`` maps raw rows to transformed rows and returns a context for
    ``vjp``, which accumulates dL/dmatrix; ``finish`` sends the accumulated
    gradient back through ``matrix_vjp`` to the variant's parameters.
    """

    def __init__(self, matrix: np.ndarray, matrix_vjp, orthogonal: bool):
        self.orthogonal = orthogonal
        self.matrix = matrix
        self._matrix_vjp = matrix_vjp
        self._d_matrix = np.zeros_like(matrix)

    def apply(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        return rows @ self.matrix.T, rows

    def vjp(self, ctx, d_rows):
        self._d_matrix += d_rows.T @ ctx

    def add_matrix_grad(self, d_matrix):
        self._d_matrix += d_matrix

    def finish(self):
        return self._matrix_vjp(self._d_matrix)


class VariantModel:
    """Base for trainable transform families."""

    def __init__(self, spec: TransformSpec):
        self.spec = spec
        self.dim = spec.dim

    @property
    def param_names(self) -> tuple[str, ...]:  # pragma: no cover - overridden
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    def begin_step(self, params: dict[str, np.ndarray]):  # pragma: no cover
        raise NotImplementedError

    def eval_transform(self, params: dict[str, np.ndarray]):  # pragma: no cover
        raise NotImplementedError


class DenseCayleyModel(VariantModel):
    param_names = ("b",)

    def init_params(self, rng):
        return {"b": 1e-3 * rng.standard_normal((self.dim, self.dim))}

    def begin_step(self, params):
        r, vjp = cayley_build_with_vjp(params["b"])
        return _LinearStepState(r.matrix, lambda dm: {"b": vjp(dm)}, orthogonal=True)

    def eval_transform(self, params):
        return cayley_build(params["b"])


class ButterflyModel(VariantModel):
    param_names = ("angles",)

    def init_params(self, rng):
        shape = butterfly_angle_shape(self.dim, self.spec.stacks)
        return {"angles": 1e-3 * rng.standard_normal(shape)}

    def begin_step(self, params):
        angles = params["angles"]
        # rows of butterfly_apply(I) are R^T (see butterfly_build), so dL/dR^T = (dL/dR)^T
        rt, ctx = butterfly_apply_with_ctx(angles, np.eye(self.dim))
        return _LinearStepState(rt.T, lambda dm: {"angles": butterfly_vjp(angles, ctx, dm.T)}, orthogonal=True)

    def eval_transform(self, params):
        return butterfly_build(params["angles"])


class PermutationModel(VariantModel):
    """Doubly-stochastic relaxation while training; hardened at evaluation."""

    param_names = ("logits",)

    def init_params(self, rng):
        return {"logits": 1e-2 * rng.standard_normal((self.dim, self.dim))}

    def begin_step(self, params):
        p, trace = _sinkhorn(params["logits"])
        return _LinearStepState(
            p,
            lambda dm: {"logits": _sinkhorn_vjp(params["logits"], trace, dm)},
            orthogonal=False,
        )

    def eval_transform(self, params):
        p, _ = _sinkhorn(params["logits"])
        m = harden_doubly_stochastic(p)
        return LinearTransform(m, "permutation", orthogonal=True)


class SignedPermutationModel(VariantModel):
    param_names = ("logits", "sign_logits")

    def init_params(self, rng):
        return {
            "logits": 1e-2 * rng.standard_normal((self.dim, self.dim)),
            "sign_logits": 1.0 + 0.1 * rng.standard_normal(self.dim),
        }

    def begin_step(self, params):
        p, trace = _sinkhorn(params["logits"])
        t = np.tanh(params["sign_logits"])
        w = p * t[None, :]

        def matrix_vjp(dm):
            dp = dm * t[None, :]
            dt = (dm * p).sum(axis=0)
            return {
                "logits": _sinkhorn_vjp(params["logits"], trace, dp),
                "sign_logits": dt * (1.0 - t * t),
            }

        return _LinearStepState(w, matrix_vjp, orthogonal=False)

    def eval_transform(self, params):
        p, _ = _sinkhorn(params["logits"])
        perm = harden_doubly_stochastic(p)
        signs = np.where(params["sign_logits"] >= 0.0, 1.0, -1.0)
        return LinearTransform(perm * signs[None, :], "signed_permutation", orthogonal=True)


class LowRankModel(VariantModel):
    """Shared Cayley rotation plus a gated rank-r residual; not orthogonal."""

    param_names = ("b", "u", "v", "gate")

    def init_params(self, rng):
        d, r = self.dim, self.spec.rank
        return {
            "b": 1e-3 * rng.standard_normal((d, d)),
            "u": 1e-2 * rng.standard_normal((d, r)),
            "v": 1e-2 * rng.standard_normal((d, r)),
            "gate": np.array(1.0),
        }

    def _matrix(self, params):
        r, vjp = cayley_build_with_vjp(params["b"])
        w = r.matrix + float(params["gate"]) * params["u"] @ params["v"].T
        return w, vjp

    def begin_step(self, params):
        w, cayley_vjp = self._matrix(params)
        u, v, gate = params["u"], params["v"], float(params["gate"])

        def matrix_vjp(dm):
            return {
                "b": cayley_vjp(dm),
                "u": gate * dm @ v,
                "v": gate * dm.T @ u,
                "gate": np.array(np.sum(dm * (u @ v.T))),
            }

        return _LinearStepState(w, matrix_vjp, orthogonal=False)

    def eval_transform(self, params):
        w, _ = self._matrix(params)
        return LinearTransform(w, "linear", orthogonal=False)


class MlpModel(VariantModel):
    param_names = ("w1", "b1", "scale", "shift", "w2", "b2")

    def init_params(self, rng):
        d = self.dim
        h = 2 * d
        return {
            "w1": rng.standard_normal((h, d)) * math.sqrt(2.0 / (d + h)),
            "b1": np.zeros(h),
            "scale": np.ones(h),
            "shift": np.zeros(h),
            "w2": rng.standard_normal((d, h)) * math.sqrt(2.0 / (d + h)),
            "b2": np.zeros(d),
        }

    def begin_step(self, params):
        p = params

        class _State:
            orthogonal = False
            matrix = None  # no effective linear matrix

            def __init__(self):
                self._g = {k: np.zeros_like(v) for k, v in p.items()}

            def apply(self, rows):
                rows = np.asarray(rows, dtype=np.float64)
                z, h = _mlp_forward(p, rows)
                return z, (rows, h)

            def vjp(self, ctx, d_rows):
                rows, h = ctx
                g = self._g
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

        return _State()

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
    try:
        cls = _VARIANT_MODELS[spec.variant]
    except KeyError:
        raise GraspError("UNKNOWN_VARIANT", f"no such transform variant: {spec.variant}") from None
    return cls(spec)


# ---------------------------------------------------------------------------
# Permutation-energy analysis


def permutation_energy(r: np.ndarray | LinearTransform) -> float:
    """Percentage of squared mass explained by the best single permutation.

    100 * max_sigma sum_j R[sigma(j), j]^2 / ||R||_F^2, solved as a linear
    assignment over squared entries.
    """
    m = r.matrix if isinstance(r, LinearTransform) else np.asarray(r, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraspError("DIM_MISMATCH", "permutation energy needs a square matrix")
    sq = m * m
    rows, cols = _solve_assignment(-sq)
    best = sq[rows, cols].sum()
    total = sq.sum()
    return float(100.0 * best / total)


# ---------------------------------------------------------------------------
# Fixed-transform file format: one JSON header line, then the float64 LE matrix.

_MATRIX_FORMAT = "grasp-transform-v1"


def save_matrix_transform(path: str | Path, transform: LinearTransform) -> None:
    header = {
        "format": _MATRIX_FORMAT,
        "dim": transform.dim,
        "provenance": transform.provenance,
        "orthogonal": transform.orthogonal,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
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
        header = _read_header(fh, _MATRIX_FORMAT)
        try:
            d = int(header["dim"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GraspError("MALFORMED", f"transform header has no valid dim: {exc!r}") from exc
        if d < 1:
            raise GraspError("MALFORMED", f"transform header declares dim {d}")
        if _bytes_left(fh) != 8 * d * d:
            raise GraspError("SHAPE_MISMATCH", "transform blob does not match declared dim")
        blob = fh.read(8 * d * d)
    matrix = np.frombuffer(blob, dtype="<f8").reshape(d, d).copy()
    return LinearTransform(matrix, header.get("provenance", "identity"), bool(header.get("orthogonal", False)))


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
            log_temps = np.array([float(t) for t in header["log_temperatures"]])
            entries = [(str(e["name"]), tuple(int(n) for n in e["shape"])) for e in header["params"]]
            expected = param_shapes(spec)
            meta = header.get("meta", {})
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError, GraspError) as exc:
            raise GraspError("MALFORMED", f"invalid checkpoint header: {exc!r}") from exc
        if len(entries) != len(expected) or dict(entries) != expected:
            raise GraspError("MALFORMED", f"checkpoint parameters {entries} do not match {spec}")
        if log_temps.shape != (len(contract.prefixes),) or not isinstance(meta, dict):
            raise GraspError("MALFORMED", "checkpoint temperatures or meta do not match its contract")
        sizes = [8 * math.prod(shape) for _, shape in entries]
        if _bytes_left(fh) != sum(sizes):
            raise GraspError("SHAPE_MISMATCH", "checkpoint blobs do not match the declared parameter shapes")
        params = {
            name: np.frombuffer(fh.read(size), dtype="<f8").reshape(shape).copy()
            for (name, shape), size in zip(entries, sizes)
        }
    return Checkpoint(spec=spec, contract=contract, log_temps=log_temps, params=params, meta=meta)
