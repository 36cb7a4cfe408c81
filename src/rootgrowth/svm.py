"""Kernel SVM trained with a simplified SMO solver.

The dual problem
    max W(a) = sum(a) - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t. 0 <= a_i <= C,  sum(a_i y_i) = 0
is optimized two coordinates at a time: the first index is the worst
KKT violator, the second is drawn from a seeded generator. Kernel
matrices are built so that K[i, j] and K[j, i] are the same float, and
the Gaussian diagonal is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError

KERNEL_KINDS = ("linear", "gaussian", "sigmoid")

SMO_TOL = 1e-3  # default KKT tolerance of `train_smo`
_SNAP = 1e-10
_STEP_EPS = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    ``sigma=None`` (Gaussian) and ``a=None`` (sigmoid) mean "resolve
    from the training data": the median pairwise distance and 1/d
    respectively. `resolve` fills them in.
    """

    kind: str
    sigma: float | None = None
    a: float | None = None
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.sigma is not None and not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def gaussian(cls, sigma: float | None = None) -> "KernelSpec":
        return cls("gaussian", sigma=sigma)

    @classmethod
    def sigmoid(cls, a: float | None = None, b: float = 0.0) -> "KernelSpec":
        return cls("sigmoid", a=a, b=b)


def default_sigmoid_a(n_coords: int) -> float:
    """Default sigmoid slope: 1/d for d input features."""
    if n_coords < 1:
        raise ValueError(f"n_coords must be >= 1, got {n_coords}")
    return 1.0 / n_coords


def median_pairwise_distance(x: np.ndarray) -> float:
    """Median Euclidean distance over distinct point pairs."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points for a pairwise median")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
    if not math.isfinite(med):
        raise NumericError(
            f"median pairwise distance is not finite (points up to "
            f"{np.abs(x).max():.3g} in magnitude)"
        )
    if med <= 0:
        raise DataFormatError("median pairwise distance is zero (duplicate points)")
    return med


def resolve(spec: KernelSpec, x: np.ndarray) -> KernelSpec:
    """Fill data-dependent defaults (Gaussian sigma, sigmoid slope)."""
    x = np.asarray(x, dtype=np.float64)
    out = spec
    if out.kind == "gaussian" and out.sigma is None:
        out = replace(out, sigma=median_pairwise_distance(x))
    if out.kind == "sigmoid" and out.a is None:
        out = replace(out, a=default_sigmoid_a(x.shape[1]))
    return out


def _require_resolved(spec: KernelSpec) -> None:
    if spec.kind == "gaussian" and spec.sigma is None:
        raise ConfigError("gaussian kernel sigma not resolved")
    if spec.kind == "sigmoid" and spec.a is None:
        raise ConfigError("sigmoid kernel slope not resolved")


def gram_matrix(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Kernel matrix over the rows of ``x``; bitwise symmetric.

    The inner-product matrix is mirrored from its upper triangle before
    any elementwise transform, so K[i, j] == K[j, i] exactly and
    distance-based diagonals are exactly zero.
    """
    _require_resolved(spec)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"x must be (n>=1, d), got shape {x.shape}")
    g = _mirrored(x @ x.T)
    if spec.kind == "linear":
        return g
    if spec.kind == "gaussian":
        d2 = _sq_distances(g)
        return np.exp(-d2 / (2.0 * spec.sigma**2))
    return np.tanh(spec.a * g + spec.b)


def cross_gram(spec: KernelSpec, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Kernel values K(x_i, z_j) as an (n, m) matrix."""
    _require_resolved(spec)
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.ndim != 2 or z.ndim != 2 or x.shape[1] != z.shape[1]:
        raise ValueError(f"incompatible shapes {x.shape} and {z.shape}")
    g = x @ z.T
    if spec.kind == "linear":
        return g
    if spec.kind == "gaussian":
        d2 = np.maximum(
            np.sum(x * x, axis=1)[:, None] + np.sum(z * z, axis=1)[None, :] - 2.0 * g,
            0.0,
        )
        return np.exp(-d2 / (2.0 * spec.sigma**2))
    return np.tanh(spec.a * g + spec.b)


def _mirrored(g: np.ndarray) -> np.ndarray:
    # Copy the upper triangle over the lower one: exact symmetry.
    upper = np.triu(g)
    return upper + np.triu(g, k=1).T


def _sq_distances(g: np.ndarray) -> np.ndarray:
    diag = np.diag(g)
    d2 = diag[:, None] + diag[None, :] - 2.0 * g
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier: support vectors and their signed coefficients.

    ``coef[i]`` is alpha_i * y_i for the i-th stored support vector;
    only vectors with alpha > 0 are kept. ``kkt_residual`` is the
    largest KKT violation at the end of training.
    """

    support_vectors: np.ndarray
    coef: np.ndarray
    bias: float
    kernel: KernelSpec
    c: float
    kkt_residual: float

    def __post_init__(self):
        sv = np.asarray(self.support_vectors, dtype=np.float64)
        coef = np.asarray(self.coef, dtype=np.float64)
        if sv.ndim != 2 or coef.shape != (sv.shape[0],):
            raise ValueError("support vectors and coefficients do not line up")
        if np.any(np.abs(coef) > self.c * (1 + 1e-9)):
            raise ValueError("coefficient outside [0, C]")
        if abs(coef.sum()) > 1e-8 * max(1.0, self.c):
            raise ValueError("coefficients do not satisfy the equality constraint")
        for arr in (sv, coef):
            arr.flags.writeable = False
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "coef", coef)

    @property
    def n_support(self) -> int:
        return self.support_vectors.shape[0]


def train_smo(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelSpec,
    c: float = 1.0,
    tol: float = SMO_TOL,
    max_passes: int = 100,
    seed: int = 0,
) -> SvmModel:
    """Solve the dual by sequential minimal optimization.

    Each step picks the worst KKT violator as the first index and tries
    second indices in an order drawn from the seeded generator,
    applying the analytic two-variable update. Training stops when the
    worst violation is within ``tol`` or after ``max_passes`` sweeps
    over the data without convergence.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training points")
    if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1/+1, one per row of x")
    if not np.isfinite(x).all():
        raise DataFormatError("training data contains non-finite values")
    if c <= 0 or tol <= 0 or max_passes < 1:
        raise ConfigError("need C > 0, tol > 0, max_passes >= 1")

    kernel = resolve(kernel, x)
    k = gram_matrix(kernel, x)
    if not np.isfinite(k).all():
        raise NumericError(
            f"{kernel.kind} kernel matrix has non-finite entries "
            f"(training data up to {np.abs(x).max():.3g} in magnitude)"
        )
    # Each step touches a few scalars and two kernel columns, so the loop
    # runs on Python floats: numpy calls on arrays this small cost more
    # than their arithmetic. The operations and their order are those of
    # the vector form, so fits are bitwise the same.
    cols = k.T.tolist()  # cols[j][r] == k[r, j]
    labels = y.tolist()
    cf = float(c)
    rng = np.random.default_rng(seed)
    alpha = [0.0] * n
    u = [0.0] * n  # u_i = sum_j alpha_j y_j K_ij, kept incrementally

    converged = False
    for _ in range(max_passes):
        moved_in_sweep = False
        for _ in range(n):
            bias = _bias(alpha, u, labels, cf)
            i, worst = _worst_violator(alpha, u, labels, bias, cf)
            if worst <= tol:
                converged = True
                break
            moved = False
            for j in rng.permutation(n).tolist():
                if j != i and _take_step(i, j, alpha, u, labels, cols, cf):
                    moved = True
                    break
            if not moved:
                break  # the worst violator cannot improve with any partner
            moved_in_sweep = True
        if converged or not moved_in_sweep:
            break

    bias = _bias(alpha, u, labels, cf)
    _, residual = _worst_violator(alpha, u, labels, bias, cf)
    a = np.array(alpha)
    if not np.isfinite(a).all() or not math.isfinite(bias) or not math.isfinite(residual):
        raise NumericError("SMO produced a non-finite multiplier, bias or residual")
    keep = a > 0
    return SvmModel(
        support_vectors=x[keep],
        coef=a[keep] * y[keep],
        bias=bias,
        kernel=kernel,
        c=c,
        kkt_residual=residual,
    )


def _take_step(i, j, alpha, u, y, cols, c) -> bool:
    """Joint update of (alpha_i, alpha_j) in place; True if alpha moved."""
    ai0, aj0, yi, yj = alpha[i], alpha[j], y[i], y[j]
    s = yi * yj
    if s < 0:
        lo = max(0.0, aj0 - ai0)
        hi = min(c, c + aj0 - ai0)
    else:
        lo = max(0.0, ai0 + aj0 - c)
        hi = min(c, ai0 + aj0)
    if hi - lo < _STEP_EPS:
        return False
    ki, kj = cols[i], cols[j]
    eta = ki[i] + kj[j] - 2.0 * kj[i]
    # Gain along the constraint line for a move of alpha_j by dj:
    #   dW(dj) = de * dj - eta/2 * dj^2,  de = y_j * (E_i - E_j)
    de = yj * ((u[i] - yi) - (u[j] - yj))
    if eta > _STEP_EPS:
        aj = aj0 + de / eta
        aj = min(max(aj, lo), hi)
    else:
        # Flat or concave-up slice: best endpoint wins.
        d_lo = lo - aj0
        d_hi = hi - aj0
        w_lo = de * d_lo - 0.5 * eta * d_lo * d_lo
        w_hi = de * d_hi - 0.5 * eta * d_hi * d_hi
        if w_lo > w_hi + _STEP_EPS:
            aj = lo
        elif w_hi > w_lo + _STEP_EPS:
            aj = hi
        else:
            return False
    aj = _snap(aj, c)
    if abs(aj - aj0) < _STEP_EPS * (aj + aj0 + 1.0):
        return False
    # Compensate alpha_i from the snapped alpha_j so the equality
    # constraint is preserved to rounding error, then clear residual
    # cancellation noise at the box edges.
    ai = _snap(ai0 + s * (aj0 - aj), c)
    ai = min(max(ai, 0.0), c)
    aj = min(max(aj, 0.0), c)
    si = (ai - ai0) * yi
    sj = (aj - aj0) * yj
    u[:] = [ur + (si * kri + sj * krj) for ur, kri, krj in zip(u, ki, kj)]
    alpha[i] = ai
    alpha[j] = aj
    return True


def _snap(a: float, c: float) -> float:
    eps = _SNAP * max(1.0, c)
    if a < eps:
        return 0.0
    if a > c - eps:
        return c
    return a


def _bias(alpha, u, y, c) -> float:
    """Bias from unbound vectors, else midpoint of the feasible interval."""
    free = [yr - ur for ar, ur, yr in zip(alpha, u, y) if 0.0 < ar < c]
    if free:
        # np.mean's pairwise sum, not Python's left-to-right one.
        return float(np.add.reduce(free) / len(free))
    lower, upper = -math.inf, math.inf
    for ar, ur, yr in zip(alpha, u, y):
        edge = yr - ur
        if (ar == 0.0 and yr > 0) or (ar == c and yr < 0):
            lower = max(lower, edge)
        else:
            upper = min(upper, edge)
    if not math.isfinite(lower):
        return 0.0 if not math.isfinite(upper) else upper
    if not math.isfinite(upper):
        return lower
    return 0.5 * (lower + upper)


def _worst_violator(alpha, u, y, bias, c) -> tuple[int, float]:
    """Index and size of the largest KKT violation, the first on ties.

    A satisfied bound condition reads as a negative violation, which the
    scan treats as the 0 it is clamped to; so the result is np.argmax and
    np.max of the clamped violations, a NaN winning as it does there.
    """
    worst, at = 0.0, 0
    for r, (ar, ur, yr) in enumerate(zip(alpha, u, y)):
        yf = yr * (ur + bias)
        if ar == 0.0:
            v = 1.0 - yf  # y f(x) >= 1
        elif ar == c:
            v = yf - 1.0  # y f(x) <= 1
        else:
            v = yf - 1.0 if yf > 1.0 else 1.0 - yf  # unbound: y f(x) = 1
        if v > worst:
            worst, at = v, r
        elif v != v:
            return r, v
    return at, worst


def decision_function(model: SvmModel, x: np.ndarray) -> np.ndarray | float:
    """f(x) = sum_i coef_i K(sv_i, x) + b; scalar for a single point."""
    pts = np.asarray(x, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if model.n_support == 0:
        f = np.full(pts.shape[0], model.bias)
    else:
        f = model.coef @ cross_gram(model.kernel, model.support_vectors, pts)
        f = f + model.bias
    return float(f[0]) if single else f
