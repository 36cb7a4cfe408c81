"""Kernel SVM trained by sequential minimal optimization (SMO).

The dual problem
    max W(a) = sum(a) - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t. 0 <= a_i <= C,  sum(a_i y_i) = 0
is optimized two coordinates at a time, over the pair that second-order
working-set selection picks from a cached gradient (Fan, Chen & Lin,
JMLR 6, 2005); no step draws a random number. Kernel matrices are built
so that K[i, j] and K[j, i] are the same float, and the Gaussian
diagonal is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError

KERNEL_KINDS = ("linear", "gaussian", "sigmoid")

SMO_TOL = 1e-3  # default KKT tolerance of `train_smo`
_TAU = 1e-12  # stands in for a curvature a <= 0, as in LIBSVM


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    ``sigma=None`` (Gaussian) and ``a=None`` (sigmoid) mean "resolve
    from the training data": the median pairwise distance and 1/d
    respectively. `resolve` fills them in, as the Grams need. One rule
    serves given and resolved values: sigma must be positive with
    2 sigma^2 finite and non-zero, and a and b finite.
    """

    kind: str
    sigma: float | None = None
    a: float | None = None
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        # every parameter is checked whatever the kind reads, so a value
        # that only another kind would use is caught too
        sigma = self.sigma
        # the Gaussian kernel divides by 2 sigma^2, which must be finite and non-zero
        if sigma is not None and not (sigma > 0 and 0.0 < 2.0 * (sigma * sigma) < math.inf):
            raise ConfigError(f"sigma must be positive, 2 sigma^2 finite and non-zero, got {sigma}", ("sigma",))
        for name in ("a", "b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}", (name,))


def default_sigmoid_a(n_coords: int) -> float:
    """Default sigmoid slope: 1/d for d input features."""
    if n_coords < 1:
        raise ValueError(f"n_coords must be >= 1, got {n_coords}")
    return 1.0 / n_coords


def median_pairwise_distance(
    x: np.ndarray, inner: np.ndarray | None = None, sq: np.ndarray | None = None
) -> float:
    """Median Euclidean distance over distinct point pairs.

    ``inner`` is ``x @ x.T`` and ``sq`` is ``_sq_row_norms(x)``, for a
    caller that has them already.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points for a pairwise median")
    if sq is None:
        sq = _sq_row_norms(x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T if inner is None else inner)
    dist = np.sort(np.sqrt(np.maximum(d2[_upper_pairs(n)], 0.0)))
    # np.median without its NaN check, which imports numpy.ma: the mean of
    # the one or two middle distances, or a NaN, which sorts last
    m = dist.size
    med = float(dist[-1] if math.isnan(dist[-1]) else np.mean(dist[(m - 1) // 2 : m // 2 + 1]))
    if not math.isfinite(med):
        raise NumericError(
            f"median pairwise distance is not finite (points up to "
            f"{np.abs(x).max():.3g} in magnitude)"
        )
    if med <= 0:
        raise DataFormatError("median pairwise distance is zero (duplicate points)")
    return med


_NORM_BLOCK = 8192  # elements squared at a time by `_sq_row_norms`, one numpy buffer


def _sq_row_norms(x: np.ndarray) -> np.ndarray:
    """``np.sum(x * x, axis=1)`` bit for bit, squaring a few rows at a time.

    A block of two or more rows keeps the memory order numpy gives the
    product of the whole ``x``, so each row is summed in the same order:
    pairwise along a C-ordered row, left to right across an F-ordered
    one. A single-row block would lose that (it is both orders at once
    and is summed pairwise), so the last block takes any lone row.
    """
    n, d = x.shape
    step = max(2, _NORM_BLOCK // max(d, 1))
    out = np.empty(n)
    # every later block starts at least two rows before n; with step >= n - 1
    # the one block is the whole x
    bounds = [0, *range(step, n - 1, step), n]
    for r0, r1 in zip(bounds, bounds[1:]):
        block = x[r0:r1]
        np.sum(block * block, axis=1, out=out[r0:r1])
    return out


@lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, k=1)``, built once per n."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def resolve(
    spec: KernelSpec, x: np.ndarray, inner: np.ndarray | None = None, sq: np.ndarray | None = None
) -> KernelSpec:
    """Fill data-dependent defaults (Gaussian sigma, sigmoid slope).

    ``inner`` is ``x @ x.T`` and ``sq`` is ``_sq_row_norms(x)``, for a
    caller that has them already. The filled spec passes `KernelSpec`'s
    own check; a width from the data that fails it is the data's fault,
    so it raises NumericError and not ConfigError.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.kind == "gaussian" and spec.sigma is None:
        sigma = median_pairwise_distance(x, inner, sq)
        try:
            return replace(spec, sigma=sigma)
        except ConfigError:
            # a median distance is positive and finite: only 2 sigma^2 can fail
            fault = "overflows 2 sigma^2" if sigma > 1.0 else "rounds 2 sigma^2 to 0"
            raise NumericError(
                f"gaussian kernel width {sigma:.3g} {fault} "
                f"(training data up to {np.abs(x).max():.3g} in magnitude)"
            ) from None
    if spec.kind == "sigmoid" and spec.a is None:
        return replace(spec, a=default_sigmoid_a(x.shape[1]))
    return spec


def gram_matrix(spec: KernelSpec, x: np.ndarray, inner: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix over the rows of ``x``; bitwise symmetric.

    The inner-product matrix (``inner``, if the caller has ``x @ x.T``
    already) is mirrored from its upper triangle before any elementwise
    transform, so K[i, j] == K[j, i] exactly and distance-based
    diagonals are exactly zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"x must be (n>=1, d), got shape {x.shape}")
    return _kernel(spec, _mirrored(x @ x.T if inner is None else inner), _sq_distances)


def cross_gram(spec: KernelSpec, x: np.ndarray, z: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
    """Kernel values K(x_i, z_j) as an (n, m) matrix.

    ``sq`` is ``_sq_row_norms(x)``, for a caller that has it already;
    only the Gaussian kernel reads it.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.ndim != 2 or z.ndim != 2 or x.shape[1] != z.shape[1]:
        raise ValueError(f"incompatible shapes {x.shape} and {z.shape}")
    if sq is not None and np.shape(sq) != (x.shape[0],):
        raise ValueError(f"sq must hold one norm per row of x, got shape {np.shape(sq)}")
    return _kernel(
        spec,
        x @ z.T,
        lambda g: np.maximum(
            (_sq_row_norms(x) if sq is None else sq)[:, None] + _sq_row_norms(z)[None, :] - 2.0 * g, 0.0
        ),
    )


def _kernel(spec: KernelSpec, g: np.ndarray, sq_distances) -> np.ndarray:
    """Kernel values from inner products ``g``; ``sq_distances(g)`` gives the
    squared distances the Gaussian needs, so only that kernel computes them."""
    if spec.kind == "linear":
        return g
    if spec.kind == "gaussian":
        return np.exp(-sq_distances(g) / (2.0 * spec.sigma**2))
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
    largest KKT violation at the end of training. ``sq_norms`` holds
    the support vectors' squared norms (`_sq_row_norms`), one each,
    where the fit kept them for predictions (a Gaussian fit does), and
    is None otherwise.
    """

    support_vectors: np.ndarray
    coef: np.ndarray
    bias: float
    kernel: KernelSpec
    c: float
    kkt_residual: float
    sq_norms: np.ndarray | None = None

    def __post_init__(self):
        sv = np.asarray(self.support_vectors, dtype=np.float64)
        coef = np.asarray(self.coef, dtype=np.float64)
        if sv.ndim != 2 or coef.shape != (sv.shape[0],):
            raise ValueError("support vectors and coefficients do not line up")
        if np.any(np.abs(coef) > self.c * (1 + 1e-9)):
            raise ValueError("coefficient outside [0, C]")
        if abs(coef.sum()) > 1e-8 * max(1.0, self.c):
            raise ValueError("coefficients do not satisfy the equality constraint")
        arrays = {"support_vectors": sv, "coef": coef}
        if self.sq_norms is not None:
            arrays["sq_norms"] = np.asarray(self.sq_norms, dtype=np.float64)
            if arrays["sq_norms"].shape != coef.shape:
                raise ValueError("support vectors and their norms do not line up")
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
    *,
    inner: np.ndarray | None = None,
) -> SvmModel:
    """Solve the dual by sequential minimal optimization.

    Each step updates the pair that second-order working-set selection
    picks from the cached gradient (Fan, Chen & Lin, JMLR 6, 2005), with
    LIBSVM's clipped two-variable update. When the pair's gap is within
    ``tol``, the KKT residual is measured; training stops once it is
    within ``tol`` too, or after ``max_passes * n`` updates. No step
    draws a random number.

    ``inner`` is ``x @ x.T``, for a caller that fits several kernels on
    the same rows; it is read, never written, and must be (n, n). A
    Gaussian fit squares the rows of x once, for its width and for the
    model, which keeps its support vectors' norms as ``sq_norms``:
    ``_sq_row_norms(x)[keep]``. On C-ordered rows these are bit for bit
    the support vectors' norms squared afresh. On other layouts they
    keep x's summation order (left to right across an F-ordered row),
    so a prediction can differ in its last bits from one that squares
    the support vectors afresh.
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
    if not (0 < c < math.inf and 0 < tol < math.inf and max_passes >= 1):
        raise ConfigError("need finite C > 0, finite tol > 0, max_passes >= 1")
    inner = x @ x.T if inner is None else np.asarray(inner, dtype=np.float64)
    if inner.shape != (n, n):
        raise ValueError(f"inner must be x @ x.T, of shape {(n, n)}, got {inner.shape}")

    sq = _sq_row_norms(x) if kernel.kind == "gaussian" else None
    kernel = resolve(kernel, x, inner, sq)
    k = gram_matrix(kernel, x, inner)
    if not np.isfinite(k).all():
        raise NumericError(
            f"{kernel.kind} kernel matrix has non-finite entries "
            f"(training data up to {np.abs(x).max():.3g} in magnitude)"
        )
    # Each step scans a few lists of n floats, so the loop runs on Python
    # floats: numpy calls on arrays this small cost more than their
    # arithmetic. The operations and their order are those of the vector
    # form, so fits are bitwise the same.
    rows = k.tolist()  # k is bitwise symmetric, so rows are columns too
    qrows = (k * np.outer(y, y)).tolist()  # Q_it = y_i y_t K_it, exact
    labels = y.tolist()
    cf = float(c)
    budget = max_passes * n
    alpha = [0.0] * n
    grad = [-1.0] * n  # G = Q alpha - 1, kept incrementally

    for step in range(budget + 1):
        i, j, gap = _working_set(alpha, grad, labels, rows, cf)
        if j < 0 or gap <= tol or step == budget:
            u = [yr * (gr + 1.0) for yr, gr in zip(labels, grad)]  # u = K (alpha * y)
            bias = _bias(alpha, u, labels, cf)
            residual = _worst_violator(alpha, u, labels, bias, cf)
            if j < 0 or residual <= tol or step == budget:
                break
        _take_step(i, j, alpha, grad, labels, rows, qrows, cf)

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
        sq_norms=None if sq is None else sq[keep],
    )


def _working_set(alpha, grad, y, rows, c) -> tuple[int, int, float]:
    """Second-order working set (i, j) and the maximal violating gap.

    With F_t = -y_t G_t, i maximizes F over I_up (the t whose alpha can
    move along y_t) and j minimizes -b_t^2 / a_t over the t in I_low with
    b_t = F_i - F_t > 0, where a_t = K_ii + K_tt - 2 K_it, or TAU when
    a_t <= 0 (the sigmoid kernel is not PSD). The gap is F_i minus the
    least F over I_low. Ties go to the first index; j is -1 when no t
    qualifies.
    """
    f_max, i = -math.inf, -1
    for t, (at, gt, yt) in enumerate(zip(alpha, grad, y)):
        if yt > 0:
            if at < c and -gt > f_max:
                f_max, i = -gt, t
        elif at > 0.0 and gt > f_max:
            f_max, i = gt, t
    ki = rows[i]  # any row when I_up is empty: then no b_t is positive
    kii = ki[i]
    f_min, best, j = math.inf, math.inf, -1
    for t, (at, gt, yt, kt, kit) in enumerate(zip(alpha, grad, y, rows, ki)):
        if yt > 0:
            if not at > 0.0:
                continue
            ft = -gt
        elif at < c:
            ft = gt
        else:
            continue
        if ft < f_min:
            f_min = ft
        b = f_max - ft
        if b > 0.0:
            a = kii + kt[t] - 2.0 * kit
            score = -(b * b) / (a if a > 0.0 else _TAU)
            if score < best:
                best, j = score, t
    return i, j, f_max - f_min


def _take_step(i, j, alpha, grad, y, rows, qrows, c) -> None:
    """LIBSVM's clipped two-variable update, in place on alpha and grad."""
    ai0, aj0 = alpha[i], alpha[j]
    a = rows[i][i] + rows[j][j] - 2.0 * rows[i][j]
    if not a > 0.0:
        a = _TAU
    if y[i] != y[j]:  # alpha_i - alpha_j stays fixed
        delta = (-grad[i] - grad[j]) / a
        diff = ai0 - aj0
        ai, aj = ai0 + delta, aj0 + delta
        if diff > 0.0:
            if aj < 0.0:
                ai, aj = diff, 0.0
            if ai > c:
                ai, aj = c, c - diff
        else:
            if ai < 0.0:
                ai, aj = 0.0, -diff
            if aj > c:
                ai, aj = c + diff, c
    else:  # alpha_i + alpha_j stays fixed
        delta = (grad[i] - grad[j]) / a
        total = ai0 + aj0
        ai, aj = ai0 - delta, aj0 + delta
        if total > c:
            if ai > c:
                ai, aj = c, total - c
            if aj > c:
                ai, aj = total - c, c
        else:
            if aj < 0.0:
                ai, aj = total, 0.0
            if ai < 0.0:
                ai, aj = 0.0, total
    dai, daj = ai - ai0, aj - aj0
    grad[:] = [g + (qi * dai + qj * daj) for g, qi, qj in zip(grad, qrows[i], qrows[j])]
    alpha[i] = ai
    alpha[j] = aj


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


def _worst_violator(alpha, u, y, bias, c) -> float:
    """Size of the largest KKT violation.

    A satisfied bound condition reads as a negative violation, which the
    scan treats as the 0 it is clamped to; so the result is np.max of the
    clamped violations, a NaN winning as it does there.
    """
    worst = 0.0
    for ar, ur, yr in zip(alpha, u, y):
        yf = yr * (ur + bias)
        if ar == 0.0:
            v = 1.0 - yf  # y f(x) >= 1
        elif ar == c:
            v = yf - 1.0  # y f(x) <= 1
        else:
            v = yf - 1.0 if yf > 1.0 else 1.0 - yf  # unbound: y f(x) = 1
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def decision_function(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """f(x) = sum_i coef_i K(sv_i, x) + b for each row of x (n, d).

    The model's kept support-vector norms, if any, go to `cross_gram`,
    so a Gaussian prediction squares only the rows of x.
    """
    if model.n_support == 0:
        return np.full(x.shape[0], model.bias)
    return model.coef @ cross_gram(model.kernel, model.support_vectors, x, model.sq_norms) + model.bias
