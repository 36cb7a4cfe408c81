"""Independent reference implementations used to cross-check the package.

Most of it is deliberately written a different way from the library
code and imports nothing from the modules under test: loop-based
differences, a cyclic Jacobi eigensolver, a projected gradient QP
solver, central finite differences, a nearest-centroid classifier, and
a kernel evaluated one pair of points at a time. The rest builds on the
package's own types, or is the code that a faster package path
replaced:

- the ensembles' update rules, one expert and one pattern at a time
  (forward passes, error signals and weight increments), which gate 1
  checks against finite differences; and plain backprop, the reference
  trainers and the per-row ensemble output built on them, which pin
  down what the stacked trainers and `predict_batch` compute. They use
  the package's one network type (a gate is an `MlpNetwork` with one
  output per expert) and its initialiser, drawing each network as the
  stacked engine does, `gncl_target` and the seed derivation;
- the reference SMO solver, which builds its kernel matrix with the
  package's `resolve` and `gram_matrix` and then runs the second-order
  working-set loop in numpy vector form, with boolean index sets, a
  masked argmax and argmin and LIBSVM's clipped update written as in its
  C source;
- the reference CSV loader, which parses each row with `csv` and
  `float()` and checks each sample's frames on their own, the way
  `load_csv` read files before it streamed them through numpy's reader,
  and then builds the package's `Dataset`;
- the reference PCA fit, which takes an SVD of the centered data and
  builds the package's `PcaModel` with its sign rule, the way `pca.fit`
  worked before it moved to an eigendecomposition of the scatter matrix;
  and the two PCA helpers that no command needs: `reconstruct`, through
  which gate 5 checks `fit` and `transform`, and `load_model`, which
  reads back what `save_model` writes;
- the reference window search, which evaluates window by window with
  every fold's scores projected up front, the way `window_search` ran
  before its work units went fold by fold; it calls the package's fold
  PCA, projection, assembly, classifiers and seed derivation.
"""

from __future__ import annotations

import csv
import math
import os
import struct

import numpy as np

from rootgrowth import evaluation, features
from rootgrowth.dataset import LABELS, Dataset, _check_header, _manifest_path, read_manifest
from rootgrowth.ensembles import EnsembleModel, MlpNetwork, TrainConfig, gncl_target, init_mlp
from rootgrowth.errors import DataFormatError, NumericError
from rootgrowth.pca import _MAGIC, _VERSION, PcaModel, _fix_signs, max_components
from rootgrowth.seeding import derive
from rootgrowth.svm import SMO_TOL, SvmModel, gram_matrix, resolve


def jacobi_eigh(a: np.ndarray, sweeps: int = 100, tol: float = 1e-14):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue,
    eigenvectors in columns. Only sensible for small matrices.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if theta >= 0:
                    t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    w = np.diag(a).copy()
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def project_box_hyperplane(v: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection of v onto {0 <= a <= c, sum(a * y) = 0}.

    The projection is clip(v - nu * y, 0, c) for the nu that zeroes the
    constraint. h(nu) = y . clip(v - nu y, 0, c) is piecewise linear and
    non-increasing with breakpoints where a coordinate meets the box, so
    the root comes from scanning the sorted breakpoints and
    interpolating on the bracketing segment. Requires both labels
    present (otherwise h never crosses zero).
    """
    v, y = (np.asarray(a, dtype=np.float64).tolist() for a in (v, y))
    return np.array(_project(v, y, float(c)))


def _project(v: list[float], y: list[float], c: float) -> list[float]:
    """`project_box_hyperplane` on lists of Python floats: numpy calls on
    a handful of values cost more than their arithmetic. A coordinate
    clipped to 0 adds nothing to h, so the sums skip it."""

    def h(nu):
        total = 0.0
        for vi, yi in zip(v, y):
            a = vi - nu * yi
            if a > 0.0:
                total += yi * (a if a < c else c)
        return total

    bps = sorted([vi * yi for vi, yi in zip(v, y)] + [(vi - c) * yi for vi, yi in zip(v, y)])
    # the last breakpoint where h >= 0, scanning down from the top
    k, hk, h_above = len(bps) - 1, h(bps[-1]), None
    while hk < 0.0:
        k, h_above = k - 1, hk
        hk = h(bps[k])
    if hk == 0.0 or h_above is None:
        nu = bps[k]
    else:
        nu = bps[k] + (bps[k + 1] - bps[k]) * hk / (hk - h_above)
    out = []
    for vi, yi in zip(v, y):
        a = vi - nu * yi
        out.append(0.0 if a <= 0.0 else a if a < c else c)
    return out


def qp_max_dual(k: np.ndarray, y: np.ndarray, c: float, steps: int = 5000) -> np.ndarray:
    """Maximize sum(a) - 1/2 a' Q a over the box-simplex by projected gradient.

    Q = (y y') * k. Plain fixed-step ascent; slow but has no moving parts,
    which is the point. The ascent runs on Python floats, as `_project` does.
    """
    q = (y[:, None] * y[None, :]) * k
    lr = 1.0 / (float(np.linalg.norm(q, 2)) + 1.0)
    rows, labels, c = q.tolist(), np.asarray(y, dtype=np.float64).tolist(), float(c)
    alpha = [0.0] * len(labels)
    for _ in range(steps):
        # alpha + lr * (1 - Q alpha), one row of Q at a time
        step = []
        for ai, row in zip(alpha, rows):
            qa = 0.0
            for qij, aj in zip(row, alpha):
                qa += qij * aj
            step.append(ai + lr * (1.0 - qa))
        alpha = _project(step, labels, c)
    return np.array(alpha)


def dual_value(alpha: np.ndarray, y: np.ndarray, k: np.ndarray) -> float:
    q = (y[:, None] * y[None, :]) * k
    return float(np.sum(alpha) - 0.5 * alpha @ q @ alpha)


def kernel_eval(spec, x: np.ndarray, z: np.ndarray) -> float:
    """A resolved kernel on a single pair of points: the per-pair
    reference for `gram_matrix` and `cross_gram`."""
    x = np.asarray(x, dtype=np.float64).ravel()
    z = np.asarray(z, dtype=np.float64).ravel()
    if spec.kind == "linear":
        return float(x @ z)
    if spec.kind == "gaussian":
        diff = x - z
        return math.exp(-float(diff @ diff) / (2.0 * spec.sigma**2))
    assert spec.kind == "sigmoid", spec.kind
    return math.tanh(spec.a * float(x @ z) + spec.b)


def central_diff_grad(f, w: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at w, elementwise."""
    w = np.asarray(w, dtype=np.float64)
    grad = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bump = np.zeros_like(w)
        bump[idx] = eps
        grad[idx] = (f(w + bump) - f(w - bump)) / (2.0 * eps)
        it.iternext()
    return grad


def velocity_loops(scores: np.ndarray) -> np.ndarray:
    """First differences along axis 0, written as an explicit loop."""
    t, k = scores.shape
    out = np.empty((t - 1, k))
    for i in range(t - 1):
        for j in range(k):
            out[i, j] = scores[i + 1, j] - scores[i, j]
    return out


def acceleration_loops(scores: np.ndarray) -> np.ndarray:
    """Second differences along axis 0, via two explicit loop passes."""
    return velocity_loops(velocity_loops(scores))


def windows_loops(n_frames: int, length: int, stride: int) -> list[tuple[int, int]]:
    """Enumerate [start, end] windows by walking a cursor."""
    out = []
    start = 0
    while start + length <= n_frames:
        out.append((start, start + length - 1))
        start += stride
    return out


def nearest_centroid_cv_error(x: np.ndarray, y: np.ndarray, folds) -> float:
    """Mean held-out error of a two-centroid classifier over given folds.

    Baseline difficulty probe: no training beyond class means, so its
    error tracks class overlap in the feature space.
    """
    errors = []
    for test_idx in folds:
        mask = np.ones(len(y), dtype=bool)
        mask[test_idx] = False
        mu0 = x[mask & (y == 0)].mean(axis=0)
        mu1 = x[mask & (y == 1)].mean(axis=0)
        d0 = np.linalg.norm(x[test_idx] - mu0, axis=1)
        d1 = np.linalg.norm(x[test_idx] - mu1, axis=1)
        pred = (d1 < d0).astype(np.int64)
        errors.append(float(np.mean(pred != y[test_idx])))
    return float(np.mean(errors))


# ---------------------------------------------------------------------------
# Single-pattern update rules: forward passes, error signals and weight
# increments of one expert or the gate.


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def softmax(v: np.ndarray) -> np.ndarray:
    """Shift-stabilized softmax; sums to 1."""
    e = np.exp(v - np.max(v))
    return e / e.sum()


def _forward(w_hidden, w_out, x_aug):
    o_h = _sigmoid(w_hidden @ x_aug)
    o = _sigmoid(float(w_out[0, :-1] @ o_h) + w_out[0, -1])
    return o_h, o


def mlp_forward(net: MlpNetwork, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Hidden activations and scalar output for one input vector."""
    return _forward(net.w_hidden, net.w_out, np.append(x, 1.0))


def gate_forward(gate: MlpNetwork, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hidden activations, sigmoid outputs, and softmax weights g."""
    o_h = _sigmoid(gate.w_hidden @ np.append(x, 1.0))
    o_sig = _sigmoid(gate.w_out[:, :-1] @ o_h + gate.w_out[:, -1])
    return o_h, o_sig, softmax(o_sig)


def ncl_penalty(outputs: np.ndarray, i: int) -> float:
    """Correlation penalty P_i = (O_i - O_ens) * sum_{j!=i} (O_j - O_ens)."""
    dev = outputs - outputs.mean()
    return float(dev[i] * (dev.sum() - dev[i]))


def ncl_output_error(target: float, outputs: np.ndarray, i: int, lam: float) -> float:
    """Output-layer error signal of expert i under the penalty convention.

    The penalty derivative is taken as sum_{j!=i} (O_j - O_ens), i.e.
    -(O_i - O_ens); the signal is applied in the delta rule as
    (target - O_i) + lambda * (O_i - O_ens).
    """
    o_ens = outputs.mean()
    return float((target - outputs[i]) + lam * (outputs[i] - o_ens))


def mnce_posterior(target: float, outputs: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Posterior responsibility h of each expert for the pattern.

    h_i is proportional to g_i * exp(-(target - O_i)^2 / 2 + lambda P_i)
    and normalized to sum to 1.
    """
    pen = np.array([ncl_penalty(outputs, i) for i in range(len(outputs))])
    w = g * np.exp(-0.5 * (target - outputs) ** 2 + lam * pen)
    return w / w.sum()


def mnce_penalty_grad(outputs: np.ndarray, g: np.ndarray, i: int) -> float:
    """dP_i/dO_i convention of the mixture update rule.

    g_i * sum_{j!=i} (O_j - Obar) + g_i * (M - 1) * (O_i - Obar).
    """
    m = len(outputs)
    o_bar = outputs.mean()
    others = (outputs.sum() - outputs[i]) - (m - 1) * o_bar
    return float(g[i] * others + g[i] * (m - 1) * (outputs[i] - o_bar))


def mnce_output_error(
    target: float, outputs: np.ndarray, g: np.ndarray, h: np.ndarray, i: int, lam: float
) -> float:
    """Posterior-weighted error signal of expert i."""
    dp = mnce_penalty_grad(outputs, g, i)
    return float(h[i] * ((target - outputs[i]) - lam * dp))


def expert_increments(w_out, x_aug, o_h, o, err):
    """Delta-rule weight increments (no learning rate) for one expert."""
    delta_o = err * o * (1.0 - o)
    inc_out = delta_o * np.append(o_h, 1.0)
    delta_h = (w_out[0, :-1] * delta_o) * o_h * (1.0 - o_h)
    return np.outer(delta_h, x_aug), inc_out[None, :]


def gate_increments(w_out, x_aug, o_h, o_sig, resid):
    """Delta-rule weight increments (no learning rate) for the gate.

    ``resid`` is the target-minus-g vector; the derivative factor is
    the sigmoid slope of the gate's MLP outputs.
    """
    delta_o = resid * o_sig * (1.0 - o_sig)
    inc_out = np.outer(delta_o, np.append(o_h, 1.0))
    delta_h = (w_out[:, :-1].T @ delta_o) * o_h * (1.0 - o_h)
    return np.outer(delta_h, x_aug), inc_out


# ---------------------------------------------------------------------------
# Reference ensemble trainers: one expert and one pattern at a time.
# Each returns (experts, gate); gate is None for plain NCL.


def train_backprop(
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    init_seed: int | None = None,
    shuffle_seed: int | None = None,
) -> MlpNetwork:
    """Train one plain MLP with per-pattern backprop (no ensemble terms).

    Seeds default to the first expert's derived sub-seeds so a single
    network is comparable with ensemble runs on the same config.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if init_seed is None:
        init_seed = derive(cfg.seed, "expert-init", 0)
    if shuffle_seed is None:
        shuffle_seed = derive(cfg.seed, "shuffle")
    net = init_mlp(x.shape[1], cfg.hidden, init_seed)
    rng = np.random.default_rng(shuffle_seed)
    for epoch in range(cfg.epochs):
        for idx in rng.permutation(len(y)):
            x_aug = np.append(x[idx], 1.0)
            o_h, o = _forward(net.w_hidden, net.w_out, x_aug)
            err = y[idx] - o
            inc_h, inc_out = expert_increments(net.w_out, x_aug, o_h, o, err)
            net.w_hidden += cfg.eta_experts * inc_h
            net.w_out += cfg.eta_experts * inc_out
    return net


def reference_ncl(x, y, cfg, lam):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    nets = [
        init_mlp(x.shape[1], cfg.hidden, derive(cfg.seed, "expert-init", i))
        for i in range(cfg.n_experts)
    ]
    rng = np.random.default_rng(derive(cfg.seed, "shuffle"))
    for epoch in range(cfg.epochs):
        for idx in rng.permutation(len(y)):
            x_aug = np.append(x[idx], 1.0)
            states = [mlp_forward(net, x[idx]) for net in nets]
            outs = np.array([o for _, o in states])
            for i, net in enumerate(nets):
                err = ncl_output_error(y[idx], outs, i, lam)
                inc_h, inc_out = expert_increments(
                    net.w_out, x_aug, states[i][0], outs[i], err
                )
                net.w_hidden += cfg.eta_experts * inc_h
                net.w_out += cfg.eta_experts * inc_out
    return nets, None


def reference_gated_ncl(x, y, cfg, lam):
    nets, _ = reference_ncl(x, y, cfg, lam)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    gate = init_mlp(x.shape[1], cfg.hidden, derive(cfg.seed, "gate-init"), n_outputs=cfg.n_experts)
    rng = np.random.default_rng(derive(cfg.seed, "gate-shuffle"))
    for epoch in range(cfg.epochs):
        for idx in rng.permutation(len(y)):
            x_aug = np.append(x[idx], 1.0)
            outs = np.array([mlp_forward(net, x[idx])[1] for net in nets])
            h = gncl_target(y[idx], outs)
            go_h, o_sig, g = gate_forward(gate, x[idx])
            inc_h, inc_out = gate_increments(gate.w_out, x_aug, go_h, o_sig, h - g)
            gate.w_hidden += cfg.eta_gate * inc_h
            gate.w_out += cfg.eta_gate * inc_out
    return nets, gate


def reference_mnce(x, y, cfg, lam):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    nets = [
        init_mlp(x.shape[1], cfg.hidden, derive(cfg.seed, "expert-init", i))
        for i in range(cfg.n_experts)
    ]
    gate = init_mlp(x.shape[1], cfg.hidden, derive(cfg.seed, "gate-init"), n_outputs=cfg.n_experts)
    rng = np.random.default_rng(derive(cfg.seed, "shuffle"))
    for epoch in range(cfg.epochs):
        for idx in rng.permutation(len(y)):
            x_aug = np.append(x[idx], 1.0)
            states = [mlp_forward(net, x[idx]) for net in nets]
            outs = np.array([o for _, o in states])
            go_h, o_sig, g = gate_forward(gate, x[idx])
            h = mnce_posterior(y[idx], outs, g, lam)
            for i, net in enumerate(nets):
                err = mnce_output_error(y[idx], outs, g, h, i, lam)
                inc_h, inc_out = expert_increments(
                    net.w_out, x_aug, states[i][0], outs[i], err
                )
                net.w_hidden += cfg.eta_experts * inc_h
                net.w_out += cfg.eta_experts * inc_out
            ginc_h, ginc_out = gate_increments(gate.w_out, x_aug, go_h, o_sig, h - g)
            gate.w_hidden += cfg.eta_gate * ginc_h
            gate.w_out += cfg.eta_gate * ginc_out
    return nets, gate


def ensemble_output(model: EnsembleModel, x: np.ndarray) -> float:
    """Combined output O_T for one input, from the single-pattern forward
    passes: the experts' mean for NCL, else their gate-weighted sum. The
    per-row reference for `predict_batch`."""
    outs = np.array([mlp_forward(net, x)[1] for net in model.experts])
    if model.gate is None:
        return float(outs.mean())
    return float(outs @ gate_forward(model.gate, x)[2])


# ---------------------------------------------------------------------------
# Reference SMO solver: the second-order working-set loop on numpy arrays.

_TAU = 1e-12


def train_smo_reference(x, y, kernel, c=1.0, tol=1e-3, max_passes=100) -> SvmModel:
    """The SMO loop in vector form: index sets as boolean masks, the
    working set from a masked argmax and argmin, LIBSVM's clipped update
    on scalars and a whole-vector gradient update."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.shape[0]
    kernel = resolve(kernel, x)
    k = gram_matrix(kernel, x)
    q = k * np.outer(y, y)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    budget = max_passes * n

    for step in range(budget + 1):
        f = -y * grad
        up = np.where(y > 0, alpha < c, alpha > 0.0)
        low = np.where(y > 0, alpha > 0.0, alpha < c)
        i = int(np.argmax(np.where(up, f, -np.inf)))
        f_max = f[i] if up.any() else -np.inf
        f_min = f[low].min() if low.any() else np.inf
        b = f_max - f
        a = k[i, i] + np.diag(k) - 2.0 * k[i]
        a[~(a > 0.0)] = _TAU
        pairs = low & (b > 0.0)
        j = int(np.argmin(np.where(pairs, -(b * b) / a, np.inf))) if pairs.any() else -1
        if j < 0 or f_max - f_min <= tol or step == budget:
            u = y * (grad + 1.0)
            bias = _ref_bias(alpha, u, y, c)
            residual = float(np.max(_ref_kkt_violations(alpha, u, y, bias, c)))
            if j < 0 or residual <= tol or step == budget:
                break
        old_i, old_j = alpha[i], alpha[j]
        _ref_take_step(i, j, alpha, grad, y, k, c)
        grad += q[i] * (alpha[i] - old_i) + q[j] * (alpha[j] - old_j)

    keep = alpha > 0
    return SvmModel(
        support_vectors=x[keep],
        coef=alpha[keep] * y[keep],
        bias=bias,
        kernel=kernel,
        c=c,
        kkt_residual=residual,
    )


def _ref_take_step(i, j, alpha, grad, y, k, c) -> None:
    # solve_two_variable of LIBSVM's Solver::Solve, with C_i == C_j == c
    quad = k[i, i] + k[j, j] - 2.0 * k[i, j]
    if quad <= 0:
        quad = _TAU
    if y[i] != y[j]:
        delta = (-grad[i] - grad[j]) / quad
        diff = alpha[i] - alpha[j]
        alpha[i] += delta
        alpha[j] += delta
        if diff > 0:
            if alpha[j] < 0:
                alpha[j] = 0.0
                alpha[i] = diff
        elif alpha[i] < 0:
            alpha[i] = 0.0
            alpha[j] = -diff
        if diff > 0:
            if alpha[i] > c:
                alpha[i] = c
                alpha[j] = c - diff
        elif alpha[j] > c:
            alpha[j] = c
            alpha[i] = c + diff
    else:
        delta = (grad[i] - grad[j]) / quad
        total = alpha[i] + alpha[j]
        alpha[i] -= delta
        alpha[j] += delta
        if total > c:
            if alpha[i] > c:
                alpha[i] = c
                alpha[j] = total - c
        elif alpha[j] < 0:
            alpha[j] = 0.0
            alpha[i] = total
        if total > c:
            if alpha[j] > c:
                alpha[j] = c
                alpha[i] = total - c
        elif alpha[i] < 0:
            alpha[i] = 0.0
            alpha[j] = total


def _ref_bias(alpha, u, y, c) -> float:
    unbound = (alpha > 0.0) & (alpha < c)
    if np.any(unbound):
        return float(np.mean(y[unbound] - u[unbound]))
    lower, upper = -np.inf, np.inf
    for i in range(len(alpha)):
        edge = y[i] - u[i]
        needs_ge = (alpha[i] == 0.0 and y[i] > 0) or (alpha[i] == c and y[i] < 0)
        if needs_ge:
            lower = max(lower, edge)
        else:
            upper = min(upper, edge)
    if not math.isfinite(lower):
        return 0.0 if not math.isfinite(upper) else upper
    if not math.isfinite(upper):
        return lower
    return 0.5 * (lower + upper)


def _ref_kkt_violations(alpha, u, y, bias, c) -> np.ndarray:
    yf = y * (u + bias)
    at_lo = alpha == 0.0
    at_hi = alpha == c
    viol = np.abs(yf - 1.0)
    viol[at_lo] = np.maximum(0.0, 1.0 - yf[at_lo])
    viol[at_hi] = np.maximum(0.0, yf[at_hi] - 1.0)
    return viol


def load_csv_reference(path: str | os.PathLike) -> Dataset:
    """Row-at-a-time CSV loader: `csv.reader` fields, `float()` values.

    Every check runs in one loop over the records, so the first bad line
    in file order is the one reported.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        _check_header(path, header)

        samples: list[tuple[str, str, int, np.ndarray]] = []
        cur_id: str | None = None
        cur_tag = ""
        cur_label = 0
        cur_rows: list[list[float]] = []
        seen_ids: set[str] = set()

        def finish():
            if cur_id is not None:
                if len(cur_rows) < 3:
                    raise DataFormatError(
                        f"sample {cur_id!r}: need at least 3 frames, got {len(cur_rows)}"
                    )
                samples.append((cur_id, cur_tag, cur_label, np.array(cur_rows)))

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            sid, tag, token, idx_text = row[:4]
            if sid != cur_id:
                finish()
                if sid in seen_ids:
                    raise DataFormatError(
                        f"{path}:{lineno}: rows for sample {sid!r} are not contiguous"
                    )
                seen_ids.add(sid)
                if token not in LABELS:
                    raise DataFormatError(f"unknown label token {token!r}")
                cur_id, cur_tag, cur_label, cur_rows = sid, tag, LABELS.index(token), []
            elif tag != cur_tag or token != LABELS[cur_label]:
                raise DataFormatError(
                    f"{path}:{lineno}: sample {sid!r} changes group_tag or label mid-file"
                )
            if idx_text != str(len(cur_rows)):
                raise DataFormatError(
                    f"{path}:{lineno}: frame_index {idx_text!r} out of order "
                    f"(expected {len(cur_rows)})"
                )
            try:
                values = [float(v) for v in row[4:]]
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric coordinate value"
                ) from None
            if not all(math.isfinite(v) for v in values):
                raise DataFormatError(f"{path}:{lineno}: non-finite coordinate value")
            cur_rows.append(values)
        finish()

    if not samples:
        raise DataFormatError(f"{path}: no data rows")
    ids = [sid for sid, _, _, _ in samples]
    if ids != sorted(ids):
        raise DataFormatError(f"{path}: rows are not sorted by sample_id")
    pairing = None
    manifest = _manifest_path(path)
    if os.path.exists(manifest):
        meta = read_manifest(manifest)
        if "wild_tag" in meta and "mutated_tag" in meta:
            pairing = (meta["wild_tag"], meta["mutated_tag"])
    first_shape = samples[0][3].shape
    for sid, _, _, frames in samples:
        if frames.shape != first_shape:
            raise DataFormatError(f"sample {sid!r} has shape {frames.shape}, expected {first_shape}")
    tags = [tag for _, tag, _, _ in samples]
    labels = [label for _, _, label, _ in samples]
    return Dataset(np.stack([frames for _, _, _, frames in samples]), ids, tags, labels, pairing=pairing)


def pca_fit_reference(data: np.ndarray, n_components: int) -> PcaModel:
    """PCA by an SVD of the centered data; eigenvalues are s^2/(n-1)."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataFormatError("data contains non-finite values")
    n, d = x.shape
    limit = max_components(n, d)
    if not 1 <= n_components <= limit:
        raise ValueError(
            f"n_components must be in [1, {limit}] for data of shape {x.shape}, "
            f"got {n_components}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    if not centered.any():
        raise DataFormatError("data has zero variance (all rows identical)")
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = (s * s) / (n - 1)
    if not np.isfinite(eigenvalues).all():
        raise NumericError(
            f"PCA variances overflow (data up to {np.abs(x).max():.3g} in magnitude)"
        )
    components = _fix_signs(vt[:n_components].copy())
    return PcaModel(mean, components, eigenvalues[:n_components])


def reconstruct(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    """Map scores back to coordinate space (lossy for k < d)."""
    z = np.asarray(scores, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.n_components:
        raise ValueError(
            f"scores must be (n, {model.n_components}), got shape {z.shape}"
        )
    return z @ model.components + model.mean


def load_model(path: str | os.PathLike) -> PcaModel:
    """Read a model written by `save_model`; bit-exact round-trip."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = struct.calcsize("<BII")
    if len(blob) < len(_MAGIC) + head or blob[: len(_MAGIC)] != _MAGIC:
        raise DataFormatError(f"{path}: not a PCA model file")
    version, d, k = struct.unpack_from("<BII", blob, len(_MAGIC))
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported model version {version}")
    offset = len(_MAGIC) + head
    expected = offset + 8 * (d + k * d + k)
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: truncated model file ({len(blob)} bytes, expected {expected})"
        )
    mean = np.frombuffer(blob, "<f8", count=d, offset=offset)
    offset += 8 * d
    components = np.frombuffer(blob, "<f8", count=k * d, offset=offset).reshape(k, d)
    offset += 8 * k * d
    eigenvalues = np.frombuffer(blob, "<f8", count=k, offset=offset)
    return PcaModel(mean, components, eigenvalues)



def _reference_fold_scores(dataset, folds, n_components):
    fits = []
    n = dataset.n_samples
    for fold_idx, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        try:
            model = evaluation.fit_fold_pca(dataset, train_idx, n_components)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"fold {fold_idx}: {exc}") from None
        fits.append((model, train_idx, test_idx))
    return [(evaluation.dataset_scores(dataset, model), train_idx, test_idx) for model, train_idx, test_idx in fits]


def _reference_evaluate_window(ctx, w_idx):
    window = ctx["windows"][w_idx]
    labels = ctx["labels"]
    spec = ctx["spec"]
    rates = {label: [] for label in spec.labels}
    unconverged = 0
    start, end = window
    for fold_idx, (scores, train_idx, test_idx) in enumerate(ctx["fold_scores"]):
        x = features.assemble(scores[:, start : end + 1], *ctx["blocks"])
        x_train, x_test = x[train_idx], x[test_idx]
        for kind, label in zip(spec.kinds, spec.labels):
            fit_seed = derive(ctx["seed"], "window", start, "fit", fold_idx, kind)
            try:
                model = evaluation.fit_classifier(kind, spec, x_train, labels[train_idx], fit_seed)
                preds = evaluation.predict_labels(model, x_test)
            except (ValueError, ArithmeticError) as exc:
                raise type(exc)(f"window {window}, fold {fold_idx}: {exc}") from None
            rates[label].append(evaluation.error_rate(preds, labels[test_idx]))
            if kind in evaluation.SVM_KINDS and model.kkt_residual > SMO_TOL:
                unconverged += 1
    return {label: float(np.mean(r)) for label, r in rates.items()}, unconverged


def window_search_reference(
    dataset: Dataset,
    spec,
    wspec,
    k_folds: int = 5,
    seed: int = 0,
    *,
    n_components: int,
    include_velocity: bool = True,
    include_acceleration: bool = True,
    literal_sum: bool = False,
) -> evaluation.SearchResult:
    """`window_search` window by window, serially, with every fold's scores
    projected up front, the way it ran before its work went fold by fold."""
    windows = features.window_slices(dataset.n_frames, wspec)
    labels = dataset.labels
    folds = evaluation.kfold_split(dataset.n_samples, k_folds, labels, seed)
    ctx = {
        "windows": windows,
        "labels": labels,
        "spec": spec,
        "fold_scores": _reference_fold_scores(dataset, folds, n_components),
        "blocks": (include_velocity, include_acceleration, literal_sum),
        "seed": seed,
    }
    raw = [_reference_evaluate_window(ctx, i) for i in range(len(windows))]
    results = tuple(evaluation.WindowResult(w, means) for w, (means, _) in zip(windows, raw))
    best = {}
    for label in spec.labels:
        for res in results:  # window order, so ties keep the earliest start
            err = res.errors[label]
            if label not in best or err < best[label][1]:
                best[label] = (res.window, err)
    return evaluation.SearchResult(results, best, sum(n for _, n in raw))
