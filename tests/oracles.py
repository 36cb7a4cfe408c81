"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written a different way from the library
code: loop-based differences, a cyclic Jacobi eigensolver, a projected
gradient QP solver, central finite differences, and a nearest-centroid
classifier. None of it imports from the modules under test, except the
reference ensemble trainers at the end: they run one expert at a time
through the public single-pattern helpers, which gate 1 checks against
finite differences, and so pin down what the stacked trainers compute.
"""

from __future__ import annotations

import numpy as np

from rootgrowth.ensembles import (
    expert_increments,
    gate_forward,
    gate_increments,
    gncl_target,
    init_gate,
    init_mlp,
    mlp_forward,
    mnce_output_error,
    mnce_posterior,
    ncl_output_error,
)
from rootgrowth.seeding import derive


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
    bps = np.sort(np.concatenate([v * y, (v - c) * y]))
    # h at every breakpoint at once: column j is clip(v - bps[j] y, 0, c)
    hs = y @ np.clip(v[:, None] - y[:, None] * bps[None, :], 0.0, c)
    k = int(np.flatnonzero(hs >= 0.0)[-1])
    if hs[k] == 0.0 or k == len(bps) - 1:
        nu = bps[k]
    else:
        nu = bps[k] + (bps[k + 1] - bps[k]) * hs[k] / (hs[k] - hs[k + 1])
    return np.clip(v - nu * y, 0.0, c)


def qp_max_dual(k: np.ndarray, y: np.ndarray, c: float, steps: int = 5000) -> np.ndarray:
    """Maximize sum(a) - 1/2 a' Q a over the box-simplex by projected gradient.

    Q = (y y') * k. Plain fixed-step ascent; slow but has no moving parts,
    which is the point.
    """
    q = (y[:, None] * y[None, :]) * k
    lr = 1.0 / (float(np.linalg.norm(q, 2)) + 1.0)
    alpha = np.zeros(len(y))
    for _ in range(steps):
        grad = 1.0 - q @ alpha
        alpha = project_box_hyperplane(alpha + lr * grad, y, c)
    return alpha


def dual_value(alpha: np.ndarray, y: np.ndarray, k: np.ndarray) -> float:
    q = (y[:, None] * y[None, :]) * k
    return float(np.sum(alpha) - 0.5 * alpha @ q @ alpha)


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
# Reference ensemble trainers: one expert and one pattern at a time.
# Each returns (experts, gate); gate is None for plain NCL.


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
    gate = init_gate(x.shape[1], cfg.hidden, cfg.n_experts, derive(cfg.seed, "gate-init"))
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
    gate = init_gate(x.shape[1], cfg.hidden, cfg.n_experts, derive(cfg.seed, "gate-init"))
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
