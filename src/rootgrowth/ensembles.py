"""Neural ensembles: negative correlation, mixtures of experts, and hybrids.

Every expert is a one-hidden-layer MLP with sigmoid activations at both
layers and a trailing bias weight per layer; a gate is the same network
with one output per expert. Every fit runs one stacked engine over one
stack per layer: the experts and a mixture's gate, or gated NCL's gate
alone. A pattern step updates all of them at once, bitwise as the
update rules stated one network and one pattern at a time would (those
rules, with the reference trainers built on them, are in
tests/oracles.py). A trained model's networks are read-only views of
the stacks the engine trained:

  ncl        experts trained together, each on its squared error plus
             lambda times the correlation penalty; simple averaging.
  gated_ncl  two stages: NCL experts first, then a frozen-expert gating
             network trained toward per-expert expertise targets.
  me         mixture of experts: posterior-weighted expert updates and
             a gate trained toward the posterior (the lambda = 0 case
             of mnce, same code path).
  mnce       mixture of negatively correlated experts: the posterior
             and expert error signals carry the correlation penalty.

Gate backpropagation follows the delta-rule convention of the update
equations it implements: the error signal (h - g) is scaled by the
sigmoid derivative of the gate's MLP outputs; the softmax applied on
top of those outputs is not differentiated through.

All per-pattern updates happen in presentation order with a fresh
seeded shuffle per epoch; sub-seeds for weight init and shuffling are
derived from the single config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError
from .seeding import derive

VARIANTS = ("ncl", "gated_ncl", "me", "mnce")


@dataclass(frozen=True)
class TrainConfig:
    """Shared training knobs; lambda is passed per trainer call."""

    n_experts: int = 4
    hidden: int = 4
    epochs: int = 200
    eta_experts: float = 0.15
    eta_gate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_experts < 2:
            raise ConfigError(f"need at least 2 experts, got {self.n_experts}", ("n_experts",))
        if self.hidden < 1:
            raise ConfigError(f"need at least 1 hidden neuron, got {self.hidden}", ("hidden",))
        if self.epochs < 1:
            raise ConfigError(f"need at least 1 epoch, got {self.epochs}", ("epochs",))
        for name in ("eta_experts", "eta_gate"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigError(f"{name} must be finite and positive, got {rate}", (name,))


@dataclass
class MlpNetwork:
    """One-hidden-layer sigmoid MLP; bias is the last column of each layer.

    An expert has one output. A gate has one per expert, and the softmax
    of its sigmoid outputs gives the experts' weights.
    """

    w_hidden: np.ndarray  # (hidden, n_inputs + 1)
    w_out: np.ndarray  # (n_outputs, hidden + 1)

    @property
    def n_inputs(self) -> int:
        return self.w_hidden.shape[1] - 1


def init_mlp(n_inputs: int, hidden: int, seed: int, n_outputs: int = 1) -> MlpNetwork:
    """Fresh network with weights uniform on [-0.5, 0.5], hidden layer drawn first."""
    rng = np.random.default_rng(seed)
    return MlpNetwork(
        w_hidden=rng.uniform(-0.5, 0.5, (hidden, n_inputs + 1)),
        w_out=rng.uniform(-0.5, 0.5, (n_outputs, hidden + 1)),
    )


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def gncl_target(target: float, outputs: np.ndarray) -> np.ndarray:
    """Expertise shares h: normalized exp(-(target - O_i)^2 / 2)."""
    w = np.exp(-0.5 * (target - outputs) ** 2)
    return w / w.sum()


# ---------------------------------------------------------------------------
# Trainers


@dataclass(frozen=True)
class EnsembleModel:
    """Trained ensemble; ``gate`` is None for plain NCL averaging."""

    variant: str
    experts: tuple[MlpNetwork, ...]
    gate: MlpNetwork | None
    config: TrainConfig

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if (self.gate is None) != (self.variant == "ncl"):
            raise ValueError(f"variant {self.variant!r} and gate presence disagree")

    @property
    def n_inputs(self) -> int:
        return self.experts[0].n_inputs


def _check_training_inputs(x, y, lam):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"x must be (n>=1, f), got shape {x.shape}")
    if y.shape != (x.shape[0],) or not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be 0/1, one per row of x")
    if not np.isfinite(x).all():
        raise DataFormatError("training data contains non-finite values")
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    return x, y


def _ensure_finite(epoch, *arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericError(f"non-finite weights after epoch {epoch}")


def _model(variant, cfg, wh, wo, gate=None) -> EnsembleModel:
    """The trained model as read-only views of the stacks: expert i is
    slice i, and a mixture's gate is slice M, unless ``gate`` (gated
    NCL's, trained apart) is given. The arrays are frozen before any view
    is made, because a view made earlier would stay writeable."""
    m = cfg.n_experts
    for a in (wh, wo) if gate is None else (wh, wo, gate.w_hidden, gate.w_out):
        a.flags.writeable = False
    if len(wh) > m:
        gate = MlpNetwork(wh[m], wo[m:])
    experts = tuple(MlpNetwork(wh[i], wo[i : i + 1]) for i in range(m))
    return EnsembleModel(variant, experts, gate, cfg)


def _augment(x):
    """Rows of x with the bias input 1.0 appended."""
    return np.hstack([x, np.ones((x.shape[0], 1))])


# ---------------------------------------------------------------------------
# Stacked experts: one pattern step updates all M experts, and the gate,
# at once.
#
# Hidden layers live in wh (M+1, H, d+1), the gate's as slice M, so one
# gemv per slice and one increment serve them all; output layers live in
# wo (2M, H+1), M expert rows and then the gate's M rows. numpy does the
# (d+1)-wide work and the calls whose bits the single-pattern update
# rules in tests/oracles.py fix: every np.exp (math.exp rounds
# differently), the per-expert output dots and the gate's output and
# backprop gemvs (a Python dot rounds differently from both). The M-
# and H-sized arithmetic between them runs on Python floats, where a
# numpy call on 4 to 20 entries costs more in dispatch than in
# arithmetic. Each expression keeps those rules' operation order,
# squares are d * d as numpy's ** 2, and sums over experts go through
# `_fsum`, so a stacked fit is bitwise the fit of M experts updated one
# after another.
#
# Gated NCL's second stage steps a stack of the gate alone (m = 0): wh
# (1, H, d+1) and wo (M, H+1). That step skips the expert half, whose
# empty numpy calls would still cost several per cent of a gated fit.


def _fsum(values):
    """Sum of floats in numpy's order: left to right below 8 terms, and
    numpy's own pairwise reduction from 8 up."""
    if len(values) >= 8:
        return float(np.add.reduce(values))
    total = 0.0
    for v in values:
        total += v
    return total


def _normalized(values):
    """values / sum(values) with numpy's division (0/0 is nan, not an error)."""
    total = _fsum(values)
    if total:
        return [v / total for v in values]
    return (np.array(values) / total).tolist()


def _sigmoids(neg_pre):
    """Logistic of pre-activations given negated, through one np.exp call."""
    return [1.0 / (1.0 + e) for e in np.exp(neg_pre).tolist()]


def _forward(wh, wo, x_aug):
    """Sigmoid outputs (n, S * O) of a stack of S networks with O outputs
    each, wh (S, H, d+1) and wo (S, O, H+1), for each row of a batch
    (n, d+1): the experts as S = M, O = 1 and the gate as S = 1, O = M.
    Every row's products are those of its single-row forward passes."""
    o_h = _sigmoid(np.matmul(wh, x_aug[:, None, :, None])[..., 0])
    o = _sigmoid(np.matmul(wo[..., :-1], o_h[..., None])[..., 0] + wo[..., -1])
    return o.reshape(len(x_aug), -1)


def _ncl_errors(t, o, lam):
    """Every expert's NCL error signal (t - O_i) + lam * (O_i - O_bar), on
    Python floats."""
    o_bar = _fsum(o) / len(o)
    return [(t - v) + lam * (v - o_bar) for v in o]


def _mixture_signals(t, o, osig, lam):
    """Gate weights g (the softmax of the gate's sigmoid outputs), the
    posterior h and every expert's posterior-weighted error signal, on
    Python floats with one np.exp call."""
    m = len(o)
    m1 = float(m - 1)
    o_sum = _fsum(o)
    o_bar = o_sum / m
    dev = [v - o_bar for v in o]
    dev_sum = _fsum(dev)
    top = max(osig)
    # the softmax's exponentials, then the posterior's (with the penalty P_i)
    e = np.exp(
        [v - top for v in osig]
        + [-0.5 * ((t - v) * (t - v)) + lam * (d * (dev_sum - d)) for v, d in zip(o, dev)]
    ).tolist()
    g = _normalized(e[:m])
    h = _normalized([gi * v for gi, v in zip(g, e[m:])])
    # the error signals, with the mixture rule's penalty slope
    err = [
        hi * ((t - v) - lam * (gi * ((o_sum - v) - m1 * o_bar) + gi * m1 * d))
        for hi, gi, v, d in zip(h, g, o, dev)
    ]
    return g, h, err


def _gate_backprop(gx, act, osig, resid, eta):
    """The gate's delta-rule step for one pattern on Python floats: its hidden
    deltas, and its output-layer increments with the learning rate
    applied, both flat in row order. ``gx`` is the gate's (M, H) output
    weights, ``act`` its hidden activations."""
    d_out = [(r * s) * (1.0 - s) for r, s in zip(resid, osig)]
    back = np.matmul(gx.T, d_out).tolist()
    d_hid = [(b * a) * (1.0 - a) for b, a in zip(back, act)]
    rows = [eta * (d * a) for d in d_out for a in (*act, 1.0)]
    return d_hid, rows


def _train_experts(x, y, cfg, lam, mixture):
    """Draw the stacked experts, and for a mixture the gate, and train
    them jointly; returns the stacks wh (M[+1], H, d+1) and wo (M[+M], H+1)."""
    m = cfg.n_experts
    nets = [
        init_mlp(x.shape[1], cfg.hidden, derive(cfg.seed, "expert-init", i)) for i in range(m)
    ]
    if mixture:
        nets.append(init_mlp(x.shape[1], cfg.hidden, derive(cfg.seed, "gate-init"), n_outputs=m))
    wh = np.stack([net.w_hidden for net in nets])
    wo = np.concatenate([net.w_out for net in nets])
    return _train_stack(_augment(x), y.tolist(), wh, wo, m, cfg, lam, "shuffle")


def _train_stack(x_aug, targets, wh, wo, m, cfg, lam, stream):
    """Train a stack in place, a fresh shuffle per epoch from seed stream
    ``stream``; returns wh and wo. The first m slices and rows are
    experts, which all see the same pattern sequence; the rest, if any,
    is a gate. Without a gate each expert steps on its NCL error. With
    one, the posterior h weights each expert's penalized error and the
    gate steps toward h; ``lam`` scales the correlation terms in both.
    A gate alone (m = 0) steps toward the given per-pattern shares.
    """
    hid = cfg.hidden
    gated = len(wo) > m
    # flat views: one hidden neuron's weights per row, output weights in row order
    wh_rows, wo_flat = wh.reshape(-1, wh.shape[2]), wo.reshape(-1)
    inc = np.empty_like(wh_rows)
    inc_experts, inc_gate = inc[: m * hid], inc[m * hid :]
    wx = wo[:m].reshape(m, 1, hid + 1)[:, :, :hid]
    gx = wo[m:, :hid]
    eta, eta_gate = cfg.eta_experts, cfg.eta_gate
    rng = np.random.default_rng(derive(cfg.seed, stream))
    for epoch in range(cfg.epochs):
        for idx in rng.permutation(len(targets)):
            xa, t = x_aug[idx], targets[idx]
            act = _sigmoid(np.matmul(wh, xa))
            w, a = wo.tolist(), act.tolist()
            dots = np.matmul(wx, act[:m, :, None]).ravel().tolist() if m else []
            if gated:
                dots += (gx @ act[m]).tolist()
            sig = _sigmoids([-(s + wi[hid]) for s, wi in zip(dots, w)])
            o, osig = sig[:m], sig[m:]
            if not gated:
                err = _ncl_errors(t, o, lam)
            elif m:
                g, h, err = _mixture_signals(t, o, osig, lam)
            else:
                top = max(osig)
                g, h = _normalized(np.exp([v - top for v in osig]).tolist()), t
            d_hid, rows = [], []
            if m:
                d_out = [(er * v) * (1.0 - v) for er, v in zip(err, o)]
                d_hid = [
                    ((wj * d) * aj) * (1.0 - aj)
                    for d, wi, ai in zip(d_out, w, a)
                    for wj, aj in zip(wi, ai)
                ]
                rows = [eta * (d * aj) for d, ai in zip(d_out, a) for aj in (*ai, 1.0)]
            if gated:
                resid = [hi - gi for hi, gi in zip(h, g)]
                gate_hid, gate_rows = _gate_backprop(gx, a[m], osig, resid, eta_gate)
                d_hid += gate_hid
                rows += gate_rows
            np.multiply.outer(d_hid, xa, out=inc)
            if m:
                inc_experts *= eta
            if gated:
                inc_gate *= eta_gate
            wh_rows += inc
            wo_flat += rows
        _ensure_finite(epoch, wh, wo)
    return wh, wo


def train_ncl(x: np.ndarray, y: np.ndarray, cfg: TrainConfig, lam: float) -> EnsembleModel:
    """Negative correlation learning over ``cfg.n_experts`` experts.

    All experts see the same shuffled pattern sequence; each pattern's
    forward passes are shared, then every expert takes one delta-rule
    step on its penalized error. With lam = 0 this is exactly
    independent backprop for every expert.
    """
    x, y = _check_training_inputs(x, y, lam)
    return _model("ncl", cfg, *_train_experts(x, y, cfg, lam, mixture=False))


def train_gated_ncl(x: np.ndarray, y: np.ndarray, cfg: TrainConfig, lam: float) -> EnsembleModel:
    """Two-stage hybrid: NCL experts, then a gate over frozen experts.

    Stage two trains only the gating network, toward the expertise
    shares of each pattern; expert weights are left untouched, so each
    pattern's shares are computed once, before the first gate epoch.
    """
    x, y = _check_training_inputs(x, y, lam)
    wh, wo = _train_experts(x, y, cfg, lam, mixture=False)
    x_aug = _augment(x)
    # the batched forward pass gives each row bitwise its single-row outputs
    outs = _forward(wh, wo.reshape(len(wo), 1, -1), x_aug)
    shares = [gncl_target(t, o).tolist() for o, t in zip(outs, y)]
    gate = init_mlp(x.shape[1], cfg.hidden, derive(cfg.seed, "gate-init"), n_outputs=cfg.n_experts)
    _train_stack(x_aug, shares, gate.w_hidden[None], gate.w_out, 0, cfg, lam, "gate-shuffle")
    return _model("gated_ncl", cfg, wh, wo, gate)


def train_mnce(x: np.ndarray, y: np.ndarray, cfg: TrainConfig, lam: float) -> EnsembleModel:
    """Mixture of negatively correlated experts, trained jointly.

    Per pattern: expert outputs and gate weights give the posterior h;
    each expert takes a posterior-weighted step on its penalized error,
    and the gate steps toward h. ``lam`` scales the correlation terms
    in both the posterior and the expert errors.
    """
    x, y = _check_training_inputs(x, y, lam)
    return _model("mnce", cfg, *_train_experts(x, y, cfg, lam, mixture=True))


def train_me(x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> EnsembleModel:
    """Mixture of experts: the penalty-free case of `train_mnce`.

    Shares the mixture code path with lam pinned to 0.0, so the two
    coincide exactly (not just approximately) step for step.
    """
    x, y = _check_training_inputs(x, y, 0.0)
    return _model("me", cfg, *_train_experts(x, y, cfg, 0.0, mixture=True))


TRAINERS: dict[str, Callable[..., EnsembleModel]] = {
    "ncl": train_ncl,
    "gated_ncl": train_gated_ncl,
    "mnce": train_mnce,
}


# ---------------------------------------------------------------------------
# Prediction


def predict_batch(model: EnsembleModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combined outputs and 0/1 labels; the tie O_T = 0.5 goes to 0.

    One stacked pass over all rows; every row's products are the ones
    the single-pattern forward passes make for that row alone, so each
    output is bitwise their outputs' mean, or gate-weighted sum.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise ValueError(f"x must be (n, {model.n_inputs}), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataFormatError("input contains non-finite values")
    x_aug = _augment(x)
    outs = _forward(
        np.stack([net.w_hidden for net in model.experts]),
        np.stack([net.w_out for net in model.experts]),
        x_aug,
    )
    if model.gate is None:
        outputs = outs.mean(axis=1)
    else:
        o_sig = _forward(model.gate.w_hidden[None], model.gate.w_out[None], x_aug)
        e = np.exp(o_sig - o_sig.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        outputs = np.matmul(outs[:, None, :], g[:, :, None])[:, 0, 0]
    return outputs, (outputs > 0.5).astype(np.int64)
