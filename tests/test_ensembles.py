"""Error signals, trainers, reductions, and gradient spot checks."""

import numpy as np
import pytest

from rootgrowth import ensembles
from rootgrowth.ensembles import (
    TRAINERS,
    EnsembleModel,
    MlpNetwork,
    TrainConfig,
    gncl_target,
    init_mlp,
    predict_batch,
    train_gated_ncl,
    train_me,
    train_mnce,
    train_ncl,
)
from rootgrowth.errors import DataFormatError, NumericError
from rootgrowth.seeding import derive

from oracles import (
    central_diff_grad,
    ensemble_output,
    expert_increments,
    gate_forward,
    gate_increments,
    mlp_forward,
    mnce_output_error,
    mnce_penalty_grad,
    mnce_posterior,
    ncl_output_error,
    ncl_penalty,
    reference_gated_ncl,
    reference_mnce,
    reference_ncl,
    softmax,
    train_backprop,
)


def blob_problem(n=12, seed=0):
    """1-D threshold task: negative inputs are class 0, positive class 1."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-2.0, -0.5, n // 2), rng.uniform(0.5, 2.0, n // 2)])
    y = (x > 0).astype(np.float64)
    return x[:, None], y


class TestErrorSignals:
    def test_penalty_two_experts(self):
        # outputs 0.8, 0.2: deviations +-0.3, so P_0 = 0.3 * (-0.3)
        outs = np.array([0.8, 0.2])
        assert ncl_penalty(outs, 0) == pytest.approx(-0.09)
        assert ncl_penalty(outs, 1) == pytest.approx(-0.09)

    def test_penalties_sum_symmetric(self):
        outs = np.array([0.9, 0.4, 0.1, 0.6])
        dev = outs - outs.mean()
        for i in range(4):
            assert ncl_penalty(outs, i) == pytest.approx(dev[i] * (dev.sum() - dev[i]))

    def test_ncl_error_lambda_zero_is_plain(self):
        outs = np.array([0.7, 0.3])
        assert ncl_output_error(1.0, outs, 0, 0.0) == pytest.approx(0.3)

    def test_ncl_error_penalty_term(self):
        outs = np.array([0.7, 0.3])
        # (t - O_0) + lam * (O_0 - mean) = 0.3 + 0.5 * 0.2
        assert ncl_output_error(1.0, outs, 0, 0.5) == pytest.approx(0.4)

    def test_gncl_target_known(self):
        # errors 0 and 1: shares sigmoid(0.5) and 1 - sigmoid(0.5)
        h = gncl_target(1.0, np.array([1.0, 0.0]))
        assert h == pytest.approx([0.6224593312018546, 0.3775406687981454])
        assert h.sum() == pytest.approx(1.0)

    def test_gncl_identical_experts_uniform(self):
        h = gncl_target(1.0, np.full(5, 0.42))
        assert h == pytest.approx(np.full(5, 0.2))

    def test_mnce_posterior_reduces_to_gncl(self):
        outs = np.array([1.0, 0.0])
        g = np.array([0.5, 0.5])
        assert mnce_posterior(1.0, outs, g, 0.0) == pytest.approx(gncl_target(1.0, outs))

    def test_mnce_posterior_prior_weighting(self):
        outs = np.array([0.5, 0.5])
        g = np.array([0.9, 0.1])
        # equal fits: posterior follows the gate prior
        assert mnce_posterior(1.0, outs, g, 0.0) == pytest.approx(g)

    def test_mnce_penalty_grad_formula(self):
        outs = np.array([0.9, 0.4, 0.2])
        g = np.array([0.5, 0.3, 0.2])
        m = 3
        o_bar = outs.mean()
        for i in range(m):
            others = outs.sum() - outs[i] - (m - 1) * o_bar
            want = g[i] * others + g[i] * (m - 1) * (outs[i] - o_bar)
            assert mnce_penalty_grad(outs, g, i) == pytest.approx(want)

    def test_mnce_error_posterior_weighted(self):
        outs = np.array([0.6, 0.4])
        g = np.array([0.5, 0.5])
        h = mnce_posterior(1.0, outs, g, 0.0)
        err = mnce_output_error(1.0, outs, g, h, 0, 0.0)
        assert err == pytest.approx(h[0] * (1.0 - 0.6))

    def test_softmax(self):
        s = softmax(np.array([1.0, 1.0, 1.0]))
        assert s == pytest.approx(np.full(3, 1 / 3))
        big = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(big).all() and big.sum() == pytest.approx(1.0)


def flatten_net(w_hidden, w_out):
    return np.concatenate([w_hidden.ravel(), w_out.ravel()])


def unflatten_net(flat, hidden_shape, out_shape):
    cut = int(np.prod(hidden_shape))
    return flat[:cut].reshape(hidden_shape), flat[cut:].reshape(out_shape)


class TestIncrementGradients:
    """Increments must be exact gradients of their per-pattern objectives."""

    def test_expert_increments_descend_squared_error(self):
        rng = np.random.default_rng(20)
        net = init_mlp(3, 2, seed=1)
        x = rng.standard_normal(3)
        x_aug = np.append(x, 1.0)
        target = 1.0

        def loss(flat):
            wh, wo = unflatten_net(flat, net.w_hidden.shape, net.w_out.shape)
            probe = MlpNetwork(wh, wo)
            _, o = mlp_forward(probe, x)
            return 0.5 * (target - o) ** 2

        o_h, o = mlp_forward(net, x)
        inc_h, inc_out = expert_increments(net.w_out, x_aug, o_h, o, target - o)
        analytic = -flatten_net(inc_h, inc_out)
        fd = central_diff_grad(loss, flatten_net(net.w_hidden, net.w_out))
        assert np.allclose(analytic, fd, atol=1e-8)

    def test_gate_increments_descend_frozen_residual_loss(self):
        rng = np.random.default_rng(21)
        gate = init_mlp(3, 2, seed=2, n_outputs=4)
        x = rng.standard_normal(3)
        x_aug = np.append(x, 1.0)
        resid = rng.standard_normal(4) * 0.3  # frozen h - g surrogate

        def loss(flat):
            wh, wo = unflatten_net(flat, gate.w_hidden.shape, gate.w_out.shape)
            probe = MlpNetwork(wh, wo)
            _, o_sig, _ = gate_forward(probe, x)
            return -float(resid @ o_sig)

        go_h, o_sig, _ = gate_forward(gate, x)
        inc_h, inc_out = gate_increments(gate.w_out, x_aug, go_h, o_sig, resid)
        analytic = -flatten_net(inc_h, inc_out)
        fd = central_diff_grad(loss, flatten_net(gate.w_hidden, gate.w_out))
        assert np.allclose(analytic, fd, atol=1e-8)

    def test_ncl_error_is_penalized_gradient_for_two_experts(self):
        # with M = 2 the update convention equals the true derivative of
        # E = (t - O)^2 / 2 + lam * P, the partner output held fixed
        rng = np.random.default_rng(22)
        net = init_mlp(3, 2, seed=3)
        other_out = 0.35
        lam = 0.7
        x = rng.standard_normal(3)
        x_aug = np.append(x, 1.0)
        target = 0.0

        def loss(flat):
            wh, wo = unflatten_net(flat, net.w_hidden.shape, net.w_out.shape)
            _, o = mlp_forward(MlpNetwork(wh, wo), x)
            outs = np.array([o, other_out])
            return 0.5 * (target - o) ** 2 + lam * ncl_penalty(outs, 0)

        o_h, o = mlp_forward(net, x)
        outs = np.array([o, other_out])
        err = ncl_output_error(target, outs, 0, lam)
        inc_h, inc_out = expert_increments(net.w_out, x_aug, o_h, o, err)
        analytic = -flatten_net(inc_h, inc_out)
        fd = central_diff_grad(loss, flatten_net(net.w_hidden, net.w_out))
        assert np.allclose(analytic, fd, atol=1e-8)


class TestTrainers:
    def small_cfg(self, **kw):
        base = dict(n_experts=2, hidden=3, epochs=40, seed=5)
        base.update(kw)
        return TrainConfig(**base)

    def test_backprop_learns_threshold(self):
        x, y = blob_problem()
        net = train_backprop(x, y, TrainConfig(hidden=3, epochs=300, seed=1))
        outs = np.array([mlp_forward(net, row)[1] for row in x])
        assert np.mean((outs > 0.5) != y) == 0.0

    def test_ncl_lambda_zero_is_independent_backprop(self):
        x, y = blob_problem(seed=2)
        cfg = self.small_cfg()
        model = train_ncl(x, y, cfg, 0.0)
        for i, net in enumerate(model.experts):
            solo = train_backprop(
                x, y, cfg,
                init_seed=derive(cfg.seed, "expert-init", i),
                shuffle_seed=derive(cfg.seed, "shuffle"),
            )
            assert np.array_equal(net.w_hidden, solo.w_hidden)
            assert np.array_equal(net.w_out, solo.w_out)

    def test_me_is_mnce_lambda_zero(self):
        x, y = blob_problem(seed=3)
        cfg = self.small_cfg()
        me = train_me(x, y, cfg)
        mnce = train_mnce(x, y, cfg, 0.0)
        for a, b in zip(me.experts, mnce.experts):
            assert np.array_equal(a.w_hidden, b.w_hidden)
            assert np.array_equal(a.w_out, b.w_out)
        assert np.array_equal(me.gate.w_out, mnce.gate.w_out)
        assert me.variant == "me" and mnce.variant == "mnce"

    def test_gated_stage_two_leaves_experts_alone(self):
        x, y = blob_problem(seed=4)
        cfg = self.small_cfg()
        plain = train_ncl(x, y, cfg, 0.5)
        gated = train_gated_ncl(x, y, cfg, 0.5)
        for a, b in zip(plain.experts, gated.experts):
            assert np.array_equal(a.w_hidden, b.w_hidden)
            assert np.array_equal(a.w_out, b.w_out)
        assert not gated.experts[0].w_hidden.flags.writeable
        assert gated.gate is not None

    @pytest.mark.parametrize("variant,lam", [("ncl", 0.5), ("gated_ncl", 0.5), ("me", 0.0), ("mnce", 0.5)])
    def test_models_are_read_only_and_share_no_memory(self, variant, lam):
        x, y = blob_problem(seed=16)
        cfg = self.small_cfg()

        def weights(model):
            nets = model.experts + (() if model.gate is None else (model.gate,))
            return [w for net in nets for w in (net.w_hidden, net.w_out)]

        first, second = (weights(train_variant(variant, x, y, cfg, lam)) for _ in range(2))
        assert len(first) == 2 * cfg.n_experts + (0 if variant == "ncl" else 2)
        for w in first:
            assert not w.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 0.0
            assert not any(np.shares_memory(w, other) for other in second)

    def test_deterministic(self):
        x, y = blob_problem(seed=6)
        cfg = self.small_cfg()
        a = train_mnce(x, y, cfg, 0.25)
        b = train_mnce(x, y, cfg, 0.25)
        assert np.array_equal(a.experts[0].w_hidden, b.experts[0].w_hidden)
        assert np.array_equal(a.gate.w_hidden, b.gate.w_hidden)

    def test_seed_matters(self):
        x, y = blob_problem(seed=7)
        a = train_ncl(x, y, self.small_cfg(seed=1), 0.5)
        b = train_ncl(x, y, self.small_cfg(seed=2), 0.5)
        assert not np.array_equal(a.experts[0].w_hidden, b.experts[0].w_hidden)

    def test_label_validation(self):
        x, _ = blob_problem()
        with pytest.raises(ValueError, match="0/1"):
            train_ncl(x, np.full(len(x), 2.0), self.small_cfg(), 0.0)

    def test_non_finite_inputs(self):
        x, y = blob_problem()
        x = x.copy()
        x[0, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            train_me(x, y, self.small_cfg())

    def test_ensembles_learn_threshold(self):
        x, y = blob_problem(n=16, seed=8)
        cfg = TrainConfig(n_experts=2, hidden=3, epochs=200, seed=9)
        for model in (
            train_ncl(x, y, cfg, 0.5),
            train_gated_ncl(x, y, cfg, 0.5),
            train_me(x, y, cfg),
            train_mnce(x, y, cfg, 0.5),
        ):
            _, pred = predict_batch(model, x)
            assert np.mean(pred != y) <= 0.25, model.variant


def mixed_problem(n, d, seed):
    """Random rows of mixed scale with both labels present."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0, d)
    y = np.zeros(n)
    y[rng.permutation(n)[: n // 2]] = 1.0
    return x, y


# (variant, lambda): ME is the lambda = 0 mixture
VARIANT_CASES = [
    (variant, lam) for variant in ("ncl", "gated_ncl", "mnce") for lam in (0.0, 0.5, 0.75, 1.0)
] + [("me", 0.0)]

REFERENCE_TRAINERS = {
    "ncl": reference_ncl,
    "gated_ncl": reference_gated_ncl,
    "me": reference_mnce,
    "mnce": reference_mnce,
}


def train_variant(variant, x, y, cfg, lam):
    if variant == "me":
        return train_me(x, y, cfg)
    return TRAINERS[variant](x, y, cfg, lam)


class TestStackedEngineMatchesReference:
    """The stacked trainers equal the one-expert-at-a-time loops bitwise."""

    @pytest.mark.parametrize("variant,lam", VARIANT_CASES)
    # M = 9 sums over experts in numpy's pairwise order (8 terms and up)
    @pytest.mark.parametrize(
        "m,hid,d,n",
        [
            (2, 1, 171, 9), (2, 4, 5, 7), (4, 1, 3, 11), (4, 4, 171, 13),
            (4, 5, 6, 8), (9, 5, 171, 10), (9, 2, 4, 12),
        ],
    )
    def test_weights_bitwise(self, variant, lam, m, hid, d, n):
        x, y = mixed_problem(n, d, seed=100 * m + 10 * hid + n)
        cfg = TrainConfig(n_experts=m, hidden=hid, epochs=4, seed=d + n)
        model = train_variant(variant, x, y, cfg, lam)
        nets, gate = REFERENCE_TRAINERS[variant](x, y, cfg, lam)
        assert len(model.experts) == m
        for got, want in zip(model.experts, nets):
            assert np.array_equal(got.w_hidden, want.w_hidden)
            assert np.array_equal(got.w_out, want.w_out)
        if gate is None:
            assert model.gate is None
        else:
            assert np.array_equal(model.gate.w_hidden, gate.w_hidden)
            assert np.array_equal(model.gate.w_out, gate.w_out)

    @pytest.mark.parametrize("m,hid,lam", [(3, 5, 0.75), (9, 3, 0.5)])
    def test_gated_ncl_gate_stage_bitwise(self, m, hid, lam):
        # six epochs of gate-only steps at their own rate; stage two leaves
        # the experts as NCL trained them
        x, y = mixed_problem(14, 23, seed=m + hid)
        cfg = TrainConfig(n_experts=m, hidden=hid, epochs=6, eta_experts=0.3, eta_gate=0.7, seed=m)
        model = train_gated_ncl(x, y, cfg, lam)
        nets, gate = reference_gated_ncl(x, y, cfg, lam)
        assert np.array_equal(model.gate.w_hidden, gate.w_hidden)
        assert np.array_equal(model.gate.w_out, gate.w_out)
        for got, want in zip(model.experts, train_ncl(x, y, cfg, lam).experts):
            assert np.array_equal(got.w_hidden, want.w_hidden)
            assert np.array_equal(got.w_out, want.w_out)

    @pytest.mark.parametrize("variant,lam", VARIANT_CASES)
    def test_predict_batch_matches_per_row_output(self, variant, lam):
        x, y = mixed_problem(11, 37, seed=3)
        model = train_variant(variant, x, y, TrainConfig(n_experts=4, hidden=3, epochs=3, seed=8), lam)
        probe = mixed_problem(17, 37, seed=4)[0]
        outputs, labels = predict_batch(model, probe)
        per_row = np.array([ensemble_output(model, row) for row in probe])
        assert np.array_equal(outputs, per_row)
        assert np.array_equal(labels, (per_row > 0.5).astype(np.int64))

    def test_predict_batch_rejects_non_finite(self):
        x, y = blob_problem(seed=18)
        model = train_ncl(x, y, TrainConfig(n_experts=2, hidden=2, epochs=2, seed=19), 0.5)
        probe = x.copy()
        probe[3, 0] = np.inf
        with pytest.raises(DataFormatError, match="non-finite"):
            predict_batch(model, probe)


class TestPythonFloatSignals:
    """The step's expert-sized arithmetic on Python floats equals the numpy
    single-pattern helpers bitwise, one random pattern at a time. A last-bit
    slip (a libm square or exp, a left-to-right sum at M >= 8) shows in
    only a few patterns in a thousand, hence the pattern counts."""

    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_ncl_errors(self, m):
        rng = np.random.default_rng(m)
        for trial in range(2000):
            o, t, lam = rng.random(m), float(trial % 2), (0.0, 0.5, 0.75, 1.0)[trial % 4]
            want = [ncl_output_error(t, o, i, lam) for i in range(m)]
            assert ensembles._ncl_errors(t, o.tolist(), lam) == want, trial

    @pytest.mark.parametrize("m,patterns", [(2, 4000), (4, 4000), (9, 8000)])
    def test_mixture_signals(self, m, patterns):
        rng = np.random.default_rng(m)
        for trial in range(patterns):
            o, osig = rng.random(m), rng.random(m)
            t, lam = float(trial % 2), (0.0, 0.5, 0.75, 1.0)[trial % 4]
            g_ref = softmax(osig)
            h_ref = mnce_posterior(t, o, g_ref, lam)
            err_ref = [mnce_output_error(t, o, g_ref, h_ref, i, lam) for i in range(m)]
            g, h, err = ensembles._mixture_signals(t, o.tolist(), osig.tolist(), lam)
            assert (g, h, err) == (g_ref.tolist(), h_ref.tolist(), err_ref), trial

    @pytest.mark.parametrize("m,hid", [(2, 1), (4, 4), (9, 5)])
    def test_gate_backprop(self, m, hid):
        rng = np.random.default_rng(10 * m + hid)
        x_aug = np.append(rng.standard_normal(6), 1.0)
        for trial in range(200):
            w_out = rng.uniform(-2.0, 2.0, (m, hid + 1))
            o_h, o_sig, resid = rng.random(hid), rng.random(m), rng.uniform(-1.0, 1.0, m)
            inc_h, inc_out = gate_increments(w_out, x_aug, o_h, o_sig, resid)
            d_hid, rows = ensembles._gate_backprop(
                w_out[:, :hid], o_h.tolist(), o_sig.tolist(), resid.tolist(), 0.1
            )
            assert np.array_equal(np.outer(d_hid, x_aug), inc_h), trial
            assert rows == (0.1 * inc_out).ravel().tolist(), trial


def diverging_problem():
    """Rows near 1e306 between ordinary ones: after a step on an ordinary
    row with a large learning rate, the products on the huge rows
    overflow and the weights turn non-finite."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 4))
    x[::2] *= 1e306
    return x, np.tile([0.0, 1.0], 5)


class TestDivergence:
    @pytest.mark.parametrize("variant", ["ncl", "gated_ncl", "mnce"])
    def test_non_finite_weights_name_the_epoch(self, variant):
        x, y = diverging_problem()
        cfg = TrainConfig(n_experts=2, hidden=2, epochs=3, eta_experts=1e6, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite weights after epoch 0"):
                train_variant(variant, x, y, cfg, 0.5)

    def test_gate_stage_divergence_names_the_epoch(self):
        # only the gate's rate is huge: NCL's stage one completes, and the
        # gate-only stage two is the one that turns non-finite
        x, y = diverging_problem()
        cfg = TrainConfig(n_experts=2, hidden=2, epochs=3, eta_gate=1e50, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            train_ncl(x, y, cfg, 0.5)
            with pytest.raises(NumericError, match="non-finite weights after epoch 0"):
                train_gated_ncl(x, y, cfg, 0.5)

    def test_vanishing_posterior_is_a_numeric_error(self):
        # a huge lambda underflows every expert's posterior weight: h is
        # 0/0 = nan as numpy divides it, and the weights turn non-finite
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((8, 3)), np.tile([0.0, 1.0], 4)
        cfg = TrainConfig(n_experts=3, hidden=2, epochs=2, seed=1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(NumericError, match="non-finite weights after epoch 0"):
                train_mnce(x, y, cfg, 1e6)


class TestPrediction:
    def test_ncl_output_is_mean(self):
        x, y = blob_problem(seed=10)
        model = train_ncl(x, y, TrainConfig(n_experts=3, hidden=2, epochs=5, seed=11), 0.0)
        point = x[0]
        outs = [mlp_forward(net, point)[1] for net in model.experts]
        assert ensemble_output(model, point) == pytest.approx(np.mean(outs))

    def test_gated_output_is_weighted(self):
        x, y = blob_problem(seed=12)
        model = train_mnce(x, y, TrainConfig(n_experts=3, hidden=2, epochs=5, seed=13), 0.5)
        point = x[0]
        outs = np.array([mlp_forward(net, point)[1] for net in model.experts])
        _, _, g = gate_forward(model.gate, point)
        assert ensemble_output(model, point) == pytest.approx(float(outs @ g))

    def test_variant_gate_consistency_enforced(self):
        x, y = blob_problem(seed=14)
        model = train_ncl(x, y, TrainConfig(n_experts=2, hidden=2, epochs=2, seed=15), 0.0)
        with pytest.raises(ValueError, match="gate"):
            EnsembleModel("mnce", model.experts, None, model.config)
