"""Release gates: one test per gated property, run in order.

Each gate prints a single PASS/FAIL line on the real stdout (pytest
captures ordinary prints) and asserts its own runtime budget. The
synthetic-protocol thresholds were frozen from nearest-centroid oracle
sweeps; the generator settings below reproduce those runs exactly.
"""

import contextlib
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import rootgrowth
from rootgrowth import svm
from rootgrowth.cli import RunConfig
from rootgrowth.dataset import Dataset, SyntheticConfig, generate_synthetic
from rootgrowth.ensembles import (
    MlpNetwork,
    TrainConfig,
    gncl_target,
    init_mlp,
    train_me,
    train_mnce,
    train_ncl,
)
from rootgrowth.evaluation import (
    KIND_LABELS,
    TABLE_ORDER,
    ClassifierSpec,
    dataset_scores,
    fit_fold_pca,
    kfold_split,
    window_search,
)
from rootgrowth.features import (
    FeatureLayout,
    WindowSpec,
    acceleration,
    assemble,
    slice_features,
    velocity,
    window_slices,
)
from rootgrowth.pca import fit as pca_fit
from rootgrowth.pca import transform
from rootgrowth.seeding import derive
from rootgrowth.svm import KernelSpec, default_sigmoid_a, gram_matrix, resolve, train_smo

from oracles import (
    acceleration_loops,
    central_diff_grad,
    dual_value,
    expert_increments,
    gate_forward,
    gate_increments,
    jacobi_eigh,
    mlp_forward,
    mnce_output_error,
    mnce_penalty_grad,
    mnce_posterior,
    ncl_output_error,
    nearest_centroid_cv_error,
    qp_max_dual,
    reconstruct,
    train_backprop,
    velocity_loops,
    windows_loops,
)

_ELAPSED: dict[int, float] = {}


@contextlib.contextmanager
def _gate(capsys, num: int, name: str, budget: float):
    # status lines bypass capture so every run shows one line per gate
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        _ELAPSED[num] = elapsed
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"
    except BaseException:
        with capsys.disabled():
            print(f"\ngate {num} ({name}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\ngate {num} ({name}): PASS ({elapsed:.1f}s)", flush=True)


def _flat(w_hidden, w_out):
    return np.concatenate([w_hidden.ravel(), w_out.ravel()])


def _unflat(flat, hidden_shape, out_shape):
    cut = int(np.prod(hidden_shape))
    return flat[:cut].reshape(hidden_shape), flat[cut:].reshape(out_shape)


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / scale


def _slice_dataset(ds: Dataset, start: int, end: int) -> Dataset:
    return replace(ds, frames=ds.frames[:, start : end + 1].copy())


def test_gate_1_single_step_deltas_match_finite_differences(capsys):
    # every trainer family: the analytic weight delta of one pattern
    # step equals -eta times the central-difference gradient of the
    # step's objective, the ensemble context (other outputs, softmax
    # weights, posterior, penalty slope) frozen at the base point as
    # the update rules define it
    rng = np.random.default_rng(11)
    with _gate(capsys, 1, "gradient fidelity", 10.0):
        worst = 0.0
        checks = 0
        for _ in range(6):
            d = int(rng.integers(2, 6))
            hid = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            lam = float(rng.uniform(0.0, 1.0))
            target = float(rng.integers(0, 2))
            eta = float(rng.uniform(0.05, 0.5))
            x = rng.standard_normal(d) * 1.5
            x_aug = np.append(x, 1.0)
            nets = [init_mlp(d, hid, seed=int(rng.integers(1 << 30))) for _ in range(m)]
            gate = init_mlp(d, hid, seed=int(rng.integers(1 << 30)), n_outputs=m)
            for net in nets + [gate]:
                net.w_hidden *= rng.uniform(0.5, 2.0)
                net.w_out *= rng.uniform(0.5, 2.0)

            states = [mlp_forward(net, x) for net in nets]
            outs = np.array([o for _, o in states])
            go_h, o_sig, g = gate_forward(gate, x)
            i = int(rng.integers(0, m))
            net = nets[i]
            base = _flat(net.w_hidden, net.w_out)
            gate_base = _flat(gate.w_hidden, gate.w_out)

            def probe_out(flat):
                wh, wo = _unflat(flat, net.w_hidden.shape, net.w_out.shape)
                return mlp_forward(MlpNetwork(wh, wo), x)[1]

            def probe_sig(flat):
                wh, wo = _unflat(flat, gate.w_hidden.shape, gate.w_out.shape)
                return gate_forward(MlpNetwork(wh, wo), x)[1]

            def check(delta, objective, at):
                nonlocal worst, checks
                fd = central_diff_grad(objective, at)
                worst = max(worst, _rel_gap(delta, -eta * fd))
                checks += 1

            # negatively correlated expert; penalty slope frozen
            slope = float(np.delete(outs - outs.mean(), i).sum())
            err = ncl_output_error(target, outs, i, lam)
            inc = expert_increments(net.w_out, x_aug, states[i][0], outs[i], err)
            check(
                eta * _flat(*inc),
                lambda w: 0.5 * (target - probe_out(w)) ** 2 + lam * slope * probe_out(w),
                base,
            )

            # gate stepping toward the expertise shares; residual frozen
            resid = gncl_target(target, outs) - g
            inc = gate_increments(gate.w_out, x_aug, go_h, o_sig, resid)
            check(eta * _flat(*inc), lambda w: -float(resid @ probe_sig(w)), gate_base)

            # mixture expert; posterior and penalty slope frozen
            h = mnce_posterior(target, outs, g, lam)
            dp = mnce_penalty_grad(outs, g, i)
            err = mnce_output_error(target, outs, g, h, i, lam)
            inc = expert_increments(net.w_out, x_aug, states[i][0], outs[i], err)
            check(
                eta * _flat(*inc),
                lambda w: h[i] * (0.5 * (target - probe_out(w)) ** 2 + lam * dp * probe_out(w)),
                base,
            )

            # mixture gate stepping toward the posterior; residual frozen
            resid = h - g
            inc = gate_increments(gate.w_out, x_aug, go_h, o_sig, resid)
            check(eta * _flat(*inc), lambda w: -float(resid @ probe_sig(w)), gate_base)

        assert checks >= 20, f"only {checks} configurations checked"
        assert worst < 1e-4, f"worst relative gap {worst:.2e}"


def test_gate_2_reduction_identities_are_bitwise(capsys):
    # 10 samples x 10 epochs = 100 pattern steps per trainer
    with _gate(capsys, 2, "reduction identities", 5.0):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 3))
        x[:5] -= 1.0
        x[5:] += 1.0
        y = np.repeat([0.0, 1.0], 5)
        cfg = TrainConfig(n_experts=3, hidden=4, epochs=10, seed=42)

        mixture = train_mnce(x, y, cfg, 0.0)
        plain_me = train_me(x, y, cfg)
        for a, b in zip(mixture.experts, plain_me.experts):
            assert np.array_equal(a.w_hidden, b.w_hidden)
            assert np.array_equal(a.w_out, b.w_out)
        assert np.array_equal(mixture.gate.w_hidden, plain_me.gate.w_hidden)
        assert np.array_equal(mixture.gate.w_out, plain_me.gate.w_out)

        ensemble = train_ncl(x, y, cfg, 0.0)
        for i, net in enumerate(ensemble.experts):
            solo = train_backprop(
                x, y, cfg,
                init_seed=derive(cfg.seed, "expert-init", i),
                shuffle_seed=derive(cfg.seed, "shuffle"),
            )
            assert np.array_equal(net.w_hidden, solo.w_hidden)
            assert np.array_equal(net.w_out, solo.w_out)


def test_gate_3_smo_agrees_with_projected_gradient_oracle(capsys):
    with _gate(capsys, 3, "dual oracle equivalence", 60.0):
        rng = np.random.default_rng(33)
        worst_gap = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 5))
            x = rng.standard_normal((n, d)) * float(rng.uniform(0.7, 1.8))
            y = np.ones(n)
            y[: int(rng.integers(1, n))] = -1.0
            rng.shuffle(y)
            c = float(rng.choice((0.5, 1.0, 2.0)))
            if trial % 2 == 0:
                kernel = KernelSpec("linear")
            else:
                kernel = KernelSpec("gaussian", sigma=float(rng.uniform(0.8, 2.5)))

            rng.integers(1 << 30)  # was the solver seed; drawn so later trials keep their problems
            model = train_smo(x, y, kernel, c=c, tol=1e-3)
            assert model.kkt_residual <= 1e-3, f"trial {trial}: kkt {model.kkt_residual:.2e}"

            k_sv = gram_matrix(model.kernel, model.support_vectors)
            w_smo = float(np.abs(model.coef).sum() - 0.5 * model.coef @ k_sv @ model.coef)
            k_full = gram_matrix(resolve(kernel, x), x)
            w_oracle = dual_value(qp_max_dual(k_full, y, c, steps=20000), y, k_full)
            worst_gap = max(worst_gap, abs(w_smo - w_oracle))
        assert worst_gap <= 1e-3, f"worst objective gap {worst_gap:.2e}"


def test_gate_4_kernel_properties(capsys):
    with _gate(capsys, 4, "kernel properties", 10.0):
        rng = np.random.default_rng(44)
        min_eig = np.inf
        for _ in range(100):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 6))
            x = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 2.0))
            gaussian = gram_matrix(
                KernelSpec("gaussian", sigma=float(rng.uniform(0.3, 3.0))), x
            )
            min_eig = min(min_eig, float(np.linalg.eigvalsh(gaussian).min()))
            sigmoid = gram_matrix(
                KernelSpec("sigmoid", a=float(rng.uniform(0.05, 1.0)), b=float(rng.uniform(-1.0, 1.0))),
                x,
            )
            assert np.array_equal(sigmoid, sigmoid.T)
        assert min_eig >= -1e-8, f"smallest Gram eigenvalue {min_eig:.2e}"
        for d in (1, 2, 4, 8, 30):
            assert default_sigmoid_a(d) == 1.0 / d
        filled = resolve(KernelSpec("sigmoid"), rng.standard_normal((3, 8)))
        assert filled.a == 1.0 / 8.0


def test_gate_5_pca_properties(capsys):
    with _gate(capsys, 5, "pca properties", 10.0):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(8, 30))
            d = int(rng.integers(2, 7))
            x = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0, d) + rng.standard_normal(d)
            k_max = min(n - 1, d)
            model = pca_fit(x, k_max)
            identity_gap = np.abs(model.components @ model.components.T - np.eye(k_max)).max()
            assert identity_gap <= 1e-8

            cov = np.cov(x, rowvar=False, ddof=1)
            evals, _ = jacobi_eigh(np.atleast_2d(cov))
            assert np.max(np.abs(model.eigenvalues - evals[:k_max])) <= 1e-8

            previous = np.inf
            for k in range(1, k_max + 1):
                mk = pca_fit(x, k)
                err = float(np.sum((x - reconstruct(mk, transform(mk, x))) ** 2))
                assert err <= previous + 1e-9, f"k={k}: {err:.6g} after {previous:.6g}"
                previous = err


def test_gate_6_feature_pipeline_identities(capsys):
    with _gate(capsys, 6, "feature pipeline", 5.0):
        rng = np.random.default_rng(66)
        for _ in range(1000):
            t = int(rng.integers(3, 24))
            k = int(rng.integers(1, 5))
            z = rng.standard_normal((t, k))
            vel = velocity(z)
            assert np.array_equal(vel, velocity_loops(z))
            assert np.array_equal(acceleration(vel), acceleration_loops(z))

        for _ in range(20):
            t = int(rng.integers(5, 30))
            k = int(rng.integers(1, 4))
            scores = rng.standard_normal((4, t, k))
            x, layout = assemble(scores), FeatureLayout(t, k)
            assert np.array_equal(slice_features(x, layout, (0, t - 1)), x)
            start = int(rng.integers(0, t - 2))
            end = start + int(rng.integers(3, t - start + 1)) - 1
            window = slice_features(x, layout, (start, end))
            direct = assemble(scores[:, start : end + 1])
            assert np.array_equal(window, direct)
            assert window.shape == (4, len(FeatureLayout(end - start + 1, k).column_names()))

        for _ in range(50):
            t = int(rng.integers(3, 400))
            length = int(rng.integers(1, t + 1))
            stride = int(rng.integers(1, 12))
            wins = window_slices(t, WindowSpec(length, stride))
            assert len(wins) == (t - length) // stride + 1
            assert wins == windows_loops(t, length, stride)


def test_gate_7_end_to_end_synthetic_protocol(capsys, monkeypatch):
    with _gate(capsys, 7, "synthetic protocol", 600.0):
        # difficulty probe: the default generator must land the
        # nearest-centroid baseline between 10% and 20% error on one
        # 40-frame window under the fold-wise projection protocol
        ds = _slice_dataset(generate_synthetic(SyntheticConfig()), 130, 169)
        labels = ds.labels
        folds = kfold_split(ds.n_samples, 5, labels, 0)
        fold_errors = []
        for test_idx in folds:
            train_idx = np.setdiff1d(np.arange(ds.n_samples), test_idx)
            x = assemble(dataset_scores(ds, fit_fold_pca(ds, train_idx, 3)))
            fold_errors.append(nearest_centroid_cv_error(x, labels, [test_idx]))
        oracle = float(np.mean(fold_errors))
        assert 0.10 <= oracle <= 0.20, f"noise miscalibrated: baseline at {oracle:.3f}"

        # (a) all seven classifiers beat the 0.5 chance level there
        result = window_search(ds, ClassifierSpec(TABLE_ORDER), WindowSpec(40, 1), 5, 0, n_components=3)
        for kind in TABLE_ORDER:
            _, err = result.best[KIND_LABELS[kind]]
            assert err < 0.5, f"{KIND_LABELS[kind]} at chance ({err:.3f})"

        # (b) a signal confined to frames 50..89 is found by the
        # stride-25 window grid, strictly ahead of every other window
        localized = SyntheticConfig(
            velocity_gap=0.0, acceleration_gap=0.0,
            signal_window=(50, 89), signal_gap=0.3,
        )
        search = window_search(
            generate_synthetic(localized), ClassifierSpec(("linear_svm",)),
            WindowSpec(40, 25), 5, 0, n_components=3,
        )
        best_window, best_err = search.best["Linear-SVM"]
        assert best_window == (50, 89), f"best window {best_window}"
        runner_up = min(
            r.errors["Linear-SVM"] for r in search.windows if r.window != (50, 89)
        )
        assert best_err < runner_up

        # (c) when the classes differ in velocity dynamics and a
        # per-sample intercept hides absolute position, the velocity
        # and acceleration blocks must reduce the linear SVM's error
        # on a majority of seeds; a failure names each seed's two best
        # errors and, for each search, how many fits ended unconverged
        # and the largest final KKT residual among its fits
        residuals = []

        def recording_train_smo(*args, **kwargs):
            model = train_smo(*args, **kwargs)
            residuals.append(model.kkt_residual)
            return model

        monkeypatch.setattr(svm, "train_smo", recording_train_smo)

        def search(ds, seed, **blocks):
            residuals.clear()
            result = window_search(
                ds, ClassifierSpec(("linear_svm",)), WindowSpec(40, 1), 5, seed,
                n_components=3, **blocks,
            )
            fits = 5 * len(result.windows)
            assert len(residuals) == fits
            return result, f"{result.unconverged}/{fits} (largest residual {max(residuals):.3g})"

        wins = 0
        per_seed = []
        for seed in range(5):
            jitter = SyntheticConfig(
                base_velocity=0.02, velocity_gap=0.002, acceleration_gap=0.0,
                ripple_gap=0.1, noise_sd=0.02, intercept_sd=3.0, seed=seed,
            )
            ds_j = _slice_dataset(generate_synthetic(jitter), 130, 169)
            scores_only, plain_fits = search(ds_j, seed, include_velocity=False, include_acceleration=False)
            augmented, augmented_fits = search(ds_j, seed)
            plain_err = scores_only.best["Linear-SVM"][1]
            augmented_err = augmented.best["Linear-SVM"][1]
            wins += augmented_err < plain_err
            per_seed.append(
                f"seed {seed}: error {plain_err:.4f} scores only, {augmented_err:.4f} with velocity;"
                f" unconverged fits {plain_fits} and {augmented_fits}"
            )
        assert wins >= 3, f"velocity features won only {wins}/5 seeds: " + " | ".join(per_seed)
        with capsys.disabled():
            print(f"\ngate 7(c): PASS, velocity features won {wins}/5 seeds", *per_seed, sep="\n  ", flush=True)


def test_gate_8_protocol_defaults(capsys):
    with _gate(capsys, 8, "protocol defaults", 1.0):
        run = RunConfig()
        assert run.folds == 5
        assert run.window_length == 40
        assert run.hidden == 4
        assert run.eta_experts == 0.15
        assert run.eta_gate == 0.1
        train = TrainConfig()
        assert train.hidden == 4
        assert train.eta_experts == 0.15
        assert train.eta_gate == 0.1
        assert WindowSpec().length == 40


_RUN_CONFIG = """\
dataset = synthetic
synthetic_n_per_class = 5
synthetic_n_frames = 24
synthetic_n_coords = 3
synthetic_base_velocity = 0.02
synthetic_velocity_gap = 0.02
synthetic_noise_sd = 0.05
pca_components = 2
window_length = 8
window_stride = 8
folds = 2
epochs = 5
seed = 3
"""


def test_gate_9_cli_runs_are_byte_identical(capsys):
    budget = 2.0 * _ELAPSED.get(7, 600.0)
    with _gate(capsys, 9, "run determinism", budget):
        # the child runs in a temporary cwd, where a relative PYTHONPATH
        # resolves to nothing: hand it the absolute directory holding
        # the package this process imported, so the CLI under test is
        # the tree under test
        package = Path(rootgrowth.__file__).resolve()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(package.parent.parent), env.get("PYTHONPATH")) if p
        )
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "run.cfg"
            config.write_text(_RUN_CONFIG)

            def child(*args: str) -> subprocess.CompletedProcess:
                proc = subprocess.run(
                    [sys.executable, *args],
                    cwd=tmp, env=env, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
                return proc

            imported = child("-c", "import rootgrowth; print(rootgrowth.__file__)")
            child_package = Path(imported.stdout.strip()).resolve()
            assert child_package == package, f"child imports {child_package}, not {package}"

            def run(out: str, *extra: str) -> None:
                child("-m", "rootgrowth", "run", "--config", str(config), "--out", out, *extra)

            run("a")
            run("b")
            run("c", "--jobs", "2")
            for name in ("results.json", "results.csv", "table.txt"):
                first = (Path(tmp) / "a" / name).read_bytes()
                assert first == (Path(tmp) / "b" / name).read_bytes(), f"{name} differs on rerun"
                assert first == (Path(tmp) / "c" / name).read_bytes(), f"{name} differs under --jobs 2"
