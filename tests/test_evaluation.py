"""Folds, classifiers, window search, and leakage checks."""

import concurrent.futures
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from oracles import window_search_reference

from rootgrowth import ensembles, evaluation, pca, svm
from rootgrowth.dataset import LABELS, SyntheticConfig, Dataset, generate_synthetic
from rootgrowth.ensembles import TrainConfig
from rootgrowth.errors import ConfigError, DataFormatError, NumericError
from rootgrowth.evaluation import (
    KIND_LABELS,
    TABLE_ORDER,
    ClassifierSpec,
    dataset_scores,
    error_rate,
    fit_classifier,
    fit_fold_pca,
    format_error_rate,
    kfold_split,
    predict_labels,
    window_search,
)
from rootgrowth.features import WindowSpec, assemble
from rootgrowth.seeding import derive


def separable_features(n=20, d=4, seed=0, gap=6.0):
    """Two well-separated Gaussian blobs with unit labels."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [rng.standard_normal((half, d)), rng.standard_normal((n - half, d)) + gap]
    )
    y = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    return x, y


class TestKfold:
    def test_balanced_ten_by_five(self):
        labels = np.array([0, 1] * 5)
        folds = kfold_split(10, 5, labels, seed=0)
        assert sorted(np.concatenate(folds).tolist()) == list(range(10))
        for fold in folds:
            assert len(fold) == 2
            assert sorted(labels[fold].tolist()) == [0, 1]  # one of each class

    def test_seven_by_five_sizes(self):
        labels = np.zeros(7)
        folds = kfold_split(7, 5, labels, seed=1)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [1, 1, 1, 2, 2]
        assert sorted(np.concatenate(folds).tolist()) == list(range(7))

    def test_small_class_rejected(self):
        labels = np.array([0] * 8 + [1] * 2)
        with pytest.raises(DataFormatError, match="too few"):
            kfold_split(10, 5, labels, seed=0)

    def test_deterministic_and_seed_sensitive(self):
        labels = np.array([0, 1] * 10)
        a = kfold_split(20, 5, labels, seed=3)
        b = kfold_split(20, 5, labels, seed=3)
        c = kfold_split(20, 5, labels, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="k >= 2"):
            kfold_split(10, 1, np.zeros(10), seed=0)
        with pytest.raises(ValueError, match="cannot make"):
            kfold_split(3, 5, np.zeros(3), seed=0)


class TestErrorRate:
    def test_basic(self):
        assert error_rate(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_rate(np.array([]), np.array([]))

    def test_format(self):
        assert format_error_rate(0.125) == "%12.50"
        assert format_error_rate(0.0) == "%0.00"
        assert format_error_rate(0.2523) == "%25.23"


class TestClassifierSpec:
    def test_labels_cover_table_order(self):
        assert len(TABLE_ORDER) == 7
        for kind in TABLE_ORDER:
            assert ClassifierSpec(kind).label == KIND_LABELS[kind]

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown"):
            ClassifierSpec("forest")
        with pytest.raises(ConfigError, match="C must"):
            ClassifierSpec("linear_svm", c=0.0)
        with pytest.raises(ConfigError, match="lambda"):
            ClassifierSpec("ncl", lam=-1.0)


class TestFitClassifier:
    def test_svm_separates(self):
        x, y = separable_features()
        model = fit_classifier(ClassifierSpec("linear_svm"), x, y, seed=0)
        assert isinstance(model, svm.SvmModel)
        assert np.array_equal(predict_labels(model, x), y)

    def test_ensemble_seed_threads_through(self):
        x, y = separable_features(n=8, d=2)
        spec = ClassifierSpec("ncl", train=TrainConfig(n_experts=2, hidden=2, epochs=3))
        model = fit_classifier(spec, x, y, seed=123)
        assert isinstance(model, ensembles.EnsembleModel)
        assert model.config.seed == 123

    @pytest.mark.parametrize(
        "spec,kernel",
        [
            (ClassifierSpec("linear_svm"), svm.KernelSpec("linear")),
            (ClassifierSpec("gaussian_svm", sigma=2.5), svm.KernelSpec("gaussian", sigma=2.5)),
            (ClassifierSpec("sigmoid_svm", a=0.3, b=-0.2), svm.KernelSpec("sigmoid", a=0.3, b=-0.2)),
        ],
        ids=["linear", "gaussian", "sigmoid"],
    )
    def test_builds_only_the_named_kernel(self, monkeypatch, spec, kernel):
        built = []
        make = svm.KernelSpec

        def recorded(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(svm, "KernelSpec", recorded)
        x, y = separable_features()
        model = fit_classifier(spec, x, y, seed=0)
        assert built == [kernel]
        assert model.kernel.kind == kernel.kind

    def test_all_kinds_produce_unit_predictions(self):
        x, y = separable_features(n=10, d=2)
        train = TrainConfig(n_experts=2, hidden=2, epochs=5)
        for kind in TABLE_ORDER:
            model = fit_classifier(ClassifierSpec(kind, train=train), x, y, seed=1)
            preds = predict_labels(model, x)
            assert set(np.unique(preds)).issubset({0, 1}), kind


def four_and_four(frames):
    """Samples s0..s7 from a list of eight (T, d) arrays: four wild, then four mutated."""
    labels = [0] * 4 + [1] * 4
    return Dataset(np.stack(frames), [f"s{i}" for i in range(8)], [LABELS[c] for c in labels], labels)


def toy_dataset(signal=False, n_per_class=4, t=12, seed=0):
    cfg = SyntheticConfig(
        n_per_class=n_per_class,
        n_frames=t,
        n_coords=3,
        base_velocity=0.0,
        velocity_gap=0.0 if signal else 0.05,
        noise_sd=0.01,
        signal_window=(6, 10) if signal else None,
        signal_gap=0.5 if signal else 0.0,
        seed=seed,
    )
    return generate_synthetic(cfg)


class TestWindowSearch:
    def run_search(self, ds, n_jobs=1, stride=3):
        specs = [ClassifierSpec("linear_svm")]
        return window_search(
            ds, specs, WindowSpec(5, stride), k_folds=2, seed=0,
            n_components=2, n_jobs=n_jobs,
        )

    def test_window_grid_covered(self):
        res = self.run_search(toy_dataset())
        assert [r.window for r in res.windows] == [(0, 4), (3, 7), (6, 10)]
        for r in res.windows:
            assert set(r.errors) == {"Linear-SVM"}

    def test_localized_signal_found(self):
        # stride 6 makes the off-signal window share no frames with the bump
        res = self.run_search(toy_dataset(signal=True), stride=6)
        assert [r.window for r in res.windows] == [(0, 4), (6, 10)]
        window, err = res.best["Linear-SVM"]
        assert window == (6, 10)
        assert err < res.windows[0].errors["Linear-SVM"]

    def test_parallel_equals_serial(self):
        ds = toy_dataset(seed=1)
        serial = self.run_search(ds, n_jobs=1)
        parallel = self.run_search(ds, n_jobs=2)
        assert serial == parallel

    def test_pool_has_at_most_one_worker_per_unit(self, monkeypatch):
        # the fake pool records its size and maps in this process, so no
        # worker starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                evaluation._WORKER_CTX.clear()

            def map(self, fn, items):
                return map(fn, items)

        # window_search imports the pool class when it runs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        ds = toy_dataset(seed=1)
        # stride 6 gives windows (0, 4) and (6, 10); stride 8 only (0, 4);
        # each window runs once per fold, and there are two folds
        for stride, pools in ((6, [4]), (8, [2])):
            sizes.clear()
            serial = self.run_search(ds, n_jobs=1, stride=stride)
            assert self.run_search(ds, n_jobs=8, stride=stride) == serial
            assert sizes == pools, stride

    def test_tie_breaks_to_earliest_window(self):
        # zero error everywhere on a trivially separable dataset
        ds = toy_dataset(seed=2)
        res = self.run_search(ds)
        window, err = res.best["Linear-SVM"]
        assert err == 0.0
        assert window == (0, 4)

    def test_duplicate_labels_rejected(self):
        ds = toy_dataset()
        specs = [ClassifierSpec("ncl"), ClassifierSpec("ncl")]
        with pytest.raises(ConfigError, match="duplicate"):
            window_search(ds, specs, WindowSpec(5, 3), 2, 0, n_components=2)

    def test_error_names_window_and_fold(self):
        ds = toy_dataset()
        bad = ClassifierSpec("ncl", train=TrainConfig(n_experts=2, hidden=2, epochs=1))
        object.__setattr__(bad, "lam", np.nan)  # sneak past spec validation
        with pytest.raises(ValueError, match=r"window \(0, 4\), fold 0"):
            window_search(ds, [bad], WindowSpec(5, 6), 2, 0, n_components=2)


    def test_one_trainer_call_per_ensemble_fit(self, monkeypatch):
        # the traced benchmark counts one ensembles.train span per fit,
        # wrapped around these same entry points
        calls = {kind: 0 for kind in ensembles.VARIANTS}

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)

            return wrapper

        for kind, fn in list(ensembles.TRAINERS.items()):
            monkeypatch.setitem(ensembles.TRAINERS, kind, counted(kind, fn))
        monkeypatch.setattr(ensembles, "train_me", counted("me", ensembles.train_me))
        train = TrainConfig(n_experts=2, hidden=2, epochs=1)
        specs = [ClassifierSpec(kind, train=train) for kind in ensembles.VARIANTS]
        res = window_search(toy_dataset(), specs, WindowSpec(5, 3), 2, 0, n_components=2)
        assert len(res.windows) == 3
        assert calls == {kind: 3 * 2 for kind in ensembles.VARIANTS}

    def test_diverging_fit_names_window_and_fold(self):
        # samples near 1e135 whose frames sum to zero leave the other
        # samples' scores ordinary after fold centering, and are small
        # enough for the fold PCA's variances to stay finite; a step on
        # an ordinary row with a huge learning rate then overflows the
        # products on the huge rows
        rng = np.random.default_rng(2)
        big = np.array([[1.0, 2.0], [-1.0, -2.0], [3.0, 1.0], [-3.0, -1.0], [0.0, 0.0]]) * 2.0**450
        frames = [big * (1 + i % 3) if i % 2 == 0 else rng.standard_normal((5, 2)) for i in range(8)]
        spec = ClassifierSpec("ncl", train=TrainConfig(n_experts=2, hidden=2, epochs=2, eta_experts=1e250))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"window \(0, 4\), fold 0: non-finite weights after epoch 0"):
                window_search(four_and_four(frames), [spec], WindowSpec(5, 1), 2, 0, n_components=1)


    def test_fold_pca_error_names_the_fold(self):
        # one sample scaled by 2^1016: the squared singular values of the
        # PCA of the fold that trains on it overflow
        ds = toy_dataset()
        frames = ds.frames.copy()
        frames[0] *= 2.0**1016
        ds = replace(ds, frames=frames)
        folds = kfold_split(ds.n_samples, 2, ds.labels, 0)
        fold = next(k for k, test_idx in enumerate(folds) if 0 not in test_idx)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=rf"^fold {fold}: PCA variances overflow"):
                window_search(
                    ds, [ClassifierSpec("linear_svm")], WindowSpec(5, 6), 2, 0, n_components=2
                )


class TestFoldProjection:
    """The fold fit and the scores against their one-array forms."""

    @staticmethod
    def dataset(case):
        if case == "csv-pairings":
            cfg, k = SyntheticConfig(n_per_class=10, n_frames=300, n_coords=60, seed=0), 30
        elif case == "narrow":
            cfg, k = SyntheticConfig(n_per_class=10, n_frames=60, n_coords=5, seed=1), 3
        elif case == "odd width":
            cfg, k = SyntheticConfig(n_per_class=15, n_frames=60, n_coords=57, seed=2), 10
        else:
            rng = np.random.default_rng(int(case[-1]))
            n, t, d = (int(v) for v in rng.integers((2, 3, 1), (9, 40, 13)))
            cfg = SyntheticConfig(n_per_class=n, n_frames=t, n_coords=d, intercept_sd=2.0, seed=3)
            k = min(d, n * t - 1)
        return generate_synthetic(cfg), k

    CASES = ["csv-pairings", "narrow", "odd width", "random 0", "random 1", "random 2"]

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("case", CASES)
    def test_fold_fit_is_the_gathered_fit(self, case, offset):
        ds, k = self.dataset(case)
        ds = replace(ds, frames=ds.frames + offset)
        kept = ds.frames.copy()
        train_idx = np.setdiff1d(np.arange(ds.n_samples), kfold_split(ds.n_samples, 5, ds.labels, 0)[0])
        got = fit_fold_pca(ds, train_idx, k)
        ref = pca.fit(ds.frames[train_idx].reshape(-1, ds.n_coords), k)
        for name in ("mean", "components", "eigenvalues"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert np.array_equal(ds.frames, kept)

    @pytest.mark.parametrize("case", CASES)
    def test_scores_match_one_product(self, case):
        # within TestMatchesSvdReference's score tolerance; the odd width
        # rounds differently by the product's row count
        ds, k = self.dataset(case)
        model = fit_fold_pca(ds, np.arange(ds.n_samples), k)
        got = dataset_scores(ds, model)
        ref = pca.transform(model, ds.frames.reshape(-1, ds.n_coords)).reshape(got.shape)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("case", CASES)
    def test_scores_of_a_sample_ignore_the_others(self, case):
        ds, k = self.dataset(case)
        model = fit_fold_pca(ds, np.arange(ds.n_samples), k)
        every = dataset_scores(ds, model)
        some = [0, ds.n_samples - 1]
        subset = Dataset(ds.frames[some], [ds.sample_ids[i] for i in some], [ds.tags[i] for i in some], [ds.labels[i] for i in some])
        assert np.array_equal(dataset_scores(subset, model), every[some])

    @pytest.mark.parametrize("case", ["overflow", "zero variance", "too many components"])
    def test_fold_fit_errors_keep_their_message(self, case):
        ds = toy_dataset()
        frames, k = ds.frames.copy(), 2
        if case == "overflow":
            frames[0] *= 2.0**1016
        elif case == "zero variance":
            frames[:] = 1.5
        else:
            k = 4
        ds = replace(ds, frames=frames)
        folds = kfold_split(ds.n_samples, 2, ds.labels, 0)
        # the first fold to fail: the overflow is in the folds that train on sample 0
        fold = next(f for f, test_idx in enumerate(folds) if case != "overflow" or 0 not in test_idx)
        train_idx = np.setdiff1d(np.arange(ds.n_samples), folds[fold])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Exception) as ref:
            pca.fit(ds.frames[train_idx].reshape(-1, ds.n_coords), k)
        expected = f"fold {fold}: {ref.value}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(ref.value)) as info:
                window_search(ds, [ClassifierSpec("linear_svm")], WindowSpec(5, 6), 2, 0, n_components=k)
        assert str(info.value) == expected


class TestFoldMajorOrder:
    """Units run fold by fold; results are those of the window-major loop."""

    SPECS = [
        ClassifierSpec("linear_svm", c=100.0),
        ClassifierSpec("gaussian_svm"),
        ClassifierSpec("sigmoid_svm"),
        ClassifierSpec("mnce", train=TrainConfig(n_experts=2, hidden=2, epochs=2)),
    ]

    @pytest.mark.parametrize(
        "n_jobs,velocity,acceleration,literal_sum",
        [
            (1, True, True, False),
            (2, True, True, False),
            (1, False, False, False),
            (1, True, False, False),
            (1, True, True, True),
            (2, True, False, True),
        ],
    )
    def test_matches_window_major_reference(self, n_jobs, velocity, acceleration, literal_sum):
        # three folds of 8 samples have unequal sizes; noise labels and a
        # large C leave some SVM fits unconverged
        ds = generate_synthetic(SyntheticConfig(
            n_per_class=4, n_frames=12, n_coords=3, base_velocity=0.0,
            velocity_gap=0.0, noise_sd=0.5, seed=3,
        ))
        args = (ds, self.SPECS, WindowSpec(5, 3), 3, 7)
        kwargs = dict(
            n_components=2, include_velocity=velocity,
            include_acceleration=acceleration, literal_sum=literal_sum,
        )
        expected = window_search_reference(*args, **kwargs)
        assert window_search(*args, **kwargs, n_jobs=n_jobs) == expected
        assert [r.window for r in expected.windows] == [(0, 4), (3, 7), (6, 10)]

    def test_one_projection_per_fold(self, monkeypatch):
        # keeps the traced benchmark's pca.transform_s at one span per fold
        calls = []
        scores = evaluation.dataset_scores

        def counted(dataset, model):
            calls.append(model)
            return scores(dataset, model)

        monkeypatch.setattr(evaluation, "dataset_scores", counted)
        res = window_search(toy_dataset(), [ClassifierSpec("linear_svm")], WindowSpec(5, 3), 3, 0, n_components=2)
        assert len(res.windows) == 3
        assert len(calls) == 3
        assert len({id(model) for model in calls}) == 3

    def test_first_failure_in_fold_major_order(self, monkeypatch):
        # fits fail on window (0, 4) in fold 1 and window (6, 10) in fold
        # 0; the window-major loop reported the first, fold-major order
        # reaches the second first
        failing = {derive(0, "window", start, "fit", fold, "linear_svm") for start, fold in ((0, 1), (6, 0))}
        fit = evaluation.fit_classifier

        def fit_or_fail(spec, x, y_unit, seed, *, inner=None):
            if seed in failing:
                raise ValueError("chosen failure")
            return fit(spec, x, y_unit, seed, inner=inner)

        monkeypatch.setattr(evaluation, "fit_classifier", fit_or_fail)
        ds = toy_dataset()
        args = (ds, [ClassifierSpec("linear_svm")], WindowSpec(5, 3), 2, 0)
        with pytest.raises(ValueError, match=r"^window \(0, 4\), fold 1: chosen failure$"):
            window_search_reference(*args, n_components=2)
        # the pool's workers are forked, so they run the patched fit too
        for n_jobs in (1, 2):
            with pytest.raises(ValueError, match=r"^window \(6, 10\), fold 0: chosen failure$"):
                window_search(*args, n_components=2, n_jobs=n_jobs)

    def test_peak_memory_holds_one_fold_of_scores(self):
        # a paper-shape pairing: 5 folds of (20, 300, 30) scores are 2.5x
        # the frames, one fold's half of them
        ds = generate_synthetic(SyntheticConfig(n_per_class=10, n_frames=300, n_coords=60, seed=4))
        tracemalloc.start()
        try:
            window_search(ds, [ClassifierSpec("linear_svm")], WindowSpec(40, 20), 5, 0, n_components=30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / ds.frames.nbytes
        assert ratio < 3.0, ratio

    def test_peak_memory_at_long_recordings(self):
        # at 1000 frames the fold fit's gather of 16 samples' frames (0.8x)
        # outweighs one fold's scores (0.5x); a second copy of that gather,
        # or of all the frames, would pass 1.0x
        ds = generate_synthetic(SyntheticConfig(n_per_class=10, n_frames=1000, n_coords=60, seed=4))
        tracemalloc.start()
        try:
            window_search(ds, [ClassifierSpec("linear_svm")], WindowSpec(40, 100), 5, 0, n_components=30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / ds.frames.nbytes
        assert ratio < 1.0, ratio


class TestUnitWorkingSet:
    """What one (fold, window) unit builds and keeps while it fits."""

    SPECS = TestFoldMajorOrder.SPECS

    @pytest.mark.parametrize(
        "velocity,acceleration,literal_sum",
        [
            (True, True, False),
            (True, False, False),
            (False, False, False),
            (True, True, True),
            (True, False, True),
        ],
    )
    def test_split_rows_are_the_full_window_rows(self, monkeypatch, velocity, acceleration, literal_sum):
        # 14 samples in 4 folds: test folds of 4, 4, 3 and 3 samples
        ds = toy_dataset(n_per_class=7)
        k_folds, seed, n_components = 4, 5, 2
        blocks = (velocity, acceleration, literal_sum)
        seen = []  # (fit seed, training rows, test rows)
        fit = evaluation.fit_classifier
        predict = evaluation.predict_labels

        def fit_recorded(spec, x, y_unit, fit_seed, *, inner=None):
            seen.append([fit_seed, np.array(x), None])
            return fit(spec, x, y_unit, fit_seed, inner=inner)

        def predict_recorded(model, x):
            seen[-1][2] = np.array(x)
            return predict(model, x)

        monkeypatch.setattr(evaluation, "fit_classifier", fit_recorded)
        monkeypatch.setattr(evaluation, "predict_labels", predict_recorded)
        window_search(
            ds, self.SPECS, WindowSpec(5, 3), k_folds, seed, n_components=n_components,
            include_velocity=velocity, include_acceleration=acceleration, literal_sum=literal_sum,
        )
        windows = [(0, 4), (3, 7), (6, 10)]
        folds = kfold_split(ds.n_samples, k_folds, ds.labels, seed)
        assert sorted(len(f) for f in folds) == [3, 3, 4, 4]
        expected = {}
        for fold, test_idx in enumerate(folds):
            train_idx = np.setdiff1d(np.arange(ds.n_samples), test_idx)
            scores = dataset_scores(ds, fit_fold_pca(ds, train_idx, n_components))
            for start, end in windows:
                full = assemble(scores[:, start : end + 1], *blocks)
                for spec in self.SPECS:
                    key = derive(seed, "window", start, "fit", fold, spec.kind)
                    expected[key] = (full[train_idx], full[test_idx])
        assert len(seen) == len(expected) == len(folds) * len(windows) * len(self.SPECS)
        for fit_seed, x_train, x_test in seen:
            want_train, want_test = expected[fit_seed]
            assert np.array_equal(x_train.view(np.int64), want_train.view(np.int64))
            assert np.array_equal(x_test.view(np.int64), want_test.view(np.int64))

    def test_one_fitted_model_alive_at_a_time(self, monkeypatch):
        previous = []  # weak references to the models fit so far
        fit = evaluation.fit_classifier

        def fit_checked(spec, x, y_unit, fit_seed, *, inner=None):
            assert all(ref() is None for ref in previous), "a previous model is still alive"
            model = fit(spec, x, y_unit, fit_seed, inner=inner)
            previous.append(weakref.ref(model))
            return model

        monkeypatch.setattr(evaluation, "fit_classifier", fit_checked)
        window_search(toy_dataset(), self.SPECS, WindowSpec(5, 3), 2, 0, n_components=2)
        assert len(previous) == 2 * 3 * len(self.SPECS)

    def test_svm_fits_of_a_unit_share_one_inner_product(self, monkeypatch):
        seen = []  # (kernel kind, training rows, inner) per SVM fit
        train = svm.train_smo

        def recorded(x, y, kernel, *args, **kwargs):
            seen.append((kernel.kind, np.array(x), kwargs.get("inner")))
            return train(x, y, kernel, *args, **kwargs)

        monkeypatch.setattr(svm, "train_smo", recorded)
        specs = [ClassifierSpec("linear_svm"), ClassifierSpec("gaussian_svm")]
        window_search(toy_dataset(), specs, WindowSpec(5, 3), 2, 0, n_components=2)
        assert len(seen) == 2 * 3 * len(specs)
        for (kind_a, x_a, inner_a), (kind_b, x_b, inner_b) in zip(seen[::2], seen[1::2]):
            assert (kind_a, kind_b) == ("linear", "gaussian")
            assert inner_a is not None and inner_a is inner_b
            assert np.array_equal(x_a.view(np.int64), x_b.view(np.int64))
            assert np.array_equal(inner_a.view(np.int64), (x_a @ x_a.T).view(np.int64))

    def test_peak_memory_of_svm_units(self):
        # a paper-shape pairing with linear and Gaussian SVMs: 1.25x the
        # frames when a unit assembled the whole pairing's features,
        # gathered its splits from them, kept the previous model through
        # the next fit and squared x whole for Gaussian norms; 0.92x
        # without those. A search imports no module on the way (numpy.ma
        # was 0.4x here), so the ratio holds whatever ran before it
        specs = [ClassifierSpec("linear_svm"), ClassifierSpec("gaussian_svm")]
        ds = generate_synthetic(SyntheticConfig(n_per_class=10, n_frames=300, n_coords=60, seed=4))
        tracemalloc.start()
        try:
            window_search(ds, specs, WindowSpec(40, 20), 5, 0, n_components=30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / ds.frames.nbytes
        assert ratio < 1.1, ratio


class TestSolverReports:
    """SVM non-convergence is counted; overflowing kernels raise with context."""

    def noise_dataset(self):
        return generate_synthetic(SyntheticConfig(
            n_per_class=8, n_frames=12, n_coords=3, base_velocity=0.0,
            velocity_gap=0.0, noise_sd=0.5, seed=1,
        ))

    def test_unconverged_fits_counted(self, monkeypatch):
        residuals = []
        smo = svm.train_smo

        def one_pass(*args, **kwargs):
            model = smo(*args, **kwargs, max_passes=1)
            residuals.append(model.kkt_residual)
            return model

        monkeypatch.setattr(svm, "train_smo", one_pass)
        ds = self.noise_dataset()
        specs = [ClassifierSpec(kind, c=100.0) for kind in ("linear_svm", "gaussian_svm", "sigmoid_svm")]
        res = window_search(ds, specs, WindowSpec(3, 3), 2, 0, n_components=1)
        assert len(residuals) == 4 * 2 * 3
        assert res.unconverged == sum(r > svm.SMO_TOL for r in residuals) > 0

    def test_unconverged_count_same_under_jobs(self):
        # noise labels and a large C: some fits end above the tolerance
        ds = self.noise_dataset()
        specs = [ClassifierSpec("linear_svm", c=100.0), ClassifierSpec("ncl", train=TrainConfig(n_experts=2, hidden=2, epochs=1))]
        serial = window_search(ds, specs, WindowSpec(3, 3), 2, 0, n_components=1)
        parallel = window_search(ds, specs, WindowSpec(3, 3), 2, 0, n_components=1, n_jobs=2)
        assert 0 < serial.unconverged < 4 * 2
        assert serial == parallel

    @pytest.mark.parametrize(
        "kind,message",
        [
            ("linear_svm", "linear kernel matrix has non-finite entries"),
            ("gaussian_svm", "median pairwise distance is not finite"),
        ],
    )
    def test_overflowing_kernel_names_window_and_fold(self, kind, message):
        # one sample alternates between +-A along a direction: its
        # velocity and acceleration features (2A, 4A) overflow the
        # kernel's sum of squares while the fold PCA's variances, built
        # from the scores (A) alone, stay finite
        rng = np.random.default_rng(5)
        signs = np.array([1.0, -1.0] * 3)[:, None]
        frames = [signs * np.array([1.0, 2.0]) * 2.0**508 if i == 0 else rng.standard_normal((6, 2)) for i in range(8)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=rf"window \(0, 5\), fold \d: {message}"):
                window_search(four_and_four(frames), [ClassifierSpec(kind)], WindowSpec(6, 1), 2, 0, n_components=1)

    def test_overflowing_width_names_window_and_fold(self):
        # every other sample scaled to about 1e153: a training fold's median
        # distance is finite, but 2 sigma^2 overflows
        rng = np.random.default_rng(1)
        frames = [rng.standard_normal((6, 2)) * (1.5e153 if i % 2 == 0 else 1.0) for i in range(8)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"window \(0, 5\), fold \d: gaussian kernel width .* overflows"):
                window_search(
                    four_and_four(frames), [ClassifierSpec("gaussian_svm")], WindowSpec(6, 1), 2, 0, n_components=1
                )


class TestNoLeakage:
    """Fitting must not look at held-out samples in any way."""

    def scramble_test_rows(self, ds, test_idx):
        rng = np.random.default_rng(99)
        frames = ds.frames.copy()
        for i in test_idx:
            frames[int(i)] = rng.standard_normal(frames.shape[1:]) * 50.0
        return replace(ds, frames=frames)

    def test_fold_pca_ignores_test_samples(self):
        ds = toy_dataset()
        folds = kfold_split(ds.n_samples, 2, ds.labels, seed=0)
        test_idx = folds[0]
        train_idx = np.setdiff1d(np.arange(ds.n_samples), test_idx)
        mutated = self.scramble_test_rows(ds, test_idx)
        a = fit_fold_pca(ds, train_idx, 2)
        b = fit_fold_pca(mutated, train_idx, 2)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_classifier_fit_ignores_test_rows(self):
        ds = toy_dataset()
        model = fit_fold_pca(ds, np.arange(ds.n_samples), 2)
        x = assemble(dataset_scores(ds, model))
        y = ds.labels
        train_idx = np.arange(0, ds.n_samples, 2)
        probe = np.linspace(-1.0, 1.0, x.shape[1])[None, :]
        spec = ClassifierSpec("gaussian_svm")
        a = fit_classifier(spec, x[train_idx], y[train_idx], seed=5)
        b = fit_classifier(spec, x[train_idx], y[train_idx], seed=5)
        assert np.array_equal(predict_labels(a, probe), predict_labels(b, probe))
        assert np.array_equal(a.coef, b.coef)
