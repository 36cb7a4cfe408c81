"""Classifiers, folds and the sliding-window search.

`window_search` owns the full pipeline: per fold it fits a PCA on the
pooled training-fold frames only and projects every sample, and then
evaluates each window on features assembled from that window's frames
of the per-fold scores. Fold assignments are fixed once per (seed,
dataset) and shared across every window so window comparisons are like
for like.

Windows are independent work units: with n_jobs > 1 they are evaluated
in a process pool, which returns results in window order like the
serial loop, so the output is identical to the serial run byte for
byte.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import ensembles, features, pca, svm
from .dataset import Dataset
from .errors import ConfigError, DataFormatError
from .features import WindowSpec
from .seeding import derive

SVM_KINDS = ("linear_svm", "gaussian_svm", "sigmoid_svm")
ENSEMBLE_KINDS = ("ncl", "me", "gated_ncl", "mnce")
# in the column order of reports, minimum-error kernel machines first
KIND_LABELS = {
    "sigmoid_svm": "Sigmoid-SVM",
    "gaussian_svm": "Gaussian-SVM",
    "linear_svm": "Linear-SVM",
    "mnce": "MNCE",
    "me": "ME",
    "gated_ncl": "Gated-NCL",
    "ncl": "NCL",
}
TABLE_ORDER = tuple(KIND_LABELS)


@dataclass(frozen=True)
class ClassifierSpec:
    """One classifier column: kind plus the hyperparameters it uses.

    SVM kinds read c/sigma/a/b (None means resolve from data); ensemble
    kinds read lam and the TrainConfig.
    """

    kind: str
    c: float = 1.0
    sigma: float | None = None
    a: float | None = None
    b: float = 0.0
    lam: float = 0.5
    train: ensembles.TrainConfig = field(default_factory=ensembles.TrainConfig)

    def __post_init__(self):
        if self.kind not in SVM_KINDS + ENSEMBLE_KINDS:
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        # every field is checked whatever the kind reads, so a value that
        # only another kind would use is caught too
        if not (math.isfinite(self.c) and self.c > 0):
            raise ConfigError(f"C must be finite and positive, got {self.c}")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be finite and positive, got {self.sigma}")
        for name in ("a", "b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")

    @property
    def label(self) -> str:
        return KIND_LABELS[self.kind]


def fit_classifier(
    spec: ClassifierSpec, x: np.ndarray, y_unit: np.ndarray, seed: int
) -> svm.SvmModel | ensembles.EnsembleModel:
    """Train one classifier on unit-labeled rows; all randomness from seed."""
    x = np.asarray(x, dtype=np.float64)
    y_unit = np.asarray(y_unit, dtype=np.int64).ravel()
    if spec.kind in SVM_KINDS:
        kernel = {
            "linear_svm": svm.KernelSpec.linear(),
            "gaussian_svm": svm.KernelSpec.gaussian(spec.sigma),
            "sigmoid_svm": svm.KernelSpec.sigmoid(spec.a, spec.b),
        }[spec.kind]
        return svm.train_smo(x, 2 * y_unit - 1, kernel, c=spec.c, seed=seed)
    cfg = replace(spec.train, seed=seed)
    if spec.kind == "me":
        return ensembles.train_me(x, y_unit, cfg)
    return ensembles.TRAINERS[spec.kind](x, y_unit, cfg, spec.lam)


def predict_labels(model, x: np.ndarray) -> np.ndarray:
    """Unit labels from either model family; a tie goes to class 0."""
    if isinstance(model, svm.SvmModel):
        return (np.asarray(svm.decision_function(model, x)) > 0).astype(np.int64)
    _, labels = ensembles.predict_batch(model, x)
    return labels


# ---------------------------------------------------------------------------
# Folds and error rates


def kfold_split(n: int, k: int, labels: np.ndarray, seed: int) -> list[np.ndarray]:
    """Stratified k folds: within each class, shuffled members are dealt
    round-robin, continuing at the next fold where the previous class
    stopped so fold sizes stay within one of each other.

    Every class present in ``labels`` must have at least k members.
    Returns k sorted index arrays (the test folds), a partition of
    0..n-1.
    """
    labels = np.asarray(labels).ravel()
    if labels.shape != (n,):
        raise ValueError(f"labels must have length {n}, got shape {labels.shape}")
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} samples")
    rng = np.random.default_rng(derive(seed, "kfold"))
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for value in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == value)
        if len(members) < k:
            raise DataFormatError(
                f"class {value!r} has {len(members)} members, too few for {k} folds"
            )
        members = members[rng.permutation(len(members))]
        for pos, idx in enumerate(members):
            folds[(offset + pos) % k].append(int(idx))
        offset = (offset + len(members)) % k
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def error_rate(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Misclassified fraction in [0, 1]."""
    p = np.asarray(predictions).ravel()
    t = np.asarray(truth).ravel()
    if p.size == 0 or p.shape != t.shape:
        raise ValueError(f"need matching non-empty arrays, got {p.shape} and {t.shape}")
    return float(np.mean(p != t))


def format_error_rate(rate: float) -> str:
    """Render an error rate the way comparison tables print it: %12.50."""
    return f"%{100.0 * rate:.2f}"


# ---------------------------------------------------------------------------
# Window search (the full per-fold pipeline)


@dataclass(frozen=True)
class WindowResult:
    window: tuple[int, int]
    errors: dict[str, float]  # classifier label -> mean CV error

    def __post_init__(self):
        for label, err in self.errors.items():
            if not 0.0 <= err <= 1.0:
                raise ValueError(f"{label}: error {err} outside [0, 1]")


@dataclass(frozen=True)
class SearchResult:
    windows: tuple[WindowResult, ...]
    best: dict[str, tuple[tuple[int, int], float]]  # label -> (window, error)
    unconverged: int  # SVM fits whose KKT residual ended above the solver tolerance


def fit_fold_pca(dataset: Dataset, train_indices: np.ndarray, n_components: int) -> pca.PcaModel:
    """Fit the projection on pooled frames of the training samples only."""
    rows = np.vstack([dataset.samples[int(i)].frames for i in train_indices])
    return pca.fit(rows, n_components)


def dataset_scores(dataset: Dataset, model: pca.PcaModel) -> np.ndarray:
    """Project every sample's frames; (n_samples, T, k)."""
    return np.stack(
        [pca.transform(model, s.frames) for s in dataset.samples]
    )


def _fold_scores(dataset, folds, n_components):
    """Per fold: every sample's scores under that fold's PCA, (n, T, k),
    with the fold's training and test indices."""
    sets = []
    n = dataset.n_samples
    for fold_idx, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        try:
            model = fit_fold_pca(dataset, train_idx, n_components)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"fold {fold_idx}: {exc}") from None
        sets.append((dataset_scores(dataset, model), train_idx, test_idx))
    return sets


_WORKER_CTX: dict = {}


def _init_worker(ctx):
    _WORKER_CTX.update(ctx)


def _evaluate_window(w_idx: int):
    ctx = _WORKER_CTX
    window = ctx["windows"][w_idx]
    labels = ctx["labels"]
    rates: dict[str, list[float]] = {spec.label: [] for spec in ctx["specs"]}
    unconverged = 0
    start, end = window
    for fold_idx, (scores, train_idx, test_idx) in enumerate(ctx["fold_scores"]):
        # each velocity and acceleration entry involves only frames inside
        # the window, so these are bitwise the window's columns of the
        # full-length features
        x = features.assemble(scores[:, start : end + 1], *ctx["blocks"]).values
        x_train, x_test = x[train_idx], x[test_idx]
        for spec in ctx["specs"]:
            fit_seed = derive(ctx["seed"], "window", start, "fit", fold_idx, spec.kind)
            try:
                model = fit_classifier(spec, x_train, labels[train_idx], fit_seed)
                preds = predict_labels(model, x_test)
            except (ValueError, ArithmeticError) as exc:
                raise type(exc)(f"window {window}, fold {fold_idx}: {exc}") from None
            rates[spec.label].append(error_rate(preds, labels[test_idx]))
            if spec.kind in SVM_KINDS and model.kkt_residual > svm.SMO_TOL:
                unconverged += 1
    return {label: float(np.mean(r)) for label, r in rates.items()}, unconverged


def window_search(
    dataset: Dataset,
    specs: list[ClassifierSpec],
    wspec: WindowSpec,
    k_folds: int = 5,
    seed: int = 0,
    *,
    n_components: int,
    include_velocity: bool = True,
    include_acceleration: bool = True,
    literal_sum: bool = False,
    n_jobs: int = 1,
) -> SearchResult:
    """Evaluate every window of the grid with every classifier.

    Folds are fixed once from the seed and shared by all windows; each
    fold's PCA is fit on its pooled training frames only, and each
    window's features are assembled from its frames of the fold's
    scores. Results cover all windows; the best window per classifier
    is the error argmin with ties going to the smallest start frame. ``unconverged`` counts the SVM fits
    whose KKT residual ended above the solver's default tolerance.
    """
    if not specs:
        raise ConfigError("no classifiers configured")
    labels_seen = [s.label for s in specs]
    if len(set(labels_seen)) != len(labels_seen):
        raise ConfigError(f"duplicate classifier labels in {labels_seen}")
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")

    windows = features.window_slices(dataset.n_frames, wspec)
    labels = dataset.labels_unit()
    folds = kfold_split(dataset.n_samples, k_folds, labels, seed)
    ctx = {
        "windows": windows,
        "labels": labels,
        "specs": list(specs),
        "fold_scores": _fold_scores(dataset, folds, n_components),
        "blocks": (include_velocity, include_acceleration, literal_sum),
        "seed": seed,
    }

    if n_jobs == 1:
        _init_worker(ctx)
        try:
            raw = [_evaluate_window(i) for i in range(len(windows))]
        finally:
            _WORKER_CTX.clear()
    else:
        with ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            raw = list(pool.map(_evaluate_window, range(len(windows))))

    # both the pool's map and the serial list keep window order
    results = tuple(WindowResult(w, means) for w, (means, _) in zip(windows, raw))
    best: dict[str, tuple[tuple[int, int], float]] = {}
    for spec in specs:
        for res in results:  # window order, so ties keep the earliest start
            err = res.errors[spec.label]
            if spec.label not in best or err < best[spec.label][1]:
                best[spec.label] = (res.window, err)
    return SearchResult(results, best, sum(n for _, n in raw))
