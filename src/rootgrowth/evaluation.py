"""Classifiers, folds and the sliding-window search.

`window_search` owns the full pipeline: per fold it fits a PCA on the
pooled training-fold frames only, and then evaluates each window on
features assembled from that window's frames of the samples' scores
under the fold's PCA. Fold assignments are fixed once per (seed,
dataset) and shared across every window so window comparisons are like
for like. A search runs one `ClassifierSpec`: its kinds, one result
column each, share one set of hyperparameters.

The work unit is one (fold, window) pair, and units run fold by fold:
at a fold's first unit a process drops the previous fold's scores and
projects each sample through the fold's PCA in its own product, so it
holds one fold's scores at a time, and a sample's scores do not depend
on which other samples are projected with it. A unit assembles its
training rows and its test rows apart, from those samples' scores
alone, hands its SVM fits one product ``x_train @ x_train.T`` to share,
and holds one fitted model at a time. With n_jobs > 1 and more
than one unit the units run in a process pool of at most one worker
per unit, which returns results in unit order like the serial loop,
so the output is identical to the serial run byte for byte, and when
several fits fail the first in fold-major order is the one reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ensembles, features, pca, svm
from .dataset import Dataset
from .errors import ConfigError, DataFormatError
from .features import WindowSpec
from .seeding import derive

SVM_KINDS = ("linear_svm", "gaussian_svm", "sigmoid_svm")
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
    """One search's classifiers: their kinds, in column order, and the
    hyperparameters they share.

    SVM kinds read c/sigma/a/b (None means resolve from data); ensemble
    kinds read lam and the TrainConfig, whose seed each fit replaces.
    """

    kinds: tuple[str, ...]
    c: float = 1.0
    sigma: float | None = None
    a: float | None = None
    b: float = 0.0
    lam: float = 0.5
    train: ensembles.TrainConfig = field(default_factory=ensembles.TrainConfig)

    def __post_init__(self):
        if not self.kinds:
            raise ConfigError("classifiers list is empty")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError("classifiers list contains duplicates")
        for kind in self.kinds:
            if kind not in KIND_LABELS:
                raise ConfigError(f"unknown classifier kind {kind!r}", ("kinds",))
        # every field is checked whatever the kinds read, so a value that
        # only an absent kind would use is caught too
        if not (math.isfinite(self.c) and self.c > 0):
            raise ConfigError(f"C must be finite and positive, got {self.c}", ("c",))
        # a kernel spec states the rules for sigma, a and b, and checks
        # all three whatever its kind
        svm.KernelSpec("gaussian", self.sigma, self.a, self.b)
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}", ("lam",))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(KIND_LABELS[kind] for kind in self.kinds)


def fit_classifier(
    kind: str, spec: ClassifierSpec, x: np.ndarray, y_unit: np.ndarray, seed: int, *,
    inner: np.ndarray | None = None,
) -> svm.SvmModel | ensembles.EnsembleModel:
    """Train one classifier of ``kind``, one of ``spec.kinds``, on
    unit-labeled rows; all randomness from seed.

    ``inner`` is ``x @ x.T``, for a caller that fits several SVMs on the
    same rows; ensembles do not read it.
    """
    x = np.asarray(x, dtype=np.float64)
    y_unit = np.asarray(y_unit, dtype=np.int64).ravel()
    if kind in SVM_KINDS:
        if kind == "linear_svm":
            kernel = svm.KernelSpec("linear")
        elif kind == "gaussian_svm":
            kernel = svm.KernelSpec("gaussian", sigma=spec.sigma)
        else:
            kernel = svm.KernelSpec("sigmoid", a=spec.a, b=spec.b)
        return svm.train_smo(x, 2 * y_unit - 1, kernel, c=spec.c, inner=inner)
    cfg = replace(spec.train, seed=seed)
    if kind == "me":
        return ensembles.train_me(x, y_unit, cfg)
    return ensembles.TRAINERS[kind](x, y_unit, cfg, spec.lam)


def predict_labels(model, x: np.ndarray) -> np.ndarray:
    """Unit labels from either model family; a tie goes to class 0."""
    if isinstance(model, svm.SvmModel):
        return (svm.decision_function(model, x) > 0).astype(np.int64)
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
    """Fit the projection on pooled frames of the training samples only;
    the fit centers its gather of them in place."""
    rows = dataset.frames[train_indices].reshape(-1, dataset.n_coords)
    return pca.fit(rows, n_components, overwrite_data=True)


def dataset_scores(dataset: Dataset, model: pca.PcaModel) -> np.ndarray:
    """Project every sample's frames, one sample per product; (n_samples, T, k)."""
    scores = np.empty((dataset.n_samples, dataset.n_frames, model.n_components))
    for out, frames in zip(scores, dataset.frames):
        out[...] = pca.transform(model, frames)
    return scores


def _fold_models(dataset, folds, n_components):
    """Per fold: its PCA, fit on the fold's training frames, with the
    fold's training and test indices. Every fold is fit before any window
    runs, so a PCA error names its fold first."""
    fits = []
    for fold_idx, test_idx in enumerate(folds):
        # a mask, not np.setdiff1d, whose np.unique imports numpy.ma
        held_out = np.zeros(dataset.n_samples, dtype=bool)
        held_out[test_idx] = True
        train_idx = np.flatnonzero(~held_out)
        try:
            model = fit_fold_pca(dataset, train_idx, n_components)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"fold {fold_idx}: {exc}") from None
        fits.append((model, train_idx, test_idx))
    return fits


_WORKER_CTX: dict = {}


def _init_worker(ctx):
    _WORKER_CTX.update(ctx)


def _evaluate_unit(unit: tuple[int, int]):
    """One (fold, window) pair: each classifier's error rate on the fold's
    test samples, and the count of unconverged SVM fits."""
    ctx = _WORKER_CTX
    fold_idx, w_idx = unit
    model, train_idx, test_idx = ctx["folds"][fold_idx]
    if ctx.get("scored_fold") != fold_idx:
        # the previous fold's scores go before this fold's are made, so
        # a process holds one fold's at a time
        ctx.pop("scores", None)
        ctx["scores"] = dataset_scores(ctx["dataset"], model)
        ctx["scored_fold"] = fold_idx
    window = ctx["windows"][w_idx]
    labels = ctx["labels"]
    rates: dict[str, float] = {}
    unconverged = 0
    start, end = window
    # each velocity and acceleration entry involves only frames inside
    # the window, and assembly works sample by sample, so these rows are
    # bitwise those of the window's full-length features; each split is
    # assembled from its own samples' scores, with no pairing-wide matrix
    scores = ctx["scores"]
    x_train = features.assemble(scores[train_idx, start : end + 1], *ctx["blocks"])
    x_test = features.assemble(scores[test_idx, start : end + 1], *ctx["blocks"])
    spec = ctx["spec"]
    # the unit's SVM fits share one product of its training rows
    inner = None
    if any(kind in SVM_KINDS for kind in spec.kinds):
        inner = x_train @ x_train.T
        inner.flags.writeable = False
    for kind in spec.kinds:
        fit_seed = derive(ctx["seed"], "window", start, "fit", fold_idx, kind)
        try:
            fitted = fit_classifier(kind, spec, x_train, labels[train_idx], fit_seed, inner=inner)
            preds = predict_labels(fitted, x_test)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"window {window}, fold {fold_idx}: {exc}") from None
        rates[KIND_LABELS[kind]] = error_rate(preds, labels[test_idx])
        if kind in SVM_KINDS and fitted.kkt_residual > svm.SMO_TOL:
            unconverged += 1
        # the model goes before the next fit, so a unit holds one at a time
        del fitted
    return rates, unconverged


def window_search(
    dataset: Dataset,
    spec: ClassifierSpec,
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
    """Evaluate every window of the grid with each of the spec's classifiers.

    Folds are fixed once from the seed and shared by all windows; each
    fold's PCA is fit on its pooled training frames only, and each
    window's features are assembled from its frames of the fold's
    scores. Results cover all windows; the best window per classifier
    is the error argmin with ties going to the smallest start frame.
    ``unconverged`` counts the SVM fits whose KKT residual ended above
    the solver's default tolerance.
    """
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")

    windows = features.window_slices(dataset.n_frames, wspec)
    labels = dataset.labels
    folds = kfold_split(dataset.n_samples, k_folds, labels, seed)
    ctx = {
        "dataset": dataset,
        "windows": windows,
        "labels": labels,
        "spec": spec,
        "folds": _fold_models(dataset, folds, n_components),
        "blocks": (include_velocity, include_acceleration, literal_sum),
        "seed": seed,
    }
    units = [(f, w) for f in range(len(folds)) for w in range(len(windows))]

    workers = min(n_jobs, len(units))
    if workers == 1:
        _init_worker(ctx)
        try:
            raw = [_evaluate_unit(unit) for unit in units]
        finally:
            _WORKER_CTX.clear()
    else:
        # imported here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            raw = list(pool.map(_evaluate_unit, units))

    # both the pool's map and the serial list keep unit order, so a
    # window's rates are every len(windows)-th entry, in fold order
    results = []
    for w_idx, window in enumerate(windows):
        per_fold = [rates for rates, _ in raw[w_idx :: len(windows)]]
        means = {label: float(np.mean([r[label] for r in per_fold])) for label in spec.labels}
        results.append(WindowResult(window, means))
    # min keeps the first minimum in window order, so ties keep the earliest start
    best = {
        label: min(((r.window, r.errors[label]) for r in results), key=lambda b: b[1])
        for label in spec.labels
    }
    return SearchResult(tuple(results), best, sum(n for _, n in raw))
