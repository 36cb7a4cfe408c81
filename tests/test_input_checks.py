"""Input checks across the package, each hit with its smallest bad input.

One row per check: the call that trips it, the exception type it must
raise and the whole message.
"""

import re

import numpy as np
import pytest

from rootgrowth import features, pca, svm
from rootgrowth.cli import RunConfig
from rootgrowth.dataset import Dataset
from rootgrowth.ensembles import EnsembleModel, TrainConfig, predict_batch, train_ncl
from rootgrowth.errors import ConfigError, DataFormatError
from rootgrowth.evaluation import ClassifierSpec, WindowResult, kfold_split, window_search

LINEAR = svm.KernelSpec("linear")


def svm_model(sv, coef, sq_norms=None):
    return svm.SvmModel(np.asarray(sv, dtype=np.float64), np.asarray(coef, dtype=np.float64), 0.0, LINEAR, 1.0, 0.0,
                        sq_norms)


def pca_model(mean, components, eigenvalues):
    return pca.PcaModel(np.asarray(mean, dtype=np.float64), np.asarray(components, dtype=np.float64),
                        np.asarray(eigenvalues, dtype=np.float64))


def ncl_model(width):
    """Two one-neuron experts over ``width`` inputs, every weight 0."""
    return EnsembleModel("ncl", np.zeros((2, 1, width + 1)), np.zeros((2, 2)), TrainConfig(n_experts=2, hidden=1))


CHECKS = [
    # svm
    ("default_sigmoid_a", lambda: svm.default_sigmoid_a(0), ValueError, "n_coords must be >= 1, got 0"),
    ("median_one_point", lambda: svm.median_pairwise_distance(np.zeros((1, 1))), ValueError,
     "need at least 2 points for a pairwise median"),
    ("gram_not_2d", lambda: svm.gram_matrix(LINEAR, np.zeros(2)), ValueError, "x must be (n>=1, d), got shape (2,)"),
    ("cross_gram_widths", lambda: svm.cross_gram(LINEAR, np.zeros((1, 1)), np.zeros((1, 2))), ValueError,
     "incompatible shapes (1, 1) and (1, 2)"),
    ("cross_gram_sq", lambda: svm.cross_gram(LINEAR, np.zeros((1, 1)), np.zeros((1, 1)), sq=np.zeros(2)), ValueError,
     "sq must hold one norm per row of x, got shape (2,)"),
    ("svm_model_coef", lambda: svm_model(np.zeros((1, 1)), np.zeros(2)), ValueError,
     "support vectors and coefficients do not line up"),
    ("svm_model_box", lambda: svm_model(np.zeros((2, 1)), [2.0, -2.0]), ValueError, "coefficient outside [0, C]"),
    ("svm_model_equality", lambda: svm_model(np.zeros((1, 1)), [0.5]), ValueError,
     "coefficients do not satisfy the equality constraint"),
    ("svm_model_norms", lambda: svm_model(np.zeros((1, 1)), [0.0], sq_norms=np.zeros(2)), ValueError,
     "support vectors and their norms do not line up"),
    ("train_smo_not_2d", lambda: svm.train_smo(np.zeros(2), np.array([-1.0, 1.0]), LINEAR), ValueError,
     "x must be 2-D, got shape (2,)"),
    ("train_smo_one_row", lambda: svm.train_smo(np.zeros((1, 1)), np.ones(1), LINEAR), ValueError,
     "need at least 2 training points"),
    # pca
    ("pca_rank", lambda: pca_model(np.zeros((1, 1)), np.eye(1), [1.0]), ValueError, "bad model array shapes"),
    ("pca_shapes", lambda: pca_model(np.zeros(2), np.eye(1), [1.0]), ValueError,
     "inconsistent model shapes: mean (2,), components (1, 1), eigenvalues (1,)"),
    ("pca_negative_eigenvalue", lambda: pca_model(np.zeros(1), np.eye(1), [-1.0]), ValueError,
     "eigenvalues must be non-negative and non-increasing"),
    ("pca_increasing_eigenvalues", lambda: pca_model(np.zeros(2), np.eye(2), [1.0, 2.0]), ValueError,
     "eigenvalues must be non-negative and non-increasing"),
    ("pca_transform_width", lambda: pca.transform(pca_model(np.zeros(1), np.eye(1), [1.0]), np.zeros((1, 2))),
     ValueError, "data must be (n, 1), got shape (1, 2)"),
    # ensembles
    ("ensemble_variant",
     lambda: EnsembleModel("bagging", np.zeros((2, 1, 2)), np.zeros((2, 2)), TrainConfig(n_experts=2, hidden=1)),
     ValueError, "unknown variant 'bagging'"),
    ("ensemble_no_rows", lambda: train_ncl(np.zeros((0, 1)), np.zeros(0), TrainConfig(n_experts=2), 0.5), ValueError,
     "x must be (n>=1, f), got shape (0, 1)"),
    ("predict_batch_width", lambda: predict_batch(ncl_model(1), np.zeros((1, 2))), ValueError,
     "x must be (n, 1), got shape (1, 2)"),
    # evaluation
    ("kfold_labels", lambda: kfold_split(2, 2, np.zeros(3), 0), ValueError,
     "labels must have length 2, got shape (3,)"),
    ("window_result_error", lambda: WindowResult((0, 2), {"NCL": 1.5}), ValueError, "NCL: error 1.5 outside [0, 1]"),
    ("classifier_spec_empty", lambda: ClassifierSpec(()), ConfigError, "classifiers list is empty"),
    ("classifier_spec_unknown", lambda: ClassifierSpec(("forest",)), ConfigError, "unknown classifier kind 'forest'"),
    ("classifier_spec_repeated", lambda: ClassifierSpec(("ncl", "ncl")), ConfigError,
     "classifiers list contains duplicates"),
    ("window_search_jobs",
     lambda: window_search(None, ClassifierSpec(("linear_svm",)), features.WindowSpec(3), n_components=1, n_jobs=0),
     ConfigError, "n_jobs must be >= 1, got 0"),
    # features
    ("window_length", lambda: features.WindowSpec(0), ConfigError, "window length must be >= 1, got 0"),
    ("assemble_not_3d", lambda: features.assemble(np.zeros((2, 3))), ValueError,
     "scores must be (n, T, k), got shape (2, 3)"),
    # dataset
    ("dataset_empty", lambda: Dataset(np.zeros((0, 3, 1)), [], [], []), DataFormatError, "dataset has no samples"),
    # cli
    ("run_config_seed", lambda: RunConfig(seed=-1), ConfigError, "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("call,error,message", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_check_rejects_smallest_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
