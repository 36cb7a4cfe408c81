"""Root growth time-series classification: PCA features, SVMs, and
negative-correlation ensembles compared over sliding frame windows."""

from .dataset import (
    ClassLabel,
    Dataset,
    SyntheticConfig,
    TimeSeriesSample,
    generate_synthetic,
    load_csv,
    split_by_pairing,
    write_csv,
)
from .ensembles import EnsembleModel, TrainConfig, train_backprop, train_gated_ncl, train_me, train_mnce, train_ncl
from .errors import ConfigError, DataFormatError, NumericError
from .evaluation import ClassifierSpec, SearchResult, kfold_split, window_search
from .features import FeatureLayout, FeatureMatrix, WindowSpec, assemble, slice_features, window_slices
from .pca import PcaModel, fit, transform
from .svm import KernelSpec, SvmModel, train_smo

__version__ = "0.1.0"

__all__ = [
    "ClassLabel",
    "ClassifierSpec",
    "ConfigError",
    "DataFormatError",
    "Dataset",
    "EnsembleModel",
    "FeatureLayout",
    "FeatureMatrix",
    "KernelSpec",
    "NumericError",
    "PcaModel",
    "SearchResult",
    "SvmModel",
    "SyntheticConfig",
    "TimeSeriesSample",
    "TrainConfig",
    "WindowSpec",
    "assemble",
    "fit",
    "generate_synthetic",
    "kfold_split",
    "load_csv",
    "slice_features",
    "split_by_pairing",
    "train_backprop",
    "train_gated_ncl",
    "train_me",
    "train_mnce",
    "train_ncl",
    "train_smo",
    "transform",
    "window_search",
    "window_slices",
    "write_csv",
]
