"""Principal component analysis over pooled frame coordinates.

Fitting forms the d x d scatter matrix of the centered data and takes
its symmetric eigendecomposition; the covariance eigenvalues are the
scatter's divided by n-1 (the s^2/(n-1) of an SVD of the centered data),
clamped at 0 where rounding leaves them slightly negative. Forming the
scatter squares the condition number, so directions whose variance is
below about 1e-16 of the largest lose their accuracy.
The scatter is one product over all rows, centered in place when the
caller hands over an array it owns. Summing per-block scatters plus the
between-block term (Chan, Golub & LeVeque, 1983) would spare a fold's
gather of its frames, but it rounds differently, and window-search
results follow those bits wherever an SVM fit stops short of its
tolerance.
Component signs follow a fixed convention so that results are
reproducible across runs: a component is negated when its
largest-magnitude entry is negative (ties resolved to the lowest
index).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericError

_MAGIC = b"RGPC"
_VERSION = 1


@dataclass(frozen=True)
class PcaModel:
    """Fitted projection: mean (d,), components (k, d), eigenvalues (k,)."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        comps = np.asarray(self.components, dtype=np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if mean.ndim != 1 or comps.ndim != 2 or eig.ndim != 1:
            raise ValueError("bad model array shapes")
        k, d = comps.shape
        if mean.shape != (d,) or eig.shape != (k,):
            raise ValueError(
                f"inconsistent model shapes: mean {mean.shape}, "
                f"components {comps.shape}, eigenvalues {eig.shape}"
            )
        gram = comps @ comps.T
        if np.abs(gram - np.eye(k)).max() > 1e-8:
            raise ValueError("components are not orthonormal")
        if not np.isfinite(eig).all():
            raise ValueError("eigenvalues must be finite")
        if np.any(eig < 0) or np.any(np.diff(eig) > 0):
            raise ValueError("eigenvalues must be non-negative and non-increasing")
        for arr in (mean, comps, eig):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_coords(self) -> int:
        return self.components.shape[1]


def max_components(n_rows: int, n_cols: int) -> int:
    """The most directions a PCA can extract from n_rows x n_cols data."""
    return min(n_rows - 1, n_cols)


def fit(data: np.ndarray, n_components: int, *, overwrite_data: bool = False) -> PcaModel:
    """Fit a PCA with ``n_components`` directions on rows of ``data``.

    Requires 1 <= n_components <= max_components(n, d) and non-degenerate
    data (identical rows carry no directions to extract). With
    ``overwrite_data``, a float64 ``data`` is centered in place and its
    values are lost; the model is the same either way.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {x.shape}")
    # the extremes check finiteness without a mask of the data's size
    # (NaN propagates through both), before centering changes the data
    lo, hi = (x.min(), x.max()) if x.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DataFormatError("data contains non-finite values")
    n, d = x.shape
    limit = max_components(n, d)
    if not 1 <= n_components <= limit:
        raise ValueError(
            f"n_components must be in [1, {limit}] for data of shape {x.shape}, "
            f"got {n_components}"
        )
    # an overflow here leaves a non-finite scatter, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        centered = np.subtract(x, mean, out=x if overwrite_data else None)
        scatter = centered.T @ centered
    if not centered.any():
        raise DataFormatError("data has zero variance (all rows identical)")
    # eigh fails to converge on an overflowed scatter, and a finite
    # scatter can still have an eigenvalue that overflows
    finite = np.isfinite(scatter).all()
    if finite:
        w, v = np.linalg.eigh(scatter)
        finite = np.isfinite(w).all()
    if not finite:
        raise NumericError(
            f"PCA variances overflow (data up to {max(hi, -lo):.3g} in magnitude)"
        )
    # eigh sorts ascending: take the top pairs largest first, and clamp
    # at 0 the slightly negative values rounding leaves on rank-deficient
    # data, which PcaModel would reject
    eigenvalues = np.maximum(w[: -n_components - 1 : -1], 0.0) / (n - 1)
    components = _fix_signs(v[:, : -n_components - 1 : -1].T.copy())
    return PcaModel(mean, components, eigenvalues)


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-|entry| of each row made positive.
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return components


def transform(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project rows of ``data`` onto the fitted components."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_coords:
        raise ValueError(
            f"data must be (n, {model.n_coords}), got shape {x.shape}"
        )
    return (x - model.mean) @ model.components.T


def save_model(model: PcaModel, path: str | os.PathLike) -> None:
    """Write the model as a flat little-endian binary record: the magic
    bytes, a version byte, d and k as uint32, then the mean, the
    components (row-major) and the eigenvalues as float64."""
    k, d = model.components.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BII", _VERSION, d, k))
        fh.write(model.mean.astype("<f8").tobytes())
        fh.write(model.components.astype("<f8").tobytes())
        fh.write(model.eigenvalues.astype("<f8").tobytes())
