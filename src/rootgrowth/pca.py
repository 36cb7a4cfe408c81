"""Principal component analysis over pooled frame coordinates.

Fitting runs an SVD of the centered data (no covariance matrix is
formed); eigenvalues of the covariance are recovered as s^2/(n-1).
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


def fit(data: np.ndarray, n_components: int) -> PcaModel:
    """Fit a PCA with ``n_components`` directions on rows of ``data``.

    Requires 1 <= n_components <= max_components(n, d) and non-degenerate
    data (identical rows carry no directions to extract).
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataFormatError("data contains non-finite values")
    n, d = x.shape
    limit = max_components(n, d)
    if not 1 <= n_components <= limit:
        raise ValueError(
            f"n_components must be in [1, {limit}] for data of shape {x.shape}, "
            f"got {n_components}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    if not centered.any():
        raise DataFormatError("data has zero variance (all rows identical)")
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = (s * s) / (n - 1)
    if not np.isfinite(eigenvalues).all():
        raise NumericError(
            f"PCA variances overflow (data up to {np.abs(x).max():.3g} in magnitude)"
        )
    components = _fix_signs(vt[:n_components].copy())
    return PcaModel(mean, components, eigenvalues[:n_components])


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


def reconstruct(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    """Map scores back to coordinate space (lossy for k < d)."""
    z = np.asarray(scores, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.n_components:
        raise ValueError(
            f"scores must be (n, {model.n_components}), got shape {z.shape}"
        )
    return z @ model.components + model.mean


def save_model(model: PcaModel, path: str | os.PathLike) -> None:
    """Write the model as a flat little-endian binary record."""
    k, d = model.components.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BII", _VERSION, d, k))
        fh.write(model.mean.astype("<f8").tobytes())
        fh.write(model.components.astype("<f8").tobytes())
        fh.write(model.eigenvalues.astype("<f8").tobytes())


def load_model(path: str | os.PathLike) -> PcaModel:
    """Read a model written by `save_model`; bit-exact round-trip."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = struct.calcsize("<BII")
    if len(blob) < len(_MAGIC) + head or blob[: len(_MAGIC)] != _MAGIC:
        raise DataFormatError(f"{path}: not a PCA model file")
    version, d, k = struct.unpack_from("<BII", blob, len(_MAGIC))
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported model version {version}")
    offset = len(_MAGIC) + head
    expected = offset + 8 * (d + k * d + k)
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: truncated model file ({len(blob)} bytes, expected {expected})"
        )
    mean = np.frombuffer(blob, "<f8", count=d, offset=offset)
    offset += 8 * d
    components = np.frombuffer(blob, "<f8", count=k * d, offset=offset).reshape(k, d)
    offset += 8 * k * d
    eigenvalues = np.frombuffer(blob, "<f8", count=k, offset=offset)
    return PcaModel(mean, components, eigenvalues)
