"""Feature assembly: PCA score blocks plus velocity and acceleration.

A sample's feature row is the frame-major flattening of its score
matrix, followed by per-frame velocity (first differences) and
acceleration (second differences) blocks. Velocity has an alternative
literal form (sum of consecutive frames) kept behind a flag for
comparison runs; it is not the default.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError


@dataclass(frozen=True)
class FeatureLayout:
    """Block settings of assembled feature rows: their checks and column names."""

    n_frames: int
    n_components: int
    has_velocity: bool = True
    has_acceleration: bool = True

    def __post_init__(self):
        if self.n_frames < 3:
            raise ValueError(f"need at least 3 frames, got {self.n_frames}")
        if self.n_components < 1:
            raise ValueError(f"need at least 1 component, got {self.n_components}")
        if self.has_acceleration and not self.has_velocity:
            raise ValueError("acceleration requires velocity")

    def column_names(self) -> list[str]:
        k = self.n_components
        names = [f"f{t}_pc{j}" for t in range(self.n_frames) for j in range(k)]
        if self.has_velocity:
            names += [f"v{t}_pc{j}" for t in range(self.n_frames - 1) for j in range(k)]
        if self.has_acceleration:
            names += [f"a{t}_pc{j}" for t in range(self.n_frames - 2) for j in range(k)]
        return names


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window grid: length L, step between starts."""

    length: int = 40
    stride: int = 1

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"window length must be >= 1, got {self.length}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")


def velocity(scores: np.ndarray, literal_sum: bool = False) -> np.ndarray:
    """Per-frame velocity of (..., T, k) score matrices; (..., T-1, k).

    Default is the first difference. ``literal_sum`` switches to the
    additive form (sum of consecutive frames) for comparison runs.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.ndim < 2 or z.shape[-2] < 2:
        raise ValueError(f"scores must be (..., T>=2, k), got shape {z.shape}")
    if literal_sum:
        return z[..., 1:, :] + z[..., :-1, :]
    return z[..., 1:, :] - z[..., :-1, :]


def acceleration(vel: np.ndarray) -> np.ndarray:
    """Difference of consecutive velocity entries; (..., T-2, k)."""
    v = np.asarray(vel, dtype=np.float64)
    if v.ndim < 2 or v.shape[-2] < 2:
        raise ValueError(f"velocity must be (..., T-1>=2, k), got shape {v.shape}")
    return v[..., 1:, :] - v[..., :-1, :]


def assemble(
    scores: np.ndarray,
    include_velocity: bool = True,
    include_acceleration: bool = True,
    literal_sum: bool = False,
) -> np.ndarray:
    """Flatten (n, T, k) per-sample scores into read-only (n, width) feature rows.

    Blocks are frame-major: all components of frame 0, then frame 1,
    and so on; velocity and acceleration blocks follow the scores.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"scores must be (n, T, k), got shape {z.shape}")
    n, t, k = z.shape
    FeatureLayout(t, k, include_velocity, include_acceleration)  # checks the shape and the blocks
    blocks = [z.reshape(n, t * k)]
    if include_velocity:
        vel = velocity(z, literal_sum)
        blocks.append(vel.reshape(n, (t - 1) * k))
        if include_acceleration:
            blocks.append(acceleration(vel).reshape(n, (t - 2) * k))
    values = np.hstack(blocks)
    values.flags.writeable = False
    return values


def window_slices(n_frames: int, spec: WindowSpec) -> list[tuple[int, int]]:
    """All (start, end) inclusive windows of the grid; end = start+L-1.

    Yields floor((T - L) / stride) + 1 windows; requires L <= T.
    """
    if spec.length > n_frames:
        raise ValueError(
            f"window length {spec.length} exceeds {n_frames} frames"
        )
    return [
        (s, s + spec.length - 1)
        for s in range(0, n_frames - spec.length + 1, spec.stride)
    ]


def slice_features(values: np.ndarray, layout: FeatureLayout, window: tuple[int, int]) -> np.ndarray:
    """Restrict full feature rows, assembled under ``layout``, to one frame window.

    Keeps score frames start..end, velocity frames start..end-1 and
    acceleration frames start..end-2, so the result equals assembling
    features from the windowed scores directly. No command calls it:
    the window search assembles each window from its own frames, and
    this stays as gate 6's subject and a hook the benchmark wraps by
    name. That wrapper reads a ``.values`` this array lacks, so it would
    fail the traced run that
    ``test_cli.py::TestBenchmarkHooks::test_traced_run_reads_the_real_objects``
    makes if a command ever called it.
    """
    start, end = window
    t, k = layout.n_frames, layout.n_components
    if not (0 <= start < end <= t - 1):
        raise ValueError(f"window {window} out of range for {t} frames")
    if end - start + 1 < 3:
        raise DataFormatError(f"window {window} too short for feature assembly")
    cols = list(range(start * k, (end + 1) * k))
    off = t * k
    if layout.has_velocity:
        cols += list(range(off + start * k, off + end * k))
        off += (t - 1) * k
    if layout.has_acceleration:
        cols += list(range(off + start * k, off + (end - 1) * k))
    return values[:, cols]


def export_csv(
    values: np.ndarray,
    layout: FeatureLayout,
    path: str | os.PathLike,
    sample_ids: list[str],
    labels: list[str],
) -> None:
    """Write feature rows as CSV: sample id, label, then the layout's columns."""
    names = layout.column_names()
    if values.shape[1:] != (len(names),):
        raise ValueError(f"values have shape {values.shape}, layout expects {len(names)} columns")
    if not len(sample_ids) == len(labels) == len(values):
        raise ValueError(f"need one sample id and label per matrix row ({len(values)})")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "label"] + names)
        for sample_id, label, row in zip(sample_ids, labels, values):
            writer.writerow([sample_id, label] + [repr(float(v)) for v in row])
