"""Samples, datasets, CSV I/O and the synthetic generator.

A sample is one tracked object: a (T, d) array of frame coordinates
plus identity metadata. A dataset is a bundle of samples sharing T and
d with both classes present. Files use one CSV row per frame and a
small key=value manifest next to the CSV.
"""

from __future__ import annotations

import csv
import enum
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataFormatError
from .seeding import rng_for

META_COLUMNS = ("sample_id", "group_tag", "label", "frame_index")


class ClassLabel(enum.Enum):
    """Binary class; ``unit`` is its numeric encoding (0 wild / 1 mutated).

    Files store only the text tokens.
    """

    WILD = "wild"
    MUTATED = "mutated"

    @property
    def unit(self) -> int:
        return 0 if self is ClassLabel.WILD else 1

    @classmethod
    def from_token(cls, token: str) -> "ClassLabel":
        try:
            return cls(token)
        except ValueError:
            raise DataFormatError(f"unknown label token {token!r}") from None


@dataclass(frozen=True)
class TimeSeriesSample:
    """One tracked object: metadata plus a (T, d) float64 frame array."""

    sample_id: str
    group_tag: str
    label: ClassLabel
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2:
            raise DataFormatError(
                f"sample {self.sample_id!r}: frames must be 2-D (T, d), "
                f"got shape {frames.shape}"
            )
        if frames.shape[0] < 3:
            raise DataFormatError(
                f"sample {self.sample_id!r}: need at least 3 frames, "
                f"got {frames.shape[0]}"
            )
        if not np.isfinite(frames).all():
            raise DataFormatError(
                f"sample {self.sample_id!r}: frames contain non-finite values"
            )
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_coords(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of samples with shared (T, d) and both classes present.

    ``pairing`` records which (wild_tag, mutated_tag) pair the dataset
    represents, when known.
    """

    samples: tuple[TimeSeriesSample, ...]
    pairing: tuple[str, str] | None = None

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise DataFormatError("dataset has no samples")
        t0, d0 = samples[0].frames.shape
        for s in samples:
            if s.frames.shape != (t0, d0):
                raise DataFormatError(
                    f"sample {s.sample_id!r} has shape {s.frames.shape}, "
                    f"expected {(t0, d0)}"
                )
        labels = {s.label for s in samples}
        if len(labels) != 2:
            only = next(iter(labels)).value
            raise DataFormatError(f"dataset contains a single class ({only})")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def n_frames(self) -> int:
        return self.samples[0].n_frames

    @property
    def n_coords(self) -> int:
        return self.samples[0].n_coords

    def labels_unit(self) -> np.ndarray:
        return np.array([s.label.unit for s in self.samples], dtype=np.int64)

    def group_tags(self) -> list[str]:
        return [s.group_tag for s in self.samples]


def split_by_pairing(dataset: Dataset, wild_tag: str, mutated_tag: str) -> Dataset:
    """Select samples of the two groups and relabel them by tag.

    Group tags are authoritative for pairings: whatever labels the
    samples carried, members of ``wild_tag`` come out WILD and members
    of ``mutated_tag`` come out MUTATED.
    """
    if wild_tag == mutated_tag:
        raise ConfigError(f"pairing needs two distinct tags, got {wild_tag!r} twice")
    picked = []
    for s in dataset.samples:
        if s.group_tag == wild_tag:
            picked.append(replace(s, label=ClassLabel.WILD))
        elif s.group_tag == mutated_tag:
            picked.append(replace(s, label=ClassLabel.MUTATED))
    if not any(s.label is ClassLabel.WILD for s in picked):
        raise DataFormatError(f"no samples tagged {wild_tag!r}")
    if not any(s.label is ClassLabel.MUTATED for s in picked):
        raise DataFormatError(f"no samples tagged {mutated_tag!r}")
    return Dataset(tuple(picked), pairing=(wild_tag, mutated_tag))


# ---------------------------------------------------------------------------
# CSV + manifest I/O


def write_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write one row per frame: sample_id,group_tag,label,frame_index,v0,...

    Floats are written with shortest round-trip repr, so write/load is
    bit-exact. A manifest file is written next to the CSV.
    """
    d = dataset.n_coords
    header = list(META_COLUMNS) + [f"v{j}" for j in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in sorted(dataset.samples, key=lambda s: s.sample_id):
            for t in range(s.n_frames):
                row = [s.sample_id, s.group_tag, s.label.value, str(t)]
                row += [repr(float(v)) for v in s.frames[t]]
                writer.writerow(row)
    write_manifest(_manifest_path(path), dataset)


def load_csv(path: str | os.PathLike) -> Dataset:
    """Load a dataset written by `write_csv` (or anything matching its schema).

    Validates the header, per-sample frame_index contiguity, shared T
    and d, numeric parse of every value, and presence of both classes.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        _check_header(path, header)

        samples: list[TimeSeriesSample] = []
        cur_id: str | None = None
        cur_tag = ""
        cur_label = ClassLabel.WILD
        cur_rows: list[list[float]] = []
        seen_ids: set[str] = set()

        def finish():
            if cur_id is not None:
                samples.append(
                    TimeSeriesSample(cur_id, cur_tag, cur_label, np.array(cur_rows))
                )

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            sid, tag, token, idx_text = row[:4]
            if sid != cur_id:
                finish()
                if sid in seen_ids:
                    raise DataFormatError(
                        f"{path}:{lineno}: rows for sample {sid!r} are not contiguous"
                    )
                seen_ids.add(sid)
                cur_id, cur_tag, cur_label, cur_rows = sid, tag, ClassLabel.from_token(token), []
            elif tag != cur_tag or token != cur_label.value:
                raise DataFormatError(
                    f"{path}:{lineno}: sample {sid!r} changes group_tag or label mid-file"
                )
            if idx_text != str(len(cur_rows)):
                raise DataFormatError(
                    f"{path}:{lineno}: frame_index {idx_text!r} out of order "
                    f"(expected {len(cur_rows)})"
                )
            try:
                values = [float(v) for v in row[4:]]
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric coordinate value"
                ) from None
            if not all(math.isfinite(v) for v in values):
                raise DataFormatError(f"{path}:{lineno}: non-finite coordinate value")
            cur_rows.append(values)
        finish()

    if not samples:
        raise DataFormatError(f"{path}: no data rows")
    ids = [s.sample_id for s in samples]
    if ids != sorted(ids):
        raise DataFormatError(f"{path}: rows are not sorted by sample_id")
    pairing = None
    manifest = _manifest_path(path)
    if os.path.exists(manifest):
        meta = read_manifest(manifest)
        if "wild_tag" in meta and "mutated_tag" in meta:
            pairing = (meta["wild_tag"], meta["mutated_tag"])
    return Dataset(tuple(samples), pairing=pairing)


def _check_header(path, header: list[str]) -> None:
    if len(header) <= len(META_COLUMNS):
        raise DataFormatError(f"{path}: header has no coordinate columns")
    if tuple(header[:4]) != META_COLUMNS:
        raise DataFormatError(
            f"{path}: header must start with {','.join(META_COLUMNS)}"
        )
    expected = [f"v{j}" for j in range(len(header) - 4)]
    if header[4:] != expected:
        raise DataFormatError(
            f"{path}: coordinate columns must be v0..v{len(header) - 5}"
        )


def _manifest_path(csv_path: str | os.PathLike) -> str:
    base, _ = os.path.splitext(os.fspath(csv_path))
    return base + ".manifest"


def write_manifest(path: str | os.PathLike, dataset: Dataset) -> None:
    """Write the key=value companion file (T, d, pairing tags if known)."""
    lines = [
        f"n_frames={dataset.n_frames}",
        f"n_coords={dataset.n_coords}",
        f"n_samples={dataset.n_samples}",
    ]
    if dataset.pairing is not None:
        lines.append(f"wild_tag={dataset.pairing[0]}")
        lines.append(f"mutated_tag={dataset.pairing[1]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path: str | os.PathLike) -> dict[str, str]:
    """Parse a key=value manifest into a dict (values stay strings)."""
    meta: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            meta[key.strip()] = value.strip()
    return meta


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the two-class synthetic trajectory generator.

    Class mean trajectories are quadratic in time and differ by
    ``velocity_gap`` and ``acceleration_gap``; i.i.d. Gaussian noise is
    added per frame. ``intercept_sd`` draws a per-sample constant
    offset (kills absolute position as a cue while leaving differences
    intact). ``signal_window``/``signal_gap`` confine the class
    difference to a smooth bump over an inclusive frame range.
    ``ripple_gap`` gives the mutated class an alternating per-frame
    velocity component (growth-rate jitter): positions zigzag by half
    the gap with no net displacement, so the classes differ in velocity
    dynamics rather than in where they end up.
    """

    n_per_class: int = 10
    n_frames: int = 300
    n_coords: int = 5
    base_velocity: float = 0.001
    velocity_gap: float = 0.0004
    acceleration_gap: float = 0.000002
    noise_sd: float = 0.09
    intercept_sd: float = 0.0
    ripple_gap: float = 0.0
    signal_window: tuple[int, int] | None = None
    signal_gap: float = 0.0
    seed: int = 0
    wild_tag: str = "wt_syn"
    mutated_tag: str = "mut_syn"

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ConfigError("n_per_class must be >= 1")
        if self.n_frames < 3:
            raise ConfigError("n_frames must be >= 3")
        if self.n_coords < 1:
            raise ConfigError("n_coords must be >= 1")
        if self.noise_sd < 0 or self.intercept_sd < 0:
            raise ConfigError("noise_sd and intercept_sd must be >= 0")
        if self.ripple_gap < 0:
            raise ConfigError("ripple_gap must be >= 0")
        if self.signal_window is not None:
            s0, s1 = self.signal_window
            if not (0 <= s0 < s1 <= self.n_frames - 1):
                raise ConfigError(
                    f"signal_window {self.signal_window} out of range for "
                    f"T={self.n_frames}"
                )


def class_mean_trajectory(cfg: SyntheticConfig, label: ClassLabel) -> np.ndarray:
    """Noise-free (T, d) mean trajectory for one class."""
    c = label.unit
    t = np.arange(cfg.n_frames, dtype=np.float64)
    q = (cfg.base_velocity + c * cfg.velocity_gap) * t
    q = q + 0.5 * c * cfg.acceleration_gap * t * t
    if cfg.ripple_gap:
        # +-ripple_gap/2 zigzag: velocity alternates by the full gap.
        q = q + 0.5 * c * cfg.ripple_gap * np.where(t % 2 == 0, 1.0, -1.0)
    mean = np.tile(q[:, None], (1, cfg.n_coords))
    if cfg.signal_window is not None:
        s0, s1 = cfg.signal_window
        span = np.arange(s0, s1 + 1, dtype=np.float64)
        bump = np.sin(np.pi * (span - s0) / (s1 - s0 + 1)) ** 2
        mean[s0 : s1 + 1, 0] += c * cfg.signal_gap * bump
    return mean


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Generate a two-class dataset; bit-identical for a given config.

    Noise and intercept normals are drawn unconditionally and scaled,
    so toggling a standard deviation to zero does not shift the draws
    of other samples.
    """
    rng = rng_for(cfg.seed, "synthetic")
    samples: list[TimeSeriesSample] = []
    for label, tag in ((ClassLabel.WILD, cfg.wild_tag), (ClassLabel.MUTATED, cfg.mutated_tag)):
        mean = class_mean_trajectory(cfg, label)
        for i in range(cfg.n_per_class):
            intercept = rng.standard_normal(cfg.n_coords) * cfg.intercept_sd
            noise = rng.standard_normal((cfg.n_frames, cfg.n_coords)) * cfg.noise_sd
            frames = mean + intercept[None, :] + noise
            samples.append(
                TimeSeriesSample(f"{tag}_{i:03d}", tag, label, frames)
            )
    return Dataset(tuple(samples), pairing=(cfg.wild_tag, cfg.mutated_tag))
