"""Datasets, CSV I/O and the synthetic generator.

A dataset holds the frame coordinates of n tracked objects as one
(n, T, d) array, with each object's id, group tag and 0/1 label
alongside; both classes are present. Files use one CSV row per frame
and a small key=value manifest next to the CSV. `load_csv` reads a
plain file in one streaming pass through numpy's reader, and any other
file record by record with `csv` and `float()`.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataFormatError
from .seeding import rng_for

META_COLUMNS = ("sample_id", "group_tag", "label", "frame_index")
LABELS = ("wild", "mutated")  # file token of label 0 and label 1


@dataclass(frozen=True)
class Dataset:
    """Immutable (n, T, d) float64 frames with each sample's id, group tag
    and label (0 wild, 1 mutated; a read-only int64 array), T >= 3 and
    both classes present.

    ``pairing`` records which (wild_tag, mutated_tag) pair the dataset
    represents, when known.
    """

    frames: np.ndarray
    sample_ids: tuple[str, ...]
    tags: tuple[str, ...]
    labels: np.ndarray
    pairing: tuple[str, str] | None = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 3:
            raise DataFormatError(f"frames must be 3-D (n, T, d), got shape {frames.shape}")
        n, t = frames.shape[:2]
        if n == 0:
            raise DataFormatError("dataset has no samples")
        if t < 3:
            raise DataFormatError(f"need at least 3 frames per sample, got {t}")
        for name in ("sample_ids", "tags"):
            values = tuple(getattr(self, name))
            if len(values) != n:
                raise DataFormatError(f"{name}: {len(values)} entries for {n} samples")
            object.__setattr__(self, name, values)
        labels = np.asarray(self.labels)
        if labels.shape != (n,):
            raise DataFormatError(f"labels: shape {labels.shape} for {n} samples")
        if not np.isin(labels, (0, 1)).all():
            raise DataFormatError("labels must be 0 (wild) or 1 (mutated)")
        if not np.isfinite(frames).all():
            raise DataFormatError("frames contain non-finite values")
        labels = labels.astype(np.int64)
        if labels.min() == labels.max():
            raise DataFormatError(f"dataset contains a single class ({LABELS[labels[0]]})")
        frames.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.frames.shape[0]

    @property
    def n_frames(self) -> int:
        return self.frames.shape[1]

    @property
    def n_coords(self) -> int:
        return self.frames.shape[2]

    def group_tags(self) -> list[str]:
        return list(self.tags)


def split_by_pairing(dataset: Dataset, wild_tag: str, mutated_tag: str) -> Dataset:
    """Select the samples of the two groups and relabel them by tag.

    Group tags are authoritative for pairings: whatever labels the
    samples carried, members of ``wild_tag`` come out 0 (wild) and
    members of ``mutated_tag`` come out 1 (mutated). The frames are a
    copy, so the full dataset can be released once its pairings are
    split.
    """
    if wild_tag == mutated_tag:
        raise ConfigError(f"pairing needs two distinct tags, got {wild_tag!r} twice")
    role = {wild_tag: 0, mutated_tag: 1}
    picked = [i for i, tag in enumerate(dataset.tags) if tag in role]
    tags = [dataset.tags[i] for i in picked]
    for tag in (wild_tag, mutated_tag):
        if tag not in tags:
            raise DataFormatError(f"no samples tagged {tag!r}")
    return Dataset(
        dataset.frames[picked],
        [dataset.sample_ids[i] for i in picked],
        tags,
        [role[tag] for tag in tags],
        pairing=(wild_tag, mutated_tag),
    )


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
        for i in sorted(range(dataset.n_samples), key=dataset.sample_ids.__getitem__):
            meta = [dataset.sample_ids[i], dataset.tags[i], LABELS[dataset.labels[i]]]
            for t, values in enumerate(dataset.frames[i]):
                writer.writerow(meta + [str(t)] + [repr(float(v)) for v in values])
    write_manifest(_manifest_path(path), dataset)


def load_csv(path: str | os.PathLike) -> Dataset:
    """Load a dataset written by `write_csv` (or anything matching its schema).

    Validates the header, id order, frame_index contiguity, shared T
    and d, numeric parse of every value, and presence of both classes.
    Fields follow `csv` quoting, values parse as Python `float`, and the
    first bad line in file order is the one reported.

    A plain file (no quote and none of U+001C..U+001F in any record) is
    read in one streaming pass through numpy's reader. Any other file,
    and any file that breaks a rule or holds a value numpy refuses, is
    read record by record with `csv` and `float()`, which reports its
    first bad record.
    """
    try:
        loaded = _load_plain(path)
        if loaded is None:
            loaded = _load_exact(path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    block, samples = loaded
    if not samples.starts:
        raise DataFormatError(f"{path}: no data rows")
    ids, tags, labels = zip(*samples.starts)
    pairing = None
    manifest = _manifest_path(path)
    if os.path.exists(manifest):
        meta = read_manifest(manifest)
        if "wild_tag" in meta and "mutated_tag" in meta:
            pairing = (meta["wild_tag"], meta["mutated_tag"])
            if not all(pairing) or pairing[0] == pairing[1]:
                raise DataFormatError(
                    f"{manifest}: wild_tag and mutated_tag must be two distinct non-empty tags, got {pairing}"
                )
    # a view: the parsed block is the dataset's storage
    return Dataset(block.reshape(len(ids), samples.n_frames, block.shape[1]), ids, tags, labels, pairing=pairing)


# Characters that csv or float() read differently from numpy's reader: a
# quote, and U+001C..U+001F, which numpy strips as whitespace and float()
# refuses. A record holding one is not plain.
_NOT_PLAIN = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


class _NotPlain(ValueError):
    """Raised inside numpy's reader to give up the plain pass."""


def _load_plain(path) -> tuple[np.ndarray, _Identity] | None:
    """Every record's coordinates in one `np.loadtxt` call.

    Returns the (rows, d) block and its checked `_Identity`, or None, for
    `_load_exact` to decide, as soon as a record is not plain, breaks a
    rule or holds a value numpy refuses, and when a value is not finite.
    A wrong field count shows as a row numpy refuses or as a block of
    the wrong shape.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        d = _read_header(path, fh)
        samples = _Identity(path, d)

        def coordinates():
            for lineno, line in enumerate(fh, start=2):
                if any(c in line for c in _NOT_PLAIN):
                    raise _NotPlain
                sid, tag, token, idx_text, text = line.rstrip("\r\n").split(",", 4)
                samples.check(lineno, sid, tag, token, idx_text)
                yield text
            samples.finish()

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy's refusals, a record of under 5 fields, _NotPlain, a
            # DataFormatError and undecodable bytes are all ValueErrors
            try:
                block = np.loadtxt(coordinates(), delimiter=",", comments=None, ndmin=2)
            except ValueError:
                return None
    if block.shape != (len(samples.starts) * samples.n_frames, d) or not np.isfinite(block).all():
        return None
    return block, samples


def _load_exact(path) -> tuple[np.ndarray, _Identity]:
    """Every record through `csv.reader` and every value through `float()`,
    in file order, so the first bad record is the one reported."""
    from array import array  # here, so that a plain load maps no extra module

    values = array("d")
    with open(path, newline="", encoding="utf-8") as fh:
        d = _read_header(path, fh)
        samples = _Identity(path, d)
        lineno = 1
        try:
            for lineno, fields in enumerate(csv.reader(fh), start=2):
                if len(fields) != d + 4:
                    raise DataFormatError(f"{path}:{lineno}: expected {d + 4} fields, got {len(fields)}")
                samples.check(lineno, *fields[:4])
                try:
                    row = [float(v) for v in fields[4:]]
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: non-numeric coordinate value") from None
                if not all(map(math.isfinite, row)):
                    raise DataFormatError(f"{path}:{lineno}: non-finite coordinate value")
                values.extend(row)
        except csv.Error as exc:  # e.g. a field over csv's size limit, raised before its record is numbered
            raise DataFormatError(f"{path}:{lineno + 1}: {exc}") from None
        samples.finish()
    return np.frombuffer(values).reshape(-1, d), samples


def _read_header(path, fh) -> int:
    """Read and check the header record; return the coordinate count d."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}:1: {exc}") from None
    _check_header(path, header)
    return len(header) - 4


class _Identity:
    """The rules on a data record's sample_id, group_tag, label and
    frame_index, checked one record at a time in file order.

    ``starts`` holds each sample's id, tag and label, and ``n_frames``
    the first sample's frame count, which every sample must share. A
    sample's frame count is checked when the next sample begins, or at
    `finish`.
    """

    def __init__(self, path, d: int):
        self.path = path
        self.d = d
        self.n_frames = 0
        self.starts: list[tuple[str, str, int]] = []
        self._seen: set[str] = set()
        self._current = (None, None, None)  # id, tag and label token
        self._count = 0

    def check(self, lineno: int, sid: str, tag: str, token: str, idx_text: str) -> None:
        path = self.path
        if sid != self._current[0]:
            self.finish()
            if sid in self._seen:
                raise DataFormatError(f"{path}:{lineno}: rows for sample {sid!r} are not contiguous")
            if self.starts and sid < self._current[0]:
                raise DataFormatError(f"{path}: rows are not sorted by sample_id")
            if token not in LABELS:
                raise DataFormatError(f"{path}:{lineno}: unknown label token {token!r}")
            self._seen.add(sid)
            self.starts.append((sid, tag, LABELS.index(token)))
            self._current, self._count = (sid, tag, token), 0
        elif (sid, tag, token) != self._current:
            raise DataFormatError(f"{path}:{lineno}: sample {sid!r} changes group_tag or label mid-file")
        if idx_text != str(self._count):
            raise DataFormatError(
                f"{path}:{lineno}: frame_index {idx_text!r} out of order (expected {self._count})"
            )
        self._count += 1

    def finish(self) -> None:
        """Check the frame count of the sample that the last record ended."""
        sid, count = self._current[0], self._count
        if self.starts and count < 3:
            raise DataFormatError(f"sample {sid!r}: need at least 3 frames, got {count}")
        if len(self.starts) == 1:
            self.n_frames = count
        elif count != self.n_frames:  # 0 and 0 before the first sample
            raise DataFormatError(f"sample {sid!r} has shape {(count, self.d)}, expected {(self.n_frames, self.d)}")


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
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
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
            raise ConfigError("n_per_class must be >= 1", ("n_per_class",))
        if self.n_frames < 3:
            raise ConfigError("n_frames must be >= 3", ("n_frames",))
        if self.n_coords < 1:
            raise ConfigError("n_coords must be >= 1", ("n_coords",))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}", (f.name,))
        for name in ("noise_sd", "intercept_sd", "ripple_gap"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}", (name,))
        for name in ("wild_tag", "mutated_tag"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty", (name,))
        if self.wild_tag == self.mutated_tag:
            raise ConfigError(
                f"wild_tag and mutated_tag must differ, both are {self.wild_tag!r}", ("wild_tag", "mutated_tag")
            )
        if self.signal_window is not None:
            s0, s1 = self.signal_window
            if not (0 <= s0 < s1 <= self.n_frames - 1):
                raise ConfigError(
                    f"signal_window {self.signal_window} out of range for "
                    f"T={self.n_frames}",
                    ("signal_window",),
                )


def class_mean_trajectory(cfg: SyntheticConfig, c: int) -> np.ndarray:
    """Noise-free (T, d) mean trajectory for class c (0 wild, 1 mutated)."""
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
    n = cfg.n_per_class
    frames = np.empty((2 * n, cfg.n_frames, cfg.n_coords))
    ids, tags, labels = [], [], []
    for c, tag in enumerate((cfg.wild_tag, cfg.mutated_tag)):
        mean = class_mean_trajectory(cfg, c)
        for i in range(n):
            intercept = rng.standard_normal(cfg.n_coords) * cfg.intercept_sd
            noise = rng.standard_normal((cfg.n_frames, cfg.n_coords)) * cfg.noise_sd
            frames[c * n + i] = mean + intercept[None, :] + noise
            ids.append(f"{tag}_{i:03d}")
            tags.append(tag)
            labels.append(c)
    return Dataset(frames, ids, tags, labels, pairing=(cfg.wild_tag, cfg.mutated_tag))
