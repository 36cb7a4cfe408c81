"""Workload definitions and the input generator for the benchmark.

Each workload is one `rootgrowth run`: a config file written from the
workload's keys plus the seed, and, for `csv-pairings`, a tracks CSV the
benchmark generates from that seed. The program receives only those files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

ALL_CLASSIFIERS = ("sigmoid_svm", "gaussian_svm", "linear_svm", "mnce", "me", "gated_ncl", "ncl")
SVM_CLASSIFIERS = ("linear_svm", "gaussian_svm", "sigmoid_svm")

# Classifier key -> (layer, kind) of its fit span, as the trace names them.
FIT_KIND = {
    "linear_svm": ("svm", "linear"),
    "gaussian_svm": ("svm", "gaussian"),
    "sigmoid_svm": ("svm", "sigmoid"),
    "ncl": ("ensembles", "ncl"),
    "gated_ncl": ("ensembles", "gated_ncl"),
    "me": ("ensembles", "me"),
    "mnce": ("ensembles", "mnce"),
}


@dataclass(frozen=True)
class CsvShape:
    """A tracks CSV: `groups` as (tag, label) pairs, `per_group` samples each."""

    groups: tuple[tuple[str, str], ...]
    per_group: int
    n_frames: int
    n_coords: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classifiers: tuple[str, ...]
    n_frames: int
    window_length: int
    window_stride: int
    folds: int
    jobs: int
    keys: tuple[tuple[str, object], ...]  # further config keys, in file order
    pairings: tuple[tuple[str, str], ...] = (("wt_syn", "mut_syn"),)
    csv: CsvShape | None = None

    @property
    def windows(self) -> list[tuple[int, int]]:
        last = self.n_frames - self.window_length
        return [(s, s + self.window_length - 1) for s in range(0, last + 1, self.window_stride)]

    @property
    def fits_per_classifier(self) -> int:
        """Fits of one classifier kind in one run: windows x folds x pairings."""
        return len(self.windows) * self.folds * len(self.pairings)

    @property
    def fits(self) -> int:
        return self.fits_per_classifier * len(self.classifiers)

    def config_text(self, seed: int, dataset: str) -> str:
        lines = [
            f"dataset = {dataset}",
            f"classifiers = {', '.join(self.classifiers)}",
            f"window_length = {self.window_length}",
            f"window_stride = {self.window_stride}",
            f"folds = {self.folds}",
            f"jobs = {self.jobs}",
            f"seed = {seed}",
        ]
        if self.csv is not None:
            lines.append("pairings = " + ", ".join(f"{w}:{m}" for w, m in self.pairings))
        lines += [f"{key} = {value}" for key, value in self.keys]
        return "\n".join(lines) + "\n"


def _synthetic(n_per_class: int, n_frames: int, n_coords: int, velocity_gap: float) -> tuple[tuple[str, object], ...]:
    """Generator keys; the velocity gap is set so the SVMs land well between 0 and chance error."""
    return (
        ("synthetic_n_per_class", n_per_class),
        ("synthetic_n_frames", n_frames),
        ("synthetic_n_coords", n_coords),
        ("synthetic_velocity_gap", velocity_gap),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble-wide",
            why="All 7 classifiers at the paper's feature width (3510 columns): a gain that "
            "depends on ensemble working-set size shows here and not in the narrow workload.",
            classifiers=ALL_CLASSIFIERS,
            n_frames=80,
            window_length=40,
            window_stride=10,
            folds=5,
            jobs=1,
            keys=_synthetic(10, 80, 40, 0.001) + (("pca_components", 30), ("epochs", 4)),
        ),
        Workload(
            name="ensemble-narrow-jobs2",
            why="Narrow tip tracks (171 columns) where per-pattern Python overhead dominates; "
            "the only workload on the process pool, 9 windows on 2 workers.",
            classifiers=ALL_CLASSIFIERS,
            n_frames=60,
            window_length=20,
            window_stride=5,
            folds=5,
            jobs=2,
            keys=_synthetic(10, 60, 5, 0.003) + (("pca_components", 3), ("epochs", 5)),
        ),
        Workload(
            name="svm-stride1",
            why="SVMs only on a stride-1 grid: ensemble changes must read no change here, "
            "and cheap fits expose slicing and cross-validation loop overhead.",
            classifiers=SVM_CLASSIFIERS,
            n_frames=64,
            window_length=40,
            window_stride=1,
            folds=5,
            jobs=1,
            keys=_synthetic(20, 64, 5, 0.001) + (("pca_components", 3),),
        ),
        Workload(
            name="csv-pairings",
            why="Reads a 14 MB tracks CSV and runs two pairings with SVMs only: set-up layers "
            "(load, PCA, assembly) do most of their work here, and ensemble changes must read no change.",
            classifiers=("linear_svm", "gaussian_svm"),
            n_frames=300,
            window_length=40,
            window_stride=20,
            folds=5,
            jobs=1,
            keys=(),
            pairings=(("wtS2", "331S2"), ("wtS3", "331S3")),
            csv=CsvShape(
                groups=(("wtS2", "wild"), ("331S2", "mutated"), ("wtS3", "wild"), ("331S3", "mutated")),
                per_group=10,
                n_frames=300,
                n_coords=60,
            ),
        ),
    )
}


def write_tracks_csv(path: str | os.PathLike, shape: CsvShape, seed: int) -> None:
    """Write a tracks CSV in the program's input format; same seed, same bytes.

    Every sample is a trajectory drifting along a fixed set of coordinate
    loadings, with per-group speed, per-sample speed jitter and per-frame
    noise; mutated groups grow slightly slower. Values are written in
    shortest round-trip form, as the program's own `write_csv` writes them.
    """
    rng = np.random.default_rng([seed, 0x7261636B])
    loadings = rng.standard_normal(shape.n_coords)
    t = np.arange(shape.n_frames, dtype=np.float64)[:, None]
    header = ["sample_id", "group_tag", "label", "frame_index"]
    header += [f"v{j}" for j in range(shape.n_coords)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        sample = 0
        for tag, label in shape.groups:
            speed = 0.010 if label == "wild" else 0.007
            for _ in range(shape.per_group):
                jitter = 1.0 + 0.1 * rng.standard_normal()
                offset = 0.5 * rng.standard_normal(shape.n_coords)
                noise = 0.2 * rng.standard_normal((shape.n_frames, shape.n_coords))
                frames = offset + speed * jitter * t * loadings + noise
                prefix = f"s{sample:04d},{tag},{label},"
                fh.writelines(
                    prefix + f"{i}," + ",".join(map(repr, row)) + "\n"
                    for i, row in enumerate(frames.tolist())
                )
                sample += 1
