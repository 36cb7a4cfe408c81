"""Deterministic sub-seed derivation.

Every random decision in the package (weight init, shuffling, fold
assignment, synthetic data) draws from a generator seeded through `derive`,
so one top-level seed pins the whole pipeline regardless of evaluation
order or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive(seed: int, *parts: object) -> int:
    """Derive a child seed from ``seed`` and a label path.

    The label path is joined as text and hashed, so the same
    (seed, parts) always yields the same child seed and distinct
    paths decorrelate. Returns an int in [0, 2**64).
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = "|".join([str(int(seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(seed: int, *parts: object) -> np.random.Generator:
    """Generator seeded by the derived child seed."""
    return np.random.default_rng(derive(seed, *parts))
