"""Deterministic RNG fan-out.

A master seed expands into independent substreams keyed by (seed, label,
index): the label is hashed with crc32 and the triple feeds a SeedSequence.
Adding a new labeled purpose never perturbs existing streams.
"""

import zlib

import numpy as np


def substream_seed(master_seed: int, label: str, index: int = 0) -> np.random.SeedSequence:
    """The SeedSequence of (master_seed, label, index). A seed or index that
    is not an integer, or is a bool, raises ValueError: int() would truncate
    it onto another stream."""
    for name, val in (("seed", master_seed), ("index", index)):
        if not (type(val) is int or isinstance(val, np.integer)):
            raise ValueError(f"substream {name} must be an integer, got {val!r}")
    return np.random.SeedSequence([int(master_seed), zlib.crc32(label.encode()), int(index)])


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(substream_seed(master_seed, label, index))
