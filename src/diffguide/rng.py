"""Deterministic RNG fan-out.

A master seed expands into independent substreams keyed by (seed, label,
index): the label is hashed with crc32 and the triple feeds a SeedSequence.
Adding a new labeled purpose never perturbs existing streams.
"""

import zlib

import numpy as np


def check_integer(val, name: str, low: int = 0) -> None:
    """Raise ValueError unless val is a Python or numpy integer >= low; int()
    would truncate a float or read a bool as 0 or 1 and run another seed."""
    if not (type(val) is int or isinstance(val, np.integer)) or val < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {val!r}")


def substream_seed(master_seed: int, label: str, index: int = 0) -> np.random.SeedSequence:
    """The SeedSequence of (master_seed, label, index); a seed or index that
    is not an integer >= 0 raises ValueError."""
    check_integer(master_seed, "substream seed")
    check_integer(index, "substream index")
    return np.random.SeedSequence([int(master_seed), zlib.crc32(label.encode()), int(index)])


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(substream_seed(master_seed, label, index))
