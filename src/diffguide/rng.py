"""Deterministic RNG fan-out, and the library's scalar argument checks.

A master seed expands into independent substreams keyed by (seed, label,
index): the label is hashed with crc32 and the triple feeds a SeedSequence.
Adding a new labeled purpose never perturbs existing streams.

Seeds, counts and sizes are checked by check_integer, diffusion steps and
class labels by check_index, and real-valued settings by check_number, so
each kind of argument is refused by one rule with one message.
"""

import zlib

import numpy as np


def check_integer(val, name: str, low: int = 0) -> None:
    """Raise ValueError unless val is a Python or numpy integer >= low; int()
    would truncate a float or read a bool as 0 or 1 and run another seed."""
    if not (type(val) is int or isinstance(val, np.integer)) or val < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {val!r}")


def check_index(val, stop: int, name: str, rows: int | None = None) -> None:
    """Raise ValueError unless val is an integer in [0, stop) or an integer
    array of such values, one per row when rows is given. A negative index
    would otherwise wrap round to the last row, a float would truncate or
    not index at all and a bool would index as a mask. One integer, the
    sampler's case, costs a comparison and no array."""
    if type(val) is int or isinstance(val, np.integer):
        if not 0 <= val < stop:
            raise ValueError(f"{name} {val} outside [0, {stop})")
        return
    vals = np.asarray(val)
    if rows is not None and vals.ndim and vals.shape != (rows,):
        raise ValueError(f"{name} of shape {vals.shape}: expected one value, or {rows} values, one per row")
    if vals.dtype.kind not in "iu":
        got = repr(val) if vals.ndim == 0 else f"{vals.dtype} of shape {vals.shape}"
        raise ValueError(f"{name} must be an integer in [0, {stop}), got {got}")
    if vals.size and (vals.min() < 0 or vals.max() >= stop):
        raise ValueError(f"{name} {vals[(vals < 0) | (vals >= stop)].flat[0]} outside [0, {stop})")


def is_number(val) -> bool:
    """Whether val is a Python or numpy real number; a bool is not one."""
    return isinstance(val, (int, float, np.integer, np.floating)) and not isinstance(val, bool)


def check_number(val, name: str) -> None:
    """Raise ValueError unless val is a real number (NaN and inf included,
    for the caller's range check); a bool would run as 0 or 1 and a string
    or None fail inside numpy."""
    if not is_number(val):
        raise ValueError(f"{name} must be a real number, got {val!r}")


def substream_seed(master_seed: int, label: str, index: int = 0) -> np.random.SeedSequence:
    """The SeedSequence of (master_seed, label, index); a seed or index that
    is not an integer >= 0 raises ValueError."""
    check_integer(master_seed, "substream seed")
    check_integer(index, "substream index")
    return np.random.SeedSequence([int(master_seed), zlib.crc32(label.encode()), int(index)])


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(substream_seed(master_seed, label, index))
