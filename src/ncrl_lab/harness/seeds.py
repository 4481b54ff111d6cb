"""Deterministic per-component seeds.

A master seed expands into named per-component seeds so adding or removing
one consumer never perturbs the draws of another. Path components are folded
into the seed via CRC32, which is stable across platforms and processes.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK = (1 << 64) - 1


def derive_seed(master: int, *path) -> int:
    """Stable nonnegative 63-bit seed for the component named by path."""
    parts = [zlib.crc32(repr(p).encode("utf-8")) for p in path]
    sequence = np.random.SeedSequence([int(master) & _MASK, *parts])
    return int(sequence.generate_state(1, np.uint64)[0] >> 1)
