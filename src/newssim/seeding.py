"""Deterministic seed derivation for experiment fan-out.

Every random stream in an experiment is keyed by (master_seed, *labels).
Streams depend only on their label path, never on execution order, so adding
cells to a plan cannot perturb the randomness of existing cells, and any cell
can be replayed in isolation.
"""

from __future__ import annotations

import hashlib


def derive_seed(master_seed: int, *labels) -> int:
    """Return a stable 128-bit integer seed for (master_seed, *labels)."""
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode("utf-8"))
    for label in labels:
        h.update(b"\x1f")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "big")


def derive_rng(master_seed: int, *labels):
    """numpy Generator seeded from the derived stream label."""
    import numpy as np  # imported here so this module loads without numpy

    return np.random.default_rng(derive_seed(master_seed, *labels))
