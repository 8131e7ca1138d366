"""Reproducible per-trial RNG derivation.

Trial i of an experiment always uses ``derive_rng(master_seed, i)``, so
results are independent of trial scheduling: sequential and parallel runs
produce bit-identical output.
"""

from __future__ import annotations

import hashlib
import random
import struct


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-mode derivation: hash (master_seed, index) to 64 bits.

    The master seed is masked to its low 63 bits, so seeds that agree there
    (such as -1 and 2^63 - 1) derive the same stream; the CLI accepts only
    seeds in [0, 2^63), where the mask changes nothing.
    """
    payload = struct.pack("<qq", master_seed & (2**63 - 1), index)
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(master_seed: int, index: int) -> random.Random:
    return random.Random(derive_seed(master_seed, index))
