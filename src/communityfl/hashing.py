"""Stable hashing helpers used for seeds, identifiers, and weight digests.

Everything here must be deterministic across processes and platforms, so
Python's salted ``hash()`` is never used.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = "\x1f"


def stable_u64(*parts: object) -> int:
    """Deterministically map the given parts to an unsigned 64-bit integer."""
    blob = _SEP.join(map(str, parts)).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big")


def weights_digest(values: np.ndarray) -> int:
    """64-bit digest of a weight vector's canonical little-endian float64 bytes."""
    blob = np.ascontiguousarray(values, dtype="<f8").tobytes()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big")


def digest_hex(digest: int) -> str:
    """Render a 64-bit digest as a fixed-width hex string for artifacts."""
    return f"{digest:016x}"
