"""Deterministic seed derivation for every random stream in the package.

All randomness flows from a single master seed. Each consumer derives its own
stream with :func:`derive_seed`, which hashes the master seed together with a
tuple of string/int labels (blake2b, 8-byte digest) and feeds the result to
``numpy.random.default_rng``. Streams with different labels are independent
for all practical purposes, and adding a new consumer never perturbs existing
ones.

Label conventions used across the package:

=====================  =======================================================
labels                 consumer
=====================  =======================================================
("delay_space",
 kind, "coords")       coordinate generation in :mod:`p2pcast.delay_space`
("delay_space",
 kind, "shuffle")      node-order shuffle for clustered spaces
("capacities",)        upload-capacity sampling in the harness
("build",)             all in-build random choices (random uploader picks and
                       the small-world final connection). Deliberately policy-
                       independent so that FR and GR consume identical streams.
("cell", policy,
 dist, n, run)         per-cell seed in the experiment harness
=====================  =======================================================
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"  # unit separator; keeps ("ab","c") distinct from ("a","bc")


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    Stable across runs, platforms and Python versions (pure blake2b).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode("ascii"))
    for label in labels:
        h.update(_SEP)
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def make_rng(master_seed: int, *labels: object) -> np.random.Generator:
    """A ``numpy.random.Generator`` seeded from ``derive_seed(master, *labels)``."""
    return np.random.default_rng(derive_seed(master_seed, *labels))
