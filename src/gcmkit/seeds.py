"""Deterministic derivation of independent random streams from one master seed."""

import hashlib

import numpy as np


def derive_seed(master_seed: int, label: str) -> int:
    """Derive a child seed for the stream named ``label``.

    The derivation is a keyed hash, so child streams are statistically
    independent, stable across platforms and runs, and safe to compute
    concurrently in any order.
    """
    digest = hashlib.blake2b(f"{master_seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def rng_for(master_seed: int, label: str) -> "np.random.Generator":
    """A fresh generator seeded for the stream named ``label``.

    The annotation is a string, so importing this module does not load
    ``numpy.random``: commands that draw nothing never pay for it."""
    return np.random.default_rng(derive_seed(master_seed, label))
