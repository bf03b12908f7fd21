"""Deterministic RNG derivation.

Every random draw in the package flows from a named stream derived by
hashing (seed, *labels), so adding a consumer never perturbs the draws of
existing ones and runs replay byte-for-byte across platforms.

The chain is: the parts' str() forms joined by "\\x1f", then SHA-256 of
that text's UTF-8 bytes, then the 32-byte digest read as eight
little-endian uint32 words, then a SeedSequence over those words, then
PCG64.
"""

import hashlib

import numpy as np


def derive_seed_sequence(*parts) -> np.random.SeedSequence:
    """SeedSequence over the SHA-256 digest of the parts.

    The 32-byte digest is viewed in place as eight little-endian uint32
    words, so `.entropy` is that uint32 ndarray, not a list.  SeedSequence
    reads a list of the same eight ints into the same array, so the pool,
    `generate_state` and every PCG64 stream equal that list's.
    """
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in parts).encode()
    ).digest()
    return np.random.SeedSequence(np.frombuffer(digest, dtype="<u4"))


def derive_rng(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(*parts)))
