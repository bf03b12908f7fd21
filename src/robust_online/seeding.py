"""Deterministic RNG derivation.

Every random draw in the package flows from a named stream derived by
hashing (seed, *labels), so adding a consumer never perturbs the draws of
existing ones and runs replay byte-for-byte across platforms.

The chain is: the parts' str() forms joined by "\\x1f", then SHA-256 of
that text's UTF-8 bytes, then the 32-byte digest read as eight
little-endian uint32 words, then a SeedSequence over those words, then
PCG64.

Block draws.  A generator may draw a block of values in one call where it
means a run of scalar calls, and the stream stays exact.  NumPy fills an
array of bounded integers one value at a time, with the rejection step a
scalar call makes, from the bit generator's 32-bit outputs (for a bound
of at most 2^32), and an array of uniform doubles from one 64-bit output
per value.  So rng.integers(lo, hi, size=(r, n)) returns the rows of r
calls rng.integers(lo, hi, size=n), and rng.random(n) the values of n
calls rng.random(), and either leaves the stream where those calls
would.  A block must hold only draws the scalar run would make: drawn
past the run's end, it moves every later draw.  tests/test_seeding.py
pins the rule on the installed NumPy.
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
