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

Bounded draws from raw words.  When each bound depends on the draw
before it, no block of bounded integers fits, but a block of raw 32-bit
words does.  rng.integers(0, 2**32, size=m, dtype=np.uint32) returns the
bit generator's next m 32-bit outputs (a half of a 64-bit output left
buffered by an earlier draw comes first), and rng.integers(k) for
1 < k <= 2^32 is Lemire's multiply-and-reject step on those outputs
(Lemire, "Fast Random Integer Generation in an Interval", 2019): with
m = w * k, the draw is m >> 32 unless the low 32 bits of m are below
2^32 mod k, in which case w is rejected and the next word is tried.
BoundedDraws replays that step, so its draws and the stream's position
after them are those of the scalar calls.  Its blocks follow the rule
above: a block holds only the words the scalar run is certain to draw
from that point on, and when it runs out (after a rejection, or a draw
the count did not foresee) the next block is the certain count again.
A block of one or two words is read by as many rng.integers(2**32)
calls instead, each of which returns one 32-bit output.

Labels from raw words.  rng.integers(0, 2, size=n) fills its n draws
from the bit generator's 32-bit outputs, and a 64-bit output gives two
of those, low half first.  Lemire's step for the bound 2 never rejects,
since 2^32 mod 2 = 0, and returns the top bit of its word.  So on a
stream with no half-word buffered, such as a new one, draw 2i is bit 31
of the stream's next 64-bit output i and draw 2i + 1 its bit 63.
label_bytes reads them from one bit_generator.random_raw call as bytes
of 0 and 1, and leaves the stream on the output after the last one it
read, as the array call does.  The array call keeps an odd n's unused
high half buffered for a later 32-bit draw, and label_bytes does not,
so it suits a stream nothing else draws from, as the random-label
probe's.
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


def label_bytes(rng: np.random.Generator, n: int) -> bytes:
    """rng.integers(0, 2, size=n) of a stream with no half-word buffered,
    as n bytes of 0 and 1 decoded from raw 64-bit words.  The words are
    read as little-endian bytes, so the top bit of each 32-bit half is
    bit 7 of bytes 3 and 7, on any host."""
    raw = rng.bit_generator.random_raw((n + 1) // 2)
    return (raw.astype("<u8", copy=False).view(np.uint8)[3::4] >> 7)[:n].tobytes()


class BoundedDraws:
    """Scalar rng.integers(k) draws decoded from blocks of 32-bit words.

    integer(k, certain) returns rng.integers(k) for 1 < k <= 2^32 and
    moves the stream as that call does, given that the scalar run is
    certain to read at least `certain` words from this draw on, this
    draw's own word included.  rng.integers(1) reads no word, so a caller
    skips that draw.
    """

    __slots__ = ("rng", "words", "at")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.words: list[int] = []
        self.at = 0

    def integer(self, k: int, certain: int) -> int:
        if not 1 < k <= 1 << 32:
            raise ValueError(f"bound {k} is outside 2..2**32")
        while True:
            if self.at == len(self.words):
                self._refill(certain)
            m = self.words[self.at] * k
            self.at += 1
            low = m & 0xFFFFFFFF
            if low >= k or low >= (1 << 32) % k:
                return m >> 32

    def _refill(self, certain: int) -> None:
        """The next max(certain, 1) words.  Each rng.integers(2**32) call
        returns one 32-bit output, and below three words those calls cost
        less than the array call's fixed overhead."""
        rng = self.rng
        if certain > 2:
            self.words = rng.integers(0, 1 << 32, size=certain, dtype=np.uint32).tolist()
        else:
            self.words = [int(rng.integers(1 << 32)) for _ in range(max(certain, 1))]
        self.at = 0
