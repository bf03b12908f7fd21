"""Deterministic RNG derivation.

Every random draw in the package flows from a named stream derived by
hashing (seed, *labels), so adding a consumer never perturbs the draws of
existing ones and runs replay byte-for-byte across platforms.

The chain is: the parts' str() forms joined by "\\x1f", then SHA-256 of
that text's UTF-8 bytes, then the 32-byte digest read as eight
little-endian uint32 words, then a SeedSequence over those words, then
PCG64.  Its one seeding call, generate_state(4, np.uint64), is answered
in straight-line Python from NumPy's pool with SeedSequence's hash
constants; NumPy's stream-compatibility policy (NEP 19) fixes those
words across releases, and tests/test_seeding.py checks them.

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
label_bytes reads them from one bit_generator.random_raw call, as bit 7
of every fourth little-endian byte from byte 3, which one bytes.translate
maps to 0 or 1, and leaves the stream on the output after the last one
it read, as the array call does.  The array call keeps an odd n's unused
high half buffered for a later 32-bit draw, and label_bytes does not,
so it suits a stream nothing else draws from, as the random-label
probe's.
"""

import hashlib
import struct

import numpy as np

_WORDS = np.dtype("<u4")
_STATE = np.dtype(np.uint64)
_PACK_STATE = struct.Struct("=4Q").pack
_TOP_BIT = bytes(b >> 7 for b in range(256))


class _SeedSequence(np.random.SeedSequence):
    """SeedSequence whose generate_state(4, np.uint64), PCG64's seeding call,
    returns a read-only array.  Word i of the eight 32-bit words is pool[i % 4]
    xor INIT_B * MULT_B^i, times INIT_B * MULT_B^(i + 1), xor-shifted right by
    16, mod 2^32 (INIT_B = 0x8B51F9DD, MULT_B = 0x58F38DED); two make a 64-bit
    word, low first."""

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            return super().generate_state(n_words, dtype)
        p0, p1, p2, p3 = self.pool.tolist()
        a = (p0 ^ 0x8B51F9DD) * 0x464A0A99 & 0xFFFFFFFF
        b = (p1 ^ 0x464A0A99) * 0x819D14A5 & 0xFFFFFFFF
        c = (p2 ^ 0x819D14A5) * 0xD369FDC1 & 0xFFFFFFFF
        d = (p3 ^ 0xD369FDC1) * 0x501638AD & 0xFFFFFFFF
        e = (p0 ^ 0x501638AD) * 0xA600C129 & 0xFFFFFFFF
        f = (p1 ^ 0xA600C129) * 0x8B0167F5 & 0xFFFFFFFF
        g = (p2 ^ 0x8B0167F5) * 0x5C1E2ED1 & 0xFFFFFFFF
        h = (p3 ^ 0x5C1E2ED1) * 0x301D747D & 0xFFFFFFFF
        return np.frombuffer(_PACK_STATE(
            (b ^ b >> 16) << 32 | a ^ a >> 16, (d ^ d >> 16) << 32 | c ^ c >> 16,
            (f ^ f >> 16) << 32 | e ^ e >> 16, (h ^ h >> 16) << 32 | g ^ g >> 16), _STATE)


def derive_seed_sequence(*parts) -> np.random.SeedSequence:
    """SeedSequence over the SHA-256 digest of the parts, viewed in place as
    eight little-endian uint32 words: `.entropy` is that ndarray, and a list
    of the same ints gives the same pool, state and PCG64 stream."""
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
    return _SeedSequence(np.frombuffer(digest, dtype=_WORDS))


def derive_rng(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(*parts)))


def label_bytes(rng: np.random.Generator, n: int) -> bytes:
    """rng.integers(0, 2, size=n) of a stream with no half-word buffered,
    as n bytes of 0 and 1, on any host (see the module docstring)."""
    raw = rng.bit_generator.random_raw((n + 1) // 2)
    return raw.astype("<u8", copy=False).tobytes()[3::4][:n].translate(_TOP_BIT)


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
