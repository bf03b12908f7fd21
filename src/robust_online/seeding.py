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

Raw outputs.  PCG64 serves a 32-bit word as the low half of its next
64-bit output and keeps the high half buffered as the next word.
rng.integers(k) for 1 < k <= 2^32 is Lemire's step on words (Lemire,
"Fast Random Integer Generation in an Interval", 2019): with m = w * k,
the draw is m >> 32 unless the low 32 bits of m are below 2^32 mod k,
when the next word is tried; rng.integers(1) reads nothing.
rng.random() is the top 53 bits of the next whole output times 2^-53,
and a buffered half stays next in line; rng.uniform(a, b) is
a + (b - a) * rng.random().  rng.permutation(n) swaps each i from n - 1
down to 1 with j, the first word masked to i's bit length that is at
most i (NumPy's random_interval).  The block rule: an array call makes
its scalar calls in order, so rng.integers(lo, hi, size=(r, n)) gives
the rows of r calls rng.integers(lo, hi, size=n), rng.random(n) the
values of n calls rng.random(), and either leaves the stream where those
calls would.  This is NumPy's implementation, not its promise:
NEP 19 fixes the bit generators' streams, not what Generator's methods
make of them, so tests/test_seeding.py checks it call for call.

Draws reads raw outputs in blocks, ahead of its draws, so it suits only
a stream its caller owns.  BoundedDraws decodes rng.integers(k) on a
caller's Generator and leaves it where the scalar calls would: a block
holds only the words the scalar run is certain to draw from that point
on, and the next block, after a rejection or a draw the count did not
foresee, is the certain count again.  label_bytes decodes
rng.integers(0, 2, size=n) on a new stream: the bound 2 never rejects
and takes a word's top bit, so draw 2i is bit 31 of output i and draw
2i + 1 its bit 63; it drops an odd n's last high half.
"""

import functools
import hashlib
import struct

import numpy as np

_WORDS = np.dtype("<u4")
_STATE = np.dtype(np.uint64)
_PACK_STATE = struct.Struct("=4Q").pack
_TOP_BIT = bytes(b >> 7 for b in range(256))
_BLOCK = 64  # 64-bit outputs a Draws reads at a time


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
    """rng.integers(0, 2, size=n) of a new stream nothing else draws from, as
    n bytes of 0 and 1 on any host: bit 7 of little-endian bytes 3, 7, 11..."""
    raw = rng.bit_generator.random_raw((n + 1) // 2)
    return raw.astype("<u8", copy=False).tobytes()[3::4][:n].translate(_TOP_BIT)


def _kept(m: int, k: int) -> bool:
    """Whether Lemire's step for the bound k keeps m, a 32-bit word times k."""
    low = m & 0xFFFFFFFF
    return low >= k or low >= (1 << 32) % k


@functools.lru_cache(maxsize=16)
def _rejected(k: int) -> frozenset[int]:
    """The words Lemire's step rejects for the bound k, from k candidates:
    the low 32 bits of a rejected w * k are below k, so w = ceil(j * 2^32 / k)."""
    return frozenset(w for w in (-((-j << 32) // k) for j in range(k)) if not _kept(w * k, k))


class Draws:
    """The scalar draws of derive_rng(*parts), decoded from blocks of raw
    outputs by the rules above, for a caller that owns the stream."""

    __slots__ = ("bits", "words", "at")

    def __init__(self, *parts):
        self.bits = np.random.PCG64(derive_seed_sequence(*parts))
        # the outputs' 32-bit halves, low first; words[at] is PCG64's buffered half while at is odd
        self.words, self.at = [], 0

    def _read(self, count: int) -> None:
        """Make words[at:at + count] available: drop the outputs read, add a block."""
        del self.words[: self.at & ~1]
        self.at &= 1
        raw = self.bits.random_raw(max(_BLOCK, count // 2 + 1))
        self.words += raw.astype("<u8", copy=False).view(_WORDS).tolist()

    def _word(self) -> int:
        if self.at == len(self.words):
            self._read(1)
        self.at += 1
        return self.words[self.at - 1]

    def integers(self, k: int) -> int:
        """rng.integers(k) for 1 <= k <= 2^32; k = 1 reads nothing."""
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"bound {k} is outside 1..2**32")
        while k > 1:
            m = self._word() * k
            if _kept(m, k):
                return m >> 32
        return 0

    def random(self, size: int | None = None):
        """rng.random(), or rng.random(size) as a list."""
        n = 1 if size is None else size
        if self.at + 2 * n + 1 > len(self.words):
            self._read(2 * n + 1)
        words, at = self.words, self.at
        start = at + (at & 1)
        out = words[start : start + 2 * n]
        if at & 1:  # the buffered half stays next in line
            words[at + 2 * n] = words[at]
        self.at = at + 2 * n
        values = [(hi << 21 | lo >> 11) * 2.0**-53 for lo, hi in zip(out[::2], out[1::2])]
        return values[0] if size is None else values

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def permutation(self, n: int) -> list[int]:
        """rng.permutation(n) as a list."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            while (j := self._word() & ((1 << i.bit_length()) - 1)) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out

    def rows(self, k: int, r: int, n: int) -> list[tuple[int, ...]]:
        """rng.integers(0, k, size=(r, n)) for 1 < k <= 2^32, as r tuples."""
        if not 1 < k <= 1 << 32:
            raise ValueError(f"bound {k} is outside 2..2**32")
        if self.at + r * n > len(self.words):
            self._read(r * n)
        words = self.words[self.at : self.at + r * n]
        if _rejected(k).isdisjoint(words) if k <= 1 << 10 else all(_kept(w * k, k) for w in words):
            self.at += r * n
            values = [w * k >> 32 for w in words]
        else:  # a rejection reads one word more: decode the block draw by draw
            values = [self.integers(k) for _ in range(r * n)]
        return list(zip(*[iter(values)] * n))


class BoundedDraws:
    """rng.integers(k) on a caller's Generator, from blocks of 32-bit words
    (see above): integer(k, certain) for 1 < k <= 2^32, when the scalar run
    is certain to read `certain` words or more from this draw on, its own too."""

    __slots__ = ("rng", "words", "at")

    def __init__(self, rng: np.random.Generator):
        self.rng, self.words, self.at = rng, [], 0

    def integer(self, k: int, certain: int) -> int:
        if not 1 < k <= 1 << 32:
            raise ValueError(f"bound {k} is outside 2..2**32")
        while True:
            if self.at == len(self.words):
                self._refill(max(certain, 1))
            m = self.words[self.at] * k
            self.at += 1
            if _kept(m, k):
                return m >> 32

    def _refill(self, n: int) -> None:
        """The next n words, by scalar calls below three."""
        if n > 2:
            self.words = self.rng.integers(0, 1 << 32, size=n, dtype=np.uint32).tolist()
        else:
            self.words = [int(self.rng.integers(1 << 32)) for _ in range(n)]
        self.at = 0
