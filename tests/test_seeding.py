"""Golden values of the derived streams, and the block-draw rule.

The numbers were recorded from the list-of-words construction.  A change
to the derivation, or a NumPy release that moves SeedSequence or PCG64,
fails here instead of silently shifting every seeded result.  The seed
words PCG64 reads are computed in Python from the SeedSequence pool; a
property checks them against NumPy's own SeedSequence on random entropies.

The generators draw blocks where they mean runs of scalar draws (the
rule in the `seeding` docstring).  The last tests check that rule on the
installed NumPy: a block, or a bounded draw decoded from blocks of raw
words, gives the scalar calls' values and leaves the stream where they
leave it, and labels decoded from raw 64-bit words equal the array call
they stand for on a new stream.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_online import derive_rng, derive_seed_sequence
from robust_online.seeding import BoundedDraws, _SeedSequence, label_bytes


def test_seed_sequence_state_is_pinned():
    ss = derive_seed_sequence(0, "conform", 2, 0, 0)
    assert ss.generate_state(4).tolist() == [3229571402, 3693845333, 579808863, 3343452763]


def test_pcg64_seed_words_are_pinned():
    # the one call PCG64 makes while seeding, answered from the pool in Python
    ss = derive_seed_sequence(0, "conform", 2, 0, 0)
    assert ss.generate_state(4, np.uint64).tolist() == [
        15864944904946800970,
        14360020273385647711,
        14929440178745268507,
        11832497011178688173,
    ]


WORDS = st.lists(st.integers(0, 2**32 - 1), min_size=8, max_size=8)


@settings(max_examples=200, deadline=None, database=None)
@given(WORDS)
def test_seed_words_equal_numpys_seed_sequence(words):
    entropy = np.array(words, dtype=np.uint32)
    ours, numpys = _SeedSequence(entropy), np.random.SeedSequence(entropy)
    for dtype in (np.uint32, np.uint64):
        for n in range(1, 10):
            got, want = ours.generate_state(n, dtype), numpys.generate_state(n, dtype)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(st.integers(), st.text(max_size=8)), max_size=4))
def test_a_derived_stream_equals_numpys_pcg64_over_the_digest_words(parts):
    text = "\x1f".join(map(str, parts))
    digest = hashlib.sha256(text.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    want = np.random.PCG64(np.random.SeedSequence(words))
    got = derive_rng(*parts).bit_generator
    assert got.state == want.state
    assert got.random_raw(3).tolist() == want.random_raw(3).tolist()


def test_pcg64_stream_is_pinned():
    rng = derive_rng(0, "conform", 2, 0, 0)
    assert rng.bit_generator.random_raw(2).tolist() == [
        12567442306240018438,
        2862138223754560713,
    ]


@pytest.mark.parametrize("bound", [2, 3, 7, 2**31])
@pytest.mark.parametrize("rows, n", [(1, 1), (7, 5), (4, 6)])
def test_an_integer_block_equals_its_rows_drawn_one_call_each(bound, rows, n):
    # 7 x 5 values leave half of a 64-bit output buffered for the next draw
    block, calls = derive_rng(1, "block", bound), derive_rng(1, "block", bound)
    drawn = block.integers(0, bound, size=(rows, n))
    assert drawn.tolist() == [calls.integers(0, bound, size=n).tolist() for _ in range(rows)]
    assert block.bit_generator.state == calls.bit_generator.state
    assert block.bit_generator.random_raw() == calls.bit_generator.random_raw()
    assert block.integers(2**32) == calls.integers(2**32)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_a_uniform_block_equals_its_scalar_draws(n):
    block, calls = derive_rng(1, "uniform", n), derive_rng(1, "uniform", n)
    assert block.random(n).tolist() == [calls.random() for _ in range(n)]
    assert block.bit_generator.state == calls.bit_generator.state
    assert block.bit_generator.random_raw() == calls.bit_generator.random_raw()


# 3 * 2**30 rejects a quarter of all words, so its blocks run out and are
# refilled; 2**32 reads each word as it is
@pytest.mark.parametrize("bound", [2, 3, 7, 3 * 2**30, 2**31 + 1, 2**32 - 5, 2**32])
@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("offset", [False, True])
def test_decoded_bounded_draws_equal_scalar_calls(bound, n, offset):
    # an odd word count leaves half of a 64-bit output buffered; the offset
    # draw makes the first block start on such a half
    decoded, calls = derive_rng(1, "bounded", bound, n), derive_rng(1, "bounded", bound, n)
    if offset:
        assert decoded.integers(2**32) == calls.integers(2**32)
    draws = BoundedDraws(decoded)
    assert [draws.integer(bound, n - i) for i in range(n)] == [
        int(calls.integers(bound)) for _ in range(n)
    ]
    assert decoded.bit_generator.state == calls.bit_generator.state


def test_a_mixed_run_of_bounds_decodes_like_scalar_calls():
    # certain counts of about half the draws left: every block runs out
    # early and is refilled
    bounds = [5, 3 * 2**30, 2, 2**32 - 5, 9, 2**31 + 1, 3] * 6
    decoded, calls = derive_rng(1, "mixed"), derive_rng(1, "mixed")
    draws = BoundedDraws(decoded)
    got = [draws.integer(k, (len(bounds) - i + 1) // 2) for i, k in enumerate(bounds)]
    assert got == [int(calls.integers(k)) for k in bounds]
    assert decoded.bit_generator.state == calls.bit_generator.state


@pytest.mark.parametrize("bound", [0, 1, 2**32 + 1])
def test_a_bound_outside_the_words_range_raises(bound):
    with pytest.raises(ValueError, match="outside"):
        BoundedDraws(derive_rng(1, "bounded")).integer(bound, 1)


# an odd count leaves the last word's high half unread; 63, 64 and 65
# straddle a 64-label boundary, 1023 and 1024 the criterion's longest
# horizon
@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 1023, 1024])
@pytest.mark.parametrize("seed", range(4))
def test_labels_decoded_from_raw_words_equal_the_array_call(n, seed):
    decoded, calls = derive_rng(seed, "labels", n), derive_rng(seed, "labels", n)
    labels = label_bytes(decoded, n)
    assert labels == calls.integers(0, 2, size=n).astype(np.uint8).tobytes()
    # both read the same 64-bit outputs
    assert decoded.bit_generator.state["state"] == calls.bit_generator.state["state"]
    assert decoded.bit_generator.random_raw() == calls.bit_generator.random_raw()
