"""Golden values of the derived streams, and the block-draw rule.

The numbers were recorded from the list-of-words construction.  A change
to the derivation, or a NumPy release that moves SeedSequence or PCG64,
fails here instead of silently shifting every seeded result.  The seed
words PCG64 reads are computed in Python from the SeedSequence pool; a
property checks them against NumPy's own SeedSequence on random entropies.

The generators draw blocks where they mean runs of scalar draws, and
decode draws from raw outputs (the rules in the `seeding` docstring).
The last tests check those rules on the installed NumPy: a block, or a
bounded draw decoded from blocks of raw words, gives the scalar calls'
values and leaves the stream where they leave it; labels decoded from
raw 64-bit words equal the array call they stand for on a new stream;
and a Draws gives a Generator's values, call for call, on any mix of
calls.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_online import derive_rng, derive_seed_sequence
from robust_online.seeding import BoundedDraws, Draws, _kept, _rejected, _SeedSequence, label_bytes


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


# 3 * 2**30 rejects a quarter of all words; 2**32 reads each word as it is;
# 1 reads none
BOUNDS = [1, 2, 3, 5, 16, 2**31, 3 * 2**30, 2**32 - 5, 2**32]
CALLS = st.one_of(
    st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("random"), st.none() | st.integers(0, 6)),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
    st.tuples(st.just("rows"), st.sampled_from(BOUNDS[1:]), st.integers(0, 5), st.integers(1, 6)),
)


def generator_call(rng, call):
    """What a Draws call stands for, on a Generator."""
    name, *args = call
    if name == "integers":
        return int(rng.integers(*args))
    if name == "random":
        return rng.random() if args[0] is None else rng.random(args[0]).tolist()
    if name == "uniform":
        return rng.uniform(0.2, 0.8)
    if name == "permutation":
        return rng.permutation(*args).tolist()
    k, r, n = args
    return list(map(tuple, rng.integers(0, k, size=(r, n)).tolist()))


def draws_call(draws, call):
    name, *args = call
    if name == "uniform":
        return draws.uniform(0.2, 0.8)
    return getattr(draws, name)(*args)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.lists(CALLS, max_size=40))
# an odd word leaves a half buffered: the next double must skip it, the
# next word must read it, and blocks must be refilled around it
@example(0, [("integers", 2**32), ("random", None), ("integers", 2**32), ("random", 3)])
@example(1, [("integers", 3 * 2**30), ("permutation", 40), ("rows", 3 * 2**30, 5, 6)] * 4)
@example(2, [("rows", 2, 5, 5), ("random", 6), ("uniform",), ("rows", 3, 3, 5)] * 8)
def test_decoded_draws_equal_a_generators_call_for_call(seed, calls):
    draws, rng = Draws(seed, "draws"), derive_rng(seed, "draws")
    for call in calls:
        assert draws_call(draws, call) == generator_call(rng, call), call
    # and the stream is where the Generator's is, on a word and on a double
    assert draws.integers(2**32) == rng.integers(2**32)
    assert draws.random() == rng.random()


@pytest.mark.parametrize("bound", [2, 3, 5, 6, 7, 100, 641, 1000, 1023, 1024])
def test_the_rejected_words_of_a_small_bound_are_all_of_them(bound):
    # Lemire's step keeps floor(2^32 / k) words per value, so it rejects
    # exactly 2^32 mod k words: a set of that many rejected words is all
    rejected = _rejected(bound)
    assert len(rejected) == 2**32 % bound
    assert all(0 <= w < 2**32 and not _kept(w * bound, bound) for w in rejected)


@pytest.mark.parametrize("bound, word", [(3, 0), (5, 0), (6, 2**31), (7, 0)])
def test_a_row_block_that_meets_a_rejected_word_decodes_it_draw_by_draw(bound, word):
    # a rejected word is one chance in 2^32 / bound on a real stream, so
    # it is planted: both decoders read the same words
    block, calls = Draws(1, "planted"), Draws(1, "planted")
    for draws in (block, calls):
        draws.random()  # reads a block of outputs
        draws.words[draws.at + 5] = word
    assert word in _rejected(bound)
    rows = [tuple(calls.integers(bound) for _ in range(4)) for _ in range(3)]
    assert block.rows(bound, 3, 4) == rows
    assert block.integers(2**32) == calls.integers(2**32)
