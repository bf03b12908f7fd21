"""Golden values of the derived streams, and the block-draw rule.

The numbers were recorded from the list-of-words construction.  A change
to the derivation, or a NumPy release that moves SeedSequence or PCG64,
fails here instead of silently shifting every seeded result.

The generators draw blocks where they mean runs of scalar draws (the
rule in the `seeding` docstring).  The last tests check that rule on the
installed NumPy: a block gives the scalar calls' values and leaves the
stream where they leave it.
"""

import pytest

from robust_online import derive_rng, derive_seed_sequence


def test_seed_sequence_state_is_pinned():
    ss = derive_seed_sequence(0, "conform", 2, 0, 0)
    assert ss.generate_state(4).tolist() == [3229571402, 3693845333, 579808863, 3343452763]


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
