import hashlib
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from communityfl import hashing
from communityfl.hashing import pcg64_states, stable_u64

from conftest import BOUNDARY_SEEDS, u64_seeds


def _per_part_u64(*parts) -> int:
    """stable_u64 as it was first written, encoding each part on its own."""
    blob = b"\x1f".join(str(p).encode("utf-8") for p in parts)
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.text(), st.integers(), st.floats(), st.none()), max_size=5))
def test_stable_u64_matches_the_per_part_encoding(parts):
    try:
        expected = _per_part_u64(*parts)
    except UnicodeEncodeError:  # a lone surrogate: both refuse it
        try:
            stable_u64(*parts)
        except UnicodeEncodeError:
            return
        raise AssertionError("stable_u64 accepted a lone surrogate") from None
    assert stable_u64(*parts) == expected


def test_stable_u64_known_values():
    # every seed and selection in a run hangs on these bits
    assert stable_u64("split", "c-0") == 11731915351385016572
    assert stable_u64(7, "select", "pop-x-c000", 3) == 5470848553896709986


@settings(max_examples=100, deadline=None)
@given(st.lists(u64_seeds, max_size=40))
@example(BOUNDARY_SEEDS)
def test_pcg64_states_are_the_states_default_rng_starts_from(seeds):
    pairs = pcg64_states(seeds)
    assert len(pairs) == len(seeds)
    for seed, (state, inc) in zip(seeds, pairs):
        expected = np.random.default_rng(seed).bit_generator.state["state"]
        assert (state, inc) == (expected["state"], expected["inc"])


_FLOOR = hashing._STREAMS_FLOOR


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([0, 1, 2, _FLOOR - 1, _FLOOR, 2 * _FLOOR]).flatmap(
        lambda n: st.lists(u64_seeds, min_size=n, max_size=n)
    )
)
def test_streams_start_and_draw_as_default_rng(seeds):
    # below the floor each seed gets its own default_rng; from it on, one
    # generator is set to each seed's state in turn
    streams = hashing.streams(seeds)
    for seed, rng in itertools.zip_longest(seeds, streams):
        expected = np.random.default_rng(seed)
        assert rng.bit_generator.state == expected.bit_generator.state
        # integers below 2**32 take half of a 64-bit word and keep the other
        for draw in (
            lambda g: g.integers(60, 81, size=3),
            lambda g: g.random(5),
            lambda g: g.standard_normal(5),
            lambda g: g.integers(0, 2**40),
        ):
            assert draw(rng).tobytes() == draw(expected).tobytes()
