import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from communityfl.hashing import stable_u64


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
