"""Stable hashing helpers used for seeds, identifiers, and weight digests,
the generator states numpy seeds from such a seed, and generators started
in those states for many seeds at once.

Everything here must be deterministic across processes and platforms, so
Python's salted ``hash()`` is never used.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

_SEP = "\x1f"


def stable_u64(*parts: object) -> int:
    """Deterministically map the given parts to an unsigned 64-bit integer."""
    blob = _SEP.join(map(str, parts)).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# multiplier: fixed by numpy's stream-compatibility policy for default_rng
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` pair that ``np.random.default_rng(seed)``
    starts from, for each seed in ``[0, 2**64)``.

    SeedSequence hashes a seed's 32-bit words into a pool of four, mixes the
    pool, and draws eight words from it; here each step runs once over the
    uint32 arrays of all seeds. A seed below 2**32 is one word, which the
    pool pads with a 0 word, so every seed hashes as its (low, high) pair.
    The hash constant advances the same way for every seed, so it stays a
    masked Python int and only the arrays wrap: numpy warns on a scalar that
    overflows, never on an array. The 128-bit seeding steps of PCG64 run on
    Python ints, one seed at a time."""
    words = np.array(seeds, dtype=np.uint64)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    low = (words & _MASK32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(low), hashmix((words >> 32).astype(np.uint32)), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                mixed ^= mixed >> 16
                pool[dst] = mixed
    hash_const = _INIT_B
    state = []
    for i in range(8):
        word = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word *= hash_const
        word ^= word >> 16
        state.append(word.astype(np.uint64))
    # little-endian word pairs: the high and low halves of the initial state,
    # then of the stream selector
    halves = [(state[i] | state[i + 1] << 32).tolist() for i in range(0, 8, 2)]
    pairs = []
    for state_high, state_low, seq_high, seq_low in zip(*halves):
        inc = ((seq_high << 65) | (seq_low << 1) | 1) & _MASK128
        # PCG64's srandom: step from 0, add the initial state, step again
        initial = (state_high << 64 | state_low) + inc
        pairs.append(((initial * _PCG64_MULT + inc) & _MASK128, inc))
    return pairs


# below this many seeds a default_rng per seed is the cheaper path: on a 2-vCPU
# x86-64 host the pcg64_states pass plus a state set per seed breaks even at
# 16-20 seeds and costs about a third less at 32
_STREAMS_FLOOR = 32


def streams(seeds: list[int]) -> Iterator[np.random.Generator]:
    """For each seed in turn, a generator in the state ``default_rng(seed)``
    starts from. From ``_STREAMS_FLOOR`` seeds on, it is one generator whose
    state is set for each seed, so a caller draws from each one before it
    asks for the next."""
    if len(seeds) < _STREAMS_FLOOR:
        for seed in seeds:
            yield np.random.default_rng(seed)
        return
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    pcg_state: dict[str, int] = {}
    state = {"bit_generator": "PCG64", "state": pcg_state, "has_uint32": 0, "uinteger": 0}
    for pcg_state["state"], pcg_state["inc"] in pcg64_states(seeds):
        bit_generator.state = state
        yield rng


def weights_digest(values: np.ndarray) -> int:
    """64-bit digest of a weight vector's canonical little-endian float64 bytes."""
    blob = np.ascontiguousarray(values, dtype="<f8").tobytes()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big")


def digest_hex(digest: int) -> str:
    """Render a 64-bit digest as a fixed-width hex string for artifacts."""
    return f"{digest:016x}"
