"""Counter-based random numbers.

Every draw is a pure function of (seed, stream, counter), so any consumer can
be replayed in isolation and results do not depend on draw order, thread
interleaving, or how work is partitioned across cells.  The mixing function
is the splitmix64 finalizer (Steele, Lea, Flood: "Fast splittable
pseudorandom number generators", OOPSLA 2014), a full-avalanche 64-bit hash.

A draw mixes in two steps: `stream_key(seed, stream)` folds the fixed pair
into one 64-bit key, and each draw mixes that key with its counter.  A
consumer keys its stream once and calls the `keyed_*` functions.

`keyed_uniform01_block` hashes a run of counters in one numpy pass; each of
its draws equals the scalar `keyed_uniform01` of its counter, which stays
the definition the block is checked against.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# counters per block draw: about 31 ns a draw at 1024, 64 ns at 256, 190 ns
# at 64 and 660 ns for a scalar one (Python 3.11, numpy 2.4, x86-64)
DRAW_BLOCK = 1024


def _mix(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def stream_key(seed: int, stream: int) -> int:
    """The 64-bit key of one (seed, stream) pair."""
    return _mix(_mix(seed) ^ _mix(stream))


def keyed_raw64(key: int, counter: int) -> int:
    """64 pseudo-random bits for `counter` in the stream keyed by `key`."""
    return _mix(key ^ (counter & _MASK))


def keyed_uniform01(key: int, counter: int) -> float:
    """Uniform double in [0, 1), 53 bits of precision, from a keyed stream."""
    return (keyed_raw64(key, counter) >> 11) * _UNIT


def keyed_uniform01_block(key: int, start: int, n: int) -> list:
    """[keyed_uniform01(key, c) for c in range(start, start + n)], in one
    numpy splitmix64 pass; counters must lie in [0, 2**64)."""
    if start < 0 or n < 0 or start + n > 1 << 64:
        raise ValueError("counters [%d, %d + %d) are outside [0, 2**64)"
                         % (start, start, n))
    # uint64 scalars keep the arithmetic in uint64 under numpy 1.x promotion
    # and NEP 50 alike; the mask only moves an empty run's start off 2**64
    u = np.uint64
    x = (np.arange(n, dtype=u) + u(start & _MASK)) ^ u(key & _MASK)
    x += u(_GOLDEN)
    x = (x ^ (x >> u(30))) * u(_M1)
    x = (x ^ (x >> u(27))) * u(_M2)
    x ^= x >> u(31)
    return ((x >> u(11)).astype(np.float64) * _UNIT).tolist()
