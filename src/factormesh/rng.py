"""Counter-based random numbers.

Every draw is a pure function of (seed, stream, counter), so any consumer can
be replayed in isolation and results do not depend on draw order, thread
interleaving, or how work is partitioned across cells.  The mixing function
is the splitmix64 finalizer (Steele, Lea, Flood: "Fast splittable
pseudorandom number generators", OOPSLA 2014), a full-avalanche 64-bit hash.

A draw mixes in two steps: `stream_key(seed, stream)` folds the fixed pair
into one 64-bit key, and each draw mixes that key with its counter.  A
consumer that draws many times from one stream keys it once and calls the
`keyed_*` functions; `raw64` and `uniform01` are the same draws keyed on
every call.
"""

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)


def _mix(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
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


def raw64(seed: int, stream: int, counter: int) -> int:
    """64 pseudo-random bits keyed by (seed, stream, counter)."""
    return keyed_raw64(stream_key(seed, stream), counter)


def uniform01(seed: int, stream: int, counter: int) -> float:
    """Uniform double in [0, 1), 53 bits of precision."""
    return keyed_uniform01(stream_key(seed, stream), counter)
