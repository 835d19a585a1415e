"""Counter-based randomness: reference mixing, purity, range, keyed and block draws."""

import pytest
from hypothesis import given, strategies as st

from factormesh import rng

# (seed, stream, counter) -> (keyed_raw64, keyed_uniform01) of the counter
# in stream_key(seed, stream), recorded before draws were split into a
# stream key and a per-counter mix; seeds, streams and counters may be
# negative or wider than 64 bits and are reduced modulo 2**64
KNOWN_ANSWERS = [
    ((0, 0, 0), 0xA706DD2F4D197E6F, 0.6524484863740322),
    ((12, 34, 56), 0x410E8426082830D0, 0.25412774971496854),
    ((-1, 7, 3), 0xE20F473F399F66D0, 0.8830456284864545),
    ((1 << 70, -5, 1 << 65), 0xF1D8F70F6AA3265D, 0.9447168743742052),
    ((2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1), 0x2DD82C88FA32B270, 0.1790798029343914),
    ((1000, (1 << 48) | 1, -1), 0xCBF1F49C479CAD67, 0.7966606980840988),
    ((-(1 << 80) + 3, 123456789, 987654321), 0x3E1A403A18A60C20, 0.2425880567394857),
]


def test_mix_matches_reference_splitmix64_sequence():
    # the sequential reference generator seeded at state 0 emits
    # finalize(state += GOLDEN); its first three published outputs:
    assert rng._mix(0) == 0xE220A8397B1DCDAF
    assert rng._mix(rng._GOLDEN) == 0x6E789E6AA1B965F4
    assert rng._mix((2 * rng._GOLDEN) & rng._MASK) == 0x06C45D188009454F


def test_raw64_is_pure():
    key = rng.stream_key(12, 34)
    a = rng.keyed_raw64(key, 56)
    assert a == rng.keyed_raw64(rng.stream_key(12, 34), 56)
    assert 0 <= a < 1 << 64
    # counters wrap at 64 bits
    assert rng.keyed_raw64(key, 56 + (1 << 64)) == a


def test_raw64_separates_streams_and_counters():
    base = [rng.keyed_raw64(rng.stream_key(7, 0), i) for i in range(64)]
    other = [rng.keyed_raw64(rng.stream_key(7, 1), i) for i in range(64)]
    assert base != other
    assert len(set(base)) == 64


def test_uniform01_range_and_mean():
    key = rng.stream_key(0, 0)
    vals = [rng.keyed_uniform01(key, i) for i in range(4000)]
    assert min(vals) >= 0.0
    assert max(vals) < 1.0
    mean = sum(vals) / len(vals)
    assert abs(mean - 0.5) < 0.02


def test_uniform01_independent_of_draw_order():
    key = rng.stream_key(3, 1)
    forward = [rng.keyed_uniform01(key, i) for i in range(10)]
    backward = [rng.keyed_uniform01(key, i) for i in reversed(range(10))]
    assert forward == list(reversed(backward))


def test_known_answers():
    for (seed, stream, counter), raw, uniform in KNOWN_ANSWERS:
        key = rng.stream_key(seed, stream)
        assert rng.keyed_raw64(key, counter) == raw, (seed, stream, counter)
        assert rng.keyed_uniform01(key, counter) == uniform, (seed, stream, counter)


wide = st.integers(-(1 << 80), 1 << 80)


@given(seed=wide, stream=wide, counter=wide)
def test_stream_keys_and_keyed_draws_stay_in_range(seed, stream, counter):
    key = rng.stream_key(seed, stream)
    assert 0 <= key < 1 << 64
    assert 0 <= rng.keyed_raw64(key, counter) < 1 << 64
    assert 0.0 <= rng.keyed_uniform01(key, counter) < 1.0


@st.composite
def counter_runs(draw):
    """A key, a run length on either side of DRAW_BLOCK, and a start that
    may sit anywhere up to the last run that fits below 2**64."""
    n = draw(st.sampled_from((0, 1, rng.DRAW_BLOCK - 1, rng.DRAW_BLOCK,
                              rng.DRAW_BLOCK + 1)))
    top = (1 << 64) - n
    start = draw(st.one_of(st.integers(0, top), st.integers(max(0, top - 4096), top)))
    return draw(st.integers(0, (1 << 64) - 1)), start, n


@given(run=counter_runs())
def test_block_equals_scalar_draws(run):
    key, start, n = run
    assert rng.keyed_uniform01_block(key, start, n) == [
        rng.keyed_uniform01(key, c) for c in range(start, start + n)]


def test_block_rejects_counters_outside_64_bits():
    for start, n in ((-1, 4), (0, -1), ((1 << 64) - 3, 4)):
        with pytest.raises(ValueError, match="outside"):
            rng.keyed_uniform01_block(7, start, n)
    assert rng.keyed_uniform01_block(7, (1 << 64) - 1, 1) == [
        rng.keyed_uniform01(7, (1 << 64) - 1)]
    assert rng.keyed_uniform01_block(7, 1 << 64, 0) == []
