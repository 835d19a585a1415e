"""Fixed-point formats: rounding, anchoring, saturation."""

import math
import random
from fractions import Fraction

import pytest

from factormesh import fixedpoint as fp


def test_rne_ties_to_even():
    assert fp.rne(0.5) == 0
    assert fp.rne(1.5) == 2
    assert fp.rne(2.5) == 2
    assert fp.rne(-0.5) == 0
    assert fp.rne(-1.5) == -2
    assert fp.rne(3.2) == 3


def test_rne_div_matches_fraction_rounding():
    # round() on a Fraction is an independent half-to-even oracle
    for den in (1, 2, 3, 7, 16, 65535):
        for num in range(0, 200, 3):
            assert fp.rne_div(num, den) == round(Fraction(num, den))


def test_rne_div_halfway_cases():
    assert fp.rne_div(1, 2) == 0
    assert fp.rne_div(3, 2) == 2
    assert fp.rne_div(5, 2) == 2
    assert fp.rne_div(7, 2) == 4


def test_quantize_linear_anchor():
    assert fp.quantize([1.0, 1.0], fp.LINEAR) == [65535, 65535]
    # 0.3 / 0.7 * 65535 = 28086.43, rounded
    assert fp.quantize([0.3, 0.7], fp.LINEAR) == [28086, 65535]
    assert fp.quantize([2.0], fp.LINEAR) == [65535]


def test_quantize_log_anchor_and_saturation():
    assert fp.quantize([-3.0, 0.0], fp.LOG) == [-768, 0]
    # anchored to the max before scaling
    assert fp.quantize([2.0, 5.0], fp.LOG) == [-768, 0]
    assert fp.quantize([-200.0, 0.0], fp.LOG) == [fp.Q88_MIN, 0]
    assert fp.quantize([-math.inf, 0.0], fp.LOG) == [fp.Q88_MIN, 0]


def test_quantize_rejects_bad_input():
    with pytest.raises(fp.FixedPointError):
        fp.quantize([], fp.LINEAR)
    with pytest.raises(fp.FixedPointError):
        fp.quantize([0.0, 0.0], fp.LINEAR)
    with pytest.raises(fp.FixedPointError):
        fp.quantize([-0.1, 1.0], fp.LINEAR)
    with pytest.raises(fp.FixedPointError):
        fp.quantize([math.inf, 0.0], fp.LOG)
    with pytest.raises(fp.FixedPointError):
        fp.quantize([1.0], "OCTAL")


def test_dequantize_within_half_lsb():
    rng = random.Random(0)
    vals = [rng.uniform(0.05, 1.0) for _ in range(8)]
    m = max(vals)
    back = fp.dequantize(fp.quantize(vals, fp.LINEAR), fp.LINEAR)
    for v, b in zip(vals, back):
        assert abs(b - v / m) <= 0.5 / fp.U16_MAX + 1e-12
    logs = [rng.uniform(-20.0, 0.0) for _ in range(8)]
    shift = max(logs)
    back = fp.dequantize(fp.quantize(logs, fp.LOG), fp.LOG)
    for v, b in zip(logs, back):
        assert abs(b - (v - shift)) <= 0.5 / fp.Q88_ONE + 1e-12


def test_sat_add():
    assert fp.sat_add(5, 7) == 12
    assert fp.sat_add(fp.Q88_MAX, 10) == fp.Q88_MAX
    assert fp.sat_add(fp.Q88_MIN, -10) == fp.Q88_MIN


def test_mul_u16_unit_and_zero():
    for x in (0, 1, 1000, 28086, 65535):
        assert fp.mul_u16(x, fp.U16_MAX) == x
        assert fp.mul_u16(fp.U16_MAX, x) == x
        assert fp.mul_u16(x, 0) == 0


def test_mul_u16_rounds_to_nearest():
    rng = random.Random(1)
    # quotients just below and just above a half-integer
    pairs = [(32767, 1), (32768, 1), (3, 32767), (3, 32768)]
    pairs += [(rng.randrange(65536), rng.randrange(65536)) for _ in range(200)]
    for a, b in pairs:
        want = round(Fraction(a * b, fp.U16_MAX))
        assert fp.mul_u16(a, b) == want


def test_norm_linear():
    assert fp.norm_linear([0, 0]) == [0, 0]
    assert fp.norm_linear([65535, 123]) == [65535, 123]
    # 65535 / 2 = 32767.5, ties to even
    assert fp.norm_linear([1, 2]) == [32768, 65535]


def test_norm_log():
    assert fp.norm_log([0, -5]) == [0, -5]
    assert fp.norm_log([10, -5]) == [0, -15]
    assert fp.norm_log([32767, -32760]) == [0, fp.Q88_MIN]

