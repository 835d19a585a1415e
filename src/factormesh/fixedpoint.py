"""Fixed-point number formats used by the cell machine.

Two domains:

* LINEAR: unsigned 16-bit fraction of full scale (value = word / 65535).
  Message vectors are anchored so the maximum component is 65535.
* LOG: signed Q8.8 (value = word / 256), range [-128.0, +127.99609375],
  saturating.  Message vectors are anchored so the maximum component is 0.

Rounding is round-to-nearest, ties to even, everywhere.  All machine-side
arithmetic is done on plain Python ints so results are bit-exact and
platform independent.
"""

from __future__ import annotations

import math

U16_MAX = 65535
Q88_ONE = 256
Q88_MIN = -32768
Q88_MAX = 32767

LINEAR = "LINEAR"
LOG = "LOG"


class FixedPointError(ValueError):
    pass


def rne(x: float) -> int:
    """Round float to nearest int, ties to even (Python round semantics)."""
    return int(round(x))


def rne_div(num: int, den: int) -> int:
    """Exact integer round-to-nearest-even of num/den, den > 0."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


def quantize(values, mode: str) -> list[int]:
    """Quantize a real vector into fixed point.

    LINEAR: scaled so the max component becomes 65535 (all-zero is an error).
    LOG: shifted so the max component becomes 0, then Q8.8 with saturation
    at the bottom of the range (-inf saturates to Q88_MIN).
    """
    vals = list(values)
    if not vals:
        raise FixedPointError("cannot quantize an empty vector")
    if mode == LINEAR:
        m = max(vals)
        if m <= 0.0:
            raise FixedPointError("LINEAR quantization needs a positive max component")
        if min(vals) < 0.0:
            raise FixedPointError("LINEAR values must be non-negative")
        return [rne(v * U16_MAX / m) for v in vals]
    if mode == LOG:
        m = max(vals)
        if not math.isfinite(m):
            raise FixedPointError("LOG quantization needs a finite max component")
        out = []
        for v in vals:
            if v == -math.inf:
                out.append(Q88_MIN)
                continue
            q = rne((v - m) * Q88_ONE)
            out.append(max(Q88_MIN, min(Q88_MAX, q)))
        return out
    raise FixedPointError("unknown mode %r" % (mode,))


def dequantize(words, mode: str) -> list[float]:
    if mode == LINEAR:
        return [w / U16_MAX for w in words]
    if mode == LOG:
        return [w / Q88_ONE for w in words]
    raise FixedPointError("unknown mode %r" % (mode,))


def sat_add(a: int, b: int) -> int:
    """Saturating Q8.8 add; never wraps."""
    s = a + b
    if s < Q88_MIN:
        return Q88_MIN
    if s > Q88_MAX:
        return Q88_MAX
    return s


def mul_u16(a: int, b: int) -> int:
    """u16 * u16 -> u16 with 65535 acting as 1.0, round to nearest.

    The exact-half case cannot occur (65535 is odd), so nearest rounding
    coincides with round-half-even here, and flooring (a * b + 32767) / 65535
    gives rne_div(a * b, U16_MAX) in one step.
    """
    return (a * b + U16_MAX // 2) // U16_MAX


# Templates of mul_u16 and sat_add for code generated at load from a fixed
# structure: {a} and {b} stand for operand expressions, each evaluated
# once, and the result is parenthesized so it can be an operand in turn.
# SAT_ADD binds the local name s to the unsaturated sum.
MUL_U16 = "(({a} * {b} + %d) // %d)" % (U16_MAX // 2, U16_MAX)
SAT_ADD = "(%d if (s := {a} + {b}) < %d else %d if s > %d else s)" % (
    Q88_MIN, Q88_MIN, Q88_MAX, Q88_MAX)


def norm_linear(vec: list[int]) -> list[int]:
    """Rescale so the max component is 65535; all-zero passes through."""
    m = max(vec)
    if m <= 0:
        return list(vec)
    if m == U16_MAX:
        return list(vec)
    return [rne_div(v * U16_MAX, m) for v in vec]


def norm_log(vec: list[int]) -> list[int]:
    """Shift so the max component is 0, saturating at the bottom."""
    m = max(vec)
    if m == 0:
        return list(vec)
    return [max(Q88_MIN, v - m) for v in vec]
