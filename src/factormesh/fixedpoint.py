"""Fixed-point message formats of the cell machine, one `Domain` each.

* U16: unsigned 16-bit fraction of full scale (weight = word / 65535),
  used by SUMPROD and GIBBS.  Message vectors are anchored so the maximum
  component is 65535; combine multiplies, reduce sums.
* Q88: signed Q8.8 log weight (weight = exp(word / 256)), range
  [-128.0, +127.99609375], saturating, used by MINSUM.  Message vectors
  are anchored so the maximum component is 0; combine adds, reduce takes
  the maximum.

A domain's `lo` is the word of weight zero and `one` the word of weight
one.  Rounding is round-to-nearest, ties to even, everywhere.  All
machine-side arithmetic is done on plain Python ints so results are
bit-exact and platform independent.  The machine runs that arithmetic as
code generated at load, spliced from each domain's templates: `combine`
(MUL_U16 / SAT_ADD), `reduce` (a sum, or a maximum by inline comparisons
as Q88's terms can be too many to nest), and `normalization` (NORM_U16 /
NORM_Q88), which anchors a vector held in local names in place.  The
scalar functions mul_u16, sat_add, norm_linear and norm_log are the
references the templates are tested against.  A domain's `folds` are the
table words a kernel folds, exactly for any input: `one`, combine's
identity, and U16's 0, which zeroes its term; not Q88_MIN:
sat_add(Q88_MIN, x) > Q88_MIN if x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

U16_MAX = 65535
Q88_ONE = 256
Q88_MIN = -32768
Q88_MAX = 32767


class FixedPointError(ValueError):
    pass


def rne_div(num: int, den: int) -> int:
    """Exact integer round-to-nearest-even of num/den, den > 0."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


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


# Templates of norm_linear and norm_log, each a (guard, step) pair: the guard
# holds when a vector whose maximum word is mx needs anchoring; the step
# then rewrites each word {w} in place.  The U16 step is rne_div(w * 65535,
# mx) inline, and rescales any mx but 65535: a reduced sum often exceeds it.
NORM_U16 = ("0 < mx != %d" % U16_MAX,
            "q, r = divmod({w} * %d, mx); {w} = q + (2 * r > mx or (2 * r == mx and q & 1))"
            % U16_MAX)
NORM_Q88 = ("0 != mx != %d" % Q88_MIN,
            "{w} = %d if (d := {w} - mx) < %d else d" % (Q88_MIN, Q88_MIN))


def norm_linear(vec: list[int]) -> list[int]:
    """Rescale so the max component is 65535; all-zero passes through."""
    m = max(vec)
    if m <= 0 or m == U16_MAX:
        return list(vec)
    return [rne_div(v * U16_MAX, m) for v in vec]


def norm_log(vec: list[int]) -> list[int]:
    """Shift so the max component is 0, saturating at the bottom; an
    all-Q88_MIN vector (weight zero everywhere) passes through."""
    m = max(vec)
    if m == 0 or m == Q88_MIN:
        return list(vec)
    return [max(Q88_MIN, v - m) for v in vec]


def _check_weights(weights) -> list:
    vals = list(weights)
    if not vals:
        raise FixedPointError("cannot quantize an empty vector")
    if min(vals) < 0.0:
        raise FixedPointError("weights must be non-negative")
    return vals


def _quantize_u16(weights) -> list[int]:
    """Scale so the max weight becomes 65535 (all-zero is an error)."""
    vals = _check_weights(weights)
    m = max(vals)
    if m <= 0.0:
        raise FixedPointError("U16 quantization needs a positive max weight")
    return [round(v * U16_MAX / m) for v in vals]


def _quantize_q88(weights) -> list[int]:
    """Take logs and shift so the max becomes 0, then Q8.8 saturating at
    the bottom of the range; a zero weight (log -inf) becomes Q88_MIN."""
    logs = [math.log(v) if v > 0 else -math.inf for v in _check_weights(weights)]
    m = max(logs)
    if not math.isfinite(m):
        raise FixedPointError("Q88 quantization needs a positive, finite max weight")
    return [Q88_MIN if v == -math.inf else
            max(Q88_MIN, min(Q88_MAX, round((v - m) * Q88_ONE))) for v in logs]


@dataclass(frozen=True, eq=False)
class Domain:
    """One message format: its word range, its units and the arithmetic
    the machine generates code from."""
    lo: int                 # smallest word, the word of weight zero
    hi: int                 # largest word
    one: int                # the word of weight one
    folds: tuple            # words a kernel folds: one, then a word zeroing a term
    thresh: int             # default packet gate, in LSBs
    combine: str            # template joining two words, {a} and {b}
    reduce: Callable        # (name, terms) -> lines binding name to their reduction
    normalization: tuple    # (guard, step) template anchoring words in place
    quantize: Callable      # a table's weights -> words, anchored
    weights: Callable       # words -> weights, unnormalized

    def normalize(self, names) -> list:
        """The lines, in a generated function's body, that anchor the words
        held in the local `names` in place; mx takes their maximum, no max()."""
        guard, step = self.normalization
        return (["    mx = " + names[0]] + ["    if %s > mx: mx = %s" % (n, n) for n in names[1:]]
                + ["    if %s:" % guard] + ["        " + step.format(w=n) for n in names])

    def uniform(self, card: int) -> tuple:
        return (self.one,) * card

    def indicator(self, card: int, value: int) -> tuple:
        """Weight one at `value`, zero elsewhere."""
        return tuple(self.one if a == value else self.lo for a in range(card))


def _sum_lines(name, terms):
    return ["    %s = %s" % (name, " + ".join(terms))]


def _max_lines(name, terms):
    return (["    %s = %s" % (name, terms[0])]
            + ["    if (m := %s) > %s: %s = m" % (t, name, name) for t in terms[1:]])


U16 = Domain(0, U16_MAX, U16_MAX, (U16_MAX, 0), 256, MUL_U16, _sum_lines, NORM_U16,
             _quantize_u16, lambda words: [w / U16_MAX for w in words])
Q88 = Domain(Q88_MIN, Q88_MAX, 0, (0,), 16, SAT_ADD, _max_lines,
             NORM_Q88, _quantize_q88, lambda words: [math.exp(w / Q88_ONE) for w in words])
