"""Fixed-point formats: rounding, anchoring, saturation, and the two
message domains built from them."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from factormesh import fixedpoint as fp


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
    assert fp.U16.quantize([1.0, 1.0]) == [65535, 65535]
    # 0.3 / 0.7 * 65535 = 28086.43, rounded
    assert fp.U16.quantize([0.3, 0.7]) == [28086, 65535]
    assert fp.U16.quantize([2.0]) == [65535]


def test_quantize_log_anchor_and_saturation():
    assert fp.Q88.quantize([math.exp(-3.0), 1.0]) == [-768, 0]
    # anchored to the max before scaling
    assert fp.Q88.quantize([math.exp(2.0), math.exp(5.0)]) == [-768, 0]
    assert fp.Q88.quantize([math.exp(-200.0), 1.0]) == [fp.Q88_MIN, 0]
    assert fp.Q88.quantize([0.0, 1.0]) == [fp.Q88_MIN, 0]
    # 0.3 has log -1.2040 = -308.22 / 256
    assert fp.Q88.quantize((0.3, 1.0)) == [-308, 0]


def test_quantize_rejects_bad_input():
    for dom in (fp.U16, fp.Q88):
        for bad in ([], [0.0, 0.0], [-0.1, 1.0]):
            with pytest.raises(fp.FixedPointError):
                dom.quantize(bad)
    with pytest.raises(fp.FixedPointError):
        fp.Q88.quantize([math.inf, 1.0])


def test_quantize_then_weights_within_half_lsb():
    rng = random.Random(0)
    vals = [rng.uniform(0.05, 1.0) for _ in range(8)]
    m = max(vals)
    back = fp.U16.weights(fp.U16.quantize(vals))
    for v, b in zip(vals, back):
        assert abs(b - v / m) <= 0.5 / fp.U16_MAX + 1e-12
    logs = [rng.uniform(-20.0, 0.0) for _ in range(8)]
    shift = max(logs)
    back = fp.Q88.weights(fp.Q88.quantize([math.exp(v) for v in logs]))
    for v, b in zip(logs, back):
        assert abs(math.log(b) - (v - shift)) <= 0.5 / fp.Q88_ONE + 1e-12


@functools.lru_cache(maxsize=None)
def normalizer(dom, card):
    """The domain's normalization template as a function of `card` words,
    the way generated code runs it: words in local names, rewritten in
    place, then read back."""
    names = ["w%d" % i for i in range(card)]
    namespace = {}
    exec("def f(%s):\n%s\n    return [%s]\n"
         % (", ".join(names), "\n".join(dom.normalize(names)), ", ".join(names)), namespace)
    return namespace["f"]


def normalized(dom, words):
    return normalizer(dom, len(words))(*words)


def test_domains_anchor_their_uniform_and_indicator_vectors():
    for dom in (fp.U16, fp.Q88):
        for card in (2, 3, 16):
            uniform = dom.uniform(card)
            assert uniform == (dom.one,) * card
            assert normalized(dom, list(uniform)) == list(uniform)
            for value in (0, card - 1):
                ind = dom.indicator(card, value)
                assert normalized(dom, list(ind)) == list(ind)
                assert ind[value] == dom.one
                assert ind.count(dom.lo) == card - 1
        assert dom.weights([dom.one, dom.lo])[0] == 1.0
    assert fp.U16.weights([fp.U16.lo]) == [0.0]


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
    # weight zero everywhere stays there, as norm_linear keeps all-zero
    assert fp.norm_log([fp.Q88_MIN] * 3) == [fp.Q88_MIN] * 3



# -- the templates machine code is generated from ------------------------------

def template(tmpl):
    """The template as a function of two ints, the way generated code
    evaluates it: operand names spliced in, inside a function body."""
    namespace = {}
    exec("def f(a, b):\n    return %s\n" % tmpl.format(a="a", b="b"), namespace)
    return namespace["f"]


def test_mul_u16_template_at_the_domain_edges():
    f = template(fp.MUL_U16)
    edges = (0, 1, 2, 32766, 32767, 32768, 32769, 65534, 65535)
    for a in edges:
        for b in edges:
            assert f(a, b) == fp.mul_u16(a, b), (a, b)


def test_sat_add_template_at_the_domain_edges():
    f = template(fp.SAT_ADD)
    # table words and anchored messages span the Q8.8 range; output noise
    # lifts anchored messages to small positive words
    edges = (fp.Q88_MIN, fp.Q88_MIN + 1, -256, -1, 0, 1, 2, 256,
             fp.Q88_MAX - 1, fp.Q88_MAX)
    for a in edges:
        for b in edges:
            assert f(a, b) == fp.sat_add(a, b), (a, b)


def test_templates_nest_as_operands():
    # generated code chains a term's combines by splicing one template into
    # the next, so SAT_ADD's inner binding of s must not leak outwards
    for tmpl, scalar, (a, b, c) in ((fp.MUL_U16, fp.mul_u16, (65535, 32768, 3)),
                                    (fp.SAT_ADD, fp.sat_add, (fp.Q88_MAX, 2, -5)),
                                    (fp.SAT_ADD, fp.sat_add, (fp.Q88_MIN, -2, 5))):
        namespace = {}
        exec("def f(a, b, c):\n    return %s\n"
             % tmpl.format(a=tmpl.format(a="a", b="b"), b="c"), namespace)
        assert namespace["f"](a, b, c) == scalar(scalar(a, b), c)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, fp.U16_MAX), st.integers(0, fp.U16_MAX))
def test_mul_u16_template_matches_scalar(a, b):
    assert template(fp.MUL_U16)(a, b) == fp.mul_u16(a, b)


@settings(max_examples=500, deadline=None)
@given(st.integers(fp.Q88_MIN, fp.Q88_MAX), st.integers(fp.Q88_MIN, fp.Q88_MAX))
def test_sat_add_template_matches_scalar(a, b):
    assert template(fp.SAT_ADD)(a, b) == fp.sat_add(a, b)


# a reduced U16 sum reaches card * 65535; small words make exact ties likely
U16_WORDS = st.lists(st.one_of(st.integers(0, 4), st.integers(0, 16 * fp.U16_MAX)),
                     min_size=1, max_size=16)
Q88_WORDS = st.lists(st.one_of(st.just(fp.Q88_MIN), st.integers(fp.Q88_MIN, fp.Q88_MAX)),
                     min_size=1, max_size=16)


@settings(max_examples=500, deadline=None)
@given(U16_WORDS)
@example([1, 2])                    # 65535 / 2, a tie rounded to even
@example([3, 2, 6])                 # 65535 / 2 again, from 3 / 6
@example([0, 0, 0])
@example([fp.U16_MAX + 1, 5])       # a sum above full scale scales down
@example([7])
@example([fp.U16_MAX])
def test_u16_normalize_template_matches_norm_linear(words):
    assert normalized(fp.U16, words) == fp.norm_linear(words)


@settings(max_examples=500, deadline=None)
@given(Q88_WORDS)
@example([fp.Q88_MIN] * 3)
@example([fp.Q88_MAX, fp.Q88_MIN])  # shifted below the floor, saturates
@example([-5])
@example([0, -7])
def test_q88_normalize_template_matches_norm_log(words):
    assert normalized(fp.Q88, words) == fp.norm_log(words)
