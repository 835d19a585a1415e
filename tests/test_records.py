"""The line-record formats share one reader: one comment rule, and every
parse error names a line of the input and carries it as `line`."""

import argparse
import contextlib
import functools
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

import gen
from factormesh import apps, cli
from factormesh.graph import (FactorGraph, GraphError, ParseError, VariableNode,
                              parse_evidence, parse_uai, serialize_evidence,
                              serialize_uai)
from factormesh.image import ImageError, dumps, parse_image
from factormesh.machine import Machine, MachineError
from factormesh.records import REAL, real
from test_machine import fuzz_images

BENCHES = (apps.build_sudoku(),
           apps.build_parity_code(apps.hamming_encode((1, 0, 1, 1))),
           apps.build_ising_chain(4, 0.5, 0.2),
           apps.build_coloring(apps.FIVE_CYCLE_EDGES, 3))

# results each benchmark accepts
ANSWERS = tuple({v: b.oracle[v] for v in b.compare_vars} for b in BENCHES[:3]) + \
    ({0: 0, 1: 1, 2: 0, 3: 1, 4: 2},)

# the graph every evidence text is read against, so a mutant can name a
# variable it lacks or a value out of range
EVIDENCE_GRAPH = FactorGraph([VariableNode(i, 4) for i in range(6)], [])

CONFIG = "# mesh setup\ngrid 4x4\nseed 3\nepochs 5\nthresh 1\nmode SUMPROD\n"


@functools.lru_cache(maxsize=None)
def trace():
    m = Machine(fuzz_images()[0], trace=True)
    m.run_until_quiescent(300)
    return m.trace_text()


def read_config(text, path):
    path.write_text(text)
    cfg = cli._load_config(str(path), "compile")
    cli._settings(argparse.Namespace(command="compile", _cfg=cfg))
    return cfg


def load_image(text, path):
    """The image `text` parses to, once a machine has loaded it."""
    image = parse_image(text)
    Machine(image)
    return image


def read_trace(text, path):
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.cmd_stats(argparse.Namespace(trace=str(path)))
    return out.getvalue()


# (reader of (text, scratch path), its error class or classes, separator,
# written texts); an image is read as the machine loads it
FORMATS = {
    "uai": (lambda text, path: parse_uai(text), ParseError, " ",
            lambda: tuple(serialize_uai(gen.random_tree_graph(s)) for s in range(3))),
    "evidence": (lambda text, path: parse_evidence(text, EVIDENCE_GRAPH), ParseError, " ",
                 lambda: (serialize_evidence({0: 1, 3: 0}),
                          serialize_evidence({2: 1, 5: 3, 1: 0}))),
    "image": (load_image, (ImageError, MachineError), " ", fuzz_images),
    "manifest": (lambda text, path: apps.parse_manifest(text), apps.HarnessError, " ",
                 lambda: tuple(apps.write_manifest(b) for b in BENCHES)),
    "results": (lambda text, path: apps.parse_results(text), apps.HarnessError, " ",
                lambda: tuple(apps.write_results(a) for a in ANSWERS)),
    "config": (read_config, GraphError, " ", lambda: (CONFIG,)),
    "trace": (read_trace, GraphError, ",", lambda: (trace(),)),
}


def mutate(data, text, sep):
    """`text` with one line dropped or one field replaced."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split() if sep == " " else lines[i].split(sep)
    if not fields or data.draw(st.booleans()):
        del lines[i]
    else:
        j = data.draw(st.integers(0, len(fields) - 1))
        others = sorted({f for line in lines for f in line.split(sep)})
        fields[j] = data.draw(st.sampled_from(
            ["", "x", "#", "0", "-1", "99", "1.5", "1_0", "+3", "\u0661", "2_0.5",
             "nan", "-inf", fields[j] + "x"] + others))
        lines[i] = sep.join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_input_fails_only_with_a_line_numbered_error(fmt, data,
                                                             tmp_path_factory):
    read, error, sep, texts = FORMATS[fmt]
    k = data.draw(st.integers(0, len(texts()) - 1))
    text = mutate(data, texts()[k], sep)
    path = tmp_path_factory.getbasetemp() / ("fuzz." + fmt)
    try:
        parsed = read(text, path)
    except error as e:
        m = re.match(r"^line (\d+): ", str(e))
        assert m and 1 <= int(m.group(1)) <= len(text.splitlines()), str(e)
        assert e.line == int(m.group(1)), str(e)
        return
    if fmt == "manifest":
        try:
            apps.verify(parsed, ANSWERS[k])
        except apps.HarnessError:
            pass


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_a_trailing_comment_is_accepted_on_every_record(fmt, tmp_path):
    read, _error, sep, texts = FORMATS[fmt]
    for text in texts():
        commented = "".join(line + " # note\n" if line.strip() else "\n"
                            for line in text.splitlines())
        assert commented != text
        assert read(commented, tmp_path / "commented") == read(text, tmp_path / "plain")


IMAGE_HEAD = "FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\n"


# texts whose integers Python's int() reads but the formats' one rule, an
# optional `-` then ASCII digits, does not: a digit separator, a plus sign
# or a non-ASCII digit; a table line is told apart and read by that rule
@pytest.mark.parametrize("read,text,message", [
    (parse_image, IMAGE_HEAD + "VAR 1_0 2\nREL 0 1_0\n1 1\n",
     "line 5: VAR has a non-integer field"),
    (parse_image, IMAGE_HEAD + "VAR 0 2\nREL 0 1_0\n1 1\n",
     "line 6: REL has a non-integer field"),
    (parse_image, IMAGE_HEAD + "VAR 0 2\nREL 0 0\n1 1_0\n",
     "line 7: table words must be integers"),
    (parse_image, IMAGE_HEAD + "VAR 0 2\nREL 0 0\n1_0 1\n", "line 7: unknown record '1_0'"),
    (parse_image, IMAGE_HEAD + "VAR \u0663 2\n", "line 5: VAR has a non-integer field"),
    (parse_image, IMAGE_HEAD + "VAR +3 2\n", "line 5: VAR has a non-integer field"),
    (parse_image, IMAGE_HEAD + "VAR 0 2\nREL 0 0\n1 \u0661\n",
     "line 7: table words must be integers"),
    (parse_image, IMAGE_HEAD + "VAR 0 2\nREL 0 0\n\u0661 1\n",
     "line 7: unknown record '\u0661'"),
    (parse_uai, "MARKOV\n1\n2_0\n0\n", "line 3: expected cardinality of variable 0, got '2_0'"),
    (parse_uai, "MARKOV\n+1\n2\n0\n", "line 2: expected variable count, got '+1'"),
    (lambda text: parse_evidence(text, EVIDENCE_GRAPH), "1\n0 1_0\n",
     "line 2: expected evidence value, got '1_0'"),
    (apps.parse_results, "0 1\n1_0 1\n", "line 2: malformed results line"),
    (apps.parse_results, "0 +1\n", "line 1: malformed results line"),
    (apps.parse_manifest, "KIND assignment\nVARS 0 1_0\n", "line 2: malformed manifest record"),
])
def test_every_reader_reads_integers_by_one_rule(read, text, message):
    with pytest.raises((ImageError, ParseError, apps.HarnessError)) as err:
        read(text)
    assert (str(err.value), err.value.line) == (message, int(message.split()[1][:-1]))


def test_a_negative_integer_reads_by_the_same_rule():
    text = "FMIMG 10\nGRID 1 1\nMODE SUMPROD\nSEED -3\nCELL 0 0\nVAR 0 2\nREL 0 0\n-1 1\n"
    image = parse_image(text)
    assert (image.seed, image.cells[(0, 0)].rel_slots[0].table) == (-3, [-1, 1])
    assert dumps(image) == text


# a UAI graph of one binary variable pair, its table on line 7
PAIR_UAI = "MARKOV\n2\n2 2\n1\n2 0 1\n4\n%s\n"


# texts whose reals Python's float() reads but the formats' one rule, an
# optional `-` then ASCII digits with an optional point and exponent, or
# inf, infinity or nan, does not
@pytest.mark.parametrize("read,text,message", [
    (parse_uai, PAIR_UAI % "1 2_0 3 \u0661",
     "line 7: expected table entry of factor 0, got '2_0'"),
    (parse_uai, PAIR_UAI % "1 2 3 \u0661", "line 7: expected table entry of factor 0, got '\u0661'"),
    (parse_uai, PAIR_UAI % "1 +2 3 4", "line 7: expected table entry of factor 0, got '+2'"),
    # a non-finite entry reads, and the graph rejects it
    (parse_uai, PAIR_UAI % "1 2 nan 4", "line 7: factor 0: non-finite table entry"),
    (parse_uai, PAIR_UAI % "1 -inf 3 4", "line 7: factor 0: non-finite table entry"),
    (apps.parse_results, "0 0.5 0.5\n1 0.5 0_5\n", "line 2: malformed results line"),
    (apps.parse_results, "0 \u0660.5 0.5\n", "line 1: malformed results line"),
    (apps.parse_manifest, "KIND marginals\nTOLERANCE 1_0\n", "line 2: malformed manifest record"),
    (apps.parse_manifest, "KIND marginals\nVARS 0\nORACLE 0 0.5 0.5_0\n",
     "line 3: malformed manifest record"),
])
def test_every_reader_reads_reals_by_one_rule(read, text, message):
    with pytest.raises((ParseError, apps.HarnessError)) as err:
        read(text)
    assert (str(err.value), err.value.line) == (message, int(message.split()[1][:-1]))


@given(x=st.floats(allow_nan=True, allow_infinity=True), fmt=st.sampled_from(("%.12g", "%.9g")))
def test_every_number_g_writes_reads_back_by_the_real_rule(x, fmt):
    text = fmt % x
    assert REAL.fullmatch(text), text
    assert real(text) == float(text) or x != x
