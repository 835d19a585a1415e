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
from factormesh.graph import (GraphError, ParseError, parse_evidence, parse_uai,
                              serialize_evidence, serialize_uai)
from factormesh.image import ImageError, parse_image
from factormesh.machine import Machine, MachineError
from test_machine import fuzz_images

BENCHES = (apps.build_sudoku(),
           apps.build_parity_code(apps.hamming_encode((1, 0, 1, 1))),
           apps.build_ising_chain(4, 0.5, 0.2),
           apps.build_coloring(apps.FIVE_CYCLE_EDGES, 3))

# results each benchmark accepts
ANSWERS = tuple({v: b.oracle[v] for v in b.compare_vars} for b in BENCHES[:3]) + \
    ({0: 0, 1: 1, 2: 0, 3: 1, 4: 2},)

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
    "evidence": (lambda text, path: parse_evidence(text), ParseError, " ",
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
            ["", "x", "#", "0", "-1", "99", "1.5", fields[j] + "x"] + others))
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
