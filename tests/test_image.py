"""Image text format: canonical dumps, round trips, parse diagnostics."""

import random

import pytest
from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import image
from factormesh.graph import with_evidence
from factormesh.image import (GIBBS, MINSUM, SUMPROD, Capacities, ImageError, dumps,
                              parse_image)
from factormesh.machine import Machine
from factormesh.mapper import MapperError, compile_graph


# -- round trip through the text form ----------------------------------------

MESSY = """\
# comment, then records out of canonical order
FMIMG 2
GRID 1 2
MODE SUMPROD
SEED 3

CELL 0 1
VAR 1 2 2
VAR 0 1 3 EVIDENCE 2
THRESH 16

CELL 0 0
VAR 0 0 2
SHADOW 1 1 3 0 1 VTOF 0   # shadows listed high slot first
SHADOW 0 1 3 0 1 FTOV 0
REL 0 0 6 V0 H1
65535 32768 16384
8192 4096
2048
THRESH 256
WIRE 1 0 1 0 0 1
WIRE 0 0 0 0 1 5
"""


def test_parse_tolerates_comments_and_order():
    img = parse_image(MESSY)
    assert img.grid == (1, 2) and img.mode == "SUMPROD" and img.seed == 3
    assert sorted(img.cells) == [(0, 0), (0, 1)]
    cell = img.cells[(0, 0)]
    assert cell.thresh == 256
    rel = cell.rel_slots[0]
    assert rel.table == [65535, 32768, 16384, 8192, 4096, 2048]
    assert rel.scope_refs == [("V", 0), ("H", 1)]
    other = img.cells[(0, 1)]
    assert {(v.slot, v.var_id, v.card, v.evidence) for v in other.var_slots} == \
        {(0, 1, 3, 2), (1, 2, 2, None)}


def test_dumps_is_canonical_and_stable():
    img = parse_image(MESSY)
    text = dumps(img)
    # sorted slots, sorted wires, and a second round trip changes nothing
    assert text.index("VAR 0 1 3 EVIDENCE 2") < text.index("VAR 1 2 2")
    assert text.index("SHADOW 0 ") < text.index("SHADOW 1 ")
    assert text.index("WIRE 0 ") < text.index("WIRE 1 ")
    assert dumps(parse_image(text)) == text


def test_gibbs_records_round_trip():
    text = "\n".join([
        "FMIMG 2", "GRID 1 1", "MODE GIBBS", "SEED 9",
        "CELL 0 0",
        "VAR 0 0 2",
        "SHADOW 0 1 2 0 0 VALUE",
        "REL 0 0 4 V0 H0",
        "200 100 100 200",
        "GIBBS_PERIOD 12 4",
    ]) + "\n"
    img = parse_image(text)
    cell = img.cells[(0, 0)]
    assert cell.gibbs_period == 12 and cell.gibbs_phase == 4
    assert cell.shadow_slots[0].role == image.VALUE
    assert cell.shadow_slots[0].fid is None
    assert dumps(parse_image(dumps(img))) == dumps(img)


HEAD = "FMIMG 2\nGRID 2 2\nMODE SUMPROD\n"

PARSE_ERRORS = [
    ("GRID 1 1\n", "expected FMIMG 2 header"),
    ("FMIMG 3\nGRID 1 1\n", "expected FMIMG 2 header"),
    # the format before relations lost their programs
    ("# old\nFMIMG 1\nGRID 1 1\nMODE SUMPROD\n", "line 2: expected FMIMG 2 header"),
    ("FMIMG 2\nMODE SUMPROD\n", "missing GRID record"),
    ("FMIMG 2\nGRID 1 1\n", "missing MODE record"),
    ("FMIMG 2\nGRID 0 1\nMODE SUMPROD\n", "must be positive"),
    ("FMIMG 2\nGRID 1 1\nMODE FOO\n", "MODE must be one of"),
    ("FMIMG 2\nMODE SUMPROD\nCELL 0 0\n", "CELL before GRID"),
    (HEAD + "CELL 2 0\n", "outside grid"),
    (HEAD + "CELL 0 0\nCELL 0 0\n", "duplicate CELL"),
    (HEAD + "VAR 0 0 2\n", "VAR outside a CELL"),
    (HEAD + "CELL 0 0\nVAR 0 0 1\n", "cardinality must be >= 2"),
    (HEAD + "CELL 0 0\nVAR 0 0 2 EVIDENCE 5\n", "evidence value out of range"),
    (HEAD + "CELL 0 0\nVAR 0 0 2 WAT 1\n", "malformed VAR record"),
    (HEAD + "CELL 0 0\nSHADOW 0 1 2 0 0 SIDEWAYS\n", "unknown shadow role"),
    (HEAD + "CELL 0 0\nSHADOW 0 1 2 0 0 VTOF\n", "needs a factor id"),
    (HEAD + "CELL 0 0\nREL 0 0 0 V0\n", "at least one table word"),
    (HEAD + "CELL 0 0\nREL 0 0 2 X9\n", "bad scope reference"),
    (HEAD + "CELL 0 0\nREL 0 0 2 V0\n1 2 3\n", "too many table words"),
    (HEAD + "CELL 0 0\nREL 0 0 2 V0\n1 oops\n", "expected 2 more table words"),
    (HEAD + "CELL 0 0\nVAR 0 0 2\nREL 0 0 2 V0\n1 1\nPROG 2\n",
     "line 8: unknown record 'PROG'"),
    (HEAD + "CELL 0 0\nREL 0 0 2 V0\n1\n", "REL record incomplete"),
    (HEAD + "CELL 0 0\nTHRESH -1\n", "threshold must be >= 0"),
    (HEAD + "CELL 0 0\nGIBBS_PERIOD 0 0\n", "bad GIBBS_PERIOD values"),
    (HEAD + "WIRE 0 0 0 0 1\n", "WIRE needs 6 fields"),
    (HEAD + "BLORB 1\n", "unknown record"),
]


def test_parse_error_catalog():
    for text, needle in PARSE_ERRORS:
        with pytest.raises(ImageError) as err:
            parse_image(text)
        assert needle in str(err.value), "wanted %r in %r" % (needle, str(err.value))


def test_gibbs_var_cost():
    assert [image.gibbs_var_cost(n) for n in (0, 1, 3)] == [2, 4, 8]


def test_relation_cost_admits_five_scope_positions():
    assert [image.relation_cost(k) for k in (1, 2, 5, 6)] == [2, 8, 50, 72]
    assert image.relation_cost(5) <= image.MAX_PROGRAM_OPS < image.relation_cost(6)


@settings(max_examples=40, deadline=None)
@given(graph_seed=st.integers(0, 10 ** 6), tree=st.booleans(),
       mode=st.sampled_from((SUMPROD, MINSUM, GIBBS)),
       evidence_seed=st.integers(0, 10 ** 6), place_seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_images_round_trip_and_load(graph_seed, tree, mode, evidence_seed,
                                             place_seed):
    if tree:
        graph = gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10, card_hi=4)
    else:
        graph = gen.random_builtin_graph(graph_seed)
    pick = random.Random(evidence_seed)
    graph = with_evidence(graph, {v.id: pick.randrange(v.cardinality)
                                  for v in graph.variables if pick.random() < 0.2})
    caps = Capacities(var_slots=2, rel_slots=16, shadow_slots=64, table_words=4096)
    try:
        img, _ = compile_graph(graph, mode, grid=(4, 4), seed=place_seed,
                               capacities=caps, epochs=2)
    except MapperError:
        reject()
    text = dumps(img)
    assert dumps(parse_image(text)) == text
    Machine(text, capacities=caps)
