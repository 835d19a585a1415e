"""Image text format: canonical dumps, round trips, parse diagnostics."""

import collections
import dataclasses
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import image
from factormesh.graph import with_evidence
from factormesh import apps
from factormesh.image import (GIBBS, MINSUM, SUMPROD, Capacities, CellImage, ImageError,
                              MachineImage, RelSlot, VarSlot, Wire, dumps,
                              parse_image)
from factormesh.machine import Machine, MachineError, xy_links
from factormesh.mapper import MapperError, compile_graph


# -- round trip through the text form ----------------------------------------

MESSY = """\
# comment, then cells out of canonical order
FMIMG 10
GRID 1 2
MODE SUMPROD
SEED 3

CELL 0 1
VAR 1 3 EVIDENCE 2
VAR 2 2
THRESH 256    # image-wide, wherever it stands

CELL 0 0
VAR 0 2
REL 0 0 2 1   # reads variables of a later cell through shadows
65535 32768 16384
8192 4096
2048 1 2 3 4 5 6
"""


def test_parse_tolerates_comments_and_order():
    img = parse_image(MESSY)
    assert img.grid == (1, 2) and img.mode == "SUMPROD" and img.seed == 3
    assert img.thresh == 256
    assert img.lines == {"GRID": 3, "MODE": 4, "SEED": 5, "THRESH": 10}
    assert sorted(img.cells) == [(0, 0), (0, 1)]
    cell = img.cells[(0, 0)]
    rel = cell.rel_slots[0]
    assert rel.table == [65535, 32768, 16384, 8192, 4096, 2048, 1, 2, 3, 4, 5, 6]
    assert rel.scope == [0, 2, 1]
    other = img.cells[(0, 1)]
    assert [(v.var_id, v.card, v.evidence) for v in other.var_slots] == \
        [(1, 3, 2), (2, 2, None)]
    # each remote read is a shadow, numbered in first-read order, and one
    # wire from its variable's cell, each followed, outside GIBBS, by its
    # return wire, in (cell, slot) order
    assert list(cell.shadow_keys(SUMPROD)) == [(2, 0), (1, 0)]
    assert img.wires == [Wire(2, (0, 1), (0, 0), 0), Wire(2, (0, 0), (0, 1), 0, back=True),
                         Wire(1, (0, 1), (0, 0), 1), Wire(1, (0, 0), (0, 1), 1, back=True)]


def test_dumps_is_canonical_and_stable():
    img = parse_image(MESSY)
    text = dumps(img)
    # the image-wide records first, then sorted cells, records in their
    # slot order, and a second round trip changes nothing
    assert text.startswith("FMIMG 10\nGRID 1 2\nMODE SUMPROD\nSEED 3\nTHRESH 256\nCELL 0 0\n")
    assert text.index("CELL 0 0") < text.index("CELL 0 1")
    assert text.index("VAR 1 3 EVIDENCE 2") < text.index("VAR 2 2")
    assert "\nREL 0 0 2 1\n" in text
    assert dumps(parse_image(text)) == text
    # each VAR, REL and CELL slot, and the image each image-wide record,
    # keeps its record's line, which neither comparison nor repr sees
    again = parse_image(text)
    assert again == img and "line" not in repr(img)
    cell = img.cells[(0, 0)]
    assert (cell.line, cell.var_slots[0].line, cell.rel_slots[0].line) == (12, 13, 14)
    assert img.cells[(0, 1)].var_slots[1].line == 9
    assert again.cells[(0, 0)].line == 6 and again.lines["THRESH"] == 5
    assert CellImage().line is None and VarSlot(0, 2).line is None
    assert MachineImage((1, 1), SUMPROD, 0).lines == {}


def test_gibbs_records_round_trip():
    text = "\n".join([
        "FMIMG 10", "GRID 1 1", "MODE GIBBS", "SEED 9",
        "CELL 0 0",
        "VAR 0 2",
        "REL 0 0 1",
        "200 100 100 200",
    ]) + "\n"
    img = parse_image(text)
    cell = img.cells[(0, 0)]
    assert cell.shadow_keys(GIBBS) == {(1, None): cell.rel_slots[0]}
    # a GIBBS shadow carries a value and no reply
    assert img.wires == [Wire(1, None, (0, 0), 0)]
    assert dumps(parse_image(dumps(img))) == dumps(img)


HEAD = "FMIMG 10\nGRID 2 2\nMODE SUMPROD\n"

PARSE_ERRORS = [
    ("GRID 1 1\n", "expected FMIMG 10 header"),
    # the formats before relations lost their programs, before shadows
    # named their own wires, before VTOF shadows declared their return
    # wires, before records lost their slot numbers, before shadows lost
    # their roles and relation ids, before REL records lost their word
    # counts, before scopes named their variables, before GIBBS cells
    # lost their timing records and before THRESH became image-wide
    ("# old\nFMIMG 1\nGRID 1 1\nMODE SUMPROD\n", "line 2: expected FMIMG 10 header"),
    ("FMIMG 2\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 3\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 4\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 5\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 6\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 7\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 8\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 9\nGRID 1 1\nMODE SUMPROD\n", "line 1: expected FMIMG 10 header"),
    ("FMIMG 10\nMODE SUMPROD\n", "missing GRID record"),
    ("FMIMG 10\nMODE SUMPROD\nCELL 0 0\n", "line 3: missing GRID record"),
    ("FMIMG 10\nGRID 1 1\n", "missing MODE record"),
    ("FMIMG 10\nGRID 0 1\nMODE SUMPROD\n", "must be positive"),
    ("FMIMG 10\nGRID 1 1\nMODE FOO\n", "MODE must be one of"),
    (HEAD + "CELL 0 0\nCELL 0 0\n", "duplicate CELL"),
    (HEAD + "CELL 0\n", "line 4: CELL needs 2 fields"),
    (HEAD + "VAR 0 2\n", "VAR outside a CELL"),
    (HEAD + "CELL 0 0\nVAR 0 2 WAT 1\n", "malformed VAR record"),
    (HEAD + "CELL 0 0\nVAR 0\n", "line 5: malformed VAR record"),
    (HEAD + "CELL 0 0\nVAR 0 2 EVIDENCE\n", "line 5: malformed VAR record"),
    (HEAD + "CELL 0 0\nVAR 0 0 2\n", "line 5: malformed VAR record"),
    (HEAD + "CELL 0 0\nVAR x 2\n", "line 5: VAR has a non-integer field"),
    # the shadow records of FMIMG 7, of FMIMG 5 and of FMIMG 3
    (HEAD + "CELL 0 0\nSHADOW 1\n", "line 5: unknown record 'SHADOW'"),
    (HEAD + "CELL 0 0\nSHADOW 1 VTOF 0\n", "line 5: unknown record 'SHADOW'"),
    (HEAD + "CELL 0 0\nSHADOW 0 1 2 0 1 VTOF 0\n", "line 5: unknown record 'SHADOW'"),
    (HEAD + "CELL 0 0\nREL 0\n", "line 5: malformed REL record"),
    (HEAD + "CELL 0 0\nREL x 0\n1 1\n", "line 5: REL has a non-integer field"),
    # the REL records of FMIMG 7, with slot references, and of FMIMG 6,
    # with a word count too
    (HEAD + "CELL 0 0\nREL 0 V0 H0\n1 1 1 1\n", "line 5: REL has a non-integer field"),
    (HEAD + "CELL 0 0\nREL 0 2 V0\n1 1\n", "line 5: REL has a non-integer field"),
    (HEAD + "CELL 0 0\nREL 0 1.5\n", "line 5: REL has a non-integer field"),
    # only a line of integers continues a REL
    (HEAD + "CELL 0 0\nREL 0 0\n1 oops\n", "line 6: table words must be integers"),
    (HEAD + "CELL 0 0\nREL 0 0\n-1 1.5\n", "line 6: table words must be integers"),
    (HEAD + "CELL 0 0\n1 1\n", "line 5: unknown record '1'"),
    (HEAD + "CELL 0 0\nVAR 0 2\nTHRESH 1\n1 1\n", "line 7: unknown record '1'"),
    (HEAD + "CELL 0 0\nVAR 0 2\nREL 0 0\n1 1\nPROG 2\n",
     "line 8: unknown record 'PROG'"),
    (HEAD + "CELL 0 0\nTHRESH x\n", "line 5: THRESH has a non-integer field"),
    # the timing record of FMIMG 8, which the schedule rule replaces
    (HEAD + "CELL 0 0\nGIBBS_PERIOD 4 0\n", "line 5: unknown record 'GIBBS_PERIOD'"),
    (HEAD + "CELL 0 0\nVAR 0 2\nREL 0 0\n1 1\nGIBBS_PERIOD 4\n",
     "line 8: unknown record 'GIBBS_PERIOD'"),
    # a second image-wide record would silently replace the first
    (HEAD + "CELL 0 1\nTHRESH 3\nTHRESH 9\n",
     "line 6: second THRESH record; the first is on line 5"),
    (HEAD + "THRESH 3\nCELL 0 1\nTHRESH 3\n",
     "line 6: second THRESH record; the first is on line 4"),
    ("FMIMG 10\nSEED 3\nGRID 1 1\nMODE SUMPROD\nSEED 7\n",
     "line 5: second SEED record; the first is on line 2"),
    (HEAD + "CELL 0 0\nGRID 1 1\n", "line 5: second GRID record; the first is on line 2"),
    (HEAD + "MODE GIBBS\n", "line 4: second MODE record; the first is on line 3"),
    (HEAD + "CELL 0 0\nVAR 0 2\nWIRE 0 0 0 0 1 0\n", "line 6: unknown record 'WIRE'"),
    (HEAD + "BLORB 1\n", "unknown record"),
]


def test_parse_error_catalog():
    for text, needle in PARSE_ERRORS:
        with pytest.raises(ImageError) as err:
            parse_image(text)
        assert needle in str(err.value), "wanted %r in %r" % (needle, str(err.value))


def test_gibbs_var_cost():
    assert [image.gibbs_var_cost(n) for n in (0, 1, 3)] == [2, 4, 8]
    assert image.gibbs_tick_cost([0, 1, 3]) == 14
    assert image.gibbs_tick_cost([]) == 0


def test_relation_cost_admits_five_scope_positions():
    assert [image.relation_cost(k) for k in (1, 2, 5, 6)] == [2, 8, 50, 72]
    assert image.relation_cost(5) <= image.MAX_UPDATE_CYCLES < image.relation_cost(6)


# -- an image runs the same machine in memory and from its file ----------------

def run_bytes(img, caps, ticks):
    """Trace, stats and belief bytes of one run of the image."""
    m = Machine(img, capacities=caps, trace=True)
    if m.mode == GIBBS:
        stats = m.run_ticks(ticks)
    else:
        stats, _ = m.run_until_quiescent(3000)
    try:
        beliefs = apps.write_results(m.read_beliefs()[0])
    except MachineError as err:
        beliefs = str(err)
    return m.trace_text(), stats.text(), beliefs


def test_an_image_and_its_file_run_the_same_machine():
    # a GIBBS value is sent once per cell reading it, in the order of the
    # variable's wires, which a compiled image and its text must share
    bench = apps.build_coloring(apps.FIVE_CYCLE_EDGES, 3)
    caps = Capacities(var_slots=1)
    for seed in range(10):
        img, _ = compile_graph(bench.graph, GIBBS, grid=(3, 3), seed=seed,
                               capacities=caps)
        assert run_bytes(img, caps, 200) == \
            run_bytes(parse_image(dumps(img)), caps, 200), seed


@pytest.mark.parametrize("mode", [SUMPROD, GIBBS])
def test_a_cells_key_is_its_only_coordinate(mode):
    # moving a cell is re-keying it: its trace rows, its routes and its
    # text form all name the new key
    bench = apps.build_ising_chain(4, 0.5, 0.2)
    img, _ = compile_graph(bench.graph, mode, grid=(3, 3), epochs=5)
    old, new = (0, 1), (2, 2)
    assert sorted(img.cells) == [(0, 0), old]
    cells = dict(img.cells)
    cells[new] = cells.pop(old)
    img = dataclasses.replace(img, cells=cells)
    text = dumps(img)
    assert "\nCELL 2 2\n" in text and "\nCELL 0 1\n" not in text
    trace, stats, beliefs = run_bytes(img, Capacities(), 20)
    assert run_bytes(parse_image(text), Capacities(), 20) == (trace, stats, beliefs)
    rows = [row.split(",") for row in trace.splitlines()[1:]]
    assert {(int(row[1]), int(row[2])) for row in rows} == {(0, 0), new}
    m = Machine(img)
    ports = [var.port for var in m.var_owner.values()]
    ports += [edge.port for var in m.var_owner.values() for edge in var.edges]
    ports += [sh.port for cell in m.cells.values() for sh in cell.shadows]
    ends = set()
    links = {i: link for link, i in m._link_ids.items()}
    for port in filter(None, ports):
        for dst, _target, hops, ids in port.dests:
            # a route ends at the cell whose rows its deliveries write
            assert links[ids[-1]][1] == (dst.r, dst.c)
            ends.add((dst.r, dst.c))
            if (dst.r, dst.c) == new:
                assert hops == 4
    assert new in ends


def test_routes_name_each_mesh_link_by_one_id():
    shared = 0
    for bench, mode in [(apps.build_parity_code(apps.hamming_encode((1, 0, 1, 1))), SUMPROD),
                        (apps.build_sudoku(), MINSUM),
                        (apps.build_ising_chain(8, 0.5, 0.2), GIBBS)]:
        img, _ = compile_graph(bench.graph, mode, grid=bench.grid, seed=0, epochs=5)
        m = Machine(img)
        # ids are 0, 1, ... in first-seen order, one per link
        assert sorted(m._link_ids.values()) == list(range(len(m._link_ids)))
        links = {i: link for link, i in m._link_ids.items()}
        # (source cell, port) of every port, found from the quantity it carries
        ports = [((var.cell.r, var.cell.c), var.port) for var in m.var_owner.values()]
        ports += [((var.cell.r, var.cell.c), edge.port)
                  for var in m.var_owner.values() for edge in var.edges]
        ports += [((cell.r, cell.c), sh.port)
                  for cell in m.cells.values() for sh in cell.shadows]
        crossings = collections.Counter()
        for src, port in ports:
            for dst, _target, hops, ids in (port.dests if port is not None else ()):
                dst = (dst.r, dst.c)
                mesh = xy_links(src, dst)
                # the dimension-order route in order, which a shadow's
                # wire, from another cell, never has empty
                assert [links[i] for i in ids] == list(mesh) and mesh
                assert hops == len(mesh)
                crossings.update(ids)
        # every wire has one destination
        assert (sum(crossings.values())
                == sum(len(xy_links(w.src, w.dst)) for w in img.wires))
        shared += sum(count > 1 for count in crossings.values())
    # wires that cross one mesh link reserve it under its one id, so they
    # contend for it; the hamming and sudoku images have such links
    assert shared > 0


def test_a_code_built_gibbs_image_round_trips_on_its_derived_schedule():
    # the text form carries no timing: on a 1x2 grid, with one value wire
    # leaving a cell and a tick of one variable in one relation, each turn
    # is 1 + 1 + 4 + GIBBS_SLACK = 10 cycles, taken in lowest-variable order
    cells = {(0, 0): CellImage(var_slots=[VarSlot(0, 2)],
                               rel_slots=[RelSlot(0, [0], [100, 300])]),
             (0, 1): CellImage(var_slots=[VarSlot(1, 2)],
                               rel_slots=[RelSlot(1, [1, 0], [300, 100, 100, 300])])}
    img = MachineImage((1, 2), GIBBS, 7, cells)
    text = dumps(img)
    assert "CELL 0 1\nVAR 1 2\nREL 1 1 0\n300 100 100 300\n" in text
    assert image.gibbs_schedule(img, img.wires) == (20, {(0, 0): 0, (0, 1): 10})
    machine = Machine(text)
    assert machine.period == 20 and [c.phase for c in machine.cells.values()] == [0, 10]
    trace, stats, beliefs = run_bytes(img, Capacities(), 30)
    assert run_bytes(parse_image(text), Capacities(), 30) == (trace, stats, beliefs)
    samples = [row for row in trace.splitlines() if ",SAMPLE," in row]
    assert samples[0].startswith("20,0,0,") and samples[1].startswith("30,0,1,")


def test_a_code_built_converging_image_loads_and_runs_as_its_text():
    # variable 1, clamped to 1 in cell (0, 1), is tied by an equality to
    # variable 0 through the one shadow of cell (0, 0); the relation reading
    # it answers on the shadow's return wire
    cells = {(0, 0): CellImage(var_slots=[VarSlot(0, 2)],
                               rel_slots=[RelSlot(0, [0, 1], [65535, 0, 0, 65535])]),
             (0, 1): CellImage(var_slots=[VarSlot(1, 2, 1)])}
    img = MachineImage((1, 2), SUMPROD, 0, cells)
    assert img.wires == [Wire(1, (0, 1), (0, 0), 0), Wire(1, (0, 0), (0, 1), 0, back=True)]
    m = Machine(img)
    assert m.run_until_quiescent()[1]
    assert m.read_beliefs() == ({0: [0.0, 1.0], 1: [0.0, 1.0]}, {0: 1, 1: 1})
    text = dumps(img)
    assert "\nREL 0 0 1\n" in text
    assert run_bytes(img, Capacities(), 0) == run_bytes(parse_image(text), Capacities(), 0)


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
    # and the text loads and runs the same machine as the compiled image
    assert run_bytes(img, caps, 50) == run_bytes(parse_image(text), caps, 50)
    if mode != GIBBS:
        # a remote edge is one shadow and its return wire, so each
        # message travels on exactly one wire
        m = Machine(img, capacities=caps)
        ports = [edge.port for var in m.var_owner.values() for edge in var.edges
                 if edge.port is not None]
        ports += [sh.port for cell in m.cells.values() for sh in cell.shadows]
        assert [len(port.dests) for port in ports] == [1] * len(ports)

