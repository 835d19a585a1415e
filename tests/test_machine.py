"""Event-driven simulator: build checks, timing, gating, golden agreement."""

import dataclasses
import functools
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import apps, golden
from factormesh.graph import (TABLE, FactorGraph, FactorNode, VariableNode,
                              expand_all, with_evidence)
from factormesh.image import (GIBBS, MINSUM, SUMPROD, Capacities, CellImage, ImageError,
                              MachineImage, RelSlot, VarSlot, dumps, parse_image)
from factormesh.fixedpoint import Q88, U16
from factormesh.machine import (Machine, MachineError, _Edge, _Port, _Shadow, _emitter,
                                _kernel, _update, xy_links)
from factormesh.mapper import (MapperError, Placement, cluster, compile_graph, emit_image,
                               lower, place)

TOL_CELL = 2.0 ** -7
TOL_MESH = 2.0 ** -6


def compiled(graph, mode, grid=(2, 2), seed=0, thresh=None,
             caps=Capacities(), **machine_kw):
    """Compile and reload through the text form so every run covers it."""
    image, report = compile_graph(graph, mode, grid=grid, seed=seed,
                                  thresh=thresh, capacities=caps, epochs=5)
    m = Machine(dumps(image), capacities=caps, **machine_kw)
    return m, report


def unary_graph(p0=0.3, p1=0.7):
    return FactorGraph([VariableNode(0, 2)],
                       [FactorNode(0, (0,), TABLE, (p0, p1))])


def pair_graph():
    # joint [[1, 2], [3, 4]]
    return FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                       [FactorNode(0, (0, 1), TABLE, (1.0, 2.0, 3.0, 4.0))])


def belief_err(machine, graph):
    beliefs, _ = machine.read_beliefs()
    state = golden.sum_product(graph, max_iters=gen.flooding_rounds(graph),
                               tol=0.0)
    return max(float(np.max(np.abs(np.asarray(beliefs[v.id]) - state.beliefs[v.id])))
               for v in graph.variables)


# -- small quiescent runs ----------------------------------------------------

def test_fresh_machine_holds_uniform_beliefs():
    m, _ = compiled(pair_graph(), "SUMPROD", grid=(1, 1))
    assert m.var_owner[0].belief == (65535, 65535)
    beliefs, _ = m.read_beliefs()
    assert beliefs[0] == [0.5, 0.5] and beliefs[1] == [0.5, 0.5]


def test_single_unary_converges_fast_and_close():
    m, report = compiled(unary_graph(), "SUMPROD", grid=(1, 1))
    assert report["clusters"] == 1
    stats, quiescent = m.run_until_quiescent()
    assert quiescent and stats.cycles < 100
    beliefs, _ = m.read_beliefs()
    assert max(abs(beliefs[0][0] - 0.3), abs(beliefs[0][1] - 0.7)) < TOL_CELL


def test_single_cell_tracks_golden_sum_product():
    hits = 0
    for seed in range(40):
        graph = gen.random_tree_graph(seed, n_lo=2, n_hi=4)
        m, report = compiled(graph, "SUMPROD")
        if report["clusters"] != 1:
            continue
        _, quiescent = m.run_until_quiescent()
        assert quiescent
        assert belief_err(m, graph) < TOL_CELL, "seed %d" % seed
        hits += 1
        if hits == 3:
            break
    assert hits == 3


def multi_cell_tree():
    for seed in range(40):
        graph = gen.random_tree_graph(seed)
        if len(graph.variables) >= 7:
            return graph
    raise AssertionError("no tree seed large enough")


def test_mesh_run_tracks_golden_and_verifies():
    graph = multi_cell_tree()
    caps = Capacities(var_slots=2)
    m, report = compiled(graph, "SUMPROD", grid=(4, 4), thresh=1, caps=caps)
    assert report["clusters"] >= 2
    stats, quiescent = m.run_until_quiescent(50000)
    assert quiescent
    assert belief_err(m, graph) < TOL_MESH
    drift = m.verify_quiescent()
    assert drift["local"] == 0 and drift["remote"] == 0
    assert stats.packets >= report["clusters"] - 1
    assert stats.hops >= stats.packets


def test_evidence_clamps_and_conditions():
    graph = with_evidence(pair_graph(), {1: 0})
    m, _ = compiled(graph, "SUMPROD", grid=(1, 1), trace=True)
    m.run_until_quiescent()
    beliefs, assignment = m.read_beliefs()
    assert beliefs[1] == [1.0, 0.0]
    # P(v0 | v1=0) = [1, 3] / 4
    assert abs(beliefs[0][0] - 0.25) < TOL_CELL
    assert assignment[0] == 1 and assignment[1] == 0
    assert any(",CLAMP," in row for row in m.trace)


def test_inject_evidence_reconditions_a_finished_run():
    m, _ = compiled(pair_graph(), "SUMPROD", grid=(1, 1))
    m.run_until_quiescent()
    m.inject_evidence(1, 0, at_time=m.time + 1)
    _, quiescent = m.run_until_quiescent()
    assert quiescent
    beliefs, _ = m.read_beliefs()
    want = golden.exact_marginals(with_evidence(pair_graph(), {1: 0}))
    assert abs(beliefs[0][0] - want[0][0]) < TOL_CELL
    assert beliefs[1] == [1.0, 0.0]
    with pytest.raises(MachineError):
        m.inject_evidence(9, 0)
    with pytest.raises(MachineError):
        m.inject_evidence(0, 5)


def test_inject_evidence_refuses_a_past_time_after_a_run():
    word = apps.hamming_encode((1, 0, 1, 1))
    bench = apps.build_parity_code(word)
    m, _ = compiled(bench.graph, "SUMPROD", grid=(4, 4), seed=1, thresh=64)
    m.run_until_quiescent()
    now = m.time
    assert now > 0
    with pytest.raises(MachineError) as err:
        m.inject_evidence(2, 0, at_time=-50)
    assert "cycle -50" in str(err.value) and "cycle %d" % now in str(err.value)
    with pytest.raises(MachineError):
        m.inject_evidence(2, 0, at_time=now - 1)
    # the clock did not move and nothing was queued
    assert m.time == now and not m.step()
    m.inject_evidence(2, 0, at_time=now)
    _, quiescent = m.run_until_quiescent()
    assert quiescent and m.time >= now


def test_inject_evidence_refuses_a_negative_time_before_any_run():
    m, _ = compiled(pair_graph(), "SUMPROD", grid=(1, 1))
    with pytest.raises(MachineError) as err:
        m.inject_evidence(1, 0, at_time=-1)
    assert "cycle -1" in str(err.value) and "cycle 0" in str(err.value)
    m.inject_evidence(1, 0, at_time=0)


def contradiction_chain():
    """v0 = 0 and v2 = 1 as evidence, tied through v1 by two equalities."""
    eq = (1.0, 0.0, 0.0, 1.0)
    graph = FactorGraph([VariableNode(i, 2) for i in range(3)],
                        [FactorNode(0, (0, 1), TABLE, eq),
                         FactorNode(1, (1, 2), TABLE, eq)])
    return with_evidence(graph, {0: 0, 2: 1})


def test_collapsed_belief_raises_instead_of_reading_uniform():
    m, _ = compiled(contradiction_chain(), "SUMPROD", grid=(1, 1))
    _, quiescent = m.run_until_quiescent()
    assert quiescent
    assert m.var_owner[1].belief == (0, 0)
    with pytest.raises(MachineError) as err:
        m.read_beliefs()
    assert "variable 1" in str(err.value) and "collapsed" in str(err.value)


def test_minsum_collapsed_belief_raises_instead_of_reading_uniform():
    # hard equalities (epsilon 0): every Q8.8 word of v1's belief is the
    # floor, weight zero, which must not normalize up to a uniform belief
    image, _ = compile_graph(contradiction_chain(), "MINSUM", grid=(1, 1),
                             epsilon=0.0, epochs=5)
    m = Machine(dumps(image))
    _, quiescent = m.run_until_quiescent()
    assert quiescent
    assert m.var_owner[1].belief == (-32768, -32768)
    with pytest.raises(MachineError, match="variable 1: belief collapsed"):
        m.read_beliefs()


def test_every_mode_loads_its_domains_default_threshold_and_table_range():
    for mode, thresh, lo, hi in (("SUMPROD", 256, 0, 65535),
                                 ("MINSUM", 16, -32768, 32767),
                                 ("GIBBS", None, 0, 65535)):
        head = "FMIMG 10\nGRID 1 1\nMODE %s\n" % mode
        cell = "CELL 0 0\nVAR 0 2\nREL 0 0\n%d %d\n"
        m = Machine(head + cell % (lo, hi))
        assert m.thresh == thresh, mode
        if mode == "GIBBS":
            # a GIBBS cell sends a value whenever it changes
            with pytest.raises(MachineError, match="line 8: a GIBBS machine takes no THRESH"):
                Machine(head + cell % (lo, hi) + "THRESH 0\n")
        for words in ((lo - 1, hi), (lo, hi + 1)):
            with pytest.raises(MachineError, match=r"table word outside \[%d, %d\]"
                               % (lo, hi)):
                Machine(head + cell % words)


@pytest.mark.parametrize("mode", ["SUMPROD", "MINSUM"])
def test_tied_beliefs_read_as_the_lowest_value(mode):
    graph = FactorGraph([VariableNode(0, 3)],
                        [FactorNode(0, (0,), TABLE, (0.2, 0.4, 0.4))])
    m, _ = compiled(graph, mode, grid=(1, 1))
    assert m.run_until_quiescent(1000)[1]
    belief = m.var_owner[0].belief
    assert belief[1] == belief[2] > belief[0]
    assert m.read_assignment() == {0: 1}
    assert m.read_beliefs()[1] == {0: 1}
    assert m.assignment_reader([0])() == (1,)


# -- assignment readers --------------------------------------------------------

def read_reference(m, vids):
    """The answers of `vids` from `read_assignment`, the reference every
    generated reader must equal."""
    a = m.read_assignment()
    return tuple(a[v] for v in vids)


@settings(max_examples=150, deadline=None)
@given(graph_seed=st.integers(0, 10 ** 6), tree=st.booleans(),
       mode=st.sampled_from([SUMPROD, MINSUM, GIBBS]),
       place_seed=st.integers(0, 2 ** 32 - 1), pick_seed=st.integers(0, 10 ** 6))
def test_assignment_reader_matches_read_assignment(graph_seed, tree, mode, place_seed,
                                                   pick_seed):
    graph = (gen.random_tree_graph(graph_seed) if tree
             else gen.random_builtin_graph(graph_seed))
    caps = Capacities(var_slots=2, rel_slots=16, shadow_slots=64, table_words=4096)
    try:
        image, _ = compile_graph(graph, mode, grid=(4, 4), seed=place_seed,
                                 capacities=caps, epochs=2)
    except MapperError:
        reject()
    m = Machine(image, capacities=caps)
    pick = random.Random(pick_seed)
    vids = pick.sample(sorted(m.var_owner), pick.randint(0, len(m.var_owner)))
    read = m.assignment_reader(vids)
    assert read() == read_reference(m, vids)
    if mode == GIBBS:
        m.run_ticks(pick.randint(1, 20))
    else:
        m.run_until_quiescent(pick.randint(0, 2000))
    assert read() == read_reference(m, vids)
    if mode != GIBBS:
        # words from a few values, so most beliefs hold ties
        dom = m.dom
        words = (dom.lo, dom.lo + 1, dom.one, dom.hi)
        for var in m.var_owner.values():
            var.belief = tuple(pick.choice(words) for _ in range(var.card))
        assert read() == read_reference(m, vids)


@pytest.mark.parametrize("mode", [SUMPROD, MINSUM])
def test_assignment_reader_reads_ties_and_collapsed_beliefs_as_the_lowest_value(mode):
    graph = FactorGraph([VariableNode(0, 3), VariableNode(1, 2)],
                        [FactorNode(0, (0, 1), TABLE, (1.0,) * 6)])
    m, _ = compiled(graph, mode, grid=(1, 1))
    read = m.assignment_reader([1, 0])
    lo = m.dom.lo
    for belief0, belief1, want in (((5, 9, 9), (7, 7), (0, 1)),
                                   ((lo, lo, lo), (lo, lo), (0, 0)),
                                   ((9, 5, 9), (lo, 3), (1, 0)),
                                   ((lo, lo, 4), (8, 2), (0, 2))):
        m.var_owner[0].belief, m.var_owner[1].belief = belief0, belief1
        assert read() == want == read_reference(m, [1, 0])


def test_assignment_reader_rejects_an_unknown_variable():
    m, _ = compiled(pair_graph(), "SUMPROD", grid=(1, 1))
    with pytest.raises(MachineError, match="unknown variable 7"):
        m.assignment_reader([0, 7])


def test_minsum_machine_recovers_map_assignment():
    variables = [VariableNode(i, 2) for i in range(3)]
    factors = [FactorNode(0, (0, 1), TABLE, (0.9, 0.1, 0.1, 0.9)),
               FactorNode(1, (1, 2), TABLE, (0.9, 0.1, 0.1, 0.9)),
               FactorNode(2, (0,), TABLE, (0.7, 0.3)),
               FactorNode(3, (2,), TABLE, (0.25, 0.75))]
    graph = FactorGraph(variables, factors)
    m, _ = compiled(graph, "MINSUM", grid=(1, 1))
    _, quiescent = m.run_until_quiescent()
    assert quiescent
    _, assignment = m.read_beliefs()
    want = golden.map_bruteforce(graph)
    assert [assignment[i] for i in range(3)] == want


# -- routing -----------------------------------------------------------------

ROUTE_IMG = """\
FMIMG 10
GRID 3 4
MODE SUMPROD
CELL 0 0
VAR 0 2
CELL 2 3
VAR 1 2
"""


def test_route_charges_one_cycle_per_link():
    m = Machine(ROUTE_IMG)
    # 3 column hops then 2 row hops
    assert xy_links((0, 0), (2, 3)) == (((0, 0), (0, 1)), ((0, 1), (0, 2)),
                                        ((0, 2), (0, 3)), ((0, 3), (1, 3)),
                                        ((1, 3), (2, 3)))
    assert xy_links((2, 3), (0, 0)) == (((2, 3), (2, 2)), ((2, 2), (2, 1)),
                                        ((2, 1), (2, 0)), ((2, 0), (1, 0)),
                                        ((1, 0), (0, 0)))
    assert m._route(xy_links((0, 0), (2, 3)), 0) == 5
    assert m._route(xy_links((2, 3), (0, 0)), 0) == 5


def test_route_contention_stalls_second_packet():
    m = Machine(ROUTE_IMG)
    first = m._route(xy_links((0, 0), (2, 3)), 0)
    second = m._route(xy_links((0, 0), (2, 3)), 0)
    assert (first, second) == (5, 6)
    assert m.stats.peak_link_occupancy == 2


# -- edges and ports ---------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(graph_seed=st.integers(0, 10 ** 6), tree=st.booleans(),
       mode=st.sampled_from([SUMPROD, MINSUM, GIBBS]), var_slots=st.integers(1, 3),
       place_seed=st.integers(0, 2 ** 32 - 1))
def test_each_edge_is_a_local_relation_or_a_shadow_round_trip(graph_seed, tree, mode,
                                                              var_slots, place_seed):
    graph = (gen.random_tree_graph(graph_seed) if tree
             else gen.random_builtin_graph(graph_seed))
    caps = Capacities(var_slots=var_slots, rel_slots=16, shadow_slots=64,
                      table_words=4096)
    try:
        image, _ = compile_graph(graph, mode, grid=(4, 4), seed=place_seed,
                                 capacities=caps, epochs=2)
    except MapperError:
        reject()
    m = Machine(image, capacities=caps)
    # the factors each variable is in, from the relations' scopes
    fids = {vid: [] for vid in m.var_owner}
    for cell in m.cells.values():
        for rel in cell.rels:
            for ref in rel.refs:
                if type(ref) is _Edge:
                    assert ref.rel is rel and ref.var.cell is cell
                elif type(ref) is _Shadow:
                    # a converging shadow's one reader; a GIBBS one keeps none
                    assert ref.rel is (None if mode == GIBBS else rel)
                else:
                    assert mode == GIBBS
                fids[ref.var.vid if type(ref) is _Edge else ref.vid].append(rel.fid)
    for vid, var in m.var_owner.items():
        if mode == GIBBS:
            assert var.edges == []
            continue
        assert [edge.fid for edge in var.edges] == sorted(fids[vid])
        for edge in var.edges:
            assert edge.var is var
            if edge.port is None:
                assert edge.rel.fid == edge.fid
                assert any(ref is edge for ref in edge.rel.refs)
            else:
                assert edge.rel is None
                ((_dst, shadow, _hops, _links),) = edge.port.dests
                assert type(shadow) is _Shadow
                assert shadow.vid == vid
                assert shadow.rel.fid == edge.fid
                ((owner_cell, back, _hops, _links),) = shadow.port.dests
                assert back is edge and owner_cell is var.cell


def test_gate_send_rules():
    m = Machine(ROUTE_IMG)
    cell = m.cells[(0, 0)]

    def sent(thresh, payloads):
        """(payload, flush) of each send the gate queues on a fresh port."""
        m.thresh = thresh
        port = _Port(0)
        m._heap.clear()
        for payload in payloads:
            m._gate_send(port, payload, 0, cell)
        events = sorted(m._heap, key=lambda e: e[2])
        assert all(e[3] == m._on_send and e[4][:2] == (cell, port) for e in events)
        return [e[4][2:] for e in events]

    # thresh 0 resends an equal message; only a port's first packet flushes
    assert sent(0, [(5, 9), (5, 9)]) == [((5, 9), True), ((5, 9), False)]
    # thresh k drops a move smaller than k, measured from the last send
    assert sent(16, [(100, 200), (110, 200), (116, 200), (100, 209)]) == [
        ((100, 200), True), ((116, 200), False), ((100, 209), False)]
    # a GIBBS cell has no threshold: it drops an equal value and sends a
    # changed one
    assert sent(None, [1, 1, 2, 2, 0]) == [(1, True), (2, False), (0, False)]


# -- packet gating -----------------------------------------------------------

def test_threshold_gates_packets_monotonically():
    graph = multi_cell_tree()
    caps = Capacities(var_slots=2)
    runs = {}
    for thresh in (0, 256, 65535):
        m, report = compiled(graph, "SUMPROD", grid=(4, 4), thresh=thresh,
                             caps=caps)
        assert report["clusters"] >= 2
        stats, quiescent = m.run_until_quiescent(50000)
        assert quiescent, "thresh %d" % thresh
        runs[thresh] = stats
    assert runs[256].packets <= runs[0].packets
    # full-scale threshold: only the startup flush crosses the mesh
    assert runs[65535].packets == runs[65535].flush_packets
    assert runs[0].flush_packets <= runs[0].packets


# -- determinism -------------------------------------------------------------

def run_traced(graph, mode, **kw):
    m, _ = compiled(graph, mode, trace=True, **kw)
    stats, _ = m.run_until_quiescent(50000)
    beliefs, _ = m.read_beliefs()
    return stats.text(), m.trace_text(), beliefs


def test_reruns_are_byte_identical():
    graph = multi_cell_tree()
    caps = Capacities(var_slots=2)
    a = run_traced(graph, "SUMPROD", grid=(4, 4), thresh=1, caps=caps)
    b = run_traced(graph, "SUMPROD", grid=(4, 4), thresh=1, caps=caps)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


def test_trace_surface():
    graph = multi_cell_tree()
    m, _ = compiled(graph, "SUMPROD", grid=(4, 4), thresh=1,
                    caps=Capacities(var_slots=2), trace=True)
    m.run_until_quiescent(50000)
    text = m.trace_text()
    rows = text.splitlines()
    assert rows[0] == "cycle,cell_row,cell_col,event,var_id,detail"
    events = {row.split(",")[3] for row in rows[1:]}
    assert {"UPDATE", "SEND", "DELIVER"} <= events
    assert events <= {"UPDATE", "SEND", "DELIVER", "CLAMP", "SAMPLE"}
    plain, _ = compiled(graph, "SUMPROD", grid=(4, 4),
                        caps=Capacities(var_slots=2))
    with pytest.raises(MachineError):
        plain.trace_text()


# -- sampling mode -----------------------------------------------------------

def test_gibbs_machine_never_quiesces():
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    m, _ = compiled(bench.graph, "GIBBS")
    stats, quiescent = m.run_until_quiescent(2000)
    assert not quiescent
    assert stats.cycles == 2000
    with pytest.raises(MachineError):
        m2, _ = compiled(pair_graph(), "SUMPROD", grid=(1, 1))
        m2.run_ticks(5)


def test_gibbs_machine_has_no_quiescence_to_verify():
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    m, _ = compiled(bench.graph, "GIBBS", grid=(4, 4))
    # sampling cells publish values: no variable gets message state
    for var in m.var_owner.values():
        assert var.refresh is None
        assert var.edges == []
    m.run_ticks(20)
    with pytest.raises(MachineError, match="SUMPROD and MINSUM"):
        m.verify_quiescent()


def test_gibbs_single_site_frequencies_match_unary():
    m, _ = compiled(unary_graph(), "GIBBS", grid=(1, 1), seed=11)
    m.run_ticks(30000)
    beliefs, _ = m.read_beliefs()
    assert abs(beliefs[0][0] - 0.3) < 0.02
    trace_m, _ = compiled(unary_graph(), "GIBBS", grid=(1, 1), trace=True)
    trace_m.run_ticks(3)
    events = {row.split(",")[3] for row in trace_m.trace}
    assert "SAMPLE" in events


def test_run_ticks_rejects_counts_below_one():
    for ticks in (0, -5):
        m, _ = compiled(unary_graph(), "GIBBS", grid=(1, 1))
        with pytest.raises(MachineError) as err:
            m.run_ticks(ticks)
        assert "at least 1" in str(err.value)
        assert m.var_owner[0].counts == [0, 0]


def test_run_ticks_refuses_a_machine_that_has_ticked():
    bench = apps.build_ising_chain(4, 0.5, 0.2)
    m, _ = compiled(bench.graph, "GIBBS")
    stats = m.run_ticks(10)
    text = stats.text()
    with pytest.raises(MachineError) as err:
        m.run_ticks(20)
    first = min(coord for coord, cell in m.cells.items() if cell.vars)
    assert "cell (%d, %d) has already ticked 10 times" % first in str(err.value)
    assert all(sum(m.var_owner[v].counts) == 10 for v in range(4))
    assert m.stats.text() == text
    # a run_until_quiescent that reached a tick counts too
    m, _ = compiled(bench.graph, "GIBBS")
    m.run_until_quiescent(2000)
    ticks = m.cells[first].tick_idx
    assert ticks > 0
    with pytest.raises(MachineError) as err:
        m.run_ticks(5)
    assert "cell (%d, %d) has already ticked %d times" % (first + (ticks,)) \
        in str(err.value)


def test_gibbs_beliefs_without_samples_raise():
    m, _ = compiled(pair_graph(), "GIBBS", grid=(1, 1))
    m.run_until_quiescent(10)
    assert m.cells[(0, 0)].tick_idx == 0
    with pytest.raises(MachineError) as err:
        m.read_beliefs()
    assert "variable 0" in str(err.value) and "no samples" in str(err.value)
    m.run_ticks(1)
    beliefs, _ = m.read_beliefs()
    assert all(sum(b) == 1.0 for b in beliefs.values())


def test_gibbs_samples_do_not_depend_on_placement():
    bench = apps.build_ising_chain(4, 0.5, 0.2)
    lowered = lower(bench.graph, epsilon=0.0, mode="GIBBS")
    clusters = cluster(lowered, mode="GIBBS")
    assert len(clusters) >= 2
    base = place(clusters, lowered, (2, 2), seed=0, mode="GIBBS")
    swapped = Placement((2, 2), list(reversed(base.coords)),
                        base.cost_initial, base.cost_final)
    runs = []
    for placement in (base, swapped):
        image = emit_image(placement, clusters, lowered, "GIBBS", seed=5)
        m = Machine(dumps(image))
        m.run_ticks(200)
        beliefs, _ = m.read_beliefs()
        runs.append((m.read_assignment(), beliefs))
    assert runs[0] == runs[1]


# -- output noise ------------------------------------------------------------

def test_output_noise_random_rounding():
    graph = pair_graph()
    clean, _ = compiled(graph, "SUMPROD", grid=(1, 1))
    noisy, _ = compiled(graph, "SUMPROD", grid=(1, 1), noise_lsbs=2)
    for m in (clean, noisy):
        _, quiescent = m.run_until_quiescent()
        assert quiescent
    assert belief_err(noisy, graph) < TOL_CELL
    raw = lambda m: [m.var_owner[v].belief for v in (0, 1)]
    assert raw(clean) != raw(noisy)


def test_verify_quiescent_leaves_a_noisy_run_unchanged():
    # the probe recomputes every message without noise, so the continued
    # run draws the same noise words as one that was never probed
    bench = apps.build_sudoku()
    image, _ = compile_graph(bench.graph, "MINSUM", grid=bench.grid, seed=0, epochs=5)
    text = dumps(image)
    runs = []
    for probe in (False, True):
        m = Machine(text, trace=True, noise_lsbs=2)
        m.run_until_quiescent(300)
        if probe:
            m.verify_quiescent()
        stats, _ = m.run_until_quiescent(600)
        beliefs, _ = m.read_beliefs()
        runs.append((stats.text(), m.trace_text(), apps.write_results(beliefs),
                     m._noise_ctr))
    assert runs[0] == runs[1]


def test_negative_noise_is_rejected():
    image, _ = compile_graph(pair_graph(), "SUMPROD", grid=(1, 1), epochs=5)
    with pytest.raises(MachineError, match="noise_lsbs must be >= 0, got -1"):
        Machine(image, noise_lsbs=-1)


def test_gibbs_machine_rejects_output_noise():
    # noise perturbs computed messages, and a sampling cell computes none:
    # a noisy GIBBS run would be the clean one under another name
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    image, _ = compile_graph(bench.graph, GIBBS, grid=bench.grid, seed=0, epochs=5)
    assert Machine(image, noise_lsbs=0).run_ticks(300).activations > 0
    with pytest.raises(MachineError, match="a GIBBS machine takes no output noise, got 5"):
        Machine(image, noise_lsbs=5)


def test_negative_cycle_budget_is_rejected():
    m, _ = compiled(pair_graph(), "SUMPROD", grid=(1, 1))
    with pytest.raises(MachineError, match="max_cycles must be >= 0, got -5"):
        m.run_until_quiescent(-5)
    assert m.run_until_quiescent(0)[0].cycles == 0


def test_a_threshold_built_in_code_is_checked_at_load_with_no_line():
    # the compiler refuses both; an image built in memory can carry them
    for mode, thresh, message in (("SUMPROD", -5, "threshold must be >= 0, got -5"),
                                  ("GIBBS", 0, "a GIBBS machine takes no THRESH")):
        image, _ = compile_graph(pair_graph(), mode, grid=(1, 1), epochs=5)
        image.thresh = thresh
        with pytest.raises(MachineError) as err:
            Machine(image)
        assert str(err.value) == message and not hasattr(err.value, "line")


# -- zero-total GIBBS draws ---------------------------------------------------

def test_gibbs_counts_draws_whose_conditional_total_is_zero():
    # variable 2's neighbours 0, 1 and 3 can hold all three colours, and
    # the soft constraint's epsilon quantizes to word 0: that conditional
    # has total 0 and the variable keeps its value
    bench = apps.build_coloring([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)], 3)
    image, _ = compile_graph(bench.graph, "GIBBS", grid=(4, 4), seed=0)
    stats = Machine(dumps(image)).run_ticks(2000)
    assert stats.zero_total_draws == 1
    assert "zero_total" not in stats.text()
    ising = apps.build_ising_chain(4, 0.5, 0.1)
    image, _ = compile_graph(ising.graph, "GIBBS", grid=ising.grid, epochs=5)
    assert Machine(dumps(image)).run_ticks(200).zero_total_draws == 0


# -- end to end on a real workload --------------------------------------------

def test_machine_decodes_a_clean_codeword():
    word = apps.hamming_encode((1, 0, 1, 1))
    bench = apps.build_parity_code(word)
    m, _ = compiled(bench.graph, "SUMPROD", grid=(4, 4), seed=1, thresh=256)
    decoded = apps.decode_by_candidates(
        apps.machine_hamming_trajectory(m, budget=3000), word)
    assert decoded == word


def reference_hamming_trajectory(machine, budget: int = 3000):
    """`apps.machine_hamming_trajectory` before it polled an assignment
    reader, kept verbatim as the reference it must equal."""
    last_t = -1
    while machine.step():
        if machine.time > budget:
            break
        if machine.time != last_t:
            last_t = machine.time
            a = machine.read_assignment()
            yield tuple(a[v] for v in range(7))
    a = machine.read_assignment()
    yield tuple(a[v] for v in range(7))


@pytest.mark.parametrize("thresh", [None, 0])
def test_hamming_trajectory_matches_reference(thresh):
    # at budget 600 two of the default threshold's flips and every flip at
    # thresh 0 run out the budget, and the clean word quiesces
    budget = 600
    word = apps.hamming_codewords()[5]
    received = [tuple(b ^ (i == pos) for i, b in enumerate(word)) for pos in range(-1, 7)]
    received.append(tuple(b ^ (i in (2, 4)) for i, b in enumerate(word)))
    bound = 0
    for r in received:
        bench = apps.build_parity_code(r, flip_p=0.05)
        image, _ = compile_graph(bench.graph, SUMPROD, grid=bench.grid, seed=0,
                                 thresh=thresh)
        runs = []
        for trajectory in (apps.machine_hamming_trajectory, reference_hamming_trajectory):
            m = Machine(image)
            runs.append((list(trajectory(m, budget=budget)), m.stats.text(), m.time))
        assert runs[0] == runs[1], r
        # a budget-bound run has run the first event past its budget
        bound += runs[0][2] > budget
    assert bound == (2 if thresh is None else 8)


# -- build diagnostics --------------------------------------------------------

BUILD_ERRORS = [
    ("""FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0
VAR 0 2\nVAR 1 2\nVAR 2 2\nVAR 3 2\nVAR 4 2\n""",
     "line 4: cell (0, 0): too many variable slots"),
    ("FMIMG 10\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\nCELL 0 1\nVAR 0 2\n",
     "line 7: variable 0 owned by two cells"),
    # the value rules: each names its VAR record's line, or its CELL's
    ("FMIMG 10\nGRID 2 2\nMODE SUMPROD\nCELL 0 0\nCELL 2 0\n",
     "line 5: cell (2, 0) outside grid"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 17\n",
     "line 5: variable 0: cardinality above limit"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\nVAR 1 1\n",
     "line 6: variable 1: cardinality below 2"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2 EVIDENCE 2\n",
     "line 5: variable 0: evidence out of range"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2 EVIDENCE -1\n",
     "line 5: variable 0: evidence out of range"),
    # the image-wide rules name their record's line
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\nREL 0 0\n1 1\n"
     "THRESH -1\n",
     "line 8: threshold must be >= 0, got -1"),
    ("FMIMG 10\nGRID 1 1\nMODE MINSUM\nSEED 2\nTHRESH -16\nCELL 0 0\nVAR 0 2\n",
     "line 5: threshold must be >= 0, got -16"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0\n1 1 1\n",
     "line 6: relation 0: table has 3 words, scope needs 2"),
    # a REL's scope fixes its word count, and its integer lines give its words
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0\n1\n",
     "line 6: relation 0: table has 1 words, scope needs 2"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0\nTHRESH 1\n",
     "line 6: relation 0: table has 0 words, scope needs 2"),
    # a shadow's wire comes from its variable's cell, so a relation may read
    # only a variable some cell declares
    ("FMIMG 10\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0 1\n1 1 1 1\nCELL 0 1\nVAR 2 2\n",
     "line 6: relation 0 reads variable 1, which no cell owns"),
    ("FMIMG 10\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 2\nREL 0 0\n1 1\n"
     "REL 1 0 9\n1 1 1 1\n",
     "line 8: relation 1 reads variable 9, which no cell owns"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0\n70000 1\n",
     "table word outside [0, 65535]"),
    ("FMIMG 10\nGRID 1 1\nMODE MINSUM\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0\n-40000 0\n",
     "table word outside [-32768, 32767]"),
    # a relation reading one variable twice would send it two messages
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0 0\n1 2 3 4\n",
     "relation 0 binds variable 0 at two scope positions"),
    ("FMIMG 10\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     "REL 0 1 1\n1 2 3 4\nCELL 0 1\nVAR 1 2\n",
     "line 6: relation 0 binds variable 1 at two scope positions"),
    ("FMIMG 10\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 2\n"
     "REL 0 0 0\n1 2 3 4\n",
     "relation 0 binds variable 0 at two scope positions"),
    # a cell holds 4 relations and 512 table words
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
     + "".join("REL %d 0\n1 1\n" % k for k in range(5)),
     "line 4: cell (0, 0): too many relation slots"),
    ("FMIMG 10\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 16\nVAR 1 16\n"
     + "".join("REL %d 0 1\n" % k + "1 " * 256 + "\n" for k in range(2))
     + "REL 2 0\n" + "1 " * 16 + "\n",
     "cell (0, 0): table memory over capacity"),
    # six positions would cost 72 cycles per update
    ("FMIMG 10\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\n"
     + "".join("VAR %d 2\n" % v for v in range(4))
     + "REL 0 0 1 2 3 4 5\n" + "1 " * 64 + "\n"
     "CELL 0 1\nVAR 4 2\nVAR 5 2\n",
     "relation 0: an update of 6 scope positions costs 72 cycles, above 64"),
    # a converging factor id names one relation of the machine ...
    ("FMIMG 10\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\nREL 0 0\n1 1\n"
     "CELL 0 1\nVAR 1 2\nREL 0 1\n1 1\n",
     "line 10: cell (0, 1): factor id 0 names a second relation"),
    ("FMIMG 10\nGRID 1 1\nMODE MINSUM\nCELL 0 0\nVAR 0 2\nREL 3 0\n0 0\n"
     "REL 3 0\n0 0\n",
     "cell (0, 0): factor id 3 names a second relation"),
    # ... and a GIBBS one a relation per cell
    ("FMIMG 10\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 2\nREL 0 0\n1 1\n"
     "REL 0 0\n1 1\n",
     "cell (0, 0): factor id 0 names a second relation"),
    # a GIBBS cell sends a value whenever it changes
    ("FMIMG 10\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 2\nREL 0 0\n1 1\n"
     "THRESH 7\n",
     "line 8: a GIBBS machine takes no THRESH"),
]


def test_build_error_catalog():
    for text, needle in BUILD_ERRORS:
        with pytest.raises(MachineError) as err:
            Machine(text)
        assert needle in str(err.value), "wanted %r in %r" % (needle, str(err.value))
        # a rejection of a parsed image names the line of its record
        assert str(err.value).startswith("line %d: " % err.value.line), str(err.value)


def test_load_rejects_a_grid_or_cell_off_the_mesh():
    # parse_image applies the grid rule to text as well, and the load the
    # cell rule, naming the CELL line; an image built in code meets both at
    # load, with no line
    image, _ = compile_graph(apps.build_ising_chain(4, 0.5, 0.2).graph, "SUMPROD",
                             grid=(2, 2))
    for grid in ((-2, -2), (2, 0)):
        with pytest.raises(MachineError, match="grid dimensions must be positive"):
            Machine(dataclasses.replace(image, grid=grid))
    cells = dict(image.cells)
    cells[(7, 9)] = cells.pop(max(cells))
    with pytest.raises(MachineError, match=r"^cell \(7, 9\) outside grid") as err:
        Machine(dataclasses.replace(image, cells=cells))
    assert not hasattr(err.value, "line")


# a 1x1 GIBBS image built in code, one value away from a loadable one; the
# machine rejects each with no line, and its text form at the line of its
# VAR or REL record, or, for a scope entry or a scope no text can hold,
# parse_image
CODE_BUILT_REJECTS = [
    ({"card": 1}, {}, "variable 0: cardinality below 2"),
    ({"evidence": 5}, {}, "variable 0: evidence out of range"),
    ({"evidence": -1}, {}, "variable 0: evidence out of range"),
    # a scope entry names a variable some cell declares: -1 names none, and
    # True, equal to 1, 0.5 and [0], unhashable, are no variable ids
    ({}, {"rel_slots": [RelSlot(0, [-1], [1, 1])]},
     "relation 0 reads variable -1, which no cell owns"),
    ({}, {"rel_slots": [RelSlot(0, [True], [1, 1])]},
     "relation 0: a scope entry is no variable id"),
    ({}, {"rel_slots": [RelSlot(0, [0.5], [1, 1])]},
     "relation 0: a scope entry is no variable id"),
    ({}, {"rel_slots": [RelSlot(0, [[0]], [1, 1])]},
     "relation 0: a scope entry is no variable id"),
    # a relation of no scope position would run as an update that sends
    # nothing, and its text `REL 0` is no REL record
    ({}, {"rel_slots": [RelSlot(0, [], [5])]}, "relation 0 has no scope position"),
]


@pytest.mark.parametrize("var_kw, cell_kw, needle", CODE_BUILT_REJECTS,
                         ids=["card1", "evidence5", "evidence-1", "scope-1",
                              "scope-true", "scope-half", "scope-list", "no-scope"])
def test_load_rejects_a_code_built_image_its_text_would_not_load(var_kw, cell_kw, needle):
    var = dict({"var_id": 0, "card": 2}, **var_kw)
    cell = CellImage(var_slots=[VarSlot(**var)],
                     **dict({"rel_slots": [RelSlot(0, [0], [1] * var["card"])]},
                            **cell_kw))
    image = MachineImage((1, 1), GIBBS, 0, {(0, 0): cell})
    with pytest.raises(MachineError, match="^" + needle) as err:
        Machine(image)
    assert not hasattr(err.value, "line")
    with pytest.raises((ImageError, MachineError)) as text_err:
        Machine(dumps(image))
    if "no variable id" in needle or "no scope" in needle:
        assert type(text_err.value) is ImageError
    else:
        # CELL on line 5 after the header, then VAR on line 6 and REL on 7
        line = 7 if "reads" in needle else 6
        assert str(text_err.value) == "line %d: %s" % (line, err.value)
        assert text_err.value.line == line


def test_an_unknown_mode_is_rejected_where_an_image_or_graph_is_taken():
    # parse_image rejects the text MODE BOGUS; an image or a graph built in
    # code meets the same rule in the machine and the compiler
    graph = apps.build_ising_chain(4, 0.5, 0.2).graph
    image, _ = compile_graph(graph, SUMPROD, grid=(2, 2))
    bogus = dataclasses.replace(image, mode="BOGUS")
    with pytest.raises(ImageError, match="MODE must be one of SUMPROD/MINSUM/GIBBS"):
        parse_image(dumps(bogus))
    needle = "mode must be one of SUMPROD/MINSUM/GIBBS, got 'BOGUS'"
    with pytest.raises(MachineError, match=needle):
        Machine(bogus)
    with pytest.raises(MapperError, match=needle):
        compile_graph(graph, "BOGUS", grid=(2, 2))
    low = lower(graph)
    clusters = cluster(low)
    with pytest.raises(MapperError, match=needle):
        emit_image(place(clusters, low, (2, 2)), clusters, low, "BOGUS")


def test_return_wires_count_against_the_owner_cells_shadow_slots():
    def image(n):
        # cell (0, 0) holds one shadow and receives n return wires
        lines = ["FMIMG 10", "GRID 1 2", "MODE SUMPROD", "CELL 0 0", "VAR 0 2",
                 "REL 0 0 1", "1 2 3 4",
                 "CELL 0 1", "VAR 1 2"]
        for k in range(n):
            lines += ["REL %d 0" % (k + 1), "1 2"]
        return "\n".join(lines) + "\n"

    caps = Capacities(shadow_slots=3)
    m = Machine(image(2), capacities=caps)
    assert [edge.fid for edge in m.var_owner[0].edges] == [0, 1, 2]
    assert m.run_until_quiescent()[1]
    with pytest.raises(MachineError, match=r"cell \(0, 0\): too many shadow slots, "
                       "return wires included"):
        Machine(image(3), capacities=caps)


def test_a_shadow_of_a_later_cells_variable_loads():
    # the shadow's source cell and cardinality are its variable's, which
    # only a later CELL record declares
    m = Machine("FMIMG 10\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 2\n"
                "REL 0 0 1\n65535 0 0 0 65535 0\n"
                "CELL 0 1\nVAR 1 3 EVIDENCE 1\n")
    shadow = m.cells[(0, 0)].shadows[0]
    edge = m.var_owner[1].edges[0]
    assert (shadow.vid, shadow.card, len(shadow.msg)) == (1, 3, 3)
    assert [dest[:2] for dest in edge.port.dests] == [(m.cells[(0, 0)], shadow)]
    assert [dest[:2] for dest in shadow.port.dests] == [(m.cells[(0, 1)], edge)]
    assert m.run_until_quiescent()[1]
    assert m.read_beliefs()[0][0] == [0.0, 1.0]


def test_relations_with_one_shape_and_program_share_a_kernel():
    bench = apps.build_sudoku()
    m, _ = compiled(bench.graph, "MINSUM", grid=bench.grid)
    rels = [rel for cell in m.cells.values() for rel in cell.rels]
    assert len(rels) == 56 and {rel.shape for rel in rels} == {(4, 4)}
    assert len({id(rel.kernel) for rel in rels}) == 1


def test_relations_with_one_fold_pattern_share_a_kernel():
    # every word of hamming's lowered parity table is U16's zero or one
    word = apps.hamming_codewords()[5]
    bench = apps.build_parity_code(tuple(b ^ (i == 2) for i, b in enumerate(word)),
                                   flip_p=0.05)
    m, _ = compiled(bench.graph, "SUMPROD", grid=bench.grid, thresh=0)
    parity = [rel for cell in m.cells.values() for rel in cell.rels if len(rel.shape) == 3]
    assert len(parity) == 6
    assert {rel.table for rel in parity} == {(65535, 0, 0, 65535, 0, 65535, 65535, 0)}
    assert len({id(rel.kernel) for rel in parity}) == 1
    assert parity[0].kernel is _kernel(U16, (2, 2, 2), (65535, 0, 0, 65535, 0, 65535, 65535, 0))


@pytest.mark.parametrize("mode,dom", [("SUMPROD", U16), ("MINSUM", Q88)])
def test_compiled_dense_tables_share_the_kernel_of_their_shape(mode, dom):
    # quantizing anchors a table's maximum at dom.one, a word that folds, so
    # every compiled table holds one; a table with few such words folds none
    shapes, kernels = set(), set()
    for seed in range(8):
        graph = gen.random_tree_graph(seed, n_lo=8, n_hi=10, card_hi=4)
        m, _ = compiled(graph, mode, grid=(3, 3))
        for rel in (rel for cell in m.cells.values() for rel in cell.rels):
            assert dom.one in rel.table
            assert rel.kernel is _kernel(dom, rel.shape, (None,) * len(rel.table))
            shapes.add(rel.shape)
            kernels.add(rel.kernel)
    assert len(kernels) == len(shapes) > 1


def test_only_a_table_mostly_of_foldable_words_is_folded():
    # (2, 3) tables: 4 foldable words of 6 fold, 3 of 6 do not
    for mode, dom, table, folds in (
            ("SUMPROD", U16, (65535, 0, 0, 0, 8, 7), (65535, 0, 0, 0, None, None)),
            ("SUMPROD", U16, (65535, 0, 0, 9, 8, 7), (None,) * 6),
            ("MINSUM", Q88, (0, 0, 0, 0, -32768, -5), (0, 0, 0, 0, None, None)),
            ("MINSUM", Q88, (0, 0, 0, -32768, -32768, -5), (None,) * 6)):
        text = "FMIMG 10\nGRID 1 1\nMODE %s\nCELL 0 0\nVAR 0 2\nVAR 1 3\n" % mode
        text += "REL 0 0 1\n%s\n" % " ".join(map(str, table))
        rel, = Machine(text).cells[(0, 0)].rels
        assert rel.kernel is _kernel(dom, (2, 3), folds)


@pytest.mark.parametrize("mode", ["SUMPROD", "MINSUM"])
def test_relations_and_variables_of_one_structure_share_their_handlers(mode):
    # an update handler per tuple of position kinds (shadow or edge) and an
    # emit per tuple of edge kinds (local relation or port), never one per unit
    word = apps.hamming_codewords()[5]
    hamming = apps.build_parity_code(tuple(b ^ (i == 2) for i, b in enumerate(word)),
                                     flip_p=0.05)
    bench = hamming if mode == "SUMPROD" else apps.build_sudoku()
    m, _ = compiled(bench.graph, mode, grid=bench.grid, thresh=0 if mode == "SUMPROD" else None)
    rels = [rel for cell in m.cells.values() for rel in cell.rels]
    updates = {}
    for rel in rels:
        kinds = "".join("S" if type(ref) is _Shadow else "E" for ref in rel.refs)
        assert rel.update is _update(kinds)
        updates.setdefault(kinds, set()).add(rel.update)
    variables = list(m.var_owner.values())
    emits = {}
    for var in variables:
        kinds = "".join("L" if edge.rel is not None else "P" for edge in var.edges)
        assert var.emit is _emitter(kinds)
        emits.setdefault(kinds, set()).add(var.emit)
    for handlers, units in ((updates, rels), (emits, variables)):
        assert all(len(functions) == 1 for functions in handlers.values())
        assert len(set.union(*handlers.values())) == len(handlers) < len(units)
    # both kinds of position and of edge occur
    assert {k for kinds in updates for k in kinds} == {"S", "E"}
    assert {k for kinds in emits for k in kinds} == {"L", "P"}


@pytest.mark.parametrize("mode", ["SUMPROD", "MINSUM"])
def test_a_quiescent_converging_machine_is_freed_without_the_collector(mode):
    # the update and emit handlers hold no unit and no machine, and an
    # update's payload names the machine only while it is queued, so once
    # the queue drains no reference cycle holds the machine
    image, _ = compile_graph(multi_cell_tree(), mode, grid=(4, 4), seed=0,
                             capacities=Capacities(var_slots=2), epochs=5)
    text = dumps(image)
    gc.disable()
    try:
        m = Machine(text, capacities=Capacities(var_slots=2))
        assert m.run_until_quiescent(50000)[1]
        freed = weakref.ref(m)
        del m
        assert freed() is None
    finally:
        gc.enable()


def test_stats_text_matches_energy_proxy():
    graph = multi_cell_tree()
    m, _ = compiled(graph, "SUMPROD", grid=(4, 4), thresh=1,
                    caps=Capacities(var_slots=2))
    stats, _ = m.run_until_quiescent(50000)
    text = stats.text()
    assert "activations=%d" % stats.activations in text
    assert "quiescent=true" in text
    assert stats.hops % 10 != 0     # so the figure has a tenths digit to get right
    energy, = [line for line in text.splitlines() if line.startswith("energy_proxy=")]
    assert float(energy.split("=")[1]) == pytest.approx(stats.activations
                                                        + stats.hops / 10)


# -- load fuzz ----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def fuzz_images():
    """One small image per mode, its variables spread over a 2x2 grid so
    that every wire kind appears, and relations 0 and 1
    share a cell so that a factor id off by one names a real relation; the
    converging images carry a THRESH record."""
    tree = FactorGraph([VariableNode(i, c) for i, c in enumerate((2, 3, 2))],
                       [FactorNode(0, (0, 1), TABLE, (0.2, 0.5, 0.9, 0.4, 0.3, 0.7)),
                        FactorNode(1, (0,), TABLE, (0.3, 0.7)),
                        FactorNode(2, (1, 2), TABLE, (0.6, 0.1, 0.3, 0.8, 0.5, 0.5))])
    tree = with_evidence(tree, {2: 1})
    return tuple(dumps(compile_graph(tree, mode, grid=(2, 2), seed=0,
                                     capacities=Capacities(var_slots=1), thresh=thresh,
                                     epochs=5)[0])
                 for mode, thresh in (("SUMPROD", 1), ("MINSUM", 1), ("GIBBS", None)))


def token_mutations(tok):
    """Replacements for one integer image token: moved by one or set to 0,
    -1 or 99."""
    try:
        v = int(tok)
    except ValueError:
        return []
    return sorted({str(x) for x in (v + 1, v - 1, 0, -1, 99)} - {tok})


def token_mutants(text):
    """Every text `text` becomes with one token replaced by one of its
    `token_mutations`."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        for j, tok in enumerate(toks):
            for new in token_mutations(tok):
                yield "\n".join(lines[:i] + [" ".join(toks[:j] + [new] + toks[j + 1:])]
                                + lines[i + 1:]) + "\n"


def test_mutated_images_fail_only_with_load_errors():
    loaded = rejected = 0
    for text in fuzz_images():
        for mutant in token_mutants(text):
            try:
                m = Machine(mutant)
            except (MachineError, ImageError) as e:
                # every rejection names the line it is about
                assert str(e).startswith("line %d: " % e.line), str(e)
                rejected += 1
                continue
            loaded += 1
            try:
                if m.mode == "GIBBS":
                    m.run_ticks(3)
                else:
                    m.run_until_quiescent(300)
                m.read_beliefs()
            except MachineError:
                pass
    assert rejected > 0 and loaded > 0


def test_fuzz_image_with_a_reused_factor_id_fails_to_load():
    text = fuzz_images()[0]
    # relation 1 renamed to 0 would overwrite relation 0's message to
    # variable 0
    assert "REL 1 0\n" in text
    with pytest.raises(MachineError, match="factor id 0 names a second relation"):
        Machine(text.replace("REL 1 0\n", "REL 0 0\n"))


def test_fuzz_images_run_unmutated():
    for text in fuzz_images():
        m = Machine(text)
        if m.mode == "GIBBS":
            m.run_ticks(3)
        else:
            assert m.run_until_quiescent()[1]
        m.read_beliefs()
