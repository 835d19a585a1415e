"""Event-driven simulator: build checks, timing, gating, golden agreement."""

import numpy as np
import pytest

import gen
from factormesh import apps, golden
from factormesh.graph import (TABLE, FactorGraph, FactorNode, VariableNode,
                              expand_all, with_evidence)
from factormesh.image import Capacities, dumps
from factormesh.machine import Machine, MachineError
from factormesh.mapper import Placement, cluster, compile_graph, emit_image, lower, place

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
FMIMG 1
GRID 3 4
MODE SUMPROD
CELL 0 0
VAR 0 0 2
CELL 2 3
VAR 0 1 2
"""


def test_route_charges_one_cycle_per_link():
    m = Machine(ROUTE_IMG)
    # 3 column hops then 2 row hops
    assert m._route(m.cells[(0, 0)], m.cells[(2, 3)], 0) == 5
    assert m._route(m.cells[(2, 3)], m.cells[(0, 0)], 0) == 5


def test_route_local_port_costs_one_cycle():
    m = Machine(ROUTE_IMG)
    assert m._route(m.cells[(0, 0)], m.cells[(0, 0)], 0) == 1


def test_route_contention_stalls_second_packet():
    m = Machine(ROUTE_IMG)
    first = m._route(m.cells[(0, 0)], m.cells[(2, 3)], 0)
    second = m._route(m.cells[(0, 0)], m.cells[(2, 3)], 0)
    assert (first, second) == (5, 6)
    assert m.stats.peak_link_occupancy == 2


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
        runs.append((m.read_state(), beliefs))
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


# -- end to end on a real workload --------------------------------------------

def test_machine_decodes_a_clean_codeword():
    word = apps.hamming_encode((1, 0, 1, 1))
    bench = apps.build_parity_code(word)
    m, _ = compiled(bench.graph, "SUMPROD", grid=(4, 4), seed=1, thresh=256)
    decoded = apps.decode_by_candidates(
        apps.machine_hamming_trajectory(m, budget=3000), word)
    assert decoded == word


# -- build diagnostics --------------------------------------------------------

BUILD_ERRORS = [
    ("""FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0
VAR 0 0 2\nVAR 1 1 2\nVAR 2 2 2\nVAR 3 3 2\nVAR 4 4 2\n""",
     "too many variable slots"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\nVAR 0 1 2\n",
     "duplicate variable slot"),
    ("FMIMG 1\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\nCELL 0 1\nVAR 0 0 2\n",
     "owned by two cells"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 17\n",
     "cardinality above limit"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V9\n1 1\nPROG 0\n",
     "dangling variable slot V9"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 H3\n1 1\nPROG 0\n",
     "dangling shadow slot H3"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 3 V0\n1 1 1\nPROG 0\n",
     "table has 3 words, scope needs 2"),
    ("FMIMG 1\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "SHADOW 0 1 2 0 1 VALUE\nCELL 0 1\nVAR 0 1 2\n",
     "has no producer"),
    ("FMIMG 1\nGRID 1 2\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\nCELL 0 1\nVAR 0 1 2\n"
     "WIRE 0 0 0 0 1 3\n",
     "destination slot 3 is not a shadow"),
    ("FMIMG 1\nGRID 1 3\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "SHADOW 0 1 2 0 1 VTOF 0\nCELL 0 1\nVAR 0 9 2\nCELL 0 2\nVAR 0 1 2\n"
     "WIRE 1 0 1 0 0 0\n",
     "wire source does not own variable 1"),
    ("FMIMG 1\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 0 2\n",
     "no resample period"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 1\nMUL 0 IN5\n",
     "operand out of range"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n70000 1\nPROG 0\n",
     "table word outside [0, 65535]"),
    ("FMIMG 1\nGRID 1 1\nMODE MINSUM\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n-40000 0\nPROG 0\n",
     "table word outside [-32768, 32767]"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 1\nNORMALIZE OUT0\n",
     "NORMALIZE before LOAD_TABLE_SLICE"),
    ("FMIMG 1\nGRID 1 1\nMODE MINSUM\nCELL 0 0\nVAR 0 0 2\nVAR 1 1 2\n"
     "REL 0 0 4 V0 V1\n0 0 0 0\nPROG 2\nLOAD_TABLE_SLICE\nMUL 1 IN1\n",
     "MUL in a MINSUM program"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\nVAR 1 1 2\n"
     "REL 0 0 4 V0 V1\n1 1 1 1\nPROG 3\nLOAD_TABLE_SLICE\nSUM_REDUCE 1\n"
     "MUL 0 IN0\n",
     "MUL after a reduction"),
    ("""FMIMG 1\nGRID 1 2\nMODE GIBBS\nCELL 0 0\nVAR 0 0 2\n"""
     """SHADOW 0 1 2 0 1 VALUE\nREL 0 0 4 V0 H0\n1 1 1 1\n"""
     """PROG 2\nLOAD_TABLE_SLICE 1\nMUL COND\nGIBBS_PERIOD 10 0\n"""
     """CELL 0 1\nVAR 0 1 2\nGIBBS_PERIOD 10 5\nWIRE 1 0 1 0 0 0\n""",
     "LOAD_TABLE_SLICE 1 slices a shadow position"),
    ("FMIMG 1\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 1\nMUL COND\nGIBBS_PERIOD 10 0\n",
     "relation 0: MUL COND before LOAD_TABLE_SLICE"),
    ("FMIMG 1\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 0 2\nVAR 1 1 2\n"
     "REL 0 0 4 V0 V1\n1 1 1 1\nPROG 2\nLOAD_TABLE_SLICE 0\nMUL 1 IN1\n"
     "GIBBS_PERIOD 10 0\n",
     "relation 0: MUL in a GIBBS program"),
    ("FMIMG 1\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 1\nSUM_REDUCE 0\nGIBBS_PERIOD 10 0\n",
     "relation 0: SUM_REDUCE in a GIBBS program"),
    ("FMIMG 1\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 2\nLOAD_TABLE_SLICE\nMUL COND\nGIBBS_PERIOD 10 0\n",
     "LOAD_TABLE_SLICE needs an axis in a GIBBS program"),
    ("FMIMG 1\nGRID 1 1\nMODE GIBBS\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 1\nLOAD_TABLE_SLICE 0\nGIBBS_PERIOD 10 0\n",
     "LOAD_TABLE_SLICE 0 is not followed by MUL COND"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 3\nMUL COND\nLOAD_TABLE_SLICE\nNORMALIZE OUT0\n",
     "relation 0: MUL COND in a SUMPROD program"),
    ("FMIMG 1\nGRID 1 1\nMODE MINSUM\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n0 0\nPROG 3\nLOAD_TABLE_SLICE\nMUL COND\nNORMALIZE OUT0\n",
     "relation 0: MUL COND in a MINSUM program"),
    ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n1 1\nPROG 2\nLOAD_TABLE_SLICE 0\nNORMALIZE OUT0\n",
     "relation 0: LOAD_TABLE_SLICE 0 has an axis in a SUMPROD program"),
    ("FMIMG 1\nGRID 1 1\nMODE MINSUM\nCELL 0 0\nVAR 0 0 2\n"
     "REL 0 0 2 V0\n0 0\nPROG 2\nLOAD_TABLE_SLICE 0\nNORMALIZE OUT0\n",
     "relation 0: LOAD_TABLE_SLICE 0 has an axis in a MINSUM program"),
]


def test_build_error_catalog():
    for text, needle in BUILD_ERRORS:
        with pytest.raises(MachineError) as err:
            Machine(text)
        assert needle in str(err.value), "wanted %r in %r" % (needle, str(err.value))


def test_program_must_reduce_before_normalize():
    text = ("FMIMG 1\nGRID 1 1\nMODE SUMPROD\nCELL 0 0\n"
            "VAR 0 0 2\nVAR 1 1 2\n"
            "REL 0 0 4 V0 V1\n1 1 1 1\nPROG 2\nLOAD_TABLE_SLICE\nNORMALIZE OUT0\n")
    with pytest.raises(MachineError) as err:
        Machine(text)
    assert "before reducing other axes" in str(err.value)


def test_relations_with_one_shape_and_program_share_a_kernel():
    bench = apps.build_sudoku()
    m, _ = compiled(bench.graph, "MINSUM", grid=bench.grid)
    rels = [rel for cell in m.cells.values() for rel in cell.rels]
    assert len(rels) == 56 and {rel.shape for rel in rels} == {(4, 4)}
    assert len({id(rel.kernel) for rel in rels}) == 1


def test_stats_text_matches_energy_proxy():
    graph = multi_cell_tree()
    m, _ = compiled(graph, "SUMPROD", grid=(4, 4), thresh=1,
                    caps=Capacities(var_slots=2))
    stats, _ = m.run_until_quiescent(50000)
    text = stats.text()
    assert "activations=%d" % stats.activations in text
    assert "quiescent=true" in text
    assert abs(stats.energy_proxy() - (stats.activations + 0.1 * stats.hops)) < 1e-12
