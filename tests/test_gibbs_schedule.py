"""The GIBBS resample schedule that the load derives (`image.gibbs_schedule`)
against the compiler's timing pass from before images stopped carrying it,
`reference_gibbs_timing`, kept here verbatim: over compiled images, the
machine's one period and every loaded cell's phase must be the ones that
pass gave its cluster."""

import random

from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import apps
from factormesh.graph import with_evidence
from factormesh.image import (GIBBS, Capacities, CellImage, MachineImage, RelSlot, VarSlot,
                              dumps, gibbs_schedule, gibbs_var_cost, parse_image)
from factormesh.machine import Machine
from factormesh.mapper import MapperError, _default_epsilon, cluster, emit_image, lower, place

# margin added to the per-phase budget over travel + compute time
GIBBS_SLACK = 4


def reference_gibbs_timing(grid, clusters, graph, cvar):
    """Per-cluster phase spacing: worst tick compute time plus grid traversal
    plus the cell's value fan-out, padded, so each cluster samples against
    fully fresh neighbor values."""
    R, C = grid
    max_tick = 0
    max_fanout = 0
    for ci, cl in enumerate(clusters):
        tick = sum(gibbs_var_cost(len(graph.factors_of(v))) for v in cl.vars)
        max_tick = max(max_tick, tick)
        fanout = 0
        for v in cl.vars:
            fanout += len({cvar[u] for fid, _ in graph.factors_of(v)
                           for u in graph.factors[fid].scope if cvar[u] != ci})
        max_fanout = max(max_fanout, fanout)
    delta = (R - 1) + (C - 1) + max_fanout + max_tick + GIBBS_SLACK
    return delta, delta * len(clusters)


GRIDS = ((3, 3), (4, 4), (6, 6))
CAPS = (Capacities(), Capacities(var_slots=1, rel_slots=8, shadow_slots=32),
        Capacities(var_slots=3, rel_slots=16, shadow_slots=64, table_words=4096))


def assert_schedule_matches_reference(graph, grid, caps, seed, epochs):
    lowered = lower(graph, epsilon=_default_epsilon(GIBBS), capacities=caps, mode=GIBBS)
    clusters = cluster(lowered, capacities=caps, mode=GIBBS)
    placement = place(clusters, lowered, grid, seed=seed, mode=GIBBS, epochs=epochs)
    image = emit_image(placement, clusters, lowered, GIBBS, seed=seed)
    cvar = {v: ci for ci, cl in enumerate(clusters) for v in cl.vars}
    delta, period = reference_gibbs_timing(grid, clusters, lowered, cvar)
    want = {coord: ci * delta if cl.vars else None
            for ci, (coord, cl) in enumerate(zip(placement.coords, clusters))}
    machine = Machine(parse_image(dumps(image)), capacities=caps)
    assert machine.period == period
    assert {coord: cell.phase for coord, cell in machine.cells.items()} == want
    return len(clusters)


@st.composite
def gibbs_graphs(draw):
    """A gen.py tree or builtin graph, or an Ising chain, about a fifth of
    its variables clamped at random."""
    kind = draw(st.sampled_from(("tree", "builtin", "ising")))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "tree":
        graph = gen.random_tree_graph(seed)
    elif kind == "builtin":
        graph = gen.random_builtin_graph(seed)
    else:
        graph = apps.build_ising_chain(draw(st.sampled_from((8, 16))), 0.5, 0.2).graph
    pick = random.Random(seed)
    return with_evidence(graph, {v.id: pick.randrange(v.cardinality)
                                 for v in graph.variables if pick.random() < 0.2})


@settings(max_examples=max(150, settings().max_examples), deadline=None)
@given(graph=gibbs_graphs(), grid=st.sampled_from(GRIDS), caps=st.sampled_from(CAPS),
       seed=st.integers(0, 2 ** 16 - 1), epochs=st.integers(0, 2))
def test_derived_schedule_matches_the_reference_timing(graph, grid, caps, seed, epochs):
    try:
        assert_schedule_matches_reference(graph, grid, caps, seed, epochs)
    except MapperError:
        reject()            # a cluster or the grid does not fit these capacities


def test_the_ising_gibbs_images_keep_the_reference_timing():
    # the benchmark's GIBBS graph on its grid, at many placement seeds
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    for seed in range(20):
        assert assert_schedule_matches_reference(bench.graph, bench.grid,
                                                 Capacities(), seed, 50) > 1


def test_a_cell_without_variables_never_ticks_and_turns_follow_lowest_variable_ids():
    # cell (0, 0) declares variable 3 and cell (0, 2) variable 1, so (0, 2)
    # takes the first turn; cell (0, 1) reads both and declares none
    cells = {(0, 0): CellImage([VarSlot(3, 2)], [RelSlot(0, [3], [1, 2])]),
             (0, 1): CellImage([], [RelSlot(1, [1, 3], [1, 2, 3, 4])]),
             (0, 2): CellImage([VarSlot(1, 2)], [RelSlot(2, [1], [2, 1])])}
    image = MachineImage((1, 3), GIBBS, 0, cells)
    # delta = (1 - 1) + (3 - 1) + one value wire + a 4-cycle tick + 4 = 11
    assert gibbs_schedule(image, image.wires) == (22, {(0, 2): 0, (0, 0): 11})
    machine = Machine(image)
    assert machine.period == 22
    assert [c.phase for c in machine.cells.values()] == [11, None, 0]
    machine.run_ticks(3)
    assert [c.tick_idx for c in machine.cells.values()] == [3, 0, 3]
