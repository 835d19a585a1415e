"""Compiler pipeline: lowering, clustering, annealed placement, emission."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import apps, golden
from factormesh.graph import (ALL_DIFFERENT, PARITY, TABLE, FactorGraph,
                              FactorNode, VariableNode, expand_all)
from factormesh.image import Capacities
from factormesh.machine import Machine
from factormesh.mapper import (MapperError, Placement, _edge_weights, cluster,
                               compile_graph, cost, emit_image, lower, place)


def vars_of(n, card=2):
    return [VariableNode(i, card) for i in range(n)]


# -- lowering ----------------------------------------------------------------

def test_all_different_becomes_pairwise_clique():
    graph = FactorGraph(vars_of(4, 3), [FactorNode(0, (0, 1, 2, 3), ALL_DIFFERENT)])
    low = lower(graph, epsilon=0.0)
    assert len(low.factors) == 6
    assert sorted(f.scope for f in low.factors) == \
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    # card-3 not-equal table: diagonal epsilon, rest 1
    tbl = low.factors[0].table
    assert [tbl[i] for i in (0, 4, 8)] == [0.0, 0.0, 0.0]
    assert all(tbl[a * 3 + b] == 1.0 for a in range(3) for b in range(3) if a != b)


def test_overlapping_cliques_share_pairwise_factors():
    graph = FactorGraph(vars_of(4, 4),
                        [FactorNode(0, (0, 1, 2), ALL_DIFFERENT),
                         FactorNode(1, (1, 2, 3), ALL_DIFFERENT)])
    low = lower(graph)
    # pair (1, 2) appears in both constraints but is emitted once
    assert len(low.factors) == 5


def parity_graph(arity, seed=0):
    import random
    rng = random.Random(seed)
    variables = vars_of(arity)
    factors = [FactorNode(0, tuple(range(arity)), PARITY)]
    for v in range(arity):
        factors.append(FactorNode(v + 1, (v,), TABLE,
                                  (rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))))
    return FactorGraph(variables, factors)


def test_wide_parity_chains_into_three_bit_factors():
    low4 = lower(parity_graph(4))
    assert len(low4.variables) == 5
    chain4 = [f for f in low4.factors if len(f.scope) == 3]
    assert len(chain4) == 2
    low6 = lower(parity_graph(6))
    assert len(low6.variables) == 9
    chain6 = [f for f in low6.factors if len(f.scope) == 3]
    assert len(chain6) == 4
    for aux in low6.variables[6:]:
        assert aux.cardinality == 2


def test_lowering_preserves_marginals():
    for arity, epsilon, tol in ((4, 0.0, 1e-9), (6, 0.0, 1e-9),
                                (5, math.exp(-20), 1e-6)):
        graph = parity_graph(arity, seed=arity)
        want = golden.exact_marginals(expand_all(graph, epsilon))
        low = lower(graph, epsilon=epsilon)
        got = golden.exact_marginals(low)
        for v in range(arity):
            assert float(np.max(np.abs(got[v] - want[v]))) < tol


def test_lowering_capacity_rejections():
    big = FactorGraph(vars_of(5, 4),
                      [FactorNode(0, (0, 1, 2, 3, 4), TABLE, (1.0,) * 1024)])
    with pytest.raises(MapperError) as err:
        lower(big)
    assert "exceeds cell memory" in str(err.value)

    wide = FactorGraph(vars_of(6, 2),
                       [FactorNode(0, tuple(range(6)), TABLE, (1.0,) * 64)])
    with pytest.raises(MapperError) as err:
        lower(wide)
    assert "op program" in str(err.value)
    assert lower(wide, mode="GIBBS").factors[0].scope == tuple(range(6))

    fat = FactorGraph([VariableNode(0, 17)], [FactorNode(0, (0,), TABLE, (1.0,) * 17)])
    with pytest.raises(MapperError) as err:
        lower(fat)
    assert "exceeds machine limit" in str(err.value)


# -- clustering ---------------------------------------------------------------

def chain_graph(n):
    variables = vars_of(n, 2)
    factors = [FactorNode(i, (i, i + 1), TABLE, (0.8, 0.2, 0.2, 0.8))
               for i in range(n - 1)]
    return FactorGraph(variables, factors)


def test_cluster_chain_under_tight_capacity():
    caps = Capacities(var_slots=1, rel_slots=1)
    clusters = cluster(chain_graph(3), capacities=caps)
    assert [(c.vars, c.rels) for c in clusters] == \
        [([0], [0]), ([1], [1]), ([2], [])]


def test_cluster_triangle_fits_one_cell():
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    low = lower(bench.graph, epsilon=0.0)
    clusters = cluster(low)
    assert len(clusters) == 1
    assert clusters[0].vars == [0, 1, 2] and clusters[0].rels == [0, 1, 2]


def test_cluster_packs_orphan_relations_separately():
    variables = vars_of(3, 2)
    factors = [FactorNode(0, (0, 1), TABLE, (1.0,) * 4),
               FactorNode(1, (1, 2), TABLE, (1.0,) * 4),
               FactorNode(2, (0, 2), TABLE, (1.0,) * 4),
               FactorNode(3, (0, 1, 2), TABLE, (1.0,) * 8)]
    graph = FactorGraph(variables, factors)
    clusters = cluster(graph, capacities=Capacities(var_slots=1, rel_slots=1))
    assert [(c.vars, c.rels) for c in clusters] == \
        [([0], [0]), ([1], [1]), ([2], [2]), ([], [3])]


def test_cluster_gibbs_replicates_shared_relations():
    bench = apps.build_ising_chain(4, 0.5, 0.2)
    low = lower(bench.graph, epsilon=math.exp(-20), mode="GIBBS")
    clusters = cluster(low, mode="GIBBS")
    assert [c.vars for c in clusters] == [[0, 1], [2, 3]]
    # the middle coupling is replicated into both sampling cells
    assert 1 in clusters[0].rels and 1 in clusters[1].rels


def test_cluster_rejects_oversized_gibbs_fanout():
    variables = vars_of(2, 2)
    factors = [FactorNode(i, (0, 1), TABLE, (1.0,) * 4) for i in range(5)]
    graph = FactorGraph(variables, factors)
    with pytest.raises(MapperError) as err:
        cluster(graph, mode="GIBBS")
    assert "does not fit an empty cell" in str(err.value)


# -- placement ----------------------------------------------------------------

def four_cluster_chain():
    caps = Capacities(var_slots=1, rel_slots=1)
    graph = chain_graph(4)
    clusters = cluster(graph, capacities=caps)
    assert len(clusters) == 4
    return graph, clusters


def test_cost_is_weighted_manhattan_length():
    graph, clusters = four_cluster_chain()
    row_major = Placement((2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)], 0, 0)
    assert cost(row_major, clusters, graph) == 4
    ring = Placement((2, 2), [(0, 0), (0, 1), (1, 1), (1, 0)], 0, 0)
    assert cost(ring, clusters, graph) == 3
    single = cluster(chain_graph(2))
    assert cost(Placement((1, 1), [(0, 0)], 0, 0), single, chain_graph(2)) == 0


def test_place_finds_chain_optimum_from_any_seed():
    graph, clusters = four_cluster_chain()
    # brute force over all ways to drop 4 clusters on a 2x2 grid
    best = min(cost(Placement((2, 2), list(perm), 0, 0), clusters, graph)
               for perm in itertools.permutations(
                   [(0, 0), (0, 1), (1, 0), (1, 1)]))
    assert best == 3
    for seed in (0, 1):
        p = place(clusters, graph, (2, 2), seed=seed)
        assert p.cost_initial == 4
        assert p.cost_final == best
        assert cost(p, clusters, graph) == best
        assert sorted(p.coords) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_place_is_deterministic_and_never_worse_than_start():
    graph = gen.random_tree_graph(3)
    low = lower(graph)
    clusters = cluster(low, capacities=Capacities(var_slots=2))
    a = place(clusters, low, (4, 4), seed=9)
    b = place(clusters, low, (4, 4), seed=9)
    assert a.coords == b.coords
    assert a.cost_final <= a.cost_initial
    with pytest.raises(MapperError) as err:
        place(clusters, low, (1, 1), seed=0)
    assert "too small" in str(err.value)


def reference_place(clusters, graph, grid, seed=0, mode="SUMPROD", epochs=50,
                    epoch_scale=100, cooling=0.95):
    """Full-recompute annealer: each move re-sums every edge it touches."""
    R, C = grid
    n = len(clusters)
    if n > R * C:
        raise MapperError("grid %dx%d too small for %d clusters" % (R, C, n))
    coords = [(i // C, i % C) for i in range(n)]
    edges = _edge_weights(clusters, graph, mode)
    inc = [[] for _ in range(n)]
    for idx, (a, b, w) in enumerate(edges):
        inc[a].append(idx)
        inc[b].append(idx)

    def dist(p, q):
        return abs(p[0] - q[0]) + abs(p[1] - q[1])

    def edge_cost(idx):
        a, b, w = edges[idx]
        return w * dist(coords[a], coords[b])

    cost0 = sum(edge_cost(i) for i in range(len(edges)))
    if cost0 == 0 or n <= 1:
        return Placement(grid, list(coords), cost0, cost0)

    edge_total = sum(w for _, _, w in edges)
    temp = 2.0 * cost0 / max(edge_total, 1)
    rng = random.Random(seed)
    cell_at = {coords[i]: i for i in range(n)}
    cur = cost0
    best = list(coords)
    best_cost = cost0

    for _ in range(epochs):
        accepts = 0
        for _ in range(epoch_scale * n):
            i = rng.randrange(n)
            p = rng.randrange(R * C)
            pc = (p // C, p % C)
            if pc == coords[i]:
                continue
            j = cell_at.get(pc)
            touched = set(inc[i])
            if j is not None:
                touched.update(inc[j])
            before = sum(edge_cost(e) for e in touched)
            old_i = coords[i]
            coords[i] = pc
            if j is not None:
                coords[j] = old_i
            delta = sum(edge_cost(e) for e in touched) - before
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                cell_at[pc] = i
                if j is not None:
                    cell_at[old_i] = j
                else:
                    del cell_at[old_i]
                cur += delta
                accepts += 1
                if cur < best_cost:
                    best_cost = cur
                    best = list(coords)
            else:
                coords[i] = old_i
                if j is not None:
                    coords[j] = pc
        if accepts == 0:
            break
        temp *= cooling
    return Placement(grid, best, cost0, best_cost)


def test_move_draw_matches_randrange():
    # place() inlines randrange's draw for its moves; an interpreter whose
    # randrange draws differently fails here, not as a moved placement
    def draw_below(getrandbits, bound):
        k = bound.bit_length()
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        return r

    for seed in (0, 1, 7, 12345, 2 ** 32 - 1, 2 ** 70 + 3):
        ours, theirs = random.Random(seed), random.Random(seed)
        for bound in range(1, 66):
            for _ in range(10):
                assert draw_below(ours.getrandbits, bound) == theirs.randrange(bound)
            assert ours.getstate() == theirs.getstate()
        assert ours.random() == theirs.random()


@st.composite
def placement_cases(draw):
    """A lowered, clustered random graph and a grid that holds it: from one
    row up to 4x4, sometimes exactly full so that every move is a swap."""
    mode = draw(st.sampled_from(("SUMPROD", "MINSUM", "GIBBS")))
    graph_seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        graph = gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10)
    else:
        graph = gen.random_builtin_graph(graph_seed)
    # GIBBS replicates every touching relation into a cell, so its relation
    # budget stays wide while its variable budget is tight
    caps = Capacities(var_slots=draw(st.integers(1, 3)),
                      rel_slots=draw(st.integers(1, 3)) if mode != "GIBBS" else 16)
    low = lower(graph, mode=mode)
    try:
        clusters = cluster(low, capacities=caps, mode=mode)
    except MapperError:
        reject()
    n = len(clusters)
    rows = draw(st.integers(1, 4))
    cols_min = max(1, -(-n // rows))
    cols = draw(st.integers(cols_min, max(cols_min, 4)))
    return clusters, low, (rows, cols), mode


@settings(max_examples=150, deadline=None)
@given(case=placement_cases(), seed=st.integers(0, 2 ** 32 - 1),
       epochs=st.integers(1, 10), epoch_scale=st.sampled_from((1, 7, 40, 100)))
def test_place_matches_full_recompute_reference(case, seed, epochs, epoch_scale):
    clusters, graph, grid, mode = case
    got = place(clusters, graph, grid, seed=seed, mode=mode, epochs=epochs,
                epoch_scale=epoch_scale)
    want = reference_place(clusters, graph, grid, seed=seed, mode=mode,
                           epochs=epochs, epoch_scale=epoch_scale)
    assert got == want
    assert cost(got, clusters, graph, mode) == got.cost_final


@pytest.mark.parametrize("n_vars, grid", [(1, (1, 1)), (1, (3, 2)), (4, (2, 2)),
                                          (5, (1, 5))])
def test_place_early_returns_match_reference(n_vars, grid):
    # one cluster (n <= 1), or clusters joined by no edge (cost0 == 0)
    variables = vars_of(n_vars)
    factors = [FactorNode(v, (v,), TABLE, (0.3, 0.7)) for v in range(n_vars)]
    graph = FactorGraph(variables, factors)
    clusters = cluster(graph, capacities=Capacities(var_slots=1))
    assert len(clusters) == n_vars
    got = place(clusters, graph, grid, seed=3)
    assert got == reference_place(clusters, graph, grid, seed=3)
    assert got.cost_initial == got.cost_final == 0
    assert got.coords == [(i // grid[1], i % grid[1]) for i in range(n_vars)]


# -- emission -----------------------------------------------------------------

def test_single_cluster_image_has_no_wires():
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    image, report = compile_graph(bench.graph, "SUMPROD", grid=(4, 4))
    assert report["clusters"] == 1 and report["cost_final"] == 0
    assert len(image.cells) == 1 and image.wires == []
    rel = image.cells[next(iter(image.cells))].rel_slots[0]
    # converging program: 4 ops per output of a pairwise relation
    names = [op[0] for op in rel.prog]
    assert names == ["LOAD_TABLE_SLICE", "MUL", "SUM_REDUCE", "NORMALIZE"] * 2


def test_chain_image_wire_and_shadow_structure():
    caps = Capacities(var_slots=1, rel_slots=1)
    graph = chain_graph(3)
    clusters = cluster(graph, capacities=caps)
    placement = place(clusters, graph, (1, 3), seed=0)
    image = emit_image(placement, clusters, graph, "SUMPROD", capacities=caps)
    assert len(image.wires) == 4
    roles = {}
    for ci, coord in enumerate(placement.coords):
        roles[ci] = sorted(s.role for s in image.cells[coord].shadow_slots)
    assert roles == {0: ["VTOF"], 1: ["FTOV", "VTOF"], 2: ["FTOV"]}
    m = Machine(image, capacities=caps)
    _, quiescent = m.run_until_quiescent(5000)
    assert quiescent


def test_minsum_emission_uses_log_ops():
    graph = chain_graph(2)
    image, _ = compile_graph(graph, "MINSUM", grid=(1, 1))
    rel = image.cells[(0, 0)].rel_slots[0]
    names = {op[0] for op in rel.prog}
    assert "ADD" in names and "MAX_REDUCE" in names
    assert all(w <= 0 for w in rel.table)


def test_compile_report_fields():
    bench = apps.build_parity_code((0,) * 7)
    image, report = compile_graph(bench.graph, "SUMPROD", grid=(4, 4), seed=1)
    assert report["mode"] == "SUMPROD" and report["grid"] == (4, 4)
    assert report["aux_vars"] == len(lower(bench.graph).variables) - 7
    assert report["factors"] == len(lower(bench.graph).factors)
    assert report["clusters"] == len(cluster(lower(bench.graph)))
    assert report["cost_final"] <= report["cost_initial"]
    assert sorted(image.cells) == sorted(set(image.cells))


def test_compile_is_deterministic():
    from factormesh.image import dumps
    bench = apps.build_parity_code((1, 0, 1, 1, 0, 0, 1))
    a, _ = compile_graph(bench.graph, "SUMPROD", grid=(4, 4), seed=2)
    b, _ = compile_graph(bench.graph, "SUMPROD", grid=(4, 4), seed=2)
    assert dumps(a) == dumps(b)
