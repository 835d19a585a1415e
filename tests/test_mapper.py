"""Compiler pipeline: lowering, clustering, annealed placement, emission."""

import itertools
import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import apps, golden, mapper
from factormesh.graph import (ALL_DIFFERENT, PAIRWISE_ISING, PARITY, TABLE,
                              FactorGraph, FactorNode, GraphError, VariableNode,
                              expand_all)
from factormesh.image import GIBBS, Capacities, domain, dumps, parse_image
from factormesh.machine import Machine
from factormesh.mapper import (Cluster, MapperError, Placement, _cost_floor,
                               _default_epsilon, _edge_weights, cluster,
                               compile_graph, cost, emit_image, lower, place)

# the clustering, placement and shadow-register properties' budget: 150
# examples, or a deeper profile's (HYPOTHESIS_PROFILE=deep, registered in
# conftest.py)
PLACEMENT_SETTINGS = settings(max_examples=max(150, settings().max_examples),
                              deadline=None)


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
    assert "costs 72 cycles per update; limit is 64" in str(err.value)
    assert lower(wide, mode="GIBBS").factors[0].scope == tuple(range(6))

    fat = FactorGraph([VariableNode(0, 17)], [FactorNode(0, (0,), TABLE, (1.0,) * 17)])
    with pytest.raises(MapperError) as err:
        lower(fat)
    assert "exceeds machine limit" in str(err.value)


@pytest.mark.parametrize("coupling", [math.nan, math.inf])
def test_lowering_rejects_a_builtin_that_expands_to_a_non_finite_entry(coupling):
    graph = FactorGraph(vars_of(2, 2), [FactorNode(0, (0, 1), PAIRWISE_ISING,
                                                   coupling=coupling)])
    with pytest.raises(GraphError, match="factor 0: non-finite table entry"):
        lower(graph)


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


def test_cluster_absorbs_a_relation_that_a_later_one_made_room_for():
    # relation 0 needs two registers and its return wire a third, which the
    # unary relation 1 frees; a second pass then absorbs relation 0
    variables = vars_of(3, 2)
    factors = [FactorNode(0, (0, 1, 2), TABLE, (1.0,) * 8),
               FactorNode(1, (0,), TABLE, (1.0, 1.0))]
    caps = Capacities(var_slots=1, shadow_slots=2)
    clusters = cluster(FactorGraph(variables, factors), capacities=caps)
    assert [(c.vars, c.rels) for c in clusters] == [([0], [0, 1]), ([1], []), ([2], [])]


def test_a_leftover_relation_that_fits_no_empty_cell_is_rejected():
    # each variable's own pairwise relation blocks the three-way one, which
    # alone reads three remote variables through two shadow registers
    variables = vars_of(6, 2)
    factors = [FactorNode(0, (0, 1, 2), TABLE, (1.0,) * 8)] + \
        [FactorNode(1 + v, (v, 3 + v), TABLE, (1.0,) * 4) for v in range(3)]
    caps = Capacities(var_slots=1, rel_slots=1, shadow_slots=2)
    with pytest.raises(MapperError, match="^relation 0 does not fit an empty cell$"):
        cluster(FactorGraph(variables, factors), capacities=caps)


def reference_cluster(graph, capacities=Capacities(), mode="SUMPROD"):
    """The clustering before its two growth branches became one loop, kept
    verbatim as the reference `cluster` must equal: relation passes only
    outside GIBBS, each scanning every unassigned relation, and a
    `progressed` flag ending the growth."""
    cap = capacities
    factors_of = {v.id: [fid for fid, _ in graph.factors_of(v.id)]
                  for v in graph.variables}
    scopes = {f.id: f.scope for f in graph.factors}
    words = {f.id: len(f.table) for f in graph.factors}
    neighbors = {v.id: set() for v in graph.variables}
    for f in graph.factors:
        for u in f.scope:
            for w in f.scope:
                if u != w:
                    neighbors[u].add(w)

    def touching(cl_vars):
        seen = set()
        for v in cl_vars:
            seen.update(factors_of[v])
        return seen

    def feasible(cl_vars, cl_rels):
        """Whether one cell holds the cluster's slots, table words and
        registers: a register per distinct remote (variable, factor) pair
        its relations read, the factor None for the value a GIBBS cell's
        relations share, and one per return wire of a remote relation of
        its variables, which a GIBBS cluster's replicas leave none of."""
        if mode == GIBBS:
            cl_rels = touching(cl_vars)
        vset, rset = set(cl_vars), set(cl_rels)
        shadows = {(u, None if mode == GIBBS else fid)
                   for fid in cl_rels for u in scopes[fid] if u not in vset}
        returns = sum(fid not in rset for v in cl_vars for fid in factors_of[v])
        return (len(cl_vars) <= cap.var_slots and len(cl_rels) <= cap.rel_slots
                and sum(words[fid] for fid in cl_rels) <= cap.table_words
                and len(shadows) + returns <= cap.shadow_slots)

    unassigned_vars = set(v.id for v in graph.variables)
    unassigned_rels = set(f.id for f in graph.factors)
    clusters = []
    while unassigned_vars:
        seed = min(unassigned_vars)
        cl_vars = [seed]
        cl_rels = []
        unassigned_vars.discard(seed)
        if not feasible(cl_vars, cl_rels):
            raise MapperError("variable %d does not fit an empty cell" % seed)
        while True:
            progressed = False
            if mode != GIBBS:
                grown = True
                while grown:
                    grown = False
                    vset = set(cl_vars)
                    adj = sorted(fid for fid in unassigned_rels
                                 if any(u in vset for u in scopes[fid]))
                    for fid in adj:
                        if feasible(cl_vars, cl_rels + [fid]):
                            cl_rels.append(fid)
                            unassigned_rels.discard(fid)
                            grown = True
                            progressed = True
            frontier = sorted(u for v in cl_vars for u in neighbors[v]
                              if u in unassigned_vars)
            for u in frontier:
                if feasible(cl_vars + [u], cl_rels):
                    cl_vars.append(u)
                    unassigned_vars.discard(u)
                    progressed = True
                    break
            if not progressed:
                break
        if mode == GIBBS:
            cl_rels = sorted(touching(cl_vars))
            unassigned_rels.difference_update(cl_rels)
        clusters.append(Cluster(sorted(cl_vars), sorted(cl_rels)))

    if mode == GIBBS:
        unassigned_rels.clear()     # replicas cover every relation
    for fid in sorted(unassigned_rels):
        placed = False
        if clusters and not clusters[-1].vars:
            last = clusters[-1]
            if feasible([], last.rels + [fid]):
                last.rels.append(fid)
                placed = True
        if not placed:
            if not feasible([], [fid]):
                raise MapperError("relation %d does not fit an empty cell" % fid)
            clusters.append(Cluster([], [fid]))
    return clusters


@PLACEMENT_SETTINGS
@given(mode=st.sampled_from(("SUMPROD", "MINSUM", "GIBBS")),
       graph_seed=st.integers(0, 10 ** 6),
       family=st.sampled_from(("tree", "builtin", "padded")),
       var_slots=st.integers(1, 4), rel_slots=st.sampled_from(range(1, 9)),
       shadow_slots=st.sampled_from(range(1, 9)),
       table_words=st.sampled_from((8, 16, 32, 64, 512)))
def test_cluster_matches_reference(mode, graph_seed, family, var_slots, rel_slots,
                                   shadow_slots, table_words):
    # a padded graph gives its variables as many relations as a cell has
    # registers, so a lowered PARITY relation that a variable's register
    # budget blocks fits once a later unary relation of the variable is
    # absorbed, on a repeated relation pass; slot counts are sampled evenly,
    # since the integers strategy draws mostly budgets that fit no cell
    if family == "tree":
        graph = gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10)
    else:
        graph = gen.random_builtin_graph(
            graph_seed, degree=shadow_slots if family == "padded" else 0)
    low = lower(graph, mode=mode)
    caps = Capacities(var_slots=var_slots, rel_slots=rel_slots,
                      shadow_slots=shadow_slots, table_words=table_words)
    results = []
    for fn in (cluster, reference_cluster):
        try:
            results.append([(c.vars, c.rels) for c in fn(low, capacities=caps, mode=mode)])
        except MapperError as err:
            results.append(str(err))
    assert results[0] == results[1]


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
    # a negative budget would return the unannealed start
    with pytest.raises(MapperError, match="epochs must be >= 0, got -1"):
        place(clusters, low, (4, 4), seed=0, epochs=-1)


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


def scaled_place(epoch_scale, *args, **kw):
    """`place` with `epoch_scale` moves per cluster per epoch, its constant."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mapper, "EPOCH_SCALE", epoch_scale)
        return place(*args, **kw)


@PLACEMENT_SETTINGS
@given(case=placement_cases(), seed=st.integers(0, 2 ** 32 - 1),
       epochs=st.integers(1, 10), epoch_scale=st.sampled_from((1, 7, 40, 100)))
def test_place_matches_full_recompute_reference(case, seed, epochs, epoch_scale):
    clusters, graph, grid, mode = case
    got = scaled_place(epoch_scale, clusters, graph, grid, seed=seed, mode=mode,
                       epochs=epochs)
    want = reference_place(clusters, graph, grid, seed=seed, mode=mode,
                           epochs=epochs, epoch_scale=epoch_scale)
    assert got == want
    assert cost(got, clusters, graph, mode) == got.cost_final


def heavy_clusters(n, seed):
    """n one-variable clusters, each joined to a random earlier one by 3-5
    factors, and cluster 0 a hub joined to every fourth one by 3 more, so
    that a swap can lengthen wires by far more than the move's length."""
    rng = random.Random(seed)
    scopes = []
    for v in range(1, n):
        scopes += [(rng.randrange(v), v)] * rng.randint(3, 5)
        if v % 4 == 0:
            scopes += [(0, v)] * 3
    graph = FactorGraph(vars_of(n), [FactorNode(f, s, TABLE, (1.0,) * 4)
                                     for f, s in enumerate(scopes)])
    clusters = [Cluster([v], []) for v in range(n)]
    for f, s in enumerate(scopes):
        clusters[s[f % 2]].rels.append(f)
    return clusters, graph


@pytest.mark.parametrize("grid", [(1, 12), (3, 7), (8, 8)])
@pytest.mark.parametrize("full", [True, False])
def test_place_matches_reference_on_wide_grids_and_heavy_wires(grid, full):
    # placement_cases stops at 4x4 with mostly unit wires; here every
    # cluster has weighted degree >= 3 and the hub's is the largest
    n = grid[0] * grid[1] if full else grid[0] * grid[1] // 2
    clusters, graph = heavy_clusters(n, seed=n)
    weights = _edge_weights(clusters, graph, "SUMPROD")
    assert min(w for _, _, w in weights) >= 3
    scale = 100 if n <= 21 else 10
    for seed in (0, 1):
        got = scaled_place(scale, clusters, graph, grid, seed=seed)
        assert got == reference_place(clusters, graph, grid, seed=seed,
                                      epoch_scale=scale)
        assert got.cost_final < got.cost_initial


@pytest.mark.parametrize("grid", [(-2, -2), (2, 0), (0, 5)])
def test_place_rejects_a_grid_with_no_cells(grid):
    # checked before the size, so (2, 0) is not reported as too small
    graph = apps.build_ising_chain(4, 0.5, 0.2).graph
    with pytest.raises(MapperError, match="grid dimensions must be positive, "
                       "got %dx%d" % grid):
        compile_graph(graph, "SUMPROD", grid=grid)


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


@st.composite
def wire_lists(draw):
    """Up to 6 clusters, a grid of at most 9 cells that holds them, and
    weighted wires between distinct clusters, as `_edge_weights` lists them."""
    n = draw(st.integers(1, 6))
    grid = draw(st.sampled_from([(r, c) for r in range(1, 10) for c in range(1, 10)
                                 if n <= r * c <= 9]))
    pairs = list(itertools.combinations(range(n), 2))
    weights = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 4))
                   if pairs else st.just({}))
    return n, grid, [(a, b, w) for (a, b), w in sorted(weights.items())]


@PLACEMENT_SETTINGS
@given(case=wire_lists())
def test_cost_floor_is_at_most_the_optimum(case):
    n, (R, C), edges = case
    cells = [(p // C, p % C) for p in range(R * C)]
    dist = [[abs(r1 - r2) + abs(c1 - c2) for r2, c2 in cells] for r1, c1 in cells]
    best = min(sum(w * dist[at[a]][at[b]] for a, b, w in edges)
               for at in itertools.permutations(range(R * C), n))
    assert _cost_floor(n, edges) <= best


def test_cost_floor_counts_an_odd_cycle_once():
    # a path and an even cycle can lay every wire on one hop; a triangle's
    # colours cannot alternate, so its lightest wire spans two
    assert _cost_floor(3, [(0, 1, 2), (1, 2, 3)]) == 5
    assert _cost_floor(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]) == 4
    assert _cost_floor(3, [(0, 1, 2), (1, 2, 3), (0, 2, 4)]) == 11
    assert _cost_floor(1, []) == 0


def placed_with_counted_moves(monkeypatch, bench, mode, seed, floor=None):
    """place() on the compiled clusters of `bench`, with the moves it made:
    each move draws its cluster below n by getrandbits(n.bit_length())."""
    low = lower(bench.graph, epsilon=mapper._default_epsilon(mode), mode=mode)
    clusters = cluster(low, mode=mode)
    n = len(clusters)
    draws = []

    class Counting(random.Random):
        def getrandbits(self, k):
            r = super().getrandbits(k)
            draws.append((k, r))
            return r

    monkeypatch.setattr(mapper, "random", types.SimpleNamespace(Random=Counting))
    if floor is not None:
        monkeypatch.setattr(mapper, "_cost_floor", lambda n, edges: floor)
    got = place(clusters, low, bench.grid, seed=seed, mode=mode)
    # a move's cell draw must not read as a cluster draw
    assert n.bit_length() != (bench.grid[0] * bench.grid[1]).bit_length()
    moves = sum(k == n.bit_length() and r < n for k, r in draws)
    return got, moves, n, _cost_floor(n, _edge_weights(clusters, low, mode))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_place_stops_at_the_floor_with_the_full_schedules_placement(monkeypatch, seed):
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    got, moves, n, floor = placed_with_counted_moves(monkeypatch, bench, "GIBBS", seed)
    assert bench.grid == (4, 4) and got.cost_final == floor
    assert moves < 50 * 100 * n
    # a floor of -1 is never reached, so the full schedule runs
    full, full_moves, _, _ = placed_with_counted_moves(monkeypatch, bench, "GIBBS",
                                                       seed, floor=-1)
    assert full == got and full_moves == 50 * 100 * n


def test_place_runs_the_full_schedule_above_the_floor(monkeypatch):
    # sudoku's floor (73) lies below its optimum, so no move reaches it
    got, moves, n, floor = placed_with_counted_moves(monkeypatch, apps.build_sudoku(),
                                                     "MINSUM", 56226)
    assert (floor, n) == (73, 14) and got.cost_final > floor
    assert moves == 50 * 100 * n


# -- emission -----------------------------------------------------------------

def test_single_cluster_image_has_no_wires():
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    image, report = compile_graph(bench.graph, "SUMPROD", grid=(4, 4))
    assert report["clusters"] == 1 and report["cost_final"] == 0
    assert len(image.cells) == 1 and image.wires == []
    rel = image.cells[next(iter(image.cells))].rel_slots[0]
    assert rel.scope == [0, 1]
    # a pairwise update costs 4 cycles per output
    m = Machine(image)
    assert [r.cost for cell in m.cells.values() for r in cell.rels] == [8] * 3


def test_chain_image_wire_and_shadow_structure():
    caps = Capacities(var_slots=1, rel_slots=1)
    graph = chain_graph(3)
    clusters = cluster(graph, capacities=caps)
    placement = place(clusters, graph, (1, 3), seed=0)
    image = emit_image(placement, clusters, graph, "SUMPROD")
    assert len(image.wires) == 4
    shadows = {ci: [vid for vid, _fid in image.cells[coord].shadow_keys("SUMPROD")]
               for ci, coord in enumerate(placement.coords)}
    assert shadows == {0: [1], 1: [2], 2: []}
    # a shadow's return wire carries its relation's message into the
    # next cell, whose shadow registers it fills with the shadow slots
    registers = {ci: sum(w.dst == coord for w in image.wires)
                 for ci, coord in enumerate(placement.coords)}
    assert registers == {0: 1, 1: 2, 2: 1}
    m = Machine(image, capacities=caps)
    _, quiescent = m.run_until_quiescent(5000)
    assert quiescent


def test_minsum_emission_uses_log_ops():
    graph = chain_graph(2)
    image, _ = compile_graph(graph, "MINSUM", grid=(1, 1))
    assert image.mode == "MINSUM"
    rel = image.cells[(0, 0)].rel_slots[0]
    assert all(w <= 0 for w in rel.table)


def test_gibbs_emission_writes_no_threshold():
    # a GIBBS cell sends a value whenever it changes
    bench = apps.build_ising_chain(8, 0.5, 0.1)
    image, _ = compile_graph(bench.graph, "GIBBS", grid=bench.grid)
    assert image.thresh is None
    assert "THRESH" not in dumps(image)
    with pytest.raises(MapperError, match="GIBBS cells take no change threshold"):
        compile_graph(bench.graph, "GIBBS", grid=bench.grid, thresh=7)


def test_a_default_compile_writes_no_threshold_and_loads_at_the_domains_gate():
    # the loader gates an image with no THRESH record at the domain's
    # default, so the compiler writes one only for a threshold it is given,
    # once for the whole image
    caps = Capacities(var_slots=1, rel_slots=1)
    for mode in ("SUMPROD", "MINSUM"):
        image, _ = compile_graph(chain_graph(3), mode, grid=(1, 3), capacities=caps)
        text = dumps(image)
        assert image.thresh is None
        assert "THRESH" not in text and len(image.cells) == 3
        m = Machine(text, capacities=caps)
        assert m.thresh == domain(mode).thresh
        given, _ = compile_graph(chain_graph(3), mode, grid=(1, 3), capacities=caps,
                                 thresh=3)
        assert given.thresh == 3
        assert dumps(given).count("THRESH") == 1 and "\nSEED 0\nTHRESH 3\nCELL " in dumps(given)
        assert Machine(dumps(given), capacities=caps).thresh == 3


def test_negative_threshold_is_rejected():
    with pytest.raises(MapperError, match="threshold must be >= 0, got -5"):
        compile_graph(chain_graph(2), "SUMPROD", grid=(1, 1), thresh=-5)


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
    bench = apps.build_parity_code((1, 0, 1, 1, 0, 0, 1))
    a, _ = compile_graph(bench.graph, "SUMPROD", grid=(4, 4), seed=2)
    b, _ = compile_graph(bench.graph, "SUMPROD", grid=(4, 4), seed=2)
    assert dumps(a) == dumps(b)


# -- derived shadow registers -------------------------------------------------

def _shadow_keys(graph, cl_vars, cl_rels, mode):
    """The shadow register each remote read of a cluster's relations goes
    through: per read (variable, factor id), in slot order (relations in
    order, then scope order), the key of its register.  A register holds
    one remote (variable, factor) message, or, in GIBBS, the one value of a
    remote variable that the cell's relations share, keyed (variable, None)."""
    vset = set(cl_vars)
    return {(u, fid): (u, None if mode == GIBBS else fid)
            for fid in cl_rels for u in graph.factors[fid].scope if u not in vset}


def reference_wires(placement, clusters, graph, mode):
    """(var, src, dst, slot, back) of every wire, and each cell's shadow
    keys in slot order, as the compiler numbered them when images still
    listed their shadows, kept verbatim as the reference the derived
    registers must equal: `_shadow_keys`, `emit_image`'s `shadow_slot` map,
    and `MachineImage.wires` over the SHADOW records it wrote."""
    home = {v: placement.coords[ci] for ci, cl in enumerate(clusters) for v in cl.vars}
    slots = {}
    for ci, cl in enumerate(clusters):
        reads = _shadow_keys(graph, cl.vars, cl.rels, mode)
        shadow_slot = {key: s for s, key in enumerate(dict.fromkeys(reads.values()))}
        slots[placement.coords[ci]] = list(shadow_slot)
    wires = []
    for coord in sorted(slots):
        for slot, vid in enumerate(v for v, _fid in slots[coord]):
            src = home.get(vid)
            wires.append((vid, src, coord, slot, False))
            if mode != GIBBS:
                wires.append((vid, coord, src, slot, True))
    return wires, slots


@PLACEMENT_SETTINGS
@given(mode=st.sampled_from(("SUMPROD", "MINSUM", "GIBBS")),
       graph_seed=st.integers(0, 10 ** 6), tree=st.booleans(),
       var_slots=st.integers(1, 4), rel_slots=st.sampled_from(range(2, 17)),
       shadow_slots=st.sampled_from(range(4, 65)),
       table_words=st.sampled_from((256, 512, 4096)),
       place_seed=st.integers(0, 2 ** 32 - 1))
def test_derived_shadow_registers_match_the_reference(mode, graph_seed, tree, var_slots,
                                                      rel_slots, shadow_slots,
                                                      table_words, place_seed):
    graph = (gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10) if tree
             else gen.random_builtin_graph(graph_seed))
    caps = Capacities(var_slots=var_slots, rel_slots=rel_slots,
                      shadow_slots=shadow_slots, table_words=table_words)
    try:
        low = lower(graph, epsilon=_default_epsilon(mode), capacities=caps, mode=mode)
        clusters = cluster(low, capacities=caps, mode=mode)
        placement = place(clusters, low, (4, 4), seed=place_seed, mode=mode, epochs=2)
    except MapperError:
        reject()
    image = emit_image(placement, clusters, low, mode)
    wires, slots = reference_wires(placement, clusters, low, mode)
    assert [(w.var_id, w.src, w.dst, w.slot, w.back) for w in image.wires] == wires
    assert {coord: list(cell.shadow_keys(mode)) for coord, cell in image.cells.items()} \
        == slots
    text = dumps(image)
    assert dumps(parse_image(text)) == text
    m = Machine(text, capacities=caps)
    for coord, keys in slots.items():
        shadows = m.cells[coord].shadows
        assert [sh.vid for sh in shadows] == [vid for vid, _fid in keys]
        if mode != GIBBS:
            assert [sh.rel.fid for sh in shadows] == [fid for _vid, fid in keys]
