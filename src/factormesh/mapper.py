"""Graph-to-machine compiler.

Pipeline: lower builtin relations to capacity-feasible tables, group variables
and relations into per-cell clusters, place clusters on the grid by simulated
annealing over total Manhattan wire length, then emit the loadable image
(slots, scopes, quantized tables); `image.gibbs_schedule` times GIBBS cells.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .graph import (FactorGraph, FactorNode, VariableNode, TABLE, ALL_DIFFERENT,
                    PARITY, EPS_SOFT, expand_builtin, checked)
from .image import (MachineImage, CellImage, VarSlot, RelSlot, Capacities,
                    DEFAULT_CAPACITIES, MAX_UPDATE_CYCLES, domain,
                    relation_cost, shadow_key, SUMPROD, GIBBS)


class MapperError(ValueError):
    pass


# annealing temperature factor per placement epoch
COOLING = 0.95

# annealing moves per cluster per placement epoch
EPOCH_SCALE = 100


def _default_epsilon(mode: str) -> float:
    # hard zeros are exact for sum-product; sampling and log-domain
    # propagation need soft zeros to stay connected
    return 0.0 if mode == SUMPROD else EPS_SOFT


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def lower(graph: FactorGraph, epsilon: float = 0.0,
          capacities: Capacities = DEFAULT_CAPACITIES,
          mode: str = SUMPROD) -> FactorGraph:
    """Rewrite builtin relations into plain tables a cell can execute.

    ALL_DIFFERENT becomes a clique of pairwise not-equal tables (duplicate
    pairs across constraints collapse to one factor).  PARITY wider than three
    bits becomes a chain of three-bit parity tables over fresh auxiliary
    variables appended after the original ones.  Oversized tables and
    relations whose update costs too many cycles are rejected."""
    variables = list(graph.variables)
    factors = []
    seen_pairs = set()

    def add(scope, table):
        scope = tuple(scope)
        # a converging update costs relation_cost(arity) cycles; the table
        # memory alone bounds a GIBBS factor
        if mode != GIBBS and relation_cost(len(scope)) > MAX_UPDATE_CYCLES:
            raise MapperError("factor over %d variables costs %d cycles per "
                              "update; limit is %d" % (len(scope),
                                                       relation_cost(len(scope)),
                                                       MAX_UPDATE_CYCLES))
        words = len(table)
        if words > capacities.table_words:
            raise MapperError("factor table of %d words exceeds cell memory (%d)"
                              % (words, capacities.table_words))
        for v in scope:
            if variables[v].cardinality > capacities.max_cardinality:
                raise MapperError("variable %d cardinality %d exceeds machine limit %d"
                                  % (v, variables[v].cardinality,
                                     capacities.max_cardinality))
        factors.append(FactorNode(len(factors), scope, TABLE, tuple(table)))

    for f in graph.factors:
        if f.kind == ALL_DIFFERENT:
            for i in range(len(f.scope)):
                for j in range(i + 1, len(f.scope)):
                    u, v = f.scope[i], f.scope[j]
                    key = (min(u, v), max(u, v))
                    if key in seen_pairs:
                        continue
                    seen_pairs.add(key)
                    pair = FactorNode(f.id, (u, v), ALL_DIFFERENT)
                    cards = (variables[u].cardinality, variables[v].cardinality)
                    add((u, v), expand_builtin(pair, cards, epsilon).table)
        elif f.kind == PARITY and len(f.scope) > 3:
            s = f.scope
            aux = []
            for _ in range(len(s) - 3):
                aux.append(len(variables))
                variables.append(VariableNode(len(variables), 2))
            chain = [(s[0], s[1], aux[0])]
            for k in range(1, len(s) - 3):
                chain.append((aux[k - 1], s[k + 1], aux[k]))
            chain.append((aux[-1], s[-2], s[-1]))
            tbl = expand_builtin(FactorNode(f.id, chain[0], PARITY), (2, 2, 2),
                                 epsilon).table
            for scope in chain:
                add(scope, tbl)
        elif f.kind == TABLE:
            add(f.scope, f.table)
        else:
            cards = tuple(variables[v].cardinality for v in f.scope)
            add(f.scope, expand_builtin(f, cards, epsilon).table)
    return checked(FactorGraph(variables, factors))


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

@dataclass
class Cluster:
    vars: list = field(default_factory=list)
    rels: list = field(default_factory=list)


def cluster(graph: FactorGraph, capacities: Capacities = DEFAULT_CAPACITIES,
            mode: str = SUMPROD) -> list:
    """Greedy breadth-first grouping.

    Seeds at the lowest unassigned variable id, then grows the cell in one
    loop: absorb every feasible adjacent relation (id order), pass after
    pass until a pass adds none, then the lowest feasible adjacent
    variable, until no variable fits.  Relations left over are packed, in
    id order, into relation-only clusters.  In GIBBS mode every relation
    touching a cluster is replicated into it, so none is left over or
    absorbed, and relation slots and table words are budgeted for the full
    replica set."""
    cap = capacities
    factors_of = {v.id: [fid for fid, _ in graph.factors_of(v.id)]
                  for v in graph.variables}
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
        registers: a shadow register per `shadow_key` of its relations'
        remote reads, and one per return wire of a remote relation of its
        variables, which a GIBBS cluster's replicas leave none of."""
        if mode == GIBBS:
            cl_rels = touching(cl_vars)
        vset, rset = set(cl_vars), set(cl_rels)
        shadows = {shadow_key(mode, u, fid) for fid in cl_rels
                   for u in graph.factors[fid].scope if u not in vset}
        returns = sum(fid not in rset for v in cl_vars for fid in factors_of[v])
        return (len(cl_vars) <= cap.var_slots and len(cl_rels) <= cap.rel_slots
                and sum(words[fid] for fid in cl_rels) <= cap.table_words
                and len(shadows) + returns <= cap.shadow_slots)

    unassigned_vars = set(v.id for v in graph.variables)
    unassigned_rels = set() if mode == GIBBS else set(f.id for f in graph.factors)
    clusters = []
    while unassigned_vars:
        seed = min(unassigned_vars)
        cl_vars = [seed]
        cl_rels = []
        unassigned_vars.discard(seed)
        if not feasible(cl_vars, cl_rels):
            raise MapperError("variable %d does not fit an empty cell" % seed)
        while True:
            absorbed = len(cl_rels)
            for fid in sorted(touching(cl_vars) & unassigned_rels):
                if feasible(cl_vars, cl_rels + [fid]):
                    cl_rels.append(fid)
                    unassigned_rels.discard(fid)
            if len(cl_rels) > absorbed:
                continue
            frontier = sorted(u for v in cl_vars for u in neighbors[v]
                              if u in unassigned_vars)
            u = next((u for u in frontier if feasible(cl_vars + [u], cl_rels)), None)
            if u is None:
                break
            cl_vars.append(u)
            unassigned_vars.discard(u)
        clusters.append(Cluster(sorted(cl_vars), sorted(
            touching(cl_vars) if mode == GIBBS else cl_rels)))

    for fid in sorted(unassigned_rels):
        if clusters and not clusters[-1].vars and feasible([], clusters[-1].rels + [fid]):
            clusters[-1].rels.append(fid)
        elif feasible([], [fid]):
            clusters.append(Cluster([], [fid]))
        else:
            raise MapperError("relation %d does not fit an empty cell" % fid)
    return clusters


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

@dataclass
class Placement:
    grid: tuple
    coords: list
    cost_initial: int
    cost_final: int


def _edge_weights(clusters, graph, mode):
    """(a, b, wires) between each two clusters a < b, a relation charged to
    its own cluster, in GIBBS to its lowest variable's."""
    cvar = {v: i for i, cl in enumerate(clusters) for v in cl.vars}
    home = ({f.id: cvar[min(f.scope)] for f in graph.factors} if mode == GIBBS
            else {fid: i for i, cl in enumerate(clusters) for fid in cl.rels})
    weights = {}
    for f in graph.factors:
        a = home[f.id]
        for v in f.scope:
            b = cvar[v]
            if a != b:
                key = (min(a, b), max(a, b))
                weights[key] = weights.get(key, 0) + 1
    return [(a, b, w) for (a, b), w in sorted(weights.items())]


def cost(placement: Placement, clusters: list, graph: FactorGraph,
         mode: str = SUMPROD) -> int:
    total = 0
    for a, b, w in _edge_weights(clusters, graph, mode):
        (r1, c1), (r2, c2) = placement.coords[a], placement.coords[b]
        total += w * (abs(r1 - r2) + abs(c1 - c2))
    return total


def _cost_floor(n, edges):
    """A wire cost no placement of the n clusters goes below: every wire
    spans at least one hop, and as the mesh is bipartite, an odd cycle of
    wires cannot alternate cell colours, so one of its wires spans two."""
    nbrs = [[] for _ in range(n)]
    for a, b, _ in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    side = {}
    for s in range(n):
        todo = [(s, 0)]
        while todo:
            u, c = todo.pop()
            if u not in side:
                side[u] = c
                todo += [(v, 1 - c) for v in nbrs[u]]
    weights = [w for _, _, w in edges]
    odd = any(side[a] == side[b] for a, b, _ in edges)
    return sum(weights) + (min(weights) if odd else 0)


def place(clusters: list, graph: FactorGraph, grid: tuple, seed: int = 0,
          mode: str = SUMPROD, epochs: int = 50) -> Placement:
    """Simulated annealing from a row-major start; returns the best placement
    seen, never worse than the start.  It returns as soon as that best
    reaches `_cost_floor`, which no later move could beat, so every
    placement is the one the full schedule would return.

    A wireless stand-in fills every empty cell so that every move is a swap,
    each cluster keeps its wires' far-end cells, and the chance of taking a
    lengthening move is tabled once per epoch from the same float expression,
    so each placement equals the one a full recompute would pick.

    A move's cluster i and target cell q are drawn as `randrange` draws
    them (CPython's `_randbelow_with_getrandbits`, the same in 3.10-3.13):
    `getrandbits(bound.bit_length())` until the value is below the bound.
    Inlining that loop skips two Python frames per draw while every seed
    consumes the same bits, so placements match `randrange`'s exactly
    (test_mapper.py pins this contract)."""
    if epochs < 0:
        raise MapperError("epochs must be >= 0, got %d" % epochs)
    R, C = grid
    if R < 1 or C < 1:
        raise MapperError("grid dimensions must be positive, got %dx%d" % (R, C))
    n, cells_n = len(clusters), R * C
    if n > cells_n:
        raise MapperError("grid %dx%d too small for %d clusters" % (R, C, n))
    cells = [(p // C, p % C) for p in range(cells_n)]
    dist = [[abs(r1 - r2) + abs(c1 - c2) for r2, c2 in cells] for r1, c1 in cells]
    edges = _edge_weights(clusters, graph, mode)
    cost0 = sum(w * dist[a][b] for a, b, w in edges)
    floor = _cost_floor(n, edges)
    # with no wire the floor is 0, so from here on n >= 2 and edges weigh >= 1
    if cost0 == floor:
        return Placement(grid, cells[:n], cost0, cost0)

    # cluster n is the stand-in; far[i] holds [cell, weight] of each far end
    # of i's wires (cluster v starts at cell v), ends[i] the ones naming i
    far, ends = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    weight = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b, w in edges:
        weight[a][b] = weight[b][a] = w
        for u, v in ((a, b), (b, a)):
            far[u].append([v, w])
            ends[v].append(far[u][-1])
    # a move lengthens each wire by at most the move's length, and none of
    # the i-j wire's, so the two heaviest clusters bound every lengthening
    degree = sorted(sum(w for _, w in f) for f in far)
    lengthenings = range((degree[-1] + degree[-2]) * dist[0][-1] + 1)

    temp = 2.0 * cost0 / sum(w for _, _, w in edges)
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    ki, kq = n.bit_length(), cells_n.bit_length()
    pos = list(range(n + 1))
    at = pos[:n] + [n] * (cells_n - n)
    cur = cost0
    best = pos[:n]
    best_cost = cost0

    for _ in range(epochs):
        chance = [math.exp(-d / temp) for d in lengthenings]
        accepts = 0
        for _ in range(EPOCH_SCALE * n):
            i = getrandbits(ki)
            while i >= n:
                i = getrandbits(ki)
            q = getrandbits(kq)
            while q >= cells_n:
                q = getrandbits(kq)
            p = pos[i]
            if q == p:
                continue
            j = at[q]
            dp, dq = dist[p], dist[q]
            # the loops count the i-j wire, which keeps its length, as
            # shortened twice by dp[q]; explicit loops beat sum() here
            delta = 2 * weight[i][j] * dp[q]
            for x, w in far[i]:
                delta += w * (dq[x] - dp[x])
            for x, w in far[j]:
                delta -= w * (dq[x] - dp[x])
            if delta <= 0 or uniform() < chance[delta]:
                pos[i], pos[j], at[q], at[p] = q, p, i, j
                for entry in ends[i]:
                    entry[0] = q
                for entry in ends[j]:
                    entry[0] = p
                cur += delta
                accepts += 1
                if cur < best_cost:
                    best_cost = cur
                    best = pos[:n]
                    if cur == floor:
                        return Placement(grid, [cells[p] for p in best], cost0, cur)
        if accepts == 0:
            break
        temp *= COOLING
    return Placement(grid, [cells[p] for p in best], cost0, best_cost)


# ---------------------------------------------------------------------------
# image emission
# ---------------------------------------------------------------------------

def emit_image(placement: Placement, clusters: list, graph: FactorGraph,
               mode: str, seed: int = 0, thresh: Optional[int] = None) -> MachineImage:
    """The loadable image of placed clusters; `cluster` has already fitted
    each one to a cell.  `thresh` is the image's one packet gate."""
    dom = domain(mode, MapperError)
    # a GIBBS cell sends a value whenever it changes, and an image with no
    # threshold gates at the domain's default
    if mode == GIBBS and thresh is not None:
        raise MapperError("GIBBS cells take no change threshold")
    if thresh is not None and thresh < 0:
        raise MapperError("threshold must be >= 0, got %d" % thresh)
    cells = {}
    for coord, cl in zip(placement.coords, clusters):
        variables = [graph.variables[v] for v in cl.vars]
        cells[coord] = CellImage(
            [VarSlot(var.id, var.cardinality, var.evidence) for var in variables],
            [RelSlot(fid, list(graph.factors[fid].scope), dom.quantize(graph.factors[fid].table))
             for fid in cl.rels])
    return MachineImage(placement.grid, mode, seed, cells, thresh)


# ---------------------------------------------------------------------------
# one-call pipeline
# ---------------------------------------------------------------------------

def compile_graph(graph: FactorGraph, mode: str, grid: tuple = (4, 4),
                  seed: int = 0, capacities: Capacities = DEFAULT_CAPACITIES,
                  thresh: Optional[int] = None, epsilon: Optional[float] = None,
                  epochs: int = 50):
    """lower -> cluster -> place -> emit.  Returns (image, report dict)."""
    domain(mode, MapperError)       # an unknown mode fails before any pass
    if epsilon is None:
        epsilon = _default_epsilon(mode)
    lowered = lower(graph, epsilon=epsilon, capacities=capacities, mode=mode)
    clusters = cluster(lowered, capacities=capacities, mode=mode)
    placement = place(clusters, lowered, grid, seed=seed, mode=mode, epochs=epochs)
    image = emit_image(placement, clusters, lowered, mode, seed=seed,
                       thresh=thresh)
    report = {
        "clusters": len(clusters),
        "cost_initial": placement.cost_initial,
        "cost_final": placement.cost_final,
        "aux_vars": len(lowered.variables) - len(graph.variables),
        "factors": len(lowered.factors),
        "grid": grid,
        "mode": mode,
    }
    return image, report
