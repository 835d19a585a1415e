"""Graph-to-machine compiler.

Pipeline: lower builtin relations to capacity-feasible tables, group variables
and relations into per-cell clusters, place clusters on the grid by simulated
annealing over total Manhattan wire length, then emit the loadable image
(slots, quantized tables, micro-programs, shadow wiring, timing).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from . import fixedpoint as fp
from .graph import (FactorGraph, FactorNode, VariableNode, TABLE, ALL_DIFFERENT,
                    PARITY, EPS_SOFT, expand_builtin, checked)
from .image import (MachineImage, CellImage, VarSlot, ShadowSlot, RelSlot, Wire,
                    Capacities, DEFAULT_CAPACITIES, DEFAULT_THRESH_LINEAR,
                    DEFAULT_THRESH_LOG, MAX_PROGRAM_OPS, gibbs_var_cost,
                    SUMPROD, MINSUM, GIBBS, VTOF, FTOV, VALUE)


class MapperError(ValueError):
    pass


# margin added to the per-phase budget over travel + compute time
GIBBS_SLACK = 4


def _default_epsilon(mode: str) -> float:
    # hard zeros are exact for sum-product; sampling and log-domain
    # propagation need soft zeros to stay connected
    return 0.0 if mode == SUMPROD else EPS_SOFT


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def _max_arity(mode: str) -> int:
    # each relation programs 2*arity ops per output in converging modes
    if mode == GIBBS:
        return MAX_PROGRAM_OPS // 2
    k = 1
    while 2 * (k + 1) * (k + 1) <= MAX_PROGRAM_OPS:
        k += 1
    return k


def lower(graph: FactorGraph, epsilon: float = 0.0,
          capacities: Capacities = DEFAULT_CAPACITIES,
          mode: str = SUMPROD) -> FactorGraph:
    """Rewrite builtin relations into plain tables a cell can execute.

    ALL_DIFFERENT becomes a clique of pairwise not-equal tables (duplicate
    pairs across constraints collapse to one factor).  PARITY wider than three
    bits becomes a chain of three-bit parity tables over fresh auxiliary
    variables appended after the original ones.  Oversized tables or programs
    are rejected."""
    variables = list(graph.variables)
    factors = []
    seen_pairs = set()
    arity_cap = _max_arity(mode)

    def add(scope, table):
        scope = tuple(scope)
        if len(scope) > arity_cap:
            raise MapperError("factor over %d variables needs a %d-op program; "
                              "limit is %d" % (len(scope),
                                               2 * len(scope) * len(scope),
                                               MAX_PROGRAM_OPS))
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

    def not_equal(u, v):
        cu = variables[u].cardinality
        cv = variables[v].cardinality
        return [1.0 if a != b else epsilon for a in range(cu) for b in range(cv)]

    def parity3(eps):
        return [1.0 if (a ^ b ^ c) == 0 else eps
                for a in range(2) for b in range(2) for c in range(2)]

    for f in graph.factors:
        if f.kind == ALL_DIFFERENT:
            for i in range(len(f.scope)):
                for j in range(i + 1, len(f.scope)):
                    u, v = f.scope[i], f.scope[j]
                    key = (min(u, v), max(u, v))
                    if key in seen_pairs:
                        continue
                    seen_pairs.add(key)
                    add((u, v), not_equal(u, v))
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
            tbl = parity3(epsilon)
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


def _shadow_count(cl_vars, cl_rels, factors_of, scopes):
    """Converging modes: one slot per remote message endpoint."""
    vset = set(cl_vars)
    rset = set(cl_rels)
    n = 0
    for v in cl_vars:
        n += sum(1 for fid in factors_of[v] if fid not in rset)
    for fid in cl_rels:
        n += sum(1 for u in scopes[fid] if u not in vset)
    return n


def cluster(graph: FactorGraph, capacities: Capacities = DEFAULT_CAPACITIES,
            mode: str = SUMPROD) -> list:
    """Greedy breadth-first grouping.

    Seeds at the lowest unassigned variable id, then alternately absorbs
    every feasible adjacent relation (id order) and the lowest feasible
    adjacent variable until the cell is saturated.  Relations left over in
    converging modes are packed, in id order, into relation-only clusters.
    In GIBBS mode every relation touching a cluster is replicated into it, so
    relation slots and table words are budgeted for the full replica set."""
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
        if len(cl_vars) > cap.var_slots:
            return False
        if mode == GIBBS:
            reps = touching(cl_vars)
            if len(reps) > cap.rel_slots:
                return False
            if sum(words[fid] for fid in reps) > cap.table_words:
                return False
            vset = set(cl_vars)
            value_shadows = set()
            for fid in reps:
                value_shadows.update(u for u in scopes[fid] if u not in vset)
            return len(value_shadows) <= cap.shadow_slots
        if len(cl_rels) > cap.rel_slots:
            return False
        if sum(words[fid] for fid in cl_rels) > cap.table_words:
            return False
        return _shadow_count(cl_vars, cl_rels, factors_of, scopes) <= cap.shadow_slots

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


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

@dataclass
class Placement:
    grid: tuple
    coords: list
    cost_initial: int
    cost_final: int


def _factor_home(clusters, graph, mode):
    """Cluster charged with each relation for wire-length accounting."""
    cvar = {}
    for i, cl in enumerate(clusters):
        for v in cl.vars:
            cvar[v] = i
    home = {}
    if mode == GIBBS:
        for f in graph.factors:
            home[f.id] = cvar[min(f.scope)]
    else:
        for i, cl in enumerate(clusters):
            for fid in cl.rels:
                home[fid] = i
    return cvar, home


def _edge_weights(clusters, graph, mode):
    cvar, home = _factor_home(clusters, graph, mode)
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


def place(clusters: list, graph: FactorGraph, grid: tuple, seed: int = 0,
          mode: str = SUMPROD, epochs: int = 50, epoch_scale: int = 100,
          cooling: float = 0.95) -> Placement:
    """Simulated annealing from a row-major start; returns the best placement
    seen, never worse than the start.

    A move scores only the moved clusters' edges, read from a table of grid
    distances between cells, so each placement equals the one a full
    recompute of every touched edge would pick.

    A move's cluster i and target cell q are drawn as `randrange` draws
    them (CPython's `_randbelow_with_getrandbits`, the same in 3.10-3.13):
    `getrandbits(bound.bit_length())` until the value is below the bound.
    Inlining that loop skips two Python frames per draw while every seed
    consumes the same bits, so placements match `randrange`'s exactly
    (test_mapper.py pins this contract)."""
    R, C = grid
    n, cells_n = len(clusters), R * C
    if n > cells_n:
        raise MapperError("grid %dx%d too small for %d clusters" % (R, C, n))
    cells = [(p // C, p % C) for p in range(cells_n)]
    dist = [[abs(r1 - r2) + abs(c1 - c2) for r2, c2 in cells] for r1, c1 in cells]
    edges = _edge_weights(clusters, graph, mode)
    adj = [[] for _ in range(n)]
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    cost0 = sum(w * dist[a][b] for a, b, w in edges)
    if cost0 == 0 or n <= 1:
        return Placement(grid, cells[:n], cost0, cost0)

    edge_total = sum(w for _, _, w in edges)
    temp = 2.0 * cost0 / max(edge_total, 1)
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    ki, kq = n.bit_length(), cells_n.bit_length()
    pos = list(range(n))
    at = pos + [None] * (cells_n - n)
    cur = cost0
    best = list(pos)
    best_cost = cost0

    for _ in range(epochs):
        accepts = 0
        for _ in range(epoch_scale * n):
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
            # explicit loops beat sum() over generators here; the i-j edge
            # keeps its length in a swap
            delta = 0
            for k, w in adj[i]:
                if k != j:
                    delta += w * (dq[pos[k]] - dp[pos[k]])
            if j is not None:
                for k, w in adj[j]:
                    if k != i:
                        delta += w * (dp[pos[k]] - dq[pos[k]])
            if delta <= 0 or uniform() < math.exp(-delta / temp):
                pos[i], at[q], at[p] = q, i, j
                if j is not None:
                    pos[j] = p
                cur += delta
                accepts += 1
                if cur < best_cost:
                    best_cost = cur
                    best = list(pos)
        if accepts == 0:
            break
        temp *= cooling
    return Placement(grid, [cells[p] for p in best], cost0, best_cost)


# ---------------------------------------------------------------------------
# image emission
# ---------------------------------------------------------------------------

def _quantize_table(table, mode):
    if mode == MINSUM:
        logs = [math.log(x) if x > 0 else float("-inf") for x in table]
        return tuple(fp.quantize(logs, fp.LOG))
    return tuple(fp.quantize(list(table), fp.LINEAR))


def _prog_converging(arity, mode):
    ops = []
    combine = "MUL" if mode == SUMPROD else "ADD"
    reduce_op = "SUM_REDUCE" if mode == SUMPROD else "MAX_REDUCE"
    for j in range(arity):
        ops.append(("LOAD_TABLE_SLICE", None))
        for i in range(arity):
            if i != j:
                ops.append((combine, i, i))
        for i in range(arity):
            if i != j:
                ops.append((reduce_op, i))
        ops.append(("NORMALIZE", j))
    return ops


def _prog_gibbs(local_positions):
    ops = []
    for j in local_positions:
        ops.append(("LOAD_TABLE_SLICE", j))
        ops.append(("MUL_COND",))
    return ops


def emit_image(placement: Placement, clusters: list, graph: FactorGraph,
               mode: str, seed: int = 0, thresh: Optional[int] = None,
               capacities: Capacities = DEFAULT_CAPACITIES) -> MachineImage:
    cap = capacities
    cvar, home = _factor_home(clusters, graph, mode)
    coords = placement.coords
    factors = {f.id: f for f in graph.factors}
    factors_of = {v.id: [fid for fid, _ in graph.factors_of(v.id)]
                  for v in graph.variables}
    if thresh is None:
        thresh = DEFAULT_THRESH_LOG if mode == MINSUM else DEFAULT_THRESH_LINEAR
    tables = {}

    def qtable(fid):
        if fid not in tables:
            tables[fid] = _quantize_table(factors[fid].table, mode)
        return tables[fid]

    cells = {}
    wires = []
    if mode == GIBBS:
        delta, period = _gibbs_timing(placement.grid, clusters, graph, cvar)
    for ci, cl in enumerate(clusters):
        coord = coords[ci]
        cell = CellImage(coord[0], coord[1])
        cells[coord] = cell
        vslot = {}
        for s, v in enumerate(cl.vars):
            var = graph.variables[v]
            cell.var_slots.append(VarSlot(s, v, var.cardinality, var.evidence))
            vslot[v] = s
        shadow_slot = {}

        def shadow_for(key, vid, role, fid, src_cluster):
            if key in shadow_slot:
                return shadow_slot[key]
            s = len(cell.shadow_slots)
            src = coords[src_cluster]
            cell.shadow_slots.append(ShadowSlot(s, vid, graph.cardinality(vid),
                                                src, role, fid))
            wires.append(Wire(vid, src, coord, s))
            shadow_slot[key] = s
            return s

        for rs, fid in enumerate(cl.rels):
            f = factors[fid]
            refs = []
            local_positions = []
            for pos, v in enumerate(f.scope):
                if v in vslot:
                    refs.append(("V", vslot[v]))
                    local_positions.append(pos)
                elif mode == GIBBS:
                    refs.append(("H", shadow_for(("val", v), v, VALUE, None, cvar[v])))
                else:
                    refs.append(("H", shadow_for(("vf", v, fid), v, VTOF, fid,
                                                 cvar[v])))
            if mode == GIBBS:
                prog = _prog_gibbs(local_positions)
            else:
                prog = _prog_converging(len(f.scope), mode)
            cell.rel_slots.append(RelSlot(rs, fid, refs, list(qtable(fid)), prog))
        if mode != GIBBS:
            rset = set(cl.rels)
            for v in cl.vars:
                for fid in factors_of[v]:
                    if fid not in rset:
                        shadow_for(("fv", v, fid), v, FTOV, fid, home[fid])
        cell.thresh = thresh
        if mode == GIBBS and cl.vars:
            cell.gibbs_period = period
            cell.gibbs_phase = ci * delta
        nwords = sum(len(r.table) for r in cell.rel_slots)
        if (len(cell.var_slots) > cap.var_slots
                or len(cell.rel_slots) > cap.rel_slots
                or len(cell.shadow_slots) > cap.shadow_slots
                or nwords > cap.table_words):
            raise MapperError("cluster %d exceeds cell capacity" % ci)
    return MachineImage(placement.grid, mode, seed, cells, wires)


def _gibbs_timing(grid, clusters, graph, cvar):
    """Per-cluster phase spacing: worst tick compute time plus grid traversal
    plus the cell's value fan-out, padded, so each cluster samples against
    fully fresh neighbor values."""
    R, C = grid
    factors_of = {v.id: [fid for fid, _ in graph.factors_of(v.id)]
                  for v in graph.variables}
    max_tick = 0
    max_fanout = 0
    for ci, cl in enumerate(clusters):
        tick = sum(gibbs_var_cost(len(factors_of[v])) for v in cl.vars)
        max_tick = max(max_tick, tick)
        fanout = 0
        for v in cl.vars:
            consumers = set()
            for f in graph.factors:
                if v in f.scope:
                    for u in f.scope:
                        if cvar[u] != ci:
                            consumers.add(cvar[u])
            fanout += len(consumers)
        max_fanout = max(max_fanout, fanout)
    delta = (R - 1) + (C - 1) + max_fanout + max_tick + GIBBS_SLACK
    return delta, delta * len(clusters)


# ---------------------------------------------------------------------------
# one-call pipeline
# ---------------------------------------------------------------------------

def compile_graph(graph: FactorGraph, mode: str, grid: tuple = (4, 4),
                  seed: int = 0, capacities: Capacities = DEFAULT_CAPACITIES,
                  thresh: Optional[int] = None, epsilon: Optional[float] = None,
                  epochs: int = 50, epoch_scale: int = 100,
                  cooling: float = 0.95):
    """lower -> cluster -> place -> emit.  Returns (image, report dict)."""
    if epsilon is None:
        epsilon = _default_epsilon(mode)
    lowered = lower(graph, epsilon=epsilon, capacities=capacities, mode=mode)
    clusters = cluster(lowered, capacities=capacities, mode=mode)
    placement = place(clusters, lowered, grid, seed=seed, mode=mode,
                      epochs=epochs, epoch_scale=epoch_scale, cooling=cooling)
    image = emit_image(placement, clusters, lowered, mode, seed=seed,
                       thresh=thresh, capacities=capacities)
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
