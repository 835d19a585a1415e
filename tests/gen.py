"""Seeded random graph builders shared by the unit and acceptance tests."""

import random

from factormesh import (ALL_DIFFERENT, PARITY, TABLE, FactorGraph, FactorNode,
                        VariableNode, checked)


def random_tree_graph(seed, n_lo=2, n_hi=12, card_hi=4):
    """Random acyclic factor graph: a spanning tree of pairwise TABLE
    factors over all variables plus a few unaries.  Entries stay well away
    from zero so message products never degenerate."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    cards = [rng.randint(2, card_hi) for _ in range(n)]
    variables = [VariableNode(i, c) for i, c in enumerate(cards)]
    factors = []
    for v in range(1, n):
        u = rng.randrange(v)
        table = tuple(rng.uniform(0.1, 1.0) for _ in range(cards[u] * cards[v]))
        factors.append(FactorNode(len(factors), (u, v), TABLE, table))
    for v in range(n):
        if rng.random() < 0.4:
            table = tuple(rng.uniform(0.1, 1.0) for _ in range(cards[v]))
            factors.append(FactorNode(len(factors), (v,), TABLE, table))
    return checked(FactorGraph(variables, factors))


def flooding_rounds(graph):
    """Upper bound on flooding sweeps needed for exact tree beliefs:
    ceil(diameter / 2) of the bipartite node graph (variables and factors
    both count as nodes, so a unary factor at the end of the longest path
    adds the extra half-step it really costs)."""
    adj = {("v", v.id): [] for v in graph.variables}
    for f in graph.factors:
        adj[("f", f.id)] = []
        for vid in f.scope:
            adj[("f", f.id)].append(("v", vid))
            adj[("v", vid)].append(("f", f.id))

    def bfs(src):
        seen = {src: 0}
        frontier = [src]
        far, dist = src, 0
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        if seen[w] > dist:
                            far, dist = w, seen[w]
                        nxt.append(w)
            frontier = nxt
        return far, dist

    start = next((k for k, peers in adj.items() if peers), None)
    if start is None:
        return 1
    far, _ = bfs(start)
    _, diameter = bfs(far)
    return max(1, (diameter + 1) // 2)


def random_builtin_graph(seed, state_cap=1 << 18, degree=0):
    """Random enumeration-sized graph mixing TABLE factors with
    ALL_DIFFERENT and wide PARITY builtins, for lowering coverage.

    Built on a variable tree so the graph stays connected; the builtin
    factors are grafted over existing variables.  All TABLE entries are
    positive, ALL_DIFFERENT arity never exceeds the shared cardinality, and
    the joint state space stays below state_cap.  Unary TABLE factors,
    numbered last, then bring every variable up to `degree` factors.
    """
    rng = random.Random(seed)
    while True:
        n = rng.randint(4, 9)
        use_parity = rng.random() < 0.7
        cards = []
        for _ in range(n):
            cards.append(2 if use_parity else rng.choice((2, 3, 3, 4)))
        space = 1
        for c in cards:
            space *= c
        if space > state_cap:
            continue
        variables = [VariableNode(i, c) for i, c in enumerate(cards)]
        factors = []
        for v in range(1, n):
            u = rng.randrange(v)
            table = tuple(rng.uniform(0.2, 1.0)
                          for _ in range(cards[u] * cards[v]))
            factors.append(FactorNode(len(factors), (u, v), TABLE, table))
        if use_parity:
            arity = rng.randint(4, min(6, n))
            scope = tuple(rng.sample(range(n), arity))
            factors.append(FactorNode(len(factors), scope, PARITY))
        else:
            groups = {}
            for v, c in enumerate(cards):
                groups.setdefault(c, []).append(v)
            card, shared = max(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))
            if len(shared) < 2:
                continue
            arity = rng.randint(2, min(card, len(shared)))
            scope = tuple(rng.sample(shared, arity))
            factors.append(FactorNode(len(factors), scope, ALL_DIFFERENT))
        for v in range(n):
            for _ in range(degree - sum(v in f.scope for f in factors)):
                table = tuple(rng.uniform(0.2, 1.0) for _ in range(cards[v]))
                factors.append(FactorNode(len(factors), (v,), TABLE, table))
        return checked(FactorGraph(variables, factors))
