"""GIBBS memos: one memo per variable, growing only with the states it visits.

A free variable's conditional depends only on the values of its Markov
blanket, so the machine memoizes its prefix sums in a dict keyed by the
blanket's mixed-radix index, filled on first use: at most one entry per
tick, however many states the blanket has.  The memoized machine must run
byte for byte what `test_tick.ReferenceTickMachine`, which rebuilds every
conditional on every tick, runs: the trace, `Stats.text()`, the
per-variable counts, the beliefs and the state.  Random graphs are compared
in `test_tick.py`, and golden's memo with the sampler from before it in
`test_golden_reference.py`, which also samples the star below.
"""

from unittest import mock

from factormesh import apps, golden
from factormesh.graph import TABLE, FactorGraph, FactorNode, VariableNode, expand_all
from factormesh.image import GIBBS, Capacities
from factormesh.machine import Machine
from factormesh.mapper import compile_graph
from test_golden_reference import assert_same_gibbs
from test_tick import ReferenceTickMachine


def observe(cls, image, caps, inject, ticks):
    m = cls(image, capacities=caps, trace=True)
    if inject is not None:
        m.inject_evidence(inject[0], inject[1], at_time=inject[2])
    stats = m.run_ticks(ticks)
    counts = {vid: list(var.counts) for vid, var in m.var_owner.items()}
    return m, (m.trace_text(), stats.text(), counts, m.read_beliefs(), m.read_assignment())


def assert_memo_runs_the_direct_loop(image, caps, inject, ticks):
    memo, seen = observe(Machine, image, caps, inject, ticks)
    _, direct_seen = observe(ReferenceTickMachine, image, caps, inject, ticks)
    assert direct_seen == seen
    return memo


def test_memo_and_direct_loop_on_the_ising_chain():
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    for seed in (0, 3):
        image, _ = compile_graph(bench.graph, GIBBS, grid=bench.grid, seed=seed,
                                 epochs=10)
        m = assert_memo_runs_the_direct_loop(image, Capacities(), (2, 1, 600), 400)
        # every site reads at most two binary neighbours
        assert all(len(var.memo) <= 4 for var in m.var_owner.values())


STAR_CAPS = Capacities(var_slots=1, rel_slots=16, shadow_slots=64, table_words=4096)


def star(leaves):
    """A binary hub joined to `leaves` binary leaves by pairwise factors,
    odd leaves pulling the hub to their value and even ones away from it,
    each with its own strength, so the hub's conditional tells blanket
    states apart, not only by the number of leaves at 1."""
    variables = [VariableNode(i, 2) for i in range(leaves + 1)]
    factors = []
    for i in range(1, leaves + 1):
        far, near = 0.1 + 0.02 * i, 0.9
        table = (near, far, far, near) if i % 2 else (far, near, near, far)
        factors.append(FactorNode(i - 1, (0, i), TABLE, table))
    return FactorGraph(variables, factors)


def test_a_large_blanket_memoizes_only_the_states_it_visits():
    leaves = 13                         # the hub's blanket has 2**13 states
    ticks = 50
    image, _ = compile_graph(star(leaves), GIBBS, grid=(4, 4), seed=1,
                             capacities=STAR_CAPS, epochs=2)
    m = assert_memo_runs_the_direct_loop(image, STAR_CAPS, None, ticks)
    hub = m.var_owner[0]
    assert len(hub.blanket) == leaves
    assert 1 < len(hub.memo) <= ticks
    assert all(len(m.var_owner[v].memo) <= 2 for v in range(1, leaves + 1))


def test_golden_builds_one_conditional_per_blanket_state_visited():
    leaves = 13
    graph = expand_all(star(leaves), 0.0)
    built = []
    prefix = golden._gibbs_prefix

    def record(v, terms, state, card):
        # the variable and the values of every other variable at the build
        built.append((v, tuple(x for u, x in enumerate(state) if u != v)))
        return prefix(v, terms, state, card)

    with mock.patch.object(golden, "_gibbs_prefix", record):
        assert_same_gibbs(graph, seed=5, burn_in=10, sweeps=40)
    hub = [others for v, others in built if v == 0]
    # the hub's blanket is every leaf: one build per distinct leaf state
    assert 1 < len(hub) == len(set(hub)) <= 50
    # a leaf's blanket is the hub, so it builds at most twice
    assert all(sum(v == u for u, _ in built) <= 2 for v in range(1, leaves + 1))
