"""GIBBS memos: both sampling paths run the same machine.

A free variable's conditional depends only on the values of its Markov
blanket, so the machine memoizes its prefix sums per blanket state, unless
the blanket has more states than `machine._MEMO_CAP`.  With the cap patched
to 0 every variable takes the direct loop; the trace, `Stats.text()`, the
per-variable counts, the beliefs and the state must not move.  The memoized
machine is compared with the loop from before the tick plan in
`test_tick.py`, and golden's memo with its direct loop in
`test_golden_reference.py`.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from factormesh import apps, golden, machine
from factormesh.graph import TABLE, FactorGraph, FactorNode, VariableNode, expand_all
from factormesh.image import GIBBS, Capacities
from factormesh.machine import Machine
from factormesh.mapper import compile_graph
from test_tick import gibbs_cases


def observe(image, caps, inject, ticks):
    m = Machine(image, capacities=caps, trace=True)
    if inject is not None:
        m.inject_evidence(inject[0], inject[1], at_time=inject[2])
    stats = m.run_ticks(ticks)
    counts = {vid: list(var.counts) for vid, var in m.var_owner.items()}
    return m, (m.trace_text(), stats.text(), counts, m.read_beliefs(), m.read_assignment())


def assert_both_paths(image, caps, inject, ticks):
    memo, seen = observe(image, caps, inject, ticks)
    with mock.patch.object(machine, "_MEMO_CAP", 0):
        direct, direct_seen = observe(image, caps, inject, ticks)
    assert all(var.memo is None for var in direct.var_owner.values())
    assert direct_seen == seen
    return memo


@settings(max_examples=60, deadline=None)
@given(case=gibbs_cases(), ticks=st.integers(1, 100))
def test_memo_and_direct_loop_run_the_same_machine(case, ticks):
    text, caps, inject = case
    assert_both_paths(text, caps, inject, ticks)


def test_memo_and_direct_loop_on_the_ising_chain():
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    for seed in (0, 3):
        image, _ = compile_graph(bench.graph, GIBBS, grid=bench.grid, seed=seed,
                                 epochs=10)
        m = assert_both_paths(image, Capacities(), (2, 1, 600), 400)
        # every site reads at most two binary neighbours
        assert all(var.memo is not None and len(var.memo) <= 4
                   for var in m.var_owner.values())


STAR_CAPS = Capacities(var_slots=1, rel_slots=16, shadow_slots=64, table_words=4096)


def star(leaves):
    """A binary hub joined to `leaves` binary leaves by pairwise factors."""
    variables = [VariableNode(i, 2) for i in range(leaves + 1)]
    factors = [FactorNode(i - 1, (0, i), TABLE, (0.9, 0.3, 0.2, 0.8))
               for i in range(1, leaves + 1)]
    return FactorGraph(variables, factors)


def test_a_blanket_above_the_cap_gets_no_memo():
    leaves = 13                         # the hub's blanket has 2**13 states
    assert 2 ** leaves > machine._MEMO_CAP >= 2 ** (leaves - 1)
    image, _ = compile_graph(star(leaves), GIBBS, grid=(4, 4), seed=1,
                             capacities=STAR_CAPS, epochs=2)
    m = assert_both_paths(image, STAR_CAPS, None, 50)
    assert m.var_owner[0].memo is None
    assert all(len(m.var_owner[v].memo) == 2 for v in range(1, leaves + 1))


def test_golden_samples_a_blanket_above_the_cap_without_a_memo():
    leaves = 13
    graph = expand_all(star(leaves), 0.0)
    with mock.patch.object(golden, "_gibbs_prefix", wraps=golden._gibbs_prefix) as spy:
        golden.gibbs_sample(graph, seed=5, burn_in=10, sweeps=40)
    built = [c.args[0] for c in spy.call_args_list]
    # the hub rebuilds its conditional on every draw, a leaf once per hub value
    assert built.count(0) == 50
    assert all(built.count(v) <= 2 for v in range(1, leaves + 1))
