"""GIBBS tick plan: the lowered plan samples exactly what the old loop did.

`ReferenceTickMachine` keeps the tick loop from before the relation
programs were lowered into a tick plan: it walks every (relation, scope
position) that reads a local variable and builds the conditional from the
relation's table directly, drawing with the scalar `keyed_uniform01`, one
draw per tick, so it also checks that the machine's block draws
(`rng.DRAW_BLOCK` ticks hashed at once) are the scalar stream's.
"""

import random

from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import apps, rng
from factormesh.graph import with_evidence
from factormesh.image import DEFAULT_CAPACITIES, Capacities, dumps
from factormesh.machine import Machine, _Var
from factormesh.mapper import MapperError, compile_graph


class ReferenceTickMachine(Machine):

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ref_plan = {}
        for cell in self.cells.values():
            uses = {var: [] for var in cell.vars}
            for rel in cell.rels:
                for pos, obj in enumerate(rel.refs):
                    if type(obj) is _Var:
                        uses[obj].append((rel, pos))
            self._ref_plan[cell.cid] = [(var, uses[var]) for var in cell.vars]

    def _on_tick(self, cell, time):
        k = cell.tick_idx
        changed = []
        for var, uses in self._ref_plan[cell.cid]:
            if var.evidence is None:
                cond = [1] * var.card
                for rel, pos in uses:
                    base = 0
                    for q, obj in enumerate(rel.refs):
                        if q == pos:
                            continue
                        base += obj.value * rel.strides[q]
                    sv = rel.strides[pos]
                    tbl = rel.table
                    for a in range(var.card):
                        cond[a] *= tbl[base + a * sv]
                self.stats.activations += len(uses)
                total = sum(cond)
                if total > 0:
                    target = rng.keyed_uniform01(var.key, k) * total
                    acc = 0
                    val = var.card - 1
                    for a in range(var.card):
                        acc += cond[a]
                        if acc > target:
                            val = a
                            break
                    if val != var.value:
                        var.value = val
                        changed.append(var)
            var.counts[var.value] += 1
            if self.trace is not None:
                self._trace(time, cell, "SAMPLE", var.vid, var.value)
        cell.tick_idx = k + 1
        out_t = time + cell.tick_cost
        for var in changed:
            if var.port is not None:
                self._gate_send(var.port, var.value, out_t, cell)
        if cell.tick_budget is None or cell.tick_idx < cell.tick_budget:
            self._push(time + cell.period, cell, self._on_tick, cell)


@st.composite
def gibbs_cases(draw):
    """A random gen.py graph (cards 2-4) with evidence on some variables,
    compiled under GIBBS, plus an optional evidence injection mid-run."""
    graph_seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        graph = gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10, card_hi=4)
    else:
        graph = gen.random_builtin_graph(graph_seed)
    pick = random.Random(draw(st.integers(0, 10 ** 6)))
    evidence = {v.id: pick.randrange(v.cardinality) for v in graph.variables
                if pick.random() < 0.25}
    graph = with_evidence(graph, evidence)
    caps = Capacities(var_slots=draw(st.integers(1, 3)), rel_slots=16,
                      shadow_slots=64, table_words=4096)
    epsilon = draw(st.sampled_from((None, 0.0)))
    try:
        image, _ = compile_graph(graph, "GIBBS", grid=(4, 4),
                                 seed=draw(st.integers(0, 2 ** 32 - 1)),
                                 capacities=caps, epsilon=epsilon, epochs=2)
    except MapperError:
        reject()
    inject = None
    if draw(st.booleans()):
        slots = [vs for ci in image.cells.values() for vs in ci.var_slots]
        vs = pick.choice(slots)
        inject = (vs.var_id, pick.randrange(vs.card), draw(st.integers(0, 3000)))
    return dumps(image), caps, inject


def run(cls, text, caps, inject, ticks, trace):
    m = cls(text, capacities=caps, trace=trace)
    if inject is not None:
        m.inject_evidence(inject[0], inject[1], at_time=inject[2])
    stats = m.run_ticks(ticks)
    counts = {vid: list(var.counts) for vid, var in m.var_owner.items()}
    return m.read_assignment(), counts, stats, m.trace


@settings(max_examples=100, deadline=None)
@given(case=gibbs_cases(), ticks=st.integers(1, 100), trace=st.booleans())
def test_tick_plan_matches_reference_loop(case, ticks, trace):
    text, caps, inject = case
    got = run(Machine, text, caps, inject, ticks, trace)
    want = run(ReferenceTickMachine, text, caps, inject, ticks, trace)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == want[3]


def ising_image():
    bench = apps.build_ising_chain(4, 0.5, 0.2)
    image, _ = compile_graph(bench.graph, "GIBBS", grid=bench.grid, seed=3, epochs=5)
    return dumps(image)


def test_block_draws_match_reference_at_block_edges():
    # 2 cells with period 50; variable 1 is clamped mid-block, near tick 500
    text = ising_image()
    block = rng.DRAW_BLOCK
    for ticks in (1, block - 1, block, block + 1, 2 * block + 1):
        got = run(Machine, text, DEFAULT_CAPACITIES, (1, 1, 25010), ticks, True)
        want = run(ReferenceTickMachine, text, DEFAULT_CAPACITIES, (1, 1, 25010),
                   ticks, True)
        assert got == want, ticks


def test_runs_that_stop_mid_block_continue_the_stream():
    # tick k of a cell falls at 50 (k + 1) + phase: the first run stops
    # near tick 600 and the second crosses the block edge at tick 1024
    text = ising_image()
    ends = (50 * 600 + 10, 50 * (rng.DRAW_BLOCK + 476) + 10)
    split = Machine(text)
    for end in ends:
        split.run_until_quiescent(end)
    whole = Machine(text)
    whole.run_until_quiescent(ends[1])
    for m in (split, whole):
        assert all(cell.tick_idx > rng.DRAW_BLOCK for cell in m.cells.values())
    assert split.read_assignment() == whole.read_assignment()
    assert ({vid: var.counts for vid, var in split.var_owner.items()}
            == {vid: var.counts for vid, var in whole.var_owner.items()})
    assert split.stats == whole.stats
    assert split.stats.text() == whole.stats.text()
