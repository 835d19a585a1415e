"""GIBBS ticks: each cell's generated tick samples exactly what a plain loop
does.

`ReferenceTickMachine` returns its own loop as every cell's tick handler,
in place of the tick generated at load: it walks every (relation, scope
position) that reads a local variable and builds the conditional from the
relation's table directly, drawing with the scalar `keyed_uniform01`, one
draw per tick, so it also checks that the machine's block draws
(`rng.DRAW_BLOCK` ticks hashed at once) are the scalar stream's.  It
charges each tick the cost of its own plan and counts the ticks it ran,
so a comparison can check that the loop, not the generated tick, ran.
"""

import gc
import random
import weakref

from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import apps, machine, rng
from factormesh.graph import with_evidence
from factormesh.image import DEFAULT_CAPACITIES, Capacities, dumps, gibbs_var_cost
from factormesh.machine import Machine, _Var
from factormesh.mapper import MapperError, compile_graph


class ReferenceTickMachine(Machine):

    def __init__(self, *args, **kwargs):
        self.ref_ticks = 0
        super().__init__(*args, **kwargs)

    def _tick_handler(self, cell):
        uses = {var: [] for var in cell.vars}
        for rel in cell.rels:
            for pos, obj in enumerate(rel.refs):
                if type(obj) is _Var:
                    uses[obj].append((rel, pos))
        plan = [(var, uses[var]) for var in cell.vars]
        cost = sum(gibbs_var_cost(len(var_uses)) for _var, var_uses in plan)

        def tick(this, time):
            self.ref_ticks += 1
            k = cell.tick_idx
            changed = []
            for var, var_uses in plan:
                if var.evidence is None:
                    cond = [1] * var.card
                    for rel, pos in var_uses:
                        base = 0
                        for q, obj in enumerate(rel.refs):
                            if q == pos:
                                continue
                            base += obj.value * rel.strides[q]
                        sv = rel.strides[pos]
                        tbl = rel.table
                        for a in range(var.card):
                            cond[a] *= tbl[base + a * sv]
                    self.stats.activations += len(var_uses)
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
                    else:
                        self.stats.zero_total_draws += 1
                var.counts[var.value] += 1
                if self.trace is not None:
                    self._trace(time, cell, "SAMPLE", var.vid, var.value)
            cell.tick_idx = k + 1
            for var in changed:
                if var.port is not None:
                    self._gate_send(var.port, var.value, time + cost, cell)
            if self.tick_budget is None or cell.tick_idx < self.tick_budget:
                self._push(time + self.period, cell, this, this)

        return tick

    def run_ticks(self, ticks):
        stats = super().run_ticks(ticks)
        # the reference loop, and no generated tick, ran every tick
        assert self.ref_ticks == sum(cell.tick_idx for cell in self.cells.values()) > 0
        return stats


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
    return m.read_assignment(), counts, stats, stats.zero_total_draws, m.trace


@settings(max_examples=max(100, settings().max_examples), deadline=None)
@given(case=gibbs_cases(), ticks=st.integers(1, 100), trace=st.booleans())
def test_tick_plan_matches_reference_loop(case, ticks, trace):
    text, caps, inject = case
    got = run(Machine, text, caps, inject, ticks, trace)
    want = run(ReferenceTickMachine, text, caps, inject, ticks, trace)
    assert got == want


@settings(max_examples=max(100, settings().max_examples), deadline=None)
@given(case=gibbs_cases(), ticks=st.integers(1, 100), budget=st.integers(0, 3000),
       until_quiescent=st.booleans())
def test_every_value_port_last_sent_its_variables_value(case, ticks, budget,
                                                        until_quiescent):
    # a tick sends a changed value without _gate_send, so after every step
    # each wired variable's port must hold its value: a value the tick
    # sends then always differs from the port's last packet
    text, caps, inject = case
    m = Machine(text, capacities=caps)
    if inject is not None:
        m.inject_evidence(inject[0], inject[1], at_time=inject[2])
    wired = [var for var in m.var_owner.values() if var.port is not None]
    step, steps = m.step, []

    def checked_step():
        steps.append(step())
        assert [var.port.last for var in wired] == [var.value for var in wired]
        return True

    m.step = checked_step
    if until_quiescent:
        m.run_until_quiescent(budget)
    else:
        m.run_ticks(ticks)
    # run_ticks runs every tick it is asked for
    assert steps or until_quiescent


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


# -- generated ticks ------------------------------------------------------------

def structure(cell):
    """What a cell's generated tick is made from: per variable in record
    order, its cardinality, its number of terms and its blanket's radix
    multipliers."""
    return tuple((var.card, len(var.terms), tuple(m for _obj, m in var.blanket))
                 for var in cell.vars)


def tick_handlers(m):
    """{cell: the tick handler queued for it} of a machine that has not run;
    a tick is queued as its own payload."""
    cells = {cell.cid: cell for cell in m.cells.values()}
    return {cells[cid]: handler for _time, cid, _seq, handler, payload in m._heap
            if handler is payload}


def test_cells_of_one_structure_share_one_generated_tick(monkeypatch):
    text = dumps(compile_graph(apps.build_ising_chain(8, 0.5, 0.2).graph, "GIBBS",
                               grid=(4, 4), seed=0, epochs=5)[0])
    sources = []
    define = machine._define

    def counted(lines):
        sources.append(lines)
        return define(lines)

    monkeypatch.setattr(machine, "_define", counted)
    machine._tick.cache_clear()
    first = tick_handlers(Machine(text))
    by_structure = {}
    for cell, tick in first.items():
        by_structure.setdefault(structure(cell), []).append(tick)
    # six cells of three structures, four of them of one
    assert sorted(map(len, by_structure.values())) == [1, 1, 4]
    assert len(sources) == len(by_structure)
    for ticks in by_structure.values():
        # one generated function, bound once per cell
        assert len({tick.__code__ for tick in ticks}) == 1
        assert len(set(ticks)) == len(ticks)
    assert len({ticks[0].__code__ for ticks in by_structure.values()}) == 3

    # a second machine of the same image generates no source
    second = Machine(text)
    assert len(sources) == len(by_structure)
    seconds = {cell.cid: tick for cell, tick in tick_handlers(second).items()}
    for cell, tick in first.items():
        assert seconds[cell.cid].__code__ is tick.__code__
        assert seconds[cell.cid] is not tick
    second.run_ticks(20)
    assert len(sources) == len(by_structure)


def mixed_image():
    """A GIBBS image whose three cells hold 1, 2 and 3 variables of
    cardinalities 2 to 4, with a three-variable relation, shadows read by
    two relations and table words of 0, so some conditionals have a zero."""
    pick = random.Random(31)

    def rel(fid, scope, size):
        words = [0 if pick.random() < 0.15 else pick.randrange(1, 65536)
                 for _ in range(size)]
        words[0] = 65535
        return ["REL %d %s" % (fid, " ".join(scope)), " ".join(map(str, words))]

    lines = ["FMIMG 10", "GRID 1 3", "MODE GIBBS", "SEED 5", "CELL 0 0", "VAR 0 2"]
    lines += rel(0, ["0", "1"], 6) + rel(4, ["0", "5"], 8)
    lines += ["CELL 0 1", "VAR 1 3", "VAR 2 4"]
    lines += rel(0, ["0", "1"], 6) + rel(1, ["1", "2"], 12) + rel(2, ["2", "3"], 8)
    lines += ["CELL 0 2", "VAR 3 2", "VAR 4 3", "VAR 5 4"]
    lines += (rel(2, ["2", "3"], 8) + rel(3, ["3", "4", "5"], 24)
              + rel(4, ["0", "5"], 8) + rel(5, ["4", "2"], 12))
    return "\n".join(lines) + "\n"


def test_cells_of_one_to_three_variables_match_the_reference_loop():
    text = mixed_image()
    m = Machine(text)
    assert [[var.card for var in cell.vars] for cell in m.cells.values()] == [
        [2], [3, 4], [2, 3, 4]]
    assert len({tick.__code__ for tick in tick_handlers(m).values()}) == 3
    for inject in (None, (4, 2, 900), (0, 1, 7800)):
        got = run(Machine, text, DEFAULT_CAPACITIES, inject, 300, True)
        want = run(ReferenceTickMachine, text, DEFAULT_CAPACITIES, inject, 300, True)
        assert got == want, inject
        assert sum(",SAMPLE," in row for row in got[-1]) == 300 * 6
        # some conditional had total weight zero
        assert got[3] > 0


def test_a_machine_whose_ticks_stopped_is_freed_without_the_collector():
    # a tick is queued as its own payload, so once run_ticks drains the
    # queue no reference cycle holds the machine
    text = mixed_image()
    gc.disable()
    try:
        m = Machine(text)
        m.run_ticks(20)
        freed = weakref.ref(m)
        del m
        assert freed() is None
    finally:
        gc.enable()
