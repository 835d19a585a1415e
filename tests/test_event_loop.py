"""The machine's run loops: tracing records rows and changes nothing else,
and every loop pops each queued event through the instance's `step`."""

import pytest

from factormesh import apps
from factormesh.image import dumps
from factormesh.machine import Machine
from factormesh.mapper import compile_graph


def image_text(bench, mode, grid, thresh=None):
    image, _ = compile_graph(bench.graph, mode, grid=grid, seed=0, thresh=thresh,
                             epochs=5)
    return dumps(image)


def sumprod_thresh0(trace):
    m = Machine(image_text(apps.build_ising_chain(8, 0.5, 0.1), "SUMPROD", (4, 4),
                           thresh=0), trace=trace)
    m.run_until_quiescent(50000)
    return m


def minsum_noisy(trace):
    bench = apps.build_sudoku()
    m = Machine(image_text(bench, "MINSUM", bench.grid), trace=trace, noise_lsbs=2)
    m.run_until_quiescent(600)
    return m


def gibbs_with_a_clamp(trace):
    m = Machine(image_text(apps.build_ising_chain(8, 0.5, 0.2), "GIBBS", (4, 4)),
                trace=trace)
    ticks = 300
    period = m.period
    # the clamp lands about halfway through the run
    m.inject_evidence(3, 1, at_time=ticks * period // 2)
    m.run_ticks(ticks)
    assert m.time > ticks * period // 2
    return m


RUNS = [sumprod_thresh0, minsum_noisy, gibbs_with_a_clamp]


def outcome(m):
    beliefs, assignment = m.read_beliefs()
    counts = {vid: list(var.counts) for vid, var in m.var_owner.items()}
    return (m.stats.text(), m.stats.zero_total_draws, beliefs, assignment, counts,
            m.time)


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__)
def test_tracing_changes_nothing_but_the_trace(run, monkeypatch):
    traced = run(True)
    assert traced.trace
    plain = run(False)
    assert outcome(plain) == outcome(traced)

    # an untraced run never asks for a trace row
    def refuse(*_args):
        raise AssertionError("untraced run called _trace")

    monkeypatch.setattr(Machine, "_trace", refuse)
    assert outcome(run(False)) == outcome(traced)


def counted(m):
    """Wrap the instance's step(): {"steps": steps that popped an event,
    "seq": m._seq at the call}.  Every queued event advances m._seq by one,
    whether `_push` or a GIBBS tick queued it, so m._seq - seq counts the
    events queued since."""
    counts = {"steps": 0, "seq": m._seq}
    step = m.step

    def counted_step():
        if step():
            counts["steps"] += 1
            return True
        return False

    m.step = counted_step
    return counts


def assert_one_step_per_event(m, run):
    # every event queued by _init_flush or during the run was popped by a
    # step() call, unless it is still in the heap
    queued = len(m._heap)
    counts = counted(m)
    run(m)
    assert counts["steps"] > 0
    assert counts["steps"] == queued + (m._seq - counts["seq"]) - len(m._heap)


def test_run_ticks_steps_once_per_event():
    m = Machine(image_text(apps.build_ising_chain(8, 0.5, 0.2), "GIBBS", (4, 4)))
    assert_one_step_per_event(m, lambda m: m.run_ticks(50))


@pytest.mark.parametrize("mode, budget", [("SUMPROD", 50000), ("GIBBS", 3000)])
def test_run_until_quiescent_steps_once_per_event(mode, budget):
    # the GIBBS run stops at its budget with ticks still queued
    m = Machine(image_text(apps.build_ising_chain(8, 0.5, 0.2), mode, (4, 4)))
    assert_one_step_per_event(m, lambda m: m.run_until_quiescent(budget))
    assert bool(m._heap) == (mode == "GIBBS")


def test_hamming_trajectory_steps_once_per_event():
    word = apps.hamming_encode((1, 0, 1, 1))
    m = Machine(image_text(apps.build_parity_code(word), "SUMPROD", (4, 4), thresh=256))
    assert_one_step_per_event(m, lambda m: list(apps.machine_hamming_trajectory(m)))
