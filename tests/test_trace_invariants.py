"""A trace agrees with the run's counters: its SEND rows are the run's
packets and their hop details sum to its hops, and once the queue has
drained, by quiescence or at the end of a tick-bounded run, every packet
has a DELIVER row."""

import pytest
from hypothesis import given, reject, settings, strategies as st

import gen
from factormesh import apps, cli
from factormesh.image import GIBBS, MINSUM, MODES
from factormesh.machine import Machine
from factormesh.mapper import MapperError, compile_graph


def trace_counts(machine):
    """(SEND rows, their summed hop details, DELIVER rows) of the trace."""
    sends = hops = delivers = 0
    for line in machine.trace_text().splitlines()[1:]:
        _cycle, _row, _col, event, _vid, detail = line.split(",")
        if event == "SEND":
            sends += 1
            hops += int(detail)
        delivers += event == "DELIVER"
    return sends, hops, delivers


@settings(max_examples=max(150, settings().max_examples), deadline=None)
@given(kind=st.sampled_from(("tree", "builtin")), graph_seed=st.integers(0, 10 ** 6),
       mode=st.sampled_from(MODES), thresh=st.sampled_from((None, 0)),
       seed=st.integers(0, 2 ** 16 - 1), budget=st.sampled_from((300, 5000)))
def test_trace_rows_agree_with_the_run_counters(kind, graph_seed, mode, thresh, seed, budget):
    graph = (gen.random_tree_graph(graph_seed) if kind == "tree"
             else gen.random_builtin_graph(graph_seed))
    try:
        image, _ = compile_graph(graph, mode, grid=(4, 4), seed=seed,
                                 thresh=None if mode == GIBBS else thresh, epochs=2)
    except MapperError:
        reject()            # a cluster or the grid does not fit
    machine = Machine(image, trace=True)
    if mode == GIBBS:
        stats, drained = machine.run_ticks(budget // 50), True
    else:
        stats, drained = machine.run_until_quiescent(budget)
    sends, hops, delivers = trace_counts(machine)
    assert (sends, hops) == (stats.packets, stats.hops)
    if drained:
        assert delivers == stats.packets


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: `stats` pairs SEND and DELIVER "
                   "rows first in, first out per variable, so it mixes a variable's ports")
def test_stats_link_traffic_sums_to_the_runs_hops(tmp_path, capsys):
    # sudoku at MINSUM on its 4x4 grid, placement seed 0, sums to 677
    # against hops=723
    image, _ = compile_graph(apps.build_sudoku().graph, MINSUM, grid=(4, 4), seed=0)
    machine = Machine(image, trace=True)
    stats, quiescent = machine.run_until_quiescent()
    assert quiescent
    path = tmp_path / "sudoku.trace"
    path.write_text(machine.trace_text())
    assert cli.main(["stats", str(path)]) == 0
    links = capsys.readouterr().out.split("link_traffic\n")[1].splitlines()
    assert sum(int(line.split()[1]) for line in links) == stats.hops
