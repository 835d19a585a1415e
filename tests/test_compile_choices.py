"""On a tree at thresh 0 the quantized fixed point is unique, so the answer
must not depend on how the graph was compiled: the grid, the placement
seed and the cluster size may change cycles and traffic, never a belief
byte (ROADMAP item 16).

Each case compiles one `gen.random_tree_graph` tree on 3x3 and 4x4 grids,
with placement seeds 0-2 and `Capacities(var_slots=1, 2, 4)` wherever it
fits, runs every image to quiescence and collects the `write_results` text
of its beliefs.  The known cases give 2-3 distinct texts, because a port's
packets can arrive out of the order they were computed (ROADMAP item 12);
they are strict expected failures so that item 12's fix turns them into
regressions.
"""

import pytest

import gen
from factormesh import apps
from factormesh.image import Capacities
from factormesh.machine import Machine
from factormesh.mapper import MapperError, compile_graph

ITEM_12 = ("ROADMAP item 12: a variable's edge port can send an older message "
           "after a newer one, so a run quiesces with a stale register")

# (mode, tree seed)
KNOWN_FAILURES = [("SUMPROD", 11), ("SUMPROD", 12), ("SUMPROD", 19), ("SUMPROD", 41),
                  ("MINSUM", 12), ("MINSUM", 19), ("MINSUM", 20), ("MINSUM", 25),
                  ("MINSUM", 34)]
AGREEING = [("SUMPROD", 5), ("SUMPROD", 27), ("MINSUM", 37)]


def answers(mode, tree):
    """The distinct `write_results` texts of one tree across compile choices,
    and the number of images that fit."""
    graph = gen.random_tree_graph(tree)
    texts, images = set(), 0
    for grid in ((3, 3), (4, 4)):
        for seed in range(3):
            for var_slots in (1, 2, 4):
                try:
                    image, _ = compile_graph(graph, mode, grid=grid, seed=seed, thresh=0,
                                             capacities=Capacities(var_slots=var_slots))
                except MapperError:
                    continue
                m = Machine(image)
                assert m.run_until_quiescent()[1]
                texts.add(apps.write_results(m.read_beliefs()[0]))
                images += 1
    return texts, images


@pytest.mark.parametrize(
    "mode,tree", AGREEING + [pytest.param(*case, marks=pytest.mark.xfail(strict=True,
                                                                         reason=ITEM_12))
                             for case in KNOWN_FAILURES])
def test_a_trees_answer_does_not_depend_on_how_it_was_compiled(mode, tree):
    texts, images = answers(mode, tree)
    assert images > 1
    assert len(texts) == 1
