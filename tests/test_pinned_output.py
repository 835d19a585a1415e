"""Pinned simulator output: sha256 digests of trace/stats/belief bytes, and
of the placements the compiler anneals.

Criterion 10 compares reruns within one version of the simulator.  These
digests were recorded from an earlier version, so a change that is meant
only to make the simulator faster fails here if it simulates a different
machine.  Each digest hashes the texts in order, each followed by a NUL byte.
"""

import hashlib

from test_acceptance import MULTI_CAPS, multi_cell_suite
from factormesh import apps
from factormesh.image import GIBBS, MINSUM, SUMPROD
from factormesh.machine import Machine
from factormesh.mapper import _default_epsilon, cluster, compile_graph, lower, place

BUNDLE_SHA = "1819d73a35cb15d872e7f2003396fa7537b4de0ee3451609ffa4fcd0c2210b42"
SUDOKU_SHA = "f5380ba21942db7984f94344adf60954d707d90d658c2ead9a9109dde29cd34f"
SUDOKU_NOISE_SHA = "1cb38492026df8a45426ecb5451d376911c4dee03277a520df9f552723df896c"
TREE_NOISE_SHA = "d0e80b7693ce411bc5d494b63099e3664b40d39f6df5d982b5efb02b2d955c38"
PLACEMENT_SHA = "e5b226f7e64bbc4b4c374a2456267fe3537cbe81cdba1556ad319f7849ff6567"
HAMMING_T0_SHA = "a537bd2ca1ed90c8e4dd19fde4008cd19830672413917eec6fb6cdff45fdc550"


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        for text in chunk:
            h.update(text.encode("ascii"))
            h.update(b"\0")
    return h.hexdigest()


def traced_run(image, max_cycles, **machine_kw):
    machine = Machine(image, trace=True, **machine_kw)
    stats, _ = machine.run_until_quiescent(max_cycles)
    beliefs, _ = machine.read_beliefs()
    return [(machine.trace_text(), stats.text(), apps.write_results(beliefs))]


def sudoku_image():
    bench = apps.build_sudoku()
    image, _ = compile_graph(bench.graph, MINSUM, grid=bench.grid, seed=0,
                             epochs=10)
    return image


def test_acceptance_bundle_digest(bundle):
    assert digest(bundle) == BUNDLE_SHA


def test_minsum_sudoku_digest():
    assert digest(traced_run(sudoku_image(), 50000)) == SUDOKU_SHA


def test_output_noise_digests():
    # noisy runs never quiesce, so a short cycle budget bounds them
    assert digest(traced_run(sudoku_image(), 1000, noise_lsbs=2)) == SUDOKU_NOISE_SHA
    _, _, image = next(multi_cell_suite())
    assert digest(traced_run(image, 1000, capacities=MULTI_CAPS,
                             noise_lsbs=2)) == TREE_NOISE_SHA


def test_hamming_thresh0_digest():
    # the benchmark's hamming-t0 path: every recomputation sends, and three
    # of the seven flip positions run out the cycle budget
    budget = 3000
    word = apps.hamming_codewords()[5]
    chunks = []
    exhausted = 0
    for pos in range(7):
        received = tuple(b ^ (i == pos) for i, b in enumerate(word))
        bench = apps.build_parity_code(received, flip_p=0.05)
        image, _ = compile_graph(bench.graph, SUMPROD, grid=bench.grid, seed=0,
                                 thresh=0)
        machine = Machine(image, trace=True)
        trajectory = "".join(
            "%s\n" % "".join(map(str, a))
            for a in apps.machine_hamming_trajectory(machine, budget=budget))
        exhausted += machine.time > budget
        chunks.append((machine.trace_text(), machine.stats.text(), trajectory))
    assert exhausted == 3
    assert digest(chunks) == HAMMING_T0_SHA


def test_placement_digest():
    # the default 50-epoch schedule at benchmark scale, where the Hypothesis
    # reference test in test_mapper.py does not reach
    ising = apps.build_ising_chain(8, 0.5, 0.2)
    cases = [(apps.build_sudoku().graph, MINSUM, (4, 4)),
             (apps.build_parity_code((1, 0, 1, 1, 0, 0, 1)).graph, SUMPROD, (4, 4)),
             (ising.graph, GIBBS, ising.grid),
             (ising.graph, GIBBS, (8, 8))]
    texts = []
    for graph, mode, grid in cases:
        lowered = lower(graph, epsilon=_default_epsilon(mode), mode=mode)
        clusters = cluster(lowered, mode=mode)
        for seed in range(5):
            p = place(clusters, lowered, grid, seed=seed, mode=mode)
            texts.append("%s %r %r %d %d" % (mode, grid, p.coords,
                                               p.cost_initial, p.cost_final))
    assert digest([texts]) == PLACEMENT_SHA
