"""End-to-end acceptance gate: one test per shipped guarantee.

Every test prints a single CRITERION nn PASS/FAIL line with the measured
numbers next to their limits, so a -v run reads as a checklist.  Seeds,
tolerances and budgets are frozen here; the oracles live in apps/ and
golden/ and are derived independently of the implementations under test.
"""

import itertools
import time

import gen
from factormesh import apps, golden
from factormesh.graph import (TABLE, FactorGraph, FactorNode, VariableNode,
                              checked, expand_all)
from factormesh.image import GIBBS, MINSUM, SUMPROD, Capacities
from factormesh.machine import Machine
from factormesh.mapper import Placement, cluster, compile_graph, cost, lower, place

TREE_SEEDS = range(100)
MULTI_CAPS = Capacities(var_slots=2)
COLORING_FIXTURES = (
    ("triangle", ((0, 1), (1, 2), (0, 2))),
    ("cycle5", ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))),
)


def report(num, ok, detail):
    print("CRITERION %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def linf(beliefs, reference):
    worst = 0.0
    for vid in range(len(reference)):
        ref = reference[vid]
        for a in range(len(ref)):
            worst = max(worst, abs(beliefs[vid][a] - float(ref[a])))
    return worst


def hamming_cases():
    for word in apps.hamming_codewords():
        for pos in range(7):
            received = tuple(b ^ (1 if i == pos else 0)
                             for i, b in enumerate(word))
            yield word, pos, received


_MACHINE_DECODES = {}


def machine_hamming(thresh):
    """Run every single-flip case on the mesh; memoized per threshold."""
    if thresh not in _MACHINE_DECODES:
        rows = []
        for word, pos, received in hamming_cases():
            bench = apps.build_parity_code(received, flip_p=0.05)
            image, _ = compile_graph(bench.graph, SUMPROD, grid=bench.grid,
                                     seed=1, thresh=thresh, epochs=10)
            machine = Machine(image)
            decoded = apps.decode_by_candidates(
                apps.machine_hamming_trajectory(machine, budget=3000), received)
            rows.append((decoded == word,
                         machine.stats.packets, machine.stats.flush_packets))
        _MACHINE_DECODES[thresh] = rows
    return _MACHINE_DECODES[thresh]


def multi_cell_suite():
    """Tree graphs whose reduced-capacity mapping spreads over >= 4 cells."""
    for seed in TREE_SEEDS:
        graph = gen.random_tree_graph(seed)
        if len(graph.variables) < 7:
            continue
        image, rep = compile_graph(graph, SUMPROD, grid=(4, 4), seed=0,
                                   thresh=1, capacities=MULTI_CAPS, epochs=5)
        if rep["clusters"] >= 4:
            yield seed, graph, image


# -- criterion tests -----------------------------------------------------------

def test_criterion_01_golden_tree_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in TREE_SEEDS:
        graph = gen.random_tree_graph(seed)
        state = golden.sum_product(graph, max_iters=gen.flooding_rounds(graph),
                                   tol=0.0)
        worst = max(worst, linf(state.beliefs, golden.exact_marginals(graph)))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-9 and elapsed < 5.0,
           "flooding matches enumeration on 100 trees, L-inf %.2e "
           "(limit 1e-9), %.2fs (limit 5s)" % (worst, elapsed))


def test_criterion_02_machine_single_cell_fidelity():
    t0 = time.monotonic()
    tested = 0
    worst = 0.0
    for seed in TREE_SEEDS:
        graph = gen.random_tree_graph(seed)
        image, rep = compile_graph(graph, SUMPROD, grid=(4, 4), seed=0,
                                   thresh=1, epochs=5)
        if rep["clusters"] != 1:
            continue
        tested += 1
        machine = Machine(image)
        _, quiescent = machine.run_until_quiescent(50000)
        assert quiescent, "seed %d did not quiesce" % seed
        beliefs, _ = machine.read_beliefs()
        state = golden.sum_product(graph, max_iters=gen.flooding_rounds(graph),
                                   tol=0.0)
        worst = max(worst, linf(beliefs, state.beliefs))
    elapsed = time.monotonic() - t0
    report(2, tested >= 10 and worst <= 2.0 ** -7 and elapsed < 10.0,
           "%d one-cell graphs quiescent, L-inf %.2e (limit 2^-7 = %.2e), "
           "%.2fs (limit 10s)" % (tested, worst, 2.0 ** -7, elapsed))


def test_criterion_03_machine_multi_cell_fidelity():
    tested = 0
    worst = 0.0
    slowest = 0
    for seed, graph, image in multi_cell_suite():
        tested += 1
        machine = Machine(image, capacities=MULTI_CAPS)
        stats, quiescent = machine.run_until_quiescent(50000)
        assert quiescent, "seed %d did not quiesce in 50000 cycles" % seed
        slowest = max(slowest, stats.cycles)
        beliefs, _ = machine.read_beliefs()
        state = golden.sum_product(graph, max_iters=gen.flooding_rounds(graph),
                                   tol=0.0)
        worst = max(worst, linf(beliefs, state.beliefs))
    report(3, tested >= 20 and worst <= 2.0 ** -6,
           "%d graphs on >= 4 cells quiescent by cycle %d (limit 50000), "
           "L-inf %.2e (limit 2^-6 = %.2e)" % (tested, slowest, worst, 2.0 ** -6))


def test_criterion_04_hamming_single_error_decoding():
    t0 = time.monotonic()
    oracle_ok = 0
    golden_ok = 0
    for word, pos, received in hamming_cases():
        assert apps.syndrome_decode(received) == word
        oracle_ok += 1
        bench = apps.build_parity_code(received, flip_p=0.05)
        decoded = apps.decode_by_candidates(
            apps.bp_hamming_trajectory(bench.graph, sweeps=20), received)
        golden_ok += decoded == word
    machine_ok = sum(ok for ok, _, _ in machine_hamming(256))
    elapsed = time.monotonic() - t0
    report(4, oracle_ok == golden_ok == machine_ok == 112 and elapsed < 30.0,
           "golden %d/112, machine %d/112, syndrome oracle %d/112, "
           "%.1fs (limit 30s)" % (golden_ok, machine_ok, oracle_ok, elapsed))


def test_criterion_05_sudoku_machine_minsum():
    bench = apps.build_sudoku()
    # re-derive uniqueness instead of trusting the benchmark constant
    assert len(apps.sudoku_solutions(apps.SUDOKU_FIXTURE_GIVENS, limit=2)) == 1
    image, _ = compile_graph(bench.graph, MINSUM, grid=bench.grid, seed=0,
                             epochs=10)
    machine = Machine(image)
    stats, quiescent = machine.run_until_quiescent(50000)
    _, assignment = machine.read_beliefs()
    solved = sum(assignment[v] == bench.oracle[v] for v in range(16))
    report(5, quiescent and solved == 16,
           "quiescent at cycle %d, argmax matches backtracking on %d/16 cells"
           % (stats.cycles, solved))


def test_criterion_06_coloring_machine_gibbs():
    details = []
    ok = True
    for name, edges in COLORING_FIXTURES:
        bench = apps.build_coloring(list(edges), 3)
        hits = 0
        for seed in range(10):
            image, _ = compile_graph(bench.graph, GIBBS, grid=(2, 2),
                                     seed=seed, epochs=5)
            machine = Machine(image)
            for budget in range(250, 10001, 250):
                machine.run_until_quiescent(budget)
                if apps.is_proper_coloring(edges, machine.read_assignment()):
                    hits += 1
                    break
        details.append("%s %d/10" % (name, hits))
        ok = ok and hits >= 9
    report(6, ok, "proper coloring within 10000 cycles: %s (limit >= 9/10)"
           % ", ".join(details))


def test_criterion_07_gibbs_statistical_accuracy():
    t0 = time.monotonic()
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    oracle = apps.ising_chain_marginals(8, 0.5, 0.2)
    result = golden.gibbs_sample(expand_all(bench.graph, 0.0), seed=3,
                                 burn_in=1000, sweeps=100000)
    golden_err = linf(result.marginals, oracle)
    image, _ = compile_graph(bench.graph, GIBBS, grid=bench.grid, seed=3,
                             epochs=10)
    machine = Machine(image)
    machine.run_ticks(100000)
    beliefs, _ = machine.read_beliefs()
    machine_err = linf(beliefs, oracle)
    elapsed = time.monotonic() - t0
    report(7, golden_err <= 0.03 and machine_err <= 0.05 and elapsed < 60.0,
           "vs transfer matrix at 1e5 sweeps: golden L-inf %.4f (limit 0.03), "
           "machine L-inf %.4f (limit 0.05), %.1fs (limit 60s)"
           % (golden_err, machine_err, elapsed))


def test_criterion_08_change_gating_economy():
    gated = machine_hamming(256)
    ungated = machine_hamming(0)
    monotone = sum(g[1] <= u[1] for g, u in zip(gated, ungated))
    decoded_gated = sum(ok for ok, _, _ in gated)
    decoded_ungated = sum(ok for ok, _, _ in ungated)
    flush_only = 0
    for word, pos, received in hamming_cases():
        bench = apps.build_parity_code(received, flip_p=0.05)
        image, _ = compile_graph(bench.graph, SUMPROD, grid=bench.grid,
                                 seed=1, thresh=65535, epochs=10)
        machine = Machine(image)
        machine.run_until_quiescent(3000)
        flush_only += machine.stats.packets == machine.stats.flush_packets
    report(8, monotone == flush_only == 112
           and decoded_gated == decoded_ungated == 112,
           "packets(256) <= packets(0) on %d/112 cases, decode %d/112 gated "
           "and %d/112 ungated, full-scale flush-only on %d/112"
           % (monotone, decoded_gated, decoded_ungated, flush_only))


# -- placement fixtures (small enough for exhaustive search) --------------------

def chain_graph(n, seed=0):
    import random
    rng = random.Random(seed)
    variables = [VariableNode(i, 2) for i in range(n)]
    factors = [FactorNode(i, (i, i + 1), TABLE,
                          tuple(rng.uniform(0.1, 1.0) for _ in range(4)))
               for i in range(n - 1)]
    return checked(FactorGraph(variables, factors))


def ring_graph(n, seed=0):
    import random
    rng = random.Random(seed)
    variables = [VariableNode(i, 2) for i in range(n)]
    factors = [FactorNode(i, tuple(sorted((i, (i + 1) % n))), TABLE,
                          tuple(rng.uniform(0.1, 1.0) for _ in range(4)))
               for i in range(n)]
    return checked(FactorGraph(variables, factors))


def star_graph(leaves=4, seed=0):
    import random
    rng = random.Random(seed)
    variables = [VariableNode(i, 2) for i in range(leaves + 1)]
    factors = [FactorNode(i, (0, i + 1), TABLE,
                          tuple(rng.uniform(0.1, 1.0) for _ in range(4)))
               for i in range(leaves)]
    for i in range(leaves + 1):
        factors.append(FactorNode(leaves + i, (i,), TABLE,
                                  tuple(rng.uniform(0.1, 1.0) for _ in range(2))))
    return checked(FactorGraph(variables, factors))


def test_criterion_09_placement_reaches_optimum():
    tight = Capacities(var_slots=1, rel_slots=2)
    fixtures = (("chain4", chain_graph(4), (2, 2)),
                ("ring6", ring_graph(6), (2, 3)),
                ("chain8", chain_graph(8), (2, 4)),
                ("star5", star_graph(4), (2, 3)))
    details = []
    ok = True
    for name, graph, grid in fixtures:
        lowered = lower(graph, epsilon=0.0, capacities=tight)
        clusters = cluster(lowered, capacities=tight)
        rows, cols = grid
        optimum = min(
            cost(Placement(grid, [(p // cols, p % cols) for p in perm], 0, 0),
                 clusters, lowered)
            for perm in itertools.permutations(range(rows * cols), len(clusters)))
        finals = []
        for seed in range(5):
            placed = place(clusters, lowered, grid, seed=seed)
            ok = ok and placed.cost_final <= placed.cost_initial
            finals.append(placed.cost_final)
        ok = ok and all(f == optimum for f in finals)
        details.append("%s %d clusters optimum %d annealed %s"
                       % (name, len(clusters), optimum, sorted(set(finals))))
    # larger instances: never worse than the row-major start
    for bench, mode in ((apps.build_sudoku(), MINSUM),
                        (apps.build_ising_chain(8, 0.5, 0.2), GIBBS)):
        _, rep = compile_graph(bench.graph, mode, grid=bench.grid, seed=0)
        ok = ok and rep["cost_final"] <= rep["cost_initial"]
        details.append("%s cost %d <= initial %d"
                       % (bench.name, rep["cost_final"], rep["cost_initial"]))
    report(9, ok, "; ".join(details))


def artifact_bundle():
    """Trace/stats/belief file bytes for reruns of criteria 3, 4, 6 and 7."""
    chunks = []
    for seed, graph, image in itertools.islice(multi_cell_suite(), 3):
        machine = Machine(image, capacities=MULTI_CAPS, trace=True)
        stats, _ = machine.run_until_quiescent(50000)
        beliefs, _ = machine.read_beliefs()
        chunks.append((machine.trace_text(), stats.text(),
                       apps.write_results(beliefs)))
    words = apps.hamming_codewords()
    for word_idx, pos in ((5, 2), (11, 6)):
        word = words[word_idx]
        received = tuple(b ^ (1 if i == pos else 0) for i, b in enumerate(word))
        bench = apps.build_parity_code(received, flip_p=0.05)
        image, _ = compile_graph(bench.graph, SUMPROD, grid=bench.grid,
                                 seed=1, thresh=256, epochs=10)
        machine = Machine(image, trace=True)
        for _ in apps.machine_hamming_trajectory(machine, budget=3000):
            pass
        beliefs, _ = machine.read_beliefs()
        chunks.append((machine.trace_text(), machine.stats.text(),
                       apps.write_results(beliefs)))
    for name, edges in COLORING_FIXTURES:
        bench = apps.build_coloring(list(edges), 3)
        image, _ = compile_graph(bench.graph, GIBBS, grid=(2, 2), seed=0,
                                 epochs=5)
        machine = Machine(image, trace=True)
        stats, _ = machine.run_until_quiescent(10000)
        beliefs, _ = machine.read_beliefs()
        chunks.append((machine.trace_text(), stats.text(),
                       apps.write_results(beliefs)))
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    image, _ = compile_graph(bench.graph, GIBBS, grid=bench.grid, seed=3,
                             epochs=10)
    machine = Machine(image)                 # full run: stats and beliefs
    stats = machine.run_ticks(100000)
    beliefs, _ = machine.read_beliefs()
    chunks.append(("", stats.text(), apps.write_results(beliefs)))
    machine = Machine(image, trace=True)     # short run: trace bytes
    stats = machine.run_ticks(1500)
    beliefs, _ = machine.read_beliefs()
    chunks.append((machine.trace_text(), stats.text(),
                   apps.write_results(beliefs)))
    return chunks


def test_criterion_10_byte_identical_reruns(tmp_path, bundle):
    first = bundle
    second = artifact_bundle()
    assert len(first) == len(second) == 9
    identical = 0
    for idx, (a, b) in enumerate(zip(first, second)):
        for kind, text_a, text_b in zip(("trace", "stats", "beliefs"), a, b):
            path_a = tmp_path / ("run1_%02d_%s.txt" % (idx, kind))
            path_b = tmp_path / ("run2_%02d_%s.txt" % (idx, kind))
            path_a.write_bytes(text_a.encode("ascii"))
            path_b.write_bytes(text_b.encode("ascii"))
            identical += path_a.read_bytes() == path_b.read_bytes()
    report(10, identical == 27,
           "%d/27 rerun artifact files byte-identical across criteria 3, 4, "
           "6, 7 runs" % identical)


def test_criterion_11_lowering_preserves_marginals():
    worst = 0.0
    for seed in range(20):
        graph = gen.random_builtin_graph(seed)
        before = golden.exact_marginals(expand_all(graph, 0.0))
        after = golden.exact_marginals(lower(graph, epsilon=0.0))
        for vid in range(len(graph.variables)):
            worst = max(worst, float(max(abs(before[vid] - after[vid]))))
    report(11, worst <= 1e-9,
           "20 builtin graphs, original-variable marginals drift L-inf %.2e "
           "after lowering (limit 1e-9)" % worst)
