"""Reference kernels against hand computations and against each other."""

import hashlib
import math

import numpy as np
import pytest

import gen
from factormesh import apps
from factormesh.golden import (FLOODING, SEQUENTIAL, EnumerationBoundError,
                               InferenceError, exact_marginals, gibbs_sample,
                               map_bruteforce, min_sum, sum_product)
from factormesh.graph import (ALL_DIFFERENT, EPS_SOFT, TABLE, FactorGraph,
                              FactorNode, GraphError, VariableNode,
                              expand_all, with_evidence)


def two_var_graph(evidence=None):
    # joint weights w(a, b) = [[1, 2], [3, 4]]
    g = FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), TABLE, (1.0, 2.0, 3.0, 4.0))])
    return with_evidence(g, evidence) if evidence else g


def triangle_coloring(epsilon=EPS_SOFT):
    variables = [VariableNode(i, 3) for i in range(3)]
    factors = [FactorNode(i, e, ALL_DIFFERENT)
               for i, e in enumerate([(0, 1), (1, 2), (0, 2)])]
    return expand_all(FactorGraph(variables, factors), epsilon)


# -- enumeration -------------------------------------------------------------

def test_exact_marginals_by_hand():
    m = exact_marginals(two_var_graph())
    assert np.allclose(m[0], [3 / 10, 7 / 10])
    assert np.allclose(m[1], [4 / 10, 6 / 10])


def test_exact_single_unary():
    g = FactorGraph([VariableNode(0, 2)],
                    [FactorNode(0, (0,), TABLE, (0.3, 0.7))])
    assert np.allclose(exact_marginals(g)[0], [0.3, 0.7])


def test_exact_symmetric_pair():
    g = FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), TABLE, (1.0, 0.0, 0.0, 1.0))])
    m = exact_marginals(g)
    assert np.allclose(m[0], [0.5, 0.5])
    assert np.allclose(m[1], [0.5, 0.5])


def test_exact_applies_evidence():
    m = exact_marginals(two_var_graph({1: 0}))
    assert np.allclose(m[0], [1 / 4, 3 / 4])
    assert np.allclose(m[1], [1.0, 0.0])


def test_exact_rejects_contradiction_and_builtins():
    g = FactorGraph([VariableNode(0, 2, 0), VariableNode(1, 2, 1)],
                    [FactorNode(0, (0, 1), TABLE, (1.0, 0.0, 0.0, 1.0))])
    with pytest.raises(InferenceError):
        exact_marginals(g)
    g = FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), ALL_DIFFERENT)])
    with pytest.raises(GraphError):
        exact_marginals(g)


def test_enumeration_bound():
    g = FactorGraph([VariableNode(i, 2) for i in range(25)],
                    [FactorNode(0, (0,), TABLE, (1.0, 1.0))])
    with pytest.raises(EnumerationBoundError):
        exact_marginals(g)


def test_map_bruteforce_and_ties():
    assert map_bruteforce(two_var_graph()) == [1, 1]
    flat = FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                       [FactorNode(0, (0, 1), TABLE, (1.0, 1.0, 1.0, 1.0))])
    assert map_bruteforce(flat) == [0, 0]


def test_map_triangle_lexicographic():
    assert map_bruteforce(triangle_coloring()) == [0, 1, 2]


# -- sum-product -------------------------------------------------------------

def test_sum_product_exact_on_trees():
    for seed in range(12):
        g = gen.random_tree_graph(seed)
        exact = exact_marginals(g)
        state = sum_product(g, max_iters=gen.flooding_rounds(g), tol=0.0)
        for got, want in zip(state.beliefs, exact):
            assert float(np.max(np.abs(got - want))) < 1e-9


def test_sum_product_eight_var_ternary_tree():
    g = gen.random_tree_graph(4, n_lo=8, n_hi=8, card_hi=3)
    exact = exact_marginals(g)
    state = sum_product(g)
    assert state.converged
    for got, want in zip(state.beliefs, exact):
        assert float(np.max(np.abs(got - want))) < 1e-9


def test_sum_product_schedules_agree_on_trees():
    g = gen.random_tree_graph(7)
    a = sum_product(g, schedule=FLOODING)
    b = sum_product(g, schedule=SEQUENTIAL)
    for x, y in zip(a.beliefs, b.beliefs):
        assert np.allclose(x, y, atol=1e-9)


def test_sum_product_damping_same_fixed_point():
    g = gen.random_tree_graph(9)
    a = sum_product(g)
    b = sum_product(g, damping=0.5, max_iters=400)
    assert b.converged
    for x, y in zip(a.beliefs, b.beliefs):
        assert np.allclose(x, y, atol=1e-6)


def test_sum_product_respects_evidence():
    g = two_var_graph({0: 1})
    state = sum_product(g)
    assert np.allclose(state.beliefs[0], [0.0, 1.0])
    assert np.allclose(state.beliefs[1], [3 / 7, 4 / 7])


def test_sum_product_warm_start_continues_run():
    g = triangle_coloring()
    split = sum_product(g, max_iters=3, tol=0.0)
    split = sum_product(g, max_iters=4, tol=0.0, init_messages=split.messages)
    whole = sum_product(g, max_iters=7, tol=0.0)
    for x, y in zip(split.beliefs, whole.beliefs):
        assert np.allclose(x, y, atol=1e-12)


def test_sum_product_rejects_bad_arguments():
    g = two_var_graph()
    with pytest.raises(InferenceError):
        sum_product(g, schedule="RANDOM")
    with pytest.raises(InferenceError):
        sum_product(g, damping=1.0)
    with pytest.raises(InferenceError):
        sum_product(g, init_messages={("vf", 7, 0): np.ones(2)})


def test_sum_product_zero_message_raises():
    g = FactorGraph([VariableNode(0, 2, 0), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), TABLE, (0.0, 0.0, 1.0, 1.0))])
    with pytest.raises(InferenceError):
        sum_product(g)


# -- min-sum -----------------------------------------------------------------

def test_min_sum_matches_bruteforce_on_trees():
    for seed in range(10):
        g = gen.random_tree_graph(seed)
        state = min_sum(g)
        assert state.assignment == map_bruteforce(g)


def test_min_sum_handles_hard_zeros():
    g = FactorGraph(
        [VariableNode(0, 2), VariableNode(1, 2)],
        [FactorNode(0, (0, 1), TABLE, (0.0, 1.0, 1.0, 0.0)),
         FactorNode(1, (0,), TABLE, (0.9, 0.1))])
    state = min_sum(g)
    assert state.converged
    assert state.assignment == [0, 1]
    assert not any(np.isnan(b).any() for b in state.beliefs)


def test_min_sum_damping_with_hard_zeros():
    g = FactorGraph(
        [VariableNode(0, 2), VariableNode(1, 2)],
        [FactorNode(0, (0, 1), TABLE, (0.0, 1.0, 1.0, 0.0)),
         FactorNode(1, (0,), TABLE, (0.9, 0.1))])
    state = min_sum(g, damping=0.5, max_iters=200)
    assert state.assignment == [0, 1]


def test_min_sum_triangle_does_not_crash():
    # loopy symmetric case: only require a well-formed answer, not a
    # proper coloring
    state = min_sum(triangle_coloring())
    assert len(state.assignment) == 3
    assert all(0 <= v < 3 for v in state.assignment)


def test_min_sum_contradiction_raises():
    g = FactorGraph([VariableNode(0, 2, 0), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), TABLE, (0.0, 0.0, 1.0, 1.0))])
    with pytest.raises(InferenceError):
        min_sum(g)


# -- Gibbs -------------------------------------------------------------------

def test_gibbs_single_unary_concentration():
    g = FactorGraph([VariableNode(0, 2)],
                    [FactorNode(0, (0,), TABLE, (0.3, 0.7))])
    res = gibbs_sample(g, seed=0, burn_in=100, sweeps=100000)
    assert abs(res.marginals[0][0] - 0.3) < 0.01


def test_gibbs_matches_exact_on_small_graph():
    g = two_var_graph()
    res = gibbs_sample(g, seed=1, burn_in=500, sweeps=20000)
    exact = exact_marginals(g)
    for got, want in zip(res.marginals, exact):
        assert float(np.max(np.abs(got - want))) < 0.02


def test_gibbs_same_seed_identical():
    g = two_var_graph()
    a = gibbs_sample(g, seed=5, burn_in=10, sweeps=500)
    b = gibbs_sample(g, seed=5, burn_in=10, sweeps=500)
    assert a.assignment == b.assignment
    assert all(np.array_equal(x, y) for x, y in zip(a.marginals, b.marginals))
    c = gibbs_sample(g, seed=6, burn_in=10, sweeps=500)
    assert any(not np.array_equal(x, y)
               for x, y in zip(a.marginals, c.marginals))


def test_gibbs_respects_evidence():
    res = gibbs_sample(two_var_graph({0: 1}), seed=2, burn_in=10, sweeps=2000)
    assert np.allclose(res.marginals[0], [0.0, 1.0])
    assert res.assignment[0] == 1


def test_gibbs_zero_conditional_raises():
    g = FactorGraph([VariableNode(0, 2)],
                    [FactorNode(0, (0,), TABLE, (1.0, 0.0)),
                     FactorNode(1, (0,), TABLE, (0.0, 1.0))])
    with pytest.raises(InferenceError):
        gibbs_sample(g, seed=0, burn_in=0, sweeps=10)


def test_gibbs_rejects_bad_sweeps():
    with pytest.raises(InferenceError):
        gibbs_sample(two_var_graph(), seed=0, sweeps=0)


# sha256 of gibbs_counts_text(), recorded before the sampler keyed each
# variable's random stream once per run
ISING_GIBBS_SHA = "fd1a57b48e180e946ebdaceb9887c0393b99a3010da69f39e3962f93070b3312"
COLORING_GIBBS_SHA = "55a4c04cd2196e1826be4809b034418b1980d2f199b0d17ff0849d1be15d1eb0"


def gibbs_counts_text(res):
    """Per-variable sample counts, one line each, then the final state."""
    lines = [" ".join(str(int(round(x * res.sweeps))) for x in m)
             for m in res.marginals]
    lines.append(" ".join(map(str, res.assignment)))
    return "\n".join(lines) + "\n"


def test_gibbs_pinned_counts():
    ising = apps.build_ising_chain(8, 0.5, 0.2)
    res = gibbs_sample(expand_all(ising.graph, 0.0), seed=1000, burn_in=100,
                       sweeps=5000)
    text = gibbs_counts_text(res)
    assert hashlib.sha256(text.encode()).hexdigest() == ISING_GIBBS_SHA
    coloring = apps.build_coloring(apps.FIVE_CYCLE_EDGES, 3)
    graph = expand_all(with_evidence(coloring.graph, {0: 2, 3: 1}), EPS_SOFT)
    res = gibbs_sample(graph, seed=7, burn_in=50, sweeps=3000)
    text = gibbs_counts_text(res)
    assert text.splitlines()[0] == "0 0 3000"
    assert hashlib.sha256(text.encode()).hexdigest() == COLORING_GIBBS_SHA
