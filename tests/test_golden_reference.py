"""One propagation loop, two semirings: golden sum_product and min_sum give
the bytes the two separate loops gave; and gibbs_sample, drawing from
conditionals memoized by Markov-blanket state, samples what the sampler
that rebuilt every conditional sampled.

`reference_sum_product` and `reference_min_sum` keep the kernels from before
they were folded into one loop parameterised by a semiring, verbatim apart
from their names.  Both sides run the same graphs and arguments, and every
belief and message byte, the iteration count, the convergence flag, the
assignment and any exception's type and text must agree.  The one wording
that moved is min_sum's all-(-inf) belief error, which now reads like every
other void message: `expected_error` maps the old text onto the new.
`reference_sum_product` also keeps its warm start (`init_messages`), which
golden no longer has: `sum_product_sweeps` must yield, after each
iteration, the state that many warm-started one-iteration calls reach, and
`bp_hamming_trajectory`, which now reads those states, the trajectory it
read from such calls.

`reference_gibbs_sample` keeps the sampler from before its conditionals were
memoized, verbatim apart from its name: it rebuilds every conditional and
scans it for the draw, which it takes one scalar `keyed_uniform01` at a
time where golden hashes blocks of `rng.DRAW_BLOCK` sweeps.  The marginal
bytes, the final assignment and any zero-total error must agree.
"""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gen
from factormesh import apps, rng
from factormesh.golden import (FLOODING, LINEAR, LOG, SEQUENTIAL, BeliefState,
                               GibbsResult, InferenceError, _evidence_indicator,
                               _factor_nd, _require_tables, gibbs_sample, min_sum,
                               sum_product, sum_product_sweeps)
from factormesh.graph import (EPS_SOFT, TABLE, FactorGraph, FactorNode,
                              VariableNode, expand_all, with_evidence)


class _Edges:
    """Edge bookkeeping shared by sum_product and min_sum."""

    def __init__(self, graph: FactorGraph):
        _require_tables(graph)
        self.graph = graph
        self.tables = [_factor_nd(graph, f) for f in graph.factors]
        # (factor id, position) -> variable id is graph.factors[f].scope[k]
        self.var_edges = [graph.factors_of(v.id) for v in graph.variables]

    def scope(self, fid):
        return self.graph.factors[fid].scope


def _norm_sum(vec: np.ndarray, what: str) -> np.ndarray:
    s = float(vec.sum())
    if s <= 0.0:
        raise InferenceError("all-zero message %s (hard-contradictory evidence)" % what)
    return vec / s


def reference_sum_product(graph, schedule=FLOODING, damping=0.0, max_iters=100,
                          tol=1e-6, init_messages=None):
    if schedule not in (FLOODING, SEQUENTIAL):
        raise InferenceError("unknown schedule %r" % schedule)
    if not (0.0 <= damping < 1.0):
        raise InferenceError("damping must be in [0, 1)")
    ed = _Edges(graph)
    ev = [_evidence_indicator(graph, v.id) for v in graph.variables]
    m_vf = {}
    m_fv = {}
    for f in graph.factors:
        for k, vid in enumerate(f.scope):
            c = graph.variables[vid].cardinality
            m_vf[(f.id, k)] = np.full(c, 1.0 / c)
            m_fv[(f.id, k)] = np.full(c, 1.0 / c)
    if init_messages:
        for (kind, fid, k), val in init_messages.items():
            tgt = m_vf if kind == "vf" else m_fv
            if (fid, k) not in tgt:
                raise InferenceError("warm-start message for unknown edge "
                                     "(%s, %d, %d)" % (kind, fid, k))
            tgt[(fid, k)] = np.asarray(val, dtype=np.float64)

    def update_vf(fid, k):
        vid = ed.scope(fid)[k]
        acc = ev[vid].copy()
        for gid, pos in ed.var_edges[vid]:
            if gid == fid and pos == k:
                continue
            acc = acc * m_fv[(gid, pos)]
        return _norm_sum(acc, "from variable %d to factor %d" % (vid, fid))

    def update_fv(fid, k):
        scope = ed.scope(fid)
        acc = ed.tables[fid]
        for j in range(len(scope)):
            if j == k:
                continue
            shape = [1] * len(scope)
            shape[j] = len(m_vf[(fid, j)])
            acc = acc * m_vf[(fid, j)].reshape(shape)
        axes = tuple(j for j in range(len(scope)) if j != k)
        raw = acc.sum(axis=axes) if axes else acc
        return _norm_sum(raw, "from factor %d to variable %d" % (fid, scope[k]))

    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        delta = 0.0
        if schedule == FLOODING:
            new_vf = {key: update_vf(*key) for key in m_vf}
            for key, val in new_vf.items():
                delta = max(delta, float(np.max(np.abs(val - m_vf[key]))))
                m_vf[key] = val
            for key in m_fv:
                raw = update_fv(*key)
                val = (1.0 - damping) * raw + damping * m_fv[key]
                delta = max(delta, float(np.max(np.abs(val - m_fv[key]))))
                m_fv[key] = val
        else:
            for f in graph.factors:
                for k in range(len(f.scope)):
                    val = update_vf(f.id, k)
                    delta = max(delta, float(np.max(np.abs(val - m_vf[(f.id, k)]))))
                    m_vf[(f.id, k)] = val
                for k in range(len(f.scope)):
                    raw = update_fv(f.id, k)
                    val = (1.0 - damping) * raw + damping * m_fv[(f.id, k)]
                    delta = max(delta, float(np.max(np.abs(val - m_fv[(f.id, k)]))))
                    m_fv[(f.id, k)] = val
        if delta < tol:
            converged = True
            break

    beliefs = []
    for v in graph.variables:
        acc = ev[v.id].copy()
        for gid, pos in ed.var_edges[v.id]:
            acc = acc * m_fv[(gid, pos)]
        beliefs.append(_norm_sum(acc, "belief of variable %d" % v.id))
    messages = {("vf",) + key: val for key, val in m_vf.items()}
    messages.update({("fv",) + key: val for key, val in m_fv.items()})
    return BeliefState(beliefs, LINEAR, converged, it, messages)


def _log_delta(val: np.ndarray, old: np.ndarray) -> float:
    """Message change in the log domain; matching -inf entries count as zero."""
    with np.errstate(invalid="ignore"):
        d = float(np.max(np.abs(val - old)))
    if math.isnan(d):
        return 0.0 if np.array_equal(val, old) else math.inf
    return d


def _log_blend(raw: np.ndarray, old: np.ndarray, damping: float) -> np.ndarray:
    # damping 0 must not touch raw: 0 * -inf would poison it with NaN
    if damping == 0.0:
        return raw
    return (1.0 - damping) * raw + damping * old


def reference_min_sum(graph, schedule=FLOODING, damping=0.0, max_iters=100, tol=1e-6):
    if schedule not in (FLOODING, SEQUENTIAL):
        raise InferenceError("unknown schedule %r" % schedule)
    if not (0.0 <= damping < 1.0):
        raise InferenceError("damping must be in [0, 1)")
    ed = _Edges(graph)
    with np.errstate(divide="ignore"):
        logt = [np.log(t) for t in ed.tables]
        ev = []
        for v in graph.variables:
            ev.append(np.log(_evidence_indicator(graph, v.id)))
    m_vf = {}
    m_fv = {}
    for f in graph.factors:
        for k, vid in enumerate(f.scope):
            c = graph.variables[vid].cardinality
            m_vf[(f.id, k)] = np.zeros(c)
            m_fv[(f.id, k)] = np.zeros(c)

    def anchor(vec, what):
        m = float(np.max(vec))
        if m == -math.inf:
            raise InferenceError("all-(-inf) message %s (hard-contradictory evidence)" % what)
        return vec - m

    def update_vf(fid, k):
        vid = ed.scope(fid)[k]
        acc = ev[vid].copy()
        for gid, pos in ed.var_edges[vid]:
            if gid == fid and pos == k:
                continue
            acc = acc + m_fv[(gid, pos)]
        return anchor(acc, "from variable %d to factor %d" % (vid, fid))

    def update_fv(fid, k):
        scope = ed.scope(fid)
        acc = logt[fid]
        for j in range(len(scope)):
            if j == k:
                continue
            shape = [1] * len(scope)
            shape[j] = len(m_vf[(fid, j)])
            acc = acc + m_vf[(fid, j)].reshape(shape)
        axes = tuple(j for j in range(len(scope)) if j != k)
        raw = acc.max(axis=axes) if axes else acc
        return anchor(raw, "from factor %d to variable %d" % (fid, scope[k]))

    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        delta = 0.0
        if schedule == FLOODING:
            new_vf = {key: update_vf(*key) for key in m_vf}
            for key, val in new_vf.items():
                delta = max(delta, _log_delta(val, m_vf[key]))
                m_vf[key] = val
            for key in m_fv:
                val = _log_blend(update_fv(*key), m_fv[key], damping)
                delta = max(delta, _log_delta(val, m_fv[key]))
                m_fv[key] = val
        else:
            for f in graph.factors:
                for k in range(len(f.scope)):
                    val = update_vf(f.id, k)
                    delta = max(delta, _log_delta(val, m_vf[(f.id, k)]))
                    m_vf[(f.id, k)] = val
                for k in range(len(f.scope)):
                    val = _log_blend(update_fv(f.id, k), m_fv[(f.id, k)], damping)
                    delta = max(delta, _log_delta(val, m_fv[(f.id, k)]))
                    m_fv[(f.id, k)] = val
        if delta < tol:
            converged = True
            break

    beliefs = []
    for v in graph.variables:
        acc = ev[v.id].copy()
        for gid, pos in ed.var_edges[v.id]:
            acc = acc + m_fv[(gid, pos)]
        m = float(np.max(acc))
        if m == -math.inf:
            raise InferenceError("all-(-inf) belief of variable %d" % v.id)
        beliefs.append(acc - m)
    messages = {("vf",) + key: val for key, val in m_vf.items()}
    messages.update({("fv",) + key: val for key, val in m_fv.items()})
    state = BeliefState(beliefs, LOG, converged, it, messages)
    state.assignment = state.argmax()
    return state


def reference_gibbs_sample(graph: FactorGraph, seed: int, burn_in: int = 1000,
                           sweeps: int = 10000) -> GibbsResult:
    """Systematic-scan Gibbs sampling (variables 0..N-1 per sweep).

    The draw for variable v in sweep s is the counter-based draw
    keyed_uniform01(stream_key(seed, v), s), keyed once per variable, so
    the sampler is deterministic given the seed and independent of
    everything but (seed, variable, sweep).  Tables must give every
    conditional a positive total (use soft expansions).
    """
    _require_tables(graph)
    if sweeps <= 0:
        raise InferenceError("sweeps must be positive")
    n = len(graph.variables)
    cards = [v.cardinality for v in graph.variables]
    state = [v.evidence if v.evidence is not None else 0 for v in graph.variables]
    free = [v.id for v in graph.variables if v.evidence is None]
    # flat tables plus mixed-radix strides, last scope position fastest;
    # the hot loop runs on plain Python floats (vectors are tiny)
    flats = []
    strides = []
    for f in graph.factors:
        flats.append([float(x) for x in f.table])
        st = []
        step = 1
        for c in reversed(graph.scope_cards(f)):
            st.append(step)
            step *= c
        strides.append(list(reversed(st)))
    # per variable: (flat, others = [(scope var, stride)], own stride, card)
    rows = {v: [] for v in free}
    for f in graph.factors:
        for k, vid in enumerate(f.scope):
            if vid in rows:
                others = [(f.scope[j], strides[f.id][j])
                          for j in range(len(f.scope)) if j != k]
                rows[vid].append((flats[f.id], others, strides[f.id][k], cards[vid]))
    plan = [(v, rows[v], rng.stream_key(seed, v)) for v in free]
    counts = [[0] * c for c in cards]
    uniform01 = rng.keyed_uniform01
    for s in range(burn_in + sweeps):
        for v, terms, key in plan:
            w = None
            for flat, others, step, card in terms:
                base = 0
                for ov, ostride in others:
                    base += state[ov] * ostride
                if w is None:
                    w = [flat[base + a * step] for a in range(card)]
                else:
                    for a in range(card):
                        w[a] *= flat[base + a * step]
            if w is None:
                w = [1.0] * cards[v]
            total = 0.0
            for x in w:
                total += x
            if total <= 0.0:
                raise InferenceError(
                    "zero-total Gibbs conditional for variable %d (use soft tables)" % v)
            threshold = uniform01(key, s) * total
            acc = 0.0
            val = len(w) - 1
            for a, x in enumerate(w):
                acc += x
                if acc > threshold:
                    val = a
                    break
            state[v] = val
        if s >= burn_in:
            for v in range(n):
                counts[v][state[v]] += 1
    marginals = [np.asarray(c, dtype=np.float64) / sweeps for c in counts]
    return GibbsResult(marginals, list(state), sweeps)


# -- comparison ----------------------------------------------------------------

def _bytes(vec):
    return vec.dtype.str, vec.shape, vec.tobytes()


def outcome(kernel, graph, **kwargs):
    """Everything a caller can observe of one call, with arrays as bytes;
    the state itself rides along for warm starts."""
    try:
        state = kernel(graph, **kwargs)
    except InferenceError as exc:
        return (type(exc), str(exc)), None
    seen = ([_bytes(b) for b in state.beliefs], state.domain, state.converged,
            state.iterations, state.assignment,
            {key: _bytes(val) for key, val in state.messages.items()})
    return seen, state


def expected_error(seen):
    """The reference outcome with min_sum's belief error in the shared
    wording of a void message."""
    if isinstance(seen, tuple) and len(seen) == 2 and seen[0] is InferenceError:
        m = re.fullmatch(r"all-\(-inf\) belief of variable (\d+)", seen[1])
        if m:
            return (InferenceError, "all-(-inf) message belief of variable %s "
                    "(hard-contradictory evidence)" % m.group(1))
    return seen


def assert_same_min_sum(graph, **kwargs):
    got, _ = outcome(min_sum, graph, **kwargs)
    want, _ = outcome(reference_min_sum, graph, **kwargs)
    assert got == expected_error(want)
    return got


def assert_same_sum_product(graph, **kwargs):
    got, _ = outcome(sum_product, graph, **kwargs)
    assert got == outcome(reference_sum_product, graph, **kwargs)[0]
    return got


def assert_sweeps_match_warm_started_reference(graph, max_iters=100, **kwargs):
    """Each state sum_product_sweeps yields is the reference's after as many
    calls of one iteration, each warm-started from the messages of the one
    before, as bp_hamming_trajectory used to run them: the same bytes but
    for the iteration count, which every call restarts at 1, the same
    error, and the generator stops where the calls converge."""
    sweeps = sum_product_sweeps(graph, max_iters=max_iters, **kwargs)
    got, start = outcome(lambda g: next(sweeps)(), graph)
    assert got == outcome(reference_sum_product, graph, max_iters=0, **kwargs)[0]
    if start is None:
        return
    ref = None
    for it in range(1, max_iters + 1):
        def step(g):
            state = next(sweeps)()
            assert state.iterations == it
            state.iterations = 1
            return state
        got, _ = outcome(step, graph)
        want, ref = outcome(reference_sum_product, graph, max_iters=1,
                            init_messages=ref and ref.messages, **kwargs)
        assert got == want
        if ref is None:
            return
        if ref.converged:
            break
    assert next(sweeps, None) is None


# -- Hypothesis over gen.py graphs ----------------------------------------------

@st.composite
def golden_cases(draw):
    """A gen.py tree (tables only) or builtin loopy graph expanded at ε = 0
    or EPS_SOFT, with evidence on some variables, and kernel arguments."""
    graph_seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        graph = gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10, card_hi=4)
    else:
        graph = expand_all(gen.random_builtin_graph(graph_seed),
                           draw(st.sampled_from((0.0, EPS_SOFT))))
    pick = random.Random(draw(st.integers(0, 10 ** 6)))
    evidence = {v.id: pick.randrange(v.cardinality) for v in graph.variables
                if pick.random() < 0.2}
    kwargs = dict(schedule=draw(st.sampled_from((FLOODING, SEQUENTIAL))),
                  damping=draw(st.sampled_from((0.0, 0.5))),
                  max_iters=draw(st.sampled_from((1, 7, 100))),
                  tol=draw(st.sampled_from((1e-6, 0.0))))
    return with_evidence(graph, evidence), kwargs


@settings(max_examples=120, deadline=None)
@given(case=golden_cases())
def test_fold_matches_reference_kernels(case):
    graph, kwargs = case
    assert_same_min_sum(graph, **kwargs)
    assert_same_sum_product(graph, **kwargs)
    assert_sweeps_match_warm_started_reference(graph, **kwargs)


# -- fixed cases ----------------------------------------------------------------

ARGUMENTS = [dict(schedule=s, damping=d, max_iters=n)
             for s in (FLOODING, SEQUENTIAL) for d in (0.0, 0.5) for n in (1, 7, 100)]


def test_fold_matches_reference_on_sudoku():
    bench = apps.build_sudoku()
    for epsilon in (0.0, EPS_SOFT):
        graph = expand_all(bench.graph, epsilon)
        for kwargs in ARGUMENTS:
            assert_same_min_sum(graph, **kwargs)
            assert_same_sum_product(graph, **kwargs)
    # the benchmark's call
    got = assert_same_min_sum(expand_all(bench.graph, EPS_SOFT))
    assert got[4] == list(apps.SUDOKU_FIXTURE_SOLUTION)


def test_fold_matches_reference_on_hamming_words():
    for i, word in enumerate(apps.hamming_codewords()[::3]):
        rx = list(word)
        rx[i % 7] ^= 1
        graph = expand_all(apps.build_parity_code(tuple(rx)).graph, EPS_SOFT)
        assert_sweeps_match_warm_started_reference(graph, max_iters=20)
        for kwargs in ARGUMENTS:
            assert_same_min_sum(graph, **kwargs)
            assert_same_sum_product(graph, **kwargs)


def warm_started_trajectory(graph, sweeps=20, epsilon=EPS_SOFT):
    """bp_hamming_trajectory as it was: one reference call of one iteration
    per sweep, each warm-started from the messages of the one before."""
    expanded = expand_all(graph, epsilon)
    messages = None
    for _ in range(sweeps):
        state = reference_sum_product(expanded, max_iters=1, init_messages=messages)
        messages = state.messages
        yield tuple(state.argmax()[:7])
        if state.converged:
            break


def test_hamming_trajectory_matches_warm_started_sweeps():
    # every single flip of every codeword: hamming-t0's cases for any seed
    for word in apps.hamming_codewords():
        for flip in range(7):
            rx = list(word)
            rx[flip] ^= 1
            graph = apps.build_parity_code(tuple(rx)).graph
            assert (list(apps.bp_hamming_trajectory(graph, sweeps=20))
                    == list(warm_started_trajectory(graph)))


def test_fold_matches_reference_on_contradiction():
    # the graph of test_sum_product_zero_message_raises
    g = FactorGraph([VariableNode(0, 2, 0), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), TABLE, (0.0, 0.0, 1.0, 1.0))])
    for kwargs in ARGUMENTS:
        got = assert_same_sum_product(g, **kwargs)
        assert got == (InferenceError, "all-zero message from factor 0 to variable 1 "
                       "(hard-contradictory evidence)")
        got = assert_same_min_sum(g, **kwargs)
        assert got == (InferenceError, "all-(-inf) message from factor 0 to variable 1 "
                       "(hard-contradictory evidence)")


def test_fold_matches_reference_on_disjoint_unaries():
    # every message is fine, but undamped the belief multiplies to all
    # zero (LINEAR) or all -inf (LOG)
    g = FactorGraph([VariableNode(0, 2)],
                    [FactorNode(0, (0,), TABLE, (1.0, 0.0)),
                     FactorNode(1, (0,), TABLE, (0.0, 1.0))])
    for kwargs in ARGUMENTS:
        linear = assert_same_sum_product(g, **kwargs)
        log = assert_same_min_sum(g, **kwargs)
        if kwargs["damping"] == 0.0:
            assert linear == (InferenceError, "all-zero message belief of variable 0 "
                              "(hard-contradictory evidence)")
            assert log == (InferenceError, "all-(-inf) message belief of variable 0 "
                           "(hard-contradictory evidence)")
    with pytest.raises(InferenceError, match=r"^all-\(-inf\) belief of variable 0$"):
        reference_min_sum(g)


def test_fold_matches_reference_on_bad_arguments():
    g = gen.random_tree_graph(3)
    for kwargs in (dict(schedule="RANDOM"), dict(damping=1.0), dict(damping=-0.5)):
        assert_same_min_sum(g, **kwargs)
        assert_same_sum_product(g, **kwargs)
        assert_sweeps_match_warm_started_reference(g, **kwargs)


def test_fold_matches_reference_on_a_moving_hard_zero_message():
    # under damping the factor-to-variable message into variable 1 keeps
    # its -inf entry while its finite entries approach their fixed point;
    # such a change counts as infinite until the message stops moving
    g = FactorGraph([VariableNode(0, 2), VariableNode(1, 3)],
                    [FactorNode(0, (0, 1), TABLE, (0.2, 0.9, 0.0, 0.7, 0.4, 0.0)),
                     FactorNode(1, (0,), TABLE, (0.6, 0.4))])
    for schedule in (FLOODING, SEQUENTIAL):
        got = assert_same_min_sum(g, schedule=schedule, damping=0.5)
        assert got[2:4] == (True, 60)


# -- Gibbs: the memo against the scan it replaced -------------------------------

def gibbs_outcome(sampler, graph, **kwargs):
    try:
        res = sampler(graph, **kwargs)
    except InferenceError as exc:
        return type(exc), str(exc)
    return [_bytes(m) for m in res.marginals], res.assignment, res.sweeps


def assert_same_gibbs(graph, **kwargs):
    """The reference outcome, which the memoized sampler must give."""
    want = gibbs_outcome(reference_gibbs_sample, graph, **kwargs)
    assert gibbs_outcome(gibbs_sample, graph, **kwargs) == want
    return want


@st.composite
def gibbs_graphs(draw):
    """A gen.py tree or builtin loopy graph expanded at ε = EPS_SOFT or 0,
    with evidence on some variables; at 0 a conditional can have no weight."""
    graph_seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        graph = gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10, card_hi=4)
    else:
        graph = gen.random_builtin_graph(graph_seed)
    graph = expand_all(graph, draw(st.sampled_from((EPS_SOFT, 0.0))))
    pick = random.Random(draw(st.integers(0, 10 ** 6)))
    evidence = {v.id: pick.randrange(v.cardinality) for v in graph.variables
                if pick.random() < 0.2}
    return with_evidence(graph, evidence)


@settings(max_examples=max(120, settings().max_examples), deadline=None)
@given(graph=gibbs_graphs(), seed=st.integers(0, 2 ** 32 - 1),
       burn_in=st.integers(0, 20), sweeps=st.integers(1, 60))
def test_gibbs_memo_matches_reference_sampler(graph, seed, burn_in, sweeps):
    assert_same_gibbs(graph, seed=seed, burn_in=burn_in, sweeps=sweeps)


def test_gibbs_memo_matches_reference_on_apps():
    ising = apps.build_ising_chain(8, 0.5, 0.2)
    # test_golden.py's pinned counts
    got = assert_same_gibbs(expand_all(ising.graph, 0.0), seed=1000, burn_in=100,
                            sweeps=5000)
    assert len(got) == 3
    coloring = apps.build_coloring(apps.FIVE_CYCLE_EDGES, 3)
    graph = with_evidence(coloring.graph, {0: 2, 3: 1})
    for epsilon in (EPS_SOFT, 0.0):
        got = assert_same_gibbs(expand_all(graph, epsilon), seed=7, burn_in=50,
                                sweeps=3000)
        assert len(got) == 3
    # the sampled sweeps 1000 .. 2048 cross two edges of the draw blocks
    assert 1000 < rng.DRAW_BLOCK < 2 * rng.DRAW_BLOCK < 1000 + 1049
    got = assert_same_gibbs(expand_all(graph, EPS_SOFT), seed=11, burn_in=1000,
                            sweeps=1049)
    assert len(got) == 3


def test_gibbs_memo_matches_reference_on_contradiction():
    g = FactorGraph([VariableNode(0, 2, 0), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), TABLE, (0.0, 0.0, 1.0, 1.0))])
    assert assert_same_gibbs(g, seed=1, burn_in=0, sweeps=5) == (
        InferenceError, "zero-total Gibbs conditional for variable 1 (use soft tables)")
    assert assert_same_gibbs(g, seed=1, sweeps=0) == (
        InferenceError, "sweeps must be positive")
