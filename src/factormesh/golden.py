"""Reference inference kernels, float64, used as oracles for the machine.

All kernels work on validated FactorGraphs whose factors are TABLE factors
(expand builtins first; see graph.expand_all).  Hard evidence on a variable
is applied as an indicator: assignments disagreeing with it get weight zero.

Kernels:

    exact_marginals   full-joint enumeration (state space capped at 2**24)
    map_bruteforce    full-joint argmax, lexicographically smallest on ties
    sum_product       loopy belief propagation, LINEAR messages (sum to 1);
                      sum_product_sweeps yields its state after each iteration
    min_sum           max-product in the log domain, messages anchored max=0
    gibbs_sample      systematic-scan Gibbs with counter-based randomness

sum_product and min_sum are one propagation loop run over two semirings:
(multiply, sum, divide by the total) on weights and (add, max, subtract the
maximum) on their logs.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from . import rng
from .graph import FactorGraph, GraphError, TABLE

LINEAR = "LINEAR"
LOG = "LOG"
FLOODING = "FLOODING"
SEQUENTIAL = "SEQUENTIAL"

ENUM_BOUND = 1 << 24


class InferenceError(RuntimeError):
    pass


class EnumerationBoundError(InferenceError):
    """State space too large for brute-force enumeration."""


def _require_tables(graph: FactorGraph):
    for f in graph.factors:
        if f.kind != TABLE:
            raise GraphError("factor %d: expand builtin %s before inference" % (f.id, f.kind))


def _factor_nd(graph: FactorGraph, f) -> np.ndarray:
    return np.asarray(f.table, dtype=np.float64).reshape(graph.scope_cards(f))


def _evidence_indicator(graph: FactorGraph, v) -> np.ndarray:
    var = graph.variables[v]
    if var.evidence is None:
        return np.ones(var.cardinality)
    e = np.zeros(var.cardinality)
    e[var.evidence] = 1.0
    return e


def _joint(graph: FactorGraph) -> np.ndarray:
    """Dense joint weight array over all variables, evidence rows zeroed."""
    _require_tables(graph)
    cards = [v.cardinality for v in graph.variables]
    size = math.prod(cards)
    if size > ENUM_BOUND:
        raise EnumerationBoundError(
            "state space %d exceeds enumeration bound %d" % (size, ENUM_BOUND))
    n = len(cards)
    joint = np.ones(cards)
    for f in graph.factors:
        shape = [1] * n
        for vid in f.scope:
            shape[vid] = cards[vid]
        # move each scope axis of the table to its global variable position
        tbl = _factor_nd(graph, f)
        order = np.argsort(f.scope)
        tbl = np.transpose(tbl, order)
        joint *= tbl.reshape(shape)
    for v in graph.variables:
        if v.evidence is not None:
            shape = [1] * n
            shape[v.id] = cards[v.id]
            joint *= _evidence_indicator(graph, v.id).reshape(shape)
    return joint


def exact_marginals(graph: FactorGraph) -> list:
    """Per-variable marginals by brute-force enumeration of the joint."""
    joint = _joint(graph)
    z = float(joint.sum())
    if z <= 0.0:
        raise InferenceError("partition sum is zero (contradictory evidence or tables)")
    out = []
    for v in graph.variables:
        axes = tuple(i for i in range(len(graph.variables)) if i != v.id)
        m = joint.sum(axis=axes) if axes else joint
        out.append(np.asarray(m, dtype=np.float64) / z)
    return out


def map_bruteforce(graph: FactorGraph) -> list:
    """Highest-weight full assignment; ties break to the lexicographically
    smallest assignment (first maximum in row-major order)."""
    joint = _joint(graph)
    flat = int(np.argmax(joint))
    if joint.flat[flat] <= 0.0:
        raise InferenceError("no assignment has positive weight")
    return [int(x) for x in np.unravel_index(flat, joint.shape)]


# ---------------------------------------------------------------------------
# message passing
# ---------------------------------------------------------------------------

@dataclass
class BeliefState:
    beliefs: list                 # per-variable numpy vectors
    domain: str                   # LINEAR or LOG
    converged: bool
    iterations: int
    messages: dict = field(default_factory=dict, repr=False)
    assignment: Optional[list] = None

    def argmax(self) -> list:
        """Per-variable argmax, ties to the lowest value."""
        return [int(np.argmax(b)) for b in self.beliefs]


@dataclass(frozen=True)
class _Semiring:
    """What the propagation loop needs of a semiring (Aji and McEliece's
    generalized distributive law): the same loop is sum-product over
    (multiply, sum) on weights and max-product over (add, max) on their
    logs."""
    domain: str         # LINEAR or LOG
    lift: Callable      # table or indicator weights -> scores
    combine: Callable   # ufunc joining two scores
    reduce: Callable    # ufunc marginalizing scores over an axis
    rescale: Callable   # ufunc taking a vector's total back out of it
    zero: float         # score of weight 0: a total at or below it is void
    zero_name: str


_SUM_PRODUCT = _Semiring(LINEAR, np.asarray, np.multiply, np.add, np.true_divide,
                         0.0, "all-zero")
_MAX_PRODUCT = _Semiring(LOG, np.log, np.add, np.maximum, np.subtract,
                         -math.inf, "all-(-inf)")


def _normalize(sr: _Semiring, vec: np.ndarray, what: str) -> np.ndarray:
    total = float(sr.reduce.reduce(vec, axis=None))
    if total <= sr.zero:
        raise InferenceError("%s message %s (hard-contradictory evidence)"
                             % (sr.zero_name, what))
    return sr.rescale(vec, total)


def _change(val: np.ndarray, old: np.ndarray) -> float:
    """L-inf message change.  A NaN, from -inf entries in both vectors,
    reads as no change if the vectors are equal and as infinite otherwise."""
    d = float(np.maximum.reduce(np.abs(val - old)))
    if math.isnan(d):
        return 0.0 if np.array_equal(val, old) else math.inf
    return d


def _propagate(sr: _Semiring, graph: FactorGraph, schedule: str, damping: float,
               max_iters: int, tol: float):
    """Loopy belief propagation over semiring sr, one iteration at a time.

    A FLOODING iteration updates every variable-to-factor message, then
    every factor-to-variable one; a SEQUENTIAL iteration does the same
    factor by factor.  Yields a function returning the BeliefState at the
    start and after each iteration, up to max_iters and ending with the
    first that converges.  It reads the live messages, so call it before
    advancing."""
    if schedule not in (FLOODING, SEQUENTIAL):
        raise InferenceError("unknown schedule %r" % schedule)
    if not (0.0 <= damping < 1.0):
        raise InferenceError("damping must be in [0, 1)")
    if max_iters < 0:
        raise InferenceError("max_iters must be >= 0, got %d" % max_iters)
    _require_tables(graph)
    combine = sr.combine
    with np.errstate(divide="ignore"):
        tables = [sr.lift(_factor_nd(graph, f)) for f in graph.factors]
        ev = [sr.lift(_evidence_indicator(graph, v.id)) for v in graph.variables]
    var_edges = [graph.factors_of(v.id) for v in graph.variables]
    # messages are replaced, never written in place, so edges of one
    # cardinality can share their start message
    start = {}
    m_vf = {}
    for f in graph.factors:
        for k, vid in enumerate(f.scope):
            c = graph.variables[vid].cardinality
            if c not in start:
                start[c] = _normalize(sr, sr.lift(np.ones(c)), "")
            m_vf[(f.id, k)] = start[c]
    m_fv = dict(m_vf)

    def gather(vid, skip=None):
        acc = ev[vid]
        for edge in var_edges[vid]:
            if edge != skip:
                acc = combine(acc, m_fv[edge])
        return acc

    def to_factor(fid, k):
        vid = graph.factors[fid].scope[k]
        return _normalize(sr, gather(vid, (fid, k)),
                          "from variable %d to factor %d" % (vid, fid))

    def to_variable(fid, k):
        scope = graph.factors[fid].scope
        acc = tables[fid]
        for j in range(len(scope)):
            if j == k:
                continue
            shape = [1] * len(scope)
            shape[j] = len(m_vf[(fid, j)])
            acc = combine(acc, m_vf[(fid, j)].reshape(shape))
        axes = tuple(j for j in range(len(scope)) if j != k)
        raw = sr.reduce.reduce(acc, axis=axes) if axes else acc
        return _normalize(sr, raw, "from factor %d to variable %d" % (fid, scope[k]))

    # a variable-to-factor update reads only factor-to-variable messages,
    # so a group's first half may run in any order
    if schedule == FLOODING:
        groups = [list(m_vf)]
    else:
        groups = [[(f.id, k) for k in range(len(f.scope))] for f in graph.factors]

    def state(it, converged):
        beliefs = [_normalize(sr, gather(v.id), "belief of variable %d" % v.id)
                   for v in graph.variables]
        messages = {("vf",) + key: val for key, val in m_vf.items()}
        messages.update({("fv",) + key: val for key, val in m_fv.items()})
        return BeliefState(beliefs, sr.domain, converged, it, messages)

    yield functools.partial(state, 0, False)
    for it in range(1, max_iters + 1):
        delta = 0.0
        # -inf - -inf in a change, where log-domain messages share a hard zero
        with np.errstate(invalid="ignore"):
            for group in groups:
                for edge in group:
                    val = to_factor(*edge)
                    delta = max(delta, _change(val, m_vf[edge]))
                    m_vf[edge] = val
                for edge in group:
                    val = to_variable(*edge)
                    # damping 0 must not touch val: 0 * -inf would poison it
                    if damping:
                        val = (1.0 - damping) * val + damping * m_fv[edge]
                    delta = max(delta, _change(val, m_fv[edge]))
                    m_fv[edge] = val
        converged = delta < tol
        yield functools.partial(state, it, converged)
        if converged:
            return


def sum_product_sweeps(graph: FactorGraph, schedule: str = FLOODING,
                       damping: float = 0.0, max_iters: int = 100, tol: float = 1e-6):
    """sum_product one iteration at a time: yields a function returning the
    BeliefState at the start, then after each iteration, the last being
    sum_product's.  Call it before advancing the generator."""
    return _propagate(_SUM_PRODUCT, graph, schedule, damping, max_iters, tol)


def sum_product(graph: FactorGraph, schedule: str = FLOODING, damping: float = 0.0,
                max_iters: int = 100, tol: float = 1e-6) -> BeliefState:
    """Loopy belief propagation with LINEAR messages normalized to sum 1.

    Damping mixes each new factor-to-variable message with its previous
    value: new = (1 - damping) * raw + damping * old.  Convergence means the
    largest L-inf message change in the final iteration fell below tol.
    """
    *_, last = sum_product_sweeps(graph, schedule, damping, max_iters, tol)
    return last()


def min_sum(graph: FactorGraph, schedule: str = FLOODING, damping: float = 0.0,
            max_iters: int = 100, tol: float = 1e-6) -> BeliefState:
    """Max-product in the log domain; messages anchored so max = 0.

    The decoded assignment takes each variable's belief argmax, ties to the
    lowest value.  Zero table entries become -inf log scores; a message that
    is -inf everywhere is an error, mirroring sum_product's all-zero case.
    """
    *_, last = _propagate(_MAX_PRODUCT, graph, schedule, damping, max_iters, tol)
    state = last()
    state.assignment = state.argmax()
    return state


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------

@dataclass
class GibbsResult:
    marginals: list        # empirical per-variable frequencies over kept sweeps
    assignment: list       # state after the final sweep
    sweeps: int


def gibbs_sample(graph: FactorGraph, seed: int, burn_in: int = 1000,
                 sweeps: int = 10000) -> GibbsResult:
    """Systematic-scan Gibbs sampling (variables 0..N-1 per sweep).

    The draw for variable v in sweep s is the counter-based draw
    keyed_uniform01(stream_key(seed, v), s), keyed once per variable, so
    the sampler is deterministic given the seed and independent of
    everything but (seed, variable, sweep); each variable hashes
    rng.DRAW_BLOCK sweeps' draws at once.  The sampler picks the first
    value whose prefix sum of the conditional exceeds the draw scaled by the
    total.  The prefix sums are memoized per variable, keyed by the
    mixed-radix index of its Markov blanket's values, so a memo grows by at
    most one entry per sweep.  Each index is kept current: a draw that
    changes a value adds the change, times its radix multiplier, to the
    index of each variable whose blanket holds it.  A
    kept sweep counts each draw as it is made; an evidence variable is
    counted once, for all sweeps.  Tables must give every conditional a
    positive total (use soft expansions).
    """
    _require_tables(graph)
    if sweeps <= 0:
        raise InferenceError("sweeps must be positive")
    if burn_in < 0:
        raise InferenceError("burn_in must be >= 0, got %d" % burn_in)
    cards = [v.cardinality for v in graph.variables]
    state = [v.evidence if v.evidence is not None else 0 for v in graph.variables]
    free = [v.id for v in graph.variables if v.evidence is None]
    # flat tables plus mixed-radix strides, last scope position fastest;
    # the hot loop runs on plain Python floats (vectors are tiny)
    flats = [[float(x) for x in f.table] for f in graph.factors]
    strides = [[math.prod(sc[i + 1:]) for i in range(len(sc))]
               for sc in map(graph.scope_cards, graph.factors)]
    # per variable: (flat, others = [(scope var, stride)], own stride)
    rows = {v: [] for v in free}
    for f in graph.factors:
        for k, vid in enumerate(f.scope):
            if vid in rows:
                others = [(f.scope[j], strides[f.id][j])
                          for j in range(len(f.scope)) if j != k]
                rows[vid].append((flats[f.id], others, strides[f.id][k]))
    # per variable: the mixed-radix index of its blanket, the distinct
    # variables its terms read, kept current through each blanket variable's
    # readers (reader, radix multiplier), and a memo by that index
    index = [0] * len(cards)
    readers = [[] for _ in cards]
    plan = []
    for v in free:
        size = 1
        for ov in dict.fromkeys(ov for _f, others, _s in rows[v] for ov, _o in others):
            readers[ov].append((v, size))
            index[v] += state[ov] * size
            size *= cards[ov]
        plan.append((v, rows[v], rng.stream_key(seed, v), {}))
    # an evidence variable holds its value in all `sweeps` kept sweeps
    counts = [[sweeps * (v.evidence == a) for a in range(v.cardinality)]
              for v in graph.variables]
    for s in range(burn_in + sweeps):
        j = s % rng.DRAW_BLOCK
        if not j:
            block = [(v, terms, memo, counts[v], readers[v],
                      rng.keyed_uniform01_block(key, s, rng.DRAW_BLOCK))
                     for v, terms, key, memo in plan]
        keep = s >= burn_in
        for v, terms, memo, row, vreaders, draws in block:
            try:
                prefix = memo[index[v]]
            except KeyError:
                prefix = memo[index[v]] = _gibbs_prefix(v, terms, state, cards[v])
            val = bisect_right(prefix, draws[j] * prefix[-1], 0, len(prefix) - 1)
            if val != state[v]:
                for r, m in vreaders:
                    index[r] += (val - state[v]) * m
                state[v] = val
            if keep:
                row[val] += 1
    marginals = [np.asarray(c, dtype=np.float64) / sweeps for c in counts]
    return GibbsResult(marginals, list(state), sweeps)


def _gibbs_prefix(v, terms, state, card):
    """Prefix sums of variable v's conditional at the current state, added
    from 0.0 in value order, so the last is the conditional's total."""
    w = None
    for flat, others, step in terms:
        base = 0
        for ov, ostride in others:
            base += state[ov] * ostride
        if w is None:
            w = [flat[base + a * step] for a in range(card)]
        else:
            for a in range(card):
                w[a] *= flat[base + a * step]
    if w is None:
        w = [1.0] * card
    prefix = list(accumulate(w, initial=0.0))[1:]
    if prefix[-1] <= 0.0:
        raise InferenceError(
            "zero-total Gibbs conditional for variable %d (use soft tables)" % v)
    return prefix
