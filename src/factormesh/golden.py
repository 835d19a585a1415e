"""Reference inference kernels, float64, used as oracles for the machine.

All kernels work on validated FactorGraphs whose factors are TABLE factors
(expand builtins first; see graph.expand_all).  Hard evidence on a variable
is applied as an indicator: assignments disagreeing with it get weight zero.

Kernels:

    exact_marginals   full-joint enumeration (state space capped at 2**24)
    map_bruteforce    full-joint argmax, lexicographically smallest on ties
    sum_product       loopy belief propagation, LINEAR messages (sum to 1)
    min_sum           max-product in the log domain, messages anchored max=0
    gibbs_sample      systematic-scan Gibbs with counter-based randomness
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
    size = 1
    for c in cards:
        size *= c
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


def sum_product(graph: FactorGraph, schedule: str = FLOODING, damping: float = 0.0,
                max_iters: int = 100, tol: float = 1e-6,
                init_messages: Optional[dict] = None) -> BeliefState:
    """Loopy belief propagation with LINEAR messages normalized to sum 1.

    Damping mixes each new factor-to-variable message with its previous
    value: new = (1 - damping) * raw + damping * old.  Convergence means the
    largest L-inf message change in the final iteration fell below tol.
    init_messages warm-starts from a previous BeliefState.messages dict so a
    caller can iterate in small steps and watch the trajectory.
    """
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


def min_sum(graph: FactorGraph, schedule: str = FLOODING, damping: float = 0.0,
            max_iters: int = 100, tol: float = 1e-6) -> BeliefState:
    """Max-product in the log domain; messages anchored so max = 0.

    The decoded assignment takes each variable's belief argmax, ties to the
    lowest value.  Zero table entries become -inf log scores; a message that
    is -inf everywhere is an error, mirroring sum_product's all-zero case.
    """
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

    The draw for variable v in sweep s uses the counter-based stream
    uniform01(seed, v, s), keyed once per variable, so the sampler is
    deterministic given the seed and independent of everything but (seed,
    variable, sweep).  Tables must give every conditional a positive total
    (use soft expansions).
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
