"""Discrete factor graph IR, and the UAI graph and evidence text formats.

A graph is a bipartite structure of variable nodes (finite domains,
cardinality >= 2, optional hard evidence) and factor nodes (scope = ordered
variable ids, plus either an explicit table or a builtin kind expanded on
demand).  Tables are flat tuples in row-major order over the scope with the
LAST scope variable varying fastest, which is also the UAI file convention.

Builtin factor kinds and their expansions (epsilon = weight of violating
assignments):

    ALL_DIFFERENT     1.0 where all scope values are pairwise distinct
    PARITY            1.0 where XOR of scope values is 0 (cardinality 2 only)
    EQUALITY          1.0 where all scope values are equal
    PAIRWISE_ISING(J) exp(J) where the two values agree, exp(-J) otherwise

Two epsilon conventions are used by callers: 0.0 for exact/sum-product
semantics (hard constraints) and exp(-20) for min-sum and Gibbs, keeping
log-domain numbers finite.  UAI and evidence texts are read by
`records.Records`: `#` starts a comment, and every error names its line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .records import Records

TABLE = "TABLE"
ALL_DIFFERENT = "ALL_DIFFERENT"
PARITY = "PARITY"
EQUALITY = "EQUALITY"
PAIRWISE_ISING = "PAIRWISE_ISING"

BUILTIN_KINDS = (ALL_DIFFERENT, PARITY, EQUALITY, PAIRWISE_ISING)

# soft-penalty weight for constraint violations in min-sum / Gibbs builds
EPS_HARD = 0.0
EPS_SOFT = math.exp(-20.0)


class GraphError(ValueError):
    pass


class ParseError(GraphError):
    """Malformed input text; `records` builds it with its 1-based `line`."""


@dataclass(frozen=True)
class VariableNode:
    id: int
    cardinality: int
    evidence: Optional[int] = None


@dataclass(frozen=True)
class FactorNode:
    id: int
    scope: tuple
    kind: str = TABLE
    table: Optional[tuple] = None
    coupling: Optional[float] = None  # PAIRWISE_ISING strength J


class FactorGraph:
    """Immutable-by-convention container; use validate() for diagnostics."""

    def __init__(self, variables, factors):
        self.variables = tuple(variables)
        self.factors = tuple(factors)
        # variable id -> list of (factor id, scope position); tolerant of
        # invalid graphs so validate() can still run on them
        adj = {v.id: [] for v in self.variables}
        for f in self.factors:
            for k, vid in enumerate(f.scope):
                if vid in adj:
                    adj[vid].append((f.id, k))
        self._adjacency = adj

    def factors_of(self, var_id: int):
        """(factor id, scope position) pairs touching this variable."""
        return self._adjacency.get(var_id, [])

    def scope_cards(self, factor: FactorNode) -> tuple:
        return tuple(self.variables[v].cardinality for v in factor.scope)

    def __eq__(self, other):
        return (isinstance(other, FactorGraph)
                and self.variables == other.variables
                and self.factors == other.factors)

    def __repr__(self):
        return "FactorGraph(%d variables, %d factors)" % (
            len(self.variables), len(self.factors))


def validate(graph: FactorGraph) -> list:
    """Return a list of human-readable violations; empty means well formed."""
    out = []
    for i, v in enumerate(graph.variables):
        if v.id != i:
            out.append("variable %d: id %d breaks dense zero-based numbering" % (i, v.id))
        if v.cardinality < 2:
            out.append("variable %d: cardinality must be >= 2 (got %d)" % (v.id, v.cardinality))
        if v.evidence is not None and not (0 <= v.evidence < v.cardinality):
            out.append("variable %d: evidence value %d out of range" % (v.id, v.evidence))
    n = len(graph.variables)
    for j, f in enumerate(graph.factors):
        if f.id != j:
            out.append("factor %d: id %d breaks dense zero-based numbering" % (j, f.id))
        if len(f.scope) == 0:
            out.append("factor %d: empty scope" % f.id)
            continue
        dangling = [v for v in f.scope if not (0 <= v < n)]
        if dangling:
            out.append("factor %d: dangling variable id %d" % (f.id, dangling[0]))
            continue
        if len(set(f.scope)) != len(f.scope):
            out.append("factor %d: duplicate variable in scope" % f.id)
        cards = graph.scope_cards(f)
        if f.kind == TABLE:
            want = math.prod(cards)
            if f.table is None:
                out.append("factor %d: TABLE factor has no table" % f.id)
            elif len(f.table) != want:
                out.append("factor %d: table-length mismatch (got %d, expected %d)"
                           % (f.id, len(f.table), want))
            else:
                if not all(map(math.isfinite, f.table)):
                    out.append("factor %d: non-finite table entry" % f.id)
                if any(x < 0 for x in f.table):
                    out.append("factor %d: negative table entry" % f.id)
                if all(x == 0 for x in f.table):
                    out.append("factor %d: table has no positive entry" % f.id)
        else:
            out += _builtin_problems(f, cards)
    return out


def _builtin_problems(factor: FactorNode, cards: tuple) -> list:
    """What keeps a builtin factor over scope cardinalities `cards` from
    expanding; empty means it expands."""
    if factor.kind not in BUILTIN_KINDS:
        return ["factor %d: unknown kind %r" % (factor.id, factor.kind)]
    out = []
    if factor.kind in (ALL_DIFFERENT, PARITY) and len(set(cards)) > 1:
        out.append("factor %d: %s requires one shared cardinality" % (factor.id, factor.kind))
    if factor.kind == PARITY and cards[0] != 2:
        out.append("factor %d: PARITY requires cardinality 2" % factor.id)
    if factor.kind == PAIRWISE_ISING:
        if len(cards) != 2:
            out.append("factor %d: PAIRWISE_ISING requires arity 2" % factor.id)
        if factor.coupling is None:
            out.append("factor %d: PAIRWISE_ISING requires a coupling" % factor.id)
    return out


def checked(graph: FactorGraph) -> FactorGraph:
    """Raise GraphError on the first validation violation."""
    bad = validate(graph)
    if bad:
        raise GraphError("; ".join(bad))
    return graph


# ---------------------------------------------------------------------------
# builtin expansion
# ---------------------------------------------------------------------------

def expand_builtin(factor: FactorNode, cards, epsilon: float) -> FactorNode:
    """Expand a builtin factor to an equivalent TABLE factor.

    cards gives the scope cardinalities in scope order.  epsilon is the
    weight of constraint-violating assignments.
    """
    cards = tuple(cards)
    if factor.kind == TABLE:
        return factor
    bad = _builtin_problems(factor, cards)
    if bad:
        raise GraphError(bad[0])
    rows = []
    j = factor.coupling
    # itertools.product varies the last position fastest: the UAI table order
    for assign in itertools.product(*[range(c) for c in cards]):
        if factor.kind == ALL_DIFFERENT:
            ok = len(set(assign)) == len(assign)
            rows.append(1.0 if ok else epsilon)
        elif factor.kind == PARITY:
            rows.append(1.0 if sum(assign) % 2 == 0 else epsilon)
        elif factor.kind == EQUALITY:
            rows.append(1.0 if len(set(assign)) == 1 else epsilon)
        else:  # PAIRWISE_ISING
            rows.append(math.exp(j) if assign[0] == assign[1] else math.exp(-j))
    return FactorNode(id=factor.id, scope=factor.scope, kind=TABLE, table=tuple(rows))


def expand_all(graph: FactorGraph, epsilon: float) -> FactorGraph:
    """Expand every builtin factor in the graph to a TABLE factor."""
    factors = [expand_builtin(f, graph.scope_cards(f), epsilon) for f in graph.factors]
    return FactorGraph(graph.variables, factors)


def with_evidence(graph: FactorGraph, evidence: dict) -> FactorGraph:
    """New graph with the given {variable id: value} clamps applied."""
    variables = []
    for v in graph.variables:
        if v.id in evidence:
            val = evidence[v.id]
            if not (0 <= val < v.cardinality):
                raise GraphError("variable %d: evidence value %d out of range" % (v.id, val))
            variables.append(VariableNode(v.id, v.cardinality, val))
        else:
            variables.append(v)
    unknown = set(evidence) - {v.id for v in graph.variables}
    if unknown:
        raise GraphError("evidence for unknown variable %d" % min(unknown))
    return FactorGraph(variables, graph.factors)


# ---------------------------------------------------------------------------
# UAI text format
# ---------------------------------------------------------------------------

def parse_uai(text: str) -> FactorGraph:
    """Parse the MARKOV network text format into a validated FactorGraph."""
    rec = Records(text, ParseError)
    header = rec.token("MARKOV header", str)
    if header != "MARKOV":
        rec.fail("expected MARKOV header, got %r" % header)
    n = rec.token("variable count")
    if n < 0:
        rec.fail("negative variable count")
    variables = []
    for i in range(n):
        c = rec.token("cardinality of variable %d" % i)
        if c < 2:
            rec.fail("variable %d: cardinality must be >= 2 (got %d)" % (i, c))
        variables.append(VariableNode(i, c))
    nf = rec.token("factor count")
    if nf < 0:
        rec.fail("negative factor count")
    scopes = []
    for j in range(nf):
        arity = rec.token("arity of factor %d" % j)
        if arity < 1:
            rec.fail("factor %d: arity must be >= 1" % j)
        scope = []
        for _ in range(arity):
            v = rec.token("scope variable of factor %d" % j)
            if not (0 <= v < n):
                rec.fail("factor %d: dangling variable id %d" % (j, v))
            scope.append(v)
        if len(set(scope)) != len(scope):
            rec.fail("factor %d: duplicate variable in scope" % j)
        scopes.append(tuple(scope))
    factors = []
    for j, scope in enumerate(scopes):
        declared = rec.token("table size of factor %d" % j)
        want = math.prod(variables[v].cardinality for v in scope)
        if declared != want:
            rec.fail("factor %d: table-length mismatch (declared %d, expected %d)"
                     % (j, declared, want))
        table = []
        for _ in range(declared):
            x = rec.token("table entry of factor %d" % j, float)
            if not math.isfinite(x):
                rec.fail("factor %d: non-finite table entry" % j)
            if x < 0:
                rec.fail("factor %d: negative table entry" % j)
            table.append(x)
        if not any(table):
            rec.fail("factor %d: table has no positive entry" % j)
        factors.append(FactorNode(j, scope, TABLE, tuple(table)))
    if not rec.at_end():
        rec.fail("trailing tokens after last table")
    return checked(FactorGraph(variables, factors))


def serialize_uai(graph: FactorGraph) -> str:
    """Serialize to the MARKOV text format, 12 significant digits.

    Builtin factors have no table representation in this format and must be
    expanded first.
    """
    for f in graph.factors:
        if f.kind != TABLE:
            raise GraphError("factor %d: builtin %s must be expanded before serialization"
                             % (f.id, f.kind))
    lines = ["MARKOV"]
    lines.append(str(len(graph.variables)))
    lines.append(" ".join(str(v.cardinality) for v in graph.variables))
    lines.append(str(len(graph.factors)))
    for f in graph.factors:
        lines.append(" ".join([str(len(f.scope))] + [str(v) for v in f.scope]))
    for f in graph.factors:
        lines.append("")
        lines.append(str(len(f.table)))
        row = ["%.12g" % x for x in f.table]
        for i in range(0, len(row), 8):
            lines.append(" ".join(row[i:i + 8]))
    return "\n".join(lines) + "\n"


def parse_evidence(text: str) -> dict:
    """Evidence file: first an observation count, then (variable, value) pairs."""
    rec = Records(text, ParseError)
    count = rec.token("evidence count")
    if count < 0:
        rec.fail("negative evidence count")
    out = {}
    for _ in range(count):
        v = rec.token("evidence variable id")
        val = rec.token("evidence value")
        if v < 0 or val < 0:
            rec.fail("negative evidence pair %d %d" % (v, val))
        if v in out and out[v] != val:
            rec.fail("conflicting evidence for variable %d" % v)
        out[v] = val
    if not rec.at_end():
        rec.fail("trailing tokens after evidence pairs")
    return out


def serialize_evidence(evidence: dict) -> str:
    items = sorted(evidence.items())
    lines = [str(len(items))]
    for v, val in items:
        lines.append("%d %d" % (v, val))
    return "\n".join(lines) + "\n"
