"""Benchmark problems and their independent oracles.

Each builder returns a Benchmark: a factor graph, a recommended execution
mode, and an oracle answer computed by a method that shares no code with the
message-passing kernels (backtracking search, syndrome decoding, transfer
matrices, exhaustive checking).  verify() compares a result set against the
oracle and produces a per-variable report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import (ALL_DIFFERENT, EPS_SOFT, PAIRWISE_ISING, PARITY, TABLE,
                    FactorGraph, FactorNode, GraphError, VariableNode,
                    expand_all, with_evidence)
from .image import GIBBS, MINSUM, SUMPROD
from .records import Records

ASSIGNMENT = "assignment"
MARGINALS = "marginals"
PROPER_COLORING = "proper_coloring"


class HarnessError(ValueError):
    pass


@dataclass
class Benchmark:
    name: str
    graph: FactorGraph
    mode: str
    oracle_kind: str
    oracle: object                    # answer per variable id, or (edges, colors)
    note: str
    tolerance: float = 0.0
    compare_vars: list = field(default_factory=list)
    grid: tuple = (4, 4)


# ---------------------------------------------------------------------------
# graph colouring
# ---------------------------------------------------------------------------

def build_coloring(edges, colors: int, n: Optional[int] = None,
                   name: str = "coloring") -> Benchmark:
    """Colour the vertices of a graph so no edge is monochrome.

    One not-equal factor (arity-2 ALL_DIFFERENT) per edge.  The oracle is a
    checker, not a fixed answer: any proper colouring is accepted.
    """
    edges = [tuple(sorted(e)) for e in edges]
    if n is None:
        n = 1 + max(max(e) for e in edges)
    if colors < 2:
        raise HarnessError("need at least 2 colours")
    variables = [VariableNode(i, colors) for i in range(n)]
    factors = []
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise HarnessError("bad edge (%d, %d)" % (a, b))
        factors.append(FactorNode(len(factors), (a, b), ALL_DIFFERENT))
    graph = FactorGraph(variables, factors)
    return Benchmark(name=name, graph=graph, mode=GIBBS, oracle_kind=PROPER_COLORING,
                     oracle=(edges, colors),
                     note="accept any assignment where every edge's endpoints differ",
                     compare_vars=list(range(n)))


def is_proper_coloring(edges, assignment) -> bool:
    return all(assignment[a] != assignment[b] for a, b in edges)


def count_proper_colorings(edges, colors: int, n: int) -> int:
    """Exhaustive count over all colors**n assignments."""
    total = 0
    for assign in itertools.product(range(colors), repeat=n):
        if is_proper_coloring(edges, assign):
            total += 1
    return total


TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2)]
FIVE_CYCLE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


# ---------------------------------------------------------------------------
# 4x4 sudoku
# ---------------------------------------------------------------------------

SUDOKU_N = 4

# Fixture puzzle, values 0..3, -1 for blanks.  Selection procedure: starting
# from a fixed completed grid, givens were removed greedily while keeping
# (a) a unique solution under the backtracking solver below and (b) an exact
# quiescent machine solve in MINSUM mode on the pairwise-lowered graph; the
# first grid satisfying both was frozen here, and the acceptance suite
# re-derives (a) from scratch every run.
SUDOKU_FIXTURE_GIVENS = (
    (0, 0, 0), (0, 2, 2),
    (1, 1, 3), (1, 3, 1),
    (2, 0, 1), (2, 2, 3),
    (3, 1, 2), (3, 3, 0),
)
SUDOKU_FIXTURE_SOLUTION = (
    0, 1, 2, 3,
    2, 3, 0, 1,
    1, 0, 3, 2,
    3, 2, 1, 0,
)


def _sudoku_groups():
    groups = []
    for r in range(SUDOKU_N):
        groups.append([r * SUDOKU_N + c for c in range(SUDOKU_N)])
    for c in range(SUDOKU_N):
        groups.append([r * SUDOKU_N + c for r in range(SUDOKU_N)])
    for br in range(0, SUDOKU_N, 2):
        for bc in range(0, SUDOKU_N, 2):
            groups.append([(br + dr) * SUDOKU_N + (bc + dc)
                           for dr in range(2) for dc in range(2)])
    return groups


def sudoku_solutions(givens, limit: int = 2) -> list:
    """Backtracking solver; returns up to `limit` full grids (16-tuples).

    Independent of the factor-graph machinery: plain depth-first search over
    cells with row/column/box pruning.
    """
    board = [-1] * (SUDOKU_N * SUDOKU_N)
    for r, c, v in givens:
        if not (0 <= v < SUDOKU_N):
            raise HarnessError("given value %d out of range" % v)
        cell = r * SUDOKU_N + c
        if board[cell] not in (-1, v):
            raise HarnessError("conflicting givens at cell (%d, %d)" % (r, c))
        board[cell] = v
    groups = _sudoku_groups()
    peers = [[] for _ in range(SUDOKU_N * SUDOKU_N)]
    for g in groups:
        for cell in g:
            for other in g:
                if other != cell and other not in peers[cell]:
                    peers[cell].append(other)
    solutions = []

    def ok(cell, v):
        return all(board[p] != v for p in peers[cell])

    def walk(i):
        if len(solutions) >= limit:
            return
        if i == SUDOKU_N * SUDOKU_N:
            solutions.append(tuple(board))
            return
        if board[i] != -1:
            walk(i + 1)
            return
        for v in range(SUDOKU_N):
            if ok(i, v):
                board[i] = v
                walk(i + 1)
                board[i] = -1

    # reject givens that already violate a group
    for cell in range(SUDOKU_N * SUDOKU_N):
        if board[cell] != -1:
            v = board[cell]
            board[cell] = -1
            if not ok(cell, v):
                raise HarnessError("givens violate a constraint at cell %d" % cell)
            board[cell] = v
    walk(0)
    return solutions


def build_sudoku(givens=SUDOKU_FIXTURE_GIVENS, name: str = "sudoku4") -> Benchmark:
    """4x4 sudoku: 16 variables of cardinality 4, one ALL_DIFFERENT factor
    per row, column and 2x2 box; givens become hard evidence.  The oracle is
    the unique backtracking solution (two solutions raise an error)."""
    sols = sudoku_solutions(givens, limit=2)
    if not sols:
        raise HarnessError("puzzle has no solution")
    if len(sols) > 1:
        raise HarnessError("puzzle has more than one solution")
    variables = [VariableNode(i, SUDOKU_N) for i in range(SUDOKU_N * SUDOKU_N)]
    factors = [FactorNode(i, tuple(g), ALL_DIFFERENT)
               for i, g in enumerate(_sudoku_groups())]
    graph = FactorGraph(variables, factors)
    graph = with_evidence(graph, {r * SUDOKU_N + c: v for r, c, v in givens})
    return Benchmark(name=name, graph=graph, mode=MINSUM, oracle_kind=ASSIGNMENT,
                     oracle=list(sols[0]),
                     note="unique solution found by backtracking search",
                     compare_vars=list(range(SUDOKU_N * SUDOKU_N)),
                     grid=(4, 4))


# ---------------------------------------------------------------------------
# Hamming(7,4) decoding
# ---------------------------------------------------------------------------

# parity-check matrix with column i+1 equal to the binary digits of i+1;
# a nonzero syndrome reads out the 1-based position of a single flipped bit
HAMMING_H = (
    (1, 0, 1, 0, 1, 0, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)


def hamming_codewords() -> list:
    """All 16 codewords of the (7,4) code, by exhaustive membership test."""
    words = []
    for bits in itertools.product((0, 1), repeat=7):
        if all(sum(h * b for h, b in zip(row, bits)) % 2 == 0 for row in HAMMING_H):
            words.append(tuple(bits))
    return words


def hamming_encode(data) -> tuple:
    """Encode 4 data bits into a 7-bit codeword (data at positions 2,4,5,6)."""
    d = list(data)
    if len(d) != 4 or any(b not in (0, 1) for b in d):
        raise HarnessError("need 4 data bits")
    c = [0] * 7
    c[2], c[4], c[5], c[6] = d
    c[0] = (c[2] + c[4] + c[6]) % 2
    c[1] = (c[2] + c[5] + c[6]) % 2
    c[3] = (c[4] + c[5] + c[6]) % 2
    return tuple(c)


def syndrome_decode(received) -> tuple:
    """Nearest-codeword decoding via the syndrome: a nonzero syndrome is the
    binary index (1-based) of the single bit to flip."""
    r = list(received)
    if len(r) != 7 or any(b not in (0, 1) for b in r):
        raise HarnessError("need 7 received bits")
    syndrome = [sum(h * b for h, b in zip(row, r)) % 2 for row in HAMMING_H]
    pos = syndrome[0] + 2 * syndrome[1] + 4 * syndrome[2]
    if pos:
        r[pos - 1] ^= 1
    return tuple(r)


def build_parity_code(received, flip_p: float = 0.05,
                      name: str = "hamming74") -> Benchmark:
    """Decode a 7-bit word under a binary symmetric channel.

    Variables are the transmitted bits; three arity-4 PARITY factors encode
    the checks; each received bit contributes a unary likelihood factor
    [1-p, p] (received 0) or [p, 1-p] (received 1).  Oracle: syndrome
    decoding.
    """
    r = list(received)
    if len(r) != 7 or any(b not in (0, 1) for b in r):
        raise HarnessError("need 7 received bits")
    if not (0.0 < flip_p < 0.5):
        raise HarnessError("flip probability must be in (0, 0.5)")
    variables = [VariableNode(i, 2) for i in range(7)]
    factors = []
    for row in HAMMING_H:
        scope = tuple(i for i, h in enumerate(row) if h)
        factors.append(FactorNode(len(factors), scope, PARITY))
    for i, bit in enumerate(r):
        table = (1.0 - flip_p, flip_p) if bit == 0 else (flip_p, 1.0 - flip_p)
        factors.append(FactorNode(len(factors), (i,), TABLE, table))
    graph = FactorGraph(variables, factors)
    return Benchmark(name=name, graph=graph, mode=SUMPROD, oracle_kind=ASSIGNMENT,
                     oracle=list(syndrome_decode(r)),
                     note="syndrome decoding (flips the bit addressed by the syndrome)",
                     compare_vars=list(range(7)))


def checks_satisfied(bits) -> bool:
    return all(sum(h * b for h, b in zip(row, bits)) % 2 == 0 for row in HAMMING_H)


def decode_by_candidates(assignments, received):
    """Decode a parity code from a trajectory of hard decisions.

    Iterative decoders oscillate on this code: the running argmax can visit
    several check-satisfying words before (or instead of) settling, and the
    converged fixed point keeps single flips at the three bits covered by
    only one check.  So the decoder watches the whole trajectory, keeps every
    assignment that satisfies all checks, and returns the one closest to the
    received word (maximum channel likelihood for any flip rate below 1/2,
    ties to the lexicographically smallest).  Falls back to the last
    assignment seen when nothing satisfied the checks.
    """
    rx = tuple(received)
    best = None
    last = None
    for a in assignments:
        last = tuple(a)
        if checks_satisfied(last):
            key = (sum(x != y for x, y in zip(last, rx)), last)
            if best is None or key < best[0]:
                best = (key, last)
    if best is not None:
        return best[1]
    return last


def bp_hamming_trajectory(graph, sweeps: int = 20, epsilon: float = EPS_SOFT):
    """Yield the golden sum-product argmax after each flooding sweep."""
    from .golden import sum_product
    expanded = expand_all(graph, epsilon)
    messages = None
    for _ in range(sweeps):
        state = sum_product(expanded, max_iters=1, init_messages=messages)
        messages = state.messages
        yield tuple(state.argmax()[:7])
        if state.converged:
            break


def machine_hamming_trajectory(machine, budget: int = 3000):
    """Yield the machine argmax at each cycle boundary until the event queue
    drains or the cycle budget runs out.  Loopy graphs can ride a quantized
    limit cycle forever, so the budget is load-bearing."""
    last_t = -1
    while machine.step():
        if machine.time > budget:
            break
        if machine.time != last_t:
            last_t = machine.time
            a = machine.read_assignment()
            yield tuple(a[v] for v in range(7))
    a = machine.read_assignment()
    yield tuple(a[v] for v in range(7))


# ---------------------------------------------------------------------------
# Ising chain
# ---------------------------------------------------------------------------

def ising_chain_marginals(n: int, coupling: float, bias: float) -> list:
    """Single-site marginals of a length-n chain by transfer matrices.

    Pairwise weight exp(+J) for equal neighbours and exp(-J) otherwise;
    site weight [exp(h), exp(-h)].  Plain forward/backward matrix products,
    no message-passing code involved.
    """
    if n < 1:
        raise HarnessError("need at least one site")
    m = np.array([[math.exp(coupling), math.exp(-coupling)],
                  [math.exp(-coupling), math.exp(coupling)]])
    phi = np.array([math.exp(bias), math.exp(-bias)])
    fwd = [phi.copy()]
    for _ in range(1, n):
        fwd.append((fwd[-1] @ m) * phi)
    bwd = [np.ones(2)]
    for _ in range(1, n):
        bwd.append(m @ (phi * bwd[-1]))
    bwd.reverse()
    out = []
    for i in range(n):
        w = fwd[i] * bwd[i]
        out.append(w / w.sum())
    return out


def build_ising_chain(n: int, coupling: float, bias: float,
                      name: str = "ising_chain") -> Benchmark:
    variables = [VariableNode(i, 2) for i in range(n)]
    factors = []
    for i in range(n - 1):
        factors.append(FactorNode(len(factors), (i, i + 1), PAIRWISE_ISING,
                                  coupling=coupling))
    if bias != 0.0:
        for i in range(n):
            factors.append(FactorNode(len(factors), (i,), TABLE,
                                      (math.exp(bias), math.exp(-bias))))
    graph = FactorGraph(variables, factors)
    return Benchmark(name=name, graph=graph, mode=GIBBS, oracle_kind=MARGINALS,
                     oracle=ising_chain_marginals(n, coupling, bias),
                     note="transfer-matrix marginals", tolerance=0.05,
                     compare_vars=list(range(n)))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    passed: bool
    checked: int
    failed: int
    lines: list

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _as_assignment(results: dict, vid: int) -> int:
    val = results[vid]
    if isinstance(val, (list, tuple, np.ndarray)):
        vec = list(val)
        best = 0
        for a in range(1, len(vec)):
            if vec[a] > vec[best]:
                best = a
        return best
    return int(val)


def verify(benchmark: Benchmark, results: dict,
           tolerance: Optional[float] = None) -> VerifyReport:
    """Compare a {variable id: marginal vector or value} result set against
    the benchmark oracle.  Missing compared variables are an error."""
    tol = benchmark.tolerance if tolerance is None else tolerance
    compare = benchmark.compare_vars or sorted(results)
    missing = [v for v in compare if v not in results]
    if missing:
        raise HarnessError("results missing variable %d" % missing[0])
    lines = ["benchmark %s (%s)" % (benchmark.name, benchmark.oracle_kind)]
    failed = 0
    if benchmark.oracle_kind == ASSIGNMENT:
        for v in compare:
            got = _as_assignment(results, v)
            want = benchmark.oracle[v]
            if got == want:
                lines.append("var %d: ok (%d)" % (v, got))
            else:
                lines.append("var %d: FAIL got %d want %d" % (v, got, want))
                failed += 1
    elif benchmark.oracle_kind == MARGINALS:
        for v in compare:
            got = np.asarray(results[v], dtype=np.float64)
            want = np.asarray(benchmark.oracle[v], dtype=np.float64)
            if got.shape != want.shape:
                lines.append("var %d: FAIL wrong arity" % v)
                failed += 1
                continue
            err = float(np.max(np.abs(got - want)))
            if err <= tol:
                lines.append("var %d: ok (linf %.3g)" % (v, err))
            else:
                lines.append("var %d: FAIL linf %.3g > %.3g" % (v, err, tol))
                failed += 1
    elif benchmark.oracle_kind == PROPER_COLORING:
        edges, colors = benchmark.oracle
        assign = {v: _as_assignment(results, v) for v in compare}
        bad = [v for v in compare if not (0 <= assign[v] < colors)]
        for v in bad:
            lines.append("var %d: FAIL value %d out of range" % (v, assign[v]))
            failed += 1
        for a, b in edges:
            if assign[a] == assign[b]:
                lines.append("edge (%d, %d): FAIL both %d" % (a, b, assign[a]))
                failed += 1
            else:
                lines.append("edge (%d, %d): ok" % (a, b))
    else:
        raise HarnessError("unknown oracle kind %r" % benchmark.oracle_kind)
    passed = failed == 0
    checked = len(lines) - 1
    lines.append("RESULT %s %d/%d"
                 % ("PASS" if passed else "FAIL", checked - failed, checked))
    return VerifyReport(passed, checked, failed, lines)


# ---------------------------------------------------------------------------
# manifest + results files (CLI surface)
# ---------------------------------------------------------------------------

def write_manifest(benchmark: Benchmark) -> str:
    lines = ["NAME %s" % benchmark.name,
             "MODE %s" % benchmark.mode,
             "KIND %s" % benchmark.oracle_kind,
             "NOTE %s" % benchmark.note]
    if benchmark.oracle_kind == MARGINALS:
        lines.append("TOLERANCE %.12g" % benchmark.tolerance)
    lines.append("VARS %s" % " ".join(str(v) for v in benchmark.compare_vars))
    if benchmark.oracle_kind == ASSIGNMENT:
        for v in benchmark.compare_vars:
            lines.append("ORACLE %d %d" % (v, benchmark.oracle[v]))
    elif benchmark.oracle_kind == MARGINALS:
        for v in benchmark.compare_vars:
            vec = " ".join("%.12g" % x for x in np.asarray(benchmark.oracle[v]))
            lines.append("ORACLE %d %s" % (v, vec))
    else:
        edges, colors = benchmark.oracle
        lines.append("COLORS %d" % colors)
        for a, b in edges:
            lines.append("EDGE %d %d" % (a, b))
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> Benchmark:
    rec = Records(text, HarnessError)
    free = {"NAME": "unnamed", "MODE": SUMPROD, "KIND": None, "NOTE": ""}
    tol = 0.0
    compare = []
    oracle_assign = {}
    oracle_marg = {}
    edges = []
    colors = 0
    where = {}                        # record -> line of its last occurrence
    for head, *fields in rec:
        where[head] = rec.line
        try:
            if head in free:
                free[head] = " ".join(fields)
            elif head == "TOLERANCE":
                (tol,) = map(float, fields)
            elif head == "VARS":
                compare = [int(x) for x in fields]
            elif head == "COLORS":
                (colors,) = map(int, fields)
            elif head == "EDGE":
                a, b = map(int, fields)
                edges.append((a, b))
            elif head == "ORACLE":
                v = int(fields[0])
                if len(fields) == 2 and "." not in fields[1]:
                    oracle_assign[v] = int(fields[1])
                else:
                    oracle_marg[v] = [float(x) for x in fields[1:]]
            else:
                rec.fail("unknown manifest record %r" % head)
        except HarnessError:
            raise
        except (ValueError, IndexError):
            rec.fail("malformed manifest record")
    kind = free["KIND"]
    if kind not in (ASSIGNMENT, MARGINALS, PROPER_COLORING):
        rec.fail("manifest KIND missing or unknown", where.get("KIND"))
    if not compare:
        rec.fail("manifest VARS missing", where.get("VARS"))
    if kind == PROPER_COLORING:
        if colors < 2:
            rec.fail("manifest COLORS missing", where.get("COLORS"))
        outside = [v for edge in edges for v in edge if v not in compare]
        if outside:
            rec.fail("manifest EDGE names variable %d outside VARS" % outside[0],
                     where["VARS"])
        oracle = (edges, colors)
    else:
        given = oracle_assign if kind == ASSIGNMENT else oracle_marg
        missing = [v for v in compare if v not in given]
        if missing:
            rec.fail("manifest ORACLE missing variable %d" % missing[0], where["VARS"])
        oracle = {v: given[v] for v in compare}
    return Benchmark(name=free["NAME"], graph=None, mode=free["MODE"],
                     oracle_kind=kind, oracle=oracle, note=free["NOTE"],
                     tolerance=tol, compare_vars=compare)


def write_results(results: dict) -> str:
    """Marginal vectors as 'var p0 p1 ...' lines, assignments as 'var value'."""
    lines = []
    for v in sorted(results):
        val = results[v]
        if isinstance(val, (list, tuple, np.ndarray)):
            lines.append("%d %s" % (v, " ".join("%.9g" % x for x in val)))
        else:
            lines.append("%d %d" % (v, int(val)))
    return "\n".join(lines) + "\n"


def parse_results(text: str) -> dict:
    rec = Records(text, HarnessError)
    out = {}
    for head, *vals in rec:
        if not vals:
            rec.fail("malformed results line")
        try:
            v = int(head)
            if len(vals) == 1 and "." not in vals[0] and "e" not in vals[0]:
                out[v] = int(vals[0])
            else:
                out[v] = [float(x) for x in vals]
        except ValueError:
            rec.fail("malformed results line")
    return out
