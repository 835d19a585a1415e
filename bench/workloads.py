"""The benchmark's three workloads and the per-case pipeline they share.

A workload turns a seed into a fixed list of cases.  One case runs every
layer once: an `apps` builder makes the graph and its independent oracle,
the `mapper` compiles it, the image text goes through `image.dumps` and
`image.parse_image`, a `Machine` is built and run, the golden kernel
computes the same answer in float64, and `apps.verify` checks both against
the oracle.  The program only ever receives the generated graphs.

With a `Tracer` the case records a span around each public call, compiles
with the four passes called one by one, and counts machine events by
wrapping `Machine.step`.  Without one it calls `compile_graph` and the run
methods unwrapped, so what users call is what gets timed.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from factormesh import apps, golden, mapper
from factormesh.fixedpoint import FixedPointError
from factormesh.graph import EPS_SOFT, GraphError, expand_all
from factormesh.image import GIBBS, MINSUM, SUMPROD, ImageError, dumps, parse_image
from factormesh.machine import Machine, MachineError

# every error class a layer raises for a case it cannot handle; anything
# else is a defect in the benchmark and stops the run
LAYER_ERRORS = (apps.HarnessError, FixedPointError, GraphError, ImageError,
                golden.InferenceError, MachineError, mapper.MapperError)

COUNTERS = ("activations", "packets", "flush_packets", "hops",
            "peak_link_occupancy")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    case: int
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a case's root span


class _Open:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append(Span(self.name, tr.case, perf_counter(), 0.0, parent))
        tr._stack.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index].end = perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """In-memory spans around the public calls of one run."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.case = -1
        self._stack = []

    def span(self, name):
        return _Open(self, name)


class NoTracer:
    enabled = False
    case = -1
    _null = nullcontext()

    def span(self, name):
        return self._null


def self_times(spans) -> dict:
    """Per (case, span name): summed duration minus what its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans):
        key = (s.case, s.name)
        out[key] = out.get(key, 0.0) + (s.end - s.start) - child[i]
    return out


# ---------------------------------------------------------------------------
# one case
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    case: int
    failure: str = ""            # empty when every check passed
    digest: str = ""             # stats text + beliefs file bytes
    image_digest: str = ""
    counters: dict = field(default_factory=dict)
    compiled: dict = field(default_factory=dict)
    belief_linf: float = 0.0
    golden_iterations: int = 0
    golden_converged: bool = False
    events: int = 0              # traced runs only
    total_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    scale: float = 1.0           # host-speed correction of the times above

    def identity(self):
        """What a rerun of the same case must reproduce exactly."""
        return (self.digest, self.image_digest, self.counters, self.compiled)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _linf(beliefs: dict, reference) -> float:
    worst = 0.0
    for vid, ref in enumerate(reference):
        for a, x in enumerate(ref):
            worst = max(worst, abs(beliefs[vid][a] - float(x)))
    return worst


def _compile(graph, mode, grid, seed, thresh, tracer):
    """Graph to image: `compile_graph` untraced, its four passes traced."""
    if not tracer.enabled:
        image, report = mapper.compile_graph(graph, mode, grid=grid, seed=seed,
                                             thresh=thresh)
        return image, {k: report[k] for k in
                       ("clusters", "factors", "aux_vars", "cost_initial",
                        "cost_final")}
    # the same arguments compile_graph passes, so the images must match
    epsilon = mapper._default_epsilon(mode)
    with tracer.span("mapper.lower"):
        lowered = mapper.lower(graph, epsilon=epsilon, mode=mode)
    with tracer.span("mapper.cluster"):
        clusters = mapper.cluster(lowered, mode=mode)
    with tracer.span("mapper.place"):
        placement = mapper.place(clusters, lowered, grid, seed=seed, mode=mode)
    with tracer.span("mapper.emit"):
        image = mapper.emit_image(placement, clusters, lowered, mode, seed=seed,
                                  thresh=thresh)
    return image, {"clusters": len(clusters), "factors": len(lowered.factors),
                   "aux_vars": len(lowered.variables) - len(graph.variables),
                   "cost_initial": placement.cost_initial,
                   "cost_final": placement.cost_final}


def _count_steps(machine):
    """Wrap the instance's step() so every event the run loop pops counts."""
    count = [0]
    step = machine.step

    def counted():
        if step():
            count[0] += 1
            return True
        return False

    machine.step = counted
    return count


def run_case(workload, case, tracer) -> Outcome:
    out = Outcome(case.index)
    tracer.case = case.index
    start = perf_counter()
    with tracer.span("case"):
        try:
            _pipeline(workload, case, tracer, out)
        except LAYER_ERRORS as e:
            out.failure = "%s: %s" % (type(e).__name__, e)
    out.total_s = perf_counter() - start
    return out


def _pipeline(workload, case, tracer, out):
    with tracer.span("apps.build"):
        bench = workload.build(case)

    t0 = perf_counter()
    image, out.compiled = _compile(bench.graph, workload.mode, bench.grid,
                                   case.compile_seed, workload.thresh, tracer)
    with tracer.span("image.dumps"):
        text = dumps(image)
    with tracer.span("image.parse"):
        parsed = parse_image(text)
    with tracer.span("machine.build"):
        machine = Machine(parsed)
    out.setup_s = perf_counter() - t0
    out.image_digest = _sha(text)
    out.compiled["image_bytes"] = len(text)
    out.compiled["wires"] = len(parsed.wires)

    steps = _count_steps(machine) if tracer.enabled else None
    t0 = perf_counter()
    with tracer.span("machine.run"):
        answer, cycles, quiescent, problem = workload.run_machine(machine, bench,
                                                                 case)
    out.run_s = perf_counter() - t0
    with tracer.span("machine.read"):
        beliefs, assignment = machine.read_beliefs()
    if steps is not None:
        out.events = steps[0]

    with tracer.span("golden.kernel"):
        gold = workload.run_golden(bench, case)

    if answer is None:
        answer = beliefs if bench.oracle_kind == apps.MARGINALS else assignment
    with tracer.span("apps.verify"):
        machine_report = apps.verify(bench, answer)
        golden_report = apps.verify(bench, gold.answer)

    stats = machine.stats
    out.counters = {k: getattr(stats, k) for k in COUNTERS}
    out.counters["cycles"] = cycles
    out.counters["quiescent"] = quiescent
    out.digest = _sha("cycles=%d\n%s%s" % (cycles, stats.text(),
                                            apps.write_results(beliefs)))
    out.belief_linf = _linf(beliefs, gold.reference)
    out.golden_iterations = gold.iterations
    out.golden_converged = gold.converged

    if problem:
        out.failure = problem
    elif steps is not None and out.events == 0:
        out.failure = "no machine events counted: the run loop bypassed step()"
    elif not machine_report.passed:
        out.failure = "machine vs oracle: " + _failed_lines(machine_report)
    elif not golden_report.passed:
        out.failure = "golden vs oracle: " + _failed_lines(golden_report)
    elif workload.exact_answer and any(
            answer[v] != gold.answer[v] for v in bench.compare_vars):
        out.failure = "machine vs golden: assignments differ"


def _failed_lines(report) -> str:
    return "; ".join(l for l in report.lines if "FAIL" in l)


# ---------------------------------------------------------------------------
# rounds and host-speed calibration
# ---------------------------------------------------------------------------

# The host's speed swings by up to 1.6x in phases of seconds to minutes.  So
# every case runs between two runs of a fixed kernel, and its host times are
# scaled to the speed at which that kernel takes CALIBRATION_S seconds.
CALIBRATION_STEPS = 9000
CALIBRATION_S = 0.02


def calibrate() -> float:
    """Host seconds for a fixed kernel of the simulator's kinds of work:
    heap and dict operations, integer arithmetic, and numpy arithmetic on
    two-entry vectors."""
    start = perf_counter()
    queue = []
    counts = {}
    vec = np.array([3, 5], dtype=np.int64)
    for i in range(CALIBRATION_STEPS):
        heapq.heappush(queue, (i * 7919 % 1009, i))
        counts[i & 255] = counts.get(i & 255, 0) + i
        if i & 3 == 0:
            vec = (vec * 40503 + 65535) // 131070 + int(vec.max() & 7)
    while queue:
        heapq.heappop(queue)
    return perf_counter() - start


def run_round(workload, cases, tracer, before: float):
    """Run every case once, each followed by a calibration; `before` is the
    calibration that precedes the first case.  Returns the outcomes and the
    last calibration."""
    outcomes = []
    for case in cases:
        o = run_case(workload, case, tracer)
        after = calibrate()
        o.scale = 2 * CALIBRATION_S / (before + after)
        before = after
        outcomes.append(o)
    return outcomes, before


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Case:
    index: int
    compile_seed: int
    received: tuple = ()         # hamming-t0 only


@dataclass
class Golden:
    answer: dict                 # what apps.verify checks
    reference: list              # beliefs the machine's are measured against
    iterations: int
    converged: bool


class HammingT0:
    """Single-flip Hamming(7,4) words, SUMPROD, change threshold 0."""

    name = "hamming-t0"
    mode = SUMPROD
    thresh = 0
    exact_answer = True
    default_cases = 7
    budget = 3000
    sweeps = 20
    flip_p = 0.05

    def cases(self, seed, n):
        # case i flips bit i mod 7 of a codeword drawn from the seed: the
        # machine's work depends on the flip position alone, so every seed
        # runs the same work on different words
        words = apps.hamming_codewords()
        rng = random.Random(seed)
        cases = []
        for i in range(n):
            word = words[rng.randrange(len(words))]
            cases.append(Case(i, 0, tuple(b ^ (k == i % 7)
                                          for k, b in enumerate(word))))
        return cases

    def build(self, case):
        return apps.build_parity_code(case.received, flip_p=self.flip_p)

    def run_machine(self, machine, bench, case):
        decoded = apps.decode_by_candidates(
            apps.machine_hamming_trajectory(machine, budget=self.budget),
            case.received)
        # the trajectory loop stops past the budget or when the queue drains
        return (dict(enumerate(decoded)), machine.time,
                machine.time <= self.budget, "")

    def run_golden(self, bench, case):
        trajectory = list(apps.bp_hamming_trajectory(bench.graph,
                                                     sweeps=self.sweeps))
        decoded = apps.decode_by_candidates(trajectory, case.received)
        exact = golden.exact_marginals(expand_all(bench.graph, 0.0))
        return Golden(dict(enumerate(decoded)), exact, len(trajectory),
                      len(trajectory) < self.sweeps)


class SudokuAnneal:
    """The 4x4 sudoku fixture, MINSUM, placement seeds from the workload seed."""

    name = "sudoku-anneal"
    mode = MINSUM
    thresh = None
    exact_answer = True
    default_cases = 12
    max_cycles = 100000

    def cases(self, seed, n):
        rng = random.Random(seed)
        return [Case(i, rng.randrange(1 << 16)) for i in range(n)]

    def build(self, case):
        return apps.build_sudoku()

    def run_machine(self, machine, bench, case):
        stats, quiescent = machine.run_until_quiescent(self.max_cycles)
        problem = "" if quiescent else \
            "not quiescent within %d cycles" % self.max_cycles
        return None, stats.cycles, quiescent, problem

    def run_golden(self, bench, case):
        state = golden.min_sum(expand_all(bench.graph, EPS_SOFT))
        reference = []
        for b in state.beliefs:
            w = [math.exp(x) for x in b]
            s = sum(w)
            reference.append([x / s for x in w])
        return Golden(dict(enumerate(state.assignment)), reference,
                      state.iterations, state.converged)


class IsingGibbs:
    """The 8-site Ising chain of criterion 07, GIBBS for a fixed tick count."""

    name = "ising-gibbs"
    mode = GIBBS
    thresh = None
    exact_answer = False
    default_cases = 6
    sites = 8
    coupling = 0.5
    bias = 0.2
    ticks = 10000

    def cases(self, seed, n):
        rng = random.Random(seed)
        return [Case(i, rng.randrange(1 << 16)) for i in range(n)]

    def build(self, case):
        return apps.build_ising_chain(self.sites, self.coupling, self.bias)

    def run_machine(self, machine, bench, case):
        stats = machine.run_ticks(self.ticks)
        return None, stats.cycles, False, ""

    def run_golden(self, bench, case):
        result = golden.gibbs_sample(expand_all(bench.graph, 0.0),
                                     seed=case.compile_seed, burn_in=0,
                                     sweeps=self.ticks)
        return Golden(dict(enumerate(result.marginals)), bench.oracle,
                      result.sweeps, False)


WORKLOADS = {w.name: w for w in (HammingT0(), SudokuAnneal(), IsingGibbs())}
