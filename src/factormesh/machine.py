"""Discrete-event simulation of the message-passing cell grid.

A Machine is built from a MachineImage, and the load checks every value,
wiring and capacity rule of the image, whether parsed or built in code; an
error from a parsed image names the line of the record it is about
(`image.parse_image` checks only the records' form).  Each cell owns
variable slots (registers holding per-relation outgoing messages and a
combined belief), relation slots (fixed-function table units), and shadow
slots (local copies of remote quantities kept fresh by routed packets).
Execution is fully event-driven: a write that actually changes a stored value
triggers the units reading it, and recomputed messages are re-transmitted only
when they moved by at least the machine's change threshold: the image's one
THRESH, else the domain's default.  Event order is the total order (time,
row-major cell id, sequence number), which makes runs bit-reproducible.

Every word the machine holds, compares or reads out is in the mode's
message format, its `fixedpoint.Domain` (`image.domain`): word range,
uniform and evidence vectors, normalization, default gate and belief
read-out all come from it.  In SUMPROD/MINSUM modes the machine settles to
quiescence (empty queue).  A relation's kernel (`_kernel`), which returns
its normalized messages in scope-position order, is fixed by the domain, its
scope's cardinalities and its table's fold pattern, and a variable's message
refresh by its cardinality and degree, so both run as Python functions
generated at load from that structure: straight-line fixed-point arithmetic
spliced from the domain's combine, reduce and normalize templates, one
function shared by every relation or variable of the same structure.  Each
output word is bound to a local name and normalized in place, so generated
code calls no normalization function.
A poller's `assignment_reader` is generated the same way, from the mode
and its variables' cardinalities, when the poller asks for it.
In GIBBS mode each cell that declares a variable resamples its variables
from the fixed-point conditionals given shadowed neighbor values, at its
own phase of the machine's one period (`image.gibbs_schedule`), sends each
changed value as soon as it draws it, and never quiesces on its own; each
relation adds one term, built at load, to the conditional of each variable
of its cell in its scope.  A cell's tick (`_tick`) is generated at load too, from
its variables' cardinalities, term counts and blanket radixes, bound once
per cell and queued as its own event handler.  A draw whose conditional
has total weight zero keeps the value, counted in `Stats.zero_total_draws`.
Uniforms are hashed `rng.DRAW_BLOCK` ticks at a time, each the scalar
stream's own draw.  A cell computes no message, so it takes no output noise.

In SUMPROD/MINSUM each variable holds one `_Edge` per attached factor, in
factor-id order.  A relation in the variable's cell reads and writes the
edge's message and reply itself; a relation elsewhere is the one reader
(`rel`) of a shadow of it (`image.shadow_key`), fed by the edge's port, and
answers on the shadow's return port.  A relation's scope is its edges and
shadows (in GIBBS, the variables and shadows it reads).  Its update handler
(`_update`) is generated at load from its positions' kinds, shadow or edge,
and a variable's emit (`_emitter`) from its edges' kinds, local relation or
port: one function per structure, each reached through `rel.update` or
`var.emit`.

Wires are resolved at load into ports, each made by the sender of the
quantity it carries: an edge's port for its message, a GIBBS variable's one
value port, and a converging shadow's port for its reader's reply.  A `_Port`
holds its last payload and its destinations, each with its `xy_links`
route as integer link ids (`_link_ids`, one id per mesh link, so wires
crossing one link contend for it).  Every queued event carries its handler
and its payload, and `step` calls the one on the other: an update's payload
is (machine, rel), so no handler or unit holds the machine once the queue
drains; a GIBBS tick queues its own next tick and its value sends.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import mul

from .image import (MachineImage, MAX_UPDATE_CYCLES, DEFAULT_CAPACITIES,
                    gibbs_schedule, gibbs_tick_cost, relation_cost, GIBBS, Capacities,
                    domain, parse_image, shadow_key)
from .records import line_error
from .rng import DRAW_BLOCK, keyed_raw64, keyed_uniform01_block, stream_key


class MachineError(ValueError):
    pass


def _bad(line, message):
    """The load error `message` about an image's record, naming its `line`
    when the record was read from text (None if built in code)."""
    if line is None:
        return MachineError(message)
    return line_error(MachineError, line, message)


# random stream of the output noise; variable streams are their ids
_NOISE_STREAM = (1 << 48) | 1


# ---------------------------------------------------------------------------
# run statistics
# ---------------------------------------------------------------------------

@dataclass
class Stats:
    activations: int = 0
    packets: int = 0
    flush_packets: int = 0
    hops: int = 0
    peak_link_occupancy: int = 0
    cycles: int = 0
    quiescent: bool = False
    # GIBBS draws whose conditional had total weight zero, so the variable
    # kept its value; a diagnostic, in neither text() nor ==
    zero_total_draws: int = field(default=0, compare=False)

    def text(self) -> str:
        # energy formatted from integers so reruns are byte-identical
        tenths = 10 * self.activations + self.hops
        return ("activations=%d\npackets=%d\nflush_packets=%d\nhops=%d\n"
                "peak_link_occupancy=%d\ncycles=%d\nenergy_proxy=%d.%d\n"
                "quiescent=%s\n"
                % (self.activations, self.packets, self.flush_packets,
                   self.hops, self.peak_link_occupancy, self.cycles,
                   tenths // 10, tenths % 10,
                   "true" if self.quiescent else "false"))


# ---------------------------------------------------------------------------
# runtime cell structures
# ---------------------------------------------------------------------------

def xy_links(src, dst):
    """The mesh links of the dimension-order route from cell `src` to cell
    `dst`, both (row, col): along the row to dst's column, then along that
    column, each link a (from, to) pair of neighbouring cells.  A cell's
    route to itself has no mesh link."""
    (r, c), (dr, dc) = src, dst
    sc, sr = (1 if dc > c else -1), (1 if dr > r else -1)
    return (tuple(((r, x), (r, x + sc)) for x in range(c, dc, sc))
            + tuple(((y, dc), (y + sr, dc)) for y in range(r, dr, sr)))


class _Port:
    """One sent quantity and every wire that carries it."""
    __slots__ = ("vid", "dests", "last")

    def __init__(self, vid):
        self.vid = vid
        self.dests = []         # (dst cell, _Shadow or _Edge, hops, route link ids)
        self.last = None        # payload last sent, None before the first


class _Edge:
    """One attachment of a variable to factor `fid`: its message to the
    factor, held in `msg` for a relation in the variable's cell (`rel`), and
    the factor's reply; otherwise `port` carries the message, its `last` the
    one copy, to the shadow of the factor's cell, and the reply back."""
    __slots__ = ("var", "fid", "msg", "reply", "rel", "port")

    def __init__(self, var, fid, uniform):
        self.var = var
        self.fid = fid
        self.msg = self.reply = uniform
        self.rel = self.port = None


class _Var:
    __slots__ = ("cell", "vid", "card", "evidence", "value", "edges",
                 "belief", "port", "counts", "terms", "blanket", "memo", "key",
                 "draws", "refresh", "emit")

    def __init__(self, cell, vid, card, evidence):
        self.cell = cell
        self.vid = vid
        self.card = card
        self.evidence = evidence
        self.value = evidence if evidence is not None else 0
        self.edges = []         # SUMPROD/MINSUM: _Edge per attached factor, fid order
        self.belief = None
        self.port = None        # GIBBS: the _Port of its value, if wired
        self.counts = [0] * card
        self.terms = []         # GIBBS: (table, stride, others) per scope position
        self.blanket = ()       # GIBBS: (object, radix multiplier) per blanket object
        self.memo = {}          # GIBBS: blanket index -> conditional prefix sums
        self.key = None         # GIBBS: key of the variable's random stream
        self.draws = None       # GIBBS: uniforms of the current DRAW_BLOCK ticks
        self.refresh = None     # generated refresh for its card and degree
        self.emit = None        # emit(machine, var, time): `_emitter`'s, or GIBBS `_send_value`


class _Shadow:
    __slots__ = ("vid", "card", "msg", "value", "rel", "port")

    def __init__(self, vid, card, msg):
        self.vid = vid
        self.card = card
        self.msg = msg          # SUMPROD/MINSUM: the variable's message to its reader
        self.value = 0          # GIBBS: the variable's sampled value
        self.rel = None         # SUMPROD/MINSUM: the one _Rel reading it
        self.port = None        # SUMPROD/MINSUM: its reader's reply to the edge


class _Rel:
    __slots__ = ("cell", "fid", "refs", "shape", "strides",
                 "table", "kernel", "update", "cost", "pending")

    def __init__(self, cell, fid, refs, shape, table):
        self.cell = cell
        self.fid = fid
        self.refs = refs        # per scope position: _Edge or _Shadow (GIBBS: _Var or _Shadow)
        self.shape = shape
        self.strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
        self.table = table      # flat tuple of ints, last scope position fastest
        self.kernel = None      # generated kernel in SUMPROD/MINSUM modes
        self.update = None      # its `_update` handler in SUMPROD/MINSUM modes
        self.cost = relation_cost(len(shape))
        self.pending = False


class _Cell:
    __slots__ = ("r", "c", "cid", "vars", "rels", "shadows", "phase", "tick_idx")

    def __init__(self, r, c, cid):
        self.r, self.c, self.cid = r, c, cid
        self.vars = []          # _Var in record order
        self.rels = []          # _Rel in record order
        self.shadows = []       # _Shadow in slot order
        self.phase = None       # GIBBS: its resample phase, None if it never ticks
        self.tick_idx = 0


# ---------------------------------------------------------------------------
# converging paths generated at load
# ---------------------------------------------------------------------------

def _define(lines):
    """Compile generated source lines, over this module's globals, into their one function."""
    namespace = {}
    exec(compile("\n".join(lines) + "\n", "<generated>", "exec"), globals(), namespace)
    return namespace["generated"]


def _unpack(names, source):
    """A line of generated code unpacking `source` into `names`."""
    return "    %s= %s" % ("".join(n + ", " for n in names), source)


def _tuple(items):
    """Code building a tuple of the expressions `items`."""
    return "(%s)" % "".join(n + ", " for n in items)


@functools.lru_cache(maxsize=256)
def _kernel(dom, shape, folds):
    """Generate a converging relation's kernel: kernel(table, *inputs) takes
    the table words and one input vector per scope position and returns the
    normalized message to each position, in position order, as straight-line
    code in domain `dom`.  Element a of the message to position j reduces, in
    table order, one term per table cell t whose value at j is a: word t
    combined with the input of every other position at its value in t, in
    ascending position order.  Each word is bound to a local name, and each
    message is then normalized in place.  `folds` holds per table word the
    word if it is in `dom.folds`, else None: a term on `dom.one` skips its
    combine and one on `dom.lo` drops out (an empty element is `dom.lo`).
    The source is built only from integers and templates."""
    starts = list(itertools.accumulate(shape, initial=0))
    lines = ["def generated(T, %s):" % ", ".join("m%d" % p for p in range(len(shape))),
             _unpack(["t%d" % t for t in range(math.prod(shape))], "T")]
    for p, card in enumerate(shape):
        lines.append(_unpack(["x%d" % (starts[p] + a) for a in range(card)], "m%d" % p))
    cells = list(enumerate(itertools.product(*map(range, shape))))
    outs = []
    for j, card in enumerate(shape):
        names = ["y%d_%d" % (j, a) for a in range(card)]
        for a, name in enumerate(names):
            terms = [functools.reduce(
                lambda u, w: dom.combine.format(a=u, b=w),
                ([] if folds[t] == dom.one and len(shape) > 1 else ["t%d" % t])
                + ["x%d" % (starts[i] + v) for i, v in enumerate(idx) if i != j])
                for t, idx in cells if idx[j] == a and folds[t] != dom.lo]
            lines += dom.reduce(name, terms or ["%d" % dom.lo])
        lines += dom.normalize(names)
        outs.append(_tuple(names))
    lines.append("    return " + _tuple(outs))
    return _define(lines)


@functools.lru_cache(maxsize=256)
def _refresh(dom, card, degree):
    """Generate a variable's refresh: refresh(*messages) takes its degree
    incoming messages in attachment order and returns (the normalized
    outgoing message per attachment, the normalized belief).  Outgoing
    message i combines every incoming message but the i-th, from prefix and
    suffix combinations, and the belief combines them all (uniform if none)."""
    combine = dom.combine
    lines = ["def generated(%s):" % ", ".join("m%d" % i for i in range(degree))]
    msgs = [["m%d_%d" % (i, a) for a in range(card)] for i in range(degree)]
    lines += [_unpack(names, "m%d" % i) for i, names in enumerate(msgs)]

    def emit(name, u, v):
        # None stands for the uniform message, which combines exactly
        if u is None or v is None:
            return v if u is None else u
        names = ["%s_%d" % (name, a) for a in range(card)]
        for n, a, b in zip(names, u, v):
            lines.append("    %s = %s" % (n, combine.format(a=a, b=b)))
        return names

    pre = [None]                    # pre[i] combines messages 0 .. i-1
    for i in range(degree):
        pre.append(emit("p%d" % (i + 1), pre[i], msgs[i]))
    suf = [None] * (degree + 1)     # suf[i] combines messages i .. degree-1
    for i in range(degree - 1, 0, -1):
        suf[i] = emit("q%d" % i, msgs[i], suf[i + 1])
    # every combine is emitted before any vector is normalized in place;
    # the uniform message is a constant and already normalized
    outs = [emit("o%d" % i, pre[i], suf[i + 1]) for i in range(degree)]
    for names in outs + [pre[degree]]:
        if names is not None:
            lines += dom.normalize(names)
    uniform = ["%d" % dom.one] * card
    lines.append("    return %s, %s" % (_tuple(_tuple(names or uniform) for names in outs),
                                        _tuple(pre[degree] or uniform)))
    return _define(lines)


@functools.lru_cache(maxsize=256)
def _update(kinds):
    """Generate the update handler of a converging relation whose scope
    positions have `kinds`: "S" reads a shadow and replies on its port, "E"
    reads and writes an edge in the relation's cell.  update((machine, rel),
    time) runs rel.kernel, perturbs each message in position order under
    noise_lsbs, counts the activation and writes the UPDATE row; then, at
    time + rel.cost, it gates each shadow's reply on its port, or writes a
    changed edge reply and emits the edge's variable, position by position."""
    r, y = ["r%d" % p for p in range(len(kinds))], ["y%d" % p for p in range(len(kinds))]
    lines = ["def generated(payload, time):", "    machine, rel = payload",
             "    rel.pending = False", _unpack(r, "rel.refs"),
             _unpack(y, "rel.kernel(rel.table, %s)" % ", ".join(n + ".msg" for n in r)),
             "    if machine.noise_lsbs:",
             "    " + _unpack(y, _tuple("machine._apply_noise(%s)" % n for n in y)),
             "    cell = rel.cell", "    machine.stats.activations += 1",
             "    if machine.trace is not None:",
             "        machine._trace(time, cell, 'UPDATE', rel.fid, rel.cost)",
             "    time += rel.cost"]
    for kind, rp, yp in zip(kinds, r, y):
        lines += (["    machine._gate_send(%s.port, %s, time, cell)" % (rp, yp)] if kind == "S"
                  else ["    if %s.reply != %s:" % (rp, yp), "        %s.reply = %s" % (rp, yp),
                        "        %s.var.emit(machine, %s.var, time)" % (rp, rp)])
    return _define(lines)


@functools.lru_cache(maxsize=256)
def _emitter(kinds):
    """Generate the emit of a converging variable whose edges have `kinds`:
    "L" for a relation in its cell, "P" for a port.  emit(machine, var,
    time) sets the belief and outgoing messages, by var.refresh from the
    edges' replies or as the domain's evidence indicator, then per edge
    writes a changed message and pends the edge's relation, or gates the
    message on the edge's port, which keeps the last one sent."""
    e, o = ["e%d" % i for i in range(len(kinds))], ["o%d" % i for i in range(len(kinds))]
    lines = ["def generated(machine, var, time):", _unpack(e, "var.edges") if e else "",
             "    if var.evidence is None:", "        %s, var.belief = var.refresh(%s)"
             % (_tuple(o), ", ".join(n + ".reply" for n in e)), "    else:",
             "        var.belief = %smachine.dom.indicator(var.card, var.evidence)"
             % "".join(n + " = " for n in o), "    cell = var.cell"]
    for kind, edge, out in zip(kinds, e, o):
        lines += (["    if %s.msg != %s:" % (edge, out), "        %s.msg = %s" % (edge, out),
                   "        machine._pend_exec(%s.rel, time)" % edge] if kind == "L" else
                  ["    machine._gate_send(%s.port, %s, time, cell)" % (edge, out)])
    return _define(lines)


def _send_value(machine, var, time):
    """A GIBBS variable's emit: its bare value, if wired, to its port's gate."""
    if var.port is not None:
        machine._gate_send(var.port, var.value, time, var.cell)


@functools.lru_cache(maxsize=256)
def _reader(gibbs, cards):
    """Generate an assignment reader: generated(*variables) binds one
    variable per entry of `cards`, their cardinalities, and returns read(),
    which gives the tuple of their answers in order: the sampled value in
    GIBBS, else the belief's first maximal word by straight-line
    comparisons, so ties go to the lowest value."""
    lines = ["def generated(%s):" % ", ".join("v%d" % i for i in range(len(cards))),
             "    def read():"]
    for i, card in enumerate(cards):
        if gibbs:
            lines.append("        a%d = v%d.value" % (i, i))
            continue
        lines += ["    " + _unpack(["w%d" % a for a in range(card)], "v%d.belief" % i),
                  "        a%d, m = 0, w0" % i]
        lines += ["        if w%d > m: a%d, m = %d, w%d" % (a, i, a, a) for a in range(1, card)]
    lines += ["        return %s" % _tuple("a%d" % i for i in range(len(cards))),
              "    return read"]
    return _define(lines)


def _prefix_sums(var):
    """Prefix sums of a GIBBS variable's conditional at the current values of
    its blanket: the product of its terms' table slices, uniform if none."""
    card = var.card
    cond = None
    for tbl, sv, others in var.terms:
        base = sum(obj.value * st for obj, st in others)
        row = tbl[base:base + card * sv:sv]
        cond = row if cond is None else list(map(mul, cond, row))
    return list(itertools.accumulate(cond or (1,) * card))


# a GIBBS cell's tick, one _TICK_VAR block per variable in record order
_TICK = """\
def generated(machine, cell, period{params}):
    cid, heappush = cell.cid, heapq.heappush
    def tick(this, time):
        j = cell.tick_idx % {block}
        traced = machine.trace is not None
        heap, send = machine._heap, machine._on_send
        activations = 0
{variables}        machine.stats.activations += activations
        cell.tick_idx = k = cell.tick_idx + 1
        if machine.tick_budget is None or k < machine.tick_budget:
            machine._seq = s = machine._seq + 1
            heappush(heap, (time + period, cid, s, this, this))
    return tick
"""
_TICK_VAR = """\
        if v{i}.evidence is None:
            if not j: v{i}.draws = keyed_uniform01_block(v{i}.key, cell.tick_idx, {block})
            activations += {terms}
            try:
                prefix = memo{i}[{index}]
            except KeyError:
                prefix = memo{i}[{index}] = _prefix_sums(v{i})
            if prefix[-1] > 0:
                val = bisect_right(prefix, v{i}.draws[j] * prefix[-1], 0, {hi})
                if val != v{i}.value:
                    v{i}.value = val
                    if port{i} is not None:
                        port{i}.last = val
                        machine._seq = s = machine._seq + 1
                        heappush(heap, (time + {cost}, cid, s, send, (cell, port{i}, val, False)))
            else:
                machine.stats.zero_total_draws += 1
        counts{i}[v{i}.value] += 1
        if traced: machine._trace(time, cell, "SAMPLE", v{i}.vid, v{i}.value)
"""


@functools.lru_cache(maxsize=256)
def _tick(structure):
    """Generate the tick of a GIBBS cell whose variables have `structure`,
    per variable in record order (cardinality, number of terms, blanket
    radix multipliers): generated(machine, cell, period, *bindings) takes
    per variable the variable, its memo, count row, value port and blanket
    objects, and returns the cell's handler tick(this, time), queued as its
    own payload `this` so that no cycle holds the machine once ticks stop.
    A tick resamples the free variables in record order: the draw for tick
    k (cell.tick_idx, counted across runs) is keyed_uniform01(var.key, k),
    var.key being stream_key(seed, vid), hashed DRAW_BLOCK ticks at a time,
    times the total of the conditional, the product of the terms' table
    slices at the blanket's values; it picks the first value whose prefix
    sum exceeds it.  Tables never change, so the prefix sums are memoized by
    the blanket's mixed-radix index.  A changed value is sent at once, ready
    when the whole tick's cost has passed; a port's last packet is always
    its variable's value (`_init_flush` sent the first), so `_gate_send`
    would pass every such send, none a flush, and the tick queues it, and
    its own next tick, on the heap itself, as `_push` would.  Evidence is
    tested on every tick, as an injection can clamp a variable mid-run, and
    the machine's _heap, _seq, _on_send and _trace are looked up when
    called, so wrappers on the instance still see every send."""
    cost = gibbs_tick_cost(terms for _card, terms, _radix in structure)
    params, variables = [], []
    for i, (card, terms, radix) in enumerate(structure):
        blanket = ["b%d_%d" % (i, b) for b in range(len(radix))]
        params += ["v%d" % i, "memo%d" % i, "counts%d" % i, "port%d" % i] + blanket
        index = " + ".join("%s.value%s" % (b, " * %d" % m if m > 1 else "")
                           for b, m in zip(blanket, radix)) or "0"
        variables.append(_TICK_VAR.format(i=i, block=DRAW_BLOCK, terms=terms, index=index,
                                          hi=card - 1, cost=cost))
    return _define([_TICK.format(params="".join(", " + p for p in params), block=DRAW_BLOCK,
                                 variables="".join(variables))])


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------

class Machine:
    """Event-driven simulator over a loaded machine image."""

    def __init__(self, image: MachineImage, capacities: Capacities = DEFAULT_CAPACITIES,
                 trace: bool = False, noise_lsbs: int = 0):
        if isinstance(image, str):
            image = parse_image(image)
        self.mode = image.mode
        self.seed = image.seed
        self.dom = domain(image.mode, MachineError)
        self.stats = Stats()
        self.trace = [] if trace else None
        if noise_lsbs < 0:
            raise MachineError("noise_lsbs must be >= 0, got %d" % noise_lsbs)
        if noise_lsbs and self.mode == GIBBS:
            raise MachineError("a GIBBS machine takes no output noise, got %d" % noise_lsbs)
        self.noise_lsbs = noise_lsbs
        self._noise_key = stream_key(image.seed, _NOISE_STREAM)
        self._noise_ctr = 0
        self._heap = []
        self._seq = 0
        self.time = 0
        self._link_ids = {}     # route link -> its id, in first-seen order
        self._links = {}        # route link id -> next free cycle
        self.tick_budget = None  # GIBBS: ticks per cell of a run_ticks run
        self._build(image, capacities)
        self._init_flush()

    # -- construction -------------------------------------------------------

    def _build(self, image, cap):
        R, C = image.grid
        if R < 1 or C < 1:
            raise MachineError("grid dimensions must be positive")
        self.cells = {}
        self.var_owner = {}
        dom = self.dom
        # one packet gate for every converging cell; a GIBBS cell sends a
        # value whenever it changes
        thresh, line = image.thresh, image.lines.get("THRESH")
        if self.mode == GIBBS and thresh is not None:
            raise _bad(line, "a GIBBS machine takes no THRESH")
        if thresh is not None and thresh < 0:
            raise _bad(line, "threshold must be >= 0, got %d" % thresh)
        self.thresh = None if self.mode == GIBBS else dom.thresh if thresh is None else thresh
        # a shadow may read a variable of a later cell, so every cell's
        # variables exist before any cell's shadows
        for coord, ci in sorted(image.cells.items()):
            if not (0 <= coord[0] < R and 0 <= coord[1] < C):
                raise _bad(ci.line, "cell (%d, %d) outside grid" % coord)
            cell = _Cell(*coord, coord[0] * C + coord[1])
            self.cells[coord] = cell
            if len(ci.var_slots) > cap.var_slots:
                raise _bad(ci.line, "cell (%d, %d): too many variable slots" % coord)
            for vs in ci.var_slots:
                if vs.card > cap.max_cardinality:
                    raise _bad(vs.line, "variable %d: cardinality above limit" % vs.var_id)
                if vs.card < 2:
                    raise _bad(vs.line, "variable %d: cardinality below 2" % vs.var_id)
                if vs.evidence is not None and not 0 <= vs.evidence < vs.card:
                    raise _bad(vs.line, "variable %d: evidence out of range" % vs.var_id)
                if vs.var_id in self.var_owner:
                    raise _bad(vs.line, "variable %d owned by two cells" % vs.var_id)
                var = _Var(cell, vs.var_id, vs.card, vs.evidence)
                cell.vars.append(var)
                self.var_owner[vs.var_id] = var
            for rs in ci.rel_slots:     # `image.wires` reads every scope
                if not all(type(vid) is int for vid in rs.scope):
                    raise _bad(rs.line, "relation %d: a scope entry is no variable id"
                                        % rs.factor_id)
        wires = image.wires
        # every wire, a return wire too, lands in a shadow register of its dst
        registers = collections.Counter(w.dst for w in wires)
        fids = set()            # (cell id in GIBBS else None, factor id)
        # the period every ticking cell shares, and their phases
        self.period, phases = gibbs_schedule(image, wires) if self.mode == GIBBS else (None, {})
        for coord, ci in sorted(image.cells.items()):
            cell = self.cells[coord]
            cell.phase = phases.get(coord)
            if registers[coord] > cap.shadow_slots:
                raise _bad(ci.line, "cell (%d, %d): too many shadow slots, return "
                                    "wires included" % coord)
            if len(ci.rel_slots) > cap.rel_slots:
                raise _bad(ci.line, "cell (%d, %d): too many relation slots" % coord)
            shadows = {}
            for key, rs in ci.shadow_keys(self.mode).items():
                owner = self.var_owner.get(key[0])
                if owner is None:
                    raise _bad(rs.line, "relation %d reads variable %d, which no cell owns"
                                        % (rs.factor_id, key[0]))
                shadows[key] = _Shadow(key[0], owner.card, None if self.mode == GIBBS
                                       else dom.uniform(owner.card))
            cell.shadows = list(shadows.values())
            local = {var.vid: var for var in cell.vars}
            words = 0
            for rs in ci.rel_slots:
                twice = [vid for vid in rs.scope if rs.scope.count(vid) > 1]
                if twice:
                    raise _bad(rs.line, "relation %d binds variable %d at two scope positions"
                                        % (rs.factor_id, twice[0]))
                refs = [local[vid] if vid in local
                        else shadows[shadow_key(self.mode, vid, rs.factor_id)]
                        for vid in rs.scope]
                if not refs:
                    raise _bad(rs.line, "relation %d has no scope position" % rs.factor_id)
                shape = tuple(obj.card for obj in refs)
                size = math.prod(shape)
                if size != len(rs.table):
                    raise _bad(rs.line, "relation %d: table has %d words, scope needs %d"
                                        % (rs.factor_id, len(rs.table), size))
                if min(rs.table) < dom.lo or max(rs.table) > dom.hi:
                    raise _bad(rs.line, "relation %d: table word outside [%d, %d]"
                                        % (rs.factor_id, dom.lo, dom.hi))
                words += len(rs.table)
                rel = _Rel(cell, rs.factor_id, refs, shape, tuple(rs.table))
                if self.mode != GIBBS:
                    if rel.cost > MAX_UPDATE_CYCLES:
                        raise _bad(rs.line, "relation %d: an update of %d scope positions "
                                            "costs %d cycles, above %d" % (
                                                rel.fid, len(shape), rel.cost,
                                                MAX_UPDATE_CYCLES))
                    folds = tuple(w if w in dom.folds else None for w in rel.table)
                    # a dense table's maximum folds too: fold only tables mostly of such words
                    rel.kernel = _kernel(dom, shape, folds if 2 * folds.count(None) < len(folds)
                                         else (None,) * len(folds))
                    rel.update = _update("".join("S" if type(o) is _Shadow else "E"
                                                 for o in refs))
                # a factor id names one relation, or one per cell in GIBBS
                owner = cell.cid if self.mode == GIBBS else None
                if (owner, rel.fid) in fids:
                    raise _bad(rs.line, "cell (%d, %d): factor id %d names a second "
                                        "relation" % (coord + (rel.fid,)))
                fids.add((owner, rel.fid))
                cell.rels.append(rel)
                for pos, obj in enumerate(refs):
                    if self.mode == GIBBS:
                        if type(obj) is _Var:
                            # the table slice along pos at the other positions' values
                            others = tuple((o, rel.strides[q])
                                           for q, o in enumerate(refs) if q != pos)
                            obj.terms.append((rel.table, rel.strides[pos], others))
                    elif type(obj) is _Shadow:
                        # a converging shadow is one edge, of its one reader
                        obj.rel = rel
                    else:
                        # the relation shares the variable's cell: it reads
                        # and writes their edge directly
                        refs[pos] = edge = _Edge(obj, rel.fid, dom.uniform(obj.card))
                        edge.rel = rel
                        obj.edges.append(edge)
            if words > cap.table_words:
                raise _bad(ci.line, "cell (%d, %d): table memory over capacity" % coord)
            if self.mode == GIBBS:
                for var in cell.vars:
                    var.key = stream_key(self.seed, var.vid)
                    # the blanket state is a mixed-radix index over the
                    # distinct objects the terms read
                    objs = list(dict.fromkeys(o for _t, _s, others in var.terms
                                              for o, _st in others))
                    var.blanket = list(zip(objs, itertools.accumulate(
                        [1] + [o.card for o in objs], mul)))

        # one wire per shadow slot from its variable's cell, a destination of
        # the port its sender makes for the quantity it carries; a converging
        # one's return wire follows it and ends at its edge
        for w in wires:
            dst = self.cells[w.dst]
            if w.back:
                port = self.cells[w.src].shadows[w.slot].port = _Port(w.var_id)
                target = edge
            else:
                target = shadow = dst.shadows[w.slot]
                owner = self.var_owner[w.var_id]
                if self.mode == GIBBS:
                    port = owner.port = owner.port or _Port(w.var_id)
                else:
                    edge = _Edge(owner, shadow.rel.fid, dom.uniform(owner.card))
                    port = edge.port = _Port(w.var_id)
                    owner.edges.append(edge)
            links = xy_links(w.src, w.dst)
            ids = tuple(self._link_ids.setdefault(link, len(self._link_ids)) for link in links)
            port.dests.append((dst, target, len(links), ids))

        for var in self.var_owner.values():
            var.edges.sort(key=lambda e: e.fid)
            if self.mode == GIBBS:
                var.emit = _send_value
            else:
                var.refresh = _refresh(dom, var.card, len(var.edges))
                var.emit = _emitter("".join("L" if e.rel else "P" for e in var.edges))

    # -- event plumbing -----------------------------------------------------

    def _push(self, time, cell, handler, payload):
        """Queue the call handler(payload, time) at cycle `time` in `cell`."""
        self._seq += 1
        heapq.heappush(self._heap, (time, cell.cid, self._seq, handler, payload))

    def _pend_exec(self, rel, time):
        """Queue rel's `_update` handler, payload (this machine, rel), unless pending."""
        if not rel.pending:
            rel.pending = True
            self._push(time, rel.cell, rel.update, (self, rel))

    def _tick_handler(self, cell):
        """A GIBBS cell's tick handler: its `_tick`, bound to it and this machine."""
        bindings = [x for v in cell.vars
                    for x in [v, v.memo, v.counts, v.port] + [o for o, _m in v.blanket]]
        return _tick(tuple((v.card, len(v.terms), tuple(m for _o, m in v.blanket))
                           for v in cell.vars))(self, cell, self.period, *bindings)

    def _trace(self, cycle, cell, event, vid, detail):
        self.trace.append("%d,%d,%d,%s,%d,%s" % (cycle, cell.r, cell.c, event, vid, detail))

    def _init_flush(self):
        """Startup: publish every variable's initial message/value (a port
        that has sent nothing sends its first packet), then run every relation
        once.  Work within a cell is serialized, so later units start after
        the cycles charged to earlier ones."""
        for _coord, cell in sorted(self.cells.items()):
            lat = 0
            for var in cell.vars:
                if var.evidence is not None and self.trace is not None:
                    self._trace(0, cell, "CLAMP", var.vid, var.evidence)
                var.emit(self, var, lat)
                lat += 1
            if self.mode != GIBBS:
                for rel in cell.rels:
                    self._pend_exec(rel, lat)
                    lat += rel.cost
            elif cell.phase is not None:
                tick = self._tick_handler(cell)
                self._push(self.period + cell.phase, cell, tick, tick)

    def step(self) -> bool:
        """Process the single globally next event.  False when idle."""
        if not self._heap:
            return False
        time, _cid, _seq, handler, payload = heapq.heappop(self._heap)
        self.time = time
        handler(payload, time)
        return True

    def run_until_quiescent(self, max_cycles: int = 100000):
        """Drain the event queue; give up past max_cycles (returns False)."""
        if max_cycles < 0:
            raise MachineError("max_cycles must be >= 0, got %d" % max_cycles)
        heap, step = self._heap, self.step
        while heap and heap[0][0] <= max_cycles:
            step()
        self.stats.quiescent = quiescent = not heap
        self.stats.cycles = self.time if quiescent else max_cycles
        return self.stats, quiescent

    def run_ticks(self, ticks: int):
        """GIBBS: run until every variable-owning cell resampled `ticks` times.

        Only once per machine: a cell that has ticked, in an earlier
        run_ticks or a run_until_quiescent, is an error."""
        if self.mode != GIBBS:
            raise MachineError("tick-bounded runs only apply to GIBBS mode")
        if ticks < 1:
            raise MachineError("tick count must be at least 1, got %d" % ticks)
        for coord, cell in sorted(self.cells.items()):
            if cell.tick_idx:
                # after a run_ticks the queue holds no tick to continue
                # from, and after a run_until_quiescent the budget would
                # count ticks already taken
                raise MachineError("cell (%d, %d) has already ticked %d times; "
                                   "run_ticks needs a machine that has not "
                                   "ticked" % (coord + (cell.tick_idx,)))
        self.tick_budget = ticks
        heap, step = self._heap, self.step
        while heap:
            step()
        self.stats.quiescent = False
        self.stats.cycles = self.time
        return self.stats

    # -- event handlers -----------------------------------------------------

    def _gate_send(self, port, payload, time, cell):
        """Send `payload` on `port`, from `cell`, unless the port's first
        packet has gone and the machine's gate holds it back: in GIBBS (no
        threshold) a value goes only when it changed, and otherwise a message
        only when some word moved by at least the machine's threshold.  Every
        emit and every `_update` handler's shadow reply passes this gate."""
        last = port.last
        if last is not None:
            thresh = self.thresh
            if thresh is None:
                if payload == last:
                    return
            elif thresh > 0:
                if max(abs(a - b) for a, b in zip(payload, last)) < thresh:
                    return
        port.last = payload
        self._push(time, cell, self._on_send, (cell, port, payload, last is None))

    def _on_send(self, payload, time):
        cell, port, value, flush = payload
        stats, vid = self.stats, port.vid
        for dst, target, hops, links in port.dests:
            arrival = self._route(links, time)
            stats.packets += 1
            stats.flush_packets += flush
            stats.hops += hops
            if self.trace is not None:
                self._trace(time, cell, "SEND", vid, hops)
            self._push(arrival, dst, self._on_deliver, (dst, target, vid, value, hops))

    def _route(self, links, time):
        """Reserve a packet's route links in order, one packet per link per
        cycle, from cycle `time`; returns its arrival cycle.  A port's routes
        name each link by its id in `_link_ids`, so a hop hashes an int."""
        t, free_at = time, self._links
        for link in links:
            free = free_at.get(link, 0)
            depart = free if free > t else t
            wait = depart - t
            if wait + 1 > self.stats.peak_link_occupancy:
                self.stats.peak_link_occupancy = wait + 1
            free_at[link] = t = depart + 1
        return t

    def _on_deliver(self, payload, time):
        cell, target, vid, value, hops = payload
        if self.trace is not None:
            self._trace(time, cell, "DELIVER", vid, hops)
        if self.mode == GIBBS:
            # a value into its shadow, the only GIBBS target
            target.value = value
        elif type(target) is _Edge:
            # a remote relation's reply to the variable
            if target.reply != value:
                target.reply = value
                target.var.emit(self, target.var, time)
        elif target.msg != value:
            # a variable's message into its shadow, which has one reader
            target.msg = value
            self._pend_exec(target.rel, time)

    def _on_inject(self, payload, time):
        var, value = payload
        var.evidence = var.value = value
        if self.trace is not None:
            self._trace(time, var.cell, "CLAMP", var.vid, value)
        var.emit(self, var, time)

    # -- output noise ---------------------------------------------------------

    def _apply_noise(self, vec):
        span, lo, hi = 2 * self.noise_lsbs + 1, self.dom.lo, self.dom.hi
        out = []
        for v in vec:
            self._noise_ctr += 1
            v += keyed_raw64(self._noise_key, self._noise_ctr) % span - self.noise_lsbs
            out.append(lo if v < lo else hi if v > hi else v)
        return tuple(out)

    # -- external surface ----------------------------------------------------

    def _var(self, vid):
        """The variable `vid`; MachineError if no cell owns it."""
        var = self.var_owner.get(vid)
        if var is None:
            raise MachineError("unknown variable %d" % vid)
        return var

    def inject_evidence(self, vid: int, value: int, at_time: int = 0):
        var = self._var(vid)
        if not (0 <= value < var.card):
            raise MachineError("value %d outside domain of variable %d" % (value, vid))
        if at_time < self.time:
            raise MachineError("cannot inject evidence at cycle %d: the machine "
                               "is already at cycle %d" % (at_time, self.time))
        self._push(at_time, var.cell, self._on_inject, (var, value))

    def read_beliefs(self):
        """Dequantized per-variable beliefs plus argmax assignment.

        GIBBS mode reports empirical tick frequencies as beliefs and the
        current sampled state as the assignment.  A belief whose words all
        stand for weight zero (the domain's `lo`), or a GIBBS variable with
        no samples yet, raises MachineError naming the variable, because no
        distribution can be read from it."""
        beliefs = {}
        for vid in sorted(self.var_owner):
            var = self.var_owner[vid]
            if self.mode == GIBBS:
                total = sum(var.counts)
                if total == 0:
                    raise MachineError("variable %d: no samples yet (run at least "
                                       "one tick before reading beliefs)" % vid)
                beliefs[vid] = [c / total for c in var.counts]
            else:
                if max(var.belief) == self.dom.lo:
                    raise MachineError("variable %d: belief collapsed to all zeros "
                                       "(contradictory evidence or underflow)" % vid)
                vec = self.dom.weights(var.belief)
                s = sum(vec)
                beliefs[vid] = [x / s for x in vec]
        return beliefs, self.read_assignment()

    def read_assignment(self):
        """Per-variable argmax (or the sampled value in GIBBS mode), without
        the float belief conversion.  A poller that reads some variables
        every cycle takes an `assignment_reader` instead."""
        if self.mode == GIBBS:
            return {vid: var.value for vid, var in self.var_owner.items()}
        # index() finds the first maximal word, so ties go to the lowest value
        return {vid: var.belief.index(max(var.belief))
                for vid, var in self.var_owner.items()}

    def assignment_reader(self, vids):
        """A zero-argument function giving the tuple of `read_assignment`'s
        answers for `vids`, in order: straight-line code generated for the
        mode and their cardinalities (`_reader`), bound to their variables
        once."""
        variables = [self._var(vid) for vid in vids]
        return _reader(self.mode == GIBBS, tuple(v.card for v in variables))(*variables)

    def verify_quiescent(self):
        """Recompute everything and measure drift against stored copies.

        Returns {"local": d1, "remote": d2}: the largest deviation between a
        recomputed message and (local) what its consumer holds, or (remote)
        what its port last sent.  At quiescence local must be 0 and remote
        below the machine's threshold.  Recomputed messages carry no output
        noise, and the check draws nothing from the noise stream, so a run
        continued after it is the run it would have been.  GIBBS machines
        never quiesce and compute no messages, so asking one raises
        MachineError."""
        if self.mode == GIBBS:
            raise MachineError("quiescence only applies to SUMPROD and MINSUM modes")
        local, remote = [], []  # (recomputed, held) and (recomputed, last sent) pairs
        for cell in self.cells.values():
            for var in cell.vars:
                replies = [edge.reply for edge in var.edges]
                outs = (var.refresh(*replies)[0] if var.evidence is None else
                        (self.dom.indicator(var.card, var.evidence),) * len(replies))
                for edge, new in zip(var.edges, outs):
                    # the first emit sent every port's first message
                    if edge.rel is not None:
                        local.append((new, edge.msg))
                    else:
                        remote.append((new, edge.port.last))
            for rel in cell.rels:
                msgs = rel.kernel(rel.table, *[ref.msg for ref in rel.refs])
                for ref, payload in zip(rel.refs, msgs):
                    if type(ref) is _Edge:
                        local.append((payload, ref.reply))
                    elif ref.port.last is not None:
                        remote.append((payload, ref.port.last))
        return {name: max((abs(a - b) for new, old in pairs for a, b in zip(new, old)),
                          default=0)
                for name, pairs in (("local", local), ("remote", remote))}

    def trace_text(self) -> str:
        if self.trace is None:
            raise MachineError("tracing was not enabled")
        return "cycle,cell_row,cell_col,event,var_id,detail\n" + \
            "".join(row + "\n" for row in self.trace)
