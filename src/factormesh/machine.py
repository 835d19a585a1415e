"""Discrete-event simulation of the message-passing cell grid.

A Machine is built from a MachineImage.  Each cell owns variable slots
(registers holding per-relation outgoing messages and a combined belief),
relation slots (micro-programmed table units), and shadow slots (local copies
of remote quantities kept fresh by routed packets).  Execution is fully
event-driven: a write that actually changes a stored value triggers the units
reading it, and recomputed messages are re-transmitted only when they moved by
at least the cell's change threshold.  Event order is the total order
(time, row-major cell id, sequence number), which makes runs bit-reproducible.

In SUMPROD/MINSUM modes the machine settles to quiescence (empty queue).  In
GIBBS mode each cell periodically resamples its variables from the fixed-point
conditionals given shadowed neighbor values and never quiesces on its own; the
relation programs, lowered at load into per-variable terms, define those
conditionals.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import mul

from . import fixedpoint as fp
from .image import (MachineImage, MAX_PROGRAM_OPS, DEFAULT_CAPACITIES,
                    DEFAULT_THRESH_LINEAR, DEFAULT_THRESH_LOG, gibbs_var_cost,
                    SUMPROD, MINSUM, GIBBS, VTOF, FTOV, VALUE,
                    Capacities, parse_image)
from .rng import keyed_raw64, keyed_uniform01, stream_key


class MachineError(ValueError):
    pass


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

    def energy_proxy(self) -> float:
        return self.activations + 0.1 * self.hops

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

class _Var:
    __slots__ = ("cell", "slot", "vid", "card", "evidence", "value",
                 "in_msgs", "out_msgs", "belief", "attached", "local_rels",
                 "counts", "terms", "key")

    def __init__(self, cell, slot, vid, card, evidence):
        self.cell = cell
        self.slot = slot
        self.vid = vid
        self.card = card
        self.evidence = evidence
        self.value = evidence if evidence is not None else 0
        self.in_msgs = {}       # fid -> message tuple
        self.out_msgs = {}      # fid -> message tuple
        self.belief = None
        self.attached = []      # sorted fids
        self.local_rels = {}    # fid -> _Rel in the same cell
        self.counts = [0] * card
        self.terms = []         # GIBBS: (table, stride, others) per MUL COND
        self.key = None         # GIBBS: key of the variable's random stream


class _Shadow:
    __slots__ = ("cell", "slot", "vid", "card", "src", "role", "fid",
                 "data", "value", "consumers", "wired")

    def __init__(self, cell, slot, vid, card, src, role, fid):
        self.cell = cell
        self.slot = slot
        self.vid = vid
        self.card = card
        self.src = src
        self.role = role
        self.fid = fid
        self.data = None        # message tuple (VTOF / FTOV)
        self.value = 0          # domain value (VALUE)
        self.consumers = []     # rels reading this slot
        self.wired = False


class _Kernel:
    """A converging relation program lowered for one scope shape.

    `outputs` holds one (j, groups) per `NORMALIZE OUT<j>`, in program
    order, with one group per element of the emitted vector.  A group lists
    the terms reduced into that element; a term (t, offsets) is table word t
    combined, in program order, with the input words at `offsets` in the
    concatenation of the scope's input vectors.  The terms depend only on
    the shape and the ops, not on the table, so relations that share both
    share one kernel."""

    __slots__ = ("outputs", "combine", "reduce")

    def __init__(self, outputs, linear):
        self.outputs = outputs
        self.combine = fp.mul_u16 if linear else fp.sat_add
        self.reduce = sum if linear else max

    def run(self, table, x):
        """Unnormalized (j, vector) per output for table words and inputs x."""
        combine = self.combine
        reduce = self.reduce
        outs = []
        for j, groups in self.outputs:
            vec = []
            for group in groups:
                vals = []
                for t, offsets in group:
                    v = table[t]
                    for i in offsets:
                        v = combine(v, x[i])
                    vals.append(v)
                vec.append(reduce(vals))
            outs.append((j, vec))
        return outs


class _Rel:
    __slots__ = ("cell", "slot", "fid", "refs", "shape", "strides",
                 "table", "prog", "kernel", "cost", "pending", "out_vids")

    def __init__(self, cell, slot, fid, refs, shape, table, prog):
        self.cell = cell
        self.slot = slot
        self.fid = fid
        self.refs = refs        # per scope position: ("v", _Var) or ("h", _Shadow)
        self.shape = shape
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        self.strides = strides
        self.table = table      # flat tuple of ints, last scope position fastest
        self.prog = prog
        self.kernel = None      # _Kernel in SUMPROD/MINSUM modes
        self.cost = max(1, len(prog))
        self.pending = False
        self.out_vids = [r[1].vid for r in refs]


class _Cell:
    __slots__ = ("r", "c", "cid", "vars", "rels", "shadows", "thresh",
                 "period", "phase", "tick_idx", "tick_budget", "tick_cost")

    def __init__(self, r, c, cid):
        self.r = r
        self.c = c
        self.cid = cid
        self.vars = []          # _Var in slot order
        self.rels = []          # _Rel in slot order
        self.shadows = {}       # slot -> _Shadow
        self.thresh = None
        self.period = None
        self.phase = 0
        self.tick_idx = 0
        self.tick_budget = None
        self.tick_cost = 0


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------

class Machine:
    """Event-driven simulator over a loaded machine image."""

    def __init__(self, image: MachineImage, capacities: Capacities = DEFAULT_CAPACITIES,
                 trace: bool = False, noise_lsbs: int = 0):
        if isinstance(image, str):
            image = parse_image(image)
        self.image = image
        self.mode = image.mode
        self.seed = image.seed
        self.grid = image.grid
        self.linear = image.mode != MINSUM
        self.stats = Stats()
        self.trace = [] if trace else None
        self.noise_lsbs = noise_lsbs
        self._noise_key = stream_key(image.seed, _NOISE_STREAM)
        self._noise_ctr = 0
        self._heap = []
        self._seq = 0
        self.time = 0
        self._links = {}        # (r, c, dir) -> next free cycle
        self._build(image, capacities)
        self._init_flush()

    # -- construction -------------------------------------------------------

    def _build(self, image, cap):
        R, C = image.grid
        self.cells = {}
        self.var_owner = {}
        default_thresh = DEFAULT_THRESH_LINEAR if self.linear else DEFAULT_THRESH_LOG
        if self.linear:
            word_lo, word_hi = 0, fp.U16_MAX
        else:
            word_lo, word_hi = fp.Q88_MIN, fp.Q88_MAX
        kernels = {}            # (shape, program) -> _Kernel
        for coord, ci in sorted(image.cells.items()):
            cell = _Cell(ci.r, ci.c, ci.r * C + ci.c)
            self.cells[coord] = cell
            cell.thresh = ci.thresh if ci.thresh is not None else default_thresh
            cell.period = ci.gibbs_period
            cell.phase = ci.gibbs_phase or 0
            if len(ci.var_slots) > cap.var_slots:
                raise MachineError("cell (%d, %d): too many variable slots" % coord)
            if len(ci.shadow_slots) > cap.shadow_slots:
                raise MachineError("cell (%d, %d): too many shadow slots" % coord)
            if len(ci.rel_slots) > cap.rel_slots:
                raise MachineError("cell (%d, %d): too many relation slots" % coord)
            vslots = {}
            hslots = {}
            for vs in sorted(ci.var_slots, key=lambda s: s.slot):
                if vs.card > cap.max_cardinality:
                    raise MachineError("variable %d: cardinality above limit" % vs.var_id)
                if vs.var_id in self.var_owner:
                    raise MachineError("variable %d owned by two cells" % vs.var_id)
                if vs.slot in vslots:
                    raise MachineError("cell (%d, %d): duplicate variable slot %d"
                                       % (ci.r, ci.c, vs.slot))
                var = _Var(cell, vs.slot, vs.var_id, vs.card, vs.evidence)
                vslots[vs.slot] = ("v", var)
                cell.vars.append(var)
                self.var_owner[vs.var_id] = var
            for sh in sorted(ci.shadow_slots, key=lambda s: s.slot):
                if sh.slot in hslots:
                    raise MachineError("cell (%d, %d): duplicate shadow slot %d"
                                       % (ci.r, ci.c, sh.slot))
                if sh.card > cap.max_cardinality:
                    raise MachineError("shadow of %d: cardinality above limit" % sh.var_id)
                shadow = _Shadow(cell, sh.slot, sh.var_id, sh.card,
                                 sh.src, sh.role, sh.fid)
                if self.linear:
                    shadow.data = (fp.U16_MAX,) * sh.card
                else:
                    shadow.data = (0,) * sh.card
                hslots[sh.slot] = ("h", shadow)
                cell.shadows[sh.slot] = shadow
            words = 0
            for rs in sorted(ci.rel_slots, key=lambda s: s.slot):
                refs = []
                for kind, sl in rs.scope_refs:
                    if kind == "V":
                        ent = vslots.get(sl)
                        if ent is None:
                            raise MachineError("relation %d: dangling variable slot V%d"
                                               % (rs.factor_id, sl))
                    else:
                        ent = hslots.get(sl)
                        if ent is None:
                            raise MachineError("relation %d: dangling shadow slot H%d"
                                               % (rs.factor_id, sl))
                    refs.append(ent)
                shape = tuple(r[1].card for r in refs)
                size = 1
                for c in shape:
                    size *= c
                if size != len(rs.table):
                    raise MachineError("relation %d: table has %d words, scope needs %d"
                                       % (rs.factor_id, len(rs.table), size))
                if min(rs.table) < word_lo or max(rs.table) > word_hi:
                    raise MachineError("relation %d: table word outside [%d, %d]"
                                       % (rs.factor_id, word_lo, word_hi))
                words += len(rs.table)
                if len(rs.prog) > MAX_PROGRAM_OPS:
                    raise MachineError("relation %d: program too long" % rs.factor_id)
                rel = _Rel(cell, rs.slot, rs.factor_id, refs, shape,
                           tuple(rs.table), list(rs.prog))
                cell.rels.append(rel)
                for kind, obj in refs:
                    if kind == "h":
                        obj.consumers.append(rel)
                self._check_program(rel)
                if self.mode != GIBBS:
                    key = (shape, tuple(rel.prog))
                    rel.kernel = kernels.get(key)
                    if rel.kernel is None:
                        rel.kernel = kernels[key] = self._lower(rel)
            if words > cap.table_words:
                raise MachineError("cell (%d, %d): table memory over capacity" % coord)

        # wire index: quantity key -> list of (dst cell, dst slot, hops)
        self.wire_index = {}
        self.last_sent = {}
        for w in image.wires:
            dst = self.cells.get(tuple(w.dst))
            src = self.cells.get(tuple(w.src))
            if dst is None or src is None:
                raise MachineError("wire for variable %d references a cell with no config"
                                   % w.var_id)
            shadow = dst.shadows.get(w.dst_slot)
            if shadow is None:
                raise MachineError("wire for variable %d: destination slot %d is not a shadow"
                                   % (w.var_id, w.dst_slot))
            if shadow.vid != w.var_id:
                raise MachineError("wire/shadow variable mismatch at slot %d" % w.dst_slot)
            if shadow.src != tuple(w.src):
                raise MachineError("shadow for variable %d expects a different producer"
                                   % w.var_id)
            if shadow.role == VTOF:
                owner = self.var_owner.get(w.var_id)
                if owner is None or owner.cell is not src:
                    raise MachineError("wire source does not own variable %d" % w.var_id)
                key = (src.cid, "vf", w.var_id, shadow.fid)
            elif shadow.role == FTOV:
                if not any(rel.fid == shadow.fid for rel in src.rels):
                    raise MachineError("wire source has no relation %d" % shadow.fid)
                key = (src.cid, "fv", shadow.fid, w.var_id)
            else:
                owner = self.var_owner.get(w.var_id)
                if owner is None or owner.cell is not src:
                    raise MachineError("wire source does not own variable %d" % w.var_id)
                key = (src.cid, "val", w.var_id, 0)
            shadow.wired = True
            self.wire_index.setdefault(key, []).append(
                (dst, w.dst_slot, abs(w.src[0] - w.dst[0]) + abs(w.src[1] - w.dst[1])))

        for cell in self.cells.values():
            for shadow in cell.shadows.values():
                if not shadow.wired:
                    raise MachineError("shadow of variable %d in cell (%d, %d) has no producer"
                                       % (shadow.vid, cell.r, cell.c))

        # attach relations to their local/remote variables
        for cell in self.cells.values():
            for rel in cell.rels:
                for pos, (kind, obj) in enumerate(rel.refs):
                    if kind == "v":
                        var = obj
                        if rel.fid not in var.local_rels:
                            var.local_rels[rel.fid] = rel
                        if rel.fid not in var.in_msgs:
                            var.in_msgs[rel.fid] = self._uniform(var.card)
                    else:
                        if obj.role == VTOF and obj.fid != rel.fid:
                            raise MachineError(
                                "relation %d reads a shadow bound to relation %s"
                                % (rel.fid, obj.fid))
        # remote factor inputs arrive through FTOV shadows of the owner cell
        for cell in self.cells.values():
            for shadow in cell.shadows.values():
                if shadow.role == FTOV:
                    owner = self.var_owner.get(shadow.vid)
                    if owner is None or owner.cell is not cell:
                        raise MachineError("FTOV shadow of %d must sit in the owning cell"
                                           % shadow.vid)
                    owner.in_msgs[shadow.fid] = self._uniform(owner.card)
        for var in self.var_owner.values():
            var.attached = sorted(var.in_msgs)
            for fid in var.attached:
                var.out_msgs[fid] = self._uniform(var.card)
            self._refresh_var(var)

        if self.mode == GIBBS:
            for cell in self.cells.values():
                if cell.vars and not cell.period:
                    raise MachineError("cell (%d, %d) owns variables but has no "
                                       "resample period" % (cell.r, cell.c))
                for rel in cell.rels:
                    for kind, obj in rel.refs:
                        if kind == "h" and obj.role != VALUE:
                            raise MachineError("relation %d: sampling needs VALUE shadows"
                                               % rel.fid)
                    for pos, term in self._lower_gibbs(rel):
                        rel.refs[pos][1].terms.append(term)
                for var in cell.vars:
                    var.key = stream_key(self.seed, var.vid)
                    cell.tick_cost += gibbs_var_cost(len(var.terms))

    def _uniform(self, card):
        return (fp.U16_MAX,) * card if self.linear else (0,) * card

    def _check_program(self, rel):
        """Static shape check: axis and operand indices must be in range."""
        k = len(rel.shape)
        for op in rel.prog:
            name = op[0]
            if name in ("MUL", "ADD"):
                axis, src = op[1], op[2]
                if not (0 <= axis < k) or not (0 <= src < k):
                    raise MachineError("relation %d: operand out of range in %s"
                                       % (rel.fid, name))
                if rel.refs[src][1].card != rel.shape[axis]:
                    raise MachineError("relation %d: input %d does not fit axis %d"
                                       % (rel.fid, src, axis))
            elif name in ("SUM_REDUCE", "MAX_REDUCE"):
                if not (0 <= op[1] < k):
                    raise MachineError("relation %d: reduce axis out of range" % rel.fid)
            elif name == "NORMALIZE":
                if not (0 <= op[1] < k):
                    raise MachineError("relation %d: output position out of range" % rel.fid)
            elif name == "LOAD_TABLE_SLICE" and op[1] is not None:
                if not (0 <= op[1] < k):
                    raise MachineError("relation %d: slice axis out of range" % rel.fid)

    def _lower(self, rel):
        """Lower a converging program into a _Kernel by running it on symbols.

        The accumulator maps each index tuple (0 on reduced axes) to the
        terms reduced into it.  Combining and reducing use the mode's
        semiring: MUL and SUM_REDUCE in SUMPROD, ADD and MAX_REDUCE in
        MINSUM.  A combine after a reduce would act on a reduced value, which
        no term list can express, so the program is rejected at load, as is
        a sampling op (MUL COND, or a LOAD_TABLE_SLICE with an axis)."""
        shape = rel.shape
        offsets = [0] * len(shape)
        for p in range(1, len(shape)):
            offsets[p] = offsets[p - 1] + shape[p - 1]
        combine_op, reduce_op = ("MUL", "SUM_REDUCE") if self.linear else \
            ("ADD", "MAX_REDUCE")
        acc = None
        dims = None
        reduced = False
        outputs = []
        for op in rel.prog:
            name = op[0]
            if name == "MUL_COND":
                raise MachineError("relation %d: MUL COND in a %s program"
                                   % (rel.fid, self.mode))
            if name == "LOAD_TABLE_SLICE":
                if op[1] is not None:
                    raise MachineError("relation %d: LOAD_TABLE_SLICE %d has an "
                                       "axis in a %s program"
                                       % (rel.fid, op[1], self.mode))
                dims = list(shape)
                acc = {idx: [(t, ())] for t, idx in
                       enumerate(itertools.product(*map(range, shape)))}
                reduced = False
                continue
            if acc is None:
                raise MachineError("relation %d: %s before LOAD_TABLE_SLICE"
                                   % (rel.fid, name))
            if name in ("MUL", "ADD", "SUM_REDUCE", "MAX_REDUCE") and \
                    name not in (combine_op, reduce_op):
                raise MachineError("relation %d: %s in a %s program"
                                   % (rel.fid, name, self.mode))
            if name == combine_op:
                if reduced:
                    raise MachineError("relation %d: %s after a reduction"
                                       % (rel.fid, name))
                axis, src = op[1], op[2]
                acc = {idx: [(t, offs + (offsets[src] + idx[axis],))
                             for t, offs in terms]
                       for idx, terms in acc.items()}
            elif name == reduce_op:
                axis = op[1]
                dims[axis] = 1
                merged = {}
                for idx, terms in acc.items():
                    key = idx[:axis] + (0,) + idx[axis + 1:]
                    merged.setdefault(key, []).extend(terms)
                acc = merged
                reduced = True
            elif name == "NORMALIZE":
                j = op[1]
                size = math.prod(dims)
                if size != shape[j]:
                    raise MachineError("relation %d: %s before reducing other axes"
                                       % (rel.fid, name))
                # the emitted vector is the accumulator flattened row-major
                groups = [None] * size
                for idx, terms in acc.items():
                    o = 0
                    for a, d in zip(idx, dims):
                        o = o * d + a
                    groups[o] = tuple(terms)
                outputs.append((j, tuple(groups)))
        return _Kernel(tuple(outputs), self.linear)

    def _lower_gibbs(self, rel):
        """Lower a sampling program into (scope position, term) pairs.

        The program must be a list of `LOAD_TABLE_SLICE j` / `MUL COND`
        pairs with j a local variable's position.  Each pair becomes one
        term (table, stride of j, others) of that variable's conditional;
        `others` holds an (owner variable or VALUE shadow, stride) pair per
        other scope position, whose current values select the slice."""
        fid = rel.fid
        pairs = []
        pos = None
        for op in rel.prog:
            name = op[0]
            if name == "LOAD_TABLE_SLICE":
                if pos is not None:
                    raise MachineError("relation %d: LOAD_TABLE_SLICE %d is not "
                                       "followed by MUL COND" % (fid, pos))
                pos = op[1]
                if pos is None:
                    raise MachineError("relation %d: LOAD_TABLE_SLICE needs an "
                                       "axis in a GIBBS program" % fid)
                if rel.refs[pos][0] != "v":
                    raise MachineError("relation %d: LOAD_TABLE_SLICE %d slices a "
                                       "shadow position" % (fid, pos))
            elif name == "MUL_COND":
                if pos is None:
                    raise MachineError("relation %d: MUL COND before "
                                       "LOAD_TABLE_SLICE" % fid)
                others = tuple((obj, rel.strides[q])
                               for q, (_kind, obj) in enumerate(rel.refs) if q != pos)
                pairs.append((pos, (rel.table, rel.strides[pos], others)))
                pos = None
            else:
                raise MachineError("relation %d: %s in a GIBBS program" % (fid, name))
        if pos is not None:
            raise MachineError("relation %d: LOAD_TABLE_SLICE %d is not followed "
                               "by MUL COND" % (fid, pos))
        return pairs

    # -- event plumbing -----------------------------------------------------

    def _push(self, time, cell, kind, payload):
        self._seq += 1
        heapq.heappush(self._heap, (time, cell.cid, self._seq, kind, cell, payload))

    def _pend_exec(self, rel, time):
        if not rel.pending:
            rel.pending = True
            self._push(time, rel.cell, "E", rel)

    def _trace(self, cycle, cell, event, vid, detail):
        if self.trace is not None:
            self.trace.append("%d,%d,%d,%s,%d,%s"
                              % (cycle, cell.r, cell.c, event, vid, detail))

    def _init_flush(self):
        """Startup: publish every variable's initial message/value (the
        sentinel last-sent forces a first packet), then run every relation
        once.  Work within a cell is serialized, so later units start after
        the cycles charged to earlier ones."""
        for coord in sorted(self.cells):
            cell = self.cells[coord]
            lat = 0
            for var in cell.vars:
                if var.evidence is not None:
                    self._trace(0, cell, "CLAMP", var.vid, var.evidence)
                self._emit_var(var, lat)
                lat += 1
            if self.mode == GIBBS:
                if cell.period:
                    self._push(cell.period + cell.phase, cell, "T", None)
            else:
                for rel in cell.rels:
                    self._pend_exec(rel, lat)
                    lat += rel.cost

    def step(self) -> bool:
        """Process the single globally next event.  False when idle."""
        if not self._heap:
            return False
        time, _cid, _seq, kind, cell, payload = heapq.heappop(self._heap)
        self.time = time
        if kind == "E":
            self._on_exec(cell, payload, time)
        elif kind == "S":
            self._on_send(cell, payload, time)
        elif kind == "D":
            self._on_deliver(cell, payload, time)
        elif kind == "T":
            self._on_tick(cell, time)
        elif kind == "I":
            self._on_inject(cell, payload, time)
        return True

    def run_until_quiescent(self, max_cycles: int = 100000):
        """Drain the event queue; give up past max_cycles (returns False)."""
        while self._heap and self._heap[0][0] <= max_cycles:
            self.step()
        quiescent = not self._heap
        self.stats.quiescent = quiescent
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
        for coord in sorted(self.cells):
            cell = self.cells[coord]
            if cell.tick_idx:
                # after a run_ticks the queue holds no tick to continue
                # from, and after a run_until_quiescent the budget would
                # count ticks already taken
                raise MachineError("cell (%d, %d) has already ticked %d times; "
                                   "run_ticks needs a machine that has not "
                                   "ticked" % (coord + (cell.tick_idx,)))
        for cell in self.cells.values():
            cell.tick_budget = ticks
        while self._heap:
            self.step()
        self.stats.quiescent = False
        self.stats.cycles = self.time
        return self.stats

    # -- event handlers -----------------------------------------------------

    def _on_exec(self, cell, rel, time):
        rel.pending = False
        outs = self._exec_program(rel)
        self.stats.activations += 1
        self._trace(time, cell, "UPDATE", rel.fid, len(rel.prog))
        avail = time + rel.cost
        for pos, payload in outs:
            kind, obj = rel.refs[pos]
            vid = rel.out_vids[pos]
            if kind == "v":
                var = obj
                if var.in_msgs.get(rel.fid) != payload:
                    var.in_msgs[rel.fid] = payload
                    self._emit_var(var, avail)
            else:
                self._gate_send((cell.cid, "fv", rel.fid, vid), payload, avail, cell)

    def _refresh_var(self, var):
        """Recompute outgoing messages and belief from stored inputs."""
        card = var.card
        if var.evidence is not None:
            if self.linear:
                ind = tuple(fp.U16_MAX if a == var.evidence else 0 for a in range(card))
            else:
                ind = tuple(0 if a == var.evidence else fp.Q88_MIN for a in range(card))
            var.belief = ind
            return {fid: ind for fid in var.attached}
        msgs = [var.in_msgs[fid] for fid in var.attached]
        n = len(msgs)
        if n == 0:
            var.belief = self._uniform(card)
            return {}
        # prefix/suffix combinations give each exclude-one combination one
        # way; None stands for the uniform message, which combines exactly
        combine = self._combine
        pre = [None]
        for m in msgs:
            pre.append(m if pre[-1] is None else combine(pre[-1], m))
        suf = [None]
        for m in reversed(msgs):
            suf.append(m if suf[-1] is None else combine(m, suf[-1]))
        suf.reverse()
        norm = self._norm
        outs = {}
        for i, fid in enumerate(var.attached):
            a, b = pre[i], suf[i + 1]
            if a is None:
                vec = self._uniform(card) if b is None else b
            else:
                vec = a if b is None else combine(a, b)
            outs[fid] = norm(vec)
        var.belief = norm(pre[n])
        return outs

    def _combine(self, a, b):
        return tuple(map(fp.mul_u16 if self.linear else fp.sat_add, a, b))

    def _norm(self, v):
        return tuple(fp.norm_linear(v) if self.linear else fp.norm_log(v))

    def _emit_var(self, var, time):
        """Publish changed outgoing messages to local relations and wires."""
        cell = var.cell
        if self.mode == GIBBS:
            # sampling cells exchange bare values, not message vectors
            key = (cell.cid, "val", var.vid, 0)
            if key in self.wire_index:
                self._gate_send(key, var.value, time, cell, value_packet=True)
            return
        outs = self._refresh_var(var)
        for fid in var.attached:
            new = outs[fid]
            if var.out_msgs[fid] != new:
                var.out_msgs[fid] = new
                rel = var.local_rels.get(fid)
                if rel is not None:
                    self._pend_exec(rel, time)
            key = (cell.cid, "vf", var.vid, fid)
            if key in self.wire_index:
                self._gate_send(key, var.out_msgs[fid], time, cell)

    def _gate_send(self, key, payload, time, cell, value_packet=False):
        last = self.last_sent.get(key)
        if last is None:
            flush = True
        else:
            flush = False
            if value_packet:
                if payload == last:
                    return
            elif cell.thresh > 0:
                diff = max(abs(a - b) for a, b in zip(payload, last))
                if diff < cell.thresh:
                    return
        self.last_sent[key] = payload
        self._push(time, cell, "S", (key, payload, flush))

    def _on_send(self, cell, payload, time):
        key, value, flush = payload
        for dst, slot, hops in self.wire_index[key]:
            arrival = self._route(cell, dst, time)
            self.stats.packets += 1
            if flush:
                self.stats.flush_packets += 1
            self.stats.hops += hops
            vid = key[2] if key[1] != "fv" else key[3]
            self._trace(time, cell, "SEND", vid, hops)
            self._push(arrival, dst, "D", (slot, value, hops))

    def _route(self, src, dst, time):
        """Reserve the dimension-order path; one packet per link per cycle."""
        t = time
        links = self._links
        r, c = src.r, src.c
        if (r, c) == (dst.r, dst.c):
            path = [(r, c, "L")]
        else:
            path = []
            while c != dst.c:
                step = 1 if dst.c > c else -1
                path.append((r, c, "E" if step > 0 else "W"))
                c += step
            while r != dst.r:
                step = 1 if dst.r > r else -1
                path.append((r, c, "S" if step > 0 else "N"))
                r += step
        for link in path:
            free = links.get(link, 0)
            depart = free if free > t else t
            wait = depart - t
            if wait + 1 > self.stats.peak_link_occupancy:
                self.stats.peak_link_occupancy = wait + 1
            links[link] = depart + 1
            t = depart + 1
        return t

    def _on_deliver(self, cell, payload, time):
        slot, value, hops = payload
        shadow = cell.shadows[slot]
        self._trace(time, cell, "DELIVER", shadow.vid, hops)
        if shadow.role == FTOV:
            var = self.var_owner[shadow.vid]
            shadow.data = value
            if var.in_msgs.get(shadow.fid) != value:
                var.in_msgs[shadow.fid] = value
                self._emit_var(var, time)
        elif shadow.role == VTOF:
            if shadow.data != value:
                shadow.data = value
                for rel in shadow.consumers:
                    self._pend_exec(rel, time)
        else:
            shadow.value = value

    def _on_tick(self, cell, time):
        """Resample the cell's free variables in slot order.  A variable's
        conditional is the product of its terms' table slices at the current
        values of the other scope positions; the draw for tick k is
        uniform01(seed, vid, k) scaled by the conditional's total."""
        k = cell.tick_idx
        changed = []
        trace = self.trace
        activations = 0
        for var in cell.vars:
            if var.evidence is None:
                card = var.card
                terms = var.terms
                activations += len(terms)
                cond = None
                for tbl, sv, others in terms:
                    base = 0
                    for obj, st in others:
                        base += obj.value * st
                    row = tbl[base:base + card * sv:sv]
                    cond = row if cond is None else list(map(mul, cond, row))
                if cond is None:
                    cond = (1,) * card
                total = sum(cond)
                if total > 0:
                    target = keyed_uniform01(var.key, k) * total
                    acc = 0
                    val = card - 1
                    for a, w in enumerate(cond):
                        acc += w
                        if acc > target:
                            val = a
                            break
                    if val != var.value:
                        var.value = val
                        changed.append(var)
            var.counts[var.value] += 1
            if trace is not None:
                self._trace(time, cell, "SAMPLE", var.vid, var.value)
        self.stats.activations += activations
        cell.tick_idx = k + 1
        out_t = time + cell.tick_cost
        for var in changed:
            key = (cell.cid, "val", var.vid, 0)
            if key in self.wire_index:
                self._gate_send(key, var.value, out_t, cell, value_packet=True)
        if cell.tick_budget is None or cell.tick_idx < cell.tick_budget:
            self._push(time + cell.period, cell, "T", None)

    def _on_inject(self, cell, payload, time):
        var, value = payload
        var.evidence = value
        var.value = value
        self._trace(time, cell, "CLAMP", var.vid, value)
        self._emit_var(var, time)

    # -- relation kernels -----------------------------------------------------

    def _exec_program(self, rel):
        """Run the relation's kernel on its current inputs: (j, message) per
        NORMALIZE OUT<j>, anchored and, with noise_lsbs, perturbed."""
        fid = rel.fid
        x = ()
        for kind, obj in rel.refs:
            x += obj.out_msgs[fid] if kind == "v" else obj.data
        outs = []
        for j, vec in rel.kernel.run(rel.table, x):
            vec = self._norm(vec)
            if self.noise_lsbs:
                vec = self._apply_noise(vec)
            outs.append((j, vec))
        return outs

    def _apply_noise(self, vec):
        span = 2 * self.noise_lsbs + 1
        lo, hi = (0, fp.U16_MAX) if self.linear else (fp.Q88_MIN, fp.Q88_MAX)
        out = []
        for v in vec:
            self._noise_ctr += 1
            v += keyed_raw64(self._noise_key, self._noise_ctr) % span - self.noise_lsbs
            out.append(lo if v < lo else hi if v > hi else v)
        return tuple(out)

    # -- external surface ----------------------------------------------------

    def inject_evidence(self, vid: int, value: int, at_time: int = 0):
        var = self.var_owner.get(vid)
        if var is None:
            raise MachineError("unknown variable %d" % vid)
        if not (0 <= value < var.card):
            raise MachineError("value %d outside domain of variable %d" % (value, vid))
        self._push(at_time, var.cell, "I", (var, value))

    def read_beliefs(self):
        """Dequantized per-variable beliefs plus argmax assignment.

        GIBBS mode reports empirical tick frequencies as beliefs and the
        current sampled state as the assignment.  A LINEAR belief whose words
        are all zero, or a GIBBS variable with no samples yet, raises
        MachineError naming the variable, because no distribution can be
        read from it."""
        beliefs = {}
        assignment = {}
        for vid in sorted(self.var_owner):
            var = self.var_owner[vid]
            if self.mode == GIBBS:
                total = sum(var.counts)
                if total == 0:
                    raise MachineError("variable %d: no samples yet (run at least "
                                       "one tick before reading beliefs)" % vid)
                beliefs[vid] = [c / total for c in var.counts]
                assignment[vid] = var.value
            else:
                if self.linear:
                    if not any(var.belief):
                        raise MachineError(
                            "variable %d: belief collapsed to all zeros "
                            "(contradictory evidence or underflow)" % vid)
                    vec = [x / fp.U16_MAX for x in var.belief]
                else:
                    # anchored at the maximum, so some entry is exp(0) = 1
                    anchor = max(var.belief)
                    vec = [math.exp((x - anchor) / fp.Q88_ONE) for x in var.belief]
                s = sum(vec)
                beliefs[vid] = [x / s for x in vec]
                best = 0
                for a in range(1, var.card):
                    if var.belief[a] > var.belief[best]:
                        best = a
                assignment[vid] = best
        return beliefs, assignment

    def read_assignment(self):
        """Per-variable argmax (or the sampled value in GIBBS mode), without
        the float belief conversion; cheap enough to poll every cycle."""
        assignment = {}
        for vid, var in self.var_owner.items():
            if self.mode == GIBBS:
                assignment[vid] = var.value
                continue
            best = 0
            for a in range(1, var.card):
                if var.belief[a] > var.belief[best]:
                    best = a
            assignment[vid] = best
        return assignment

    def read_state(self):
        return {vid: self.var_owner[vid].value for vid in sorted(self.var_owner)}

    def verify_quiescent(self):
        """Recompute everything and measure drift against stored copies.

        Returns {"local": d1, "remote": d2}: the largest deviation between a
        recomputed message and (local) what its consumer holds, or (remote)
        the last-sent copy.  At quiescence local must be 0 and remote below
        the sending cell's threshold."""
        local = 0
        remote = 0
        for cell in self.cells.values():
            for var in cell.vars:
                outs = self._refresh_var(var)
                for fid in var.attached:
                    d = max(abs(a - b) for a, b in zip(outs[fid], var.out_msgs[fid]))
                    local = max(local, d)
                    key = (cell.cid, "vf", var.vid, fid)
                    if key in self.wire_index and key in self.last_sent:
                        d = max(abs(a - b)
                                for a, b in zip(outs[fid], self.last_sent[key]))
                        remote = max(remote, d)
            if self.mode == GIBBS:
                continue
            for rel in cell.rels:
                for pos, payload in self._exec_program(rel):
                    kind, obj = rel.refs[pos]
                    vid = rel.out_vids[pos]
                    if kind == "v":
                        held = obj.in_msgs.get(rel.fid)
                        d = max(abs(a - b) for a, b in zip(payload, held))
                        local = max(local, d)
                    else:
                        key = (cell.cid, "fv", rel.fid, vid)
                        if key in self.last_sent:
                            d = max(abs(a - b)
                                    for a, b in zip(payload, self.last_sent[key]))
                            remote = max(remote, d)
        return {"local": local, "remote": remote}

    def trace_text(self) -> str:
        if self.trace is None:
            raise MachineError("tracing was not enabled")
        return "cycle,cell_row,cell_col,event,var_id,detail\n" + \
            "".join(row + "\n" for row in self.trace)
