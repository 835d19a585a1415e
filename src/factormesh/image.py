"""Loadable machine image: per-cell configuration plus inter-cell wiring.

Text format (version header `FMIMG 1`), one record per line, `#` comments:

    FMIMG 1
    GRID <rows> <cols>
    MODE SUMPROD|MINSUM|GIBBS
    SEED <int>
    CELL <r> <c>                          opens a cell; records below attach to it
    VAR <slot> <var_id> <card> [EVIDENCE <value>]
    SHADOW <slot> <var_id> <card> <src_r> <src_c> VTOF <fid>|FTOV <fid>|VALUE
    REL <slot> <factor_id> <nwords> <ref>...   refs bind scope positions, V<slot>/H<slot>
    <nwords integer table words on following lines>
    PROG <k>                              then k micro-op lines for the last REL
    THRESH <lsb>                          per-cell packet gate threshold
    GIBBS_PERIOD <period> <phase>         resample timing (GIBBS mode)
    WIRE <var_id> <src_r> <src_c> <dst_r> <dst_c> <dst_slot>

Shadow roles: VTOF f holds the variable's message into factor f, FTOV f holds
factor f's message to the variable, VALUE holds the variable's sampled value.
Table words are quantized integers (u16 for LINEAR-domain modes, raw Q8.8 for
MINSUM).  Unknown records are load errors; nothing is skipped silently.

Micro-op mnemonics:

    LOAD_TABLE_SLICE [j]   table accumulator <- table; with j (GIBBS only):
                           vector ACC <- 1-D slice along scope axis j at
                           current values
    MUL <axis> IN<k>       accumulator *= input k broadcast along axis
    ADD <axis> IN<k>       saturating add (log domain)
    SUM_REDUCE <axis>      marginalize an axis by summation
    MAX_REDUCE <axis>      marginalize an axis by maximum
    NORMALIZE OUT<j>       anchor the (now 1-D) accumulator, emit for scope j
    MUL COND               sampling conditional *= ACC (GIBBS)

A GIBBS program is a list of `LOAD_TABLE_SLICE j` / `MUL COND` pairs, j the
scope position of a variable in the same cell.  On each tick, for every free
variable at such a position j, the slice takes the table words along axis j
with every other scope position at its current value (a local variable's
sample or a VALUE shadow's last delivered value), and `MUL COND` multiplies
them elementwise into that variable's conditional, which starts at all ones.
The variable is then drawn from the conditional.  The machine lowers each
pair into one term at load and rejects any other GIBBS program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

SUMPROD = "SUMPROD"
MINSUM = "MINSUM"
GIBBS = "GIBBS"
MODES = (SUMPROD, MINSUM, GIBBS)

VTOF = "VTOF"
FTOV = "FTOV"
VALUE = "VALUE"

MAX_PROGRAM_OPS = 64

# default packet gate, in LSBs of the mode's message format
DEFAULT_THRESH_LINEAR = 256
DEFAULT_THRESH_LOG = 16


def gibbs_var_cost(n_rels: int) -> int:
    """Cycles to resample one variable: a table slice plus a conditional
    multiply per relation touching it, then draw and publish."""
    return 2 * n_rels + 2


@dataclass(frozen=True)
class Capacities:
    """Per-cell resource limits."""
    var_slots: int = 4
    shadow_slots: int = 16
    rel_slots: int = 4
    table_words: int = 512
    max_cardinality: int = 16


DEFAULT_CAPACITIES = Capacities()


class ImageError(ValueError):
    pass


@dataclass
class VarSlot:
    slot: int
    var_id: int
    card: int
    evidence: Optional[int] = None


@dataclass
class ShadowSlot:
    slot: int
    var_id: int
    card: int
    src: tuple                      # (r, c) of the producing cell
    role: str                       # VTOF / FTOV / VALUE
    fid: Optional[int] = None       # factor id for VTOF / FTOV


@dataclass
class RelSlot:
    slot: int
    factor_id: int
    scope_refs: list                # ('V'|'H', slot) per scope position
    table: list                     # quantized integer words
    prog: list                      # parsed micro-ops


@dataclass
class CellImage:
    r: int
    c: int
    var_slots: list = field(default_factory=list)
    shadow_slots: list = field(default_factory=list)
    rel_slots: list = field(default_factory=list)
    thresh: Optional[int] = None
    gibbs_period: Optional[int] = None
    gibbs_phase: Optional[int] = None


@dataclass
class Wire:
    var_id: int
    src: tuple
    dst: tuple
    dst_slot: int


@dataclass
class MachineImage:
    grid: tuple                     # (rows, cols)
    mode: str
    seed: int
    cells: dict = field(default_factory=dict)   # (r, c) -> CellImage
    wires: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# micro-op text forms
# ---------------------------------------------------------------------------

def _parse_ref(tok: str, what: str, line: int):
    if len(tok) >= 2 and tok[0] in ("V", "H") and tok[1:].isdigit():
        return (tok[0], int(tok[1:]))
    raise ImageError("line %d: bad %s reference %r" % (line, what, tok))


def parse_op(text: str, line: int = 0) -> tuple:
    toks = text.split()
    if not toks:
        raise ImageError("line %d: empty micro-op" % line)
    name = toks[0]

    def arg_int(i, what):
        try:
            return int(toks[i])
        except (IndexError, ValueError):
            raise ImageError("line %d: %s needs %s" % (line, name, what))

    def arg_in(i):
        if len(toks) <= i or not toks[i].startswith("IN") or not toks[i][2:].isdigit():
            raise ImageError("line %d: %s needs an IN<k> operand" % (line, name))
        return int(toks[i][2:])

    def arg_out(i):
        if len(toks) <= i or not toks[i].startswith("OUT") or not toks[i][3:].isdigit():
            raise ImageError("line %d: %s needs an OUT<j> operand" % (line, name))
        return int(toks[i][3:])

    if name == "LOAD_TABLE_SLICE":
        if len(toks) == 1:
            return ("LOAD_TABLE_SLICE", None)
        return ("LOAD_TABLE_SLICE", arg_int(1, "a scope axis"))
    if name in ("MUL", "ADD"):
        if name == "MUL" and len(toks) == 2 and toks[1] == "COND":
            return ("MUL_COND",)
        return (name, arg_int(1, "an axis"), arg_in(2))
    if name in ("SUM_REDUCE", "MAX_REDUCE"):
        return (name, arg_int(1, "an axis"))
    if name == "NORMALIZE":
        return (name, arg_out(1))
    raise ImageError("line %d: unknown micro-op %r" % (line, name))


def format_op(op: tuple) -> str:
    name = op[0]
    if name == "LOAD_TABLE_SLICE":
        return name if op[1] is None else "%s %d" % (name, op[1])
    if name == "MUL_COND":
        return "MUL COND"
    if name in ("MUL", "ADD"):
        return "%s %d IN%d" % (name, op[1], op[2])
    if name in ("SUM_REDUCE", "MAX_REDUCE"):
        return "%s %d" % (name, op[1])
    if name == "NORMALIZE":
        return "%s OUT%d" % (name, op[1])
    raise ImageError("cannot format op %r" % (op,))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dumps(image: MachineImage) -> str:
    lines = ["FMIMG 1",
             "GRID %d %d" % image.grid,
             "MODE %s" % image.mode,
             "SEED %d" % image.seed]
    for coord in sorted(image.cells):
        cell = image.cells[coord]
        lines.append("CELL %d %d" % (cell.r, cell.c))
        for vs in sorted(cell.var_slots, key=lambda s: s.slot):
            row = "VAR %d %d %d" % (vs.slot, vs.var_id, vs.card)
            if vs.evidence is not None:
                row += " EVIDENCE %d" % vs.evidence
            lines.append(row)
        for sh in sorted(cell.shadow_slots, key=lambda s: s.slot):
            row = "SHADOW %d %d %d %d %d %s" % (sh.slot, sh.var_id, sh.card,
                                                sh.src[0], sh.src[1], sh.role)
            if sh.role in (VTOF, FTOV):
                row += " %d" % sh.fid
            lines.append(row)
        for rel in sorted(cell.rel_slots, key=lambda s: s.slot):
            refs = " ".join("%s%d" % ref for ref in rel.scope_refs)
            lines.append("REL %d %d %d %s" % (rel.slot, rel.factor_id,
                                              len(rel.table), refs))
            for i in range(0, len(rel.table), 12):
                lines.append(" ".join(str(w) for w in rel.table[i:i + 12]))
            lines.append("PROG %d" % len(rel.prog))
            for op in rel.prog:
                lines.append(format_op(op))
        if cell.thresh is not None:
            lines.append("THRESH %d" % cell.thresh)
        if cell.gibbs_period is not None:
            lines.append("GIBBS_PERIOD %d %d" % (cell.gibbs_period, cell.gibbs_phase))
    for w in sorted(image.wires, key=lambda w: (w.var_id, w.src, w.dst, w.dst_slot)):
        lines.append("WIRE %d %d %d %d %d %d" % (w.var_id, w.src[0], w.src[1],
                                                 w.dst[0], w.dst[1], w.dst_slot))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Lines:
    def __init__(self, text):
        self.rows = text.splitlines()
        self.i = 0

    def next_payload(self) -> tuple:
        """Next non-empty, non-comment line as (tokens, lineno); None at EOF."""
        while self.i < len(self.rows):
            self.i += 1
            raw = self.rows[self.i - 1]
            body = raw.split("#", 1)[0].strip()
            if body:
                return body.split(), self.i
        return None, self.i


def _ints(toks, n, line, what):
    if len(toks) != n:
        raise ImageError("line %d: %s needs %d fields" % (line, what, n))
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise ImageError("line %d: %s has a non-integer field" % (line, what))


def parse_image(text: str) -> MachineImage:
    src = _Lines(text)
    toks, line = src.next_payload()
    if toks is None or toks[:2] != ["FMIMG", "1"]:
        raise ImageError("line %d: expected FMIMG 1 header" % line)
    grid = None
    mode = None
    seed = 0
    cells = {}
    wires = []
    cur: Optional[CellImage] = None
    pending_rel: Optional[RelSlot] = None
    pending_words = 0

    while True:
        toks, line = src.next_payload()
        if toks is None:
            break
        head = toks[0]
        if pending_words > 0 and head not in ("PROG",):
            # table words, free-form across lines
            try:
                words = [int(t) for t in toks]
            except ValueError:
                raise ImageError("line %d: expected %d more table words"
                                 % (line, pending_words))
            if len(words) > pending_words:
                raise ImageError("line %d: too many table words" % line)
            pending_rel.table.extend(words)
            pending_words -= len(words)
            continue
        if head == "PROG":
            if pending_rel is None:
                raise ImageError("line %d: PROG without a REL record" % line)
            if pending_words:
                raise ImageError("line %d: PROG before table words complete (missing %d)"
                                 % (line, pending_words))
            (k,) = _ints(toks[1:], 1, line, "PROG")
            if k < 0 or k > MAX_PROGRAM_OPS:
                raise ImageError("line %d: program length %d out of range [0, %d]"
                                 % (line, k, MAX_PROGRAM_OPS))
            for _ in range(k):
                op_toks, op_line = src.next_payload()
                if op_toks is None:
                    raise ImageError("line %d: unexpected end of input inside PROG" % op_line)
                pending_rel.prog.append(parse_op(" ".join(op_toks), op_line))
            pending_rel = None
            continue
        if pending_rel is not None:
            raise ImageError("line %d: REL record missing its PROG" % line)
        if head == "GRID":
            r, c = _ints(toks[1:], 2, line, "GRID")
            if r < 1 or c < 1:
                raise ImageError("line %d: grid dimensions must be positive" % line)
            grid = (r, c)
        elif head == "MODE":
            if len(toks) != 2 or toks[1] not in MODES:
                raise ImageError("line %d: MODE must be one of %s" % (line, "/".join(MODES)))
            mode = toks[1]
        elif head == "SEED":
            (seed,) = _ints(toks[1:], 1, line, "SEED")
        elif head == "CELL":
            r, c = _ints(toks[1:], 2, line, "CELL")
            if grid is None:
                raise ImageError("line %d: CELL before GRID" % line)
            if not (0 <= r < grid[0] and 0 <= c < grid[1]):
                raise ImageError("line %d: cell (%d, %d) outside grid" % (line, r, c))
            if (r, c) in cells:
                raise ImageError("line %d: duplicate CELL (%d, %d)" % (line, r, c))
            cur = CellImage(r, c)
            cells[(r, c)] = cur
        elif head == "VAR":
            if cur is None:
                raise ImageError("line %d: VAR outside a CELL" % line)
            if len(toks) == 4:
                slot, vid, card = _ints(toks[1:], 3, line, "VAR")
                ev = None
            elif len(toks) == 6 and toks[4] == "EVIDENCE":
                slot, vid, card = _ints(toks[1:4], 3, line, "VAR")
                (ev,) = _ints(toks[5:], 1, line, "EVIDENCE")
            else:
                raise ImageError("line %d: malformed VAR record" % line)
            if card < 2:
                raise ImageError("line %d: variable cardinality must be >= 2" % line)
            if ev is not None and not (0 <= ev < card):
                raise ImageError("line %d: evidence value out of range" % line)
            cur.var_slots.append(VarSlot(slot, vid, card, ev))
        elif head == "SHADOW":
            if cur is None:
                raise ImageError("line %d: SHADOW outside a CELL" % line)
            if len(toks) < 7:
                raise ImageError("line %d: malformed SHADOW record" % line)
            slot, vid, card, sr, sc = _ints(toks[1:6], 5, line, "SHADOW")
            role = toks[6]
            fid = None
            if role in (VTOF, FTOV):
                if len(toks) != 8:
                    raise ImageError("line %d: %s shadow needs a factor id" % (line, role))
                (fid,) = _ints(toks[7:], 1, line, "SHADOW factor id")
            elif role == VALUE:
                if len(toks) != 7:
                    raise ImageError("line %d: malformed VALUE shadow" % line)
            else:
                raise ImageError("line %d: unknown shadow role %r" % (line, role))
            cur.shadow_slots.append(ShadowSlot(slot, vid, card, (sr, sc), role, fid))
        elif head == "REL":
            if cur is None:
                raise ImageError("line %d: REL outside a CELL" % line)
            if len(toks) < 5:
                raise ImageError("line %d: malformed REL record" % line)
            slot, fid, nwords = _ints(toks[1:4], 3, line, "REL")
            if nwords < 1:
                raise ImageError("line %d: REL needs at least one table word" % line)
            refs = [_parse_ref(t, "scope", line) for t in toks[4:]]
            pending_rel = RelSlot(slot, fid, refs, [], [])
            pending_words = nwords
            cur.rel_slots.append(pending_rel)
        elif head == "THRESH":
            if cur is None:
                raise ImageError("line %d: THRESH outside a CELL" % line)
            (t,) = _ints(toks[1:], 1, line, "THRESH")
            if t < 0:
                raise ImageError("line %d: threshold must be >= 0" % line)
            cur.thresh = t
        elif head == "GIBBS_PERIOD":
            if cur is None:
                raise ImageError("line %d: GIBBS_PERIOD outside a CELL" % line)
            p, ph = _ints(toks[1:], 2, line, "GIBBS_PERIOD")
            if p < 1 or ph < 0:
                raise ImageError("line %d: bad GIBBS_PERIOD values" % line)
            cur.gibbs_period = p
            cur.gibbs_phase = ph
        elif head == "WIRE":
            vid, sr, sc, dr, dc, slot = _ints(toks[1:], 6, line, "WIRE")
            wires.append(Wire(vid, (sr, sc), (dr, dc), slot))
        else:
            raise ImageError("line %d: unknown record %r" % (line, head))

    if pending_rel is not None:
        raise ImageError("unexpected end of input: REL record incomplete")
    if grid is None:
        raise ImageError("missing GRID record")
    if mode is None:
        raise ImageError("missing MODE record")
    return MachineImage(grid, mode, seed, cells, wires)
