"""Loadable machine image: per-cell configuration plus inter-cell wiring.

Text format (version header `FMIMG 3`), one record per line, `#` comments:

    FMIMG 3
    GRID <rows> <cols>
    MODE SUMPROD|MINSUM|GIBBS
    SEED <int>
    CELL <r> <c>                          opens a cell; records below attach to it
    VAR <slot> <var_id> <card> [EVIDENCE <value>]
    SHADOW <slot> <var_id> <card> <src_r> <src_c> VTOF <fid>|FTOV <fid>|VALUE
    REL <slot> <factor_id> <nwords> <ref>...   refs bind scope positions, V<slot>/H<slot>
    <nwords integer table words on following lines>
    THRESH <lsb>                          per-cell packet gate threshold
    GIBBS_PERIOD <period> <phase>         resample timing (GIBBS mode)

A shadow slot is its wire: one link from its producer cell `src` into that
slot, carrying the variable `var_id`.  Shadow roles: VTOF f holds the
variable's message into factor f, FTOV f holds factor f's message to the
variable, VALUE holds the variable's sampled value.  SUMPROD and MINSUM
machines feed only VTOF and FTOV shadows, GIBBS machines only VALUE shadows;
the machine rejects any other role at load.  A shadow's cardinality is its
variable's.  An FTOV f shadow sits in the variable's cell and names a
producer whose relation f sends the variable a message, and every such
message needs that shadow.  Table words are quantized integers (u16 for
LINEAR-domain modes, raw Q8.8 for MINSUM).  Unknown records are load
errors; nothing is skipped silently.

A relation carries no program: its mode and scope fix what it computes.  In
SUMPROD and MINSUM a factor id names one relation of the machine, which
sends a message to every scope position j: the table combined with the
input of every other position i, in ascending i, those positions reduced,
and the vector normalized.  The semiring is the mode's: multiply and sum in
SUMPROD, add and max in MINSUM.  An update of k positions costs
`relation_cost(k)` cycles (per output, one table load, k - 1 combines, k - 1
reductions and a normalize), and the machine rejects a relation costing more
than MAX_UPDATE_CYCLES.  In GIBBS a factor id names at most one relation per
cell.  On each tick, for every free variable at a scope position j of a
relation in its cell, the table words along axis j with every other position
at its current value (a local variable's sample or a VALUE shadow's last
delivered value) multiply elementwise into that variable's conditional,
which starts at all ones; the variable is then drawn from the conditional.
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

# cycle budget of one converging relation update
MAX_UPDATE_CYCLES = 64

# default packet gate, in LSBs of the mode's message format
DEFAULT_THRESH_LINEAR = 256
DEFAULT_THRESH_LOG = 16


def relation_cost(k: int) -> int:
    """Cycles of one converging update of a k-position relation: per output
    a table load, k - 1 combines, k - 1 reductions and a normalize."""
    return 2 * k * k


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

    @property
    def wires(self) -> list:
        """One Wire per shadow slot, from its `src` cell into the slot, in
        (cell coordinate, slot) order."""
        return [Wire(sh.var_id, sh.src, coord, sh.slot)
                for coord in sorted(self.cells)
                for sh in sorted(self.cells[coord].shadow_slots, key=lambda s: s.slot)]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dumps(image: MachineImage) -> str:
    lines = ["FMIMG 3",
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
        if cell.thresh is not None:
            lines.append("THRESH %d" % cell.thresh)
        if cell.gibbs_period is not None:
            lines.append("GIBBS_PERIOD %d %d" % (cell.gibbs_period, cell.gibbs_phase))
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


def _parse_ref(tok: str, what: str, line: int):
    if len(tok) >= 2 and tok[0] in ("V", "H") and tok[1:].isdigit():
        return (tok[0], int(tok[1:]))
    raise ImageError("line %d: bad %s reference %r" % (line, what, tok))


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
    if toks is None or toks[:2] != ["FMIMG", "3"]:
        raise ImageError("line %d: expected FMIMG 3 header" % line)
    grid = None
    mode = None
    seed = 0
    cells = {}
    cur: Optional[CellImage] = None
    pending_rel: Optional[RelSlot] = None
    pending_words = 0

    while True:
        toks, line = src.next_payload()
        if toks is None:
            break
        head = toks[0]
        if pending_words > 0:
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
            pending_rel = RelSlot(slot, fid, refs, [])
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
        else:
            raise ImageError("line %d: unknown record %r" % (line, head))

    if pending_words:
        raise ImageError("unexpected end of input: REL record incomplete")
    if grid is None:
        raise ImageError("missing GRID record")
    if mode is None:
        raise ImageError("missing MODE record")
    return MachineImage(grid, mode, seed, cells)
