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

from .records import Records

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

# records that attach to the cell opened by the last CELL record
_CELL_RECORDS = ("VAR", "SHADOW", "REL", "THRESH", "GIBBS_PERIOD")


def parse_image(text: str) -> MachineImage:
    rec = Records(text, ImageError)
    records = iter(rec)
    if next(records, [])[:2] != ["FMIMG", "3"]:
        rec.fail("expected FMIMG 3 header")
    grid = None
    mode = None
    seed = 0
    cells = {}
    cur: Optional[CellImage] = None
    pending_rel: Optional[RelSlot] = None
    pending_words = 0

    for toks in records:
        head = toks[0]
        if pending_words > 0:
            # table words, free-form across lines
            try:
                words = [int(t) for t in toks]
            except ValueError:
                rec.fail("expected %d more table words" % pending_words)
            if len(words) > pending_words:
                rec.fail("too many table words")
            pending_rel.table.extend(words)
            pending_words -= len(words)
            continue
        if head in _CELL_RECORDS and cur is None:
            rec.fail("%s outside a CELL" % head)
        if head == "GRID":
            r, c = rec.ints(toks[1:], 2, "GRID")
            if r < 1 or c < 1:
                rec.fail("grid dimensions must be positive")
            grid = (r, c)
        elif head == "MODE":
            if len(toks) != 2 or toks[1] not in MODES:
                rec.fail("MODE must be one of %s" % "/".join(MODES))
            mode = toks[1]
        elif head == "SEED":
            (seed,) = rec.ints(toks[1:], 1, "SEED")
        elif head == "CELL":
            r, c = rec.ints(toks[1:], 2, "CELL")
            if grid is None:
                rec.fail("CELL before GRID")
            if not (0 <= r < grid[0] and 0 <= c < grid[1]):
                rec.fail("cell (%d, %d) outside grid" % (r, c))
            if (r, c) in cells:
                rec.fail("duplicate CELL (%d, %d)" % (r, c))
            cur = CellImage(r, c)
            cells[(r, c)] = cur
        elif head == "VAR":
            if len(toks) == 4:
                slot, vid, card = rec.ints(toks[1:], 3, "VAR")
                ev = None
            elif len(toks) == 6 and toks[4] == "EVIDENCE":
                slot, vid, card = rec.ints(toks[1:4], 3, "VAR")
                (ev,) = rec.ints(toks[5:], 1, "EVIDENCE")
            else:
                rec.fail("malformed VAR record")
            if card < 2:
                rec.fail("variable cardinality must be >= 2")
            if ev is not None and not (0 <= ev < card):
                rec.fail("evidence value out of range")
            cur.var_slots.append(VarSlot(slot, vid, card, ev))
        elif head == "SHADOW":
            if len(toks) < 7:
                rec.fail("malformed SHADOW record")
            slot, vid, card, sr, sc = rec.ints(toks[1:6], 5, "SHADOW")
            role = toks[6]
            fid = None
            if role in (VTOF, FTOV):
                if len(toks) != 8:
                    rec.fail("%s shadow needs a factor id" % role)
                (fid,) = rec.ints(toks[7:], 1, "SHADOW factor id")
            elif role == VALUE:
                if len(toks) != 7:
                    rec.fail("malformed VALUE shadow")
            else:
                rec.fail("unknown shadow role %r" % role)
            cur.shadow_slots.append(ShadowSlot(slot, vid, card, (sr, sc), role, fid))
        elif head == "REL":
            if len(toks) < 5:
                rec.fail("malformed REL record")
            slot, fid, nwords = rec.ints(toks[1:4], 3, "REL")
            if nwords < 1:
                rec.fail("REL needs at least one table word")
            refs = []
            for t in toks[4:]:
                if len(t) < 2 or t[0] not in ("V", "H") or not t[1:].isdecimal():
                    rec.fail("bad scope reference %r" % t)
                refs.append((t[0], int(t[1:])))
            pending_rel = RelSlot(slot, fid, refs, [])
            pending_words = nwords
            cur.rel_slots.append(pending_rel)
        elif head == "THRESH":
            (t,) = rec.ints(toks[1:], 1, "THRESH")
            if t < 0:
                rec.fail("threshold must be >= 0")
            cur.thresh = t
        elif head == "GIBBS_PERIOD":
            p, ph = rec.ints(toks[1:], 2, "GIBBS_PERIOD")
            if p < 1 or ph < 0:
                rec.fail("bad GIBBS_PERIOD values")
            cur.gibbs_period = p
            cur.gibbs_phase = ph
        else:
            rec.fail("unknown record %r" % head)

    if pending_words:
        rec.fail("unexpected end of input: REL record incomplete")
    if grid is None:
        rec.fail("missing GRID record")
    if mode is None:
        rec.fail("missing MODE record")
    return MachineImage(grid, mode, seed, cells)
