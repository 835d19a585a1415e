"""Loadable machine image: per-cell configuration plus inter-cell wiring.

Text format (version header `FMIMG 10`), one record per line, `#` comments:

    FMIMG 10
    GRID <rows> <cols>
    MODE SUMPROD|MINSUM|GIBBS
    SEED <int>
    THRESH <lsb>                          packet gate threshold (SUMPROD, MINSUM)
    CELL <r> <c>                          opens a cell; records below attach to it
    VAR <var_id> <card> [EVIDENCE <value>]
    REL <factor_id> <var_id>...           the factor's scope, one id per position
    <integer table words on following lines, continuing the REL>

An image of any other version fails at its header.  GRID, MODE, SEED and
THRESH are image-wide and each appears at most once; a second one is a parse
error, as is an unknown record, so nothing is replaced or skipped silently.

A relation reads a scope variable that its cell's VAR records declare in
place, and any other through a shadow register, which the mode and scopes
fix (`shadow_key`): in SUMPROD and MINSUM one per remote (variable,
relation), holding the variable's message into that relation, and in GIBBS
one per remote variable, holding its sampled value.  A cell's shadow slots
are numbered in first-read order (`CellImage.shadow_keys`).  A shadow slot
is its wire: one link into it from the cell whose VAR record declares the
variable, whose cardinality the shadow has; the machine rejects a relation
reading a variable no cell declares.  A converging shadow also has a return
wire, on which its relation sends the variable's cell its message to the
variable, into a register that counts as one of that cell's shadow slots.
Table words, THRESH and message words are in the units of the mode's
`domain`: u16 weights in SUMPROD and GIBBS, Q8.8 logs in MINSUM; an image
with no THRESH record gates at the domain's default.  A GIBBS cell sends a
value whenever it changes, so the machine rejects a THRESH record in a GIBBS
image; every cell's resample period and phase are derived, not recorded
(`gibbs_schedule`).  A cell's CELL record is its only coordinate, its key in
`MachineImage.cells`.  `parse_image` checks only the records' form, and the
loader every value, wiring and capacity rule, naming the line of the record
that breaks it: a slot's `line`, or an image-wide record's in
`MachineImage.lines`.

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
at its current value (a local variable's sample or a shadow's last delivered
value) multiply elementwise into that variable's conditional, which starts
at all ones; the variable is then drawn from the conditional.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Optional

from .fixedpoint import Q88, U16, Domain
from .records import INTEGER, Records

SUMPROD = "SUMPROD"
MINSUM = "MINSUM"
GIBBS = "GIBBS"
MODES = (SUMPROD, MINSUM, GIBBS)

# cycle budget of one converging relation update
MAX_UPDATE_CYCLES = 64


def domain(mode: str, error: type = ValueError) -> Domain:
    """The message format of a mode: Q8.8 logs in MINSUM, u16 weights in
    SUMPROD and GIBBS.  Its `thresh` is the machine's default packet gate.  Any
    other mode raises the caller's `error`, naming the modes."""
    if mode not in MODES:
        raise error("mode must be one of %s, got %r" % ("/".join(MODES), mode))
    return Q88 if mode == MINSUM else U16


def relation_cost(k: int) -> int:
    """Cycles of one converging update of a k-position relation: per output
    a table load, k - 1 combines, k - 1 reductions and a normalize."""
    return 2 * k * k


def gibbs_var_cost(n_rels: int) -> int:
    """Cycles to resample one variable: a table slice plus a conditional
    multiply per relation touching it, then draw and publish."""
    return 2 * n_rels + 2


def gibbs_tick_cost(n_rels) -> int:
    """Cycles of one GIBBS tick, given each variable's count of relations."""
    return sum(map(gibbs_var_cost, n_rels))


# cycles added to a GIBBS phase over its travel and compute time
GIBBS_SLACK = 4


def gibbs_schedule(image: MachineImage, wires: list) -> tuple:
    """The one GIBBS resample schedule: (period, phase by coordinate) of the
    cells that declare a VAR, which share the period; any other cell never
    ticks.  Such cells take turns of delta cycles, ranked by their lowest
    variable id, and delta is the grid's longest route, (rows - 1) +
    (cols - 1), plus the most value wires leaving one cell, plus the largest
    tick cost of one cell, plus GIBBS_SLACK, so each cell samples against
    fresh neighbour values.  A cell's tick cost is `gibbs_tick_cost` of the
    number of the cell's REL scopes naming each of its variables.  `wires`
    is `image.wires`, which the caller has already built."""
    rows, cols = image.grid
    owners = sorted((min(vs.var_id for vs in ci.var_slots), coord)
                    for coord, ci in image.cells.items() if ci.var_slots)
    tick = max([0] + [gibbs_tick_cost(sum(vs.var_id in rel.scope for rel in ci.rel_slots)
                                      for vs in ci.var_slots) for ci in image.cells.values()])
    fanout = max(collections.Counter(w.src for w in wires).values(), default=0)
    delta = (rows - 1) + (cols - 1) + fanout + tick + GIBBS_SLACK
    return delta * len(owners), {coord: k * delta for k, (_vid, coord) in enumerate(owners)}


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
    var_id: int
    card: int
    evidence: Optional[int] = None
    # the record's line in the text `parse_image` read, None in code; its
    # CELL record's for a CellImage
    line: Optional[int] = field(default=None, compare=False, repr=False)


def shadow_key(mode: str, var_id: int, factor_id: int) -> tuple:
    """The shadow register through which relation `factor_id` reads remote
    variable `var_id`: its value, shared in GIBBS, else its message into the
    relation."""
    return (var_id, None if mode == GIBBS else factor_id)


@dataclass
class RelSlot:
    factor_id: int
    scope: list                     # var_id per scope position
    table: list                     # quantized integer words
    line: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass
class CellImage:
    """One cell's records; its coordinate is its key in `MachineImage.cells`."""
    var_slots: list = field(default_factory=list)
    rel_slots: list = field(default_factory=list)
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def shadow_keys(self, mode: str) -> dict:
        """The `shadow_key` of every read of a variable that no VAR record of
        the cell declares, in slot order, the order of first reads (relations
        in record order, then scope order), each mapped to its first reader."""
        local = {vs.var_id for vs in self.var_slots}
        keys = {}
        for rel in self.rel_slots:
            for vid in rel.scope:
                if vid not in local:
                    keys.setdefault(shadow_key(mode, vid, rel.factor_id), rel)
        return keys


@dataclass
class Wire:
    """One link from cell `src` to cell `dst` carrying variable `var_id`:
    its message or value into shadow slot `slot` of `dst`, or, when `back`,
    the message of the relation reading converging shadow slot `slot` of
    `src` into the variable.  `src` of a shadow's wire, and `dst` of its
    return wire, is the cell declaring the variable, None if there is none."""
    var_id: int
    src: tuple
    dst: tuple
    slot: int
    back: bool = False


@dataclass
class MachineImage:
    grid: tuple                     # (rows, cols)
    mode: str
    seed: int
    cells: dict = field(default_factory=dict)   # (r, c) -> CellImage
    thresh: Optional[int] = None    # every converging cell's packet gate
    # each image-wide record's line in the text `parse_image` read
    lines: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def wires(self) -> list:
        """One Wire per shadow slot (`CellImage.shadow_keys`), from its
        variable's cell into the slot, each followed, outside GIBBS, by its
        return wire, in (cell coordinate, slot) order."""
        home = {vs.var_id: coord for coord, ci in self.cells.items()
                for vs in ci.var_slots}
        wires = []
        for coord in sorted(self.cells):
            for slot, (vid, _fid) in enumerate(self.cells[coord].shadow_keys(self.mode)):
                src = home.get(vid)
                wires.append(Wire(vid, src, coord, slot))
                if self.mode != GIBBS:
                    wires.append(Wire(vid, coord, src, slot, back=True))
        return wires


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dumps(image: MachineImage) -> str:
    lines = ["FMIMG 10",
             "GRID %d %d" % image.grid,
             "MODE %s" % image.mode,
             "SEED %d" % image.seed]
    if image.thresh is not None:
        lines.append("THRESH %d" % image.thresh)
    for coord in sorted(image.cells):
        cell = image.cells[coord]
        lines.append("CELL %d %d" % coord)
        for vs in cell.var_slots:
            row = "VAR %d %d" % (vs.var_id, vs.card)
            if vs.evidence is not None:
                row += " EVIDENCE %d" % vs.evidence
            lines.append(row)
        for rel in cell.rel_slots:
            lines.append(" ".join(map(str, ["REL", rel.factor_id, *rel.scope])))
            for i in range(0, len(rel.table), 12):
                lines.append(" ".join(str(w) for w in rel.table[i:i + 12]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_image(text: str) -> MachineImage:
    """Read an image's records.  Only their form is checked here; every
    value, wiring and capacity rule is the loader's (`machine.Machine`),
    which names the line of the record that breaks it."""
    rec = Records(text, ImageError)
    records = iter(rec)
    if next(records, [])[:2] != ["FMIMG", "10"]:
        rec.fail("expected FMIMG 10 header")
    grid = None
    mode = None
    seed = 0
    thresh = None
    lines = {}                  # image-wide record -> its line
    cells = {}
    cur: Optional[CellImage] = None
    rel: Optional[RelSlot] = None

    for toks in records:
        head = toks[0]
        if rel is not None and INTEGER.fullmatch(head):
            # a line of integers continues the REL just read
            if not all(map(INTEGER.fullmatch, toks)):
                rec.fail("table words must be integers")
            rel.table.extend(map(int, toks))
            continue
        rel = None
        if head in ("VAR", "REL") and cur is None:     # a CELL's records
            rec.fail("%s outside a CELL" % head)
        if head in ("GRID", "MODE", "SEED", "THRESH"):
            if head in lines:
                rec.fail("second %s record; the first is on line %d" % (head, lines[head]))
            lines[head] = rec.line
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
            coord = tuple(rec.ints(toks[1:], 2, "CELL"))
            if coord in cells:
                rec.fail("duplicate CELL (%d, %d)" % coord)
            cur = cells[coord] = CellImage(line=rec.line)
        elif head == "VAR":
            if len(toks) == 3:
                vid, card = rec.ints(toks[1:], 2, "VAR")
                ev = None
            elif len(toks) == 5 and toks[3] == "EVIDENCE":
                vid, card = rec.ints(toks[1:3], 2, "VAR")
                (ev,) = rec.ints(toks[4:], 1, "EVIDENCE")
            else:
                rec.fail("malformed VAR record")
            cur.var_slots.append(VarSlot(vid, card, ev, rec.line))
        elif head == "REL":
            if len(toks) < 3:
                rec.fail("malformed REL record")
            fid, *scope = rec.ints(toks[1:], len(toks) - 1, "REL")
            rel = RelSlot(fid, scope, [], rec.line)
            cur.rel_slots.append(rel)
        elif head == "THRESH":
            (thresh,) = rec.ints(toks[1:], 1, "THRESH")
        else:
            rec.fail("unknown record %r" % head)

    if grid is None:
        rec.fail("missing GRID record")
    if mode is None:
        rec.fail("missing MODE record")
    return MachineImage(grid, mode, seed, cells, thresh, lines)
