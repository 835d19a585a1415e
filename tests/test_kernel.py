"""Lowered relation kernels against a nested-loop reading of the micro-ops.

The reference below follows the micro-op semantics in `image.py` one op at a
time on a dict of accumulator cells, using the scalar `fixedpoint`
functions; the machine runs the same program through the kernel it lowered
at load.  Both must give the same words for any shape, table and inputs.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from factormesh import fixedpoint as fp
from factormesh.image import MINSUM, SUMPROD, format_op
from factormesh.machine import Machine, MachineError


def reference(shape, table, inputs, prog, linear):
    """(j, message) per NORMALIZE, by direct interpretation."""
    acc = None
    outs = []
    for op in prog:
        name = op[0]
        if name == "LOAD_TABLE_SLICE":
            cells = itertools.product(*[range(c) for c in shape])
            acc = {idx: table[t] for t, idx in enumerate(cells)}
        elif name in ("MUL", "ADD"):
            f = fp.mul_u16 if name == "MUL" else fp.sat_add
            axis, src = op[1], op[2]
            acc = {idx: f(v, inputs[src][idx[axis]]) for idx, v in acc.items()}
        elif name in ("SUM_REDUCE", "MAX_REDUCE"):
            f = (lambda a, b: a + b) if name == "SUM_REDUCE" else max
            axis = op[1]
            reduced = {}
            for idx, v in acc.items():
                key = idx[:axis] + (0,) + idx[axis + 1:]
                reduced[key] = f(reduced[key], v) if key in reduced else v
            acc = reduced
        elif name == "NORMALIZE":
            vec = [acc[idx] for idx in sorted(acc)]
            vec = fp.norm_linear(vec) if linear else fp.norm_log(vec)
            outs.append((op[1], tuple(vec)))
    return outs


def one_relation_image(mode, shape, table, prog):
    lines = ["FMIMG 1", "GRID 1 1", "MODE %s" % mode, "CELL 0 0"]
    lines += ["VAR %d %d %d" % (p, p, c) for p, c in enumerate(shape)]
    lines.append("REL 0 0 %d %s" % (len(table),
                                    " ".join("V%d" % p for p in range(len(shape)))))
    lines.append(" ".join(str(w) for w in table))
    lines.append("PROG %d" % len(prog))
    lines += [format_op(op) for op in prog]
    return "\n".join(lines) + "\n"


@st.composite
def relations(draw):
    """A mode, a shape and a converging program in the compiler's form, with
    the outputs, the combine operands and the reductions in random order."""
    mode = draw(st.sampled_from([SUMPROD, MINSUM]))
    linear = mode == SUMPROD
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    k = len(shape)
    combine, reduce = ("MUL", "SUM_REDUCE") if linear else ("ADD", "MAX_REDUCE")
    prog = []
    for j in draw(st.permutations(range(k))):
        others = [i for i in range(k) if i != j]
        prog.append(("LOAD_TABLE_SLICE", None))
        for axis in draw(st.permutations(others)):
            # any scope position whose domain fits the axis can feed it
            src = draw(st.sampled_from([p for p in range(k)
                                        if shape[p] == shape[axis]]))
            prog.append((combine, axis, src))
        for axis in draw(st.permutations(others)):
            prog.append((reduce, axis))
        prog.append(("NORMALIZE", j))
    lo, hi = (0, fp.U16_MAX) if linear else (fp.Q88_MIN, fp.Q88_MAX)
    words = st.integers(lo, hi)
    size = math.prod(shape)
    table = draw(st.lists(words, min_size=size, max_size=size))
    inputs = [tuple(draw(st.lists(words, min_size=c, max_size=c))) for c in shape]
    return mode, shape, table, prog, inputs


@settings(max_examples=300, deadline=None)
@given(relations())
def test_kernel_matches_nested_loop_reference(case):
    mode, shape, table, prog, inputs = case
    m = Machine(one_relation_image(mode, shape, table, prog))
    rel = m.cells[(0, 0)].rels[0]
    for p, vec in enumerate(inputs):
        m.var_owner[p].out_msgs[rel.fid] = vec
    want = reference(shape, table, inputs, prog, mode == SUMPROD)
    assert m._exec_program(rel) == want


@settings(max_examples=100, deadline=None)
@given(relations(), st.data())
def test_normalize_before_all_reductions_is_rejected(case, data):
    mode, shape, table, prog, _ = case
    reductions = [i for i, op in enumerate(prog) if op[0].endswith("_REDUCE")]
    if not reductions:
        return
    drop = data.draw(st.sampled_from(reductions))
    with pytest.raises(MachineError) as err:
        Machine(one_relation_image(mode, shape, table,
                                   prog[:drop] + prog[drop + 1:]))
    assert "before reducing other axes" in str(err.value)
