"""Generated relation kernels against a nested-loop reading of the update.

A relation's update is fixed by its mode and scope.  `standard_program`
writes it out as the op list the compiler once emitted, and `reference`
interprets that list one op at a time on a dict of accumulator cells, using
the scalar `fixedpoint` functions; the machine runs the kernel it generated
at load from the scope's shape.  Both must give the same words for any
shape, table and inputs.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from factormesh import fixedpoint as fp
from factormesh.image import MINSUM, SUMPROD, domain
from factormesh.machine import Machine


def standard_program(mode, k):
    """The update of a k-position relation as ops: for every output j, load
    the table, combine every other position i with its own input in
    ascending i, reduce those positions and normalize to j."""
    combine, reduce = ("MUL", "SUM_REDUCE") if mode == SUMPROD else ("ADD", "MAX_REDUCE")
    prog = []
    for j in range(k):
        others = [i for i in range(k) if i != j]
        prog.append(("LOAD_TABLE_SLICE",))
        prog += [(combine, i, i) for i in others]
        prog += [(reduce, i) for i in others]
        prog.append(("NORMALIZE", j))
    return prog


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


def one_relation_image(mode, shape, table):
    lines = ["FMIMG 10", "GRID 1 1", "MODE %s" % mode, "CELL 0 0"]
    lines += ["VAR %d %d" % (p, c) for p, c in enumerate(shape)]
    lines.append("REL 0 %s" % " ".join(str(p) for p in range(len(shape))))
    lines.append(" ".join(str(w) for w in table))
    return "\n".join(lines) + "\n"


@st.composite
def relations(draw):
    """A mode, a scope shape, table words and one input vector per scope
    position, drawn across the mode's whole word range."""
    mode = draw(st.sampled_from([SUMPROD, MINSUM]))
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    lo, hi = (0, fp.U16_MAX) if mode == SUMPROD else (fp.Q88_MIN, fp.Q88_MAX)
    words = st.integers(lo, hi)
    size = math.prod(shape)
    table = draw(st.lists(words, min_size=size, max_size=size))
    inputs = [tuple(draw(st.lists(words, min_size=c, max_size=c))) for c in shape]
    return mode, shape, table, inputs


@settings(max_examples=300, deadline=None)
@given(relations())
def test_kernel_matches_nested_loop_reference(case):
    mode, shape, table, inputs = case
    m = Machine(one_relation_image(mode, shape, table))
    rel = m.cells[(0, 0)].rels[0]
    for p, vec in enumerate(inputs):
        m.var_owner[p].edges[0].msg = vec
    want = reference(shape, table, inputs, standard_program(mode, len(shape)),
                     mode == SUMPROD)
    assert rel.kernel(rel.table, *[ref.msg for ref in rel.refs]) == tuple(msg for _j, msg in want)


@st.composite
def folding_relations(draw):
    """Like `relations`, but most table words are the mode's `lo`, `one`
    and `hi`, the words a kernel might fold, mixed with arbitrary words,
    and the inputs, drawn across the whole word range, often hit those
    words too.  A table takes its words from a palette of at most three,
    so one word often fills every cell of some message element."""
    mode = draw(st.sampled_from([SUMPROD, MINSUM]))
    dom = domain(mode)
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    special = st.sampled_from((dom.lo, dom.one, dom.hi))
    words = st.integers(dom.lo, dom.hi)
    size = math.prod(shape)
    palette = draw(st.lists(st.one_of(special, special, words), min_size=1, max_size=3))
    table = draw(st.lists(st.sampled_from(palette), min_size=size, max_size=size))
    inputs = [tuple(draw(st.lists(st.one_of(special, words), min_size=c, max_size=c)))
              for c in shape]
    return mode, shape, table, inputs


# at least 300 examples, or a deeper profile's (HYPOTHESIS_PROFILE=deep,
# registered in conftest.py)
@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(folding_relations())
def test_every_fold_is_exact(case):
    mode, shape, table, inputs = case
    m = Machine(one_relation_image(mode, shape, table))
    rel = m.cells[(0, 0)].rels[0]
    for p, vec in enumerate(inputs):
        m.var_owner[p].edges[0].msg = vec
    want = reference(shape, table, inputs, standard_program(mode, len(shape)),
                     mode == SUMPROD)
    assert rel.kernel(rel.table, *[ref.msg for ref in rel.refs]) == tuple(msg for _j, msg in want)
