"""Generated converging path: the machine sends exactly what the old
interpreter sent.

`ReferenceKernelMachine` keeps a relation kernel, a variable refresh and
an evidence indicator that are not generated at load, and puts them where
the machine's generated update and emit handlers read them: each relation
runs its update written out as ops by `test_kernel.standard_program`
through the nested-loop interpreter `test_kernel.reference`, the refresh
folds prefix and suffix combinations in a loop, and the machine's domain
writes the uniform message and the evidence indicator out per mode.  Both
machines run the same image, and every packet, trace row, counter and
belief must agree.
"""

import dataclasses
import functools
import random

from hypothesis import given, reject, settings, strategies as st

import gen
from test_kernel import reference, standard_program
from factormesh import apps, fixedpoint as fp
from factormesh.graph import with_evidence
from factormesh.image import (MAX_UPDATE_CYCLES, MINSUM, SUMPROD, Capacities, domain,
                              dumps, relation_cost)
from factormesh.machine import Machine
from factormesh.mapper import MapperError, compile_graph


@dataclasses.dataclass(frozen=True, eq=False)
class ReferenceDomain(fp.Domain):
    """A mode's domain whose uniform message and evidence indicator are
    written out per mode."""
    linear: bool = True

    def uniform(self, card):
        return (fp.U16_MAX,) * card if self.linear else (0,) * card

    def indicator(self, card, value):
        if self.linear:
            return tuple(fp.U16_MAX if a == value else 0 for a in range(card))
        return tuple(0 if a == value else fp.Q88_MIN for a in range(card))


REFERENCE_DOMAINS = {
    mode: ReferenceDomain(**{f.name: getattr(domain(mode), f.name)
                             for f in dataclasses.fields(fp.Domain)},
                          linear=mode != MINSUM)
    for mode in (SUMPROD, MINSUM)}


def reference_kernel(mode, shape, table, *inputs):
    """Interpret the relation's update on its inputs: the anchored message
    per scope position, in position order."""
    return tuple(msg for _j, msg in reference(shape, table, list(inputs),
                                              standard_program(mode, len(shape)),
                                              mode != MINSUM))


def reference_refresh(dom, card, *msgs):
    """Outgoing messages, one per incoming message in attachment order, and
    the belief, uniform if there are none."""
    # prefix/suffix combinations give each exclude-one combination one
    # way; None stands for the uniform message, which combines exactly
    f = fp.mul_u16 if dom.linear else fp.sat_add
    combine = lambda a, b: tuple(map(f, a, b))
    norm = lambda v: tuple(fp.norm_linear(v) if dom.linear else fp.norm_log(v))
    pre = [None]
    for m in msgs:
        pre.append(m if pre[-1] is None else combine(pre[-1], m))
    suf = [None]
    for m in reversed(msgs):
        suf.append(m if suf[-1] is None else combine(m, suf[-1]))
    suf.reverse()
    outs = []
    for i in range(len(msgs)):
        a, b = pre[i], suf[i + 1]
        if a is None:
            vec = dom.uniform(card) if b is None else b
        else:
            vec = a if b is None else combine(a, b)
        outs.append(norm(vec))
    return tuple(outs), norm(pre[-1]) if msgs else dom.uniform(card)


class ReferenceKernelMachine(Machine):

    def _build(self, image, cap):
        super()._build(image, cap)
        # the generated handlers read the kernel, the refresh and the
        # domain's indicator and uniform message here
        self.dom = REFERENCE_DOMAINS[self.mode]
        for cell in self.cells.values():
            for rel in cell.rels:
                rel.kernel = functools.partial(reference_kernel, self.mode, rel.shape)
        for var in self.var_owner.values():
            var.refresh = functools.partial(reference_refresh, self.dom, var.card)


def run(cls, text, caps, noise, inject, budget):
    m = cls(text, capacities=caps, trace=True, noise_lsbs=noise)
    if inject is not None:
        m.inject_evidence(*inject)
    stats, _ = m.run_until_quiescent(budget)
    beliefs = {vid: var.belief for vid, var in m.var_owner.items()}
    ports = [edge.port for var in m.var_owner.values() for edge in var.edges]
    ports += [sh.port for cell in m.cells.values() for sh in cell.shadows]
    sent = [port.last for port in ports if port is not None]
    return stats, m.time, m.trace, beliefs, sent


def assert_same_runs(text, caps, inject=None, budget=1500):
    for noise in (0, 2):
        got = run(Machine, text, caps, noise, inject, budget)
        assert got == run(ReferenceKernelMachine, text, caps, noise, inject, budget)


@st.composite
def converging_cases(draw):
    """A random gen.py graph with evidence on some variables, compiled under
    SUMPROD or MINSUM with a zero or positive change threshold, plus an
    optional evidence injection."""
    graph_seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        graph = gen.random_tree_graph(graph_seed, n_lo=1, n_hi=10, card_hi=4)
    else:
        graph = gen.random_builtin_graph(graph_seed)
    pick = random.Random(draw(st.integers(0, 10 ** 6)))
    evidence = {v.id: pick.randrange(v.cardinality) for v in graph.variables
                if pick.random() < 0.2}
    graph = with_evidence(graph, evidence)
    mode = draw(st.sampled_from((SUMPROD, MINSUM)))
    caps = Capacities(var_slots=draw(st.integers(1, 3)), rel_slots=16,
                      shadow_slots=64, table_words=4096)
    try:
        image, _ = compile_graph(graph, mode, grid=(4, 4),
                                 seed=draw(st.integers(0, 2 ** 32 - 1)),
                                 capacities=caps,
                                 thresh=draw(st.sampled_from((0, 1, None))),
                                 epochs=2)
    except MapperError:
        reject()
    inject = None
    if draw(st.booleans()):
        slots = [vs for ci in image.cells.values() for vs in ci.var_slots]
        vs = pick.choice(slots)
        inject = (vs.var_id, pick.randrange(vs.card), draw(st.integers(0, 400)))
    return dumps(image), caps, inject, draw(st.sampled_from((0, 2)))


@settings(max_examples=max(60, settings().max_examples), deadline=None)
@given(case=converging_cases(), budget=st.integers(100, 1500))
def test_generated_path_matches_reference_interpreter(case, budget):
    text, caps, inject, noise = case
    got = run(Machine, text, caps, noise, inject, budget)
    want = run(ReferenceKernelMachine, text, caps, noise, inject, budget)
    assert got == want


# -- fixed cases at the capacity limits ---------------------------------------

def words(mode, n, rng):
    lo, hi = (0, fp.U16_MAX) if mode == SUMPROD else (fp.Q88_MIN, fp.Q88_MAX)
    return [rng.randint(lo, hi) for _ in range(n)]


def relation(fid, scope, table):
    return ["REL %d %s" % (fid, " ".join(scope)),
            " ".join(map(str, table))]


def test_widest_relation_table_generates_and_matches():
    # five positions, the most whose update fits the cycle limit, with
    # cardinalities that fill the 512 table words of one cell
    caps = Capacities(var_slots=5)
    shape = (4, 4, 4, 4, 2)
    assert relation_cost(len(shape)) <= MAX_UPDATE_CYCLES < relation_cost(len(shape) + 1)
    rng = random.Random(9)
    for mode in (SUMPROD, MINSUM):
        lines = ["FMIMG 10", "GRID 1 1", "MODE %s" % mode, "CELL 0 0"]
        lines += ["VAR %d %d%s" % (p, card, " EVIDENCE %d" % (p % 2)
                                   if p in (1, 4) else "")
                  for p, card in enumerate(shape)]
        lines += relation(0, [str(p) for p in range(len(shape))],
                          words(mode, caps.table_words, rng))
        text = "\n".join(lines) + "\nTHRESH 0\n"
        assert_same_runs(text, caps)
        # and straight on inputs across the whole word range
        machines = [cls(text, capacities=caps) for cls in (Machine, ReferenceKernelMachine)]
        for _ in range(20):
            inputs = [tuple(words(mode, card, rng)) for card in shape]
            outs = []
            for m in machines:
                for p, vec in enumerate(inputs):
                    m.var_owner[p].edges[0].msg = vec
                rel = m.cells[(0, 0)].rels[0]
                outs.append(rel.kernel(rel.table, *[ref.msg for ref in rel.refs]))
            assert outs[0] == outs[1]


def star_image(mode, thresh):
    """Variable 0 at the highest degree the default capacities allow: every
    relation slot of its cell holds a unary relation on it, and every shadow
    register a message from a pairwise relation in one of four leaf cells,
    on the return wire of the relation's shadow of variable 0; each
    leaf cell fills its variable and relation slots."""
    caps = Capacities()
    rng = random.Random(20)
    lines = ["FMIMG 10", "GRID 1 5", "MODE %s" % mode, "THRESH %d" % thresh, "CELL 0 0",
             "VAR 0 3"]
    leaf_fids = range(caps.rel_slots, caps.rel_slots + caps.shadow_slots)
    for fid in range(caps.rel_slots):
        lines += relation(fid, ["0"], words(mode, 3, rng))
    for col in range(1, 5):
        lines.append("CELL 0 %d" % col)
        for slot in range(caps.var_slots):
            vid = col * caps.var_slots + slot
            lines.append("VAR %d 2%s" % (vid, " EVIDENCE 1" if vid % 3 == 0 else ""))
        fids = leaf_fids[(col - 1) * caps.rel_slots:col * caps.rel_slots]
        for slot, fid in enumerate(fids):
            lines += relation(fid, ["0", str(col * caps.var_slots + slot)],
                              words(mode, 6, rng))
    return "\n".join(lines) + "\n", caps


def test_highest_variable_degree_generates_and_matches():
    for mode in (SUMPROD, MINSUM):
        for thresh in (0, 16):
            text, caps = star_image(mode, thresh)
            m = Machine(text)
            assert len(m.var_owner[0].edges) == caps.rel_slots + caps.shadow_slots
            assert_same_runs(text, caps, inject=(0, 2, 40))


def test_images_whose_tables_fold_match():
    # every word of hamming's parity tables folds (U16's zero and one), and
    # sudoku's all-different tables hold Q88's one, 0, off the diagonal
    word = apps.hamming_codewords()[5]
    hamming = apps.build_parity_code(tuple(b ^ (i == 2) for i, b in enumerate(word)),
                                     flip_p=0.05)
    sudoku = apps.build_sudoku()
    for bench, mode, thresh, budget in ((hamming, SUMPROD, 0, 400),
                                        (sudoku, MINSUM, None, 1500)):
        image, _ = compile_graph(bench.graph, mode, grid=bench.grid, seed=0,
                                 thresh=thresh, epochs=10)
        assert_same_runs(dumps(image), Capacities(), budget=budget)
