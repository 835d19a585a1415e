"""CLI surface: subcommands, exit codes, files in and out."""

import numpy as np
import pytest

import gen
from factormesh import apps, cli, golden
from factormesh.graph import (FactorGraph, FactorNode, VariableNode, TABLE,
                              expand_all, parse_uai, serialize_uai,
                              serialize_evidence)

PAIR_UAI = "MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n1 2 3 4\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def tree_uai(seed=0, min_vars=7):
    for s in range(seed, seed + 40):
        graph = gen.random_tree_graph(s)
        if len(graph.variables) >= min_vars:
            return serialize_uai(graph), graph
    raise AssertionError("no suitable tree")


# -- compile ------------------------------------------------------------------

def test_compile_single_cluster_reports_zero_cost(tmp_path, capsys):
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    graph_file = write(tmp_path, "tri.uai",
                       serialize_uai(expand_all(bench.graph, 0.0)))
    out = str(tmp_path / "tri.fmimg")
    code, stdout, _ = run_cli(capsys, "compile", graph_file, "--out", out)
    assert code == 0
    assert "cost_final=0" in stdout and "clusters=1" in stdout
    again = str(tmp_path / "tri2.fmimg")
    code, _, _ = run_cli(capsys, "compile", graph_file, "--out", again)
    assert code == 0
    assert (tmp_path / "tri.fmimg").read_bytes() == \
        (tmp_path / "tri2.fmimg").read_bytes()


def test_compile_rejects_undersized_grid_with_exit_3(tmp_path, capsys):
    text, _ = tree_uai()
    graph_file = write(tmp_path, "tree.uai", text)
    out = str(tmp_path / "tree.fmimg")
    cfg = write(tmp_path, "mesh.cfg", "# mesh setup\ngrid 1x1\n")
    code, _, stderr = run_cli(capsys, "compile", graph_file, "--out", out,
                              "--config", cfg)
    assert code == 3 and "error:" in stderr
    # explicit flag outranks the config file
    code, _, _ = run_cli(capsys, "compile", graph_file, "--out", out,
                         "--config", cfg, "--grid", "4x4")
    assert code == 0


def test_compile_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.uai")
    code, _, stderr = run_cli(capsys, "compile", missing, "--out",
                              str(tmp_path / "x.fmimg"))
    assert code == 2 and "error:" in stderr
    bad = write(tmp_path, "bad.uai", "MARKOV\n1\n")
    assert run_cli(capsys, "compile", bad, "--out",
                   str(tmp_path / "x.fmimg"))[0] == 2
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    assert run_cli(capsys, "compile", graph_file, "--out",
                   str(tmp_path / "x.fmimg"), "--grid", "huge")[0] == 2
    cfg = write(tmp_path, "bad.cfg", "seed abc\n")
    code, _, stderr = run_cli(capsys, "compile", graph_file, "--out",
                              str(tmp_path / "x.fmimg"), "--config", cfg)
    assert code == 2 and "line 1: config value for seed is not a int" in stderr


# -- run ----------------------------------------------------------------------

def test_run_emits_stats_beliefs_trace(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    image = str(tmp_path / "pair.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", image)[0] == 0
    stats_file = str(tmp_path / "run.stats")
    beliefs_file = str(tmp_path / "run.beliefs")
    trace_file = str(tmp_path / "run.trace")
    code, stdout, _ = run_cli(capsys, "run", image, "--stats", stats_file,
                              "--beliefs", beliefs_file, "--trace", trace_file)
    assert code == 0
    assert "quiescent=true" in stdout
    assert (tmp_path / "run.stats").read_text() == stdout
    beliefs = apps.parse_results((tmp_path / "run.beliefs").read_text())
    assert abs(beliefs[0][0] - 0.3) < 0.01 and abs(beliefs[1][1] - 0.6) < 0.01
    trace = (tmp_path / "run.trace").read_text()
    assert trace.startswith("cycle,cell_row,cell_col,event,var_id,detail\n")


def test_run_cycle_budget_exhaustion_exits_4(tmp_path, capsys):
    bench = apps.build_parity_code((0, 1, 0, 0, 0, 0, 0))
    graph_file = write(tmp_path, "ham.uai",
                       serialize_uai(expand_all(bench.graph, 0.0)))
    image = str(tmp_path / "ham.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", image,
                   "--grid", "4x4", "--seed", "1")[0] == 0
    code, stdout, _ = run_cli(capsys, "run", image, "--max-cycles", "50")
    assert code == 4
    assert "quiescent=false" in stdout


def test_run_gibbs_ticks(tmp_path, capsys):
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    graph_file = write(tmp_path, "tri.uai",
                       serialize_uai(expand_all(bench.graph, np.exp(-20.0))))
    image = str(tmp_path / "tri.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", image,
                   "--mode", "GIBBS", "--grid", "2x2")[0] == 0
    beliefs_file = str(tmp_path / "tri.beliefs")
    code, stdout, _ = run_cli(capsys, "run", image, "--ticks", "200",
                              "--beliefs", beliefs_file)
    assert code == 0 and "quiescent=false" in stdout
    beliefs = apps.parse_results((tmp_path / "tri.beliefs").read_text())
    assert all(abs(sum(beliefs[v]) - 1.0) < 1e-9 for v in range(3))


def test_run_gibbs_zero_ticks_exits_2(tmp_path, capsys):
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    graph_file = write(tmp_path, "tri.uai",
                       serialize_uai(expand_all(bench.graph, np.exp(-20.0))))
    image = str(tmp_path / "tri.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", image,
                   "--mode", "GIBBS", "--grid", "2x2")[0] == 0
    beliefs_file = tmp_path / "tri.beliefs"
    code, stdout, stderr = run_cli(capsys, "run", image, "--ticks", "0",
                                   "--beliefs", str(beliefs_file))
    assert code == 2 and stdout == ""
    assert "error: tick count must be at least 1" in stderr
    assert not beliefs_file.exists()


def test_run_collapsed_belief_exits_2(tmp_path, capsys):
    # v0 = 0 and v2 = 1 tied through v1 by two equalities: v1 has no state
    eq = (1.0, 0.0, 0.0, 1.0)
    graph = FactorGraph([VariableNode(i, 2) for i in range(3)],
                        [FactorNode(0, (0, 1), TABLE, eq),
                         FactorNode(1, (1, 2), TABLE, eq)])
    graph_file = write(tmp_path, "chain.uai", serialize_uai(graph))
    evidence_file = write(tmp_path, "chain.evid",
                          serialize_evidence({0: 0, 2: 1}))
    image = str(tmp_path / "chain.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--evidence", evidence_file,
                   "--out", image, "--grid", "1x1")[0] == 0
    beliefs_file = tmp_path / "chain.beliefs"
    code, _, stderr = run_cli(capsys, "run", image, "--beliefs",
                              str(beliefs_file))
    assert code == 2
    assert "error: variable 1: belief collapsed" in stderr
    assert not beliefs_file.exists()


def test_run_rejects_garbage_image(tmp_path, capsys):
    bad = write(tmp_path, "junk.fmimg", "not an image\n")
    code, _, stderr = run_cli(capsys, "run", bad)
    assert code == 2 and "error:" in stderr


def equality_pair_image(role="VTOF 0", card=2, ftov=0):
    """Variable 0 in cell (0, 0) tied by an equality relation to variable 1,
    clamped to 1 in cell (0, 1); relation 1 is a flat unary on variable 0."""
    table = " ".join("65535" if a == b else "0"
                     for a in range(2) for b in range(card))
    return """FMIMG 3
GRID 1 2
MODE SUMPROD
CELL 0 0
VAR 0 0 2
SHADOW 0 1 %d 0 1 %s
REL 0 0 %d V0 H0
%s
REL 1 1 2 V0
65535 65535
CELL 0 1
VAR 0 1 2 EVIDENCE 1
SHADOW 0 1 2 0 0 FTOV %d
""" % (card, role, 2 * card, table, ftov)


def test_run_equality_pair_image(tmp_path, capsys):
    image = write(tmp_path, "pair.fmimg", equality_pair_image())
    beliefs_file = tmp_path / "pair.beliefs"
    code, stdout, _ = run_cli(capsys, "run", image, "--beliefs", str(beliefs_file))
    assert code == 0 and "quiescent=true" in stdout
    beliefs = apps.parse_results(beliefs_file.read_text())
    assert beliefs[0] == [0.0, 1.0] and beliefs[1] == [0.0, 1.0]


@pytest.mark.parametrize("fields, message", [
    # the relation would read a uniform VALUE shadow and report variable 0
    # as [0.5, 0.5]
    ({"role": "VALUE"}, "a SUMPROD machine feeds no VALUE shadows"),
    # the relation's kernel would unpack a 2-word message as 3 words
    ({"card": 3}, "shadow of variable 1 has cardinality 3, the variable has 2"),
    # relation 0's message to variable 1 would have no wire to travel
    ({"ftov": 1}, "wire source has no relation 1 sending to variable 1"),
])
def test_run_rejects_wiring_a_run_would_ignore_or_crash_on(tmp_path, capsys,
                                                           fields, message):
    image = write(tmp_path, "bad.fmimg", equality_pair_image(**fields))
    beliefs_file = tmp_path / "bad.beliefs"
    code, stdout, stderr = run_cli(capsys, "run", image, "--beliefs",
                                   str(beliefs_file))
    assert code == 2 and stdout == ""
    assert "error: " in stderr and message in stderr
    assert not beliefs_file.exists()


def test_run_rejects_the_old_image_format(tmp_path, capsys):
    current = equality_pair_image()
    # the formats before relations lost their programs and before shadows
    # named their own wires
    for old, new, message in [
            ("FMIMG 3", "FMIMG 1", "line 1: expected FMIMG 3 header"),
            ("FMIMG 3", "FMIMG 2", "line 1: expected FMIMG 3 header"),
            ("65535 65535\n", "65535 65535\nPROG 2\n", "line 11: unknown record 'PROG'"),
            ("FTOV 0\n", "FTOV 0\nWIRE 1 0 0 0 1 0\n", "line 14: unknown record 'WIRE'")]:
        assert old in current
        image = write(tmp_path, "old.fmimg", current.replace(old, new))
        code, stdout, stderr = run_cli(capsys, "run", image)
        assert code == 2 and stdout == ""
        assert "error: " in stderr and message in stderr, (message, stderr)


# -- golden -------------------------------------------------------------------

def test_golden_exact_vs_sumprod_on_a_tree(tmp_path, capsys):
    text, graph = tree_uai()
    graph_file = write(tmp_path, "tree.uai", text)
    exact_file = str(tmp_path / "exact.txt")
    code, _, _ = run_cli(capsys, "golden", graph_file, "--alg", "exact",
                         "--out", exact_file)
    assert code == 0
    code, stdout, _ = run_cli(capsys, "golden", graph_file, "--alg", "sumprod",
                              "--tol", "1e-12", "--max-iters", "200")
    assert code == 0
    exact = apps.parse_results((tmp_path / "exact.txt").read_text())
    bp = apps.parse_results(stdout)
    for v in exact:
        assert float(np.max(np.abs(np.asarray(bp[v]) - exact[v]))) < 1e-8


def test_golden_minsum_rejects_damping_one(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    for alg in ("sumprod", "minsum"):
        code, _, stderr = run_cli(capsys, "golden", graph_file, "--alg", alg,
                                  "--damping", "1.0")
        assert code == 2 and "damping" in stderr


def test_golden_minsum_takes_schedule_flags_and_config(tmp_path, capsys):
    text, _ = tree_uai()
    graph_file = write(tmp_path, "tree.uai", text)
    graph = parse_uai(text)
    one_sweep = golden.min_sum(graph, schedule=golden.SEQUENTIAL, max_iters=1, tol=0)
    # one flooding sweep decodes this tree differently
    assert one_sweep.assignment != golden.min_sum(graph, max_iters=1, tol=0).assignment
    want = apps.write_results(dict(enumerate(one_sweep.assignment)))
    code, stdout, _ = run_cli(capsys, "golden", graph_file, "--alg", "minsum",
                              "--schedule", "SEQUENTIAL", "--max-iters", "1",
                              "--tol", "0")
    assert code == 0 and stdout == want
    cfg = write(tmp_path, "bp.cfg", "schedule SEQUENTIAL\nmax-iters 1\ntol 0\n")
    code, stdout, _ = run_cli(capsys, "golden", graph_file, "--alg", "minsum",
                              "--config", cfg)
    assert code == 0 and stdout == want


def test_golden_map_with_evidence(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    ev_file = write(tmp_path, "pair.evid", serialize_evidence({1: 0}))
    code, stdout, _ = run_cli(capsys, "golden", graph_file, "--alg", "map",
                              "--evidence", ev_file)
    assert code == 0
    assert apps.parse_results(stdout) == {0: 1, 1: 0}


def test_golden_gibbs_seeded_reruns_match(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    args = ("golden", graph_file, "--alg", "gibbs", "--seed", "7",
            "--burn-in", "50", "--sweeps", "500")
    a = run_cli(capsys, *args)
    b = run_cli(capsys, *args)
    assert a == b and a[0] == 0
    c = run_cli(capsys, "golden", graph_file, "--alg", "gibbs", "--seed", "8",
                "--burn-in", "50", "--sweeps", "500")
    assert c[1] != a[1]


def test_golden_enumeration_bound_exits_5(tmp_path, capsys):
    n = 30
    graph = FactorGraph([VariableNode(i, 2) for i in range(n)],
                        [FactorNode(i, (i,), TABLE, (0.4, 0.6))
                         for i in range(n)])
    graph_file = write(tmp_path, "wide.uai", serialize_uai(graph))
    code, _, stderr = run_cli(capsys, "golden", graph_file, "--alg", "exact")
    assert code == 5 and "error:" in stderr


# -- verify -------------------------------------------------------------------

def ising_fixture(tmp_path):
    bench = apps.build_ising_chain(4, 0.5, 0.2)
    manifest = write(tmp_path, "ising.manifest", apps.write_manifest(bench))
    graph_file = write(tmp_path, "ising.uai",
                       serialize_uai(expand_all(bench.graph, 0.0)))
    return bench, manifest, graph_file


def test_verify_pass_fail_and_missing(tmp_path, capsys):
    bench, manifest, graph_file = ising_fixture(tmp_path)
    results_file = str(tmp_path / "results.txt")
    assert run_cli(capsys, "golden", graph_file, "--alg", "exact",
                   "--out", results_file)[0] == 0
    code, stdout, _ = run_cli(capsys, "verify", manifest, results_file)
    assert code == 0 and stdout.strip().endswith("RESULT PASS 4/4")

    results = apps.parse_results((tmp_path / "results.txt").read_text())
    results[2] = [results[2][1], results[2][0]]
    corrupt = write(tmp_path, "corrupt.txt", apps.write_results(results))
    code, stdout, _ = run_cli(capsys, "verify", manifest, corrupt)
    assert code == 1 and "RESULT FAIL" in stdout
    # a loose tolerance flag rescues the corrupted entry
    assert run_cli(capsys, "verify", manifest, corrupt,
                   "--tolerance", "1.0")[0] == 0

    del results[3]
    partial = write(tmp_path, "partial.txt", apps.write_results(results))
    assert run_cli(capsys, "verify", manifest, partial)[0] == 2

    coloring = write(tmp_path, "coloring.manifest",
                     "KIND proper_coloring\nVARS 0 1\nCOLORS 3\nEDGE 0 5\n")
    colors = write(tmp_path, "colors.txt", "0 0\n1 1\n")
    code, _, stderr = run_cli(capsys, "verify", coloring, colors)
    assert code == 2 and "line 2: manifest EDGE names variable 5 outside VARS" in stderr


# -- stats --------------------------------------------------------------------

def test_stats_summarizes_a_trace(tmp_path, capsys):
    text, _ = tree_uai()
    graph_file = write(tmp_path, "tree.uai", text)
    image = str(tmp_path / "tree.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", image,
                   "--grid", "4x4", "--thresh", "1")[0] == 0
    trace_file = str(tmp_path / "tree.trace")
    assert run_cli(capsys, "run", image, "--trace", trace_file)[0] == 0
    code, stdout, _ = run_cli(capsys, "stats", trace_file)
    assert code == 0
    assert "packets_by_cycle" in stdout and "link_traffic" in stdout
    bad = write(tmp_path, "plain.txt", "hello\n")
    code, _, stderr = run_cli(capsys, "stats", bad)
    assert code == 2 and "line 1: not a trace file (missing header)" in stderr
    header = open(trace_file).readline()
    bad = write(tmp_path, "field.trace", header + "1,0,x,SEND,0,1\n")
    code, _, stderr = run_cli(capsys, "stats", bad)
    assert code == 2 and "line 2: trace row has a non-integer field" in stderr
