"""CLI surface: subcommands, exit codes, files in and out."""

import numpy as np
import pytest

import gen
from factormesh import apps, cli, golden
from factormesh.graph import (FactorGraph, FactorNode, VariableNode, TABLE,
                              expand_all, parse_uai, serialize_uai,
                              serialize_evidence)
from factormesh.machine import Machine

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


@pytest.mark.parametrize("setting, message", [
    ("grid huge", "grid must look like 4x4"),
    ("grid 0x4", "grid dimensions must be positive"),
    ("mode FOO", "mode must be one of SUMPROD/MINSUM/GIBBS"),
    # a negative budget would skip annealing and still exit 0
    ("epochs -5", "epochs must be >= 0, got -5"),
])
def test_compile_bad_config_value_names_its_line(tmp_path, capsys, setting, message):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    cfg = write(tmp_path, "bad.cfg", "# mesh setup\nseed 3\n%s\n" % setting)
    code, _, stderr = run_cli(capsys, "compile", graph_file, "--out",
                              str(tmp_path / "x.fmimg"), "--config", cfg)
    assert (code, stderr) == (2, "error: line 3: %s\n" % message)


@pytest.mark.parametrize("command, text, message", [
    # misspelled settings would compile with seed 0 on a 4x4 grid
    ("compile", "sede 5\ngird 9x9\n", "line 1: unknown config key 'sede'"),
    ("compile", "# mesh\nseed 5\ngird 9x9\n", "line 3: unknown config key 'gird'"),
    # a setting of another subcommand, and files and choices only flags give
    ("run", "seed 3\n", "line 1: unknown config key 'seed'"),
    ("compile", "out other.fmimg\n", "line 1: unknown config key 'out'"),
    ("golden", "alg exact\n", "line 1: unknown config key 'alg'"),
    # a builtin's violation weight: no graph a UAI file gives has a builtin
    ("compile", "epsilon 0\n", "line 1: unknown config key 'epsilon'"),
    ("golden", "# soft\nepsilon 0\n", "line 2: unknown config key 'epsilon'"),
])
def test_unknown_config_key_names_its_line(tmp_path, capsys, command, text, message):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    out = tmp_path / "x.fmimg"
    target = {"compile": [graph_file, "--out", str(out)],
              "run": [write(tmp_path, "pair.fmimg", equality_pair_image())],
              "golden": [graph_file, "--alg", "map"]}[command]
    cfg = write(tmp_path, "c.cfg", text)
    code, stdout, stderr = run_cli(capsys, command, *target, "--config", cfg)
    assert (code, stdout, stderr) == (2, "", "error: %s\n" % message)
    assert not out.exists()


@pytest.mark.parametrize("command, target", [("compile", ["--out"]),
                                             ("golden", ["--alg", "exact", "--out"])])
def test_epsilon_is_no_flag(tmp_path, capsys, command, target):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, command, graph_file, *target, str(out), "--epsilon", "0")
    assert not out.exists()
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon 0" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "Infinity"])
def test_a_non_finite_table_entry_exits_2(tmp_path, capsys, entry):
    graph_file = write(tmp_path, "bad.uai", PAIR_UAI.replace("1 2 3 4", entry + " 1 1 1"))
    out = tmp_path / "bad.fmimg"
    for argv in (("compile", graph_file, "--out", str(out)),
                 ("golden", graph_file, "--alg", "sumprod")):
        assert run_cli(capsys, *argv) == (
            2, "", "error: line 8: factor 0: non-finite table entry\n")
    assert not out.exists()


def test_compile_bad_flag_value_names_no_line(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    out = str(tmp_path / "x.fmimg")
    for grid, message in (("huge", "grid must look like 4x4"),
                          ("4x0", "grid dimensions must be positive")):
        # the flag outranks a good config value
        cfg = write(tmp_path, "good.cfg", "grid 4x4\n")
        code, _, stderr = run_cli(capsys, "compile", graph_file, "--out", out,
                                  "--grid", grid, "--config", cfg)
        assert (code, stderr) == (2, "error: %s\n" % message)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "compile", graph_file, "--out", out, "--mode", "FOO")
    assert exc.value.code == 2
    assert "invalid choice: 'FOO'" in capsys.readouterr().err
    missing = str(tmp_path / "nope.uai")
    code, _, stderr = run_cli(capsys, "compile", missing, "--out", out)
    assert code == 2 and stderr.startswith("error: cannot read %s: " % missing)


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
    code, stdout, stderr = run_cli(capsys, "run", image, "--ticks", "200",
                                   "--beliefs", beliefs_file)
    assert (code, stderr) == (0, "") and "quiescent=false" in stdout
    beliefs = apps.parse_results((tmp_path / "tri.beliefs").read_text())
    assert all(abs(sum(beliefs[v]) - 1.0) < 1e-9 for v in range(3))


def test_run_gibbs_zero_total_draw_exits_2(tmp_path, capsys):
    # variable 2's first draw finds its neighbours 0, 1 and 3 holding all
    # three colours, and epsilon quantizes to word 0: no value has weight
    bench = apps.build_coloring([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)], 3)
    graph_file = write(tmp_path, "col.uai",
                       serialize_uai(expand_all(bench.graph, np.exp(-20.0))))
    image = str(tmp_path / "col.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", image, "--mode", "GIBBS",
                   "--grid", "4x4", "--seed", "0")[0] == 0
    beliefs_file = tmp_path / "col.beliefs"
    code, stdout, stderr = run_cli(capsys, "run", image, "--ticks", "2000",
                                   "--beliefs", str(beliefs_file))
    assert (code, stderr) == (2, "error: zero_total_draws=1\n")
    # the run's output is written as it stands
    machine = Machine((tmp_path / "col.fmimg").read_text())
    assert stdout == machine.run_ticks(2000).text()
    assert beliefs_file.read_text() == apps.write_results(machine.read_beliefs()[0])


def test_compile_gibbs_with_a_threshold_exits_3(tmp_path, capsys):
    bench = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    graph_file = write(tmp_path, "tri.uai",
                       serialize_uai(expand_all(bench.graph, np.exp(-20.0))))
    code, _, stderr = run_cli(capsys, "compile", graph_file, "--out",
                              str(tmp_path / "tri.fmimg"), "--mode", "GIBBS",
                              "--grid", "2x2", "--thresh", "7")
    assert code == 3 and "GIBBS cells take no change threshold" in stderr


def test_negative_noise_or_threshold_exits_2(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    image = str(tmp_path / "pair.fmimg")
    code, _, stderr = run_cli(capsys, "compile", graph_file, "--out", image,
                              "--thresh", "-5")
    assert (code, stderr) == (2, "error: thresh must be >= 0, got -5\n")
    cfg = write(tmp_path, "bad.cfg", "# gates\nthresh -5\n")
    code, _, stderr = run_cli(capsys, "compile", graph_file, "--out", image,
                              "--config", cfg)
    assert (code, stderr) == (2, "error: line 2: thresh must be >= 0, got -5\n")
    assert not (tmp_path / "pair.fmimg").exists()
    assert run_cli(capsys, "compile", graph_file, "--out", image)[0] == 0
    code, stdout, stderr = run_cli(capsys, "run", image, "--noise", "-3")
    assert (code, stdout, stderr) == (2, "", "error: noise must be >= 0, got -3\n")
    cfg = write(tmp_path, "noise.cfg", "noise -3\n")
    code, _, stderr = run_cli(capsys, "run", image, "--config", cfg)
    assert (code, stderr) == (2, "error: line 1: noise must be >= 0, got -3\n")


def test_run_gibbs_with_output_noise_exits_2(tmp_path, capsys):
    bench = apps.build_ising_chain(8, 0.5, 0.2)
    graph_file = write(tmp_path, "ising.uai", serialize_uai(expand_all(bench.graph, 0.0)))
    image = str(tmp_path / "ising.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", image, "--mode", "GIBBS",
                   "--grid", "%dx%d" % bench.grid)[0] == 0
    code, stdout, stderr = run_cli(capsys, "run", image, "--noise", "5")
    assert (code, stdout, stderr) == (
        2, "", "error: a GIBBS machine takes no output noise, got 5\n")
    cfg = write(tmp_path, "noise.cfg", "# output noise\nnoise 5\n")
    code, stdout, stderr = run_cli(capsys, "run", image, "--config", cfg)
    assert (code, stdout, stderr) == (
        2, "", "error: line 2: a GIBBS machine takes no output noise, got 5\n")
    assert run_cli(capsys, "run", image, "--noise", "0", "--ticks", "50")[0] == 0


def test_budgets_that_compute_nothing_exit_2(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    for argv, message in ((("--alg", "sumprod", "--max-iters", "-1"),
                           "max_iters must be >= 1, got -1"),
                          (("--alg", "minsum", "--max-iters", "0"),
                           "max_iters must be >= 1, got 0"),
                          (("--alg", "gibbs", "--burn-in", "-5", "--sweeps", "10"),
                           "burn_in must be >= 0, got -5"),
                          (("--alg", "gibbs", "--sweeps", "0"),
                           "sweeps must be >= 1, got 0")):
        code, stdout, stderr = run_cli(capsys, "golden", graph_file, *argv)
        assert (code, stdout, stderr) == (2, "", "error: %s\n" % message)
    cfg = write(tmp_path, "sweeps.cfg", "# sampler\nsweeps 0\n")
    code, stdout, stderr = run_cli(capsys, "golden", graph_file, "--alg", "gibbs",
                                   "--config", cfg)
    assert (code, stdout, stderr) == (2, "", "error: line 2: sweeps must be >= 1, got 0\n")
    image = str(tmp_path / "pair.fmimg")
    code, stdout, stderr = run_cli(capsys, "compile", graph_file, "--out", image,
                                   "--epochs", "-5")
    assert (code, stdout, stderr) == (2, "", "error: epochs must be >= 0, got -5\n")
    assert run_cli(capsys, "compile", graph_file, "--out", image)[0] == 0
    code, stdout, stderr = run_cli(capsys, "run", image, "--max-cycles", "-5")
    assert (code, stdout, stderr) == (2, "", "error: max_cycles must be >= 0, got -5\n")
    cfg = write(tmp_path, "budget.cfg", "max_cycles -5\n")
    code, _, stderr = run_cli(capsys, "run", image, "--config", cfg)
    assert (code, stderr) == (2, "error: line 1: max_cycles must be >= 0, got -5\n")
    # each budget is checked in either mode, not only the one the image runs
    code, stdout, stderr = run_cli(capsys, "run", image, "--ticks", "0")
    assert (code, stdout, stderr) == (2, "", "error: ticks must be >= 1, got 0\n")
    gibbs_image = str(tmp_path / "pairg.fmimg")
    assert run_cli(capsys, "compile", graph_file, "--out", gibbs_image,
                   "--mode", "GIBBS")[0] == 0
    code, stdout, stderr = run_cli(capsys, "run", gibbs_image, "--ticks", "5",
                                   "--max-cycles", "-3")
    assert (code, stdout, stderr) == (2, "", "error: max_cycles must be >= 0, got -3\n")


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
    assert (code, stdout, stderr) == (2, "", "error: ticks must be >= 1, got 0\n")
    cfg = write(tmp_path, "ticks.cfg", "ticks 0\n")
    code, stdout, stderr = run_cli(capsys, "run", image, "--config", cfg,
                                   "--beliefs", str(beliefs_file))
    assert (code, stdout, stderr) == (2, "", "error: line 1: ticks must be >= 1, got 0\n")
    assert not beliefs_file.exists()


def assert_contradictory_chain_exits_2(tmp_path, capsys, *compile_args):
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
                   "--out", image, "--grid", "1x1", *compile_args)[0] == 0
    beliefs_file = tmp_path / "chain.beliefs"
    code, _, stderr = run_cli(capsys, "run", image, "--beliefs",
                              str(beliefs_file))
    assert code == 2
    assert "error: variable 1: belief collapsed" in stderr
    assert not beliefs_file.exists()


def test_run_collapsed_belief_exits_2(tmp_path, capsys):
    assert_contradictory_chain_exits_2(tmp_path, capsys)


def test_run_minsum_collapsed_belief_exits_2(tmp_path, capsys):
    # hard equalities keep every Q8.8 word of v1's belief at the floor
    assert_contradictory_chain_exits_2(tmp_path, capsys, "--mode", "MINSUM")


def test_run_rejects_garbage_image(tmp_path, capsys):
    bad = write(tmp_path, "junk.fmimg", "not an image\n")
    code, _, stderr = run_cli(capsys, "run", bad)
    assert code == 2 and "error:" in stderr


def equality_pair_image(refs="V0 H0", unary="V0", clamped=1):
    """Variable 0 in cell (0, 0) tied by an equality relation to variable 1,
    clamped to 1 in cell (0, 1); relation 1 is a flat unary on `unary`,
    variable 0.  Relation 0's message to variable 1 returns on the wire of
    its shadow.  `clamped` names the variable that cell (0, 1) declares."""
    return """FMIMG 6
GRID 1 2
MODE SUMPROD
CELL 0 0
VAR 0 2
SHADOW 1
REL 0 4 %s
65535 0 0 65535
REL 1 2 %s
65535 65535
CELL 0 1
VAR %d 2 EVIDENCE 1
""" % (refs, unary, clamped)


def test_run_equality_pair_image(tmp_path, capsys):
    image = write(tmp_path, "pair.fmimg", equality_pair_image())
    beliefs_file = tmp_path / "pair.beliefs"
    code, stdout, _ = run_cli(capsys, "run", image, "--beliefs", str(beliefs_file))
    assert code == 0 and "quiescent=true" in stdout
    beliefs = apps.parse_results(beliefs_file.read_text())
    assert beliefs[0] == [0.0, 1.0] and beliefs[1] == [0.0, 1.0]


@pytest.mark.parametrize("fields, message", [
    # the shadow's one return wire would carry two relations' messages
    ({"unary": "H0"}, "cell (0, 0): relations 0 and 1 both read shadow slot 0"),
    # the shadow's wire would come from no cell
    ({"clamped": 2}, "shadow of variable 1, which no cell owns"),
    # relation 0 would send variable 1 two messages, three packets in all
    ({"refs": "H0 H0"}, "relation 0 binds variable 1 at two scope positions"),
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
    # the formats before relations lost their programs, before shadows
    # named their own wires, before VTOF shadows declared their return
    # wires, before records lost their slot numbers and shadows their
    # source cells and cardinalities, and before shadows lost their roles
    # and relation ids
    for old, new, message in [
            ("FMIMG 6", "FMIMG 1", "line 1: expected FMIMG 6 header"),
            ("FMIMG 6", "FMIMG 2", "line 1: expected FMIMG 6 header"),
            ("FMIMG 6", "FMIMG 3", "line 1: expected FMIMG 6 header"),
            ("FMIMG 6", "FMIMG 4", "line 1: expected FMIMG 6 header"),
            ("FMIMG 6", "FMIMG 5", "line 1: expected FMIMG 6 header"),
            ("VAR 1 2 EVIDENCE 1", "VAR 0 1 2 EVIDENCE 1",
             "line 12: malformed VAR record"),
            ("SHADOW 1\n", "SHADOW 0 1 2 0 1 VTOF 0\n", "line 6: SHADOW needs 1 fields"),
            ("SHADOW 1\n", "SHADOW 1 VTOF 0\n", "line 6: SHADOW needs 1 fields"),
            ("65535 65535\n", "65535 65535\nPROG 2\n", "line 11: unknown record 'PROG'"),
            ("EVIDENCE 1\n", "EVIDENCE 1\nWIRE 1 0 0 0 1 0\n",
             "line 13: unknown record 'WIRE'"),
            ("EVIDENCE 1\n", "EVIDENCE 1\nSHADOW 1 FTOV 0\n",
             "line 13: SHADOW needs 1 fields")]:
        assert old in current
        image = write(tmp_path, "old.fmimg", current.replace(old, new))
        code, stdout, stderr = run_cli(capsys, "run", image)
        assert code == 2 and stdout == ""
        assert "error: " in stderr and message in stderr, (message, stderr)


def test_run_rejects_a_repeated_cell_record(tmp_path, capsys):
    for record in ("THRESH 3", "GIBBS_PERIOD 4 0"):
        text = equality_pair_image() + "%s\n%s\n" % (record, record)
        image = write(tmp_path, "twice.fmimg", text)
        code, stdout, stderr = run_cli(capsys, "run", image)
        assert code == 2 and stdout == ""
        assert ("error: line 14: second %s in cell (0, 1)" % record.split()[0]
                in stderr), stderr


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


def test_golden_checks_every_setting_whichever_alg_reads_it(tmp_path, capsys):
    graph_file = write(tmp_path, "pair.uai", PAIR_UAI)
    for argv, message in (
            (("--alg", "exact", "--sweeps", "0", "--burn-in", "-4", "--max-iters", "-3",
              "--damping", "7"), "damping must be in [0, 1), got 7"),
            (("--alg", "gibbs", "--max-iters", "-3", "--damping", "7"),
             "damping must be in [0, 1), got 7"),
            (("--alg", "exact", "--damping", "-0.5"), "damping must be in [0, 1), got -0.5"),
            (("--alg", "exact", "--max-iters", "-3"), "max_iters must be >= 1, got -3"),
            (("--alg", "map", "--burn-in", "-4"), "burn_in must be >= 0, got -4"),
            (("--alg", "sumprod", "--sweeps", "0"), "sweeps must be >= 1, got 0"),
            (("--alg", "minsum", "--damping", "1"), "damping must be in [0, 1), got 1")):
        code, stdout, stderr = run_cli(capsys, "golden", graph_file, *argv)
        assert (code, stdout, stderr) == (2, "", "error: %s\n" % message)
    for alg in ("exact", "gibbs"):
        for text, message in (
                ("# bp\nschedule RANDOM\n", "line 2: schedule must be one of FLOODING/SEQUENTIAL"),
                ("tol 0\ndamping 1.5\n", "line 2: damping must be in [0, 1), got 1.5"),
                ("max-iters 0\n", "line 1: max_iters must be >= 1, got 0")):
            cfg = write(tmp_path, "golden.cfg", text)
            code, stdout, stderr = run_cli(capsys, "golden", graph_file, "--alg", alg,
                                           "--config", cfg)
            assert (code, stdout, stderr) == (2, "", "error: %s\n" % message)


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


def test_verify_rejects_a_negative_or_nan_tolerance(tmp_path, capsys):
    # either would report every correct variable as FAIL
    bench, manifest, graph_file = ising_fixture(tmp_path)
    results_file = str(tmp_path / "results.txt")
    assert run_cli(capsys, "golden", graph_file, "--alg", "exact",
                   "--out", results_file)[0] == 0
    for value in ("-1", "nan"):
        assert run_cli(capsys, "verify", manifest, results_file, "--tolerance", value) == (
            2, "", "error: tolerance must be >= 0, got %s\n" % value)
        cfg = write(tmp_path, "verify.cfg", "# loose\ntolerance %s\n" % value)
        assert run_cli(capsys, "verify", manifest, results_file, "--config", cfg) == (
            2, "", "error: line 2: tolerance must be >= 0, got %s\n" % value)
    assert run_cli(capsys, "verify", manifest, results_file, "--tolerance", "0.01")[0] == 0


# -- the settings table ---------------------------------------------------------

# a value of each setting that changes what its subcommand writes
GOOD = {"grid": "3x3", "mode": "MINSUM", "seed": "3", "thresh": "1", "epochs": "1",
        "noise": "1", "ticks": "20", "max_cycles": "5", "schedule": "SEQUENTIAL",
        "damping": "0.5", "max_iters": "3", "tol": "0.01", "burn_in": "5",
        "sweeps": "50", "tolerance": "1.0"}
# three variables in a loop, so belief propagation takes many sweeps
LOOP_UAI = ("MARKOV\n3\n2 2 2\n3\n2 0 1\n2 1 2\n2 0 2\n\n"
            "4\n1 2 3 4\n\n4\n4 1 1 2\n\n4\n2 3 1 5\n")
SETTINGS = [(command, setting) for command, settings in cli.SETTINGS.items()
            for setting in settings]


def flag(name):
    return "--" + name.replace("_", "-")


def settings_target(tmp_path, capsys, command, name):
    """Arguments of `command` that a flag or config line for setting `name`
    is added to; what the command writes goes to tmp_path / "out"."""
    loop_file = write(tmp_path, "loop.uai", LOOP_UAI)
    out = str(tmp_path / "out")
    if command == "compile":
        return [write(tmp_path, "tree.uai", tree_uai()[0]), "--out", out]
    if command == "run":
        mode = "GIBBS" if name == "ticks" else "SUMPROD"
        image = str(tmp_path / "loop.fmimg")
        assert run_cli(capsys, "compile", loop_file, "--out", image, "--mode", mode)[0] == 0
        return [image, "--beliefs", out]
    if command == "golden":
        if name in ("seed", "burn_in", "sweeps"):
            short = [a for k in ("burn_in", "sweeps") if k != name for a in (flag(k), GOOD[k])]
            return [loop_file, "--alg", "gibbs", "--out", out] + short
        return [loop_file, "--alg", "sumprod", "--out", out]
    # results with one variable's marginal reversed, which --tolerance 1 accepts
    _bench, manifest, ising = ising_fixture(tmp_path)
    results = tmp_path / "ising.results"
    assert run_cli(capsys, "golden", ising, "--alg", "exact", "--out", str(results))[0] == 0
    beliefs = apps.parse_results(results.read_text())
    beliefs[2].reverse()
    return [manifest, write(tmp_path, "ising.results", apps.write_results(beliefs))]


@pytest.mark.parametrize("command, setting", SETTINGS,
                         ids=["%s-%s" % (c, s.name) for c, s in SETTINGS])
def test_a_setting_reads_the_same_from_its_flag_and_a_config_line(tmp_path, capsys,
                                                                  command, setting):
    argv = settings_target(tmp_path, capsys, command, setting.name)
    out = tmp_path / "out"

    def outputs(*extra):
        out.unlink(missing_ok=True)
        result = run_cli(capsys, command, *argv, *extra)
        return result, out.read_bytes() if out.exists() else None

    by_flag = outputs(flag(setting.name), GOOD[setting.name])
    cfg = write(tmp_path, "one.cfg", "# one setting\n%s %s\n" % (setting.name,
                                                                  GOOD[setting.name]))
    assert outputs("--config", cfg) == by_flag
    # the value is read: the default writes something else
    assert outputs() != by_flag
    assert by_flag[0][0] in (0, 1, 4)
    assert (by_flag[1] is None) == (command == "verify")


@pytest.mark.parametrize("command, setting",
                         [(c, s) for c, s in SETTINGS if s.least is not None or s.choices],
                         ids=lambda x: x if isinstance(x, str) else x.name)
def test_a_bounded_setting_names_the_config_line_of_a_bad_value(tmp_path, capsys,
                                                                command, setting):
    argv = settings_target(tmp_path, capsys, command, setting.name)
    if setting.choices:
        bad = ["FOO"]
    else:
        bad = [str(setting.least - 1)] + ["nan"] * (setting.type is float) + \
            [str(setting.below)] * (setting.below is not None)
    for value in bad:
        cfg = write(tmp_path, "bad.cfg", "# a bad value\n%s %s\n" % (setting.name, value))
        code, stdout, stderr = run_cli(capsys, command, *argv, "--config", cfg)
        assert (code, stdout) == (2, "") and stderr.startswith("error: line 2: %s must be "
                                                              % setting.name), stderr
        if setting.choices:
            # argparse checks a flag's choices
            with pytest.raises(SystemExit) as exc:
                run_cli(capsys, command, *argv, flag(setting.name), value)
            assert exc.value.code == 2
            assert "invalid choice: 'FOO'" in capsys.readouterr().err
        else:
            assert run_cli(capsys, command, *argv, flag(setting.name), value) == (
                2, "", stderr.replace("line 2: ", ""))


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
    header = open(trace_file).readline()
    # one packet from (0, 0) to (2, 3) takes three links along row 0, then
    # two down column 3
    hand = write(tmp_path, "hand.trace",
                 header + "0,0,0,SEND,4,5\n5,2,3,DELIVER,4,5\n")
    code, stdout, _ = run_cli(capsys, "stats", hand)
    assert code == 0
    assert stdout == ("packets_by_cycle\n0 1\nlink_traffic\n"
                      "(0,0)->(0,1) 1\n(0,1)->(0,2) 1\n(0,2)->(0,3) 1\n"
                      "(0,3)->(1,3) 1\n(1,3)->(2,3) 1\n")
    bad = write(tmp_path, "plain.txt", "hello\n")
    code, _, stderr = run_cli(capsys, "stats", bad)
    assert code == 2 and "line 1: not a trace file (missing header)" in stderr
    bad = write(tmp_path, "field.trace", header + "1,0,x,SEND,0,1\n")
    code, _, stderr = run_cli(capsys, "stats", bad)
    assert code == 2 and "line 2: trace row has a non-integer field" in stderr
