"""Benchmark builders, their independent oracles, and the verify plumbing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factormesh import apps, golden
from factormesh.graph import PARITY, TABLE, expand_all

EPS = 1e-9


# -- coloring ----------------------------------------------------------------

def test_coloring_counts_match_chromatic_polynomial():
    # triangle: 3! proper 3-colorings; cycle C5: 2^5 - 2
    assert apps.count_proper_colorings(apps.TRIANGLE_EDGES, 3, 3) == 6
    assert apps.count_proper_colorings(apps.FIVE_CYCLE_EDGES, 3, 5) == 30


def test_build_coloring_shape_and_checker():
    b = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    assert len(b.graph.variables) == 3
    assert len(b.graph.factors) == 3
    assert b.oracle_kind == apps.PROPER_COLORING
    assert apps.is_proper_coloring(apps.TRIANGLE_EDGES, [0, 1, 2])
    assert not apps.is_proper_coloring(apps.TRIANGLE_EDGES, [0, 0, 2])
    with pytest.raises(apps.HarnessError):
        apps.build_coloring([(0, 0)], 3)
    with pytest.raises(apps.HarnessError):
        apps.build_coloring(apps.TRIANGLE_EDGES, 1)


# -- sudoku ------------------------------------------------------------------

def test_sudoku_blank_board_has_288_grids():
    # the number of complete 4x4 grids is a published constant
    assert len(apps.sudoku_solutions((), limit=300)) == 288


def test_sudoku_fixture_unique_and_solved():
    sols = apps.sudoku_solutions(apps.SUDOKU_FIXTURE_GIVENS, limit=3)
    assert sols == [apps.SUDOKU_FIXTURE_SOLUTION]
    b = apps.build_sudoku()
    assert b.oracle == list(apps.SUDOKU_FIXTURE_SOLUTION)
    for r, c, v in apps.SUDOKU_FIXTURE_GIVENS:
        assert b.graph.variables[r * 4 + c].evidence == v


def test_sudoku_rejects_bad_puzzles():
    with pytest.raises(apps.HarnessError, match="more than one solution"):
        apps.build_sudoku(givens=())                 # 288 solutions
    with pytest.raises(apps.HarnessError, match="given value 9 out of range"):
        apps.sudoku_solutions(((0, 0, 9),))
    with pytest.raises(apps.HarnessError, match="violate a constraint"):
        apps.sudoku_solutions(((0, 0, 1), (0, 1, 1)))
    with pytest.raises(apps.HarnessError, match=r"conflicting givens at cell \(0, 0\)"):
        apps.sudoku_solutions(((0, 0, 1), (0, 0, 2)))
    # row 0 needs a 2 in its top-right box, which holds one in row 1
    givens = ((0, 0, 0), (0, 1, 1), (1, 2, 2))
    assert apps.sudoku_solutions(givens) == []
    with pytest.raises(apps.HarnessError, match="puzzle has no solution"):
        apps.build_sudoku(givens=givens)


# -- Hamming (7,4) -----------------------------------------------------------

def test_codeword_set_has_min_distance_three():
    words = apps.hamming_codewords()
    assert len(words) == 16
    assert (0,) * 7 in words
    for a, b in itertools.combinations(words, 2):
        assert sum(x != y for x, y in zip(a, b)) >= 3


def test_encode_produces_codewords():
    for data in itertools.product((0, 1), repeat=4):
        word = apps.hamming_encode(data)
        assert apps.checks_satisfied(word)
        assert tuple(word[i] for i in (2, 4, 5, 6)) == data


@pytest.mark.parametrize("data", [(1, 0, 1), (1, 0, 1, 1, 0), (1, 0, 2, 1)])
def test_encode_rejects_anything_but_4_data_bits(data):
    with pytest.raises(apps.HarnessError, match="need 4 data bits"):
        apps.hamming_encode(data)


@pytest.mark.parametrize("word", [(1, 0, 1), (0,) * 8, (1, 0, 2, 1, 0, 0, 0)])
@pytest.mark.parametrize("read", [apps.syndrome_decode, apps.build_parity_code])
def test_a_received_word_is_7_bits(read, word):
    with pytest.raises(apps.HarnessError, match="^need 7 received bits$"):
        read(word)


def test_syndrome_decode_corrects_single_flips():
    for data in ((0, 0, 0, 0), (1, 0, 1, 1)):
        word = apps.hamming_encode(data)
        assert apps.syndrome_decode(word) == word
        for pos in range(7):
            rx = list(word)
            rx[pos] ^= 1
            assert apps.syndrome_decode(rx) == word
    with pytest.raises(apps.HarnessError):
        apps.syndrome_decode((0, 1, 2, 0, 0, 0, 0))


def test_build_parity_code_graph_shape():
    b = apps.build_parity_code((0,) * 7)
    kinds = [f.kind for f in b.graph.factors]
    assert kinds.count(PARITY) == 3 and kinds.count(TABLE) == 7
    assert b.graph.factors[3].table == (0.95, 0.05)
    assert b.oracle == [0] * 7
    with pytest.raises(apps.HarnessError):
        apps.build_parity_code((0,) * 6)
    with pytest.raises(apps.HarnessError):
        apps.build_parity_code((0,) * 7, flip_p=0.6)


def test_decode_by_candidates_picks_nearest_valid():
    zero = (0,) * 7
    other = apps.hamming_encode((1, 0, 0, 0))
    rx = (1, 0, 0, 0, 0, 0, 0)
    # not-valid entries are ignored, the closest valid word wins
    trajectory = [(1, 1, 0, 0, 0, 0, 0), other, zero, other]
    assert apps.decode_by_candidates(trajectory, rx) == zero
    # nothing valid: fall back to the last assignment seen
    assert apps.decode_by_candidates([(1, 1, 0, 0, 0, 0, 0)], rx) == \
        (1, 1, 0, 0, 0, 0, 0)


def test_decode_by_candidates_breaks_ties_lexicographically():
    words = apps.hamming_codewords()
    a = (0,) * 7
    b = next(w for w in words if sum(w) == 4)
    # received word equidistant from both candidates
    diff = [i for i in range(7) if a[i] != b[i]]
    rx = list(a)
    for i in diff[:len(diff) // 2]:
        rx[i] = b[i]
    da = sum(x != y for x, y in zip(a, rx))
    db = sum(x != y for x, y in zip(b, rx))
    assert da == db
    assert apps.decode_by_candidates([b, a], rx) == min(a, b)


def decode_checking_every_word(assignments, received):
    """decode_by_candidates as a plain loop that checks every word."""
    best = last = None
    for a in assignments:
        last = tuple(a)
        if apps.checks_satisfied(last):
            key = (sum(x != y for x, y in zip(last, received)), last)
            if best is None or key < best[0]:
                best = (key, last)
    return last if best is None else best[1]


ALL_WORDS = list(itertools.product((0, 1), repeat=7))
NON_CODEWORDS = [w for w in ALL_WORDS if not apps.checks_satisfied(w)]


@st.composite
def trajectories(draw):
    """Runs of repeated 7-bit words, the way a per-cycle poll repeats the
    argmax, some with no word that satisfies the checks."""
    pool = ALL_WORDS if draw(st.booleans()) else NON_CODEWORDS
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 60)),
                         max_size=12))
    return [list(word) for word, n in runs for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(trajectories(), st.sampled_from(ALL_WORDS))
def test_decode_by_candidates_matches_checking_every_word(trajectory, received):
    assert apps.decode_by_candidates(trajectory, received) == \
        decode_checking_every_word(trajectory, received)


def test_bp_trajectory_decodes_single_flips_of_zero_word():
    zero = (0,) * 7
    for pos in range(7):
        rx = list(zero)
        rx[pos] ^= 1
        bench = apps.build_parity_code(rx)
        decoded = apps.decode_by_candidates(
            apps.bp_hamming_trajectory(bench.graph), rx)
        assert decoded == zero, "flip at %d" % pos


# -- Ising chain -------------------------------------------------------------

def test_transfer_matrix_matches_enumeration():
    b = apps.build_ising_chain(8, 0.5, 0.2)
    exact = golden.exact_marginals(expand_all(b.graph, 0.0))
    for got, want in zip(b.oracle, exact):
        assert float(np.max(np.abs(got - want))) < EPS


def test_transfer_matrix_symmetry_cases():
    for m in apps.ising_chain_marginals(5, 0.0, 0.0):
        assert np.allclose(m, [0.5, 0.5])
    for m in apps.ising_chain_marginals(2, 0.5, 0.0):
        assert np.allclose(m, [0.5, 0.5])
    with pytest.raises(apps.HarnessError):
        apps.ising_chain_marginals(0, 0.1, 0.1)


# -- verify + file formats ---------------------------------------------------

def test_verify_assignment_pass_and_fail():
    b = apps.build_sudoku()
    results = {i: v for i, v in enumerate(apps.SUDOKU_FIXTURE_SOLUTION)}
    report = apps.verify(b, results)
    assert report.passed and report.failed == 0 and report.checked == 16
    assert report.lines[-1] == "RESULT PASS 16/16"
    results[3] = (results[3] + 1) % 4
    report = apps.verify(b, results)
    assert not report.passed and report.failed == 1
    assert any(line.startswith("var 3: FAIL") for line in report.lines)
    assert report.text().endswith("RESULT FAIL 15/16\n")


def test_verify_accepts_marginal_vectors_for_assignments():
    b = apps.build_parity_code((0,) * 7)
    results = {i: [0.8, 0.2] for i in range(7)}
    assert apps.verify(b, results).passed


def test_verify_marginals_tolerance():
    b = apps.build_ising_chain(4, 0.5, 0.2)
    results = {i: list(b.oracle[i]) for i in range(4)}
    assert apps.verify(b, results).passed
    results[2] = [results[2][0] + 0.2, results[2][1] - 0.2]
    report = apps.verify(b, results)
    assert not report.passed
    assert any("var 2: FAIL" in line for line in report.lines)
    assert apps.verify(b, results, tolerance=0.5).passed


def test_verify_coloring_and_missing_variable():
    b = apps.build_coloring(apps.TRIANGLE_EDGES, 3)
    assert apps.verify(b, {0: 0, 1: 1, 2: 2}).passed
    report = apps.verify(b, {0: 0, 1: 0, 2: 2})
    assert not report.passed
    assert any("edge (0, 1): FAIL" in line for line in report.lines)
    with pytest.raises(apps.HarnessError):
        apps.verify(b, {0: 0, 1: 1})
    # a colour outside the palette fails on its own line
    report = apps.verify(b, {0: 0, 1: 1, 2: 3})
    assert not report.passed and report.failed == 1
    assert "var 2: FAIL value 3 out of range" in report.lines


def test_verify_marginals_given_an_assignment_fail_on_arity():
    b = apps.build_ising_chain(4, 0.5, 0.2)
    results = {i: list(b.oracle[i]) for i in range(4)}
    results[1] = 0
    report = apps.verify(b, results)
    assert not report.passed and report.failed == 1
    assert "var 1: FAIL wrong arity" in report.lines


def test_manifest_round_trip_all_kinds():
    benches = [apps.build_sudoku(),
               apps.build_ising_chain(4, 0.5, 0.2),
               apps.build_coloring(apps.FIVE_CYCLE_EDGES, 3),
               apps.build_parity_code(apps.hamming_encode((1, 0, 1, 1)))]
    results = [
        {i: v for i, v in enumerate(apps.SUDOKU_FIXTURE_SOLUTION)},
        {i: list(benches[1].oracle[i]) for i in range(4)},
        {0: 0, 1: 1, 2: 0, 3: 1, 4: 2},
        dict(enumerate(benches[3].oracle)),
    ]
    for bench, res in zip(benches, results):
        back = apps.parse_manifest(apps.write_manifest(bench))
        # free text is kept exactly
        assert (back.name, back.mode, back.note) == (bench.name, bench.mode, bench.note)
        assert back.oracle_kind == bench.oracle_kind
        assert back.compare_vars == bench.compare_vars
        assert apps.verify(back, res).passed == apps.verify(bench, res).passed


def test_manifest_rejects_malformed():
    with pytest.raises(apps.HarnessError, match="^line 1: manifest VARS missing"):
        apps.parse_manifest("KIND assignment\n")          # no VARS
    with pytest.raises(apps.HarnessError, match="^line 2: manifest KIND missing"):
        apps.parse_manifest("NAME x\nVARS 0\n")           # no KIND
    with pytest.raises(apps.HarnessError,
                       match="^line 2: manifest ORACLE missing variable 0"):
        apps.parse_manifest("KIND assignment\nVARS 0\n")  # no ORACLE
    with pytest.raises(apps.HarnessError, match="^line 1: unknown manifest record 'WHAT'"):
        apps.parse_manifest("WHAT 1\n")
    # verify() would look up variable 5's colour and find none
    with pytest.raises(apps.HarnessError,
                       match="^line 2: manifest EDGE names variable 5 outside VARS"):
        apps.parse_manifest("KIND proper_coloring\nVARS 0 1\nCOLORS 3\nEDGE 0 5\n")


def test_manifest_oracle_is_keyed_by_variable_id():
    # verify() looks the oracle up by each compared id, a negative one too
    back = apps.parse_manifest("KIND assignment\nVARS -1 3\nORACLE -1 1\nORACLE 3 0\n")
    assert apps.verify(back, {-1: 1, 3: 0}).passed


def test_results_round_trip():
    results = {0: 2, 3: [0.25, 0.5, 0.25], 1: 0}
    back = apps.parse_results(apps.write_results(results))
    assert back[0] == 2 and back[1] == 0
    assert np.allclose(back[3], [0.25, 0.5, 0.25])
    with pytest.raises(apps.HarnessError):
        apps.parse_results("0\n")
    with pytest.raises(apps.HarnessError):
        apps.parse_results("zero 1\n")
