"""Graph IR: validation, builtin expansion, UAI parsing and serialization."""

import math

import numpy as np
import pytest

import gen
from factormesh.graph import (ALL_DIFFERENT, EPS_SOFT, EQUALITY,
                              PAIRWISE_ISING, PARITY, TABLE, FactorGraph,
                              FactorNode, GraphError, ParseError,
                              VariableNode, checked, expand_all,
                              expand_builtin, parse_evidence, parse_uai,
                              serialize_evidence, serialize_uai, validate,
                              with_evidence)

SMALLEST_UAI = "MARKOV\n1\n2\n1\n1 0\n\n2\n0.3 0.7\n"


def two_var_graph(table=(1.0, 2.0, 3.0, 4.0)):
    return FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                       [FactorNode(0, (0, 1), TABLE, tuple(table))])


# -- validation --------------------------------------------------------------

def test_validate_accepts_well_formed():
    assert validate(two_var_graph()) == []
    assert checked(two_var_graph()) is not None


def test_validate_flags_each_violation():
    cases = [
        (FactorGraph([VariableNode(1, 2)], []), "dense zero-based"),
        (FactorGraph([VariableNode(0, 1)], []), "cardinality must be >= 2"),
        (FactorGraph([VariableNode(0, 2, evidence=5)], []), "evidence value"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (), TABLE, ())]), "empty scope"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (3,), TABLE, (1, 1))]), "dangling"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0, 0), TABLE, (1, 1, 1, 1))]),
         "duplicate variable in scope"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), TABLE, None)]), "has no table"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), TABLE, (1, 2, 3))]),
         "table-length mismatch"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), TABLE, (-1.0, 1.0))]),
         "negative table entry"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), TABLE, (0.0, 0.0))]),
         "no positive entry"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), TABLE, (math.nan, 1.0))]),
         "factor 0: non-finite table entry"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), TABLE, (1.0, math.inf))]),
         "factor 0: non-finite table entry"),
        (FactorGraph([VariableNode(0, 2), VariableNode(1, 3)],
                     [FactorNode(0, (0, 1), ALL_DIFFERENT)]),
         "one shared cardinality"),
        (FactorGraph([VariableNode(0, 3), VariableNode(1, 3)],
                     [FactorNode(0, (0, 1), PARITY)]),
         "PARITY requires cardinality 2"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), PAIRWISE_ISING, coupling=1.0)]),
         "requires arity 2"),
        (FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                     [FactorNode(0, (0, 1), PAIRWISE_ISING)]),
         "requires a coupling"),
        (FactorGraph([VariableNode(0, 2)],
                     [FactorNode(0, (0,), "MYSTERY")]), "unknown kind"),
    ]
    for graph, needle in cases:
        problems = validate(graph)
        assert any(needle in p for p in problems), (needle, problems)
        with pytest.raises(GraphError):
            checked(graph)


def test_factor_id_numbering_checked():
    g = FactorGraph([VariableNode(0, 2)],
                    [FactorNode(5, (0,), TABLE, (1.0, 1.0))])
    assert any("breaks dense zero-based" in p for p in validate(g))


# -- builtin expansion -------------------------------------------------------

def test_expand_all_different_ternary_pair():
    f = FactorNode(0, (0, 1), ALL_DIFFERENT)
    t = expand_builtin(f, (3, 3), 0.25).table
    assert len(t) == 9
    # diagonal entries (last scope position fastest) carry epsilon
    assert [t[i] for i in (0, 4, 8)] == [0.25] * 3
    assert sum(1 for x in t if x == 1.0) == 6


def test_expand_parity_three_bits():
    t = expand_builtin(FactorNode(0, (0, 1, 2), PARITY), (2, 2, 2), 0.0).table
    ones = [i for i, x in enumerate(t) if x == 1.0]
    # even-parity rows 000, 011, 101, 110 with the last bit fastest
    assert ones == [0, 3, 5, 6]
    assert all(t[i] == 0.0 for i in range(8) if i not in ones)


def test_expand_equality_and_ising():
    t = expand_builtin(FactorNode(0, (0, 1), EQUALITY), (2, 2), 0.5).table
    assert t == (1.0, 0.5, 0.5, 1.0)
    t = expand_builtin(FactorNode(0, (0, 1), PAIRWISE_ISING, coupling=0.0),
                       (2, 2), 0.0).table
    assert t == (1.0, 1.0, 1.0, 1.0)
    t = expand_builtin(FactorNode(0, (0, 1), PAIRWISE_ISING, coupling=0.5),
                       (2, 2), 0.0).table
    assert t == pytest.approx((math.exp(0.5), math.exp(-0.5),
                               math.exp(-0.5), math.exp(0.5)))


def test_expand_passthrough_and_errors():
    f = FactorNode(0, (0,), TABLE, (1.0, 2.0))
    assert expand_builtin(f, (2,), 0.0) is f
    with pytest.raises(GraphError):
        expand_builtin(FactorNode(0, (0,), "MYSTERY"), (2,), 0.0)
    with pytest.raises(GraphError):
        expand_builtin(FactorNode(0, (0, 1), PARITY), (3, 3), 0.0)
    with pytest.raises(GraphError):
        expand_builtin(FactorNode(0, (0, 1), ALL_DIFFERENT), (2, 3), 0.0)
    with pytest.raises(GraphError):
        expand_builtin(FactorNode(0, (0, 1), PAIRWISE_ISING), (2, 2), 0.0)
    with pytest.raises(GraphError, match="PAIRWISE_ISING requires arity 2"):
        expand_builtin(FactorNode(0, (0, 1, 2), PAIRWISE_ISING, coupling=1.0), (2, 2, 2), 0.0)


def test_expand_all_leaves_only_tables():
    g = FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), PARITY),
                     FactorNode(1, (0,), TABLE, (0.3, 0.7))])
    out = expand_all(g, EPS_SOFT)
    assert all(f.kind == TABLE for f in out.factors)
    assert out.factors[0].table == (1.0, EPS_SOFT, EPS_SOFT, 1.0)


# -- evidence ----------------------------------------------------------------

def test_with_evidence():
    g = with_evidence(two_var_graph(), {1: 0})
    assert g.variables[1].evidence == 0
    assert g.variables[0].evidence is None
    with pytest.raises(GraphError):
        with_evidence(two_var_graph(), {1: 9})
    with pytest.raises(GraphError):
        with_evidence(two_var_graph(), {7: 0})


def test_evidence_file_round_trip():
    ev = {3: 1, 0: 2}
    assert parse_evidence(serialize_evidence(ev)) == ev
    with pytest.raises(ParseError):
        parse_evidence("2\n0 1\n0 2\n")
    with pytest.raises(ParseError):
        parse_evidence("1\n0 1\nextra\n")
    with pytest.raises(ParseError):
        parse_evidence("-1\n")


def test_a_negative_evidence_id_or_value_names_its_line():
    for text, line, message in (("1\n-1 0\n", 2, "line 2: negative evidence pair -1 0"),
                                ("2\n0 1\n# clamp\n3\n-2\n", 5,
                                 "line 5: negative evidence pair 3 -2")):
        with pytest.raises(ParseError) as err:
            parse_evidence(text)
        assert (str(err.value), err.value.line) == (message, line)


def test_a_trailing_token_names_its_own_line():
    for parse, text, message in (
            (parse_uai, "MARKOV\n1\n2\n1\n1 0\n2\n1 1\n\nextra\n",
             "line 9: trailing tokens after last table"),
            (parse_evidence, "1\n0 1\n\n# more\n2 1\n",
             "line 5: trailing tokens after evidence pairs")):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


def test_validate_lists_every_builtin_problem_and_expansion_raises_the_first():
    f = FactorNode(0, (0, 1, 2), PAIRWISE_ISING)
    g = FactorGraph([VariableNode(i, 2) for i in range(3)], [f])
    assert validate(g) == ["factor 0: PAIRWISE_ISING requires arity 2",
                           "factor 0: PAIRWISE_ISING requires a coupling"]
    with pytest.raises(GraphError) as err:
        expand_builtin(f, (2, 2, 2), 0.0)
    assert str(err.value) == "factor 0: PAIRWISE_ISING requires arity 2"


# -- UAI text format ---------------------------------------------------------

def test_parse_smallest_instance():
    g = parse_uai(SMALLEST_UAI)
    assert len(g.variables) == 1 and g.variables[0].cardinality == 2
    assert len(g.factors) == 1
    assert g.factors[0].scope == (0,)
    assert g.factors[0].table == (0.3, 0.7)


def test_parse_preserves_table_order():
    text = ("MARKOV\n2\n2 3\n1\n2 0 1\n\n6\n"
            "1 2 3\n4 5 6\n")
    g = parse_uai(text)
    assert g.factors[0].table == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert g.scope_cards(g.factors[0]) == (2, 3)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("BAYES\n", "expected MARKOV header"),
        ("MARKOV\n-1\n", "negative variable count"),
        ("MARKOV\n1\n1\n", "cardinality must be >= 2"),
        ("MARKOV\n1\n2\n-1\n", "line 4: negative factor count"),
        ("MARKOV\n1\n2\n2\n1 0\n0\n", "line 6: factor 1: arity must be >= 1"),
        ("MARKOV\n1\n2\n1\n1 4\n2\n1 1\n", "dangling variable id"),
        ("MARKOV\n2\n2 2\n1\n2 0 0\n4\n1 1 1 1\n", "duplicate variable"),
        ("MARKOV\n2\n2 2\n1\n2 0 1\n3\n1 1 1\n", "table-length mismatch"),
        ("MARKOV\n1\n2\n1\n1 0\n2\n-1 1\n", "negative table entry"),
        ("MARKOV\n1\n2\n1\n1 0\n2\nnan 1\n", "line 7: factor 0: non-finite table entry"),
        ("MARKOV\n1\n2\n1\n1 0\n2\n1\n-inf\n", "line 8: factor 0: non-finite table entry"),
        ("MARKOV\n1\n2\n1\n1 0\n2\n1 1\nextra\n", "trailing tokens"),
        ("MARKOV\n1\n2\n1\n1 0\n2\n1\n", "unexpected end of input"),
        ("MARKOV\n1\n2\n1\n1 0\n2\n1 x\n", "expected table entry"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError) as err:
            parse_uai(text)
        assert needle in str(err.value), (needle, str(err.value))
        assert err.value.line >= 1


def test_an_all_zero_table_names_the_line_it_ends_on():
    text = "MARKOV\n2\n2 2\n2\n1 0\n2 0 1\n\n2\n1 1\n\n4\n0 0\n0 0\n"
    with pytest.raises(ParseError) as err:
        parse_uai(text)
    assert str(err.value) == "line 13: factor 1: table has no positive entry"


def test_serialize_round_trip_structure():
    for seed in range(5):
        g = gen.random_tree_graph(seed)
        back = parse_uai(serialize_uai(g))
        assert len(back.variables) == len(g.variables)
        assert [v.cardinality for v in back.variables] == \
            [v.cardinality for v in g.variables]
        assert [f.scope for f in back.factors] == [f.scope for f in g.factors]
        for a, b in zip(back.factors, g.factors):
            assert np.allclose(a.table, b.table, rtol=1e-11)


def test_serialize_is_idempotent_after_one_round():
    for seed in range(5):
        text = serialize_uai(gen.random_tree_graph(seed))
        assert serialize_uai(parse_uai(text)) == text


def test_serialize_exact_on_representable_tables():
    g = two_var_graph((0.5, 0.25, 1.0, 0.125))
    assert parse_uai(serialize_uai(g)) == g


def test_serialize_rejects_builtins():
    g = FactorGraph([VariableNode(0, 2), VariableNode(1, 2)],
                    [FactorNode(0, (0, 1), PARITY)])
    with pytest.raises(GraphError):
        serialize_uai(g)


def test_factors_of_positions():
    g = two_var_graph()
    assert g.factors_of(0) == [(0, 0)]
    assert g.factors_of(1) == [(0, 1)]
    assert g.factors_of(9) == []
