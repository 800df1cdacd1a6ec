from pathlib import Path

import pytest

from causalbandit.bif import (
    BifNetwork,
    BifVariable,
    format_bif,
    load_bundled,
    parse_bif,
    to_causal_dag,
)
from causalbandit.errors import BifParseError, InternalConsistencyError
from causalbandit.model import enumerate_root_interventions, validate

FIXTURES = Path(__file__).parent / "fixtures"


def read_fixture(name):
    return (FIXTURES / name).read_text()


MINIMAL = """
network tiny {
}
variable A {
  type discrete [ 2 ] { yes, no };
}
variable B {
  type discrete [ 2 ] { yes, no };
}
probability ( A ) {
  table 0.5, 0.5;
}
probability ( B | A ) {
  (yes) 0.9, 0.1;
  (no) 0.2, 0.8;
}
"""


def test_minimal_two_variable_network():
    net = parse_bif(MINIMAL)
    assert net.name == "tiny"
    assert net.variable_names == ("A", "B")
    assert net.parent_map == {"A": (), "B": ("A",)}
    assert net.variables[0].state_count == 2
    assert net.edge_count == 1


def test_variable_without_probability_block_is_root():
    net = parse_bif("network n { }\nvariable X { type discrete [ 2 ] { a, b }; }")
    assert net.parent_map == {"X": ()}
    assert net.root_names == ("X",)


def test_chain_fixture():
    net = parse_bif(read_fixture("chain.bif"))
    assert net.variable_names == ("A", "B", "C")
    assert net.parent_map == {"A": (), "B": ("A",), "C": ("B",)}
    dag, index = to_causal_dag(net)
    assert dag.parents == ((), (0,), (1,))
    assert index == {"A": 0, "B": 1, "C": 2}
    assert net.root_names == ("A",)
    assert validate(dag).ok


def test_diamond_fixture():
    net = parse_bif(read_fixture("diamond.bif"))
    assert net.parent_map["D"] == ("B", "C")
    dag, index = to_causal_dag(net)
    assert dag.parents[index["D"]] == tuple(sorted((index["B"], index["C"])))
    assert dag.roots == (index["A"],)
    assert validate(dag).ok


def test_torture_fixture():
    net = parse_bif(read_fixture("torture.bif"))
    assert net.variable_names == ("node-1", "node.2", "N3")
    assert net.variables[0].states == ("0", "1")
    assert net.variables[1].states == ("a_1", "b-2", "c.3")
    assert net.parent_map["N3"] == ("node-1", "node.2")
    dag, _ = to_causal_dag(net)
    assert validate(dag).ok


@pytest.mark.parametrize("fixture", ["chain.bif", "diamond.bif", "torture.bif"])
def test_round_trip_is_fixed_point(fixture):
    net = parse_bif(read_fixture(fixture))
    again = parse_bif(format_bif(net))
    assert again == net
    assert format_bif(again) == format_bif(net)


def test_unknown_top_level_keyword_position():
    with pytest.raises(BifParseError) as err:
        parse_bif("network x {\n}\nfoo bar")
    assert err.value.line == 3
    assert err.value.column == 1
    assert "foo" in str(err.value)


def test_unresolved_parent_name():
    text = MINIMAL.replace("( B | A )", "( B | Z )")
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert "Z" in str(err.value)
    assert err.value.line > 0


def test_duplicate_variable_rejected():
    text = MINIMAL + "\nvariable A {\n  type discrete [ 2 ] { yes, no };\n}"
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert "declared twice" in str(err.value)


def test_second_probability_block_rejected():
    text = MINIMAL + "\nprobability ( A ) { table 0.5, 0.5; }"
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert "second probability block" in str(err.value)


def test_cycle_detected():
    text = """
network loop { }
variable A { type discrete [ 2 ] { a, b }; }
variable B { type discrete [ 2 ] { a, b }; }
probability ( A | B ) { (a) 0.5, 0.5; (b) 0.5, 0.5; }
probability ( B | A ) { (a) 0.5, 0.5; (b) 0.5, 0.5; }
"""
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert "cycle" in str(err.value)


def test_cycle_reported_at_first_stuck_declared_variable():
    # c is declared first and hangs below the a-b cycle, so it is named
    text = """network n {
}
variable c {
  type discrete [ 2 ] { x, y };
}
variable a {
  type discrete [ 2 ] { x, y };
}
variable b {
  type discrete [ 2 ] { x, y };
}
probability ( a | b ) {
  table 0.5, 0.5, 0.5, 0.5;
}
probability ( b | a ) {
  table 0.5, 0.5, 0.5, 0.5;
}
probability ( c | a ) {
  table 0.5, 0.5, 0.5, 0.5;
}
"""
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert str(err.value) == "cycle through variable 'c' (line 18, column 15)"


def test_hand_built_cyclic_network_fails_to_sort():
    states = ("x", "y")
    net = BifNetwork("loop", (BifVariable("a", states), BifVariable("b", states)),
                     {"a": ("b",), "b": ("a",)})
    with pytest.raises(InternalConsistencyError):
        to_causal_dag(net)


def test_unbalanced_braces_reported_at_end():
    with pytest.raises(BifParseError) as err:
        parse_bif("network x {")
    assert "end of input" in str(err.value)


def test_non_numeric_table_entry():
    text = MINIMAL.replace("table 0.5, 0.5;", "table 0.5, oops;")
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert "oops" in str(err.value)


def test_state_count_mismatch():
    text = "network x { }\nvariable A { type discrete [ 3 ] { a, b }; }"
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert "3 states" in str(err.value)


def test_unterminated_block_comment():
    with pytest.raises(BifParseError) as err:
        parse_bif("network x { } /* runs off")
    assert "block comment" in str(err.value)


def test_empty_probability_row():
    text = MINIMAL.replace("table 0.5, 0.5;", "table;")
    with pytest.raises(BifParseError):
        parse_bif(text)


def test_alarm_snapshot_structure():
    net = load_bundled("alarm")
    assert len(net.variables) == 37
    assert net.edge_count == 46
    assert len(net.root_names) == 12
    dag, index = to_causal_dag(net)
    assert validate(dag).ok
    assert dag.total_rows == 116
    assert net.parent_map["BP"] == ("CO", "TPR")
    assert net.parent_map["CATECHOL"] == ("ARTCO2", "INSUFFANESTH", "SAO2", "TPR")
    assert dag.roots == tuple(sorted(index[r] for r in net.root_names))


@pytest.mark.parametrize("budget,count", [(2, 78), (4, 793), (8, 3796)])
def test_alarm_intervention_counts(budget, count):
    net = load_bundled("alarm")
    dag, index = to_causal_dag(net)
    targets = [index[r] for r in net.root_names]
    arms = enumerate_root_interventions(dag.node_count, targets, budget)
    assert len(arms) == count
    # every node is left free by some arm, so all rows stay uncertain
    assert bool(arms.ever_free.all())


def test_water_snapshot_structure():
    net = load_bundled("water")
    assert len(net.variables) == 32
    assert net.edge_count == 66
    assert len(net.root_names) == 8
    dag, index = to_causal_dag(net)
    assert validate(dag).ok
    assert dag.total_rows == 248


@pytest.mark.parametrize("budget,count", [(2, 36), (4, 162), (8, 255)])
def test_water_intervention_counts_under_subset_rule(budget, count):
    # nonempty subsets of the 8 roots with size <= budget
    net = load_bundled("water")
    dag, index = to_causal_dag(net)
    targets = [index[r] for r in net.root_names]
    arms = enumerate_root_interventions(dag.node_count, targets, budget)
    assert len(arms) == count


@pytest.mark.parametrize("name", ["alarm", "water"])
def test_bundled_round_trip(name):
    net = load_bundled(name)
    assert parse_bif(format_bif(net)) == net


def test_to_causal_dag_is_deterministic():
    net = load_bundled("alarm")
    dag_a, map_a = to_causal_dag(net)
    dag_b, map_b = to_causal_dag(net)
    assert dag_a.parents == dag_b.parents
    assert map_a == map_b
    # parents always precede children
    for n, ps in enumerate(dag_a.parents):
        assert all(p < n for p in ps)
