import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcmkit as gk
from gcmkit import CausalGraph, GraphError, parse_graph, serialize_graph


def test_parse_json_simple():
    g = parse_graph('{"nodes":["X","Y"],"edges":[["X","Y"]]}')
    assert g.nodes == ("X", "Y")
    assert g.edges == (("X", "Y"),)


def test_parse_dot_chain():
    g = parse_graph("digraph { X -> Y; Y -> Z; }", format="dot")
    assert g.nodes == ("X", "Y", "Z")
    assert set(g.edges) == {("X", "Y"), ("Y", "Z")}


def test_parse_dot_isolated_node_and_chain_statement():
    g = parse_graph("digraph { A; B -> C -> D; }", format="dot")
    assert g.nodes == ("A", "B", "C", "D")
    assert set(g.edges) == {("B", "C"), ("C", "D")}


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        parse_graph('{"nodes":["X"],"edges":[["X","X"]]}')


def test_cycle_rejected():
    with pytest.raises(GraphError, match="cycle"):
        CausalGraph(["A", "B"], [("A", "B"), ("B", "A")])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(GraphError, match="unknown node"):
        CausalGraph(["A"], [("A", "B")])


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError, match="duplicate edge"):
        CausalGraph(["A", "B"], [("A", "B"), ("A", "B")])


def test_duplicate_node_rejected():
    with pytest.raises(GraphError, match="duplicate node"):
        CausalGraph(["A", "A"], [])


def test_malformed_json_is_parse_error():
    with pytest.raises(GraphError, match="parse error"):
        parse_graph("{nodes: oops")
    with pytest.raises(GraphError, match="parse error"):
        parse_graph('{"nodes":["X","Y"],"edges":[[["X"],"Y"]]}')
    with pytest.raises(GraphError, match="parse error"):
        parse_graph("graph { A -- B }", format="dot")


def test_topological_order_chain():
    g = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    assert g.topological_order() == ("X", "Y", "Z")


def test_topological_order_collider_ties_broken_by_declaration():
    g = CausalGraph(["X", "Y", "Z"], [("X", "Z"), ("Y", "Z")])
    assert g.topological_order() == ("X", "Y", "Z")


def test_topological_order_single_node():
    assert CausalGraph(["X"]).topological_order() == ("X",)


def test_relatives_chain():
    g = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    assert set(g.parents("Y")) == {"X"}
    assert set(g.children("Y")) == {"Z"}
    assert g.ancestors("Z") == {"X", "Y"}
    assert g.descendants("X") == {"Y", "Z"}


def test_non_descendants_collider():
    g = CausalGraph(["X", "Y", "Z"], [("X", "Z"), ("Y", "Z")])
    assert g.non_descendants("X") == {"Y"}


def test_relatives_unknown_node():
    g = CausalGraph(["X"])
    with pytest.raises(GraphError, match="unknown node"):
        g.parents("Q")


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((nodes[i], nodes[j]))
    return CausalGraph(nodes, edges)


@given(random_dags())
@settings(max_examples=50, deadline=None)
def test_topological_order_respects_all_edges(g):
    position = {node: i for i, node in enumerate(g.topological_order())}
    assert set(g.topological_order()) == set(g.nodes)
    for parent, child in g.edges:
        assert position[parent] < position[child]


@given(random_dags(), st.sampled_from(["json", "dot"]))
@settings(max_examples=50, deadline=None)
def test_parse_serialize_roundtrip(g, fmt):
    back = parse_graph(serialize_graph(g, fmt), fmt)
    assert set(back.nodes) == set(g.nodes)
    assert set(back.edges) == set(g.edges)


# The reader rejects the first three and would read the last two as other
# graphs, so the writer must refuse all of them.
@pytest.mark.parametrize("name", ["my col", "B-2", "é", "X\n", "A;B"])
def test_dot_writer_rejects_a_name_that_is_not_a_bare_identifier(name):
    graph = CausalGraph([name, "Y"], [(name, "Y")])
    with pytest.raises(GraphError, match="not a bare DOT identifier"):
        serialize_graph(graph, "dot")


@given(random_dags())
@settings(max_examples=50, deadline=None)
def test_back_edge_along_a_path_is_rejected(g):
    order = g.topological_order()
    reachable = [(a, b) for a in g.nodes for b in g.descendants(a)]
    for a, b in reachable:
        with pytest.raises(GraphError):
            CausalGraph(g.nodes, list(g.edges) + [(b, a)])


def test_graphs_immutable_types():
    g = CausalGraph(["A", "B"], [("A", "B")])
    assert isinstance(g.nodes, tuple)
    assert isinstance(g.edges, tuple)
    assert isinstance(g.parents("B"), tuple)
