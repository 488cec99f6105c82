"""Tests for repro.dataflow.graph."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.functions import IdentityFunction
from repro.dataflow.graph import (
    GraphError,
    LogicalGraph,
    LogicalOperator,
    OperatorKind,
)


def op(name, kind=OperatorKind.OPERATOR, **kwargs):
    if kind is OperatorKind.OPERATOR and "function" not in kwargs:
        kwargs["function"] = IdentityFunction()
    return LogicalOperator(name=name, kind=kind, **kwargs)


def linear_graph():
    g = LogicalGraph("g")
    g.add(op("src", OperatorKind.SOURCE))
    g.add(op("mid"))
    g.add(op("sink", OperatorKind.SINK))
    g.connect("src", "mid")
    g.connect("mid", "sink")
    return g


class TestConstruction:
    def test_duplicate_names_rejected(self):
        g = LogicalGraph()
        g.add(op("a", OperatorKind.SOURCE))
        with pytest.raises(GraphError):
            g.add(op("a", OperatorKind.SOURCE))

    def test_operator_requires_function(self):
        with pytest.raises(GraphError):
            LogicalOperator(name="x", kind=OperatorKind.OPERATOR)

    def test_parallelism_must_be_positive(self):
        with pytest.raises(GraphError):
            LogicalOperator(name="x", kind=OperatorKind.SOURCE, parallelism=0)

    def test_connect_unknown_node(self):
        g = LogicalGraph()
        g.add(op("a", OperatorKind.SOURCE))
        with pytest.raises(GraphError):
            g.connect("a", "missing")

    def test_self_loop_rejected(self):
        g = LogicalGraph()
        g.add(op("a", OperatorKind.SOURCE))
        with pytest.raises(GraphError):
            g.connect("a", "a")

    def test_contains(self):
        g = linear_graph()
        assert "mid" in g
        assert "nope" not in g

    def test_lookup_unknown_operator(self):
        with pytest.raises(GraphError):
            linear_graph().operator("nope")


class TestNavigation:
    def test_sources_and_sinks(self):
        g = linear_graph()
        assert [o.name for o in g.sources()] == ["src"]
        assert [o.name for o in g.sinks()] == ["sink"]

    def test_downstream(self):
        g = linear_graph()
        assert [o.name for o in g.downstream("src")] == ["mid"]

    def test_len(self):
        assert len(linear_graph()) == 3


class TestValidation:
    def test_valid_linear_graph(self):
        linear_graph().validate()

    def test_empty_graph_invalid(self):
        with pytest.raises(GraphError):
            LogicalGraph().validate()

    def test_cycle_detected(self):
        g = LogicalGraph()
        g.add(op("src", OperatorKind.SOURCE))
        g.add(op("a"))
        g.add(op("b"))
        g.connect("src", "a")
        g.connect("a", "b")
        g.connect("b", "a")
        with pytest.raises(GraphError):
            g.validate()

    def test_no_source_invalid(self):
        g = LogicalGraph()
        g.add(op("a"))
        g.add(op("b", OperatorKind.SINK))
        g.connect("a", "b")
        with pytest.raises(GraphError):
            g.validate()

    def test_unreachable_operator_invalid(self):
        g = linear_graph()
        g.add(op("orphan"))
        with pytest.raises(GraphError):
            g.validate()

    def test_source_with_inputs_invalid(self):
        g = LogicalGraph()
        g.add(op("s1", OperatorKind.SOURCE))
        g.add(op("s2", OperatorKind.SOURCE))
        g.connect("s1", "s2")
        with pytest.raises(GraphError):
            g.validate()

    def test_sink_with_outputs_invalid(self):
        g = LogicalGraph()
        g.add(op("src", OperatorKind.SOURCE))
        g.add(op("sink", OperatorKind.SINK))
        g.add(op("after"))
        g.connect("src", "sink")
        g.connect("sink", "after")
        g.connect("src", "after")
        with pytest.raises(GraphError):
            g.validate()

    def test_branching_graph_is_valid_as_graph(self):
        """Branching graphs validate (the *engines* reject them later)."""
        g = LogicalGraph()
        g.add(op("src", OperatorKind.SOURCE))
        g.add(op("a"))
        g.add(op("b"))
        g.add(op("sink", OperatorKind.SINK))
        g.connect("src", "a")
        g.connect("src", "b")
        g.connect("a", "sink")
        g.connect("b", "sink")
        g.validate()


_KINDS = (OperatorKind.SOURCE, OperatorKind.OPERATOR, OperatorKind.SINK)


@st.composite
def generated_graphs(draw):
    """Nodes added in a random order and edges connected in a random order,
    duplicates included.

    A ``"dag"`` graph only has edges that go forward in a hidden order of
    the nodes, and its kinds follow the edges (no inputs: source, no
    outputs: sink), so most of them are valid jobs; an ``"any"`` graph has
    arbitrary edges and kinds, so cycles and every other defect occur.
    """
    n = draw(st.integers(0, 7))
    names = [f"n{i}" for i in range(n)]
    hidden = draw(st.permutations(names))
    inserted = draw(st.permutations(names))
    shape = draw(st.sampled_from(("dag", "any")))
    pairs = [(u, v) for u in names for v in names if u != v]
    if shape == "dag":
        pairs = [(u, v) for u, v in pairs if hidden.index(u) < hidden.index(v)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    if shape == "dag":
        with_inputs = {v for _, v in edges}
        with_outputs = {u for u, _ in edges}
        kinds = {}
        for name in names:
            if name not in with_inputs:
                kinds[name] = OperatorKind.SOURCE
            elif name not in with_outputs:
                kinds[name] = OperatorKind.SINK
            else:
                kinds[name] = OperatorKind.OPERATOR
    else:
        kinds = {name: draw(st.sampled_from(_KINDS)) for name in names}
    return inserted, kinds, edges


def build(inserted, kinds, edges):
    g = LogicalGraph("generated")
    for name in inserted:
        g.add(op(name, kinds[name]))
    for u, v in edges:
        g.connect(u, v)
    return g


def first_defect(inserted, kinds, edges):
    """The message ``validate()`` must raise first, by brute force, or
    ``None`` for a well-formed job."""
    reach = {name: {v for u, v in edges if u == name} for name in inserted}
    grown = True
    while grown:  # transitive closure: paths of one edge or more
        grown = False
        for name in inserted:
            wider = reach[name].union(*(reach[v] for v in reach[name]))
            grown |= wider != reach[name]
            reach[name] = wider
    sources = [name for name in inserted if kinds[name] is OperatorKind.SOURCE]
    if not inserted:
        return "empty graph"
    if any(name in reach[name] for name in inserted):
        return "graph contains a cycle"
    if not sources:
        return "graph has no source"
    for name in inserted:
        if kinds[name] is OperatorKind.SOURCE:
            if any(v == name for _, v in edges):
                return f"source {name!r} has inputs"
        elif not any(name in reach[src] for src in sources):
            return f"operator {name!r} is unreachable from any source"
        if kinds[name] is OperatorKind.SINK and any(u == name for u, _ in edges):
            return f"sink {name!r} has outputs"
    return None


@settings(max_examples=300, deadline=None)
@given(generated_graphs())
def test_generated_graphs_validate_and_order_like_brute_force(generated):
    """Edges keep their first-insertion order and ``validate()`` raises
    the first defect a brute-force check finds."""
    inserted, kinds, edges = generated
    g = build(inserted, kinds, edges)
    for name in inserted:
        assert [o.name for o in g.downstream(name)] == list(
            dict.fromkeys(v for u, v in edges if u == name)
        )
    with pytest.raises(GraphError):
        g.downstream("missing")
    defect = first_defect(inserted, kinds, edges)
    if defect is None:
        g.validate()
    else:
        with pytest.raises(GraphError, match=re.escape(defect)):
            g.validate()
