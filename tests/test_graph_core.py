"""Graph model construction, validation, and bond bookkeeping."""

import numpy as np
import pytest

from qgscatter.errors import (
    ConditionDegreeMismatch,
    DanglingEndpoint,
    DuplicateId,
    NoLeads,
    NonPositiveLength,
    NotUnitary,
    RankDeficientAB,
    UnknownVertex,
    ValidationError,
)
from qgscatter.graph_core import (
    DFT,
    Dirichlet,
    Edge,
    FixedUnitary,
    LinearAB,
    Neumann,
    Vertex,
    attach_leads,
    bond_table,
    build_graph,
)

from conftest import random_open_graph, star_open_graph


def full_degree(og, vid):
    """Edge ends plus leads at a vertex of an open graph."""
    return og.graph.degree(vid) + og.lead_count_at(vid)


def interval(length=1.0, ca=None, cb=None):
    return build_graph(
        [Vertex("a", ca or Neumann()), Vertex("b", cb or Neumann())],
        [Edge("e", "a", "b", length)],
    )


def test_minimal_two_vertex_graph():
    g = interval()
    assert len(g.vertices) == 2
    assert g.total_length == 1.0
    assert g.degree("a") == 1


def test_zero_length_rejected():
    with pytest.raises(NonPositiveLength):
        interval(length=0.0)
    with pytest.raises(NonPositiveLength):
        interval(length=-2.0)


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEndpoint):
        build_graph([Vertex("a", Neumann())], [Edge("e", "a", "zz", 1.0)])


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateId):
        build_graph([Vertex("a", Neumann()), Vertex("a", Neumann())], [])
    with pytest.raises(DuplicateId):
        build_graph(
            [Vertex("a", Neumann()), Vertex("b", Neumann())],
            [Edge("e", "a", "b", 1.0), Edge("e", "a", "b", 2.0)],
        )


def test_empty_graph_rejected():
    with pytest.raises(ValidationError):
        build_graph([], [])


def test_condition_degree_mismatch():
    sigma2 = np.eye(2)
    with pytest.raises(ConditionDegreeMismatch):
        build_graph(
            [Vertex("c", FixedUnitary(sigma2)), Vertex("x", Neumann()),
             Vertex("y", Neumann()), Vertex("z", Neumann())],
            [Edge("e1", "c", "x", 1.0), Edge("e2", "c", "y", 1.0),
             Edge("e3", "c", "z", 1.0)],
        )


def test_dft_degree_checked_when_given():
    with pytest.raises(ConditionDegreeMismatch):
        build_graph(
            [Vertex("a", DFT(degree=3)), Vertex("b", Neumann())],
            [Edge("e", "a", "b", 1.0)],
        )
    # degree left implicit: any degree fits
    build_graph([Vertex("a", DFT()), Vertex("b", Neumann())], [Edge("e", "a", "b", 1.0)])


def test_rank_deficient_ab_rejected():
    with pytest.raises(RankDeficientAB):
        LinearAB(np.zeros((2, 2)), np.zeros((2, 2)))


def test_fixed_unitary_must_be_unitary():
    with pytest.raises(NotUnitary):
        FixedUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_six_lead_star():
    og = star_open_graph(6)
    assert og.n_leads == 6
    assert full_degree(og, "c") == 6
    assert [l.id for l in og.leads] == [f"l{i}" for i in range(6)]


def test_attach_no_leads_rejected():
    g = interval()
    with pytest.raises(NoLeads):
        attach_leads(g, [])


def test_attach_unknown_vertex():
    g = interval()
    with pytest.raises(UnknownVertex):
        attach_leads(g, ["nope"])


def test_lead_at_each_end_of_edge():
    og = attach_leads(interval(), ["a", "b"])
    assert og.n_leads == 2
    assert full_degree(og, "a") == 2 and full_degree(og, "b") == 2


def test_attach_preserves_conditions():
    g = interval(ca=Neumann(), cb=Dirichlet())
    og = attach_leads(g, ["a"])
    assert og.graph.vertex("b").condition == Dirichlet()
    assert og.graph.vertex("a").condition == Neumann()


def test_degree_pinned_condition_fits_only_with_leads():
    # sigma sized for edge + lead: invalid compact, valid once the lead exists
    sigma = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ConditionDegreeMismatch):
        build_graph(
            [Vertex("a", FixedUnitary(sigma)), Vertex("b", Neumann())],
            [Edge("e", "a", "b", 1.0)],
        )
    g = build_graph(
        [Vertex("a", FixedUnitary(sigma)), Vertex("b", Neumann())],
        [Edge("e", "a", "b", 1.0)],
        pending_leads={"a": 1},
    )
    og = attach_leads(g, ["a"])
    assert full_degree(og, "a") == 2


def test_attach_rechecks_degrees():
    g = interval(ca=FixedUnitary(np.array([[-1.0]])))
    with pytest.raises(ConditionDegreeMismatch):
        attach_leads(g, ["a"])


def test_bond_table_star_counts():
    bt = bond_table(star_open_graph(6))
    assert bt.n_leads == 6 and bt.n_bonds == 0 and bt.n_channels == 6


def test_bond_table_lead_plus_edge():
    og = attach_leads(interval(), ["a"])
    bt = bond_table(og)
    assert bt.n_channels == 3
    assert bt.vertex_channels["a"] == (("lead", 0), ("end", 0, 0))
    assert bt.vertex_channels["b"] == (("end", 0, 1),)
    # lead 0 is channel 0; end 0 sends along bond 0 (channel 1) and hears bond 1
    assert bt.vertex_io["a"] == ((0, 0), (1, 2))
    assert bt.vertex_io["b"] == ((2, 1),)


def test_bond_table_two_edges_two_leads():
    g = build_graph(
        [Vertex(n, Neumann()) for n in "abc"],
        [Edge("e1", "a", "b", 1.0), Edge("e2", "b", "c", 2.0)],
        pending_leads={"a": 1, "c": 1},
    )
    bt = bond_table(attach_leads(g, ["a", "c"]))
    assert bt.n_channels == 6


def test_bond_table_deterministic():
    og = random_open_graph(np.random.default_rng(11))
    b1, b2 = bond_table(og), bond_table(og)
    assert b1.edge_order == b2.edge_order
    assert b1.vertex_channels == b2.vertex_channels
    np.testing.assert_array_equal(b1.bond_lengths, b2.bond_lengths)


def test_bond_lengths_equal_in_both_directions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        bt = bond_table(random_open_graph(rng))
        assert np.array_equal(bt.bond_lengths[0::2], bt.bond_lengths[1::2])


def test_self_loop_contributes_two_channels():
    g = build_graph([Vertex("a", Neumann())], [Edge("loop", "a", "a", 1.0)],
                    pending_leads={"a": 1})
    bt = bond_table(attach_leads(g, ["a"]))
    assert len(bt.vertex_channels["a"]) == 3
    assert bt.n_bonds == 2


def test_scaling():
    g = interval(length=2.0)
    assert g.scaled(0.5).total_length == 1.0
    with pytest.raises(NonPositiveLength):
        g.scaled(0.0)
