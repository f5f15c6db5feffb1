"""Global scattering matrix, secular function, and compact spectra."""

import json

import numpy as np
import pytest

from qgscatter.cli import parse_graph_file
from qgscatter.errors import (
    DeterminantOverflow,
    InvalidDegree,
    SingularAtK,
    SingularInterior,
    ValidationError,
    WindowTooWide,
    ZeroK,
)
from qgscatter.global_scattering import (
    _REDUCED_BAND,
    Assembly,
    eigenvalues_compact,
    interior_determinant,
    scattering_matrix,
    secular_value,
)
from qgscatter.graph_core import (
    DFT,
    Dirichlet,
    Edge,
    FixedUnitary,
    LinearAB,
    Neumann,
    OpenGraph,
    Vertex,
    attach_leads,
    bond_table,
    build_graph,
)
from qgscatter.vertex_scattering import ab_to_sigma, condition_sigma

from conftest import (
    DATA_DIR,
    bench_inputs,
    bench_reference,
    random_open_graph,
    random_unitary,
    star_open_graph,
    two_pendant_resonator,
)


def lead_edge_dirichlet(length=1.0):
    """Lead at a transparent degree-2 Neumann vertex, edge to a hard wall."""
    g = build_graph(
        [Vertex("v", Neumann()), Vertex("w", Dirichlet())],
        [Edge("e", "v", "w", length)],
        pending_leads={"v": 1},
    )
    return attach_leads(g, ["v"])


def test_star_matrix_k_independent():
    og = star_open_graph(6)
    golden = np.full((6, 6), 1 / 3) - np.eye(6)
    for k in (0.5, 1.0, 7.3):
        np.testing.assert_allclose(scattering_matrix(og, k).s, golden, atol=1e-14)


def test_single_dirichlet_lead():
    og = star_open_graph(1, condition=Dirichlet())
    np.testing.assert_allclose(scattering_matrix(og, 2.2).s, [[-1.0]], atol=1e-15)


def test_round_trip_phase_off_hard_wall():
    for L in (1.0, 0.37, 2.5):
        og = lead_edge_dirichlet(L)
        for k in (0.9, 4.2):
            s = scattering_matrix(og, k).s
            np.testing.assert_allclose(s, [[-np.exp(2j * k * L)]], atol=1e-13)


def test_zero_k_rejected():
    with pytest.raises(ZeroK):
        scattering_matrix(star_open_graph(2), 0.0)
    with pytest.raises(ZeroK):
        interior_determinant(two_pendant_resonator(), 0.0)


def test_secular_star_identically_zero():
    og = star_open_graph(6)
    for k in (0.5, 1.9, 12.0):
        assert abs(secular_value(og, k)) <= 1e-12


def test_secular_single_dirichlet_lead():
    og = star_open_graph(1, condition=Dirichlet())
    for k in (0.4, 3.0):
        assert abs(secular_value(og, k) - 2.0) <= 1e-14


def test_secular_zeros_of_lead_extended_interval():
    g = build_graph([Vertex("a", Neumann()), Vertex("b", Neumann())],
                    [Edge("e", "a", "b", 1.0)], pending_leads={"a": 1})
    og = attach_leads(g, ["a"])
    for n in (1, 2, 3):
        assert abs(secular_value(og, n * np.pi)) <= 1e-12
    assert abs(secular_value(og, 0.5 * np.pi)) > 0.1


def test_interior_determinant_no_edges():
    og = star_open_graph(4)
    assert interior_determinant(og, 1.3) == 1.0 + 0.0j


def test_assembly_counts_the_determinants_it_computes():
    # S(k) solves and Newton steps on k-independent conditions are not
    # counted; a graph without edges computes no determinant
    asm = Assembly(two_pendant_resonator())
    asm.scattering(1.3)
    asm.scattering_many([1.1, 2.0 - 0.4j, 3.7])
    asm.newton(1.5 - 0.5j, max_iter=80, tol=1e-12, trust=1.0)
    asm.interior_log_derivative(0.9 - 0.1j)
    assert asm.evaluations == 0
    asm.interior_det_many([1.0, 2.0 - 0.5j])
    asm.interior_det(3.0)
    assert asm.evaluations == 3
    star = Assembly(star_open_graph(4))
    star.interior_det_many([1.0, 2.0])
    assert star.evaluations == 0


def _dft_unitary_graph():
    rng = np.random.default_rng(5)
    g = build_graph(
        [Vertex("a", DFT()), Vertex("b", FixedUnitary(random_unitary(rng, 3))),
         Vertex("c", Dirichlet())],
        [Edge("e1", "a", "b", 0.7), Edge("e2", "a", "b", 1.3), Edge("e3", "b", "c", 0.9)],
        pending_leads={"a": 1},
    )
    return attach_leads(g, ["a"])


def _textbook_det(asm, k):
    """det(I - Sigma_BB T(k)) built from the Assembly's Sigma, one matrix."""
    nl, nb = asm.table.n_leads, asm.table.n_bonds
    return np.linalg.det(np.eye(nb) - asm.sigma(k)[nl:, nl:]
                         * np.exp(1j * complex(k) * asm.table.bond_lengths)[None, :])


def _reduced_kernel_serves(og):
    return bool(og.graph.edges)


def _band(og, ks):
    """The k within _REDUCED_BAND of some k L_e in pi Z."""
    lengths = np.array([e.length for e in og.graph.edges])
    return np.abs(np.sin(np.outer(ks, lengths))).min(axis=1) < _REDUCED_BAND


def test_interior_det_many_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(11)
    # real k, deep and upper-half-plane k; enough of them for several chunks
    ks = np.concatenate([rng.uniform(0.1, 30.0, 400),
                         rng.uniform(0.1, 10.0, 400) - 1j * rng.uniform(0.0, 3.0, 400),
                         rng.uniform(0.1, 10.0, 100) + 1j * rng.uniform(0.0, 1.0, 100)])
    mm1 = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    # k at and beside the points k L_e = m pi of mm1's edges, in its band
    near = np.array([m * np.pi / e.length for e in mm1.graph.edges for m in (1, 3)])
    # a unit interval is off by an ulp at five of these ten k when the
    # terms of one edge are written through strided views
    ks = np.concatenate([ks, near, near * (1 + 1e-5), near - 1e-5j, np.linspace(0.5, 9.5, 10)])
    # lead_edge_dirichlet: a 1 x 1 reduced matrix of one term; then graphs
    # of one edge: an interval, a loop, a DFT vertex with a lead
    n = Neumann()
    graphs = [mm1, _dft_unitary_graph(), lead_edge_dirichlet(0.8),
              OpenGraph(build_graph([Vertex("a", n), Vertex("b", n)],
                                    [Edge("e", "a", "b", 1.0)]), ()),
              OpenGraph(build_graph([Vertex("a", n)], [Edge("l", "a", "a", 1.3)]), ()),
              attach_leads(build_graph([Vertex("a", DFT()), Vertex("b", n)],
                                       [Edge("e", "a", "b", 0.9)], pending_leads={"a": 1}),
                           ["a"])]
    graphs += [random_open_graph(np.random.default_rng(s)) for s in range(4)]
    assert _band(mm1, ks).sum() >= 3 * len(near)
    for og in graphs:
        asm = Assembly(og)
        many = asm.interior_det_many(ks)
        assert np.array_equal(many, [asm.interior_det(k) for k in ks])
        # the textbook construction, one matrix at a time: the bond kernel
        # and the band of the reduced kernel give its value bit for bit, the
        # reduced kernel elsewhere to rounding
        loop = np.array([_textbook_det(asm, k) for k in ks])
        assert (asm._reduced is not None) == _reduced_kernel_serves(og)
        band = _band(og, ks) if _reduced_kernel_serves(og) else np.ones(len(ks), dtype=bool)
        assert np.array_equal(many[band], loop[band])
        assert np.all(np.abs(many - loop) <= 1e-12 * np.maximum(1.0, np.abs(loop)))


def _exp_ih(coupling=0.2):
    """exp(iH) for H coupling channel 0 to channels 1 and 2 with strength
    ``coupling``: the vertex matrix of the benchmark's weakly coupled pair."""
    h = np.zeros((3, 3))
    h[0, 1:] = h[1:, 0] = coupling
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _vertex_identity_graphs():
    """Graphs with k-independent conditions, each with one feature of the
    reduced kernel."""
    def og(vertices, edges, leads):
        counts = {at: leads.count(at) for at in leads}
        g = build_graph(vertices, edges, pending_leads=counts)
        return attach_leads(g, leads) if leads else OpenGraph(g, ())

    n, d = Neumann(), Dirichlet()
    # a lead mixed with one edge end, and two edge ends swapped: sigma_v^BB
    # + I has rank 2 at three edge ends
    swap = np.zeros((4, 4), dtype=complex)
    swap[:2, :2] = random_unitary(np.random.default_rng(3), 2)
    swap[2, 3] = swap[3, 2] = 1.0
    return {
        "loop": og([Vertex("a", n), Vertex("b", n)],
                   [Edge("l", "a", "a", 0.83), Edge("e", "a", "b", 1.1)], ["b"]),
        "parallel": og([Vertex("a", n), Vertex("b", n), Vertex("c", n)],
                       [Edge("p1", "a", "b", 0.71), Edge("p2", "a", "b", 1.13),
                        Edge("p3", "b", "a", 0.57), Edge("e", "b", "c", 0.9)], ["a", "c"]),
        "dirichlet-degree-3": og([Vertex("a", n), Vertex("w", d), Vertex("b", n)],
                                 [Edge("e1", "a", "w", 0.9), Edge("e2", "w", "b", 1.3),
                                  Edge("e3", "a", "w", 0.61), Edge("e4", "a", "b", 0.77)], ["a"]),
        "dirichlet-dirichlet": og([Vertex("a", n), Vertex("w", d), Vertex("x", d)],
                                  [Edge("e1", "a", "w", 0.9), Edge("e2", "w", "x", 0.55),
                                   Edge("e3", "a", "a", 1.21)], []),
        "leads-only-vertex": og([Vertex("s", n), Vertex("a", n), Vertex("b", n)],
                                [Edge("e1", "a", "b", 1.07), Edge("e2", "b", "a", 0.64)],
                                ["s", "s", "a"]),
        "dft-with-leads": og([Vertex("a", DFT()), Vertex("b", n), Vertex("w", d)],
                             [Edge("e1", "a", "b", 0.93), Edge("e2", "a", "w", 1.21),
                              Edge("e3", "b", "a", 0.58)], ["a", "a", "b"]),
        "swap-block": og([Vertex("c", FixedUnitary(swap)), Vertex("b", n), Vertex("w", d)],
                         [Edge("e1", "c", "w", 0.77), Edge("e2", "c", "b", 1.09),
                          Edge("e3", "c", "b", 0.66)], ["c"]),
        "unitary-loop-parallel": og(
            [Vertex("u", FixedUnitary(random_unitary(np.random.default_rng(8), 5))),
             Vertex("v", DFT()), Vertex("n", n)],
            [Edge("l", "u", "u", 0.71), Edge("p1", "u", "v", 1.03), Edge("p2", "v", "u", 0.59),
             Edge("e", "v", "n", 0.88)], ["u", "n"]),
        "exp-ih": og([Vertex("c", FixedUnitary(_exp_ih())), Vertex("d1", d), Vertex("d2", d)],
                     [Edge("e1", "c", "d1", 1.0), Edge("e2", "c", "d2", 1.005)], ["c"]),
    }


def _identity_ks():
    rng = np.random.default_rng(23)
    return np.concatenate([rng.uniform(0.1, 20.0, 150),
                           rng.uniform(0.1, 10.0, 150) - 1j * rng.uniform(0.5, 6.0, 150),
                           rng.uniform(0.1, 10.0, 50) + 1j * rng.uniform(0.0, 2.0, 50)])


@pytest.mark.parametrize("name", list(_vertex_identity_graphs()))
def test_vertex_kernel_matches_bond_space(name):
    og = _vertex_identity_graphs()[name]
    asm = Assembly(og)
    assert asm._reduced is not None
    ks = _identity_ks()
    many = asm.interior_det_many(ks)
    assert np.array_equal(many, [asm.interior_det(k) for k in ks])
    loop = np.array([_textbook_det(asm, k) for k in ks])
    off = ~_band(og, ks)
    assert off.sum() > 0.9 * len(ks)
    assert np.all(np.abs(many - loop) <= 1e-12 * np.maximum(1.0, np.abs(loop)))
    assert not np.array_equal(many[off], loop[off])  # the reduced kernel did the work


def test_reduced_matrix_has_the_rank_of_sigma_bb_plus_one():
    # r = sum_v rank(sigma_v^BB + I): 1 per Neumann vertex with edge ends,
    # 0 per Dirichlet vertex, the numerical rank for the others. The 3 x 3
    # DFT matrix has the eigenvalue -1 once, so a DFT vertex of degree 3
    # without leads has rank 2
    ranks = {"loop": 2, "leads-only-vertex": 2, "dirichlet-dirichlet": 1, "dft-with-leads": 4,
             "swap-block": 3, "unitary-loop-parallel": 4 + 2 + 1, "exp-ih": 2}
    graphs = _vertex_identity_graphs()
    assert {name: Assembly(graphs[name])._reduced.r for name in ranks} == ranks


def test_reduced_kernel_keeps_its_precision_deep_below_the_axis():
    # a Neumann vertex with as many leads as edge ends: its row of M has no
    # constant, and the bond matrix loses up to 1.5e-8 relative here. The
    # values are det(I - Sigma_BB T(k)) in 60-digit arithmetic (mpmath),
    # with Sigma from the exact fractions 2 / d - delta
    g = build_graph([Vertex("a", Neumann()), Vertex("b", Neumann()), Vertex("w", Dirichlet())],
                    [Edge("e1", "a", "w", 0.83), Edge("e2", "a", "b", 1.17),
                     Edge("e3", "b", "a", 0.61), Edge("l", "b", "b", 0.9)],
                    pending_leads={"a": 3})
    exact = [
        (7.7 - 11.5j, "1.191006625153399484252598e+28", "9.58985035833150633444016e+27"),
        (3.1 - 8j, "14862195725154320509.47203", "-18883879505677423662.69487"),
        (12.3 - 6.2j, "-503384210223017.3725543762", "512832619341749.4555610733"),
        (5.5 - 14j, "2.711108930990652203304204e+34", "1.415978255012404264353001e+34"),
        (2.2 - 3.3j, "40784232.88130851315867156", "7736764.875246017593858284"),
    ]
    asm = Assembly(attach_leads(g, ["a"] * 3))
    ks = np.array([k for k, _, _ in exact])
    want = np.array([complex(float(re), float(im)) for _, re, im in exact])
    assert np.all(np.abs(asm.interior_det_many(ks) - want) <= 1e-14 * np.abs(want))


def test_vertex_kernel_all_dirichlet_interval():
    # no vertex of rank > 0: M is 0 x 0, and D = 1 - exp(2ikL)
    g = build_graph([Vertex("a", Dirichlet()), Vertex("b", Dirichlet())],
                    [Edge("e", "a", "b", 1.3)])
    asm = Assembly(OpenGraph(g, ()))
    assert asm._reduced is not None and asm._reduced.r == 0
    ks = _identity_ks()
    np.testing.assert_allclose(asm.interior_det_many(ks), 1 - np.exp(2.6j * ks),
                               rtol=1e-12, atol=1e-12)


def test_vertex_kernel_band_is_bond_space_bit_for_bit():
    # an equilateral unit triangle with a pendant: at k = m pi every
    # sin(k L_e) vanishes and the bond kernel evaluates D, which is 0 at
    # even m (cos(kx) on every edge); each k counts once
    g = build_graph([Vertex(v, Neumann()) for v in "abcd"],
                    [Edge("ab", "a", "b", 1.0), Edge("bc", "b", "c", 1.0),
                     Edge("ca", "c", "a", 1.0), Edge("cd", "c", "d", 1.0)])
    asm = Assembly(OpenGraph(g, ()))
    ks = np.array([np.pi, 2 * np.pi, 1.7, 3 * np.pi, 4 * np.pi])
    many = asm.interior_det_many(ks)
    assert asm.evaluations == len(ks)
    for i in (0, 1, 3, 4):
        assert many[i] == _textbook_det(asm, ks[i])
    assert abs(many[1]) < 1e-12 and abs(many[4]) < 1e-12


def test_one_dft_vertex_takes_the_reduced_kernel():
    g = build_graph([Vertex("a", Neumann()), Vertex("b", DFT()), Vertex("c", Dirichlet())],
                    [Edge("e1", "a", "b", 0.7), Edge("e2", "b", "c", 1.3),
                     Edge("e3", "a", "c", 0.9)], pending_leads={"a": 1})
    asm = Assembly(attach_leads(g, ["a"]))
    # the 2 x 2 DFT matrix has eigenvalues 1 and -1: rank 1, as at a
    assert asm._reduced is not None and asm._reduced.r == 2
    ks = _identity_ks()
    loop = np.array([_textbook_det(asm, k) for k in ks])
    many = asm.interior_det_many(ks)
    assert np.all(np.abs(many - loop) <= 1e-12 * np.maximum(1.0, np.abs(loop)))


def test_linear_ab_graph_takes_the_reduced_kernel(monkeypatch):
    # D(k) from M(k), whose rows of A/B vertices are read from Sigma(k): to
    # rounding off the band, and in it the bond matrix's value bit for bit,
    # with one A/B solve per vertex degree (1 and 3 here) per k
    from qgscatter import vertex_scattering

    og = _robin_lead_graph()
    asm = Assembly(og)
    assert asm._reduced is not None
    ks = np.concatenate([_identity_ks(), _band_ks(og)])
    calls = []
    ab_solve = vertex_scattering._ab_solve
    monkeypatch.setattr(vertex_scattering, "_ab_solve",
                        lambda a, b, k: calls.append(k) or ab_solve(a, b, k))
    many = asm.interior_det_many(ks)
    assert calls == list(np.repeat(ks, 2))
    loop = np.array([_textbook_det(asm, k) for k in ks])
    band = _band(og, ks)
    assert band.sum() == 3 and np.array_equal(many[band], loop[band])
    assert np.all(np.abs(many - loop) <= 1e-12 * np.maximum(1.0, np.abs(loop)))
    assert not np.array_equal(many[~band], loop[~band])  # the reduced kernel did the work


def _textbook_sigma(og, k):
    """Sigma(k) placed entry by entry from the local channel layout: a lead j
    is global channel j both ways; edge end 0 of edge i sends along bond 2i
    and receives bond 2i + 1, end 1 the other way round; bond b is channel
    n_leads + b."""
    table = bond_table(og)
    nl = table.n_leads
    sigma = np.zeros((table.n_channels, table.n_channels), dtype=complex)
    for v in og.graph.vertices:
        channels = table.vertex_channels[v.id]
        if not channels:
            continue
        c = v.condition
        local = (ab_to_sigma(c.a, c.b, k) if isinstance(c, LinearAB)
                 else condition_sigma(c, len(channels)))
        ports = []
        for ch in channels:
            if ch[0] == "lead":
                ports.append((ch[1], ch[1]))
            else:
                _, i, end = ch
                ports.append((nl + 2 * i + end, nl + 2 * i + 1 - end))
        for a, (out, _) in enumerate(ports):
            for b, (_, inc) in enumerate(ports):
                sigma[out, inc] = local[a, b]
    return sigma


def test_sigma_matches_textbook_placement():
    # a FixedUnitary vertex with two leads (ids out of global order), a
    # self-loop and one edge end; a k-dependent delta vertex; a hard wall
    rng = np.random.default_rng(3)
    alpha = 0.7
    delta = LinearAB(np.array([[1, -1, 0], [0, 1, -1], [-alpha, 0, 0]]),
                     np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1]]))
    g = build_graph(
        [Vertex("a", FixedUnitary(random_unitary(rng, 5))), Vertex("b", delta),
         Vertex("c", Dirichlet())],
        [Edge("loop", "a", "a", 0.8), Edge("e1", "a", "b", 1.1), Edge("e2", "b", "c", 0.6)],
        pending_leads={"a": 2, "b": 1},
    )
    og = attach_leads(g, ["a", "a", "b"], lead_ids=["y", "x", "m"])
    asm = Assembly(og)
    assert not asm.k_independent
    nl = og.n_leads
    for k in (1.7, 2.3 - 0.4j):
        expected = _textbook_sigma(og, k)
        sigma = asm.sigma(k)
        assert np.array_equal(sigma, expected)
        s_ll, s_lb = expected[:nl, :nl], expected[:nl, nl:]
        s_bl, s_bb = expected[nl:, :nl], expected[nl:, nl:]
        tk = np.exp(1j * k * asm.table.bond_lengths)
        s = s_ll + (s_lb * tk) @ np.linalg.solve(np.eye(len(tk)) - s_bb * tk, s_bl)
        np.testing.assert_allclose(asm.scattering(k).s, s, atol=1e-12)


def test_interior_determinant_resonator_formula():
    og = two_pendant_resonator()
    for k in (0.7 + 0.1j, 2.0 - 0.3j, 5.5 - 1.0j):
        u = np.exp(2j * k)
        np.testing.assert_allclose(interior_determinant(og, k), (1 - u) * (1 + u / 3),
                                   atol=1e-12)
    k_zero = np.pi / 2 - 0.5j * np.log(3.0)
    assert abs(interior_determinant(og, k_zero)) <= 1e-9


def test_singular_interior_reported_at_bound_state():
    # equal pendants host a state invisible from the lead at k = pi
    og = two_pendant_resonator()
    with pytest.raises(SingularInterior):
        scattering_matrix(og, np.pi)


def test_interval_eigenvalues_neumann():
    g = build_graph([Vertex("a", Neumann()), Vertex("b", Neumann())],
                    [Edge("e", "a", "b", 1.0)])
    win = eigenvalues_compact(g, (0.5, 10.0))
    np.testing.assert_allclose(win.ks(), [np.pi, 2 * np.pi, 3 * np.pi], atol=1e-9)
    assert all(ev.multiplicity == 1 for ev in win.eigenvalues)


def test_interval_eigenvalues_dirichlet():
    g = build_graph([Vertex("a", Dirichlet()), Vertex("b", Dirichlet())],
                    [Edge("e", "a", "b", 1.0)])
    win = eigenvalues_compact(g, (0.5, 10.0))
    np.testing.assert_allclose(win.ks(), [np.pi, 2 * np.pi, 3 * np.pi], atol=1e-9)


def test_equilateral_star_spectrum_and_multiplicities():
    verts = [Vertex("c", Neumann())] + [Vertex(f"t{i}", Neumann()) for i in range(6)]
    edges = [Edge(f"e{i}", "c", f"t{i}", 1.0) for i in range(6)]
    g = build_graph(verts, edges, pending_leads={f"t{i}": 1 for i in range(6)})
    win = eigenvalues_compact(g, (0.5, 7.0))
    got = [(round(ev.k, 9), ev.multiplicity) for ev in win.eigenvalues]
    expected = [(round(np.pi / 2, 9), 5), (round(np.pi, 9), 1),
                (round(3 * np.pi / 2, 9), 5), (round(2 * np.pi, 9), 1)]
    assert got == expected

    # cross-method: same k values appear as zeros of det(I - S) once leads
    # are attached at the (Neumann) tips
    og = attach_leads(g, [f"t{i}" for i in range(6)])
    asm = Assembly(og)
    for ev in win.eigenvalues:
        s = asm.scattering(ev.k).s
        assert abs(np.linalg.det(np.eye(6) - s)) <= 1e-9


def _dirichlet_leaf_star(n, length=1.0):
    verts = [Vertex("c", Neumann())] + [Vertex(f"t{i}", Dirichlet()) for i in range(n)]
    return build_graph(verts, [Edge(f"e{i}", "c", f"t{i}", length) for i in range(n)])


@pytest.mark.parametrize("n", range(2, 9))
def test_dirichlet_leaf_star_multiplicities(n):
    # n unit edges from a Neumann centre to Dirichlet leaves: sin(k x) from
    # every leaf, so k = m pi carries the n - 1 modes whose slopes at the
    # centre cancel and k = (m + 1/2) pi the one mode equal on every edge;
    # circles start from 8 points, so multiplicities of 4 or more must split
    win = eigenvalues_compact(_dirichlet_leaf_star(n), (0.5, 10.0))
    np.testing.assert_allclose(win.ks(), np.pi * np.arange(1, 7) / 2, atol=1e-9)
    assert [ev.multiplicity for ev in win.eigenvalues] == [1, n - 1] * 3
    assert win.warnings == ()


def counted_spectrum(graph, window):
    """eigenvalues_compact(graph, window), the batch size of each call of the
    determinant kernel it made and the number of its Newton steps (calls of
    the log derivative)."""
    counted, steps = [], []
    det_many = Assembly.interior_det_many
    log_derivative = Assembly.interior_log_derivative

    def counting(self, ks):
        counted.append(len(ks))
        return det_many(self, ks)

    def stepping(self, k):
        steps.append(k)
        return log_derivative(self, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Assembly, "interior_det_many", counting)
        mp.setattr(Assembly, "interior_log_derivative", stepping)
        win = eigenvalues_compact(graph, window)
    assert win.evaluations == sum(counted)
    return win, counted, len(steps)


def test_spectrum_evaluation_count():
    # one batched pass for the scan, one per step of the bracketed solve of
    # all sign changes, one per round of the multiplicity circles and one
    # for the residuals; Newton only from dips of |g| and to polish zeros of
    # multiplicity 2 or more (497 steps when Newton started at every sign
    # change too). The earlier phase-regularised scan found 87 eigenvalues
    # (89 with multiplicity) here, missing the double ones at 8 pi / 3,
    # 4 pi, 16 pi / 3, 20 pi / 3 and 8 pi, and computed 7,275 determinants
    # in 41 calls of the kernel
    graph = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json").graph
    win, counted, steps = counted_spectrum(graph, (0.5, 30.0))
    assert len(win.eigenvalues) == 92
    assert sum(ev.multiplicity for ev in win.eigenvalues) == 99
    assert win.evaluations <= 4_600
    assert len(counted) <= 24
    assert steps <= 230


def seeded_compact_graph(seed, n_edges, n_vertices):
    """All-Neumann connected graph: a random spanning tree plus random
    chords (parallel edges allowed), lengths uniform in [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n_vertices)]
    while len(pairs) < n_edges:
        a, b = (int(x) for x in rng.choice(n_vertices, size=2, replace=False))
        pairs.append((a, b))
    lengths = rng.uniform(0.5, 1.5, n_edges)
    return build_graph(
        [Vertex(f"v{i}", Neumann()) for i in range(n_vertices)],
        [Edge(f"e{j}", f"v{a}", f"v{b}", float(length))
         for j, ((a, b), length) in enumerate(zip(pairs, lengths))])


def test_odd_edge_spectrum_evaluation_count():
    # on a graph with an odd number of edges the earlier phase-regularised
    # secular function was rounding noise, so every scan step read as a sign
    # change and each was bisected: 11,910 determinants here
    win, _, _ = counted_spectrum(seeded_compact_graph(1, 11, 6), (0.5, 12.0))
    assert sum(ev.multiplicity for ev in win.eigenvalues) == 34
    assert win.evaluations <= 3_000


def _ring(lengths):
    n = len(lengths)
    return build_graph([Vertex(f"v{i}", Neumann()) for i in range(n)],
                       [Edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}", length)
                        for i, length in enumerate(lengths)])


def _k4():
    verts = [Vertex(f"v{i}", Neumann()) for i in range(4)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return build_graph(verts, [Edge(f"e{j}", f"v{a}", f"v{b}", 1.0)
                               for j, (a, b) in enumerate(pairs)])


def _cube():
    verts = [Vertex(f"v{i}", Neumann()) for i in range(8)]
    pairs = [(i, i ^ bit) for i in range(8) for bit in (1, 2, 4) if i < i ^ bit]
    return build_graph(verts, [Edge(f"e{j}", f"v{a}", f"v{b}", 1.0)
                               for j, (a, b) in enumerate(pairs)])


def _g_of(asm):
    """k -> g(k) = D(k) exp(-ik sum L_b / 2) for a 1-D array of k."""
    return lambda k: asm.interior_det_many(k) * np.exp(-0.5j * asm.total_bond_length * k)


def _conjugation_graphs():
    rng = np.random.default_rng(7)
    dft = build_graph(
        [Vertex("a", DFT()), Vertex("b", Neumann()), Vertex("c", Dirichlet())],
        [Edge("e1", "a", "b", 0.7), Edge("e2", "a", "b", 1.3), Edge("e3", "a", "c", 0.9)])
    fixed = build_graph(
        [Vertex("a", FixedUnitary(random_unitary(rng, 3))), Vertex("b", DFT()),
         Vertex("c", Neumann())],
        [Edge("loop", "a", "a", 0.8), Edge("e1", "a", "b", 1.1), Edge("e2", "b", "c", 0.6),
         Edge("e3", "b", "c", 1.4)])
    return {"mm1": parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json").graph,
            "dft": dft, "fixed-unitary": fixed}


@pytest.mark.parametrize("name", ["mm1", "dft", "fixed-unitary"])
def test_g_at_conjugate_k_is_a_constant_times_its_conjugate(name):
    # for k-independent conditions g(conj k) = c conj(g(k)), g = D(k)
    # exp(-ik sum L_b / 2) and c = (-1)^n det Sigma_BB of modulus 1: the
    # lower half of a circle centred on the real axis turns by as much
    # phase as the upper half
    asm = Assembly(OpenGraph(_conjugation_graphs()[name], ()))
    assert asm.k_independent
    rng = np.random.default_rng(11)
    ks = rng.uniform(0.5, 20.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
    g = _g_of(asm)
    c = (-1) ** asm.table.n_bonds * np.linalg.det(asm.sigma(1.0))
    assert abs(abs(c) - 1) <= 1e-12
    assert np.all(np.abs(g(ks.conj()) - c * g(ks).conj()) <= 1e-12 * np.abs(g(ks)))


@pytest.mark.parametrize("name", [f"star{n}" for n in range(2, 9)] + ["k4", "cube"])
def test_half_circle_winding_equals_full_circle_winding(name):
    # at every zero, simple or of multiplicity up to 7, and on circles of
    # three radii, the upper half of g = D exp(-ik sum L_b / 2) alone gives
    # the winding of the whole circle (D's own upper half turns by sum L_b r
    # less)
    from qgscatter import contours

    if name.startswith("star"):
        n = int(name[4:])
        graph = _dirichlet_leaf_star(n)
        zeros = np.pi * np.arange(1, 7) / 2
        multiplicities = [1, n - 1] * 3
    else:
        graph = _k4() if name == "k4" else _cube()
        win = eigenvalues_compact(graph, (0.5, 10.0))
        zeros, multiplicities = win.ks(), [ev.multiplicity for ev in win.eigenvalues]
        assert max(multiplicities) >= 4
    asm = Assembly(OpenGraph(graph, ()))
    rate = asm.total_bond_length + 1.0
    g = _g_of(asm)
    for radius in (0.05, 0.1, 0.3):
        radii = [radius] * len(zeros)
        half = contours._circle_windings(g, zeros, radii, rate, True)
        full = contours._circle_windings(g, zeros, radii, rate, False)
        assert half == full == multiplicities


@pytest.mark.parametrize("name, bound", [("k4", 100), ("cube", 200)])
def test_multiple_eigenvalues_are_polished_with_their_multiplicity(name, bound):
    # zeros of multiplicity m: plain Newton converges on them by the ratio
    # (m - 1) / m, and took 299 steps on K4 and 661 on the cube here; the
    # step m / (d/dk log D), once a circle gives m, converges quadratically
    graph = _k4() if name == "k4" else _cube()
    a, b = np.arccos(1 / 3), np.arccos(-1 / 3)
    pi = np.pi
    expected = {
        "k4": [(b, 3), (pi, 2), (2 * pi - b, 3), (2 * pi, 4), (2 * pi + b, 3), (3 * pi, 2)],
        "cube": [(a, 3), (b, 3), (pi, 6), (2 * pi - b, 3), (2 * pi - a, 3), (2 * pi, 6),
                 (2 * pi + a, 3), (2 * pi + b, 3), (3 * pi, 6)],
    }[name]
    win, _, steps = counted_spectrum(graph, (0.5, 10.0))
    np.testing.assert_allclose(win.ks(), [k for k, _ in expected], rtol=1e-12)
    assert [ev.multiplicity for ev in win.eigenvalues] == [m for _, m in expected]
    assert win.warnings == ()
    assert steps <= bound


@pytest.mark.parametrize("name", ["star6-long-edges", "k4-high-k"])
def test_multiple_zeros_far_from_their_start_keep_their_multiplicity(name):
    # a quintuple zero holds regula falsi to linear steps, which stop short
    # of it by more than the first circle's radius on long edges; a double
    # zero at k ~ 160 stops Newton from its dip farther than that radius if
    # the run stops at a step relative to k. Both must still be circled
    if name == "star6-long-edges":
        # edges of length 10: k = j pi / 10 has multiplicity 5, k = (j + 1/2) pi / 10 is simple
        graph, window = _dirichlet_leaf_star(6, 10.0), (0.5, 10.0)
        zeros = [(j * np.pi / 10, 5) for j in range(1, 33)] + [
            ((j + 0.5) * np.pi / 10, 1) for j in range(32)]
    else:
        graph, window = _k4(), (150.0, 170.0)
        b = np.arccos(-1 / 3)
        zeros = [z for j in range(20, 30) for z in (
            (2 * np.pi * j, 4), ((2 * j + 1) * np.pi, 2), (2 * np.pi * j - b, 3),
            (2 * np.pi * j + b, 3))]
    expected = sorted(z for z in zeros if window[0] < z[0] < window[1])
    win = eigenvalues_compact(graph, window)
    np.testing.assert_allclose(win.ks(), [k for k, _ in expected], rtol=1e-12)
    assert [ev.multiplicity for ev in win.eigenvalues] == [m for _, m in expected]
    assert win.warnings == ()


@pytest.mark.parametrize("name", ["mm1", "mm2", "k4", "unit-6-cycle", "3-cycle"])
def test_eigenvalue_count_matches_the_argument_principle(name):
    # the bench oracle counts the zeros of D in a thin box around the window
    # with code shared with nothing in the library
    graph, window = {
        "mm1": (lambda: parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json").graph,
                (0.5, 30.0)),
        "mm2": (lambda: parse_graph_file(DATA_DIR / "mcdonald_meyers_2.json").graph,
                (0.5, 20.0)),
        "k4": (_k4, (0.5, 10.0)),
        "unit-6-cycle": (lambda: _ring([1.0] * 6), (0.5, 12.0)),
        "3-cycle": (lambda: _ring([1.0, 1.3, 0.7]), (0.5, 20.0)),
    }[name]
    graph = graph()
    ref = bench_reference()
    want = ref.zero_count(ref.BondSystem.of(graph), *window, -0.1, 0.1)
    win = eigenvalues_compact(graph, window)
    assert sum(ev.multiplicity for ev in win.eigenvalues) == want
    assert win.warnings == ()


def test_multiplicity_fallback_is_reported(monkeypatch, capsys, tmp_path):
    # every circle meets a zero: each eigenvalue is kept with multiplicity 1
    # and a warning, in the library result and in the CLI report
    from qgscatter import contours
    from qgscatter.cli import run_command

    calls = []

    def failing(f, centers, radii, rate_hint, upper_half):
        # k-independent conditions: the circles are wound from their upper halves
        assert upper_half
        calls.append(len(centers))
        return ["forced failure"] * len(centers)

    monkeypatch.setattr(contours, "_circle_windings", failing)
    verts = [Vertex("c", Neumann())] + [Vertex(f"t{i}", Dirichlet()) for i in range(3)]
    edges = [Edge(f"e{i}", "c", f"t{i}", 1.0) for i in range(3)]
    win = eigenvalues_compact(build_graph(verts, edges), (0.5, 4.0))
    assert [ev.multiplicity for ev in win.eigenvalues] == [1, 1]
    assert len(win.warnings) == 2
    assert all("kept hitting zeros; assumed 1" in w for w in win.warnings)
    # the radius doubles from 1e-4 up to the cap 0.05: nine rounds, both
    # eigenvalues in each
    assert calls == [2] * 9

    path = tmp_path / "interval.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "a", "condition": {"type": "neumann"}},
                     {"id": "b", "condition": {"type": "neumann"}}],
        "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}],
    }))
    report, code = run_command(["eigenvalues", "--graph", str(path),
                                "--kmin", "0.5", "--kmax", "4.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and len(out["results"]["eigenvalues"]) == 1
    assert len(out["warnings"]) == 1
    assert out["warnings"][0].startswith("multiplicity circles around k = 3.14159")


def test_unitarity_random_graphs():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        og = random_open_graph(rng)
        k = float(rng.uniform(0.1, 30.0))
        try:
            ev = scattering_matrix(og, k)
        except SingularInterior:
            continue
        worst = max(worst, ev.unitarity_defect)
    assert worst <= 1e-10


def test_reciprocity_under_lead_relabeling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        og = random_open_graph(rng)
        n = og.n_leads
        if n < 2:
            continue
        order = list(rng.permutation(n))
        og_p = og.with_lead_order(order)
        k = float(rng.uniform(0.3, 20.0))
        try:
            s = scattering_matrix(og, k).s
            s_p = scattering_matrix(og_p, k).s
        except SingularInterior:
            continue
        p = np.zeros((n, n))
        for new, old in enumerate(order):
            p[new, old] = 1.0
        np.testing.assert_allclose(s_p, p @ s @ p.T, atol=1e-12)


def test_scale_covariance_of_eigenvalues():
    rng = np.random.default_rng(23)
    g = build_graph(
        [Vertex("a", Neumann()), Vertex("b", Neumann()), Vertex("c", Dirichlet())],
        [Edge("e1", "a", "b", 1.1), Edge("e2", "b", "c", 0.6)],
    )
    base = eigenvalues_compact(g, (0.5, 9.0)).ks()
    for c in (0.5, 2.0):
        scaled = eigenvalues_compact(g.scaled(c), (0.5 / c, 9.0 / c)).ks()
        np.testing.assert_allclose(scaled, base / c, atol=1e-8)


def robin_interval():
    """Unit interval with f' = f at one end (k-dependent A/B) and Neumann at
    the other; its eigenvalues solve tan k = 1/k."""
    return build_graph(
        [Vertex("a", LinearAB(np.array([[1.0]]), np.array([[-1.0]]))),
         Vertex("b", Neumann())],
        [Edge("e", "a", "b", 1.0)],
    )


def test_robin_interval_eigenvalues():
    # exercises the k-dependent condition path of the secular scan
    import math

    g = robin_interval()
    got = eigenvalues_compact(g, (0.3, 10.0)).ks()

    def f(k):
        return math.tan(k) - 1.0 / k

    oracle = []
    for n in range(4):
        lo, hi = n * math.pi + 1e-6, n * math.pi + math.pi / 2 - 1e-9
        flo = f(lo)
        for _ in range(200):
            mid = (lo + hi) / 2
            fm = f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        oracle.append((lo + hi) / 2)
    np.testing.assert_allclose(got, oracle, atol=1e-9)


def test_secular_function_builds_each_vertex_matrix_once_per_k(monkeypatch):
    # one batched D(k) over many k: one A/B solve per k-dependent vertex per k
    from qgscatter import vertex_scattering

    asm = Assembly(OpenGraph(robin_interval(), ()))
    calls = []
    ab_solve = vertex_scattering._ab_solve

    def counting(a, b, k):
        calls.append(k)
        return ab_solve(a, b, k)

    monkeypatch.setattr(vertex_scattering, "_ab_solve", counting)
    ks = np.linspace(0.5, 9.5, 10)
    ds = asm.interior_det_many(ks)
    assert calls == list(ks)
    assert ds[3] == asm.interior_det(ks[3])


def test_log_derivative_of_k_dependent_conditions():
    # d/dk log D must carry dSigma/dk of the Robin vertex: compare with a
    # central difference of D at a step unlike the method's own
    asm = Assembly(OpenGraph(robin_interval(), ()))
    assert not asm.k_independent
    h = 1e-5
    for k in (2.0, 2.0 - 0.3j, 5.5 + 0.1j):
        d = asm.interior_det
        expected = (d(k + h) - d(k - h)) / (2 * h) / d(k)
        assert abs(asm.interior_log_derivative(k) - expected) <= 1e-6 * abs(expected)


def test_window_too_wide():
    g = build_graph([Vertex("a", Neumann()), Vertex("b", Neumann())],
                    [Edge("e", "a", "b", 1.0)])
    # the unit interval is scanned in steps of 0.01: 3.0M nodes, over the 2M budget
    with pytest.raises(WindowTooWide, match="2999991 nodes"):
        eigenvalues_compact(g, (0.1, 30000.0))


def test_window_validation():
    g = build_graph([Vertex("a", Neumann()), Vertex("b", Neumann())],
                    [Edge("e", "a", "b", 1.0)])
    with pytest.raises(ValidationError):
        eigenvalues_compact(g, (5.0, 1.0))
    with pytest.raises(ValidationError):
        eigenvalues_compact(g, (-1.0, 1.0))
    with pytest.raises(ValidationError, match="not finite"):
        eigenvalues_compact(g, (1.0, float("inf")))


def test_edgeless_graph_has_empty_spectrum():
    g = build_graph([Vertex("a", Neumann())], [], pending_leads={"a": 1})
    win = eigenvalues_compact(g, (0.5, 5.0))
    assert win.eigenvalues == ()


# ---------------------------------------------------------------------------
# the Assembly memo of the per-k entry points
# ---------------------------------------------------------------------------

def counted_assembly(monkeypatch):
    """Count the Assembly constructions of the per-k entry points."""
    from qgscatter import global_scattering

    built = []

    class Counting(Assembly):
        def __init__(self, og):
            built.append(og)
            super().__init__(og)

    monkeypatch.setattr(global_scattering, "Assembly", Counting)
    return built


def test_k_sweep_builds_one_assembly(monkeypatch):
    rng = np.random.default_rng(77)
    og = random_open_graph(rng, max_edges=8, max_leads=3)
    ks = list(np.linspace(0.4, 11.0, 30)) + [complex(x, -0.2) for x in np.linspace(1, 9, 10)]
    fresh = [Assembly(og).scattering(k).s for k in ks]
    built = counted_assembly(monkeypatch)
    got = [scattering_matrix(og, k).s for k in ks]
    assert len(built) == 1 and built[0] is og
    assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
    # the other per-k entry points share the entry
    assert interior_determinant(og, 2.5) == Assembly(og).interior_det(2.5)
    secular_value(og, 2.5)
    assert len(built) == 1


def test_spectrum_windows_of_one_graph_share_one_assembly(monkeypatch):
    # each call counts its own determinants, as on a fresh Assembly
    windows = [(1.0, 3.0), (3.0, 5.0), (1.0, 3.0)]
    fresh = [eigenvalues_compact(seeded_compact_graph(3, 9, 5), w) for w in windows]
    graph = seeded_compact_graph(3, 9, 5)
    built = counted_assembly(monkeypatch)
    got = [eigenvalues_compact(graph, w) for w in windows]
    assert len(built) == 1 and built[0].graph is graph
    assert got == fresh
    assert [w.evaluations for w in got] == [w.evaluations for w in fresh]


def test_alternating_graphs_each_get_their_own_s():
    og = star_open_graph(3, DFT())
    perm = [2, 0, 1]
    other = og.with_lead_order(perm)
    p = np.eye(3)[perm]
    for k in (0.7, 1.9, 2.5 - 0.1j, 4.0):
        s = scattering_matrix(og, k).s
        s_other = scattering_matrix(other, k).s
        assert np.array_equal(s, Assembly(og).scattering(k).s)
        assert np.array_equal(s_other, Assembly(other).scattering(k).s)
        assert not np.array_equal(s, s_other)
        np.testing.assert_allclose(s_other, p @ s @ p.T, atol=1e-12)


def test_memo_holds_only_the_last_four_graphs():
    # the first graph stays while three newer graphs pass through the memo,
    # and is released by the fourth
    import gc
    import weakref

    rng = np.random.default_rng(5)
    first = random_open_graph(rng, max_edges=5, max_leads=2)
    scattering_matrix(first, 1.3)
    ref = weakref.ref(first)
    del first
    for _ in range(3):
        scattering_matrix(random_open_graph(rng, max_edges=5, max_leads=2), 1.3)
        gc.collect()
        assert ref() is not None
    scattering_matrix(random_open_graph(rng, max_edges=5, max_leads=2), 1.3)
    gc.collect()
    assert ref() is None


def test_memo_keeps_the_most_recently_used_graphs(monkeypatch):
    # a graph passed again moves to the front, so the least recently used
    # one leaves first
    rng = np.random.default_rng(6)
    graphs = [random_open_graph(rng, max_edges=4, max_leads=2) for _ in range(5)]
    built = counted_assembly(monkeypatch)
    for i in (0, 1, 2, 3, 0, 4, 0, 2, 3, 4, 1):
        scattering_matrix(graphs[i], 1.3)
    assert [next(i for i, g in enumerate(graphs) if g is og) for og in built] == [
        0, 1, 2, 3, 4, 1]


def test_failed_assembly_is_not_kept(monkeypatch):
    # built around the graph validation: a degree-3 DFT vertex with two leads
    g = build_graph([Vertex("c", DFT(degree=3))], [], pending_leads={"c": 3})
    bad = OpenGraph(g, attach_leads(g, ["c"] * 3).leads[:2])
    built = counted_assembly(monkeypatch)
    for _ in range(2):
        with pytest.raises(InvalidDegree):
            scattering_matrix(bad, 1.0)
    assert len(built) == 2


def _robin_lead_graph():
    """Lead at a Neumann vertex, an edge to a Robin (k-dependent A/B) end and
    a loop at a degree-3 A/B vertex."""
    h = np.array([[0.3, 1j, 0.2], [-1j, -0.5, 0.0], [0.2, 0.0, 1.1]])
    g = build_graph(
        [Vertex("v", Neumann()), Vertex("w", LinearAB(np.array([[1.0]]), np.array([[-1.0]]))),
         Vertex("u", LinearAB(h, np.eye(3)))],
        [Edge("e1", "v", "w", 0.8), Edge("e2", "v", "u", 1.3), Edge("e3", "u", "u", 0.6)],
        pending_leads={"v": 1},
    )
    return attach_leads(g, ["v"])


def _sweep_ks():
    rng = np.random.default_rng(13)
    return np.concatenate([np.linspace(0.1, 20.0, 64),
                           rng.uniform(0.1, 10.0, 16) - 1j * rng.uniform(0.0, 2.0, 16)])


@pytest.mark.parametrize("name", ["unitary", "robin", "edge-free-star", "edge-free-ab-star"])
def test_scattering_many_matches_per_k_bit_for_bit(name):
    og = {
        "unitary": _dft_unitary_graph,
        "robin": _robin_lead_graph,
        "edge-free-star": lambda: star_open_graph(3),
        "edge-free-ab-star": lambda: star_open_graph(
            2, LinearAB(np.array([[1.0, 0.5], [0.5, -1.0]]), np.eye(2))),
    }[name]()
    asm = Assembly(og)
    ks = _sweep_ks()
    many = asm.scattering_many(ks)
    assert many.shape == (len(ks), og.n_leads, og.n_leads)
    assert np.array_equal(many, np.stack([asm.scattering(k).s for k in ks]))


def test_scattering_many_names_the_first_singular_k():
    # a Dirichlet interval of length 1 beside the lead: bound states at m pi
    g = build_graph(
        [Vertex("c", Neumann()), Vertex("a", Dirichlet()), Vertex("b", Dirichlet())],
        [Edge("e", "a", "b", 1.0)],
        pending_leads={"c": 1},
    )
    asm = Assembly(attach_leads(g, ["c"]))
    ks = [1.0, 2 * np.pi - 0.5j, 2 * np.pi, 1.5, np.pi]
    with pytest.raises(SingularInterior) as many:
        asm.scattering_many(ks)
    with pytest.raises(SingularInterior) as one:
        asm.scattering(2 * np.pi)
    assert many.value.k == 2 * np.pi
    assert str(many.value) == str(one.value)
    with pytest.raises(SingularInterior) as det_s:
        asm.scattering_det_many([1.0, 2 * np.pi, 1.5, np.pi])
    assert str(det_s.value) == str(one.value) and det_s.value.k == 2 * np.pi
    with pytest.raises(ZeroK):
        asm.scattering_many([1.0, 0.0])
    with pytest.raises(ZeroK):
        asm.scattering_det_many([1.0, 0.0])
    with pytest.raises(ValidationError):
        asm.scattering_det_many([1.0, 2 * np.pi - 0.5j])


@pytest.mark.parametrize("build", [_dft_unitary_graph, _robin_lead_graph])
def test_sweep_takes_bond_determinants_at_real_k_only(monkeypatch, build):
    # the singularity test reads D(k) at real k; at complex k it is taken
    # when interior_det is first read, once
    from qgscatter import global_scattering

    og = build()
    taken = []
    lu_det = global_scattering.lu_det
    monkeypatch.setattr(global_scattering, "lu_det", lambda m: taken.append(1) or lu_det(m))
    ks = _sweep_ks()
    evs = [scattering_matrix(og, k) for k in ks]
    n_real = int(np.sum(ks.imag == 0))
    assert 0 < n_real < len(ks) and len(taken) == n_real
    ev = evs[-1]
    assert ev.k.imag != 0
    det = ev.interior_det
    assert ev.interior_det == det and len(taken) == n_real + 1
    assert det == _textbook_det(Assembly(og), ev.k)
    assert evs[0].interior_det == _textbook_det(Assembly(og), ks[0])
    assert len(taken) == n_real + 1


def test_unread_complex_k_evaluations_hold_no_matrix():
    # 120 bonds take the bond route, whose interior matrix is 120 x 120
    # (230 kB): an evaluation that kept it would hold 46 MB over this sweep
    import gc
    import tracemalloc

    from qgscatter import global_scattering

    og = bench_inputs().unitary_open_graph(np.random.default_rng(5), 60, 4, 60.0)
    ks = [complex(1 + 0.01 * j, -0.1) for j in range(200)]
    asm = global_scattering._assembly(og)
    assert asm.table.n_bonds == 120 and asm._reduced_s is None
    scattering_matrix(og, ks[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evs = [scattering_matrix(og, k) for k in ks]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2e6
    for n in range(2, 6):
        scattering_matrix(star_open_graph(n), 1.0)
    assert all(held is not og for held, _ in global_scattering._assemblies)
    # read after the graph left the memo: the LU determinant of the bond
    # matrix that S(k) was solved with, bit for bit
    assert [ev.interior_det for ev in evs] == [_textbook_det(asm, k) for k in ks]


def _ab_degrees_graph():
    """A/B vertices of degrees 3, 1, 2 and 1 beside a Neumann and a DFT
    vertex. The last one, r2 (A = 1, B = -1), is singular at k = -i only."""
    h3 = np.array([[0.3, 1j, 0.2], [-1j, -0.5, 0.0], [0.2, 0.0, 1.1]])
    h2 = np.array([[0.4, 0.2], [0.2, -0.7]])
    g = build_graph(
        [Vertex("n", Neumann()), Vertex("f", DFT()), Vertex("u3", LinearAB(h3, np.eye(3))),
         Vertex("r1", LinearAB([[1.0]], [[0.5]])), Vertex("u2", LinearAB(h2, np.eye(2))),
         Vertex("r2", LinearAB([[1.0]], [[-1.0]]))],
        [Edge("e1", "n", "f", 0.9), Edge("e2", "f", "u3", 1.3), Edge("e3", "u3", "u3", 0.7),
         Edge("e4", "f", "r1", 0.6), Edge("e5", "n", "u2", 1.1), Edge("e6", "u2", "r2", 0.8)],
        pending_leads={"n": 1, "f": 1},
    )
    return attach_leads(g, ["n", "f"])


def test_stacked_ab_solves_place_each_vertex_block(monkeypatch):
    from qgscatter import vertex_scattering

    og = _ab_degrees_graph()
    table = bond_table(og)
    ks = (1.7, 2.1 - 0.4j)
    expected = []
    for k in ks:
        sigma = np.zeros((table.n_channels, table.n_channels), dtype=complex)
        for v in og.graph.vertices:
            io = table.vertex_io[v.id]
            c = v.condition
            block = (ab_to_sigma(c.a, c.b, k) if isinstance(c, LinearAB)
                     else condition_sigma(c, len(io)))
            sigma[np.ix_([o for o, _ in io], [i for _, i in io])] = block
        expected.append(sigma)
    asm = Assembly(og)
    calls = []
    ab_solve = vertex_scattering._ab_solve

    def counting(a, b, k):
        calls.append((a.shape, k))
        return ab_solve(a, b, k)

    monkeypatch.setattr(vertex_scattering, "_ab_solve", counting)
    for k, sigma in zip(ks, expected):
        del calls[:]
        assert np.array_equal(asm.sigma(k), sigma)
        assert sorted(calls) == [((1, 2, 2), k), ((1, 3, 3), k), ((2, 1, 1), k)]
    with pytest.raises(SingularAtK) as raised:
        scattering_matrix(og, -1j)
    assert raised.value.k == -1j


def _not_self_adjoint_graph():
    """The Robin lead graph with A B^dagger not Hermitian at the degree-3
    vertex, so that Sigma(k) is not unitary."""
    h = np.array([[0.3, 1j, 0.2], [0.5, -0.5, 0.0], [0.2, 0.0, 1.1]])
    g = build_graph(
        [Vertex("v", Neumann()), Vertex("u", LinearAB(h, np.eye(3)))],
        [Edge("e1", "v", "u", 0.8), Edge("e2", "u", "u", 0.6)],
        pending_leads={"v": 1},
    )
    return attach_leads(g, ["v"])


DET_S_GRAPHS = {
    # Neumann
    "mm1": lambda: parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json"),
    # DFT, fixed_unitary and Dirichlet
    "unitary": _dft_unitary_graph,
}


@pytest.mark.parametrize("name", sorted(DET_S_GRAPHS))
def test_det_s_from_d_matches_det_of_s(name):
    asm = Assembly(DET_S_GRAPHS[name]())
    ks = np.linspace(0.1, 20.0, 64)
    want = np.linalg.det(np.stack([asm.scattering(k).s for k in ks]))
    got = asm.scattering_det_many(ks)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert asm.evaluations == len(ks)


@pytest.mark.parametrize("graph", [_robin_lead_graph, _not_self_adjoint_graph],
                         ids=["robin", "not-self-adjoint"])
def test_det_s_from_d_refuses_k_dependent_conditions(graph):
    # Sigma(k) of linear A/B conditions is not one constant unitary matrix,
    # self-adjoint or not: det S from D is refused before any determinant
    asm = Assembly(graph())
    with pytest.raises(ValidationError, match="k-independent"):
        asm.scattering_det_many(np.linspace(0.1, 20.0, 64))
    assert asm.evaluations == 0


@pytest.mark.parametrize("name", ["mm1", "unitary"])
def test_det_s_identity_holds_off_the_axis_for_constant_conditions(name):
    # det S(k) = det Sigma exp(ik sum L_b) conj(D(conj k)) / D(k) off the
    # real axis too, where Sigma does not depend on k
    asm = Assembly(DET_S_GRAPHS[name]())
    ks = _sweep_ks()[64:]
    assert (ks.imag != 0).all()
    d, d_conj = asm.interior_det_many(ks), asm.interior_det_many(ks.conj())
    got = (np.linalg.det(asm.sigma(1.0)) * np.exp(1j * asm.total_bond_length * ks)
           * d_conj.conj() / d)
    want = np.linalg.det(np.stack([asm.scattering(k).s for k in ks]))
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_scattering_many_of_a_large_graph_runs_in_chunks(monkeypatch):
    # 100 edges are 200 directed bonds: a 200 x 200 system holds more than
    # one chunk's worth of entries, so every k is its own LAPACK call
    rng = np.random.default_rng(17)
    names = [f"v{i}" for i in range(40)]
    pairs = [(i, (i + 1) % 40) for i in range(40)]
    pairs += [tuple(int(x) for x in rng.choice(40, 2, replace=False)) for _ in range(60)]
    degree = {nm: 0 for nm in names}
    for a, b in pairs:
        degree[names[a]] += 1
        degree[names[b]] += 1
    leads = ["v0", "v10", "v20", "v30"]
    g = build_graph(
        [Vertex(nm, FixedUnitary(random_unitary(rng, degree[nm] + (nm in leads))))
         for nm in names],
        [Edge(f"e{j}", names[a], names[b], float(rng.uniform(0.3, 1.7)))
         for j, (a, b) in enumerate(pairs)],
        pending_leads={nm: 1 for nm in leads},
    )
    asm = Assembly(attach_leads(g, leads))
    assert asm.table.n_bonds == 200
    ks = np.linspace(0.5, 8.0, 64)
    solve, calls = np.linalg.solve, []

    def counting(a, b):
        calls.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    many = asm.scattering_many(ks)
    assert len(calls) > 1 and sum(calls) == len(ks)
    assert np.array_equal(many, np.stack([asm.scattering(k).s for k in ks]))


# ---------------------------------------------------------------------------
# S(k) far below the real axis
# ---------------------------------------------------------------------------

def test_s_that_overflows_below_the_axis_raises_determinant_overflow():
    # on mm1 exp(ik L_b) overflows at 2 - 300i: both entries name k, and no
    # numpy warning escapes (pytest fails on any)
    og = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    with pytest.raises(DeterminantOverflow, match=r"not finite at k = \(2-300j\)"):
        scattering_matrix(og, 2 - 300j)
    with pytest.raises(DeterminantOverflow, match=r"not finite at k = \(2-300j\)"):
        Assembly(og).scattering_many([1.0, 2 - 30j, 2 - 300j])
    assert np.isfinite(scattering_matrix(og, 2 - 30j).s).all()
    assert np.isfinite(Assembly(og).scattering_many([2 - 30j])).all()


# ---------------------------------------------------------------------------
# S(k) of large graphs from the reduced kernel's r x r system
# ---------------------------------------------------------------------------

TRAPPED_K = np.pi / (1 + np.sqrt(2))
AB_SINGULAR_K = (1 + 1j) / 2


def _large_graph(trapped=False, ab=False):
    """A seeded connected graph of 70 edges (140 bonds), one of them a loop,
    and 4 leads: Neumann vertices, a DFT vertex at every fifth, Dirichlet at
    about half of the leaves without a lead. With ``trapped``, a separate
    Neumann vertex between Dirichlet edges of lengths 1 and sqrt(2) hosts a
    state trapped at ``TRAPPED_K``, where every sin(k L_e) is far from 0.

    With ``ab`` the DFT vertices carry Robin conditions instead (A Hermitian
    and seeded, B = I), the first Neumann vertex of degree 3 or more a delta
    condition (B of rank 1) and the next Neumann vertex of degree 2 or more
    the non-self-adjoint A = I, B = (1 + i) I, singular at ``AB_SINGULAR_K``."""
    rng = np.random.default_rng(31)
    n_v = 36
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n_v)] + [(7, 7)]
    while len(pairs) < 70:
        pairs.append(tuple(int(x) for x in rng.choice(n_v, 2, replace=False)))
    leads = [f"v{int(i)}" for i in rng.choice(n_v, 4, replace=False)]
    degree = {f"v{i}": 0 for i in range(n_v)}
    for a, b in pairs:
        degree[f"v{a}"] += 1
        degree[f"v{b}"] += 1
    vertices = []
    for i in range(n_v):
        name = f"v{i}"
        if i % 5 == 0:
            condition = DFT()
        elif degree[name] == 1 and name not in leads and rng.random() < 0.5:
            condition = Dirichlet()
        else:
            condition = Neumann()
        vertices.append(Vertex(name, condition))
    lengths = rng.uniform(0.5, 1.5, len(pairs))
    edges = [Edge(f"e{j:02d}", f"v{a}", f"v{b}", float(length))
             for j, ((a, b), length) in enumerate(zip(pairs, lengths))]
    if ab:
        crng, kinds = np.random.default_rng(37), ["delta", "not-self-adjoint"]
        for j, v in enumerate(vertices):
            d = degree[v.id] + (v.id in leads)
            if isinstance(v.condition, DFT):
                h = crng.standard_normal((d, d)) + 1j * crng.standard_normal((d, d))
                vertices[j] = Vertex(v.id, LinearAB((h + h.conj().T) / 2, np.eye(d)))
            elif kinds and kinds[0] == "delta" and isinstance(v.condition, Neumann) and d >= 3:
                # f continuous, and the sum of f' is 0.7 f
                a = np.eye(d) - np.eye(d, k=1)
                a[-1] = np.eye(d)[0] * 0.7
                b = np.zeros((d, d))
                b[-1] = -1.0
                vertices[j] = Vertex(v.id, LinearAB(a, b))
                kinds.pop(0)
            elif kinds == ["not-self-adjoint"] and isinstance(v.condition, Neumann) and d >= 2:
                vertices[j] = Vertex(v.id, LinearAB(np.eye(d), (1 + 1j) * np.eye(d)))
                kinds.pop(0)
    if trapped:
        vertices += [Vertex("t", Neumann()), Vertex("w1", Dirichlet()), Vertex("w2", Dirichlet())]
        edges += [Edge("t1", "w1", "t", 1.0), Edge("t2", "t", "w2", float(np.sqrt(2)))]
    g = build_graph(vertices, edges, pending_leads={nm: 1 for nm in leads})
    return attach_leads(g, leads)


def _band_ks(og):
    """Real and complex k in the band of the reduced kernel, at and next to
    k L_e = 3 pi for the first edge."""
    k = 3 * np.pi / og.graph.edges[0].length
    return [k, k * (1 + 1e-6), complex(k, -1e-6)]


def _route_ks(og):
    """Real k, conjugate pairs off the axis, then the three k of _band_ks."""
    rng = np.random.default_rng(3)
    low = rng.uniform(0.5, 12.0, 4) - 1j * rng.uniform(0.05, 2.0, 4)
    ks = list(rng.uniform(0.5, 12.0, 6)) + list(low) + list(low.conj()) + _band_ks(og)
    return np.array(ks, dtype=complex)


def _bond_route_assembly(monkeypatch, og):
    from qgscatter import global_scattering

    with monkeypatch.context() as patch:
        patch.setattr(global_scattering, "_REDUCED_S_BONDS", 10 ** 9)
        asm = Assembly(og)
        assert asm._reduced_s is None
    return asm


def test_large_graphs_with_k_independent_conditions_take_the_reduced_route():
    og = _large_graph()
    asm = Assembly(og)
    assert asm.table.n_bonds >= 128 and asm._reduced_s is asm._reduced
    assert asm._reduced.r < 0.5 * asm.table.n_bonds
    assert _band(og, _band_ks(og)).all() and not _band(og, _route_ks(og)[:-3]).any()
    # small graphs, A/B ones too, keep the bond route
    assert Assembly(parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json"))._reduced_s is None
    assert Assembly(_robin_lead_graph())._reduced_s is None


def test_reduced_route_matches_the_bond_solve(monkeypatch):
    # off the band from M, so to rounding; in the band, where h_e of an edge
    # grows without bound, from the bond solve, bit for bit, and so is D(k)
    # of the singularity test
    og = _large_graph()
    ks = _route_ks(og)
    asm, bond = Assembly(og), _bond_route_assembly(monkeypatch, og)
    for k, in_band in zip(ks, _band(og, ks)):
        ev, want = asm.scattering(k), bond.scattering(k)
        scale = max(1.0, np.linalg.norm(want.s))
        assert np.linalg.norm(ev.s - want.s) <= 1e-12 * scale
        assert np.array_equal(ev.s, want.s) == in_band
        if not k.imag:
            d = asm._solve_stack(np.array([k]))[1][0]
            assert abs(d - want.interior_det) <= 1e-12 * abs(want.interior_det)
            assert (d == want.interior_det) == in_band
    assert asm.evaluations == 0


def test_reduced_route_sweeps_match_per_k_bit_for_bit():
    og = _large_graph()
    ks = _route_ks(og)
    asm = Assembly(og)
    many = asm.scattering_many(ks)
    assert asm._reduced_s.per_chunk < len(ks)
    assert np.array_equal(many, np.stack([asm.scattering(k).s for k in ks]))
    assert np.array_equal(many, np.stack([scattering_matrix(og, k).s for k in ks]))


def test_reduced_route_interior_det_is_interior_determinant(monkeypatch):
    # at real k D(k) comes from the system S was solved with: M off the
    # band, the bond matrix in it; at complex k it is taken only when read,
    # once
    og = _large_graph()
    ks = _route_ks(og)
    lazy = ks.imag != 0
    asm = Assembly(og)
    det, taken = np.linalg.det, []
    monkeypatch.setattr(np.linalg, "det", lambda m: taken.append(1) or det(m))
    evs = [asm.scattering(k) for k in ks]
    assert len(taken) == int(np.sum(ks.imag == 0))
    for ev, read_later in zip(evs, lazy):
        before = len(taken)
        d = ev.interior_det
        after = len(taken)
        assert (after > before) == read_later
        assert ev.interior_det == d and len(taken) == after
        assert d == interior_determinant(og, ev.k)
    assert asm.evaluations == 0


def test_reduced_route_reports_a_trapped_state_as_the_bond_route_does(monkeypatch):
    from qgscatter import global_scattering

    og = _large_graph(trapped=True)
    asm, bond = Assembly(og), _bond_route_assembly(monkeypatch, og)
    assert asm._reduced_s is not None and not _band(og, [TRAPPED_K]).any()
    # |D| at the trapped state is rounding times the D of the rest of the
    # graph: 3.4e-13 from M and 5.5e-13 from the bond matrix here, above the
    # absolute _SINGULAR_TOL, which does not scale with the graph
    assert 1e-13 < abs(asm.interior_det(TRAPPED_K)) < 1e-12
    monkeypatch.setattr(global_scattering, "_SINGULAR_TOL", 1e-11)
    with pytest.raises(SingularInterior) as reduced:
        asm.scattering(TRAPPED_K)
    with pytest.raises(SingularInterior) as many:
        asm.scattering_many([1.0, 2.0 - 0.5j, TRAPPED_K, 3.0])
    with pytest.raises(SingularInterior) as bonds:
        bond.scattering(TRAPPED_K)
    assert reduced.value.k == many.value.k == bonds.value.k == TRAPPED_K
    assert str(reduced.value) == str(many.value)
    assert reduced.value.determinant == interior_determinant(og, TRAPPED_K)
    head = "interior system singular at k = "
    tail = "this k hosts a bound state or exceptional point"
    assert all(str(e.value).startswith(head) and str(e.value).endswith(tail)
               for e in (reduced, bonds))
    np.testing.assert_allclose(asm.scattering(TRAPPED_K + 0.01).s,
                               bond.scattering(TRAPPED_K + 0.01).s, atol=1e-12)


def _reference_kernel_arrays(table, vertices):
    """(entries, widths, cols, coefs, r, scale, gather) of the reduced
    kernel, built one vertex and one bond at a time, all padded to the
    largest rank; gather is None without A/B vertices."""
    nl, nb, n = table.n_leads, table.n_bonds, table.n_channels
    n_e = nb // 2
    top, w_of, u_of, src_of, add_of = [0] * nb, [[]] * nb, [[]] * nb, [[]] * nb, [[]] * nb
    blocks, r, scale = [], 0, 1.0
    for condition, io, sigma in vertices:
        ends = [i for i, (c_out, _) in enumerate(io) if c_out >= nl]
        if not ends or isinstance(condition, Dirichlet):
            continue
        src = None
        if isinstance(condition, Neumann):
            c, k0 = len(io), [[len(io) - 2 * len(ends)]]
            w, u = [[1.0]] * len(ends), [[2.0]] * len(ends)
        elif sigma is None:
            # an A/B vertex: W_v = I, and the entry (j, q) of U_v(k) =
            # sigma_v^BB(k) + I and of K0 = -sigma_v^BB(k) is the entry of
            # Sigma(k) from the in-channel of end q to the out-channel of end
            # j (plus 1 on the diagonal of U_v), times 1 and -1
            d_b = len(ends)
            c, k0 = 1, [[-1.0] * d_b for _ in ends]
            w, u = np.eye(d_b).tolist(), [[1.0] * d_b for _ in ends]
            src = [[io[j][0] * n + io[q][1] for q in ends] for j in ends]
            add = np.eye(d_b).tolist()
        else:
            a, s, bh = np.linalg.svd(sigma[np.ix_(ends, ends)] + np.eye(len(ends)))
            keep = s > 1e-13 * s[0]
            if not keep.any():
                continue
            u_v, w_v = a[:, keep] * s[keep], bh[keep]
            c, k0 = 1, (np.eye(len(w_v)) - w_v @ u_v).tolist()
            w, u = w_v.T.tolist(), u_v.tolist()
        if src is None:
            src, add = [[-1] * len(k0) for _ in ends], [[0.0] * len(k0) for _ in ends]
        for j, i in enumerate(ends):
            b = io[i][0] - nl
            top[b], w_of[b], u_of[b], src_of[b], add_of[b] = r, w[j], u[j], src[j], add[j]
        blocks.append((r, k0, src if sigma is None else None))
        r += len(k0)
        scale /= c ** len(k0)
    pad = max(map(len, w_of))
    w_b, u_b, add_b = (np.array([row + [0.0] * (pad - len(row)) for row in rows], dtype=complex)
                       for rows in (w_of, u_of, add_of))
    src_b = np.array([row + [-1] * (pad - len(row)) for row in src_of], dtype=np.intp)
    at = np.array(top)[:, None] + np.arange(pad)
    swap, edge = np.arange(nb) ^ 1, np.arange(nb) // 2
    k0_at = [(r0 + p) * r + r0 + q for r0, k0, _ in blocks
             for p in range(len(k0)) for q in range(len(k0))]
    flat = np.concatenate([np.array(k0_at, dtype=np.intp),
                           (at[:, :, None] * r + at[:, None, :]).ravel(),
                           (at[:, :, None] * r + at[swap][:, None, :]).ravel()])
    cols = np.concatenate([np.full(len(k0_at), nb),
                           np.repeat(edge, pad * pad), np.repeat(n_e + edge, pad * pad)])
    coefs = np.concatenate([np.array([x for _, k0, _ in blocks for row in k0 for x in row]),
                            (w_b[:, :, None] * u_b[:, None, :]).ravel(),
                            (-w_b[:, :, None] * u_b[swap][:, None, :]).ravel()])
    shape = (nb, pad, pad)
    src = np.concatenate([
        np.array([x for _, k0, k0_src in blocks for row in (k0_src or [[-1] * len(k0)] * len(k0))
                  for x in row], dtype=np.intp),
        np.broadcast_to(src_b[:, None, :], shape).ravel(),
        np.broadcast_to(src_b[swap][:, None, :], shape).ravel()])
    add = np.concatenate([np.zeros(len(k0_at)), np.broadcast_to(add_b[:, None, :], shape).ravel(),
                          np.broadcast_to(add_b[swap][:, None, :], shape).ravel()]).real
    keep = coefs != 0
    flat, cols, coefs, src, add = flat[keep], cols[keep], coefs[keep], src[keep], add[keep]
    by_entry = np.lexsort((cols, flat))
    flat = flat[by_entry]
    first = np.flatnonzero(np.diff(flat, prepend=-1))
    entries, counts = flat[first], np.diff(first, append=len(flat))
    order = np.argsort(-counts, kind="stable")
    widths = (len(counts) - np.cumsum(np.bincount(counts))[:-1]).tolist()
    picks = by_entry[np.concatenate([np.zeros(0, dtype=np.intp)] + [
        first[order[:width]] + j for j, width in enumerate(widths)])]
    dyn = np.flatnonzero(src[picks] >= 0)
    gather = (dyn, src[picks][dyn], add[picks][dyn]) if dyn.size else None
    return entries[order], widths, cols[picks], coefs[picks], r, scale, gather


def test_reduced_kernel_arrays_match_the_one_vertex_at_a_time_reference():
    # every D(k) keeps its bits when the kernel's arrays do: loops, parallel
    # edges, DFT vertices of full and of deficient rank, a fixed-unitary
    # vertex of rank 0 (-I), Dirichlet vertices of every degree, A/B
    # vertices (Robin, delta, not self-adjoint, with loops and leads)
    graphs = dict(_vertex_identity_graphs())
    g = build_graph([Vertex("a", Neumann()), Vertex("m", FixedUnitary(-np.eye(3))),
                     Vertex("d", DFT()), Vertex("w", Dirichlet())],
                    [Edge("e1", "a", "m", 0.7), Edge("e2", "m", "d", 1.1),
                     Edge("e3", "m", "w", 0.9), Edge("e4", "d", "d", 0.6),
                     Edge("e5", "a", "d", 1.3)],
                    pending_leads={"a": 1})
    graphs["rank-0-unitary"] = attach_leads(g, ["a"])
    graphs["large"] = _large_graph(trapped=True)
    graphs["large-ab"] = _large_graph(ab=True)
    graphs["robin-lead"] = _robin_lead_graph()
    graphs.update({f"random-{s}": random_open_graph(np.random.default_rng(s)) for s in range(40)})
    checked = with_ab = 0
    for og in graphs.values():
        asm = Assembly(og)
        if asm._reduced is None:
            continue
        kernel = asm._reduced
        *arrays, gather = _reference_kernel_arrays(asm.table, asm._vertices)
        entries, widths, cols, coefs, r, scale = arrays
        assert (kernel.r, kernel.scale, kernel.widths) == (r, scale, widths)
        assert (kernel.gather is None) == (gather is None)
        pairs = [(kernel.entries, entries), (kernel.cols, cols), (kernel.coefs, coefs)]
        for got, want in pairs + list(zip(kernel.gather or (), gather or ())):
            assert got.shape == want.shape and got.tobytes() == want.astype(got.dtype).tobytes()
        checked += 1
        with_ab += gather is not None
    assert checked >= 40 and with_ab >= 15


def test_reduced_kernel_factors_each_distinct_r_v_once(monkeypatch):
    # DFT vertices of one degree and end count share R_v, and it is factored
    # once; the arrays stay those of one SVD per vertex (see the reference
    # test above)
    svd, stacked = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        stacked.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    counts = []
    for og in (_large_graph(), _dft_unitary_graph()):
        asm = Assembly(og)
        factored = [(condition, io) for condition, io, _ in asm._vertices
                    if isinstance(condition, (DFT, FixedUnitary))
                    and any(c_out >= asm.table.n_leads for c_out, _ in io)]
        distinct = {(len(io), sum(c_out >= asm.table.n_leads for c_out, _ in io))
                    if isinstance(condition, DFT) else id(condition) for condition, io in factored}
        stacked.clear()
        assert asm._reduced is not None
        counts.append((sum(stacked), len(distinct), len(factored)))
    assert counts == [(5, 5, 8), (2, 2, 2)]


# ---------------------------------------------------------------------------
# S(k) of large graphs with A/B vertices from the reduced kernel
# ---------------------------------------------------------------------------

def test_large_graphs_with_ab_vertices_take_the_reduced_route(monkeypatch):
    og = _large_graph(ab=True)
    asm = Assembly(og)
    assert asm.table.n_bonds >= 128 and not asm.k_independent
    assert asm._reduced_s is asm._reduced is not None  # S and D read one kernel
    conditions = [v.condition for v in og.graph.vertices]
    ranks = [np.linalg.matrix_rank(c.b) for c in conditions if isinstance(c, LinearAB)]
    assert any(isinstance(c, Dirichlet) for c in conditions)
    assert any(isinstance(c, Neumann) for c in conditions)
    assert 1 in ranks and max(ranks) > 2
    ab = [c for c in conditions if isinstance(c, LinearAB)]
    assert any(np.array_equal(c.b, np.eye(len(c.b))) and np.array_equal(c.a, c.a.conj().T)
               for c in ab)  # Robin
    assert any(not np.allclose(c.a @ c.b.conj().T, (c.a @ c.b.conj().T).conj().T) for c in ab)
    # an A/B vertex owns a row of M per edge end, a Neumann vertex one row
    ends = {type(condition): 0 for condition, _, _ in asm._vertices}
    for condition, io, _ in asm._vertices:
        n_ends = sum(c_out >= asm.table.n_leads for c_out, _ in io)
        ends[type(condition)] += n_ends if isinstance(condition, LinearAB) else n_ends > 0
    assert set(ends) == {LinearAB, Neumann, Dirichlet}
    assert asm._reduced_s.r == ends[LinearAB] + ends[Neumann]
    # a small A/B graph keeps the bond route, bit for bit
    small = _robin_lead_graph()
    ks = _sweep_ks()
    bond = _bond_route_assembly(monkeypatch, small)
    assert Assembly(small)._reduced_s is None
    assert np.array_equal(Assembly(small).scattering_many(ks), bond.scattering_many(ks))


def test_ab_reduced_route_matches_the_bond_solve(monkeypatch):
    # off the band from M, to rounding, above and below the axis; in the
    # band from the bond solve, bit for bit. D(k) is interior_determinant's
    # at every k: at real k from det M (the bond matrix in the band), taken
    # with S, at complex k when read
    og = _large_graph(ab=True)
    ks = _route_ks(og)
    asm, bond = Assembly(og), _bond_route_assembly(monkeypatch, og)
    assert (ks.imag > 0).any() and (ks.imag < 0).any() and _band(og, ks).sum() == 3
    for k, in_band in zip(ks, _band(og, ks)):
        ev, want = asm.scattering(k), bond.scattering(k)
        scale = max(1.0, np.abs(want.s).max())
        assert np.abs(ev.s - want.s).max() <= 1e-12 * scale
        assert np.array_equal(ev.s, want.s) == in_band
        d = interior_determinant(og, k)
        assert ev.interior_det == d
        assert abs(d - want.interior_det) <= 1e-11 * abs(want.interior_det)
        assert (d == want.interior_det) == in_band
    assert asm.evaluations == 0


def test_ab_reduced_route_sweeps_match_per_k_bit_for_bit():
    og = _large_graph(ab=True)
    ks = _route_ks(og)
    asm = Assembly(og)
    many = asm.scattering_many(ks)
    assert asm._reduced_s.per_chunk < len(ks)
    assert np.array_equal(many, np.stack([asm.scattering(k).s for k in ks]))
    assert np.array_equal(many, np.stack([scattering_matrix(og, k).s for k in ks]))
    # a chunk holds one Sigma(k) per k, so here one k; all k in one call,
    # those in the band and off it, give the same bits
    assert asm._reduced_s.per_chunk == 1
    assert np.array_equal(asm._solve_stack(ks)[0], many)


def test_ab_reduced_route_takes_no_bond_determinant_off_the_band(monkeypatch):
    from qgscatter import global_scattering

    og = _large_graph(ab=True)
    ks = _route_ks(og)
    off = ks[(ks.imag == 0) & ~_band(og, ks)]
    taken = []
    lu_det = global_scattering.lu_det
    monkeypatch.setattr(global_scattering, "lu_det", lambda m: taken.append(1) or lu_det(m))
    asm = Assembly(og)
    evs = [asm.scattering(k) for k in off]
    asm.scattering_many(off)
    assert len(off) == 6 and all(ev.interior_det for ev in evs) and not taken


def test_ab_reduced_route_raises_as_the_bond_route_does(monkeypatch):
    from qgscatter import global_scattering

    og = _large_graph(ab=True)
    asm, bond = Assembly(og), _bond_route_assembly(monkeypatch, og)
    # A + ikB of the non-self-adjoint vertex is singular
    for call in (asm.scattering, bond.scattering, lambda k: asm.scattering_many([1.0, k, 2.0])):
        with pytest.raises(SingularAtK) as singular:
            call(AB_SINGULAR_K)
        assert singular.value.k == AB_SINGULAR_K
    # S(k) overflows far below the axis
    for call in (asm.scattering, bond.scattering, lambda k: asm.scattering_many([1.0, k])):
        with pytest.raises(DeterminantOverflow, match=r"not finite at k = \(2-500j\)"):
            call(2 - 500j)
    # a trapped state: as on the k-independent graph, |D| is rounding times
    # the D of the rest of the graph (1.8e-12 from M, 2.9e-12 from the bond
    # matrix here), above the absolute _SINGULAR_TOL
    og = _large_graph(trapped=True, ab=True)
    asm, bond = Assembly(og), _bond_route_assembly(monkeypatch, og)
    assert asm._reduced_s is not None and not _band(og, [TRAPPED_K]).any()
    monkeypatch.setattr(global_scattering, "_SINGULAR_TOL", 1e-11)
    errors = []
    for call in (asm.scattering, bond.scattering,
                 lambda k: asm.scattering_many([1.0, 2.0 - 0.5j, k, 3.0])):
        with pytest.raises(SingularInterior) as trapped:
            call(TRAPPED_K)
        errors.append(trapped.value)
    assert all(e.k == TRAPPED_K for e in errors) and str(errors[0]) == str(errors[2])
    assert abs(errors[0].determinant) < 1e-11 and abs(errors[1].determinant) < 1e-11


def test_one_reduced_kernel_serves_s_and_d(monkeypatch):
    # a large graph with A/B vertices builds one kernel, read by S(k) one k
    # and many, by D(k) and by Newton's central difference
    from qgscatter import global_scattering

    built = []
    kernel = global_scattering._ReducedKernel
    monkeypatch.setattr(global_scattering, "_ReducedKernel",
                        lambda *args: built.append(1) or kernel(*args))
    og = _large_graph(ab=True)
    ks = _route_ks(og)
    asm = Assembly(og)
    assert asm.table.n_bonds >= 128 and not asm.k_independent
    asm.scattering_many(ks)
    evs = [asm.scattering(k) for k in ks]
    d = asm.interior_det_many(ks)
    asm.interior_log_derivative(ks[0])
    assert len(built) == 1 and asm._reduced_s is asm._reduced
    assert np.array_equal(d, [ev.interior_det for ev in evs])


def test_reduced_kernel_chunks_count_sigma_of_lead_only_ab_vertices():
    # an A/B vertex with leads only owns no row of M, but D(k) and S(k)
    # still build one Sigma(k) per k, and a chunk holds about
    # _DET_CHUNK_ENTRIES entries of them
    from qgscatter.global_scattering import _DET_CHUNK_ENTRIES

    og = _large_graph()
    vertices = [*og.graph.vertices, Vertex("x", LinearAB(np.eye(8), np.eye(8)))]
    leads = [lead.at for lead in og.leads] + ["x"] * 8
    g = build_graph(vertices, list(og.graph.edges),
                    pending_leads={at: leads.count(at) for at in leads})
    asm = Assembly(attach_leads(g, leads))
    n = asm.table.n_channels
    assert not asm.k_independent and asm._reduced.gather is None
    assert asm._reduced.per_chunk * n * n <= _DET_CHUNK_ENTRIES
    ks = _route_ks(og)
    assert np.array_equal(asm.interior_det_many(ks), [asm.interior_det(k) for k in ks])


def test_interior_det_raises_where_a_plus_ikb_is_singular():
    # D(k) does not exist where the A + ikB of a vertex is singular: on the
    # large graph at AB_SINGULAR_K, on the small one at -i
    for og, k in ((_large_graph(ab=True), AB_SINGULAR_K), (_ab_degrees_graph(), -1j)):
        asm = Assembly(og)
        for call in (asm.interior_det, lambda k: asm.interior_det_many([1.0, k, 2.0])):
            with pytest.raises(SingularAtK) as singular:
                call(k)
            assert singular.value.k == k


@pytest.mark.parametrize("n, alpha", [(3, 2.5), (4, -1.3), (5, 0.7)])
def test_delta_star_spectrum(n, alpha):
    # n unit edges from a delta vertex (f continuous, sum of f' = alpha f) to
    # Dirichlet leaves: k = m pi with multiplicity n - 1, where f vanishes
    # at the centre and every sin(k L_e) in the band, and the simple roots
    # of n k cos k + alpha sin k = 0
    a = np.eye(n) - np.eye(n, k=1)
    a[-1] = np.eye(n)[0] * alpha
    b = np.zeros((n, n))
    b[-1] = -1.0
    leaves = [Vertex(f"w{i}", Dirichlet()) for i in range(n)]
    g = build_graph([Vertex("c", LinearAB(a, b))] + leaves,
                    [Edge(f"e{i}", "c", f"w{i}", 1.0) for i in range(n)])
    k_min, k_max = 0.5, 12.0
    grid = np.linspace(k_min, k_max, 20001)
    f = n * grid * np.cos(grid) + alpha * np.sin(grid)
    simple = []
    for i in np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:])):
        lo, hi = grid[i], grid[i + 1]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if np.sign(n * mid * np.cos(mid) + alpha * np.sin(mid)) == np.sign(f[i]):
                lo = mid
            else:
                hi = mid
        simple.append(0.5 * (lo + hi))
    want = sorted([(k, 1) for k in simple] + [(m * np.pi, n - 1) for m in (1, 2, 3)])
    window = eigenvalues_compact(g, (k_min, k_max))
    assert len(want) == 7 and not window.warnings
    assert [ev.multiplicity for ev in window.eigenvalues] == [m for _, m in want]
    for ev, (k, m) in zip(window.eigenvalues, want):
        assert abs(ev.k - k) <= (1e-9 if m == 1 else 1e-6)
