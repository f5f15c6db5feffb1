"""Global scattering matrix, secular function, and compact spectra."""

import numpy as np
import pytest

from qgscatter.cli import parse_graph_file
from qgscatter.errors import SingularInterior, ValidationError, WindowTooWide, ZeroK
from qgscatter.global_scattering import (
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
from qgscatter.vertex_scattering import condition_sigma

from conftest import (
    DATA_DIR,
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


def _dft_unitary_graph():
    rng = np.random.default_rng(5)
    g = build_graph(
        [Vertex("a", DFT()), Vertex("b", FixedUnitary(random_unitary(rng, 3))),
         Vertex("c", Dirichlet())],
        [Edge("e1", "a", "b", 0.7), Edge("e2", "a", "b", 1.3), Edge("e3", "b", "c", 0.9)],
        pending_leads={"a": 1},
    )
    return attach_leads(g, ["a"])


def test_interior_det_many_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(11)
    # real k, deep and upper-half-plane k; enough of them for several chunks
    ks = np.concatenate([rng.uniform(0.1, 30.0, 400),
                         rng.uniform(0.1, 10.0, 400) - 1j * rng.uniform(0.0, 3.0, 400),
                         rng.uniform(0.1, 10.0, 100) + 1j * rng.uniform(0.0, 1.0, 100)])
    graphs = [parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json"), _dft_unitary_graph()]
    graphs += [random_open_graph(np.random.default_rng(s)) for s in range(4)]
    for og in graphs:
        asm = Assembly(og)
        many = asm.interior_det_many(ks)
        assert np.array_equal(many, [asm.interior_det(k) for k in ks])
        # the textbook construction, one matrix at a time
        nl, nb = asm.table.n_leads, asm.table.n_bonds
        loop = [np.linalg.det(np.eye(nb) - asm.sigma(k)[nl:, nl:]
                              * np.exp(1j * complex(k) * asm.table.bond_lengths)[None, :])
                for k in ks]
        assert np.array_equal(many, loop)


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
        local = condition_sigma(v.condition, len(channels))(k)
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
    # D(k) and the phase of det Sigma(k) come from the same sigma_v(k): one
    # A/B solve per k-dependent vertex per k
    from qgscatter import vertex_scattering
    from qgscatter.global_scattering import _RealSecular

    sec = _RealSecular(Assembly(OpenGraph(robin_interval(), ())))
    calls = []
    ab_to_sigma = vertex_scattering.ab_to_sigma

    def counting(a, b, k, **kwargs):
        calls.append(k)
        return ab_to_sigma(a, b, k, **kwargs)

    monkeypatch.setattr(vertex_scattering, "ab_to_sigma", counting)
    r = sec.value(2.0)
    assert calls == [2.0]
    ks = np.linspace(0.5, 9.5, 10)
    calls.clear()
    rs = sec.values(ks)
    assert calls == list(ks)
    assert rs[3] == sec.value(ks[3]) and r == sec.values(np.array([2.0]))[0]


def test_lockstep_bisection_matches_the_scalar_loop():
    # the bisection that eigenvalues_compact ran one bracket at a time, as
    # the reference: the batched one must give the same midpoints bit for bit
    from qgscatter.global_scattering import _bisect, _RealSecular

    def scalar(sec, lo, hi, flo):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = sec.value(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-13 * max(1.0, mid):
                break
        return 0.5 * (lo + hi)

    mm1 = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json").graph
    for graph, ks in ((mm1, np.linspace(0.5, 12.0, 400)),
                      (robin_interval(), np.linspace(0.3, 10.0, 60))):
        sec = _RealSecular(Assembly(OpenGraph(graph, ())))
        rs = sec.values(ks)
        at = np.flatnonzero(rs[:-1] * rs[1:] < 0)
        assert len(at) >= 4
        want = [scalar(sec, ks[i], ks[i + 1], rs[i]) for i in at]
        assert np.array_equal(_bisect(sec, ks[at], ks[at + 1], rs[at]), want)


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
    with pytest.raises(WindowTooWide):
        eigenvalues_compact(g, (0.1, 10.0), node_budget=10)


def test_window_validation():
    g = build_graph([Vertex("a", Neumann()), Vertex("b", Neumann())],
                    [Edge("e", "a", "b", 1.0)])
    with pytest.raises(ValidationError):
        eigenvalues_compact(g, (5.0, 1.0))
    with pytest.raises(ValidationError):
        eigenvalues_compact(g, (-1.0, 1.0))


def test_edgeless_graph_has_empty_spectrum():
    g = build_graph([Vertex("a", Neumann())], [], pending_leads={"a": 1})
    win = eigenvalues_compact(g, (0.5, 5.0))
    assert win.eigenvalues == ()
