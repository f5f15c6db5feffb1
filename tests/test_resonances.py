"""Winding numbers and resonance pole location."""

import cmath
import re
import warnings

import numpy as np
import pytest

from qgscatter import global_scattering, resonances
from qgscatter.cli import parse_graph_file
from qgscatter.contours import ZERO_TOL, QuadLevel, Rect, first_winding, rect_winding
from qgscatter.errors import BoundaryZero, DeterminantOverflow, Diverged, NonHolomorphic
from qgscatter.global_scattering import Assembly
from qgscatter.graph_core import (
    Dirichlet,
    Edge,
    FixedUnitary,
    LinearAB,
    Neumann,
    Vertex,
    attach_leads,
    build_graph,
)
from qgscatter.resonances import find_poles, refine_pole, winding_number

from conftest import DATA_DIR, random_open_graph, star_open_graph, two_pendant_resonator

RESONATOR_POLES = [(2 * m + 1) * np.pi / 2 - 0.5j * np.log(3.0) for m in range(3)]


def test_winding_simple_zero():
    c = 1.0 + 0.5j
    assert winding_number(lambda z: z - c, Rect(0, 2, 0, 1)) == 1
    assert winding_number(lambda z: z - c, Rect(2, 4, 0, 1)) == 0


def test_winding_double_zero():
    c = -0.3 + 0.2j
    assert winding_number(lambda z: (z - c) ** 2, Rect(-1, 1, -1, 1)) == 2


def test_winding_boundary_zero_detected():
    with pytest.raises(BoundaryZero):
        winding_number(lambda z: z - 1.0, Rect(0, 1, -1, 1))


def test_first_winding_inflates_past_a_corner_zero():
    c = 1.0 + 1.0j  # the upper right corner of the first rectangle
    first = Rect(0.0, 1.0, 0.0, 1.0)
    rects = [first, first.inflated(0.1), first.inflated(0.1).inflated(0.2)]
    w, rect = first_winding(lambda r: rect_winding(lambda zs: zs - c, r), rects)
    assert (w, rect) == (1, rects[1])


def test_first_winding_names_the_first_contour_when_all_hit_zeros():
    # every rectangle has its lower left corner on the zero at 0
    rects = [Rect(0.0, 1.0, 0.0, 1.0), Rect(0.0, 2.0, 0.0, 2.0)]
    with pytest.raises(BoundaryZero, match=re.escape(f"contour through {rects[0]} still hits "
                                                     "zeros after 2 retries")):
        first_winding(lambda r: rect_winding(lambda zs: zs, r), rects)


def test_winding_scalar_and_array_callables_agree():
    # exp(z) - 2 vanishes at log 2 + 2 pi i n; n = 0 and n = 1 lie inside
    rect = Rect(0.0, 1.0, -1.0, 7.0)
    assert winding_number(lambda z: cmath.exp(z) - 2, rect) == 2
    assert rect_winding(lambda zs: np.exp(zs) - 2, rect) == 2
    asm = Assembly(two_pendant_resonator())
    cell = Rect(0.3, 6.0, -1.5, -0.01)
    assert winding_number(asm.interior_det, cell) == rect_winding(asm.interior_det_many, cell) == 2


def test_winding_non_finite_values_fail_fast():
    with pytest.raises(DeterminantOverflow):
        rect_winding(lambda zs: np.where(zs.real > 0.5, np.nan, 1.0), Rect(0, 1, -1, 1))


def test_winding_additivity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        roots = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(-1, 1, size=3)

        def f(z):
            return np.prod(z - roots)

        parent = Rect(-1.5, 1.5, -1.5, 1.5)
        total = winding_number(f, parent)
        parts = sum(winding_number(f, q) for q in parent.quadrants())
        assert total == parts == 3


def test_resonator_poles():
    ps = find_poles(two_pendant_resonator(), Rect(0.0, 10.0, -2.0, 0.0))
    assert len(ps.poles) == 3
    for pole, expected in zip(ps.poles, RESONATOR_POLES):
        assert abs(pole.k - expected) <= 1e-8
        assert pole.multiplicity == 1
        assert pole.residual <= 1e-8


def test_resonator_real_axis_zeros_separated():
    # the equal pendants trap states at k = m pi; these determinant zeros sit
    # on the real axis and are not scattering poles
    ps = find_poles(two_pendant_resonator(), Rect(0.0, 10.0, -2.0, 0.0))
    reals = sorted(p.k.real for p in ps.real_axis_zeros)
    expected = [0.0, np.pi, 2 * np.pi, 3 * np.pi]
    assert len(reals) == 4
    np.testing.assert_allclose(reals, expected, atol=1e-7)
    assert all(abs(p.k.imag) <= 1e-9 for p in ps.real_axis_zeros)


def test_no_interior_means_no_poles():
    ps = find_poles(star_open_graph(6), Rect(0.0, 5.0, -2.0, 0.0))
    assert ps.poles == ()


def test_refine_pole_converges():
    k, res, iters = refine_pole(two_pendant_resonator(), 1.5 - 0.5j)
    assert abs(k - RESONATOR_POLES[0]) <= 1e-10
    assert res <= 1e-10
    assert iters <= 50


def test_refine_pole_from_exact_zero():
    k, res, iters = refine_pole(two_pendant_resonator(), RESONATOR_POLES[0])
    assert abs(k - RESONATOR_POLES[0]) <= 1e-11
    assert res <= 1e-10
    assert iters <= 3


def test_refine_pole_diverges_far_from_zeros():
    # nearest determinant zero is more than one unit away; with a tight trust
    # region the iteration must not invent a pole
    with pytest.raises(Diverged):
        refine_pole(two_pendant_resonator(), 0.8 - 1.5j, trust_radius=0.05)


def test_k_dependent_conditions_rejected():
    h = np.array([[1.0]])
    g = build_graph(
        [Vertex("a", LinearAB(h, np.eye(1))), Vertex("b", Neumann())],
        [Edge("e", "a", "b", 1.0)],
        pending_leads={"b": 1},
    )
    og = attach_leads(g, ["b"])
    with pytest.raises(NonHolomorphic):
        find_poles(og, Rect(0.0, 2.0, -1.0, 0.0))
    with pytest.raises(NonHolomorphic):
        refine_pole(og, 1.0 - 0.2j)


def test_poles_invariant_under_lead_relabeling():
    g = build_graph(
        [Vertex("c", Neumann()), Vertex("w1", Dirichlet()), Vertex("w2", Dirichlet())],
        [Edge("e1", "c", "w1", 0.9), Edge("e2", "c", "w2", 1.3)],
        pending_leads={"c": 2},
    )
    og = attach_leads(g, ["c", "c"])
    window = Rect(0.0, 6.0, -2.0, 0.0)
    base = find_poles(og, window).ks()
    swapped = find_poles(og.with_lead_order([1, 0]), window).ks()
    assert len(base) == len(swapped)
    np.testing.assert_allclose(base, swapped, atol=1e-9)


def test_poles_invariant_under_edge_renaming():
    def make(names):
        g = build_graph(
            [Vertex("c", Neumann()), Vertex("w1", Dirichlet()), Vertex("w2", Dirichlet())],
            [Edge(names[0], "c", "w1", 0.9), Edge(names[1], "c", "w2", 1.3)],
            pending_leads={"c": 1},
        )
        return attach_leads(g, ["c"])

    window = Rect(0.0, 6.0, -2.0, 0.0)
    a = find_poles(make(["e1", "e2"]), window).ks()
    b = find_poles(make(["zz", "aa"]), window).ks()
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_scale_covariance_of_poles():
    og = two_pendant_resonator()
    window = Rect(0.2, 7.0, -1.5, -1e-3)
    base = find_poles(og, window).ks()
    c = 1.7
    scaled_window = Rect(0.2 / c, 7.0 / c, -1.5 / c, -1e-3 / c)
    scaled = find_poles(og.scaled(c), scaled_window).ks()
    assert len(base) == len(scaled) > 0
    np.testing.assert_allclose(scaled, base / c, atol=1e-8)


def test_double_poles_from_twin_resonators():
    # two disjoint copies of the same resonator: D factors into identical
    # pieces and every pole doubles
    verts, edges = [], []
    for tag in ("x", "y"):
        verts += [Vertex(f"c{tag}", Neumann()), Vertex(f"w1{tag}", Dirichlet()),
                  Vertex(f"w2{tag}", Dirichlet())]
        edges += [Edge(f"e1{tag}", f"c{tag}", f"w1{tag}", 1.0),
                  Edge(f"e2{tag}", f"c{tag}", f"w2{tag}", 1.0)]
    g = build_graph(verts, edges, pending_leads={"cx": 1, "cy": 1})
    og = attach_leads(g, ["cx", "cy"])
    ps = find_poles(og, Rect(0.5, 6.0, -1.5, -1e-3))
    assert [p.multiplicity for p in ps.poles] == [2, 2]
    for p, e in zip(ps.poles, RESONATOR_POLES[:2]):
        assert abs(p.k - e) <= 1e-7


def test_chunk_size_does_not_change_results(monkeypatch):
    og = two_pendant_resonator()
    window = Rect(0.0, 10.0, -2.0, 0.0)
    base = find_poles(og, window)
    # one matrix per LAPACK call
    monkeypatch.setattr(global_scattering, "_DET_CHUNK_ENTRIES", 1)
    single = find_poles(og, window)
    assert base.poles == single.poles
    assert base.real_axis_zeros == single.real_axis_zeros


def test_deep_window_reports_determinant_overflow():
    # |D| ~ exp(|Im k| * 21) overflows near Im k = -34; that is not a zero on
    # the contour, so it must not be retried as one
    og = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DeterminantOverflow, match="determinant overflow"):
            find_poles(og, Rect(0.0, 4.0, -40.0, 0.0))


def test_close_pair_in_one_small_cell_is_separated():
    # a lead coupled by exp(iH) to two Dirichlet-ended edges of nearly equal
    # length: two resonances about 0.012 apart, closer than the refinement cell
    h = np.zeros((3, 3))
    h[0, 1:] = h[1:, 0] = 0.2
    w, v = np.linalg.eigh(h)
    g = build_graph(
        [Vertex("c", FixedUnitary((v * np.exp(1j * w)) @ v.conj().T)),
         Vertex("d1", Dirichlet()), Vertex("d2", Dirichlet())],
        [Edge("e1", "c", "d1", 1.0), Edge("e2", "c", "d2", 1.005)],
        pending_leads={"c": 1},
    )
    og = attach_leads(g, ["c"])
    ps = find_poles(og, Rect(4.0, 7.0, -0.6, 0.0))
    assert [p.multiplicity for p in ps.poles] == [1, 1]
    a, b = ps.ks()
    assert 1e-3 < abs(a - b) < 0.05
    assert all(p.residual <= 1e-8 for p in ps.poles)
    assert ps.warnings == ()


def test_winding_additivity_on_interior_determinant():
    from qgscatter.global_scattering import Assembly

    asm = Assembly(two_pendant_resonator())
    rect = Rect(0.3, 6.0, -1.5, -0.01)
    total = winding_number(asm.interior_det, rect, samples=256)
    parts = sum(winding_number(asm.interior_det, q, samples=256)
                for q in rect.quadrants())
    assert total == parts == 2


def _record_level_windings(monkeypatch):
    """Every (cells, windings) pair that QuadLevel.wind returns."""
    seen = []
    wind = QuadLevel.wind

    def recording(self, *args, **kwargs):
        out = wind(self, *args, **kwargs)
        seen.append((list(self.cells), out))
        return out

    monkeypatch.setattr(QuadLevel, "wind", recording)
    return seen


def test_inherited_cell_windings_match_fresh_windings(monkeypatch):
    # every cell wound from inherited and shared sides gets the winding that
    # a fresh contour around it gives
    rng = np.random.default_rng(61)
    cases = [(two_pendant_resonator(), Rect(0.0, 10.0, -2.0, 0.0))]
    while len(cases) < 5:
        og = random_open_graph(rng, max_edges=5, max_leads=3)
        if Assembly(og).k_independent and og.graph.edges:
            cases.append((og, Rect(0.3, 4.0, -1.0, -0.05)))
    seen = _record_level_windings(monkeypatch)
    wound = failed = 0
    for og, window in cases:
        seen.clear()
        find_poles(og, window)
        asm = Assembly(og)
        rate = float(np.sum(asm.table.bond_lengths)) + 1.0
        for cells, windings in seen:
            for cell, w in zip(cells, windings):
                if isinstance(w, str):
                    failed += 1
                    continue
                wound += 1
                assert w == rect_winding(asm.interior_det_many, cell, rate_hint=rate), cell
    assert wound > 100 and failed > 0


def test_quad_level_windings_match_fresh_windings():
    # a polynomial rotates along vertical sides as much as along horizontal
    # ones; one root sits on a split line of the first two levels, so the
    # cells around it fail and every other cell must still be wound right
    rng = np.random.default_rng(5)
    roots = np.concatenate([rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7), [0.5]])

    def f(zs):
        return np.prod(zs[:, None] - roots[None, :], axis=1)

    level = QuadLevel(Rect(-1.0, 1.0, -1.0, 1.0))
    for depth in range(6):
        windings = level.wind(f)
        for cell, w in zip(level.cells, windings):
            on_edge = cell.inflated(1e-15).contains(0.5) and not cell.contains(0.5, 1e-15)
            if isinstance(w, str):
                assert on_edge, cell
            else:
                assert w == rect_winding(f, cell), cell
        if depth == 0:
            assert windings == [8]
        # every cell for three levels, so that neighbours share sides too
        level = level.split([i for i, w in enumerate(windings) if depth < 3 or w != 0])
    assert sum(isinstance(w, str) for w in windings) == 4


def test_pole_search_evaluation_count():
    # the parent search, which wound every cell afresh, evaluated 63,938
    # determinants here
    og = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    counted = []
    det_many = Assembly.interior_det_many

    def counting(self, ks, *args):
        counted.append(len(ks))
        return det_many(self, ks, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Assembly, "interior_det_many", counting)
        ps = find_poles(og, Rect(0.0, 8.0, -3.0, 0.0))
    assert (len(ps.poles), len(ps.real_axis_zeros)) == (19, 9)
    assert ps.evaluations == sum(counted)
    assert ps.evaluations <= 32_000


def test_window_centred_on_a_pole(monkeypatch):
    # the centre of the window is the pole (exactly, in floating point), so
    # all four cross half-edges of the first split meet the zero and each
    # quadrant is wound again inflated, on its own
    pole = RESONATOR_POLES[0]
    h = 0.0625
    window = Rect(pole.real - h, pole.real + h, pole.imag - h, pole.imag + h)
    assert window.center == pole
    og = two_pendant_resonator()
    assert abs(Assembly(og).interior_det(pole)) <= ZERO_TOL
    seen = _record_level_windings(monkeypatch)
    retried = []
    fresh = resonances.rect_winding

    def recording(f, rect, *args, **kwargs):
        retried.append(rect)
        return fresh(f, rect, *args, **kwargs)

    monkeypatch.setattr(resonances, "rect_winding", recording)
    ps = find_poles(og, window)
    assert len(seen) == 2 and seen[0][1] == [1]
    assert len(seen[1][1]) == 4 and all(isinstance(w, str) for w in seen[1][1])
    quadrants = window.quadrants()
    assert len(retried) == 4
    for q, r in zip(quadrants, retried):
        assert r.re_min < q.re_min and r.re_max > q.re_max and r.contains(pole)
    assert [p.multiplicity for p in ps.poles] == [1]
    assert abs(ps.poles[0].k - pole) <= 1e-10
    assert ps.warnings == ()
