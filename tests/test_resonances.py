"""Winding numbers and resonance pole location."""

import cmath
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qgscatter import contours, global_scattering, resonances
from qgscatter.cli import parse_graph_file
from qgscatter.contours import (
    ZERO_TOL,
    QuadLevel,
    Rect,
    circle_winding,
    circle_windings,
    first_windings,
    rect_winding,
    rect_windings,
)
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

from conftest import (DATA_DIR, random_open_graph, star_open_graph, twin_resonators,
                      two_pendant_resonator)

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


def test_first_windings_inflates_past_a_corner_zero():
    c = 1.0 + 1.0j  # the upper right corner of the first rectangle
    first = Rect(0.0, 1.0, 0.0, 1.0)
    rects = [first, first.inflated(0.1), first.inflated(0.1).inflated(0.2)]
    out = first_windings(lambda batch: rect_windings(lambda zs: zs - c, batch), [rects])
    assert out == [(1, rects[1])]


def test_first_windings_names_the_first_contour_when_all_hit_zeros():
    # every rectangle has its lower left corner on the zero at 0; given a
    # failure, the first contour counts as wound already and is not wound
    rects = [Rect(0.0, 1.0, 0.0, 1.0), Rect(0.0, 2.0, 0.0, 2.0)]
    wound = []

    def wind_many(batch):
        wound.append(batch)
        return rect_windings(lambda zs: zs, batch)

    (out,) = first_windings(wind_many, [rects])
    assert out.startswith(f"contour through {rects[0]} still hits zeros after 2 retries: ")
    assert wound == [rects[:1], rects[1:]]
    wound.clear()
    (out,) = first_windings(wind_many, [rects], ["seen"])
    assert out.startswith(f"contour through {rects[0]} still hits zeros after 2 retries: ")
    assert wound == [rects[1:]]


def _counting(f):
    """f, and the list of the sizes of the batches it is called with."""
    calls = []

    def counted(zs):
        calls.append(len(zs))
        return f(zs)

    return counted, calls


# roots of multiplicity 1 to 7, well apart
_ROOTS = [(0.0, 1), (3.0, 2), (6.0, 3), (9.0, 4), (12.0, 5), (15.0, 7)]


def _multiple_roots(zs):
    return np.prod([(zs - c) ** m for c, m in _ROOTS], axis=0)


def test_circle_windings_match_one_circle_at_a_time():
    # circles around each root, circles beside it and circles enclosing none
    centers = [c + d for c, _ in _ROOTS for d in (0.0, 0.3 - 0.2j)] + [1.5, 4.5j]
    radii = [0.5, 0.1, 0.01, 1.0, 0.25, 0.05, 1e-3, 0.8, 0.5, 0.2, 0.7, 0.9, 1.0, 2.0]
    together = circle_windings(_multiple_roots, centers, radii)
    alone = [circle_winding(_multiple_roots, c, r) for c, r in zip(centers, radii)]
    assert together == alone
    assert together[::2][:6] == [m for _, m in _ROOTS]
    assert together[1::2] == [0, 2, 0, 4, 0, 7, 0]


def test_circle_windings_call_f_once_per_bisection_depth():
    f, calls = _counting(_multiple_roots)
    centers = [c for c, _ in _ROOTS]
    assert circle_windings(f, centers, [0.5] * len(centers)) == [m for _, m in _ROOTS]
    alone = []
    for c in centers:
        one, calls_one = _counting(_multiple_roots)
        circle_winding(one, c, 0.5)
        alone.append(calls_one)
    # the eight vertices of every circle, then one batch per bisection depth
    assert calls[0] == 8 * len(centers)
    assert len(calls) == max(map(len, alone))
    # eight midpoints resolve a zero of multiplicity below 4; higher
    # multiplicities split their eight starting segments
    assert alone[:3] == [[8, 8]] * 3
    assert all(len(c) > 2 for c in alone[3:])


def test_circle_through_a_zero_fails_alone():
    # the circle around 0 has a vertex on the zero at 1, the one around 10
    # the midpoint probe of its first segment on the zero p
    z = 10.0 + np.exp(2j * np.pi * np.arange(8) / 8)
    p = (z[0] + z[1]) / 2

    def f(zs):
        return (zs - 1.0) * (zs - p) * (zs - 3.0) ** 2

    windings = circle_windings(f, [0.0, 3.0, 10.0, 3.0 + 1.0j, 10.0], [1.0, 0.5, 1.0, 0.1, 0.5])
    assert all(isinstance(w, str) and "on the contour" in w for w in windings[::2][:2])
    assert windings[1::2] == [2, 0] and windings[4] == 0
    with pytest.raises(BoundaryZero):
        circle_winding(f, 10.0, 1.0)


def test_first_windings_retries_round_by_round():
    # a circle of radius 3 around 0, 6 or 9 passes through a root and is
    # retried at the next radius of its schedule; every round is one call
    rounds = []

    def wind_many(circles):
        rounds.append(circles)
        return circle_windings(_multiple_roots, [c for c, _ in circles],
                               [r for _, r in circles])

    schedules = [[(0.0, 3.0), (0.0, 2.0)], [(3.0, 0.5)], [(6.0, 3.0), (6.0, 1.0)],
                 [(9.0, 3.0), (9.0, 3.0)]]
    out = first_windings(wind_many, schedules)
    assert out[:3] == [(1, (0.0, 2.0)), (2, (3.0, 0.5)), (3, (6.0, 1.0))]
    assert out[3] == (f"contour through {(9.0, 3.0)} still hits zeros after 2 retries: "
                      + circle_windings(_multiple_roots, [9.0], [3.0])[0])
    assert rounds == [[s[0] for s in schedules], [(0.0, 2.0), (6.0, 1.0), (9.0, 3.0)]]


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
    ps = find_poles(twin_resonators(), Rect(0.5, 6.0, -1.5, -1e-3))
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
    # a fresh contour around it gives; a cell that winds once goes to Newton
    # unsplit, so every window winds at least twice
    rng = np.random.default_rng(61)
    cases = [(two_pendant_resonator(), Rect(0.0, 10.0, -2.0, 0.0))]
    window = Rect(0.3, 8.0, -1.0, -0.05)
    while len(cases) < 5:
        og = random_open_graph(rng, max_edges=5, max_leads=3)
        asm = Assembly(og)
        if (asm.k_independent and og.graph.edges
                and rect_winding(asm.interior_det_many, window,
                                 rate_hint=asm.total_bond_length + 1.0) >= 2):
            cases.append((og, window))
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
    # the search that wound every cell afresh evaluated 63,938 determinants
    # here, and 30,687 with cells wound by level but each multiplicity circle
    # alone from 48 points; retrying each failed cell on its own took 925
    # calls of the kernel, where one retry round per level takes about 300.
    # Splitting every cell down to 0.1 before Newton took 28,447; Newton in
    # every cell that winds once, at any size, takes 19,456.
    og = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    counted = []
    det_many = Assembly.interior_det_many

    def counting(self, ks, *args):
        counted.append(len(ks))
        return det_many(self, ks, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Assembly, "interior_det_many", counting)
        ps = find_poles(og, Rect(0.0, 8.0, -3.0, 0.0))
    # the pole on the imaginary axis lies on the window's left side
    assert (len(ps.poles), len(ps.real_axis_zeros)) == (18, 9)
    assert ps.warnings == ("zero 0-0.203258178195j lies on the left side of the window; "
                           "dropped",)
    assert ps.evaluations == sum(counted)
    assert ps.evaluations <= 19_500
    assert len(counted) <= 400


def test_window_centred_on_a_pole(monkeypatch):
    # the centre of the window is a double pole (exactly, in floating
    # point), so the window winds twice and is split, all four cross
    # half-edges of the split meet the zero and the four quadrants are
    # wound again inflated, together in one call
    pole = RESONATOR_POLES[0]
    h = 0.0625
    window = Rect(pole.real - h, pole.real + h, pole.imag - h, pole.imag + h)
    assert window.center == pole
    og = twin_resonators()
    assert abs(Assembly(og).interior_det(pole)) <= ZERO_TOL
    seen = _record_level_windings(monkeypatch)
    batches = []
    fresh = resonances.rect_windings

    def recording(f, rects, *args, **kwargs):
        batches.append(list(rects))
        return fresh(f, rects, *args, **kwargs)

    monkeypatch.setattr(resonances, "rect_windings", recording)
    ps = find_poles(og, window)
    assert len(seen) == 2 and seen[0][1] == [2]
    assert len(seen[1][1]) == 4 and all(isinstance(w, str) for w in seen[1][1])
    quadrants = window.quadrants()
    assert len(batches) == 1 and len(batches[0]) == 4
    for q, r in zip(quadrants, batches[0]):
        assert r.re_min < q.re_min and r.re_max > q.re_max and r.contains(pole)
    assert [p.multiplicity for p in ps.poles] == [2]
    assert abs(ps.poles[0].k - pole) <= 1e-10
    assert ps.warnings == ()


def test_cell_whose_every_inflation_meets_a_zero_raises(monkeypatch):
    # with no jitter every inflation of a quadrant is the quadrant itself,
    # so all _MAX_RETRIES contours through the double pole at the centre of
    # the window, which winds twice and is split, fail
    pole = RESONATOR_POLES[0]
    h = 0.0625
    window = Rect(pole.real - h, pole.real + h, pole.imag - h, pole.imag + h)
    monkeypatch.setattr(resonances, "_JITTER", 0.0)
    monkeypatch.setattr(resonances, "_MAX_RETRIES", 3)
    with pytest.raises(BoundaryZero, match=re.escape(
            f"contour through {window.quadrants()[0]} still hits zeros after 3 retries: ")):
        find_poles(twin_resonators(), window)


def test_cell_that_winds_once_goes_to_newton_unsplit(monkeypatch):
    # a window ten times the refinement size around one simple pole: one
    # level of windings, one Newton run, and one multiplicity circle
    window = Rect(1.0, 2.0, -1.0, 0.0)
    seen = _record_level_windings(monkeypatch)
    circles = []
    wind_circles = contours.circle_windings

    def recording(f, centers, radii, **kwargs):
        circles.append(list(centers))
        return wind_circles(f, centers, radii, **kwargs)

    monkeypatch.setattr(contours, "circle_windings", recording)
    ps = find_poles(two_pendant_resonator(), window)
    assert window.diameter >= 10 * resonances._REFINE_CELL
    assert [w for _, w in seen] == [[1]]
    assert len(circles) == 1 and np.allclose(circles[0], [RESONATOR_POLES[0]])
    assert [p.multiplicity for p in ps.poles] == [1]
    assert abs(ps.poles[0].k - RESONATOR_POLES[0]) <= 1e-10
    assert ps.real_axis_zeros == () and ps.warnings == ()


def test_cell_whose_newton_run_leaves_it_is_split(monkeypatch):
    # the window holds one pole, but Newton from its centre runs to the
    # trapped state at k = pi above it; the window is split until a cell's
    # own Newton run finds the pole
    window = Rect(1.0, 4.6, -1.1, -0.1)
    og = two_pendant_resonator()
    runs = []
    polish = resonances._polish

    def recording(asm, starts, trusts):
        out = polish(asm, starts, trusts)
        runs.append(list(zip(starts, out)))
        return out

    seen = _record_level_windings(monkeypatch)
    monkeypatch.setattr(resonances, "_polish", recording)
    ps = find_poles(og, window)
    ((start, (k, residual, _)),) = runs[0]
    assert seen[0][1] == [1] and start == window.center
    assert residual <= resonances._RESIDUAL_TOL and not window.contains(k)
    assert len(seen) > 1
    assert [p.multiplicity for p in ps.poles] == [1]
    assert abs(ps.poles[0].k - RESONATOR_POLES[0]) <= 1e-10
    assert ps.warnings == ()


def test_double_pole_on_a_cut_line_is_double(monkeypatch):
    # the window's vertical cut runs through the double pole, so each of the
    # two cells beside it winds once, with half of the pole on its contour;
    # the multiplicity circle, not the winding of the cell, counts it
    pole = RESONATOR_POLES[0]
    window = Rect(np.pi / 2 - 0.25, np.pi / 2 + 0.25, -0.9, -0.1)
    assert window.quadrants()[0].re_max == pole.real
    seen = _record_level_windings(monkeypatch)
    ps = find_poles(twin_resonators(), window)
    assert 1 in seen[1][1]
    assert [p.multiplicity for p in ps.poles] == [2]
    assert abs(ps.poles[0].k - pole) <= resonances._DEDUPE_RADIUS
    assert ps.warnings == ()


def test_reported_multiplicities_add_up_to_the_window_winding():
    # the argument principle on the window, wound afresh from more samples,
    # counts every zero the search reports, with its multiplicity
    rng = np.random.default_rng(71)
    window = Rect(0.2, 8.0, -2.0, -0.02)
    counted = 0
    for _ in range(8):
        og = random_open_graph(rng, max_edges=6, max_leads=3)
        while not (Assembly(og).k_independent and og.graph.edges):
            og = random_open_graph(rng, max_edges=6, max_leads=3)
        ps = find_poles(og, window)
        asm = Assembly(og)
        total = rect_winding(asm.interior_det_many, window, 256,
                             rate_hint=asm.total_bond_length + 1.0)
        reported = ps.poles + ps.real_axis_zeros + ps.edge_zeros
        assert sum(p.multiplicity for p in reported) == total
        assert ps.only_edge_warnings
        counted += total
    assert counted >= 30


def test_zero_on_a_window_side_is_dropped_whichever_side_rounding_puts_it():
    # mcdonald_meyers_1 and _2 each have a pole on the imaginary axis, which
    # Newton puts a rounding residue to one side or the other of Re k = 0
    window = Rect(0.0, 8.0, -3.0, 0.0)
    for name, im in (("mcdonald_meyers_1", -0.203258178195),
                     ("mcdonald_meyers_2", -0.200840722363)):
        ps = find_poles(parse_graph_file(DATA_DIR / f"{name}.json"), window)
        (edge,) = ps.edge_zeros
        assert abs(edge.k - complex(0.0, im)) <= 1e-12
        assert ps.warnings == (f"zero 0{im}j lies on the left side of the window; dropped",)
        assert all(window.contains(p.k, resonances._REAL_AXIS_TOL) for p in ps.poles)
    window = Rect(0.0, 1.0, -2.0, -0.1)
    for k, side, shown in ((complex(1e-30, -0.5), "left", "0-0.5j"),
                           (complex(-1e-30, -0.5), "left", "0-0.5j"),
                           (complex(1.0 - 1e-12, -0.5), "right", "1-0.5j"),
                           (complex(1.0 + 1e-12, -0.5), "right", "1-0.5j"),
                           (complex(0.25, -2.0 + 1e-12), "bottom", "0.25-2j"),
                           (complex(0.25, -0.1 - 1e-12), "top", "0.25-0.1j")):
        zero = resonances.Pole(k=k, multiplicity=1, residual=0.0, iterations=1)
        ps = resonances._pole_set(window, [zero], [], 0)
        assert ps.poles == () and ps.edge_zeros == (zero,)
        assert ps.warnings == (f"zero {shown} lies on the {side} side of the window; dropped",)
    # real-axis zeros are unchanged: the trapped state at k = 0 is kept
    zero = resonances.Pole(k=complex(1e-30, 1e-12), multiplicity=1, residual=0.0, iterations=1)
    ps = resonances._pole_set(Rect(0.0, 1.0, -2.0, 0.0), [zero], [], 0)
    assert ps.real_axis_zeros == (replace(zero, k=complex(1e-30, 0.0)),)
    assert ps.poles == ps.edge_zeros == ps.warnings == ()
