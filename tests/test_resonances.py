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

from conftest import (DATA_DIR, bench_reference, random_open_graph, star_open_graph,
                      twin_resonators, two_pendant_resonator)

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
    assert out.startswith(f"all 2 contours tried for {rects[0]} hit zeros: ")
    assert wound == [rects[:1], rects[1:]]
    wound.clear()
    (out,) = first_windings(wind_many, [rects], ["seen"])
    assert out.startswith(f"all 2 contours tried for {rects[0]} hit zeros: ")
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
    assert out[3] == (f"all 2 contours tried for {(9.0, 3.0)} hit zeros: "
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


def test_zero_counted_by_its_cell_gets_no_second_circle(monkeypatch):
    # each double pole is found in a cell of winding 2, whose check winds
    # its multiplicity circle; the final pass does not wind it again
    centres = []
    wind = resonances._circle_windings

    def recording(asm, circles):
        centres.extend(c for c, radii in circles if radii == resonances._CIRCLE_RADII)
        return wind(asm, circles)

    monkeypatch.setattr(resonances, "_circle_windings", recording)
    ps = find_poles(twin_resonators(), Rect(0.5, 6.0, -1.5, -1e-3))
    assert [p.multiplicity for p in ps.poles] == [2, 2]
    assert len(centres) == 2


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


@pytest.mark.parametrize("seed, index", [(5, 13), (1, 45), (5, 20)])
def test_close_real_axis_pair_on_the_top_side_is_kept_whole(seed, index):
    # two simple real-axis zeros 0.015, 0.010 and 0.006 apart on the top
    # side: where both lie in one half of a sample segment of a contour
    # along that side (seed 5, graph 13), or a hair above it after a retry
    # (seed 1, graph 45), their phase jumps of pi add up to a whole turn
    # that the samples do not see, and the cell winds one fewer. Newton's
    # point then lies next to a contour that did not fail, or on the
    # contour of the cell wound inflated with another zero inside its
    # circle of one sample spacing, and the cell is split until the pair
    # is parted
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        og = random_open_graph(rng, max_edges=6, max_leads=3)
    ps = find_poles(og, Rect(0.3, 6.0, -1.0, 0.0))
    ref = bench_reference()
    system = ref.BondSystem.of(og)
    assert len(ps.real_axis_zeros) == ref.zero_count(system, 0.3, 6.0, -0.01, 0.01)
    assert (sum(p.multiplicity for p in ps.poles + ps.real_axis_zeros)
            == ref.zero_count(system, 0.3, 6.0, -1.0, 0.01))
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
    """Every (level, windings) pair that QuadLevel.wind returns."""
    seen = []
    wind = QuadLevel.wind

    def recording(self, *args, **kwargs):
        out = wind(self, *args, **kwargs)
        seen.append((self, out))
        return out

    monkeypatch.setattr(QuadLevel, "wind", recording)
    return seen


def test_inherited_cell_windings_match_fresh_windings(monkeypatch):
    # every cell wound from inherited and shared sides, or wound inflated
    # after its contour met a zero, gets the winding that a fresh contour
    # around the rectangle it was wound on gives. Most cells are resolved
    # by their moment starts unsplit, so the windows are wide and reach the
    # real axis: the starts of a cell that holds many zeros, or whose top
    # side meets a trapped state there and is retried inflated, are
    # refused, and the cell is split
    rng = np.random.default_rng(61)
    cases = [(two_pendant_resonator(), Rect(0.0, 10.0, -2.0, 0.0))]
    window = Rect(0.3, 16.0, -1.0, 0.0)
    while len(cases) < 7:
        og = random_open_graph(rng, max_edges=5, max_leads=3)
        if Assembly(og).k_independent and og.graph.edges:
            cases.append((og, window))
    seen = _record_level_windings(monkeypatch)
    wound = retried = 0
    for og, window in cases:
        seen.clear()
        find_poles(og, window)
        asm = Assembly(og)
        rate = float(np.sum(asm.table.bond_lengths)) + 1.0
        for level, windings in seen:
            for i, w in enumerate(windings):
                contour = level.contour(i)
                retried += contour != level.cells[i]
                wound += 1
                assert w == rect_winding(asm.interior_det_many, contour, rate_hint=rate), contour
    assert wound > 100 and retried > 0


def test_power_sums_of_a_cell_match_its_zeros():
    # f = (z - a)(z - b)^2 e^(3iz): the power sums of a, b, b in units
    # centred on the cell and scaled by half its diameter, from the samples
    # that winding the cell resolved; a quadrant, whose sides are partly
    # inherited, and an inflated rectangle wound afresh in a ring give
    # theirs. The midpoint rule is of second order: four times the samples,
    # a sixteenth of the error.
    a, b = 0.3 - 0.2j, -0.4 + 0.35j

    def f(zs):
        return (zs - a) * (zs - b) ** 2 * np.exp(3j * zs)

    def exact(cell, zeros, count):
        u = (np.array(zeros) - cell.center) / (cell.diameter / 2)
        return [np.sum(u ** p) for p in range(1, count + 1)]

    window = Rect(-1.0, 1.5, -0.8, 0.9)
    inflated = window.inflated(0.1)
    for samples, tol in ((64, 3e-3), (256, 2e-4)):
        level = QuadLevel(window)
        assert level.wind(f, samples, rate_hint=3.0) == [3]
        np.testing.assert_allclose(level.power_sums(0, 3), exact(window, [a, b, b], 3),
                                   rtol=0, atol=tol)
        level = level.split([0])
        assert level.wind(f, samples, rate_hint=3.0) == [0, 1, 2, 0]
        np.testing.assert_allclose(level.power_sums(1, 1), exact(level.cells[1], [a], 1),
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(level.power_sums(2, 2), exact(level.cells[2], [b, b], 2),
                                   rtol=0, atol=tol)
        ring = QuadLevel._ring([inflated])
        assert ring._wind_sides(f, samples, 3.0) == [3]
        np.testing.assert_allclose(ring.power_sums(0, 3), exact(inflated, [a, b, b], 3),
                                   rtol=0, atol=tol)


def test_failed_cells_of_a_level_are_wound_together_inflated(monkeypatch):
    # the zero at the centre of the window ends all four cross half-edges of
    # its split, so the four quadrants fail and are wound again inflated, by
    # a twentieth here so that their power sums show the units of the
    # contour wound, all in one ring: one call of f for the initial samples
    # of every rectangle, then one per bisection depth, as many as the
    # rectangle that takes the most alone. Four times the default samples
    # keep the midpoint rule's error a tenth of the tolerance
    monkeypatch.setattr(contours, "_JITTER", 0.05)
    roots = np.array([0.0, 0.3 + 0.4j, -0.5 - 0.2j, 0.6 - 0.7j, -0.4 + 0.6j, -0.45 + 0.5j])

    def poly(zs):
        return np.prod(zs[:, None] - roots[None, :], axis=1)

    f, calls = _counting(poly)
    rings = []
    ring = QuadLevel._ring

    def recording(cls, rects):
        rings.append((len(calls), list(rects)))
        return ring(rects)

    monkeypatch.setattr(QuadLevel, "_ring", classmethod(recording))
    level = QuadLevel(Rect(-1.0, 1.0, -1.0, 1.0))
    assert level.wind(f, 256) == [6] and rings == []
    level = level.split([0])
    calls.clear()
    windings = level.wind(f, 256)
    ((start, rects),) = rings
    assert start > 0
    assert rects == [q.inflated(0.05) for q in level.cells]
    assert rects == [level.contour(i) for i in range(4)]
    alone = []
    for rect in rects:
        one, calls_one = _counting(poly)
        assert rect_windings(one, [rect], 256) == [rect_winding(poly, rect)]
        alone.append(calls_one)
    assert calls[start] == sum(c[0] for c in alone)
    assert len(calls) - start == max(map(len, alone))
    for i, (rect, w) in enumerate(zip(rects, windings)):
        inside = roots[[rect.contains(r) for r in roots]]
        assert w == len(inside) >= 2
        u = (inside - rect.center) / (rect.diameter / 2)
        exact = [np.sum(u ** p) for p in range(1, w + 1)]
        np.testing.assert_allclose(level.power_sums(i, w), exact, rtol=0, atol=3e-3)


def test_two_zero_window_is_resolved_from_its_moments(monkeypatch):
    # a seeded window that holds two simple zeros: the roots of its power
    # sums start one Newton run at each, so one level of windings finds
    # both, and the benchmark's oracle, which shares no code with the
    # library, counts the same zeros in the window and one in a small box
    # around each
    rng = np.random.default_rng(3)
    og = [random_open_graph(rng, max_edges=6, max_leads=3) for _ in range(3)][-1]
    window = Rect(1.0, 2.0, -0.6, -0.05)
    seen = _record_level_windings(monkeypatch)
    ps = find_poles(og, window)
    assert [w for _, w in seen] == [[2]]
    assert [p.multiplicity for p in ps.poles] == [1, 1]
    assert ps.real_axis_zeros == ps.edge_zeros == ps.warnings == ()
    ref = bench_reference()
    system = ref.BondSystem.of(og)
    assert ref.zero_count(system, window.re_min, window.re_max, window.im_min,
                          window.im_max) == 2
    for p in ps.poles:
        box = (p.k.real - 1e-4, p.k.real + 1e-4, p.k.imag - 1e-4, p.k.imag + 1e-4)
        assert ref.zero_count(system, *box) == 1
        assert ref.relative_residual(system, p.k) <= 1e-6


def test_quad_level_windings_match_fresh_windings():
    # a polynomial rotates along vertical sides as much as along horizontal
    # ones; one root sits on a split line of the first two levels, so the
    # cells around it are wound inflated, and every cell must be wound right
    # around the rectangle it was wound on
    rng = np.random.default_rng(5)
    roots = np.concatenate([rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7), [0.5]])

    def f(zs):
        return np.prod(zs[:, None] - roots[None, :], axis=1)

    nxt = QuadLevel(Rect(-1.0, 1.0, -1.0, 1.0))
    for depth in range(6):
        level = nxt
        windings = level.wind(f)
        retried = 0
        for i, (cell, w) in enumerate(zip(level.cells, windings)):
            on_edge = cell.inflated(1e-15).contains(0.5) and not cell.contains(0.5, 1e-15)
            contour = level.contour(i)
            if contour != cell:
                retried += 1
                assert on_edge and contour.contains(0.5), cell
            assert w == rect_winding(f, contour), cell
        if depth == 0:
            assert windings == [8]
        # every cell for three levels, so that neighbours share sides too
        nxt = level.split([i for i, w in enumerate(windings) if depth < 3 or w != 0])
    assert retried == 4


def test_pole_search_evaluation_count():
    # the search that wound every cell afresh evaluated 63,938 determinants
    # here, and 30,687 with cells wound by level but each multiplicity circle
    # alone from 48 points; retrying each failed cell on its own took 925
    # calls of the kernel, where one retry round per level takes about 300.
    # Splitting every cell down to 0.1 before Newton took 28,447; Newton
    # from the centre of every cell that winds once, at any size, took
    # 19,456 and 306 Newton steps. Newton from the moment starts of every
    # cell that winds at all took 17,762 and 87 steps; with a circle of one
    # sample spacing around each zero found on the contour of a cell wound
    # inflated, and no second multiplicity circle for a zero that its
    # cell's check counted, it takes 17,874 and 87. The count is pinned, so
    # that a refactor that means to change no computation shows that it
    # does not; mcdonald_meyers_2 takes 13,792.
    og = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    counted, steps = [], []
    det_many = Assembly.interior_det_many
    log_derivative = Assembly.interior_log_derivative

    def counting(self, ks, *args):
        counted.append(len(ks))
        return det_many(self, ks, *args)

    def stepping(self, k):
        steps.append(k)
        return log_derivative(self, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Assembly, "interior_det_many", counting)
        mp.setattr(Assembly, "interior_log_derivative", stepping)
        ps = find_poles(og, Rect(0.0, 8.0, -3.0, 0.0))
    # the pole on the imaginary axis lies on the window's left side
    assert (len(ps.poles), len(ps.real_axis_zeros)) == (18, 9)
    assert ps.warnings == ("zero 0-0.203258178195j lies on the left side of the window; "
                           "dropped",)
    assert ps.evaluations == sum(counted)
    assert ps.evaluations == 17_874
    assert len(steps) == 87
    assert len(counted) <= 400
    counted.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Assembly, "interior_det_many", counting)
        ps = find_poles(parse_graph_file(DATA_DIR / "mcdonald_meyers_2.json"),
                        Rect(0.0, 8.0, -3.0, 0.0))
    assert ps.evaluations == sum(counted) == 13_792


def _row_of_double_poles():
    """A window of the twin resonators centred (exactly, in floating point)
    on the double pole RESONATOR_POLES[0], in a row of seven double poles:
    too many zeros for the moment starts of the window, which are refused,
    so that the window is split through the pole at its centre."""
    pole = RESONATOR_POLES[0]
    window = Rect(pole.real - 12.0, pole.real + 12.0, pole.imag - 0.25, pole.imag + 0.25)
    assert window.center == pole
    return window


def test_window_centred_on_a_pole(monkeypatch):
    # the window is split through the double pole at its centre, all four
    # cross half-edges of the split meet the zero and the four quadrants
    # are wound again inflated, together in one ring
    pole = RESONATOR_POLES[0]
    window = _row_of_double_poles()
    og = twin_resonators()
    assert abs(Assembly(og).interior_det(pole)) <= ZERO_TOL
    seen = _record_level_windings(monkeypatch)
    rings = []
    ring = QuadLevel._ring

    def recording(cls, rects):
        rings.append(list(rects))
        return ring(rects)

    monkeypatch.setattr(QuadLevel, "_ring", classmethod(recording))
    ps = find_poles(og, window)
    assert seen[0][1] == [14]
    level = seen[1][0]
    quadrants = window.quadrants()
    assert level.cells == list(quadrants) and len(seen[1][1]) == 4
    assert len(rings[0]) == 4
    for i, (q, r) in enumerate(zip(quadrants, rings[0])):
        assert r.re_min < q.re_min and r.re_max > q.re_max and r.contains(pole)
        assert level.contour(i) == r
    assert [p.multiplicity for p in ps.poles] == [2] * 7
    (centred,) = [p for p in ps.poles if abs(p.k - pole) <= 1e-10]
    assert centred.multiplicity == 2
    assert ps.warnings == ()


def test_cell_whose_every_inflation_meets_a_zero_raises(monkeypatch):
    # with no jitter every inflation of a quadrant is the quadrant itself,
    # so all _CONTOURS_TRIED contours through the double pole at the centre
    # of the window, which is split, fail
    window = _row_of_double_poles()
    monkeypatch.setattr(contours, "_JITTER", 0.0)
    monkeypatch.setattr(contours, "_CONTOURS_TRIED", 3)
    with pytest.raises(BoundaryZero, match=re.escape(
            f"all 3 contours tried for {window.quadrants()[0]} hit zeros: ")):
        find_poles(twin_resonators(), window)


def test_cell_that_winds_once_goes_to_newton_unsplit(monkeypatch):
    # a window of diameter 1 around one simple pole: one level of windings,
    # one Newton run, and one multiplicity circle
    window = Rect(1.0, 2.0, -1.0, 0.0)
    seen = _record_level_windings(monkeypatch)
    circles = []
    wind_circles = contours.circle_windings

    def recording(f, centers, radii, **kwargs):
        circles.append(list(centers))
        return wind_circles(f, centers, radii, **kwargs)

    monkeypatch.setattr(contours, "circle_windings", recording)
    ps = find_poles(two_pendant_resonator(), window)
    assert [w for _, w in seen] == [[1]]
    assert len(circles) == 1 and np.allclose(circles[0], [RESONATOR_POLES[0]])
    assert [p.multiplicity for p in ps.poles] == [1]
    assert abs(ps.poles[0].k - RESONATOR_POLES[0]) <= 1e-10
    assert ps.real_axis_zeros == () and ps.warnings == ()


def test_cell_whose_newton_run_leaves_it_is_split(monkeypatch):
    # the window holds one pole; its moment start is replaced by its
    # centre, from which Newton runs to the trapped state at k = pi above
    # it, so the window is split until a cell's own Newton run finds the
    # pole
    window = Rect(1.0, 4.6, -1.1, -0.1)
    og = two_pendant_resonator()
    runs = []
    polish = resonances._polish
    moment_starts = resonances._moment_starts

    def centre_of_window(cell, sums):
        return [cell.center] if cell == window else moment_starts(cell, sums)

    def recording(asm, starts, trusts):
        out = polish(asm, starts, trusts)
        runs.append(list(zip(starts, out)))
        return out

    seen = _record_level_windings(monkeypatch)
    monkeypatch.setattr(resonances, "_polish", recording)
    monkeypatch.setattr(resonances, "_moment_starts", centre_of_window)
    ps = find_poles(og, window)
    ((start, (k, residual, _)),) = runs[0]
    assert seen[0][1] == [1] and start == window.center
    assert residual <= resonances._RESIDUAL_TOL and not window.contains(k)
    assert len(seen) > 1
    assert [p.multiplicity for p in ps.poles] == [1]
    assert abs(ps.poles[0].k - RESONATOR_POLES[0]) <= 1e-10
    assert ps.warnings == ()


def test_double_pole_on_a_cut_line_is_double(monkeypatch):
    # the window's vertical cut runs through the double pole. The window
    # also holds the double trapped states at 0 and pi, 0.01 below its top
    # side, which its moment starts place outside the contour; they are
    # refused and the window is split, so each of the two cells beside the
    # pole winds once, with half of the pole on its contour; the
    # multiplicity circle, not the winding of the cell, counts it
    pole = RESONATOR_POLES[0]
    window = Rect(np.pi / 2 - 2.5, np.pi / 2 + 2.5, -0.9, 0.01)
    assert window.quadrants()[0].re_max == pole.real
    seen = _record_level_windings(monkeypatch)
    ps = find_poles(twin_resonators(), window)
    assert seen[0][1] == [6]
    assert seen[1][1][:2] == [1, 1]
    assert [p.multiplicity for p in ps.poles] == [2]
    assert abs(ps.poles[0].k - pole) <= resonances._DEDUPE_RADIUS
    assert ps.warnings == ()


def test_cell_with_half_a_double_zero_on_its_side_is_split(monkeypatch):
    # the window's top side runs through the double trapped states at 0 and
    # pi, of which it winds half each, and its vertical cut through the
    # double pole, of which each cell beside it winds half. Newton's points
    # lie on those contours, not inside, so the moment starts are refused
    # and the cells split until the halves are whole; the circles count
    # every zero double
    pole = RESONATOR_POLES[0]
    window = Rect(np.pi / 2 - 2.5, np.pi / 2 + 2.5, -0.9, 0.0)
    assert window.quadrants()[0].re_max == pole.real
    seen = _record_level_windings(monkeypatch)
    ps = find_poles(twin_resonators(), window)
    assert seen[0][1] == [4] and seen[1][1] == [1, 1, 1, 1] and len(seen) > 2
    assert [p.multiplicity for p in ps.poles] == [2]
    assert abs(ps.poles[0].k - pole) <= resonances._DEDUPE_RADIUS
    assert [p.multiplicity for p in ps.real_axis_zeros] == [2, 2]
    np.testing.assert_allclose([p.k for p in ps.real_axis_zeros], [0.0, np.pi],
                               rtol=0, atol=1e-9)
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
