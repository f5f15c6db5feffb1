"""Conjugacy search, phase and pole comparisons, transplantability verdicts."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qgscatter.cli import parse_graph_file, run_command
from qgscatter.contours import Rect
from qgscatter.errors import (DimensionMismatch, SampleAtSingularity, SingularInterior,
                              WindowMismatch)
from qgscatter.global_scattering import Assembly
from qgscatter.graph_core import Dirichlet, Edge, Neumann, Vertex, attach_leads, build_graph
from qgscatter.isoscattering import (
    _PHASE_KS,
    conjugation_residual,
    find_conjugator,
    isophasal_check,
    isopolar_check,
    transplantability_verdict,
)
from qgscatter import resonances
from qgscatter.resonances import _confirm_poles, find_poles

from conftest import (DATA_DIR, random_open_graph, star_open_graph, twin_resonators,
                      two_pendant_resonator)

GOLDEN_STAR3 = np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]]) / 3.0
GOLDEN_SUM = np.diag([1.0, -1.0, -1.0])
TRANSPLANTER = np.array([[1.0, 1, 1], [1, -1, 0], [1, 0, -1]])


def quotient_pair_functions():
    return (lambda k: GOLDEN_STAR3, lambda k: GOLDEN_SUM)


def quotient_pair_graphs():
    """The two quotient systems realized as open graphs: a 3-lead star with
    a transparent-coupling vertex, and one free lead plus two hard walls."""
    og1 = star_open_graph(3)
    g2 = build_graph(
        [Vertex("n", Neumann()), Vertex("d1", Dirichlet()), Vertex("d2", Dirichlet())],
        [],
        pending_leads={"n": 1, "d1": 1, "d2": 1},
    )
    og2 = attach_leads(g2, ["n", "d1", "d2"])
    return og1, og2


def test_conjugator_found_for_quotient_pair():
    s1, s2 = quotient_pair_functions()
    result = find_conjugator(s1, s2)
    assert result.found
    assert result.solution_dim >= 1
    assert result.residual <= 1e-8
    assert abs(np.linalg.det(result.pi)) > 1e-8
    assert result.label == "numerical evidence"


def test_known_transplanter_is_a_solution():
    s1, s2 = quotient_pair_functions()
    res = conjugation_residual(TRANSPLANTER, s1, s2, [0.5, 1.0, 7.3])
    assert res <= 1e-12


def test_self_conjugacy():
    og = two_pendant_resonator()
    asm = Assembly(og)
    s = lambda k: asm.scattering(k).s
    result = find_conjugator(s, s)
    assert result.found
    # the identity is in the solution space
    assert conjugation_residual(np.eye(1), s, s, [1.0, 2.0]) == 0.0


def test_not_found_on_spectral_obstruction():
    s1 = lambda k: np.diag([1.0 + 0.0j, -1.0])
    s2 = lambda k: np.diag([np.exp(1j * k), -1.0])
    result = find_conjugator(s1, s2)
    assert result.status == "not_found"


def test_dimension_mismatch():
    s1 = lambda k: np.eye(2, dtype=complex)
    s2 = lambda k: np.eye(3, dtype=complex)
    with pytest.raises(DimensionMismatch):
        find_conjugator(s1, s2)


def test_isophasal_quotient_pair():
    s1, s2 = quotient_pair_functions()
    ok, dev = isophasal_check(s1, s2)
    assert ok and dev <= 1e-12


def test_isophasal_self_and_negative():
    s1, _ = quotient_pair_functions()
    ok, dev = isophasal_check(s1, s1)
    assert ok and dev == 0.0
    ok, dev = isophasal_check(lambda k: np.eye(1), lambda k: -np.eye(1))
    assert not ok and dev > 1.0


def test_isopolar_vacuous_and_self():
    og1, og2 = quotient_pair_graphs()
    window = Rect(0.0, 5.0, -2.0, 0.0)
    p1 = find_poles(og1, window)
    p2 = find_poles(og2, window)
    ok, pairing = isopolar_check(p1, p2)
    assert ok and pairing.matched == ()
    pr = find_poles(two_pendant_resonator(), Rect(0.0, 10.0, -2.0, 0.0))
    ok, pairing = isopolar_check(pr, pr)
    assert ok and len(pairing.matched) == 3


def test_isopolar_window_mismatch():
    og = two_pendant_resonator()
    p1 = find_poles(og, Rect(0.0, 10.0, -2.0, 0.0))
    p2 = find_poles(og, Rect(0.0, 9.0, -2.0, 0.0))
    with pytest.raises(WindowMismatch):
        isopolar_check(p1, p2)


def test_verdict_transplantable_for_quotient_pair():
    og1, og2 = quotient_pair_graphs()
    report = transplantability_verdict(og1, og2, Rect(0.0, 5.0, -2.0, 0.0))
    assert report.verdict == "transplantable (numerical evidence)"
    assert report.conjugacy.found
    assert report.isophasal and report.isopolar
    res = conjugation_residual(
        TRANSPLANTER,
        lambda k: Assembly(og1).scattering(k).s,
        lambda k: Assembly(og2).scattering(k).s,
        [0.5, 1.0, 7.3],
    )
    assert res <= 1e-12


def test_verdict_self_transplantable():
    og = two_pendant_resonator()
    report = transplantability_verdict(og, og, Rect(0.0, 6.0, -2.0, 0.0))
    assert report.verdict == "transplantable (numerical evidence)"


def test_verdict_negative_for_shipped_pair():
    from qgscatter.cli import parse_graph_file

    og1 = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    og2 = parse_graph_file(DATA_DIR / "mcdonald_meyers_2.json")
    report = transplantability_verdict(og1, og2, Rect(0.0, 8.0, -3.0, 0.0))
    assert report.verdict == "no transplantation on these lead sets"
    assert report.conjugacy.status == "not_found"
    assert not report.isopolar
    # the pole searches' own warnings reach the report, named by graph: each
    # graph has a pole on the window's left side, Re k = 0
    assert report.poles_1.warnings == (
        "zero 0-0.203258178195j lies on the left side of the window; dropped",)
    assert report.poles_2.warnings == (
        "zero 0-0.200840722363j lies on the left side of the window; dropped",)
    assert report.warnings == tuple(
        [f"graph 1: {w}" for w in report.poles_1.warnings]
        + [f"graph 2: {w}" for w in report.poles_2.warnings])


def test_verdict_requires_equal_lead_counts():
    og1, _ = quotient_pair_graphs()
    og2 = star_open_graph(2)
    with pytest.raises(DimensionMismatch):
        transplantability_verdict(og1, og2, Rect(0.0, 2.0, -1.0, 0.0))


def test_conjugacy_symmetry_on_conjugated_systems():
    rng = np.random.default_rng(31)
    found_both = 0
    for _ in range(12):
        og = random_open_graph(rng, max_edges=4, max_leads=4)
        n = og.n_leads
        if n < 2:
            continue
        asm = Assembly(og)
        q = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        s1 = lambda k: asm.scattering(k).s
        s2 = lambda k: q @ asm.scattering(k).s @ q.conj().T
        fwd = find_conjugator(s1, s2)
        bwd = find_conjugator(s2, s1)
        assert fwd.found == bwd.found
        if fwd.found:
            found_both += 1
            inv = np.linalg.inv(fwd.pi)
            inv /= np.linalg.norm(inv)
            assert conjugation_residual(inv, s2, s1, list(bwd.holdout_ks)) <= 1e-8
    assert found_both >= 8


def test_found_implies_isophasal_and_isopolar():
    og = two_pendant_resonator()
    asm = Assembly(og)
    rng = np.random.default_rng(77)
    q = np.linalg.qr(rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))[0]
    s1 = lambda k: asm.scattering(k).s
    s2 = lambda k: q @ asm.scattering(k).s @ q.conj().T
    result = find_conjugator(s1, s2)
    assert result.found
    ok, _ = isophasal_check(s1, s2)
    assert ok
    window = Rect(0.0, 10.0, -2.0, 0.0)
    ok, _ = isopolar_check(find_poles(og, window), find_poles(og, window))
    assert ok


def test_found_stable_under_more_samples():
    s1, s2 = quotient_pair_functions()
    base = find_conjugator(s1, s2, n_training=6)
    double = find_conjugator(s1, s2, n_training=12)
    assert base.found and double.found
    assert double.solution_dim <= base.solution_dim


def test_phase_sample_at_a_bound_state_raises(tmp_path, capsys):
    # a Dirichlet interval apart from the lead has a bound state at the first
    # phase sample, where the interior system is singular
    doc = {
        "vertices": [{"id": "c", "condition": {"type": "neumann"}},
                     {"id": "a", "condition": {"type": "dirichlet"}},
                     {"id": "b", "condition": {"type": "dirichlet"}}],
        "edges": [{"id": "e", "from": "a", "to": "b", "length": math.pi / _PHASE_KS[0]}],
        "leads": [{"id": "l", "at": "c"}],
    }
    path = tmp_path / "bound_state.json"
    path.write_text(json.dumps(doc))
    og = parse_graph_file(path)
    asm = Assembly(og)
    s = lambda k: asm.scattering(k).s
    with pytest.raises(SampleAtSingularity):
        isophasal_check(s, s)
    with pytest.raises(SampleAtSingularity):
        transplantability_verdict(og, og, Rect(0.5, 1.0, -1.0, 0.0))
    report, code = run_command(["check-isoscattering", "--graph1", str(path),
                                "--graph2", str(path)])
    captured = capsys.readouterr()
    assert report is None and code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "hits a singular point" in captured.err


def test_phase_check_names_the_first_singular_sample_of_either_graph():
    # graph 1 has a bound state at the 11th phase sample, graph 2 at the 4th
    og1 = _resonator_beside_intervals(_PHASE_KS[10])
    og2 = _resonator_beside_intervals(_PHASE_KS[3])
    first = f"sample k = {_PHASE_KS[3]} hits a singular point"
    with pytest.raises(SampleAtSingularity, match=first):
        transplantability_verdict(og1, og2, Rect(0.5, 1.0, -1.0, 0.0))
    asm1, asm2 = Assembly(og1), Assembly(og2)
    with pytest.raises(SampleAtSingularity, match=first):
        isophasal_check(lambda k: asm1.scattering(k).s, lambda k: asm2.scattering(k).s)

    # a caller's function may raise SingularInterior without a k
    def singular_from(k0):
        def s(k):
            if k >= k0:
                raise SingularInterior("singular")
            return GOLDEN_STAR3
        return s

    with pytest.raises(SampleAtSingularity, match=first):
        isophasal_check(singular_from(_PHASE_KS[10]), singular_from(_PHASE_KS[3]))


def _commensurate_graph(rng, n_edges, n_leads):
    """Neumann open graph with lengths in whole quarters, leads at distinct
    vertices."""
    n_v = n_edges // 2 + 1
    names = [f"v{i}" for i in range(n_v)]
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n_v)]
    pairs += [tuple(int(x) for x in rng.choice(n_v, 2)) for _ in range(n_edges - len(pairs))]
    edges = [Edge(f"e{j}", names[a], names[b], 0.25 * int(rng.integers(2, 9)))
             for j, (a, b) in enumerate(pairs)]
    leads = [names[int(v)] for v in rng.choice(n_v, n_leads, replace=False)]
    g = build_graph([Vertex(nm, Neumann()) for nm in names], edges,
                    pending_leads={nm: 1 for nm in leads})
    return attach_leads(g, leads)


def _relabelled_pair(seed, n_edges, n_leads):
    og = _commensurate_graph(np.random.default_rng(seed), n_edges, n_leads)
    return og, og.with_lead_order(list(range(1, n_leads)) + [0])


def _resonator_beside_intervals(*bound_states):
    """The two-pendant resonator beside detached Dirichlet intervals, which
    the lead does not see: an interval of length pi / b adds trapped states
    at k = b, 2b, ..."""
    vertices = [Vertex("c", Neumann()), Vertex("w1", Dirichlet()), Vertex("w2", Dirichlet())]
    edges = [Edge("e1", "c", "w1", 1.0), Edge("e2", "c", "w2", 1.0)]
    for i, b in enumerate(bound_states):
        vertices += [Vertex(f"a{i}", Dirichlet()), Vertex(f"b{i}", Dirichlet())]
        edges.append(Edge(f"d{i}", f"a{i}", f"b{i}", math.pi / b))
    return attach_leads(build_graph(vertices, edges, pending_leads={"c": 1}), ["c"])


def _assert_same_zeros(got, want, tol):
    for a, b in ((got.poles, want.poles), (got.real_axis_zeros, want.real_axis_zeros)):
        assert [p.multiplicity for p in a] == [p.multiplicity for p in b]
        assert all(abs(p.k - q.k) <= tol for p, q in zip(a, b))


MM1_WINDOW = Rect(0.0, 8.0, -3.0, 0.0)
CONFIRMED_CASES = {
    "relabelled-4-2": lambda: (*_relabelled_pair(1, 4, 2), Rect(0.5, 3.5, -0.6, 0.0)),
    "relabelled-7-3": lambda: (*_relabelled_pair(2, 7, 3), Rect(0.5, 3.5, -0.6, 0.0)),
    "relabelled-10-4": lambda: (*_relabelled_pair(3, 10, 4), Rect(0.5, 3.5, -0.6, 0.0)),
    "two-pendant-self": lambda: (two_pendant_resonator(), two_pendant_resonator(),
                                 Rect(0.0, 10.0, -2.0, 0.0)),
    "mm1-self": lambda: (parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json"),
                         parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json"), MM1_WINDOW),
}


# Determinants of each confirmation: the contour of the ratio and one
# residual per zero, mm1-self's edge zero on the window's left side included.
CONFIRMATION_EVALUATIONS = {"relabelled-4-2": 420, "relabelled-7-3": 649,
                            "relabelled-10-4": 713, "two-pendant-self": 819,
                            "mm1-self": 2_972}


@pytest.mark.parametrize("name", sorted(CONFIRMED_CASES))
def test_confirmed_pole_set_matches_a_full_search(name):
    og1, og2, window = CONFIRMED_CASES[name]()
    report = transplantability_verdict(og1, og2, window)
    assert report.conjugacy.found and report.isopolar
    full = find_poles(og2, window)
    _assert_same_zeros(report.poles_2, full, 1e-12)
    # the confirmation, not a second search
    assert report.poles_2.evaluations == CONFIRMATION_EVALUATIONS[name] < full.evaluations
    # graph 1's edge zero does not bar the confirmation, which finds it on
    # graph 2's determinant and drops it again
    assert report.poles_2.warnings == report.poles_1.warnings == full.warnings
    assert len(report.poles_2.edge_zeros) == len(full.edge_zeros)
    for p, q in zip(report.poles_2.edge_zeros, full.edge_zeros):
        assert abs(p.k - q.k) <= 1e-12 and p.residual <= resonances._RESIDUAL_TOL
    if name == "mm1-self":
        assert len(full.real_axis_zeros) == 9
        assert len(full.edge_zeros) == 1


def test_confirmation_refuses_a_zero_on_a_window_side():
    # a reference that kept mm1's pole on the left side, Re k = 0, as a pole:
    # the Newton run from it ends on that side, which no confirmed pole may
    og = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    asm = Assembly(og)
    full = find_poles(og, MM1_WINDOW)
    kept = replace(full, poles=full.poles + full.edge_zeros, edge_zeros=(), warnings=())
    assert _confirm_poles(asm, MM1_WINDOW, asm, full) is not None
    assert _confirm_poles(asm, MM1_WINDOW, asm, kept) is None
    # nor may an inner pole pass as an edge zero
    moved = replace(full, poles=full.poles[1:], edge_zeros=full.edge_zeros + full.poles[:1])
    assert _confirm_poles(asm, MM1_WINDOW, asm, moved) is None


def test_confirmation_checks_edge_zeros_on_its_own_determinant():
    # an edge zero of the reference where D has none fails its Newton run
    og = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    asm = Assembly(og)
    full = find_poles(og, MM1_WINDOW)
    (edge,) = full.edge_zeros
    assert abs(asm.interior_det(complex(0.0, -0.5))) > 1e-3
    wrong = replace(full, edge_zeros=(replace(edge, k=complex(0.0, -0.5)),))
    assert _confirm_poles(asm, MM1_WINDOW, asm, wrong) is None


@pytest.mark.parametrize("name", ["mm1-self", "relabelled-4-2"])
def test_verdict_evaluations_count_every_determinant(name, monkeypatch):
    # the pole search of graph 1 and the confirmation of graph 2, on both
    # graphs' Assemblies, compute every determinant of the verdict
    og1, og2, window = CONFIRMED_CASES[name]()
    counted = []
    det_many = Assembly.interior_det_many

    def counting(self, ks):
        counted.append(len(ks))
        return det_many(self, ks)

    monkeypatch.setattr(Assembly, "interior_det_many", counting)
    report = transplantability_verdict(og1, og2, window)
    assert report.conjugacy.found and report.isopolar
    assert sum(counted) == report.poles_1.evaluations + report.poles_2.evaluations


def test_confirmation_winds_circles_around_double_zeros():
    og = twin_resonators()
    window = Rect(0.5, 6.0, -2.0, -0.1)
    report = transplantability_verdict(og, og.with_lead_order([1, 0]), window)
    full = find_poles(og, window)
    assert [p.multiplicity for p in full.poles] == [2, 2]
    asm = Assembly(og)
    assert report.poles_2 == _confirm_poles(asm, window, asm, full)
    # Newton converges only linearly to a double zero: the two runs agree
    # to the search's own merge radius, not to rounding
    _assert_same_zeros(report.poles_2, full, resonances._DEDUPE_RADIUS)
    # a reference that splits the total 4 as 3 + 1 passes the winding and
    # every Newton run, and is refused by the circles
    wrong = replace(full, poles=(replace(full.poles[0], multiplicity=3),
                                 replace(full.poles[1], multiplicity=1)))
    assert _confirm_poles(asm, window, asm, wrong) is None


# Pairs with the same S, so conjugate, whose D differ by trapped states on
# the top edge of the window (no phase or conjugator sample hits one).
# Graph 2 has: one more (3.3); a double one more (3.3), along which the
# phase of D2 / D1 does not jump, so that only the rest of the contour shows
# it, by one turn; a double one where graph 1 has a simple one; one more
# (4.4) beside a double one (3.3) that both share, which makes a winding of
# D alone lose a whole turn and count graph 1's total.
FALLBACK_CASES = {
    "extra": ((), (3.3,)),
    "extra-double": ((), (3.3, 3.3)),
    "simple-to-double": ((3.3,), (3.3, 3.3)),
    "extra-beside-double": ((3.3, 3.3), (3.3, 3.3, 4.4)),
}


@pytest.mark.parametrize("states", sorted({s for case in FALLBACK_CASES.values() for s in case}))
def test_trapped_states_on_the_top_edge_have_their_multiplicity(states):
    # along the top edge a trapped state of even multiplicity shows no
    # phase jump, so the cell below it winds half its multiplicity; the
    # search reports the resonator's trapped state at pi and each interval's
    # with its multiplicity
    ps = find_poles(_resonator_beside_intervals(*states), Rect(0.5, 6.0, -2.0, 0.0))
    want = {math.pi: 1}
    for b in states:
        want[b] = want.get(b, 0) + 1
    assert [p.multiplicity for p in ps.real_axis_zeros] == [want[b] for b in sorted(want)]
    assert np.allclose([p.k for p in ps.real_axis_zeros], sorted(want), rtol=0, atol=1e-9)
    assert ps.warnings == ()


@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_an_extra_trapped_state_falls_back_to_a_full_search(name):
    states1, states2 = FALLBACK_CASES[name]
    og1 = _resonator_beside_intervals(*states1)
    og2 = _resonator_beside_intervals(*states2)
    window = Rect(0.5, 6.0, -2.0, 0.0)
    report = transplantability_verdict(og1, og2, window)
    assert report.conjugacy.found and report.isopolar
    full = find_poles(og2, window)
    assert report.poles_2 == full != report.poles_1
    assert report.poles_2.evaluations == full.evaluations
    assert _confirm_poles(Assembly(og2), window, Assembly(og1), report.poles_1) is None
