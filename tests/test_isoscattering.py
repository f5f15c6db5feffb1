"""Conjugacy search, phase and pole comparisons, transplantability verdicts."""

import gc
import importlib
import inspect
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qgscatter.cli import parse_graph_file, run_command
from qgscatter.contours import Rect
from qgscatter.errors import (DimensionMismatch, LengthViolation, NonHolomorphic,
                              SampleAtSingularity, SingularAtK, SingularInterior,
                              WindowMismatch)
from qgscatter.global_scattering import Assembly
from qgscatter.graph_core import (Dirichlet, Edge, LinearAB, Neumann, Vertex, attach_leads,
                                  build_graph)
from qgscatter import global_scattering, isoscattering
from qgscatter.isoscattering import (
    _PHASE_KS,
    default_samples,
    find_conjugator,
    isophasal_check,
    isopolar_check,
    transplantability_verdict,
)
from qgscatter import resonances
from qgscatter.resonances import find_poles
from qgscatter.symmetry_rep import (GraphAction, MatrixRep, dihedral_group, quotient_scattering,
                                    subgroup, validate_action)

from conftest import (DATA_DIR, conjugation_residual, random_open_graph, star_open_graph,
                      twin_resonators, two_pendant_resonator)

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


def _greedy_pairing_reference(p1, p2):
    """isopolar_check's pairing as a Python scan over every remaining pair
    on each step, which keeps the first minimum in row-major order."""
    ks1 = [p.k for p in p1.poles for _ in range(p.multiplicity)]
    ks2 = [p.k for p in p2.poles for _ in range(p.multiplicity)]
    matched = []
    max_d = 0.0
    remaining1, remaining2 = list(ks1), list(ks2)
    while remaining1 and remaining2:
        best = None
        for i, a in enumerate(remaining1):
            for j, b in enumerate(remaining2):
                d = abs(a - b)
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        if d > isoscattering._MATCH_TOL:
            break
        matched.append((remaining1[i], remaining2[j], d))
        max_d = max(max_d, d)
        remaining1.pop(i)
        remaining2.pop(j)
    ok = not remaining1 and not remaining2 and len(ks1) == len(ks2)
    return ok, (tuple(matched), tuple(remaining1), tuple(remaining2), max_d)


def _random_pole_set(rng, n, window, clustered):
    """n poles with multiplicities 1-3: on a dyadic grid of step 2^-22
    around 2 - 0.5i when ``clustered`` (exact ties, several within
    ``_MATCH_TOL`` of each other), else spread over the window."""
    if clustered:
        ks = 2.0 - 0.5j + (rng.integers(-6, 7, n) + 1j * rng.integers(-6, 7, n)) * 2.0 ** -22
    else:
        ks = rng.uniform(0.0, 10.0, n) - 1j * rng.uniform(0.0, 2.0, n)
    return resonances.PoleSet(
        poles=tuple(resonances.Pole(k=complex(k), multiplicity=int(m), residual=0.0,
                                    iterations=1)
                    for k, m in zip(ks, rng.integers(1, 4, n))),
        window=window)


@pytest.mark.parametrize("seed", range(12))
def test_isopolar_pairing_is_the_greedy_scan(seed):
    # the pairing of the nearest free pair at each step, ties to the first
    # in row-major order, on clustered sets with exact ties and on spread
    # ones, some of them sharing poles
    rng = np.random.default_rng(seed)
    window = Rect(0.0, 10.0, -2.0, 0.0)
    clustered = seed % 2 == 0
    p1 = _random_pole_set(rng, int(rng.integers(0, 12)), window, clustered)
    p2 = _random_pole_set(rng, int(rng.integers(0, 12)), window, clustered)
    if seed % 3 == 0:
        p2 = replace(p2, poles=p2.poles + p1.poles[: len(p1.poles) // 2])
    for a, b in ((p1, p2), (p2, p1), (p1, p1)):
        ok, pairing = isopolar_check(a, b)
        want_ok, (matched, unmatched_1, unmatched_2, max_d) = _greedy_pairing_reference(a, b)
        assert ok == want_ok
        assert [(x, y, np.float64(d).tobytes()) for x, y, d in pairing.matched] == [
            (x, y, np.float64(d).tobytes()) for x, y, d in matched]
        assert (pairing.unmatched_1, pairing.unmatched_2) == (unmatched_1, unmatched_2)
        assert np.float64(pairing.max_distance).tobytes() == np.float64(max_d).tobytes()


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


def _ab_end_graph(a):
    """A lead at a Neumann centre and one edge of length 1.3 to a vertex
    with the condition a f + f' = 0, which depends on k."""
    g = build_graph(
        [Vertex("c", Neumann()), Vertex("w", LinearAB(np.array([[a]]), np.array([[1.0]])))],
        [Edge("e", "c", "w", 1.3)],
        pending_leads={"c": 1},
    )
    return attach_leads(g, ["c"])


K0 = default_samples(1)[0]
K_DEPENDENT_PAIRS = {
    "robin-first": lambda: (_ab_end_graph(1.0), two_pendant_resonator()),
    "robin-second": lambda: (two_pendant_resonator(), _ab_end_graph(1.0)),
    # A + ikB = 0 at the first conjugator sample k0
    "singular-at-first-sample": lambda: (_ab_end_graph(-1j * K0), _ab_end_graph(-1j * K0)),
}


@pytest.mark.parametrize("name", sorted(K_DEPENDENT_PAIRS))
def test_verdict_refuses_k_dependent_conditions_first(name, monkeypatch):
    # the pole search and the phase identity need k-independent conditions:
    # the verdict says so before it solves any S(k) or takes any phase sample
    og1, og2 = K_DEPENDENT_PAIRS[name]()

    def solve(self, ks):
        raise AssertionError("the verdict solved before refusing")

    monkeypatch.setattr(Assembly, "scattering_many", solve)
    monkeypatch.setattr(Assembly, "scattering_det_many", solve)
    with pytest.raises(NonHolomorphic, match="vertex 'w'"):
        transplantability_verdict(og1, og2, Rect(0.5, 6.0, -2.0, 0.0))


def _longer_resonator():
    """The two-pendant resonator with one pendant 1.2 long: not conjugate to
    the resonator, nor isophasal or isopolar with it."""
    g = build_graph(
        [Vertex("c", Neumann()), Vertex("w1", Dirichlet()), Vertex("w2", Dirichlet())],
        [Edge("e1", "c", "w1", 1.0), Edge("e2", "c", "w2", 1.2)],
        pending_leads={"c": 1},
    )
    return attach_leads(g, ["c"])


ISOPHASAL_NOT_FOUND = "systems are isophasal yet no conjugator was found on these samples"


@pytest.mark.parametrize("status, same, verdict, warnings", [
    ("found", False, "transplantable (numerical evidence)",
     ("conjugator found but pole sets disagree; check scan residuals",)),
    ("not_found", True, "no transplantation on these lead sets", (ISOPHASAL_NOT_FOUND,)),
    ("inconclusive", True, "inconclusive", (ISOPHASAL_NOT_FOUND,)),
    ("inconclusive", False, "no transplantation on these lead sets", ()),
])
def test_verdict_of_a_forced_conjugator_status(status, same, verdict, warnings, monkeypatch):
    # outcomes that no small pair reaches honestly: the conjugator search is
    # run, and its status replaced
    find = isoscattering._find_conjugator
    monkeypatch.setattr(isoscattering, "_find_conjugator",
                        lambda *args: replace(find(*args), status=status))
    og1 = two_pendant_resonator()
    og2 = og1 if same else _longer_resonator()
    report = transplantability_verdict(og1, og2, Rect(0.5, 6.0, -2.0, 0.0))
    assert report.conjugacy.status == status and report.verdict == verdict
    assert report.isophasal == report.isopolar == same
    assert report.warnings == warnings


GAMMA_SPOKES = (0, 90, 180, 270)
GAMMA_TIPS = (20, 70, 110, 160, 200, 250, 290, 340)
# (kind, angle) of every edge of Gamma, in the order of their ids, which is
# the order of validate_action's edge maps
GAMMA_EDGES = sorted([("ring", a) for a in GAMMA_SPOKES] + [("spoke", a) for a in GAMMA_SPOKES]
                     + [("tip", t) for t in GAMMA_TIPS], key=lambda e: f"{e[0]}{e[1]}")


def _gamma(tip_lengths=None):
    """Gamma: a Neumann centre c, spokes of length 1 to p0, p90, p180 and
    p270, ring edges p_a -> p_{a+90} of length 1.37, and eight tips t_theta
    at 90 i +- 20 degrees, joined to the nearest spoke end by edges of length
    0.61 (or ``tip_lengths[theta]``), one lead each."""
    lengths = dict.fromkeys(GAMMA_TIPS, 0.61) | (tip_lengths or {})
    nearest = {t: 90 * round(t / 90) % 360 for t in GAMMA_TIPS}
    names = ["c"] + [f"p{a}" for a in GAMMA_SPOKES] + [f"t{t}" for t in GAMMA_TIPS]
    edges = ([Edge(f"spoke{a}", "c", f"p{a}", 1.0) for a in GAMMA_SPOKES]
             + [Edge(f"ring{a}", f"p{a}", f"p{(a + 90) % 360}", 1.37) for a in GAMMA_SPOKES]
             + [Edge(f"tip{t}", f"p{nearest[t]}", f"t{t}", lengths[t]) for t in GAMMA_TIPS])
    g = build_graph([Vertex(nm, Neumann()) for nm in names], edges,
                    pending_leads={f"t{t}": 1 for t in GAMMA_TIPS})
    return attach_leads(g, [f"t{t}" for t in GAMMA_TIPS])


def _gamma_action():
    """D4 on Gamma: s^a turns angles by 90 a degrees and f_a (rx, ru, ry,
    rv) maps theta to 90 a - theta; a reflection reverses the ring."""
    moves = ([lambda t, a=a: (t + 90 * a) % 360 for a in range(4)]
             + [lambda t, a=a: (90 * a - t) % 360 for a in range(4)])
    lead_perm, edge_perm, edge_flip = [], [], []
    for g in moves:
        lead_perm.append([GAMMA_TIPS.index(g(t)) for t in GAMMA_TIPS])
        images = []
        for kind, a in GAMMA_EDGES:
            if kind == "ring":  # p_a -> p_{a+90} lands on p_u -> p_v
                u, v = g(a), g(a + 90)
                flip = v != (u + 90) % 360
                images.append((("ring", v if flip else u), flip))
            else:
                images.append(((kind, g(a)), False))
        edge_perm.append([GAMMA_EDGES.index(edge) for edge, _ in images])
        edge_flip.append([flip for _, flip in images])
    return GraphAction(dihedral_group(4), np.array(lead_perm), np.array(edge_perm),
                       np.array(edge_flip))


def _gamma_quotient(og, act, names, chars):
    """S(k) of Gamma's quotient by the 1-dimensional representation that
    takes the values ``chars`` on the subgroup {e} + ``names``."""
    sub = subgroup(act.group, ["e", *names])
    rho = MatrixRep.from_mapping(sub.group, {"e": [[1]], **{n: [[c]] for n, c in
                                                            zip(names, chars)}})
    sub_act = act.restricted(sub)
    return lambda k: quotient_scattering(og, sub_act, rho, k=k)


def test_dihedral_quotients_of_a_graph_with_edges_are_conjugate():
    # the paper's claim on a graph with edges: R1 on {e, rx, ry, s2} and R2
    # on {e, ru, rv, s2} both induce the 2-dimensional irreducible
    # representation of D4, so Gamma's quotients by them are conjugate
    og, act = _gamma(), _gamma_action()
    s1 = _gamma_quotient(og, act, ["rx", "ry", "s2"], (-1, 1, -1))
    s2 = _gamma_quotient(og, act, ["ru", "rv", "s2"], (1, -1, -1))
    assert s1(1.0).shape == s2(1.0).shape == (2, 2)
    assert not np.allclose(s1(1.0), s1(2.0)) and not np.allclose(s2(1.0), s2(2.0))
    result = find_conjugator(s1, s2)
    assert result.found and result.solution_dim == 2 and result.residual <= 1e-14
    ok, dev = isophasal_check(s1, s2)
    assert ok and dev <= 1e-14


@pytest.mark.parametrize("chars", [(-1, -1, 1), (1, 1, 1)])
def test_dihedral_quotients_inducing_different_representations_are_not(chars):
    # these representations of {e, ru, rv, s2} are 1 on s2, so they induce
    # a sum of two 1-dimensional representations of D4, not R1's 2-dimensional one
    og, act = _gamma(), _gamma_action()
    s1 = _gamma_quotient(og, act, ["rx", "ry", "s2"], (-1, 1, -1))
    s2 = _gamma_quotient(og, act, ["ru", "rv", "s2"], chars)
    assert find_conjugator(s1, s2).status == "not_found"


def test_dihedral_action_on_gamma_maps_edges():
    act = _gamma_action()
    assert validate_action(_gamma(), act).ok
    with pytest.raises(LengthViolation, match="'tip20'"):
        validate_action(_gamma({20: 0.62}), act)


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


def test_singular_conjugator_sample_is_skipped():
    # a bound state at the third conjugator sample: the verdict's stacked
    # search drops it for the next point of the sequence, as the scalar
    # search does, and finds the same conjugator bit for bit
    bound = default_samples(1, 2)[0]
    og = _resonator_beside_intervals(bound)
    asm = Assembly(og)
    with pytest.raises(SingularInterior):
        asm.scattering(bound)
    report = transplantability_verdict(og, og, Rect(0.5, 1.0, -1.0, 0.0))
    conj = report.conjugacy
    assert conj.found and report.isophasal
    assert conj.training_ks + conj.holdout_ks == tuple(
        k for k in default_samples(12) if k != bound)
    s = lambda k: asm.scattering(k).s
    scalar = find_conjugator(s, s)
    assert (conj.training_ks, conj.holdout_ks) == (scalar.training_ks, scalar.holdout_ks)
    assert np.array_equal(conj.pi, scalar.pi)


def test_conjugator_skips_a_sample_where_a_plus_ikb_is_singular():
    # a vertex with A = -i k0, B = 1: A + ikB vanishes at the first
    # conjugator sample k0, where S raises SingularAtK naming k0, and the
    # search moves on to the next point of the sequence
    k0 = default_samples(1)[0]
    g = build_graph([Vertex("c", Neumann()), Vertex("w", LinearAB([[-1j * k0]], [[1.0]]))],
                    [Edge("e", "c", "w", 1.3)], pending_leads={"c": 2})
    asm = Assembly(attach_leads(g, ["c", "c"]))
    with pytest.raises(SingularAtK) as raised:
        asm.scattering(k0)
    assert raised.value.k == k0
    s = lambda k: asm.scattering(k).s
    result = find_conjugator(s, s)
    assert result.found
    assert result.training_ks + result.holdout_ks == tuple(default_samples(12)[1:])


def test_phase_sample_where_a_plus_ikb_is_singular_raises():
    # A + ikB vanishes at the third phase sample k0: the conjugator search
    # skips no sample of its own there, and the phase check names k0 as it
    # names a bound state
    k0 = _PHASE_KS[2]
    g = build_graph([Vertex("c", Neumann()), Vertex("w", LinearAB([[-1j * k0]], [[1.0]]))],
                    [Edge("e", "c", "w", 1.3)], pending_leads={"c": 2})
    og = attach_leads(g, ["c", "c"])
    s = lambda k: global_scattering.scattering_matrix(og, k).s
    assert find_conjugator(s, s).found
    with pytest.raises(SampleAtSingularity, match=f"sample k = {k0} hits a singular point") as exc:
        isophasal_check(s, s)
    assert isinstance(exc.value.__cause__, SingularAtK) and exc.value.__cause__.k == k0


@pytest.mark.parametrize("n", [2, 3])
def test_conjugator_system_is_the_kron_form(n, monkeypatch):
    # the stacked system Pi A - B Pi = 0 of the training samples, row by row
    # the vec identity (kron(I, A^T) - kron(B, I)) vec(Pi), row-major vec
    rng = np.random.default_rng(n)
    a0, a1, b0, b1 = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    s1 = lambda k: a0 + k * a1
    s2 = lambda k: b0 + np.sin(k) * b1
    systems = []
    solve = isoscattering.null_space

    def capturing(m, rtol):
        systems.append(m)
        return solve(m, rtol=rtol)

    monkeypatch.setattr(isoscattering, "null_space", capturing)
    result = find_conjugator(s1, s2)
    eye = np.eye(n)
    want = np.vstack([np.kron(eye, s1(k).T) - np.kron(s2(k), eye)
                      for k in result.training_ks])
    assert len(systems) == 1 and np.array_equal(systems[0], want)


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


@pytest.mark.parametrize("name", sorted(CONFIRMED_CASES))
def test_confirmed_pole_set_matches_a_full_search(name):
    # graph 2's pole set, which the isopolar check confirms against graph
    # 1's, is a search of its own: that of find_poles, edge zeros included
    og1, og2, window = CONFIRMED_CASES[name]()
    report = transplantability_verdict(og1, og2, window)
    assert report.conjugacy.found and report.isopolar
    full = find_poles(og2, window)
    _assert_same_zeros(report.poles_2, full, 1e-12)
    assert report.poles_2 == full
    assert report.poles_2.warnings == report.poles_1.warnings == full.warnings
    assert len(report.poles_2.edge_zeros) == len(full.edge_zeros)
    for p, q in zip(report.poles_2.edge_zeros, full.edge_zeros):
        assert abs(p.k - q.k) <= 1e-12 and p.residual <= resonances._RESIDUAL_TOL
    if name == "mm1-self":
        assert len(full.real_axis_zeros) == 9
        assert len(full.edge_zeros) == 1


@pytest.mark.parametrize("name", ["mm1-self", "relabelled-4-2"])
def test_verdict_evaluations_count_every_determinant(name, monkeypatch):
    # the pole searches of both graphs, each building its graph's root set,
    # and the phase samples of both compute every determinant of the
    # verdict; the conjugator samples are stacked solves, and no scalar S(k)
    # is solved at all
    og1, og2, window = CONFIRMED_CASES[name]()
    counted = []
    det_many = Assembly.interior_det_many

    def counting(self, ks):
        counted.append(len(ks))
        return det_many(self, ks)

    def scalar(self, k):
        raise AssertionError("the verdict solves a scalar S(k)")

    monkeypatch.setattr(Assembly, "interior_det_many", counting)
    monkeypatch.setattr(Assembly, "scattering", scalar)
    report = transplantability_verdict(og1, og2, window)
    assert report.conjugacy.found and report.isopolar and report.isophasal
    assert sum(counted) == (report.poles_1.evaluations + report.poles_2.evaluations
                            + 2 * len(_PHASE_KS))


def _count_window_free_work(monkeypatch):
    """The k of every S(k) sample and phase determinant solved from now on."""
    solved = []
    scattering_many, det_many = Assembly.scattering_many, Assembly.scattering_det_many

    def counting_scattering(self, ks):
        solved.extend(("S", complex(k)) for k in ks)
        return scattering_many(self, ks)

    def counting_dets(self, ks):
        solved.extend(("det S", complex(k)) for k in ks)
        return det_many(self, ks)

    monkeypatch.setattr(Assembly, "scattering_many", counting_scattering)
    monkeypatch.setattr(Assembly, "scattering_det_many", counting_dets)
    return solved


def test_verdicts_against_one_graph_set_it_up_once(monkeypatch):
    # both graphs take their Assembly from the memo, which keeps S(k) at the
    # conjugator samples, det S at the phase samples and the root set: a
    # repeated verdict builds nothing and solves neither, and its pole sets
    # are the first's, whose evaluations counted the root sets' samples
    og1, og2, window = CONFIRMED_CASES["relabelled-4-2"]()
    first = transplantability_verdict(og1, og2, window)
    built = []

    class Counting(Assembly):
        def __init__(self, og):
            built.append(og)
            super().__init__(og)

    monkeypatch.setattr(global_scattering, "Assembly", Counting)
    solved = _count_window_free_work(monkeypatch)
    again = [transplantability_verdict(og1, og2, window) for _ in range(2)]
    assert built == [] and solved == []
    for report in again:
        assert (report.verdict, report.poles_1, report.poles_2) == (
            first.verdict, first.poles_1, first.poles_2)
        assert (report.poles_1.evaluations, report.poles_2.evaluations) == (
            first.poles_1.evaluations - _root_set_samples(og1),
            first.poles_2.evaluations - _root_set_samples(og2))
        assert report.conjugacy.pi.tobytes() == first.conjugacy.pi.tobytes()


def test_confirmation_winds_circles_around_double_zeros():
    # the twin resonators' double poles are clusters of two roots of their
    # root set, each confirmed by a multiplicity circle; the contour search
    # reads the same zeros from the circles of its cells, each polished by
    # Newton for a double zero, so the two agree to rounding
    og = twin_resonators()
    window = Rect(0.5, 6.0, -2.0, -0.1)
    report = transplantability_verdict(og, og.with_lead_order([1, 0]), window)
    assert [p.multiplicity for p in report.poles_1.poles] == [2, 2]
    assert report.poles_1 == report.poles_2
    contour = resonances._contour_poles(Assembly(og), window)
    _assert_same_zeros(report.poles_2, contour, 1e-12)
    # a root set that counts each double zero as triple passes every Newton
    # run and is refused by the circles: the window goes to the contour search
    asm = Assembly(og)
    period, coefficients, centres, sizes = asm._root_set
    assert sorted(sizes.tolist()) == [2, 2, 2, 2]
    asm._root_set = (period, coefficients, centres, sizes + 1)
    assert resonances._root_zeros(asm, window) is None
    assert resonances._find_poles(asm, window) == contour


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


@pytest.mark.parametrize("states", sorted({s for case in FALLBACK_CASES.values() for s in case})
                         + [(3.3,) * 4])
def test_trapped_states_on_the_top_edge_have_their_multiplicity(states):
    # along the top edge a trapped state of even multiplicity shows no
    # phase jump, so the cell below it winds half its multiplicity; the
    # search reports the resonator's trapped state at pi and each interval's
    # with its multiplicity, also the quadruple one of four intervals
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


# ---------------------------------------------------------------------------
# the window-free inputs a verdict keeps with each graph's Assembly
# ---------------------------------------------------------------------------

def _perturbed_copy(og):
    """A copy of a graph of ``_commensurate_graph`` with its first edge a
    quarter longer: not conjugate to it."""
    edges = list(og.graph.edges)
    e = edges[0]
    edges[0] = Edge(e.id, e.from_vertex, e.to_vertex, e.length + 0.25)
    g = build_graph(og.graph.vertices, edges, pending_leads={lead.at: 1 for lead in og.leads})
    return attach_leads(g, [lead.at for lead in og.leads], lead_ids=[lead.id for lead in og.leads])


def _root_set_samples(og):
    """The determinants the root set of ``og`` takes: the least power of two
    above its degree plus one."""
    return 1 << len(Assembly(og)._root_set[1]).bit_length()


def _report_bits(report):
    """The bits of a report's answers; the pole sets' ``evaluations``, which
    count the root set's samples only where a search built it, are left
    out."""
    conj = report.conjugacy
    return (report.verdict, conj.status, None if conj.pi is None else conj.pi.tobytes(),
            conj.residual, conj.solution_dim, conj.training_ks, conj.holdout_ks,
            report.isophasal, np.float64(report.isophasal_deviation).tobytes(),
            report.isopolar, report.pairing, report.poles_1, report.poles_2, report.warnings)


def _bench_order_graphs():
    """A graph, its relabelled and its perturbed copy, and two windows."""
    og, relabelled, w1 = CONFIRMED_CASES["relabelled-4-2"]()
    graphs = {"og": og, "relabelled": relabelled, "perturbed": _perturbed_copy(og)}
    return graphs, w1, Rect(1.0, 3.0, -0.8, 0.0)


def test_a_verdict_does_not_depend_on_the_verdicts_before_it():
    # the bench's order: a graph against its relabelled and its perturbed
    # copy in turn, over windows W1, W2, W1; then a pair the other way
    # round, and other sample counts. Each report is that of a verdict on
    # fresh copies of the graphs
    graphs, w1, w2 = _bench_order_graphs()
    runs = [("og", partner, window, 6) for window in (w1, w2, w1)
            for partner in ("relabelled", "perturbed")]
    runs += [("relabelled", "og", w1, 6), ("perturbed", "og", w2, 6),
             ("og", "relabelled", w1, 8), ("og", "relabelled", w2, 8), ("og", "perturbed", w1, 3)]
    got = [transplantability_verdict(graphs[a], graphs[b], w, n) for a, b, w, n in runs]
    assert [r.verdict for r in got[:2]] == ["transplantable (numerical evidence)",
                                            "no transplantation on these lead sets"]
    assert got[6].conjugacy.found and got[8].conjugacy.training_ks == tuple(default_samples(8))
    for (a, b, window, n), report in zip(runs, got):
        fresh, _, _ = _bench_order_graphs()
        assert _report_bits(report) == _report_bits(
            transplantability_verdict(fresh[a], fresh[b], window, n))


def test_each_ordered_pair_is_judged_once(monkeypatch):
    # the conjugator search and the phase comparison depend on the pair and
    # the sample count alone: over the bench's order each runs once per
    # ordered pair, and the pair the other way round, another sample count
    # and a graph against itself are judged anew
    calls = []
    for name in ("_find_conjugator", "_isophasal"):
        def counting(*args, _name=name, _run=getattr(isoscattering, name)):
            calls.append(_name)
            return _run(*args)
        monkeypatch.setattr(isoscattering, name, counting)
    graphs, w1, w2 = _bench_order_graphs()
    og = graphs["og"]
    for window in (w1, w2, w1):
        for partner in ("relabelled", "perturbed"):
            transplantability_verdict(og, graphs[partner], window)
    assert sorted(calls) == ["_find_conjugator"] * 2 + ["_isophasal"] * 2
    for a, b, n in [("relabelled", "og", 6), ("og", "relabelled", 8), ("og", "og", 6)]:
        for window in (w1, w2):
            del calls[:]
            transplantability_verdict(graphs[a], graphs[b], window, n)
            assert sorted(calls) == ([] if window is w2 else ["_find_conjugator", "_isophasal"])


def test_a_report_owns_its_conjugator():
    # each report's Pi is a new array: writing into one changes no other
    og1, og2, window = CONFIRMED_CASES["relabelled-4-2"]()
    first = transplantability_verdict(og1, og2, window)
    want = first.conjugacy.pi.copy()
    for _ in range(2):
        first.conjugacy.pi[:] = 0.0
        report = transplantability_verdict(og1, og2, window)
        assert report.conjugacy.pi is not first.conjugacy.pi
        assert report.conjugacy.pi.tobytes() == want.tobytes()
        first = report


def test_the_pair_memo_keeps_no_assembly_alive():
    # a pair's results are kept with graph 1's Assembly, keyed weakly by
    # graph 2's: once graph 2 leaves the memo of four, its Assembly dies
    # and graph 1 keeps nothing of the pair; nor does a graph judged
    # against itself outlive the memo
    og1, og2, window = CONFIRMED_CASES["relabelled-4-2"]()
    same, _, same_window = CONFIRMED_CASES["two-pendant-self"]()
    transplantability_verdict(og1, og2, window)
    transplantability_verdict(same, same, same_window)
    asm1 = global_scattering._assembly(og1)
    dead2 = weakref.ref(global_scattering._assembly(og2))
    dead_same = weakref.ref(global_scattering._assembly(same))
    assert len(asm1._kept["pairs"]) == 1
    for n in range(2, 6):
        global_scattering.scattering_matrix(star_open_graph(n), 1.0)
    gc.collect()
    assert dead2() is None and dead_same() is None
    assert len(asm1._kept["pairs"]) == 0
    dead1 = weakref.ref(asm1)
    del asm1
    gc.collect()
    assert dead1() is None


def test_a_kept_singular_sample_is_skipped_without_solving_it_again(monkeypatch):
    # graph 1 has a bound state at the third conjugator sample; graph 2 is
    # the resonator alone, with the same S elsewhere
    bound = default_samples(1, 2)[0]
    og1, og2 = _resonator_beside_intervals(bound), two_pendant_resonator()
    window = Rect(0.5, 1.0, -1.0, 0.0)
    solved = _count_window_free_work(monkeypatch)
    first = transplantability_verdict(og1, og2, window)
    assert ("S", bound) in solved
    conj = first.conjugacy
    assert conj.found and conj.training_ks + conj.holdout_ks == tuple(
        k for k in default_samples(12) if k != bound)
    del solved[:]
    again = transplantability_verdict(og1, og2, window)
    assert solved == []
    assert _report_bits(again) == _report_bits(first)


def test_a_kept_singular_phase_sample_raises_anew():
    og = _resonator_beside_intervals(_PHASE_KS[3])
    first = f"sample k = {_PHASE_KS[3]} hits a singular point"
    raised = []
    for _ in range(2):
        with pytest.raises(SampleAtSingularity, match=first) as exc:
            transplantability_verdict(og, two_pendant_resonator(), Rect(0.5, 1.0, -1.0, 0.0))
        raised.append(exc.value.__cause__)
    assert raised[0] is not raised[1]
    assert raised[0].k == raised[1].k == _PHASE_KS[3]


def test_kept_inputs_are_new_on_every_call():
    # a kept error is raised as a new exception, and a kept array is never
    # handed out, so that a caller cannot change what the next verdict reads
    bound = default_samples(1, 2)[0]
    asm = Assembly(_resonator_beside_intervals(bound))
    many = isoscattering._kept(asm, "scattering_many")
    dets = isoscattering._kept(asm, "scattering_det_many")
    errors = []
    for _ in range(2):
        with pytest.raises(SingularInterior) as exc:
            many([default_samples(1)[0], bound])
        errors.append(exc.value)
    kept = asm._kept["scattering_many"][bound]
    assert errors[0] is not errors[1] and kept not in errors
    assert errors[0].k == errors[1].k == bound
    assert str(errors[0]) == str(errors[1]) == str(kept)
    ks = default_samples(3)[:2]
    want = asm.scattering_many(ks)
    many(ks)[:] = 0.0
    assert np.array_equal(many(ks), want)
    phase_ks = np.array(_PHASE_KS)
    want = asm.scattering_det_many(phase_ks)
    dets(phase_ks)[:] = 0.0
    assert np.array_equal(dets(phase_ks), want)


def test_a_graph_against_itself_is_one_assembly(monkeypatch):
    # both graphs are one Assembly: graph 1's search builds its root set,
    # which graph 2's reads, and the conjugator's and phase samples are
    # solved once
    og, _, window = CONFIRMED_CASES["two-pendant-self"]()
    solved = _count_window_free_work(monkeypatch)
    report = transplantability_verdict(og, og, window)
    assert report.conjugacy.found and report.isopolar and report.isophasal
    assert report.isophasal_deviation == 0.0
    assert report.poles_2 == report.poles_1
    assert report.poles_1.evaluations - report.poles_2.evaluations == _root_set_samples(og) == 8
    assert len(solved) == len(set(solved)) == 11 + len(_PHASE_KS)
    other, _, _ = CONFIRMED_CASES["two-pendant-self"]()
    assert _report_bits(report) == _report_bits(transplantability_verdict(other, og, window))


# ---------------------------------------------------------------------------
# isopolar pairs as equal polynomials
# ---------------------------------------------------------------------------

def _bench_relabelled_pairs(seed, monkeypatch):
    """The graph and its relabelled copy of every relabelled job of the
    benchmark's isoscatter round at ``seed``, read from the jobs."""
    root = DATA_DIR.parent
    monkeypatch.syspath_prepend(str(root / "bench"))
    monkeypatch.chdir(root)  # the jobs read the shipped graphs by relative path
    workloads = importlib.import_module("workloads")
    pairs = {}
    for job in workloads.build("isoscatter", seed):
        if job.name.startswith("relabelled"):
            graphs = inspect.getclosurevars(job.run).nonlocals
            pairs[id(graphs["og1"])] = graphs["og1"], graphs["og2"]
    return list(pairs.values())


def test_isoscattering_pairs_have_one_polynomial(monkeypatch):
    # D is a polynomial p in z = exp(ik l0) with p(0) = 1, which its roots
    # fix: two graphs of one l0 have the same zeros of D in the whole plane,
    # with multiplicity, exactly when their coefficients agree. So the
    # paper's identical pole distributions (arXiv:1007.0222) are one
    # comparison of coefficients, not of windows. The relabelled pairs of
    # the benchmark's isoscatter rounds at seeds 1-3 agree to rounding;
    # the McDonald-Meyers pair, which has no conjugator, does not
    pairs = [pair for seed in (1, 2, 3) for pair in _bench_relabelled_pairs(seed, monkeypatch)]
    assert len(pairs) == 3 * 48
    for og1, og2 in pairs:
        period1, a1, _, _ = Assembly(og1)._root_set
        period2, a2, _, _ = Assembly(og2)._root_set
        assert period1 == period2 and abs(a1[0] - 1.0) <= 1e-12
        np.testing.assert_allclose(a2, a1, rtol=0, atol=1e-12 * np.abs(a1).max())
    mm1, mm2 = (Assembly(parse_graph_file(DATA_DIR / f"{name}.json"))._root_set
                for name in ("mcdonald_meyers_1", "mcdonald_meyers_2"))
    assert mm1[0] == mm2[0] and len(mm1[1]) == len(mm2[1]) == 43
    assert np.abs(mm1[1] - mm2[1]).max() > 0.1
