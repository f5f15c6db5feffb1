"""Conjugacy search, phase and pole comparisons, transplantability verdicts."""

import json
import math

import numpy as np
import pytest

from qgscatter.cli import parse_graph_file, run_command
from qgscatter.contours import Rect
from qgscatter.errors import DimensionMismatch, SampleAtSingularity, WindowMismatch
from qgscatter.global_scattering import Assembly
from qgscatter.graph_core import Dirichlet, Neumann, Vertex, attach_leads, build_graph
from qgscatter.isoscattering import (
    _PHASE_KS,
    conjugation_residual,
    find_conjugator,
    isophasal_check,
    isopolar_check,
    transplantability_verdict,
)
from qgscatter.resonances import find_poles

from conftest import random_open_graph, star_open_graph, two_pendant_resonator, DATA_DIR

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
