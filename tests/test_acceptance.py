"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from qgscatter.contours import Rect
from qgscatter.errors import SingularInterior
from qgscatter.global_scattering import Assembly, eigenvalues_compact, scattering_matrix
from qgscatter.graph_core import attach_leads
from qgscatter.isoscattering import (
    find_conjugator,
    isophasal_check,
    transplantability_verdict,
)
from qgscatter.resonances import find_poles, winding_number
from qgscatter.symmetry_rep import (
    dihedral_group,
    characters_equal,
    encoding_map,
    induced_character,
    intertwiner_basis,
    lead_permutation_matrices,
    quotient_scattering,
    quotient_scattering_sum,
    subgroup,
    symmetric_group,
    trivial_rep,
    validate_action,
)

from conftest import (
    DATA_DIR,
    conjugation_residual,
    exterior_blind_zeros,
    pinwheel,
    polish_exterior_zero,
    random_compact_graph,
    random_open_graph,
    s3_star_action,
    star_open_graph,
    subspace_distance,
    two_pendant_resonator,
)

GOLDEN_STAR6 = np.full((6, 6), 1 / 3) - np.eye(6)
GOLDEN_STAR3 = np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]]) / 3.0
GOLDEN_SUM = np.diag([1.0, -1.0, -1.0])
TRANSPLANTER = np.array([[1.0, 1, 1], [1, -1, 0], [1, 0, -1]])
TRIVIAL_SPAN = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1],
                         [0, 0, 0, 1, 1, 0]], dtype=float).T
TWO_DIM_SPAN = np.array([[1, -1, 0, 1, 0, -1], [0, 1, -1, 0, -1, 1]], dtype=float).T


def _passed(n, text, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS criterion {n}: {text}{suffix}")


def test_criterion_1_star_formula():
    t0 = time.perf_counter()
    og = star_open_graph(6)
    for k in (0.5, 1.0, 7.3):
        s = scattering_matrix(og, k).s
        assert np.max(np.abs(s - GOLDEN_STAR6)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, "six-lead star matrix equals 1/3 - delta at k in {0.5, 1, 7.3}", elapsed)


def test_criterion_2_quotient_goldens():
    t0 = time.perf_counter()
    og, act, rho2 = s3_star_action()
    emb = subgroup(act.group, ["e", "(1,2)"])
    sub_act = act.restricted(emb)
    one_h = trivial_rep(emb.group)
    one_g = trivial_rep(act.group)

    q1 = quotient_scattering(og, sub_act, one_h, None, k=1.0)
    assert np.max(np.abs(q1 - GOLDEN_STAR3)) <= 1e-10
    q2 = quotient_scattering_sum(og, act, [(one_g, 1, None), (rho2, 1, None)], k=1.0)
    assert np.max(np.abs(q2 - GOLDEN_SUM)) <= 1e-10

    phis_h = intertwiner_basis(lead_permutation_matrices(sub_act), one_h)
    span_h = encoding_map(phis_h, [1.0]).upsilon
    assert subspace_distance(span_h, TRIVIAL_SPAN) <= 1e-10
    phis_2 = intertwiner_basis(lead_permutation_matrices(act), rho2)
    span_2 = encoding_map(phis_2, [1.0, 0.0]).upsilon
    assert subspace_distance(span_2, TWO_DIM_SPAN) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(2, "quotient matrices and intertwiner spans reproduce the goldens", elapsed)


def test_criterion_3_transplantation():
    s1 = lambda k: GOLDEN_STAR3
    s2 = lambda k: GOLDEN_SUM
    result = find_conjugator(s1, s2)
    assert result.found
    assert conjugation_residual(TRANSPLANTER, s1, s2, [0.5, 1.0, 7.3, 11.0]) <= 1e-12

    ok_phase, dev = isophasal_check(s1, s2)
    assert ok_phase, dev

    og1 = star_open_graph(3)
    from qgscatter.graph_core import Dirichlet, Neumann, Vertex, build_graph
    g2 = build_graph(
        [Vertex("n", Neumann()), Vertex("d1", Dirichlet()), Vertex("d2", Dirichlet())],
        [], pending_leads={"n": 1, "d1": 1, "d2": 1})
    og2 = attach_leads(g2, ["n", "d1", "d2"])
    report = transplantability_verdict(og1, og2, Rect(0.0, 5.0, -2.0, 0.0))
    assert report.conjugacy.found and report.isophasal and report.isopolar
    _passed(3, "conjugator found; the printed transplanter solves it; "
               "phase and pole checks concur")


def test_criterion_4_unitarity_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    skipped = 0
    done = 0
    while done < 200:
        og = random_open_graph(rng, max_edges=8, max_leads=6)
        k = float(rng.uniform(0.1, 30.0))
        try:
            ev = scattering_matrix(og, k)
        except SingularInterior:
            skipped += 1
            continue
        worst = max(worst, ev.unitarity_defect)
        done += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, worst
    assert elapsed < 30.0
    _passed(4, f"200 random graphs unitary to {worst:.2e} "
               f"({skipped} singular points skipped)", elapsed)


def test_criterion_5_exterior_interior_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    checked = 0
    worst = 0.0
    for _ in range(20):
        g, lead_at = random_compact_graph(rng, lead_choice="all_neumann")
        og = attach_leads(g, lead_at)
        asm = Assembly(og)
        interior = eigenvalues_compact(g, (0.05, 10.0)).ks()
        # every interior eigenvalue is a zero of det(I - S)
        for ki in interior:
            kz, res = polish_exterior_zero(asm, ki)
            assert res <= 1e-9, (ki, res)
            worst = max(worst, abs(kz - ki))
            assert abs(kz - ki) <= 1e-8
        # every exterior zero found by scanning matches an interior eigenvalue
        for ke in exterior_blind_zeros(asm, og, 0.05, 10.0):
            d = min(abs(ke - ki) for ki in interior)
            worst = max(worst, d)
            assert d <= 1e-8
        checked += len(interior)
    elapsed = time.perf_counter() - t0
    assert checked >= 40
    assert elapsed < 60.0
    _passed(5, f"{checked} eigenvalues matched across methods to {worst:.2e}", elapsed)


def test_criterion_6_analytic_resonances():
    t0 = time.perf_counter()
    ps = find_poles(two_pendant_resonator(), Rect(0.0, 10.0, -2.0, 0.0))
    expected = [(2 * m + 1) * np.pi / 2 - 0.5j * np.log(3.0) for m in range(3)]
    assert len(ps.poles) == 3
    worst = max(abs(p.k - e) for p, e in zip(ps.poles, expected))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(6, f"three resonances at (2m+1) pi/2 - (ln 3)/2 i to {worst:.2e}", elapsed)


def test_criterion_7_induced_characters():
    g3, _ = symmetric_group(3)
    chi_ind = induced_character(g3, ["e", "(1,2)"], [1.0, 1.0])
    from conftest import R2D_MATRICES
    from qgscatter.symmetry_rep import MatrixRep
    rho2 = MatrixRep(g3, tuple(np.array(R2D_MATRICES[e], dtype=complex)
                               for e in g3.elements))
    total = trivial_rep(g3).character() + rho2.character()
    equal, dev = characters_equal(chi_ind, total, tol=0.0)
    assert equal and dev == 0.0

    d4 = dihedral_group(4)
    chi1 = induced_character(d4, ["e", "rx", "ry", "s2"],
                             {"e": 1, "rx": -1, "ry": 1, "s2": -1})
    chi2 = induced_character(d4, ["e", "ru", "rv", "s2"],
                             {"e": 1, "ru": 1, "rv": -1, "s2": -1})
    equal, dev = characters_equal(chi1, chi2)
    assert equal and dev <= 1e-12
    _passed(7, "induced characters match: the 3-object case exactly, "
               "the square-symmetry pair to 1e-12")


def test_criterion_8_negative_transplantability():
    from qgscatter.cli import parse_graph_file

    og1 = parse_graph_file(DATA_DIR / "mcdonald_meyers_1.json")
    og2 = parse_graph_file(DATA_DIR / "mcdonald_meyers_2.json")
    report = transplantability_verdict(og1, og2, Rect(0.0, 8.0, -3.0, 0.0))
    assert report.conjugacy.status == "not_found"
    assert not report.isopolar
    assert report.verdict == "no transplantation on these lead sets"
    _passed(8, "shipped pair: no conjugator, pole clouds differ")


def test_criterion_9a_equivariance():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        og, act = pinwheel(rng)
        validate_action(og, act)
        k = float(rng.uniform(0.3, 12.0))
        s = scattering_matrix(og, k).s
        for p in lead_permutation_matrices(act):
            worst = max(worst, float(np.linalg.norm(p @ s - s @ p)))
    assert worst <= 1e-10
    _passed("9a", f"equivariance over 50 symmetric graphs, worst defect {worst:.2e}")


def test_criterion_9b_scale_covariance():
    rng = np.random.default_rng(123)
    worst_eig = 0.0
    for _ in range(25):
        g, _ = random_compact_graph(rng)
        c = float(rng.uniform(0.5, 2.0))
        base = eigenvalues_compact(g, (0.5, 6.0)).ks()
        scaled = eigenvalues_compact(g.scaled(c), (0.5 / c, 6.0 / c)).ks()
        assert len(base) == len(scaled)
        if len(base):
            worst_eig = max(worst_eig, float(np.max(np.abs(scaled - base / c))))
    assert worst_eig <= 1e-8

    worst_pole = 0.0
    matched = 0
    for _ in range(25):
        g, lead_at = random_compact_graph(rng)
        og = attach_leads(g, lead_at)
        c = float(rng.uniform(0.5, 2.0))
        window = Rect(0.3, 4.0, -1.2, -1e-3)
        base = find_poles(og, window).ks()
        scaled_window = Rect(0.3 / c, 4.0 / c, -1.2 / c, -1e-3 / c)
        scaled = find_poles(og.scaled(c), scaled_window).ks()
        assert len(base) == len(scaled)
        if len(base):
            worst_pole = max(worst_pole, float(np.max(np.abs(scaled - base / c))))
            matched += len(base)
    assert worst_pole <= 1e-8
    assert matched > 0
    _passed("9b", f"scale covariance: eigenvalues to {worst_eig:.2e}, "
                  f"{matched} poles to {worst_pole:.2e}")


def test_criterion_9c_winding_additivity():
    rng = np.random.default_rng(321)
    for _ in range(50):
        roots = rng.uniform(-1, 1, size=4) + 1j * rng.uniform(-1, 1, size=4)

        def f(z):
            return np.prod(z - roots)

        parent = Rect(-1.4, 1.4, -1.4, 1.4)
        total = winding_number(f, parent)
        parts = sum(winding_number(f, q) for q in parent.quadrants())
        assert total == parts
    _passed("9c", "winding numbers add over rectangle subdivisions (50 cases)")


def test_criterion_9d_conjugacy_symmetry():
    rng = np.random.default_rng(456)
    done = 0
    while done < 50:
        og = random_open_graph(rng, max_edges=3, max_leads=3)
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
            inv = np.linalg.inv(fwd.pi)
            inv /= np.linalg.norm(inv)
            assert conjugation_residual(inv, s2, s1, list(fwd.holdout_ks)) <= 1e-8
        done += 1
    _passed("9d", "conjugacy symmetric with inverse conjugators (50 cases)")
