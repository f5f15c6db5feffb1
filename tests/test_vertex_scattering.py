"""Vertex scattering matrices for all condition variants."""

import numpy as np
import pytest

from qgscatter.errors import InvalidDegree, NotSelfAdjoint, RankDeficientAB, SingularAtK
from qgscatter.vertex_scattering import (
    ab_sigma,
    ab_to_sigma,
    dft_sigma,
    dirichlet_sigma,
    neumann_sigma,
)


def boundary_solve_sigma(a, b, k):
    """Independent oracle: solve the boundary system for plane waves.

    With f_j = a_in e^{-ikx} + a_out e^{ikx}, values are a_in + a_out and
    outward derivatives ik (a_out - a_in); A f + B f' = 0 becomes
    (A + ikB) a_out = -(A - ikB) a_in, solved here directly.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.linalg.solve(a + 1j * k * b, -(a - 1j * k * b))


def test_neumann_entries():
    s6 = neumann_sigma(6)(1.0)
    np.testing.assert_allclose(s6, np.full((6, 6), 1 / 3) - np.eye(6), atol=1e-15)
    np.testing.assert_allclose(neumann_sigma(1)(2.0), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(neumann_sigma(2)(0.3), [[0, 1], [1, 0]], atol=1e-15)


def test_dirichlet_entries():
    np.testing.assert_allclose(dirichlet_sigma(1)(1.0), [[-1.0]], atol=1e-15)
    np.testing.assert_allclose(dirichlet_sigma(2)(1.0), -np.eye(2), atol=1e-15)


def test_two_dirichlet_leads_block():
    s = np.diag([dirichlet_sigma(1)(1.0)[0, 0], dirichlet_sigma(1)(1.0)[0, 0]])
    np.testing.assert_allclose(s, np.diag([-1.0, -1.0]), atol=1e-15)


def test_dft_entries():
    np.testing.assert_allclose(dft_sigma(1)(1.0), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(
        dft_sigma(2)(1.0), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )
    s4 = dft_sigma(4)(1.0)
    np.testing.assert_allclose(s4 @ s4.conj().T, np.eye(4), atol=1e-12)


def test_invalid_degree():
    for ctor in (neumann_sigma, dirichlet_sigma, dft_sigma):
        with pytest.raises(InvalidDegree):
            ctor(0)


def test_ab_dirichlet_and_neumann_limits():
    np.testing.assert_allclose(ab_to_sigma(np.eye(3), np.zeros((3, 3)), 2.2),
                               -np.eye(3), atol=1e-14)
    np.testing.assert_allclose(ab_to_sigma(np.zeros((3, 3)), np.eye(3), 2.2),
                               np.eye(3), atol=1e-14)


def test_ab_mixed_value_derivative_conditions():
    # f_1 = f_2 together with 2 f_1' + f_2' = 0; constant in k and fixed by
    # the independent boundary solve
    a = np.array([[1.0, -1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [2.0, 1.0]])
    expected = boundary_solve_sigma(a, b, 0.9)
    np.testing.assert_allclose(ab_to_sigma(a, b, 0.9), expected, atol=1e-13)
    np.testing.assert_allclose(ab_to_sigma(a, b, 7.7), expected, atol=1e-13)
    np.testing.assert_allclose(expected, np.array([[1, 2], [4, -1]]) / 3.0, atol=1e-13)
    # the condition pair is not self-adjoint, and the check says so
    with pytest.raises(NotSelfAdjoint):
        ab_to_sigma(a, b, 1.0, check_self_adjoint=True)


def test_ab_reproduces_neumann():
    for d in range(1, 9):
        a = np.zeros((d, d))
        b = np.zeros((d, d))
        for i in range(d - 1):
            a[i, i], a[i, i + 1] = 1.0, -1.0
        b[d - 1, :] = 1.0
        for k in (0.7, 13.0):
            np.testing.assert_allclose(ab_to_sigma(a, b, k), neumann_sigma(d)(k),
                                       atol=1e-12)


def test_ab_rank_deficient():
    with pytest.raises(RankDeficientAB):
        ab_to_sigma(np.array([[1.0, 0], [1.0, 0]]), np.array([[0.0, 0], [0.0, 0]]), 1.0)


def test_ab_singular_at_k():
    # A + ikB vanishes at k = 2 but nowhere else
    a = np.array([[1.0]])
    b = np.array([[0.5j]])
    with pytest.raises(SingularAtK):
        ab_to_sigma(a, b, 2.0)
    ab_to_sigma(a, b, 1.0)


def test_ab_vertex_singular_only_at_k_one_serves_every_other_k():
    # A + ikB = 1 - k: the rule is built without a solve at any k, so only
    # k = 1 itself raises
    from qgscatter.global_scattering import scattering_matrix
    from qgscatter.graph_core import Edge, LinearAB, Neumann, Vertex, attach_leads, build_graph

    g = build_graph(
        [Vertex("a", LinearAB(np.array([[1.0]]), np.array([[1j]]))), Vertex("b", Neumann())],
        [Edge("e", "a", "b", 1.0)],
        pending_leads={"b": 1},
    )
    og = attach_leads(g, ["b"])
    assert np.isfinite(scattering_matrix(og, 2.0).s).all()
    with pytest.raises(SingularAtK, match="k = \\(1\\+0j\\)"):
        scattering_matrix(og, 1.0)


def test_constant_variants_are_k_independent():
    for rule in (neumann_sigma(4), dirichlet_sigma(4), dft_sigma(4)):
        assert rule.is_constant
        assert rule(1.0) is rule(33.3)


def test_unitarity_across_variants_and_k():
    rng = np.random.default_rng(42)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2
    rules = [
        neumann_sigma(5),
        dirichlet_sigma(3),
        dft_sigma(4),
        ab_sigma(h, np.eye(3), check_self_adjoint=True),
    ]
    for k in np.linspace(0.25, 50.0, 40):
        for rule in rules:
            s = rule(k)
            defect = np.linalg.norm(s @ s.conj().T - np.eye(s.shape[0]))
            assert defect <= 1e-10
