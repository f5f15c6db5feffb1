"""Vertex scattering matrices for all condition variants."""

import numpy as np
import pytest

from qgscatter.errors import InvalidDegree, NotSelfAdjoint, RankDeficientAB, SingularAtK
from qgscatter.vertex_scattering import (
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
    s6 = neumann_sigma(6)
    np.testing.assert_allclose(s6, np.full((6, 6), 1 / 3) - np.eye(6), atol=1e-15)
    np.testing.assert_allclose(neumann_sigma(1), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(neumann_sigma(2), [[0, 1], [1, 0]], atol=1e-15)


def test_dirichlet_entries():
    np.testing.assert_allclose(dirichlet_sigma(1), [[-1.0]], atol=1e-15)
    np.testing.assert_allclose(dirichlet_sigma(2), -np.eye(2), atol=1e-15)


def test_two_dirichlet_leads_block():
    s = np.diag([dirichlet_sigma(1)[0, 0], dirichlet_sigma(1)[0, 0]])
    np.testing.assert_allclose(s, np.diag([-1.0, -1.0]), atol=1e-15)


def test_dft_entries():
    np.testing.assert_allclose(dft_sigma(1), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(
        dft_sigma(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )
    s4 = dft_sigma(4)
    np.testing.assert_allclose(s4 @ s4.conj().T, np.eye(4), atol=1e-12)


def test_invalid_degree():
    for ctor in (neumann_sigma, dirichlet_sigma, dft_sigma):
        with pytest.raises(InvalidDegree):
            ctor(0)


def test_named_sigmas_are_shared_per_degree():
    # one read-only matrix per degree, handed to every vertex of it; a bad
    # degree raises on every call
    for ctor in (neumann_sigma, dirichlet_sigma, dft_sigma):
        for d in (1, 3, 5):
            m = ctor(d)
            assert ctor(d) is m and not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
        for d in (0, -2, 0):
            with pytest.raises(InvalidDegree):
                ctor(d)


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
            np.testing.assert_allclose(ab_to_sigma(a, b, k), neumann_sigma(d),
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


@pytest.mark.parametrize("scale, d", [(0.05, 12), (0.3, 27)])
def test_ab_small_entries_are_not_singular(scale, d):
    # A = c I, B = 0 is the Dirichlet condition at every k; det(A + ikB) =
    # c^d is tiny (2.4e-16 for 0.05 I_12), but scaled by its largest entry
    # the matrix is I
    sigma = ab_to_sigma(scale * np.eye(d), np.zeros((d, d)), 2.0)
    assert np.array_equal(sigma, -np.eye(d))


def test_ab_all_zero_matrix_is_singular():
    # A + ikB = -ik0 I + ik I vanishes entirely at k = k0
    k0 = 1.7
    a, b = -1j * k0 * np.eye(3), np.eye(3)
    with pytest.raises(SingularAtK) as raised:
        ab_to_sigma(a, b, k0)
    assert raised.value.k == k0
    ab_to_sigma(a, b, k0 + 0.1)


def test_ab_vertex_singular_only_at_k_one_serves_every_other_k():
    # A + ikB = 1 - k: the Assembly is built without a solve at any k, so
    # only k = 1 itself raises
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


def test_assembly_does_not_recheck_the_rank_of_ab_conditions(monkeypatch):
    # LinearAB checks the rank of [A|B] when it is built; the Assembly
    # stacks A and B from it as they are
    from qgscatter.global_scattering import Assembly
    from qgscatter.graph_core import Edge, LinearAB, Vertex, attach_leads, build_graph

    a, b = np.array([[1.0, 0.5], [0.5, -1.0]]), np.eye(2)
    g = build_graph(
        [Vertex("u", LinearAB(a, b)), Vertex("w", LinearAB(a, b))],
        [Edge("e", "u", "w", 1.0)],
        pending_leads={"u": 1, "w": 1},
    )
    og = attach_leads(g, ["u", "w"])
    calls = []
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda *args, **kw: calls.append(1)
                        or rank(*args, **kw))
    Assembly(og)
    assert calls == []
    ab_to_sigma(a, b, 1.0)
    assert len(calls) == 1  # the public entry point keeps its check


def test_unitarity_across_variants_and_k():
    rng = np.random.default_rng(42)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2
    for k in np.linspace(0.25, 50.0, 40):
        for s in (neumann_sigma(5), dirichlet_sigma(3), dft_sigma(4),
                  ab_to_sigma(h, np.eye(3), k, check_self_adjoint=True)):
            defect = np.linalg.norm(s @ s.conj().T - np.eye(s.shape[0]))
            assert defect <= 1e-10
