"""Vertex scattering matrices for every supported boundary condition.

Each vertex of degree d relates the incoming plane-wave amplitudes on its d
channels to the outgoing ones through a d x d matrix sigma. With channel
coordinates running away from the vertex and waves written as

    f(x) = a_in exp(-ikx) + a_out exp(ikx),

the named conditions give k-independent matrices; linear A/B conditions give
the k-dependent family sigma(k) = -(A + ikB)^(-1) (A - ikB), obtained by
substituting f(0) = a_in + a_out and f'(0) = ik (a_out - a_in) into
A f + B f' = 0. The derivative is always taken outward (into the edge or
lead, away from the vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidDegree, NotSelfAdjoint, RankDeficientAB, SingularAtK
from .graph_core import DFT, Dirichlet, FixedUnitary, LinearAB, Neumann, VertexCondition
from .linalg import as_complex_matrix, hermitian_defect


@dataclass(frozen=True, eq=False)
class VertexSigma:
    """Evaluation rule k -> d x d channel scattering matrix.

    Named conditions are constant in k; linear A/B conditions are not. The
    constant variants are unitary by construction; an A/B matrix is unitary
    at real k exactly when the condition set is self-adjoint. Calling the
    rule solves its one A/B pair; :class:`~qgscatter.global_scattering.Assembly`
    instead stacks the pairs of all its A/B vertices of one degree and
    solves them in one :func:`_ab_solve` call per k, with the same bits.
    """

    degree: int
    constant: Optional[np.ndarray] = None
    ab: Optional[tuple] = None

    def __call__(self, k) -> np.ndarray:
        if self.constant is not None:
            return self.constant
        a, b = self.ab
        return _ab_solve(a, b, k)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None


def _constant(matrix) -> VertexSigma:
    m = np.asarray(matrix, dtype=complex)
    m.setflags(write=False)
    return VertexSigma(degree=m.shape[0], constant=m)


def neumann_sigma(d: int) -> VertexSigma:
    """Star-vertex matrix with entries 2/d - delta_ij."""
    if d < 1:
        raise InvalidDegree(f"degree must be >= 1, got {d}")
    return _constant(np.full((d, d), 2.0 / d) - np.eye(d))


def dirichlet_sigma(d: int) -> VertexSigma:
    """Total reflection with sign flip on every channel: -I."""
    if d < 1:
        raise InvalidDegree(f"degree must be >= 1, got {d}")
    return _constant(-np.eye(d))


def dft_sigma(d: int) -> VertexSigma:
    """Unitary condition sigma_pq = exp(2 pi i p q / d) / sqrt(d)."""
    if d < 1:
        raise InvalidDegree(f"degree must be >= 1, got {d}")
    p, q = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return _constant(np.exp(2j * np.pi * p * q / d) / np.sqrt(d))


def fixed_sigma(matrix) -> VertexSigma:
    m = as_complex_matrix(matrix, "sigma")
    return _constant(m)


def ab_to_sigma(a, b, k, *, check_self_adjoint: bool = False) -> np.ndarray:
    """Channel matrix of the conditions A f + B f' = 0 at wavenumber k.

    Requires [A|B] of full row rank and A + ikB invertible at the given k.
    When ``check_self_adjoint`` is set, A B^dagger must be Hermitian
    (the standard self-adjointness criterion); only then is the result
    unitary at real k.
    """
    return _ab_solve(*_checked_ab(a, b, check_self_adjoint), k)


def _checked_ab(a, b, check_self_adjoint):
    """A and B as complex matrices, after the k-independent checks of
    :func:`ab_to_sigma`."""
    a = as_complex_matrix(a, "A")
    b = as_complex_matrix(b, "B")
    d = a.shape[0]
    stacked = np.hstack([a, b])
    rank = np.linalg.matrix_rank(stacked, tol=1e-12 * max(1.0, float(np.abs(stacked).max())))
    if rank < d:
        raise RankDeficientAB(f"[A|B] has rank {rank} < {d}")
    if check_self_adjoint:
        defect = hermitian_defect(a @ b.conj().T)
        if defect > 1e-10 * max(1.0, float(np.abs(a).max() * np.abs(b).max())):
            raise NotSelfAdjoint(f"A B^dagger deviates from Hermitian by {defect:.3e}")
    return a, b


def _ab_solve(a, b, k) -> np.ndarray:
    """The per-k part of :func:`ab_to_sigma`, for complex A and B whose
    [A|B] is already known to have full row rank.

    ``a`` and ``b`` are one d x d pair or a stack of n pairs (n x d x d);
    a stack is tested and solved in one LAPACK call each, every matrix of
    it bit-identical to its own call. Raises :class:`SingularAtK` when some
    A + ikB is all zero or has a determinant below 1e-13 once divided by
    its largest entry; that scale feeds only this test.
    """
    k = complex(k)
    ikb = 1j * k * b
    m = a + ikb
    scale = np.abs(m).max(axis=(-2, -1), keepdims=True)
    if not scale.all() or (np.abs(np.linalg.det(m / scale)) < 1e-13).any():
        raise SingularAtK(f"A + ikB is singular at k = {k}", k=k)
    return -np.linalg.solve(m, a - ikb)


def ab_sigma(a, b, *, check_self_adjoint: bool = False) -> VertexSigma:
    """The k-dependent rule of the conditions A f + B f' = 0. The rank and,
    when asked, the self-adjointness of A and B are checked here; a k where
    A + ikB is singular raises :class:`SingularAtK` only when the rule is
    evaluated there."""
    a, b = _checked_ab(a, b, check_self_adjoint)
    a.setflags(write=False)
    b.setflags(write=False)
    return VertexSigma(degree=a.shape[0], ab=(a, b))


def condition_sigma(condition: VertexCondition, degree: int) -> VertexSigma:
    """Scattering rule for a vertex condition at the given true degree."""
    if isinstance(condition, Neumann):
        return neumann_sigma(degree)
    if isinstance(condition, Dirichlet):
        return dirichlet_sigma(degree)
    if isinstance(condition, DFT):
        if condition.degree is not None and condition.degree != degree:
            raise InvalidDegree(
                f"DFT degree {condition.degree} does not match vertex degree {degree}"
            )
        return dft_sigma(degree)
    if isinstance(condition, FixedUnitary):
        if condition.dim != degree:
            raise InvalidDegree(f"matrix is {condition.dim}x{condition.dim}, degree is {degree}")
        return fixed_sigma(condition.matrix)
    if isinstance(condition, LinearAB):
        if condition.dim != degree:
            raise InvalidDegree(f"A/B are {condition.dim}x{condition.dim}, degree is {degree}")
        # LinearAB checked the rank of [A|B] and froze A and B when it was built
        return VertexSigma(degree=degree, ab=(condition.a, condition.b))
    raise TypeError(f"unsupported vertex condition {condition!r}")
