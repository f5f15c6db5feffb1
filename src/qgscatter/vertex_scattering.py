"""Vertex scattering matrices for every supported boundary condition.

Each vertex of degree d relates the incoming plane-wave amplitudes on its d
channels to the outgoing ones through a d x d matrix sigma. With channel
coordinates running away from the vertex and waves written as

    f(x) = a_in exp(-ikx) + a_out exp(ikx),

the named conditions give one read-only sigma for every k; linear A/B
conditions give the k-dependent family sigma(k) = -(A + ikB)^(-1) (A - ikB),
obtained by substituting f(0) = a_in + a_out and f'(0) = ik (a_out - a_in)
into A f + B f' = 0. The derivative is always taken outward (into the edge
or lead, away from the vertex). The named matrices are unitary by
construction; an A/B matrix is unitary at real k exactly when the condition
set is self-adjoint.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .errors import InvalidDegree, NotSelfAdjoint, SingularAtK
from .graph_core import (DFT, Dirichlet, FixedUnitary, LinearAB, Neumann, VertexCondition,
                         _frozen_array)
from .linalg import hermitian_defect


@functools.lru_cache(maxsize=None)
def neumann_sigma(d: int) -> np.ndarray:
    """Star-vertex matrix with entries 2/d - delta_ij."""
    if d < 1:
        raise InvalidDegree(f"degree must be >= 1, got {d}")
    return _frozen_array(np.full((d, d), 2.0 / d) - np.eye(d))


@functools.lru_cache(maxsize=None)
def dirichlet_sigma(d: int) -> np.ndarray:
    """Total reflection with sign flip on every channel: -I."""
    if d < 1:
        raise InvalidDegree(f"degree must be >= 1, got {d}")
    return _frozen_array(-np.eye(d))


@functools.lru_cache(maxsize=None)
def dft_sigma(d: int) -> np.ndarray:
    """Unitary condition sigma_pq = exp(2 pi i p q / d) / sqrt(d)."""
    if d < 1:
        raise InvalidDegree(f"degree must be >= 1, got {d}")
    p, q = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return _frozen_array(np.exp(2j * np.pi * p * q / d) / np.sqrt(d))


def ab_to_sigma(a, b, k, *, check_self_adjoint: bool = False) -> np.ndarray:
    """Channel matrix of the conditions A f + B f' = 0 at wavenumber k.

    Requires [A|B] of full row rank (checked by
    :class:`~qgscatter.graph_core.LinearAB`) and A + ikB invertible at the
    given k. When ``check_self_adjoint`` is set, A B^dagger must be
    Hermitian (the standard self-adjointness criterion); only then is the
    result unitary at real k.
    """
    ab = LinearAB(a, b)
    a, b = ab.a, ab.b
    if check_self_adjoint:
        defect = hermitian_defect(a @ b.conj().T)
        if defect > 1e-10 * max(1.0, float(np.abs(a).max() * np.abs(b).max())):
            raise NotSelfAdjoint(f"A B^dagger deviates from Hermitian by {defect:.3e}")
    return _ab_solve(a, b, k)


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


def condition_sigma(condition: VertexCondition, degree: int) -> Optional[np.ndarray]:
    """The read-only sigma_v of a condition at the given true degree, or
    None for :class:`LinearAB`, whose sigma(k) is solved per k from its A
    and B by :func:`_ab_solve`."""
    if not condition.degree_ok(degree):
        raise InvalidDegree(f"condition {condition.type_name} does not fit degree {degree}")
    if isinstance(condition, Neumann):
        return neumann_sigma(degree)
    if isinstance(condition, Dirichlet):
        return dirichlet_sigma(degree)
    if isinstance(condition, DFT):
        return dft_sigma(degree)
    if isinstance(condition, FixedUnitary):
        return condition.matrix
    if isinstance(condition, LinearAB):
        return None
    raise TypeError(f"unsupported vertex condition {condition!r}")
