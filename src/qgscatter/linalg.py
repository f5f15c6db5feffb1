"""Small dense linear-algebra helpers shared across modules.

Everything here operates on complex numpy arrays and keeps tolerances
explicit; determinants and factorizations go through LAPACK via numpy.
"""

from __future__ import annotations

import numpy as np


def as_complex_matrix(a, name="matrix"):
    """Coerce to a 2-D complex ndarray, raising ValueError on bad shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def unitarity_defect(m):
    """Frobenius norm of m m^dagger - I."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    return float(np.linalg.norm(m @ m.conj().T - np.eye(d)))


def is_unitary(m, tol=1e-10):
    return unitarity_defect(m) <= tol


def hermitian_defect(m):
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(m - m.conj().T))


def null_space(a, rtol=1e-10):
    """Orthonormal basis (columns) of the null space of ``a``.

    Singular values below ``rtol * max(1, sigma_max)`` count as zero; the
    max(1, .) guard keeps the threshold meaningful for tiny matrices whose
    entries are O(1) integers.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    cutoff = rtol * max(1.0, smax)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def rref(rows, tol=1e-9):
    """Reduced row-echelon form with partial pivoting.

    Returns the nonzero rows. Used to canonicalize subspace bases so that
    identical subspaces always yield identical representatives, independent
    of the (rotation-ambiguous) basis an SVD happens to return.
    """
    m = np.array(rows, dtype=complex, copy=True)
    if m.size == 0:
        return m
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pivot = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[pivot, c]) <= tol:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = m[r] / m[r, c]
        for i in range(n_rows):
            if i != r and abs(m[i, c]) > 0:
                m[i] = m[i] - m[i, c] * m[r]
        r += 1
    out = m[:r]
    # Flush eliminated entries that survive only as rounding noise.
    out[np.abs(out) < tol * 1e-3] = 0.0
    return out


def orthonormalize_rows(rows, tol=1e-12):
    """Modified Gram-Schmidt on the given rows, preserving their order."""
    out = []
    for row in np.asarray(rows, dtype=complex):
        v = row.copy()
        for q in out:
            v = v - (q.conj() @ v) * q
        nrm = np.linalg.norm(v)
        if nrm > tol:
            out.append(v / nrm)
    return np.array(out) if out else np.zeros((0, np.asarray(rows).shape[1]), dtype=complex)


def block_diag(blocks):
    """Direct sum of square complex blocks (0x0 result for no blocks)."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        d = b.shape[0]
        out[i:i + d, i:i + d] = b
        i += d
    return out


def lu_det(m):
    """Determinant via LU with partial pivoting (numpy's det is LU based)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(m))
