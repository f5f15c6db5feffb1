"""Assembly of the lead-to-lead scattering matrix and compact spectra.

The solver works in directed-bond coordinates: every internal edge carries
two directed bonds, every lead one channel. Per vertex, the local condition
matrix sigma_v maps incoming channel amplitudes to outgoing ones; stacking
all vertices gives the block channel matrix Sigma, split into lead (L) and
internal-bond (B) channels. A wave departing along bond b arrives at the
far end multiplied by exp(ik L_b), collected in the diagonal propagator
T(k). Eliminating the interior unknowns yields

    S(k) = Sigma_LL + Sigma_LB T (I - Sigma_BB T)^(-1) Sigma_BL,

with D(k) = det(I - Sigma_BB T(k)) as the interior determinant whose zeros
are the poles of S. For a compact graph (no leads) D doubles as the secular
function: its positive real zeros are the square roots of the Laplacian
eigenvalues.

When every vertex condition is k-independent, D is also an r x r
determinant, r = sum_v rank R_v with R_v = sigma_v^BB + I, sigma_v^BB being
sigma_v restricted to the edge ends of v. Number the bonds by the vertex
they leave, so that the bond arriving at an edge end is the reverse of the
one leaving it. Then Sigma_BB T = (R - I) P T, with R the block diagonal of
the R_v and P T the 2 x 2 blocks [[0, z_e], [z_e, 0]], z_e = exp(ik L_e).
Factoring R = U V* and using det(I - XY) = det(I - YX),

    D(k) = prod_e (1 - z_e^2) det M(k),
    M(k) = I - V* U + sum_e h_e V* E_e U - sum_e z_e h_e V* F_e U,

where h_e = 1 / (1 - z_e^2), E_e is the identity on the two bonds of e and
F_e swaps them (Kottos and Smilansky, Ann. Phys. 274 (1999) 76, give the
rank-1 case: a Neumann vertex has R_v = (2/d) J, and M is then von Below's
vertex matrix, Linear Algebra Appl. 71 (1985) 309). An edge touches only
the blocks of its two end vertices, and M -> I as k -> +i oo, where D -> 1.
A Dirichlet vertex has R_v = 0 and drops out; a DFT or fixed-unitary vertex
is factored by SVD, its singular values below a relative rank cut dropped.
M is r x r where the bond matrix is 2|E| x 2|E|; its precision falls near
k L_e in pi Z, where the bond matrix takes over.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import contours, vertex_scattering
from .errors import (
    DeterminantOverflow,
    SingularInterior,
    ValidationError,
    WindowTooWide,
    ZeroK,
)
from .graph_core import BondTable, Dirichlet, MetricGraph, Neumann, OpenGraph, bond_table
from .linalg import lu_det, unitarity_defect
from .vertex_scattering import condition_sigma

_SINGULAR_TOL = 1e-13
_REAL_AXIS_TOL = 1e-9  # largest |Im k| of a zero taken to lie on the real axis
_DEDUPE_RADIUS = 1e-7  # zeros closer than this merge
# Matrix entries per LAPACK call of Assembly.interior_det_many, in either
# kernel (the bond matrices, or the reduced matrices and their terms): about
# 512 kB, so long batches keep memory flat.
_DET_CHUNK_ENTRIES = 1 << 15
# Smallest min_e |sin(k L_e)| at which the reduced kernel evaluates D(k): its
# precision falls like 1e-16 / |sin(k L_e)| near k L_e in pi Z, so the bond
# kernel evaluates the k closer than this
_REDUCED_BAND = 1e-3
# Singular values of sigma_v^BB + I below this fraction of the largest are
# dropped from its factor; those of a rank-deficient R_v come out near 1e-16
_RANK_CUT = 1e-13
_NODE_BUDGET = 2_000_000  # most scan nodes eigenvalues_compact lays over a window
_BRACKET_TOL = 4e-16  # bracket width, relative to k, at which a real zero is solved
_BRACKET_STEPS = 12  # most regula falsi steps of one bracket
# Newton step that ends a run from a dip of |g| or an unsolved bracket: a
# zero of multiplicity m <= 11 then lies inside the first circle (1e-4)
_START_STEP = 5e-6


@dataclass(frozen=True)
class ScatteringEvaluation:
    """One evaluation of the scattering matrix S(k).

    ``interior_det`` is D(k), the LU determinant of the interior matrix
    I - Sigma_BB T(k) that S(k) was solved with. At real k the singularity
    test of :meth:`Assembly.scattering` takes it, and it is stored. At
    complex k nothing reads it there, so the evaluation keeps the interior
    matrix (``_interior``) and takes its determinant on the first read,
    with the same bits; reading it again costs nothing more.
    """

    k: complex
    s: np.ndarray
    _interior: object = field(repr=False)  # D(k), or the matrix it is the determinant of

    @functools.cached_property
    def interior_det(self) -> complex:
        if isinstance(self._interior, np.ndarray):
            return lu_det(self._interior)
        return self._interior

    @property
    def unitarity_defect(self) -> float:
        return unitarity_defect(self.s)


@dataclass(frozen=True)
class Eigenvalue:
    k: float
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class SpectrumWindow:
    """Eigenvalues (as k values) found in a window; ``warnings`` names each
    eigenvalue whose multiplicity could not be wound and was assumed 1.
    ``evaluations`` counts the determinants D(k) the call computed, as the
    increase of :attr:`Assembly.evaluations` over the call: the scan, the
    bracketed solve, the multiplicity circles and the residuals (Newton's
    steps solve with the matrix instead for k-independent conditions)."""

    k_min: float
    k_max: float
    eigenvalues: Tuple[Eigenvalue, ...] = ()
    warnings: Tuple[str, ...] = ()
    evaluations: int = field(default=0, compare=False)

    def ks(self) -> np.ndarray:
        return np.array([ev.k for ev in self.eigenvalues])


def _singular(k, det) -> SingularInterior:
    """The error of a real k whose |D(k)| is below ``_SINGULAR_TOL``."""
    k, det = complex(k), complex(det)
    return SingularInterior(
        f"interior system singular at k = {k} (|D| = {abs(det):.3e}); "
        "this k hosts a bound state or exceptional point",
        k=k,
        determinant=det,
    )


class _ReducedKernel:
    """D(k) of a graph with edges whose vertex conditions are all
    k-independent, from the r x r matrix M(k) of the module docstring.

    Each vertex v with r_v = rank R_v > 0 owns r_v rows and columns of M.
    Its rows are stored times c_v, with R_v = U_v W_v / c_v: the diagonal
    block holds K0 = c_v I - W_v U_v, an edge end whose out bond is b adds
    h_e W_v[:, b] U_v[b, :] to it, and the bond b from u to v adds
    -exp(ik L_e) h_e W_u[:, b] U_v[b ^ 1, :] to the block (u, v). A Neumann
    vertex of full degree d with d_b edge ends has U_v = 2 (one column),
    W_v = 1 (one row) and c_v = d, so its row keeps the integer constants
    d - 2 d_b, 2 and -2. A DFT or fixed-unitary vertex takes U_v W_v from
    the SVD of R_v, dropping the singular values below ``_RANK_CUT`` times
    the largest, with c_v = 1. A Dirichlet vertex has R_v = 0 and owns
    nothing. So D(k) = prod_e (1 - exp(2ik L_e)) det M(k) / prod_v c_v^r_v.

    Each entry of M is a sum of coefficients (``coefs``) times the terms
    [h_e | exp(ik L_e) h_e | 1] (columns ``cols``), the last one carrying
    K0. They are laid out slot by slot: slot j holds the j-th term of the
    entries with more than j terms, which sort first (``widths[j]`` of
    them), so each entry sums its terms in one fixed order whatever the
    number of k.
    """

    def __init__(self, table: BondTable, vertices):
        """``vertices`` lists (condition, io, sigma_v) for every vertex with
        channels, io being its (out, in) channel pairs from the bond table."""
        nl, nb = table.n_leads, table.n_bonds
        n_e = nb // 2
        self.ilengths = 1j * table.bond_lengths[::2]
        # per out bond: the first row of its vertex, its column of W_v and
        # its row of U_v; per vertex of rank > 0: its first row and K0
        top, w_of, u_of = [0] * nb, [[]] * nb, [[]] * nb
        blocks, r, scale = [], 0, 1.0
        for condition, io, sigma in vertices:
            ends = [i for i, (c_out, _) in enumerate(io) if c_out >= nl]
            if not ends or isinstance(condition, Dirichlet):
                continue
            if isinstance(condition, Neumann):
                c, k0 = len(io), [[len(io) - 2 * len(ends)]]
                w, u = [[1.0]] * len(ends), [[2.0]] * len(ends)
            else:
                a, s, bh = np.linalg.svd(sigma[np.ix_(ends, ends)] + np.eye(len(ends)))
                keep = s > _RANK_CUT * s[0]
                if not keep.any():
                    continue
                u_v, w_v = a[:, keep] * s[keep], bh[keep]
                c, k0 = 1, (np.eye(len(w_v)) - w_v @ u_v).tolist()
                w, u = w_v.T.tolist(), u_v.tolist()
            for j, i in enumerate(ends):
                b = io[i][0] - nl
                top[b], w_of[b], u_of[b] = r, w[j], u[j]
            blocks.append((r, k0))
            r += len(k0)
            scale /= c ** len(k0)
        self.r, self.scale = r, scale
        # the factors of each out bond, padded with zeros to the largest
        # rank, and the rows and columns of M they address
        pad = max(map(len, w_of))
        w_b, u_b = (np.array([row + [0.0] * (pad - len(row)) for row in rows], dtype=complex)
                    for rows in (w_of, u_of))
        at = np.array(top)[:, None] + np.arange(pad)
        swap, edge = np.arange(nb) ^ 1, np.arange(nb) // 2
        # (flat index in M, term, coefficient) of every contribution: K0 with
        # the last term, the constant 1; h_e on the diagonal block of the
        # vertex that each bond of e leaves, and exp(ik L_e) h_e on the block
        # from it to the other end's (the two bonds of a loop give a term
        # each)
        k0_at = [(r0 + p) * r + r0 + q for r0, k0 in blocks
                 for p in range(len(k0)) for q in range(len(k0))]
        flat = np.concatenate([np.array(k0_at, dtype=np.intp),
                               (at[:, :, None] * r + at[:, None, :]).ravel(),
                               (at[:, :, None] * r + at[swap][:, None, :]).ravel()])
        cols = np.concatenate([np.full(len(k0_at), nb),
                               np.repeat(edge, pad * pad), np.repeat(n_e + edge, pad * pad)])
        coefs = np.concatenate([np.array([x for _, k0 in blocks for row in k0 for x in row]),
                                (w_b[:, :, None] * u_b[:, None, :]).ravel(),
                                (-w_b[:, :, None] * u_b[swap][:, None, :]).ravel()])
        keep = coefs != 0
        flat, cols, coefs = flat[keep], cols[keep], coefs[keep]
        # the terms of each entry in the order of their columns, and the
        # entries with the most terms first
        by_entry = np.lexsort((cols, flat))
        flat = flat[by_entry]
        first = np.flatnonzero(np.diff(flat, prepend=-1))
        entries, counts = flat[first], np.diff(first, append=len(flat))
        order = np.argsort(-counts, kind="stable")
        self.entries = entries[order]
        self.widths = (len(counts) - np.cumsum(np.bincount(counts))[:-1]).tolist()
        picks = by_entry[np.concatenate([np.zeros(0, dtype=np.intp)] + [
            first[order[:width]] + j for j, width in enumerate(self.widths)])]
        self.cols, self.coefs = cols[picks], coefs[picks]
        self.per_chunk = max(1, _DET_CHUNK_ENTRIES // max(r * r, len(picks), nb + 1))

    def dets(self, ks) -> np.ndarray:
        """D(k) for every k of a 1-D complex array; NaN where some
        |sin(k L_e)| is below ``_REDUCED_BAND``, and wherever the value is
        not finite."""
        out = np.empty(len(ks), dtype=complex)
        n_e, r = len(self.ilengths), self.r
        with np.errstate(all="ignore"):
            for start in range(0, len(ks), self.per_chunk):
                part = slice(start, start + self.per_chunk)
                z = np.exp(ks[part, None] * self.ilengths)
                one_w = 1.0 - z * z
                terms = np.empty((len(z), 2 * n_e + 1), dtype=complex)
                h, zh = terms[:, :n_e], terms[:, n_e:-1]
                np.divide(1.0, one_w, out=h)
                np.multiply(z, h, out=zh)
                terms[:, -1] = 1.0
                d = np.multiply.reduce(one_w, axis=1, initial=self.scale)
                if r:
                    # numpy multiplies a single element in place by its
                    # reduction loop, which can round otherwise; here that is
                    # one k of a one-term M, whose coefficient is 1 or 2
                    sums = terms[:, self.cols]
                    sums *= self.coefs
                    at = self.widths[0]
                    for width in self.widths[1:]:
                        sums[:, :width] += sums[:, at:at + width]
                        at += width
                    m = np.zeros((len(z), r * r), dtype=complex)
                    m[:, self.entries] = sums[:, :self.widths[0]]
                    d = d * np.linalg.det(m.reshape(-1, r, r))  # one k: not in place
                out[part] = d
                # |sin(k L_e)| = 1 / (2 |exp(ik L_e) h_e|)
                band = np.abs(zh) > 0.5 / _REDUCED_BAND
                if band.any():
                    out[part][band.any(axis=1)] = np.nan
        return out


class Assembly:
    """Cached channel matrices for one open (or closed) graph.

    Sigma(k) over all channels is one scatter of the vertex matrices
    sigma_v(k) into place, at indices fixed at construction; for graphs
    whose conditions are all k-independent it is built once, and only the
    propagator T(k) varies with k. Otherwise each Sigma(k) writes the
    constant blocks from one precomputed index/value pair and solves the
    A/B vertices of each degree in one stacked
    :func:`~qgscatter.vertex_scattering._ab_solve` call, which raises
    :class:`~qgscatter.errors.SingularAtK` when any of them is singular.

    D(k) has two kernels. A graph with edges whose conditions are all
    k-independent gets the reduced kernel: D from the r x r matrix M(k) of
    the module docstring, except within ``_REDUCED_BAND`` of the points
    k L_e in pi Z and where that value is not finite, where the bond kernel
    evaluates it. A graph with A/B conditions gets the bond kernel:
    det(I - Sigma_BB T(k)) over the 2|E| directed bonds. S(k) solves and
    Newton steps always work in bond space.

    ``evaluations`` counts the determinants D(k) that
    :meth:`interior_det_many` has computed (none for a graph without edges),
    one per k whichever kernel evaluated it, among them one per k of
    :meth:`scattering_det_many`. S(k) solves and Newton steps on
    k-independent conditions compute none.
    """

    def __init__(self, og: OpenGraph):
        self.og = og
        self.table: BondTable = bond_table(og)
        # sum L_b over directed bonds: |D(k)| grows like exp(|Im k| sum L_b)
        self.total_bond_length = float(np.sum(self.table.bond_lengths))
        self.evaluations = 0
        n = self.table.n_channels
        self._vertices = []
        # flat indices and values of the constant blocks; per degree, the
        # flat indices and the stacked A and B of the A/B vertices
        const_flat, const_values, by_degree = [], [], {}
        for v in og.graph.vertices:
            io = self.table.vertex_io[v.id]
            if not io:
                continue
            rule = condition_sigma(v.condition, len(io))
            self._vertices.append((v.condition, io, rule.constant))
            # sigma_v[i, j] sends local in-channel j to local out-channel i
            flat = [c_out * n + c_in for c_out, _ in io for _, c_in in io]
            if rule.is_constant:
                const_flat += flat
                const_values.append(rule.constant.ravel())
            else:
                flats, a, b = by_degree.setdefault(rule.degree, ([], [], []))
                flats += flat
                a.append(rule.ab[0])
                b.append(rule.ab[1])
        self._const = (np.array(const_flat, dtype=np.intp),
                       np.concatenate(const_values) if const_values else np.zeros(0, complex))
        self._ab = [(np.array(flat, dtype=np.intp), np.stack(a), np.stack(b))
                    for flat, a, b in by_degree.values()]
        self.k_independent = not self._ab
        self._sigma = self._assemble(1.0) if self.k_independent else None

    @functools.cached_property
    def _reduced(self):
        """The reduced kernel when the graph has edges and its conditions
        are all k-independent, else None; built at the first determinant,
        so that S(k) sweeps do not pay for it."""
        if not (self.k_independent and self.table.n_bonds):
            return None
        return _ReducedKernel(self.table, self._vertices)

    def _assemble(self, k) -> np.ndarray:
        """Sigma(k) from the vertex matrices sigma_v(k): the constant blocks,
        then one stacked A/B solve per degree."""
        n = self.table.n_channels
        sigma = np.zeros(n * n, dtype=complex)
        flat, values = self._const
        sigma[flat] = values
        for flat, a, b in self._ab:
            sigma[flat] = vertex_scattering._ab_solve(a, b, k).ravel()
        return sigma.reshape(n, n)

    def sigma(self, k) -> np.ndarray:
        """Sigma(k) over all channels, leads first, as in the bond table."""
        return self._sigma if self._sigma is not None else self._assemble(k)

    def _sigmas(self, ks) -> np.ndarray:
        """Sigma(k) for a 1-D array of k: the one constant matrix, or one per k."""
        if self._sigma is not None:
            return self._sigma
        return np.stack([self._assemble(complex(k)) for k in ks])

    def _interior_system(self, ks, sigma=None):
        """I - Sigma_BB T(k) stacked over a 1-D array of k, and T(k).

        ``sigma`` is Sigma(k) when the caller has built it already: one
        matrix for every k, or one per k stacked.
        """
        nl, nb = self.table.n_leads, self.table.n_bonds
        tk = np.exp((1j * ks)[:, None] * self.table.bond_lengths)
        if sigma is None:
            sigma = self._sigmas(ks)
        m = sigma[..., nl:, nl:] * tk[:, None, :]
        np.negative(m, out=m)
        m.reshape(len(ks), nb * nb)[:, :: nb + 1] += 1.0
        return m, tk

    def interior_det_many(self, ks) -> np.ndarray:
        """D(k) = det(I - Sigma_BB T(k)) for every k of a 1-D array, from
        the graph's kernel (see the class docstring). The reduced kernel
        takes it as prod_e (1 - exp(2ik L_e)) det M(k), M being r x r with
        r = sum_v rank(sigma_v^BB + I), each rank taken exactly for Neumann
        (1) and Dirichlet (0) vertices and with the relative cut
        ``_RANK_CUT`` on the singular values of the others.

        The matrices are stacked and handed to LAPACK in chunks of about
        ``_DET_CHUNK_ENTRIES`` entries. Each D(k) is bit-identical to that of
        the same k evaluated alone (so to :meth:`interior_det`); where the
        bond kernel evaluates it, also to the determinant of the single bond
        matrix. Raises :class:`DeterminantOverflow` when some D(k) is not
        finite.
        """
        ks = np.asarray(ks, dtype=complex)
        if self.table.n_bonds == 0:
            return np.ones(len(ks), dtype=complex)
        self.evaluations += len(ks)
        if self._reduced is None:
            return self._bond_dets(ks)
        out = self._reduced.dets(ks)
        if not np.isfinite(out).all():
            redo = ~np.isfinite(out)
            out[redo] = self._bond_dets(ks[redo])
        return out

    def _bond_dets(self, ks) -> np.ndarray:
        """det(I - Sigma_BB T(k)) for every k of a 1-D complex array; raises
        :class:`DeterminantOverflow` at the first k whose value is not
        finite."""
        nb = self.table.n_bonds
        out = np.empty(len(ks), dtype=complex)
        per_chunk = max(1, _DET_CHUNK_ENTRIES // (nb * nb))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(ks), per_chunk):
                part = slice(start, start + per_chunk)
                m, _ = self._interior_system(ks[part])
                out[part] = np.linalg.det(m)
        if not np.isfinite(out).all():
            i = int(np.argmin(np.isfinite(out)))
            raise DeterminantOverflow(
                f"determinant overflow at k = {complex(ks[i])}: |D| grows like "
                f"exp(|Im k| * total bond length) = "
                f"exp({abs(ks[i].imag) * self.total_bond_length:.4g})"
            )
        return out

    def interior_det(self, k) -> complex:
        return complex(self.interior_det_many(np.array([k], dtype=complex))[0])

    def interior_log_derivative(self, k) -> complex:
        """d/dk log D(k): tr(M^-1 M') for k-independent conditions, a central
        difference of D otherwise. Raises ``np.linalg.LinAlgError`` when k is
        an exact zero of D."""
        t = self.table
        if t.n_bonds == 0:
            return 0.0 + 0.0j
        if not self.k_independent:
            h = 1e-7 * max(1.0, abs(k))
            dplus, dminus, d0 = map(complex, self.interior_det_many([k + h, k - h, k]))
            if d0 == 0:
                raise np.linalg.LinAlgError(f"k = {k} is a zero of D")
            return (dplus - dminus) / (2 * h) / d0
        m, tk = self._interior_system(np.array([k], dtype=complex))
        s_bb = self._sigma[t.n_leads:, t.n_leads:]
        mprime = -s_bb * (1j * t.bond_lengths * tk[0])[None, :]
        x = np.linalg.solve(m[0], mprime)
        return complex(np.trace(x))

    def newton(self, k0, *, max_iter, tol, trust, multiplicity=1):
        """Newton on D(k) from k0, stepping by m / (d/dk log D), m being
        ``multiplicity``: the multiplicity of the zero sought, at which the
        steps converge quadratically (linearly, by the ratio (m - 1) / m,
        with m = 1).

        Returns (k, iterations, inside). It stops when a step falls below
        ``tol * max(1, |k|)``, when k is an exact zero of D or the log
        derivative vanishes, or after ``max_iter`` steps. ``inside`` is False
        when an iterate lands more than ``trust`` from k0 (false candidates
        launched far from any zero would otherwise run away); that iterate is
        returned.
        """
        k0 = complex(k0)
        k = k0
        for it in range(1, max_iter + 1):
            try:
                dlog = self.interior_log_derivative(k)
            except np.linalg.LinAlgError:
                # the iterate sits exactly on a zero
                return k, it, True
            if dlog == 0:
                return k, it, True
            k_next = k - multiplicity / dlog
            if abs(k_next - k0) > trust:
                return k_next, it, False
            step = abs(k_next - k)
            k = k_next
            if step <= tol * max(1.0, abs(k)):
                return k, it, True
        return k, max_iter, True

    def scattering(self, k) -> ScatteringEvaluation:
        """S(k) by one bond-space solve (:meth:`_schur`), after Sigma(k) and
        T(k). The LU determinant D(k) of the interior matrix is taken at
        real k only, where |D(k)| below ``_SINGULAR_TOL`` raises
        :class:`SingularInterior`; at complex k the evaluation takes it when
        its ``interior_det`` is first read. Raises :class:`ZeroK` at k = 0.
        """
        k = complex(k)
        if k == 0:
            raise ZeroK("k must be nonzero")
        sigma = self.sigma(k)
        if self.table.n_bonds == 0:
            nl = self.table.n_leads
            return ScatteringEvaluation(k=k, s=sigma[:nl, :nl].copy(), _interior=1.0 + 0.0j)
        m, tk = self._interior_system(np.array([k]), sigma)
        interior = m[0]
        if not k.imag:
            interior = lu_det(m[0])
            if abs(interior) < _SINGULAR_TOL:
                raise _singular(k, interior)
        return ScatteringEvaluation(k=k, s=self._schur([k], sigma, m[0], tk[0]),
                                    _interior=interior)

    def scattering_many(self, ks) -> np.ndarray:
        """S(k) stacked over a 1-D array of k, each bit-identical to
        ``scattering(k).s``.

        The interior systems are stacked and their solves handed to LAPACK
        in chunks of about ``_DET_CHUNK_ENTRIES`` entries, so long sweeps of
        large graphs keep memory flat; the determinants are taken of the
        real k of a chunk only, in one call, for the singularity test.
        k-dependent conditions get one Sigma(k) per k. Raises :class:`ZeroK`
        when some k is 0 and :class:`SingularInterior` at the first real k,
        in order, where the interior system is singular, as
        ``scattering(k)`` does.
        """
        ks = np.asarray(ks, dtype=complex)
        if (ks == 0).any():
            raise ZeroK("k must be nonzero")
        nl, nb = self.table.n_leads, self.table.n_bonds
        if nb == 0:
            sigma = self._sigmas(ks)
            return np.array(np.broadcast_to(sigma[..., :nl, :nl], (len(ks), nl, nl)))
        out = np.empty((len(ks), nl, nl), dtype=complex)
        per_chunk = max(1, _DET_CHUNK_ENTRIES // (nb * nb))
        for start in range(0, len(ks), per_chunk):
            part = slice(start, start + per_chunk)
            sigma = self._sigmas(ks[part])
            m, tk = self._interior_system(ks[part], sigma)
            real = ks[part].imag == 0
            dets = np.linalg.det(m if real.all() else m[real])
            singular = np.flatnonzero(np.abs(dets) < _SINGULAR_TOL)
            if singular.size:
                raise _singular(ks[part][real][singular[0]], dets[singular[0]])
            out[part] = self._schur(ks[part], sigma, m, tk)
        return out

    def scattering_det_many(self, ks) -> np.ndarray:
        """det S(k) for a 1-D array of real k, equal to
        ``np.linalg.det(scattering(k).s)`` up to rounding.

        For k-independent vertex conditions Sigma is constant and unitary,
        and the Schur complement of S gives

            det S(k) = det Sigma exp(ik sum L_b) conj(D(k)) / D(k)

        from one :meth:`interior_det_many` call. Raises
        :class:`ValidationError` when some condition depends on k or some k
        is not real, :class:`ZeroK` when some k is 0 and
        :class:`SingularInterior` at the first k where |D(k)| is below
        ``_SINGULAR_TOL``, as ``scattering_many`` does.
        """
        if not self.k_independent:
            raise ValidationError("det S from D needs k-independent vertex conditions")
        ks = np.asarray(ks, dtype=complex)
        if ks.imag.any():
            raise ValidationError("det S from D needs real k")
        if (ks == 0).any():
            raise ZeroK("k must be nonzero")
        d = self.interior_det_many(ks)
        singular = np.flatnonzero(np.abs(d) < _SINGULAR_TOL)
        if singular.size:
            raise _singular(ks[singular[0]], d[singular[0]])
        return np.linalg.det(self._sigma) * np.exp(1j * self.total_bond_length * ks) * d.conj() / d

    def _schur(self, ks, sigma, m, tk) -> np.ndarray:
        """S(k) = Sigma_LL + Sigma_LB T (I - Sigma_BB T)^-1 Sigma_BL for the
        interior systems ``m`` of ks (one matrix, or one per k stacked),
        whose real k the caller has tested for singularity. Raises
        :class:`SingularInterior` at the first k whose system LAPACK cannot
        solve, taking the determinants only then."""
        nl = self.table.n_leads
        try:
            x = np.linalg.solve(m, sigma[..., nl:, :nl])
        except np.linalg.LinAlgError as exc:
            dets = np.linalg.det(m).reshape(-1)
            k, det = next((complex(k), complex(det)) for k, det in zip(ks, dets) if det == 0)
            raise SingularInterior(f"interior system exactly singular at k = {k}",
                                   k=k, determinant=det) from exc
        return sigma[..., :nl, :nl] + (sigma[..., :nl, nl:] * tk[..., None, :]) @ x


# The graph passed last to scattering_matrix, secular_value,
# interior_determinant, eigenvalues_compact, find_poles, refine_pole or, as
# its graph 1, transplantability_verdict, and its Assembly. One entry, so it
# holds at most one graph alive.
_last_assembly = None


def _assembly(graph) -> Assembly:
    """The Assembly of ``graph``, an OpenGraph or a MetricGraph (taken
    without leads): the previous call's when ``graph`` is the same object
    (compared with ``is``), else a new one that replaces it."""
    global _last_assembly
    if _last_assembly is None or _last_assembly[0] is not graph:
        og = graph if isinstance(graph, OpenGraph) else OpenGraph(graph, ())
        _last_assembly = (graph, Assembly(og))
    return _last_assembly[1]


def scattering_matrix(og: OpenGraph, k) -> ScatteringEvaluation:
    """Evaluate S(k) for an open graph.

    Raises :class:`SingularInterior` at real k where the interior system is
    singular (an exceptional point, e.g. a bound state decoupled from the
    leads); no regularized S is returned there.

    A sweep over k of one graph object builds its :class:`Assembly` (bond
    table, vertex rules, Sigma when constant) once: the Assembly of the
    graph of the last call is kept and reused while the same object is
    passed again. Only that one graph is held. Every call builds T(k) and,
    for k-dependent conditions, Sigma(k), with one stacked A/B solve per
    vertex degree; then it solves for S, a new array each time. A real k
    also takes the bond determinant D(k) for the singularity test; a
    complex k takes it only when ``interior_det`` of the result is read.
    """
    return _assembly(og).scattering(k)


def secular_value(og: OpenGraph, k) -> complex:
    """det(I - S(k)); its real zeros are the compact graph's eigenvalues
    when leads are attached at Neumann vertices."""
    ev = scattering_matrix(og, k)
    return lu_det(np.eye(ev.s.shape[0]) - ev.s)


def interior_determinant(og: OpenGraph, k) -> complex:
    """D(k) = det(I - Sigma_BB T(k)); holomorphic in k for k-independent
    conditions, with resonance poles of S(k) at its zeros.

    Shares the one-graph Assembly memo of :func:`scattering_matrix`; the
    determinant and its overflow check run on every call.
    """
    k = complex(k)
    if k == 0:
        raise ZeroK("k must be nonzero")
    return _assembly(og).interior_det(k)


# ---------------------------------------------------------------------------
# compact spectra
# ---------------------------------------------------------------------------

def _g(asm: Assembly, ks) -> np.ndarray:
    """g(k) = D(k) exp(-ik sum L_b / 2) for every k of a 1-D array. It has
    the zeros of D, and for k-independent conditions g(conj k) = c conj(g(k))
    with c = (-1)^n det Sigma_BB of modulus 1, so g is real on the real axis
    up to that constant phase."""
    ks = np.asarray(ks, dtype=complex)
    return asm.interior_det_many(ks) * np.exp(-0.5j * asm.total_bond_length * ks)


def _bracketed_zeros(asm: Assembly, lo, hi, g_lo, g_hi):
    """One zero of D in each bracket [lo_i, hi_i] of the real axis, where
    g = D exp(-ik sum L_b / 2) has the values ``g_lo`` and ``g_hi`` with
    Re(g_lo conj g_hi) < 0.

    Each bracket solves r(k) = Re(g(k) exp(-i alpha)) for the phase alpha of
    g at its lower end, so r > 0 there and r < 0 at the upper end. g is a
    real function times a phase that is constant for k-independent
    conditions and drifts slowly for A/B ones, so the zeros of r in the
    bracket are those of D. Regula falsi with the Illinois step (the value
    at an end kept twice in a row is halved) steps every live bracket in
    lockstep, one :meth:`Assembly.interior_det_many` call per step. A
    bracket is solved when r is exactly 0 at its new point, when it is at
    most ``_BRACKET_TOL`` wide relative to k, or when its next point lies
    that close to its last one or rounds onto an end; that point, the last
    secant step, is then the zero and is not evaluated. A zero of odd
    multiplicity m >= 3 draws the points in only linearly; after
    ``_BRACKET_STEPS`` steps such a bracket stops unsolved at the end with
    the smaller |r|.

    Returns the zeros and whether each was solved.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    turn = np.exp(-1j * np.angle(g_lo))
    r_lo, r_hi = (np.asarray(g_lo) * turn).real, (np.asarray(g_hi) * turn).real
    # the values regula falsi steps with: r, or r halved by the Illinois step
    f_lo, f_hi = r_lo.copy(), r_hi.copy()
    kept = np.zeros(len(lo), dtype=int)  # the end kept at the last step: -1 lo, 1 hi
    last = np.full(len(lo), np.nan)  # the point evaluated last
    zeros = np.full(len(lo), np.nan)  # the last secant steps and exact zeros
    live = np.arange(len(lo))
    for _ in range(_BRACKET_STEPS):
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        x = np.clip(b - fb * (b - a) / (fb - fa), a, b)
        # a point that rounds onto an end is within an ulp of it
        close = (np.abs(x - last[live]) <= _BRACKET_TOL * x) | (x == a) | (x == b)
        zeros[live[close]] = x[close]
        live, x = live[~close], x[~close]
        if not len(live):
            break
        r = (_g(asm, x) * turn[live]).real
        last[live] = x
        exact = r == 0
        zeros[live[exact]] = x[exact]
        up, down = r > 0, r < 0  # x replaces the lower end, where r > 0, or the upper
        i, j = live[up], live[down]
        lo[i], r_lo[i], f_lo[i] = x[up], r[up], r[up]
        hi[j], r_hi[j], f_hi[j] = x[down], r[down], r[down]
        f_hi[i[kept[i] == 1]] *= 0.5
        f_lo[j[kept[j] == -1]] *= 0.5
        kept[i], kept[j] = 1, -1
        live = live[~exact]
        live = live[hi[live] - lo[live] > _BRACKET_TOL * hi[live]]
    solved = np.ones(len(lo), dtype=bool)
    solved[live] = False
    ends = np.isnan(zeros)  # brackets narrowed to a few ulp, and the unsolved
    zeros[ends] = np.where(np.abs(r_lo) <= np.abs(r_hi), lo, hi)[ends]
    return zeros, solved


def eigenvalues_compact(graph: MetricGraph, window) -> SpectrumWindow:
    """Locate the Laplacian eigenvalues (as k values) in the window (k_min, k_max).

    The eigenvalues are the real zeros of D(k). On a grid of step
    min(0.01, pi / (4 L_total)), at most ``_NODE_BUDGET`` nodes (else
    :class:`WindowTooWide`), one batched call evaluates
    g(k) = D(k) exp(-ik sum L_b / 2), which on the real axis is a real
    function times a phase that is constant for k-independent conditions
    and drifts slowly for A/B ones. Every sign change of g brackets a zero,
    and one lockstep regula falsi solves all the brackets together
    (:func:`_bracketed_zeros`, one batched determinant call per step).
    Newton on D starts in every bracket that regula falsi left unsolved and
    at every interior local minimum of |g| that does not end a bracket, so
    zeros of even multiplicity are seeded too; it stops once a step is
    below ``_START_STEP``, inside the first circle of the zero it nears.

    Each distinct candidate gets its multiplicity m from the winding number
    on a small circle around it; a start that led nowhere winds 0 and is
    dropped. The circles of all candidates are wound together by the one
    circle entry the pole search uses too
    (:func:`~qgscatter.contours.first_circle_windings`): for k-independent
    conditions g(conj k) = c conj(g(k)) with |c| = 1, so only the upper half
    of each circle is wound (``upper_half``), and the winding is twice its
    turn; A/B conditions wind the whole circle of D. A circle that
    meets a zero is retried with twice the radius, up to 0.4 of the gap to
    the nearest other candidate (at most 0.05): round i winds the i-th
    radius of every candidate still unresolved, in one pass. A candidate
    whose every circle meets a zero is kept with multiplicity 1 and a
    message in ``warnings``. A candidate of m >= 2 or from Newton is
    polished by Newton with the step m / (d/dk log D), which converges
    quadratically on a zero of multiplicity m, within that circle's largest
    radius; a polish that ends off the real axis drops its candidate, and
    candidates that meet within ``_DEDUPE_RADIUS`` merge. The residuals
    |D(k)| of all zeros come from one batched determinant call. Two zeros
    closer than a scan step with no sign change between them can yield one
    candidate, and the other is then missed.

    The graph's :class:`Assembly` comes from the one-graph memo of
    :func:`scattering_matrix`, keyed on ``graph``, so windows of one graph
    object in a row set it up once.
    """
    k_min, k_max = window
    if not (0 < k_min < k_max):
        raise ValidationError(f"window must satisfy 0 < k_min < k_max, got ({k_min}, {k_max})")
    if not math.isfinite(k_max):
        raise ValidationError(f"window bound k_max = {k_max} is not finite")

    if not graph.edges:
        return SpectrumWindow(k_min, k_max, ())

    step = min(0.01, math.pi / (4.0 * graph.total_length))
    n_samples = int(math.ceil((k_max - k_min) / step)) + 1
    if n_samples > _NODE_BUDGET:
        raise WindowTooWide(
            f"scan would need {n_samples} nodes (budget {_NODE_BUDGET}); shrink the window"
        )

    asm = _assembly(graph)
    start = asm.evaluations
    ks = np.linspace(k_min, k_max, n_samples)
    # g is real up to one constant phase for k-independent conditions (a
    # slowly drifting one otherwise), so Re(g_i conj g_i+1) < 0 marks a sign
    # change between nodes i and i + 1
    g = _g(asm, ks)
    size = np.abs(g)
    at = np.flatnonzero((g[:-1] * g[1:].conj()).real < 0)
    zeros, solved = _bracketed_zeros(asm, ks[at], ks[at + 1], g[at], g[at + 1])
    # (k, whether k is solved already) for every candidate
    candidates = [(kr, True) for kr in zeros[solved].tolist()]
    # Newton starts: the brackets left unsolved, and the dips of |g| that end
    # no bracket, which catch the zeros that do not change sign
    dip = np.zeros(n_samples, dtype=bool)
    dip[1:-1] = (size[1:-1] <= size[:-2]) & (size[1:-1] <= size[2:])
    dip[at] = dip[at + 1] = False
    for k0 in np.concatenate([zeros[~solved], ks[dip]]):
        # a run stops once a step is below _START_STEP (newton's tolerance is
        # relative to max(1, |k|), and |k| <= k0 + trust), within (m - 1)
        # steps of a zero of multiplicity m and so inside its first circle;
        # its iterates leave the axis in proportion to their distance from
        # the zero, so the real part is the candidate, polished below
        k_star, _, inside = asm.newton(k0, max_iter=150, trust=0.5,
                                       tol=_START_STEP / max(1.0, k0 + 0.5))
        kr = float(k_star.real)
        if not inside or not (k_min - 1e-9 <= kr <= k_max + 1e-9):
            continue
        if any(abs(kr - other) < _DEDUPE_RADIUS for other, _ in candidates):
            continue
        candidates.append((kr, False))

    candidates.sort()
    found = [kr for kr, _ in candidates]
    rate = asm.total_bond_length + 1.0

    def cap(i, kr):
        # A zero of multiplicity m has |D| ~ r^m on a radius-r circle, which
        # can undercut the contour zero tolerance; grow the circle, but stay
        # clear of neighboring zeros.
        return max(1e-4, min([0.05] + [0.4 * abs(kr - other)
                                       for j, other in enumerate(found) if j != i]))

    caps = [cap(i, kr) for i, kr in enumerate(found)]
    radii = [list(itertools.takewhile(lambda r, c=c: r <= c,
                                      (1e-4 * 2.0 ** n for n in itertools.count())))
             for c in caps]
    # the lower half of a circle turns g by as much as the upper half when
    # the conditions are k-independent (not D: its factor exp(ik sum L_b / 2)
    # turns the halves by opposite amounts)
    windings = contours.first_circle_windings(
        functools.partial(_g, asm) if asm.k_independent else asm.interior_det_many,
        zip(found, radii), rate_hint=rate, upper_half=asm.k_independent)
    kept, warnings = [], []
    for (kr, done), mult, trust in zip(candidates, windings, caps):
        if mult is None:
            warnings.append(f"multiplicity circles around k = {kr} kept hitting zeros; "
                            "assumed 1")
            mult = 1
        if mult < 1:
            continue
        if mult > 1 or not done:
            # the step m / (d/dk log D) converges quadratically on a zero of
            # multiplicity m; a zero off the real axis is dropped
            k_star, _, inside = asm.newton(kr, max_iter=150, tol=1e-13, trust=trust,
                                           multiplicity=mult)
            if inside and abs(k_star.imag) > _REAL_AXIS_TOL:
                continue
            if inside:
                kr = float(k_star.real)
        if any(abs(kr - other) < _DEDUPE_RADIUS for other, _ in kept):
            continue
        kept.append((kr, mult))
    kept.sort()
    residuals = asm.interior_det_many([kr for kr, _ in kept])
    results = tuple(Eigenvalue(k=kr, multiplicity=mult, residual=abs(complex(residual)))
                    for (kr, mult), residual in zip(kept, residuals))
    return SpectrumWindow(k_min, k_max, results, tuple(warnings), asm.evaluations - start)
