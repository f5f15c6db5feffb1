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

The same factors give S(k) from one r x r solve. With A = I + P T, whose
inverse is h_e (I - P T) on the two bonds of e, I - Sigma_BB T = A - R P T,
and the Woodbury identity (I - X Y)^-1 = I + X (I - Y X)^-1 Y gives, with
Q = T A^-1,

    S(k) = Sigma_LL + Sigma_LB Q (Sigma_BL + U M^-1 V* P Q Sigma_BL),

M being the matrix of D(k) above. Q holds z_e h_e and 1 - h_e on the bonds
of e, which stay bounded below the real axis, where T overflows.

An A/B vertex (A f + B f' = 0) has sigma_v(k) + I = 2ik (A + ikB)^-1 B,
which varies with k. It is factored as U_v(k) W_v with W_v = I and
U_v(k) = sigma_v^BB(k) + I, read from Sigma(k): one row of M per edge end,
whose entries vary with k. So D(k) of every graph with edges comes from M,
and large graphs solve for S this way, whatever their conditions, except
near k L_e in pi Z, where h_e grows without bound and the bond matrix
evaluates D and solves for S (see Assembly).
"""

from __future__ import annotations

import contextlib
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
# Matrix entries per LAPACK call of Assembly.interior_det_many and
# scattering_many (the reduced matrices and their terms, or the bond
# matrices): about 512 kB, so long batches keep memory flat.
_DET_CHUNK_ENTRIES = 1 << 15
# Smallest min_e |sin(k L_e)| at which the reduced kernel evaluates D(k): its
# precision falls like 1e-16 / |sin(k L_e)| near k L_e in pi Z, so the bond
# matrix evaluates the k closer than this
_REDUCED_BAND = 1e-3
# S(k) solves with the reduced kernel from this many bonds on, whatever the
# vertex conditions, and in bond space below, where that costs less than
# building the kernel and solving with it (see Assembly._reduced_s); D(k)
# reads the kernel at every size
_REDUCED_S_BONDS = 128
# Singular values of sigma_v^BB + I below this fraction of the largest are
# dropped from its factor; those of a rank-deficient R_v come out near 1e-16
_RANK_CUT = 1e-13
_NODE_BUDGET = 2_000_000  # most scan nodes eigenvalues_compact lays over a window
_BRACKET_TOL = 4e-16  # bracket width, relative to k, at which a real zero is solved
_BRACKET_STEPS = 12  # most regula falsi steps of one bracket
# Newton step that ends a run from a dip of |g| or an unsolved bracket: a
# zero of multiplicity m <= 11 then lies inside the first circle (1e-4)
_START_STEP = 5e-6
# Commensurate graphs: D(k) is a polynomial p(z), z = exp(ik l0), whose roots
# serve the pole search up to this degree (see Assembly._root_set)
_MAX_DEGREE = 128
_ALIAS_TOL = 1e-12  # largest |p(0) - 1| and alias coefficient, relative to the largest
_CLUSTER_RADIUS = 1e-3  # roots of p closer than this in k are one zero


@dataclass(frozen=True)
class ScatteringEvaluation:
    """One evaluation of the scattering matrix S(k).

    ``interior_det`` is D(k): on the bond route the LU determinant of the
    interior matrix I - Sigma_BB T(k) that S(k) was solved with, on the
    reduced route (see :meth:`Assembly.scattering`) the value of
    :func:`interior_determinant`, bit for bit. At real k the singularity
    test takes it from the system S(k) was solved with, and it is stored.
    At complex k nothing reads it there, so the evaluation keeps a way to
    take it (``_interior``): k and the :class:`Assembly` that solved S(k),
    and no matrix of its own. An unread complex-k evaluation therefore
    keeps that Assembly, and so the graph, alive after the graph leaves the
    memo of :func:`scattering_matrix`. The first read takes D(k) again on
    the graph's route (:meth:`Assembly._route_det`), with the same bits;
    reading it again costs nothing more.
    """

    k: complex
    s: np.ndarray
    _interior: object = field(repr=False)  # D(k), or a function that takes it

    @functools.cached_property
    def interior_det(self) -> complex:
        return self._interior() if callable(self._interior) else self._interior

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


def _finite(ks, s) -> np.ndarray:
    """``s``, S(k) stacked over the k of ``ks``, once checked: raises
    :class:`DeterminantOverflow` at the first k below the real axis whose
    S(k) is not finite. The one overflow guard of S(k), one k or many."""
    if not np.isfinite(s).all():
        bad = np.flatnonzero((np.imag(ks) < 0) & ~np.isfinite(s).reshape(len(ks), -1).all(axis=1))
        if bad.size:
            raise DeterminantOverflow(f"S(k) is not finite at k = {complex(ks[bad[0]])}: its "
                                      "entries grow like exp(2 |Im k| L_e)")
    return s


def _singular(k, det) -> SingularInterior:
    """The error of a real k whose |D(k)| is below ``_SINGULAR_TOL``."""
    k, det = complex(k), complex(det)
    return SingularInterior(
        f"interior system singular at k = {k} (|D| = {abs(det):.3e}); "
        "this k hosts a bound state or exceptional point",
        k=k,
        determinant=det,
    )


def _raise_singular(ks, dets):
    """Raise :func:`_singular` at the first k whose |D(k)| is below
    ``_SINGULAR_TOL``; a NaN D(k), of a k that is not tested, is not."""
    singular = np.flatnonzero(np.abs(dets) < _SINGULAR_TOL)
    if singular.size:
        raise _singular(ks[singular[0]], dets[singular[0]])


def _at(sigma, at) -> np.ndarray:
    """Sigma(k) of the k numbered ``at`` of a chunk: the one constant
    matrix, or those of the stack of one per k (the stack itself, not a
    copy, when they are all)."""
    return sigma if sigma.ndim == 2 or len(at) == len(sigma) else sigma[at]


def _pairs(rows, cols):
    """(i, p, q) for every i and every p < rows[i], q < cols[i], in that
    order, p before q."""
    counts = rows * cols
    i = np.repeat(np.arange(len(counts)), counts)
    at = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return (i, *np.divmod(at, cols[i]))


class _ReducedKernel:
    """D(k) and S(k) of a graph with edges, whatever its vertex conditions,
    from the r x r matrix M(k) of the module docstring; the Assembly holds
    one, and its :meth:`band` decides where the bond matrix takes over.

    Each vertex v with r_v = rank R_v > 0 owns r_v rows and columns of M.
    Its rows are stored times c_v, with R_v = U_v W_v / c_v: the diagonal
    block holds K0 = c_v I - W_v U_v, an edge end whose out bond is b adds
    h_e W_v[:, b] U_v[b, :] to it, and the bond b from u to v adds
    -exp(ik L_e) h_e W_u[:, b] U_v[b ^ 1, :] to the block (u, v). A Neumann
    vertex of full degree d with d_b edge ends has U_v = 2 (one column),
    W_v = 1 (one row) and c_v = d, so its row keeps the integer constants
    d - 2 d_b, 2 and -2. A DFT or fixed-unitary vertex takes U_v W_v from
    the SVD of R_v, dropping the singular values below ``_RANK_CUT`` times
    the largest, with c_v = 1; the distinct R_v of one end count are
    factored in one stacked SVD. A Dirichlet vertex has R_v = 0 and owns
    nothing. An A/B vertex with d_b edge ends owns d_b rows, with W_v = I,
    c_v = 1 and U_v(k) = sigma_v^BB(k) + I, so K0 = -sigma_v^BB(k). So
    D(k) = prod_e (1 - exp(2ik L_e)) det M(k) / prod_v c_v^r_v.

    Each entry of M is a sum of coefficients (``coefs``) times the terms
    [h_e | exp(ik L_e) h_e | 1] (columns ``cols``), the last one carrying
    K0. They are laid out slot by slot: slot j holds the j-th term of the
    entries with more than j terms, which sort first (``widths[j]`` of
    them), so each entry sums its terms in one fixed order whatever the
    number of k. A coefficient that involves U_v(k) or K0 of an A/B vertex
    is its fixed factor times an entry of Sigma(k) (plus 1 on the diagonal
    of U_v), taken per k (``gather``).
    """

    def __init__(self, table: BondTable, vertices):
        """``vertices`` lists (condition, io, sigma_v) for every vertex with
        channels, io being its (out, in) channel pairs from the bond table,
        leads first, and sigma_v None for an A/B vertex."""
        nl, nb, n = table.n_leads, table.n_bonds, table.n_channels
        self.ilengths = 1j * table.bond_lengths[::2]
        # the condition, out bonds and degree of every vertex with edge ends
        # that is not Dirichlet, and for a DFT or fixed-unitary one its place
        # among the distinct R_v of its end count
        found, stacks = [], {}
        for condition, io, sigma in vertices:
            bonds = [c_out - nl for c_out, _ in io if c_out >= nl]
            if not bonds or isinstance(condition, Dirichlet):
                continue
            i = None
            if sigma is not None and not isinstance(condition, Neumann):
                d = len(bonds)
                r_v = sigma[-d:, -d:]  # the leads come first
                distinct, stack, places, owners = stacks.setdefault(d, ({}, [], [], []))
                i = distinct.setdefault(r_v.tobytes(), len(stack))
                if i == len(stack):
                    stack.append(r_v)
                places.append(i)
                owners += bonds
            found.append((condition, bonds, len(io), i))
        # per end count: the SVD of its distinct R_v, U_v W_v and K0 at full
        # rank, and each rank
        for d, (_, stack, places, owners) in stacks.items():
            a, s, bh = np.linalg.svd(np.array(stack) + np.eye(d))
            u = a * s[:, None, :]
            stacks[d] = (a, s, bh, u, (np.eye(d) - bh @ u).tolist(),
                         (s > _RANK_CUT * s[:, :1]).sum(axis=1).tolist(), places, owners)
        # per vertex of rank > 0, in vertex order: its first row, rank and K0
        # (the K0 of an A/B vertex is read from Sigma(k), and -1 holds its
        # place), and the out bonds, end counts and K0 places of A/B vertices
        r, scale, firsts, sizes, k0s = 0, 1.0, [], [], []
        owned, tops, ranks, neumann, ab, ab_sizes, ab_at = [], [], [], [], [], [], []
        for condition, bonds, degree, i in found:
            if isinstance(condition, Neumann):
                rank = 1
                k0s.append(degree - 2 * len(bonds))
                neumann += bonds
                scale /= degree
            elif i is None:
                rank = len(bonds)
                ab_at.append(len(k0s))
                k0s += [-1.0] * (rank * rank)
                ab += bonds
                ab_sizes.append(rank)
            else:
                a, s, bh, _, k0, rank_of, _, _ = stacks[len(bonds)]
                rank = rank_of[i]
                if not rank:
                    continue
                k0 = k0[i] if rank == len(bonds) else (
                    np.eye(rank) - bh[i, :rank] @ (a[i, :, :rank] * s[i, :rank])).tolist()
                for row in k0:
                    k0s += row
            firsts.append(r)
            sizes.append(rank)
            owned += bonds
            tops += [r] * len(bonds)
            ranks += [rank] * len(bonds)
            r += rank
        self.r, self.scale = r, scale
        # per out bond: the first row and the rank of its vertex, and its
        # column of W_v and row of U_v (not read beyond that rank); per entry
        # of U_v and K0 that is read from Sigma(k), its flat index there
        # (u_src, k0_src; -1 elsewhere) and what is added to it (u_add)
        top, rank = np.zeros(nb, dtype=np.intp), np.zeros(nb, dtype=np.intp)
        top[owned], rank[owned] = tops, ranks
        w_b = np.zeros((nb, max([1, *stacks, *ab_sizes])), dtype=complex)
        u_b = np.zeros_like(w_b)
        u_src, u_add = np.full(w_b.shape, -1, dtype=np.intp), np.zeros(w_b.shape)
        k0_src = np.full(len(k0s), -1, dtype=np.intp)
        if neumann:
            w_b[neumann, 0], u_b[neumann, 0] = 1.0, 2.0
        for d, (_, _, bh, u, _, _, places, owners) in stacks.items():
            w_b[owners, :d] = bh[places].transpose(0, 2, 1).reshape(-1, d)
            u_b[owners, :d] = u[places].reshape(-1, d)
        if ab:
            # an A/B vertex has W_v = I, U_v(k) = sigma_v^BB(k) + I and
            # K0 = -sigma_v^BB(k): row b, column q is the entry of Sigma(k)
            # from the in-channel of its end q, the reverse of that end's out
            # bond, to b. u_b holds 1 in place of U_v
            ab, ab_sizes = np.array(ab), np.array(ab_sizes)
            heads = np.repeat(np.cumsum(ab_sizes) - ab_sizes, ab_sizes)
            j, q, _ = _pairs(np.repeat(ab_sizes, ab_sizes), np.ones_like(ab))
            b = ab[j]
            w_b[ab, np.arange(len(ab)) - heads] = 1.0
            u_b[b, q], u_add[b, q] = 1.0, heads[j] + q == j
            u_src[b, q] = (nl + b) * n + nl + (ab[heads[j] + q] ^ 1)
            squares = ab_sizes * ab_sizes
            k0_src[np.repeat(np.array(ab_at) - np.cumsum(squares) + squares, squares)
                   + np.arange(len(j))] = u_src[b, q]
        self._bonds = top, rank, w_b, u_b, u_src, u_add
        # (flat index in M, term, coefficient) of every contribution, block
        # by block and row by row within a block: block b holds h_e on the
        # diagonal block of the vertex that bond b of e leaves, block n_b + b
        # exp(ik L_e) h_e on the block from it to the vertex that b ^ 1
        # leaves (the two bonds of a loop give a term each), and the last
        # blocks K0 with the constant term. Block j has the term j // 2, so
        # each entry meets its terms in the order of their columns, and a
        # stable sort by entry keeps that order
        swap = np.arange(nb) ^ 1
        firsts, sizes = np.array(firsts, dtype=np.intp), np.array(sizes, dtype=np.intp)
        i, p, q = _pairs(np.concatenate([rank, rank, sizes]),
                         np.concatenate([rank, rank[swap], sizes]))
        flat = ((np.concatenate([top, top, firsts])[i] + p) * r
                + np.concatenate([top, top[swap], firsts])[i] + q)
        cols = np.concatenate([np.arange(2 * nb) // 2, np.full(len(firsts), nb)])[i]
        n_diag, n_bonds = int(rank @ rank), len(i) - len(k0s)
        w = w_b[i[:n_bonds] % nb, p[:n_bonds]]
        np.negative(w[n_diag:], out=w[n_diag:])
        at = np.concatenate([np.arange(nb), swap])[i[:n_bonds]], q[:n_bonds]
        coefs = np.concatenate([w * u_b[at], np.array(k0s)])
        src = np.concatenate([u_src[at], k0_src])
        add = np.concatenate([u_add[at], np.zeros(len(k0s))])
        keep = coefs != 0
        flat, cols, coefs, src, add = flat[keep], cols[keep], coefs[keep], src[keep], add[keep]
        by_entry = np.argsort(flat, kind="stable")
        flat = flat[by_entry]
        first = np.flatnonzero(np.diff(flat, prepend=-1))
        entries, counts = flat[first], np.diff(first, append=len(flat))
        # the entries with the most terms first
        order = np.argsort(-counts, kind="stable")
        self.entries = entries[order]
        self.widths = (len(counts) - np.cumsum(np.bincount(counts))[:-1]).tolist()
        picks = by_entry[np.concatenate([np.zeros(0, dtype=np.intp)] + [
            first[order[:width]] + j for j, width in enumerate(self.widths)])]
        self.cols, self.coefs = cols[picks], coefs[picks]
        # the coefficients that are their fixed factor times an entry of
        # Sigma(k), plus 0 or 1: their places, flat indices in Sigma and adds
        dyn = np.flatnonzero(src[picks] >= 0)
        self.gather = (dyn, src[picks][dyn], add[picks][dyn]) if dyn.size else None
        # k-dependent conditions hold one Sigma(k) of n x n entries per k,
        # also when no A/B vertex has edge ends
        k_dependent = any(sigma is None for _, _, sigma in vertices)
        self.per_chunk = max(1, _DET_CHUNK_ENTRIES // max(r * r, len(picks), nb + 1,
                                                          n * n if k_dependent else 0))

    def terms(self, ks):
        """The terms [h_e | z_e h_e | 1], z_e = exp(ik L_e), and
        prod_e (1 - z_e^2) times ``scale``, each stacked over a 1-D complex
        array of k. h and z h are taken as contiguous arrays and then
        placed: written through strided views, with one edge, numpy steps
        along k and rounds z h unlike a call of one k."""
        n_e = len(self.ilengths)
        z = np.exp(ks[:, None] * self.ilengths)
        one_w = 1.0 - z * z
        h = 1.0 / one_w
        terms = np.empty((len(z), 2 * n_e + 1), dtype=complex)
        terms[:, :n_e], terms[:, n_e:-1], terms[:, -1] = h, z * h, 1.0
        return terms, np.multiply.reduce(one_w, axis=1, initial=self.scale)

    def matrix(self, terms, sigma) -> np.ndarray:
        """M(k) for every row of ``terms``, stacked k x r x r: the one
        builder of M for D(k) and S(k). A graph with A/B vertices reads
        their coefficients from ``sigma``, Sigma(k) stacked per row."""
        r = self.r
        m = np.zeros((len(terms), r * r), dtype=complex)
        if r:
            # numpy multiplies a single element in place by its reduction
            # loop, which can round otherwise; here that is one k of a
            # one-term M, whose coefficient is 1 or 2
            sums = terms[:, self.cols]
            sums *= self.coefs
            if self.gather is not None:
                at, src, add = self.gather
                sums[:, at] *= sigma.reshape(len(terms), -1)[:, src] + add
            at = self.widths[0]
            for width in self.widths[1:]:
                sums[:, :width] += sums[:, at:at + width]
                at += width
            m[:, self.entries] = sums[:, :self.widths[0]]
        return m.reshape(len(terms), r, r)

    def band(self, terms) -> np.ndarray:
        """Whether |sin(k L_e)| is below ``_REDUCED_BAND``, per row of
        ``terms`` and edge: |sin(k L_e)| = 1 / (2 |exp(ik L_e) h_e|)."""
        return np.abs(terms[:, len(self.ilengths):-1]) > 0.5 / _REDUCED_BAND

    def dets(self, ks, sigma) -> np.ndarray:
        """D(k) for a chunk of at most ``per_chunk`` k (a 1-D complex
        array) whose Sigma(k) is ``sigma`` (see :meth:`matrix`); NaN in the
        band (some edge in :meth:`band`), and wherever the value is not
        finite."""
        with np.errstate(all="ignore"):
            terms, d = self.terms(ks)
            if self.r:
                d = d * np.linalg.det(self.matrix(terms, sigma))  # one k: not in place
        band = self.band(terms)
        if band.any():
            d[band.any(axis=1)] = np.nan
        return d

    @functools.cached_property
    def factors(self):
        """W (r x n_b, the rows of vertex v times c_v) and U (n_b x r) of
        the module docstring, dense, with the edge and the reverse of each
        bond, and the (rows, columns, flat indices in Sigma(k), adds) of the
        entries of U that A/B vertices read from Sigma(k), or None."""
        top, rank, w_b, u_b, u_src, u_add = self._bonds
        nb = len(top)
        b, p, _ = _pairs(rank, np.ones_like(rank))
        w = np.zeros((self.r, nb), dtype=complex)
        u = np.zeros((nb, self.r), dtype=complex)
        w[top[b] + p, b] = w_b[b, p]
        u[b, top[b] + p] = u_b[b, p]
        read = u_src[b, p] >= 0
        b, p = b[read], p[read]
        gather = (b, top[b] + p, u_src[b, p], u_add[b, p]) if b.size else None
        return w, u, np.arange(nb) // 2, np.arange(nb) ^ 1, gather

    def scattering(self, sigma, nl, terms, m) -> np.ndarray:
        """S(k) for a 1-D array of k off the band, from Sigma(k) (one
        matrix, or one per k stacked), its terms (:meth:`terms`) and M
        (:meth:`matrix`).

        With A = I + P T, whose inverse is h_e (I - P T) on the two bonds of
        e, I - Sigma_BB T = A - R P T, and by Woodbury
        (I - Sigma_BB T)^-1 = (I + A^-1 U M^-1 W P T) A^-1, the rows of M
        and W both times c_v. With Q = T A^-1, which holds z_e h_e on the
        diagonal and 1 - h_e off it on the two bonds of e, both bounded
        wherever the terms are finite,

            S = Sigma_LL + Sigma_LB Q (Sigma_BL + U M^-1 W P Q Sigma_BL).

        A k whose M LAPACK cannot solve gets NaN, for the caller to solve in
        bond space.
        """
        w, u, edge, swap, gather = self.factors
        n_e = len(self.ilengths)
        q1, q2 = terms[:, n_e + edge, None], 1.0 - terms[:, edge, None]
        s_bl = sigma[..., nl:, :nl]
        qs = q1 * s_bl + q2 * s_bl[..., swap, :]
        rhs = w @ qs[:, swap]
        try:
            x = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            x = np.full_like(rhs, np.nan)
            for i in range(len(m)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    x[i] = np.linalg.solve(m[i], rhs[i])
        if gather is not None:
            rows, cols, src, add = gather
            u = np.repeat(u[None], len(x), axis=0)
            u[:, rows, cols] = sigma.reshape(len(x), -1)[:, src] + add
        ux = u @ x
        return sigma[..., :nl, :nl] + sigma[..., :nl, nl:] @ (qs + q1 * ux + q2 * ux[:, swap])


class Assembly:
    """Cached channel matrices for one open (or closed) graph.

    Sigma(k) over all channels is one scatter of the vertex matrices
    sigma_v(k) into place, at indices fixed at construction. Each vertex
    with channels gets its sigma_v from
    :func:`~qgscatter.vertex_scattering.condition_sigma`, which also checks
    the condition against the vertex degree; an A/B vertex gets None there,
    and the A and B of its :class:`~qgscatter.graph_core.LinearAB`, whose
    [A|B] rank was checked when it was built, are stacked with those of the
    other A/B vertices of its degree. For graphs whose conditions are all
    k-independent Sigma is built once, and only the propagator T(k) varies
    with k. Otherwise each Sigma(k) writes the constant blocks from one
    precomputed index/value pair and solves the A/B vertices of each degree
    in one stacked :func:`~qgscatter.vertex_scattering._ab_solve` call,
    which raises :class:`~qgscatter.errors.SingularAtK` when any of them is
    singular.

    A graph with edges has one reduced kernel (:attr:`_reduced`), whose
    rows of A/B vertices are read from Sigma(k). D(k) comes from its r x r
    matrix M(k), except within ``_REDUCED_BAND`` of the points k L_e in
    pi Z and where that value is not finite, where the bond matrix
    I - Sigma_BB T(k) over the 2|E| directed bonds evaluates it, from the
    same Sigma(k). S(k) has two routes, chosen per graph by bond count
    (:attr:`_reduced_s`): large graphs solve the kernel's r x r system,
    and the bond system where D is the bond matrix's and where that S is
    not finite; all others solve in bond space. Newton steps work in bond
    space for k-independent conditions, and take a central difference of
    D(k) otherwise.

    ``evaluations`` counts the determinants D(k) that
    :meth:`interior_det_many` has computed (none for a graph without edges),
    one per k whichever matrix evaluated it, among them one per k of
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
            sigma = condition_sigma(v.condition, len(io))
            self._vertices.append((v.condition, io, sigma))
            # sigma_v[i, j] sends local in-channel j to local out-channel i
            flat = [c_out * n + c_in for c_out, _ in io for _, c_in in io]
            if sigma is not None:
                const_flat += flat
                const_values.append(sigma.ravel())
            else:
                flats, a, b = by_degree.setdefault(len(io), ([], [], []))
                flats += flat
                a.append(v.condition.a)
                b.append(v.condition.b)
        self._const = (np.array(const_flat, dtype=np.intp),
                       np.concatenate(const_values) if const_values else np.zeros(0, complex))
        self._ab = [(np.array(flat, dtype=np.intp), np.stack(a), np.stack(b))
                    for flat, a, b in by_degree.values()]
        self.k_independent = not self._ab
        self._sigma = self._assemble(1.0) if self.k_independent else None
        # the k-independent set-up that callers keep with the graph: S(k) at
        # conjugator samples and det S at phase samples, or the error raised
        # at each, and the conjugator and phase results per partner Assembly,
        # of transplantability_verdict; the quotient set-up per GraphAction
        # (keyed weakly) of symmetry_rep
        self._kept = {}

    @functools.cached_property
    def _reduced(self):
        """The reduced kernel of a graph with edges, else None; built at the
        first determinant, or at the first S(k) on the reduced route
        (:attr:`_reduced_s`), so that S(k) sweeps on the bond route do not
        pay for it."""
        return _ReducedKernel(self.table, self._vertices) if self.table.n_bonds else None

    @functools.cached_property
    def _root_set(self):
        """The zeros of D(k) on one period of Re k, read from the roots of a
        polynomial, as (period, coefficients, centres, sizes); None unless
        the graph has edges and k-independent conditions, and ``_MAX_DEGREE``
        bounds the degree.

        l0 is the largest power of two that divides every length, read from
        the float bits. D(k) is then a polynomial p(z) in z = exp(ik l0) of
        degree N = sum_b L_b / l0 with p(0) = 1 (D -> 1 as k -> +i oo). One
        :meth:`interior_det_many` call, counted in ``evaluations``, takes D at
        M points k_j = 2 pi j / (M l0) + i / sum_b L_b, M the least power of
        two >= N + 2, so that |z| = r with r^N = 1/e, and one FFT gives the
        coefficients a_0 .. a_N of p, real where Sigma is. The set is None
        unless a_0 = 1 and the M - N - 1 alias coefficients vanish, both to
        ``_ALIAS_TOL`` relative to the largest. The roots z map to k =
        -i log(z) / l0, which repeat with period 2 pi / l0 in Re k, and
        are clustered modulo it (:func:`_clusters`). The arrays are
        read-only.
        """
        lengths = self.table.bond_lengths
        if not (self.k_independent and lengths.size):
            return None
        mantissa, exponent = np.frexp(lengths)
        bits = (mantissa * 2.0 ** 53).astype(np.int64)
        l0 = float(np.min(np.ldexp((bits & -bits).astype(float), exponent - 53)))
        if self.total_bond_length / l0 > _MAX_DEGREE:
            return None
        n = int(self.total_bond_length / l0)
        m = 1 << (n + 1).bit_length()
        ks = 2 * np.pi / (m * l0) * np.arange(m) + 1j / self.total_bond_length
        c = np.fft.fft(self.interior_det_many(ks)) / m
        tol = _ALIAS_TOL * np.abs(c).max()
        if abs(c[0] - 1) > tol or np.abs(c[n + 1:]).max() > tol:
            return None
        a = c[:n + 1] * np.exp(l0 / self.total_bond_length * np.arange(n + 1))
        if not self._sigma.imag.any():
            a = a.real.copy()  # a real companion matrix
        period = 2 * np.pi / l0
        centres, sizes = _clusters(-1j * np.log(np.roots(a[::-1]).astype(complex)) / l0, period)
        for array in (a, centres, sizes):
            array.flags.writeable = False
        return period, a, centres, sizes

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
        if len(ks) == 1:
            return self._assemble(complex(ks[0]))[None]
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
        the reduced kernel as prod_e (1 - exp(2ik L_e)) det M(k), M being
        r x r with r = sum_v rank(sigma_v^BB + I), each rank taken exactly
        for Neumann (1), Dirichlet (0) and A/B vertices (their number of
        edge ends) and with the relative cut ``_RANK_CUT`` on the singular
        values of the others. Within ``_REDUCED_BAND`` of the points
        k L_e in pi Z, and where that value is not finite, the bond matrix
        evaluates it, from the same Sigma(k).

        The matrices are stacked and handed to LAPACK in chunks of about
        ``_DET_CHUNK_ENTRIES`` entries, with one Sigma(k) per k for
        k-dependent conditions. Each D(k) is bit-identical to that of the
        same k evaluated alone (so to :meth:`interior_det`); where the bond
        matrix evaluates it, also to the determinant of the single bond
        matrix. Raises :class:`DeterminantOverflow` when some D(k) is not
        finite.
        """
        ks = np.asarray(ks, dtype=complex)
        if self.table.n_bonds == 0:
            return np.ones(len(ks), dtype=complex)
        self.evaluations += len(ks)
        return self._dets(ks)

    def _dets(self, ks) -> np.ndarray:
        """:meth:`interior_det_many` of a 1-D complex array of k on a graph
        with edges, without counting."""
        kern = self._reduced
        out = np.empty(len(ks), dtype=complex)
        for start in range(0, len(ks), kern.per_chunk):
            part = ks[start:start + kern.per_chunk]
            sigma = self._sigmas(part)
            d = kern.dets(part, sigma)
            if not np.isfinite(d).all():
                redo = np.flatnonzero(~np.isfinite(d))
                d[redo] = self._bond_dets(part[redo], _at(sigma, redo))
            out[start:start + len(part)] = d
        return out

    def _bond_dets(self, ks, sigma) -> np.ndarray:
        """det(I - Sigma_BB T(k)) for every k of a 1-D complex array whose
        Sigma(k) is ``sigma``; raises :class:`DeterminantOverflow` at the
        first k whose value is not finite."""
        nb = self.table.n_bonds
        out = np.empty(len(ks), dtype=complex)
        per_chunk = max(1, _DET_CHUNK_ENTRIES // (nb * nb))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(ks), per_chunk):
                at = np.arange(start, min(start + per_chunk, len(ks)))
                m, _ = self._interior_system(ks[at], _at(sigma, at))
                out[at] = np.linalg.det(m)
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

    @functools.cached_property
    def _reduced_s(self):
        """The reduced kernel when S(k) takes the reduced route, else None:
        at least ``_REDUCED_S_BONDS`` bonds. Below, the bond solve costs less
        than building the kernel and solving with it."""
        return self._reduced if self.table.n_bonds >= _REDUCED_S_BONDS else None

    def scattering(self, k) -> ScatteringEvaluation:
        """S(k) from one solve, on the graph's route, after T(k) and, for
        k-dependent conditions, Sigma(k). Raises :class:`ZeroK` at k = 0.

        The bond route solves the 2|E| x 2|E| interior system
        (:meth:`_schur`). The reduced route (:attr:`_reduced_s`) solves the
        r x r system M(k) of the reduced kernel (:meth:`_solve_stack`),
        reading the entries of A/B vertices from Sigma(k). Either route
        builds Sigma(k) first, so an A + ikB that is singular raises
        :class:`~qgscatter.errors.SingularAtK` on both.

        D(k) is taken at real k only, where |D(k)| below ``_SINGULAR_TOL``
        raises :class:`SingularInterior`: the LU determinant of the bond
        matrix, or that of :func:`interior_determinant`. At complex k the
        evaluation takes D(k) when its ``interior_det`` is first read. Below
        the real axis, an S(k) that is not finite raises
        :class:`DeterminantOverflow`.
        """
        k = complex(k)
        if k == 0:
            raise ZeroK("k must be nonzero")
        if k.imag >= 0:
            return self._scattering(k)
        with np.errstate(over="ignore", invalid="ignore"):
            ev = self._scattering(k)
        _finite([k], ev.s)
        return ev

    def _scattering(self, k) -> ScatteringEvaluation:
        # at complex k D(k) is taken when interior_det is first read
        interior = functools.partial(self._route_det, k)
        if self._reduced_s is not None:
            s, dets = self._solve_stack(np.array([k]))
            return ScatteringEvaluation(k=k, s=s[0],
                                        _interior=interior if k.imag else complex(dets[0]))
        sigma = self.sigma(k)
        if self.table.n_bonds == 0:
            nl = self.table.n_leads
            return ScatteringEvaluation(k=k, s=sigma[:nl, :nl].copy(), _interior=1.0 + 0.0j)
        m, tk = self._interior_system(np.array([k]), sigma)
        if not k.imag:
            interior = lu_det(m[0])
            if abs(interior) < _SINGULAR_TOL:
                raise _singular(k, interior)
        return ScatteringEvaluation(k=k, s=self._schur([k], sigma, m[0], tk[0]),
                                    _interior=interior)

    def _route_det(self, k) -> complex:
        """D(k) as S(k) takes it on this graph's route, not counted in
        ``evaluations``: that of :meth:`interior_det` on the reduced route,
        the LU determinant of the bond matrix on the bond route."""
        if self._reduced_s is not None:
            return complex(self._dets(np.array([k]))[0])
        return lu_det(self._interior_system(np.array([k]))[0][0])

    def scattering_many(self, ks) -> np.ndarray:
        """S(k) stacked over a 1-D array of k, each bit-identical to
        ``scattering(k).s``.

        The systems are stacked and their solves handed to LAPACK in chunks
        of about ``_DET_CHUNK_ENTRIES`` entries (:meth:`_solve_stack`), so
        long sweeps of large graphs keep memory flat; the determinants are
        taken of the real k of a chunk only, for the singularity test.
        k-dependent conditions get one Sigma(k) per k. Raises :class:`ZeroK`
        when some k is 0, and, as ``scattering(k)`` does,
        :class:`SingularInterior` at the first real k, in order, where the
        interior system is singular, and :class:`DeterminantOverflow` at the
        first k below the real axis whose S(k) is not finite.
        """
        ks = np.asarray(ks, dtype=complex)
        if (ks == 0).any():
            raise ZeroK("k must be nonzero")
        nl, nb = self.table.n_leads, self.table.n_bonds
        if nb == 0:
            sigma = self._sigmas(ks)
            return np.array(np.broadcast_to(sigma[..., :nl, :nl], (len(ks), nl, nl)))
        out = np.empty((len(ks), nl, nl), dtype=complex)
        per_chunk = (max(1, _DET_CHUNK_ENTRIES // (nb * nb)) if self._reduced_s is None
                     else self._reduced_s.per_chunk)
        for start in range(0, len(ks), per_chunk):
            part = ks[start:start + per_chunk]
            # S(k) can overflow below the real axis only
            quiet = np.errstate(over="ignore", invalid="ignore")
            with quiet if (part.imag < 0).any() else contextlib.nullcontext():
                out[start:start + len(part)] = _finite(part, self._solve_stack(part)[0])
        return out

    def _solve_stack(self, ks):
        """S(k) for a 1-D array of nonzero k, and D(k) at its real k (NaN
        elsewhere), with one Sigma(k) per k for k-dependent conditions: the
        one stacked solver. On the reduced route (:attr:`_reduced_s`) M(k)
        solves the k off the band; the k in the band, every k on the bond
        route, and the k below the real axis whose S from M is not finite
        are solved in bond space. D(k) comes from the system each k is solved with. Raises
        :class:`SingularInterior` at the first real k where |D(k)| is below
        ``_SINGULAR_TOL``."""
        kern, nl = self._reduced_s, self.table.n_leads
        sigma = self._sigmas(ks)
        real = ks.imag == 0
        if kern is None:
            fine, banded = np.zeros(0, dtype=np.intp), np.arange(len(ks))
        else:
            terms, d = kern.terms(ks)
            band = kern.band(terms).any(axis=1)
            fine, banded = np.flatnonzero(~band), np.flatnonzero(band)
        dets = np.full(len(ks), np.nan, dtype=complex)
        if fine.size:
            m = kern.matrix(terms[fine], _at(sigma, fine))
            at = real[fine]
            if at.any():
                dets[fine[at]] = d[fine[at]] * np.linalg.det(m if at.all() else m[at])
        if banded.size:
            bond_m, tk = self._interior_system(ks[banded], _at(sigma, banded))
            at = real[banded]
            if at.any():
                dets[banded[at]] = np.linalg.det(bond_m if at.all() else bond_m[at])
        _raise_singular(ks, dets)
        out = np.empty((len(ks), nl, nl), dtype=complex)
        if banded.size:
            out[banded] = self._schur(ks[banded], _at(sigma, banded), bond_m, tk)
        if fine.size:
            out[fine] = kern.scattering(_at(sigma, fine), nl, terms[fine], m)
        if fine.size and (ks.imag < 0).any():
            # S from M overflows, and M is singular at a zero of D, only
            # below the real axis
            redo = fine[~np.isfinite(out[fine]).all(axis=(1, 2))]
            if redo.size:
                s = _at(sigma, redo)
                out[redo] = self._schur(ks[redo], s, *self._interior_system(ks[redo], s))
        return out, dets

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
        _raise_singular(ks, d)
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


def _clusters(ks, period=None):
    """The roots ``ks`` of a polynomial, clustered: those within
    ``_CLUSTER_RADIUS`` of each other, linked in chains, form one cluster, a
    multiple zero that the companion matrix split. Returns each cluster's
    centroid and its number of roots, as (centres, sizes). With a
    ``period``, the roots repeat with that period in Re k, and distances
    and offsets are taken modulo it."""
    def wrapped(d):
        return d if period is None else d - period * np.round(d.real / period)

    # each root takes the least index of its chain of near roots
    near = np.abs(wrapped(ks[:, None] - ks)) <= _CLUSTER_RADIUS
    first, least = None, np.arange(len(ks))
    while not np.array_equal(first, least):
        first, least = least, np.where(near, least, len(ks)).min(axis=1, initial=len(ks))
    leads, members, sizes = np.unique(first, return_inverse=True, return_counts=True)
    offsets = wrapped(ks - ks[first])
    centres = ks[leads] + (np.bincount(members, offsets.real)
                           + 1j * np.bincount(members, offsets.imag)) / sizes
    return centres, sizes


# The last _MEMO_SIZE graphs passed to scattering_matrix, secular_value,
# interior_determinant, eigenvalues_compact, find_poles, refine_pole or
# transplantability_verdict (either graph), quotient_scattering or
# quotient_scattering_sum, with their Assemblies, the most recently used
# first: two verdicts' worth, so that it holds at most four graphs alive.
# What a caller keeps per graph lives in its Assembly's ``_kept`` and leaves
# the memo with it: a verdict's window-free results (a pair's on graph 1's
# Assembly, keyed weakly by graph 2's) and the set-up of every action a
# quotient used on the graph (keyed weakly by the GraphAction).
_MEMO_SIZE = 4
_assemblies: list = []


def _assembly(graph) -> Assembly:
    """The Assembly of ``graph``, an OpenGraph or a MetricGraph (taken
    without leads): that of a memo entry when ``graph`` is the same object
    (compared with ``is``, most recent entry first), else a new one that
    drops the least recently used entry of a full memo."""
    for i, (held, asm) in enumerate(_assemblies):
        if held is graph:
            _assemblies.insert(0, _assemblies.pop(i))
            return asm
    asm = Assembly(graph if isinstance(graph, OpenGraph) else OpenGraph(graph, ()))
    _assemblies.insert(0, (graph, asm))
    del _assemblies[_MEMO_SIZE:]
    return asm


def scattering_matrix(og: OpenGraph, k) -> ScatteringEvaluation:
    """Evaluate S(k) for an open graph.

    Raises :class:`SingularInterior` at real k where the interior system is
    singular (an exceptional point, e.g. a bound state decoupled from the
    leads); no regularized S is returned there.

    A sweep over k of one graph object builds its :class:`Assembly` (bond
    table, vertex rules, Sigma when constant, and on large graphs the
    reduced kernel) once: the Assemblies of the last four graphs passed
    here and to the other entry points that share the memo are kept, and
    reused while the same object is passed again. Every call builds T(k)
    and, for k-dependent conditions, Sigma(k), with one stacked A/B solve
    per vertex degree; then it solves for S, a new array each time, on the
    route of :meth:`Assembly.scattering`: the 2|E| x 2|E| bond system, or
    the r x r system of the reduced kernel. A real k also takes D(k) of
    that system for the singularity test; a complex k takes it only when
    ``interior_det`` of the result is read. Below the real axis an S(k)
    that overflows raises :class:`DeterminantOverflow`.
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

    Shares the Assembly memo of :func:`scattering_matrix`; the
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

    The graph's :class:`Assembly` comes from the memo of the last four
    graphs of :func:`scattering_matrix`, keyed on ``graph``, so windows of
    one graph object in a row set it up once.
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
