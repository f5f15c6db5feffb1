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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import contours
from .errors import (
    DeterminantOverflow,
    SingularInterior,
    ValidationError,
    WindowTooWide,
    ZeroK,
)
from .graph_core import BondTable, MetricGraph, OpenGraph, bond_table
from .linalg import lu_det, unitarity_defect
from .vertex_scattering import condition_sigma

_SINGULAR_TOL = 1e-13
_REAL_AXIS_TOL = 1e-9  # largest |Im k| of a zero taken to lie on the real axis
_DEDUPE_RADIUS = 1e-7  # zeros closer than this merge
# Matrix entries per LAPACK call of Assembly.interior_det_many: about 512 kB,
# so long batches keep memory flat.
_DET_CHUNK_ENTRIES = 1 << 15
_NODE_BUDGET = 2_000_000  # most scan nodes eigenvalues_compact lays over a window


@dataclass(frozen=True)
class ScatteringEvaluation:
    """One evaluation of the scattering matrix S(k)."""

    k: complex
    s: np.ndarray
    interior_det: complex

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
    eigenvalue whose multiplicity could not be wound and was assumed 1."""

    k_min: float
    k_max: float
    eigenvalues: Tuple[Eigenvalue, ...] = ()
    warnings: Tuple[str, ...] = ()

    def ks(self) -> np.ndarray:
        return np.array([ev.k for ev in self.eigenvalues])


class Assembly:
    """Cached channel matrices for one open (or closed) graph.

    Sigma(k) over all channels is one scatter of the stacked vertex
    matrices sigma_v(k) into place, at indices fixed at construction; for
    graphs whose conditions are all k-independent it is built once, and
    only the propagator T(k) varies with k.

    ``evaluations`` counts the determinants D(k) that
    :meth:`interior_det_many` has computed (none for a graph without edges).
    S(k) solves and Newton steps on k-independent conditions compute none.
    """

    def __init__(self, og: OpenGraph):
        self.og = og
        self.table: BondTable = bond_table(og)
        # sum L_b over directed bonds: |D(k)| grows like exp(|Im k| sum L_b)
        self.total_bond_length = float(np.sum(self.table.bond_lengths))
        self.evaluations = 0
        n = self.table.n_channels
        self._rules = []
        flat = []
        for v in og.graph.vertices:
            io = self.table.vertex_io[v.id]
            if not io:
                continue
            self._rules.append(condition_sigma(v.condition, len(io)))
            # sigma_v[i, j] sends local in-channel j to local out-channel i
            ins = [c_in for _, c_in in io]
            for c_out, _ in io:
                flat += [c_out * n + c_in for c_in in ins]
        self._flat = np.array(flat, dtype=np.intp)
        self.k_independent = all(r.is_constant for r in self._rules)
        self._sigma = self._assemble(1.0) if self.k_independent else None

    def _assemble(self, k) -> np.ndarray:
        """Sigma(k) from the vertex matrices sigma_v(k)."""
        n = self.table.n_channels
        sigma = np.zeros(n * n, dtype=complex)
        if self._rules:
            sigma[self._flat] = np.concatenate([rule(k).ravel() for rule in self._rules])
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
        np.subtract(np.eye(nb), m, out=m)
        return m, tk

    def interior_det_many(self, ks) -> np.ndarray:
        """D(k) = det(I - Sigma_BB T(k)) for every k of a 1-D array.

        The matrices are stacked and handed to LAPACK in chunks of about
        ``_DET_CHUNK_ENTRIES`` entries; each determinant is bit-identical to
        that of the single matrix. Raises :class:`DeterminantOverflow` when
        some D(k) is not finite.
        """
        ks = np.asarray(ks, dtype=complex)
        nb = self.table.n_bonds
        if nb == 0:
            return np.ones(len(ks), dtype=complex)
        self.evaluations += len(ks)
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

    def newton(self, k0, *, max_iter, tol, trust):
        """Newton on D(k) from k0, stepping by 1 / (d/dk log D).

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
            k_next = k - 1.0 / dlog
            if abs(k_next - k0) > trust:
                return k_next, it, False
            step = abs(k_next - k)
            k = k_next
            if step <= tol * max(1.0, abs(k)):
                return k, it, True
        return k, max_iter, True

    def scattering(self, k) -> ScatteringEvaluation:
        k = complex(k)
        if k == 0:
            raise ZeroK("k must be nonzero")
        sigma = self.sigma(k)
        if self.table.n_bonds == 0:
            nl = self.table.n_leads
            return ScatteringEvaluation(k=k, s=sigma[:nl, :nl].copy(), interior_det=1.0 + 0.0j)
        m, tk = self._interior_system(np.array([k]), sigma)
        det = lu_det(m[0])
        s = self._schur([k], sigma, m[0], tk[0], [det])
        return ScatteringEvaluation(k=k, s=s, interior_det=det)

    def scattering_many(self, ks) -> np.ndarray:
        """S(k) stacked over a 1-D array of k, each bit-identical to
        ``scattering(k).s``.

        The interior systems are stacked and their determinants and solves
        handed to LAPACK in chunks of about ``_DET_CHUNK_ENTRIES`` entries,
        so long sweeps of large graphs keep memory flat. k-dependent
        conditions get one Sigma(k) per k. Raises :class:`ZeroK` when some k
        is 0 and :class:`SingularInterior` at the first real k, in order,
        where the interior system is singular, as ``scattering(k)`` does.
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
            out[part] = self._schur(ks[part], sigma, m, tk, np.linalg.det(m))
        return out

    def _schur(self, ks, sigma, m, tk, dets) -> np.ndarray:
        """S(k) = Sigma_LL + Sigma_LB T (I - Sigma_BB T)^-1 Sigma_BL for the
        interior systems ``m`` of ks (one matrix, or one per k stacked) with
        determinants ``dets``. Raises :class:`SingularInterior` at the first
        real k with |D(k)| below ``_SINGULAR_TOL``, or at the first k whose
        system LAPACK cannot solve."""
        for k, det in zip(ks, dets):
            if abs(det) < _SINGULAR_TOL and k.imag == 0:
                k, det = complex(k), complex(det)
                raise SingularInterior(
                    f"interior system singular at k = {k} (|D| = {abs(det):.3e}); "
                    "this k hosts a bound state or exceptional point",
                    k=k,
                    determinant=det,
                )
        nl = self.table.n_leads
        try:
            x = np.linalg.solve(m, sigma[..., nl:, :nl])
        except np.linalg.LinAlgError as exc:
            k, det = next((complex(k), complex(det)) for k, det in zip(ks, dets) if det == 0)
            raise SingularInterior(f"interior system exactly singular at k = {k}",
                                   k=k, determinant=det) from exc
        return sigma[..., :nl, :nl] + (sigma[..., :nl, nl:] * tk[..., None, :]) @ x


# The Assembly of the graph passed last to scattering_matrix, secular_value
# or interior_determinant. One entry, so it holds at most one graph alive.
_last_assembly = None


def _assembly(og: OpenGraph) -> Assembly:
    """The Assembly of ``og``: the previous call's when ``og`` is the same
    object (compared with ``is``), else a new one that replaces it."""
    global _last_assembly
    asm = _last_assembly
    if asm is None or asm.og is not og:
        asm = Assembly(og)
        _last_assembly = asm
    return asm


def scattering_matrix(og: OpenGraph, k) -> ScatteringEvaluation:
    """Evaluate S(k) for an open graph.

    Raises :class:`SingularInterior` at real k where the interior system is
    singular (an exceptional point, e.g. a bound state decoupled from the
    leads); no regularized S is returned there.

    A sweep over k of one graph object builds its :class:`Assembly` (bond
    table, vertex rules, Sigma when constant) once: the Assembly of the
    graph of the last call is kept and reused while the same object is
    passed again. Only that one graph is held. T(k), Sigma(k) for
    k-dependent conditions, the solve and the singularity test run on every
    call, and S is a new array each time.
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

def _closed(graph: MetricGraph) -> OpenGraph:
    # Internal shim: the assembly machinery accepts a lead-free OpenGraph.
    return OpenGraph(graph, ())


def eigenvalues_compact(graph: MetricGraph, window) -> SpectrumWindow:
    """Locate the Laplacian eigenvalues (as k values) in the window (k_min, k_max).

    The eigenvalues are the real zeros of D(k). On a grid of step
    min(0.01, pi / (4 L_total)), at most ``_NODE_BUDGET`` nodes (else
    :class:`WindowTooWide`), one batched call evaluates
    g(k) = D(k) exp(-ik sum L_b / 2), which on the real axis is a real
    function times a phase that is constant for k-independent conditions
    and drifts slowly for A/B ones. Newton on D starts inside every sign
    change of g, where |g| interpolates linearly to zero, and at every
    interior local minimum of |g| that does not end such a bracket, so
    zeros of even multiplicity are seeded too. Each distinct real result
    inside the window gets its multiplicity from the winding number of D
    on a small circle around it; a start that led nowhere winds 0 and is
    dropped. The circles of all candidates are wound together
    (:func:`~qgscatter.contours.first_circle_windings`), and a circle that
    meets a zero is retried with twice the radius, up to 0.4 of the gap to
    the nearest other candidate (at most 0.05): round i winds the i-th
    radius of every candidate still unresolved, in one pass. A candidate
    whose every circle meets a zero is kept with multiplicity 1 and a
    message in ``warnings``. The residuals |D(k)| of all candidates come
    from one batched determinant call. Two zeros closer than a scan step
    with no sign change between them can yield one candidate, and the
    other is then missed.
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

    asm = Assembly(_closed(graph))
    ks = np.linspace(k_min, k_max, n_samples)
    # g is real up to one constant phase for k-independent conditions (a
    # slowly drifting one otherwise), so Re(g_i conj g_i+1) < 0 marks a sign
    # change between nodes i and i + 1
    g = asm.interior_det_many(ks) * np.exp(-0.5j * asm.total_bond_length * ks)
    size = np.abs(g)
    at = np.flatnonzero((g[:-1] * g[1:].conj()).real < 0)
    candidates = list(ks[at] + (ks[at + 1] - ks[at]) * size[at] / (size[at] + size[at + 1]))
    # dips of |g| catch the zeros that do not change sign
    dip = np.zeros(n_samples, dtype=bool)
    dip[1:-1] = (size[1:-1] <= size[:-2]) & (size[1:-1] <= size[2:])
    dip[at] = dip[at + 1] = False
    candidates += list(ks[dip])

    # Polish, verify, deduplicate.
    found = []
    for k0 in candidates:
        k_star, _, _ = asm.newton(k0, max_iter=150, tol=1e-13, trust=0.5)
        if abs(k_star.imag) > _REAL_AXIS_TOL:
            continue
        kr = float(k_star.real)
        if not (k_min - 1e-9 <= kr <= k_max + 1e-9):
            continue
        if any(abs(kr - f) < _DEDUPE_RADIUS for f in found):
            continue
        found.append(kr)

    found_sorted = sorted(found)
    rate = asm.total_bond_length + 1.0

    def radii(i, kr):
        # A zero of multiplicity m has |D| ~ r^m on a radius-r circle, which
        # can undercut the contour zero tolerance; grow the circle, but stay
        # clear of neighboring zeros.
        cap = min([0.05] + [0.4 * abs(kr - other)
                            for j, other in enumerate(found_sorted) if j != i])
        return itertools.takewhile(lambda r: r <= max(cap, 1e-4),
                                   (1e-4 * 2.0 ** n for n in itertools.count()))

    windings = contours.first_circle_windings(
        asm.interior_det_many, found_sorted,
        [list(radii(i, kr)) for i, kr in enumerate(found_sorted)], rate_hint=rate)
    residuals = asm.interior_det_many(found_sorted)
    results, warnings = [], []
    for kr, mult, residual in zip(found_sorted, windings, residuals):
        if isinstance(mult, str):
            warnings.append(f"multiplicity circles around k = {kr} kept hitting zeros; "
                            "assumed 1")
            mult = 1
        if mult < 1:
            continue
        results.append(Eigenvalue(k=kr, multiplicity=mult, residual=abs(complex(residual))))

    return SpectrumWindow(k_min, k_max, tuple(results), tuple(warnings))
