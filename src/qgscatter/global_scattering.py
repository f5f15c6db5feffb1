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

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import contours
from .errors import (
    BoundaryZero,
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
# Matrix entries per LAPACK call of Assembly.interior_det_many: about 512 kB,
# so long batches keep memory flat.
_DET_CHUNK_ENTRIES = 1 << 15


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
    k_min: float
    k_max: float
    eigenvalues: Tuple[Eigenvalue, ...] = ()

    def ks(self) -> np.ndarray:
        return np.array([ev.k for ev in self.eigenvalues])


class Assembly:
    """Cached channel matrices for one open (or closed) graph.

    Sigma(k) over all channels is one scatter of the stacked vertex
    matrices sigma_v(k) into place, at indices fixed at construction; for
    graphs whose conditions are all k-independent it is built once, and
    only the propagator T(k) varies with k.
    """

    def __init__(self, og: OpenGraph):
        self.og = og
        self.table: BondTable = bond_table(og)
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
        self._sigma = self._assemble(self._blocks(1.0)) if self.k_independent else None

    def _blocks(self, k):
        """The vertex matrices sigma_v(k), in vertex order."""
        return [rule(k) for rule in self._rules]

    def _assemble(self, blocks) -> np.ndarray:
        n = self.table.n_channels
        sigma = np.zeros(n * n, dtype=complex)
        if blocks:
            sigma[self._flat] = np.concatenate([b.ravel() for b in blocks])
        return sigma.reshape(n, n)

    def sigma(self, k) -> np.ndarray:
        """Sigma(k) over all channels, leads first, as in the bond table."""
        return self._sigma if self._sigma is not None else self._assemble(self._blocks(k))

    def _interior_system(self, ks, sigma=None):
        """I - Sigma_BB T(k) stacked over a 1-D array of k, and T(k).

        ``sigma`` is Sigma(k) when the caller has built it already: one
        matrix for every k, or a stack of one per k.
        """
        nl, nb = self.table.n_leads, self.table.n_bonds
        tk = np.exp((1j * ks)[:, None] * self.table.bond_lengths)
        if sigma is None:
            sigma = self._sigma
        if sigma is not None:
            s_bb = sigma[..., nl:, nl:]
        else:
            s_bb = np.stack([self._assemble(self._blocks(complex(k)))[nl:, nl:] for k in ks])
        m = s_bb * tk[:, None, :]
        np.subtract(np.eye(nb), m, out=m)
        return m, tk

    def interior_det_many(self, ks, blocks=None) -> np.ndarray:
        """D(k) = det(I - Sigma_BB T(k)) for every k of a 1-D array.

        The matrices are stacked and handed to LAPACK in chunks of about
        ``_DET_CHUNK_ENTRIES`` entries; each determinant is bit-identical to
        that of the single matrix. ``blocks`` are the vertex matrices
        sigma_v(k) of every k (see :meth:`_blocks`) when the caller has built
        them already. Raises :class:`DeterminantOverflow` when some D(k) is
        not finite.
        """
        ks = np.asarray(ks, dtype=complex)
        nb = self.table.n_bonds
        if nb == 0:
            return np.ones(len(ks), dtype=complex)
        out = np.empty(len(ks), dtype=complex)
        per_chunk = max(1, _DET_CHUNK_ENTRIES // (nb * nb))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(ks), per_chunk):
                part = slice(start, start + per_chunk)
                sigma = None if blocks is None else np.stack(
                    [self._assemble(b) for b in blocks[part]])
                m, _ = self._interior_system(ks[part], sigma)
                out[part] = np.linalg.det(m)
        if not np.isfinite(out).all():
            i = int(np.argmin(np.isfinite(out)))
            raise DeterminantOverflow(
                f"determinant overflow at k = {complex(ks[i])}: |D| grows like "
                f"exp(|Im k| * total bond length) = "
                f"exp({abs(ks[i].imag) * float(np.sum(self.table.bond_lengths)):.4g})"
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
        nl = self.table.n_leads
        s_ll, s_lb, s_bl = sigma[:nl, :nl], sigma[:nl, nl:], sigma[nl:, :nl]
        if self.table.n_bonds == 0:
            return ScatteringEvaluation(k=k, s=s_ll.copy(), interior_det=1.0 + 0.0j)
        m, tk = self._interior_system(np.array([k]), sigma)
        m, tk = m[0], tk[0]
        det = lu_det(m)
        if abs(det) < _SINGULAR_TOL and k.imag == 0:
            raise SingularInterior(
                f"interior system singular at k = {k} (|D| = {abs(det):.3e}); "
                "this k hosts a bound state or exceptional point",
                k=k,
                determinant=det,
            )
        try:
            x = np.linalg.solve(m, s_bl)
        except np.linalg.LinAlgError as exc:
            raise SingularInterior(f"interior system exactly singular at k = {k}",
                                   k=k, determinant=det) from exc
        s = s_ll + (s_lb * tk[None, :]) @ x
        return ScatteringEvaluation(k=k, s=s, interior_det=det)


def scattering_matrix(og: OpenGraph, k) -> ScatteringEvaluation:
    """Evaluate S(k) for an open graph.

    Raises :class:`SingularInterior` at real k where the interior system is
    singular (an exceptional point, e.g. a bound state decoupled from the
    leads); no regularized S is returned there.
    """
    return Assembly(og).scattering(k)


def secular_value(og: OpenGraph, k) -> complex:
    """det(I - S(k)); its real zeros are the compact graph's eigenvalues
    when leads are attached at Neumann vertices."""
    ev = scattering_matrix(og, k)
    return lu_det(np.eye(ev.s.shape[0]) - ev.s)


def interior_determinant(og: OpenGraph, k) -> complex:
    """D(k) = det(I - Sigma_BB T(k)); holomorphic in k for k-independent
    conditions, with resonance poles of S(k) at its zeros."""
    k = complex(k)
    if k == 0:
        raise ZeroK("k must be nonzero")
    return Assembly(og).interior_det(k)


# ---------------------------------------------------------------------------
# compact spectra
# ---------------------------------------------------------------------------

def _closed(graph: MetricGraph) -> OpenGraph:
    # Internal shim: the assembly machinery accepts a lead-free OpenGraph.
    return OpenGraph(graph, ())


def _det_phase(blocks) -> float:
    """Principal argument of the determinant of the block-diagonal matrix."""
    acc = 1.0 + 0.0j
    for b in blocks:
        d = lu_det(b)
        acc *= d / abs(d)
    return cmath.phase(acc)


class _RealSecular:
    """Phase-regularized secular function of a closed graph.

    For unitary channel matrices U(k) = Sigma T(k), the function
    r(k) = det(I - U) * exp(-i arg det U / 2) * i^n is real for real k and
    changes sign at simple eigenvalues, which makes bracketing reliable.
    The phase of det U is exp(i k sum L_b) det Sigma, exactly linear in k
    when Sigma is constant; otherwise det Sigma(k) is taken from the same
    vertex matrices sigma_v(k) as D(k), built once per k.
    """

    def __init__(self, asm: Assembly):
        self.asm = asm
        self.total_bond_length = float(np.sum(asm.table.bond_lengths))
        self.n = asm.table.n_bonds
        self._phase0 = _det_phase(asm._blocks(1.0)) if asm.k_independent else None

    def value(self, k):
        return self.values(np.array([k], dtype=float))[0]

    def values(self, ks):
        """``value`` at every k of an array, with one batched determinant call."""
        asm = self.asm
        if self._phase0 is not None:
            fs = asm.interior_det_many(ks)
            phases = [self._phase0] * len(ks)
        else:
            blocks = [asm._blocks(k) for k in ks]
            fs = asm.interior_det_many(ks, blocks)
            phases = [_det_phase(b) for b in blocks]
        turn = 1j ** self.n
        return np.array([
            (complex(f) * cmath.exp(-0.5j * (p + k * self.total_bond_length)) * turn).real
            for f, p, k in zip(fs, phases, ks)])


def _bisect(sec, lo, hi, flo):
    """Midpoints of the brackets [lo, hi] of sign changes of ``sec.value``
    (``flo`` its values at ``lo``) after bisection. Every open bracket is
    halved at each step, all with one batched evaluation, and each stops by
    its own rules: an exact zero, a width below 1e-13 max(1, mid), or 80
    steps.
    """
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    open_ = np.arange(len(lo))
    for _ in range(80):
        if not len(open_):
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        fm = sec.values(mid)
        zero = fm == 0.0
        left = ~zero & (flo[open_] * fm < 0)
        right = ~zero & ~left
        lo[open_[zero | right]] = mid[zero | right]
        flo[open_[right]] = fm[right]
        hi[open_[zero | left]] = mid[zero | left]
        width = hi[open_] - lo[open_]
        open_ = open_[~zero & ~(width < 1e-13 * np.maximum(1.0, mid))]
    return 0.5 * (lo + hi)


def eigenvalues_compact(graph: MetricGraph, window, *, node_budget: int = 2_000_000) -> SpectrumWindow:
    """Locate the Laplacian eigenvalues (as k values) in a real window.

    The secular function is scanned with step min(0.01, pi / (4 L_total)),
    sign changes are bisected, near-zero dips are polished by Newton, and
    each candidate's multiplicity comes from the winding number of the
    secular function on a small circle around it.
    """
    if isinstance(window, SpectrumWindow):
        k_min, k_max = window.k_min, window.k_max
    else:
        k_min, k_max = window
    if not (0 < k_min < k_max):
        raise ValidationError(f"window must satisfy 0 < k_min < k_max, got ({k_min}, {k_max})")

    if not graph.edges:
        return SpectrumWindow(k_min, k_max, ())

    asm = Assembly(_closed(graph))
    total = graph.total_length
    step = min(0.01, math.pi / (4.0 * total))
    n_samples = int(math.ceil((k_max - k_min) / step)) + 1
    if n_samples > node_budget:
        raise WindowTooWide(
            f"scan would need {n_samples} nodes (budget {node_budget}); shrink the window"
        )

    sec = _RealSecular(asm)
    ks = np.linspace(k_min, k_max, n_samples)
    rs = sec.values(ks)

    # Sign changes bracket odd-multiplicity zeros.
    at = np.flatnonzero((rs[:-1] != 0.0) & (rs[:-1] * rs[1:] < 0))
    bisected = dict(zip(at.tolist(), _bisect(sec, ks[at], ks[at + 1], rs[at])))

    candidates = []
    for i in range(n_samples - 1):
        if rs[i] == 0.0:
            candidates.append(ks[i])
        elif i in bisected:
            candidates.append(bisected[i])
    if rs[-1] == 0.0:
        candidates.append(ks[-1])

    # Dips catch even-multiplicity zeros that never change sign.
    absr = np.abs(rs)
    win = 30
    for i in range(1, n_samples - 1):
        if absr[i] <= absr[i - 1] and absr[i] <= absr[i + 1]:
            local = np.max(absr[max(0, i - win):min(n_samples, i + win + 1)])
            if local > 0 and absr[i] < 1e-4 * local:
                candidates.append(ks[i])

    # Polish, verify, deduplicate.
    found = []
    for k0 in candidates:
        k_star, _, _ = asm.newton(k0, max_iter=150, tol=1e-13, trust=0.5)
        if abs(k_star.imag) > 1e-9:
            continue
        kr = float(k_star.real)
        if not (k_min - 1e-9 <= kr <= k_max + 1e-9):
            continue
        if any(abs(kr - f) < 1e-7 for f in found):
            continue
        found.append(kr)

    results = []
    rate = float(np.sum(asm.table.bond_lengths)) + 1.0
    found_sorted = sorted(found)
    for i, kr in enumerate(found_sorted):
        # A zero of multiplicity m has |D| ~ r^m on a radius-r circle, which
        # can undercut the contour zero tolerance; grow the circle, but stay
        # clear of neighboring zeros.
        gaps = [abs(kr - other) for j, other in enumerate(found_sorted) if j != i]
        cap = min([0.05] + [0.4 * g for g in gaps])
        radii = itertools.takewhile(lambda r: r <= max(cap, 1e-4),
                                    (1e-4 * 2.0 ** i for i in itertools.count()))
        try:
            mult, _ = contours.first_winding(
                lambda r: contours.circle_winding(asm.interior_det_many, complex(kr), r,
                                                  samples=48, rate_hint=rate),
                radii)
        except BoundaryZero:
            mult = 1
        if mult < 1:
            continue
        results.append(Eigenvalue(k=kr, multiplicity=mult, residual=abs(asm.interior_det(kr))))

    return SpectrumWindow(k_min, k_max, tuple(results))
