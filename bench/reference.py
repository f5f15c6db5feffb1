"""Reference computations that share no code with the library under test.

The benchmark checks every answer against the functions here. They follow
the bond scattering construction of Kottos & Smilansky (Ann. Phys. 274
(1999) 76) written out from scratch:

- one channel matrix sigma_v per vertex, built from the condition's type and
  payload, with the local channel order of docs/formats.md (leads at the
  vertex by lead id, then edge ends by (edge id, end));
- unknowns are the amplitudes departing from every edge end; the amplitude
  arriving at an end is the one departing from the other end of its edge,
  times exp(ik L);
- D(k) = det(I - Sigma_EE P T(k)) and, by a Schur complement on the edge
  ends, S(k) = Sigma_LL + Sigma_LE P T (I - Sigma_EE P T)^-1 Sigma_EL.

Zeros of D are counted by the argument principle on densely sampled
contours with ``numpy.unwrap``, and equilateral all-Neumann spectra come
from von Below's characteristic equation (Linear Algebra Appl. 71 (1985)
309). Only the condition classes of the library are read, as plain data.
"""

from __future__ import annotations

import math

import numpy as np

# Batches of stacked matrices are cut so that one batch holds at most this
# many complex entries (about 3 MB), which keeps the oracle out of the
# workload's peak memory.
_BATCH_ENTRIES = 200_000


def vertex_sigma(condition, degree, k=None):
    """Channel matrix of one vertex condition; k only matters for linear_ab."""
    name = condition.type_name
    d = degree
    if name == "neumann":
        return np.full((d, d), 2.0 / d, dtype=complex) - np.eye(d)
    if name == "dirichlet":
        return -np.eye(d, dtype=complex)
    if name == "dft":
        p = np.arange(d)
        return np.exp(2j * np.pi * np.outer(p, p) / d) / math.sqrt(d)
    if name == "fixed_unitary":
        return np.array(condition.matrix, dtype=complex)
    if name == "linear_ab":
        a = np.array(condition.a, dtype=complex)
        b = np.array(condition.b, dtype=complex)
        return -np.linalg.solve(a + 1j * k * b, a - 1j * k * b)
    raise ValueError(f"no reference for condition {name!r}")


class BondSystem:
    """The bond scattering system of a graph with leads (or of a compact one).

    ``graph`` is a MetricGraph and ``leads`` a sequence of Lead records, in
    the order that fixes the rows and columns of S.
    """

    def __init__(self, graph, leads=()):
        self.leads = list(leads)
        self.edges = list(graph.edges)
        self.nl = len(self.leads)
        self.ne = 2 * len(self.edges)
        # edge end 2*i + end departs from vertex (from if end == 0 else to)
        self.end_lengths = np.repeat([e.length for e in self.edges], 2).astype(float)
        self.total_bond_length = float(self.end_lengths.sum())
        self.partner = np.arange(self.ne) ^ 1  # the other end of the same edge

        by_id = sorted(range(len(self.edges)), key=lambda i: self.edges[i].id)
        self.vertices = []
        for v in graph.vertices:
            chans = [j for j in sorted(range(self.nl), key=lambda j: self.leads[j].id)
                     if self.leads[j].at == v.id]
            for i in by_id:
                e = self.edges[i]
                if e.from_vertex == v.id:
                    chans.append(self.nl + 2 * i)
                if e.to_vertex == v.id:
                    chans.append(self.nl + 2 * i + 1)
            if chans:
                self.vertices.append((v.condition, np.array(chans)))
        self.k_independent = all(c.type_name != "linear_ab" for c, _ in self.vertices)
        self._sigma_const = self._sigma(None) if self.k_independent else None

    @classmethod
    def of(cls, og):
        """System of an OpenGraph, or of a compact MetricGraph."""
        if hasattr(og, "leads"):
            return cls(og.graph, og.leads)
        return cls(og)

    def _sigma(self, k):
        n = self.nl + self.ne
        sigma = np.zeros((n, n), dtype=complex)
        for cond, chans in self.vertices:
            sigma[np.ix_(chans, chans)] = vertex_sigma(cond, len(chans), k)
        return sigma

    def sigma(self, k):
        return self._sigma_const if self._sigma_const is not None else self._sigma(k)

    def interior(self, k):
        """Sigma_EE P, with columns still to be scaled by exp(ik L)."""
        s = self.sigma(k)
        return s[self.nl:, self.nl:][:, self.partner]

    def det(self, ks):
        """D(k) for an array of k as (phase factor, log|D|), batched."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        if self.ne == 0:
            return np.ones(len(ks), dtype=complex), np.zeros(len(ks))
        if not self.k_independent:
            raise ValueError("D(k) batches need k-independent conditions")
        a = self.interior(None)
        diag = np.arange(self.ne)
        chunk = max(1, _BATCH_ENTRIES // (self.ne * self.ne))
        signs, logs = [], []
        for i in range(0, len(ks), chunk):
            t = np.exp(1j * np.outer(ks[i:i + chunk], self.end_lengths))
            m = a[None] * -t[:, None, :]
            m[:, diag, diag] += 1.0
            sign, logabs = np.linalg.slogdet(m)
            signs.append(sign)
            logs.append(logabs)
        return np.concatenate(signs), np.concatenate(logs)

    def s_matrix(self, k):
        """S(k) by the Schur complement on the edge ends."""
        k = complex(k)
        s = self.sigma(k)
        nl = self.nl
        if self.ne == 0:
            return s[:nl, :nl].copy()
        # P T: the partner end's amplitude, advanced by exp(ik L) (both ends
        # of an edge share L, so P and T commute)
        t = np.exp(1j * k * self.end_lengths)
        m = np.eye(self.ne) - s[nl:, nl:][:, self.partner] * t[None, :]
        x = np.linalg.solve(m, s[nl:, :nl])
        return s[:nl, :nl] + (s[:nl, nl:][:, self.partner] * t[None, :]) @ x


# ---------------------------------------------------------------------------
# argument-principle zero counting
# ---------------------------------------------------------------------------

class Unresolved(Exception):
    """The contour passes too close to a zero to count reliably."""


def zero_count(system, re_min, re_max, im_min, im_max, *, max_step_phase=0.3,
               max_points=1 << 18):
    """Number of zeros of D, with multiplicity, inside the rectangle.

    The boundary is first sampled at a spacing set by the bulk rotation rate
    of D (at most its total bond length per unit of k); every gap across
    which the phase moves by more than ``max_step_phase`` is then halved
    until none is left, and the unwrapped phase change gives the count.
    """
    corners = [complex(re_min, im_min), complex(re_max, im_min),
               complex(re_max, im_max), complex(re_min, im_max)]
    density = 2.0 * (system.total_bond_length + 1.0)
    pts = []
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        n = max(8, int(math.ceil(abs(z1 - z0) * density)))
        pts.append(z0 + (z1 - z0) * np.arange(n) / n)
    pts = np.concatenate(pts)
    sign = _checked_sign(system, pts)
    while True:
        nxt_pts, nxt_sign = np.roll(pts, -1), np.roll(sign, -1)
        bad = np.abs(np.angle(nxt_sign / sign)) > max_step_phase
        if not bad.any():
            break
        if len(pts) + bad.sum() > max_points:
            raise Unresolved(f"contour needs more than {max_points} samples")
        mid = (pts[bad] + nxt_pts[bad]) / 2
        # a gap that wraps around (last to first point) inserts at the end
        at = np.nonzero(bad)[0] + 1
        pts = np.insert(pts, at, mid)
        sign = np.insert(sign, at, _checked_sign(system, mid))
    phase = np.unwrap(np.angle(np.append(sign, sign[0])))
    winding = (phase[-1] - phase[0]) / (2 * math.pi)
    n = round(winding)
    if abs(winding - n) > 1e-6:
        raise Unresolved(f"winding {winding} is not an integer")
    return int(n)


def _checked_sign(system, pts):
    sign, logabs = system.det(pts)
    if not np.all(np.isfinite(logabs)) or np.any(sign == 0):
        raise Unresolved("D vanishes or overflows on the contour")
    return sign


def real_zeros(system, k_min, k_max, step):
    """Sign changes of the real secular function of a compact graph on a
    grid of spacing at most ``step``; returns the midpoints of the brackets.

    On the real axis U = Sigma_EE P T(k) is unitary, and
    r(k) = D(k) exp(-i Theta / 2) i^n with Theta = arg det Sigma_EE P + k sum L
    equals 2^n prod sin(theta_j / 2) over the eigenphases of U: real, and of
    changing sign at every simple zero. Zeros closer than ``step`` may be
    missed, so callers compare the number found with ``zero_count``.
    """
    n = max(2, int(math.ceil((k_max - k_min) / step)) + 1)
    ks = np.linspace(k_min, k_max, n)
    sign, _ = system.det(ks)
    theta0 = np.angle(np.linalg.det(system.interior(None)))
    r = (sign * np.exp(-0.5j * (theta0 + ks * system.total_bond_length)) * 1j ** system.ne).real
    flips = np.nonzero(r[:-1] * r[1:] < 0)[0]
    return list((ks[flips] + ks[flips + 1]) / 2)


def count_between(system, re_min, re_max, im_min, im_max, margin):
    """Zero counts of the rectangle shrunk and grown by ``margin`` on its
    left, right and bottom sides (the top side is left where it is).

    A search result is right when its count lies between the two; they are
    equal unless a zero sits within ``margin`` of those sides.
    """
    inner = zero_count(system, re_min + margin, re_max - margin, im_min + margin, im_max)
    outer = zero_count(system, re_min - margin, re_max + margin, im_min - margin, im_max)
    return inner, outer


def relative_residual(system, k, radius=1e-4):
    """|D(k)| relative to the largest |D| on a small circle around k.

    Near a zero of multiplicity m the circle value is about |D^(m)| r^m / m!,
    so a true zero gives a ratio at rounding level and any other point a
    ratio of order one.
    """
    ring = k + radius * np.exp(2j * np.pi * np.arange(16) / 16)
    _, log_ring = system.det(ring)
    _, log_at = system.det([k])
    return float(np.exp(log_at[0] - np.max(log_ring)))


# ---------------------------------------------------------------------------
# exact spectra of equilateral Neumann graphs
# ---------------------------------------------------------------------------

def equilateral_spectrum(graph, k_min, k_max, tol=1e-9):
    """Eigenvalues (k, multiplicity) of a connected equilateral graph with
    Neumann conditions everywhere and no loops or parallel edges.

    Von Below: away from k in (pi / l) Z the eigenvalues solve
    cos(k l) = mu for the eigenvalues mu of the transition matrix
    D^-1 A, with the multiplicity of mu. At k = 2 m pi / l the multiplicity
    is E - V + 2; at k = (2 m + 1) pi / l it is E - V + 2 on a bipartite
    graph and E - V otherwise.
    """
    lengths = {e.length for e in graph.edges}
    if len(lengths) != 1:
        raise ValueError("graph is not equilateral")
    ell = lengths.pop()
    ids = [v.id for v in graph.vertices]
    index = {vid: i for i, vid in enumerate(ids)}
    n_v, n_e = len(ids), len(graph.edges)
    adj = np.zeros((n_v, n_v))
    for e in graph.edges:
        a, b = index[e.from_vertex], index[e.to_vertex]
        if a == b or adj[a, b]:
            raise ValueError("loops and parallel edges are not covered")
        adj[a, b] = adj[b, a] = 1.0
    deg = adj.sum(axis=1)
    d_half = 1.0 / np.sqrt(deg)
    mu = np.linalg.eigvalsh(adj * d_half[:, None] * d_half[None, :])
    bipartite = bool(np.any(np.abs(mu + 1.0) < tol))

    found = []

    def add(k, mult):
        if mult > 0 and k_min <= k <= k_max:
            found.append((k, mult))

    m_max = int(k_max * ell / (2 * math.pi)) + 2
    for value in np.unique(np.round(mu[np.abs(np.abs(mu) - 1.0) > tol], 9)):
        mult = int(np.sum(np.abs(mu - value) < 1e-7))
        theta = math.acos(float(value))
        for m in range(m_max):
            add((theta + 2 * math.pi * m) / ell, mult)
            add((2 * math.pi - theta + 2 * math.pi * m) / ell, mult)
    for m in range(1, 2 * m_max):
        if m % 2 == 0:
            add(m * math.pi / ell, n_e - n_v + 2)
        else:
            add(m * math.pi / ell, n_e - n_v + (2 if bipartite else 0))
    return sorted(found)


# ---------------------------------------------------------------------------
# the oracles against closed forms
# ---------------------------------------------------------------------------

def self_check(star, resonator):
    """Check the oracles themselves; returns a list of failure messages.

    ``star`` is a graph with d leads at one Neumann vertex and no edges,
    whose S is (2/d) J - I at every k. ``resonator`` is one lead at a
    Neumann vertex with two unit edges ending at Dirichlet vertices: its
    poles are (2m+1) pi/2 - i ln(3)/2 and D also vanishes at the trapped
    states k = m pi on the real axis.
    """
    problems = []
    sys_star = BondSystem.of(star)
    d = sys_star.nl
    expected = np.full((d, d), 2.0 / d) - np.eye(d)
    for k in (0.7, 3.1 + 0.4j):
        if np.max(np.abs(sys_star.s_matrix(k) - expected)) > 1e-12:
            problems.append(f"star S differs from (2/d)J - I at k = {k}")

    sys_res = BondSystem.of(resonator)
    poles = [(2 * m + 1) * math.pi / 2 - 0.5j * math.log(3.0) for m in range(3)]
    for p in poles:
        if relative_residual(sys_res, p) > 1e-8:
            problems.append(f"resonator D does not vanish at {p}")
    # three poles and the trapped states pi, 2 pi, 3 pi
    count = zero_count(sys_res, 0.5, 10.0, -2.0, 0.5)
    if count != 6:
        problems.append(f"resonator zero count {count}, expected 6")
    return problems
