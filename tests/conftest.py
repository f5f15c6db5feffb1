"""Shared builders and oracles for the test suite."""

import importlib.util
import math
import pathlib

import numpy as np

from qgscatter.graph_core import (
    DFT,
    Dirichlet,
    Edge,
    FixedUnitary,
    LinearAB,
    Neumann,
    Vertex,
    attach_leads,
    build_graph,
)
from qgscatter.global_scattering import Assembly
from qgscatter.symmetry_rep import FiniteGroup, GraphAction, MatrixRep, symmetric_group

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


def _bench_module(name):
    """``bench/<name>.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, DATA_DIR.parent / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_reference():
    """The benchmark's oracle, ``bench/reference.py``, which shares no code
    with the library."""
    return _bench_module("reference")


def bench_inputs():
    """The benchmark's graph generators, ``bench/inputs.py``."""
    return _bench_module("inputs")

R2D_MATRICES = {
    "e": [[1, 0], [0, 1]],
    "(1,2)": [[-1, 1], [0, 1]],
    "(1,3)": [[0, -1], [-1, 0]],
    "(2,3)": [[1, 0], [1, -1]],
    "(1,2,3)": [[0, -1], [1, -1]],
    "(1,3,2)": [[-1, 1], [-1, 0]],
}


def subspace_distance(a, b):
    """Distance between the column spans of a and b.

    Spectral norm of the difference of the orthogonal projectors, i.e. the
    sine of the largest principal angle: 0 for identical spans, 1 for spans
    with orthogonal directions or different dimensions. Computed from the
    projectors directly, which stays at machine precision for equal spans
    (the sqrt(1 - cos^2) route loses half the digits).
    """
    qa, _ = np.linalg.qr(np.asarray(a, dtype=complex))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=complex))
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    pa = qa @ qa.conj().T
    pb = qb @ qb.conj().T
    return float(np.linalg.norm(pa - pb, ord=2))


def conjugation_residual(pi, s1, s2, ks) -> float:
    """max_k ||Pi S1(k) - S2(k) Pi||_F over the given samples."""
    pi = np.asarray(pi, dtype=complex)
    out = 0.0
    for k in ks:
        a = np.asarray(s1(k), dtype=complex)
        b = np.asarray(s2(k), dtype=complex)
        out = max(out, float(np.linalg.norm(pi @ a - b @ pi)))
    return out


def star_open_graph(n_leads, condition=None):
    """Single vertex with n semi-infinite leads."""
    g = build_graph([Vertex("c", condition or Neumann())], [],
                    pending_leads={"c": n_leads})
    return attach_leads(g, ["c"] * n_leads)


def two_pendant_resonator():
    """Lead plus two unit Dirichlet-terminated edges at a Neumann vertex."""
    g = build_graph(
        [Vertex("c", Neumann()), Vertex("w1", Dirichlet()), Vertex("w2", Dirichlet())],
        [Edge("e1", "c", "w1", 1.0), Edge("e2", "c", "w2", 1.0)],
        pending_leads={"c": 1},
    )
    return attach_leads(g, ["c"])


def twin_resonators():
    """Two disjoint copies of the two-pendant resonator: D factors into
    identical pieces and every zero doubles."""
    verts, edges = [], []
    for tag in ("x", "y"):
        verts += [Vertex(f"c{tag}", Neumann()), Vertex(f"w1{tag}", Dirichlet()),
                  Vertex(f"w2{tag}", Dirichlet())]
        edges += [Edge(f"e1{tag}", f"c{tag}", f"w1{tag}", 1.0),
                  Edge(f"e2{tag}", f"c{tag}", f"w2{tag}", 1.0)]
    g = build_graph(verts, edges, pending_leads={"cx": 1, "cy": 1})
    return attach_leads(g, ["cx", "cy"])


def s3_star_action():
    """The six-lead star with the full permutation action on three objects;
    leads are labeled by group elements, g . l_h = l_{gh}."""
    group, _ = symmetric_group(3)
    og = star_open_graph(6)
    n = group.order
    lead_perm = np.empty((n, n), dtype=int)
    for gi in range(n):
        for hi in range(n):
            lead_perm[gi, hi] = group.multiply(gi, hi)
    act = GraphAction(group, lead_perm)
    rho_2d = MatrixRep(group, tuple(np.array(R2D_MATRICES[e], dtype=complex)
                                    for e in group.elements))
    return og, act, rho_2d


def cyclic_group(n):
    table = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int)
    names = tuple("e" if j == 0 else f"r{j}" for j in range(n))
    return FiniteGroup(names, table)


def pinwheel(rng, n=None, with_ring=None):
    """Random rotation-symmetric star: n identical arms, one lead per arm tip,
    optional ring of equal chords. Returns (open graph, cyclic action)."""
    if n is None:
        n = int(rng.integers(2, 7))
    if with_ring is None:
        with_ring = bool(rng.random() < 0.5) and n >= 3
    arm = float(rng.uniform(0.4, 1.5))
    ring = float(rng.uniform(0.4, 1.5))
    verts = [Vertex("c", Neumann())] + [Vertex(f"t{i}", Neumann()) for i in range(n)]
    edges = [Edge(f"a{i}", "c", f"t{i}", arm) for i in range(n)]
    if with_ring:
        edges += [Edge(f"r{i}", f"t{i}", f"t{(i + 1) % n}", ring) for i in range(n)]
    g = build_graph(verts, edges, pending_leads={f"t{i}": 1 for i in range(n)})
    og = attach_leads(g, [f"t{i}" for i in range(n)])

    group = cyclic_group(n)
    lead_perm = np.array([[(i + j) % n for i in range(n)] for j in range(n)], dtype=int)
    # edge order after sorting by id: arms a0..a{n-1}, then ring r0..r{n-1}
    n_edges = len(edges)
    edge_perm = np.zeros((n, n_edges), dtype=int)
    for j in range(n):
        for i in range(n):
            edge_perm[j, i] = (i + j) % n
        if with_ring:
            for i in range(n):
                edge_perm[j, n + i] = n + (i + j) % n
    act = GraphAction(group, lead_perm, edge_perm, np.zeros_like(edge_perm, dtype=bool))
    return og, act


def random_unitary(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_condition(rng, degree):
    roll = rng.random()
    if roll < 0.4:
        return Neumann()
    if roll < 0.55:
        return Dirichlet()
    if roll < 0.7:
        return DFT()
    if roll < 0.85:
        return FixedUnitary(random_unitary(rng, degree))
    h = rng.standard_normal((degree, degree)) + 1j * rng.standard_normal((degree, degree))
    return LinearAB((h + h.conj().T) / 2, np.eye(degree))


def random_open_graph(rng, max_edges=8, max_leads=6):
    """Random connected multigraph with mixed self-adjoint conditions."""
    n_v = int(rng.integers(1, 6))
    names = [f"v{i}" for i in range(n_v)]
    edges = []
    for i in range(1, n_v):
        j = int(rng.integers(0, i))
        edges.append([f"e{len(edges)}", names[i], names[j], float(rng.uniform(0.3, 1.7))])
    extra = int(rng.integers(0, max(1, max_edges - len(edges)) + 1))
    for _ in range(extra):
        a, b = rng.integers(0, n_v, size=2)
        edges.append([f"e{len(edges)}", names[a], names[b], float(rng.uniform(0.3, 1.7))])
        if len(edges) >= max_edges:
            break
    n_leads = int(rng.integers(1, max_leads + 1))
    lead_at = [names[int(rng.integers(0, n_v))] for _ in range(n_leads)]

    deg = {nm: 0 for nm in names}
    for _, a, b, _l in edges:
        deg[a] += 1
        deg[b] += 1
    for nm in lead_at:
        deg[nm] += 1
    verts = [Vertex(nm, random_condition(rng, deg[nm])) for nm in names if deg[nm] > 0]
    used = {v.id for v in verts}
    g = build_graph(verts, [Edge(*e) for e in edges if e[1] in used and e[2] in used],
                    pending_leads={nm: lead_at.count(nm) for nm in lead_at})
    return attach_leads(g, lead_at)


def random_compact_graph(rng, lead_choice="subset"):
    """Random connected compact graph with Neumann/Dirichlet conditions and
    Neumann vertices chosen for lead attachment.

    ``lead_choice`` "subset" picks 1-3 random Neumann vertices; "all_neumann"
    attaches a lead at every Neumann vertex. The latter is needed for
    exterior/interior comparisons: a cycle hanging off a single vertex hosts
    states at k = 2 pi m / (cycle length) that vanish there, so leads
    outside the cycle never see them. With leads at every Neumann vertex
    such invisible states require exactly commensurate lengths, which random
    lengths rule out.
    """
    n_v = int(rng.integers(2, 6))
    names = [f"v{i}" for i in range(n_v)]
    edges = []
    for i in range(1, n_v):
        j = int(rng.integers(0, i))
        edges.append((f"e{len(edges)}", names[i], names[j], float(rng.uniform(0.4, 1.6))))
    if n_v >= 3 and rng.random() < 0.4:
        a, b = rng.choice(n_v, size=2, replace=False)
        edges.append((f"e{len(edges)}", names[a], names[b], float(rng.uniform(0.4, 1.6))))
    deg = {n: 0 for n in names}
    for _, a, b, _l in edges:
        deg[a] += 1
        deg[b] += 1
    verts = []
    for n in names:
        if deg[n] == 1 and rng.random() < 0.5 and n != names[0]:
            verts.append(Vertex(n, Dirichlet()))
        else:
            verts.append(Vertex(n, Neumann()))
    neumann = [v.id for v in verts if isinstance(v.condition, Neumann)]
    if lead_choice == "all_neumann":
        lead_at = list(neumann)
    else:
        n_leads = int(rng.integers(1, min(3, len(neumann)) + 1))
        lead_at = list(rng.choice(neumann, size=n_leads, replace=False))
    g = build_graph(verts, [Edge(*e) for e in edges],
                    pending_leads={v: lead_at.count(v) for v in lead_at})
    return g, lead_at


# -- exterior-side secular oracles (independent of eigenvalues_compact) -----

def exterior_secular(asm: Assembly, k):
    s = asm.scattering(k).s
    return np.linalg.det(np.eye(s.shape[0]) - s)


def polish_exterior_zero(asm: Assembly, k0, max_iter=60):
    """Newton on det(I - S(k)) with a central-difference derivative."""
    k = complex(k0)
    for _ in range(max_iter):
        h = 1e-7
        d = (exterior_secular(asm, k + h) - exterior_secular(asm, k - h)) / (2 * h)
        if d == 0:
            break
        step = exterior_secular(asm, k) / d
        k = k - step
        if abs(step) < 1e-13:
            break
    return k, abs(exterior_secular(asm, k))


def exterior_blind_zeros(asm: Assembly, og, k_min, k_max):
    """Scan for real zeros of det(I - S(k)): sign changes of the
    phase-regularized determinant plus dips of its modulus."""
    n = og.n_leads
    total = og.graph.total_length
    step = min(0.01, math.pi / (4 * total))
    ks = np.linspace(k_min, k_max, int(math.ceil((k_max - k_min) / step)) + 1)
    dets = np.array([exterior_secular(asm, k) for k in ks])
    sdets = np.array([np.linalg.det(asm.scattering(k).s) for k in ks])
    theta = np.unwrap(np.angle(sdets))
    r = (dets * np.exp(-0.5j * theta) * (1j ** n)).real
    absd = np.abs(dets)
    out = []
    for i in range(len(ks) - 1):
        dip = 0 < i and absd[i] < 1e-2 and absd[i] <= absd[i - 1] and absd[i] <= absd[i + 1]
        if r[i] * r[i + 1] < 0 or dip:
            k_star, res = polish_exterior_zero(asm, ks[i])
            if abs(k_star.imag) < 1e-9 and res < 1e-9 and k_min < k_star.real < k_max:
                if not any(abs(k_star.real - z) < 1e-7 for z in out):
                    out.append(k_star.real)
    return sorted(out)
