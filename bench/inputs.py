"""Seeded input graphs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns library
graph objects, so the program under test receives only finished inputs.
Sizes and total lengths are fixed by the caller, not drawn: a job's cost
follows the total bond length, the window and the matrix size, and fixing
those keeps the work of one seed close to that of any other.
"""

from __future__ import annotations

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
from qgscatter.symmetry_rep import FiniteGroup, GraphAction, MatrixRep


def random_unitary(rng, n):
    """Haar-distributed unitary matrix."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _wiring(rng, n_vertices, n_edges):
    """Edge endpoint pairs of a connected graph without loops: a random
    spanning tree, then extra edges between distinct vertices."""
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n_vertices)]
    while len(pairs) < n_edges:
        a, b = (int(x) for x in rng.choice(n_vertices, size=2, replace=False))
        pairs.append((a, b))
    return pairs


def _lengths(rng, n_edges, total, quantum=None):
    """Edge lengths summing to ``total``: drawn from [0.6, 1.4] and rescaled,
    which makes them rationally independent, or, with ``quantum``, whole
    multiples of it, at least two each (commensurate)."""
    if quantum is None:
        raw = rng.uniform(0.6, 1.4, size=n_edges)
        return list(raw * (total / raw.sum()))
    quanta = int(round(total / quantum))
    extra = rng.multinomial(quanta - 2 * n_edges, np.full(n_edges, 1.0 / n_edges))
    return [quantum * (2 + int(x)) for x in extra]


def _degrees(n_vertices, pairs, lead_at):
    deg = [0] * n_vertices
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    for v in lead_at:
        deg[v] += 1
    return deg


def _assemble(conditions, pairs, lengths, lead_at):
    names = [f"v{i}" for i in range(len(conditions))]
    vertices = [Vertex(names[i], c) for i, c in enumerate(conditions)]
    edges = [Edge(f"e{j:03d}", names[a], names[b], float(length))
             for j, ((a, b), length) in enumerate(zip(pairs, lengths))]
    leads = [names[v] for v in lead_at]
    pending = {nm: leads.count(nm) for nm in set(leads)}
    graph = build_graph(vertices, edges, pending_leads=pending)
    return attach_leads(graph, leads) if leads else graph


def unitary_open_graph(rng, n_edges, n_leads, total_length):
    """Open graph with k-independent conditions of every kind: Neumann, DFT
    and fixed unitary matrices, and Dirichlet on about half of the degree-one
    vertices without a lead. A Dirichlet vertex of higher degree would cut
    the graph into pieces that do not see each other, and how much of the
    graph the leads see would then vary from seed to seed."""
    n_v = n_edges // 2 + 1
    pairs = _wiring(rng, n_v, n_edges)
    lead_at = [int(v) for v in rng.choice(n_v, size=n_leads, replace=False)]
    deg = _degrees(n_v, pairs, lead_at)
    conditions = []
    for v in range(n_v):
        roll = rng.random()
        if deg[v] == 1 and v not in lead_at and roll < 0.5:
            conditions.append(Dirichlet())
        elif roll < 0.5:
            conditions.append(Neumann())
        elif roll < 0.75:
            conditions.append(DFT())
        else:
            conditions.append(FixedUnitary(random_unitary(rng, deg[v])))
    return _assemble(conditions, pairs, _lengths(rng, n_edges, total_length), lead_at)


def compact_graph(rng, n_edges, total_length):
    """Connected compact graph, Neumann everywhere except Dirichlet on about
    half of the degree-one vertices; incommensurate lengths."""
    n_v = n_edges // 2 + 1
    pairs = _wiring(rng, n_v, n_edges)
    deg = _degrees(n_v, pairs, [])
    conditions = [Dirichlet() if deg[v] == 1 and rng.random() < 0.5 else Neumann()
                  for v in range(n_v)]
    return _assemble(conditions, pairs, _lengths(rng, n_edges, total_length), [])


def weakly_coupled_pair(coupling=0.2, detuning=0.005):
    """One lead at a vertex that couples it weakly to two edges of lengths 1
    and 1 + ``detuning``, both ending at Dirichlet vertices. The vertex
    matrix is exp(iH), H coupling the lead to either edge with strength
    ``coupling``; nearly equal edges give pairs of resonances about
    ``detuning`` k apart, just below the real axis."""
    h = np.zeros((3, 3))
    h[0, 1:] = h[1:, 0] = coupling
    w, v = np.linalg.eigh(h)
    graph = build_graph(
        [Vertex("c", FixedUnitary((v * np.exp(1j * w)) @ v.conj().T)),
         Vertex("d1", Dirichlet()), Vertex("d2", Dirichlet())],
        [Edge("e1", "c", "d1", 1.0), Edge("e2", "c", "d2", 1.0 + detuning)],
        pending_leads={"c": 1})
    return attach_leads(graph, ["c"])


def equilateral_graph(n_vertices, pairs, length=1.0):
    """All-Neumann graph with every edge of the same length."""
    return _assemble([Neumann()] * n_vertices, pairs, [length] * len(pairs), [])


def robin_open_graph(rng, n_edges, n_leads, total_length, n_robin):
    """Open graph whose first ``n_robin`` vertices carry k-dependent linear
    conditions A f + B f' = 0 with A Hermitian and B = I (self-adjoint), the
    rest Neumann."""
    n_v = n_edges // 2 + 1
    pairs = _wiring(rng, n_v, n_edges)
    lead_at = [int(v) for v in rng.choice(n_v, size=n_leads, replace=False)]
    deg = _degrees(n_v, pairs, lead_at)
    conditions = []
    for v in range(n_v):
        if v < n_robin:
            h = rng.standard_normal((deg[v], deg[v])) + 1j * rng.standard_normal((deg[v], deg[v]))
            conditions.append(LinearAB((h + h.conj().T) / 2, np.eye(deg[v])))
        else:
            conditions.append(Neumann())
    return _assemble(conditions, pairs, _lengths(rng, n_edges, total_length), lead_at)


def commensurate_open_graph(rng, n_edges, n_leads, total_length, quantum):
    """Neumann open graph whose lengths are whole multiples of ``quantum``."""
    n_v = n_edges // 2 + 1
    pairs = _wiring(rng, n_v, n_edges)
    lead_at = [int(v) for v in rng.choice(n_v, size=n_leads, replace=False)]
    lengths = _lengths(rng, n_edges, total_length, quantum)
    return _assemble([Neumann()] * n_v, pairs, lengths, lead_at)


def cyclic_group(n):
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return FiniteGroup(tuple("e" if j == 0 else f"r{j}" for j in range(n)), table)


def cyclic_irrep(group, j):
    """The one-dimensional representation r^m -> exp(2 pi i j m / n)."""
    n = group.order
    return MatrixRep(group, tuple(np.array([[np.exp(2j * np.pi * j * m / n)]])
                                  for m in range(n)))


def pinwheel(rng, n_arms, spokes, ring):
    """Rotation-symmetric open graph with its cyclic action.

    Each of the ``n_arms`` arms is a path of ``spokes`` edges from the hub to
    a tip carrying one lead; with ``ring`` the tips are also joined in a
    cycle. Arm edge lengths and the ring length are drawn once and shared by
    all arms, so rotation by one arm is a symmetry.
    """
    arm = rng.uniform(0.6, 1.4, size=spokes)
    ring_length = float(rng.uniform(0.6, 1.4))
    vertices = [Vertex("h", Neumann())]
    edges = []
    tips = []
    for i in range(n_arms):
        prev = "h"
        for s in range(spokes):
            node = f"a{i}_{s}"
            vertices.append(Vertex(node, Neumann()))
            edges.append(Edge(f"s{s}_{i:02d}", prev, node, float(arm[s])))
            prev = node
        tips.append(prev)
    if ring:
        edges += [Edge(f"t_{i:02d}", tips[i], tips[(i + 1) % n_arms], ring_length)
                  for i in range(n_arms)]
    graph = build_graph(vertices, edges, pending_leads={t: 1 for t in tips})
    og = attach_leads(graph, tips)

    group = cyclic_group(n_arms)
    lead_perm = np.array([[(i + g) % n_arms for i in range(n_arms)] for g in range(n_arms)])
    # edges sorted by id: spoke level s, arm i at position s * n + i; ring after
    order = sorted(range(len(edges)), key=lambda j: edges[j].id)
    position = {edges[j].id: p for p, j in enumerate(order)}
    edge_perm = np.zeros((n_arms, len(edges)), dtype=int)
    for g in range(n_arms):
        for i in range(n_arms):
            for s in range(spokes):
                edge_perm[g, position[f"s{s}_{i:02d}"]] = position[f"s{s}_{(i + g) % n_arms:02d}"]
            if ring:
                edge_perm[g, position[f"t_{i:02d}"]] = position[f"t_{(i + g) % n_arms:02d}"]
    action = GraphAction(group, lead_perm, edge_perm, np.zeros_like(edge_perm, dtype=bool))
    return og, action
