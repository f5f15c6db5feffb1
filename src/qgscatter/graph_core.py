"""Immutable data model for metric graphs with leads.

A metric graph is a set of vertices joined by edges of positive length;
attaching semi-infinite leads at chosen vertices turns it into an open
scattering system. Each vertex carries exactly one boundary condition.
All downstream solvers index wave amplitudes through the directed-bond
bookkeeping built by :func:`bond_table`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConditionDegreeMismatch,
    DanglingEndpoint,
    DuplicateId,
    NoLeads,
    NonPositiveLength,
    NotUnitary,
    RankDeficientAB,
    UnknownVertex,
    ValidationError,
)
from .linalg import as_complex_matrix, is_unitary


# ---------------------------------------------------------------------------
# vertex conditions
# ---------------------------------------------------------------------------

def _frozen_array(a):
    arr = np.array(a, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Neumann:
    """Continuity plus vanishing sum of outward derivatives."""

    type_name = "neumann"

    def degree_ok(self, d):
        return d >= 1


@dataclass(frozen=True)
class Dirichlet:
    """Function value pinned to zero on every incident channel."""

    type_name = "dirichlet"

    def degree_ok(self, d):
        return d >= 1


@dataclass(frozen=True, eq=False)
class LinearAB:
    """Conditions A f + B f' = 0 on values and outward derivatives."""

    a: np.ndarray
    b: np.ndarray
    type_name = "linear_ab"

    def __post_init__(self):
        a = as_complex_matrix(self.a, "A")
        b = as_complex_matrix(self.b, "B")
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise ValidationError(
                f"A and B must be square with equal shape, got {a.shape} and {b.shape}"
            )
        d = a.shape[0]
        stacked = np.hstack([a, b])
        rank = np.linalg.matrix_rank(stacked, tol=1e-12 * max(1.0, float(np.abs(stacked).max())))
        if rank < d:
            raise RankDeficientAB(f"[A|B] has rank {rank} < {d}")
        object.__setattr__(self, "a", _frozen_array(a))
        object.__setattr__(self, "b", _frozen_array(b))

    @property
    def dim(self):
        return self.a.shape[0]

    def degree_ok(self, d):
        return d == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, LinearAB)
            and self.a.shape == other.a.shape
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )


@dataclass(frozen=True, eq=False)
class FixedUnitary:
    """Vertex condition given directly as a unitary channel map."""

    matrix: np.ndarray
    type_name = "fixed_unitary"

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "sigma")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"sigma must be square, got {m.shape}")
        if not is_unitary(m, tol=1e-10):
            raise NotUnitary("fixed vertex matrix is not unitary to 1e-10")
        object.__setattr__(self, "matrix", _frozen_array(m))

    @property
    def dim(self):
        return self.matrix.shape[0]

    def degree_ok(self, d):
        return d == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, FixedUnitary)
            and self.matrix.shape == other.matrix.shape
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass(frozen=True)
class DFT:
    """Discrete-Fourier-transform vertex condition.

    ``degree`` may be omitted in input files, in which case it is checked
    against the actual vertex degree at validation time.
    """

    degree: Optional[int] = None
    type_name = "dft"

    def degree_ok(self, d):
        return self.degree is None or self.degree == d


VertexCondition = Union[Neumann, Dirichlet, LinearAB, FixedUnitary, DFT]


# ---------------------------------------------------------------------------
# graph model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vertex:
    id: str
    condition: VertexCondition


@dataclass(frozen=True)
class Edge:
    id: str
    from_vertex: str
    to_vertex: str
    length: float


@dataclass(frozen=True)
class Lead:
    id: str
    at: str


@dataclass(frozen=True)
class MetricGraph:
    """Compact metric graph. Construct through :func:`build_graph`."""

    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]

    def vertex(self, vid) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise UnknownVertex(f"no vertex {vid!r}")

    def has_vertex(self, vid) -> bool:
        return any(v.id == vid for v in self.vertices)

    def degree(self, vid) -> int:
        """Number of edge ends at the vertex (a self-loop counts twice)."""
        d = 0
        for e in self.edges:
            d += int(e.from_vertex == vid) + int(e.to_vertex == vid)
        return d

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def scaled(self, factor: float) -> "MetricGraph":
        if factor <= 0:
            raise NonPositiveLength("scale factor must be positive")
        edges = tuple(
            Edge(e.id, e.from_vertex, e.to_vertex, e.length * factor) for e in self.edges
        )
        return MetricGraph(self.vertices, edges)


@dataclass(frozen=True)
class OpenGraph:
    """Metric graph plus an ordered tuple of leads.

    Lead order is fixed at construction and defines the coordinate order of
    every amplitude vector and scattering matrix built from this graph.
    """

    graph: MetricGraph
    leads: Tuple[Lead, ...]

    @property
    def n_leads(self) -> int:
        return len(self.leads)

    def lead_count_at(self, vid) -> int:
        return sum(1 for l in self.leads if l.at == vid)

    def scaled(self, factor: float) -> "OpenGraph":
        return OpenGraph(self.graph.scaled(factor), self.leads)

    def with_lead_order(self, order: Sequence[int]) -> "OpenGraph":
        if sorted(order) != list(range(self.n_leads)):
            raise ValidationError("lead reordering must be a permutation")
        return OpenGraph(self.graph, tuple(self.leads[i] for i in order))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def _check_conditions(graph: MetricGraph, extra_degrees: Mapping[str, int]):
    for v in graph.vertices:
        d = graph.degree(v.id) + int(extra_degrees.get(v.id, 0))
        if not v.condition.degree_ok(d):
            raise ConditionDegreeMismatch(
                f"vertex {v.id!r}: condition {v.condition.type_name} does not fit degree {d}"
            )


def build_graph(vertices, edges, *, pending_leads: Optional[Mapping[str, int]] = None) -> MetricGraph:
    """Validate and freeze a metric graph.

    ``pending_leads`` maps vertex id to the number of leads that will be
    attached later; degree-pinned conditions (fixed matrices, linear A/B
    systems, explicit DFT degrees) are validated against the final degree
    so that files describing open graphs can be built in one pass.
    """
    vertices = tuple(vertices)
    edges = tuple(edges)
    if not vertices:
        raise ValidationError("graph must have at least one vertex")

    seen = set()
    for v in vertices:
        if v.id in seen:
            raise DuplicateId(f"duplicate vertex id {v.id!r}")
        seen.add(v.id)
    seen_e = set()
    vertex_ids = {v.id for v in vertices}
    for e in edges:
        if e.id in seen_e:
            raise DuplicateId(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        if not (e.length > 0) or not np.isfinite(e.length):
            raise NonPositiveLength(f"edge {e.id!r} has length {e.length}")
        for end in (e.from_vertex, e.to_vertex):
            if end not in vertex_ids:
                raise DanglingEndpoint(f"edge {e.id!r} references unknown vertex {end!r}")

    g = MetricGraph(vertices, edges)
    _check_conditions(g, pending_leads or {})
    return g


def attach_leads(graph: MetricGraph, attachments: Sequence[str], *, lead_ids=None) -> OpenGraph:
    """Attach one lead per entry of ``attachments``, in the given order.

    Vertices not named keep their conditions untouched; named vertices keep
    their condition object as well, but its degree must fit the enlarged
    vertex (the degree grows by the number of leads attached there).
    """
    attachments = list(attachments)
    if not attachments:
        raise NoLeads("an open graph needs at least one lead")
    for vid in attachments:
        if not graph.has_vertex(vid):
            raise UnknownVertex(f"cannot attach lead at unknown vertex {vid!r}")
    if lead_ids is None:
        lead_ids = [f"l{i}" for i in range(len(attachments))]
    if len(lead_ids) != len(attachments):
        raise ValidationError("lead_ids must match attachments in length")
    twice = [lid for lid, n in Counter(lead_ids).items() if n > 1]
    if twice:
        raise DuplicateId(f"duplicate lead id {twice[0]!r}")
    _check_conditions(graph, Counter(attachments))

    leads = tuple(Lead(lid, vid) for lid, vid in zip(lead_ids, attachments))
    return OpenGraph(graph, leads)


def open_graph(vertices, edges, leads) -> OpenGraph:
    """One-shot validated construction from parsed record lists: the graph
    built with its leads pending, then :func:`attach_leads`."""
    leads = tuple(leads)
    if not leads:
        raise NoLeads("an open graph needs at least one lead")
    ats = [l.at for l in leads]
    g = build_graph(vertices, edges, pending_leads=Counter(ats))
    return attach_leads(g, ats, lead_ids=[l.id for l in leads])


# ---------------------------------------------------------------------------
# directed-bond bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BondTable:
    """Deterministic channel indexing for an open graph.

    Global channels: leads first, in lead order, so lead j is channel j;
    then two directed bonds per internal edge, edges sorted by id. Bond
    2 i runs along edge i from its ``from`` vertex to its ``to`` vertex,
    bond 2 i + 1 back, and bond b is channel ``n_leads + b``.

    ``vertex_channels`` lists, per vertex, the local channel layout feeding
    the vertex scattering matrices: each entry is either ``("lead", j)``
    for global lead j or ``("end", edge_index, end)`` with end 0 at the
    edge's ``from`` vertex and end 1 at ``to``. Locally, leads sort by lead
    id and edge ends by (edge id, end), so matrix-valued vertex conditions
    keep their channel wiring if the global lead order changes.
    ``vertex_io`` gives, in the same order, the global (out, in) channel
    pair of each local channel: a lead is its own out and in channel; at an
    edge end the wave leaves along one bond and arrives along its reverse.
    """

    n_leads: int
    edge_order: Tuple[str, ...]
    bond_lengths: np.ndarray            # length per directed bond
    vertex_channels: Mapping[str, tuple]
    vertex_io: Mapping[str, Tuple[Tuple[int, int], ...]]

    @property
    def n_bonds(self) -> int:
        return len(self.bond_lengths)

    @property
    def n_channels(self) -> int:
        return self.n_leads + self.n_bonds


def bond_table(og: OpenGraph) -> BondTable:
    """Build the channel tables. Identical inputs give identical indexing."""
    edges = sorted(og.graph.edges, key=lambda e: e.id)
    nl = og.n_leads
    channels = {v.id: [] for v in og.graph.vertices}
    io = {v.id: [] for v in og.graph.vertices}
    for j, lead in sorted(enumerate(og.leads), key=lambda t: t[1].id):
        channels[lead.at].append(("lead", j))
        io[lead.at].append((j, j))
    for i, e in enumerate(edges):
        forward, backward = nl + 2 * i, nl + 2 * i + 1
        channels[e.from_vertex].append(("end", i, 0))
        io[e.from_vertex].append((forward, backward))
        channels[e.to_vertex].append(("end", i, 1))
        io[e.to_vertex].append((backward, forward))

    return BondTable(
        n_leads=nl,
        edge_order=tuple(e.id for e in edges),
        bond_lengths=np.repeat([e.length for e in edges], 2).astype(float),
        vertex_channels={vid: tuple(chs) for vid, chs in channels.items()},
        vertex_io={vid: tuple(pairs) for vid, pairs in io.items()},
    )
