"""Finite symmetry groups acting on open graphs, and quotient scattering.

A declared symmetry consists of a finite group (element names plus a
multiplication table, identity first) and a permutation action on the
leads. Functions transform by pullback, (g f)(x) = f(g^-1 x), so the
matrix P(g) acting on lead amplitude vectors sends basis vector e_i to
e_{g i}.

For a matrix representation rho the intertwiner equations

    P(g) Phi = Phi rho(g^-1)^T        for all g

carve out the amplitude vectors that transform like a chosen carrier
vector v; the encoding map Upsilon stacks {Phi_i v} as columns and the
quotient scattering matrix is Upsilon^+ S(k) Upsilon. The transpose
convention above is pinned by golden tests on a six-lead star with the
full permutation group of three objects.

Composition is right-first throughout: table[i, j] is the index of the
element "apply j, then i".
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConditionViolation,
    DependentColumns,
    GroupMismatch,
    LengthViolation,
    NotEquivariant,
    NotHomomorphism,
    NotIrreducible,
    NotSubgroup,
    ValidationError,
)
from .global_scattering import scattering_matrix
from .graph_core import BondTable, DFT, OpenGraph, bond_table
from .linalg import block_diag, null_space, orthonormalize_rows, rref
from .vertex_scattering import dft_sigma


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _index_array(values, what: str) -> np.ndarray:
    """``values`` as a read-only integer array; :class:`ValidationError` when
    its rows have unequal lengths or an entry is not an integer."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{what} rows have unequal lengths") from None
    with np.errstate(invalid="ignore"):
        ints = arr.astype(int)
    if not np.array_equal(ints, arr):
        raise ValidationError(f"{what} entries are not integers")
    ints.setflags(write=False)
    return ints


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group as element names plus a multiplication table.

    ``table[i, j]`` is the index of element_i * element_j (right-first
    composition). The identity must sit at index 0.
    """

    elements: Tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        n = len(self.elements)
        if n == 0:
            raise ValidationError("a group needs at least one element, the identity")
        table = _index_array(self.table, "table")
        if table.shape != (n, n):
            raise ValidationError(f"table shape {table.shape} does not match {n} elements")
        if len(set(self.elements)) != n:
            raise ValidationError("duplicate element names")
        if table.min() < 0 or table.max() >= n:
            raise ValidationError("table entries out of range")
        if not (np.all(table[0] == np.arange(n)) and np.all(table[:, 0] == np.arange(n))):
            raise ValidationError("element 0 is not the identity")
        # bad[i]: row i or column i is not a permutation of 0..n-1
        bad = (np.sort(np.stack([table, table.T]), axis=2) != np.arange(n)).any(axis=(0, 2))
        if bad.any():
            raise ValidationError(f"row/column {np.argmax(bad)} is not a permutation (not a group)")
        # (ij)k == i(jk) for every triple: O(n^3) integers, cheap up to order ~100.
        if not np.array_equal(table[table, :], table[:, table]):
            raise ValidationError("multiplication table is not associative")
        object.__setattr__(self, "table", table)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise ValidationError(f"no element named {name!r}") from None

    def multiply(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(np.nonzero(self.table[i] == 0)[0][0])

    def same_group(self, other: "FiniteGroup") -> bool:
        return self.elements == other.elements and np.array_equal(self.table, other.table)


def _cycle_name(perm: Tuple[int, ...]) -> str:
    """Cycle notation, 1-based, each cycle from its smallest point; "e" for
    the identity."""
    cycles = []
    for start in range(len(perm)):
        cyc = [start]
        while perm[cyc[-1]] != start:
            cyc.append(perm[cyc[-1]])
        if len(cyc) > 1 and min(cyc) == start:
            cycles.append("(" + ",".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) or "e"


def symmetric_group(n: int) -> Tuple[FiniteGroup, Mapping[str, Tuple[int, ...]]]:
    """Full permutation group on n points, in cycle notation.

    Elements are ordered by number of moved points, then by name, putting
    the identity first and, for n = 3, transpositions before 3-cycles.
    Returns the group and a name -> permutation-tuple mapping.
    """
    perms = sorted(itertools.permutations(range(n)),
                   key=lambda p: (sum(x != i for i, x in enumerate(p)), _cycle_name(p)))
    names = [_cycle_name(p) for p in perms]
    arr = np.array(perms, dtype=int)
    # each permutation as its base-n number; arr[:, arr][i, j] is "apply j, then i"
    digits = n ** np.arange(n)
    codes = arr @ digits
    order = np.argsort(codes)
    table = order[np.searchsorted(codes, arr[:, arr] @ digits, sorter=order)]
    return FiniteGroup(tuple(names), table), dict(zip(names, perms))


def dihedral_group(n: int, reflection_names: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Symmetries of the regular n-gon: rotations s^j, then reflections.

    Reflection j mirrors across the axis at angle pi j / n; for n = 4 the
    default names are rx, ru, ry, rv (axes at 0, 45, 90, 135 degrees).
    """
    if reflection_names is None:
        reflection_names = ["rx", "ru", "ry", "rv"] if n == 4 else [f"f{j}" for j in range(n)]
    if len(reflection_names) != n:
        raise ValidationError(f"need {n} reflection names")
    rot_names = ["e"] + [f"s{j}" if j > 1 else "s" for j in range(1, n)]
    # s^a f_b = f_(a+b), f_a s^b = f_(a-b), f_a f_b = s^(a-b)
    plus = np.add.outer(np.arange(n), np.arange(n)) % n
    minus = np.subtract.outer(np.arange(n), np.arange(n)) % n
    table = np.block([[plus, n + plus], [n + minus, minus]])
    return FiniteGroup(tuple(rot_names) + tuple(reflection_names), table)


@dataclass(frozen=True)
class SubgroupEmbedding:
    """A subgroup packaged as its own group plus parent element indices."""

    group: FiniteGroup
    parent_indices: Tuple[int, ...]


def subgroup(group: FiniteGroup, names: Sequence[str]) -> SubgroupEmbedding:
    """Extract a subgroup by element names; raises NotSubgroup if not closed."""
    indices = [group.index(n) for n in names]
    if 0 not in indices:
        raise NotSubgroup("subgroup must contain the identity")
    indices = [0] + [i for i in indices if i != 0]
    if len(set(indices)) != len(indices):
        raise NotSubgroup("duplicate subgroup elements")
    pos = np.full(group.order, -1)
    pos[indices] = np.arange(len(indices))
    table = pos[group.table[np.ix_(indices, indices)]]
    if (table < 0).any():
        a, b = np.argwhere(table < 0)[0]
        raise NotSubgroup(
            f"{group.elements[indices[a]]} * {group.elements[indices[b]]} leaves the subset")
    sub = FiniteGroup(tuple(group.elements[i] for i in indices), table)
    return SubgroupEmbedding(group=sub, parent_indices=tuple(indices))


# ---------------------------------------------------------------------------
# representations and class functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Matrix representation: one invertible matrix per group element."""

    group: FiniteGroup
    matrices: Tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        if len(mats) != self.group.order:
            raise ValidationError("need one matrix per group element")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise ValidationError("representation matrices must share a square shape")
        if np.linalg.norm(mats[0] - np.eye(n)) > 1e-12:
            raise ValidationError("identity element must map to the identity matrix")
        stack = np.stack(mats)
        prod = stack[:, None] @ stack[None]  # [i, j] = rho(i) rho(j)
        wrong = (np.linalg.norm(prod - stack[self.group.table], axis=(2, 3))
                 > 1e-12 * np.maximum(1.0, np.abs(prod).max(axis=(2, 3))))
        if wrong.any():
            i, j = np.argwhere(wrong)[0]
            raise NotHomomorphism(
                f"rho({self.group.elements[i]}) rho({self.group.elements[j]}) != rho(product)")
        stack.setflags(write=False)
        object.__setattr__(self, "matrices", tuple(stack))

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def matrix(self, i: int) -> np.ndarray:
        return self.matrices[i]

    def character(self) -> "ClassFunction":
        return ClassFunction(self.group, np.array([np.trace(m) for m in self.matrices]))

    def is_irreducible(self, tol: float = 1e-9) -> bool:
        chi = self.character().values
        norm = np.sum(np.abs(chi) ** 2) / self.group.order
        return abs(norm - 1.0) <= tol

    @staticmethod
    def from_mapping(group: FiniteGroup, mapping: Mapping[str, np.ndarray]) -> "MatrixRep":
        return MatrixRep(group, tuple(_values_at(mapping, group.elements, "representation")))


def _values_at(mapping: Mapping, names: Sequence[str], what: str) -> list:
    """``mapping``'s values at ``names``, in order; :class:`ValidationError`
    naming every name it lacks."""
    missing = [e for e in names if e not in mapping]
    if missing:
        raise ValidationError(f"{what} missing elements {missing}")
    return [mapping[e] for e in names]


def trivial_rep(group: FiniteGroup) -> MatrixRep:
    return MatrixRep(group, tuple(np.eye(1, dtype=complex) for _ in group.elements))


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """Complex values indexed by group element (constant on classes)."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.group.order,):
            raise ValidationError("need one value per group element")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if not self.group.same_group(other.group):
            raise GroupMismatch("class functions live on different groups")
        return ClassFunction(self.group, self.values + other.values)


def characters_equal(chi1: ClassFunction, chi2: ClassFunction, tol: float = 1e-9):
    """Max-norm equality of two class functions on the same group."""
    if not chi1.group.same_group(chi2.group):
        raise GroupMismatch("characters defined on different groups")
    dev = float(np.max(np.abs(chi1.values - chi2.values)))
    return dev <= tol, dev


def induced_character(group: FiniteGroup, sub: Union[SubgroupEmbedding, Sequence[str]],
                      chi: Union[ClassFunction, Mapping[str, complex], Sequence[complex]],
                      ) -> ClassFunction:
    """Character of the representation induced from a subgroup.

    chi_ind(g) = (1/|H|) sum over x in G with x^-1 g x in H of chi(x^-1 g x).
    ``chi`` may be a ClassFunction on the subgroup, a name -> value mapping,
    or a sequence aligned with the subgroup's element order.
    """
    if not isinstance(sub, SubgroupEmbedding):
        sub = subgroup(group, list(sub))

    if isinstance(chi, ClassFunction):
        if not chi.group.same_group(sub.group):
            raise GroupMismatch("character is not defined on the given subgroup")
        chi_vals = chi.values
    elif isinstance(chi, Mapping):
        chi_vals = np.array(_values_at(chi, sub.group.elements, "character"), dtype=complex)
    else:
        chi_vals = np.asarray(list(chi), dtype=complex)
        if chi_vals.shape != (sub.group.order,):
            raise ValidationError("character length does not match subgroup order")

    table = group.table
    # conj[g, x] = x^-1 g x, with x^-1 the column where row x holds the identity
    conj = table[table[np.argmax(table == 0, axis=1)].T, np.arange(group.order)]
    pos = np.full(group.order, -1)
    pos[list(sub.parent_indices)] = np.arange(sub.group.order)
    terms = np.where(pos[conj] >= 0, chi_vals[pos[conj]], 0.0)
    # cumsum adds the terms one at a time in x order, so each value has the
    # bits of the plain sum over x (np.sum would add them pairwise)
    return ClassFunction(group, np.cumsum(terms, axis=1)[:, -1] / sub.group.order)


# ---------------------------------------------------------------------------
# actions on open graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphAction:
    """Permutation action of a group on the leads of an open graph.

    ``lead_perm[g, i]`` is the index of lead g . l_i. Edge images
    (``edge_perm``) with orientation flags (``edge_flip``, all False when
    omitted; it needs ``edge_perm``) may be supplied for validation of
    internal symmetry; they are not used by the quotient computation itself.
    """

    group: FiniteGroup
    lead_perm: np.ndarray
    edge_perm: Optional[np.ndarray] = None
    edge_flip: Optional[np.ndarray] = None

    def __post_init__(self):
        lp = _index_array(self.lead_perm, "lead_perm")
        if lp.ndim != 2 or lp.shape[0] != self.group.order:
            raise ValidationError("lead_perm must have one row per group element")
        object.__setattr__(self, "lead_perm", lp)
        if self.edge_perm is None and self.edge_flip is not None:
            raise ValidationError("edge_flip needs an edge_perm")
        if self.edge_perm is not None:
            ep = _index_array(self.edge_perm, "edge_perm")
            ef = (np.zeros_like(ep, dtype=bool) if self.edge_flip is None
                  else np.asarray(self.edge_flip, dtype=bool))
            if ep.shape[0] != self.group.order or ef.shape != ep.shape:
                raise ValidationError("edge_perm/edge_flip shapes do not match the group")
            ef.setflags(write=False)
            object.__setattr__(self, "edge_perm", ep)
            object.__setattr__(self, "edge_flip", ef)

    @property
    def n_leads(self) -> int:
        return self.lead_perm.shape[1]

    def restricted(self, sub: SubgroupEmbedding) -> "GraphAction":
        lp = self.lead_perm[list(sub.parent_indices)]
        ep = None if self.edge_perm is None else self.edge_perm[list(sub.parent_indices)]
        ef = None if self.edge_flip is None else self.edge_flip[list(sub.parent_indices)]
        return GraphAction(sub.group, lp, ep, ef)


@dataclass(frozen=True)
class ActionReport:
    ok: bool


def _matrix_condition_payload(cond, og: OpenGraph, vid):
    if isinstance(cond, DFT):  # its channel order matters: compare sigma_v
        return (dft_sigma(og.graph.degree(vid) + og.lead_count_at(vid)),)
    if hasattr(cond, "matrix"):
        return (cond.matrix,)
    if hasattr(cond, "a"):
        return (cond.a, cond.b)
    return None


def _induced_channel_permutation(table: BondTable, act: GraphAction, g: int,
                                 v_from, v_to):
    """Map local channel indices at v_from to those at v_to under element g,
    or None when edges are involved but no edge map was declared."""
    channels_from = table.vertex_channels[v_from]
    channels_to = table.vertex_channels[v_to]
    if any(ch[0] == "end" for ch in channels_from) and act.edge_perm is None:
        return None
    perm = []
    for ch in channels_from:
        if ch[0] == "lead":
            img = ("lead", int(act.lead_perm[g, ch[1]]))
        else:
            _, ei, end = ch
            img = ("end", int(act.edge_perm[g, ei]), 1 - end if act.edge_flip[g, ei] else end)
        if img not in channels_to:
            raise NotHomomorphism(
                f"element {act.group.elements[g]} does not carry the channels of "
                f"{v_from!r} onto those of {v_to!r}"
            )
        perm.append(channels_to.index(img))
    return perm


def _check_permutation_action(group: FiniteGroup, what: str, perm, flip, n):
    """Raise :class:`NotHomomorphism` unless ``perm`` (one row per element,
    with orientation flags ``flip``) is an action of ``group`` on n items:
    each row a permutation, the identity fixing every item unflipped, and
    g after h acting as gh, the flip of gh at e being that of h at e XOR
    that of g at the image of e under h."""
    if perm.shape[1] != n:
        raise NotHomomorphism(f"action permutes {perm.shape[1]} {what}s, graph has {n}")
    bad = (np.sort(perm, axis=1) != np.arange(n)).any(axis=1)
    if bad.any():
        g = np.argmax(bad)
        raise NotHomomorphism(f"element {group.elements[g]} does not permute the {what}s")
    if not np.all(perm[0] == np.arange(n)) or flip[0].any():
        raise NotHomomorphism(f"identity element must act trivially on {what}s")
    # [g, h, e]: the image and flip of e under g after h, against those under gh
    wrong = ((perm[:, perm] != perm[group.table])
             | (flip[:, perm] ^ flip[None] != flip[group.table])).any(axis=2)
    if wrong.any():
        g, h = np.argwhere(wrong)[0]
        raise NotHomomorphism(
            f"{what} action of {group.elements[g]} after {group.elements[h]} "
            f"differs from their product"
        )


def validate_action(og: OpenGraph, act: GraphAction) -> ActionReport:
    """Check that the declared action is a symmetry of the open graph.

    Verifies the homomorphism property of the lead (and optional edge)
    permutations and edge flips, that edge lengths are preserved, and that
    every vertex condition is carried onto an identical condition.
    Matrix-valued conditions, and DFT conditions through their matrix
    sigma_v, are compared up to the channel permutation
    induced by the lead and edge maps; when the edge map is absent and the
    vertex touches edges, they are compared entrywise.
    """
    group = act.group
    lp = act.lead_perm
    _check_permutation_action(group, "lead", lp, np.zeros_like(lp, dtype=bool), og.n_leads)
    edges = sorted(og.graph.edges, key=lambda e: e.id)
    if act.edge_perm is not None:
        _check_permutation_action(group, "edge", act.edge_perm, act.edge_flip, len(edges))

    table = None  # built when a matrix-valued condition needs its channels
    for g in range(group.order):
        vmap = {}

        def learn(v_from, v_to):
            if v_from in vmap and vmap[v_from] != v_to:
                raise NotHomomorphism(
                    f"element {group.elements[g]} maps vertex {v_from!r} inconsistently"
                )
            vmap[v_from] = v_to

        for i, lead in enumerate(og.leads):
            learn(lead.at, og.leads[lp[g, i]].at)

        if act.edge_perm is not None:
            for ei, e in enumerate(edges):
                img = edges[act.edge_perm[g, ei]]
                if abs(e.length - img.length) > 1e-12 * max(1.0, e.length):
                    raise LengthViolation(
                        f"element {group.elements[g]} maps edge {e.id!r} (length {e.length}) "
                        f"to {img.id!r} (length {img.length})"
                    )
                if act.edge_flip[g, ei]:
                    learn(e.from_vertex, img.to_vertex)
                    learn(e.to_vertex, img.from_vertex)
                else:
                    learn(e.from_vertex, img.from_vertex)
                    learn(e.to_vertex, img.to_vertex)

        for v_from, v_to in vmap.items():
            c_from = og.graph.vertex(v_from).condition
            c_to = og.graph.vertex(v_to).condition
            if type(c_from) is not type(c_to):
                raise ConditionViolation(
                    f"element {group.elements[g]} maps vertex {v_from!r} "
                    f"({c_from.type_name}) onto {v_to!r} ({c_to.type_name})"
                )
            pay_from = _matrix_condition_payload(c_from, og, v_from)
            if pay_from is None:
                if c_from != c_to:
                    raise ConditionViolation(
                        f"element {group.elements[g]}: conditions at {v_from!r} and "
                        f"{v_to!r} differ"
                    )
                continue
            pay_to = _matrix_condition_payload(c_to, og, v_to)
            if table is None:
                table = bond_table(og)
            perm = _induced_channel_permutation(table, act, g, v_from, v_to)
            for m_from, m_to in zip(pay_from, pay_to):
                if m_from.shape != m_to.shape:
                    raise ConditionViolation(
                        f"element {group.elements[g]}: payload shapes at {v_from!r} "
                        f"and {v_to!r} differ"
                    )
                if perm is None:
                    same = np.array_equal(m_from, m_to)
                else:
                    same = np.allclose(m_to[np.ix_(perm, perm)], m_from, atol=1e-12)
                if not same:
                    raise ConditionViolation(
                        f"element {group.elements[g]}: condition matrix at {v_to!r} "
                        f"is not the relabeled matrix of {v_from!r}"
                    )

    return ActionReport(ok=True)


def lead_permutation_matrices(act: GraphAction) -> Tuple[np.ndarray, ...]:
    """P(g) for every element, aligned with the group's element order.

    Amplitudes transform by pullback, so P(g) e_i = e_{g i}; equivalently
    (P(g) a)_l = a_{g^-1 l}.
    """
    return tuple(_lead_permutation_stack(act))


def _lead_permutation_stack(act: GraphAction) -> np.ndarray:
    """P(g) of :func:`lead_permutation_matrices` stacked (order x leads x
    leads), read-only: P(g)[l, i] is 1 where l = g i."""
    stack = np.eye(act.n_leads, dtype=complex)[act.lead_perm].transpose(0, 2, 1).copy()
    stack.setflags(write=False)
    return stack


# ---------------------------------------------------------------------------
# intertwiners, encodings, quotients
# ---------------------------------------------------------------------------

def intertwiner_basis(perm_mats: Sequence[np.ndarray], rho: MatrixRep):
    """Basis of matrices Phi solving P(g) Phi = Phi rho(g^-1)^T for all g,
    given P(g) as returned by :func:`lead_permutation_matrices`.

    The basis is canonicalized by reduced row echelon form of the solution
    space (so identical inputs give identical bases) and then orthonormalized
    in the Frobenius inner product, preserving order. The empty list is a
    valid result when the representation does not occur.
    """
    group = rho.group
    if len(perm_mats) != group.order:
        raise ValidationError("need one permutation matrix per group element")
    n_leads = perm_mats[0].shape[0]
    n = rho.dim

    eye_n, eye_l = np.eye(n), np.eye(n_leads)
    # rho(g^-1) equals M(g)^T for M(g) = rho(g^-1)^T
    blocks = [np.kron(perm_mats[g], eye_n) - np.kron(eye_l, rho.matrix(group.inverse(g)))
              for g in range(1, group.order)]
    basis = null_space(np.vstack(blocks)) if blocks else np.eye(n_leads * n, dtype=complex)
    if basis.shape[1] == 0:
        return []
    return [row.reshape(n_leads, n) for row in orthonormalize_rows(rref(basis.T, tol=1e-9))]


@dataclass(frozen=True, eq=False)
class EncodingMap:
    """Columns Phi_i v spanning the subspace that transforms like v."""

    upsilon: np.ndarray
    pseudo_inverse: np.ndarray

    @property
    def rank(self) -> int:
        return self.upsilon.shape[1]


def encoding_map(phis: Sequence[np.ndarray], v) -> EncodingMap:
    """Build Upsilon = [Phi_1 v, ..., Phi_m v] and its left inverse.

    Raises :class:`DependentColumns` when the columns are linearly
    dependent (zero v, or a representation that is not irreducible).
    """
    if not phis:
        raise DependentColumns("empty intertwiner basis")
    v = np.asarray(v, dtype=complex).reshape(-1)
    upsilon = np.column_stack([phi @ v for phi in phis])
    s = np.linalg.svd(upsilon, compute_uv=False)
    if s[0] == 0 or s[-1] < 1e-10 * s[0]:
        raise DependentColumns(
            "columns Phi_i v are dependent; check that v is nonzero and the "
            "representation is irreducible"
        )
    pinv = np.linalg.pinv(upsilon)
    if np.linalg.norm(pinv @ upsilon - np.eye(upsilon.shape[1])) > 1e-10:
        raise DependentColumns("left inverse check failed")
    return EncodingMap(upsilon=upsilon, pseudo_inverse=pinv)


_EQUIVARIANCE_TOL = 1e-10  # largest commutator defect or leak of S/max(1, max|S_ij|)


# The set-up of the (graph, action) pair passed last to a quotient:
# (og, act, P(g) stacked in element order, {(rho bytes, carrier bytes):
# EncodingMap or None}).
# One entry, replaced whole, so it holds one graph alive. The encodings are
# keyed by value, so an equal rho built afresh hits and no rho is kept; the
# dict is emptied when it reaches _MAX_ENCODINGS (a sweep over carriers v).
_last_quotient = (None, None, (), {})
_MAX_ENCODINGS = 32


def _quotient_setup(og: OpenGraph, act: GraphAction):
    """P(g) stacked (order x leads x leads) and the encodings cache of the
    pair, validated once per pair."""
    global _last_quotient
    last_og, last_act, perm_mats, encodings = _last_quotient
    if last_og is not og or last_act is not act:
        validate_action(og, act)
        perm_mats, encodings = _lead_permutation_stack(act), {}
        _last_quotient = (og, act, perm_mats, encodings)
    return perm_mats, encodings


def _quotient_blocks(og: OpenGraph, act: GraphAction, terms, k):
    """Upsilon_i^+ S(k) Upsilon_i for each (rho_i, v_i) of ``terms``, in order,
    all from one S(k) and one commutator check.

    The check takes P(g) S - S P(g) for every element at once from the
    stacked P(g) of the set-up and names the first element whose defect
    exceeds ``_EQUIVARIANCE_TOL``. Each block B = (Upsilon^+ S) Upsilon
    has the leak |S Upsilon - Upsilon B|, which is |(I - Upsilon
    Upsilon^+) S Upsilon| without the projector. Both are taken on S and B
    divided by max(1, max|S_ij|), since off the real axis |S_ij| grows like
    exp(2|Im k| L) and so do its rounding errors. An S(k) that is not
    finite raises :class:`~qgscatter.errors.DeterminantOverflow` from
    :meth:`~qgscatter.global_scattering.Assembly.scattering`."""
    perm_mats, encodings = _quotient_setup(og, act)
    keyed = []
    for rho, v in terms:
        carrier = (np.eye(rho.dim, dtype=complex)[0] if v is None
                   else np.asarray(v, dtype=complex).reshape(-1))
        if carrier.size != rho.dim:
            raise ValidationError(f"carrier v has length {carrier.size}, but the "
                                  f"representation has dimension {rho.dim}")
        key = (b"".join(m.tobytes() for m in rho.matrices), carrier.tobytes())
        if key not in encodings and not rho.is_irreducible():
            raise NotIrreducible(
                "a quotient needs irreducible representations; "
                "decompose and use quotient_scattering_sum"
            )
        keyed.append((rho, carrier, key))
    s = scattering_matrix(og, k).s
    scale = max(1.0, float(np.abs(s).max()))
    s_n = s / scale
    defects = np.linalg.norm(perm_mats @ s_n - s_n @ perm_mats, axis=(1, 2))
    failed = np.flatnonzero(defects > _EQUIVARIANCE_TOL)
    if failed.size:
        g = failed[0]
        raise NotEquivariant(
            f"S(k) does not commute with {act.group.elements[g]} "
            f"(defect {defects[g]:.3e}); the graph does not have this symmetry"
        )
    blocks = []
    for rho, carrier, key in keyed:
        if key not in encodings:
            if len(encodings) >= _MAX_ENCODINGS:
                encodings.clear()
            phis = intertwiner_basis(perm_mats, rho)
            encodings[key] = encoding_map(phis, carrier) if phis else None
        enc = encodings[key]
        if enc is None:
            blocks.append(np.zeros((0, 0), dtype=complex))
            continue
        block = enc.pseudo_inverse @ s @ enc.upsilon
        leak = float(np.linalg.norm(s_n @ enc.upsilon - enc.upsilon @ (block / scale)))
        if leak > _EQUIVARIANCE_TOL:
            raise NotEquivariant(f"S(k) leaks out of the encoded subspace (residual {leak:.3e})")
        blocks.append(block)
    return blocks


def quotient_scattering(og: OpenGraph, act: GraphAction, rho: MatrixRep, v=None, *,
                        k) -> np.ndarray:
    """Scattering matrix of the quotient system for an irreducible rho.

    Checks that the action matrices commute with S(k) and that the encoded
    subspace is S-invariant, both to ``_EQUIVARIANCE_TOL`` in the Frobenius
    norm relative to max(1, max|S_ij|), before conjugating: Upsilon^+ S(k) Upsilon.
    ``v`` defaults to the first carrier basis vector and must have length
    dim rho. This is the one-term :func:`quotient_scattering_sum`.

    A sweep over k builds its set-up once: the validated action, its P(g)
    stacked in one array and the encoding of each (rho, v) are kept for the
    last (og, act) pair (compared with ``is``), keyed by the values of rho's
    matrices and v (up to ``_MAX_ENCODINGS`` of them). S(k) comes from :func:`scattering_matrix`,
    whose memo keeps the Assembly of its last graph, so at most two graphs
    are held. Nothing that raised is kept, and the commutator and leak
    checks run on every call: one stacked P(g) S - S P(g) for all elements,
    and the leak |S Upsilon - Upsilon B| of the block B returned, with no
    identity or projector built.
    """
    return _quotient_blocks(og, act, [(rho, v)], k)[0]


def quotient_scattering_sum(og: OpenGraph, act: GraphAction, reps, *, k) -> np.ndarray:
    """Block-diagonal quotient for rho = direct sum of n_i copies of rho_i.

    ``reps`` lists (rho_i, n_i, v_i), with n_i an integer >= 1 and v_i = None
    for the default carrier vector; block order follows the input, each
    block repeated n_i times. All blocks come from one S(k) and one
    commutator check, so a sweep over k solves S(k) once per k. The set-up
    memo is that of :func:`quotient_scattering`.
    """
    reps = list(reps)
    for _, n_i, _ in reps:
        if not isinstance(n_i, numbers.Integral) or n_i < 1:
            raise ValidationError(f"multiplicity n_i = {n_i!r} is not an integer >= 1")
    blocks = _quotient_blocks(og, act, [(rho_i, v_i) for rho_i, _, v_i in reps], k)
    return block_diag([b for b, (_, n_i, _) in zip(blocks, reps) for _ in range(n_i)])
