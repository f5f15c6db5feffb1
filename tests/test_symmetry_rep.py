"""Groups, actions, intertwiners, quotient scattering, induced characters."""

import numpy as np
import pytest

from qgscatter.errors import (
    ConditionViolation,
    DependentColumns,
    DeterminantOverflow,
    GroupMismatch,
    LengthViolation,
    NotEquivariant,
    NotHomomorphism,
    NotIrreducible,
    NotSubgroup,
    ValidationError,
)
from qgscatter import global_scattering
from qgscatter.global_scattering import scattering_matrix
from qgscatter.graph_core import DFT, Dirichlet, Edge, Neumann, Vertex, attach_leads, build_graph
from qgscatter.symmetry_rep import (
    ClassFunction,
    FiniteGroup,
    GraphAction,
    MatrixRep,
    characters_equal,
    dihedral_group,
    encoding_map,
    induced_character,
    intertwiner_basis,
    lead_permutation_matrices,
    quotient_scattering,
    quotient_scattering_sum,
    subgroup,
    symmetric_group,
    trivial_rep,
    validate_action,
)

from conftest import (DATA_DIR, R2D_MATRICES, cyclic_group, pinwheel, s3_star_action,
                      star_open_graph, subspace_distance)

GOLDEN_STAR3 = np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]]) / 3.0


def conjugacy_classes(group):
    """Classes as index tuples, ordered by smallest member."""
    seen = set()
    classes = []
    for g in range(group.order):
        if g in seen:
            continue
        cls = {group.multiply(group.multiply(x, g), group.inverse(x))
               for x in range(group.order)}
        classes.append(tuple(sorted(cls)))
        seen |= cls
    return tuple(sorted(classes, key=lambda c: c[0]))


def permutation_character(act):
    """Character of the lead permutation representation (fixed-point counts)."""
    vals = np.array(
        [np.sum(act.lead_perm[g] == np.arange(act.n_leads)) for g in range(act.group.order)],
        dtype=complex,
    )
    return ClassFunction(act.group, vals)


def class_inner(chi, psi):
    """<chi, psi> = (1/|G|) sum_g chi(g) conj(psi(g))."""
    if not chi.group.same_group(psi.group):
        raise GroupMismatch("class functions live on different groups")
    return complex(np.sum(chi.values * psi.values.conj()) / chi.group.order)


def rep_multiplicity_in_leads(act, rho):
    """Multiplicity of rho in the lead permutation representation, via the
    character inner product."""
    m = class_inner(permutation_character(act), rho.character())
    m_int = round(m.real)
    if abs(m - m_int) > 1e-9:
        raise ValidationError(f"character inner product {m} is not an integer")
    return int(m_int)


def h_subaction(og, act):
    g, _ = symmetric_group(3)
    emb = subgroup(g, ["e", "(1,2)"])
    return act.restricted(emb), trivial_rep(emb.group)


def test_symmetric_group_element_order():
    g, perms = symmetric_group(3)
    assert g.elements == ("e", "(1,2)", "(1,3)", "(2,3)", "(1,2,3)", "(1,3,2)")
    # right-first composition: (1,2) after (1,3) is the 3-cycle (1,3,2)
    assert g.elements[g.multiply(g.index("(1,2)"), g.index("(1,3)"))] == "(1,3,2)"


def test_group_table_validation():
    with pytest.raises(ValidationError):
        FiniteGroup(("e", "a"), np.array([[0, 1], [1, 1]]))
    with pytest.raises(ValidationError):
        FiniteGroup(("a", "e"), np.array([[1, 0], [0, 1]]))
    # a Latin square with identity (a loop) of order 5 that is not associative
    loop = np.array([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])
    with pytest.raises(ValidationError, match="not associative"):
        FiniteGroup(("e", "a", "b", "c", "d"), loop)


def test_dihedral_group_structure():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert d4.elements[:4] == ("e", "s", "s2", "s3")
    # reflections compose to rotations: rx * ry = s2
    rx, ry = d4.index("rx"), d4.index("ry")
    assert d4.elements[d4.multiply(rx, ry)] == "s2"
    # s2 is central
    s2 = d4.index("s2")
    for i in range(8):
        assert d4.multiply(s2, i) == d4.multiply(i, s2)


def test_conjugacy_classes_exact():
    g, _ = symmetric_group(3)
    classes = conjugacy_classes(g)
    names = [tuple(g.elements[i] for i in c) for c in classes]
    assert names == [("e",), ("(1,2)", "(1,3)", "(2,3)"), ("(1,2,3)", "(1,3,2)")]
    d4 = dihedral_group(4)
    assert sorted(len(c) for c in conjugacy_classes(d4)) == [1, 1, 2, 2, 2]
    # characters are constant on classes
    chi = induced_character(g, ["e", "(1,2)"], [1.0, 1.0])
    for cls in classes:
        vals = chi.values[list(cls)]
        assert np.max(np.abs(vals - vals[0])) == 0.0


def test_subgroup_extraction_and_failure():
    g, _ = symmetric_group(3)
    emb = subgroup(g, ["e", "(1,2)"])
    assert emb.group.order == 2
    with pytest.raises(NotSubgroup):
        subgroup(g, ["e", "(1,2,3)"])  # not closed without the inverse...
    with pytest.raises(NotSubgroup):
        subgroup(g, ["(1,2)"])


def test_matrix_rep_validation():
    g, _ = symmetric_group(3)
    rho = MatrixRep(g, tuple(np.array(R2D_MATRICES[e], dtype=complex) for e in g.elements))
    assert rho.is_irreducible()
    broken = {e: np.array(R2D_MATRICES[e], dtype=complex) for e in g.elements}
    broken["(1,2)"] = np.eye(2)
    with pytest.raises(NotHomomorphism):
        MatrixRep.from_mapping(g, broken)


def _compose_index(maps, i, j):
    """Index in ``maps`` of the map "apply maps[j], then maps[i]"."""
    composed = tuple(maps[i][x] for x in maps[j])
    return maps.index(composed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_group_table_composes_its_permutations(n):
    g, perms = symmetric_group(n)
    maps = [tuple(perms[e]) for e in g.elements]
    assert len(set(maps)) == g.order == len(perms)
    for i in range(g.order):
        for j in range(g.order):
            assert g.multiply(i, j) == _compose_index(maps, i, j)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_dihedral_group_table_composes_the_polygon_maps(n):
    # rotation s^a: x -> x + a, reflection f_b: x -> b - x (mod n), in element order
    maps = ([tuple((x + a) % n for x in range(n)) for a in range(n)]
            + [tuple((b - x) % n for x in range(n)) for b in range(n)])
    d = dihedral_group(n)
    expected = [[_compose_index(maps, i, j) for j in range(2 * n)] for i in range(2 * n)]
    np.testing.assert_array_equal(d.table, expected)


def test_group_layer_error_messages():
    with pytest.raises(ValidationError, match=r"^row/column 1 is not a permutation \(not a group\)$"):
        FiniteGroup(("e", "a", "b"), [[0, 1, 2], [1, 2, 0], [2, 2, 1]])
    with pytest.raises(ValidationError, match=r"^row/column 2 is not a permutation \(not a group\)$"):
        FiniteGroup(("e", "a", "b", "c"), [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 1, 1]])
    g, _ = symmetric_group(3)
    with pytest.raises(NotSubgroup, match=r"^\(1,2,3\) \* \(1,2,3\) leaves the subset$"):
        subgroup(g, ["e", "(1,2,3)"])
    # the first pair in row-major order of the names as given, identity first
    with pytest.raises(NotSubgroup, match=r"^\(1,3\) \* \(1,2\) leaves the subset$"):
        subgroup(g, ["(1,3)", "e", "(1,2)"])
    broken = {e: np.array(R2D_MATRICES[e], dtype=complex) for e in g.elements}
    broken["(1,2)"] = np.eye(2)
    with pytest.raises(NotHomomorphism,
                       match=r"^rho\(\(1,2\)\) rho\(\(1,3\)\) != rho\(product\)$"):
        MatrixRep.from_mapping(g, broken)
    og, act, _ = s3_star_action()
    bad = np.array(act.lead_perm, copy=True)
    bad[[1, 2]] = [0, 0, 5, 4, 3, 2]
    with pytest.raises(NotHomomorphism, match=r"^element \(1,2\) does not permute the leads$"):
        validate_action(og, GraphAction(act.group, bad))


def test_induced_character_names_the_elements_its_mapping_lacks():
    g, _ = symmetric_group(3)
    with pytest.raises(ValidationError, match=r"^character missing elements \['\(1,2\)'\]$"):
        induced_character(g, ["e", "(1,2)"], {"e": 1})


def test_group_table_refuses_entries_that_are_not_integers():
    with pytest.raises(ValidationError, match="^table entries are not integers$"):
        FiniteGroup(("e", "a"), [[0, 1], [1, 0.7]])
    with pytest.raises(ValidationError, match="^table entries are not integers$"):
        FiniteGroup(("e", "a"), [[0, 1], [1, np.nan]])
    # integral values of any dtype are still indices
    assert FiniteGroup(("e", "a"), [[0.0, 1.0], [1.0, 0.0]]).table.dtype.kind == "i"


def test_group_needs_an_element():
    with pytest.raises(ValidationError, match="^a group needs at least one element"):
        FiniteGroup((), np.zeros((0, 0)))


def test_lead_perm_rows_of_unequal_lengths_are_refused():
    g, _ = symmetric_group(3)
    with pytest.raises(ValidationError, match="^lead_perm rows have unequal lengths$"):
        GraphAction(g, [[0, 1], [0]] * 3)


def test_edge_flip_rows_of_unequal_lengths_are_refused():
    with pytest.raises(ValidationError, match="^edge_flip rows have unequal lengths$"):
        GraphAction(cyclic_group(2), [[0], [0]], [[0, 1], [1, 0]], [[False, True], [True]])


def test_lead_perm_entries_that_are_not_integers_are_refused():
    g, _ = symmetric_group(3)
    with pytest.raises(ValidationError, match="^lead_perm entries are not integers$"):
        GraphAction(g, [[0, 1], [1, 0.5]] * 3)


def test_validate_action_ok():
    og, act, _ = s3_star_action()
    report = validate_action(og, act)
    assert report.ok


def test_validate_action_not_a_permutation():
    og, act, _ = s3_star_action()
    bad = np.array(act.lead_perm, copy=True)
    bad[1] = [0, 0, 5, 4, 3, 2]
    with pytest.raises(NotHomomorphism):
        validate_action(og, GraphAction(act.group, bad))


def _z2_on(edges):
    """Z2 acting on a graph with one lead at Neumann vertex "a": the lead
    stays, and ``edges`` lists (id, from, to) of unit edges."""
    ids = {v for _, *ends in edges for v in ends}
    g = build_graph([Vertex(v, Neumann()) for v in sorted(ids)],
                    [Edge(e, u, w, 1.0) for e, u, w in edges], pending_leads={"a": 1})
    group = FiniteGroup(("e", "s"), np.array([[0, 1], [1, 0]]))
    return attach_leads(g, ["a"]), group, np.array([[0], [0]])


def test_validate_action_checks_the_edge_permutations():
    og, group, lp = _z2_on([("e0", "a", "b"), ("e1", "a", "b"), ("e2", "a", "b")])
    assert validate_action(og, GraphAction(group, lp, edge_perm=[[0, 1, 2], [1, 0, 2]])).ok
    for row in ([0, 0, 0],    # not a permutation
                [1, 2, 0],    # a 3-cycle, so s s is not the identity
                [-1, 1, 0],   # negative: no wrap-around to edge 2
                [3, 1, 0]):   # out of range
        with pytest.raises(NotHomomorphism):
            validate_action(og, GraphAction(group, lp, edge_perm=[[0, 1, 2], row]))
    with pytest.raises(NotHomomorphism):  # the identity must fix every edge
        validate_action(og, GraphAction(group, lp, edge_perm=[[1, 0, 2], [0, 1, 2]]))


def test_validate_action_checks_the_edge_flips():
    # two loops at "a": every flip keeps the vertex map, so only the flip
    # rule of the product can tell a wrong one
    og, group, lp = _z2_on([("l0", "a", "a"), ("l1", "a", "a")])
    swap = [[0, 1], [1, 0]]
    assert validate_action(og, GraphAction(group, lp, swap, [[False, False], [True, True]])).ok
    # s s flips l0 once (T XOR F), but the identity flips nothing
    with pytest.raises(NotHomomorphism):
        validate_action(og, GraphAction(group, lp, swap, [[False, False], [True, False]]))
    with pytest.raises(NotHomomorphism):
        validate_action(og, GraphAction(group, lp, [[0, 1], [0, 1]],
                                        [[True, False], [True, False]]))
    with pytest.raises(ValidationError, match="edge_flip needs an edge_perm"):
        GraphAction(group, lp, edge_flip=[[False, False], [True, True]])


def test_validate_action_condition_violation():
    g = build_graph(
        [Vertex("a", Neumann()), Vertex("b", Dirichlet()), Vertex("m", Neumann())],
        [Edge("e1", "a", "m", 1.0), Edge("e2", "b", "m", 1.0)],
        pending_leads={"a": 1, "b": 1},
    )
    og = attach_leads(g, ["a", "b"])
    group = FiniteGroup(("e", "s"), np.array([[0, 1], [1, 0]]))
    act = GraphAction(group, np.array([[0, 1], [1, 0]]))
    with pytest.raises(ConditionViolation):
        validate_action(og, act)


def test_validate_action_matrix_condition_up_to_channel_relabeling():
    # two disjoint 2-lead vertices swapped by the action with crossed leads;
    # the fixed matrices must match after relabeling the channels, so the
    # diagonal at the image vertex appears reversed
    from qgscatter.graph_core import FixedUnitary

    def make(sigma_b):
        g = build_graph(
            [Vertex("a", FixedUnitary(np.diag([1.0, -1.0]))),
             Vertex("b", FixedUnitary(sigma_b))],
            [],
            pending_leads={"a": 2, "b": 2},
        )
        return attach_leads(g, ["a", "a", "b", "b"])

    group = FiniteGroup(("e", "s"), np.array([[0, 1], [1, 0]]))
    # a's leads l0, l1 cross onto b's l3, l2
    act = GraphAction(group, np.array([[0, 1, 2, 3], [3, 2, 1, 0]]))

    ok = make(np.diag([-1.0, 1.0]))
    assert validate_action(ok, act).ok
    with pytest.raises(ConditionViolation):
        validate_action(make(np.diag([1.0, -1.0])), act)

    # the same graphs with the global lead order shuffled and the action
    # relabeled to match; the local channel order (by lead id) is unchanged
    order = [2, 0, 3, 1]
    position = np.argsort(order)
    shuffled = GraphAction(group, np.array([position[row[order]] for row in act.lead_perm]))
    assert validate_action(ok.with_lead_order(order), shuffled).ok
    with pytest.raises(ConditionViolation):
        validate_action(make(np.diag([1.0, -1.0])).with_lead_order(order), shuffled)


def test_validate_action_compares_dft_channel_order():
    # the cyclic shift of three leads does not keep the DFT matrix, so S(k)
    # of the star does not commute with it; l -> -l (mod 4) keeps it
    act = GraphAction(cyclic_group(3), [[(i + j) % 3 for i in range(3)] for j in range(3)])
    with pytest.raises(ConditionViolation):
        validate_action(star_open_graph(3, condition=DFT()), act)
    group = FiniteGroup(("e", "s"), np.array([[0, 1], [1, 0]]))
    act = GraphAction(group, [[0, 1, 2, 3], [0, 3, 2, 1]])
    assert validate_action(star_open_graph(4, condition=DFT()), act).ok


def test_validate_action_length_violation():
    g = build_graph(
        [Vertex("a", Neumann()), Vertex("b", Neumann()), Vertex("m", Neumann())],
        [Edge("e1", "a", "m", 1.0), Edge("e2", "b", "m", 2.0)],
        pending_leads={"a": 1, "b": 1},
    )
    og = attach_leads(g, ["a", "b"])
    group = FiniteGroup(("e", "s"), np.array([[0, 1], [1, 0]]))
    act = GraphAction(group, np.array([[0, 1], [1, 0]]),
                      edge_perm=np.array([[0, 1], [1, 0]]))
    with pytest.raises(LengthViolation):
        validate_action(og, act)


def test_lead_permutation_matrix_golden():
    og, act, _ = s3_star_action()
    mats = lead_permutation_matrices(act)
    p12 = mats[act.group.index("(1,2)")]
    expected = np.array([
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ])
    np.testing.assert_array_equal(p12.real.astype(int), expected)
    np.testing.assert_array_equal(mats[0], np.eye(6))
    np.testing.assert_allclose(p12 @ p12, np.eye(6), atol=1e-15)


def test_intertwiner_trivial_subgroup_rep():
    og, act, _ = s3_star_action()
    sub_act, rho = h_subaction(og, act)
    phis = intertwiner_basis(lead_permutation_matrices(sub_act), rho)
    assert len(phis) == 3
    # dimension law: the count equals the character-theoretic multiplicity,
    # here for an action that is not free (orbits of size two)
    assert rep_multiplicity_in_leads(sub_act, rho) == 3
    target = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1],
                       [0, 0, 0, 1, 1, 0]], dtype=float).T
    enc = encoding_map(phis, [1.0])
    assert subspace_distance(enc.upsilon, target) <= 1e-10
    # on the symmetric subspace the left inverse is diagonal in orbit
    # coordinates: each orbit indicator maps to a multiple of one basis
    # vector, i.e. it reads off the value on one representative lead per
    # orbit (up to the normalization of the orthonormal basis)
    coeff = enc.pseudo_inverse @ target
    off_diag = coeff - np.diag(np.diag(coeff))
    np.testing.assert_allclose(off_diag, np.zeros((3, 3)), atol=1e-12)
    np.testing.assert_allclose(np.diag(coeff), np.full(3, np.diag(coeff)[0]), atol=1e-12)
    np.testing.assert_allclose(enc.upsilon @ coeff, target, atol=1e-12)


def test_intertwiner_two_dimensional_rep_span():
    og, act, rho = s3_star_action()
    phis = intertwiner_basis(lead_permutation_matrices(act), rho)
    assert len(phis) == 2
    # independent construction: amplitude vectors of the first component of
    # a pair transforming by rho are g -> (rho(g) c)_1, c in C^2
    g = act.group
    direct = np.array([
        [np.array(R2D_MATRICES[e], dtype=complex)[0, i] for e in g.elements]
        for i in range(2)
    ]).T
    expected_literal = np.array([[1, -1, 0, 1, 0, -1], [0, 1, -1, 0, -1, 1]], dtype=float).T
    assert subspace_distance(direct, expected_literal) <= 1e-12
    enc = encoding_map(phis, [1.0, 0.0])
    assert subspace_distance(enc.upsilon, direct) <= 1e-10


def test_free_action_multiplicity_equals_dimension():
    og, act, rho = s3_star_action()
    phis = intertwiner_basis(lead_permutation_matrices(act), rho)
    assert len(phis) == rho.dim
    assert rep_multiplicity_in_leads(act, rho) == rho.dim


def test_encoding_map_errors():
    og, act, rho = s3_star_action()
    phis = intertwiner_basis(lead_permutation_matrices(act), rho)
    with pytest.raises(DependentColumns):
        encoding_map(phis, [0.0, 0.0])
    with pytest.raises(DependentColumns):
        encoding_map([], [1.0])


def test_encoding_single_copy_gives_unit_column():
    og, act, _ = s3_star_action()
    one = trivial_rep(act.group)
    phis = intertwiner_basis(lead_permutation_matrices(act), one)
    assert len(phis) == 1
    enc = encoding_map(phis, [1.0])
    assert enc.upsilon.shape == (6, 1)
    np.testing.assert_allclose(np.linalg.norm(enc.upsilon), 1.0, atol=1e-12)


def test_quotient_by_trivial_subgroup_rep():
    og, act, _ = s3_star_action()
    sub_act, rho = h_subaction(og, act)
    q = quotient_scattering(og, sub_act, rho, None, k=1.0)
    np.testing.assert_allclose(q, GOLDEN_STAR3, atol=1e-12)


def test_quotient_by_two_dimensional_rep():
    og, act, rho = s3_star_action()
    q = quotient_scattering(og, act, rho, None, k=1.0)
    np.testing.assert_allclose(q, -np.eye(2), atol=1e-12)


def test_quotient_by_full_trivial_rep():
    og, act, _ = s3_star_action()
    q = quotient_scattering(og, act, trivial_rep(act.group), None, k=1.0)
    np.testing.assert_allclose(q, [[1.0]], atol=1e-12)


def test_quotient_direct_sum():
    og, act, rho = s3_star_action()
    one = trivial_rep(act.group)
    q = quotient_scattering_sum(og, act, [(one, 1, None), (rho, 1, None)], k=1.0)
    np.testing.assert_allclose(q, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    q2 = quotient_scattering_sum(og, act, [(one, 2, None)], k=1.0)
    np.testing.assert_allclose(q2, np.eye(2), atol=1e-12)
    q0 = quotient_scattering_sum(og, act, [], k=1.0)
    assert q0.shape == (0, 0)


def test_quotient_rejects_reducible():
    og, act, _ = s3_star_action()
    g = act.group
    perm_rep = MatrixRep(g, lead_permutation_matrices(act))
    with pytest.raises(NotIrreducible):
        quotient_scattering(og, act, perm_rep, None, k=1.0)


def arms(lengths):
    """A Neumann centre with one arm of each length to a Neumann tip; lead i
    sits at the tip of arm i. An action given by its lead map alone maps
    tips onto tips, all Neumann, so :func:`validate_action` passes it
    whatever the lengths."""
    tips = [f"t{i}" for i in range(len(lengths))]
    g = build_graph([Vertex("c", Neumann())] + [Vertex(t, Neumann()) for t in tips],
                    [Edge(f"a{i}", "c", t, lengths[i]) for i, t in enumerate(tips)],
                    pending_leads={t: 1 for t in tips})
    return attach_leads(g, tips)


def test_quotient_requires_commuting_s():
    og = arms([1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
    _, act, rho = s3_star_action()
    with pytest.raises(NotEquivariant):
        quotient_scattering(og, act, rho, None, k=1.0)


def test_quotient_names_the_first_element_that_does_not_commute():
    # Z2 x Z2 on four arms: the swap of leads 1 and 3, on arms of one length,
    # commutes with S; the swap of leads 0 and 2 and its product with it do not
    group = FiniteGroup(("e", "a", "b", "ab"), np.array([[i ^ j for j in range(4)]
                                                         for i in range(4)]))
    act = GraphAction(group, [[0, 1, 2, 3], [0, 3, 2, 1], [2, 1, 0, 3], [2, 3, 0, 1]])
    og = arms([1.0, 1.3, 1.7, 1.3])
    s = scattering_matrix(og, 1.0).s
    p = lead_permutation_matrices(act)
    assert np.linalg.norm(p[1] @ s - s @ p[1]) <= 1e-12
    defect = float(np.linalg.norm(p[2] @ s - s @ p[2]))
    with pytest.raises(NotEquivariant) as raised:
        quotient_scattering(og, act, trivial_rep(group), None, k=1.0)
    assert str(raised.value) == (f"S(k) does not commute with b (defect {defect:.3e}); "
                                 "the graph does not have this symmetry")


def test_quotient_off_the_real_axis_checks_s_relative_to_its_scale():
    # two equal arms swapped: P S - S P is 0, but |S_ij| reaches 4.9e8 at
    # Im k = -10 and 1e260 at -300, so absolute defects fail on rounding alone
    group = FiniteGroup(("e", "s"), np.array([[0, 1], [1, 0]]))
    og, act = arms([1.0, 1.0]), GraphAction(group, [[0, 1], [1, 0]])
    for k in (2.5 - 10j, 2.5 - 150j, 2.5 - 300j):
        s = scattering_matrix(og, k).s
        q = quotient_scattering(og, act, trivial_rep(group), None, k=k)
        np.testing.assert_allclose(q, [[s[0, 0] + s[0, 1]]], rtol=1e-12)
    with pytest.raises(DeterminantOverflow, match=r"not finite at k = \(2.5-800j\)"):
        quotient_scattering(og, act, trivial_rep(group), None, k=2.5 - 800j)


def test_quotient_reports_a_subspace_that_s_leaks_out_of(monkeypatch):
    # S commutes with the action, but the encoding handed in spans only the
    # first lead, which S of the Neumann star does not keep
    from qgscatter import symmetry_rep
    from qgscatter.symmetry_rep import EncodingMap

    og, act, _ = s3_star_action()
    e0 = np.eye(6, 1, dtype=complex)
    # the fresh graph has a fresh Assembly, so no encoding is kept for it
    monkeypatch.setattr(symmetry_rep, "encoding_map",
                        lambda phis, v: EncodingMap(upsilon=e0, pseudo_inverse=e0.T))
    with pytest.raises(NotEquivariant, match="leaks out of the encoded subspace"):
        quotient_scattering(og, act, trivial_rep(act.group), None, k=1.0)


def test_choice_of_carrier_vector_conjugates():
    og, act, rho = s3_star_action()
    q1 = quotient_scattering(og, act, rho, [1.0, 0.0], k=1.0)
    q2 = quotient_scattering(og, act, rho, [0.3, 0.7 - 0.2j], k=1.0)
    e1 = np.sort_complex(np.linalg.eigvals(q1))
    e2 = np.sort_complex(np.linalg.eigvals(q2))
    np.testing.assert_allclose(e1, e2, atol=1e-9)


def test_equivariance_on_symmetric_graphs():
    rng = np.random.default_rng(404)
    for _ in range(10):
        og, act = pinwheel(rng)
        validate_action(og, act)
        mats = lead_permutation_matrices(act)
        k = float(rng.uniform(0.3, 12.0))
        s = scattering_matrix(og, k).s
        for p in mats:
            assert np.linalg.norm(p @ s - s @ p) <= 1e-10


def test_quotient_unitarity_at_real_k():
    og, act, rho = s3_star_action()
    for k in (0.7, 3.1):
        q = quotient_scattering(og, act, rho, None, k=k)
        np.testing.assert_allclose(q @ q.conj().T, np.eye(q.shape[0]), atol=1e-10)


def test_induced_character_from_trivial_subgroup():
    g, _ = symmetric_group(3)
    chi = induced_character(g, ["e"], [1.0])
    np.testing.assert_allclose(chi.values, [6, 0, 0, 0, 0, 0], atol=1e-12)


def test_induced_character_s3_identity():
    g, _ = symmetric_group(3)
    chi_ind = induced_character(g, ["e", "(1,2)"], {"e": 1.0, "(1,2)": 1.0})
    rho = MatrixRep(g, tuple(np.array(R2D_MATRICES[e], dtype=complex) for e in g.elements))
    total = trivial_rep(g).character() + rho.character()
    equal, dev = characters_equal(chi_ind, total, tol=1e-12)
    assert equal and dev <= 1e-12
    np.testing.assert_allclose(chi_ind.values, [3, 1, 1, 1, 0, 0], atol=1e-12)


def test_induced_character_degree():
    g, _ = symmetric_group(3)
    chi = induced_character(g, ["e", "(1,2,3)", "(1,3,2)"], [1.0, 1.0, 1.0])
    assert abs(chi.values[0] - 2.0) <= 1e-12


def test_induced_characters_dihedral_pair():
    d4 = dihedral_group(4)
    chi1 = induced_character(d4, ["e", "rx", "ry", "s2"],
                             {"e": 1, "rx": -1, "ry": 1, "s2": -1})
    chi2 = induced_character(d4, ["e", "ru", "rv", "s2"],
                             {"e": 1, "ru": 1, "rv": -1, "s2": -1})
    equal, dev = characters_equal(chi1, chi2)
    assert equal and dev <= 1e-12
    # both induce the two-dimensional irreducible character
    expected = {"e": 2, "s": 0, "s2": -2, "s3": 0,
                "rx": 0, "ry": 0, "ru": 0, "rv": 0}
    np.testing.assert_allclose(chi1.values, [expected[e] for e in d4.elements], atol=1e-12)


def test_characters_equal_group_mismatch():
    g3, _ = symmetric_group(3)
    d4 = dihedral_group(4)
    c1 = trivial_rep(g3).character()
    c2 = trivial_rep(d4).character()
    with pytest.raises(GroupMismatch):
        characters_equal(c1, c2)


def test_regular_vs_trivial_characters_differ():
    g, _ = symmetric_group(3)
    regular = induced_character(g, ["e"], [1.0])
    equal, dev = characters_equal(regular, trivial_rep(g).character())
    assert not equal and dev > 1.0


def test_secular_consistency_of_isospectral_quotients():
    og, act, rho = s3_star_action()
    sub_act, one_h = h_subaction(og, act)
    one_g = trivial_rep(act.group)
    for k in (0.5, 1.7, 9.0):
        q1 = quotient_scattering(og, sub_act, one_h, None, k=k)
        q2 = quotient_scattering_sum(og, act, [(one_g, 1, None), (rho, 1, None)], k=k)
        d1 = np.linalg.det(np.eye(3) - q1)
        d2 = np.linalg.det(np.eye(3) - q2)
        assert abs(d1) <= 1e-12 and abs(d2) <= 1e-12


# ---------------------------------------------------------------------------
# the set-up of quotient_scattering, kept on the graph's Assembly per action
# ---------------------------------------------------------------------------

def test_quotient_sum_sweep_validates_once_and_matches_fresh_blocks(monkeypatch):
    from qgscatter import symmetry_rep
    from qgscatter.global_scattering import Assembly

    rng = np.random.default_rng(11)
    og, act = pinwheel(rng, 4, True)
    reps = [trivial_rep(act.group),
            MatrixRep(act.group, tuple(np.array([[1j ** j]]) for j in range(4))),
            MatrixRep(act.group, tuple(np.array([[(-1) ** j]]) for j in range(4)))]
    counts = [1, 1, 2]
    validated, solved = [], []
    validate, scattering = symmetry_rep.validate_action, Assembly.scattering

    def counting(og, act):
        validated.append(act)
        return validate(og, act)

    def counting_scattering(self, *args, **kwargs):
        solved.append(args)
        return scattering(self, *args, **kwargs)

    monkeypatch.setattr(symmetry_rep, "validate_action", counting)
    monkeypatch.setattr(Assembly, "scattering", counting_scattering)
    encodings = [encoding_map(intertwiner_basis(lead_permutation_matrices(act), rho), [1.0])
                 for rho in reps]
    for k in (0.9, 2.3, 4.1, 6.6 - 0.2j, 7.5):
        before = len(solved)
        q = quotient_scattering_sum(og, act, list(zip(reps, counts, [None] * 3)), k=k)
        assert len(solved) == before + 1  # one S(k) for all terms
        s = Assembly(og).scattering(k).s
        fresh = [enc.pseudo_inverse @ s @ enc.upsilon for enc in encodings]
        assert np.array_equal(q, np.diag([b[0, 0] for b, n in zip(fresh, counts)
                                          for _ in range(n)]))
        for rho, block in zip(reps, fresh):
            assert np.array_equal(quotient_scattering(og, act, rho, None, k=k), block)
    assert validated == [act]


def test_quotient_failures_are_not_kept():
    og, act, rho = s3_star_action()
    bad = np.array(act.lead_perm, copy=True)
    bad[1] = [0, 0, 5, 4, 3, 2]
    invalid = GraphAction(act.group, bad)
    reducible = MatrixRep(act.group, lead_permutation_matrices(act))
    for _ in range(2):
        with pytest.raises(NotHomomorphism):
            quotient_scattering(og, invalid, rho, None, k=1.0)
    quotient_scattering(og, act, rho, None, k=1.0)
    for _ in range(2):
        with pytest.raises(NotIrreducible):
            quotient_scattering(og, act, reducible, None, k=1.0)
        with pytest.raises(DependentColumns):
            quotient_scattering(og, act, rho, [0.0, 0.0], k=1.0)
        with pytest.raises(ValidationError, match="length 3.*dimension 2"):
            quotient_scattering(og, act, rho, [1.0, 0.0, 0.0], k=1.0)
        for n_i in (-1, 0, 1.7):
            with pytest.raises(ValidationError, match="not an integer >= 1"):
                quotient_scattering_sum(og, act, [(rho, n_i, None)], k=1.0)
        with pytest.raises(NotHomomorphism):
            quotient_scattering(og, invalid, rho, None, k=1.0)


def test_quotient_memo_follows_the_graph():
    # a second graph with the same action gets its own S, then the first again
    og, act, rho = s3_star_action()
    other = arms([1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
    expected = quotient_scattering(og, act, rho, None, k=1.0)
    with pytest.raises(NotEquivariant):
        quotient_scattering(other, act, rho, None, k=1.0)
    assert np.array_equal(quotient_scattering(og, act, rho, None, k=1.0), expected)


def _kept_encodings(og, act):
    """The encodings that quotients keep for ``act`` on the Assembly of ``og``."""
    return global_scattering._assembly(og)._kept["quotients"][act][1]


def test_equal_reps_built_afresh_share_one_encoding():
    import gc
    import weakref

    og, act, rho = s3_star_action()
    expected = [quotient_scattering(og, act, trivial_rep(act.group), None, k=k)
                for k in (0.7, 1.9)]
    for k in np.linspace(0.5, 6.0, 40):
        fresh = trivial_rep(act.group)
        quotient_scattering(og, act, fresh, None, k=k)
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None
    assert len(_kept_encodings(og, act)) == 1
    for k, q in zip((0.7, 1.9), expected):
        assert np.array_equal(quotient_scattering(og, act, trivial_rep(act.group), None, k=k), q)


def test_carrier_sweep_keeps_a_bounded_encodings_dict():
    from qgscatter import symmetry_rep

    og, act, rho = s3_star_action()
    limit = symmetry_rep._MAX_ENCODINGS
    for t in np.linspace(0.1, 3.0, 2 * limit + 5):
        v = [1.0, t]
        q = quotient_scattering(og, act, rho, v, k=1.3)
        enc = encoding_map(intertwiner_basis(lead_permutation_matrices(act), rho), v)
        fresh = enc.pseudo_inverse @ scattering_matrix(og, 1.3).s @ enc.upsilon
        assert np.array_equal(q, fresh)
        assert len(_kept_encodings(og, act)) <= limit


def test_quotient_memo_holds_only_the_last_pair():
    import gc
    import weakref

    og, act, rho = s3_star_action()
    quotient_scattering(og, act, rho, None, k=1.0)
    ref = weakref.ref(og)
    other, other_act, other_rho = s3_star_action()
    quotient_scattering(other, other_act, other_rho, None, k=1.0)
    del og, act
    # the Assembly memo of scattering_matrix holds the last four graphs
    for n in range(2, 6):
        scattering_matrix(star_open_graph(n), 1.0)
    gc.collect()
    assert ref() is None


def test_two_quotients_of_one_graph_alternate_in_a_sweep(monkeypatch):
    # the paper's pair: quotients of the S3 star by H and by H2, swept side
    # by side, validate each action once and give the bits of one-action
    # sweeps on a fresh copy of the graph
    from qgscatter import symmetry_rep
    from qgscatter.cli import parse_graph_file, parse_symmetry_file

    spec = parse_symmetry_file(DATA_DIR / "s3_sym.json")
    pairs = [spec.resolve("1_H"), spec.resolve("1_H2")]
    ks = np.linspace(0.5, 12.0, 200)
    fresh = parse_graph_file(DATA_DIR / "s3_star.json")
    expected = [[quotient_scattering(fresh, act, rho, None, k=k) for k in ks]
                for act, rho in pairs]
    validated = []
    validate = symmetry_rep.validate_action

    def counting(og, act):
        validated.append(act)
        return validate(og, act)

    monkeypatch.setattr(symmetry_rep, "validate_action", counting)
    og = parse_graph_file(DATA_DIR / "s3_star.json")
    for j, k in enumerate(ks):
        for (act, rho), sweep in zip(pairs, expected):
            assert np.array_equal(quotient_scattering(og, act, rho, None, k=k), sweep[j])
    assert validated == [act for act, _ in pairs]


def test_quotient_set_ups_leave_the_memo_with_their_graph():
    # the set-up is keyed weakly by the action and refers to neither the
    # action nor the graph: a dropped action leaves its set-up at once, and
    # the graph and its Assembly leave with the memo of the last four graphs
    import gc
    import weakref

    og, act, rho = s3_star_action()
    sub_act = act.restricted(subgroup(act.group, ["e", "(1,2)"]))
    quotient_scattering(og, act, rho, None, k=1.0)
    quotient_scattering(og, sub_act, trivial_rep(sub_act.group), None, k=1.0)
    asm = global_scattering._assembly(og)
    setups = asm._kept["quotients"]
    dead_og, dead_asm = weakref.ref(og), weakref.ref(asm)
    dead_act, dead_sub = weakref.ref(act), weakref.ref(sub_act)
    assert len(setups) == 2
    del sub_act
    gc.collect()
    assert dead_sub() is None and list(setups.keys()) == [act]
    del og, act, rho, asm, setups
    for n in range(2, 6):
        scattering_matrix(star_open_graph(n), 1.0)
    gc.collect()
    assert dead_og() is None and dead_asm() is None and dead_act() is None
