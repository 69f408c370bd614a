"""Core graph model: colour sets, residues, kappa tables, genus."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from gemkit import (
    ColourfulGraph,
    EmbeddedResidue,
    InvalidColourSet,
    LengthMismatch,
    NotABijection,
    NotAComponent,
    RangeError,
    colour_deleted_components,
    complex_vertex_count,
    count_cycles,
    f_vector,
    genus_of_residue,
    has_property_P,
    is_connected,
    is_rational_homology_sphere,
    kappa_r,
    kappa_table,
    residue_subgraph,
    residues,
)
from gemkit.graph import _check_colours
from conftest import (
    dipole_graph,
    double_dipole_graph,
    split_pair_graph,
    torus_graph,
    torus_in_d3,
    two_tetrahedra_graph,
)
from residue_oracle import residue_components


@st.composite
def colourful_graphs(draw, max_d=4, max_half=4):
    d = draw(st.integers(1, max_d))
    half = draw(st.integers(1, max_half))
    blacks = list(range(half + 1, 2 * half + 1))
    ms = tuple(tuple(draw(st.permutations(blacks))) for _ in range(d + 1))
    return ColourfulGraph(d, ms)


# -------------------------------------------------------------- colour sets


def test_colour_set_iterates_sorted_and_deduplicates():
    G = two_tetrahedra_graph()
    assert G.colours == (1, 2, 3, 4)
    assert _check_colours(G, [3, 1, 3, 2]) == (1, 2, 3)
    assert _check_colours(G, iter([4, 2])) == (2, 4)
    assert _check_colours(G, ()) == ()
    assert residues(G, [3, 1, 3, 2]) is residues(G, (1, 2, 3))


def test_colour_set_rejects_non_colours():
    # every colour is checked before the range, in iteration order
    for I, named in (((1, "2"), "'2'"), ((7, 0), "0"), ((2, -1, 1.0), "-1"), ((None,), "None")):
        with pytest.raises(InvalidColourSet, match=rf"^colour {named} is not a positive integer$"):
            residues(two_tetrahedra_graph(), I)


# ------------------------------------------------------------- construction


def test_rejects_nonpositive_dimension():
    with pytest.raises(RangeError):
        ColourfulGraph(0, [(2,)])


def test_rejects_wrong_matching_count():
    with pytest.raises(LengthMismatch):
        ColourfulGraph(2, [(2,), (2,)])


def test_rejects_matchings_without_a_white_vertex():
    with pytest.raises(LengthMismatch, match="at least one white vertex"):
        ColourfulGraph(1, [(), ()])


def test_rejects_non_bijections():
    with pytest.raises(NotABijection):
        ColourfulGraph(1, [(3, 3), (3, 4)])
    with pytest.raises(NotABijection):
        ColourfulGraph(1, [(3, 4), (3,)])
    with pytest.raises(NotABijection):
        # entries must land in the black range
        ColourfulGraph(1, [(1, 2), (3, 4)])


@pytest.mark.parametrize(
    "matching",
    # entries a sort could not order, unhashable ones, and a float equal to a vertex
    [("a", 2), (3, None), ([3], 4), ([3], [4]), ({3}, 4), (3.0, 4)],
)
def test_rejects_entries_that_are_not_black_vertices(matching):
    with pytest.raises(NotABijection) as exc:
        ColourfulGraph(1, [matching, (3, 4)])
    assert str(exc.value) == "matching for colour 1 is not a bijection onto [3..4]"


def test_vertex_accessors_on_torus():
    G = torus_graph()
    assert G.n == 6 and G.half == 3
    assert G.partner(2, 1) == 5


def test_pair_permutation_cycles():
    G = torus_graph()
    # each pair of matchings differs by a 3-cycle, so one bicoloured cycle
    for i, j in itertools.combinations((1, 2, 3), 2):
        assert G.cycles_of_pair(i, j) == 1
    # colours outside [1..3] are refused, not wrapped round to the last colour
    for i in (0, 4):
        with pytest.raises(InvalidColourSet):
            G.cycles_of_pair(i, 1)
    assert count_cycles((2, 1, 3)) == 2
    assert count_cycles((1, 2, 3, 4)) == 4


def test_equality_and_hash():
    assert two_tetrahedra_graph() == two_tetrahedra_graph()
    assert ColourfulGraph(3, ((3, 4),) * 4) == double_dipole_graph()
    assert hash(torus_graph()) == hash(torus_graph())
    assert torus_graph() != torus_in_d3()


# ----------------------------------------------------------------- residues


def test_residues_with_no_colours_are_singletons():
    G = torus_graph()
    part = residues(G, ())
    assert len(part) == 6
    assert all(len(c) == 1 for c in part.components)


def test_residues_single_colour_gives_edge_pairs():
    G = torus_graph()
    part = residues(G, [2])
    assert len(part) == 3
    assert part.component_containing(1) == (1, 5)


def test_residues_full_colour_set():
    assert len(residues(torus_graph(), (1, 2, 3))) == 1
    assert len(residues(double_dipole_graph(), (1, 2, 3, 4))) == 2


def test_residues_rejects_unknown_colour():
    # the message names the smallest colour out of range
    for I, named in (((1, 4), 4), ((7, 1, 5), 5), ((2, 64), 64)):
        with pytest.raises(InvalidColourSet, match=rf"^colour {named} outside \[1\.\.3\]$"):
            residues(torus_graph(), I)


def test_residues_names_the_smallest_of_huge_colours():
    # each colour is compared with d+1 before it becomes a bit
    for I, named in (((2**40, 1), 2**40), ((10**9, 2**40), 10**9), (range(1, 10**4), 4)):
        with pytest.raises(InvalidColourSet, match=rf"^colour {named} outside \[1\.\.3\]$"):
            residues(torus_graph(), I)


@settings(max_examples=60, deadline=None)
@given(colourful_graphs())
def test_kappa_table_matches_direct_component_counts(G):
    table = kappa_table(G)
    subsets = [I for r in range(G.d + 2) for I in itertools.combinations(G.colours, r)]
    assert sorted(table) == sorted(subsets)
    for I in subsets:
        assert table[I] == len(residue_components(G, I))


@settings(max_examples=60, deadline=None)
@given(colourful_graphs(max_d=4, max_half=5))
def test_residue_engine_matches_bfs_oracle(G):
    for I in (I for r in range(G.d + 2) for I in itertools.combinations(G.colours, r)):
        part = residues(G, I)
        assert part.components == residue_components(G, I)
        for idx, comp in enumerate(part.components):
            assert all(part.component_of[v] == idx for v in comp)
        if len(I) == 2:
            assert G.cycles_of_pair(*I) == len(residue_components(G, I))
        assert residues(G, I) is part
        assert residues(G, list(I[::-1] + I)) is part
        with pytest.raises(TypeError):
            part.component_of[1] = 0


def test_residue_memo_leaves_identity_alone():
    G, H = two_tetrahedra_graph(), two_tetrahedra_graph()
    kappa_table(G)
    assert G == H and hash(G) == hash(H)
    assert repr(G) == repr(H) == "ColourfulGraph(d=3, n=4)"
    assert residues(G, (1, 2)) is not residues(H, (1, 2))


def test_pickle_and_copy_rebuild_without_the_memo():
    G = two_tetrahedra_graph()
    kappa_table(G)
    for H in (pickle.loads(pickle.dumps(G)), copy.copy(G), copy.deepcopy(G)):
        assert H == G
        assert residues(H, (1, 2, 3)) is not residues(G, (1, 2, 3))
        assert residues(H, (1, 2, 3)).components == residues(G, (1, 2, 3)).components


@settings(max_examples=60, deadline=None)
@given(colourful_graphs(max_d=3), st.data())
def test_kappa_r_is_the_subset_sum(G, data):
    table = kappa_table(G)
    size = data.draw(st.integers(1, G.d + 1))
    I = tuple(data.draw(st.permutations(range(1, G.d + 2)))[:size])
    for r in range(len(I) + 1):
        expected = sum(table[tuple(sorted(J))] for J in itertools.combinations(I, r))
        assert kappa_r(G, I, r) == expected


def test_kappa_values_two_tetrahedra():
    # one 3-subset count is 2, the other three are 1 (total complex vertices 5)
    table = kappa_table(two_tetrahedra_graph())
    assert table[(1, 2, 3)] == 2
    assert table[(1, 2, 4)] == 1
    assert table[(1, 3, 4)] == 1
    assert table[(2, 3, 4)] == 1
    assert complex_vertex_count(two_tetrahedra_graph()) == 5


def test_kappa_table_items_sorted_by_size():
    sizes = [len(I) for I in kappa_table(torus_graph())]
    assert sizes == sorted(sizes)


# ---------------------------------------------------------------- f-vectors


def test_f_vector_torus():
    # 3 vertices, 9 edges, 6 triangles; the complex vertices are the
    # bicoloured cycles, not the graph vertices
    assert f_vector(torus_graph(), (1, 2, 3)) == (3, 9, 6)


def test_f_vector_needs_a_colour():
    with pytest.raises(InvalidColourSet, match="at least one colour"):
        f_vector(torus_graph(), ())


def test_f_vector_two_tetrahedra_full():
    f = f_vector(two_tetrahedra_graph(), (1, 2, 3, 4))
    assert f == (5, 9, 8, 4)
    assert sum((-1) ** s * fs for s, fs in enumerate(f)) == 0


@settings(max_examples=40, deadline=None)
@given(colourful_graphs(max_d=3))
def test_f_vector_top_entry_counts_simplices(G):
    f = f_vector(G, G.colours)
    assert f[-1] == G.n
    assert f[-2] == G.n * (G.d + 1) // 2


# -------------------------------------------------------------------- genus


def test_torus_has_genus_one():
    G = torus_graph()
    emb = genus_of_residue(G, (1, 2, 3), range(1, 7))
    assert isinstance(emb, EmbeddedResidue)
    assert (emb.V, emb.E, emb.F, emb.genus) == (6, 9, 3, 1)


def test_sphere_residues_have_genus_zero():
    G = two_tetrahedra_graph()
    part = residues(G, (1, 2, 3))
    for comp in part.components:
        assert genus_of_residue(G, (1, 2, 3), comp).genus == 0
    emb = genus_of_residue(G, (1, 2, 4), range(1, 5))
    assert (emb.V, emb.E, emb.F, emb.genus) == (4, 6, 4, 0)


def test_genus_requires_three_colours_and_a_real_component():
    G = torus_graph()
    with pytest.raises(InvalidColourSet):
        genus_of_residue(G, (1, 2), (1, 4))
    with pytest.raises(NotAComponent):
        genus_of_residue(G, (1, 2, 3), (1, 2))


@pytest.mark.parametrize(
    "call, cs, component, shown",
    [(genus_of_residue, (1, 2, 3), ["a", 1], "('a', 1)"),
     (residue_subgraph, (1, 2), [1.0, 3], "(1.0, 3)"),
     (genus_of_residue, (1, 2, 3), 5, "5"),
     (genus_of_residue, (1, 2, 3), None, "None"),
     (residue_subgraph, (1, 2), 5, "5"),
     (is_rational_homology_sphere, (1, 2), 5, "5")],
)
def test_component_entries_must_be_integers(call, cs, component, shown):
    # read through operator.index, as matching entries are; a component
    # that is not iterable at all is refused the same way
    G = two_tetrahedra_graph()
    with pytest.raises(NotAComponent) as exc:
        call(G, cs, component)
    assert str(exc.value) == f"{shown} is not a component of the {cs}-residue"
    call(G, cs, [3, 1])  # a component given as integers passes


@settings(max_examples=40, deadline=None)
@given(colourful_graphs())
def test_every_three_residue_satisfies_euler_formula(G):
    if G.d < 2:
        return
    for I in itertools.combinations(range(1, G.d + 2), 3):
        faces = 0
        for comp in residues(G, I).components:
            emb = genus_of_residue(G, I, comp)
            assert emb.V - emb.E + emb.F == 2 - 2 * emb.genus
            assert emb.genus >= 0
            faces += emb.F
        # each bicoloured cycle is a face of exactly one component
        assert faces == sum(G.cycles_of_pair(i, j) for i, j in itertools.combinations(I, 2))


def test_property_P():
    assert has_property_P(two_tetrahedra_graph())
    assert has_property_P(dipole_graph(4))
    assert has_property_P(split_pair_graph())
    assert not has_property_P(torus_graph())
    assert not has_property_P(torus_in_d3())


# --------------------------------------------------------------- subgraphs


def test_residue_subgraph_relabels_canonically():
    G = two_tetrahedra_graph()
    part = residues(G, (2, 4))
    comp = part.component_containing(1)
    sub = residue_subgraph(G, (2, 4), comp)
    assert sub.d == 1
    assert sub.n == len(comp)
    # colours renumbered 1..|I| preserving order
    assert sub.colours == (1, 2)


def test_residue_subgraph_needs_two_colours():
    G = two_tetrahedra_graph()
    with pytest.raises(InvalidColourSet, match="at least two colours"):
        residue_subgraph(G, (2,), residues(G, (2,)).component_containing(1))


def test_residue_subgraph_of_everything_is_the_graph():
    G = two_tetrahedra_graph()
    assert residue_subgraph(G, (1, 2, 3, 4), range(1, 5)) == G


def test_colour_deleted_components_of_two_tetrahedra():
    comps = colour_deleted_components(two_tetrahedra_graph(), 4)
    assert len(comps) == 2
    for sub in comps:
        assert sub == dipole_graph(2)


def test_is_connected():
    assert is_connected(torus_graph())
    assert is_connected(split_pair_graph())
    assert not is_connected(double_dipole_graph())


def test_complex_vertex_count_torus():
    assert complex_vertex_count(torus_graph()) == 3
