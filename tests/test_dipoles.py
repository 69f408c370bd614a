"""Dipole detection, removal, and melonic reduction."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import dipole_oracle
from gemkit import (
    ColourfulGraph,
    ConstructionParams,
    Disconnected,
    DipoleMove,
    InvalidMove,
    betti_numbers,
    build_manifold,
    colour_deleted_components,
    find_dipoles,
    melonic_reduce,
    order_complex,
    random_construction_params,
    remove_dipole,
    replay,
    residue_subgraph,
    residues,
)
from gemkit.dipoles import stuck_whites
from conftest import (
    dipole_graph,
    double_dipole_graph,
    split_pair_graph,
    torus_in_d3,
    two_tetrahedra_graph,
)


def test_terminal_graph_has_no_moves():
    for d in range(1, 6):
        assert find_dipoles(dipole_graph(d)) == []


def test_find_dipoles_two_tetrahedra():
    moves = find_dipoles(two_tetrahedra_graph())
    assert moves == [DipoleMove(1, 3, 4), DipoleMove(2, 4, 4)]


def test_full_parallel_pair_is_not_a_dipole():
    # d+1 parallel edges form a closed component, not a removable dipole
    assert find_dipoles(double_dipole_graph()) == []


def test_split_pair_graph_has_no_dipoles():
    assert find_dipoles(split_pair_graph()) == []


def test_remove_dipole_reaches_terminal():
    G = two_tetrahedra_graph()
    H = remove_dipole(G, DipoleMove(1, 3, 4))
    assert H == dipole_graph(3)


def test_remove_dipole_rejects_terminal_graph():
    with pytest.raises(InvalidMove):
        remove_dipole(dipole_graph(3), DipoleMove(1, 2, 1))


def test_remove_dipole_rejects_wrong_free_colour():
    with pytest.raises(InvalidMove):
        remove_dipole(two_tetrahedra_graph(), DipoleMove(1, 3, 1))


def test_remove_dipole_rejects_out_of_range():
    with pytest.raises(InvalidMove):
        remove_dipole(two_tetrahedra_graph(), DipoleMove(9, 3, 4))


def test_remove_dipole_splices_longer_chain():
    # three melons in a row; removing the middle pair keeps a valid graph
    G = ColourfulGraph(3, ((4, 5, 6), (4, 5, 6), (4, 5, 6), (5, 6, 4)))
    moves = find_dipoles(G)
    assert DipoleMove(1, 4, 4) in moves
    H = remove_dipole(G, DipoleMove(1, 4, 4))
    assert H.n == G.n - 2
    trace = melonic_reduce(G)
    assert trace.reached_dipole
    assert len(trace.moves) == 2
    assert replay(G, trace.moves) == trace.terminal == dipole_graph(3)


def test_trace_moves_text():
    trace = melonic_reduce(two_tetrahedra_graph())
    assert trace.moves_text() == "(1,3,4)"
    assert trace.reached_dipole


def test_reduction_stops_when_stuck():
    trace = melonic_reduce(torus_in_d3())
    assert not trace.reached_dipole
    assert trace.moves == ()
    assert trace.terminal == torus_in_d3()


def test_reduction_requires_connected_input():
    with pytest.raises(Disconnected):
        melonic_reduce(double_dipole_graph())


def test_dipole_move_preserves_betti_vector():
    G = two_tetrahedra_graph()
    before = betti_numbers(order_complex(G, G.colours)).betti
    H = remove_dipole(G, find_dipoles(G)[0])
    after = betti_numbers(order_complex(H, H.colours)).betti
    assert before == after == (1, 0, 0, 1)


def test_a_white_with_two_dipoles_lists_both_in_black_order():
    # d = 1, a 4-cycle: white 1 reaches black 4 by colour 1 and black 3 by
    # colour 2, so each edge alone is a dipole with the other colour free
    G = ColourfulGraph(1, ((4, 3), (3, 4)))
    assert find_dipoles(G) == [
        DipoleMove(1, 3, 1),
        DipoleMove(1, 4, 2),
        DipoleMove(2, 3, 2),
        DipoleMove(2, 4, 1),
    ]
    assert find_dipoles(G) == dipole_oracle.find_dipoles(G)
    trace = melonic_reduce(G)
    assert trace.moves == (DipoleMove(1, 3, 1),)
    assert trace.reached_dipole


def test_replay_raises_at_the_bad_move_with_remove_dipoles_text():
    G = ColourfulGraph(3, ((4, 5, 6), (4, 5, 6), (4, 5, 6), (5, 6, 4)))
    good = melonic_reduce(G).moves
    assert len(good) == 2
    before = replay(G, good[:1])
    bad_moves = [
        DipoleMove(1, 5, 4),  # out of range once one pair is gone
        DipoleMove(1, 3, 1),  # right pair, wrong free colour
        DipoleMove(1, 4, 4),  # joined by one colour only
    ]
    for bad in bad_moves:
        with pytest.raises(InvalidMove) as direct:
            remove_dipole(before, bad)
        with pytest.raises(InvalidMove) as oracle:
            dipole_oracle.remove_dipole(before, bad)
        with pytest.raises(InvalidMove) as replayed:
            replay(G, [good[0], bad, good[1]])
        assert str(replayed.value) == str(direct.value) == str(oracle.value)
    terminal = replay(G, good)
    with pytest.raises(InvalidMove, match="the 2-vertex dipole is terminal"):
        replay(G, [*good, DipoleMove(1, 2, 1)])
    assert terminal.n == 2


def test_a_thousand_vertex_melonic_residue_reaches_the_dipole():
    ident = tuple(range(1, 201))
    G = build_manifold(ConstructionParams(3, 200, ident, ident))
    keep = G.colours.minus([4])
    (comp,) = residues(G, keep).components
    (sub,) = colour_deleted_components(G, 4)
    assert sub.n == len(comp) == 2400
    trace = melonic_reduce(sub)
    assert trace.reached_dipole
    assert len(trace.moves) == 1199
    assert replay(sub, trace.moves) == trace.terminal
    assert stuck_whites(G, keep) == []


def _relabelled(ms, d, draw):
    """ColourfulGraph from 0-based white-to-black matchings, both sides shuffled."""
    half = len(ms[0])
    white = draw(st.permutations(range(half)))
    black = draw(st.permutations(range(half + 1, 2 * half + 1)))
    rows = [[0] * half for _ in ms]
    for row, m in zip(rows, ms):
        for w, b in enumerate(m):
            row[white[w]] = black[b]
    return ColourfulGraph(d, rows)


@st.composite
def dipole_rich_graphs(draw):
    """d = 1..6, n <= 40: a random core grown by random dipole insertions.

    Each insertion adds a pair joined by every colour but f and threads the
    f-edge of an existing white through it, so reductions are long and
    the greedy order matters; the core may be stuck or disconnected.
    """
    d = draw(st.integers(1, 6))
    half = draw(st.integers(1, 4))
    ms = [list(draw(st.permutations(range(half)))) for _ in range(d + 1)]
    for _ in range(draw(st.integers(0, 20 - half))):
        f = draw(st.integers(0, d))
        w = draw(st.integers(0, half - 1))
        for m in ms:
            m.append(half)
        ms[f][w], ms[f][half] = half, ms[f][w]
        half += 1
    return _relabelled(ms, d, draw)


@st.composite
def manifold_residues(draw):
    """Colour-deleted components of glued manifolds, d = 3..5."""
    d = draw(st.integers(3, 5))
    k = draw(st.integers(1, 3 if d < 5 else 2))
    G = build_manifold(random_construction_params(d, k, seed=draw(st.integers(0, 10**6))))
    return draw(st.sampled_from(colour_deleted_components(G, draw(st.integers(1, d + 1)))))


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(dipole_rich_graphs(), manifold_residues()), st.data())
def test_in_place_reduction_matches_the_rebuilding_oracle(G, data):
    everything = G.colours
    for comp in residues(G, everything).components:
        sub = residue_subgraph(G, everything, comp)
        trace = melonic_reduce(sub)
        expected = dipole_oracle.melonic_reduce(sub)
        assert trace.moves == expected.moves
        assert trace.terminal.matchings == expected.terminal.matchings
        assert trace.reached_dipole == expected.reached_dipole
        assert replay(sub, trace.moves) == trace.terminal
        assert find_dipoles(sub) == dipole_oracle.find_dipoles(sub)
    if len(residues(G, everything)) > 1:
        with pytest.raises(Disconnected):
            melonic_reduce(G)
    subsets = [I for r in range(2, G.d + 2) for I in itertools.combinations(everything, r)]
    # the whole colour set first: G itself may be disconnected
    for I in [everything, *data.draw(st.lists(st.sampled_from(subsets), max_size=4))]:
        part = residues(G, I)
        stuck = {
            comp
            for comp in part.components
            if not melonic_reduce(residue_subgraph(G, I, comp)).reached_dipole
        }
        assert {part.component_containing(w) for w in stuck_whites(G, I)} == stuck
