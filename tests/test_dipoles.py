"""Dipole detection, removal, and melonic reduction."""

import pytest

from gemkit import (
    ColourfulGraph,
    Disconnected,
    DipoleMove,
    InvalidMove,
    betti_numbers,
    find_dipoles,
    melonic_reduce,
    order_complex,
    remove_dipole,
    replay,
)
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
    assert moves[0].as_tuple() == (1, 3, 4)


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
