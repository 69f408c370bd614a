"""Greedy melonic reduction by rebuilding the graph after every move: a reference for the tests.

The library cancels dipoles in place on one set of mutable matchings.
This reduction rescans every white for dipoles and builds a fresh, fully
validated ColourfulGraph after each move, with no incremental argument,
so the tests can compare the two move for move.
"""

from gemkit import ColourfulGraph, DipoleMove, Disconnected, InvalidMove, ReductionTrace
from gemkit.graph import is_connected


def find_dipoles(G):
    """Every (white, black) pair joined by exactly d colours, white then black ascending."""
    moves = []
    if G.half < 2:
        return moves
    for w in range(1, G.half + 1):
        partners = {}
        for c in range(1, G.d + 2):
            partners.setdefault(G.partner(w, c), []).append(c)
        for b in sorted(partners):
            colours = partners[b]
            if len(colours) == G.d:
                free = next(c for c in range(1, G.d + 2) if c not in colours)
                moves.append(DipoleMove(w, b, free))
    return moves


def remove_dipole(G, move):
    """The graph without the dipole, free-colour edges spliced, relabelled in order."""
    w, b, free = move.white_vertex, move.black_vertex, move.free_colour
    half = G.half
    if G.half < 2:
        raise InvalidMove("the 2-vertex dipole is terminal")
    if not (1 <= w <= half and half + 1 <= b <= G.n and 1 <= free <= G.d + 1):
        raise InvalidMove(f"move {move} out of range for n={G.n}")
    colours = [c for c in range(1, G.d + 2) if G.partner(w, c) == b]
    if len(colours) != G.d or free in colours:
        raise InvalidMove(f"{(w, b)} is not a dipole with free colour {free}")

    b_prime = G.partner(w, free)
    w_prime = G.inverse(free)[b - half - 1]
    beta = b - half

    def new_black(b0):
        idx = b0 - half
        return (half - 1) + idx - (idx > beta)

    matchings = []
    for c in range(1, G.d + 2):
        m = G.matchings[c - 1]
        row = []
        for w0 in range(1, half + 1):
            if w0 == w:
                continue
            if c == free and w0 == w_prime:
                row.append(new_black(b_prime))
            else:
                row.append(new_black(m[w0 - 1]))
        matchings.append(row)
    return ColourfulGraph(G.d, matchings)


def melonic_reduce(G):
    """Take the first dipole found, remove it, and repeat until stuck or terminal."""
    if not is_connected(G):
        raise Disconnected("melonic reduction is defined for connected graphs")
    moves = []
    g = G
    while g.half > 1:
        found = find_dipoles(g)
        if not found:
            break
        move = found[0]
        moves.append(move)
        g = remove_dipole(g, move)
    return ReductionTrace(tuple(moves), g, g.half == 1)
