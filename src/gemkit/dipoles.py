"""Dipole moves and melonic reduction.

A dipole is a white/black vertex pair joined by exactly d parallel edges,
using every colour except one (the free colour).  Removing it deletes the
pair and splices the two free-colour edges into one; the encoded space is
unchanged up to homeomorphism when the graph stays nontrivial.  A graph
reducible to the 2-vertex dipole by such moves is called melonic, and its
space is a d-sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .errors import Disconnected, InvalidMove
from .graph import ColourfulGraph, is_connected


@dataclass(frozen=True, order=True)
class DipoleMove:
    white_vertex: int
    black_vertex: int
    free_colour: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.white_vertex, self.black_vertex, self.free_colour)


@dataclass(frozen=True)
class ReductionTrace:
    """Sequence of dipole removals; move coordinates refer to the graph as
    relabelled by the preceding moves (replay applies them in order)."""

    moves: Tuple[DipoleMove, ...]
    terminal: ColourfulGraph
    reached_dipole: bool

    def moves_text(self) -> str:
        return " ".join(
            f"({m.white_vertex},{m.black_vertex},{m.free_colour})" for m in self.moves
        )


def find_dipoles(G: ColourfulGraph) -> List[DipoleMove]:
    """All (white, black) pairs joined by exactly d parallel edges.

    The 2-vertex graph is terminal rather than a move, so it yields none.
    """
    moves = []
    if G.half < 2:
        return moves
    for w in range(1, G.half + 1):
        partners: dict = {}
        for c in range(1, G.d + 2):
            partners.setdefault(G.partner(w, c), []).append(c)
        for b in sorted(partners):
            colours = partners[b]
            if len(colours) == G.d:
                free = next(
                    c for c in range(1, G.d + 2) if c not in colours
                )
                moves.append(DipoleMove(w, b, free))
    return moves


def remove_dipole(G: ColourfulGraph, move: DipoleMove) -> ColourfulGraph:
    """Delete the dipole pair and splice the free-colour edges.

    The result is relabelled canonically: whites above the removed white
    shift down by one, likewise black indices.
    """
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

    def new_white(w0: int) -> int:
        return w0 - (w0 > w)

    def new_black(b0: int) -> int:
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


def replay(G: ColourfulGraph, moves: Iterable[DipoleMove]) -> ColourfulGraph:
    """Apply a move sequence in order (each move in post-relabelling coordinates)."""
    for move in moves:
        G = remove_dipole(G, move)
    return G


def melonic_reduce(G: ColourfulGraph) -> ReductionTrace:
    """Reduce greedily (lowest white vertex first) until stuck or terminal.

    reached_dipole=True certifies the encoded space is a d-sphere.  A failed
    greedy pass proves nothing: move orders are not known to be confluent,
    so callers must treat it as inconclusive.
    """
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
