"""Dipole moves and melonic reduction.

A dipole is a white/black vertex pair joined by exactly d parallel edges,
using every colour except one (the free colour).  Removing it deletes the
pair and splices the two free-colour edges into one; the encoded space is
unchanged up to homeomorphism when the graph stays nontrivial.  A graph
reducible to the 2-vertex dipole by such moves is called melonic, and its
space is a d-sphere.

Every move goes through one in-place engine, ``_Cancellation(G)``, built
from a graph's matchings, or from those of a colour subset alone.  It keeps
each matching and its inverse as a mutable map in the graph's own vertex
labels, so a cancellation costs O(d): it deletes the pair's 2(d+1) entries
and splices the free-colour edge.  Only the white at the far end of the
spliced edge changes its neighbours, so only it can change dipole status,
and the greedy reduction re-checks it alone; a min-heap of candidate
whites gives the lowest white with a dipole.  Each move also bisects the
sorted lists of alive whites and blacks, in O(log n), and deletes from
them (a memory shift).  A reduction of n vertices scans them once, in
O(nd), and builds one ColourfulGraph, at the end.  ``stuck_whites`` runs
the same engine on the matchings of a colour subset I alone, which reduces
every component of G_I at once: the manifold verdict reduces each
d-residue this way without reading its partition.

Moves are reported in the coordinates of the graph as relabelled by the
preceding moves (whites 1..n/2, blacks n/2+1..n, each in label order).
That relabelling preserves the order of the surviving vertices, so "lowest
white, then lowest black" picks the same pair in either labelling, and a
move's coordinates are the positions of its vertices among those still
alive.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, List, Optional, Tuple

from .errors import Disconnected, InvalidMove
from .graph import ColourfulGraph, _check_colours, is_connected


@dataclass(frozen=True, order=True)
class DipoleMove:
    white_vertex: int
    black_vertex: int
    free_colour: int


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


class _Cancellation:
    """Matchings under in-place dipole cancellation.

    fwd[i] maps each alive white to its black along the i-th colour, inv[i]
    maps each alive black back; whites and blacks list the alive vertices
    in ascending label order.  Colours are indexed by position, 0-based.
    """

    __slots__ = ("d", "fwd", "inv", "whites", "blacks")

    def __init__(self, G: ColourfulGraph, colours: Optional[Iterable[int]] = None):
        """G's matchings, or only those of the given colours (the residue
        G_I, every component at once), in G's labels."""
        whites = list(range(1, G.half + 1))
        ms = G.matchings if colours is None else [G.matchings[c - 1] for c in colours]
        self.d = len(ms) - 1
        self.fwd = [dict(zip(whites, m)) for m in ms]
        self.inv = [dict(zip(m, whites)) for m in ms]
        self.whites = whites
        self.blacks = list(range(G.half + 1, G.n + 1))

    def dipoles_at(self, w: int) -> List[Tuple[int, int]]:
        """(black, free colour index) of each dipole at white w, black ascending.

        Two dipoles share a white only when d = 1.
        """
        ends = [m[w] for m in self.fwd]
        distinct = set(ends)
        if len(distinct) != 2:
            return []
        lo, hi = sorted(distinct)
        at_lo = ends.count(lo)
        found = []
        if at_lo == self.d:
            found.append((lo, ends.index(hi)))
        if len(ends) - at_lo == self.d:
            found.append((hi, ends.index(lo)))
        return found

    def cancel(self, w: int, b: int, free: int) -> int:
        """Delete the dipole (w, b), splice its free-colour edges, return the
        white now holding the spliced edge."""
        fwd, inv = self.fwd, self.inv
        b_far = fwd[free][w]
        w_far = inv[free][b]
        for m in fwd:
            del m[w]
        for m in inv:
            del m[b]
        fwd[free][w_far] = b_far
        inv[free][b_far] = w_far
        del self.whites[bisect_left(self.whites, w)]
        del self.blacks[bisect_left(self.blacks, b)]
        return w_far

    def reduce(self) -> List[Tuple[int, int, int]]:
        """Cancel greedily, lowest white then lowest black, until stuck or
        terminal; the moves as relabelled (white, black, free colour)."""
        moves = []
        heap = list(self.whites)  # ascending, so already a heap
        while heap and len(self.whites) > 1:
            w = heappop(heap)
            if w not in self.fwd[0]:  # a white can be queued twice, then cancelled
                continue
            found = self.dipoles_at(w)
            if not found:
                continue
            b, free = found[0]
            half = len(self.whites)
            white = bisect_left(self.whites, w) + 1
            moves.append((white, half + bisect_left(self.blacks, b) + 1, free + 1))
            w_far = self.cancel(w, b, free)
            if self.dipoles_at(w_far):
                heappush(heap, w_far)
        return moves

    def graph(self) -> ColourfulGraph:
        black_id = {b: i for i, b in enumerate(self.blacks, start=len(self.whites) + 1)}
        return ColourfulGraph(
            self.d, [[black_id[m[w]] for w in self.whites] for m in self.fwd]
        )


def find_dipoles(G: ColourfulGraph) -> List[DipoleMove]:
    """All (white, black) pairs joined by exactly d parallel edges.

    The 2-vertex graph is terminal rather than a move, so it yields none.
    """
    engine = _Cancellation(G)
    return [
        DipoleMove(w, b, free + 1)
        for w in engine.whites
        for b, free in engine.dipoles_at(w)
    ]


def remove_dipole(G: ColourfulGraph, move: DipoleMove) -> ColourfulGraph:
    """Delete the dipole pair and splice the free-colour edges.

    The result is relabelled canonically: whites above the removed white
    shift down by one, likewise black indices.
    """
    return replay(G, (move,))


def replay(G: ColourfulGraph, moves: Iterable[DipoleMove]) -> ColourfulGraph:
    """Apply a move sequence in order (each move in post-relabelling coordinates)."""
    engine = _Cancellation(G)
    whites, blacks = engine.whites, engine.blacks
    for move in moves:
        half = len(whites)
        w, b, free = move.white_vertex, move.black_vertex, move.free_colour
        if half < 2:
            raise InvalidMove("the 2-vertex dipole is terminal")
        if not (1 <= w <= half and half + 1 <= b <= 2 * half and 1 <= free <= engine.d + 1):
            raise InvalidMove(f"move {move} out of range for n={2 * half}")
        white, black = whites[w - 1], blacks[b - half - 1]
        if (black, free - 1) not in engine.dipoles_at(white):
            raise InvalidMove(f"{(w, b)} is not a dipole with free colour {free}")
        engine.cancel(white, black, free - 1)
    return engine.graph() if len(whites) < G.half else G


def melonic_reduce(G: ColourfulGraph) -> ReductionTrace:
    """Reduce greedily (lowest white vertex first) until stuck or terminal.

    reached_dipole=True certifies the encoded space is a d-sphere.  A failed
    greedy pass proves nothing: move orders are not known to be confluent,
    so callers must treat it as inconclusive.

    The terminal graph is always built anew, never G itself, even when no
    move applies: the verdicts keep the trace on G, and a trace that
    pointed back at G would make every such graph cyclic garbage.
    """
    if not is_connected(G):
        raise Disconnected("melonic reduction is defined for connected graphs")
    engine = _Cancellation(G)
    moves = tuple(DipoleMove(*m) for m in engine.reduce())
    terminal = engine.graph()
    return ReductionTrace(moves, terminal, terminal.half == 1)


def stuck_whites(G: ColourfulGraph, I: Iterable[int]) -> List[int]:
    """Surviving whites of the components of G_I whose greedy reduction is stuck.

    One engine reduces every component of G_I at once, in G's labels.  A
    move changes only its own component, and G's labels order each
    component's whites as its residue subgraph's relabelling does, so the
    lowest-white order makes within each component exactly the moves of
    ``melonic_reduce(residue_subgraph(G, I, component))``.  A component
    has reached the dipole iff its one surviving white has a single black
    neighbour; a stuck one keeps whites with two or more.  Empty iff every
    component of G_I reduces to the dipole.
    """
    engine = _Cancellation(G, _check_colours(G, I))
    engine.reduce()
    fwd = engine.fwd
    return [w for w in engine.whites if any(m[w] != fwd[0][w] for m in fwd)]
