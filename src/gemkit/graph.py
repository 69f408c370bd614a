"""Core data model for colourful graphs.

A (d+1)-colourful graph is a bipartite (d+1)-regular multigraph whose edges
are properly coloured with [1..d+1]: every vertex meets each colour exactly
once, so each colour class is a perfect matching between the two vertex
classes.  We store the graph as d+1 bijections from white vertices to black
vertices, which makes regularity and properness structurally unviolable.

Vertex labelling convention: white vertices are 1..n/2, black vertices are
n/2+1..n.

Such a graph encodes a coloured d-dimensional triangulation built from n
d-simplices (one per vertex) glued facet-to-facet along edges; connected
components of colour-subset subgraphs ("residues") are in bijection with the
cells of that triangulation.

A colour set is any iterable of colours in [1..d+1]; every function here
reads it as the sorted tuple of its distinct colours, and tuples are what
the functions return (``ColourfulGraph.colours``, the keys of
``kappa_table``).  ``residues`` computes each partition once per graph and
colour set and keeps it on the graph under the set's bitmask (bit c-1 for
colour c); that key is private to this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    InvalidColourSet,
    InvariantViolated,
    LengthMismatch,
    NotABijection,
    NotAComponent,
    RangeError,
)

# Most colour subsets one call may enumerate: every subset of 13 colours
# (d = 12).  kappa_table, f_vector, order_complex and the manifold
# verdict's identity loop read up to 2^|I| residue partitions, so a short
# file with many colours would otherwise ask for billions of them.
COLOUR_SUBSET_MAX = 1 << 13


class ColourfulGraph:
    """A (d+1)-colourful graph in canonical white/black labelling.

    matchings[i] (0-based colour index, colour i+1) maps white vertex w in
    [1..half] to the black vertex in [half+1..n] joined to w by the edge of
    colour i+1.  Instances are immutable; all operations are pure functions.
    """

    __slots__ = ("d", "half", "matchings", "_residues")

    def __init__(self, d: int, matchings: Sequence[Sequence[int]]):
        if d < 1:
            raise RangeError(f"dimension d must be >= 1, got {d}")
        if len(matchings) != d + 1:
            raise LengthMismatch(
                f"expected {d + 1} matchings for d={d}, got {len(matchings)}"
            )
        half = len(matchings[0])
        if half < 1:
            raise LengthMismatch("matchings must cover at least one white vertex")
        blacks = range(half + 1, 2 * half + 1)
        frozen = []
        for idx, m in enumerate(matchings):
            t = tuple(m)
            if len(t) != half:
                raise NotABijection(
                    f"matching for colour {idx + 1} has length {len(t)}, expected {half}"
                )
            if sorted(t) != list(blacks):
                raise NotABijection(
                    f"matching for colour {idx + 1} is not a bijection onto "
                    f"[{half + 1}..{2 * half}]"
                )
            frozen.append(t)
        self.d = d
        self.half = half
        self.matchings = tuple(frozen)
        # colour bitmask -> ResiduePartition, written only by residues()
        self._residues: Dict[int, "ResiduePartition"] = {}

    @property
    def n(self) -> int:
        return 2 * self.half

    @property
    def colours(self) -> Tuple[int, ...]:
        """All colours, (1, ..., d+1)."""
        return tuple(range(1, self.d + 2))

    def partner(self, w: int, colour: int) -> int:
        """Black vertex joined to white w by the edge of the given colour."""
        return self.matchings[colour - 1][w - 1]

    def cycles_of_pair(self, i: int, j: int) -> int:
        """Number of bicoloured {i,j}-cycles, read from the residue engine (residues)."""
        return len(residues(self, (i, j)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColourfulGraph)
            and self.d == other.d
            and self.matchings == other.matchings
        )

    def __hash__(self) -> int:
        return hash((self.d, self.matchings))

    def __reduce__(self):
        # pickle and copy rebuild from the matchings; the memo is not state
        return (ColourfulGraph, (self.d, self.matchings))

    def __repr__(self) -> str:
        return f"ColourfulGraph(d={self.d}, n={self.n})"


def count_cycles(perm: Sequence[int]) -> int:
    """Number of cycles of a permutation given as a 1-based image tuple."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x] - 1
    return cycles


@dataclass(frozen=True)
class ResiduePartition:
    """Connected components of G_I; shared between callers, so read-only."""

    components: Tuple[Tuple[int, ...], ...]
    component_of: Mapping[int, int]

    def __len__(self) -> int:
        return len(self.components)

    def component_containing(self, v: int) -> Tuple[int, ...]:
        return self.components[self.component_of[v]]


def _colour_bits(G: ColourfulGraph, I: Iterable[int]) -> int:
    """The bitmask of colour set I (bit c-1 for colour c), validated against G."""
    bits = 0
    for c in I:
        if not isinstance(c, int) or c < 1:
            raise InvalidColourSet(f"colour {c!r} is not a positive integer")
        bits |= 1 << (c - 1)
    high = bits >> (G.d + 1)
    if high:
        c = G.d + 1 + (high & -high).bit_length()
        raise InvalidColourSet(f"colour {c} outside [1..{G.d + 1}]")
    return bits


def _colours_of(bits: int) -> Tuple[int, ...]:
    """The sorted colours of a bitmask."""
    return tuple(c for c in range(1, bits.bit_length() + 1) if bits >> (c - 1) & 1)


def _check_colours(G: ColourfulGraph, I: Iterable[int]) -> Tuple[int, ...]:
    """The sorted tuple of I's distinct colours; raises InvalidColourSet."""
    return _colours_of(_colour_bits(G, I))


def _check_subset_budget(colour_count: int) -> None:
    """Raise BudgetExceeded if the subsets of colour_count colours exceed the cap."""
    if 1 << colour_count > COLOUR_SUBSET_MAX:
        raise BudgetExceeded(
            f"{colour_count} colours have 2^{colour_count} subsets, "
            f"above the limit {COLOUR_SUBSET_MAX}"
        )


def residues(G: ColourfulGraph, I: Iterable[int]) -> ResiduePartition:
    """Components of G_I, ordered by minimum vertex, each sorted ascending.

    I is any iterable of colours; order and repeats do not matter.  The
    empty colour set yields n singleton components.  Each partition is
    computed once per graph and colour set, and later calls return that
    same object.
    """
    bits = _colour_bits(G, I)
    part = G._residues.get(bits)
    if part is None:
        # union-find with path halving; the smaller root wins, so every
        # root is its component's minimum and parent[v] <= v throughout
        parent = list(range(G.n + 1))
        for c in _colours_of(bits):
            for w, b in enumerate(G.matchings[c - 1], start=1):
                while parent[w] != w:
                    parent[w] = w = parent[parent[w]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if w < b:
                    parent[b] = w
                elif b < w:
                    parent[w] = b
        # ascending pass: a non-root v has parent[v] < v, already re-pointed
        # at its root, so each component opens at its minimum and fills in
        # ascending order
        comps: List[List[int]] = []
        component_of: Dict[int, int] = {}
        for v in range(1, G.n + 1):
            root = parent[v] = parent[parent[v]]
            if root == v:
                component_of[v] = len(comps)
                comps.append([v])
            else:
                idx = component_of[v] = component_of[root]
                comps[idx].append(v)
        components = tuple(map(tuple, comps))
        part = ResiduePartition(components, MappingProxyType(component_of))
        G._residues[bits] = part
    return part


def _check_component(
    G: ColourfulGraph, cs: Tuple[int, ...], component: Iterable[int]
) -> Tuple[int, ...]:
    """The component, sorted; raises NotAComponent unless it is one of G_cs."""
    comp = tuple(sorted(component))
    part = residues(G, cs)
    idx = part.component_of.get(comp[0]) if comp else None
    if idx is None or part.components[idx] != comp:
        raise NotAComponent(f"{comp} is not a component of the {cs}-residue")
    return comp


def kappa_table(G: ColourfulGraph) -> Dict[Tuple[int, ...], int]:
    """Component counts kappa(J) of G_J for all 2^(d+1) colour subsets J.

    Keys are sorted colour tuples, inserted by size and then by bitmask
    within a size: (), (1,), (2,), ..., (1, 2), (1, 3), (2, 3), (1, 4), ...
    kappa(()) = n; kappa of a single colour = n/2 (a perfect matching);
    kappa of a pair = number of bicoloured cycles.
    """
    _check_subset_budget(G.d + 1)
    table = {}
    for bits in sorted(range(1 << (G.d + 1)), key=int.bit_count):
        J = _colours_of(bits)
        table[J] = len(residues(G, J))
    return table


def kappa_r(G: ColourfulGraph, I: Iterable[int], r: int) -> int:
    """Sum of component counts over the r-subsets of I, computed directly.

    kappa_r(G, I, |J|) totals the cells of the complex of G_I having
    dimension |I|-1-r; in particular r=0 gives n and r=1 gives |I|*n/2.
    """
    cs = _check_colours(G, I)
    if r < 0 or r > len(cs):
        raise RangeError(f"r={r} outside [0..{len(cs)}]")
    if r == 0:
        return G.n
    if r == 1:
        return len(cs) * G.half
    return sum(len(residues(G, sub)) for sub in itertools.combinations(cs, r))


def f_vector(G: ColourfulGraph, I: Iterable[int]) -> Tuple[int, ...]:
    """Cell counts per dimension of the complex encoded by G_I.

    Entry s (0 <= s <= |I|-1) counts the s-dimensional cells; the top entry
    is always n (one top cell per graph vertex).
    """
    cs = _check_colours(G, I)
    size = len(cs)
    if size == 0:
        raise InvalidColourSet("f-vector needs at least one colour")
    _check_subset_budget(size)
    return tuple(kappa_r(G, cs, size - 1 - s) for s in range(size))


@dataclass(frozen=True)
class EmbeddedResidue:
    """A 3-coloured residue with its canonical-embedding face data.

    The canonical embedding places colours (i, j, k) clockwise around white
    vertices and (i, k, j) around black ones; its faces are exactly the
    bicoloured cycles, so Euler's formula V - E + F = 2 - 2*genus gives the
    genus without any face tracing.
    """

    component: Tuple[int, ...]
    colours: Tuple[int, int, int]
    V: int
    E: int
    F: int
    genus: int


def genus_of_residue(
    G: ColourfulGraph, I: Iterable[int], component: Iterable[int]
) -> EmbeddedResidue:
    """Genus of one connected 3-coloured residue via Euler's formula."""
    cs = _check_colours(G, I)
    if len(cs) != 3:
        raise InvalidColourSet(f"genus needs exactly 3 colours, got {len(cs)}")
    comp = _check_component(G, cs, component)
    V = len(comp)
    E = 3 * V // 2
    whites = [v for v in comp if v <= G.half]
    F = 0
    for i, j in itertools.combinations(cs, 2):
        # follow colour i, come back along colour j, within the component
        mi, mj = G.matchings[i - 1], G.matchings[j - 1]
        back = {mj[w - 1]: w for w in whites}
        seen = set()
        for w in whites:
            if w not in seen:
                F += 1
                x = w
                while x not in seen:
                    seen.add(x)
                    x = back[mi[x - 1]]
    euler = V - E + F
    if euler % 2 or euler > 2:
        raise InvariantViolated(f"residue {comp} is not orientable: V-E+F={euler}")
    genus = (2 - euler) // 2
    return EmbeddedResidue(comp, cs, V, E, F, genus)


def has_property_P(G: ColourfulGraph) -> bool:
    """True iff every 3-coloured residue component embeds with genus 0.

    Each component of G_I (|I|=3) satisfies V_c - 3*V_c/2 + F_c <= 2 with
    equality iff genus 0, and the component face counts add up to the three
    pairwise cycle counts.  Summing over components, planarity of all of
    them is equivalent to the single identity

        kappa_{i,j} + kappa_{i,k} + kappa_{j,k} = 2*kappa_I + n/2,

    which is what we test per colour triple (no per-component work needed).
    """
    return all(_planar_triple(G, I) for I in itertools.combinations(G.colours, 3))


def _planar_triple(G: ColourfulGraph, I: Tuple[int, int, int]) -> bool:
    """Property P's identity on one colour triple: every G_I component is planar."""
    return kappa_r(G, I, 2) == 2 * len(residues(G, I)) + G.half


def is_connected(G: ColourfulGraph) -> bool:
    return len(residues(G, G.colours)) == 1


def residue_subgraph(
    G: ColourfulGraph, I: Iterable[int], component: Iterable[int]
) -> ColourfulGraph:
    """Standalone |I|-colourful graph for one residue component.

    Vertices are relabelled canonically (whites first, ascending) and the
    colours of I are renumbered 1..|I| keeping their relative order.
    """
    cs = _check_colours(G, I)
    if len(cs) < 2:
        raise InvalidColourSet(f"residue subgraph needs at least two colours, got {len(cs)}")
    comp = _check_component(G, cs, component)
    whites = [v for v in comp if v <= G.half]
    blacks = [v for v in comp if v > G.half]
    new_white = {v: i for i, v in enumerate(whites, start=1)}
    new_black = {v: len(whites) + i for i, v in enumerate(blacks, start=1)}
    matchings = []
    for c in cs:
        m = G.matchings[c - 1]
        matchings.append(tuple(new_black[m[w - 1]] for w in whites))
    return ColourfulGraph(len(cs) - 1, matchings)


def colour_deleted_components(G: ColourfulGraph, colour: int) -> List[ColourfulGraph]:
    """Connected components of G with one colour removed, as d-colourful graphs."""
    _check_colours(G, [colour])
    keep = tuple(c for c in G.colours if c != colour)
    part = residues(G, keep)
    return [residue_subgraph(G, keep, comp) for comp in part.components]


def complex_vertex_count(G: ColourfulGraph) -> int:
    """Vertices of the encoded complex: components over all d-subsets of colours."""
    return kappa_r(G, G.colours, G.d)

