"""Core data model for colourful graphs.

A (d+1)-colourful graph is a bipartite (d+1)-regular multigraph whose edges
are properly coloured with [1..d+1]: every vertex meets each colour exactly
once, so each colour class is a perfect matching between the two vertex
classes.  We store the graph as d+1 bijections from white vertices to black
vertices, which makes regularity and properness structurally unviolable.

Vertex labelling convention: white vertices are 1..n/2, black vertices are
n/2+1..n.  External formats with arbitrary labels are relabelled to this
canonical form at the boundary (see ``from_coloured_edges``).

Such a graph encodes a coloured d-dimensional triangulation built from n
d-simplices (one per vertex) glued facet-to-facet along edges; connected
components of colour-subset subgraphs ("residues") are in bijection with the
cells of that triangulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from .errors import (
    InvalidColourSet,
    InvariantViolated,
    LengthMismatch,
    NotABijection,
    NotAComponent,
    NotBipartite,
    OddN,
    RangeError,
)

ColourSetLike = Union["ColourSet", Iterable[int]]


class ColourSet:
    """An immutable subset of colours [1..d+1] stored as a bitmask.

    Bit c-1 represents colour c; cardinality is O(1) via int.bit_count.
    """

    __slots__ = ("bits",)

    def __init__(self, colours: Iterable[int] = ()):
        bits = 0
        for c in colours:
            if not isinstance(c, int) or c < 1:
                raise InvalidColourSet(f"colour {c!r} is not a positive integer")
            bits |= 1 << (c - 1)
        self.bits = bits

    @classmethod
    def from_bits(cls, bits: int) -> "ColourSet":
        cs = cls.__new__(cls)
        cs.bits = bits
        return cs

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        c = 1
        while bits:
            if bits & 1:
                yield c
            bits >>= 1
            c += 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, colour: int) -> bool:
        return colour >= 1 and bool(self.bits >> (colour - 1) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, ColourSet) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("ColourSet", self.bits))

    def __le__(self, other: "ColourSet") -> bool:
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return f"ColourSet({{{', '.join(map(str, self))}}})"

    def colours(self) -> Tuple[int, ...]:
        return tuple(self)

    def minus(self, other: ColourSetLike) -> "ColourSet":
        return ColourSet.from_bits(self.bits & ~as_colour_set(other).bits)

    def union(self, other: ColourSetLike) -> "ColourSet":
        return ColourSet.from_bits(self.bits | as_colour_set(other).bits)

    def subsets(self, r: int) -> Iterator["ColourSet"]:
        """All r-element subsets, in lexicographic colour order."""
        for combo in itertools.combinations(tuple(self), r):
            yield ColourSet(combo)


def as_colour_set(I: ColourSetLike) -> ColourSet:
    return I if isinstance(I, ColourSet) else ColourSet(I)


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
    def colours(self) -> ColourSet:
        return ColourSet(range(1, self.d + 2))

    def partner(self, w: int, colour: int) -> int:
        """Black vertex joined to white w by the edge of the given colour."""
        return self.matchings[colour - 1][w - 1]

    def inverse(self, colour: int) -> Tuple[int, ...]:
        """inverse(colour)[b - half - 1] is the white end of b's colour edge."""
        inv = [0] * self.half
        for w, b in enumerate(self.matchings[colour - 1], start=1):
            inv[b - self.half - 1] = w
        return tuple(inv)

    def pair_permutation(self, i: int, j: int) -> Tuple[int, ...]:
        """White-to-white permutation: follow colour i, come back along colour j.

        Its cycles are exactly the bicoloured {i,j}-cycles of the graph.
        """
        inv_j = self.inverse(j)
        mi = self.matchings[i - 1]
        return tuple(inv_j[mi[w - 1] - self.half - 1] for w in range(1, self.half + 1))

    def cycles_of_pair(self, i: int, j: int) -> int:
        """Number of bicoloured cycles using colours i and j."""
        return count_cycles(self.pair_permutation(i, j))

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """All edges as (white, black, colour), colour-major order."""
        for c, m in enumerate(self.matchings, start=1):
            for w, b in enumerate(m, start=1):
                yield (w, b, c)

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

    colour_set: ColourSet
    components: Tuple[Tuple[int, ...], ...]
    component_of: Mapping[int, int]

    def __len__(self) -> int:
        return len(self.components)

    def component_containing(self, v: int) -> Tuple[int, ...]:
        return self.components[self.component_of[v]]


def _check_colours(G: ColourfulGraph, I: ColourSetLike) -> ColourSet:
    cs = as_colour_set(I)
    high = cs.bits >> (G.d + 1)
    if high:
        c = G.d + 1 + (high & -high).bit_length()
        raise InvalidColourSet(f"colour {c} outside [1..{G.d + 1}]")
    return cs


def residues(G: ColourfulGraph, I: ColourSetLike) -> ResiduePartition:
    """Components of G_I, ordered by minimum vertex, each sorted ascending.

    The empty colour set yields n singleton components.  Each partition is
    computed once per graph and colour set, and later calls return it.
    """
    cs = _check_colours(G, I)
    part = G._residues.get(cs.bits)
    if part is None:
        # union-find with path halving; the smaller root wins, so every
        # root is its component's minimum and parent[v] <= v throughout
        parent = list(range(G.n + 1))
        for c in cs:
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
        part = ResiduePartition(cs, components, MappingProxyType(component_of))
        G._residues[cs.bits] = part
    return part


def _check_component(
    G: ColourfulGraph, cs: ColourSet, component: Iterable[int]
) -> Tuple[int, ...]:
    """The component, sorted; raises NotAComponent unless it is one of G_cs."""
    comp = tuple(sorted(component))
    part = residues(G, cs)
    idx = part.component_of.get(comp[0]) if comp else None
    if idx is None or part.components[idx] != comp:
        raise NotAComponent(f"{comp} is not a component of the {tuple(cs)}-residue")
    return comp


class KappaTable:
    """Component counts kappa(J) of G_J for every colour subset J.

    kappa(empty) = n; kappa of a single colour = n/2 (a perfect matching);
    kappa of a pair = number of bicoloured cycles.
    """

    __slots__ = ("d", "n", "_kappa")

    def __init__(self, d: int, n: int, kappa: Dict[int, int]):
        self.d = d
        self.n = n
        self._kappa = kappa

    def __getitem__(self, I: ColourSetLike) -> int:
        return self._kappa[as_colour_set(I).bits]

    def items(self) -> Iterator[Tuple[ColourSet, int]]:
        for bits in sorted(self._kappa, key=lambda b: (b.bit_count(), b)):
            yield ColourSet.from_bits(bits), self._kappa[bits]


def kappa_table(G: ColourfulGraph) -> KappaTable:
    """Component counts for all 2^(d+1) colour subsets."""
    return KappaTable(G.d, G.n, {
        bits: len(residues(G, ColourSet.from_bits(bits)))
        for bits in range(1 << (G.d + 1))
    })


def kappa_r(G: ColourfulGraph, I: ColourSetLike, r: int) -> int:
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
    return sum(len(residues(G, sub)) for sub in cs.subsets(r))


def f_vector(G: ColourfulGraph, I: ColourSetLike) -> Tuple[int, ...]:
    """Cell counts per dimension of the complex encoded by G_I.

    Entry s (0 <= s <= |I|-1) counts the s-dimensional cells; the top entry
    is always n (one top cell per graph vertex).
    """
    cs = _check_colours(G, I)
    size = len(cs)
    if size == 0:
        raise InvalidColourSet("f-vector needs at least one colour")
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
    G: ColourfulGraph, I: ColourSetLike, component: Iterable[int]
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
    for i, j in itertools.combinations(tuple(cs), 2):
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
    i, j, k = tuple(cs)
    return EmbeddedResidue(comp, (i, j, k), V, E, F, genus)


def has_property_P(G: ColourfulGraph) -> bool:
    """True iff every 3-coloured residue component embeds with genus 0.

    Each component of G_I (|I|=3) satisfies V_c - 3*V_c/2 + F_c <= 2 with
    equality iff genus 0, and the component face counts add up to the three
    pairwise cycle counts.  Summing over components, planarity of all of
    them is equivalent to the single identity

        kappa_{i,j} + kappa_{i,k} + kappa_{j,k} = 2*kappa_I + n/2,

    which is what we test per colour triple (no per-component work needed).
    """
    return all(
        kappa_r(G, I, 2) == 2 * len(residues(G, I)) + G.half
        for I in G.colours.subsets(3)
    )


def is_connected(G: ColourfulGraph) -> bool:
    return len(residues(G, G.colours)) == 1


def residue_subgraph(
    G: ColourfulGraph, I: ColourSetLike, component: Iterable[int]
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
    cs = _check_colours(G, [colour])
    keep = G.colours.minus(cs)
    part = residues(G, keep)
    return [residue_subgraph(G, keep, comp) for comp in part.components]


def complex_vertex_count(G: ColourfulGraph) -> int:
    """Vertices of the encoded complex: components over all d-subsets of colours."""
    return kappa_r(G, G.colours, G.d)


def from_coloured_edges(
    d: int, n: int, edges: Iterable[Tuple[int, int, int]]
) -> ColourfulGraph:
    """Canonicalize an arbitrary labelled edge list into a ColourfulGraph.

    edges are (u, v, colour) over any vertex labels; each vertex must meet
    every colour in [1..d+1] exactly once and the graph must be bipartite.
    The white class is chosen per component as the side containing the
    component's minimum vertex; whites are then relabelled 1..n/2 in
    ascending label order and blacks n/2+1..n likewise.
    """
    if n % 2:
        raise OddN(f"n must be even, got {n}")
    incidence: Dict[int, Dict[int, int]] = {}
    adj: Dict[int, List[int]] = {}
    count = 0
    for u, v, c in edges:
        count += 1
        if not 1 <= c <= d + 1:
            raise InvalidColourSet(f"colour {c} outside [1..{d + 1}]")
        for x, y in ((u, v), (v, u)):
            slots = incidence.setdefault(x, {})
            if c in slots:
                raise NotABijection(f"vertex {x} has two edges of colour {c}")
            slots[c] = y
            adj.setdefault(x, []).append(y)
    if len(incidence) != n or count != n * (d + 1) // 2:
        raise LengthMismatch(
            f"expected {n} vertices with {d + 1} edges each, got {len(incidence)} "
            f"vertices and {count} edges"
        )
    for x, slots in incidence.items():
        if len(slots) != d + 1:
            raise NotABijection(f"vertex {x} misses some colour")
    side: Dict[int, int] = {}
    for start in sorted(incidence):
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in side:
                    side[y] = side[x] ^ 1
                    queue.append(y)
                elif side[y] == side[x]:
                    raise NotBipartite(f"odd cycle through vertices {x} and {y}")
    whites = sorted(v for v in incidence if side[v] == 0)
    blacks = sorted(v for v in incidence if side[v] == 1)
    if not len(whites) == len(blacks) == n // 2:
        raise InvariantViolated(f"{len(whites)} white vs {len(blacks)} black vertices")
    new_id = {v: i for i, v in enumerate(whites, start=1)}
    new_id.update({v: n // 2 + i for i, v in enumerate(blacks, start=1)})
    matchings = []
    for c in range(1, d + 2):
        matchings.append(tuple(new_id[incidence[w][c]] for w in whites))
    return ColourfulGraph(d, matchings)
