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
``kappa_table``).  Each partition is computed once per graph and colour set
and kept on the graph under the set's bitmask (bit c-1 for colour c).
``residues`` checks a colour set and reads its partition; library code that
has checked its colours once reads further partitions by bitmask through
``_partition``, the memo's one writer.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .errors import (
    BadParams,
    BudgetExceeded,
    InvalidColourSet,
    InvariantViolated,
    LengthMismatch,
    NotABijection,
    NotAComponent,
    RangeError,
)

# Most colour subsets, triples, 5-sets or d-residue matchings one call may read (the
# README's refusal table lists each); a short file with many colours asks for billions.
COLOUR_SUBSET_MAX = 1 << 13

# Most matching entries, (d+1)*n/2, that a generated or enumerated graph, or a
# whole sampling run, may hold; a few command-line digits could ask for billions.
GRAPH_ENTRIES_MAX = 1 << 24


def _check_budget(count: int, limit: int, message: str, *args) -> None:
    """The package's one refusal: BudgetExceeded if count > limit, message formatted only then."""
    if count > limit:
        raise BudgetExceeded(message.format(*args, count=count, limit=limit))


def _check_power_budget(factors: Iterable[int], power: int, budget: int, message: str, *args):
    """_check_budget on product(factors) ** power, factors >= 1, grown a factor at a time;
    from 2 on, a power above budget.bit_length() passes the budget unbuilt and budget + 1
    stands in for it, so message names the count's inputs, not the count."""
    count = partial = 1
    for f in factors:
        partial *= f
        count = budget + 1 if partial > 1 and power > budget.bit_length() else partial ** power
        if count > budget:
            break
    _check_budget(count, budget, message, *args)


def _check_size(d: int, n: int) -> None:
    """Raise unless n is even and >= 2, d >= 1 and the graph fits GRAPH_ENTRIES_MAX."""
    if n % 2 or n < 2:
        raise BadParams(f"n must be even and >= 2, got {n}")
    if d < 1:
        raise RangeError(f"dimension d must be >= 1, got {d}")
    _check_budget((d + 1) * (n // 2), GRAPH_ENTRIES_MAX,
                  "(d+1)*n/2 = {count} matching entries, above the limit {limit}")


class ColourfulGraph:
    """A (d+1)-colourful graph in canonical white/black labelling.

    matchings[i] (0-based colour index, colour i+1) maps white vertex w in
    [1..half] to the black vertex in [half+1..n] joined to w by the edge of
    colour i+1.  Instances are immutable; all operations are pure functions.
    """

    # _verdicts holds the verdicts' per-graph record; only verdicts.py sets
    # or reads it, so the slot stays unset until a verdict asks for it
    __slots__ = ("d", "half", "matchings", "_residues", "_verdicts")

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
            if not _lists_each_once(t, blacks):
                raise NotABijection(
                    f"matching for colour {idx + 1} is not a bijection onto "
                    f"[{half + 1}..{2 * half}]"
                )
            frozen.append(t)
        self.d = d
        self.half = half
        self.matchings = tuple(frozen)
        # colour bitmask -> ResiduePartition, written only by _partition()
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
        """Number of bicoloured {i,j}-cycles: the components of the {i,j}-residue,
        read through residues, which checks i and j."""
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
        # pickle and copy rebuild from the matchings; the memos are not state
        return (ColourfulGraph, (self.d, self.matchings))

    def __repr__(self) -> str:
        return f"ColourfulGraph(d={self.d}, n={self.n})"


def _lists_each_once(t: Tuple, values: range) -> bool:
    """True iff t lists each of values exactly once and nothing else.

    A set comparison of t's entries read as integers (operator.index): an
    entry that is no integer, such as 3.0, "a" or None, makes it False
    rather than raise TypeError later as a list index.
    """
    try:
        seen = set(map(operator.index, t))
    except TypeError:
        return False
    return len(t) == len(seen) == len(values) and seen.issuperset(values)


def _check_permutation(p: Sequence[int], k: int, name: str) -> Tuple[int, ...]:
    """p as a tuple; raises BadParams unless it is a permutation of [1..k] in image notation."""
    p = tuple(p)
    if not _lists_each_once(p, range(1, k + 1)):
        raise BadParams(f"{name} must be a permutation of [1..{k}], got {p}")
    return p


def count_cycles(perm: Sequence[int]) -> int:
    """Number of cycles of a permutation given as a 1-based image tuple; anything else raises BadParams."""
    return _count_cycles(_check_permutation(perm, len(perm), "perm"))


def _count_cycles(perm: Sequence[int]) -> int:
    """count_cycles without the check, for callers whose perm is already a permutation."""
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
    # a colour is compared with d+1 before it is shifted, so a huge one costs
    # no huge integer; the message names the smallest colour out of range
    top = G.d + 1
    bits = high = 0
    for c in I:
        if not isinstance(c, int) or c < 1:
            raise InvalidColourSet(f"colour {c!r} is not a positive integer")
        if c <= top:
            bits |= 1 << (c - 1)
        elif not high or c < high:
            high = c
    if high:
        raise InvalidColourSet(f"colour {high} outside [1..{top}]")
    return bits


def _colours_of(bits: int) -> Tuple[int, ...]:
    """The sorted colours of a bitmask."""
    return tuple(c for c in range(1, bits.bit_length() + 1) if bits >> (c - 1) & 1)


def _check_colours(G: ColourfulGraph, I: Iterable[int]) -> Tuple[int, ...]:
    """The sorted tuple of I's distinct colours; raises InvalidColourSet."""
    return _colours_of(_colour_bits(G, I))


def _colour_masks(G: ColourfulGraph, I: Iterable[int]) -> Tuple[int, ...]:
    """One bitmask per distinct colour of I, in ascending colour order; raises
    InvalidColourSet.  A union of them is the bitmask of those colours."""
    bits = _colour_bits(G, I)
    masks = []
    while bits:
        low = bits & -bits
        masks.append(low)
        bits ^= low
    return tuple(masks)


def _check_subset_budget(colour_count: int) -> None:
    """Raise BudgetExceeded if the subsets of colour_count colours exceed the cap."""
    _check_power_budget((2,), colour_count, COLOUR_SUBSET_MAX,
                        "{0} colours have 2^{0} subsets, above the limit {limit}", colour_count)


def residues(G: ColourfulGraph, I: Iterable[int]) -> ResiduePartition:
    """Components of G_I, ordered by minimum vertex, each sorted ascending.

    I is any iterable of colours; order and repeats do not matter.  The
    empty colour set yields n singleton components.  Each partition is
    computed once per graph and colour set, and later calls return that
    same object.
    """
    bits = _colour_bits(G, I)
    # the memo read is inlined so that a hit costs no further call
    part = G._residues.get(bits)
    return _partition(G, bits) if part is None else part


def _partition(G: ColourfulGraph, bits: int) -> ResiduePartition:
    """residues(G, I) for I given by its bitmask, which the caller has validated;
    the one writer of G._residues."""
    part = G._residues.get(bits)
    if part is not None:
        return part
    if bits & (bits - 1):
        components, component_of = _union_find(G, bits)
    else:
        # no colour: n singletons; one colour: each white, the minimum of
        # its component, with its partner, read as an int (a matching keeps
        # the integer type it was given)
        index = range(G.half if bits else G.n)
        firsts = range(1, len(index) + 1)
        component_of = dict(zip(firsts, index))
        if bits:
            m = tuple(map(operator.index, G.matchings[bits.bit_length() - 1]))
            component_of.update(zip(m, index))
            components = tuple(zip(firsts, m))
        else:
            components = tuple(zip(firsts))
    part = ResiduePartition(components, MappingProxyType(component_of))
    G._residues[bits] = part
    return part


def _union_find(
    G: ColourfulGraph, bits: int
) -> Tuple[Tuple[Tuple[int, ...], ...], Dict[int, int]]:
    """Components of G on the colours of bits, and each vertex's component index."""
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
    return tuple(map(tuple, comps)), component_of


def _check_component(
    G: ColourfulGraph, cs: Tuple[int, ...], component: Iterable[int]
) -> Tuple[int, ...]:
    """The component, sorted; raises NotAComponent unless it is one of G_cs.

    Entries are read as integers (operator.index), so one that is no
    integer, such as 1.0 or "a", raises NotAComponent too, as does a
    component that is not iterable, such as 5 or None.
    """
    comp = component
    try:
        comp = tuple(comp)
        comp = tuple(sorted(map(operator.index, comp)))
    except TypeError:
        raise NotAComponent(f"{comp} is not a component of the {cs}-residue") from None
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
    return _genus(G, cs, _check_component(G, cs, component))


def _genus(G: ColourfulGraph, cs: Tuple[int, int, int], comp: Tuple[int, ...]) -> EmbeddedResidue:
    """genus_of_residue without the checks, for callers whose cs is a sorted
    colour triple and comp a component of the partition they read for it."""
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
    More than COLOUR_SUBSET_MAX triples (d >= 37) raise BudgetExceeded.
    """
    return all(_planar_triple(G, I) for I in _colour_sets(G.d, 3))


def _colour_sets(d: int, k: int) -> Iterator[Tuple[int, ...]]:
    """The k-sets of colours 1..d+1 in lexicographic order, once their count fits the cap."""
    noun = "triples" if k == 3 else f"{k}-sets"
    _check_budget(math.comb(d + 1, k), COLOUR_SUBSET_MAX,
                  "{} colours have {count} {}, above the limit {limit}", d + 1, noun)
    return itertools.combinations(range(1, d + 2), k)


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

