"""Sphere and manifold verdicts, exact where possible, three-valued otherwise.

Exactness boundaries: genus decides everything in dimensions 1 and 2, and
decides d=3 manifoldness (a 4-colourful graph encodes a closed 3-manifold
exactly when every 3-coloured residue component has genus 0).  Above that
the implications are one-way: a melonic reduction certifies a sphere, a
homology obstruction certifies a non-sphere or non-manifold, and anything
in between stays Unknown rather than guessing.  No is only ever emitted
with a machine-checkable certificate (a genus witness, an exact Betti
vector, or a failed component-count identity).

For d >= 4 the manifold verdict runs the cheap checks in the order that
decides most graphs soonest: property P's identity on colour triple
(1, 2, 3) for a quick No, then one greedy reduction per d-residue (every
component at once) for a Yes, which implies property P on every triple
(Ferri-Gagliardi-Grasselli 1986; each 3-residue is then the link of a
(d-3)-simplex, a 2-sphere).  Only a stuck d-residue pays for property P
on every triple, the odd-size identities and the 5-residue Betti vectors.

Each fact a verdict rests on is decided once per graph object: property P,
the first genus witness, the greedy reduction trace and the Betti vector of
the full complex.  The graph keeps a private record of decided values keyed
by their deciding function; _once(G, decide) fills it the first time a
verdict asks, so ``classify``, ``is_manifold`` and ``is_sphere`` share them
on one graph, whatever order they run in.  Graphs are immutable, so a
recorded fact never goes stale; equality, hashing and pickling ignore the
record.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Tuple, TypeVar

from .dipoles import melonic_reduce, stuck_whites
from .errors import Disconnected, InvalidColourSet, InvariantViolated, OddDimension
from .graph import (
    COLOUR_SUBSET_MAX,
    ColourfulGraph,
    ResiduePartition,
    _check_budget,
    _check_colours,
    _check_component,
    _colour_masks,
    _colours_of,
    _genus,
    _partition,
    _planar_triple,
    genus_of_residue,
    has_property_P,
    is_connected,
    kappa_r,
    kappa_table,
    residue_subgraph,
    residues,
)
from .homology import BettiVector, betti_numbers, order_complex, sphere_vector


class Status(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


_EXIT = {Status.YES: 0, Status.NO: 1, Status.UNKNOWN: 2}

_T = TypeVar("_T")


@dataclass(frozen=True)
class TopologyVerdict:
    """Three-valued answer with a machine-checkable certificate.

    Yes and No always carry a certificate (reduction trace, genus witness,
    Betti vector, identity failure); Unknown carries the reason the
    semi-decision gave up.
    """

    status: Status
    certificate: str

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]

    def __bool__(self) -> bool:
        return self.status is Status.YES


def _yes(cert: str) -> TopologyVerdict:
    return TopologyVerdict(Status.YES, cert)


def _no(cert: str) -> TopologyVerdict:
    return TopologyVerdict(Status.NO, cert)


def _unknown(reason: str) -> TopologyVerdict:
    return TopologyVerdict(Status.UNKNOWN, reason)


def _once(G: ColourfulGraph, decide: Callable[[ColourfulGraph], _T]) -> _T:
    """decide(G), decided once per graph and kept in its record."""
    try:
        record = G._verdicts
    except AttributeError:
        record = G._verdicts = {}
    if decide not in record:
        record[decide] = decide(G)
    return record[decide]


def _full_betti(G: ColourfulGraph) -> BettiVector:
    """Betti vector of G's full complex."""
    return betti_numbers(order_complex(G, G.colours))


def _positive_genus_witness(G: ColourfulGraph) -> str:
    """Certificate naming the first 3-residue component of positive genus.

    Callers run it only once property P has failed on some triple, so one
    exists, and the walk stops there: it needs no budget of its own.
    """
    for I in itertools.combinations(range(1, G.d + 2), 3):
        for comp in residues(G, I).components:
            g = _genus(G, I, comp).genus
            if g > 0:
                return f"genus witness ({I}, {comp[0]}, {g})"
    raise InvariantViolated("property P fails but every 3-residue component has genus 0")


def is_sphere(G: ColourfulGraph) -> TopologyVerdict:
    """Does the connected graph encode a d-sphere?

    d <= 2 is exact (cycle / genus).  For d >= 3, a successful dipole
    reduction answers Yes; a positive-genus 3-residue or a non-sphere
    Betti vector answers No; otherwise Unknown.
    """
    if not is_connected(G):
        raise Disconnected("sphere verdicts apply to connected graphs")
    if G.d == 1:
        return _yes("connected 2-colourful graph is a single cycle (circle)")
    if G.d == 2:
        comp = tuple(range(1, G.n + 1))
        emb = genus_of_residue(G, (1, 2, 3), comp)
        if emb.genus == 0:
            return _yes("genus witness ((1,2,3), 1, 0)")
        return _no(f"genus witness ((1,2,3), 1, {emb.genus})")
    trace = _once(G, melonic_reduce)
    if trace.reached_dipole:
        moves = trace.moves_text() or "(already terminal)"
        return _yes(f"melonic trace {moves}")
    if not _once(G, has_property_P):
        return _no(_once(G, _positive_genus_witness))
    b = _once(G, _full_betti)
    if b.betti != sphere_vector(G.d):
        return _no(f"betti {b.betti}")
    return _unknown(
        f"greedy reduction stuck at n={trace.terminal.n}; "
        f"homology matches a sphere (betti {b.betti})"
    )


def is_manifold(G: ColourfulGraph) -> TopologyVerdict:
    """Does the graph encode a closed d-manifold (per component)?

    Exact for d <= 3.  For d >= 4 it follows Ferri, Gagliardi and
    Grasselli ("A graph-theoretical representation of PL-manifolds",
    Aequationes Math. 31, 1986): K(G) is a closed PL d-manifold iff every
    d-residue, one per missing colour and component, is a PL (d-1)-sphere.
    A Yes implies property P: in a closed PL d-manifold each 3-residue
    component is the link of a (d-3)-simplex, a PL 2-sphere, so planar.
    So only colour triple (1, 2, 3) is tested up front, for a quick No;
    then each d-residue is reduced greedily, all its components at once,
    and Yes follows when every component reaches the dipole.  Once one is
    stuck, a No comes from a positive-genus 3-residue, a failed
    component-count identity or a non-sphere 5-residue; Unknown otherwise,
    naming the first stuck component.  The sweep reads d(d+1) matchings,
    and more than COLOUR_SUBSET_MAX (d >= 91) raise BudgetExceeded.
    """
    if G.d <= 2:
        return _yes(f"every {G.d + 1}-colourful graph encodes a closed {G.d}-manifold")
    if G.d == 3:
        if not _once(G, has_property_P):
            return _no(_once(G, _positive_genus_witness))
        return _yes("every 3-residue component has genus 0")
    if not _planar_triple(G, (1, 2, 3)):
        return _no(_once(G, _positive_genus_witness))

    _check_budget(G.d * (G.d + 1), COLOUR_SUBSET_MAX,
                  "the {}-residue sweep reads {count} matchings, above the limit {limit}", G.d)
    for I in itertools.combinations(range(1, G.d + 2), G.d):
        stuck = stuck_whites(G, I)
        if stuck:
            break
    else:
        return _yes(
            f"every {G.d}-residue component reduces to the dipole "
            f"(PL {G.d - 1}-spheres)"
        )
    part = residues(G, I)
    first = part.components[min(part.component_of[w] for w in stuck)][0]
    undecided = _unknown(
        f"residue I={I}, component of vertex {first}: reduction "
        "stuck and no homology obstruction found"
    )

    if not _once(G, has_property_P):
        return _no(_once(G, _positive_genus_witness))
    if G.d >= 5:
        # necessary identity on even-dimensional residues (see
        # euler_poincare_check); |I| = 3 is property P, and d = 4 has no
        # odd |I| >= 5.  One table serves every I: the subsets of all
        # odd-size I number about 3^(d+1)/2.
        kappa = kappa_table(G)
        for m in range(5, G.d + 1, 2):
            for I in itertools.combinations(G.colours, m):
                lhs = sum(
                    (-1) ** r * kappa[J]
                    for r in range(m)
                    for J in itertools.combinations(I, r)
                )
                rhs = 2 * kappa[I]
                if lhs != rhs:
                    return _no(
                        f"component-count identity fails on I={I}: "
                        f"alternating sum {lhs} != {rhs}"
                    )
        for I in itertools.combinations(range(1, G.d + 2), 5):
            part = residues(G, I)
            for comp in part.components:
                v = is_rational_homology_sphere(G, I, comp)
                if v.status is Status.NO:
                    return _no(
                        f"residue I={I}, component of vertex {comp[0]}: "
                        f"{v.certificate}"
                    )
    return undecided


def is_rational_homology_sphere(
    G: ColourfulGraph, I: Iterable[int], component
) -> TopologyVerdict:
    """Exact: does the residue component have the rational homology of a sphere?

    A single colour gives two isolated vertices, the 0-sphere, directly;
    two colours give a circle; three are decided by genus; above that the
    Betti vector of the order complex decides.
    """
    cs = _check_colours(G, I)
    size = len(cs)
    if size == 0:
        raise InvalidColourSet("need at least one colour")
    if size <= 2:
        # validate the component; the answer is structural
        _check_component(G, cs, component)
        if size == 1:
            return _yes("single edge: two points, the 0-sphere")
        return _yes("bicoloured cycle: a circle")
    if size == 3:
        emb = genus_of_residue(G, cs, component)
        if emb.genus == 0:
            return _yes(f"genus witness ({cs}, {emb.component[0]}, 0)")
        return _no(f"genus witness ({cs}, {emb.component[0]}, {emb.genus})")
    sub = residue_subgraph(G, cs, component)
    K = order_complex(sub, range(1, size + 1))
    b = betti_numbers(K)
    if b.betti == sphere_vector(size - 1):
        return _yes(f"betti {b.betti}")
    return _no(f"betti {b.betti}")


def euler_poincare_check(G: ColourfulGraph, I: Iterable[int]) -> bool:
    """Alternating component-count identity on even-dimensional residues.

    For |I| = m with m odd (the encoded complex has even dimension m-1),
    checks sum_{r=0}^{m-1} (-1)^r kappa_r(I) == 2 kappa(I).  Necessary for
    every component of G_I to be a rational homology sphere.
    """
    cs = _check_colours(G, I)
    m = len(cs)
    if m % 2 == 0:
        raise OddDimension(
            f"identity applies to odd |I| (even complex dimension); got |I|={m}"
        )
    lhs = sum((-1) ** r * kappa_r(G, cs, r) for r in range(m))
    return lhs == 2 * len(residues(G, cs))


@dataclass(frozen=True)
class LemmaWitness:
    """Minimizing colour tuple for a component-count inequality.

    value is the minimized difference of component counts, bound the
    inequality's right side; slack = bound - value is guaranteed >= 0 when
    hypothesis_met is true.
    """

    indices: Tuple[int, ...]
    value: int
    bound: Fraction
    slack: Fraction
    hypothesis_met: bool


def _checked_masks(
    G: ColourfulGraph, I: Iterable[int], size: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...], ResiduePartition]:
    """(colours, masks, partition) of a colour set of the given size: I is
    checked once, and its partition read by mask."""
    masks = _colour_masks(G, I)
    if len(masks) != size:
        raise InvalidColourSet(f"need |I|={size}, got {len(masks)}")
    full = functools.reduce(operator.or_, masks)
    return _colours_of(full), masks, _partition(G, full)


def lemma1_witness(G: ColourfulGraph, I: Iterable[int]) -> LemmaWitness:
    """Minimize kappa(i,j) - kappa(I) over pairs in a 3-set; bound n/6.

    Hypothesis: every component of G_I has genus 0.  When it fails, the raw
    minimum is returned with hypothesis_met=False.

    When it holds, so does the counting identity kappa(i,j) + kappa(i,k) +
    kappa(j,k) = 2 kappa(I) + n/2, and the three differences kappa(pair) -
    kappa(I) sum to n/2 - kappa(I).  Their minimum is at most their mean,
    so slack = kappa(I)/3 + (mean - min) >= kappa(I)/3 > 0: the bound
    cannot fail, and the slack is what an audit learns.

    I is checked once; the partitions of I and of its pairs are read by
    mask, and each component's genus skips the checks genus_of_residue
    makes, since the components come from the partition just read.
    """
    cs, masks, part = _checked_masks(G, I, 3)
    hypothesis = all(_genus(G, cs, comp).genus == 0 for comp in part.components)
    k_full = len(part)
    best = None
    for (i, a), (j, b) in itertools.combinations(zip(cs, masks), 2):
        value = len(_partition(G, a | b)) - k_full
        if best is None or value < best[1]:
            best = ((i, j), value)
    bound = Fraction(G.n, 6)
    return LemmaWitness(best[0], best[1], bound, bound - best[1], hypothesis)


def lemma2_witness(G: ColourfulGraph, I: Iterable[int]) -> LemmaWitness:
    """Minimize kappa(i,j) - kappa(i,j,k) over triples in a 5-set; bound 3n/20.

    Hypothesis: every component of G_I has the rational homology of a
    4-sphere.  When it fails, the raw minimum is returned with
    hypothesis_met=False.  I is checked once and the pair and triple
    partitions are read by mask.
    """
    cs, masks, part = _checked_masks(G, I, 5)
    hypothesis = all(
        is_rational_homology_sphere(G, cs, comp).status is Status.YES
        for comp in part.components
    )
    coloured = tuple(zip(cs, masks))
    best = None
    for (i, a), (j, b) in itertools.combinations(coloured, 2):
        pair = a | b
        k_pair = len(_partition(G, pair))
        for k, c in coloured:
            if c & pair:
                continue
            value = k_pair - len(_partition(G, pair | c))
            if best is None or value < best[1]:
                best = ((i, j, k), value)
    bound = Fraction(3 * G.n, 20)
    return LemmaWitness(best[0], best[1], bound, bound - best[1], hypothesis)
