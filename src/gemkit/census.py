"""Exhaustive small-n censuses, counting-bound checks, and sampling statistics.

The census walks matching tuples over the canonical white set 1..n/2
and converts class counts to labelled counts on [1..n] by the orbit
formula

    labelled(class) = C(n, n/2) * sum over canonical G in class of 2^(-c(G))

where c(G) is the number of connected components: a labelled graph with c
components admits 2^c (white-set, matching-tuple) presentations, spread
over C(n, n/2) white-set choices.  The test suite's labelled walk
(tests/census_oracle.py) tallies genuinely labelled tuples of perfect
matchings of [1..n] with no symmetry reasoning at all, and must agree.

The walk visits one tuple per white-relabelling orbit.  Relabelling
the white vertices by a permutation p sends (m_1, ..., m_{d+1}) to
(m_1 o p^-1, ..., m_{d+1} o p^-1), an isomorphic graph, so every class,
component count and bound slack is constant on an orbit.  The action is
free and exactly one member of each orbit has the identity as its first
matching, so the walk fixes m_1 to the identity, the lexicographically
first, and meets orbits in the order of a walk over every tuple, counting
each visited tuple (n/2)! times.  This is the first step of isomorph-free
generation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998).
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .constructions import SeedLike, _check_family, _rng, build_manifold, random_construction_params
from .dipoles import melonic_reduce
from .errors import BadParams, InvariantViolated, RangeError
from .graph import (
    GRAPH_ENTRIES_MAX,
    ColourfulGraph,
    _check_budget,
    _check_permutation,
    _check_power_budget,
    _check_size,
    _colour_sets,
    _count_cycles,
    _planar_triple,
    complex_vertex_count,
    has_property_P,
    is_connected,
    residues,
)
from .verdicts import (
    Status,
    _once,
    is_manifold,
    is_sphere,
    lemma1_witness,
    lemma2_witness,
)

CLASSES = ("all", "propertyP", "manifold", "sphere_yes", "sphere_unknown", "melonic")

DEFAULT_BUDGET = 10**8

# verify_extension_bound searches, and all_perfect_matchings lists, the
# (n-1)!! perfect matchings of [1..n]: 135,135 at n=14 (under a second),
# 2,027,025 at n=16 (about 330 MB as tuples)
EXTENSION_MAX_N = 14

# harmonic_number sums k Fractions exactly: about 0.4 s at k = 2^14 and 1.8 s
# at k = 50,000.  mean_cycles_uniform takes about 0.9 s at k = 100 with 10^4
# samples, and 3.4 s at k = 2^20 with one
HARMONIC_MAX_K = 1 << 14
CYCLE_SAMPLES_MAX = 1 << 20


def _check_extension_n(n: int) -> None:
    _check_budget(n, EXTENSION_MAX_N,
                  "n={count} above the small-instance limit {limit} for listing (n-1)!! matchings")


def classify(G: ColourfulGraph) -> FrozenSet[str]:
    """Class names satisfied by G; sphere classes apply to connected graphs.

    Property P and the greedy reduction trace come from the verdicts'
    per-graph record (_once), which is_manifold and is_sphere read too, so
    each is decided once.  "melonic" is the trace's reached_dipole.
    """
    names = {"all"}
    if _once(G, has_property_P):
        names.add("propertyP")
    if is_manifold(G).status is Status.YES:
        names.add("manifold")
    if is_connected(G):
        verdict = is_sphere(G)
        if verdict.status is Status.YES:
            names.add("sphere_yes")
            if _once(G, melonic_reduce).reached_dipole:
                names.add("melonic")
        elif verdict.status is Status.UNKNOWN:
            names.add("sphere_unknown")
    return frozenset(names)


@dataclass
class CensusReport:
    """Canonical-form class counts with component breakdown and labelled totals."""

    d: int
    n: int
    by_components: Dict[str, Dict[int, int]]

    @property
    def counts(self) -> Dict[str, int]:
        """Canonical count of each class: its by_components weights summed."""
        return {cls: sum(self.by_components.get(cls, {}).values()) for cls in CLASSES}

    @property
    def labelled_counts(self) -> Dict[str, int]:
        choose = math.comb(self.n, self.n // 2)
        out = {}
        for cls in CLASSES:
            total = sum(
                Fraction(cnt, 2**comps)
                for comps, cnt in self.by_components.get(cls, {}).items()
            ) * choose
            if total.denominator != 1:
                raise InvariantViolated(f"orbit weights of {cls} sum to {total}")
            out[cls] = int(total)
        return out

    def rows(self) -> List[str]:
        """Stable machine-readable rows: class,canonical,labelled."""
        counts, labelled = self.counts, self.labelled_counts
        return [
            f"{cls},{counts[cls]},{labelled[cls]}" for cls in CLASSES
        ]


def _census_perms(d: int, n: int, budget: int) -> List[Tuple[int, ...]]:
    """Bijections from the white set onto the black set, sorted, for a checked size.

    The budget bounds the (n/2)!^(d+1) tuples the census stands for, not the
    (n/2)!^d it visits; _check_power_budget decides it without building the
    product.
    """
    _check_size(d, n)
    _check_power_budget(range(1, n // 2 + 1), d + 1, budget,
                        "(n/2)!^(d+1) for n={}, d={} exceeds budget {limit}; raise the budget",
                        n, d)
    return sorted(itertools.permutations(range(n // 2 + 1, n + 1)))


def _orbit_walk(d: int, n: int, budget: int) -> Iterator[Tuple[int, ColourfulGraph]]:
    """(weight, G) per tuple whose first matching is the identity; checked at the call."""
    perms = _census_perms(d, n, budget)
    weight = len(perms)
    return (
        (weight, ColourfulGraph(d, (perms[0],) + rest))
        for rest in itertools.product(perms, repeat=d)
    )


def enumerate_census(
    d: int,
    n: int,
    classifier: Callable[[ColourfulGraph], FrozenSet[str]] = classify,
    budget: int = DEFAULT_BUDGET,
    emit: Optional[Callable[[ColourfulGraph, FrozenSet[str]], None]] = None,
) -> CensusReport:
    """Classify all (n/2)!^(d+1) matching tuples over the canonical white set.

    Each tuple of the orbit walk is classified and adds its orbit's (n/2)!
    to every count.  emit, when given, is still called once per matching
    tuple: with each visited tuple's (n/2)! relabellings and its classes.
    """
    walk = _orbit_walk(d, n, budget)
    relabellings = list(itertools.permutations(range(n // 2))) if emit is not None else ()
    by_components: Dict[str, Dict[int, int]] = {cls: {} for cls in CLASSES}
    for weight, G in walk:
        names = classifier(G)
        comps = len(residues(G, G.colours).components)
        for cls in names:
            bc = by_components[cls]
            bc[comps] = bc.get(comps, 0) + weight
        for inv in relabellings:
            # white w is relabelled p(w) where inv lists p^-1
            emit(ColourfulGraph(d, [[m[i] for i in inv] for m in G.matchings]), names)
    return CensusReport(d, n, by_components)


def all_perfect_matchings(n: int) -> List[Tuple[int, ...]]:
    """Perfect matchings of [1..n] as involution tuples (partner of v at v-1);
    n above EXTENSION_MAX_N raises BudgetExceeded before any is built."""
    if n % 2 or n < 0:
        raise BadParams(f"n must be even and >= 0, got {n}")
    _check_extension_n(n)
    out: List[Tuple[int, ...]] = []
    partner = [0] * (n + 1)

    def rec():
        free = [v for v in range(1, n + 1) if partner[v] == 0]
        if not free:
            out.append(tuple(partner[1:]))
            return
        v = free[0]
        for u in free[1:]:
            partner[v], partner[u] = u, v
            rec()
            partner[v], partner[u] = 0, 0

    rec()
    return out


@dataclass
class LemmaBoundsReport:
    """Exhaustive slack audit of the component-count inequalities."""

    d: int
    n: int
    graphs: int
    checked_3: int
    violations_3: int
    min_slack_3: Optional[Fraction]
    extremal_3: Optional[Tuple[ColourfulGraph, Tuple[int, ...]]]
    identity_mismatches: int
    checked_5: int = 0
    violations_5: int = 0
    min_slack_5: Optional[Fraction] = None
    extremal_5: Optional[Tuple[ColourfulGraph, Tuple[int, ...]]] = None


def verify_lemma_bounds(
    d: int, n: int, budget: int = DEFAULT_BUDGET, check_5: bool = False
) -> LemmaBoundsReport:
    """Audit the pair and triple component-count bounds over a full census.

    For every canonical graph and every 3-subset I whose residue components
    all have genus 0 (decided by the embedding route), the minimized
    kappa(i,j) - kappa(I) must be at most n/6.  The counting identity
    kappa^(2) = 2 kappa^(3) + n/2, tested by property P's own per-triple
    check (graph._planar_triple; for |I| = 3 it is euler_poincare_check's
    alternating sum), must hold exactly on the same (G, I); mismatches in
    either direction are counted.  check_5 runs the 5-subset bound when
    d >= 4.
    Triples and 5-sets are listed once, before the walk; more than
    COLOUR_SUBSET_MAX of either (d >= 37, d >= 17) raise BudgetExceeded.

    Each tuple of the orbit walk adds its orbit's (n/2)! to graphs, checked,
    violations and identity_mismatches; min_slack and the extremal (G, I)
    are those a walk over every tuple finds first.
    """
    walk = _orbit_walk(d, n, budget)
    fives = tuple(_colour_sets(d, 5)) if check_5 else ()
    triples = tuple(_colour_sets(d, 3))
    report = LemmaBoundsReport(d, n, 0, 0, 0, None, None, 0)
    for weight, G in walk:
        report.graphs += weight
        for I in triples:
            w = lemma1_witness(G, I)
            if _planar_triple(G, I) != w.hypothesis_met:
                report.identity_mismatches += weight
            if not w.hypothesis_met:
                continue
            report.checked_3 += weight
            if w.slack < 0:
                report.violations_3 += weight
            if report.min_slack_3 is None or w.slack < report.min_slack_3:
                report.min_slack_3 = w.slack
                report.extremal_3 = (G, I)
        for I in fives:
            w = lemma2_witness(G, I)
            if not w.hypothesis_met:
                continue
            report.checked_5 += weight
            if w.slack < 0:
                report.violations_5 += weight
            if report.min_slack_5 is None or w.slack < report.min_slack_5:
                report.min_slack_5 = w.slack
                report.extremal_5 = (G, I)
    return report


def _check_involution(m: Sequence[int], n: int, name: str) -> Tuple[int, ...]:
    m = tuple(m)
    if len(m) != n:
        raise BadParams(f"{name} must list {n} partners, got {len(m)}")
    for v in range(1, n + 1):
        p = m[v - 1]
        if not 1 <= p <= n or p == v or m[p - 1] != v:
            raise BadParams(f"{name} is not a perfect matching at vertex {v}")
    return m


@dataclass
class ExtensionBoundReport:
    """Planar third-matching extensions of a 2-matching base, bucketed by k."""

    n: int
    base_components: int
    buckets: Dict[int, int]
    bounds: Dict[int, int]
    violations: List[int]
    extensions_tried: int
    planar_extensions: int


def verify_extension_bound(m1: Sequence[int], m2: Sequence[int]) -> ExtensionBoundReport:
    """Count planar 3-colourful completions of two matchings, check the bound.

    The base C is the union of two perfect matchings of [1..n] with c
    components.  Every third matching m3 making the union bipartite gives a
    3-colourful graph; it counts as planar when all its components embed
    with genus 0, detected by the exact cycle-count identity
    total bicoloured cycles == 2k + n/2 (k components of the extension).
    Each bucket count must be at most 2^(5n) * n^(c-k).

    Every field depends on (m1, m2) only through the lengths of the
    alternating cycles of m1 u m2: relabelling [1..n] maps completions to
    completions.  So one walk around those cycles both validates the two
    matchings and finds the lengths; only when it meets a fault do the
    per-matching checks run, m1 first, to name it.  _extension_counts
    builds the whole report once per cycle type per process, searching on
    a base it lays out from the lengths alone, and each call returns a
    fresh copy of it, with bucket keys in ascending k.  n is capped at
    EXTENSION_MAX_N, which leaves 45 cycle types in all.
    """
    n = len(m1)
    _check_extension_n(n)
    lengths = _cycle_lengths(m1, m2, n)
    if lengths is None:
        # the checks name the fault, m1 first; a pair they pass (m2 given
        # as an iterator) is walked again as the tuples they return
        m1 = _check_involution(m1, n, "m1")
        lengths = _cycle_lengths(m1, _check_involution(m2, n, "m2"), n)
    lengths.sort(reverse=True)
    r = _extension_counts(tuple(lengths))
    return ExtensionBoundReport(r.n, r.base_components, dict(r.buckets), dict(r.bounds),
                                r.violations[:], r.extensions_tried, r.planar_extensions)


def _cycle_lengths(m1: Sequence[int], m2: Sequence[int], n: int) -> Optional[List[int]]:
    """Lengths of the alternating cycles of m1 u m2, or None unless both are
    perfect matchings of [1..n] that the walk can read.

    A step from v checks m1 at v and m2 at u = m1(v): the partner lies in
    [1..n], is not the vertex and points back, so the check holds at the
    partner too.  As checked partners point back, a walk meets a vertex it
    saw before only at its start; so every vertex takes one of the two
    places, and both matchings are checked whole.
    """
    seen = [False] * (n + 1)
    lengths = []
    try:
        if len(m2) != n:
            return None
        for start in range(1, n + 1):
            if seen[start]:
                continue
            v, length = start, 0
            while not seen[v]:
                u = m1[v - 1]
                if not 0 < u <= n or u == v or m1[u - 1] != v:
                    return None
                w = m2[u - 1]
                if not 0 < w <= n or w == u or m2[w - 1] != u:
                    return None
                seen[v] = seen[u] = True
                length += 2
                v = w
            lengths.append(length)
    except TypeError:  # no len, or a partner that is not an int
        return None
    return lengths


@functools.lru_cache(maxsize=None)
def _extension_counts(lengths: Tuple[int, ...]) -> ExtensionBoundReport:
    """The extension report of a base whose alternating cycles have the
    given lengths, longest first, with bucket keys ascending.  It is
    shared by every call on that cycle type, so callers copy its dicts and
    list before handing it out.

    The search lays the cycles on consecutive vertices in the order given:
    cycle i on first..last has the m1 edges {a, a+1} and the m2 edges
    {a+1, a+2} for a = first, first+2, ..., with a+2 read as first at the
    end.  So a lies on side 0 of the cycle's 2-colouring and a+1 on side 1.

    m3 is built by a depth-first search, one edge at a time: each step
    pairs the lowest free vertex with each higher free vertex in turn.
    While m3 is partial, m1 u m3 and m2 u m3 are disjoint paths and
    cycles, and every vertex without an m3 edge ends a path: end1 and end2
    hold the far end of its path.  An m3 edge {v, u} closes a cycle of
    m1 u m3 when end1[v] == u; otherwise it joins two paths, and their far
    ends become each other's (likewise for m2).  One union-find with undo
    follows the components of m1 u m2 u m3 with the side of each vertex in
    a 2-colouring.  An edge joining two vertices of one component on the
    same side closes an odd cycle, so no completion below it is bipartite
    and the whole subtree is skipped.  Skipped completions still count in
    the report's extensions_tried, which is (n-1)!!, the number of perfect
    matchings of [1..n].

    The union-find runs over the c cycles, not the vertices, and keeps
    each cycle's side relative to its parent.  It has no path compression,
    so a union is undone by detaching the root it attached.  Nor is it
    balanced: c <= n/2 <= EXTENSION_MAX_N/2 = 7, so a find walks at most
    6 links whichever root goes under which.
    """
    n, c = sum(lengths), len(lengths)
    cycle, side = [0] * (n + 1), [0] * (n + 1)
    # before any m3 edge, each m1 (m2) edge is a path of its own
    end1, end2 = [0] * (n + 1), [0] * (n + 1)
    first = 1
    for i, length in enumerate(lengths):
        last = first + length - 1
        for a in range(first, last, 2):
            b = a + 2 if a + 2 <= last else first
            cycle[a] = cycle[a + 1] = i
            side[a + 1] = 1
            end1[a], end1[a + 1] = a + 1, a
            end2[a + 1], end2[b] = b, a + 1
        first = last + 1
    # the parity union-find over the cycles
    up, flip = list(range(c)), [0] * c
    buckets: Dict[int, int] = {}
    # planar iff c + closed == 2k + n/2
    target = n // 2 - c

    def extend(free: int, k: int, closed: int) -> None:
        # free holds bit v for each vertex v without an m3 edge
        if not free:
            if closed == 2 * k + target:
                buckets[k] = buckets.get(k, 0) + 1
            return
        low = free & -free
        v = low.bit_length() - 1
        # v's root and path ends hold for every sibling: each child's
        # changes are undone before the next child is tried
        rv, sv = cycle[v], side[v]
        while up[rv] != rv:
            sv ^= flip[rv]
            rv = up[rv]
        a1, a2 = end1[v], end2[v]
        rest = higher = free ^ low
        while higher:
            bit = higher & -higher
            higher ^= bit
            u = bit.bit_length() - 1
            ru, su = cycle[u], side[u]
            while up[ru] != ru:
                su ^= flip[ru]
                ru = up[ru]
            if ru != rv:
                up[ru], flip[ru] = rv, su ^ sv ^ 1
            elif su == sv:
                continue  # odd cycle: nothing below is bipartite
            # join the two paths; when the edge closes a cycle instead
            # (a1 == u, b1 == v) the writes leave v and u as they were
            b1, b2 = end1[u], end2[u]
            end1[a1], end1[b1] = b1, a1
            end2[a2], end2[b2] = b2, a2
            extend(rest ^ bit, k - (ru != rv), closed + (a1 == u) + (a2 == u))
            end1[a1], end1[b1] = v, u
            end2[a2], end2[b2] = v, u
            up[ru] = ru  # rv is a root, so this also holds when ru == rv

    extend((1 << (n + 1)) - 2, c, 0)  # bits 1..n
    buckets = dict(sorted(buckets.items()))
    bounds = {k: 2 ** (5 * n) * n ** (c - k) for k in buckets}
    violations = [k for k, cnt in buckets.items() if cnt > bounds[k]]
    tried = math.prod(range(n - 1, 0, -2))
    return ExtensionBoundReport(n, c, buckets, bounds, violations, tried, sum(buckets.values()))


def _check_k(k: int) -> None:
    if k < 0:
        raise RangeError(f"k must be >= 0, got {k}")


def _check_harmonic_k(k: int) -> None:
    _check_budget(k, HARMONIC_MAX_K, "k = {count} above the limit {limit} for the exact harmonic sum")


def harmonic_number(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k, summed exactly; k above HARMONIC_MAX_K raises BudgetExceeded."""
    _check_k(k)
    _check_harmonic_k(k)
    return float(sum(Fraction(1, i) for i in range(1, k + 1)))


def compose_inverse(sigma: Sequence[int], tau: Sequence[int]) -> Tuple[int, ...]:
    """One-line form of sigma followed by tau^(-1); both must be permutations of [1..len(sigma)]."""
    k = len(sigma)
    sigma = _check_permutation(sigma, k, "sigma")
    return _compose_inverse(sigma, _check_permutation(tau, k, "tau"))


def _compose_inverse(sigma: Sequence[int], tau: Sequence[int]) -> Tuple[int, ...]:
    """compose_inverse without the checks, for callers whose sigma and tau already passed them."""
    inv = [0] * (len(tau) + 1)
    for i, t in enumerate(tau, start=1):
        inv[t] = i
    return tuple(map(inv.__getitem__, sigma))


def mean_cycles_uniform(k: int, samples: int, seed: SeedLike = 0) -> float:
    """Direct simulation: mean cycle count of sigma tau^(-1), both uniform.

    k * samples above CYCLE_SAMPLES_MAX raises BudgetExceeded before any sample.
    """
    _check_k(k)
    if samples < 1:
        raise RangeError(f"samples must be >= 1, got {samples}")
    _check_budget(k * samples, CYCLE_SAMPLES_MAX,
                  "k * samples = {count} above the limit {limit} for the cycle simulation")
    rng = _rng(seed)
    base = list(range(1, k + 1))
    total = 0
    for _ in range(samples):
        sigma = base[:]
        tau = base[:]
        rng.shuffle(sigma)
        rng.shuffle(tau)
        total += _count_cycles(_compose_inverse(sigma, tau))
    return total / samples


@dataclass(frozen=True)
class VnRow:
    k: int
    n: int
    samples: int
    mean_v: float
    median_v: float
    p90_v: float
    mean_v_over_n: float
    mean_cycles_valid: float
    mean_cycles_uniform: float
    harmonic_k: float
    n_over_log_n: float


@dataclass(frozen=True)
class StatsReport:
    d: int
    samples: int
    seed: int
    rows: Tuple[VnRow, ...]

    def table_rows(self) -> List[str]:
        out = ["k,n,mean_V,median_V,p90_V,mean_V_over_n,cycles_valid,cycles_uniform,H_k,n_over_log_n"]
        for r in self.rows:
            out.append(
                f"{r.k},{r.n},{r.mean_v:.4f},{r.median_v:.1f},{r.p90_v:.1f},"
                f"{r.mean_v_over_n:.5f},{r.mean_cycles_valid:.4f},"
                f"{r.mean_cycles_uniform:.4f},{r.harmonic_k:.4f},{r.n_over_log_n:.2f}"
            )
        return out


def vn_experiment(ks: Sequence[int], samples: int, seed: int = 0) -> StatsReport:
    """Vertex counts and cycle statistics of glued constructions, not uniform manifolds.

    Built graphs (d = 3) need valid (sigma, tau) pairs (parity-preserving
    as d is odd), so the per-row cycle mean over those pairs is reported
    separately from the unrestricted-uniform simulation mean that tracks H_k.
    Before any is built, the largest graph and the run's samples * 24k
    matching entries summed over k must each fit GRAPH_ENTRIES_MAX, ks must
    hold at least one k, every k must be >= 1 and the largest within
    HARMONIC_MAX_K, so no row refuses after earlier rows were built.
    k * samples then stays below CYCLE_SAMPLES_MAX too, since it is at most
    the entries sum over 24.  A range of ks is read by its ends and length,
    not listed.
    """
    if samples < 1:
        raise RangeError(f"samples must be >= 1, got {samples}")
    if not ks:
        raise RangeError(f"ks must hold at least one k, got {ks!r}")
    d = 3
    if isinstance(ks, range):
        # read arithmetically: stats-vn passes range(1, kmax + 1) for any kmax
        ends = (ks[0], ks[-1])
        total = len(ks) * sum(ends) // 2
    else:
        ends, total = ks, sum(ks)
    smallest, largest = min(ends), max(ends)
    _check_family(d, largest)
    _check_budget(samples * (d + 1) * 2 * d * total, GRAPH_ENTRIES_MAX,
                  "samples * sum over k of (d+1)*n/2 = {count} matching entries, "
                  "above the limit {limit}")
    _check_family(d, smallest)
    _check_harmonic_k(largest)
    rng = _rng(seed)
    rows = []
    for k in ks:
        vs = []
        cycles_valid = []
        for _ in range(samples):
            params = random_construction_params(d, k, rng)
            G = build_manifold(params)
            vs.append(complex_vertex_count(G))
            cycles_valid.append(_count_cycles(_compose_inverse(params.sigma, params.tau)))
        n = 4 * d * k
        mean_v = statistics.fmean(vs)
        # inclusive = linear interpolation between order statistics;
        # quantiles() needs two points, and one point is its own percentile
        p90_v = vs[0]
        if samples > 1:
            p90_v = statistics.quantiles(vs, n=10, method="inclusive")[8]
        rows.append(
            VnRow(
                k=k,
                n=n,
                samples=samples,
                mean_v=mean_v,
                median_v=float(statistics.median(vs)),
                p90_v=float(p90_v),
                mean_v_over_n=mean_v / n,
                mean_cycles_valid=statistics.fmean(cycles_valid),
                mean_cycles_uniform=mean_cycles_uniform(k, samples, rng),
                harmonic_k=harmonic_number(k),
                n_over_log_n=n / math.log(n),
            )
        )
    return StatsReport(d, samples, seed if isinstance(seed, int) else -1, tuple(rows))
