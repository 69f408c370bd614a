"""Exhaustive small-n censuses, counting-bound checks, and sampling statistics.

Two enumeration routes exist on purpose.  The fast route walks matching
tuples over the canonical white set 1..n/2 and converts class counts to
labelled counts on [1..n] by the orbit formula

    labelled(class) = C(n, n/2) * sum over canonical G in class of 2^(-c(G))

where c(G) is the number of connected components: a labelled graph with c
components admits 2^c (white-set, matching-tuple) presentations, spread
over C(n, n/2) white-set choices.  The slow route enumerates genuinely
labelled tuples of perfect matchings of [1..n] with no symmetry reasoning
at all and tallies them directly; it is the ground truth the fast route
must reproduce.  Disagreement between the two is the primary bug detector.

The fast route visits one tuple per white-relabelling orbit.  Relabelling
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

import itertools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .constructions import SeedLike, _rng, build_manifold, random_construction_params
from .dipoles import melonic_reduce
from .errors import BadParams, BudgetExceeded, InvariantViolated, RangeError
from .graph import (
    ColourfulGraph,
    complex_vertex_count,
    count_cycles,
    has_property_P,
    is_connected,
    residues,
)
from .verdicts import Status, euler_poincare_check, is_manifold, is_sphere, lemma1_witness, lemma2_witness

CLASSES = ("all", "propertyP", "manifold", "sphere_yes", "sphere_unknown", "melonic")

DEFAULT_BUDGET = 10**8

# verify_extension_bound searches the (n-1)!! perfect matchings of [1..n]:
# 135,135 at n=14 (under a second), 2,027,025 at n=16
EXTENSION_MAX_N = 14


def _check_census_size(d: int, n: int) -> None:
    """Raise unless n is even and >= 2 and d >= 1."""
    if n % 2 or n < 2:
        raise BadParams(f"n must be even and >= 2, got {n}")
    if d < 1:
        raise RangeError(f"dimension d must be >= 1, got {d}")


def tuple_count(d: int, n: int) -> int:
    """Matching tuples over the canonical white set: (n/2)!^(d+1)."""
    _check_census_size(d, n)
    return math.factorial(n // 2) ** (d + 1)


def classify(G: ColourfulGraph) -> FrozenSet[str]:
    """Class names satisfied by G; sphere classes apply to connected graphs."""
    names = {"all"}
    if has_property_P(G):
        names.add("propertyP")
    if is_manifold(G).status is Status.YES:
        names.add("manifold")
    if is_connected(G):
        verdict = is_sphere(G)
        if verdict.status is Status.YES:
            names.add("sphere_yes")
            # d >= 3 answers Yes only through the reduction; d <= 2 by genus alone
            melonic = verdict.certificate.startswith("melonic trace")
            if melonic or melonic_reduce(G).reached_dipole:
                names.add("melonic")
        elif verdict.status is Status.UNKNOWN:
            names.add("sphere_unknown")
    return frozenset(names)


@dataclass
class CensusReport:
    """Canonical-form class counts with component breakdown and labelled totals."""

    d: int
    n: int
    counts: Dict[str, int]
    by_components: Dict[str, Dict[int, int]]

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
        labelled = self.labelled_counts
        return [
            f"{cls},{self.counts.get(cls, 0)},{labelled[cls]}" for cls in CLASSES
        ]


def _census_perms(d: int, n: int, budget: int) -> List[Tuple[int, ...]]:
    """Bijections from the white set onto the black set, sorted, for a checked size.

    The budget bounds the (n/2)!^(d+1) tuples the census stands for, not
    the (n/2)!^d it visits.  The check builds (n/2)! one factor at a time
    and stops once a partial product's (d+1)-th power passes the budget;
    from 2 on, a power of more than budget.bit_length() factors does.
    """
    _check_census_size(d, n)
    partial = 1
    for k in range(1, n // 2 + 1):
        partial *= k
        if (partial > 1 and d + 1 > budget.bit_length()) or partial ** (d + 1) > budget:
            raise BudgetExceeded(
                f"(n/2)!^(d+1) for n={n}, d={d} exceeds budget {budget}; raise the budget"
            )
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
    counts: Dict[str, int] = {cls: 0 for cls in CLASSES}
    by_components: Dict[str, Dict[int, int]] = {cls: {} for cls in CLASSES}
    for weight, G in walk:
        names = classifier(G)
        comps = len(residues(G, G.colours).components)
        for cls in names:
            counts[cls] += weight
            bc = by_components[cls]
            bc[comps] = bc.get(comps, 0) + weight
        for inv in relabellings:
            # white w is relabelled p(w) where inv lists p^-1
            emit(ColourfulGraph(d, [[m[i] for i in inv] for m in G.matchings]), names)
    return CensusReport(d, n, counts, by_components)


def all_perfect_matchings(n: int) -> List[Tuple[int, ...]]:
    """Perfect matchings of [1..n] as involution tuples (partner of v at v-1)."""
    if n % 2 or n < 0:
        raise BadParams(f"n must be even and >= 0, got {n}")
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
class LabelledCensus:
    """Direct tally over labelled matching tuples of [1..n] (ground truth)."""

    d: int
    n: int
    counts: Dict[str, int]
    bipartite_tuples: int
    total_tuples: int


def _two_colouring(tup: Tuple[Tuple[int, ...], ...], n: int) -> Optional[List[int]]:
    """Sides (0 white, 1 black) of [1..n] in the union of tup, or None on an odd cycle.

    One search runs from the smallest vertex of each component, which takes
    the white side.
    """
    side = [-1] * (n + 1)
    for start in range(1, n + 1):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            other = side[v] ^ 1
            for m in tup:
                u = m[v - 1]
                if side[u] < 0:
                    side[u] = other
                    stack.append(u)
                elif side[u] != other:
                    return None
    return side


def enumerate_labelled(d: int, n: int) -> LabelledCensus:
    """Naive labelled enumeration: every tuple of perfect matchings of [1..n].

    No symmetry shortcuts: each tuple is 2-coloured by a search from the
    smallest vertex of each component of its union, which goes on the
    white side; an edge joining two vertices of one side closes an odd
    cycle, and the tuple is skipped.  A kept tuple is relabelled only to
    evaluate the (label-invariant) classify: whites become 1..n/2 and
    blacks n/2+1..n, each in ascending label order.  Counts are raw
    tallies of labelled tuples.
    """
    _check_census_size(d, n)
    # (n-1)!! matchings, counted before any is built
    total = math.prod(range(n - 1, 0, -2)) ** (d + 1)
    if total > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"matchings^(d+1) = {total} exceeds budget {DEFAULT_BUDGET}"
        )
    pms = all_perfect_matchings(n)
    counts: Dict[str, int] = {cls: 0 for cls in CLASSES}
    cache: Dict[ColourfulGraph, FrozenSet[str]] = {}
    bipartite = 0
    new_id = [0] * (n + 1)
    for tup in itertools.product(pms, repeat=d + 1):
        side = _two_colouring(tup, n)
        if side is None:
            continue
        bipartite += 1
        whites = [v for v in range(1, n + 1) if side[v] == 0]
        blacks = [v for v in range(1, n + 1) if side[v] == 1]
        for i, b in enumerate(blacks, start=n // 2 + 1):
            new_id[b] = i
        G = ColourfulGraph(d, [[new_id[m[w - 1]] for w in whites] for m in tup])
        names = cache.get(G)
        if names is None:
            names = classify(G)
            cache[G] = names
        for cls in names:
            counts[cls] += 1
    return LabelledCensus(d, n, counts, bipartite, total)


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
    kappa(i,j) - kappa(I) must be at most n/6.  The alternating identity
    kappa^(2) = 2 kappa^(3) + n/2 is evaluated by the independent counting
    route and must hold exactly on the same (G, I); mismatches in either
    direction are counted.  check_5 runs the 5-subset bound when d >= 4.

    Each tuple of the orbit walk adds its orbit's (n/2)! to graphs, checked,
    violations and identity_mismatches; min_slack and the extremal (G, I)
    are those a walk over every tuple finds first.
    """
    report = LemmaBoundsReport(d, n, 0, 0, 0, None, None, 0)
    for weight, G in _orbit_walk(d, n, budget):
        report.graphs += weight
        for I in itertools.combinations(range(1, d + 2), 3):
            w = lemma1_witness(G, I)
            if euler_poincare_check(G, I) != w.hypothesis_met:
                report.identity_mismatches += weight
            if not w.hypothesis_met:
                continue
            report.checked_3 += weight
            if w.slack < 0:
                report.violations_3 += weight
            if report.min_slack_3 is None or w.slack < report.min_slack_3:
                report.min_slack_3 = w.slack
                report.extremal_3 = (G, I)
        if check_5 and d >= 4:
            for I in itertools.combinations(range(1, d + 2), 5):
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

    m3 is built by a depth-first search, one edge at a time: each step
    pairs the lowest free vertex with each higher free vertex in turn.
    Three union-finds with undo follow the search: the components of
    m1 u m2 u m3 with the side of each vertex in a 2-colouring, and the
    components of m1 u m3 and of m2 u m3.  An edge joining two vertices of
    one component on the same side closes an odd cycle, so no completion
    below it is bipartite and the whole subtree is skipped.  Skipped
    completions still count in extensions_tried, which is (n-1)!!, the
    number of perfect matchings of [1..n]; n is capped at EXTENSION_MAX_N.
    """
    n = len(m1)
    if n > EXTENSION_MAX_N:
        raise BudgetExceeded(f"n={n} above the small-instance limit {EXTENSION_MAX_N}")
    m1 = _check_involution(m1, n, "m1")
    m2 = _check_involution(m2, n, "m2")
    # one walk around each alternating (m1, m2) cycle numbers the base
    # components and 2-colours them
    cycle = [-1] * (n + 1)
    side = [0] * (n + 1)
    c = 0
    for start in range(1, n + 1):
        if cycle[start] >= 0:
            continue
        v = start
        while cycle[v] < 0:
            u = m1[v - 1]
            cycle[v], cycle[u], side[u] = c, c, 1
            v = m2[u - 1]
        c += 1
    # union-finds by size, without path compression, so a union is undone
    # by detaching the root it attached: base components keyed by cycle
    # number, each with its side relative to its parent; m1 u m3 and
    # m2 u m3 keyed by the smaller end of each m1 (m2) edge
    up_b, size_b, flip = list(range(c)), [1] * c, [0] * c
    key1 = [0] + [min(v, u) for v, u in enumerate(m1, start=1)]
    key2 = [0] + [min(v, u) for v, u in enumerate(m2, start=1)]
    up1, size1 = list(range(n + 1)), [1] * (n + 1)
    up2, size2 = list(range(n + 1)), [1] * (n + 1)
    buckets: Dict[int, int] = {}
    # planar iff c + (n/2 - merged1) + (n/2 - merged2) == 2(c - merged_b) + n/2
    target = n // 2 - c

    def extend(free: List[int], merged_b: int, merged1: int, merged2: int) -> None:
        if not free:
            if merged1 + merged2 - 2 * merged_b == target:
                k = c - merged_b
                buckets[k] = buckets.get(k, 0) + 1
            return
        v = free[0]
        # v's roots hold for every sibling: each child's unions are undone
        # before the next child is tried
        rv, sv = cycle[v], side[v]
        while up_b[rv] != rv:
            sv ^= flip[rv]
            rv = up_b[rv]
        r1v = key1[v]
        while up1[r1v] != r1v:
            r1v = up1[r1v]
        r2v = key2[v]
        while up2[r2v] != r2v:
            r2v = up2[r2v]
        for i in range(1, len(free)):
            u = free[i]
            ru, su = cycle[u], side[u]
            while up_b[ru] != ru:
                su ^= flip[ru]
                ru = up_b[ru]
            if ru == rv:
                if su == sv:
                    continue  # odd cycle: nothing below is bipartite
                child_b = -1
            else:
                child_b, root_b = (ru, rv) if size_b[ru] <= size_b[rv] else (rv, ru)
                up_b[child_b] = root_b
                size_b[root_b] += size_b[child_b]
                flip[child_b] = su ^ sv ^ 1
            r1u = key1[u]
            while up1[r1u] != r1u:
                r1u = up1[r1u]
            child1 = -1
            if r1u != r1v:
                child1, root1 = (r1u, r1v) if size1[r1u] <= size1[r1v] else (r1v, r1u)
                up1[child1] = root1
                size1[root1] += size1[child1]
            r2u = key2[u]
            while up2[r2u] != r2u:
                r2u = up2[r2u]
            child2 = -1
            if r2u != r2v:
                child2, root2 = (r2u, r2v) if size2[r2u] <= size2[r2v] else (r2v, r2u)
                up2[child2] = root2
                size2[root2] += size2[child2]
            extend(
                free[1:i] + free[i + 1:],
                merged_b + (child_b >= 0),
                merged1 + (child1 >= 0),
                merged2 + (child2 >= 0),
            )
            if child2 >= 0:
                size2[up2[child2]] -= size2[child2]
                up2[child2] = child2
            if child1 >= 0:
                size1[up1[child1]] -= size1[child1]
                up1[child1] = child1
            if child_b >= 0:
                size_b[up_b[child_b]] -= size_b[child_b]
                up_b[child_b] = child_b

    extend(list(range(1, n + 1)), 0, 0, 0)
    planar = sum(buckets.values())
    bounds = {k: 2 ** (5 * n) * n ** (c - k) for k in buckets}
    violations = [k for k, cnt in buckets.items() if cnt > bounds[k]]
    tried = math.prod(range(n - 1, 0, -2))
    return ExtensionBoundReport(n, c, buckets, bounds, violations, tried, planar)


def harmonic_number(k: int) -> float:
    return float(sum(Fraction(1, i) for i in range(1, k + 1)))


def compose_inverse(sigma: Sequence[int], tau: Sequence[int]) -> Tuple[int, ...]:
    """One-line form of sigma followed by tau^(-1)."""
    k = len(sigma)
    inv = [0] * k
    for i, t in enumerate(tau, start=1):
        inv[t - 1] = i
    return tuple(inv[s - 1] for s in sigma)


def mean_cycles_uniform(k: int, samples: int, seed: SeedLike = 0) -> float:
    """Direct simulation: mean cycle count of sigma tau^(-1), both uniform."""
    rng = _rng(seed)
    base = list(range(1, k + 1))
    total = 0
    for _ in range(samples):
        sigma = base[:]
        tau = base[:]
        rng.shuffle(sigma)
        rng.shuffle(tau)
        total += count_cycles(compose_inverse(sigma, tau))
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
    """
    if samples < 1:
        raise RangeError(f"samples must be >= 1, got {samples}")
    d = 3
    rng = _rng(seed)
    rows = []
    for k in ks:
        vs = []
        cycles_valid = []
        for _ in range(samples):
            params = random_construction_params(d, k, rng)
            G = build_manifold(params)
            vs.append(complex_vertex_count(G))
            cycles_valid.append(
                count_cycles(compose_inverse(params.sigma, params.tau))
            )
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
