"""Census enumeration, counting audits, and cycle statistics."""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from gemkit import (
    BadParams,
    BudgetExceeded,
    CLASSES,
    ExtensionBoundReport,
    GemkitError,
    RangeError,
    all_perfect_matchings,
    census,
    classify,
    compose_inverse,
    count_cycles,
    enumerate_census,
    graph,
    harmonic_number,
    homology,
    mean_cycles_uniform,
    random_graph,
    verdicts,
    verify_extension_bound,
    verify_lemma_bounds,
    vn_experiment,
)
from census_oracle import full_census, full_lemma_bounds, labelled_census
from extension_oracle import extension_bound, two_colouring, union_components
from conftest import (
    double_dipole_graph,
    split_pair_graph,
    torus_graph,
    torus_in_d3,
    two_tetrahedra_graph,
)


def test_classify_known_graphs():
    assert classify(two_tetrahedra_graph()) == frozenset(
        {"all", "propertyP", "manifold", "melonic", "sphere_yes"}
    )
    assert classify(torus_graph()) == frozenset({"all", "manifold"})
    assert classify(torus_in_d3()) == frozenset({"all"})
    assert classify(split_pair_graph()) == frozenset(
        {"all", "propertyP", "manifold", "sphere_unknown"}
    )
    # sphere classes skip disconnected graphs
    assert classify(double_dipole_graph()) == frozenset(
        {"all", "propertyP", "manifold"}
    )


@pytest.mark.parametrize("d, n", [(2, 6), (3, 6), (4, 4)])
def test_classify_reduces_at_most_once(monkeypatch, d, n):
    # property P, the genus witness and the reduction trace are kept in the
    # verdicts' per-graph record, which classify, is_manifold and is_sphere
    # share; each is counted in whichever module binds it
    calls = {"has_property_P": [], "_positive_genus_witness": [], "melonic_reduce": []}
    for name, seen in calls.items():

        def counted(G, original=getattr(verdicts, name), seen=seen):
            seen.append(G)
            return original(G)

        for module in (census, verdicts):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    per_graph = []

    def classifier(G):
        before = {name: len(seen) for name, seen in calls.items()}
        names = census.classify(G)
        per_graph.append({name: len(seen) - before[name] for name, seen in calls.items()})
        return names

    report = enumerate_census(d, n, classifier=classifier)
    assert report.counts["melonic"] > 0
    assert all(row["has_property_P"] == 1 for row in per_graph)
    assert max(row["melonic_reduce"] for row in per_graph) == 1
    # a witness is built only when property P fails at d >= 3; below, genus
    # alone decides the sphere and every graph is a manifold
    witnesses = [row["_positive_genus_witness"] for row in per_graph]
    assert max(witnesses) == (d >= 3 and report.counts["propertyP"] < report.counts["all"])


@pytest.mark.parametrize("d, n", [(2, 6), (3, 6), (4, 4)])
def test_classify_builds_the_full_complex_at_most_once(monkeypatch, d, n):
    # the Betti vector of the full complex is the fourth fact in the
    # per-graph record: classify builds G's own order complex at most once,
    # and never for a melonic graph or one without property P
    built = []

    def counted(K, colours, original=verdicts.order_complex):
        built.append(K)
        return original(K, colours)

    for module in (census, homology, verdicts):
        if hasattr(module, "order_complex"):
            monkeypatch.setattr(module, "order_complex", counted)
    per_graph = []

    def classifier(G):
        start = len(built)
        names = census.classify(G)
        per_graph.append((names, sum(K is G for K in built[start:])))
        return names

    enumerate_census(d, n, classifier=classifier)
    assert max(own for _, own in per_graph) <= 1
    for names, own in per_graph:
        if "melonic" in names or "propertyP" not in names:
            assert own == 0, names
    assert any(own for _, own in per_graph) == (d >= 3)


def test_census_smallest_size():
    report = enumerate_census(3, 2)
    assert report.counts == {
        "all": 1,
        "propertyP": 1,
        "manifold": 1,
        "sphere_yes": 1,
        "sphere_unknown": 0,
        "melonic": 1,
    }
    assert report.labelled_counts["all"] == 1
    assert report.labelled_counts["manifold"] == 1


CANONICAL_D3_N4 = {
    "all": 16,
    "propertyP": 16,
    "manifold": 16,
    "sphere_yes": 8,
    "sphere_unknown": 6,
    "melonic": 8,
}

LABELLED_D3_N4 = {
    "all": 45,
    "propertyP": 45,
    "manifold": 45,
    "sphere_yes": 24,
    "sphere_unknown": 18,
    "melonic": 24,
}


def test_census_d3_n4_frozen_counts():
    report = enumerate_census(3, 4)
    assert report.counts == CANONICAL_D3_N4
    assert report.labelled_counts == LABELLED_D3_N4


def test_labelled_oracle_agrees_at_n4():
    assert labelled_census(3, 4) == (LABELLED_D3_N4, 45, 3**4)


@pytest.mark.parametrize(
    "d, n, total, bipartite",
    [(2, 4, 27, 21), (2, 6, 3375, 1845), (4, 4, 243, 93), (1, 8, 11025, 11025)],
)
def test_labelled_oracle_skips_tuples_with_odd_cycles(d, n, total, bipartite):
    # every union of two perfect matchings is bipartite, so d = 1 keeps all
    _, kept, tuples = labelled_census(d, n)
    assert (tuples, kept) == (total, bipartite)


def test_census_d2_n6_frozen_counts():
    report = enumerate_census(2, 6)
    assert report.counts["all"] == 216
    assert report.counts["propertyP"] == 204
    # every 3-colourful graph encodes a closed surface
    assert report.counts["manifold"] == 216
    assert report.counts["sphere_yes"] == report.counts["melonic"] == 144


def _rooted_counts(d, h):
    """Closed-form rooted counts (canonical / (h!(h-1)!)) of graphs with 2h vertices.

    melonic: the Fuss-Catalan number FC_{d+1}(h) = C((d+1)h+1, h)/((d+1)h+1),
    counting (d+1)-ary trees (Bonzom-Gurau-Riello-Rivasseau 2011).  At d = 2,
    sphere_yes: Tutte's rooted bicubic planar maps, 3*2^(h-1)(2h)!/(h!(h+2)!)
    (Tutte, "A census of planar maps", 1963).
    """
    m = d + 1
    counts = {"melonic": math.comb(m * h + 1, h) // (m * h + 1)}
    if d == 2:
        f = math.factorial
        counts["sphere_yes"] = 3 * 2 ** (h - 1) * f(2 * h) // (f(h) * f(h + 2))
    return counts


def test_closed_forms_give_the_known_numbers():
    assert [_rooted_counts(2, h)["melonic"] for h in (2, 3, 4)] == [3, 12, 55]
    assert [_rooted_counts(3, h)["melonic"] for h in (2, 3, 4)] == [4, 22, 140]
    assert _rooted_counts(4, 3)["melonic"] == 35
    assert [_rooted_counts(2, h)["sphere_yes"] for h in range(1, 6)] == [1, 3, 12, 56, 288]


@pytest.mark.parametrize(
    "d, n", [(2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (4, 4), (4, 6), (5, 4), (6, 4)]
)
def test_census_rows_match_closed_forms(d, n):
    # oracles that share no code with the census, the residues or the dipoles
    report = enumerate_census(d, n)
    h = n // 2
    rooted = _rooted_counts(d, h)
    roots = math.factorial(h) * math.factorial(h - 1)
    for cls, count in rooted.items():
        assert report.counts[cls] == roots * count, cls
    assert report.labelled_counts["melonic"] == math.factorial(n - 1) * rooted["melonic"]


def test_census_rows_are_stable():
    rows = enumerate_census(3, 2).rows()
    assert rows[0] == "all,1,1"
    assert len(rows) == len(CLASSES)
    assert all(r.count(",") == 2 for r in rows)


def test_census_emit_callback():
    seen = []
    enumerate_census(3, 4, emit=lambda G, names: seen.append((G, names)))
    every_tuple = set(itertools.product(itertools.permutations((3, 4)), repeat=4))
    assert sorted(G.matchings for G, _ in seen) == sorted(every_tuple)
    assert all(G.d == 3 and names == classify(G) for G, names in seen)


@pytest.mark.parametrize("d, n", [(2, 6), (3, 4), (3, 6), (4, 4)])
def test_orbit_walk_matches_the_full_census(d, n):
    orbit = enumerate_census(d, n)
    full = full_census(d, n)
    assert orbit.rows() == full.rows()
    assert orbit.labelled_counts == full.labelled_counts
    assert orbit.by_components == full.by_components


@pytest.mark.parametrize(
    "d, n, check_5", [(3, 4, False), (3, 6, False), (4, 4, True), (4, 2, True)]
)
def test_orbit_walk_matches_the_full_lemma_sweep(d, n, check_5):
    orbit = verify_lemma_bounds(d, n, check_5=check_5)
    full = full_lemma_bounds(d, n, check_5=check_5)
    # every field, the extremal (G, I) included
    assert orbit == full


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_census(3, 6, budget=100)
    with pytest.raises(BadParams):
        enumerate_census(3, 5)


@pytest.mark.parametrize("d,n", [(3, 5), (3, 0), (0, 4), (3, 2 * 10**9)])
def test_every_size_check_raises_the_same_error(d, n):
    # one check serves the census and the sampler
    raised = set()
    for call in (enumerate_census, random_graph):
        with pytest.raises(GemkitError) as exc:
            call(d, n)
        raised.add((type(exc.value), str(exc.value)))
    assert len(raised) == 1, raised


def test_budget_counts_every_tuple_even_in_a_shard():
    # 6^4 = 1,296 tuples stand behind the census; the walk visits 216 of
    # them but is held to the whole count
    for run in (
        lambda: enumerate_census(3, 6, budget=1000),
        lambda: verify_lemma_bounds(3, 6, budget=1000),
    ):
        with pytest.raises(BudgetExceeded) as exc:
            run()
        assert str(exc.value) == (
            "(n/2)!^(d+1) for n=6, d=3 exceeds budget 1000; raise the budget"
        )


def test_budget_check_agrees_with_the_full_product():
    # the factor-by-factor check refuses exactly the sizes whose whole
    # product (n/2)!^(d+1) passes the budget, also where it never builds it
    budgets = [0, 1] + [2**b + e for b in range(1, 40) for e in (-1, 0)]
    for d in range(1, 42):
        for n in (2, 4, 6, 8):
            for budget in budgets:
                try:
                    census._census_perms(d, n, budget)
                    refused = False
                except BudgetExceeded:
                    refused = True
                assert refused == (math.factorial(n // 2) ** (d + 1) > budget), (d, n, budget)


def test_all_perfect_matchings_counts():
    assert len(all_perfect_matchings(2)) == 1
    assert len(all_perfect_matchings(4)) == 3
    assert len(all_perfect_matchings(6)) == 15
    assert len(all_perfect_matchings(8)) == 105
    assert all_perfect_matchings(0) == [()]
    for n in (-2, -1, 3):
        with pytest.raises(BadParams):
            all_perfect_matchings(n)
    assert census.EXTENSION_MAX_N == 14
    assert len(all_perfect_matchings(14)) == 135135
    # 15!! = 2,027,025 matchings at n = 16 are refused, not built
    for n in (16, 20, 10**12):
        with pytest.raises(BudgetExceeded, match=rf"^n={n} above the small-instance limit 14 "):
            all_perfect_matchings(n)
    for m in all_perfect_matchings(4):
        assert all(m[m[v - 1] - 1] == v and m[v - 1] != v for v in range(1, 5))


# ------------------------------------------------------------ bound audits


def test_lemma_bounds_exhaustive_n4():
    report = verify_lemma_bounds(3, 4)
    assert report.graphs == 16
    assert report.checked_3 == 64
    assert report.violations_3 == 0
    assert report.identity_mismatches == 0
    assert report.min_slack_3 == Fraction(2, 3)


def test_lemma_bounds_frozen_at_d4_n6():
    # the audit workload's heaviest sweep
    report = verify_lemma_bounds(4, 6)
    assert (report.graphs, report.checked_3, report.violations_3) == (7776, 73440, 0)
    assert report.min_slack_3 == 1
    assert report.identity_mismatches == 0
    G, I = report.extremal_3
    assert I == (1, 2, 3)
    assert G.d == 4 and G.matchings == ((4, 5, 6),) * 5
    assert (report.checked_5, report.min_slack_5, report.extremal_5) == (0, None, None)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_the_sweeps_triple_check_is_the_alternating_identity(d):
    # verify_lemma_bounds tests the identity with property P's own check;
    # for |I| = 3 the alternating sum n - 3n/2 + kappa_2 = 2 kappa says the same
    for n in (2, 4, 6, 8, 12, 20):
        for seed in range(6):
            G = random_graph(d, n, seed=seed)
            for I in itertools.combinations(range(1, d + 2), 3):
                assert graph._planar_triple(G, I) == verdicts.euler_poincare_check(G, I)


def test_lemma_bounds_respects_budget():
    with pytest.raises(BudgetExceeded):
        verify_lemma_bounds(3, 6, budget=10)


def test_lemma_bounds_five_sets():
    report = verify_lemma_bounds(4, 2, check_5=True)
    assert report.violations_5 == 0
    assert report.checked_5 == 1
    assert report.min_slack_5 == Fraction(3 * 2, 20)


def test_extension_bound_on_a_six_cycle():
    m1 = (2, 1, 4, 3, 6, 5)
    m2 = (6, 3, 2, 5, 4, 1)
    report = verify_extension_bound(m1, m2)
    assert report.n == 6
    assert report.base_components == 1
    assert report.extensions_tried == 15
    assert report.violations == []
    assert report.planar_extensions == sum(report.buckets.values())
    assert report.planar_extensions > 0
    for k, count in report.buckets.items():
        assert count <= report.bounds[k] == 2 ** (5 * 6) * 6 ** (1 - k)


def _search_components(ms, n):
    seen, components = set(), 0
    for start in range(1, n + 1):
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for m in ms:
                if m[v - 1] not in seen:
                    seen.add(m[v - 1])
                    stack.append(m[v - 1])
    return components


def _has_two_colouring(ms, n):
    # vertex 1 may keep side 0: flipping every side preserves a colouring
    return any(
        all(sides[v - 1] != sides[m[v - 1] - 1] for m in ms for v in range(1, n + 1))
        for sides in itertools.product((0, 1), repeat=n)
        if sides[0] == 0
    )


def test_union_components_agrees_with_a_search():
    for n in (2, 4, 6):
        ms = all_perfect_matchings(n)
        for r in (1, 2, 3):
            for tup in itertools.product(ms, repeat=r):
                expected = _search_components(tup, n)
                assert union_components(tup, n) == expected
                coloured = two_colouring(tup, n)
                components = None if coloured is None else coloured[0]
                assert components == (expected if _has_two_colouring(tup, n) else None)


def _double_factorial(n):
    return math.prod(range(n - 1, 0, -2))


def _cycle_type(m1, m2):
    """Sorted lengths of the alternating cycles of m1 u m2."""
    seen, lengths = set(), []
    for start in range(1, len(m1) + 1):
        v, length = start, 0
        while v not in seen:
            u = m1[v - 1]
            seen.update((v, u))
            length += 2
            v = m2[u - 1]
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _random_matching(n, rng):
    vs = list(range(1, n + 1))
    rng.shuffle(vs)
    m = [0] * n
    for a, b in zip(vs[::2], vs[1::2]):
        m[a - 1], m[b - 1] = b, a
    return tuple(m)


def _extension_sample(rng):
    """Seeded base pairs: at n = 8 three of each cycle type, m1 = m2 among
    them; at n = 10 and 12 random pairs."""
    ms = all_perfect_matchings(8)
    by_type = {}
    for pair in itertools.product(ms, ms):
        by_type.setdefault(_cycle_type(*pair), []).append(pair)
    assert sorted(by_type) == [(2, 2, 2, 2), (4, 2, 2), (4, 4), (6, 2), (8,)]
    pairs = [(ms[0], ms[0])]
    for ctype in sorted(by_type):
        pairs += rng.sample(by_type[ctype], 3)
    pairs += [(_random_matching(10, rng), _random_matching(10, rng)) for _ in range(6)]
    pairs += [(_random_matching(12, rng), _random_matching(12, rng)) for _ in range(2)]
    return pairs


def _base_of_type(lengths, rng):
    """A base pair whose alternating cycles have the given even lengths,
    relabelled by a seeded permutation; all 2s give m1 = m2."""
    n = sum(lengths)
    m1, m2 = [0] * (n + 1), [0] * (n + 1)
    start = 1
    for length in lengths:
        ring = list(range(start, start + length))
        for i in range(0, length, 2):
            a, b, c = ring[i], ring[i + 1], ring[(i + 2) % length]
            m1[a], m1[b] = b, a
            m2[b], m2[c] = c, b
        start += length
    p = [0, *rng.sample(range(1, n + 1), n)]
    out = []
    for m in (m1, m2):
        conj = [0] * (n + 1)
        for v in range(1, n + 1):
            conj[p[v]] = p[m[v]]
        out.append(tuple(conj[1:]))
    return tuple(out)


N10_TYPES = [(10,), (8, 2), (6, 4), (6, 2, 2), (4, 4, 2), (4, 2, 2, 2), (2, 2, 2, 2, 2)]


def _searched(m1, m2):
    """The extension search's report for the cycle type of m1 u m2,
    searched anew, bypassing the cache."""
    return census._extension_counts.__wrapped__(_cycle_type(m1, m2))


def test_extension_search_matches_the_oracle():
    pairs = [
        pair
        for n in (0, 2, 4, 6)
        for pair in itertools.product(all_perfect_matchings(n), repeat=2)
    ]
    pairs += _extension_sample(random.Random(8))
    rng = random.Random(10)
    for lengths in N10_TYPES:
        m1, m2 = _base_of_type(lengths, rng)
        assert _cycle_type(m1, m2) == lengths
        pairs.append((m1, m2))
    assert pairs[-1][0] == pairs[-1][1]
    for m1, m2 in pairs:
        report, expected = _searched(m1, m2), extension_bound(m1, m2)
        assert report == expected, (m1, m2)
        assert list(report.buckets) == sorted(expected.buckets)
        assert report.extensions_tried == _double_factorial(len(m1))
        public = verify_extension_bound(m1, m2)
        assert public == expected, (m1, m2)
        assert list(public.buckets) == sorted(expected.buckets)


def test_extension_bound_is_invariant_under_relabelling():
    rng = random.Random(5)
    for n in (2, 4, 6, 8, 10, 12):
        for _ in range(3):
            m1, m2 = _random_matching(n, rng), _random_matching(n, rng)
            p = list(range(1, n + 1))
            rng.shuffle(p)
            # the edge {v, m(v)} becomes {p(v), p(m(v))}
            conj = [[0] * n for _ in range(2)]
            for m, out in zip((m1, m2), conj):
                for v in range(1, n + 1):
                    out[p[v - 1] - 1] = p[m[v - 1] - 1]
            report = verify_extension_bound(m1, m2)
            assert report == extension_bound(m1, m2) == extension_bound(*conj), (m1, m2, p)
            assert verify_extension_bound(*conj) == report, (m1, m2, p)
            assert report.extensions_tried == _double_factorial(n)


def _search_leaves(m1, m2):
    """Completions the extension search reaches on the cycle type of
    m1 u m2, searched anew and counted by a profile hook."""
    lengths = _cycle_type(m1, m2)
    leaves = 0

    def count(frame, event, arg):
        nonlocal leaves
        if event == "call" and frame.f_code.co_name == "extend" and not frame.f_locals["free"]:
            leaves += 1

    sys.setprofile(count)
    try:
        census._extension_counts.__wrapped__(lengths)
    finally:
        sys.setprofile(None)
    return leaves


def test_the_extension_search_reaches_only_bipartite_completions():
    # a non-bipartite completion never passes the cycle identity, so only
    # the count of leaves shows that the parity test prunes
    pairs = [
        pair
        for n in (2, 4, 6)
        for pair in itertools.product(all_perfect_matchings(n), repeat=2)
    ]
    pairs += _extension_sample(random.Random(9))[::4]
    for m1, m2 in pairs:
        n = len(m1)
        bipartite = sum(
            two_colouring((m1, m2, m3), n) is not None
            for m3 in all_perfect_matchings(n)
        )
        assert _search_leaves(m1, m2) == bipartite, (m1, m2)


def test_the_n8_extension_battery_matches_the_oracle():
    # every base pair up to n = 8 against the oracle on one base of its
    # cycle type; the counts are searched once per type
    census._extension_counts.cache_clear()
    expected = {}
    for n in (0, 2, 4, 6, 8):
        for m1, m2 in itertools.product(all_perfect_matchings(n), repeat=2):
            ctype = _cycle_type(m1, m2)
            if ctype not in expected:
                expected[ctype] = extension_bound(m1, m2)
            report = verify_extension_bound(m1, m2)
            assert report == expected[ctype], (m1, m2)
            assert list(report.buckets) == sorted(report.buckets)
    assert len(expected) == 12
    assert census._extension_counts.cache_info().currsize == 12


def test_extension_reports_are_fresh():
    rng = random.Random(12)
    m1, m2 = _base_of_type((4, 2, 2), rng)
    expected = extension_bound(m1, m2)
    report = verify_extension_bound(m1, m2)
    report.buckets[1] += 1
    report.buckets[9] = 1
    report.bounds.clear()
    report.violations.append(1)
    again = verify_extension_bound(*_base_of_type((4, 2, 2), rng))
    assert again == expected
    assert list(again.buckets) == [1, 2, 3]


def _catalan(k):
    return math.comb(2 * k, k) // (k + 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
def test_a_single_cycle_base_has_catalan_many_planar_extensions(n):
    # the non-crossing matchings of the cycle, each keeping it connected
    m1 = tuple(v + 1 if v % 2 else v - 1 for v in range(1, n + 1))
    m2 = tuple((v % n) + 1 if v % 2 == 0 else (v - 2) % n + 1 for v in range(1, n + 1))
    report = verify_extension_bound(m1, m2)
    assert report.base_components == 1
    assert report.buckets == {1: _catalan(n // 2)}
    assert report.planar_extensions == _catalan(n // 2)
    assert report.extensions_tried == _double_factorial(n)


def test_a_doubled_matching_makes_every_extension_planar():
    for n in (2, 4, 6, 8, 10, 12, 14):
        m = tuple(v + 1 if v % 2 else v - 1 for v in range(1, n + 1))
        report = verify_extension_bound(m, m)
        assert report.base_components == n // 2
        assert report.planar_extensions == report.extensions_tried == _double_factorial(n)
    assert report.buckets == {
        7: 1, 6: 42, 5: 700, 4: 5880, 3: 25984, 2: 56448, 1: 46080,
    }
    assert report.violations == []


def test_extension_bound_on_the_smallest_bases():
    assert verify_extension_bound((), ()) == ExtensionBoundReport(
        n=0, base_components=0, buckets={0: 1}, bounds={0: 1},
        violations=[], extensions_tried=1, planar_extensions=1,
    )
    assert verify_extension_bound((2, 1), (2, 1)) == ExtensionBoundReport(
        n=2, base_components=1, buckets={1: 1}, bounds={1: 2**10},
        violations=[], extensions_tried=1, planar_extensions=1,
    )


def test_extension_bound_input_checks():
    with pytest.raises(BadParams):
        verify_extension_bound((2, 1, 3), (2, 1, 3))
    # n=16 has 2,027,025 third matchings; refused before any is built
    pairs = tuple(v + 1 if v % 2 else v - 1 for v in range(1, 17))
    with pytest.raises(BudgetExceeded, match="n=16 above the small-instance limit 14"):
        verify_extension_bound(pairs, pairs)


_GOOD4 = (2, 1, 4, 3)

# (m1, m2, the message): n is len(m1), and the message is the first fault
# that checking m1 whole and then m2 whole names, wherever the cycle walk
# meets a fault first
MALFORMED_BASES = [
    pytest.param((2, 1, 3), (2, 1, 3), "m1 is not a perfect matching at vertex 3",
                 id="m1-odd-length"),
    pytest.param((2, 1), _GOOD4, "m2 must list 2 partners, got 4", id="m1-shorter"),
    pytest.param(_GOOD4, (2, 1), "m2 must list 4 partners, got 2", id="m2-shorter"),
    pytest.param((), (2, 1), "m2 must list 0 partners, got 2", id="n0-m2-nonempty"),
    pytest.param((0, 1, 4, 3), _GOOD4, "m1 is not a perfect matching at vertex 1",
                 id="m1-partner-0"),
    pytest.param((2, 1, 5, 3), _GOOD4, "m1 is not a perfect matching at vertex 3",
                 id="m1-partner-n+1"),
    pytest.param(_GOOD4, (2, 1, 4, 0), "m2 is not a perfect matching at vertex 3",
                 id="m2-partner-0"),
    pytest.param(_GOOD4, (5, 1, 4, 3), "m2 is not a perfect matching at vertex 1",
                 id="m2-partner-n+1"),
    pytest.param((1, 2, 4, 3), _GOOD4, "m1 is not a perfect matching at vertex 1",
                 id="m1-fixed-point"),
    pytest.param(_GOOD4, (2, 1, 3, 4), "m2 is not a perfect matching at vertex 3",
                 id="m2-fixed-point"),
    pytest.param((2, 3, 4, 1), _GOOD4, "m1 is not a perfect matching at vertex 1",
                 id="m1-not-an-involution"),
    # the walk from 1 meets this fault last, at vertex 6's m2 edge
    pytest.param((2, 1, 4, 3, 6, 5), (5, 3, 2, 5, 4, 1),
                 "m2 is not a perfect matching at vertex 1", id="m2-not-an-involution"),
    # the walk from 1 meets m2's fault before m1's
    pytest.param((2, 1, 4, 3, 6, 6), (0, 1, 4, 3, 6, 5),
                 "m1 is not a perfect matching at vertex 5", id="both-bad"),
]


@pytest.mark.parametrize("m1,m2,message", MALFORMED_BASES)
def test_a_malformed_base_raises_what_the_matching_checks_raise(m1, m2, message):
    n = len(m1)
    with pytest.raises(BadParams) as checked:
        census._check_involution(m1, n, "m1")
        census._check_involution(m2, n, "m2")
    with pytest.raises(BadParams) as exc:
        verify_extension_bound(m1, m2)
    assert str(exc.value) == str(checked.value) == message


def test_an_iterator_m2_passes_through_the_checks():
    # the cycle walk needs len(m2); the checks take any iterable
    assert verify_extension_bound([4, 3, 2, 1], iter(_GOOD4)) == verify_extension_bound(
        (4, 3, 2, 1), _GOOD4)


# ------------------------------------------------------- cycle statistics


def test_compose_inverse():
    assert compose_inverse((2, 3, 1), (3, 1, 2)) == (3, 1, 2)
    assert compose_inverse((3, 1, 2), (3, 1, 2)) == (1, 2, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: compose_inverse((1, 2), (2, 2)), "tau must be a permutation of [1..2], got (2, 2)"),
        (lambda: compose_inverse((3,), (1,)), "sigma must be a permutation of [1..1], got (3,)"),
        (lambda: compose_inverse((1, 2), (1,)), "tau must be a permutation of [1..2], got (1,)"),
        (lambda: count_cycles((0,)), "perm must be a permutation of [1..1], got (0,)"),
        (lambda: count_cycles((5,)), "perm must be a permutation of [1..1], got (5,)"),
        # entries a sort could not order, hashable or not
        (lambda: count_cycles(("a", 1)), "perm must be a permutation of [1..2], got ('a', 1)"),
        (lambda: count_cycles((None, 1)), "perm must be a permutation of [1..2], got (None, 1)"),
        (lambda: count_cycles(([1], 2)), "perm must be a permutation of [1..2], got ([1], 2)"),
        (lambda: compose_inverse((1, 2), ("x", 1)), "tau must be a permutation of [1..2], got ('x', 1)"),
        (lambda: compose_inverse(([2], 1), (1, 2)), "sigma must be a permutation of [1..2], got ([2], 1)"),
        # every value of [1..2], once too often
        (lambda: compose_inverse((1, 2), (1, 2, 2)), "tau must be a permutation of [1..2], got (1, 2, 2)"),
        # a float equal to an image is no list index
        (lambda: count_cycles((2.0, 1)), "perm must be a permutation of [1..2], got (2.0, 1)"),
    ],
)
def test_the_cycle_helpers_reject_what_is_not_a_permutation(call, message):
    # without the check these returned a wrong answer or raised IndexError,
    # and entries that do not compare with ints raised TypeError
    with pytest.raises(BadParams) as exc:
        call()
    assert str(exc.value) == message


def test_harmonic_number():
    assert harmonic_number(1) == 1.0
    assert abs(harmonic_number(4) - 25 / 12) < 1e-12


def test_mean_cycles_uniform_is_seeded_and_accurate():
    a = mean_cycles_uniform(5, 2000, seed=3)
    assert a == mean_cycles_uniform(5, 2000, seed=3)
    est = mean_cycles_uniform(5, 20000, seed=0)
    assert abs(est - harmonic_number(5)) < 0.1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: harmonic_number(10**7), "k = 10000000 above the limit 16384 for the exact harmonic sum"),
        (lambda: harmonic_number(2**14 + 1), "k = 16385 above the limit 16384 for the exact harmonic sum"),
        (lambda: mean_cycles_uniform(10**7, 1),
         "k * samples = 10000000 above the limit 1048576 for the cycle simulation"),
        (lambda: mean_cycles_uniform(10, 10**8),
         "k * samples = 1000000000 above the limit 1048576 for the cycle simulation"),
    ],
)
def test_the_stats_helpers_refuse_a_long_run_at_once(call, message):
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        call()
    assert time.perf_counter() - start < 1
    assert str(exc.value) == message


def test_the_stats_helpers_reject_a_negative_k_and_no_samples():
    for call in (lambda: harmonic_number(-1), lambda: mean_cycles_uniform(-1, 10)):
        with pytest.raises(RangeError, match="k must be >= 0, got -1"):
            call()
    with pytest.raises(RangeError, match="samples must be >= 1, got 0"):
        mean_cycles_uniform(3, 0)
    assert harmonic_number(0) == mean_cycles_uniform(0, 1) == 0.0
    # the limits admit stats-vn's largest row (k = 1182 at one sample)
    assert mean_cycles_uniform(1182, 1, seed=0) >= 1
    assert abs(harmonic_number(1182) - math.log(1182) - 0.5772) < 1e-3


def test_the_cycle_simulation_keeps_its_seeded_values():
    # the simulation's unchecked core gives the values the checked calls gave
    seeded = ((1, 0), (2, 1), (7, 2), (12, 3), (50, 4))
    assert [mean_cycles_uniform(k, 400, seed=s) for k, s in seeded] == [
        1.0, 1.485, 2.53, 3.055, 4.485]
    assert mean_cycles_uniform(30, 100, seed=random.Random(5)) == 3.81
    rows = vn_experiment([2, 3], samples=7, seed=9).rows
    assert [(r.mean_cycles_valid, r.mean_cycles_uniform) for r in rows] == [
        (2.0, 10 / 7), (17 / 7, 2.0)]


def test_vn_experiment_rows():
    report = vn_experiment([1, 2], samples=25, seed=11)
    assert report.seed == 11
    assert len(report.rows) == 2
    header = report.table_rows()[0]
    assert header.startswith("k,n,mean_V")
    for row in report.rows:
        assert row.n == 12 * row.k
        assert row.samples == 25
        # both columns are computed from the same sampled pairs
        assert abs(row.mean_v - (3 * row.mean_cycles_valid + 3)) < 1e-9
        assert abs(row.mean_v_over_n - row.mean_v / row.n) < 1e-12
        assert abs(row.harmonic_k - harmonic_number(row.k)) < 1e-12
        assert abs(row.n_over_log_n - row.n / math.log(row.n)) < 1e-9
    # k=1 leaves no choice of permutation at all
    assert report.rows[0].mean_cycles_valid == 1.0


def test_vn_experiment_table_is_frozen():
    # an even sample count: the median and p90 both interpolate
    assert vn_experiment([4, 6], samples=8, seed=2).table_rows()[1:] == [
        "4,48,10.8750,10.5,12.9,0.22656,2.6250,2.1250,2.0833,12.40",
        "6,72,14.6250,13.5,18.9,0.20312,3.8750,1.8750,2.4500,16.84",
    ]


def test_vn_experiment_single_sample():
    (row,) = vn_experiment([4], samples=1, seed=2).rows
    assert row.mean_v == row.median_v == row.p90_v


@pytest.mark.parametrize("ks, k", [([2, 50000], 50000), ([20000], 20000)])
def test_vn_experiment_refuses_before_the_first_row(ks, k):
    # the per-row harmonic refusal, made before any row is built; the
    # per-row cycle refusal cannot fire, as k * samples is at most the
    # run's matching entries over 24
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        vn_experiment(ks, 1)
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == f"k = {k} above the limit 16384 for the exact harmonic sum"
    assert census.GRAPH_ENTRIES_MAX // 24 < census.CYCLE_SAMPLES_MAX


@pytest.mark.parametrize("samples", [0, -3])
def test_vn_experiment_rejects_fewer_than_one_sample(samples):
    with pytest.raises(RangeError):
        vn_experiment([1], samples=samples)
