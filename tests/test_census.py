"""Census enumeration, counting audits, and cycle statistics."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from gemkit import (
    BadParams,
    BudgetExceeded,
    CLASSES,
    ExtensionBoundReport,
    RangeError,
    all_perfect_matchings,
    census,
    classify,
    compose_inverse,
    enumerate_census,
    enumerate_labelled,
    harmonic_number,
    mean_cycles_uniform,
    tuple_count,
    verdicts,
    verify_extension_bound,
    verify_lemma_bounds,
    vn_experiment,
)
from census_oracle import full_census, full_lemma_bounds
from extension_oracle import bipartite_components, extension_bound, union_components
from conftest import (
    double_dipole_graph,
    split_pair_graph,
    torus_graph,
    torus_in_d3,
    two_tetrahedra_graph,
)


# (d, n, the error the census size check raises)
BAD_CENSUS_SIZES = ((3, -2, BadParams), (3, 0, BadParams), (3, 5, BadParams), (0, 4, RangeError))


def test_tuple_count():
    assert tuple_count(3, 4) == 16
    assert tuple_count(3, 6) == 1296
    assert tuple_count(2, 6) == 216
    # the census's own size check, before any arithmetic
    for d, n, error in BAD_CENSUS_SIZES:
        with pytest.raises(error):
            tuple_count(d, n)


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


@pytest.mark.parametrize("d, n", [(2, 6), (3, 6)])
def test_classify_reduces_at_most_once(monkeypatch, d, n):
    # is_sphere's trace already says whether G is melonic at d >= 3
    calls = []
    reduce = census.melonic_reduce

    def counted(G):
        calls.append(G)
        return reduce(G)

    monkeypatch.setattr(census, "melonic_reduce", counted)
    monkeypatch.setattr(verdicts, "melonic_reduce", counted)
    per_graph = []

    def classifier(G):
        before = len(calls)
        names = census.classify(G)
        per_graph.append(len(calls) - before)
        return names

    report = enumerate_census(d, n, classifier=classifier)
    assert report.counts["melonic"] > 0
    assert max(per_graph) == 1


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
    census = enumerate_labelled(3, 4)
    assert census.total_tuples == 3**4
    assert census.bipartite_tuples == 45
    assert census.counts == LABELLED_D3_N4


@pytest.mark.parametrize(
    "d, n, total, bipartite",
    [(2, 4, 27, 21), (2, 6, 3375, 1845), (4, 4, 243, 93), (1, 8, 11025, 11025)],
)
def test_labelled_oracle_skips_tuples_with_odd_cycles(d, n, total, bipartite):
    # every union of two perfect matchings is bipartite, so d = 1 keeps all
    census = enumerate_labelled(d, n)
    assert (census.total_tuples, census.bipartite_tuples) == (total, bipartite)


def test_census_d2_n6_frozen_counts():
    report = enumerate_census(2, 6)
    assert report.counts["all"] == 216
    assert report.counts["propertyP"] == 204
    # every 3-colourful graph encodes a closed surface
    assert report.counts["manifold"] == 216
    assert report.counts["sphere_yes"] == report.counts["melonic"] == 144


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
    # refused before any of the 29!! matchings of [1..30] is built
    with pytest.raises(BudgetExceeded):
        enumerate_labelled(3, 30)
    for d, n, error in BAD_CENSUS_SIZES:
        message = f"dimension d must be >= 1, got {d}" if d < 1 else f"n must be even and >= 2, got {n}"
        with pytest.raises(error, match=rf"^{message}$"):
            enumerate_labelled(d, n)


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
                assert refused == (tuple_count(d, n) > budget), (d, n, budget)


def test_all_perfect_matchings_counts():
    assert len(all_perfect_matchings(2)) == 1
    assert len(all_perfect_matchings(4)) == 3
    assert len(all_perfect_matchings(6)) == 15
    assert len(all_perfect_matchings(8)) == 105
    assert all_perfect_matchings(0) == [()]
    for n in (-2, -1, 3):
        with pytest.raises(BadParams):
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
                bipartite = _has_two_colouring(tup, n)
                assert bipartite_components(tup, n) == (expected if bipartite else None)


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


def test_extension_search_matches_the_oracle():
    pairs = [
        pair
        for n in (0, 2, 4, 6)
        for pair in itertools.product(all_perfect_matchings(n), repeat=2)
    ]
    pairs += _extension_sample(random.Random(8))
    for m1, m2 in pairs:
        report, expected = verify_extension_bound(m1, m2), extension_bound(m1, m2)
        assert report == expected, (m1, m2)
        assert list(report.buckets) == list(expected.buckets)
        assert report.extensions_tried == _double_factorial(len(m1))


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
            assert verify_extension_bound(*conj) == report, (m1, m2, p)
            assert report.extensions_tried == _double_factorial(n)


def _search_leaves(m1, m2):
    """Completions the extension search reaches, counted by a profile hook."""
    leaves = 0

    def count(frame, event, arg):
        nonlocal leaves
        if event == "call" and frame.f_code.co_name == "extend" and not frame.f_locals["free"]:
            leaves += 1

    sys.setprofile(count)
    try:
        verify_extension_bound(m1, m2)
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
            bipartite_components((m1, m2, m3), n) is not None
            for m3 in all_perfect_matchings(n)
        )
        assert _search_leaves(m1, m2) == bipartite, (m1, m2)


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


# ------------------------------------------------------- cycle statistics


def test_compose_inverse():
    assert compose_inverse((2, 3, 1), (3, 1, 2)) == (3, 1, 2)
    assert compose_inverse((3, 1, 2), (3, 1, 2)) == (1, 2, 3)


def test_harmonic_number():
    assert harmonic_number(1) == 1.0
    assert abs(harmonic_number(4) - 25 / 12) < 1e-12


def test_mean_cycles_uniform_is_seeded_and_accurate():
    a = mean_cycles_uniform(5, 2000, seed=3)
    assert a == mean_cycles_uniform(5, 2000, seed=3)
    est = mean_cycles_uniform(5, 20000, seed=0)
    assert abs(est - harmonic_number(5)) < 0.1


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


@pytest.mark.parametrize("samples", [0, -3])
def test_vn_experiment_rejects_fewer_than_one_sample(samples):
    with pytest.raises(RangeError):
        vn_experiment([1], samples=samples)
