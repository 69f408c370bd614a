"""Acceptance suite: one test per shipped guarantee.

Run with -v to get one pass/fail line per criterion.  Each test carries its
own wall-clock budget; exact checks have zero numeric tolerance.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from gemkit import (
    Status,
    all_perfect_matchings,
    betti_numbers,
    build_manifold,
    colour_deleted_components,
    enumerate_census,
    euler_poincare_check,
    genus_of_residue,
    harmonic_number,
    is_manifold,
    is_sphere,
    mean_cycles_uniform,
    melonic_reduce,
    order_complex,
    random_construction_params,
    remove_dipole,
    residues,
    sphere_vector,
    verify_extension_bound,
    verify_lemma_bounds,
    vn_experiment,
)
from census_oracle import labelled_census
from conftest import dipole_graph, torus_graph, two_tetrahedra_graph


@contextmanager
def time_budget(limit_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"ran {elapsed:.1f}s, budget {limit_s}s"


@pytest.fixture(scope="module")
def lemma_reports():
    """Exhaustive d=3 audits shared by the bound and identity criteria."""
    with time_budget(300):
        return {n: verify_lemma_bounds(3, n) for n in (2, 4, 6)}


def test_01_terminal_dipole_battery():
    with time_budget(1.0):
        for d in range(2, 6):
            G = dipole_graph(d)
            trace = melonic_reduce(G)
            assert trace.reached_dipole and trace.moves == ()
            assert is_sphere(G).status is Status.YES
            assert is_manifold(G).status is Status.YES
            K = order_complex(G, range(1, d + 2))
            assert betti_numbers(K).betti == sphere_vector(d)


def test_02_two_tetrahedra_sphere():
    with time_budget(1.0):
        G = two_tetrahedra_graph()
        assert is_manifold(G).status is Status.YES  # exact at d=3
        verdict = is_sphere(G)
        assert verdict.status is Status.YES
        assert "melonic" in verdict.certificate
        for I in itertools.combinations(range(1, 5), 3):
            for comp in residues(G, I).components:
                assert genus_of_residue(G, I, comp).genus == 0
        assert betti_numbers(order_complex(G, (1, 2, 3, 4))).betti == (1, 0, 0, 1)


def test_03_torus_witness():
    with time_budget(1.0):
        G = torus_graph()
        assert genus_of_residue(G, (1, 2, 3), range(1, 7)).genus == 1
        assert is_sphere(G).status is Status.NO
        assert euler_poincare_check(G, (1, 2, 3)) is False
        assert betti_numbers(order_complex(G, (1, 2, 3))).betti == (1, 2, 1)


def test_04_census_cross_validation():
    with time_budget(300):
        # (2, 6), (4, 4) and (5, 4) also reject tuples with odd cycles
        for d, n in ((3, 2), (3, 4), (3, 6), (2, 6), (4, 4), (1, 8), (5, 4)):
            fast = enumerate_census(d, n)
            counts, _, _ = labelled_census(d, n)
            assert fast.labelled_counts == counts, f"d={d} n={n}"
        assert enumerate_census(3, 2).labelled_counts["manifold"] == 1


def test_04_optional_census_n8():
    # rows of the walk over all 331,776 tuples; the orbit walk visits 13,824
    with time_budget(120):
        report = enumerate_census(3, 8, budget=10**9)
    assert report.rows() == [
        "all,331776,11197305",
        "propertyP,189360,6273225",
        "manifold,189360,6273225",
        "sphere_yes,20160,705600",
        "sphere_unknown,147744,5171040",
        "melonic,20160,705600",
    ]
    assert report.by_components["all"] == {1: 308592, 2: 22152, 3: 1008, 4: 24}


def test_05_pair_bound_exhaustive(lemma_reports):
    checked = 0
    for n, rep in lemma_reports.items():
        assert rep.violations_3 == 0, f"pair bound violated at n={n}"
        assert rep.min_slack_3 >= 0
        checked += rep.checked_3
    # the genus-0 hypothesis filter must keep a substantial census slice
    assert checked > 4000


def test_06_counting_identity_exhaustive(lemma_reports):
    # the alternating component count equals twice kappa exactly when every
    # 3-residue has genus 0; mismatches in either direction count
    for n, rep in lemma_reports.items():
        assert rep.identity_mismatches == 0, f"identity mismatch at n={n}"


def test_07_construction_guarantee():
    with time_budget(600):
        for k in range(1, 11):
            for s in range(100):
                params = random_construction_params(3, k, seed=1000 * k + s)
                G = build_manifold(params)
                assert is_manifold(G).status is Status.YES, params
        for d in (4, 5):
            for k in range(1, 6):
                for s in range(20):
                    params = random_construction_params(
                        d, k, seed=10_000 * d + 100 * k + s
                    )
                    G = build_manifold(params)
                    for colour in range(1, d + 2):
                        for sub in colour_deleted_components(G, colour):
                            assert melonic_reduce(sub).reached_dipole, (params, colour)


def test_08_extension_count_bound():
    with time_budget(300):
        for n in (2, 4, 6, 8):
            matchings = all_perfect_matchings(n)
            for m1 in matchings:
                for m2 in matchings:
                    rep = verify_extension_bound(m1, m2)
                    assert rep.violations == [], (n, m1, m2)


def test_09_cycle_statistics():
    with time_budget(300):
        est = mean_cycles_uniform(100, 10_000, seed=0)
        assert abs(est - harmonic_number(100)) < 0.5
        report = vn_experiment((10, 20, 40, 80), samples=30, seed=0)
        ratios = [row.mean_v_over_n for row in report.rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios


def test_10_dipole_moves_preserve_betti():
    with time_budget(300):
        samples = []
        seed = 0
        while len(samples) < 200:
            params = random_construction_params(4, 1 + seed % 3, seed=seed)
            G = build_manifold(params)
            for colour in range(1, 6):
                for sub in colour_deleted_components(G, colour):
                    if sub.n >= 4 and len(samples) < 200:
                        samples.append(sub)
            seed += 1
        moves_checked = 0
        for start in samples:
            g = start
            betti = betti_numbers(order_complex(g, g.colours)).betti
            trace = melonic_reduce(g)
            assert trace.reached_dipole
            for move in trace.moves:
                g = remove_dipole(g, move)
                after = betti_numbers(order_complex(g, g.colours)).betti
                assert after == betti, (move, betti, after)
                betti = after
                moves_checked += 1
        assert moves_checked >= 200
