"""The glued double-path family and its planar extension."""

import math
import random

import pytest

from gemkit import (
    BadParams,
    ColourfulGraph,
    ConstructionParams,
    NotAConstructionGraph,
    Status,
    build_G0,
    build_manifold,
    build_planar_family,
    colour_deleted_components,
    complex_vertex_count,
    compose_inverse,
    count_cycles,
    family_size_lower_bound,
    has_property_P,
    is_connected,
    is_manifold,
    kappa_table,
    melonic_reduce,
    random_construction_params,
    random_graph,
)
from conftest import torus_graph


def test_params_validation():
    with pytest.raises(BadParams):
        ConstructionParams(2, 1, (1,), (1,))
    with pytest.raises(BadParams):
        ConstructionParams(3, 0, (), ())
    with pytest.raises(BadParams):
        ConstructionParams(3, 2, (1, 1), (1, 2))
    assert ConstructionParams(3, 2, (1, 2), (1, 2)).n == 24


def test_odd_dimension_needs_parity_preserving_permutations():
    # swapping positions 1 and 2 joins two whites for odd d
    with pytest.raises(BadParams):
        ConstructionParams(3, 2, (2, 1), (1, 2))
    with pytest.raises(BadParams):
        ConstructionParams(5, 2, (1, 2), (2, 1))
    # even d is unconstrained
    ConstructionParams(4, 2, (2, 1), (2, 1))
    # odd-length cycles inside a parity class are fine for odd d
    ConstructionParams(3, 5, (3, 2, 5, 4, 1), (1, 2, 3, 4, 5))


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 1), (5, 1)])
def test_base_graph_degree_pattern(d, k):
    G0 = build_G0(d, k)
    kd = k * d
    assert G0.n == 4 * kd
    open_count = full_count = 0
    for v in range(1, G0.n + 1):
        col = (v - 1) % (2 * kd) + 1  # column index of the vertex
        i = kd + 1 - col if col <= kd else col - kd
        colours = sorted(c for u, w, c in G0.edges if v in (u, w))
        if i % d == 0:
            assert G0.degree(v) == d
            assert colours == list(range(1, d + 1))
            open_count += 1
        else:
            assert G0.degree(v) == d + 1
            assert colours == list(range(1, d + 2))
            full_count += 1
    assert open_count == 4 * k
    assert full_count == 4 * (kd - k)


def test_base_graph_rejects_bad_shape():
    with pytest.raises(BadParams):
        build_G0(2, 1)
    with pytest.raises(BadParams):
        build_G0(3, 0)


def test_build_is_deterministic_and_connected():
    p = ConstructionParams(3, 2, (1, 2), (1, 2))
    G = build_manifold(p)
    assert G == build_manifold(p)
    assert G.n == p.n
    assert is_connected(G)


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 1)])
def test_glued_graph_has_one_interior_residue(d, k):
    G = build_manifold(ConstructionParams(d, k, tuple(range(1, k + 1)), tuple(range(1, k + 1))))
    assert kappa_table(G)[tuple(range(1, d + 1))] == 1


def test_vertex_count_tracks_permutation_cycles():
    # d=3 complexes have 3 * cycles(sigma tau^(-1)) + 3 vertices
    cases = [
        (1, (1,), (1,)),
        (2, (1, 2), (1, 2)),
        (3, (3, 2, 1), (1, 2, 3)),
        (4, (3, 4, 1, 2), (1, 2, 3, 4)),
        (4, (1, 2, 3, 4), (3, 2, 1, 4)),
    ]
    for k, sigma, tau in cases:
        G = build_manifold(ConstructionParams(3, k, sigma, tau))
        c = count_cycles(compose_inverse(sigma, tau))
        assert complex_vertex_count(G) == 3 * c + 3


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 1), (5, 1)])
def test_glued_graphs_satisfy_property_P(d, k):
    ident = tuple(range(1, k + 1))
    G = build_manifold(ConstructionParams(d, k, ident, ident))
    assert has_property_P(G)


def test_glued_graphs_are_manifolds():
    for d, k in [(3, 1), (3, 2), (4, 1)]:
        ident = tuple(range(1, k + 1))
        G = build_manifold(ConstructionParams(d, k, ident, ident))
        assert is_manifold(G).status is Status.YES


@pytest.mark.parametrize("d", [3, 4])
def test_colour_deleted_components_are_melonic(d):
    ident = (1,)
    G = build_manifold(ConstructionParams(d, 1, ident, ident))
    for colour in range(1, d + 2):
        for sub in colour_deleted_components(G, colour):
            assert melonic_reduce(sub).reached_dipole


def test_planar_family_keeps_property_P():
    G3 = build_manifold(ConstructionParams(3, 1, (1,), (1,)))
    for target in (4, 5, 6):
        H = build_planar_family(G3, target)
        assert H.d == target
        assert H.n == G3.n
        assert has_property_P(H)


def test_planar_family_input_checks():
    with pytest.raises(NotAConstructionGraph):
        build_planar_family(torus_graph(), 4)
    G3 = build_manifold(ConstructionParams(3, 1, (1,), (1,)))
    with pytest.raises(BadParams):
        build_planar_family(G3, 3)
    with pytest.raises(NotAConstructionGraph):
        # 8 is not a multiple of 12
        build_planar_family(random_graph(3, 8, seed=1), 4)
    shifted = tuple(
        tuple(6 + (w % 6) + 1 for w in range(1, 7)) for _ in range(4)
    )
    with pytest.raises(NotAConstructionGraph):
        build_planar_family(ColourfulGraph(3, shifted), 4)


def test_random_graph_is_seeded():
    a = random_graph(3, 10, seed=7)
    b = random_graph(3, 10, seed=7)
    c = random_graph(3, 10, seed=8)
    assert a == b
    assert a != c
    assert a == random_graph(3, 10, random.Random(7))


def test_random_graph_input_checks():
    for n in (7, 0, -2):
        with pytest.raises(BadParams, match=rf"^n must be even and >= 2, got {n}$"):
            random_graph(3, n)
    with pytest.raises(BadParams):
        random_graph(0, 4)


def test_random_params_are_valid_and_seeded():
    for seed in range(5):
        p = random_construction_params(3, 6, seed=seed)
        assert p == random_construction_params(3, 6, seed=seed)
        for perm in (p.sigma, p.tau):
            assert sorted(perm) == list(range(1, 7))
            assert all((i - image) % 2 == 0 for i, image in enumerate(perm, start=1))
    q = random_construction_params(4, 6, seed=0)
    assert sorted(q.sigma) == list(range(1, 7))


def test_family_size_lower_bound():
    assert family_size_lower_bound(3, 1) == math.factorial(12) // 4
    assert family_size_lower_bound(3, 2) == math.factorial(24)
    with pytest.raises(BadParams):
        family_size_lower_bound(2, 1)
