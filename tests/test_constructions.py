"""The glued double-path family and its planar extension."""

import itertools
import math
import random
import re
import time

import pytest

from gemkit import (
    BadParams,
    BudgetExceeded,
    ColourfulGraph,
    ConstructionParams,
    InvariantViolated,
    NotAConstructionGraph,
    RangeError,
    Status,
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
from gemkit import constructions
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


@pytest.mark.parametrize(
    "corrupt, message",
    [(lambda edges: edges[1:], "a colour slot of the glued graph is empty"),
     (lambda edges: edges + edges[:1], "vertex 3 has two edges of colour 2"),
     (lambda edges: [(1, 2, edges[0][2])] + edges[1:],
      "edge 1-2 does not straddle the bipartition")],
)
def test_build_checks_every_slot_of_the_base_gadget(monkeypatch, corrupt, message):
    # build_manifold's own checks stand for the base gadget's degree pattern:
    # a missing, doubled or same-side edge in its first stage is refused
    base_edges = constructions._base_edges
    monkeypatch.setattr(constructions, "_base_edges",
                        lambda d, ids: corrupt(base_edges(d, ids)))
    with pytest.raises(InvariantViolated, match=f"^{re.escape(message)}$"):
        build_manifold(ConstructionParams(3, 1, (1,), (1,)))


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
    with pytest.raises(RangeError, match=r"^dimension d must be >= 1, got 0$"):
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


@pytest.mark.parametrize("d, k, seed, sigma, tau", [
    (3, 5, 0, (1, 4, 5, 2, 3), (1, 2, 5, 4, 3)),
    (3, 6, 1, (3, 6, 5, 2, 1, 4), (1, 2, 5, 6, 3, 4)),
    (3, 7, 11, (1, 6, 3, 2, 5, 4, 7), (1, 4, 7, 2, 5, 6, 3)),
    (5, 4, 2, (3, 4, 1, 2), (3, 2, 1, 4)),
    (4, 5, 0, (3, 2, 1, 5, 4), (1, 3, 2, 4, 5)),
    (6, 4, 3, (4, 1, 3, 2), (1, 2, 4, 3)),
    (4, 1, 0, (1,), (1,)),
])
def test_random_params_draws_are_pinned(d, k, seed, sigma, tau):
    # seeded draws are part of the output (gen --random-perms prints them)
    p = random_construction_params(d, k, seed)
    assert (p.sigma, p.tau) == (sigma, tau)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_family_size_counts_the_sigmas_the_family_accepts(d):
    for k in range(1, 7):
        accepted = 0
        for sigma in itertools.permutations(range(1, k + 1)):
            try:
                ConstructionParams(d, k, sigma, tuple(range(1, k + 1)))
            except BadParams:
                continue
            accepted += 1
        n = 4 * d * k
        assert family_size_lower_bound(d, k) * 4 == accepted**2 * math.factorial(n), (d, k)


def test_family_size_lower_bound():
    assert family_size_lower_bound(3, 1) == math.factorial(12) // 4
    # odd d admits only parity-preserving sigma: one at k = 2, not 2!
    assert family_size_lower_bound(3, 2) == math.factorial(24) // 4
    with pytest.raises(BadParams):
        family_size_lower_bound(2, 1)
    # n = 4kd is held to FAMILY_SIZE_MAX_N before n! is built; the entry
    # cap alone would let this shape build 1572864!
    assert family_size_lower_bound(3, 2730) % math.factorial(32760) == 0
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        family_size_lower_bound(3, 2**17)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == "n = 4kd = 1572864 above the limit 32768 for building n!"
