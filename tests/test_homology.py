"""Coloured Δ-complexes and exact Betti numbers."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import (
    BettiVector,
    ColourfulGraph,
    InvalidColourSet,
    InvariantViolated,
    OrderComplex,
    RangeError,
    Status,
    betti_numbers,
    classify,
    enumerate_census,
    f_vector,
    is_manifold,
    is_sphere,
    order_complex,
    random_graph,
    residues,
    sphere_vector,
)
import gemkit.graph as graph_mod
import gemkit.homology as homology_mod
from gemkit.homology import _betti, _gf2_rank, _sparse_rank
from barycentric import barycentric_complex
from conftest import (
    circle_graph,
    dipole_graph,
    double_dipole_graph,
    split_pair_graph,
    torus_graph,
    two_tetrahedra_graph,
)
from test_graph import colourful_graphs


def test_sphere_vector():
    assert sphere_vector(0) == (2,)
    assert sphere_vector(1) == (1, 1)
    assert sphere_vector(3) == (1, 0, 0, 1)
    for dim in (-1, -4):
        with pytest.raises(RangeError, match=rf"^sphere dimension must be >= 0, got {dim}$"):
            sphere_vector(dim)


def test_a_complex_with_no_cells_has_no_betti_numbers():
    assert betti_numbers(OrderComplex((), [])).betti == ()


def test_single_colour_complex_is_isolated_points():
    K = order_complex(dipole_graph(1), (1,))
    assert K.dim == 0
    assert K.f_counts() == (2,)
    b = betti_numbers(K)
    assert b[0] == 2
    assert b.betti == sphere_vector(0)


def test_circle_complex():
    # the 4-cycle itself; its barycentric subdivision is an octagon
    K = order_complex(circle_graph(), (1, 2))
    assert K.f_counts() == (4, 4)
    assert barycentric_complex(circle_graph(), (1, 2)).f_counts() == (8, 8)
    assert K.euler_characteristic() == 0
    assert betti_numbers(K).betti == (1, 1)


def test_torus_complex():
    K = order_complex(torus_graph(), (1, 2, 3))
    assert K.f_counts() == (3, 9, 6)
    # the barycentric subdivision has one simplex per flag of cells
    assert barycentric_complex(torus_graph(), (1, 2, 3)).f_counts() == (18, 54, 36)
    assert K.euler_characteristic() == 0
    assert betti_numbers(K).betti == (1, 2, 1)


def test_two_tetrahedra_complex_is_a_homology_sphere():
    G = two_tetrahedra_graph()
    K = order_complex(G, (1, 2, 3, 4))
    assert K.f_counts() == (5, 9, 8, 4)
    assert barycentric_complex(G, (1, 2, 3, 4)).f_counts()[0] == 26  # 5 + 9 + 8 + 4
    assert K.euler_characteristic() == 0
    assert betti_numbers(K).betti == (1, 0, 0, 1)


def test_split_pair_graph_is_a_rational_homology_sphere():
    G = split_pair_graph()
    K = order_complex(G, (1, 2, 3, 4))
    assert betti_numbers(K).betti == (1, 0, 0, 1)


def test_disjoint_union_doubles_betti():
    G = double_dipole_graph()
    K = order_complex(G, (1, 2, 3, 4))
    b = betti_numbers(K)
    assert b[0] == 2
    assert b.betti == (2, 0, 0, 2)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_terminal_dipole_is_a_sphere(d):
    K = order_complex(dipole_graph(d), range(1, d + 2))
    assert betti_numbers(K).betti == sphere_vector(d)


def test_boundary_range_errors():
    K = order_complex(torus_graph(), (1, 2, 3))
    assert K.dim == 2
    with pytest.raises(RangeError):
        K.boundary(0)
    with pytest.raises(RangeError):
        K.boundary(3)


def test_boundary_of_boundary_vanishes():
    K = order_complex(torus_graph(), (1, 2, 3))
    d1 = K.boundary(1)
    for col in K.boundary(2):
        acc = {}
        for face, sign in col:
            for face2, sign2 in d1[face]:
                acc[face2] = acc.get(face2, 0) + sign * sign2
        assert all(v == 0 for v in acc.values())


def test_empty_colour_set_rejected():
    with pytest.raises(InvalidColourSet):
        order_complex(torus_graph(), ())


def test_broken_boundary_is_rejected():
    K = order_complex(torus_graph(), (1, 2, 3))
    edges = [list(col) for col in K.boundary(1)]
    edges[0] = [(face, -sign) for face, sign in edges[0]]
    broken = OrderComplex(K.f_counts(), [edges, K.boundary(2)])
    with pytest.raises(InvariantViolated, match="boundary"):
        betti_numbers(broken)


# above boundary(1), one loop tests each row's range and then reads that
# row's column of the boundary below, which a row of -1 would read silently
# as the last column; a loop edge has boundary 0, so boundary^2 = 0 holds
_LOOP = [[(0, 1), (0, -1)]]
_EDGE = [[(0, -1), (1, 1)]]


@pytest.mark.parametrize(
    "f_counts, boundaries, message",
    [
        # a row index past the single vertex
        ((1, 2), [[[(0, 1)], [(1, 1)]]], r"boundary\(1\)"),
        # two edges but one boundary column
        ((2, 2), [[[(0, -1), (1, 1)]]], r"boundary\(1\)"),
        # a negative row index
        ((2, 1), [[[(-1, 1)]]], r"boundary\(1\)"),
        # a negative row index, then a row index past the single edge
        ((1, 1, 2), [_LOOP, [[(0, 1)], [(-1, 1)]]], r"^row out of range in boundary\(2\) column 1$"),
        ((1, 1, 2), [_LOOP, [[(0, 1)], [(1, 1)]]], r"^row out of range in boundary\(2\) column 1$"),
        # the first failing column decides the message
        ((2, 1, 2), [_EDGE, [[(0, 1)], [(1, 1)]]], r"^boundary\^2 != 0 on 2-cell 0$"),
    ],
)
def test_malformed_boundary_is_rejected(f_counts, boundaries, message):
    with pytest.raises(InvariantViolated, match=message):
        betti_numbers(OrderComplex(f_counts, boundaries))


def test_order_complex_checks_its_colours_once(monkeypatch):
    # the colour subsets are then walked as bitmasks, with no colour list
    # rebuilt and checked again per subset
    G = two_tetrahedra_graph()
    calls = []
    colour_bits = graph_mod._colour_bits

    def counted(H, I):
        calls.append(I)
        return colour_bits(H, I)

    for module in (graph_mod, homology_mod):
        if getattr(module, "_colour_bits", None) is colour_bits:
            monkeypatch.setattr(module, "_colour_bits", counted)
    K = order_complex(G, G.colours)
    monkeypatch.undo()
    assert calls == [G.colours]
    assert betti_numbers(K).betti == sphere_vector(3)


def test_a_census_graph_that_reaches_the_betti_vector_holds_one_partition_per_subset():
    # classify reads property P's pairs and triples, connectivity and then
    # the complement of every nonempty subset: 2^(d+1) partitions in all
    G = ColourfulGraph(3, [(4, 5, 6), (4, 5, 6), (4, 6, 5), (5, 6, 4)])
    assert "sphere_unknown" in classify(G)
    assert sorted(G._residues) == list(range(1 << (G.d + 1)))


@pytest.mark.parametrize(
    "build",
    [circle_graph, torus_graph, two_tetrahedra_graph, split_pair_graph],
)
def test_methods_agree(build):
    """The Δ-complex and the barycentric oracle give the same homology."""
    G = build()
    delta = betti_numbers(order_complex(G, G.colours))
    oracle = betti_numbers(barycentric_complex(G, G.colours))
    assert delta.betti == oracle.betti


def test_betti_vector_container_protocol():
    b = BettiVector((1, 2, 1))
    assert list(b) == [1, 2, 1]
    assert b[1] == 2
    assert len(b) == 3


@settings(max_examples=25, deadline=None)
@given(colourful_graphs(max_d=2, max_half=3))
def test_betti_invariants_on_random_graphs(G):
    K = order_complex(G, G.colours)
    b = betti_numbers(K)
    chi = K.euler_characteristic()
    assert sum((-1) ** k * bk for k, bk in enumerate(b)) == chi
    assert b[0] == len(residues(G, G.colours).components)
    assert all(bk >= 0 for bk in b)


@settings(max_examples=40, deadline=None)
@given(colourful_graphs(max_d=4, max_half=5))
def test_delta_complex_matches_barycentric_oracle(G):
    for r in range(1, G.d + 2):
        for I in itertools.combinations(G.colours, r):
            K = order_complex(G, I)
            assert K.f_counts() == f_vector(G, I)
            oracle = barycentric_complex(G, I)
            assert betti_numbers(K).betti == betti_numbers(oracle).betti


def _dense_rank(columns, n_rows):
    """Rank by Gaussian elimination on a dense Fraction matrix."""
    rows = [[Fraction(0)] * len(columns) for _ in range(n_rows)]
    for c, col in enumerate(columns):
        for r, x in col:
            rows[r][c] += x
    rank = 0
    for c in range(len(columns)):
        pivot = next((r for r in range(rank, n_rows) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n_rows):
            factor = rows[r][c] / rows[rank][c]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=40, deadline=None)
@given(colourful_graphs(max_d=5, max_half=6))
def test_rank_matches_dense_elimination_on_boundaries(G):
    for r in range(1, G.d + 2):
        for I in itertools.combinations(G.colours, r):
            K = order_complex(G, I)
            f = K.f_counts()
            for k in range(1, K.dim + 1):
                assert _sparse_rank(K.boundary(k)) == _dense_rank(K.boundary(k), f[k - 1])


@st.composite
def integer_matrices(draw):
    """Columns of a small matrix with entries in 0, +-1, +-2, +-3."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 1, -1, 2, -2, 3, -3))
    columns = []
    for _ in range(n_cols):
        entries = [draw(entry) for _ in range(n_rows)]
        columns.append([(r, x) for r, x in enumerate(entries) if x])
    return columns, n_rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_rank_matches_dense_elimination_off_unit_pivots(matrix):
    columns, n_rows = matrix
    assert _sparse_rank(columns) == _dense_rank(columns, n_rows)


def _dense_rank_mod2(columns, n_rows):
    """Rank over GF(2) by Gaussian elimination on a dense 0/1 matrix; entries in one row add."""
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for c, col in enumerate(columns):
        for r, x in col:
            rows[r][c] = (rows[r][c] + x) % 2
    rank = 0
    for c in range(len(columns)):
        pivot = next((r for r in range(rank, n_rows) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n_rows):
            if rows[r][c]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("seed", range(4))
def test_gf2_rank_matches_dense_elimination_mod_2(seed):
    # sparse integer columns: even coefficients (+-2, +-4) must vanish, a row
    # may repeat within a column (its entries add, so 1 and -1 cancel) and
    # a column may be empty; the rational rank adds repeated rows too
    rng = random.Random(seed)
    for _ in range(300):
        n_rows = rng.randint(1, 12)
        columns = [
            [(rng.randrange(n_rows), rng.choice((1, -1, 2, -2, 3, -3, 4, -4, 5)))
             for _ in range(rng.randint(0, 5))]
            for _ in range(rng.randint(0, 12))
        ]
        assert _gf2_rank(columns) == _dense_rank_mod2(columns, n_rows), columns
        assert _sparse_rank(columns) == _dense_rank(columns, n_rows), columns


def test_gf2_rank_edge_cases():
    assert _gf2_rank([]) == 0
    assert _gf2_rank([[], [(0, 2)], [(1, -4)]]) == 0
    assert _gf2_rank([[(0, 1), (0, -1)], [(1, 1), (1, 1), (1, 1)]]) == 1
    # over the rationals these columns are independent, mod 2 they agree
    assert _gf2_rank([[(0, 1), (1, 1)], [(0, 1), (1, 3)]]) == 1
    assert _sparse_rank([[(0, 1), (1, 1)], [(0, 1), (1, 3)]]) == 2


def _census_complexes():
    graphs = []

    def keep(G):
        graphs.append(G)
        return classify(G)

    enumerate_census(3, 6, classifier=keep)
    return [order_complex(G, G.colours) for G in graphs]


def _random_complexes():
    # seed 56 at (4, 8) has 2-torsion: mod 2 (1, 0, 1, 1, 1), rationally (1, 0, 0, 0, 1)
    shapes = [(3, 8), (3, 10), (3, 12), (4, 6), (4, 8), (4, 10), (5, 6), (5, 8)]
    graphs = [random_graph(d, n, seed=seed) for d, n in shapes for seed in range(8)]
    graphs.append(random_graph(4, 8, seed=56))
    return [order_complex(G, G.colours) for G in graphs]


@pytest.mark.parametrize("complexes", [_census_complexes, _random_complexes])
def test_universal_coefficients_bound_the_mod_2_betti_numbers(complexes):
    # b_k(GF(2)) = b_k(Q) + t_k + t_(k-1) (Hatcher §3.A): never below the
    # rational number, equal in degree 0 and with the same Euler
    # characteristic; betti_numbers returns the rational vector exactly
    Ks = complexes()
    assert len(Ks) >= 64
    for K in Ks:
        mod2, rational = _betti(K, _gf2_rank), _betti(K, _sparse_rank)
        assert all(m >= q for m, q in zip(mod2, rational))
        assert mod2[0] == rational[0]
        chi = K.euler_characteristic()
        assert sum((-1) ** k * b for k, b in enumerate(mod2)) == chi
        assert sum((-1) ** k * b for k, b in enumerate(rational)) == chi
        assert betti_numbers(K).betti == rational


def test_sparse_rank_adds_the_entries_of_a_row():
    # a column with row 0 twice, +1 and -1, is the zero column
    assert _sparse_rank([[(0, 1), (0, -1)]]) == 0
    assert _sparse_rank([[(0, 1), (0, 1)]]) == 1
    # a wedge of two circles, each a loop at the one vertex; mod 2 it is
    # no 1-sphere, so the rational ranks decide
    wedge = OrderComplex((1, 2), [[[(0, 1), (0, -1)], [(0, 1), (0, -1)]]])
    assert betti_numbers(wedge).betti == (1, 2)


def test_two_torsion_falls_back_to_the_rational_betti_vector():
    # one of the n = 8 graphs whose H_1 has a Z/2 summand: mod 2 it looks
    # like (1, 1, 1, 1), over the rationals like a 3-sphere
    G = ColourfulGraph(3, [(5, 6, 7, 8), (6, 5, 8, 7), (7, 8, 5, 6), (8, 7, 6, 5)])
    K = order_complex(G, G.colours)
    assert _betti(K, _gf2_rank) == (1, 1, 1, 1)
    assert betti_numbers(K).betti == (1, 0, 0, 1)
    v = is_sphere(G)
    assert v.status is Status.UNKNOWN
    assert v.certificate == (
        "greedy reduction stuck at n=8; homology matches a sphere (betti (1, 0, 0, 1))"
    )
    assert is_manifold(G).status is Status.YES


def test_betti_numbers_of_non_integer_entries_are_rational():
    # an entry without parity skips the mod-2 pass instead of raising
    K = OrderComplex((2, 1), [[[(0, Fraction(1, 2)), (1, Fraction(-1, 2))]]])
    assert betti_numbers(K).betti == (1, 0)
