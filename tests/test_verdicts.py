"""Three-valued sphere and manifold verdicts with certificates."""

import copy
import gc
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gemkit.graph as graph_mod
import gemkit.homology as homology_mod
import gemkit.verdicts as verdicts_mod
import manifold_oracle
from gemkit import (
    BudgetExceeded,
    ColourfulGraph,
    ConstructionParams,
    Disconnected,
    InvalidColourSet,
    InvariantViolated,
    NotAComponent,
    OddDimension,
    Status,
    TopologyVerdict,
    build_manifold,
    build_planar_family,
    classify,
    colour_deleted_components,
    enumerate_census,
    euler_poincare_check,
    genus_of_residue,
    is_connected,
    is_manifold,
    is_rational_homology_sphere,
    is_sphere,
    lemma1_witness,
    lemma2_witness,
    melonic_reduce,
    random_construction_params,
    random_graph,
    residues,
)
from gemkit.census import _orbit_walk
from gemkit.dipoles import _Cancellation
from gemkit.verdicts import _positive_genus_witness
from conftest import (
    circle_graph,
    dipole_graph,
    double_dipole_graph,
    split_pair_graph,
    torus_graph,
    torus_in_d3,
    two_tetrahedra_graph,
)


def test_verdict_exit_codes_and_truthiness():
    yes = TopologyVerdict(Status.YES, "")
    no = TopologyVerdict(Status.NO, "")
    unknown = TopologyVerdict(Status.UNKNOWN, "")
    assert (yes.exit_code, no.exit_code, unknown.exit_code) == (0, 1, 2)
    assert bool(yes) and not bool(no) and not bool(unknown)


# ---------------------------------------------------------------- is_sphere


def test_connected_two_colour_graph_is_a_circle():
    v = is_sphere(circle_graph())
    assert v.status is Status.YES


def test_surface_verdict_is_exact():
    assert is_sphere(dipole_graph(2)).status is Status.YES
    v = is_sphere(torus_graph())
    assert v.status is Status.NO
    assert "genus witness" in v.certificate


def test_melonic_yes_with_trace():
    v = is_sphere(two_tetrahedra_graph())
    assert v.status is Status.YES
    assert v.certificate == "melonic trace (1,3,4)"


def test_terminal_dipole_yes():
    v = is_sphere(dipole_graph(3))
    assert v.status is Status.YES
    assert "(already terminal)" in v.certificate


def test_no_by_genus_witness():
    v = is_sphere(torus_in_d3())
    assert v.status is Status.NO
    assert v.certificate == "genus witness ((1, 2, 3), 1, 1)"


def test_genus_witness_scan_checks_property_P():
    # the scan runs only after property P's identity failed; a planar
    # graph reaching it is a library bug, not a No
    with pytest.raises(InvariantViolated):
        _positive_genus_witness(two_tetrahedra_graph())


def test_no_by_betti_vector():
    # every 3-residue is planar but the homology is not a sphere's
    G = build_manifold(ConstructionParams(3, 1, (1,), (1,)))
    v = is_sphere(G)
    assert v.status is Status.NO
    assert v.certificate == "betti (1, 1, 1, 1)"


def test_unknown_when_stuck_with_sphere_homology():
    v = is_sphere(split_pair_graph())
    assert v.status is Status.UNKNOWN
    assert "betti (1, 0, 0, 1)" in v.certificate


def test_sphere_requires_connected_graph():
    with pytest.raises(Disconnected):
        is_sphere(double_dipole_graph())


# -------------------------------------------------------------- is_manifold


def test_low_dimensions_are_always_manifolds():
    assert is_manifold(circle_graph()).status is Status.YES
    # the torus is not a sphere but certainly a closed surface
    assert is_manifold(torus_graph()).status is Status.YES


def test_dimension_three_is_exact():
    assert is_manifold(two_tetrahedra_graph()).status is Status.YES
    assert is_manifold(split_pair_graph()).status is Status.YES
    v = is_manifold(torus_in_d3())
    assert v.status is Status.NO
    assert "genus witness" in v.certificate


def test_manifold_verdict_covers_disconnected_graphs():
    assert is_manifold(double_dipole_graph()).status is Status.YES


def test_dimension_four_construction_is_certified():
    G = build_manifold(ConstructionParams(4, 1, (1,), (1,)))
    v = is_manifold(G)
    assert v.status is Status.YES
    assert v.certificate == "every 4-residue component reduces to the dipole (PL 3-spheres)"


def test_planar_family_is_not_manifold_in_high_dimension():
    G3 = build_manifold(ConstructionParams(3, 1, (1,), (1,)))
    v5 = is_manifold(build_planar_family(G3, 5))
    assert v5.status is Status.NO
    assert "component-count identity fails" in v5.certificate
    # d=4 has no odd 5-set to refute with, so the verdict stays honest
    v4 = is_manifold(build_planar_family(G3, 4))
    assert v4.status is Status.UNKNOWN
    assert "reduction stuck" in v4.certificate


@st.composite
def manifold_candidates(draw):
    """Random d = 4..6 graphs, glued manifolds, planar families and their
    colour-deleted components."""
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["random", "manifold", "planar", "deleted"]))
    if kind == "random":
        return random_graph(draw(st.integers(4, 6)), 2 * draw(st.integers(1, 5)), seed)
    if kind == "planar":
        G3 = build_manifold(random_construction_params(3, draw(st.integers(1, 2)), seed))
        return build_planar_family(G3, draw(st.integers(5, 6)))
    d = draw(st.integers(4, 6)) + (kind == "deleted")
    k = 1 if d > 5 else draw(st.integers(1, 2))
    G = build_manifold(random_construction_params(d, k, seed))
    if kind == "manifold":
        return G
    return draw(st.sampled_from(colour_deleted_components(G, draw(st.integers(1, d + 1)))))


@settings(max_examples=150, deadline=None, database=None)
@given(manifold_candidates())
def test_manifold_verdict_agrees_with_the_full_residue_ladder(G):
    new, old = is_manifold(G), manifold_oracle.is_manifold(G)
    # only the sufficient check changed: a stuck smaller residue no longer
    # hides a Yes, and every No is found by the same check as before
    assert new.status is old.status or (old.status, new.status) == (
        Status.UNKNOWN,
        Status.YES,
    )
    if old.status is Status.NO:
        assert new.certificate == old.certificate


@pytest.mark.parametrize(
    "build",
    [
        lambda: dipole_graph(12),
        lambda: build_manifold(ConstructionParams(5, 3, (3, 2, 1), (1, 2, 3))),
    ],
    ids=["dipole-d12", "construction-d5"],
)
def test_a_manifold_yes_reads_only_pairs_triples_and_d_residues(build):
    G = build()
    assert is_manifold(G).status is Status.YES
    # a Yes implies property P, so only triple (1, 2, 3) is read up front;
    # the d-residues are reduced without reading their partitions
    first_triple = build()
    for I in [(1, 2, 3), (1, 2), (1, 3), (2, 3)]:
        residues(first_triple, I)
    assert set(G._residues) <= set(first_triple._residues)


def _torus_on_colours_3_4_5():
    """d = 4: colours 1..3 are one matching, 3..5 the torus's matchings."""
    ident, cyc, cyc2 = (4, 5, 6), (5, 6, 4), (6, 4, 5)
    return ColourfulGraph(4, (ident, ident, ident, cyc, cyc2))


def _suspension(G):
    """D(G): two copies of G and a new colour joining each vertex to its
    twin.  D's whites are copy 0's whites, then copy 1's blacks, and its
    blacks copy 0's blacks, then copy 1's whites."""
    h, n = G.half, G.n
    twin = tuple(n + h + w for w in range(1, h + 1)) + tuple(n + b - h for b in range(h + 1, n + 1))
    matchings = []
    for m in G.matchings:
        white_of = {b: w for w, b in enumerate(m, start=1)}
        matchings.append(
            tuple(n + b - h for b in m) + tuple(n + h + white_of[b] for b in range(h + 1, n + 1))
        )
    return ColourfulGraph(G.d + 1, matchings + [twin])


# a copy of S^1 x S^2: is_sphere answers No with betti (1, 1, 1, 1)
_S1_X_S2 = ColourfulGraph(3, ((5, 6, 7, 8), (5, 7, 8, 6), (6, 5, 8, 7), (8, 6, 5, 7)))

_PLANAR_BASE = ConstructionParams(3, 1, (1,), (1,))


@pytest.mark.parametrize(
    "build,status,certificate",
    [
        (
            lambda: build_manifold(ConstructionParams(5, 3, (3, 2, 1), (1, 2, 3))),
            Status.YES,
            "every 5-residue component reduces to the dipole (PL 4-spheres)",
        ),
        (
            lambda: random_graph(4, 40, 5),
            Status.NO,
            "genus witness ((1, 2, 3), 1, 5)",
        ),
        (
            # (1, 2, 3) is planar, so a d-residue gets stuck before property P
            _torus_on_colours_3_4_5,
            Status.NO,
            "genus witness ((1, 4, 5), 1, 1)",
        ),
        (
            lambda: build_planar_family(build_manifold(_PLANAR_BASE), 5),
            Status.NO,
            "component-count identity fails on I=(1, 2, 3, 4, 5): alternating sum 1 != 2",
        ),
        (
            lambda: build_planar_family(build_manifold(_PLANAR_BASE), 4),
            Status.UNKNOWN,
            "residue I=(1, 2, 3, 4), component of vertex 1: reduction stuck "
            "and no homology obstruction found",
        ),
        (
            # both (1, 2, 4, 5)-components are stuck; the one of vertex 1
            # keeps whites 3 and 4, the other keeps white 2
            lambda: ColourfulGraph(
                4, ((10, 9, 8, 6, 7),) * 3 + ((8, 7, 6, 10, 9), (10, 7, 6, 8, 9))
            ),
            Status.UNKNOWN,
            "residue I=(1, 2, 4, 5), component of vertex 1: reduction stuck "
            "and no homology obstruction found",
        ),
        (
            # Sigma(S^1 x S^2) is no 4-manifold, but d = 4 has no test
            # that shows it
            lambda: _suspension(_S1_X_S2),
            Status.UNKNOWN,
            "residue I=(1, 2, 3, 4), component of vertex 1: reduction stuck "
            "and no homology obstruction found",
        ),
        (
            # the residue on colours 1..5 is Sigma(S^1 x S^2), not a 4-sphere
            lambda: _suspension(_suspension(_S1_X_S2)),
            Status.NO,
            "residue I=(1, 2, 3, 4, 5), component of vertex 1: betti (1, 0, 1, 1, 1)",
        ),
    ],
    ids=[
        "yes",
        "no-on-first-triple",
        "stuck-then-property-P",
        "identity",
        "unknown",
        "unknown-names-the-first-stuck-component",
        "unknown-suspension",
        "five-residue",
    ],
)
def test_each_exit_of_the_manifold_verdict(build, status, certificate):
    G = build()
    v = is_manifold(G)
    assert (v.status, v.certificate) == (status, certificate)
    old = manifold_oracle.is_manifold(G)
    assert old.status is status
    if status is Status.NO:
        assert old.certificate == certificate


def test_the_suspended_graph_is_a_closed_3_manifold_but_no_sphere():
    v = is_sphere(_S1_X_S2)
    assert (v.status, v.certificate) == (Status.NO, "betti (1, 1, 1, 1)")
    assert is_manifold(_S1_X_S2).status is Status.YES


def test_a_refutation_on_the_first_triple_cancels_nothing(monkeypatch):
    G = random_graph(5, 40, 3)
    expected = manifold_oracle.is_manifold(random_graph(5, 40, 3))
    cancelled = []
    monkeypatch.setattr(_Cancellation, "cancel", lambda *move: cancelled.append(move))
    v = is_manifold(G)
    assert v == expected
    assert v.certificate == "genus witness ((1, 2, 3), 1, 6)"
    assert cancelled == []
    assert len(G._residues) == 4


def test_the_identity_loop_has_a_colour_budget():
    # colours 1..7 share one matching and 8..14 another: every triple is
    # planar and no 13-residue has a dipole, so the identities would read
    # 2^14 partitions
    ident, swap = (3, 4), (4, 3)
    G = ColourfulGraph(13, (ident,) * 7 + (swap,) * 7)
    with pytest.raises(BudgetExceeded, match="14 colours have 2\\^14 subsets"):
        is_manifold(G)


def test_the_identity_loop_reads_each_colour_subset_once(monkeypatch):
    # as above at d = 10: the odd-size identities sum about 3^11 / 2 subset
    # counts, which one kappa table serves with 2^11 partitions
    d = 10
    G = ColourfulGraph(d, [(3, 4)] * ((d + 1) // 2) + [(4, 3)] * ((d + 2) // 2))
    calls = []
    reads = {name: getattr(graph_mod, name) for name in ("residues", "_partition")}

    def counting(read):
        def counted(H, colours):
            if H is G:
                calls.append(colours)
            return read(H, colours)
        return counted

    # every partition read, memo hits included: library code reads through
    # residues, and order_complex by mask through _partition
    for module, name in [(graph_mod, "residues"), (verdicts_mod, "residues"),
                         (homology_mod, "_partition")]:
        monkeypatch.setattr(module, name, counting(reads[name]))
    v = is_manifold(G)
    monkeypatch.undo()
    assert len(calls) < 1 << (d + 2)
    assert v.status is manifold_oracle.is_manifold(G).status is Status.UNKNOWN


# ------------------------------------------------ the per-graph record


@pytest.mark.parametrize("d, n", [(3, 4), (4, 4)])
def test_the_verdict_record_gives_the_same_answers_in_any_call_order(d, n):
    # the verdicts share one record per graph object: one copy answers
    # is_sphere first and another is_manifold first, and each answer must
    # be the one a fresh copy gives on its own
    graphs = []
    enumerate_census(d, n, emit=lambda G, names: graphs.append(G))
    assert len(graphs) == math.factorial(n // 2) ** (d + 1)
    for G in graphs:

        def fresh():
            return ColourfulGraph(G.d, G.matchings)

        connected = is_connected(G)
        manifold = is_manifold(fresh())
        sphere = is_sphere(fresh()) if connected else None
        # references that keep no record: the residue-ladder oracle and a
        # direct reduction
        oracle = manifold_oracle.is_manifold(fresh())
        assert manifold.status is oracle.status or (oracle.status, manifold.status) == (
            Status.UNKNOWN,
            Status.YES,
        )
        if oracle.status is Status.NO:
            assert manifold.certificate == oracle.certificate
        if connected:
            assert (sphere.status is Status.YES) == melonic_reduce(fresh()).reached_dipole
        sphere_first, manifold_first = fresh(), fresh()
        if connected:
            assert is_sphere(sphere_first) == sphere
        assert is_manifold(sphere_first) == manifold
        assert is_manifold(manifold_first) == manifold
        if connected:
            assert is_sphere(manifold_first) == sphere
        assert classify(sphere_first) == classify(manifold_first) == classify(fresh())
        # the record is not state: equality, hashing, pickling and copying
        # see only the matchings, and a copy starts without a record
        for used in (sphere_first, manifold_first):
            assert hasattr(used, "_verdicts")
            assert used == fresh() and hash(used) == hash(fresh())
            assert pickle.dumps(used) == pickle.dumps(fresh())
            for clone in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
                assert clone == used and hash(clone) == hash(used)
                assert not hasattr(clone, "_verdicts")


def test_the_verdict_record_leaves_no_cyclic_garbage():
    # the record lives on its graph, so nothing in it may point back at the
    # graph (a reduction trace's terminal among them): every census graph
    # must be freed by reference counting, not left to the cycle collector
    gc.collect()
    gc.disable()
    try:
        enumerate_census(3, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -------------------------------------------- rational homology spheres


def test_small_residues_are_structural():
    G = two_tetrahedra_graph()
    assert is_rational_homology_sphere(G, (2,), (1, 3)).status is Status.YES
    assert is_rational_homology_sphere(G, (1, 4), range(1, 5)).status is Status.YES


def test_three_colour_residue_uses_genus():
    G = torus_graph()
    v = is_rational_homology_sphere(G, (1, 2, 3), range(1, 7))
    assert v.status is Status.NO
    assert "genus witness" in v.certificate
    G2 = two_tetrahedra_graph()
    comp = (1, 3)  # one of the two (1,2,3)-residue components
    assert is_rational_homology_sphere(G2, (1, 2, 3), comp).status is Status.YES


def test_four_colour_residue_uses_betti():
    yes = is_rational_homology_sphere(
        two_tetrahedra_graph(), (1, 2, 3, 4), range(1, 5)
    )
    assert yes.status is Status.YES and yes.certificate == "betti (1, 0, 0, 1)"
    no = is_rational_homology_sphere(torus_in_d3(), (1, 2, 3, 4), range(1, 7))
    assert no.status is Status.NO and no.certificate == "betti (1, 0, 2, 1)"


def test_rational_homology_sphere_input_checks():
    G = two_tetrahedra_graph()
    with pytest.raises(InvalidColourSet):
        is_rational_homology_sphere(G, (), (1,))
    with pytest.raises(NotAComponent):
        is_rational_homology_sphere(G, (1, 2, 3), (1, 2))
    with pytest.raises(NotAComponent):
        # (1, 4) is not an edge of colour 2
        is_rational_homology_sphere(G, (2,), (1, 4))
    with pytest.raises(NotAComponent):
        # an entry equal to an integer is still no integer
        is_rational_homology_sphere(G, (1, 2), [1.0, 3])
    # any iterable of integers names a component, as for genus_of_residue
    verdict = is_rational_homology_sphere(G, (1, 2, 3), iter([3, 1]))
    assert verdict.certificate == "genus witness ((1, 2, 3), 1, 0)"


# ------------------------------------------------- counting identities


def test_euler_poincare_identity():
    assert euler_poincare_check(two_tetrahedra_graph(), (1, 2, 3))
    assert not euler_poincare_check(torus_graph(), (1, 2, 3))


def test_euler_poincare_rejects_even_sets():
    with pytest.raises(OddDimension):
        euler_poincare_check(two_tetrahedra_graph(), (1, 2))
    with pytest.raises(OddDimension):
        euler_poincare_check(two_tetrahedra_graph(), (1, 2, 3, 4))


def test_lemma1_witness_on_a_sphere():
    w = lemma1_witness(two_tetrahedra_graph(), (1, 2, 3))
    assert w.hypothesis_met
    assert w.value == 0
    assert w.bound == Fraction(4, 6)
    assert w.slack == w.bound
    assert len(w.indices) == 2


def test_lemma1_witness_flags_failed_hypothesis():
    w = lemma1_witness(torus_graph(), (1, 2, 3))
    assert not w.hypothesis_met


def test_lemma1_requires_three_colours():
    with pytest.raises(InvalidColourSet):
        lemma1_witness(two_tetrahedra_graph(), (1, 2))


def test_lemma2_witness_on_the_terminal_dipole():
    w = lemma2_witness(dipole_graph(4), (1, 2, 3, 4, 5))
    assert w.hypothesis_met
    assert w.value == 0
    assert w.bound == Fraction(3 * 2, 20)
    assert len(w.indices) == 3


def test_lemma2_requires_five_colours():
    with pytest.raises(InvalidColourSet):
        lemma2_witness(dipole_graph(4), (1, 2, 3, 4))


# ------------------------------------------------ witnesses against the public path
# The census oracle calls the same witnesses as the sweep, so these tests
# pin them to counts read through residues, genus_of_residue and
# is_rational_homology_sphere instead.


def _orbit_graphs(d, n):
    return [G for _, G in _orbit_walk(d, n, 10**8)]


def _high_d_graphs():
    """Seeded random d = 4 and d = 5 graphs, d = 5 manifolds and their
    colour-deleted components, which are d = 4 spheres."""
    graphs = [random_graph(d, n, seed) for d in (4, 5) for n in (4, 8, 12) for seed in range(3)]
    for seed in range(2):
        M = build_manifold(random_construction_params(5, 1, seed))
        graphs.append(M)
        graphs.extend(colour_deleted_components(M, 1 + seed))
    return graphs


def _first_minimum(values):
    """The first key of least value, in the dict's order, with that value."""
    best = min(values, key=values.get)
    return best, values[best]


@pytest.mark.parametrize("graphs", [
    pytest.param(lambda: _orbit_graphs(3, 6), id="orbit-walk-3-6"),
    pytest.param(_high_d_graphs, id="random-d4-d5"),
])
def test_lemma1_witness_matches_residues_and_genus(graphs):
    met = set()
    for G in graphs():
        for I in itertools.combinations(G.colours, 3):
            w = lemma1_witness(G, I)
            k_full = len(residues(G, I))
            values = {pair: len(residues(G, pair)) - k_full
                      for pair in itertools.combinations(I, 2)}
            assert (w.indices, w.value) == _first_minimum(values)
            assert w.hypothesis_met == all(
                genus_of_residue(G, I, comp).genus == 0 for comp in residues(G, I).components)
            met.add(w.hypothesis_met)
    assert met == {True, False}


def test_lemma2_witness_matches_residues_and_homology():
    met = set()
    for G in _high_d_graphs():
        for I in itertools.combinations(G.colours, 5):
            w = lemma2_witness(G, I)
            values = {}
            for i, j in itertools.combinations(I, 2):
                k_pair = len(residues(G, (i, j)))
                for k in I:
                    if k not in (i, j):
                        values[(i, j, k)] = k_pair - len(residues(G, (i, j, k)))
            assert (w.indices, w.value) == _first_minimum(values)
            assert w.hypothesis_met == all(
                is_rational_homology_sphere(G, I, comp).status is Status.YES
                for comp in residues(G, I).components)
            met.add(w.hypothesis_met)
    assert met == {True, False}


@pytest.mark.parametrize("d, n", [(3, 6), (4, 6)])
def test_lemma1_slack_is_a_third_of_kappa_plus_the_spread(d, n):
    # on a planar G_I the three differences kappa(pair) - kappa(I) sum to
    # n/2 - kappa(I), so slack = n/6 - min = kappa(I)/3 + (mean - min)
    planar = 0
    for G in _orbit_graphs(d, n):
        for I in itertools.combinations(G.colours, 3):
            w = lemma1_witness(G, I)
            if not w.hypothesis_met:
                continue
            planar += 1
            k_full = len(residues(G, I))
            diffs = [len(residues(G, pair)) - k_full for pair in itertools.combinations(I, 2)]
            third = Fraction(k_full, 3)
            assert w.slack == third + (Fraction(sum(diffs), 3) - min(diffs))
            assert w.slack >= third > 0
    assert planar == {(3, 6): 816, (4, 6): 12240}[(d, n)]
