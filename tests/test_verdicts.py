"""Three-valued sphere and manifold verdicts with certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import manifold_oracle
from gemkit import (
    BudgetExceeded,
    ColourfulGraph,
    ColourSet,
    ConstructionParams,
    Disconnected,
    InvalidColourSet,
    InvariantViolated,
    NotAComponent,
    OddDimension,
    PreconditionFailed,
    Status,
    TopologyVerdict,
    build_manifold,
    build_planar_family,
    colour_deleted_components,
    euler_poincare_check,
    is_manifold,
    is_rational_homology_sphere,
    is_sphere,
    lemma1_witness,
    lemma2_witness,
    random_construction_params,
    random_graph,
)
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
    first_triple = {ColourSet(I).bits for I in [(1, 2, 3), (1, 2), (1, 3), (2, 3)]}
    assert set(G._residues) <= first_triple
    assert all(bits.bit_count() != G.d for bits in G._residues)


def _torus_on_colours_3_4_5():
    """d = 4: colours 1..3 are one matching, 3..5 the torus's matchings."""
    ident, cyc, cyc2 = (4, 5, 6), (5, 6, 4), (6, 4, 5)
    return ColourfulGraph(4, (ident, ident, ident, cyc, cyc2))


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
    ],
    ids=[
        "yes",
        "no-on-first-triple",
        "stuck-then-property-P",
        "identity",
        "unknown",
        "unknown-names-the-first-stuck-component",
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
    with pytest.raises(PreconditionFailed):
        lemma1_witness(torus_graph(), (1, 2, 3), strict=True)


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
