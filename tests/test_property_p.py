"""Property P's kappa identity against a per-component genus scan."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gemkit import (
    ColourfulGraph,
    Status,
    genus_of_residue,
    has_property_P,
    is_connected,
    is_manifold,
    is_sphere,
    residues,
)


@st.composite
def colourful_graphs(draw):
    """Random (d+1)-colourful graphs, d = 2..5, n <= 16, on the canonical white set."""
    d = draw(st.integers(2, 5))
    half = draw(st.integers(1, 8))
    blacks = range(half + 1, 2 * half + 1)
    return ColourfulGraph(d, [tuple(draw(st.permutations(blacks))) for _ in range(d + 1)])


def _genera(G):
    """(I, min vertex, genus) for every 3-residue component, in scan order."""
    return [
        (I, comp[0], genus_of_residue(G, I, comp).genus)
        for I in itertools.combinations(range(1, G.d + 2), 3)
        for comp in residues(G, I).components
    ]


@settings(max_examples=150, deadline=None, database=None)
@given(colourful_graphs())
def test_identity_decides_genus_0_and_verdicts_name_the_first_witness(G):
    genera = _genera(G)
    planar = all(g == 0 for _, _, g in genera)
    assert has_property_P(G) == planar
    if planar or G.d < 3:
        return
    I, v, g = next(w for w in genera if w[2] > 0)
    certificate = f"genus witness ({I}, {v}, {g})"
    verdicts = [is_manifold(G)] + ([is_sphere(G)] if is_connected(G) else [])
    for verdict in verdicts:
        assert verdict.status is Status.NO
        assert verdict.certificate == certificate
