"""The manifold verdict by the residue sweep over every size: a reference for the tests.

The library tests property P on colour triple (1, 2, 3) only, sweeps
only the d-residues, and looks for a No only once one of them is stuck.
This ladder checks property P on every triple and the odd-size
component-count identities first, then reduces every residue of sizes
4..d, each component rebuilt as its own graph, and only then looks at
the 5-residue Betti vectors, so the tests can compare statuses and No
certificates of the two.
"""

import itertools

from gemkit import (
    Status,
    is_rational_homology_sphere,
    kappa_r,
    melonic_reduce,
    residue_subgraph,
    residues,
)
from gemkit.graph import has_property_P
from gemkit.verdicts import _no, _positive_genus_witness, _unknown, _yes


def residue_reaches_dipole(G, I, component):
    """Does the greedy reduction of one residue component reach the dipole?"""
    return melonic_reduce(residue_subgraph(G, I, component)).reached_dipole


def is_manifold(G):
    """Yes, No or Unknown as the library answered before the d-residue sweep."""
    if G.d <= 2:
        return _yes(f"every {G.d + 1}-colourful graph encodes a closed {G.d}-manifold")
    if not has_property_P(G):
        return _no(_positive_genus_witness(G))
    if G.d == 3:
        return _yes("every 3-residue component has genus 0")

    for m in range(5, G.d + 1, 2):
        for I in itertools.combinations(range(1, G.d + 2), m):
            lhs = sum((-1) ** r * kappa_r(G, I, r) for r in range(m))
            rhs = 2 * len(residues(G, I))
            if lhs != rhs:
                return _no(
                    f"component-count identity fails on I={I}: "
                    f"alternating sum {lhs} != {rhs}"
                )

    stuck = next(
        (
            (I, comp[0])
            for size in range(4, G.d + 1)
            for I in itertools.combinations(range(1, G.d + 2), size)
            for comp in residues(G, I).components
            if not residue_reaches_dipole(G, I, comp)
        ),
        None,
    )
    if stuck is None:
        return _yes(
            f"all residues of sizes 3..{G.d} certified spheres "
            "(genus 0 at size 3, dipole reduction above)"
        )

    if G.d >= 5:
        for I in itertools.combinations(range(1, G.d + 2), 5):
            for comp in residues(G, I).components:
                v = is_rational_homology_sphere(G, I, comp)
                if v.status is Status.NO:
                    return _no(
                        f"residue I={I}, component of vertex {comp[0]}: "
                        f"{v.certificate}"
                    )
    return _unknown(
        f"residue I={stuck[0]}, component of vertex {stuck[1]}: reduction "
        "stuck and no homology obstruction found"
    )
