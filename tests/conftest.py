"""Shared graph builders for the test suite."""

import pytest

from gemkit import ColourfulGraph


def dipole_graph(d):
    """The 2-vertex graph with all d+1 colours in parallel (encodes S^d)."""
    return ColourfulGraph(d, [(2,)] * (d + 1))


def two_tetrahedra_graph():
    """n=4, d=3: three identity matchings and one swap.

    Encodes the 3-sphere as two stacks of tetrahedra glued along their
    boundary; every 3-residue has genus 0 and the graph is melonic.
    """
    ident = (3, 4)
    swap = (4, 3)
    return ColourfulGraph(3, (ident, ident, ident, swap))


def torus_graph():
    """d=2, n=6: matchings id, cycle, cycle squared; the genus-1 surface."""
    return ColourfulGraph(2, ((4, 5, 6), (5, 6, 4), (6, 4, 5)))


def torus_in_d3():
    """The torus matchings plus one identity colour, lifted to d=3."""
    return ColourfulGraph(3, ((4, 5, 6), (5, 6, 4), (6, 4, 5), (4, 5, 6)))


def circle_graph():
    """d=1, n=4: two matchings whose union is a single 4-cycle."""
    return ColourfulGraph(1, ((3, 4), (4, 3)))


def double_dipole_graph():
    """d=3, n=4, all identity matchings: two disjoint dipoles."""
    ident = (3, 4)
    return ColourfulGraph(3, (ident, ident, ident, ident))


def split_pair_graph():
    """d=3, n=4: two colours pair one way, two the other.

    Connected, every 3-residue genus 0, but no dipole of any type exists;
    a rational homology sphere the sphere semi-decision cannot certify.
    """
    ident = (3, 4)
    swap = (4, 3)
    return ColourfulGraph(3, (ident, ident, swap, swap))


@pytest.fixture
def tetra():
    return two_tetrahedra_graph()


@pytest.fixture
def torus():
    return torus_graph()
