"""Rational Betti numbers of the coloured Δ-complex encoded by G_I.

The cells of the complex are the residues: a pair (S, C) of a nonempty
colour subset S of I and a component C of the subgraph keeping the
complementary colours I\\S is one cell of dimension |S| - 1.  With the
vertices of every cell ordered by colour, these cells form a Δ-complex:
the face of (S, C) that drops colour S[p] (S sorted ascending) is
(S\\{S[p]}, C'), where C' is the component of the residue on
I\\(S\\{S[p]}) that contains C, and its incidence sign is (-1)^p.  Its
simplicial homology equals that of the space encoded by G_I (Hatcher,
Algebraic Topology, §2.1), and it needs one cell per residue, where the
barycentric subdivision needs about n * |I|! top simplices.

Betti numbers come from boundary-matrix ranks, b_k = f_k - rank d_k -
rank d_(k+1), and the ranks are first taken over GF(2): each column is a
Python int with one bit per row whose entries have an odd sum, reduced by
XOR.  A mod-2 sphere vector is returned as it is, because it is then the
rational one too.  By universal coefficients (Hatcher, Algebraic
Topology, §3.A) b_k(GF(2)) = b_k(Q) + t_k + t_(k-1), where t_k counts the
cyclic summands of even order in H_k(K; Z).  So no b_k(Q) exceeds
b_k(GF(2)), while b_0 and the Euler characteristic agree over both
fields: a mod-2 sphere vector leaves b_k(Q) = 0 for 0 < k < dim, and the
Euler characteristic then fixes b_dim.  Any other mod-2 vector may hide
2-torsion, and a matrix with a non-integer entry has no mod-2 reduction;
then the ranks are recomputed by exact column reduction over the
rationals: each column is reduced against the earlier columns until no
earlier column owns its lowest row.  A +-1 pivot keeps the arithmetic
integral; reduced columns can grow larger entries, and such a pivot is
divided out with Fraction.  Every returned vector is therefore the
rational one, and no float is involved.  The shape of every boundary
matrix and boundary^2 = 0 are checked once per call, before either pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import InvalidColourSet, InvariantViolated, RangeError
from .graph import (
    GRAPH_ENTRIES_MAX,
    ColourfulGraph,
    _check_budget,
    _check_subset_budget,
    _colour_masks,
    _partition,
)

# A sparse column: list of (row index, +-1 incidence sign).
Column = List[Tuple[int, int]]


class OrderComplex:
    """Cell counts per dimension and boundary matrices of a chain complex."""

    def __init__(self, f_counts: Sequence[int], boundaries: Sequence[Sequence[Column]]):
        self._f_counts = tuple(f_counts)
        self._boundaries = [list(b) for b in boundaries]

    @property
    def dim(self) -> int:
        return len(self._f_counts) - 1

    def boundary(self, k: int) -> List[Column]:
        """Columns of the boundary map from k-chains to (k-1)-chains."""
        if not 1 <= k <= self.dim:
            raise RangeError(f"boundary index {k} outside [1..{self.dim}]")
        return self._boundaries[k - 1]

    def f_counts(self) -> Tuple[int, ...]:
        return self._f_counts

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * f for k, f in enumerate(self._f_counts))


def order_complex(G: ColourfulGraph, I: Iterable[int]) -> OrderComplex:
    """Coloured Δ-complex of the space encoded by G_I, one cell per residue.

    I is checked once.  The colour subsets S of I are then walked as
    bitmasks, by size and in lexicographic order of their colours within a
    size; the cells of S are the components of the partition on I \\ S,
    read by its mask, and each face of S is looked up by the mask of S
    without one colour.
    """
    masks = _colour_masks(G, I)
    if len(masks) < 1:
        raise InvalidColourSet("order complex needs at least one colour")
    _check_subset_budget(len(masks))
    full = sum(masks)
    # for each colour subset S, by mask: the index of its first cell among
    # the cells of dimension |S| - 1, and the component index of each vertex
    # in the residue on I \ S
    cells: Dict[int, Tuple[int, Mapping[int, int]]] = {}
    f_counts: List[int] = []
    boundaries: List[List[Column]] = []
    for r in range(1, len(masks) + 1):
        count = 0
        cols: List[Column] = []
        for sub in itertools.combinations(masks, r):
            S = sum(sub)
            part = _partition(G, full & ~S)
            cells[S] = (count, part.component_of)
            count += len(part)
            if r == 1:
                continue
            faces = [(*cells[S & ~bit], (-1) ** p) for p, bit in enumerate(sub)]
            for comp in part.components:
                cols.append([(off + index[comp[0]], sign) for off, index, sign in faces])
        f_counts.append(count)
        if r > 1:
            boundaries.append(cols)
    return OrderComplex(f_counts, boundaries)


@dataclass(frozen=True)
class BettiVector:
    """Ranks of rational homology, b_0 .. b_dim."""

    betti: Tuple[int, ...]

    def __iter__(self):
        return iter(self.betti)

    def __getitem__(self, k: int) -> int:
        return self.betti[k]

    def __len__(self) -> int:
        return len(self.betti)


def sphere_vector(dim: int) -> Tuple[int, ...]:
    """Betti numbers of a d-sphere: (2,) in dimension 0, else (1,0,...,0,1).

    A negative dimension raises RangeError, and one above GRAPH_ENTRIES_MAX
    (far above any complex the package builds) BudgetExceeded.
    """
    if dim < 0:
        raise RangeError(f"sphere dimension must be >= 0, got {dim}")
    _check_budget(dim, GRAPH_ENTRIES_MAX,
                  "sphere dimension {count} above the limit {limit} for its Betti vector")
    if dim == 0:
        return (2,)
    return (1,) + (0,) * (dim - 1) + (1,)


def betti_numbers(K: OrderComplex) -> BettiVector:
    """Rational Betti numbers of K: ranks mod 2 first, exact rational ranks
    unless those give the sphere vector (see the module docstring)."""
    _check_boundaries(K)
    if K.dim < 0:  # no cells
        return BettiVector(())
    try:
        b = _betti(K, _gf2_rank)
    except TypeError:  # a non-integer entry has no parity
        b = None
    if b != sphere_vector(K.dim):
        b = _betti(K, _sparse_rank)
    return BettiVector(b)


def _betti(K: OrderComplex, rank: Callable[[Sequence[Column]], int]) -> Tuple[int, ...]:
    """b_k = f_k - rank boundary(k) - rank boundary(k+1), each rank taken by rank()."""
    dims = K.f_counts()
    ranks = [0] + [rank(K.boundary(k)) for k in range(1, K.dim + 1)] + [0]
    return tuple(dims[k] - ranks[k] - ranks[k + 1] for k in range(K.dim + 1))


def _check_boundaries(K: OrderComplex) -> None:
    """boundary(k) has one column per k-cell, each with rows among the
    (k-1)-cells, and boundary-of-boundary vanishes identically.

    One pass per column: each row's range is tested just before that row's
    column of boundary(k-1) is added into the column's boundary^2, so no
    row outside the matrix is read; the first failing column raises.
    """
    f = K.f_counts()
    for k in range(1, K.dim + 1):
        cols = K.boundary(k)
        if len(cols) != f[k]:
            raise InvariantViolated(f"boundary({k}) has {len(cols)} columns, f_{k} = {f[k]}")
        rows = f[k - 1]
        lower = K.boundary(k - 1) if k > 1 else None
        for j, col in enumerate(cols):
            acc: Dict[int, int] = {}
            for face, sign in col:
                if not 0 <= face < rows:
                    raise InvariantViolated(f"row out of range in boundary({k}) column {j}")
                if lower is not None:
                    for face2, sign2 in lower[face]:
                        acc[face2] = acc.get(face2, 0) + sign * sign2
            if any(acc.values()):
                raise InvariantViolated(f"boundary^2 != 0 on {k}-cell {j}")


def _sparse_rank(columns: Sequence[Column]) -> int:
    """Exact rank of a sparse integer matrix given by columns, in which the
    entries of one row in a column add up, as in _gf2_rank.

    Column reduction: while an earlier reduced column owns the lowest
    (largest) row of the current column, subtract the multiple of it that
    clears that row.  A +-1 pivot keeps the arithmetic integral; any other
    pivot uses Fraction.  The rank is the number of rows owned at the end.
    """
    owner: Dict[int, Dict[int, object]] = {}
    for col in columns:
        v: Dict[int, object] = {}
        for r, x in col:
            v[r] = v.get(r, 0) + x
        v = {r: x for r, x in v.items() if x}
        while v:
            low = max(v)
            pivot = owner.get(low)
            if pivot is None:
                owner[low] = v
                break
            p = pivot[low]
            factor = v[low] * p if p in (1, -1) else Fraction(v[low]) / p
            for r, x in pivot.items():
                new = v.get(r, 0) - factor * x
                if new:
                    v[r] = new
                else:
                    del v[r]
    return len(owner)


def _gf2_rank(columns: Sequence[Column]) -> int:
    """Rank over GF(2) of a sparse integer matrix given by columns.

    Each column becomes a Python int with bit r set when the entries in row
    r have an odd sum; a column is reduced by XOR against the earlier
    column that owns its highest bit until it owns one itself or vanishes.
    """
    owner: Dict[int, int] = {}
    for col in columns:
        v = 0
        for r, x in col:
            if x & 1:
                v ^= 1 << r
        while v:
            top = v.bit_length()
            pivot = owner.get(top)
            if pivot is None:
                owner[top] = v
                break
            v ^= pivot
    return len(owner)
