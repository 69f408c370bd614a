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

Betti numbers are computed from boundary-matrix ranks by exact column
reduction over the rationals: each column is reduced against the earlier
columns until no earlier column owns its lowest row.  A +-1 pivot keeps
the arithmetic integral; reduced columns can grow larger entries, and
such a pivot is divided out with Fraction.  No float or modular
arithmetic is involved.  The shape of every boundary matrix and
boundary^2 = 0 are checked on every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import InvalidColourSet, InvariantViolated, RangeError
from .graph import (
    ColourfulGraph,
    ColourSet,
    ColourSetLike,
    _check_colours,
    _check_subset_budget,
    residues,
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


def order_complex(G: ColourfulGraph, I: ColourSetLike) -> OrderComplex:
    """Coloured Δ-complex of the space encoded by G_I, one cell per residue."""
    cs = _check_colours(G, I)
    if len(cs) < 1:
        raise InvalidColourSet("order complex needs at least one colour")
    _check_subset_budget(len(cs))
    colours = tuple(cs)
    # index of the first cell of each colour subset S among the cells of
    # dimension |S| - 1
    offset: Dict[int, int] = {}
    f_counts: List[int] = []
    boundaries: List[List[Column]] = []
    for r in range(1, len(colours) + 1):
        count = 0
        cols: List[Column] = []
        for combo in itertools.combinations(colours, r):
            s_bits = ColourSet(combo).bits
            part = residues(G, ColourSet.from_bits(cs.bits & ~s_bits))
            offset[s_bits] = count
            count += len(part)
            if r == 1:
                continue
            faces = []
            for p, c in enumerate(combo):
                face = s_bits & ~(1 << (c - 1))
                face_part = residues(G, ColourSet.from_bits(cs.bits & ~face))
                faces.append((offset[face], face_part.component_of, (-1) ** p))
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
    """Betti numbers of a d-sphere: (2,) in dimension 0, else (1,0,...,0,1)."""
    if dim == 0:
        return (2,)
    return (1,) + (0,) * (dim - 1) + (1,)


def betti_numbers(K: OrderComplex) -> BettiVector:
    """Betti numbers of K from exact ranks of its boundary matrices."""
    _check_boundaries(K)
    dims = K.f_counts()
    ranks = [0] + [_sparse_rank(K.boundary(k)) for k in range(1, K.dim + 1)] + [0]
    b = tuple(dims[k] - ranks[k] - ranks[k + 1] for k in range(K.dim + 1))
    return BettiVector(b)


def _check_boundaries(K: OrderComplex) -> None:
    """boundary(k) has one column per k-cell, each with rows among the
    (k-1)-cells, and boundary-of-boundary vanishes identically."""
    f = K.f_counts()
    for k in range(1, K.dim + 1):
        cols = K.boundary(k)
        if len(cols) != f[k]:
            raise InvariantViolated(f"boundary({k}) has {len(cols)} columns, f_{k} = {f[k]}")
        lower = K.boundary(k - 1) if k > 1 else None
        for j, col in enumerate(cols):
            if any(not 0 <= face < f[k - 1] for face, _ in col):
                raise InvariantViolated(f"row out of range in boundary({k}) column {j}")
            if lower is None:
                continue
            acc: Dict[int, int] = {}
            for face, sign in col:
                for face2, sign2 in lower[face]:
                    acc[face2] = acc.get(face2, 0) + sign * sign2
            if any(acc.values()):
                raise InvariantViolated(f"boundary^2 != 0 on {k}-cell {j}")


def _sparse_rank(columns: Sequence[Column]) -> int:
    """Exact rank of a sparse integer matrix given by columns.

    Column reduction: while an earlier reduced column owns the lowest
    (largest) row of the current column, subtract the multiple of it that
    clears that row.  A +-1 pivot keeps the arithmetic integral; any other
    pivot uses Fraction.  The rank is the number of rows owned at the end.
    """
    owner: Dict[int, Dict[int, object]] = {}
    for col in columns:
        v: Dict[int, object] = dict(col)
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
