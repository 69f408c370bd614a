"""Explicit manifold families and uniform random colourful graphs.

build_manifold first lays out the base gadget on 4kd vertices: a
horizontal double path of columns (two letters a/b on the left half, a'/b'
mirrored on the right) with vertical edges inside columns, which leaves the
colour-(d+1) slot open at positions divisible by d.  It then glues those
slots across the halves along two permutations sigma, tau.  For d = 3 every
instance encodes a closed 3-manifold (checked exactly by the genus
criterion), and adding identity verticals in the extra colours lifts the
d = 3 family to any higher d while keeping all 3-residues planar.

Vertex ids follow the column layout: columns are numbered 1..2kd left to
right (unprimed letters hold columns kd..1, primed letters kd+1..2kd);
each column has one white and one black endpoint, the white carrying the
column number and the black the column number plus 2kd.

Random graphs are uniform over tuples of d+1 bijections on the canonical
white set 1..n/2.  Label-invariant statistics (component counts, genus,
verdicts) are therefore sampled from the same distribution as uniform
labelled objects; only orbit sizes differ.  Sampling uses Python's
random.Random (Mersenne Twister), a stable documented generator, so a
fixed seed reproduces the same graph bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import BadParams, InvariantViolated, NotAConstructionGraph
from .graph import ColourfulGraph, _check_budget, _check_permutation, _check_size

SeedLike = Union[int, random.Random]

# family_size_lower_bound builds n!: 32768! has 444,255 bits and takes about
# 40 ms, while 100000! takes 0.25 s
FAMILY_SIZE_MAX_N = 1 << 15


def _rng(seed: SeedLike) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _check_family(d: int, k: int) -> int:
    """n = 4kd for shape (d, k); raises unless d >= 3, k >= 1 and that graph fits the size cap."""
    if d < 3:
        raise BadParams(f"d must be >= 3, got {d}")
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    _check_size(d, 4 * k * d)
    return 4 * k * d


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (d, k, sigma, tau) of the glued double-path family.

    sigma and tau are permutations of [1..k] in one-line image notation
    that map each class of _parity_classes(d, k) onto itself: for odd d
    they preserve position parity, else the gluing edges break the
    bipartition.  Other pairs are rejected here.
    """

    d: int
    k: int
    sigma: Tuple[int, ...]
    tau: Tuple[int, ...]

    def __post_init__(self):
        _check_family(self.d, self.k)
        object.__setattr__(
            self, "sigma", _check_permutation(self.sigma, self.k, "sigma")
        )
        object.__setattr__(self, "tau", _check_permutation(self.tau, self.k, "tau"))
        if self.d % 2 == 1:
            for name, p in (("sigma", self.sigma), ("tau", self.tau)):
                for i, image in enumerate(p, start=1):
                    if (i - image) % 2:
                        raise BadParams(
                            f"odd d={self.d}: {name} must preserve position parity "
                            f"(it maps {i} to {image}), else the gluing edges break "
                            "the bipartition"
                        )

    @property
    def n(self) -> int:
        return 4 * self.d * self.k


def _parity_classes(d: int, k: int) -> List[range]:
    """The position classes sigma and tau map onto themselves: 1..k for even
    d; for odd d the odd and the even positions, so that every gluing edge
    joins opposite bipartition classes."""
    step = 1 + d % 2
    return [range(first, k + 1, step) for first in range(1, step + 1)]


def _path_colour(m: int, d: int) -> int:
    return (m - 1) % d + 1


# letters: 'a'/'b' unprimed halves, 'ap'/'bp' primed halves; positions 1..kd.
# Position i lies in column kd+1-i of an unprimed letter and kd+i of a primed
# one; it is white when i is odd on 'a' and 'bp', and when i is even on 'b' and 'ap'.
def _vertex_ids(kd: int) -> Dict[str, List[int]]:
    """Each letter's vertex ids, position i at index i (index 0 unused)."""
    ids = {}
    for letter, white_parity in (("a", 1), ("b", 0), ("ap", 0), ("bp", 1)):
        row = [0]
        for i in range(1, kd + 1):
            column = kd + 1 - i if letter in ("a", "b") else kd + i
            row.append(column if i % 2 == white_parity else 2 * kd + column)
        ids[letter] = row
    return ids


def _base_edges(d: int, ids: Dict[str, List[int]]) -> List[Tuple[int, int, int]]:
    kd = len(ids["a"]) - 1
    edges: List[Tuple[int, int, int]] = []
    for letter in ("a", "ap", "b", "bp"):
        row = ids[letter]
        for i in range(1, kd):
            edges.append((row[i], row[i + 1], _path_colour(i + 1, d)))
    edges.append((ids["a"][1], ids["ap"][1], 1))
    edges.append((ids["b"][1], ids["bp"][1], 1))

    for top, bottom in ((ids["a"], ids["b"]), (ids["ap"], ids["bp"])):
        for i in range(1, kd + 1):
            for j in range(1, d + 1):
                if j % d != i % d and j % d != (i + 1) % d:
                    edges.append((top[i], bottom[i], j))
        edges.append((top[kd], bottom[kd], 1))
        for i in range(1, kd + 1):
            if i % d:
                edges.append((top[i], bottom[i], d + 1))
    return edges


def build_manifold(params: ConstructionParams) -> ColourfulGraph:
    """Glue the base graph's open colour-(d+1) slots along sigma and tau."""
    d, k = params.d, params.k
    kd = k * d
    half = 2 * kd
    ids = _vertex_ids(kd)
    a, ap, b, bp = ids["a"], ids["ap"], ids["b"], ids["bp"]
    edges = _base_edges(d, ids)
    for i in range(1, k + 1):
        edges.append((a[i * d], ap[params.sigma[i - 1] * d], d + 1))
        edges.append((b[i * d], bp[params.tau[i - 1] * d], d + 1))

    matchings: List[List[Optional[int]]] = [[None] * half for _ in range(d + 1)]
    for u, v, c in edges:
        w, b = (u, v) if u <= half else (v, u)
        if not w <= half < b:
            raise InvariantViolated(f"edge {u}-{v} does not straddle the bipartition")
        if matchings[c - 1][w - 1] is not None:
            raise InvariantViolated(f"vertex {w} has two edges of colour {c}")
        matchings[c - 1][w - 1] = b
    if not all(all(row) for row in matchings):
        raise InvariantViolated("a colour slot of the glued graph is empty")
    return ColourfulGraph(d, tuple(tuple(row) for row in matchings))


def build_planar_family(G3: ColourfulGraph, target_d: int) -> ColourfulGraph:
    """Extend a d=3 glued graph to target_d by identity verticals.

    Each column of the double path carries both endpoints of a vertical
    edge, so pairing white w with black n/2+w in every new colour adds the
    in-column edges and keeps every 3-residue planar.
    """
    if not isinstance(G3, ColourfulGraph) or G3.d != 3:
        raise NotAConstructionGraph("input must be a 4-colourful glued graph")
    if target_d < 4:
        raise BadParams(f"target_d must be >= 4, got {target_d}")
    _check_size(target_d, G3.n)
    if G3.n % 12:
        raise NotAConstructionGraph(f"glued graphs have n = 12k vertices, got {G3.n}")
    half = G3.half
    for w in range(1, half + 1):
        if all(m[w - 1] != half + w for m in G3.matchings):
            raise NotAConstructionGraph(
                f"white {w} is not column-paired with black {half + w}; "
                "not a glued double-path graph"
            )
    identity = tuple(range(half + 1, 2 * half + 1))
    matchings = G3.matchings + tuple(identity for _ in range(target_d - 3))
    return ColourfulGraph(target_d, matchings)


def random_graph(d: int, n: int, seed: SeedLike = 0) -> ColourfulGraph:
    """Uniform (d+1)-tuple of bijections onto the black side; seeded."""
    _check_size(d, n)
    rng = _rng(seed)
    half = n // 2
    matchings = []
    for _ in range(d + 1):
        blacks = list(range(half + 1, n + 1))
        rng.shuffle(blacks)
        matchings.append(tuple(blacks))
    return ColourfulGraph(d, tuple(matchings))


def random_construction_params(d: int, k: int, seed: SeedLike = 0) -> ConstructionParams:
    """Uniform admissible (sigma, tau): each _parity_classes class shuffled in order."""
    _check_family(d, k)
    rng = _rng(seed)

    def perm() -> Tuple[int, ...]:
        images = [0] * k
        for positions in _parity_classes(d, k):
            shuffled = list(positions)
            rng.shuffle(shuffled)
            for i, image in zip(positions, shuffled):
                images[i - 1] = image
        return tuple(images)

    return ConstructionParams(d, k, perm(), perm())


def family_size_lower_bound(d: int, k: int) -> int:
    """Labelled glued graphs of shape (d, k): s^2 n!/4, n = 4kd, s admissible sigma.

    s, the product of |class|! over _parity_classes(d, k), counts the sigma
    ConstructionParams accepts: k! for even d, ceil(k/2)! floor(k/2)! for odd d.
    n above FAMILY_SIZE_MAX_N raises BudgetExceeded before any factorial.
    """
    n = _check_family(d, k)
    _check_budget(n, FAMILY_SIZE_MAX_N,
                  "n = 4kd = {count} above the limit {limit} for building n!")
    f = math.factorial
    s = math.prod(f(len(positions)) for positions in _parity_classes(d, k))
    return s**2 * f(n) // 4
