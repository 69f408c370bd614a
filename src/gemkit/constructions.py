"""Explicit manifold families and uniform random colourful graphs.

The base gadget graph on 4kd vertices is a horizontal double path of
columns (two letters a/b on the left half, a'/b' mirrored on the right),
with vertical edges inside columns and two permutations sigma, tau gluing
the loose colour-(d+1) slots across the halves.  For d = 3 every instance
encodes a closed 3-manifold (checked exactly by the genus criterion), and
adding identity verticals in the extra colours lifts the d = 3 family to
any higher d while keeping all 3-residues planar.

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
from typing import List, Optional, Sequence, Tuple, Union

from .errors import BadParams, InvariantViolated, NotAConstructionGraph
from .graph import ColourfulGraph

SeedLike = Union[int, random.Random]


def _rng(seed: SeedLike) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _check_permutation(p: Sequence[int], k: int, name: str) -> Tuple[int, ...]:
    p = tuple(p)
    if sorted(p) != list(range(1, k + 1)):
        raise BadParams(f"{name} must be a permutation of [1..{k}], got {p}")
    return p


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (d, k, sigma, tau) of the glued double-path family.

    sigma and tau are permutations of [1..k] in one-line image notation.
    For odd d the gluing edges connect opposite bipartition classes only
    when each permutation preserves position parity (i and sigma(i) have
    the same parity); violating pairs are rejected here.
    """

    d: int
    k: int
    sigma: Tuple[int, ...]
    tau: Tuple[int, ...]

    def __post_init__(self):
        if self.d < 3:
            raise BadParams(f"d must be >= 3, got {self.d}")
        if self.k < 1:
            raise BadParams(f"k must be >= 1, got {self.k}")
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


def _path_colour(m: int, d: int) -> int:
    return (m - 1) % d + 1


# letters: 'a'/'b' unprimed halves, 'ap'/'bp' primed halves; positions 1..kd
def _column(letter: str, i: int, kd: int) -> int:
    return kd + 1 - i if letter in ("a", "b") else kd + i


def _is_white(letter: str, i: int) -> bool:
    chi = {"a": i % 2, "b": (i + 1) % 2, "ap": (i + 1) % 2, "bp": i % 2}[letter]
    return chi == 1


def _vertex_id(letter: str, i: int, kd: int) -> int:
    p = _column(letter, i, kd)
    return p if _is_white(letter, i) else 2 * kd + p


@dataclass(frozen=True)
class PartialGraph:
    """Edge list of the base gadget graph, before the gluing permutations.

    Vertices at positions divisible by d are missing their colour-(d+1)
    edge, so this is not yet a colourful graph.
    """

    d: int
    k: int
    n: int
    edges: Tuple[Tuple[int, int, int], ...]

    def degree(self, v: int) -> int:
        return sum(1 for u, w, _ in self.edges if v in (u, w))


def _base_edges(d: int, k: int) -> List[Tuple[int, int, int]]:
    kd = k * d
    edges: List[Tuple[int, int, int]] = []

    def vid(letter: str, i: int) -> int:
        return _vertex_id(letter, i, kd)

    for letter in ("a", "ap", "b", "bp"):
        for i in range(1, kd):
            edges.append((vid(letter, i), vid(letter, i + 1), _path_colour(i + 1, d)))
    edges.append((vid("a", 1), vid("ap", 1), 1))
    edges.append((vid("b", 1), vid("bp", 1), 1))

    for top, bottom in (("a", "b"), ("ap", "bp")):
        for i in range(1, kd + 1):
            for j in range(1, d + 1):
                if j % d != i % d and j % d != (i + 1) % d:
                    edges.append((vid(top, i), vid(bottom, i), j))
        edges.append((vid(top, kd), vid(bottom, kd), 1))
        for i in range(1, kd + 1):
            if i % d:
                edges.append((vid(top, i), vid(bottom, i), d + 1))
    return edges


def build_G0(d: int, k: int) -> PartialGraph:
    """Base gadget graph: double paths, verticals, end edges; no gluing yet.

    Positions i divisible by d have degree d (their colour-(d+1) slot is
    open); all other positions have full degree d+1.
    """
    if d < 3:
        raise BadParams(f"d must be >= 3, got {d}")
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    return PartialGraph(d, k, 4 * k * d, tuple(_base_edges(d, k)))


def build_manifold(params: ConstructionParams) -> ColourfulGraph:
    """Glue the base graph's open colour-(d+1) slots along sigma and tau."""
    d, k = params.d, params.k
    kd = k * d
    half = 2 * kd
    edges = _base_edges(d, k)
    for i in range(1, k + 1):
        edges.append(
            (_vertex_id("a", i * d, kd), _vertex_id("ap", params.sigma[i - 1] * d, kd), d + 1)
        )
        edges.append(
            (_vertex_id("b", i * d, kd), _vertex_id("bp", params.tau[i - 1] * d, kd), d + 1)
        )

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
    if n % 2 or n < 2:
        raise BadParams(f"n must be even and >= 2, got {n}")
    if d < 1:
        raise BadParams(f"d must be >= 1, got {d}")
    rng = _rng(seed)
    half = n // 2
    matchings = []
    for _ in range(d + 1):
        blacks = list(range(half + 1, n + 1))
        rng.shuffle(blacks)
        matchings.append(tuple(blacks))
    return ColourfulGraph(d, tuple(matchings))


def random_construction_params(d: int, k: int, seed: SeedLike = 0) -> ConstructionParams:
    """Uniform valid (sigma, tau): parity-preserving pairs when d is odd."""
    rng = _rng(seed)

    def perm() -> Tuple[int, ...]:
        if d % 2 == 0:
            images = list(range(1, k + 1))
            rng.shuffle(images)
            return tuple(images)
        odds = [i for i in range(1, k + 1) if i % 2]
        evens = [i for i in range(1, k + 1) if i % 2 == 0]
        rng.shuffle(odds)
        rng.shuffle(evens)
        it_odd, it_even = iter(odds), iter(evens)
        return tuple(next(it_odd) if i % 2 else next(it_even) for i in range(1, k + 1))

    return ConstructionParams(d, k, perm(), perm())


def family_size_lower_bound(d: int, k: int) -> int:
    """Labelled glued graphs of shape (d, k): at least (k!)^2 n!/4, n = 4kd."""
    if d < 3 or k < 1:
        raise BadParams(f"need d >= 3 and k >= 1, got d={d}, k={k}")
    n = 4 * k * d
    return math.factorial(k) ** 2 * math.factorial(n) // 4
