"""Core data model for red/blue edge-coloured simple graphs.

A graph is a vertex count ``n`` (vertices are ``0..n-1``) together with a
canonically sorted tuple of coloured edges ``(u, v, colour)`` with ``u < v``.
The same type serves as pattern and as host.  All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np


class Colour(IntEnum):
    """The two edge colours, ordered RED < BLUE for canonical serialization."""

    RED = 0
    BLUE = 1

    @property
    def letter(self) -> str:
        return "R" if self is Colour.RED else "B"

    @staticmethod
    def from_letter(s: str) -> "Colour":
        if s == "R":
            return Colour.RED
        if s == "B":
            return Colour.BLUE
        raise ValueError(f"unknown colour letter {s!r} (expected R or B)")


RED = Colour.RED
BLUE = Colour.BLUE

Edge = tuple[int, int, Colour]


class BudgetExceeded(RuntimeError):
    """An operation refused to run because it would exceed its work budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class EdgeColouredGraph:
    """Simple loopless graph on ``0..n-1`` whose edges carry a colour."""

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def make(n: int, edges: Iterable[tuple[int, int, Colour]]) -> "EdgeColouredGraph":
        """Build a graph with the edge list put into canonical sorted order.

        Endpoint order within each edge is kept as given; ``validate``
        rejects edges with ``u >= v``.
        """
        return EdgeColouredGraph(n, tuple(sorted(edges)))

    @staticmethod
    def from_pairs(n: int, coloured_pairs: Mapping[tuple[int, int], Colour]) -> "EdgeColouredGraph":
        """Build from a pair->colour mapping, normalising endpoint order."""
        edges = []
        for (u, v), c in coloured_pairs.items():
            if u > v:
                u, v = v, u
            edges.append((u, v, Colour(c)))
        return EdgeColouredGraph.make(n, edges)

    # -- derived accessors ------------------------------------------------

    def num_edges(self, colour: Optional[Colour] = None) -> int:
        if colour is None:
            return len(self.edges)
        return sum(1 for _, _, c in self.edges if c == colour)

    def adjacency(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per-vertex neighbour lists, partitioned by colour, built lazily.

        ``adjacency()[v][colour]`` is the sorted tuple of neighbours of ``v``
        joined by an edge of ``colour``.
        """
        cached = self.__dict__.get("_adj")
        if cached is None:
            lists: list[tuple[list[int], list[int]]] = [([], []) for _ in range(self.n)]
            for u, v, c in self.edges:
                lists[u][c].append(v)
                lists[v][c].append(u)
            cached = tuple((tuple(r), tuple(b)) for r, b in lists)
            object.__setattr__(self, "_adj", cached)
        return cached

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only int64 ``(m, 3)`` array of rows
        ``(u, v, colour)`` in edge order, built once and cached like
        ``adjacency()``."""
        cached = self.__dict__.get("_edge_arr")
        if cached is None:
            m = len(self.edges)
            cached = np.fromiter(
                chain.from_iterable(self.edges), dtype=np.int64, count=3 * m
            ).reshape(m, 3)
            cached.flags.writeable = False
            object.__setattr__(self, "_edge_arr", cached)
        return cached

    def canonical_key(self) -> str:
        """Deterministic string identity, e.g. ``"4:0-1R,2-3B"``."""
        body = ",".join(f"{u}-{v}{c.letter}" for u, v, c in self.edges)
        return f"{self.n}:{body}"


@dataclass(frozen=True)
class DegreeStats:
    """Per-vertex colour degrees and two-walk counts, plus edge totals.

    ``d_rb[v]`` counts ordered walks v -> a -> b whose first edge is red and
    second blue; ``d_bb[v]`` the same with both edges blue.  A walk never
    reuses the pair (v, a): returning to v would need a second edge on the
    same pair, which a simple graph cannot have.
    """

    d_r: tuple[int, ...]
    d_b: tuple[int, ...]
    d_rb: tuple[int, ...]
    d_bb: tuple[int, ...]
    e_r: int
    e_b: int


def validate(g: EdgeColouredGraph) -> Optional[str]:
    """Return ``None`` when all invariants hold, else the first violation."""
    if g.n < 0:
        return "vertex count must be nonnegative"
    seen_pairs = set()
    prev = None
    for u, v, c in g.edges:
        if u == v:
            return f"loopless: edge ({u},{v}) is a loop"
        if u > v:
            return f"u<v required: edge ({u},{v}) has endpoints out of order"
        if not (0 <= u < v < g.n):
            return f"vertex index out of range in edge ({u},{v}) for n={g.n}"
        if not isinstance(c, Colour):
            return f"edge ({u},{v}) carries a non-colour value {c!r}"
        if (u, v) in seen_pairs:
            return f"duplicate pair ({u},{v})"
        seen_pairs.add((u, v))
        if prev is not None and (u, v) < prev:
            return f"edges not sorted by (u,v) at ({u},{v})"
        prev = (u, v)
    return None


def require_valid(g: EdgeColouredGraph) -> None:
    """Raise ValueError on an invalid graph.  Success is cached on the
    graph, like ``adjacency()``, so each graph is validated once."""
    if "_valid" in g.__dict__:
        return
    problem = validate(g)
    if problem is not None:
        raise ValueError(f"invalid graph: {problem}")
    object.__setattr__(g, "_valid", True)


def degree_stats(g: EdgeColouredGraph) -> DegreeStats:
    """Exact colour degrees and red-blue / blue-blue two-walk counts."""
    require_valid(g)
    adj = g.adjacency()
    d_r = tuple(len(adj[v][RED]) for v in range(g.n))
    d_b = tuple(len(adj[v][BLUE]) for v in range(g.n))
    # Walk v -> a -> b: the second edge is any blue edge at a other than the
    # (v, a) pair itself; for red-blue walks the (v, a) edge is red so every
    # blue edge at a qualifies.
    d_rb = tuple(sum(d_b[a] for a in adj[v][RED]) for v in range(g.n))
    d_bb = tuple(sum(d_b[a] - 1 for a in adj[v][BLUE]) for v in range(g.n))
    e_r = g.num_edges(RED)
    e_b = g.num_edges(BLUE)
    return DegreeStats(d_r, d_b, d_rb, d_bb, e_r, e_b)


def circulant_host(n: int, red_residues: Iterable[int]) -> EdgeColouredGraph:
    """Complete graph on ``n`` vertices, edge (u,v) red iff (v-u) mod n is a
    red residue, blue otherwise.  The residue set must be closed under
    negation mod n so the colouring is well defined."""
    residues = set(red_residues)
    if n < 0:
        raise ValueError("n must be nonnegative")
    for r in residues:
        if not 1 <= r <= n - 1:
            raise ValueError(f"residue {r} outside 1..n-1")
        if (n - r) % n not in residues:
            raise ValueError(f"residue set not closed under negation: missing {n - r}")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            c = RED if (v - u) % n in residues else BLUE
            edges.append((u, v, c))
    return EdgeColouredGraph.make(n, edges)


def symmetric_residues(n: int, degree: int) -> Optional[set[int]]:
    """A negation-closed residue set of the given size, or ``None``.

    Uses the symmetric interval {1..r} on both ends, plus n/2 when n is even
    and the degree is odd.  An odd degree is unreachable when n is odd.
    """
    if degree < 0 or degree > n - 1:
        return None
    if degree % 2 == 0:
        r = degree // 2
        return {d for i in range(1, r + 1) for d in (i, n - i)}
    if n % 2 != 0:
        return None
    r = (degree - 1) // 2
    out = {d for i in range(1, r + 1) for d in (i, n - i)}
    out.add(n // 2)
    return out


def pair_count(n: int) -> int:
    return n * (n - 1) // 2

def host_count(n: int) -> int:
    """Number of edge-coloured graphs on n labelled vertices: 3^(n(n-1)/2)."""
    return 3 ** pair_count(n)


def host_from_index(n: int, index: int) -> EdgeColouredGraph:
    """Decode one graph from the mixed-radix counter over sorted pairs.

    Pair p (in (u,v)-sorted order) reads digit (index // 3**p) % 3, with
    0 = absent, 1 = red, 2 = blue.  The result is valid by construction
    and is marked so for ``require_valid``.
    """
    total = host_count(n)
    if not 0 <= index < total:
        raise ValueError(f"host index {index} outside 0..{total - 1}")
    edges = []
    rem = index
    for u, v in combinations(range(n), 2):
        rem, digit = divmod(rem, 3)
        if digit == 1:
            edges.append((u, v, RED))
        elif digit == 2:
            edges.append((u, v, BLUE))
    g = EdgeColouredGraph.make(n, edges)
    object.__setattr__(g, "_valid", True)
    return g


def enumerate_hosts(n: int, start: int = 0, stop: Optional[int] = None) -> Iterator[EdgeColouredGraph]:
    """All edge-coloured graphs on n labelled vertices, in counter order.

    The stream is restartable: ``enumerate_hosts(n, a, b)`` yields exactly
    the counter indices a..b-1, so index ranges can be consumed in parallel
    without coordination.
    """
    total = host_count(n)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad host range [{start},{stop}) for total {total}")
    for index in range(start, stop):
        yield host_from_index(n, index)


def random_host(n: int, rng: random.Random) -> EdgeColouredGraph:
    """One host with every pair iid uniform over absent/red/blue."""
    edges = []
    for u, v in combinations(range(n), 2):
        digit = rng.randrange(3)
        if digit == 1:
            edges.append((u, v, RED))
        elif digit == 2:
            edges.append((u, v, BLUE))
    return EdgeColouredGraph.make(n, edges)


def random_hosts(count: int, n_max: int, seed: int) -> list[EdgeColouredGraph]:
    """Deterministic corpus of random hosts with n drawn from 1..n_max."""
    rng = random.Random(seed)
    return [random_host(rng.randint(1, n_max), rng) for _ in range(count)]


# -- .ecg text format ----------------------------------------------------

def format_ecg(g: EdgeColouredGraph) -> str:
    lines = ["ecg 1", f"n {g.n}"]
    lines.extend(f"e {u} {v} {c.letter}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


def parse_ecg(text: str) -> EdgeColouredGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "ecg 1":
        raise ValueError("missing 'ecg 1' header")
    if len(lines) < 2 or not lines[1].startswith("n "):
        raise ValueError("missing 'n <N>' line")
    try:
        n = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise ValueError(f"malformed vertex count line {lines[1]!r}") from None
    edges = []
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 4 or parts[0] != "e":
            raise ValueError(f"malformed edge line {ln!r}")
        u, v = int(parts[1]), int(parts[2])
        edges.append((u, v, Colour.from_letter(parts[3])))
    g = EdgeColouredGraph(n, tuple(edges))
    problem = validate(g)
    if problem is not None:
        raise ValueError(f"rejected .ecg input: {problem}")
    return g


def write_ecg(g: EdgeColouredGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_ecg(g))


def read_ecg(path) -> EdgeColouredGraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_ecg(fh.read())
