"""Core data model for red/blue edge-coloured simple graphs.

A graph is a vertex count ``n`` (vertices are ``0..n-1``) together with a
canonically sorted tuple of coloured edges ``(u, v, colour)`` with ``u < v``.
The same type serves as pattern and as host.  All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, combinations, product, repeat
from typing import Callable, Iterable, Iterator, Optional


def _numpy():
    """numpy, executed on its first attribute access (the ``LazyLoader``
    recipe of the importlib documentation).  This is the package's one numpy
    import, and ``constructions`` and ``covering`` take ``np`` from here, so
    the commands that build no array (the exact counters, the host sweep,
    the simplex) never load numpy.  A numpy already in ``sys.modules``, or
    blocked there with ``None``, is imported as ``import numpy`` would; a
    missing one raises ModuleNotFoundError here, not at first use."""
    if "numpy" in sys.modules:
        return importlib.import_module("numpy")
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _numpy()


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
_COLOURS = (RED, BLUE)
_LETTERS = {c: c.letter for c in _COLOURS}

Edge = tuple[int, int, Colour]


class BudgetExceeded(RuntimeError):
    """An operation refused to run because it would exceed its work budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class EdgeColouredGraph:
    """Simple loopless graph on ``0..n-1`` whose edges carry a colour.

    A graph built by ``from_edge_array`` keeps its int64 edge array as the
    primary store; its ``edges`` tuple is made on first read and kept, so
    ``==`` and ``hash`` (over ``n`` and ``edges``) are those of the tuple.
    """

    n: int
    edges: tuple[Edge, ...]

    def __getattr__(self, name: str):
        # Reached only for an attribute missing from the instance: the edge
        # tuple of an array-built graph before its first read.
        arr = self.__dict__.get("_edge_arr")
        if name != "edges" or arr is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        u, v, c = arr.T.tolist()
        edges = tuple(zip(u, v, map(_COLOURS.__getitem__, c)))
        object.__setattr__(self, "edges", edges)
        return edges

    @staticmethod
    def from_edge_array(n: int, edges: np.ndarray) -> "EdgeColouredGraph":
        """Build a graph from an int64 ``(m, 3)`` array of rows ``(u, v,
        colour)``, rows put into the order ``make`` gives; the array becomes
        the graph's read-only ``edge_array()``.  Rows already strictly
        increasing by ``(u, v)`` are kept: an int64 array that owns its data
        is adopted, and made read-only, and anything else is copied once.
        Other rows are sorted into a new array (``np.lexsort``)."""
        arr = np.asarray(edges, dtype=np.int64)
        arr = arr if arr.shape[1:] == (3,) else arr.reshape(-1, 3)
        if ((arr[:, 2] != RED) & (arr[:, 2] != BLUE)).any():
            raise ValueError("edge colours must be 0 (red) or 1 (blue)")
        u, v = arr[:, 0], arr[:, 1]
        if ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
            arr = np.require(arr, requirements="CO")
        else:
            arr = arr[np.lexsort(arr.T[::-1])]
        arr.flags.writeable = False
        g = object.__new__(EdgeColouredGraph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_edge_arr", arr)
        return g

    @staticmethod
    def make(n: int, edges: Iterable[tuple[int, int, Colour]]) -> "EdgeColouredGraph":
        """Build a graph with the edge list put into canonical sorted order.

        Endpoint order within each edge is kept as given; ``validate``
        rejects edges with ``u >= v``.
        """
        return EdgeColouredGraph(n, tuple(sorted(edges)))

    # -- derived accessors ------------------------------------------------

    def num_edges(self, colour: Optional[Colour] = None) -> int:
        """Edge count, of one colour if given, read from the edge array
        when the graph holds one, else from the edge tuple."""
        arr = self.__dict__.get("_edge_arr")
        if arr is not None:
            return len(arr) if colour is None else int(np.count_nonzero(arr[:, 2] == colour))
        return len(self.edges) if colour is None else sum(c == colour for _, _, c in self.edges)

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
        ``(u, v, colour)`` in edge order: the primary store of an
        array-built graph, else built once and cached like ``adjacency()``."""
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
    # Every edge adds 1 to the degree of each of its two ends.
    return DegreeStats(d_r, d_b, d_rb, d_bb, sum(d_r) // 2, sum(d_b) // 2)


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
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return 3 ** pair_count(n)


def _host_from_digits(n: int, digits: Iterable[int]) -> EdgeColouredGraph:
    """The host whose pairs, in (u,v)-sorted order, take the digits in turn:
    0 = absent, 1 = red, 2 = blue.  Its edge tuple is sorted as built, and
    the host is valid by construction and marked so for ``require_valid``."""
    pairs = combinations(range(n), 2)
    edges = tuple((u, v, _COLOURS[d - 1]) for (u, v), d in zip(pairs, digits) if d)
    g = EdgeColouredGraph(n, edges)
    object.__setattr__(g, "_valid", True)
    return g


def host_from_index(n: int, index: int) -> EdgeColouredGraph:
    """Decode one graph from the mixed-radix counter over sorted pairs:
    pair p (in (u,v)-sorted order) reads digit (index // 3**p) % 3."""
    total = host_count(n)
    if not 0 <= index < total:
        raise ValueError(f"host index {index} outside 0..{total - 1}")
    digits = []
    for _ in range(pair_count(n)):
        index, digit = divmod(index, 3)
        digits.append(digit)
    return _host_from_digits(n, digits)


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


def _counter_decoder(n: int):
    """The tables with which the two decoders below read hosts.

    Vertex x's local code reads the digits of its n-1 pairs, the pair with
    its j-th other vertex (in index order) as base-3 digit j.  ``tables[x]``
    maps each local code to x's (red, blue) neighbour tuples, sorted as
    ``adjacency()`` has them; ``pairs`` holds, per pair (u, v) in counter
    order, u, the weight of its digit in u's code, v and the weight in v's.
    """
    tables = []
    for x in range(n):
        others = [w for w in range(n) if w != x]
        table = []
        for code in range(3 ** (n - 1)):
            digits = [code // 3**j % 3 for j in range(n - 1)]
            table.append((
                tuple(w for w, d in zip(others, digits) if d == 1),
                tuple(w for w, d in zip(others, digits) if d == 2),
            ))
        tables.append(table)
    pairs = [(u, 3 ** (v - 1), v, 3**u) for u, v in combinations(range(n), 2)]
    return tables, pairs


def _local_codes(n: int, pairs: list, digits) -> list[int]:
    """Every vertex's local code for one host's pair digits."""
    codes = [0] * n
    for (u, wu, v, wv), d in zip(pairs, digits):
        codes[u] += d * wu
        codes[v] += d * wv
    return codes


def _host_adjacencies(n: int, start: int, stop: int) -> Iterator[tuple]:
    """``host_from_index(n, i).adjacency()`` for i = start..stop-1 in order,
    decoded straight from the counter with no graph built: each step adds
    one to the digits and to the local codes of the pairs it changes."""
    tables, pairs = _counter_decoder(n)
    digits = [start // 3**p % 3 for p in range(len(pairs))]
    codes = _local_codes(n, pairs, digits)
    pick = list.__getitem__
    for _ in range(start, stop):
        yield tuple(map(pick, tables, codes))
        for p, (u, wu, v, wv) in enumerate(pairs):
            if digits[p] < 2:
                digits[p] += 1
                codes[u] += wu
                codes[v] += wv
                break
            digits[p] = 0
            codes[u] -= 2 * wu
            codes[v] -= 2 * wv


def _complete_adjacencies(n: int) -> Iterator[tuple]:
    """The adjacency of every complete 2-coloured host on n vertices: the
    2^(n(n-1)/2) counter indices with no digit 0, not in counter order."""
    tables, pairs = _counter_decoder(n)
    pick = list.__getitem__
    for digits in product((1, 2), repeat=len(pairs)):
        yield tuple(map(pick, tables, _local_codes(n, pairs, digits)))


def worker_count(workers: int, jobs: int) -> int:
    """Processes for a fan-out of ``jobs`` independent jobs: at most
    ``workers``, one per job and one per CPU, and never fewer than one."""
    return max(1, min(workers, jobs, os.cpu_count() or 1))


def parallel_map(fn: Callable, jobs: list, workers: int) -> list:
    """``[fn(job) for job in jobs]``, in job order, on
    ``worker_count(workers, len(jobs))`` processes; in this process when
    that is one."""
    size = worker_count(workers, len(jobs))
    if size == 1:
        return [fn(job) for job in jobs]
    import multiprocessing

    with multiprocessing.Pool(size) as pool:
        return pool.map(fn, jobs)


def random_host(n: int, rng: random.Random) -> EdgeColouredGraph:
    """One host with every pair iid uniform over absent/red/blue: one
    ``rng.randrange(3)`` per pair, in (u,v)-sorted order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return _host_from_digits(n, map(rng.randrange, repeat(3, pair_count(n))))


def random_hosts(count: int, n_max: int, seed: int) -> Iterator[EdgeColouredGraph]:
    """Deterministic corpus of random hosts with n drawn from 1..n_max,
    drawn one at a time as they are read."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_host(rng.randint(1, n_max), rng)


# -- .ecg text format ----------------------------------------------------

# Rows per piece of written text: a writer holds the line strings of one
# piece at a time, not one per edge or vertex of the whole graph.
_WRITE_ROWS = 1 << 16


def _ecg_pieces(g: EdgeColouredGraph) -> Iterator[str]:
    """The ``.ecg`` text of a graph in pieces of at most ``_WRITE_ROWS``
    lines, formatted from the columns of an array-built graph's edge array,
    so no edge tuple is built, and from a tuple-built graph's edge tuple, so
    no array is built and numpy is not loaded."""
    yield f"ecg 1\nn {g.n}\n"
    arr = g.__dict__.get("_edge_arr")
    edges = g.edges if arr is None else arr
    for start in range(0, len(edges), _WRITE_ROWS):
        piece = edges[start:start + _WRITE_ROWS]
        u, v, c = zip(*piece) if arr is None else piece.T.tolist()
        yield "".join(map("e {} {} {}\n".format, u, v, map(_LETTERS.__getitem__, c)))


def format_ecg(g: EdgeColouredGraph) -> str:
    """The whole ``.ecg`` text of a graph, as ``write_ecg`` writes it."""
    return "".join(_ecg_pieces(g))


# ``parse_ecg`` refuses a larger vertex count before it builds anything per
# vertex.  The cap admits H_15 (3,809,312 vertices), the largest forest
# ``construct`` writes.  An edgeless host at the cap peaks at about 1.1 GB in
# ``hom`` (about 260 bytes per vertex).
_MAX_VERTICES = 4_000_000


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
    if n > _MAX_VERTICES:
        raise BudgetExceeded(
            f"{n} vertices exceed the .ecg vertex cap of {_MAX_VERTICES}", required=n
        )
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
        fh.writelines(_ecg_pieces(g))


def read_ecg(path) -> EdgeColouredGraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_ecg(fh.read())
