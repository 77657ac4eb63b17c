"""Shared generators and independent oracles for the test suite.

The brute oracles here are deliberately primitive (nested loops over raw
tuples, no library calls) so they stay independent of the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from altpaths.ecgraph import BLUE, RED, Colour, EdgeColouredGraph


def brute_hom_oracle(h: EdgeColouredGraph, g: EdgeColouredGraph) -> int:
    """Reference count: try every map, check every edge."""
    gmap = {}
    for u, v, c in g.edges:
        gmap[(u, v)] = c
        gmap[(v, u)] = c
    count = 0
    for assignment in product(range(g.n), repeat=h.n):
        ok = True
        for u, v, c in h.edges:
            if gmap.get((assignment[u], assignment[v])) != c:
                ok = False
                break
        if ok:
            count += 1
    return count


def path_walk_oracle(h: EdgeColouredGraph, g: EdgeColouredGraph) -> int:
    """Homomorphisms of a path pattern in vertex-index order, counted as
    coloured walks one edge at a time over g's raw edge list."""
    ways = [1] * g.n
    for _, _, c in h.edges:
        step = [0] * g.n
        for u, v, gc in g.edges:
            if gc == c:
                step[u] += ways[v]
                step[v] += ways[u]
        ways = step
    return sum(ways)


def brute_two_walks(g: EdgeColouredGraph, v: int, first: Colour, second: Colour) -> int:
    """Ordered two-edge walks from v, never reusing the first edge."""
    count = 0
    for u1, v1, c1 in g.edges:
        if c1 != first or v not in (u1, v1):
            continue
        a = v1 if u1 == v else u1
        for u2, v2, c2 in g.edges:
            if c2 != second or a not in (u2, v2):
                continue
            if (u2, v2) == (u1, v1):
                continue
            count += 1
    return count


def random_graph(rng: random.Random, n: int) -> EdgeColouredGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            roll = rng.randrange(3)
            if roll == 1:
                edges.append((u, v, RED))
            elif roll == 2:
                edges.append((u, v, BLUE))
    return EdgeColouredGraph.make(n, edges)


def random_forest(rng: random.Random, n: int) -> EdgeColouredGraph:
    """Random forest: each vertex other than 0 attaches to an earlier vertex
    with probability 3/4, else starts a new component."""
    edges = []
    for v in range(1, n):
        if rng.random() < 0.75:
            u = rng.randrange(v)
            colour = RED if rng.random() < 0.5 else BLUE
            edges.append((u, v, colour))
    return EdgeColouredGraph.make(n, edges)


def p3_loopless_ceiling(n: int) -> Fraction:
    """Upper bound on t(P_3^A, G) over every loopless host G on n vertices.

    hom(P_3^A, G) sums r(u) r(v) over ordered blue pairs (u, v), where r is
    the red degree and b the blue degree.  By AM-GM that is at most
    sum_u b(u) r(u)^2, and r(u) + b(u) <= n - 1 bounds each term by
    max_r r^2 (n-1-r).  Dividing n times that by n^4 gives the ceiling,
    which the circulant of red degree argmax_r attains whenever that degree
    is admissible.
    """
    return max(Fraction(r * r * (n - 1 - r), n**3) for r in range(n))


def random_triple(rng: random.Random):
    """A random valid sequence triple with k in 1..5 and small entries.

    z_0 and z_1 stay 0: their pendant paths have no valid spine image.
    """
    from altpaths.constructions import SequenceTriple

    k = rng.randint(1, 5)
    x = [0] * (2 * k + 2)
    y = [0] * (2 * k + 1)
    z = [0] * (2 * k + 2)
    for i in range(1, k + 1):
        x[i] = rng.randint(0, 4)
    for i in range(2, k + 1):
        z[i] = rng.randint(0, 3)
    for i in range(k + 1):
        y[i] = rng.randint(0, 4)
    for i in range(k + 1):
        x[2 * k + 1 - i] = x[i]
        z[2 * k + 1 - i] = z[i]
        y[2 * k - i] = y[i]
    return SequenceTriple(k, tuple(x), tuple(y), tuple(z))


def recompute_phi_oracle(f) -> tuple[int, ...]:
    """Reference propagation of a labelled forest's spine images.

    Pins (spine, yminus and aux roles) map to their class index, which must
    lie on the spine; a stack walk then forces every neighbour through the
    unique spine neighbour of the edge's colour, raising ValueError on a
    missing spine edge, a contradiction or an unforced vertex.
    """
    length = f.spine_edges

    def step(j: int, colour: Colour):
        up = j % 2 == 0 if colour == RED else j % 2 == 1
        cand = j + 1 if up else j - 1
        return cand if 0 <= cand <= length else None

    image = [None] * f.graph.n
    for v, (kind, j) in enumerate(f.roles):
        if kind in ("spine", "yminus", "aux"):
            if not 0 <= j <= length:
                raise ValueError(f"pinned image {j} of vertex {v} outside the spine")
            image[v] = j
    incident = [[] for _ in range(f.graph.n)]
    for u, v, c in f.graph.edges:
        incident[u].append((v, c))
        incident[v].append((u, c))
    stack = [v for v in range(f.graph.n) if image[v] is not None]
    while stack:
        v = stack.pop()
        for w, c in incident[v]:
            nb = step(image[v], c)
            if nb is None:
                raise ValueError(f"no spine edge of colour {c} at image {image[v]}")
            if image[w] is None:
                image[w] = nb
                stack.append(w)
            elif image[w] != nb:
                raise ValueError(f"contradictory forced images for vertex {w}")
    if any(img is None for img in image):
        raise ValueError("spine image not forced")
    return tuple(image)
