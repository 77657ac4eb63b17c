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
