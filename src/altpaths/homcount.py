"""Exact counting of colour-preserving homomorphisms and their densities.

``hom_brute`` enumerates every map V(H) -> V(G) and is the reference oracle.
``hom_forest`` is the production counter for acyclic patterns: a rooted
bottom-up product/sum dynamic program, exact over arbitrary-precision
integers.  ``forest_orders`` is the one forest walk; each pattern is compiled
from it once into a flat plan of interned subtree shapes, cached on the
pattern, so any depth works and repeated calls skip the compile.  A forest
laid out from class blocks is compiled from its blocks instead, without a
walk.  Densities are exact rationals hom / n^v(H).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, product, repeat
from operator import itemgetter
from typing import Iterable, Optional

from .ecgraph import BudgetExceeded, EdgeColouredGraph, require_valid

BRUTE_BUDGET = 10**8


class NotAForest(ValueError):
    """Raised when a forest-only operation receives a cyclic pattern."""

    def __init__(self, cycle: list[int]):
        super().__init__(f"pattern contains a cycle through vertices {cycle}")
        self.cycle = cycle


def hom_brute(h: EdgeColouredGraph, g: EdgeColouredGraph, budget: int = BRUTE_BUDGET) -> int:
    """Count homomorphisms by checking all n^v(H) vertex maps."""
    require_valid(h)
    require_valid(g)
    if h.n == 0:
        return 1
    needed = g.n ** h.n
    if needed > budget:
        raise BudgetExceeded(
            f"brute-force enumeration needs {needed} maps, budget is {budget}",
            required=needed,
        )
    edges = h.edges
    gset = {(u, v): c for u, v, c in g.edges}
    count = 0
    for assignment in product(range(g.n), repeat=h.n):
        for u, v, c in edges:
            a, b = assignment[u], assignment[v]
            if a > b:
                a, b = b, a
            if gset.get((a, b)) != c:
                break
        else:
            count += 1
    return count


def forest_orders(h: EdgeColouredGraph) -> list[list[tuple[int, Optional[int]]]]:
    """Per component, (vertex, parent) pairs in breadth-first order.

    This is the package's one forest walk.  Each component is rooted at its
    minimum-index vertex (parent None) and neighbours are taken in index
    order.  A cyclic pattern raises NotAForest with the sorted vertices of
    the first cycle the walk closes.
    """
    adj = h.adjacency()
    parent_of: dict[int, Optional[int]] = {}
    orders = []
    for root in range(h.n):
        if root in parent_of:
            continue
        parent_of[root] = None
        order: list[tuple[int, Optional[int]]] = [(root, None)]
        for v, parent in order:            # grows while it is read: a queue
            for w in sorted(adj[v][0] + adj[v][1]):
                if w == parent:
                    continue
                if w in parent_of:
                    raise NotAForest(_closed_cycle(parent_of, v, w))
                parent_of[w] = v
                order.append((w, v))
        orders.append(order)
    return orders


def _closed_cycle(parent_of: dict[int, Optional[int]], v: int, w: int) -> list[int]:
    """Sorted vertices of the cycle the edge v-w closes in the BFS tree."""
    up_v = [v]
    while parent_of[up_v[-1]] is not None:
        up_v.append(parent_of[up_v[-1]])
    on_v = set(up_v)
    up_w = [w]
    while up_w[-1] not in on_v:
        up_w.append(parent_of[up_w[-1]])
    return sorted(up_v[: up_v.index(up_w[-1]) + 1] + up_w[:-1])


@dataclass(frozen=True)
class _Plan:
    """A forest pattern compiled for the rooted dynamic program.

    ``steps`` lists the distinct rooted subtree shapes, children before
    parents; a step is a tuple of (edge colour, child step, multiplicity).
    ``vertex_runs`` gives the step of the subtree below each pattern vertex
    as maximal (step, count) runs in vertex order, and ``roots`` pairs each
    distinct component shape with its count.
    """

    steps: tuple[tuple[tuple[int, int, int], ...], ...]
    vertex_runs: tuple[tuple[int, int], ...]
    roots: tuple[tuple[int, int], ...]


def _runs(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Positive-count (step, count) pairs with neighbours of one step merged:
    maximal runs, so equal step sequences give equal runs."""
    return tuple((sid, sum(map(itemgetter(1), run))) for sid, run in groupby(pairs, itemgetter(0)))


def _plan(h: EdgeColouredGraph) -> _Plan:
    """The compiled plan of h, built on first use and cached on h: from
    the class blocks a built forest carries, else vertex by vertex."""
    cached = h.__dict__.get("_plan")
    if cached is None:
        blocks = h.__dict__.get("_blocks")
        cached = _vertex_plan(h) if blocks is None else _block_plan(*blocks)
        object.__setattr__(h, "_plan", cached)
    return cached


def _compile(parent, sizes) -> tuple[tuple, list[int], tuple]:
    """Steps, each group's step and the (root step, count) pairs of a forest
    given as groups of like vertices, parents first: group g holds sizes[g]
    vertices, and parent[g] is None for roots, else (a, colour, m): each
    vertex of group a has m children in group g by edges of that colour."""
    children: defaultdict = defaultdict(dict)     # pending groups only
    group_step = [0] * len(sizes)
    step_ids: dict[tuple, int] = {}
    roots: dict[int, int] = {}
    for g in reversed(range(len(sizes))):
        step = tuple(sorted((c, child, m) for (c, child), m in children.pop(g, {}).items()))
        sid = group_step[g] = step_ids.setdefault(step, len(step_ids))
        if parent[g] is None:
            roots[sid] = roots.get(sid, 0) + sizes[g]
        else:
            a, colour, m = parent[g]
            children[a][colour, sid] = children[a].get((colour, sid), 0) + m
    return tuple(step_ids), group_step, tuple(roots.items())


def _vertex_plan(h: EdgeColouredGraph) -> _Plan:
    """The plan of any forest pattern: the forest_orders walk compiled as
    one-vertex groups, its steps mapped back to vertex order."""
    require_valid(h)
    walk = [pair for order in forest_orders(h) for pair in order]
    position = [0] * h.n
    for i, (v, _) in enumerate(walk):
        position[v] = i
    colour_of = {(u, v): int(c) for u, v, c in h.edges}
    parent = [p if p is None else (position[p], colour_of[(v, p) if v < p else (p, v)], 1)
              for v, p in walk]
    steps, walk_step, roots = _compile(parent, [1] * len(walk))
    return _Plan(steps, _runs((walk_step[i], 1) for i in position), roots)


def _block_plan(vblocks, eblocks) -> _Plan:
    """The plan of a forest laid out block by block, compiled in O(blocks).

    Reads only block fields: a vertex block's ``count``, and an edge
    block's ``colour``, ``count``, ``a_block``, ``b_block`` and ``fan``; the
    forest's vertices are numbered in block order.
    Each edge block gives the vertices of its head block a parent in its
    tail block: a fan hangs ``count`` heads on one tail vertex, a parallel
    block one head on each.  Heads follow their tails in block order, so
    the blocks are ``_compile``'s groups; the parentless blocks (their
    vertices the least of their components) hold the roots.
    """
    parent: list[Optional[tuple[int, int, int]]] = [None] * len(vblocks)
    for eb in eblocks:
        parent[eb.b_block] = (eb.a_block, int(eb.colour), eb.count if eb.fan else 1)
    sizes = [vb.count for vb in vblocks]
    steps, block_step, roots = _compile(parent, sizes)
    return _Plan(steps, _runs(zip(block_step, sizes)), roots)


def _step_tables(plan: _Plan, gadj) -> list[list[int]]:
    """table[w] per step: homomorphisms of that rooted subtree with its
    root mapped to host vertex w.  The host is given only by its per-colour
    neighbour lists, shaped as ``EdgeColouredGraph.adjacency()`` returns
    them, so the exhaustive sweep can evaluate hosts it never builds."""
    tables: list[list[int]] = []
    for step in plan.steps:
        table = None
        for colour, child, mult in step:
            get = tables[child].__getitem__
            sums = [sum(map(get, nbrs[colour])) for nbrs in gadj]
            if mult != 1:
                sums = [s**mult for s in sums]
            table = sums if table is None else [t * s for t, s in zip(table, sums)]
        tables.append([1] * len(gadj) if table is None else table)
    return tables


def _plan_hom(plan: _Plan, gadj) -> int:
    """Homomorphisms of a compiled pattern into the host with neighbour
    lists gadj: the root tables summed and raised to their counts."""
    tables = _step_tables(plan, gadj)
    total = 1
    for sid, count in plan.roots:
        total *= sum(tables[sid]) ** count
        if total == 0:
            return 0
    return total


def rooted_tables(h: EdgeColouredGraph, g: EdgeColouredGraph) -> list[list[int]]:
    """Per pattern vertex v, the table of homomorphisms of the subtree below
    v (rooted as in forest_orders) with v mapped to each host vertex.
    Vertices of equal subtree shape share one table object."""
    plan = _plan(h)
    require_valid(g)
    tables = _step_tables(plan, g.adjacency())
    return list(chain.from_iterable(repeat(tables[sid], count) for sid, count in plan.vertex_runs))


def hom_forest(h: EdgeColouredGraph, g: EdgeColouredGraph) -> int:
    """Count homomorphisms of an acyclic pattern via rooted tree DP.

    The pattern is compiled once (see _plan): identical child subtrees (same
    shape and same colour of the edge to the parent) share one table and are
    raised to their multiplicity, which keeps the DP cheap on the highly
    repetitive built forests.  No recursion, so any depth is fine.
    """
    plan = _plan(h)
    require_valid(g)
    return _plan_hom(plan, g.adjacency())


def is_forest(h: EdgeColouredGraph) -> bool:
    try:
        forest_orders(h)
    except NotAForest:
        return False
    return True


def hom(
    h: EdgeColouredGraph, g: EdgeColouredGraph, budget: int = BRUTE_BUDGET, method: str = "auto"
) -> int:
    """Forest DP when the pattern is acyclic, brute force otherwise;
    method "forest" or "brute" takes that counter alone (NotAForest for a
    cyclic pattern under "forest")."""
    if method == "brute":
        return hom_brute(h, g, budget=budget)
    if method not in ("auto", "forest"):
        raise ValueError(f"unknown method {method!r}")
    try:
        return hom_forest(h, g)
    except NotAForest:
        if method == "forest":
            raise
        return hom_brute(h, g, budget=budget)


def density(
    h: EdgeColouredGraph, g: EdgeColouredGraph, budget: int = BRUTE_BUDGET, method: str = "auto"
) -> Fraction:
    """Exact homomorphism density hom(H,G) / n^v(H), counted as ``hom``
    counts with the same method."""
    if g.n == 0:
        raise ValueError("density undefined for a host with no vertices")
    return Fraction(hom(h, g, budget=budget, method=method), g.n ** h.n)


def weighted_ab_bound(a: int, b: int, m: Fraction | int) -> Fraction:
    """Maximum of x^a y^b over x, y >= 0 with x + y <= m.

    Equals m^(a+b) a^a b^b / (a+b)^(a+b), attained at the proportional
    split x = am/(a+b), y = bm/(a+b).
    """
    if a <= 0 or b <= 0:
        raise ValueError("exponents must be positive integers")
    m = Fraction(m)
    if m <= 0:
        raise ValueError("m must be positive")
    return m ** (a + b) * Fraction(a**a * b**b, (a + b) ** (a + b))
