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


def class_blocks_oracle(length: int, plan):
    """Reference expansion of a plan into vertex and edge class blocks.

    One hand-written branch per decoration class, with spine neighbours
    worked out from index parity alone: the edge (v_i, v_{i+1}) is red for
    even i and blue for odd i.
    """
    from altpaths.constructions import EdgeBlock, VertexBlock

    def colour_of(i: int) -> Colour:
        return RED if i % 2 == 0 else BLUE

    def red_nb(j: int):
        cand = j + 1 if j % 2 == 0 else j - 1
        return cand if 0 <= cand <= length else None

    def blue_nb(j: int):
        cand = j + 1 if j % 2 == 1 else j - 1
        return cand if 0 <= cand <= length else None

    def need(value, what: str, j: int) -> int:
        if value is None:
            raise ValueError(f"{what} does not exist at spine vertex {j}")
        return value

    vblocks = [VertexBlock("spine", j, 1, j) for j in range(length + 1)]
    eblocks = [EdgeBlock(colour_of(i), 1, i, i + 1, fan=True) for i in range(length)]
    for j in sorted(plan):
        cc = plan[j]
        if not 0 <= j <= length:
            raise ValueError(f"class index {j} outside spine 0..{length}")
        if cc.y and j >= length:
            raise ValueError(f"no spine edge ({j},{j + 1}) for isolated-edge class")
        if cc.xr:
            r = need(red_nb(j), "red spine neighbour", j)
            vblocks.append(VertexBlock("xr", j, cc.xr, r))
            eblocks.append(EdgeBlock(RED, cc.xr, j, len(vblocks) - 1, fan=True))
        if cc.xb:
            b = need(blue_nb(j), "blue spine neighbour", j)
            vblocks.append(VertexBlock("xb", j, cc.xb, b))
            eblocks.append(EdgeBlock(BLUE, cc.xb, j, len(vblocks) - 1, fan=True))
        if cc.zr:
            r = need(red_nb(j), "red spine neighbour", j)
            rb = need(blue_nb(r), "blue neighbour of red neighbour", j)
            vblocks.append(VertexBlock("zr", j, cc.zr, r))
            zr_idx = len(vblocks) - 1
            vblocks.append(VertexBlock("zrb", j, cc.zr, rb))
            eblocks.append(EdgeBlock(RED, cc.zr, j, zr_idx, fan=True))
            eblocks.append(EdgeBlock(BLUE, cc.zr, zr_idx, zr_idx + 1, fan=False))
        if cc.zb:
            b = need(blue_nb(j), "blue spine neighbour", j)
            vblocks.append(VertexBlock("zb", j, cc.zb, b))
            zb_idx = len(vblocks) - 1
            vblocks.append(VertexBlock("zbb", j, cc.zb, j))
            eblocks.append(EdgeBlock(BLUE, cc.zb, j, zb_idx, fan=True))
            eblocks.append(EdgeBlock(BLUE, cc.zb, zb_idx, zb_idx + 1, fan=False))
        if cc.y:
            vblocks.append(VertexBlock("yminus", j, cc.y, j))
            ym_idx = len(vblocks) - 1
            vblocks.append(VertexBlock("yplus", j, cc.y, j + 1))
            eblocks.append(EdgeBlock(colour_of(j), cc.y, ym_idx, ym_idx + 1, fan=False))
        if cc.aux:
            vblocks.append(VertexBlock("aux", j, cc.aux, j))
    return vblocks, eblocks


def random_plan(rng: random.Random, length: int):
    """A random plan on a spine of the given length: class indices on the
    spine 0..length (so y may sit at j = length), and one in ten at -1 or
    length+1 outside it; each class count is 0 with probability 1/2, else
    1..3."""
    from altpaths.constructions import ClassCounts

    plan = {}
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, length) if rng.random() < 0.9 else rng.choice((-1, length + 1))
        plan[j] = ClassCounts(*(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(6)))
    return plan


def glued_distribution_oracle(h, p: EdgeColouredGraph, g: EdgeColouredGraph, guard: int):
    """Reference gluing with one Fraction per state and one dict per
    assignment.

    Components are walked in forest_orders order; a root follows the
    marginal of its spine image and every other vertex the conditional law
    of its image given its parent's.  The guard is checked after every
    vertex and after every component, as in the production gluing, and the
    components are crossed first to last, earlier ones outermost.
    """
    from altpaths.constructions import homomorphism_violation
    from altpaths.ecgraph import BudgetExceeded
    from altpaths.entropy import DiscreteDistribution, PathMarginals
    from altpaths.homcount import forest_orders

    bad = homomorphism_violation(h)
    if bad is not None:
        raise ValueError(f"phi is not a homomorphism: edge {bad}")
    marg = PathMarginals(p, g)
    if marg.length != h.spine_edges:
        raise ValueError("path length does not match the forest's spine")

    component_supports = []
    total_states = 1
    for order in forest_orders(h.graph):
        root, _ = order[0]
        states = [
            ({root: w}, Fraction(cnt, marg.hom))
            for w, cnt in marg.single_counts[h.phi[root]].items()
        ]
        for v, parent in order[1:]:
            cond = marg.conditional(h.phi[v], h.phi[parent])
            new_states = []
            for assignment, prob in states:
                for b, q in cond[assignment[parent]].items():
                    ext = dict(assignment)
                    ext[v] = b
                    new_states.append((ext, prob * q))
            states = new_states
            if len(states) * total_states > guard:
                raise BudgetExceeded(
                    f"glued support exceeds guard {guard}",
                    required=len(states) * total_states,
                )
        component_supports.append(states)
        total_states *= len(states)
        if total_states > guard:
            raise BudgetExceeded(f"glued support exceeds guard {guard}", required=total_states)

    full = [({}, Fraction(1))]
    for states in component_supports:
        full = [
            ({**acc, **assignment}, p_acc * p_new)
            for acc, p_acc in full
            for assignment, p_new in states
        ]
    out = {}
    for assignment, prob in full:
        key = tuple(assignment[v] for v in range(h.graph.n))
        out[key] = out.get(key, Fraction(0)) + prob
    return DiscreteDistribution(out)
