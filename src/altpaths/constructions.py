"""Builders for alternating paths and the pendant-decorated spine forests.

The odd-spine forest is driven by three symmetric integer vectors (x, y, z):
x_j pendant-leaf units and z_j pendant-2-path units at spine vertex v_j, and
y_j disjoint copies of the spine edge v_j v_{j+1}.  One unit of x_j means
``half+1`` red leaves and ``half`` blue leaves where the red:blue ratio is
(k+1):k, and similarly for the other classes; see ``plan_odd``.

Construction plans are lists of vertex/edge class blocks.  The same plan
feeds the explicit graph materialiser and the blockwise covering tallies, so
there is exactly one encoding of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Optional

import numpy as np

from .ecgraph import BLUE, RED, Colour, EdgeColouredGraph


def exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} not divisible by {den}")
    return q


# -- sequence vectors ------------------------------------------------------

@dataclass(frozen=True)
class SequenceTriple:
    """The integer vectors controlling the odd-spine construction.

    x and z are indexed 0..2k+1, y is indexed 0..2k; reads outside those
    ranges count as zero.  All three are symmetric about the spine midpoint.
    """

    k: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]

    def x_at(self, i: int) -> int:
        return self.x[i] if 0 <= i < len(self.x) else 0

    def y_at(self, i: int) -> int:
        return self.y[i] if 0 <= i < len(self.y) else 0

    def z_at(self, i: int) -> int:
        return self.z[i] if 0 <= i < len(self.z) else 0

    def total(self) -> int:
        return sum(self.x) + sum(self.y) + sum(self.z)

    def problems(self) -> Optional[str]:
        k = self.k
        if k < 1:
            return "k must be >= 1"
        if len(self.x) != 2 * k + 2 or len(self.z) != 2 * k + 2 or len(self.y) != 2 * k + 1:
            return "vector lengths must be 2k+2, 2k+1, 2k+2"
        if any(v < 0 for v in self.x + self.y + self.z):
            return "entries must be nonnegative"
        for i in range(k + 1):
            if self.x[i] != self.x[2 * k + 1 - i]:
                return f"x not symmetric at index {i}"
            if self.z[i] != self.z[2 * k + 1 - i]:
                return f"z not symmetric at index {i}"
            if self.y[i] != self.y[2 * k - i]:
                return f"y not symmetric at index {i}"
        if self.x[0] != 0:
            return "x_0 must be 0"
        return None

    def require_valid(self) -> None:
        problem = self.problems()
        if problem is not None:
            raise ValueError(f"invalid sequence triple: {problem}")


def sequences(k: int) -> SequenceTriple:
    """The defining sequence vectors for each k, with symmetric completion.

    Small k are tabulated; from k >= 4 the entries follow period-4 patterns
    in the index with a parity-dependent patch near the spine midpoint.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = [0] * (2 * k + 2)
    y = [0] * (2 * k + 1)
    z = [0] * (2 * k + 2)

    if k == 1:
        x[1] = 4
        y[0] = y[1] = 2
    elif k == 2:
        x[1], x[2] = 16, 10
        y[0], y[1], y[2] = 14, 1, 0
        z[2] = 5
    elif k == 3:
        x[1], x[2], x[3] = 48, 40, 28
        y[0], y[1], y[2], y[3] = 36, 4, 2, 0
        z[3] = 14
    elif k % 2 == 1:
        for i in range((k - 5) // 4 + 1):
            x[4 * i] = 0 if i == 0 else (k + 1) * (k * k - i)
            x[4 * i + 1] = (k + 1) * (k * k + k - i)
            x[4 * i + 2] = (k + 1) * (k * k + i)
            x[4 * i + 3] = (k + 1) * (k * k - k + i)
            y[4 * i] = k * k * (k + 1) if i == 0 else i
            y[4 * i + 2] = k - i
            z[4 * i] = (2 * k + 1) * i
            z[4 * i + 3] = (2 * k + 1) * (k - i)
        if k % 4 == 1:
            x[k - 1] = exact_div(4 * k**3 + 3 * k**2 + 1, 4)
            x[k] = exact_div(4 * k**3 + 7 * k**2 + 4 * k + 1, 4)
            y[k - 1] = exact_div(k - 1, 4)
            y[k] = exact_div((k + 1) ** 2, 2)
            z[k - 1] = exact_div((k - 1) * (2 * k + 1), 4)
            z[k] = 0
        else:
            x[k - 3] = exact_div(4 * k**3 + 3 * k**2 + 2 * k + 3, 4)
            x[k - 2] = exact_div(4 * k**3 + 7 * k**2 + 6 * k + 3, 4)
            x[k - 1] = exact_div(2 * k**3 + 3 * k**2 - 1, 2)
            x[k] = exact_div(2 * k**3 + k**2 - 2 * k - 1, 2)
            y[k - 3] = exact_div(k - 3, 4)
            y[k - 2] = exact_div((k + 1) ** 2, 4)
            y[k - 1] = exact_div(k + 1, 2)
            y[k] = 0
            z[k - 3] = exact_div((2 * k + 1) * (k - 3), 4)
            z[k] = exact_div(2 * k**2 + 3 * k + 1, 2)
    else:
        for i in range((k - 4) // 4 + 1):
            x[4 * i] = 0 if i == 0 else k * (k * k + k + i)
            x[4 * i + 1] = k * ((k + 1) ** 2 - i)
            x[4 * i + 2] = k * (k * k + k - i)
            x[4 * i + 3] = k * (k * k + i)
            y[4 * i] = k * k * (k + 1) if i == 0 else 0
            y[4 * i + 1] = i
            y[4 * i + 3] = k - i
            z[4 * i + 2] = (2 * k + 1) * i
            z[4 * i + 3] = (2 * k + 1) * (k - i)
        if k % 4 == 0:
            x[k] = exact_div(k * k * (4 * k + 5), 4)
            y[k] = exact_div((k + 2) * k, 2)
            z[k] = 0
        else:
            x[k - 2] = exact_div((4 * k**2 + 5 * k - 2) * k, 4)
            x[k - 1] = exact_div((2 * k**2 + 3 * k + 2) * k, 2)
            x[k] = exact_div(k * k * (2 * k + 1), 2)
            y[k - 2] = exact_div((k + 2) * k, 4)
            y[k - 1] = k // 2
            y[k] = 0
            z[k] = exact_div((2 * k + 1) * k, 2)

    for i in range(k + 1):
        x[2 * k + 1 - i] = x[i]
        z[2 * k + 1 - i] = z[i]
        y[2 * k - i] = y[i]
    triple = SequenceTriple(k, tuple(x), tuple(y), tuple(z))
    triple.require_valid()
    return triple


# -- spine paths -----------------------------------------------------------

def spine_colour(i: int) -> Colour:
    """Colour of spine edge (v_i, v_{i+1}): red for even i, blue for odd."""
    return RED if i % 2 == 0 else BLUE


def alternating_path(length: int) -> EdgeColouredGraph:
    """Path v_0..v_length with colours alternating, first edge red."""
    if length < 1:
        raise ValueError("path length must be >= 1")
    return EdgeColouredGraph.make(
        length + 1, [(i, i + 1, spine_colour(i)) for i in range(length)]
    )


def red_neighbour(j: int, length: int) -> Optional[int]:
    cand = j + 1 if j % 2 == 0 else j - 1
    return cand if 0 <= cand <= length else None


def blue_neighbour(j: int, length: int) -> Optional[int]:
    cand = j + 1 if j % 2 == 1 else j - 1
    return cand if 0 <= cand <= length else None


@lru_cache(maxsize=64)
def _spine_steps(length: int) -> np.ndarray:
    """Read-only ``(2, length+1)`` table: ``[colour, j]`` is the spine
    neighbour of v_j across the edge of that colour, or -1 for none."""
    steps = np.full((2, length + 1), -1, dtype=np.int64)
    for j in range(length + 1):
        for colour, step in ((RED, red_neighbour), (BLUE, blue_neighbour)):
            nb = step(j, length)
            if nb is not None:
                steps[colour, j] = nb
    steps.flags.writeable = False
    return steps


# -- construction plans ----------------------------------------------------

@dataclass(frozen=True)
class ClassCounts:
    """Counts of decoration classes hung on (or assigned to) spine vertex j."""

    xr: int = 0   # red pendant leaves at v_j
    xb: int = 0   # blue pendant leaves at v_j
    zr: int = 0   # pendant 2-paths at v_j, first edge red, second blue
    zb: int = 0   # pendant 2-paths at v_j, both edges blue
    y: int = 0    # disjoint copies of the spine edge (v_j, v_{j+1})
    aux: int = 0  # isolated vertices whose spine image is v_j


Plan = dict[int, ClassCounts]


@dataclass(frozen=True)
class VertexBlock:
    kind: str    # spine | xr | xb | zr | zrb | zb | zbb | yminus | yplus | aux
    j: int       # defining spine index of the class
    count: int
    phi: int     # common spine image of every vertex in the block


@dataclass(frozen=True)
class EdgeBlock:
    colour: Colour
    count: int
    a_block: int       # index into the vertex-block list
    b_block: int
    fan: bool          # True: endpoint a is fixed (a_block has count 1)


def class_blocks(length: int, plan: Plan) -> tuple[list[VertexBlock], list[EdgeBlock]]:
    """Expand a plan into vertex and edge class blocks.

    Vertex numbering follows block order: spine vertices 0..length first,
    then for each j ascending the classes xr, xb, zr, zrb, zb, zbb,
    yminus, yplus, aux.  Raises when a class cannot be mapped because the
    required spine neighbour does not exist.
    """
    vblocks = [VertexBlock("spine", j, 1, j) for j in range(length + 1)]
    eblocks = [
        EdgeBlock(spine_colour(i), 1, i, i + 1, fan=True) for i in range(length)
    ]

    def need(value: Optional[int], what: str, j: int) -> int:
        if value is None:
            raise ValueError(f"{what} does not exist at spine vertex {j}")
        return value

    for j in sorted(plan):
        cc = plan[j]
        if not 0 <= j <= length:
            raise ValueError(f"class index {j} outside spine 0..{length}")
        if cc.y and j >= length:
            raise ValueError(f"no spine edge ({j},{j + 1}) for isolated-edge class")
        if cc.xr:
            r = need(red_neighbour(j, length), "red spine neighbour", j)
            vblocks.append(VertexBlock("xr", j, cc.xr, r))
            eblocks.append(EdgeBlock(RED, cc.xr, j, len(vblocks) - 1, fan=True))
        if cc.xb:
            b = need(blue_neighbour(j, length), "blue spine neighbour", j)
            vblocks.append(VertexBlock("xb", j, cc.xb, b))
            eblocks.append(EdgeBlock(BLUE, cc.xb, j, len(vblocks) - 1, fan=True))
        if cc.zr:
            r = need(red_neighbour(j, length), "red spine neighbour", j)
            rb = need(blue_neighbour(r, length), "blue neighbour of red neighbour", j)
            vblocks.append(VertexBlock("zr", j, cc.zr, r))
            zr_idx = len(vblocks) - 1
            vblocks.append(VertexBlock("zrb", j, cc.zr, rb))
            eblocks.append(EdgeBlock(RED, cc.zr, j, zr_idx, fan=True))
            eblocks.append(EdgeBlock(BLUE, cc.zr, zr_idx, zr_idx + 1, fan=False))
        if cc.zb:
            b = need(blue_neighbour(j, length), "blue spine neighbour", j)
            vblocks.append(VertexBlock("zb", j, cc.zb, b))
            zb_idx = len(vblocks) - 1
            # The second blue edge folds back: the only blue edge at the
            # image of the middle vertex is the spine edge to v_j itself.
            vblocks.append(VertexBlock("zbb", j, cc.zb, j))
            eblocks.append(EdgeBlock(BLUE, cc.zb, j, zb_idx, fan=True))
            eblocks.append(EdgeBlock(BLUE, cc.zb, zb_idx, zb_idx + 1, fan=False))
        if cc.y:
            vblocks.append(VertexBlock("yminus", j, cc.y, j))
            ym_idx = len(vblocks) - 1
            vblocks.append(VertexBlock("yplus", j, cc.y, j + 1))
            eblocks.append(EdgeBlock(spine_colour(j), cc.y, ym_idx, ym_idx + 1, fan=False))
        if cc.aux:
            vblocks.append(VertexBlock("aux", j, cc.aux, j))
    return vblocks, eblocks


def plan_sizes(length: int, plan: Plan) -> tuple[int, int, int, int]:
    """(vertices, edges, red edges, blue edges) of the planned forest."""
    vblocks, eblocks = class_blocks(length, plan)
    v = sum(b.count for b in vblocks)
    e_r = sum(b.count for b in eblocks if b.colour == RED)
    e_b = sum(b.count for b in eblocks if b.colour == BLUE)
    return v, e_r + e_b, e_r, e_b


def plan_odd(k: int, s: SequenceTriple) -> Plan:
    """Decoration plan of the odd-spine forest for sequence triple s.

    Unit multiplicities: x_j gives (k+1) red and k blue leaves, z_j gives
    (k+1) red-blue and k blue-blue pendant paths, y_j gives (k+1) spine-edge
    copies.
    """
    s.require_valid()
    if s.k != k:
        raise ValueError(f"sequence triple is for k={s.k}, not k={k}")
    plan: Plan = {}
    for j in range(2 * k + 2):
        cc = ClassCounts(
            xr=(k + 1) * s.x_at(j),
            xb=k * s.x_at(j),
            zr=(k + 1) * s.z_at(j),
            zb=k * s.z_at(j),
            y=(k + 1) * s.y_at(j) if j <= 2 * k else 0,
        )
        if (cc.xr, cc.xb, cc.zr, cc.zb, cc.y) != (0, 0, 0, 0, 0):
            plan[j] = cc
    return plan


# -- labelled forests ------------------------------------------------------

@dataclass(frozen=True)
class LabelledForest:
    """A forest together with role labels and its spine homomorphism."""

    graph: EdgeColouredGraph
    roles: tuple[tuple[str, int], ...]
    phi: tuple[int, ...]
    spine_edges: int

    def spine(self) -> EdgeColouredGraph:
        return alternating_path(self.spine_edges)

    def k(self) -> int:
        if self.spine_edges % 2 == 0:
            raise ValueError("even spine has no odd-parameter k")
        return (self.spine_edges - 1) // 2

    def phi_array(self) -> np.ndarray:
        """phi as an int64 array; ValueError for an image outside the spine."""
        phi = np.fromiter(self.phi, dtype=np.int64, count=len(self.phi))
        outside = np.flatnonzero((phi < 0) | (phi > self.spine_edges))
        if outside.size:
            v = int(outside[0])
            raise ValueError(
                f"image {self.phi[v]} of vertex {v} outside spine 0..{self.spine_edges}"
            )
        return phi


def materialise(length: int, plan: Plan) -> LabelledForest:
    vblocks, eblocks = class_blocks(length, plan)
    starts = []
    total = 0
    for b in vblocks:
        starts.append(total)
        total += b.count
    roles: list[tuple[str, int]] = []
    phi: list[int] = []
    for b in vblocks:
        roles.extend([(b.kind, b.j)] * b.count)
        phi.extend([b.phi] * b.count)
    edges = []
    for eb in eblocks:
        a0 = starts[eb.a_block]
        b0 = starts[eb.b_block]
        tails = repeat(a0, eb.count) if eb.fan else range(a0, a0 + eb.count)
        edges.extend(zip(tails, range(b0, b0 + eb.count), repeat(eb.colour, eb.count)))
    graph = EdgeColouredGraph.make(total, edges)
    forest = LabelledForest(graph, tuple(roles), tuple(phi), length)
    if recompute_phi(forest) != forest.phi:
        raise ValueError("materialised phi differs from the images its pins force")
    return forest


def homomorphism_violation(f: LabelledForest) -> Optional[tuple[int, int, Colour]]:
    """First forest edge, in edge order, whose phi-image is not a spine
    edge of its colour; ValueError for an image outside the spine."""
    phi = f.phi_array()
    e = f.graph.edge_array()
    bad = np.flatnonzero(_spine_steps(f.spine_edges)[e[:, 2], phi[e[:, 0]]] != phi[e[:, 1]])
    return f.graph.edges[bad[0]] if bad.size else None


_PINNED_KINDS = frozenset(("spine", "yminus", "aux"))


def recompute_phi(f: LabelledForest) -> tuple[int, ...]:
    """Re-derive phi by constraint propagation from the pinned vertices.

    Pins: spine vertices to themselves, each yminus vertex to its class
    index, and aux vertices (which have no incident edges) to theirs.
    Every other image must be forced through a colour-unique spine
    neighbour; any residual freedom or contradiction is an error.

    The walk goes round by round over half-edges grouped by their tail
    vertex: each round reads only the half-edges of the vertices first
    forced in the round before, so every half-edge is read once.
    """
    length = f.spine_edges
    n = f.graph.n
    steps = _spine_steps(length)
    image = np.full(n, -1, dtype=np.int64)
    pins = [(v, j) for v, (kind, j) in enumerate(f.roles) if kind in _PINNED_KINDS]
    for v, j in pins:
        if not 0 <= j <= length:
            raise ValueError(f"pinned image {j} of vertex {v} outside spine 0..{length}")
    if pins:
        pinned, at = np.array(pins, dtype=np.int64).T
        image[pinned] = at
    e = f.graph.edge_array()
    tails = np.concatenate([e[:, 0], e[:, 1]])
    order = np.argsort(tails, kind="stable")
    heads = np.concatenate([e[:, 1], e[:, 0]])[order]
    colours = np.concatenate([e[:, 2], e[:, 2]])[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=offsets[1:])
    slot = np.empty(n, dtype=np.int64)
    frontier = np.flatnonzero(image >= 0)
    while frontier.size:
        first = offsets[frontier]
        degree = offsets[frontier + 1] - first
        ends = np.cumsum(degree)
        half = np.arange(ends[-1]) + np.repeat(first - ends + degree, degree)
        w, c = heads[half], colours[half]
        at = np.repeat(image[frontier], degree)
        forced = steps[c, at]
        stuck = np.flatnonzero(forced < 0)
        if stuck.size:
            i = stuck[0]
            raise ValueError(f"no spine edge of colour {Colour(c[i]).letter} at image {at[i]}")
        fresh = image[w] < 0
        new = w[fresh]
        image[new] = forced[fresh]
        clash = np.flatnonzero(image[w] != forced)
        if clash.size:
            raise ValueError(f"contradictory forced images for vertex {w[clash[0]]}")
        # Deduplicate in linear time: of the positions that write one vertex,
        # exactly one finds its own index stored there afterwards.
        rank = np.arange(new.size)
        slot[new] = rank
        frontier = new[slot[new] == rank]
    unassigned = np.flatnonzero(image < 0)
    if unassigned.size:
        raise ValueError(f"spine image not forced for vertices {unassigned[:5].tolist()}")
    return tuple(image.tolist())


def build_h_odd(k: int) -> LabelledForest:
    """The decorated odd spine built from the defining sequence vectors."""
    return materialise(2 * k + 1, plan_odd(k, sequences(k)))


def build_h_even(k: int) -> LabelledForest:
    """Decorated even spine: one red and one blue leaf at each internal
    vertex, plus one isolated edge of each colour.

    The spine images of the two isolated edges are only constrained by
    colour; the choice is made by exact search for the assignment whose
    covering is uniform.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    length = 2 * k
    base: Plan = {j: ClassCounts(xr=1, xb=1) for j in range(1, length)}
    red_slots = [i for i in range(length) if spine_colour(i) == RED]
    blue_slots = [i for i in range(length) if spine_colour(i) == BLUE]
    from .covering import cover_profile  # local import to avoid a cycle

    for er in red_slots:
        for eb in blue_slots:
            plan = dict(base)
            for slot in (er, eb):
                cur = plan.get(slot, ClassCounts())
                plan[slot] = ClassCounts(cur.xr, cur.xb, cur.zr, cur.zb, cur.y + 1, cur.aux)
            forest = materialise(length, plan)
            profile = cover_profile(forest)
            if profile.uniform_multiplicity is not None:
                return forest
    raise ValueError(f"no isolated-edge assignment gives uniform covering for k={k}")


# -- figure fixtures -------------------------------------------------------

FIXTURE_NAMES = ("H3_small", "H3_large", "H5")


def fixture(name: str) -> LabelledForest:
    """The three hand-drawn forests with uniform coverings 3, 7 and 76."""
    if name == "H3_small":
        plan = {
            1: ClassCounts(xr=2, xb=1, aux=1),
            2: ClassCounts(xr=2, xb=1, aux=1),
        }
        return materialise(3, plan)
    if name == "H3_large":
        plan = {
            1: ClassCounts(xr=6, xb=3, y=1, aux=3),
            2: ClassCounts(xr=4, xb=2, y=2),
        }
        return materialise(3, plan)
    if name == "H5":
        plan = {
            0: ClassCounts(y=36),
            1: ClassCounts(xr=39, xb=26),
            2: ClassCounts(xr=21, xb=14, zr=15, zb=10, y=3),
            3: ClassCounts(xr=21, xb=14, zr=15, zb=10),
            4: ClassCounts(xr=39, xb=26, y=36),
        }
        return materialise(5, plan)
    raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")


# -- sidecar serialization -------------------------------------------------

def format_roles(f: LabelledForest) -> str:
    lines = [
        f"v {v} {kind} {j} {f.phi[v]}" for v, (kind, j) in enumerate(f.roles)
    ]
    return "\n".join(lines) + "\n"


def parse_roles(text: str, graph: EdgeColouredGraph) -> LabelledForest:
    roles: list[Optional[tuple[str, int]]] = [None] * graph.n
    phi: list[Optional[int]] = [None] * graph.n
    for ln in text.splitlines():
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 5 or parts[0] != "v":
            raise ValueError(f"malformed role line {ln!r}")
        v = int(parts[1])
        if not 0 <= v < graph.n:
            raise ValueError(f"role line for out-of-range vertex {v}")
        roles[v] = (parts[2], int(parts[3]))
        phi[v] = int(parts[4])
    missing = [v for v in range(graph.n) if roles[v] is None]
    if missing:
        raise ValueError(f"missing role lines for vertices {missing[:5]}")
    spine_edges = sum(1 for r in roles if r is not None and r[0] == "spine") - 1
    for v, img in enumerate(phi):
        if not 0 <= img <= spine_edges:  # type: ignore[operator]
            raise ValueError(f"image {img} of vertex {v} outside spine 0..{spine_edges}")
    return LabelledForest(graph, tuple(roles), tuple(phi), spine_edges)  # type: ignore[arg-type]
