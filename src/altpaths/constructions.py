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
from typing import Iterator, NamedTuple, Optional

from .ecgraph import BLUE, RED, BudgetExceeded, Colour, EdgeColouredGraph, _WRITE_ROWS, np


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


@lru_cache(maxsize=64)
def _spine_table(length: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``[colour][j]`` is the spine neighbour of v_j across the edge of that
    colour, or -1 for none: the construction layer's one neighbour rule,
    read off the spine's edges."""
    steps = [[-1] * (length + 1) for _ in (RED, BLUE)]
    for i in range(length):
        steps[spine_colour(i)][i] = i + 1
        steps[spine_colour(i)][i + 1] = i
    return tuple(map(tuple, steps))


@lru_cache(maxsize=64)
def _spine_steps(length: int) -> np.ndarray:
    """``_spine_table(length)`` as a read-only int64 ``(2, length+1)``
    array, for the array-level checks."""
    table = np.array(_spine_table(length), dtype=np.int64)
    table.flags.writeable = False
    return table


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


class VertexBlock(NamedTuple):
    kind: str    # spine | xr | xb | zr | zrb | zb | zbb | yminus | yplus | aux
    j: int       # defining spine index of the class
    count: int
    phi: int     # common spine image of every vertex in the block


class EdgeBlock(NamedTuple):
    colour: Colour
    count: int
    a_block: int       # index into the vertex-block list
    b_block: int
    fan: bool          # True: endpoint a is fixed (a_block has count 1)


# Each pendant class is a colour walk from v_j: one vertex block per step,
# joined to the block before it (v_j itself for the first step) by an edge
# of the step's colour.  The blue-blue walk folds back to v_j by itself.
_PENDANT_WALKS = (
    ("xr", ((RED, "xr"),)),
    ("xb", ((BLUE, "xb"),)),
    ("zr", ((RED, "zr"), (BLUE, "zrb"))),
    ("zb", ((BLUE, "zb"), (BLUE, "zbb"))),
)


def class_blocks(length: int, plan: Plan) -> tuple[list[VertexBlock], list[EdgeBlock]]:
    """Expand a plan into vertex and edge class blocks.

    Vertex numbering follows block order: spine vertices 0..length first,
    then for each j ascending the classes xr, xb, zr, zrb, zb, zbb,
    yminus, yplus, aux.  Raises when a class cannot be mapped because the
    required spine neighbour does not exist.
    """
    steps = _spine_table(length)
    vblocks = [VertexBlock("spine", j, 1, j) for j in range(length + 1)]
    eblocks = [
        EdgeBlock(spine_colour(i), 1, i, i + 1, fan=True) for i in range(length)
    ]
    for j in sorted(plan):
        cc = plan[j]
        if not 0 <= j <= length:
            raise ValueError(f"class index {j} outside spine 0..{length}")
        if cc.y and j >= length:
            raise ValueError(f"no spine edge ({j},{j + 1}) for isolated-edge class")
        for field, walk in _PENDANT_WALKS:
            count = getattr(cc, field)
            if not count:
                continue
            at, block, prev = j, j, None
            for colour, kind in walk:
                at = steps[colour][at]
                if at < 0:
                    via = "spine" if prev is None else f"neighbour of {prev.name.lower()}"
                    raise ValueError(
                        f"{colour.name.lower()} {via} neighbour does not exist at spine vertex {j}"
                    )
                eblocks.append(EdgeBlock(colour, count, block, len(vblocks), fan=block <= length))
                vblocks.append(VertexBlock(kind, j, count, at))
                block, prev = len(vblocks) - 1, colour
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

# The role kinds in class-block order; a role's kind code is its index here.
ROLE_KINDS = ("spine", "xr", "xb", "zr", "zrb", "zb", "zbb", "yminus", "yplus", "aux")
_KIND_CODES = {kind: code for code, kind in enumerate(ROLE_KINDS)}
_PINNED_CODES = [_KIND_CODES[kind] for kind in ("spine", "yminus", "aux")]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LabelledForest:
    """A forest together with role labels and its spine homomorphism.

    A forest built by ``from_arrays`` keeps its roles and phi as int64
    arrays; the ``roles`` and ``phi`` tuples are made on first read and
    kept, so ``==`` and ``hash`` are those of the tuples.
    """

    graph: EdgeColouredGraph
    roles: tuple[tuple[str, int], ...]
    phi: tuple[int, ...]
    spine_edges: int

    def __getattr__(self, name: str):
        # Reached only for an attribute missing from the instance: the role
        # and phi tuples of an array-built forest before their first read.
        if name == "roles" and "_role_arr" in self.__dict__:
            kind, j = self.__dict__["_role_arr"].T.tolist()
            value = tuple(zip(map(ROLE_KINDS.__getitem__, kind), j))
        elif name == "phi" and "_phi_arr" in self.__dict__:
            value = tuple(self.__dict__["_phi_arr"].tolist())
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @staticmethod
    def from_arrays(
        graph: EdgeColouredGraph, roles: np.ndarray, phi: np.ndarray, spine_edges: int
    ) -> "LabelledForest":
        """Build a forest from int64 arrays, which are made read-only and
        kept: ``(n, 2)`` role rows (kind code, class index), where a kind
        code indexes ``ROLE_KINDS``, and the ``n`` spine images."""
        f = object.__new__(LabelledForest)
        object.__setattr__(f, "graph", graph)
        object.__setattr__(f, "spine_edges", spine_edges)
        object.__setattr__(f, "_role_arr", _frozen(roles))
        object.__setattr__(f, "_phi_arr", _frozen(phi))
        return f

    def role_array(self) -> np.ndarray:
        """The roles as a read-only int64 ``(n, 2)`` array of rows (kind
        code, class index), kind code -1 for a kind outside ``ROLE_KINDS``:
        the primary store of an array-built forest, else built once and
        cached."""
        cached = self.__dict__.get("_role_arr")
        if cached is None:
            rows = ((_KIND_CODES.get(kind, -1), j) for kind, j in self.roles)
            try:
                cached = np.fromiter(rows, np.dtype((np.int64, 2)), len(self.roles))
            except OverflowError:
                raise ValueError("role class index outside int64") from None
            object.__setattr__(self, "_role_arr", _frozen(cached))
        return cached

    def phi_array(self) -> np.ndarray:
        """phi as a read-only int64 array (the primary store of an
        array-built forest); ValueError for an image outside the spine."""
        phi = self.__dict__.get("_phi_arr")
        if phi is None:
            try:
                phi = np.fromiter(self.phi, dtype=np.int64, count=len(self.phi))
            except OverflowError:  # an image past int64 lies outside the spine too
                v = next(v for v, img in enumerate(self.phi) if not 0 <= img <= self.spine_edges)
                raise ValueError(
                    f"image {self.phi[v]} of vertex {v} outside spine 0..{self.spine_edges}"
                ) from None
            object.__setattr__(self, "_phi_arr", _frozen(phi))
        outside = np.flatnonzero((phi < 0) | (phi > self.spine_edges))
        if outside.size:
            v = outside[0]
            raise ValueError(f"image {phi[v]} of vertex {v} outside spine 0..{self.spine_edges}")
        return phi


# The array build and its phi self-check peak at about 95 traced bytes per
# edge (H_k at k = 8, 10 and 12), 49 of them the built forest.  No command
# reads a built forest's tuples: ``hom_forest`` compiles its plan from the
# class blocks and ``format_ecg`` and ``format_roles`` read the columns.  At
# k = 12 ``verify-ineq`` peaks at 155 MB RSS and ``construct`` at 285 MB, most
# of it in ``format_ecg``.  H_15 (3,690,271 edges) builds and H_16 (5,035,569)
# is refused.  The cap stays although a build at it needs only about 475 MB:
# moving it or ``covering._MATERIALISE_CAP`` would change exit codes and the
# method that ``verify-covering`` picks by default.
_MATERIALISE_EDGES = 5_000_000


def _edge_rows(eblocks: list[EdgeBlock], starts: np.ndarray, edge_count: int) -> np.ndarray:
    """The ``(u, v, colour)`` rows of every edge, block after block."""
    # Per edge block: edge count, first tail, tail step (0 for a fan, 1 for
    # parallel edges), first head and colour; an edge's offset in its block
    # advances the head, and the tail by the step.
    ecount, a0, step, b0, colour = np.array(
        [
            (eb.count, starts[eb.a_block], not eb.fan, starts[eb.b_block], eb.colour)
            for eb in eblocks
        ],
        dtype=np.int64,
    ).reshape(-1, 5).T
    offset = np.arange(edge_count) - np.repeat(np.cumsum(ecount) - ecount, ecount)
    rows = np.empty((edge_count, 3), dtype=np.int64)
    rows[:, 0] = np.repeat(a0, ecount) + np.repeat(step, ecount) * offset
    rows[:, 1] = np.repeat(b0, ecount) + offset
    rows[:, 2] = np.repeat(colour, ecount)
    return rows


def materialise(length: int, plan: Plan) -> LabelledForest:
    """Lay a plan out as an explicit labelled forest, vertices in block
    order, as arrays repeated block by block; BudgetExceeded for more than
    ``_MATERIALISE_EDGES`` edges."""
    vblocks, eblocks = class_blocks(length, plan)
    edge_count = sum(eb.count for eb in eblocks)
    if edge_count > _MATERIALISE_EDGES:
        raise BudgetExceeded(
            f"{edge_count} forest edges exceed the materialise cap of {_MATERIALISE_EDGES}",
            required=edge_count,
        )
    vcount = np.array([b.count for b in vblocks], dtype=np.int64)
    roles = np.array([(_KIND_CODES[b.kind], b.j) for b in vblocks], dtype=np.int64)
    roles = np.repeat(roles, vcount, axis=0)
    phi = np.repeat(np.array([b.phi for b in vblocks], dtype=np.int64), vcount)
    graph = EdgeColouredGraph.from_edge_array(
        len(phi), _edge_rows(eblocks, np.cumsum(vcount) - vcount, edge_count)
    )
    # The blocks name the forest's few distinct subtrees, so ``hom_forest``
    # compiles its plan from them (``homcount._block_plan``).
    object.__setattr__(graph, "_blocks", (vblocks, eblocks))
    forest = LabelledForest.from_arrays(graph, roles, phi, length)
    # Compared as arrays: no tuple of phi is built, and the int32 images are
    # cast to int64 a buffer at a time, not copied whole.
    if not np.array_equal(_forced_images(forest), phi):
        raise ValueError("materialised phi differs from the images its pins force")
    return forest


def homomorphism_violation(f: LabelledForest) -> Optional[tuple[int, int, Colour]]:
    """First forest edge, in edge order, whose phi-image is not a spine
    edge of its colour; ValueError for an image outside the spine."""
    phi = f.phi_array()
    e = f.graph.edge_array()
    bad = np.flatnonzero(_spine_steps(f.spine_edges)[e[:, 2], phi[e[:, 0]]] != phi[e[:, 1]])
    if not bad.size:
        return None
    u, v, c = e[bad[0]].tolist()
    return u, v, Colour(c)


def _half_edges(e: np.ndarray, n: int, index: type) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The half-edge table of an edge array: heads and int8 colours grouped
    by tail vertex, in half-edge order within a group (half-edge ``h`` leaves
    edge ``h`` from its ``u`` end, half-edge ``m + h`` from its ``v`` end),
    and the ``n + 1`` group offsets, all of integer type ``index``."""
    m = len(e)
    degree = np.bincount(e[:, 0], minlength=n) + np.bincount(e[:, 1], minlength=n)
    offsets = np.zeros(n + 1, dtype=index)
    np.cumsum(degree, out=offsets[1:])
    tails = np.empty(2 * m, dtype=index)
    tails[:m], tails[m:] = e[:, 0], e[:, 1]
    order = np.argsort(tails, kind="stable")
    del tails
    edge = np.remainder(order, m, out=np.empty(2 * m, dtype=index), casting="unsafe")
    del order
    # A head is its tail XOR its edge's u ^ v, and the tails in group order
    # are the vertices, each repeated by its degree.
    heads = np.bitwise_xor(e[:, 0], e[:, 1], out=np.empty(m, dtype=index), casting="unsafe")[edge]
    colours = e[:, 2].astype(np.int8)[edge]
    del edge
    heads ^= np.repeat(np.arange(n, dtype=index), degree)
    return heads, colours, offsets


def recompute_phi(f: LabelledForest) -> tuple[int, ...]:
    """Re-derive phi by constraint propagation from the pinned vertices;
    see ``_forced_images``, whose images this returns as a tuple."""
    return tuple(_forced_images(f).tolist())


def _forced_images(f: LabelledForest) -> np.ndarray:
    """Every vertex's spine image, forced from the pinned vertices.

    Pins: spine vertices to themselves, each yminus vertex to its class
    index, and aux vertices (which have no incident edges) to theirs.
    Every other image must be forced through a colour-unique spine
    neighbour; any residual freedom or contradiction is an error.

    The walk goes round by round over half-edges grouped by their tail
    vertex: each round reads only the half-edges of the vertices first
    forced in the round before, so every half-edge is read once.  Indices
    and images are int32 whenever the vertex count, twice the edge count
    and the spine length are all below 2**31.
    """
    length = f.spine_edges
    n = f.graph.n
    e = f.graph.edge_array()
    index = np.int32 if max(n, 2 * len(e), length) < 2**31 else np.int64
    steps = _spine_steps(length).astype(index)
    image = np.full(n, -1, dtype=index)
    roles = f.role_array()
    pinned = np.flatnonzero(np.isin(roles[:, 0], _PINNED_CODES))
    at = roles[pinned, 1]
    outside = np.flatnonzero((at < 0) | (at > length))
    if outside.size:
        i = outside[0]
        raise ValueError(f"pinned image {at[i]} of vertex {pinned[i]} outside spine 0..{length}")
    image[pinned] = at
    heads, colours, offsets = _half_edges(e, n, index)
    slot = np.empty(n, dtype=index)
    frontier = np.flatnonzero(image >= 0)
    while frontier.size:
        # The frontier's half-edges, group after group (np.repeat takes its
        # counts as intp).  Each temporary is dropped once read, so a round
        # holds few arrays of its half-edge count at once.
        first = offsets[frontier]
        degree = np.subtract(offsets[frontier + 1], first, dtype=np.intp)
        at = np.repeat(image[frontier], degree)
        del frontier
        first -= np.cumsum(degree, dtype=index)
        first += degree
        half = np.repeat(first, degree)
        del first, degree
        half += np.arange(half.size, dtype=index)
        w, c = heads[half], colours[half]
        del half
        forced = steps[c, at]
        stuck = np.flatnonzero(forced < 0)
        if stuck.size:
            i = stuck[0]
            raise ValueError(f"no spine edge of colour {Colour(c[i]).letter} at image {at[i]}")
        del c, at
        fresh = image[w] < 0
        new = w[fresh]
        image[new] = forced[fresh]
        del fresh
        clash = np.flatnonzero(image[w] != forced)
        if clash.size:
            raise ValueError(f"contradictory forced images for vertex {w[clash[0]]}")
        del w, forced
        # Deduplicate in linear time: of the positions that write one vertex,
        # exactly one finds its own index stored there afterwards.
        rank = np.arange(new.size, dtype=index)
        slot[new] = rank
        frontier = new[slot[new] == rank]
        del new, rank
    unassigned = np.flatnonzero(image < 0)
    if unassigned.size:
        raise ValueError(f"spine image not forced for vertices {unassigned[:5].tolist()}")
    return image


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

def _roles_pieces(f: LabelledForest) -> Iterator[str]:
    """The ``.roles`` text of a forest in pieces of at most ``_WRITE_ROWS``
    lines, formatted from the columns of ``role_array()`` and
    ``phi_array()``, so no role or phi tuple is built.  ValueError, before
    the first piece, for what ``parse_roles`` would reject: a role outside
    ``ROLE_KINDS`` or an image outside the spine."""
    roles = f.role_array()
    bad = np.flatnonzero((roles[:, 0] < 0) | (roles[:, 0] >= len(ROLE_KINDS)))
    if bad.size:
        raise ValueError(f"unknown role for vertex {bad[0]}, expected one of {ROLE_KINDS}")
    phi = f.phi_array()
    if not len(phi):
        yield "\n"  # the file of a forest with no vertex is one blank line
    for start in range(0, len(phi), _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        kind, j = roles[start:stop].T.tolist()
        names = map(ROLE_KINDS.__getitem__, kind)
        ids = range(start, start + len(j))
        yield "".join(map("v {} {} {} {}\n".format, ids, names, j, phi[start:stop].tolist()))


def format_roles(f: LabelledForest) -> str:
    """The whole ``.roles`` text of a forest, as ``write_roles`` writes it."""
    return "".join(_roles_pieces(f))


def write_roles(f: LabelledForest, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_roles_pieces(f))


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
        if parts[2] not in _KIND_CODES:
            raise ValueError(f"unknown role {parts[2]!r} for vertex {v}, expected one of {ROLE_KINDS}")
        roles[v] = (parts[2], int(parts[3]))
        phi[v] = int(parts[4])
    missing = [v for v in range(graph.n) if roles[v] is None]
    if missing:
        raise ValueError(f"missing role lines for vertices {missing[:5]}")
    spine_edges = sum(1 for r in roles if r is not None and r[0] == "spine") - 1
    forest = LabelledForest(graph, tuple(roles), tuple(phi), spine_edges)  # type: ignore[arg-type]
    forest.phi_array()
    return forest
