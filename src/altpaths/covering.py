"""Covering profiles of spine homomorphisms and their closed forms.

A covering profile tallies, for each spine vertex and spine edge, how many
forest vertices/edges map onto it.  The closed-form evaluators express the
same counts (excluding the spine itself) as linear functionals of (x, y, z);
``verify_covering`` cross-checks formula against direct count and against
the common target k(k+1)^2(2k+1).

The linear functionals are built once as coefficient rows and reused
verbatim by the LP feasibility search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .constructions import (
    LabelledForest,
    Plan,
    SequenceTriple,
    class_blocks,
    homomorphism_violation,
    materialise,
    plan_odd,
    sequences,
)
from .ecgraph import _WRITE_ROWS, np, parallel_map

# Coefficient rows are maps (series, index) -> coefficient with
# series in {"x", "y", "z"}; out-of-range indexes are dropped.
Row = dict[tuple[str, int], int]


def cover_target(k: int) -> int:
    return k * (k + 1) ** 2 * (2 * k + 1)


def _keep(k: int, terms: Iterable[tuple[str, int, int]]) -> Row:
    # No row names a (series, index) twice (tests/test_covering.py checks
    # every row up to k = 40), so each kept term is its own entry.
    return {
        (series, i): coeff
        for series, i, coeff in terms
        if coeff and 0 <= i <= (2 * k if series == "y" else 2 * k + 1)
    }


def vertex_cover_row(k: int, idx: int) -> Row:
    """Non-spine preimage count of spine vertex v_idx as a row over (x,y,z)."""
    if not 0 <= idx <= 2 * k + 1:
        raise ValueError(f"vertex index {idx} outside spine")
    if idx % 2 == 0:
        j = idx // 2
        terms = [
            ("x", 2 * j - 1, k),
            ("x", 2 * j + 1, k + 1),
            ("y", 2 * j - 1, k + 1),
            ("y", 2 * j, k + 1),
            ("z", 2 * j - 2, k + 1),
            ("z", 2 * j - 1, k),
            ("z", 2 * j, k),
            ("z", 2 * j + 1, k + 1),
        ]
    else:
        j = (idx - 1) // 2
        terms = [
            ("x", 2 * j, k + 1),
            ("x", 2 * j + 2, k),
            ("y", 2 * j, k + 1),
            ("y", 2 * j + 1, k + 1),
            ("z", 2 * j, k + 1),
            ("z", 2 * j + 1, k),
            ("z", 2 * j + 2, k),
            ("z", 2 * j + 3, k + 1),
        ]
    return _keep(k, terms)


def edge_cover_row(k: int, idx: int) -> Row:
    """Non-spine preimage count of spine edge (v_idx, v_idx+1) as a row."""
    if not 0 <= idx <= 2 * k:
        raise ValueError(f"edge index {idx} outside spine")
    if idx % 2 == 0:
        j = idx // 2
        terms = [
            ("x", 2 * j, k + 1),
            ("x", 2 * j + 1, k + 1),
            ("y", 2 * j, k + 1),
            ("z", 2 * j, k + 1),
            ("z", 2 * j + 1, k + 1),
        ]
    else:
        j = (idx - 1) // 2
        terms = [
            ("x", 2 * j + 1, k),
            ("x", 2 * j + 2, k),
            ("y", 2 * j + 1, k + 1),
            ("z", 2 * j, k + 1),
            ("z", 2 * j + 1, 2 * k),
            ("z", 2 * j + 2, 2 * k),
            ("z", 2 * j + 3, k + 1),
        ]
    return _keep(k, terms)


def _evaluate(row: Row, s: SequenceTriple) -> int:
    # ``_keep`` dropped every index outside its series.
    return sum(coeff * getattr(s, series)[i] for (series, i), coeff in row.items())


def c_vertex(k: int, idx: int, s: SequenceTriple) -> int:
    return _evaluate(vertex_cover_row(k, idx), s)


def c_edge(k: int, idx: int, s: SequenceTriple) -> int:
    return _evaluate(edge_cover_row(k, idx), s)


# -- covering profiles -----------------------------------------------------

@dataclass(frozen=True)
class CoverProfile:
    vertex_cover: tuple[int, ...]
    edge_cover: tuple[int, ...]

    @property
    def uniform_multiplicity(self) -> Optional[int]:
        values = set(self.vertex_cover) | set(self.edge_cover)
        return values.pop() if len(values) == 1 else None


def cover_profile(f: LabelledForest) -> CoverProfile:
    """Exact preimage tally of a labelled forest over its spine, counted
    once per forest and cached on it, like ``phi_array()``."""
    cached = f.__dict__.get("_cover_profile")
    if cached is None:
        bad = homomorphism_violation(f)
        if bad is not None:
            raise ValueError(f"phi is not a homomorphism: edge {bad} maps off the spine")
        phi = f.phi_array()
        e = f.graph.edge_array()
        vertex_cover = np.bincount(phi, minlength=f.spine_edges + 1)
        # An edge's image is the left end of its spine edge, tallied in pieces.
        edge_cover = np.zeros(f.spine_edges, dtype=np.int64)
        for start in range(0, len(e), _WRITE_ROWS):
            piece = e[start:start + _WRITE_ROWS]
            edge_cover += np.bincount(np.minimum(phi[piece[:, 0]], phi[piece[:, 1]]), minlength=f.spine_edges)
        cached = CoverProfile(tuple(vertex_cover.tolist()), tuple(edge_cover.tolist()))
        object.__setattr__(f, "_cover_profile", cached)
    return cached


def _block_images(length: int, plan: Plan) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(spine image, count) of every vertex block and of every edge block of
    a planned forest.  An edge's image is the left end of the spine edge it
    maps onto."""
    vblocks, eblocks = class_blocks(length, plan)
    return (
        [(b.phi, b.count) for b in vblocks],
        [(min(vblocks[eb.a_block].phi, vblocks[eb.b_block].phi), eb.count) for eb in eblocks],
    )


def cover_profile_blocks(length: int, plan: Plan) -> CoverProfile:
    """Covering tally of a planned forest, grouped by construction class.

    Identical in content to materialising and counting: every class block
    contributes its cardinality to the spine image its vertices/edges share.
    """

    def tally(images, size):
        cover = [0] * size
        for at, count in images:
            cover[at] += count
        return tuple(cover)

    vertex_images, edge_images = _block_images(length, plan)
    return CoverProfile(tally(vertex_images, length + 1), tally(edge_images, length))


def cover_profile_arrays(length: int, plan: Plan) -> CoverProfile:
    """Covering tally over physically laid-out image arrays.

    Lays out one entry per forest vertex (its spine image) and one per
    forest edge (the left end of its spine image), one class block at a
    time, and tallies each block with a bincount, so only one block is
    held at once.
    """

    def tally(images, size):
        counts = np.zeros(size, dtype=np.int64)
        for at, count in images:
            counts += np.bincount(np.full(count, at, dtype=np.intp), minlength=size)
        return tuple(counts.tolist())

    vertex_images, edge_images = _block_images(length, plan)
    return CoverProfile(tally(vertex_images, length + 1), tally(edge_images, length))


# -- formula-vs-count verification -------------------------------------------------

@dataclass(frozen=True)
class CoverCheck:
    k: int
    kind: str        # "vertex" | "edge"
    index: int
    formula: int
    counted: int     # direct count including the spine contribution
    target: int
    ok: bool = field(init=False)

    def __post_init__(self):
        # Computed once: the report's verdict, its text lines and its
        # records all read it.
        ok = self.formula == self.target and self.counted == self.formula + 1
        object.__setattr__(self, "ok", ok)


@dataclass(frozen=True)
class CoveringReport:
    k: int
    checks: tuple[CoverCheck, ...]
    multiplicity: Optional[int]
    method: str

    @property
    def ok(self) -> bool:
        return (
            all(c.ok for c in self.checks)
            and self.multiplicity == cover_target(self.k) + 1
        )

    def failures(self) -> list[CoverCheck]:
        return [c for c in self.checks if not c.ok]

    def lines(self) -> list[str]:
        out = [
            f"k={self.k} target={cover_target(self.k)} "
            f"multiplicity={self.multiplicity} method={self.method} "
            f"{'PASS' if self.ok else 'FAIL'}"
        ]
        out.extend(
            f"  MISMATCH {c.kind} {c.index}: formula={c.formula} "
            f"counted={c.counted} target={c.target}"
            for c in self.failures()
        )
        return out

    def records(self) -> list[dict]:
        return [
            {
                "k": c.k,
                "kind": c.kind,
                "index": c.index,
                "formula": c.formula,
                "counted": c.counted,
                "target": c.target,
                "ok": c.ok,
            }
            for c in self.checks
        ]


# "auto" materialises forests up to this many edges and sums class blocks
# beyond.  The method it picks is printed on each ``verify-covering`` text
# line (not in ``--json``), so the cap stays (``constructions._MATERIALISE_EDGES``).
_MATERIALISE_CAP = 2_000_000


def verify_covering(k: int, method: str = "auto") -> CoveringReport:
    """Check formulas against the built forest's actual covering for one k.

    method: "tuples" materialises the forest as its edge, role and phi
    arrays (no per-edge Python objects) and uses ``cover_profile``;
    "blocks" sums the grouped class tally, which "arrays" lays out entry by
    entry (kept only as an explicit method); "auto" picks tuples below the
    materialisation cap, blocks beyond.
    """
    s = sequences(k)
    plan = plan_odd(k, s)
    length = 2 * k + 1
    if method == "auto":
        method = "tuples" if length * (cover_target(k) + 1) <= _MATERIALISE_CAP else "blocks"
    if method == "tuples":
        profile = cover_profile(materialise(length, plan))
    elif method == "arrays":
        profile = cover_profile_arrays(length, plan)
    elif method == "blocks":
        profile = cover_profile_blocks(length, plan)
    else:
        raise ValueError(f"unknown method {method!r}")

    target = cover_target(k)
    checks = []
    for idx in range(length + 1):
        checks.append(
            CoverCheck(k, "vertex", idx, c_vertex(k, idx, s), profile.vertex_cover[idx], target)
        )
    for idx in range(length):
        checks.append(
            CoverCheck(k, "edge", idx, c_edge(k, idx, s), profile.edge_cover[idx], target)
        )
    return CoveringReport(k, tuple(checks), profile.uniform_multiplicity, method)


def _covering_worker(args) -> CoveringReport:
    k, method = args
    return verify_covering(k, method=method)


def verify_covering_range(
    k_max: int, method: str = "auto", workers: int = 1
) -> list[CoveringReport]:
    """Covering verification for k = 1..k_max; independent k values may fan
    out over worker processes, with reports returned in k order either way;
    ValueError for k_max < 1, which would check nothing."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    jobs = [(k, method) for k in range(1, k_max + 1)]
    return parallel_map(_covering_worker, jobs, workers)
