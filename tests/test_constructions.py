import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import altpaths
from altpaths.covering import cover_profile
from altpaths.constructions import (
    ClassCounts,
    LabelledForest,
    SequenceTriple,
    alternating_path,
    build_h_even,
    build_h_odd,
    fixture,
    format_roles,
    homomorphism_violation,
    materialise,
    parse_roles,
    plan_odd,
    plan_sizes,
    recompute_phi,
    sequences,
    spine_colour,
)
from altpaths.ecgraph import BLUE, RED, EdgeColouredGraph, validate
from altpaths.homcount import is_forest
from helpers import random_triple, recompute_phi_oracle


class TestSequences:
    def test_k1(self):
        s = sequences(1)
        assert s.x == (0, 4, 4, 0)
        assert s.y == (2, 2, 2)
        assert s.z == (0, 0, 0, 0)

    def test_k2(self):
        s = sequences(2)
        assert s.x == (0, 16, 10, 10, 16, 0)
        assert s.y == (14, 1, 0, 1, 14)
        assert s.z == (0, 0, 5, 5, 0, 0)

    def test_k3(self):
        s = sequences(3)
        assert s.x == (0, 48, 40, 28, 28, 40, 48, 0)
        assert s.y == (36, 4, 2, 0, 2, 4, 36)
        assert s.z == (0, 0, 0, 14, 14, 0, 0, 0)

    def test_k5_midpoint_patch(self):
        s = sequences(5)
        assert (s.x[4], s.x[5]) == (144, 174)
        assert (s.y[4], s.y[5]) == (1, 18)
        assert (s.z[4], s.z[5]) == (11, 0)

    def test_k4_midpoint_patch(self):
        s = sequences(4)
        assert s.x[4] == 84 and s.y[4] == 12 and s.z[4] == 0

    @pytest.mark.parametrize("k", list(range(1, 201)))
    def test_nonnegative_symmetric(self, k):
        s = sequences(k)
        assert s.problems() is None
        assert all(v >= 0 for v in s.x + s.y + s.z)

    def test_out_of_range_reads_are_zero(self):
        s = sequences(2)
        assert s.x_at(-1) == 0 and s.x_at(99) == 0
        assert s.y_at(-3) == 0 and s.z_at(100) == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sequences(0)


class TestAlternatingPath:
    def test_length_one(self):
        assert alternating_path(1).edges == ((0, 1, RED),)

    def test_length_three(self):
        p = alternating_path(3)
        assert [c for _, _, c in p.edges] == [RED, BLUE, RED]
        assert p.num_edges(RED) == 2 and p.num_edges(BLUE) == 1

    def test_length_four(self):
        assert [c for _, _, c in alternating_path(4).edges] == [RED, BLUE, RED, BLUE]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            alternating_path(0)


class TestBuildOdd:
    def test_k1_sizes(self):
        h = build_h_odd(1)
        assert h.graph.n == 52
        assert len(h.graph.edges) == 39
        assert h.graph.num_edges(RED) == 26 and h.graph.num_edges(BLUE) == 13

    def test_colour_balance_and_growth(self):
        # k * e_R = (k+1) * e_B and strictly more edges than the spine.
        for k in range(1, 61):
            v, e, e_r, e_b = plan_sizes(2 * k + 1, plan_odd(k, sequences(k)))
            assert k * e_r == (k + 1) * e_b
            assert e > 2 * k + 1
            # A forest's component count is v - e: the spine component plus
            # the isolated spine-edge copies.
            y_total = (k + 1) * sum(sequences(k).y)
            assert v - e == 1 + y_total

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_materialised_forest_is_valid(self, k):
        h = build_h_odd(k)
        assert validate(h.graph) is None
        assert is_forest(h.graph)
        assert homomorphism_violation(h) is None
        assert h.phi[: 2 * k + 2] == tuple(range(2 * k + 2))

    def test_phi_is_forced(self):
        h = build_h_odd(2)
        assert recompute_phi(h) == h.phi

    def test_propagation_catches_corruption(self):
        h = build_h_odd(1)
        bad_phi = list(h.phi)
        leaf = next(v for v, (kind, _) in enumerate(h.roles) if kind == "xr")
        bad_phi[leaf] = (bad_phi[leaf] + 2) % 4
        corrupted = LabelledForest(h.graph, h.roles, tuple(bad_phi), h.spine_edges)
        assert recompute_phi(corrupted) != corrupted.phi


def _outcome(check, f):
    try:
        return check(f)
    except ValueError:
        return ValueError


def _random_plan(rng: random.Random):
    """plan_odd of a random triple, plus random aux vertices and extra
    spine-edge copies."""
    s = random_triple(rng)
    length = 2 * s.k + 1
    plan = dict(plan_odd(s.k, s))
    for j in range(length + 1):
        aux, y = rng.randint(0, 2), rng.randint(0, 2) if j < length else 0
        if aux or y:
            cur = plan.get(j, ClassCounts())
            plan[j] = ClassCounts(cur.xr, cur.xb, cur.zr, cur.zb, cur.y + y, cur.aux + aux)
    return length, plan


def _corruptions(f: LabelledForest, rng: random.Random):
    """Forests that differ from f in one way each: a flipped edge colour, a
    moved pin, an unpinned isolated vertex, and an extra edge from a pin to
    an already-forced vertex."""
    edges = list(f.graph.edges)
    i = rng.randrange(len(edges))
    u, v, c = edges[i]
    edges[i] = (u, v, BLUE if c == RED else RED)
    yield LabelledForest(EdgeColouredGraph(f.graph.n, tuple(edges)), f.roles, f.phi, f.spine_edges)

    pinned = [v for v, (kind, _) in enumerate(f.roles) if kind in ("yminus", "aux")]
    v = rng.choice(pinned)
    roles = list(f.roles)
    roles[v] = (roles[v][0], rng.randint(-1, f.spine_edges + 1))
    yield LabelledForest(f.graph, tuple(roles), f.phi, f.spine_edges)

    yield LabelledForest(
        EdgeColouredGraph(f.graph.n + 1, f.graph.edges),
        f.roles + (("xr", 0),),
        f.phi + (0,),
        f.spine_edges,
    )

    present = {(u, v) for u, v, _ in f.graph.edges}
    pin = rng.choice([v for v, (kind, _) in enumerate(f.roles) if kind in ("spine", "yminus")])
    forced = [w for w in range(f.graph.n) if f.roles[w][0] not in ("spine", "yminus", "aux")]
    w = rng.choice([w for w in forced if (min(pin, w), max(pin, w)) not in present])
    extra = (min(pin, w), max(pin, w), rng.choice((RED, BLUE)))
    graph = EdgeColouredGraph.make(f.graph.n, f.graph.edges + (extra,))
    yield LabelledForest(graph, f.roles, f.phi, f.spine_edges)


class TestRecomputePhi:
    def test_matches_oracle_on_random_plans(self):
        rng = random.Random(505)
        raised = moved = 0
        for _ in range(120):
            f = materialise(*_random_plan(rng))
            assert recompute_phi(f) == recompute_phi_oracle(f) == f.phi
            for bad in _corruptions(f, rng):
                outcome = _outcome(recompute_phi, bad)
                assert outcome == _outcome(recompute_phi_oracle, bad)
                raised += outcome is ValueError
                moved += outcome is not ValueError and outcome != f.phi[: len(outcome)]
        # Both kinds occur: corruptions that are errors, and ones that
        # force a different but consistent phi.
        assert raised > 100 and moved > 100

    def test_deep_chain(self):
        # A 10,000-edge all-red chain hanging from v_0 of a one-edge spine:
        # the images alternate, and a walk that rescanned every edge in each
        # round would take quadratic time here.
        depth = 10_000
        edges = [(0, 1, RED), (0, 2, RED)] + [(v, v + 1, RED) for v in range(2, depth + 1)]
        n = depth + 2
        phi = (0, 1) + tuple((v - 1) % 2 for v in range(2, n))
        roles = (("spine", 0), ("spine", 1)) + (("xr", 0),) * depth
        f = LabelledForest(EdgeColouredGraph.make(n, edges), roles, phi, 1)
        assert phi[2:6] == (1, 0, 1, 0)
        assert recompute_phi(f) == phi
        assert homomorphism_violation(f) is None
        assert cover_profile(f).edge_cover == (depth + 1,)

    def test_pin_outside_spine_rejected(self):
        f = fixture("H3_small")
        roles = list(f.roles)
        aux = roles.index(("aux", 1))
        roles[aux] = ("aux", -1)
        with pytest.raises(ValueError, match="outside spine"):
            recompute_phi(LabelledForest(f.graph, tuple(roles), f.phi, f.spine_edges))


class TestImagesOutsideSpine:
    @pytest.mark.parametrize("image", [-1, 7])
    def test_rejected(self, image):
        f = fixture("H3_small")
        aux = f.roles.index(("aux", 1))
        phi = list(f.phi)
        phi[aux] = image
        bad = LabelledForest(f.graph, f.roles, tuple(phi), f.spine_edges)
        for check in (homomorphism_violation, cover_profile):
            with pytest.raises(ValueError, match=f"image {image} of vertex {aux} outside spine"):
                check(bad)
        with pytest.raises(ValueError, match="outside spine"):
            parse_roles(format_roles(bad), f.graph)

    def test_first_bad_edge_in_edge_order(self):
        h = build_h_odd(1)
        phi = list(h.phi)
        leaves = [v for v, (kind, _) in enumerate(h.roles) if kind == "xr"]
        for v in leaves[-2:]:
            phi[v] = (phi[v] + 2) % 4
        bad = LabelledForest(h.graph, h.roles, tuple(phi), h.spine_edges)
        first = next(e for e in h.graph.edges if leaves[-2] in e[:2])
        assert homomorphism_violation(bad) == first


def test_materialise_check_survives_optimised_mode():
    # Under python -O a bare assert disappears; the phi check must not.
    src = str(Path(altpaths.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from altpaths import constructions as c\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "c.recompute_phi = lambda f: f.phi[:-1] + (f.phi[-1] + 1,)\n"
        "try:\n"
        "    c.materialise(3, {1: c.ClassCounts(xr=1)})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert "differs from the images its pins force" in result.stdout


class TestBuildEven:
    def test_k1(self):
        h = build_h_even(1)
        assert len(h.graph.edges) == 6
        assert cover_profile(h).uniform_multiplicity == 3

    def test_k2_vertex_count(self):
        h = build_h_even(2)
        assert h.graph.n == 15  # 5 spine + 6 leaves + 4 isolated-edge ends

    @pytest.mark.parametrize("k", list(range(1, 31)))
    def test_uniform_covering(self, k):
        h = build_h_even(k)
        assert cover_profile(h).uniform_multiplicity == 3
        assert is_forest(h.graph)
        assert homomorphism_violation(h) is None


class TestFixtures:
    def test_h3_small(self):
        f = fixture("H3_small")
        assert f.graph.n == 12 and len(f.graph.edges) == 9
        assert cover_profile(f).uniform_multiplicity == 3

    def test_h3_large(self):
        f = fixture("H3_large")
        assert f.graph.n == 28 and len(f.graph.edges) == 21
        assert cover_profile(f).uniform_multiplicity == 7

    def test_h5(self):
        f = fixture("H5")
        assert cover_profile(f).uniform_multiplicity == 76
        by_class = {}
        for kind, j in f.roles:
            by_class[(kind, j)] = by_class.get((kind, j), 0) + 1
        assert by_class[("xr", 1)] == 39 and by_class[("xb", 1)] == 26
        assert by_class[("xr", 2)] == 21 and by_class[("xb", 2)] == 14
        assert by_class[("zr", 2)] == 15 and by_class[("zb", 2)] == 10
        assert by_class[("yminus", 0)] == 36
        assert by_class[("yminus", 2)] == 3
        assert by_class[("yminus", 4)] == 36

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("H7")


class TestPlans:
    def test_structurally_impossible_classes_raise(self):
        # Blue leaf at v_0 has no blue spine edge to land on.
        with pytest.raises(ValueError, match="blue spine neighbour"):
            materialise(3, {0: ClassCounts(xb=1)})
        # A red-blue two-path at v_1 would need a blue edge at v_0.
        with pytest.raises(ValueError, match="blue neighbour of red neighbour"):
            materialise(3, {1: ClassCounts(zr=1)})

    def test_spine_colour(self):
        assert spine_colour(0) == RED and spine_colour(1) == BLUE


class TestSidecar:
    def test_round_trip(self):
        for name in ("H3_small", "H5"):
            f = fixture(name)
            back = parse_roles(format_roles(f), f.graph)
            assert back == f

    def test_missing_vertex_rejected(self):
        f = fixture("H3_small")
        text = "\n".join(format_roles(f).splitlines()[:-1]) + "\n"
        with pytest.raises(ValueError, match="missing role"):
            parse_roles(text, f.graph)


def test_sequence_triple_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SequenceTriple(1, (0, 4, 3, 0), (2, 2, 2), (0, 0, 0, 0)).require_valid()
    with pytest.raises(ValueError, match="nonnegative"):
        SequenceTriple(1, (0, -4, -4, 0), (2, 2, 2), (0, 0, 0, 0)).require_valid()
    with pytest.raises(ValueError, match="x_0"):
        SequenceTriple(1, (1, 4, 4, 1), (2, 2, 2), (0, 0, 0, 0)).require_valid()
