import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import altpaths
from altpaths import constructions
from altpaths.covering import cover_profile, cover_target
from altpaths.constructions import (
    FIXTURE_NAMES,
    ClassCounts,
    LabelledForest,
    SequenceTriple,
    _MATERIALISE_EDGES,
    _certified_phi,
    _half_edges,
    _spine_steps,
    _spine_table,
    _walk_images,
    alternating_path,
    build_h_even,
    build_h_odd,
    class_blocks,
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
from altpaths.ecgraph import BLUE, RED, BudgetExceeded, Colour, EdgeColouredGraph, format_ecg, validate
from altpaths.homcount import is_forest
from helpers import (
    class_blocks_oracle,
    format_ecg_oracle,
    format_roles_oracle,
    materialise_oracle,
    random_plan,
    random_triple,
    recompute_phi_oracle,
)


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


def _assert_same_forest(got: LabelledForest, want: LabelledForest):
    assert got.graph.n == want.graph.n
    assert got.graph.edges == want.graph.edges
    assert got.roles == want.roles
    assert got.phi == want.phi
    assert got.spine_edges == want.spine_edges
    assert got == want and hash(got) == hash(want)


def _built(build, length, plan):
    try:
        return build(length, plan)
    except (ValueError, BudgetExceeded) as exc:
        return type(exc), str(exc)


class TestMaterialise:
    def test_matches_oracle(self):
        # The paper plans, seeded random plans that build, and seeded ones
        # that fail: equal forests, or the same error with the same text.
        rng = random.Random(8080)
        cases = [(2 * k + 1, plan_odd(k, sequences(k))) for k in range(1, 11)]
        cases += [_random_plan(rng) for _ in range(200)]
        cases += [(length, random_plan(rng, length)) for length in (1, 3, 5) for _ in range(40)]
        cases.append((33, plan_odd(16, sequences(16))))
        failed = 0
        for length, plan in cases:
            got = _built(materialise, length, plan)
            want = _built(materialise_oracle, length, plan)
            if isinstance(want, LabelledForest):
                _assert_same_forest(got, want)
            else:
                assert got == want, (length, plan)
                failed += 1
        assert 10 < failed < len(cases) - 200

    def test_fixtures_and_even_spines_match_oracle(self, monkeypatch):
        # Every plan that fixture() and build_h_even() lay out, checked
        # against the oracle as it is built.
        built = []
        real = constructions.materialise

        def checked(length, plan):
            forest = real(length, plan)
            _assert_same_forest(forest, materialise_oracle(length, plan))
            built.append(length)
            return forest

        monkeypatch.setattr(constructions, "materialise", checked)
        for name in FIXTURE_NAMES:
            fixture(name)
        for k in range(1, 5):
            build_h_even(k)
        assert built[:3] == [3, 3, 5] and set(built[3:]) == {2, 4, 6, 8}

    def test_cover_profile_leaves_tuples_unbuilt(self):
        # The covering tally reads the edge, role and phi arrays only: no
        # per-edge or per-vertex Python objects are made.
        f = materialise(21, plan_odd(10, sequences(10)))
        assert cover_profile(f).uniform_multiplicity == cover_target(10) + 1
        assert "edges" not in vars(f.graph)
        assert "roles" not in vars(f) and "phi" not in vars(f)

    def test_violation_on_array_forest_matches_tuple_twin(self):
        rng = random.Random(4242)
        length, plan = 9, plan_odd(4, sequences(4))
        h = materialise(length, plan)
        twin = materialise_oracle(length, plan)
        connected = np.unique(h.graph.edge_array()[:, :2])
        for _ in range(30):
            phi = h.phi_array().copy()
            v = int(rng.choice(connected))
            phi[v] = rng.choice([j for j in range(length + 1) if j != phi[v]])
            edges = h.graph.edge_array().copy()
            i = rng.randrange(len(edges))
            edges[i, 2] ^= rng.randint(0, 1)
            bad = LabelledForest.from_arrays(
                EdgeColouredGraph.from_edge_array(h.graph.n, edges), h.role_array(), phi, length
            )
            bad_twin = LabelledForest(
                EdgeColouredGraph.make(
                    h.graph.n, [(u, w, Colour(c)) for u, w, c in edges.tolist()]
                ),
                twin.roles,
                tuple(phi.tolist()),
                length,
            )
            found = homomorphism_violation(bad)
            assert found is not None and found == homomorphism_violation(bad_twin)
            assert [type(x) for x in found] == [int, int, Colour]
            assert "edges" not in vars(bad.graph)


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

    def test_matches_oracle_on_built_spines(self):
        for k in range(1, 7):
            h = build_h_odd(k)
            assert recompute_phi(h) == recompute_phi_oracle(h) == h.phi

    def test_half_edge_table(self):
        # Grouped by tail vertex, in half-edge order within a group, the same
        # in either index type as the table of the concatenated half-edges.
        f = fixture("H5")
        n, e = f.graph.n, f.graph.edge_array()
        tails = np.concatenate([e[:, 0], e[:, 1]])
        order = np.argsort(tails, kind="stable")
        heads = np.concatenate([e[:, 1], e[:, 0]])[order]
        colours = np.concatenate([e[:, 2], e[:, 2]])[order]
        offsets = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))])
        for index in (np.int32, np.int64):
            got = _half_edges(e, n, index)
            assert [a.dtype for a in got] == [index, np.int8, index]
            for a, b in zip(got, (heads, colours, offsets)):
                assert np.array_equal(a, b)

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

    def test_unknown_role_is_not_a_pin(self):
        # role_array codes a kind outside ROLE_KINDS as -1, which must not
        # read as the last kind, aux, a pin.  Unpinned, the isolated aux
        # vertex is never forced, and the leaf is forced to its old image.
        f = fixture("H3_small")
        aux = f.roles.index(("aux", 1))
        leaf = f.roles.index(("xr", 1))
        for v, want in ((aux, ValueError), (leaf, f.phi)):
            roles = list(f.roles)
            roles[v] = ("foo", roles[v][1])
            bad = LabelledForest(f.graph, tuple(roles), f.phi, f.spine_edges)
            assert bad.role_array()[v, 0] == -1
            assert _outcome(recompute_phi, bad) == _outcome(recompute_phi_oracle, bad) == want

    def test_pin_outside_spine_rejected(self):
        f = fixture("H3_small")
        roles = list(f.roles)
        aux = roles.index(("aux", 1))
        roles[aux] = ("aux", -1)
        with pytest.raises(ValueError, match="outside spine"):
            recompute_phi(LabelledForest(f.graph, tuple(roles), f.phi, f.spine_edges))


def _certificate_cases():
    """The fixtures, H_1..H_8, the even spines H_1..H_6, and the random
    plans of ``TestRecomputePhi`` with every corruption of each."""
    forests = [fixture(name) for name in FIXTURE_NAMES]
    forests += [build_h_odd(k) for k in range(1, 9)] + [build_h_even(k) for k in range(1, 7)]
    rng = random.Random(505)
    for _ in range(120):
        f = materialise(*_random_plan(rng))
        forests += [f, *_corruptions(f, rng)]
    return forests


class TestCertificate:
    def test_answers_only_with_the_walks_images(self):
        answered = declined = 0
        for f in _certificate_cases():
            phi = _certified_phi(f)
            if phi is None:
                declined += 1
                continue
            answered += 1
            assert np.array_equal(phi, _walk_images(f))
            assert tuple(phi.tolist()) == recompute_phi_oracle(f) == f.phi
        # Every built forest is answered, and so is a corruption that leaves
        # phi consistent (a moved pin that kept its value, a fitting edge).
        assert answered > 150 and declined > 400

    def test_taken_on_every_built_forest(self, monkeypatch):
        def no_walk(f):
            raise AssertionError("the walk ran on a built forest")

        monkeypatch.setattr(constructions, "_walk_images", no_walk)
        assert len(_certificate_cases()) == 17 + 5 * 120
        with pytest.raises(AssertionError, match="the walk ran"):
            recompute_phi(next(_corruptions(fixture("H5"), random.Random(1))))

    def test_least_vertex_reached_through_a_higher_one(self):
        # Vertex 2 is the least of its component, unpinned, and forced only
        # from the pin above it: a phi the walk proves and the certificate
        # cannot.
        graph = EdgeColouredGraph.make(4, [(0, 1, RED), (2, 3, RED)])
        roles = (("spine", 0), ("spine", 1), ("yplus", 0), ("yminus", 0))
        f = LabelledForest(graph, roles, (0, 1, 1, 0), 1)
        assert _certified_phi(f) is None
        assert recompute_phi(f) == recompute_phi_oracle(f) == f.phi

    def test_declines_an_isolated_unpinned_vertex_and_a_flipped_colour(self):
        f = fixture("H3_large")
        flipped, _, isolated, _ = _corruptions(f, random.Random(7))
        for bad in (flipped, isolated):
            assert _certified_phi(bad) is None
            assert _outcome(recompute_phi, bad) == _outcome(recompute_phi_oracle, bad)
        assert _outcome(recompute_phi, isolated) is ValueError

    @pytest.mark.parametrize("phi", [(2**70,), (-1,), (), (0, 0)])
    def test_declines_a_phi_it_cannot_read(self, phi):
        # An image past int64 or off the spine, or a phi of the wrong length:
        # the certificate declines and the walk forces the pinned images.
        f = fixture("H3_small")
        bad = LabelledForest(f.graph, f.roles, f.phi[:-1] + phi, f.spine_edges)
        assert _certified_phi(bad) is None
        assert recompute_phi(bad) == recompute_phi_oracle(bad) == f.phi


class TestImagesOutsideSpine:
    @pytest.mark.parametrize("image", [-1, 7, 2**70])
    def test_rejected(self, image):
        f = fixture("H3_small")
        aux = f.roles.index(("aux", 1))
        phi = list(f.phi)
        phi[aux] = image
        bad = LabelledForest(f.graph, f.roles, tuple(phi), f.spine_edges)
        for check in (homomorphism_violation, cover_profile, format_roles):
            with pytest.raises(ValueError, match=f"image {image} of vertex {aux} outside spine"):
                check(bad)
        # The writer refuses such a forest, so the reader gets a written line.
        lines = format_roles(f).splitlines()
        lines[aux] = f"v {aux} aux 1 {image}"
        with pytest.raises(ValueError, match="outside spine"):
            parse_roles("\n".join(lines) + "\n", f.graph)

    def test_first_bad_edge_in_edge_order(self):
        h = build_h_odd(1)
        phi = list(h.phi)
        leaves = [v for v, (kind, _) in enumerate(h.roles) if kind == "xr"]
        for v in leaves[-2:]:
            phi[v] = (phi[v] + 2) % 4
        bad = LabelledForest(h.graph, h.roles, tuple(phi), h.spine_edges)
        first = next(e for e in h.graph.edges if leaves[-2] in e[:2])
        assert homomorphism_violation(bad) == first


def test_materialise_memory_per_edge():
    # The build and its phi self-check peak at about 95 traced bytes per
    # edge of H_8 (187,289 edges), 49 of them the built forest.
    plan = plan_odd(8, sequences(8))
    gc.collect()
    tracemalloc.start()
    try:
        forest = materialise(17, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 170 * forest.graph.num_edges()


def test_materialise_memory_per_edge_without_sort_or_walk():
    # H_10 (533,631 edges) built and certified at about 52 traced bytes per
    # edge: its rows need no sorted copy and its phi no half-edge table.
    plan = plan_odd(10, sequences(10))
    gc.collect()
    tracemalloc.start()
    try:
        forest = materialise(21, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 70 * forest.graph.num_edges()


def test_built_rows_are_laid_out_in_edge_order(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("np.lexsort called")

    monkeypatch.setattr(np, "lexsort", no_sort)
    for k in range(1, 11):
        build_h_odd(k)
    for name in FIXTURE_NAMES:
        fixture(name)
    for k in range(1, 7):
        build_h_even(k)
    with pytest.raises(AssertionError, match="lexsort"):
        EdgeColouredGraph.from_edge_array(3, np.array([[1, 2, 0], [0, 1, 0]]))


def test_shuffled_rows_come_out_in_make_order():
    h = build_h_odd(3)
    rows = np.random.default_rng(33).permutation(h.graph.edge_array())
    g = EdgeColouredGraph.from_edge_array(h.graph.n, rows)
    assert np.array_equal(g.edge_array(), h.graph.edge_array())
    assert g == EdgeColouredGraph.make(h.graph.n, h.graph.edges)


def test_materialise_check_survives_optimised_mode():
    # Under python -O a bare assert disappears; the phi check must not.
    src = str(Path(altpaths.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from altpaths import constructions as c\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "forced = c._forced_images\n"
        "def off_by_one(f):\n"
        "    image = forced(f).copy()\n"
        "    image[-1] += 1\n"
        "    return image\n"
        "c._forced_images = off_by_one\n"
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

    def test_class_blocks_match_oracle(self):
        # The paper plans, then seeded random plans with indices outside the
        # spine and y at j = length: equal blocks, or the same ValueError.
        def outcome(expand, length, plan):
            try:
                return expand(length, plan)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(20261018)
        cases = [(2 * k + 1, plan_odd(k, sequences(k))) for k in range(1, 41)]
        for _ in range(2000):
            length = rng.randint(1, 9)
            cases.append((length, random_plan(rng, length)))
        raised = 0
        for length, plan in cases:
            got = outcome(class_blocks, length, plan)
            assert got == outcome(class_blocks_oracle, length, plan), (length, plan)
            raised += isinstance(got, str)
        assert 100 < raised < len(cases) - 100

    def test_spine_steps_match_the_spine(self):
        for length in range(1, 21):
            adj = alternating_path(length).adjacency()
            steps = _spine_steps(length)
            for j in range(length + 1):
                for colour in (RED, BLUE):
                    step = steps[colour, j]
                    assert list(adj[j][colour]) == ([] if step < 0 else [step])

    def test_spine_steps_are_the_spine_table(self):
        # class_blocks reads the tuple table and the array checks read its
        # int64 copy: one neighbour rule in two forms.
        for length in range(1, 42):
            steps = _spine_steps(length)
            assert steps.dtype == np.int64 and not steps.flags.writeable
            assert steps.shape == (2, length + 1)
            assert tuple(map(tuple, steps.tolist())) == _spine_table(length)

    def test_oversized_forest_refused_before_building(self):
        k = 16
        plan = plan_odd(k, sequences(k))
        assert plan_sizes(2 * k + 1, plan)[1] > _MATERIALISE_EDGES
        with pytest.raises(BudgetExceeded, match="edges"):
            materialise(2 * k + 1, plan)


class TestWritersMatchTupleWriters:
    """``format_ecg`` and ``format_roles`` read the array columns; the
    oracles are the writers that read the edge, role and phi tuples."""

    @staticmethod
    def _assert_same_text(f: LabelledForest):
        ecg, roles = format_ecg(f.graph), format_roles(f)
        assert "edges" not in vars(f.graph)
        assert "roles" not in vars(f) and "phi" not in vars(f)
        assert ecg == format_ecg_oracle(f.graph)
        assert roles == format_roles_oracle(f)

    def test_paper_forests_fixtures_and_even_spines(self):
        forests = [build_h_odd(k) for k in range(1, 11)]
        forests += [fixture(name) for name in FIXTURE_NAMES]
        forests += [build_h_even(k) for k in range(1, 5)]
        for f in forests:
            self._assert_same_text(f)

    def test_random_plans_and_triples(self):
        # 40 random plans that build (most draws do not), then 40 triples.
        rng = random.Random(1516)
        built = draws = 0
        while built < 40:
            length = rng.choice((1, 3, 5, 7))
            f = _built(materialise, length, random_plan(rng, length))
            if isinstance(f, LabelledForest):
                self._assert_same_text(f)
                built += 1
            draws += 1
            assert draws < 1000
        for _ in range(40):
            s = random_triple(rng)
            self._assert_same_text(materialise(2 * s.k + 1, plan_odd(s.k, s)))

    def test_tuple_built_and_empty_forests(self):
        f = fixture("H5")
        twin = LabelledForest(f.graph, f.roles, f.phi, f.spine_edges)
        assert format_roles(twin) == format_roles_oracle(twin) == format_roles(f)
        empty = EdgeColouredGraph.make(0, [])
        self._assert_same_text(
            LabelledForest.from_arrays(
                EdgeColouredGraph.from_edge_array(0, np.empty((0, 3), dtype=np.int64)),
                np.empty((0, 2), dtype=np.int64),
                np.empty(0, dtype=np.int64),
                0,
            )
        )
        forest = LabelledForest(empty, (), (), 0)
        assert format_roles(forest) == format_roles_oracle(forest) == "\n"


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

    def test_writer_refuses_an_unknown_role(self):
        # role_array codes the role -1, which must not be written as the
        # last kind, aux, on either kind of forest.
        f = fixture("H3_small")
        roles = (("foo", 0),) + f.roles[1:]
        bad = LabelledForest(f.graph, roles, f.phi, f.spine_edges)
        assert bad.role_array()[0, 0] == -1
        for forest in (bad, LabelledForest.from_arrays(f.graph, bad.role_array(), f.phi_array(), 3)):
            with pytest.raises(ValueError, match="unknown role for vertex 0"):
                format_roles(forest)

    def test_repeated_vertex_rejected(self):
        # A later line for vertex 0 would overwrite the first one and leave
        # phi (1, 1) on a 2-vertex graph.
        graph = alternating_path(1)
        text = "v 0 spine 0 0\nv 1 spine 1 1\nv 0 spine 0 1\n"
        with pytest.raises(ValueError, match="repeated role line for vertex 0"):
            parse_roles(text, graph)

    def test_unknown_role_rejected(self):
        # role_array would code the role -1 and recompute_phi would treat
        # the vertex as unpinned.
        f = fixture("H3_small")
        lines = format_roles(f).splitlines()
        lines[0] = "v 0 foo 0 0"
        with pytest.raises(ValueError, match="unknown role 'foo'"):
            parse_roles("\n".join(lines) + "\n", f.graph)


def test_sequence_triple_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SequenceTriple(1, (0, 4, 3, 0), (2, 2, 2), (0, 0, 0, 0)).require_valid()
    with pytest.raises(ValueError, match="nonnegative"):
        SequenceTriple(1, (0, -4, -4, 0), (2, 2, 2), (0, 0, 0, 0)).require_valid()
    with pytest.raises(ValueError, match="x_0"):
        SequenceTriple(1, (1, 4, 4, 1), (2, 2, 2), (0, 0, 0, 0)).require_valid()
