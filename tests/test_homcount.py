import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altpaths.constructions import (
    FIXTURE_NAMES,
    alternating_path,
    build_h_odd,
    fixture,
    materialise,
    plan_odd,
)
from altpaths.ecgraph import (
    BLUE,
    RED,
    BudgetExceeded,
    EdgeColouredGraph,
    enumerate_hosts,
    host_from_index,
    random_hosts,
)
from altpaths.homcount import (
    NotAForest,
    _plan,
    density,
    forest_orders,
    hom,
    hom_brute,
    hom_forest,
    is_forest,
    rooted_tables,
    weighted_ab_bound,
)
from helpers import (
    brute_hom_oracle,
    path_walk_oracle,
    random_forest,
    random_graph,
    random_plan,
    random_triple,
)

TRIANGLE = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, BLUE), (0, 2, RED)])
RED_EDGE = EdgeColouredGraph.make(2, [(0, 1, RED)])


class TestBrute:
    def test_red_edge_in_triangle(self):
        assert hom_brute(RED_EDGE, TRIANGLE) == 4  # 2 * e_R

    def test_alternating_p3_in_triangle(self):
        # Independent oracle sweeps all 3^4 = 81 maps.
        assert brute_hom_oracle(alternating_path(3), TRIANGLE) == 2
        assert hom_brute(alternating_path(3), TRIANGLE) == 2

    def test_isolated_vertex(self):
        one = EdgeColouredGraph(1, ())
        host = EdgeColouredGraph(5, ())
        assert hom_brute(one, host) == 5

    def test_empty_pattern(self):
        assert hom_brute(EdgeColouredGraph(0, ()), TRIANGLE) == 1

    def test_budget_refusal_reports_requirement(self):
        big = EdgeColouredGraph(30, ())
        with pytest.raises(BudgetExceeded) as err:
            hom_brute(big, EdgeColouredGraph(10, ()), budget=100)
        assert err.value.required == 10**30


class TestForestDP:
    def test_rejects_cycles_with_vertex_list(self):
        with pytest.raises(NotAForest) as err:
            hom_forest(TRIANGLE, TRIANGLE)
        assert sorted(err.value.cycle) == [0, 1, 2]

    def test_no_blue_edge_means_zero(self):
        all_red = EdgeColouredGraph.make(
            4, [(u, v, RED) for u in range(4) for v in range(u + 1, 4)]
        )
        assert hom_forest(alternating_path(3), all_red) == 0

    def test_two_disjoint_red_edges(self):
        h = EdgeColouredGraph.make(4, [(0, 1, RED), (2, 3, RED)])
        for g in (TRIANGLE, alternating_path(4)):
            e_r = g.num_edges(RED)
            assert hom_forest(h, g) == (2 * e_r) ** 2

    def test_agreement_with_oracle_seeded(self):
        rng = random.Random(2024)
        done = 0
        while done < 120:
            h = random_forest(rng, rng.randint(1, 8))
            g = random_graph(rng, rng.randint(1, 7))
            if g.n**h.n > 20000:
                continue
            assert hom_forest(h, g) == brute_hom_oracle(h, g)
            done += 1

    def test_empty_host(self):
        assert hom_forest(RED_EDGE, EdgeColouredGraph(0, ())) == 0
        assert hom_forest(EdgeColouredGraph(0, ()), EdgeColouredGraph(0, ())) == 1

    def test_deep_path_without_recursion(self):
        path = alternating_path(10_000)
        g = EdgeColouredGraph.make(
            4, [(0, 1, RED), (2, 3, RED), (0, 2, BLUE), (0, 3, BLUE), (1, 2, BLUE), (1, 3, BLUE)]
        )
        assert hom_forest(path, g) == path_walk_oracle(path, g)

    def test_rooted_tables_pin_each_subtree_root(self):
        # Vertex 0 roots the tree; below 2 hang 3 and 4, below 3 hangs 5.
        h = EdgeColouredGraph.make(
            6, [(0, 1, RED), (0, 2, BLUE), (2, 3, RED), (2, 4, RED), (3, 5, BLUE)]
        )
        below = {0: [0, 1, 2, 3, 4, 5], 1: [1], 2: [2, 3, 4, 5], 3: [3, 5], 4: [4], 5: [5]}
        g = random_graph(random.Random(31), 4)
        tables = rooted_tables(h, g)
        for v, subtree in below.items():
            assert tables[v] == _subtree_table(h, g, subtree, v)

    def test_rooted_tables_in_vertex_order_when_the_walk_is_not(self):
        # Relabelled forests, so that forest_orders visits the vertices out
        # of index order and each table must be mapped back to its vertex.
        rng = random.Random(2121)
        shuffled = 0
        for _ in range(60):
            tree = random_forest(rng, rng.randint(2, 6))
            perm = rng.sample(range(tree.n), tree.n)
            h = EdgeColouredGraph.make(
                tree.n, [(min(perm[u], perm[v]), max(perm[u], perm[v]), c) for u, v, c in tree.edges]
            )
            parent = {v: p for order in forest_orders(h) for v, p in order}
            shuffled += list(parent) != list(range(h.n))
            g = random_graph(rng, rng.randint(1, 3))
            tables = rooted_tables(h, g)
            for v in range(h.n):
                subtree = [w for w in range(h.n) if _below(parent, w, v)]
                assert tables[v] == _subtree_table(h, g, subtree, v), (h.edges, v)
        assert shuffled >= 30


def _below(parent: dict, w: int, v: int) -> bool:
    """Whether w lies in the subtree below v under the parent map."""
    while w is not None and w != v:
        w = parent[w]
    return w == v


def _subtree_table(h: EdgeColouredGraph, g: EdgeColouredGraph, subtree: list[int], v: int) -> list[int]:
    """Per host vertex, the maps of the subtree's vertices that keep every
    edge of h inside it and send v there, counted one map at a time."""
    lookup = {(u, w): c for u, w, c in g.edges}
    lookup.update({(w, u): c for u, w, c in g.edges})
    edges = [(a, b, c) for a, b, c in h.edges if a in subtree and b in subtree]
    table = [0] * g.n
    for images in product(range(g.n), repeat=len(subtree)):
        at = dict(zip(subtree, images))
        if all(lookup.get((at[a], at[b])) == c for a, b, c in edges):
            table[at[v]] += 1
    return table


def _vertex_compiled(graph: EdgeColouredGraph) -> EdgeColouredGraph:
    """The same graph rebuilt from its edge tuples, without the class blocks
    of a built forest, so that its plan is compiled vertex by vertex."""
    return EdgeColouredGraph(graph.n, graph.edges)


class TestBlockPlan:
    """The plan compiled from a built forest's class blocks, against the
    vertex-by-vertex compile of the same graph as the oracle."""

    SMALL_HOSTS = [g for n in range(1, 5) for g in enumerate_hosts(n)]

    @staticmethod
    def built_forests():
        yield from (build_h_odd(k) for k in range(1, 9))
        yield from (fixture(name) for name in FIXTURE_NAMES)

    def test_compiled_without_reading_the_edges(self):
        for forest in (build_h_odd(3), fixture("H5")):
            plan = _plan(forest.graph)
            assert "edges" not in forest.graph.__dict__
            assert plan == _plan(_vertex_compiled(forest.graph))

    def test_vertex_runs_are_kept_per_block(self):
        # The subtree step of each vertex is kept as runs over the vertex
        # blocks, not as one entry per vertex.
        forest = build_h_odd(10)
        plan = _plan(forest.graph)
        vblocks, _ = forest.graph.__dict__["_blocks"]
        assert sum(count for _, count in plan.vertex_runs) == forest.graph.n
        assert len(plan.vertex_runs) <= len(vblocks) < 1000

    def test_equal_hom_on_every_host_up_to_four_vertices(self):
        assert len([g for g in self.SMALL_HOSTS if g.n == 4]) == 729
        for forest in self.built_forests():
            oracle = _vertex_compiled(forest.graph)
            for g in self.SMALL_HOSTS:
                assert hom_forest(forest.graph, g) == hom_forest(oracle, g), g.canonical_key()

    @pytest.mark.parametrize("k", [9, 10])
    def test_equal_hom_on_seeded_hosts_at_large_k(self, k):
        forest = build_h_odd(k)
        oracle = _vertex_compiled(forest.graph)
        hosts = list(random_hosts(6, 6, seed=900 + k)) + [host_from_index(4, i) for i in (44, 156, 424)]
        assert any(hom_forest(oracle, g) for g in hosts)
        for g in hosts:
            assert hom_forest(forest.graph, g) == hom_forest(oracle, g), g.canonical_key()

    def test_equal_hom_on_random_triples(self):
        rng = random.Random(1313)
        hosts = [host_from_index(4, i) for i in (44, 156, 424, 481)] + list(random_hosts(4, 5, seed=1314))
        for _ in range(200):
            s = random_triple(rng)
            forest = materialise(2 * s.k + 1, plan_odd(s.k, s))
            oracle = _vertex_compiled(forest.graph)
            for g in hosts:
                assert hom_forest(forest.graph, g) == hom_forest(oracle, g), (s, g.canonical_key())

    def test_equal_hom_on_random_plans(self):
        rng = random.Random(1315)
        hosts = [host_from_index(4, i) for i in (44, 156, 424, 481)] + list(random_hosts(4, 5, seed=1316))
        for length in (1, 3, 5):
            built = 0
            while built < 40:
                try:
                    forest = materialise(length, random_plan(rng, length))
                except ValueError:   # a class with no spine image
                    continue
                built += 1
                oracle = _vertex_compiled(forest.graph)
                for g in hosts:
                    assert hom_forest(forest.graph, g) == hom_forest(oracle, g), g.canonical_key()

    def test_rooted_tables_per_vertex(self):
        hosts = [host_from_index(4, i) for i in range(0, 729, 53)]
        rng = random.Random(1317)
        forests = [build_h_odd(k) for k in range(1, 5)] + [fixture(name) for name in FIXTURE_NAMES]
        for _ in range(10):
            s = random_triple(rng)
            forests.append(materialise(2 * s.k + 1, plan_odd(s.k, s)))
        for forest in forests:
            oracle = _vertex_compiled(forest.graph)
            for g in hosts:
                assert rooted_tables(forest.graph, g) == rooted_tables(oracle, g), g.canonical_key()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_forest_dp_matches_oracle(rng):
    h = random_forest(rng, rng.randint(1, 6))
    g = random_graph(rng, rng.randint(1, 4))
    assert hom_forest(h, g) == brute_hom_oracle(h, g)


def test_multiplicative_over_disjoint_unions():
    rng = random.Random(99)
    for _ in range(200):
        h1 = random_forest(rng, rng.randint(1, 4))
        h2 = random_forest(rng, rng.randint(1, 4))
        shifted = [(u + h1.n, v + h1.n, c) for u, v, c in h2.edges]
        union = EdgeColouredGraph.make(h1.n + h2.n, list(h1.edges) + shifted)
        g = random_graph(rng, rng.randint(1, 5))
        assert hom_forest(union, g) == hom_forest(h1, g) * hom_forest(h2, g)


def test_adding_pattern_edge_never_increases_count():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 5)
        h = random_graph(rng, n)
        free = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if all((eu, ev) != (u, v) for eu, ev, _ in h.edges)
        ]
        if not free:
            continue
        u, v = rng.choice(free)
        colour = RED if rng.random() < 0.5 else BLUE
        bigger = EdgeColouredGraph.make(n, list(h.edges) + [(u, v, colour)])
        g = random_graph(rng, rng.randint(1, 4))
        assert hom_brute(bigger, g) <= hom_brute(h, g)


class TestDensity:
    def test_red_edge_in_all_red_k4(self):
        k4 = EdgeColouredGraph.make(
            4, [(u, v, RED) for u in range(4) for v in range(u + 1, 4)]
        )
        assert density(RED_EDGE, k4) == Fraction(3, 4)

    def test_p3_in_triangle(self):
        assert density(alternating_path(3), TRIANGLE) == Fraction(2, 81)

    def test_isolated_vertex_normalises_to_one(self):
        one = EdgeColouredGraph(1, ())
        assert density(one, TRIANGLE) == 1

    def test_empty_pattern_density_is_one(self):
        assert density(EdgeColouredGraph(0, ()), TRIANGLE) == 1

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            density(RED_EDGE, EdgeColouredGraph(0, ()))

    def test_in_unit_interval(self):
        rng = random.Random(12)
        for _ in range(150):
            h = random_forest(rng, rng.randint(1, 5))
            g = random_graph(rng, rng.randint(1, 5))
            assert 0 <= density(h, g) <= 1


class TestWeightedBound:
    def test_examples(self):
        assert weighted_ab_bound(2, 1, 3) == 4
        assert weighted_ab_bound(1, 1, 2) == 1
        assert weighted_ab_bound(2, 1, 1) == Fraction(4, 27)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            weighted_ab_bound(0, 1, 1)
        with pytest.raises(ValueError):
            weighted_ab_bound(1, 1, 0)

    def test_dominates_grid(self):
        # The bound really is the maximum of x^a y^b on the simplex slice.
        a, b, m = 3, 2, 5
        bound = weighted_ab_bound(a, b, m)
        for i in range(0, 51):
            x = Fraction(i * m, 50)
            y = m - x
            assert x**a * y**b <= bound


def test_is_forest():
    assert is_forest(alternating_path(5))
    assert not is_forest(TRIANGLE)


class TestForestOrders:
    def test_breadth_first_from_each_minimum_vertex(self):
        h = EdgeColouredGraph.make(
            7, [(0, 4, RED), (0, 2, BLUE), (2, 5, RED), (1, 3, RED), (4, 6, BLUE)]
        )
        assert forest_orders(h) == [
            [(0, None), (2, 0), (4, 0), (5, 2), (6, 4)],
            [(1, None), (3, 1)],
        ]

    def test_cycle_away_from_the_root(self):
        h = EdgeColouredGraph.make(
            6, [(0, 1, RED), (1, 2, BLUE), (2, 3, RED), (3, 4, BLUE), (2, 4, RED), (4, 5, RED)]
        )
        with pytest.raises(NotAForest) as err:
            forest_orders(h)
        assert err.value.cycle == [2, 3, 4]
        assert not is_forest(h)


class TestHomDispatch:
    def test_cycle_falls_back_to_brute(self):
        assert hom(TRIANGLE, TRIANGLE) == hom_brute(TRIANGLE, TRIANGLE)

    def test_invalid_pattern_is_a_value_error(self):
        with pytest.raises(ValueError):
            hom(EdgeColouredGraph(2, ((0, 5, RED),)), TRIANGLE)
