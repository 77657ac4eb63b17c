import gc
import importlib.util
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import pytest

import altpaths
from altpaths import entropy as entropy_module
from altpaths.constructions import (
    ClassCounts,
    alternating_path,
    build_h_odd,
    LabelledForest,
    fixture,
    materialise,
    plan_odd,
)
from altpaths.ecgraph import (
    BLUE,
    RED,
    BudgetExceeded,
    EdgeColouredGraph,
    circulant_host,
    host_count,
    host_from_index,
)
from altpaths.entropy import (
    DiscreteDistribution,
    EmptySupport,
    PathMarginals,
    closed_form_entropy,
    conditional_entropy,
    entropy,
    glue,
    glued_distribution,
    path_entropy_formula,
    uniform,
    uniform_hom_distribution,
)
from altpaths.homcount import NotAForest, forest_orders, hom_forest
from helpers import glue_oracle, glued_distribution_oracle, random_graph, random_triple

TRIANGLE = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, BLUE), (0, 2, RED)])
# Red 4-cycle with a blue perfect matching: every alternating walk extends.
C4 = circulant_host(4, {1, 3})


def random_distribution(rng, outcomes):
    weights = [rng.randint(1, 12) for _ in outcomes]
    total = sum(weights)
    return DiscreteDistribution(
        {o: Fraction(w, total) for o, w in zip(outcomes, weights)}
    )


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(uniform([0, 1, 2, 3])) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(DiscreteDistribution({"x": Fraction(1)})) == 0.0

    def test_dyadic(self):
        d = DiscreteDistribution({0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
        assert entropy(d) == pytest.approx(1.5, abs=1e-12)

    def test_bounded_by_log_support(self):
        rng = random.Random(31)
        for _ in range(1000):
            size = rng.randint(1, 9)
            d = random_distribution(rng, range(size))
            assert entropy(d) <= math.log2(len(d.support())) + 1e-12

    def test_uniform_attains_bound_nonuniform_does_not(self):
        assert entropy(uniform(range(6))) == pytest.approx(math.log2(6), abs=1e-12)
        lopsided = DiscreteDistribution({0: Fraction(2, 3), 1: Fraction(1, 3)})
        assert entropy(lopsided) < 1.0 - 1e-3

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution({0: Fraction(1, 2)})
        with pytest.raises(ValueError, match="sum"):
            uniform([0, 0])
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistribution({0: Fraction(3, 2), 1: Fraction(-1, 2)})

    def test_entropy_is_the_defining_sum_bit_for_bit(self):
        rng = random.Random(5)
        for _ in range(300):
            d = random_distribution(rng, range(rng.randint(1, 9)))
            d = DiscreteDistribution({**dict(d.items()), "zero": Fraction(0)})
            expected = -sum(
                float(p) * (math.log2(p.numerator) - math.log2(p.denominator))
                for _, p in d.items()
                if p > 0
            )
            assert entropy(d) == expected


    def test_entropy_is_the_defining_sum_on_repeated_weights(self):
        # Many outcomes share a few weights, so a term computed once per
        # distinct weight stands for many summands.
        def defining_sum(d):
            return -sum(
                float(p) * (math.log2(p.numerator) - math.log2(p.denominator))
                for _, p in d.items()
                if p > 0
            )

        rng = random.Random(9)
        cases = [uniform(range(1000))]
        for _ in range(50):
            values = [rng.randint(0, 40) for _ in range(rng.randint(1, 4))]
            weights = [rng.choice(values) for _ in range(rng.randint(1, 2000))]
            rng.shuffle(weights)
            if sum(weights):
                cases.append(DiscreteDistribution.from_weights(dict(enumerate(weights)), sum(weights)))
        for d in cases:
            assert entropy(d) == defining_sum(d)


class TestFromWeights:
    def test_same_as_fraction_constructor(self):
        half = DiscreteDistribution({0: Fraction(1, 2), 1: Fraction(1, 2)})
        padded = DiscreteDistribution.from_weights({0: 3, 1: 3, 2: 0}, 6)
        assert DiscreteDistribution.from_weights({0: 1, 1: 1}, 2) == padded == half
        for near in ({0: 4, 1: 2}, {0: 3, 1: 2, 2: 1}):
            near = DiscreteDistribution.from_weights(near, 6)
            assert near != padded and padded != near and near != half
        rng = random.Random(12)
        for _ in range(200):
            weights = {o: rng.randint(0, 50) for o in range(rng.randint(1, 8))}
            total = sum(weights.values())
            if total == 0:
                continue
            d = DiscreteDistribution.from_weights(weights, total)
            ref = DiscreteDistribution({o: Fraction(w, total) for o, w in weights.items()})
            assert list(d.items()) == list(ref.items())
            assert all(type(p) is Fraction for _, p in d.items())

    @pytest.mark.parametrize("weights, denominator, fragment", [
        ({0: 1, 1: 1}, 3, "sum"),
        ({0: 4, 1: -1}, 3, "nonnegative integer"),
        ({0: 1.0, 1: 2}, 3, "nonnegative integer"),
        ({0: Fraction(1), 1: 2}, 3, "nonnegative integer"),
        ({}, 0, "positive integer"),
        ({0: 1}, 1.0, "positive integer"),
    ])
    def test_rejections(self, weights, denominator, fragment):
        with pytest.raises(ValueError, match=fragment):
            DiscreteDistribution.from_weights(weights, denominator)

    @pytest.mark.parametrize("bad", [-1, 1.0, Fraction(1), -(2**70)])
    def test_first_bad_weight_named_after_many_valid(self, bad):
        weights = dict.fromkeys(range(5000), 1)
        weights[("bad", 0)] = bad
        weights.update(dict.fromkeys(range(5000, 7000), 2))
        weights[("bad", 1)] = -5
        with pytest.raises(ValueError) as caught:
            DiscreteDistribution.from_weights(weights, 9000)
        assert str(caught.value) == (
            f"weight {bad!r} for ('bad', 0) is not a nonnegative integer"
        )

    @pytest.mark.parametrize("case", ["random", "zeros", "single", "huge"])
    def test_entropy_from_weights_bit_for_bit(self, case):
        rng = random.Random(case)
        for _ in range(100):
            if case == "single":
                den = rng.randint(1, 2**64)
                weights = {"only": den}
            else:
                size = rng.randint(1, 9)
                top = 2**1100 if case == "huge" else 50
                weights = {o: rng.randint(0, top) for o in range(size)}
                if case == "zeros":
                    weights.update({("zero", o): 0 for o in range(rng.randint(1, 4))})
                den = sum(weights.values())
                if den == 0:
                    continue
                if case == "huge":
                    assert den > 2**1000
            d = DiscreteDistribution.from_weights(weights, den)
            twin = DiscreteDistribution({o: Fraction(w, den) for o, w in weights.items()})
            assert entropy(d) == entropy(twin)

    def test_weight_reads_leave_the_fraction_map_unbuilt(self, monkeypatch):
        weights = {(0, 1): 3, (1, 0): 0, (1, 1): 5, (2, 2): 4}
        d = DiscreteDistribution.from_weights(weights, 12)
        twin = DiscreteDistribution({o: Fraction(w, 12) for o, w in weights.items()})

        def no_fraction(*args):
            raise AssertionError("a weight read formed a Fraction")

        with monkeypatch.context() as m:
            m.setattr(altpaths.entropy, "Fraction", no_fraction)
            assert list(d.outcomes()) == list(twin.outcomes())
            assert len(d) == len(twin) == 3
            assert d.support() == twin.support()
            assert entropy(d) == entropy(twin)
        assert list(d.items()) == list(twin.items())
        assert d == twin and d.marginal([0]) == twin.marginal([0])
        assert d.probability((1, 1)) == Fraction(5, 12)

    def test_weights_are_copied(self):
        weights = {0: 1, 1: 1}
        d = DiscreteDistribution.from_weights(weights, 2)
        weights[0] = 7
        assert dict(d.items()) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


class TestConditionalEntropy:
    def test_fully_determined(self):
        d = uniform([(0, 0), (1, 1), (2, 2)])
        assert conditional_entropy(d) == 0.0

    def test_independent(self):
        d = uniform([(x, y) for x in range(2) for y in range(2)])
        assert conditional_entropy(d) == pytest.approx(1.0, abs=1e-12)

    def test_three_point_joint(self):
        d = uniform([(0, 0), (0, 1), (1, 0)])
        assert conditional_entropy(d) == pytest.approx(2 / 3, abs=1e-12)

    def test_chain_rule_on_random_joints(self):
        rng = random.Random(8)
        for _ in range(200):
            pairs = [(x, y) for x in range(rng.randint(1, 4)) for y in range(rng.randint(1, 4))]
            d = random_distribution(rng, pairs)
            h_y = entropy(d.marginal([1]))
            assert conditional_entropy(d) == pytest.approx(entropy(d) - h_y, abs=1e-12)

    def test_deconditioning(self):
        rng = random.Random(77)
        for _ in range(200):
            triples = [
                (x, y, z)
                for x in range(rng.randint(1, 3))
                for y in range(rng.randint(1, 3))
                for z in range(rng.randint(1, 3))
            ]
            d = random_distribution(rng, triples)
            given_yz = DiscreteDistribution(
                {(x, (y, z)): p for (x, y, z), p in d.items()}
            )
            given_y = d.marginal([0, 1])
            assert conditional_entropy(given_yz) <= conditional_entropy(given_y) + 1e-12

    def test_deconditioning_equality_under_conditional_independence(self):
        rng = random.Random(13)
        for _ in range(50):
            ys = range(rng.randint(1, 3))
            p_y = random_distribution(rng, ys)
            x_given = {y: random_distribution(rng, range(3)) for y in ys}
            z_given = {y: random_distribution(rng, range(3)) for y in ys}
            joint = {}
            for y in ys:
                for x, px in x_given[y].items():
                    for z, pz in z_given[y].items():
                        p = p_y.probability(y) * px * pz
                        if p:
                            joint[(x, y, z)] = p
            d = DiscreteDistribution(joint)
            given_yz = DiscreteDistribution({(x, (y, z)): p for (x, y, z), p in d.items()})
            given_y = d.marginal([0, 1])
            assert conditional_entropy(given_yz) == pytest.approx(
                conditional_entropy(given_y), abs=1e-12
            )


class TestGluing:
    def _random_gluable_joint(self, rng):
        bs = range(rng.randint(1, 3))
        q = random_distribution(rng, bs)
        a_given = {b: random_distribution(rng, range(3)) for b in bs}
        c_given = {b: random_distribution(rng, range(3)) for b in bs}
        joint = {}
        for b1 in bs:
            for b2 in bs:
                for a, pa in a_given[b1].items():
                    for c, pc in c_given[b2].items():
                        p = q.probability(b1) * q.probability(b2) * pa * pc
                        if p:
                            key = (a, b1, b2, c)
                            joint[key] = joint.get(key, Fraction(0)) + p
        return DiscreteDistribution(joint)

    def test_glued_marginal_matches_exactly(self):
        rng = random.Random(23)
        for _ in range(40):
            joint = self._random_gluable_joint(rng)
            glued = glue(joint)
            assert glued.marginal([1, 4]) == joint.marginal([2, 3])
            assert list(glued.items()) == list(glue_oracle(joint).items())

    def test_conditional_independence_exact(self):
        rng = random.Random(29)
        for _ in range(40):
            joint = self._random_gluable_joint(rng)
            glued = glue(joint)
            assert list(glued.items()) == list(glue_oracle(joint).items())
            # P(a, c' | b1) must factor exactly for every b1 in the range.
            by_b1 = {}
            for (a, b1, _, _, cp), p in glued.items():
                if p:
                    slot = by_b1.setdefault(b1, {})
                    slot[(a, cp)] = slot.get((a, cp), Fraction(0)) + p
            for b1, table in by_b1.items():
                total = sum(table.values())
                pa = {}
                pc = {}
                for (a, cp), p in table.items():
                    pa[a] = pa.get(a, Fraction(0)) + p
                    pc[cp] = pc.get(cp, Fraction(0)) + p
                for (a, cp), p in table.items():
                    assert p * total == pa[a] * pc[cp]

    def test_rejects_mismatched_marginals(self):
        joint = uniform([(0, 0, 1, 0), (0, 0, 1, 1)])
        with pytest.raises(ValueError, match="identically distributed"):
            glue(joint)


class TestUniformHomDistribution:
    def test_triangle_support(self):
        d = uniform_hom_distribution(alternating_path(3), TRIANGLE)
        assert sorted(d.support()) == [(0, 1, 2, 0), (0, 2, 1, 0)]
        assert entropy(d) == pytest.approx(1.0, abs=1e-12)

    def test_red_edge_two_maps(self):
        host = EdgeColouredGraph.make(2, [(0, 1, RED)])
        d = uniform_hom_distribution(alternating_path(1), host)
        assert sorted(d.support()) == [(0, 1), (1, 0)]

    def test_entropy_is_log_hom(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 4))
            p = alternating_path(rng.randint(1, 4))
            total = hom_forest(p, g)
            if total == 0:
                with pytest.raises(EmptySupport):
                    uniform_hom_distribution(p, g)
                continue
            d = uniform_hom_distribution(p, g)
            assert entropy(d) == pytest.approx(math.log2(total), abs=1e-9)

    def test_guard(self):
        big = circulant_host(8, {1, 7})
        with pytest.raises(BudgetExceeded):
            uniform_hom_distribution(alternating_path(5), big, guard=10)


def test_enumeration_count_check_survives_optimised_mode():
    # Under python -O a bare assert disappears; the check that the
    # enumeration found every homomorphism the walk tables count must not.
    src = str(Path(altpaths.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from altpaths import entropy as e\n"
        "from altpaths.constructions import alternating_path\n"
        "from altpaths.ecgraph import circulant_host\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "walk = e._walk_tables\n"
        "def doubled(p, g):\n"
        "    colours, forward, backward = walk(p, g)\n"
        "    return colours, forward[:-1] + [[2 * c for c in forward[-1]]], backward\n"
        "e._walk_tables = doubled\n"
        "try:\n"
        "    e.uniform_hom_distribution(alternating_path(3), circulant_host(4, {1, 3}))\n"
        "except ArithmeticError as exc:\n"
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
    assert "the walk tables count" in result.stdout


class TestPathEntropyFormula:
    def test_matches_log_hom_on_random_hosts(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 100:
            g = random_graph(rng, rng.randint(1, 5))
            p = alternating_path(rng.randint(1, 5))
            total = hom_forest(p, g)
            if total == 0:
                continue
            assert path_entropy_formula(p, g) == pytest.approx(
                math.log2(total), abs=1e-9
            )
            checked += 1

    def test_single_hom_host_gives_zero_bits(self):
        host = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, BLUE)])
        # Exactly one homomorphism of the 2-edge path: the identity layout.
        assert hom_forest(alternating_path(2), host) == 1
        assert path_entropy_formula(alternating_path(2), host) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_regular_circulant(self):
        p = alternating_path(3)
        total = hom_forest(p, C4)
        assert path_entropy_formula(p, C4) == pytest.approx(
            math.log2(total), abs=1e-9
        )


class TestGluedDistribution:
    def test_pendant_leaf_entropy_shift(self):
        pendant = materialise(3, {1: ClassCounts(xr=1)})
        marg = PathMarginals(alternating_path(3), C4)
        glued = glued_distribution(pendant, alternating_path(3), C4)
        expected = (
            math.log2(marg.hom) + marg.pair_entropy(0) - marg.single_entropy(1)
        )
        assert entropy(glued) == pytest.approx(expected, abs=1e-9)

    def test_support_is_contained_in_hom_set(self):
        h = fixture("H3_small")
        for g in (TRIANGLE, C4):
            glued = glued_distribution(h, alternating_path(3), g)
            lookup = {}
            for u, v, c in g.edges:
                lookup[(u, v)] = c
                lookup[(v, u)] = c
            for outcome in glued.support():
                for u, v, c in h.graph.edges:
                    assert lookup.get((outcome[u], outcome[v])) == c

    def test_isolated_vertex_adds_its_image_entropy(self):
        base = materialise(3, {1: ClassCounts(xr=2)})
        widened = materialise(3, {1: ClassCounts(xr=2, aux=1)})
        spine = alternating_path(3)
        marg = PathMarginals(spine, C4)
        delta = entropy(glued_distribution(widened, spine, C4)) - entropy(
            glued_distribution(base, spine, C4)
        )
        assert delta == pytest.approx(marg.single_entropy(1), abs=1e-9)

    def test_agreement_with_closed_form(self):
        spine = alternating_path(3)
        checked = 0
        for name in ("H3_small", "H3_large"):
            h = fixture(name)
            for g in (TRIANGLE, C4):
                try:
                    glued = glued_distribution(h, spine, g, guard=10**6)
                except BudgetExceeded:
                    continue   # H3_large on the circulant has ~2.7e8 states
                assert entropy(glued) == pytest.approx(
                    closed_form_entropy(h, spine, g), abs=1e-9
                )
                checked += 1
        assert checked >= 3

    def test_guard_refusal(self):
        h = fixture("H5")
        with pytest.raises(BudgetExceeded):
            glued_distribution(h, alternating_path(5), C4, guard=100)

    def test_collector_held_while_building_and_restored(self, monkeypatch):
        # Off while the states are counted and built; on again after a
        # return and after a refusal; left off when the caller had it off.
        seen = []
        count_states = entropy_module._state_counts

        def counting(*args):
            seen.append(gc.isenabled())
            return count_states(*args)

        monkeypatch.setattr(entropy_module, "_state_counts", counting)
        spine = alternating_path(3)
        assert gc.isenabled()
        glued_distribution(fixture("H3_small"), spine, C4)
        assert gc.isenabled()
        with pytest.raises(BudgetExceeded):
            glued_distribution(fixture("H5"), alternating_path(5), C4, guard=100)
        assert gc.isenabled()
        gc.disable()
        try:
            glued_distribution(fixture("H3_small"), spine, C4)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False, False, False]


def _glue_or_refusal(glue_fn, h, g, guard):
    spine = alternating_path(h.spine_edges)
    try:
        return glue_fn(h, spine, g, guard=guard)
    except BudgetExceeded as exc:
        return ("refused", exc.required)
    except EmptySupport:
        return ("empty", None)


def _check_against_oracle(h, g, guard, outcomes):
    new = _glue_or_refusal(glued_distribution, h, g, guard)
    old = _glue_or_refusal(glued_distribution_oracle, h, g, guard)
    if isinstance(old, tuple):
        assert new == old
        outcomes.add(old[0])
    else:
        assert "_mass" not in vars(new)
        before_keys = entropy(new)
        assert list(new.items()) == list(old.items())
        assert "_weights" not in vars(new)
        assert before_keys == entropy(new) == entropy(old)
        outcomes.add("glued")


class TestLazyKeys:
    """The glued distribution returns its weight list checked and keys its
    outcomes on first read; ``_check_against_oracle`` reads the entropy
    before and after the keys, and compares both with the oracle's."""

    def test_h3_fixtures_on_the_other_four_vertex_hosts(self):
        # TestGluedAgainstOracle covers the 96 hosts with homomorphisms of
        # both spines; these are the remaining 633 of the 729.
        spine = alternating_path(5)
        hosts = [host_from_index(4, i) for i in range(host_count(4))]
        hosts = [g for g in hosts if not hom_forest(spine, g)]
        assert len(hosts) == 633
        outcomes = set()
        for name in ("H3_small", "H3_large"):
            h = fixture(name)
            for g in hosts:
                _check_against_oracle(h, g, 30_000, outcomes)
        assert outcomes == {"glued", "refused", "empty"}

    @pytest.mark.parametrize("corrupt, message", [
        (lambda f: f + 1, "weights sum to"),
        (lambda f: -f, r"weight -\d+ for \(.*\) is not a nonnegative integer"),
    ])
    def test_corrupted_row_raises_at_call_time(self, monkeypatch, corrupt, message):
        factors = entropy_module._weight_factors

        def corrupted(*args):
            rows, lcm = factors(*args)
            row = next(iter(rows.values()))
            row[0] = row[0][0], corrupt(row[0][1])
            return rows, lcm

        monkeypatch.setattr(entropy_module, "_weight_factors", corrupted)
        with pytest.raises(ValueError, match=message):
            glued_distribution(fixture("H3_small"), alternating_path(3), C4)

    def test_keys_one_outcome_per_weight(self):
        h = fixture("H3_small")
        d = glued_distribution(h, alternating_path(3), C4)
        weights = d._weights
        d._keys = lambda: repeat(h.phi, len(weights))
        with pytest.raises(ArithmeticError, match="have 1 distinct outcomes"):
            d.outcomes()
        assert "_mass" not in vars(d) and d._weights is weights


class TestGluedAgainstOracle:
    """The integer-weight gluing against the Fraction-per-state oracle: the
    same items in the same order, the same entropy float, or a refusal with
    the same required state count."""

    def test_fixtures_on_every_four_vertex_host(self):
        spines = (alternating_path(3), alternating_path(5))
        hosts = [host_from_index(4, i) for i in range(host_count(4))]
        hosts = [g for g in hosts if all(hom_forest(p, g) for p in spines)]
        assert len(hosts) == 96
        outcomes = set()
        for name in ("H3_small", "H3_large", "H5"):
            h = fixture(name)
            for g in hosts:
                _check_against_oracle(h, g, 30_000, outcomes)
        assert outcomes == {"glued", "refused"}

    def test_random_triples(self):
        rng = random.Random(2026)
        outcomes = set()
        for _ in range(100):
            s = random_triple(rng)
            h = materialise(2 * s.k + 1, plan_odd(s.k, s))
            spine = alternating_path(h.spine_edges)
            host = random_graph(rng, rng.randint(2, 5))
            while not hom_forest(spine, host):
                host = random_graph(rng, rng.randint(2, 5))
            for g in (TRIANGLE, C4, host):
                _check_against_oracle(h, g, 3_000, outcomes)
        assert outcomes == {"glued", "refused", "empty"}

    # Guards from 1 to past the largest H3_large support, so that the
    # refusal falls on many different breadth-first prefixes.
    GUARD_LADDER = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 30_000)

    def test_every_prefix_refusal_on_fixtures(self):
        # Hosts 44 and 268 glue H3_large into 23,328 states, 156 and 412
        # into 16,384; H5 is refused at a different prefix on each class.
        outcomes = set()
        for name in ("H3_small", "H3_large", "H5"):
            h = fixture(name)
            for index in (44, 156, 268, 412):
                g = host_from_index(4, index)
                for guard in self.GUARD_LADDER:
                    _check_against_oracle(h, g, guard, outcomes)
        assert outcomes == {"glued", "refused"}

    def test_every_prefix_refusal_on_random_triples(self):
        rng = random.Random(77)
        outcomes = set()
        for _ in range(4):
            s = random_triple(rng)
            h = materialise(2 * s.k + 1, plan_odd(s.k, s))
            spine = alternating_path(h.spine_edges)
            host = random_graph(rng, rng.randint(3, 5))
            while not hom_forest(spine, host):
                host = random_graph(rng, rng.randint(3, 5))
            for g in (C4, host):
                for guard in self.GUARD_LADDER[:12]:
                    _check_against_oracle(h, g, guard, outcomes)
        assert "refused" in outcomes

    def test_every_prefix_refusal_on_a_later_component(self):
        # Two copies of the 3-edge spine: the second component's prefixes
        # are checked against the first component's full state count.
        edges = [(i, i + 1, c) for i, (_, _, c) in enumerate(alternating_path(3).edges)]
        graph = EdgeColouredGraph.make(8, edges + [(u + 4, v + 4, c) for u, v, c in edges])
        roles = tuple(("spine", i) for i in range(4)) + tuple(("aux", i) for i in range(4))
        h = LabelledForest(graph, roles, (0, 1, 2, 3) * 2, 3)
        outcomes = set()
        for index in (44, 156, 268, 412):
            for guard in self.GUARD_LADDER:
                _check_against_oracle(h, host_from_index(4, index), guard, outcomes)
        assert outcomes == {"glued", "refused"}


    # Edge cases of the component crossing: one component, components of
    # one state each, and isolated vertices numbered between the vertices
    # of other components, so that the re-keying into vertex order matters.
    def test_one_component(self):
        spine = alternating_path(3)
        hosts = [host_from_index(4, i) for i in range(host_count(4))]
        hosts = [g for g in hosts if hom_forest(spine, g)]
        outcomes = set()
        for plan in ({}, {1: ClassCounts(xr=2, xb=1), 2: ClassCounts(xr=1, xb=2)}):
            h = materialise(3, plan)
            assert len(forest_orders(h.graph)) == 1
            for g in hosts:
                for guard in (20, 30_000):
                    _check_against_oracle(h, g, guard, outcomes)
        assert outcomes == {"glued", "refused"}

    def test_components_of_one_state_each(self):
        # The 2-edge path has exactly one homomorphism into this host, so
        # every vertex of the forest has one image.
        host = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, BLUE)])
        plan = {
            0: ClassCounts(xr=1, y=1, aux=1),
            1: ClassCounts(xr=1, xb=1, y=2, aux=2),
            2: ClassCounts(xb=1, aux=1),
        }
        h = materialise(2, plan)
        assert len(forest_orders(h.graph)) == 8
        outcomes = set()
        _check_against_oracle(h, host, 30_000, outcomes)
        assert outcomes == {"glued"}
        assert list(glued_distribution(h, alternating_path(2), host).items()) == [(h.phi, 1)]

    def test_aux_vertices_between_components(self):
        # Two copies of the 3-edge spine with isolated vertices before,
        # between and after them in vertex order.
        spine = alternating_path(3)
        edges = [(u + 2, v + 2, c) for u, v, c in spine.edges]
        edges += [(u + 8, v + 8, c) for u, v, c in spine.edges]
        graph = EdgeColouredGraph.make(13, edges)
        phi = (1, 3, 0, 1, 2, 3, 0, 2, 0, 1, 2, 3, 2)
        roles = tuple(("spine", i) if 2 <= v < 6 else ("aux", phi[v]) for v, i in enumerate(phi))
        h = LabelledForest(graph, roles, phi, 3)
        assert [order[0][0] for order in forest_orders(graph)] == [0, 1, 2, 6, 7, 8, 12]
        outcomes = set()
        for index in (44, 156, 268, 412):
            _check_against_oracle(h, host_from_index(4, index), 30_000, outcomes)
        assert outcomes == {"glued"}


def test_benchmark_support_count_matches_the_gluing(monkeypatch):
    # The benchmark's reference script counts glued states through
    # _forest_bfs_orders and PathMarginals.conditional, and its runner
    # through len(outcomes()); all three must keep agreeing.
    monkeypatch.setattr(sys, "path", list(sys.path))    # the script prepends to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "make_reference.py"
    spec = importlib.util.spec_from_file_location("make_reference", path)
    make_reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_reference)
    h = fixture("H3_large")
    spine = alternating_path(h.spine_edges)
    for index in (44, 156, 424):
        g = host_from_index(4, index)
        assert make_reference.glued_support(h, g) == len(glued_distribution(h, spine, g).outcomes())


def test_oversized_gluing_refused_without_building():
    # H5 on host 44 of n = 4 has about 7.6e22 glued states; the default
    # budget is refused from the state count, before any state is built.
    g = host_from_index(4, 44)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            glued_distribution(fixture("H5"), alternating_path(5), g, guard=10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.required > 10**8
    assert peak < 4 * 2**20


@pytest.mark.parametrize("measure", [closed_form_entropy, glued_distribution])
def test_cyclic_labelled_graph_rejected(measure):
    # phi = (0, 1, 0, 1) maps every edge of the all-red 4-cycle onto the red
    # first spine edge, so phi is a homomorphism and only the cycle is wrong.
    cycle = EdgeColouredGraph.make(4, [(0, 1, RED), (1, 2, RED), (2, 3, RED), (0, 3, RED)])
    h = LabelledForest(cycle, tuple(("spine", j) for j in range(4)), (0, 1, 0, 1), 3)
    host = EdgeColouredGraph.make(4, [(0, 1, RED), (0, 2, RED), (1, 2, BLUE), (2, 3, RED)])
    with pytest.raises(NotAForest):
        measure(h, alternating_path(3), host)


class TestClosedFormEntropy:
    def test_h3_large_is_seven_times(self):
        h = fixture("H3_large")
        spine = alternating_path(3)
        for g in (TRIANGLE, C4):
            total = hom_forest(spine, g)
            assert closed_form_entropy(h, spine, g) == pytest.approx(
                7 * math.log2(total), abs=1e-9
            )

    def test_h5_is_seventy_six_times(self):
        h = fixture("H5")
        spine = alternating_path(5)
        total = hom_forest(spine, C4)
        assert total > 0
        assert closed_form_entropy(h, spine, C4) == pytest.approx(
            76 * math.log2(total), abs=1e-9
        )

    def test_built_forest_multiplicity(self):
        h = build_h_odd(1)
        spine = alternating_path(3)
        total = hom_forest(spine, C4)
        assert closed_form_entropy(h, spine, C4) == pytest.approx(
            13 * math.log2(total), abs=1e-9
        )

    def test_implied_power_inequality_exact(self):
        # The entropy argument forces hom(H, G) >= hom(P, G)^multiplicity;
        # check it with exact integers.
        spine = alternating_path(3)
        for name, mult in (("H3_small", 3), ("H3_large", 7)):
            h = fixture(name)
            for g in (TRIANGLE, C4):
                assert hom_forest(h.graph, g) >= hom_forest(spine, g) ** mult
        h5 = fixture("H5")
        spine5 = alternating_path(5)
        assert hom_forest(h5.graph, C4) >= hom_forest(spine5, C4) ** 76


def test_marginal_conditional_orientations():
    marg = PathMarginals(alternating_path(3), C4)
    fwd = marg.conditional(1, 0)   # child 1 given parent 0
    back = marg.conditional(0, 1)  # child 0 given parent 1
    for a, row in fwd.items():
        assert sum(row.values()) == 1
    for a, row in back.items():
        assert sum(row.values()) == 1
