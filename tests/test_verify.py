import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from altpaths import covering, verify
from altpaths.constructions import alternating_path, build_h_odd, fixture
from altpaths.covering import CoverProfile
from altpaths.ecgraph import (
    BLUE,
    RED,
    BudgetExceeded,
    EdgeColouredGraph,
    circulant_host,
    host_count,
    host_from_index,
    random_hosts,
    symmetric_residues,
)
from altpaths.homcount import hom_forest
from altpaths.verify import (
    bound_even,
    bound_odd,
    check_eq_hp,
    check_eq_ph,
    check_theorem_even,
    check_theorem_odd,
    digits,
    exhaustive_max,
    expansion_identity,
    fraction_text,
    tightness_curve,
)
from helpers import (
    brute_hom_oracle,
    exhaustive_max_oracle,
    p3_loopless_ceiling,
    random_forest,
    random_graph,
)

TRIANGLE = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, BLUE), (0, 2, RED)])


class TestBounds:
    def test_closed_forms(self):
        assert bound_odd(1) == Fraction(4, 27)
        assert bound_odd(2) == Fraction(108, 3125)
        assert bound_even(1) == Fraction(1, 4)
        assert bound_even(2) == Fraction(1, 16)


class TestTheoremChecks:
    def test_triangle_within_odd_bound(self):
        report = check_theorem_odd(1, TRIANGLE)
        assert report.lhs == Fraction(2, 81)
        assert report.holds and report.slack > 0

    def test_even_bound_on_matching_circulant(self):
        report = check_theorem_even(1, circulant_host(4, {1, 3}))
        assert report.holds

    def test_no_blue_gives_zero_density(self):
        all_red = circulant_host(4, {1, 2, 3})
        assert check_theorem_even(1, all_red).lhs == 0


class TestInequalityPH:
    def test_holds_on_random_hosts(self):
        h = fixture("H3_small")
        for g in random_hosts(50, 7, seed=101):
            report = check_eq_ph(h, 1, g)
            assert report.holds, report.record()

    def test_trivial_when_no_path_hom(self):
        h = fixture("H3_small")
        all_red = circulant_host(5, {1, 2, 3, 4})
        report = check_eq_ph(h, 1, all_red)
        assert report.lhs == 0 and report.holds

    def test_exact_equality_on_regular_hosts(self):
        # On a colour-regular host both sides reduce to the same monomial in
        # the colour degrees, so the tightness claim holds with equality.
        h = build_h_odd(1)
        for n in (6, 12, 24):
            degree = round(Fraction(2 * (n - 1), 3))
            from altpaths.ecgraph import symmetric_residues

            g = circulant_host(n, symmetric_residues(n, degree))
            report = check_eq_ph(h, 1, g)
            assert report.holds and report.slack == 0

    def test_strict_gap_off_regularity(self):
        # Perturbing one edge colour breaks regularity and opens a gap.
        from altpaths.ecgraph import symmetric_residues

        h = build_h_odd(1)
        g = circulant_host(6, symmetric_residues(6, 3))
        perturbed = [(u, v, BLUE if (u, v) == (0, 1) else c) for u, v, c in g.edges]
        report = check_eq_ph(h, 1, EdgeColouredGraph.make(6, perturbed))
        assert report.holds and report.slack > 0

    def test_rejects_non_uniform_forest(self):
        from altpaths.constructions import ClassCounts, materialise

        lopsided = materialise(3, {1: ClassCounts(xr=1)})
        with pytest.raises(ValueError, match="uniform"):
            check_eq_ph(lopsided, 1, TRIANGLE)

    def test_rejects_wrong_spine(self):
        with pytest.raises(ValueError, match="spine"):
            check_eq_ph(fixture("H5"), 1, TRIANGLE)


class TestInequalityHP:
    def test_k1_random_hosts(self):
        h = build_h_odd(1)
        for g in random_hosts(40, 6, seed=55):
            assert check_eq_hp(h, 1, g).holds

    def test_k2_random_hosts(self):
        h = build_h_odd(2)
        for g in random_hosts(15, 5, seed=56):
            assert check_eq_hp(h, 2, g).holds

    def test_edgeless_host_trivial(self):
        h = build_h_odd(1)
        report = check_eq_hp(h, 1, EdgeColouredGraph(3, ()))
        assert report.lhs == 0 and report.rhs == 0 and report.holds


class TestInequalityPair:
    def test_views_are_the_halves(self):
        for k in (1, 2, 3):
            h = build_h_odd(k)
            hosts = list(random_hosts(12, 6, seed=70 + k))
            reports = verify.check_inequalities(h, k, hosts)
            assert [r.name for r in reports[:2]] == ["path-vs-forest", "forest-vs-path"]
            for g, ph, hp in zip(hosts, reports[::2], reports[1::2]):
                assert check_eq_ph(h, k, g) == ph
                assert check_eq_hp(h, k, g) == hp

    def test_one_host_views_form_only_their_own_report(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the other half was formed")

        h = build_h_odd(2)
        hosts = list(random_hosts(12, 6, seed=72))
        assert any(hom_forest(alternating_path(5), g) for g in hosts)
        expected = verify.check_inequalities(h, 2, hosts)
        with monkeypatch.context() as m:
            m.setattr(verify, "_forest_vs_path", refuse)
            assert [check_eq_ph(h, 2, g) for g in hosts] == expected[::2]
        with monkeypatch.context() as m:
            m.setattr(verify, "_path_vs_forest", refuse)
            assert [check_eq_hp(h, 2, g) for g in hosts] == expected[1::2]

    def test_one_cover_profile_per_forest(self, monkeypatch):
        # The library views on one forest share its cached covering profile.
        calls = []
        check = covering.homomorphism_violation
        monkeypatch.setattr(covering, "homomorphism_violation", lambda f: calls.append(f) or check(f))
        h = build_h_odd(3)
        for g in random_hosts(8, 6, seed=76):
            check_eq_ph(h, 3, g)
            check_eq_hp(h, 3, g)
        assert calls == [h]

    def test_forest_vs_path_scale(self):
        # The cached scale is bound_odd(k)^(e(H)-e(P)) on every host.
        h = build_h_odd(2)
        e_h = h.graph.num_edges()
        for g in random_hosts(10, 5, seed=74):
            t_p = Fraction(hom_forest(alternating_path(5), g), g.n**6)
            report = check_eq_hp(h, 2, g)
            assert report.rhs == bound_odd(2) ** (e_h - 5) * t_p**5

    def test_no_scale_where_the_path_has_no_homomorphisms(self, monkeypatch):
        # With t(P) = 0 the forest-vs-path bound is 0 whatever the scale, so
        # the scale's power is never formed for such a host.
        def refuse(*args):
            raise AssertionError("the forest-vs-path scale was formed")

        monkeypatch.setattr(verify, "_bound_power", refuse)
        h = build_h_odd(2)
        spine = alternating_path(5)
        hosts = [host_from_index(3, i) for i in range(host_count(3))]
        hosts = [g for g in hosts if not hom_forest(spine, g)] + [EdgeColouredGraph(1, ())]
        assert len(hosts) > 1
        reports = verify.check_inequalities(h, 2, hosts)
        assert len(reports) == 2 * len(hosts)
        for report in reports[1::2]:
            assert report.rhs == 0 and type(report.rhs) is Fraction
            assert report.record()["rhs"] == "0/1"

    def test_built_forest_counted_from_its_blocks(self):
        # No vertex-by-vertex plan compile, which would read the edge tuples.
        forest = build_h_odd(4)
        hosts = random_hosts(4, 6, seed=75)
        assert all(r.holds for r in verify.check_inequalities(forest, 4, hosts))
        assert "edges" not in forest.graph.__dict__


class TestRootComparator:
    """Both density checks are decided at their e(P)-th root, in integers;
    the records print the powered sides, and the two verdicts must agree."""

    @staticmethod
    def _agree(reports):
        for report in reports:
            powered = report.lhs <= report.rhs
            assert report.holds == powered, report.name
        return reports

    def test_agrees_with_the_powered_sides_on_all_small_hosts(self):
        hosts = [host_from_index(n, i) for n in (1, 2, 3) for i in range(host_count(n))]
        for k in (1, 2):
            self._agree(verify.check_inequalities(build_h_odd(k), k, hosts))

    def test_agrees_with_the_powered_sides_on_random_hosts(self):
        # Sparse draws often have hom(P) = 0, so complete 2-coloured hosts
        # on 5 and 6 vertices join them to compare nonzero sides.
        rng = random.Random(170)
        spine_homs = 0
        for k in (1, 2, 3, 4):
            hosts = list(random_hosts(12, 6, seed=170 + k))
            for n in (5, 6, 6):
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                hosts.append(EdgeColouredGraph.make(n, [(u, v, rng.choice((RED, BLUE))) for u, v in pairs]))
            spine_homs += sum(hom_forest(alternating_path(2 * k + 1), g) > 0 for g in hosts)
            self._agree(verify.check_inequalities(build_h_odd(k), k, hosts))
        assert spine_homs >= 16

    @staticmethod
    def _counts(k, m, n, hom_p, hom_h):
        return verify._HostCounts(k, m, EdgeColouredGraph(n, ()), hom_p, hom_h)

    def test_path_vs_forest_ties_and_one_unit_apart(self):
        for k, m, n, hom_p in [(1, 2, 3, 5), (1, 3, 2, 7), (2, 2, 4, 12), (3, 4, 3, 2), (1, 1, 2, 9)]:
            tie = hom_p**m
            for hom_h, holds in [(tie - 1, False), (tie, True), (tie + 1, True)]:
                report = verify._path_vs_forest(self._counts(k, m, n, hom_p, hom_h))
                assert report.holds is holds
                self._agree([report])
            report = verify._path_vs_forest(self._counts(k, m, n, hom_p, tie))
            assert report.lhs == report.rhs and report.slack == 0

    def test_forest_vs_path_ties_and_one_unit_apart(self):
        # hom(H) D = N hom(P) n^((m-1) v(P)) is a tie when hom(P) is a
        # multiple of D, N/D = bound_odd(k)^(m-1).
        for k, m, n, t in [(1, 2, 3, 1), (1, 3, 2, 2), (2, 2, 3, 1), (2, 3, 2, 1), (3, 2, 4, 3)]:
            scale = bound_odd(k) ** (m - 1)
            hom_p = scale.denominator * t
            tie = scale.numerator * t * n ** ((m - 1) * (2 * k + 2))
            for hom_h, holds in [(tie - 1, True), (tie, True), (tie + 1, False)]:
                report = verify._forest_vs_path(self._counts(k, m, n, hom_p, hom_h))
                assert report.holds is holds
                self._agree([report])
            report = verify._forest_vs_path(self._counts(k, m, n, hom_p, tie))
            assert report.lhs == report.rhs and report.slack == 0

    def test_forest_vs_path_without_path_homomorphisms(self):
        for hom_h, holds in [(0, True), (1, False)]:
            report = verify._forest_vs_path(self._counts(1, 2, 3, 0, hom_h))
            assert report.holds is holds
            assert self._agree([report])[0].rhs == 0

    def test_holds_forms_no_powered_side(self, monkeypatch):
        # Only the root scale bound_odd(k)^(m-1) is formed; the record's
        # scale, bound_odd(k)^(e(H)-e(P)), and both sides wait for a read.
        k, h = 2, build_h_odd(2)
        m = h.graph.num_edges() // 5
        formed = []
        bound_power = verify._bound_power

        def tracked(k, exponent):
            formed.append(exponent)
            return bound_power(k, exponent)

        monkeypatch.setattr(verify, "_bound_power", tracked)
        hosts = list(random_hosts(12, 6, seed=172))
        assert any(hom_forest(alternating_path(5), g) for g in hosts)
        reports = verify.check_inequalities(h, k, hosts)
        verdicts = [r.holds for r in reports]
        assert all(verdicts) and set(formed) == {m - 1}
        assert not any("_sides" in vars(r) for r in reports)
        assert [r.lhs <= r.rhs for r in reports] == verdicts
        assert (m - 1) * 5 in formed

    def test_size_check(self, monkeypatch):
        h = build_h_odd(1)
        m = verify.cover_profile(h).uniform_multiplicity
        wrong = CoverProfile((m + 1,) * 4, (m + 1,) * 3)
        monkeypatch.setattr(verify, "cover_profile", lambda f: wrong)
        with pytest.raises(ValueError, match=f"not {m + 1} times the path"):
            verify.check_inequalities(h, 1, [TRIANGLE])


class TestTightness:
    def test_k1_curve(self):
        points = tightness_curve(1, [6, 12, 18, 24, 30])
        gaps = [pt.gap for pt in points]
        assert all(g is not None and g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert points[-1].density == Fraction(361, 2700)

    def test_limit_approach(self):
        points = tightness_curve(1, [6, 30])
        assert abs(points[1].density - bound_odd(1)) < abs(
            points[0].density - bound_odd(1)
        )

    def test_k2_bound_constant(self):
        assert bound_odd(2) == Fraction(108, 3125)
        points = tightness_curve(2, [10, 20])
        assert all(pt.gap > 0 for pt in points)

    def test_odd_degree_on_odd_n_steps_down(self):
        (pt,) = tightness_curve(1, [5])
        # The optimum 8/3 has neighbours 2 and 4 among the even degrees that
        # 5 vertices admit; 4 leaves no blue edge, so degree 2 wins.
        assert pt.red_degree == 2

    def test_best_admissible_circulant(self):
        # A circulant of red degree d carries n d^(k+1) (n-1-d)^k homs of the
        # (2k+1)-edge alternating path; the curve must pick the best
        # admissible d, the lowest on a tie.  Every n >= 1 admits one (degree
        # 0 always), so every size gets a point, with an admissible degree.
        sizes = range(1, 61)
        for k in (0, 1, 2, 3):
            for n, pt in zip(sizes, tightness_curve(k, sizes), strict=True):
                assert symmetric_residues(n, pt.red_degree) is not None, (k, n)
                best = None
                for d in range(n):
                    if symmetric_residues(n, d) is None:
                        continue
                    t = Fraction(d ** (k + 1) * (n - 1 - d) ** k, n ** (2 * k + 1))
                    if best is None or t > best[1]:
                        best = (d, t)
                assert (pt.n, pt.red_degree, pt.density) == (n, *best), (k, n)
                assert pt.gap == bound_odd(k) - pt.density

    def test_recount_on_circulant_host(self):
        # The curve reads its densities off the closed form; recount them on
        # the built circulant.  Odd n where the optimum's lower admissible
        # neighbour loses, and two even n where every degree is admissible.
        for k, n, degree in [
            (1, 9, 6), (1, 45, 30), (2, 13, 8), (2, 23, 14), (3, 7, 4), (1, 6, 3), (1, 30, 19)
        ]:
            (pt,) = tightness_curve(k, [n])
            assert pt.red_degree == degree
            g = circulant_host(n, symmetric_residues(n, degree))
            count = hom_forest(alternating_path(2 * k + 1), g)
            assert count == n * degree ** (k + 1) * (n - 1 - degree) ** k
            assert pt.density == Fraction(count, n ** (2 * k + 2))

    def test_tightness_builds_no_host(self, monkeypatch):
        # n = 20000 would need a 200-million-edge circulant.
        def refuse(*args):
            raise AssertionError("tightness_curve built a circulant host")

        monkeypatch.setattr(verify, "circulant_host", refuse, raising=False)
        points = tightness_curve(1, [6, 9, 20000])
        assert [(pt.n, pt.red_degree) for pt in points] == [(6, 3), (9, 6), (20000, 13333)]
        for pt in points:
            d = pt.red_degree
            assert pt.density == Fraction(d**2 * (pt.n - 1 - d), pt.n**3)

    def test_loopless_ceiling_against_exhaustive_max(self):
        maxima = {n: exhaustive_max(alternating_path(3), n).density for n in (3, 4, 5)}
        assert maxima[4] == p3_loopless_ceiling(4) == Fraction(1, 16)
        assert maxima[3] < p3_loopless_ceiling(3)
        assert maxima[5] < p3_loopless_ceiling(5)


class TestExhaustiveMax:
    def test_p3_on_three_vertices(self):
        result = exhaustive_max(alternating_path(3), 3)
        assert result.density == Fraction(2, 81)
        assert result.host.num_edges(RED) == 2 and result.host.num_edges(BLUE) == 1

    def test_red_edge_maximised_by_red_clique(self):
        result = exhaustive_max(EdgeColouredGraph.make(2, [(0, 1, RED)]), 3)
        assert result.density == Fraction(2, 3)
        assert result.host.num_edges(RED) == 3

    def test_workers_agree(self):
        solo = exhaustive_max(alternating_path(3), 3, workers=1)
        multi = exhaustive_max(alternating_path(3), 3, workers=2)
        assert solo.density == multi.density and solo.index == multi.index

    def test_even_theorem_exhaustive_k2(self):
        # The 4-edge even path against every host on 4 vertices.
        result = exhaustive_max(alternating_path(4), 4)
        assert result.density <= bound_even(2)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            exhaustive_max(alternating_path(3), 5, budget=100)


def _sweep_outcome(run):
    """(density, index, argmax key) of a sweep, or the error it raises."""
    try:
        density, index, host = run()
    except ValueError as exc:
        return ("ValueError", str(exc))
    return density, index, host.canonical_key()


def _sweep(pattern, n, workers):
    result = exhaustive_max(pattern, n, workers=workers)
    return result.density, result.index, result.host


def _oracle_cases():
    cases = [(alternating_path(e), n) for e in range(1, 6) for n in range(5)]
    cases += [(alternating_path(e), 5) for e in (2, 3, 4)]
    rng = random.Random(1207)
    for _ in range(12):
        cases.append((random_forest(rng, rng.randint(1, 5)), rng.randint(1, 4)))
    return cases


class TestExhaustiveAgainstOracle:
    """The two-stage sweep against the full in-order scan it replaced."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return [
            _sweep_outcome(lambda p=p, n=n: exhaustive_max_oracle(p, n))
            for p, n in _oracle_cases()
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_density_index_and_argmax(self, oracle, workers):
        got = [
            _sweep_outcome(lambda p=p, n=n: _sweep(p, n, workers))
            for p, n in _oracle_cases()
        ]
        assert got == oracle


class TestEarlyStopLemma:
    """Colouring an absent pair only adds homomorphisms, so the maximum over
    all hosts is the maximum over the complete 2-coloured hosts."""

    def test_colouring_an_absent_pair_never_lowers_hom(self):
        rng = random.Random(1208)
        checked = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 6))
            pattern = random_forest(rng, rng.randint(1, 5))
            base = hom_forest(pattern, g)
            present = {(u, v) for u, v, _ in g.edges}
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if (u, v) in present:
                        continue
                    for colour in (RED, BLUE):
                        bigger = EdgeColouredGraph.make(g.n, g.edges + ((u, v, colour),))
                        assert hom_forest(pattern, bigger) >= base
                        checked += 1
        assert checked > 100

    def test_complete_host_maximum_is_the_three_state_maximum(self):
        rng = random.Random(1209)
        patterns = [alternating_path(e) for e in range(1, 5)]
        patterns += [random_forest(rng, rng.randint(1, 5)) for _ in range(6)]
        for n in range(1, 5):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            complete = [
                EdgeColouredGraph.make(n, [(u, v, c) for (u, v), c in zip(pairs, colours)])
                for colours in product((RED, BLUE), repeat=len(pairs))
            ]
            every = [host_from_index(n, i) for i in range(host_count(n))]
            for pattern in patterns:
                assert max(hom_forest(pattern, g) for g in complete) == max(
                    hom_forest(pattern, g) for g in every
                )


class TestWorkerClamp:
    """A fan-out never asks for more processes than there are CPUs."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        import multiprocessing
        import os

        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        return sizes

    def test_exhaustive_max(self, pool_sizes):
        result = exhaustive_max(alternating_path(3), 4, workers=10**6)
        assert pool_sizes == [3]
        solo = exhaustive_max(alternating_path(3), 4)
        assert (result.density, result.index) == (solo.density, solo.index)

    def test_verify_covering_range(self, pool_sizes):
        from altpaths.covering import verify_covering_range

        reports = verify_covering_range(4, workers=10**6)
        assert pool_sizes == [3]
        assert [r.k for r in reports] == [1, 2, 3, 4]


class TestExpansionIdentity:
    def test_triangle_terms(self):
        report = expansion_identity(TRIANGLE)
        assert (report.alt_path, report.red_path) == (2, 8)
        assert (report.red_edge_sq, report.red_walk) == (16, 6)
        assert report.holds

    def test_all_red_clique(self):
        g = circulant_host(5, {1, 2, 3, 4})
        report = expansion_identity(g)
        assert report.alt_path == 0 and report.holds

    def test_all_blue_clique(self):
        g = EdgeColouredGraph.make(
            3, [(u, v, BLUE) for u in range(3) for v in range(u + 1, 3)]
        )
        report = expansion_identity(g)
        assert report.alt_path == report.red_path == 0
        assert report.red_edge_sq == 0 and report.holds

    def test_incomplete_host_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            expansion_identity(EdgeColouredGraph.make(3, [(0, 1, RED)]))

    def test_exhaustive_n3_with_oracle(self):
        pairs = [(0, 1), (0, 2), (1, 2)]
        for colours in product([RED, BLUE], repeat=3):
            g = EdgeColouredGraph.make(3, list(zip(*zip(*pairs), colours)))
            g = EdgeColouredGraph.make(
                3, [(u, v, c) for (u, v), c in zip(pairs, colours)]
            )
            report = expansion_identity(g)
            assert report.holds
            assert report.alt_path == brute_hom_oracle(alternating_path(3), g)

    def test_seeded_samples_n5(self):
        rng = random.Random(60)
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        for _ in range(30):
            colouring = [(u, v, RED if rng.random() < 0.5 else BLUE) for u, v in pairs]
            assert expansion_identity(EdgeColouredGraph.make(5, colouring)).holds


def test_report_record_serialises_exact_rationals():
    record = check_theorem_odd(1, TRIANGLE).record()
    assert record["lhs"] == "2/81"
    assert record["rhs"] == "4/27"
    assert record["holds"] is True


def test_digits_match_str():
    rng = random.Random(7)
    for n in [0, 1, -1, 10**20, -(10**20) + 3] + [rng.randrange(-(10**900), 10**900) for _ in range(50)]:
        assert digits(n) == str(n)
    assert fraction_text(Fraction(-6, 4)) == "-3/2"


def test_digits_past_the_int_to_str_limit():
    n = 3**40000 + 1          # 19,085 digits
    text = digits(n)
    assert len(text) == 19085 and text.isdigit()
    assert Decimal(text) == Decimal(n)
    assert fraction_text(Fraction(n, 3)) == f"{text}/3"
