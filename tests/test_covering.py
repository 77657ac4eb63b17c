import pytest

from altpaths import covering
from altpaths.constructions import (
    LabelledForest,
    build_h_odd,
    fixture,
    plan_odd,
    sequences,
)
from altpaths.covering import (
    c_edge,
    c_vertex,
    cover_profile,
    cover_profile_arrays,
    cover_profile_blocks,
    cover_target,
    edge_cover_row,
    vertex_cover_row,
    verify_covering,
)
from helpers import random_triple


class TestClosedForms:
    def test_small_vertex_values(self):
        assert c_vertex(1, 0, sequences(1)) == 12
        assert c_vertex(2, 2, sequences(2)) == 90
        assert c_vertex(3, 1, sequences(3)) == 336

    def test_small_edge_values(self):
        assert c_edge(1, 1, sequences(1)) == 12   # edge (v_1, v_2)
        assert c_edge(2, 2, sequences(2)) == 90   # edge (v_2, v_3)
        assert c_edge(3, 0, sequences(3)) == 336  # edge (v_0, v_1)

    def test_target_values(self):
        assert cover_target(1) == 12
        assert cover_target(5) == 1980
        assert cover_target(60) == 27014460

    @pytest.mark.parametrize("k", list(range(1, 61)))
    def test_every_formula_hits_target(self, k):
        s = sequences(k)
        target = cover_target(k)
        for idx in range(2 * k + 2):
            assert c_vertex(k, idx, s) == target, ("vertex", k, idx)
        for idx in range(2 * k + 1):
            assert c_edge(k, idx, s) == target, ("edge", k, idx)

    def test_rows_drop_out_of_range_terms(self):
        row = vertex_cover_row(1, 0)
        assert all(0 <= i for (_, i) in row)
        assert ("x", 1) in row and ("x", -1) not in row

    def test_no_row_names_a_term_twice(self, monkeypatch):
        # ``_keep`` makes each in-range term its own entry, without a merge.
        real = covering._keep

        def distinct(k, terms):
            keys = [(series, i) for series, i, _ in terms]
            assert len(set(keys)) == len(keys), (k, terms)
            return real(k, terms)

        monkeypatch.setattr(covering, "_keep", distinct)
        for k in range(1, 41):
            for idx in range(2 * k + 2):
                vertex_cover_row(k, idx)
            for idx in range(2 * k + 1):
                edge_cover_row(k, idx)

    def test_row_index_bounds(self):
        with pytest.raises(ValueError):
            vertex_cover_row(2, 6)
        with pytest.raises(ValueError):
            edge_cover_row(2, 5)


class TestCoverProfile:
    def test_h3_uniform_13(self):
        profile = cover_profile(build_h_odd(1))
        assert profile.vertex_cover == (13, 13, 13, 13)
        assert profile.edge_cover == (13, 13, 13)
        assert profile.uniform_multiplicity == 13

    def test_sums_match_graph_sizes(self):
        for name in ("H3_small", "H3_large", "H5"):
            f = fixture(name)
            profile = cover_profile(f)
            assert sum(profile.vertex_cover) == f.graph.n
            assert sum(profile.edge_cover) == len(f.graph.edges)

    def test_uniform_multiplicity_is_edge_ratio(self):
        f = fixture("H5")
        profile = cover_profile(f)
        m = profile.uniform_multiplicity
        assert m == len(f.graph.edges) // f.spine_edges
        assert m == f.graph.n // (f.spine_edges + 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_symmetry(self, k):
        profile = cover_profile(build_h_odd(k))
        n = len(profile.vertex_cover)
        for j in range(n):
            assert profile.vertex_cover[j] == profile.vertex_cover[n - 1 - j]

    def test_rejects_non_homomorphism(self):
        h = build_h_odd(1)
        bad_phi = list(h.phi)
        bad_phi[-1] = (bad_phi[-1] + 1) % 4
        broken = LabelledForest(h.graph, h.roles, tuple(bad_phi), h.spine_edges)
        for _ in range(2):  # a rejection is not cached
            with pytest.raises(ValueError, match="not a homomorphism"):
                cover_profile(broken)

    def test_counted_once_per_forest(self, monkeypatch):
        calls = []
        check = covering.homomorphism_violation
        monkeypatch.setattr(covering, "homomorphism_violation", lambda f: calls.append(f) or check(f))
        h = build_h_odd(2)
        assert cover_profile(h) is cover_profile(h)
        assert len(calls) == 1
        # An equal forest is another object, and counts afresh.
        twin = LabelledForest(h.graph, h.roles, h.phi, h.spine_edges)
        assert cover_profile(twin) == cover_profile(h) and len(calls) == 2

    def test_non_uniform_profile_has_no_multiplicity(self):
        from altpaths.constructions import ClassCounts, materialise

        lopsided = materialise(3, {1: ClassCounts(xr=1)})
        assert cover_profile(lopsided).uniform_multiplicity is None


def test_formulas_match_direct_counts_on_random_triples():
    # The linear functionals must track the construction for ANY valid
    # triple, not just the published vectors: the spine adds one to every
    # preimage count.
    import random

    from altpaths.constructions import materialise

    rng = random.Random(404)
    for _ in range(120):
        s = random_triple(rng)
        k = s.k
        plan = plan_odd(k, s)
        profile = cover_profile(materialise(2 * k + 1, plan))
        assert profile == cover_profile_blocks(2 * k + 1, plan)
        for idx in range(2 * k + 2):
            assert profile.vertex_cover[idx] == c_vertex(k, idx, s) + 1
        for idx in range(2 * k + 1):
            assert profile.edge_cover[idx] == c_edge(k, idx, s) + 1


class TestCountingPathsAgree:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_tuples_blocks_arrays(self, k):
        plan = plan_odd(k, sequences(k))
        length = 2 * k + 1
        from altpaths.constructions import materialise

        via_tuples = cover_profile(materialise(length, plan))
        via_blocks = cover_profile_blocks(length, plan)
        via_arrays = cover_profile_arrays(length, plan)
        assert via_tuples == via_blocks == via_arrays


class TestVerifyCovering:
    def test_k1(self):
        report = verify_covering(1)
        assert report.ok
        assert report.multiplicity == 13
        assert all(c.target == 12 for c in report.checks)

    def test_k5_target(self):
        report = verify_covering(5, method="blocks")
        assert report.ok
        assert report.checks[0].target == 1980
        assert report.multiplicity == 1981

    @pytest.mark.parametrize("k", list(range(1, 21)))
    def test_blocks_pass(self, k):
        assert verify_covering(k, method="blocks").ok

    def test_auto_counts_the_built_forest_then_sums_blocks(self):
        # k = 13 is the last k whose forest fits the materialisation cap.
        assert verify_covering(13).method == "tuples"
        assert verify_covering(14).method == "blocks"

    def test_report_lines_and_records(self):
        report = verify_covering(2)
        assert "PASS" in report.lines()[0]
        records = report.records()
        assert len(records) == (2 * 2 + 2) + (2 * 2 + 1)
        assert all(r["ok"] for r in records)

    def test_a_wrong_count_fails_in_every_output(self, monkeypatch):
        real = covering.cover_profile_blocks

        def one_too_many(length, plan):
            profile = real(length, plan)
            vertex_cover = (profile.vertex_cover[0] + 1, *profile.vertex_cover[1:])
            return covering.CoverProfile(vertex_cover, profile.edge_cover)

        monkeypatch.setattr(covering, "cover_profile_blocks", one_too_many)
        report = verify_covering(2, method="blocks")
        assert not report.ok
        assert [(c.kind, c.index) for c in report.failures()] == [("vertex", 0)]
        lines = report.lines()
        assert lines[0].endswith("FAIL") and len(lines) == 2
        assert lines[1] == "  MISMATCH vertex 0: formula=90 counted=92 target=90"
        assert [r["ok"] for r in report.records()].count(False) == 1

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            verify_covering(1, method="psychic")
