import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altpaths
from altpaths import ecgraph
from altpaths.constructions import alternating_path, plan_odd, plan_sizes, sequences
from altpaths.ecgraph import (
    BLUE,
    RED,
    BudgetExceeded,
    Colour,
    EdgeColouredGraph,
    _complete_adjacencies,
    _host_adjacencies,
    circulant_host,
    degree_stats,
    enumerate_hosts,
    format_ecg,
    host_count,
    host_from_index,
    parse_ecg,
    random_host,
    require_valid,
    symmetric_residues,
    validate,
    worker_count,
    _MAX_VERTICES,
)
from altpaths.homcount import hom_forest
from helpers import brute_two_walks, format_ecg_oracle, random_graph

TRIANGLE = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, BLUE), (0, 2, RED)])


class TestValidate:
    def test_minimal_valid(self):
        assert validate(EdgeColouredGraph(2, ((0, 1, RED),))) is None

    def test_endpoint_order(self):
        problem = validate(EdgeColouredGraph(2, ((1, 0, RED),)))
        assert problem is not None and "u<v" in problem

    def test_loop(self):
        problem = validate(EdgeColouredGraph(1, ((0, 0, BLUE),)))
        assert problem is not None and "loopless" in problem

    def test_out_of_range(self):
        assert "range" in validate(EdgeColouredGraph(2, ((0, 5, RED),)))

    def test_duplicate_pair(self):
        g = EdgeColouredGraph(3, ((0, 1, RED), (0, 1, BLUE)))
        assert "duplicate" in validate(g)

    def test_unsorted(self):
        g = EdgeColouredGraph(3, ((1, 2, RED), (0, 1, BLUE)))
        assert "sorted" in validate(g)


class TestDegreeStats:
    def test_triangle_against_walk_oracle(self):
        stats = degree_stats(TRIANGLE)
        assert stats.d_r[0] == 2 and stats.d_b[0] == 0
        assert stats.e_r == 2 and stats.e_b == 1
        for v in range(3):
            assert stats.d_rb[v] == brute_two_walks(TRIANGLE, v, RED, BLUE)
            assert stats.d_bb[v] == brute_two_walks(TRIANGLE, v, BLUE, BLUE)
        assert stats.d_rb[0] == 2

    def test_single_red_edge(self):
        g = EdgeColouredGraph.make(2, [(0, 1, RED)])
        stats = degree_stats(g)
        assert stats.d_r == (1, 1)
        assert stats.d_b == (0, 0)
        assert stats.d_rb == (0, 0) and stats.d_bb == (0, 0)

    def test_empty_graph(self):
        stats = degree_stats(EdgeColouredGraph(3, ()))
        assert stats.d_r == (0, 0, 0) and stats.e_r == 0 and stats.e_b == 0

    def test_invariants_on_random_graphs(self):
        rng = random.Random(1729)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 12))
            stats = degree_stats(g)
            assert sum(stats.d_r) == 2 * stats.e_r
            assert sum(stats.d_b) == 2 * stats.e_b
            counted = [sum(c == colour for _, _, c in g.edges) for colour in (RED, BLUE)]
            assert [stats.e_r, stats.e_b] == [g.num_edges(RED), g.num_edges(BLUE)] == counted
            for v in range(g.n):
                assert stats.d_r[v] + stats.d_b[v] <= g.n - 1
                assert stats.d_rb[v] + stats.d_bb[v] <= 2 * stats.e_b - stats.d_b[v]

    def test_walk_counts_match_oracle_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7))
            stats = degree_stats(g)
            for v in range(g.n):
                assert stats.d_rb[v] == brute_two_walks(g, v, RED, BLUE)
                assert stats.d_bb[v] == brute_two_walks(g, v, BLUE, BLUE)


class TestCirculant:
    def test_all_residues_red_triangle(self):
        g = circulant_host(3, {1, 2})
        assert g.edges == ((0, 1, RED), (0, 2, RED), (1, 2, RED))

    def test_seven_cycle_in_blue_clique(self):
        g = circulant_host(7, {1, 6})
        stats = degree_stats(g)
        assert all(d == 2 for d in stats.d_r)
        assert len(g.edges) == 21

    def test_empty(self):
        assert circulant_host(0, set()).n == 0

    def test_rejects_unclosed_residues(self):
        with pytest.raises(ValueError, match="negation"):
            circulant_host(7, {1})

    def test_regularity_many_sizes(self):
        rng = random.Random(7)
        for n in range(2, 51):
            for _ in range(20):
                degree = rng.randint(0, n - 1)
                residues = symmetric_residues(n, degree)
                if residues is None:
                    continue
                g = circulant_host(n, residues)
                stats = degree_stats(g)
                assert all(d == len(residues) for d in stats.d_r)
                assert validate(g) is None

    def test_symmetric_residues_parity(self):
        assert symmetric_residues(5, 3) is None  # odd size impossible for odd n
        assert symmetric_residues(6, 3) == {1, 3, 5}
        assert symmetric_residues(6, 7) is None


class TestEnumerateHosts:
    @pytest.mark.parametrize("n,count", [(2, 3), (3, 27), (4, 729)])
    def test_counts_and_distinctness(self, n, count):
        keys = {g.canonical_key() for g in enumerate_hosts(n)}
        assert len(keys) == count == host_count(n)

    def test_n5_count(self):
        assert host_count(5) == 59049

    def test_all_valid(self):
        assert all(validate(g) is None for g in enumerate_hosts(3))

    def test_decoded_hosts_marked_valid_are_valid(self):
        # host_from_index marks its result valid, so require_valid skips
        # the scan; the mark has to be true of every decoded host.
        hosts = [host_from_index(4, i) for i in range(host_count(4))]
        assert all(g.__dict__.get("_valid") for g in hosts)
        assert all(validate(g) is None for g in hosts)

    def test_restartable_slices(self):
        full = [g.canonical_key() for g in enumerate_hosts(3)]
        pieces = []
        for start, stop in ((0, 10), (10, 11), (11, 27)):
            pieces.extend(g.canonical_key() for g in enumerate_hosts(3, start, stop))
        assert pieces == full
        assert host_from_index(3, 11).canonical_key() == full[11]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            list(enumerate_hosts(2, 0, 99))

    def test_negative_vertex_count_refused(self):
        # The decoder marks its hosts valid without validate, which would
        # refuse n < 0; the host count has to refuse it instead.
        with pytest.raises(ValueError, match="nonnegative"):
            host_from_index(-1, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            list(enumerate_hosts(-1))


class TestRequireValid:
    BAD = EdgeColouredGraph(3, ((0, 1, RED), (0, 1, BLUE)))

    def test_invalid_host_raises_through_hom_forest_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate pair"):
                hom_forest(alternating_path(1), self.BAD)
        assert "_valid" not in self.BAD.__dict__

    def test_success_is_cached_on_the_graph(self):
        g = EdgeColouredGraph.make(3, [(0, 1, RED)])
        assert "_valid" not in g.__dict__
        require_valid(g)
        assert g.__dict__["_valid"] is True


class TestEcgFormat:
    def test_round_trip(self):
        text = format_ecg(TRIANGLE)
        assert text.splitlines()[0] == "ecg 1"
        assert parse_ecg(text) == TRIANGLE

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_host(rng.randint(0, 8), rng)
            assert parse_ecg(format_ecg(g)) == g

    def test_matches_the_tuple_writer(self, monkeypatch):
        # Byte for byte against the writer that read the edge tuples, on
        # tuple-built graphs, formatted from their tuples, and on their
        # array-built twins, formatted from their arrays, in pieces of the
        # default size and of 3 lines.
        for rows in (ecgraph._WRITE_ROWS, 3):
            monkeypatch.setattr(ecgraph, "_WRITE_ROWS", rows)
            rng = random.Random(1515)
            graphs = [random_graph(rng, rng.randint(0, 9)) for _ in range(60)]
            graphs += [EdgeColouredGraph.make(n, edges) for n, edges in
                       ((5, []), (0, []), (TRIANGLE.n, TRIANGLE.edges))]
            for g in graphs:
                tuple_text = format_ecg(g)
                assert "_edge_arr" not in vars(g)
                twin = EdgeColouredGraph.from_edge_array(g.n, g.edge_array().copy())
                text = format_ecg(twin)
                assert "edges" not in vars(twin)
                assert text == tuple_text == format_ecg_oracle(g)
        assert format_ecg(EdgeColouredGraph.make(0, [])) == "ecg 1\nn 0\n"

    def test_vertex_cap(self):
        # Refused from the header alone, before anything is built per vertex.
        # The cap admits H_15, the largest forest the materialise cap lets
        # ``construct`` write.
        assert plan_sizes(31, plan_odd(15, sequences(15)))[0] == 3_809_312 <= _MAX_VERTICES
        assert parse_ecg(f"ecg 1\nn {_MAX_VERTICES}\n").n == _MAX_VERTICES
        with pytest.raises(BudgetExceeded, match="vertex cap") as err:
            parse_ecg("ecg 1\nn 3000000000\n")
        assert err.value.required == 3_000_000_000
        with pytest.raises(BudgetExceeded):
            parse_ecg(f"ecg 1\nn {_MAX_VERTICES + 1}\n")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bogus\nn 2\n", "header"),
            ("ecg 1\nn 2\ne 0 0 R\n", "loopless"),
            ("ecg 1\nn 2\ne 0 1 R\ne 0 1 B\n", "duplicate"),
            ("ecg 1\nn 2\ne 0 5 R\n", "range"),
            ("ecg 1\nn 2\ne 0 1 X\n", "colour"),
            ("ecg 1\nn 2\ne 0 1\n", "malformed"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_ecg(text)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.randoms(use_true_random=False))
def test_generated_graphs_always_validate(n, rng):
    assert validate(random_host(n, rng)) is None


def test_colour_order():
    assert RED < BLUE
    assert Colour.from_letter("R") is RED and Colour.from_letter("B") is BLUE
    with pytest.raises(ValueError):
        Colour.from_letter("G")


def test_edge_array():
    g = EdgeColouredGraph.make(4, [(2, 3, BLUE), (0, 1, RED), (1, 3, BLUE)])
    arr = g.edge_array()
    assert arr.dtype == np.int64 and arr.shape == (3, 3)
    assert arr.tolist() == [[u, v, int(c)] for u, v, c in g.edges]
    assert g.edge_array() is arr
    assert not arr.flags.writeable
    assert EdgeColouredGraph.make(2, []).edge_array().shape == (0, 3)


class TestFromEdgeArray:
    def test_equals_and_hashes_like_make(self):
        rng = random.Random(424)
        for n in range(0, 9):
            edges = list(random_graph(rng, n).edges)
            rng.shuffle(edges)
            made = EdgeColouredGraph.make(n, edges)
            g = EdgeColouredGraph.from_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 3))
            assert g.edge_array().tolist() == made.edge_array().tolist()
            assert not g.edge_array().flags.writeable
            assert g.num_edges() == made.num_edges()
            assert g.num_edges(RED) == made.num_edges(RED)
            assert "edges" not in vars(g)
            assert g == made and hash(g) == hash(made)
            assert g.edges == made.edges
            assert all(type(c) is Colour and type(u) is int for u, _, c in g.edges)
            assert validate(g) is None

    def test_rejects_a_colour_outside_red_and_blue(self):
        with pytest.raises(ValueError, match="edge colours"):
            EdgeColouredGraph.from_edge_array(3, np.array([[0, 1, 2]]))

    def test_missing_attributes_still_raise(self):
        g = EdgeColouredGraph.from_edge_array(2, np.array([[0, 1, 0]]))
        with pytest.raises(AttributeError):
            g.no_such_attribute
        assert not hasattr(TRIANGLE, "no_such_attribute")


class TestCounterDecoder:
    """The sweep's neighbour lists, decoded straight from the counter."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_every_index(self, n):
        decoded = list(_host_adjacencies(n, 0, host_count(n)))
        assert decoded == [host_from_index(n, i).adjacency() for i in range(host_count(n))]

    @pytest.mark.parametrize("n", [5, 6])
    def test_from_seeded_chunk_starts(self, n):
        rng = random.Random(1210 + n)
        total = host_count(n)
        starts = [rng.randrange(total) for _ in range(6)] + [0, total - 300]
        for start in starts:
            stop = min(total, start + 300)
            decoded = list(_host_adjacencies(n, start, stop))
            assert decoded == [host_from_index(n, i).adjacency() for i in range(start, stop)]

    def test_empty_range(self):
        assert list(_host_adjacencies(4, 17, 17)) == []

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_complete_hosts(self, n):
        pairs = n * (n - 1) // 2
        complete = sorted(
            g.adjacency() for g in enumerate_hosts(n) if len(g.edges) == pairs
        )
        assert sorted(_complete_adjacencies(n)) == complete
        assert len(complete) == 2**pairs


class TestWorkerCount:
    def test_clamped_to_jobs_and_cpus(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(10**6, host_count(5)) == 4
        assert worker_count(10**6, 2) == 2
        assert worker_count(3, 100) == 3
        assert worker_count(0, 100) == worker_count(-5, 100) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(10**6, 100) == 1


class TestNumpyLoad:
    """numpy is taken from ``ecgraph._numpy``, the package's one numpy import."""

    def run(self, code: str) -> subprocess.CompletedProcess:
        src = str(Path(altpaths.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_blocked_numpy_fails_the_import(self):
        result = self.run(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "try:\n"
            "    import altpaths\n"
            "except ModuleNotFoundError as exc:\n"
            "    print(exc.name)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "numpy"

    def test_imported_numpy_is_shared(self):
        result = self.run(
            "import numpy\n"
            "from altpaths import constructions, covering, ecgraph\n"
            "assert ecgraph.np is constructions.np is covering.np is numpy\n"
        )
        assert result.returncode == 0, result.stderr

    def test_edge_counts_build_no_array(self):
        # A tuple-built graph counts from its tuple: no cached edge array,
        # and numpy never executes.
        result = self.run(
            "import sys\n"
            "from altpaths.ecgraph import BLUE, RED, degree_stats, host_from_index\n"
            "g = host_from_index(5, 12345)\n"
            "stats = degree_stats(g)\n"
            "counts = (g.num_edges(), g.num_edges(RED), g.num_edges(BLUE))\n"
            "assert counts == (len(g.edges), stats.e_r, stats.e_b), counts\n"
            "assert '_edge_arr' not in vars(g)\n"
            "assert not any(m.startswith('numpy.') for m in sys.modules)\n"
        )
        assert result.returncode == 0, result.stderr

    def test_writing_a_tuple_built_host_builds_no_array(self, tmp_path):
        result = self.run(
            "import sys\n"
            "from altpaths.ecgraph import host_from_index, read_ecg, write_ecg\n"
            "g = host_from_index(5, 12345)\n"
            f"write_ecg(g, {str(tmp_path / 'h.ecg')!r})\n"
            "assert '_edge_arr' not in vars(g)\n"
            "assert not any(m.startswith('numpy.') for m in sys.modules)\n"
            f"assert read_ecg({str(tmp_path / 'h.ecg')!r}) == g\n"
        )
        assert result.returncode == 0, result.stderr

    def test_numpy_loads_on_first_array(self):
        result = self.run(
            "import sys\n"
            "from altpaths import ecgraph\n"
            "g = ecgraph.EdgeColouredGraph.make(3, [(0, 1, ecgraph.RED), (1, 2, ecgraph.BLUE)])\n"
            "assert not any(m.startswith('numpy.') for m in sys.modules)\n"
            "assert g.edge_array().tolist() == [[0, 1, 0], [1, 2, 1]]\n"
            "assert ecgraph.np is sys.modules['numpy']\n"
            "assert any(m.startswith('numpy.') for m in sys.modules)\n"
        )
        assert result.returncode == 0, result.stderr
