import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altpaths
from altpaths import cli, constructions, covering, ecgraph, entropy, lpsearch
from altpaths.cli import main
from altpaths.constructions import alternating_path, parse_roles
from altpaths.ecgraph import BLUE, RED, Colour, EdgeColouredGraph, host_from_index, read_ecg, write_ecg
from helpers import path_walk_oracle

TRIANGLE = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, BLUE), (0, 2, RED)])


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.ecg"
    write_ecg(TRIANGLE, path)
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.ecg"
    write_ecg(EdgeColouredGraph.make(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, RED)]), path)
    return str(path)


class TestConstruct:
    def test_writes_forest_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "h3.ecg"
        assert main(["construct", "--k", "1", "--out", str(out)]) == 0
        graph = read_ecg(out)
        assert graph.n == 52
        forest = parse_roles((tmp_path / "h3.roles").read_text(), graph)
        assert forest.spine_edges == 3
        assert "52 vertices" in capsys.readouterr().out

    def test_fixture_and_even(self, tmp_path):
        assert main(["construct", "--fixture", "H5", "--out", str(tmp_path / "h5.ecg")]) == 0
        assert main(["construct", "--k", "2", "--even", "--out", str(tmp_path / "h4.ecg")]) == 0
        assert read_ecg(tmp_path / "h4.ecg").n == 15

    def test_oversized_forest_refused(self, tmp_path, capsys):
        # H_40 has 441,161,721 edges: refused from the plan's edge count,
        # before any vertex is allocated and before any file is written.
        start = time.perf_counter()
        assert main(["construct", "--k", "40", "--out", str(tmp_path / "h81.ecg")]) == 3
        assert time.perf_counter() - start < 10
        assert "budget refusal" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestHomDensity:
    def test_hom(self, capsys, p3_file, triangle_file):
        assert main(["hom", "--pattern", p3_file, "--host", triangle_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_density_exact_string(self, capsys, p3_file, triangle_file):
        assert main(["density", "--pattern", p3_file, "--host", triangle_file]) == 0
        assert capsys.readouterr().out.strip() == "2/81"

    def test_density_past_the_int_to_str_limit(self, tmp_path, capsys, triangle_file):
        # 5,000 disjoint red edges into the triangle: the density is
        # 4^5000 / 3^10000, whose denominator has 4,772 digits.
        pattern = tmp_path / "matching.ecg"
        write_ecg(EdgeColouredGraph.make(10_000, [(2 * i, 2 * i + 1, RED) for i in range(5_000)]), pattern)
        assert main(["density", "--pattern", str(pattern), "--host", triangle_file]) == 0
        num, den = capsys.readouterr().out.strip().split("/")
        assert len(num) == 3011 and len(den) == 4772

    def test_hom_of_a_deep_path(self, tmp_path, capsys):
        path = alternating_path(1000)
        host = EdgeColouredGraph.make(
            4, [(0, 1, RED), (2, 3, RED), (0, 2, BLUE), (0, 3, BLUE), (1, 2, BLUE), (1, 3, BLUE)]
        )
        write_ecg(path, tmp_path / "path.ecg")
        write_ecg(host, tmp_path / "host.ecg")
        argv = ["hom", "--pattern", str(tmp_path / "path.ecg"), "--host", str(tmp_path / "host.ecg")]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == str(path_walk_oracle(path, host))

    def test_methods_agree(self, capsys, p3_file, triangle_file):
        for method in ("brute", "forest"):
            assert main(
                ["hom", "--pattern", p3_file, "--host", triangle_file, "--method", method]
            ) == 0
        out = capsys.readouterr().out.split()
        assert out == ["2", "2"]

    def test_density_methods_agree(self, tmp_path, capsys, p3_file, triangle_file):
        report = tmp_path / "density.json"
        for method in ("auto", "brute", "forest"):
            argv = ["--json", str(report), "density", "--pattern", p3_file, "--host", triangle_file]
            assert main(argv + ["--method", method]) == 0
            assert json.loads(report.read_text()) == {"command": "density", "value": "2/81"}
        assert capsys.readouterr().out.split() == ["2/81"] * 3

    def test_density_forest_method_refuses_a_cycle(self, capsys, triangle_file):
        argv = ["density", "--pattern", triangle_file, "--host", triangle_file]
        assert main(argv + ["--method", "forest"]) == 2
        assert "cycle" in capsys.readouterr().err
        assert main(argv + ["--method", "brute"]) == 0
        assert capsys.readouterr().out.strip() == "2/27"

    def test_density_on_an_empty_host(self, tmp_path, capsys, p3_file):
        empty = tmp_path / "empty.ecg"
        write_ecg(EdgeColouredGraph.make(0, []), empty)
        assert main(["density", "--pattern", p3_file, "--host", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: density undefined for a host with no vertices\n"


class TestVerifyCovering:
    def test_small_range_passes(self, capsys):
        assert main(["verify-covering", "--k-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4 and all("PASS" in ln for ln in lines)

    def test_json_reports_are_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--json", str(a), "verify-covering", "--k-max", "3"]) == 0
        assert main(["--json", str(b), "verify-covering", "--k-max", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_independent_of_workers(self, tmp_path):
        solo, multi = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main(["--workers", "1", "--json", str(solo), "verify-covering", "--k-max", "4"]) == 0
        assert main(["--workers", "2", "--json", str(multi), "verify-covering", "--k-max", "4"]) == 0
        assert solo.read_bytes() == multi.read_bytes()


class TestPinnedOutputs:
    """sha256 of reports and files as earlier versions wrote them; rewrites
    of the construction layer and the tallies must keep them byte-identical."""

    @staticmethod
    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_verify_covering_tuples_json(self, tmp_path):
        report = tmp_path / "cov.json"
        argv = ["--json", str(report), "verify-covering", "--k-max", "10", "--method", "tuples"]
        assert main(argv) == 0
        assert self.digest(report) == "eb7966a12ba55f8cc2964835a750d7e44ee5975a8b7cd6f9dd2fa746e04ada32"

    @pytest.mark.parametrize("argv, sha", [
        (["verify-covering", "--k-max", "20", "--method", "arrays"],
         "8ae22ce602d571651786a044b9205d3450e9609509525c54b210745581870a41"),
        (["verify-covering", "--k-max", "100", "--method", "blocks"],
         "6e38454ca41c414aa1063d0949d42f17727ef6c8845381d0a6ae4e0aea5f5bf3"),
        (["verify-ineq", "--k", "2", "--hosts", "random", "--count", "100", "--n-max", "6",
          "--seed", "7"],
         "20d0c1fbdf2c4d695e3077bba90b0a84314ae1b6766b5f69dd85f23703896da8"),
        (["verify-covering", "--k-max", "20"],
         "8ae22ce602d571651786a044b9205d3450e9609509525c54b210745581870a41"),
    ])
    def test_json_reports(self, tmp_path, argv, sha):
        report = tmp_path / "report.json"
        assert main(["--json", str(report), *argv]) == 0
        assert self.digest(report) == sha

    @pytest.mark.parametrize("argv, code, sha", [
        (["construct", "--k", "2", "--out", "h5.ecg"], 0,
         "b787eab21cf5ed4536aab717db7d1ea00bfaf14c60defb1941ca1ab671f55bc0"),
        (["hom", "--pattern", "p3.ecg", "--host", "tri.ecg"], 0,
         "9491e714cbe8ca942855cdf578863c0213070fdf48a318ed8cd890069e99a938"),
        (["density", "--pattern", "p3.ecg", "--host", "tri.ecg"], 0,
         "a82fee0b96fe7e3f0509ed274bed66943e61655da6b9c75e32303c2e34a78610"),
        (["bound-check", "--odd", "--pattern-k", "1", "--exhaustive", "4"], 0,
         "e08aae9f8d58c39af6eda4bd99c51407061e555d0c15508cf8879f73108dd1d5"),
        (["bound-check", "--odd", "--pattern-k", "1", "--tightness", "3,6,9"], 0,
         "e325a23ffe6cb63f48be1339fac3acd2fa01e4c3d90800e9fb6eb6f005c38193"),
        (["lp-search", "--k", "3"], 0,
         "79d62411f66ad89011ad0b28380cb970d0b8e4beddc6d40d2cac49f96a301326"),
        (["lp-search", "--k", "2", "--extra", "z2.json"], 1,
         "859049ad9e91cdb63177cdeb033215d68c0bd532eb5655a5f92ca8851530bf26"),
    ])
    def test_json_report_shapes(self, tmp_path, monkeypatch, p3_file, triangle_file,
                                argv, code, sha):
        # The other report shapes: flat dicts, lists of ints and an
        # infeasible LP.  Paths are relative to tmp_path, which holds the
        # fixture pair, because ``construct`` reports its ``--out``.
        monkeypatch.chdir(tmp_path)
        Path("z2.json").write_text('[{"coeffs": {"z2": "1"}, "relation": "=", "rhs": "0"}]')
        assert main(["--json", "report.json", *argv]) == code
        assert self.digest("report.json") == sha

    def test_construct_k4_files(self, tmp_path):
        assert main(["construct", "--k", "4", "--out", str(tmp_path / "h9.ecg")]) == 0
        assert self.digest(tmp_path / "h9.ecg") == (
            "c9a5e83f0fe3827c31ae41e8ee0145573b0dec93d2f90d1b030ed62e78d07223"
        )
        assert self.digest(tmp_path / "h9.roles") == (
            "1e63300754d9d7bbb3e3328500da12b88406ab7b9ac84cef06213c4cbda53d83"
        )

    @pytest.mark.parametrize("argv, ecg_sha, roles_sha", [
        (["construct", "--fixture", "H5"],
         "d1ce99fefcad66cd9f31a752814d65da8c0aa651d9005d58fe8ff2d0cb6539d4",
         "a32b5e384c72216102acc2a925b8bb14e1e7f35bbd3efe41dc418434e78f47ec"),
        (["construct", "--even", "--k", "3"],
         "e47c7af91db3cdbf391f7c51496a8a2dd9221d6673697f4acd246c5c93f166cf",
         "f96c727ad5127708c7f3d2c07c963cfea21742be3810dfae6827ce6b9ca8d633"),
        (["lp-search", "--k", "3"],
         "d53ff57f419cc7bce1f7ab79f5338dc69adc540947fd4bfe6786585a2e0da3bc",
         "43ad64d6d88f585ee7b38d4045cf4a3814068cc95a79bdef52a69997b10407f5"),
    ])
    def test_forest_files(self, tmp_path, argv, ecg_sha, roles_sha):
        assert main([*argv, "--out", str(tmp_path / "f.ecg")]) == 0
        assert self.digest(tmp_path / "f.ecg") == ecg_sha
        assert self.digest(tmp_path / "f.roles") == roles_sha

    @pytest.mark.parametrize("name, stdout_sha, json_sha", [
        ("H3_small",
         "6d88ccd3cfade25658dacd86a1c1175c7d9912d6b06626342b687bec9c6d502e",
         "5860c1303a06fd91840a817445509b58c09dc9e81846b9d9afea1d8b9fea8dd8"),
        ("H3_large",
         "48913a45d937f6b0a7e24ed41e44ae88a5c150f114774b29c3011c58a4823a83",
         "821fe77e671a0852c2a05b6e4c3fc506d33c4be4f763ddd98ebc001ad99063a3"),
        ("H5",
         "a97e4bc69adcc39476e8ab962820a88aea4724f4424ad443a7275cba1f034de6",
         "23197dbb9ffc708f03e36982a28580506021adb4a872cb13aa7d495486956804"),
    ])
    def test_entropy_check(self, tmp_path, capsys, name, stdout_sha, json_sha):
        host = tmp_path / "h44.ecg"
        write_ecg(host_from_index(4, 44), host)
        argv = ["entropy-check", "--fixture", name, "--host", str(host)]
        assert main(["--budget", "30000", *argv]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
        report = tmp_path / "entropy.json"
        assert main(["--budget", "30000", "--json", str(report), *argv]) == 0
        assert self.digest(report) == json_sha


class TestVerifyIneq:
    def test_random_hosts_pass(self, capsys):
        code = main([
            "verify-ineq", "--k", "1", "--hosts", "random",
            "--count", "8", "--n-max", "5", "--seed", "3",
        ])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_random_hosts_held_one_at_a_time(self, monkeypatch):
        # Each host is counted and released before the next one is drawn.
        drawn = []
        random_host = ecgraph.random_host

        def draw(n, rng):
            assert all(ref() is None for ref in drawn), "an earlier host is still held"
            g = random_host(n, rng)
            drawn.append(weakref.ref(g))
            return g

        monkeypatch.setattr(ecgraph, "random_host", draw)
        argv = "verify-ineq --k 1 --hosts random --count 6 --n-max 6 --seed 3".split()
        assert main(argv) == 0
        assert len(drawn) == 6

    def test_exhaustive_tiny(self):
        assert main(["verify-ineq", "--k", "1", "--hosts", "exhaustive", "--n", "2"]) == 0

    def test_oversized_forest_refused(self):
        # H_20 has 14,826,461 edges, past the materialise cap.
        argv = ["verify-ineq", "--k", "20", "--hosts", "random", "--count", "1"]
        assert main(argv) == 3

    def test_host_pairs_refused_before_any_build(self, capsys, monkeypatch):
        # 199,990,000 pairs on 20,000 vertices against the default budget of 10^8.
        def unused(*args):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(constructions, "build_h_odd", unused)
        monkeypatch.setattr(cli, "random_hosts", unused)
        argv = "verify-ineq --k 1 --hosts random --count 1 --n-max 20000 --seed 0".split()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "budget refusal: 199990000 host pairs exceed budget 100000000\n"
        )

    def test_host_pairs_against_the_per_host_cap(self, capsys, monkeypatch):
        # 97,993,000 pairs on 14,000 vertices: under the default budget of
        # 10^8, over the per-host cap.
        def unused(*args):
            raise AssertionError("drawn before the cap check")

        monkeypatch.setattr(cli, "random_hosts", unused)
        argv = "verify-ineq --k 1 --hosts random --count 1 --n-max 14000 --seed 0".split()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "budget refusal: 97993000 host pairs exceed the per-host cap of 8000000\n"
        )
        assert cli.pair_count(4000) <= cli._MAX_HOST_PAIRS < cli.pair_count(4001)

    @pytest.mark.parametrize("budget, code", [("21", 0), ("20", 3)])
    def test_host_pairs_against_the_budget(self, budget, code):
        # A host on 7 vertices draws 21 pairs.
        argv = ["--budget", budget, "verify-ineq", "--k", "1", "--hosts", "random",
                "--count", "3", "--n-max", "7", "--seed", "0"]
        assert main(argv) == code

    def test_k3_densities_past_the_int_to_str_limit(self, tmp_path):
        # Seed 5 draws a 5-vertex host whose exact k = 3 densities have
        # numbers of about 15,000 bits, past the 4,300-digit str() limit.
        report = tmp_path / "ineq.json"
        code = main([
            "--json", str(report), "verify-ineq", "--k", "3", "--hosts", "random",
            "--count", "1", "--n-max", "6", "--seed", "5",
        ])
        assert code == 0
        records = json.loads(report.read_text())["records"]
        lengths = [len(part) for r in records for side in ("lhs", "rhs") for part in r[side].split("/")]
        assert max(lengths) > 4300


class TestBoundCheck:
    def test_exhaustive_odd(self, capsys):
        assert main(["bound-check", "--pattern-k", "1", "--odd", "--exhaustive", "3"]) == 0
        out = capsys.readouterr().out
        assert "2/81" in out and "4/27" in out

    def test_tightness(self, capsys):
        code = main(["bound-check", "--pattern-k", "1", "--odd", "--tightness", "6,12,18"])
        assert code == 0
        assert "n=18" in capsys.readouterr().out

    def test_tightness_judged_by_n_not_input_order(self, tmp_path):
        for order in ("30,6", "6,30"):
            report = tmp_path / f"{order}.json"
            code = main([
                "--json", str(report), "bound-check", "--pattern-k", "1", "--odd",
                "--tightness", order,
            ])
            assert code == 0
            records = json.loads(report.read_text())["records"]
            assert [r["n"] for r in records] == [int(n) for n in order.split(",")]

    def test_budget_refusal_exit_code(self):
        code = main([
            "--budget", "10", "bound-check", "--pattern-k", "1", "--odd",
            "--exhaustive", "4",
        ])
        assert code == 3

    def test_budget_refusal_message(self, capsys):
        # 3^21 hosts on 7 vertices against the default budget of 10^8.
        assert main(["bound-check", "--pattern-k", "1", "--odd", "--exhaustive", "7"]) == 3
        assert capsys.readouterr().err == (
            "budget refusal: 10460353203 hosts exceed budget 100000000\n"
        )


class TestLpSearch:
    def test_solves_and_writes(self, tmp_path, capsys):
        out = tmp_path / "lp.ecg"
        assert main(["lp-search", "--k", "1", "--out", str(out)]) == 0
        assert "feasible" in capsys.readouterr().out
        assert read_ecg(out).n > 0

    def test_extra_rows_from_file(self, tmp_path, capsys):
        extra = tmp_path / "extra.json"
        extra.write_text('[{"coeffs": {"z1": "1"}, "relation": "=", "rhs": "0"}]')
        assert main(["lp-search", "--k", "1", "--extra", str(extra)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_extra_rows_can_make_infeasible(self, tmp_path, capsys):
        # No uniform covering exists for k=2 without the two-path classes.
        extra = tmp_path / "extra.json"
        extra.write_text('[{"coeffs": {"z2": "1"}, "relation": "=", "rhs": "0"}]')
        assert main(["lp-search", "--k", "2", "--extra", str(extra)]) == 1
        assert "infeasible" in capsys.readouterr().out


class TestEntropyCheck:
    def test_fixture_on_triangle(self, capsys, triangle_file):
        assert main(["entropy-check", "--fixture", "H3_large", "--host", triangle_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_hom_zero_trivial(self, tmp_path, capsys):
        host = tmp_path / "blue.ecg"
        write_ecg(EdgeColouredGraph.make(2, [(0, 1, BLUE)]), host)
        assert main(["entropy-check", "--fixture", "H3_small", "--host", str(host)]) == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_h5_refused_at_the_default_budget(self, tmp_path, capsys):
        # About 7.6e22 glued states: refused from the count, not built.
        host = tmp_path / "h44.ecg"
        write_ecg(host_from_index(4, 44), host)
        assert main(["entropy-check", "--fixture", "H5", "--host", str(host)]) == 0
        assert "glued distribution skipped" in capsys.readouterr().out

    def test_glued_outcomes_never_keyed(self, tmp_path, capsys, monkeypatch):
        # The check reads the glued entropy alone, from the weight list.
        glued = []
        glue = entropy.glued_distribution

        def kept(*args, **kwargs):
            glued.append(glue(*args, **kwargs))
            return glued[-1]

        monkeypatch.setattr(entropy, "glued_distribution", kept)
        host = tmp_path / "h44.ecg"
        write_ecg(host_from_index(4, 44), host)
        assert main(["entropy-check", "--fixture", "H3_large", "--host", str(host)]) == 0
        assert "glued entropy" in capsys.readouterr().out
        assert len(glued) == 1 and "_mass" not in vars(glued[0])
        assert len(glued[0].outcomes()) == 23_328 and "_weights" not in vars(glued[0])

    def test_gluing_capped_below_the_default_budget(self, tmp_path, capsys):
        # H3_large on host 122 of n = 4 glues 2,097,152 states: under the
        # default budget, above the gluing cap, so it is refused unbuilt.
        host = tmp_path / "h122.ecg"
        write_ecg(host_from_index(4, 122), host)
        report = tmp_path / "entropy.json"
        argv = ["--json", str(report), "entropy-check", "--fixture", "H3_large", "--host", str(host)]
        assert main(argv) == 0
        assert "glued distribution skipped" in capsys.readouterr().out
        assert json.loads(report.read_text())["glued_ok"] is None


_TRICKY_TEXT = st.sampled_from(['},\n  {', '"', '{"', '"}', "}", "[", ",\n", "\u00e9\x00\x1f\u2028"])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    _TRICKY_TEXT,
    st.sampled_from(list(Colour)),
)


def _keyed(values):
    # One key type per dict: the encoder sorts the keys, and a str key
    # does not compare with a number or None.
    return st.one_of(
        st.dictionaries(st.text() | _TRICKY_TEXT, values),
        st.dictionaries(st.integers() | st.booleans() | st.floats(allow_nan=False), values),
        st.dictionaries(st.none(), values),
    )


_RECORDS = st.lists(_keyed(_SCALARS))
_VALUES = st.recursive(
    _SCALARS | _RECORDS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | _keyed(inner) | _RECORDS,
    max_leaves=12,
)


class TestReportWriter:
    """``cli._emit`` writes the bytes ``json.dump(payload, fh, indent=1,
    sort_keys=True)`` wrote, through the C encoder."""

    @settings(max_examples=150, deadline=None)
    @given(_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=1, sort_keys=True)

    @pytest.mark.parametrize("payload", [
        {"value": 10**5000},
        {"records": [{"k": 1}, {"k": 10**5000}], "pass": True},
        {"nested": [[1, 2], {"k": [10**5000]}]},
    ])
    def test_int_past_the_digit_limit_leaves_no_report(self, tmp_path, payload):
        report = tmp_path / "report.json"
        with pytest.raises(ValueError):
            cli._emit(argparse.Namespace(json=str(report)), payload)
        assert not report.exists()


def test_commands_leave_built_forest_tuples_unbuilt(tmp_path, monkeypatch):
    # The writers, the inequality checks and the tuples tally read a built
    # forest's arrays only: no edge, role or phi tuple is made.
    built = []
    real = constructions.materialise

    def kept(length, plan):
        forest = real(length, plan)
        built.append(forest)
        return forest

    for module in (constructions, covering, lpsearch):
        monkeypatch.setattr(module, "materialise", kept)
    for command in (
        f"construct --k 6 --out {tmp_path / 'h13.ecg'}",
        f"lp-search --k 3 --out {tmp_path / 'lp3.ecg'}",
        "verify-ineq --k 2 --hosts random --count 5",
        "verify-covering --k-max 6 --method tuples",
    ):
        assert main(command.split()) == 0
    assert len(built) == 1 + 1 + 1 + 6
    for forest in built:
        assert "edges" not in vars(forest.graph)
        assert "roles" not in vars(forest) and "phi" not in vars(forest)


class TestErrorPaths:
    def test_malformed_ecg_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ecg"
        bad.write_text("garbage\n")
        code = main(["hom", "--pattern", str(bad), "--host", str(bad)])
        assert code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["construct", "--nonsense"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, extra", [
        ("verify-ineq --k 1 --hosts exhaustive --n 0", None),
        ("verify-ineq --k 1 --hosts exhaustive --n -1", None),
        ("bound-check --pattern-k 1 --odd --exhaustive 0", None),
        ("bound-check --pattern-k 1 --odd --exhaustive -1", None),
        ("lp-search --k 1", '[{}]'),
        ("lp-search --k 1", '[1]'),
        ("lp-search --k 1", '{"coeffs": {}}'),
        ("lp-search --k 1", '[{"coeffs": {"x1": "1"}, "rhs": "1/0"}]'),
        ("bound-check --pattern-k -1 --odd --exhaustive 3", None),
        ("bound-check --pattern-k -1 --even --exhaustive 3", None),
        ("bound-check --pattern-k -1 --odd --tightness 6", None),
        ("verify-covering --k-max 0", None),
        ("verify-covering --k-max -2", None),
        ("verify-ineq --k 1 --hosts random --count -3", None),
        ("bound-check --pattern-k 1 --odd --tightness 0", None),
        ("bound-check --pattern-k 1 --odd --tightness -3", None),
        ("--budget -5 entropy-check --fixture H3_small --host missing.ecg", None),
        ("--budget -1 verify-ineq --k 1 --hosts exhaustive --n 2", None),
        ("--workers 0 bound-check --pattern-k 1 --odd --exhaustive 3", None),
        ("--workers -3 verify-covering --k-max 4", None),
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, command, extra):
        argv = command.split()
        if extra is not None:
            path = tmp_path / "extra.json"
            path.write_text(extra)
            argv += ["--extra", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_negative_budget_names_the_flag(self, capsys, monkeypatch):
        # Refused before the fixture is built or the host is read.
        def unused(*args):
            raise AssertionError("worked before the budget check")

        monkeypatch.setattr(constructions, "fixture", unused)
        assert main("--budget -5 entropy-check --fixture H3_small --host missing.ecg".split()) == 2
        assert capsys.readouterr().err == "error: --budget must be >= 0, got -5\n"
        assert main("--budget 0 verify-ineq --k 1 --hosts exhaustive --n 1".split()) == 3

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_names_the_flag(self, capsys, monkeypatch, workers):
        # Refused before any work, not clamped to one worker.
        def unused(*args, **kwargs):
            raise AssertionError("worked before the workers check")

        monkeypatch.setattr(constructions, "alternating_path", unused)
        argv = ["--workers", workers, "bound-check", "--pattern-k", "1", "--odd", "--exhaustive", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_n_max_below_one_names_the_flag(self, capsys, n_max):
        argv = ["verify-ineq", "--k", "1", "--hosts", "random", "--n-max", n_max]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --n-max must be >= 1, got {n_max}\n"

    @pytest.mark.parametrize("command", [
        "hom --pattern {p3} --host {big}",
        "density --pattern {p3} --host {big}",
        "entropy-check --fixture H3_small --host {big}",
    ])
    def test_huge_vertex_count_refused(self, tmp_path, capsys, p3_file, command):
        # Refused from the header, before an adjacency list of 3e9 vertices.
        big = tmp_path / "big.ecg"
        big.write_text("ecg 1\nn 3000000000\n")
        assert main(command.format(p3=p3_file, big=big).split()) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget refusal: ") and err.count("\n") == 1, err

    def test_exact_commands_never_load_numpy(self, tmp_path, p3_file, triangle_file):
        # A fresh interpreter: the exhaustive sweep, the simplex, the exact
        # counts and the class-block tally build no array, so numpy is never
        # executed and none of its submodules is imported.
        src = str(Path(altpaths.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        commands = [
            "bound-check --pattern-k 1 --odd --exhaustive 4",
            "lp-search --k 3",
            f"hom --pattern {p3_file} --host {triangle_file}",
            f"density --pattern {p3_file} --host {triangle_file}",
            "verify-covering --k-max 3 --method blocks",
        ]
        code = (
            "import sys\n"
            "import altpaths.cli\n"
            f"for argv in {[c.split() for c in commands]!r}:\n"
            "    assert altpaths.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_installed_entry_point(self, tmp_path):
        # The child imports the package from where this process found it, so
        # the test also runs from a checkout without an install.
        src = str(Path(altpaths.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "altpaths.cli", "verify-covering", "--k-max", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout


def test_readme_cli_examples_parse():
    # Each ``altpaths ...`` line of the README's CLI block names a command
    # and flags the parser has.  Nothing is run.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0].split() for line in block.splitlines() if line.startswith("altpaths ")]
    assert len(examples) >= 9
    parser = cli.build_parser()
    for words in examples:
        try:
            args = parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(words)}")
        assert args.command in words and args.func is not None
