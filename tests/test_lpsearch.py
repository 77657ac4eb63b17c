import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from altpaths import lpsearch
from altpaths.constructions import SequenceTriple, build_h_odd, plan_odd, sequences
from altpaths.covering import cover_profile, cover_profile_blocks
from altpaths.lpsearch import (
    LpProblem,
    LpRow,
    build_constraints,
    row_satisfied,
    scale_to_integers,
    scale_vector,
    solve_feasible,
    synthesize_forest,
    t_index,
    variable_layout,
    variable_names,
    witness_assignment,
)

from helpers import dense_eliminate, presolve_oracle

ZERO = Fraction(0)


def make_row(num_vars, entries, relation="=", rhs=0, kind="extra"):
    coeffs = [ZERO] * num_vars
    for i, c in entries.items():
        coeffs[i] = Fraction(c)
    return LpRow(tuple(coeffs), relation, Fraction(rhs), kind)


class TestBuildConstraints:
    def test_k1_shape(self):
        problem = build_constraints(1)
        assert problem.num_vars == 12       # 6k+5 entries plus the target t
        counts = problem.row_counts()
        assert counts["vertex"] == 4
        assert counts["edge"] == 3
        assert counts["norm"] == 1

    def test_rows_share_the_covering_functionals(self):
        problem = build_constraints(2)
        layout = variable_layout(2)
        from altpaths.covering import vertex_cover_row

        row = next(r for r in problem.rows if r.kind == "vertex")
        expected = vertex_cover_row(2, 0)
        for key, coeff in expected.items():
            assert row.coeffs[layout[key]] == coeff
        assert row.coeffs[t_index(2)] == -1

    @pytest.mark.parametrize("k", list(range(1, 26)))
    def test_definition_vectors_satisfy_every_row(self, k):
        problem = build_constraints(k)
        witness = witness_assignment(k, sequences(k))
        assert all(row_satisfied(row, witness) for row in problem.rows)

    def test_variable_names(self):
        names = variable_names(1)
        assert names[0] == "x0" and names[-1] == "t"
        assert "y2" in names and "z3" in names


class TestSolver:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_covering_lp_feasible(self, k):
        assert solve_feasible(build_constraints(k)).feasible

    def test_contradictory_rows_infeasible(self):
        problem = LpProblem(
            2,
            (
                make_row(2, {0: 1}, rhs=0),
                make_row(2, {0: 1}, rhs=1),
            ),
        )
        assert solve_feasible(problem).status == "infeasible"

    def test_empty_problem_feasible_at_zero(self):
        solution = solve_feasible(LpProblem(3, ()))
        assert solution.feasible
        assert solution.assignment == (ZERO, ZERO, ZERO)

    def test_negative_fix_infeasible(self):
        problem = LpProblem(2, (make_row(2, {1: 2}, rhs=-3),))
        assert solve_feasible(problem).status == "infeasible"

    def test_random_feasible_lps(self):
        # Pick a nonnegative point first, then write rows it satisfies.
        rng = random.Random(314)
        for _ in range(200):
            num = rng.randint(1, 6)
            point = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(num)]
            rows = []
            for _ in range(rng.randint(1, 5)):
                coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(num)]
                value = sum(c * p for c, p in zip(coeffs, point))
                if rng.random() < 0.5:
                    rows.append(LpRow(tuple(coeffs), "=", value))
                else:
                    slack = Fraction(rng.randint(0, 5))
                    rows.append(LpRow(tuple(coeffs), ">=", value - slack))
            solution = solve_feasible(LpProblem(num, tuple(rows)))
            assert solution.feasible
            assert all(row_satisfied(r, solution.assignment) for r in rows)

    def test_objective_minimised(self):
        # min v0 subject to v0 + v1 = 3, v0 >= 1
        rows = (
            make_row(2, {0: 1, 1: 1}, rhs=3),
            make_row(2, {0: 1}, relation=">=", rhs=1),
        )
        problem = LpProblem(2, rows, objective=(Fraction(1), ZERO))
        solution = solve_feasible(problem)
        assert solution.assignment[0] == 1

    def test_extra_row_zero_z_still_feasible(self):
        problem = build_constraints(1)
        layout = variable_layout(1)
        extras = tuple(
            make_row(12, {layout[("z", i)]: 1}, rhs=0) for i in range(4)
        )
        assert solve_feasible(build_constraints(1, extras)).feasible

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            make_row(2, {0: 1}, relation="<=", rhs=1)

    def test_extra_row_can_force_infeasible(self):
        # Demand a cover target below anything the normalisation allows.
        extras = (make_row(12, {t_index(1): 1}, relation="=", rhs=Fraction(-1)),)
        assert solve_feasible(build_constraints(1, extras)).status == "infeasible"


class TestScaling:
    def test_lcm_scaling(self):
        assert scale_vector([Fraction(1, 3), Fraction(2, 3)]) == [1, 2]

    def test_integral_vector_unchanged(self):
        assert scale_vector([Fraction(2), Fraction(5)]) == [2, 5]

    def test_rejects_infeasible(self):
        from altpaths.lpsearch import LpSolution

        with pytest.raises(ValueError, match="infeasible"):
            scale_to_integers(LpSolution("infeasible", k=1))

    def test_scaled_solution_is_symmetric_integer_triple(self):
        solution = solve_feasible(build_constraints(2))
        triple = scale_to_integers(solution)
        assert triple.problems() is None


class TestSynthesis:
    def test_definition_vectors_reproduce_builder(self):
        for k in (1, 2, 3):
            built = build_h_odd(k)
            synth = synthesize_forest(k, sequences(k))
            assert synth == built

    def test_zero_triple_gives_bare_spine(self):
        k = 2
        zeros = SequenceTriple(
            k, (0,) * (2 * k + 2), (0,) * (2 * k + 1), (0,) * (2 * k + 2)
        )
        forest = synthesize_forest(k, zeros)
        assert forest.graph.n == 2 * k + 2
        assert cover_profile(forest).uniform_multiplicity == 1

    def test_asymmetric_rejected(self):
        bad = SequenceTriple(1, (0, 4, 3, 0), (2, 2, 2), (0, 0, 0, 0))
        with pytest.raises(ValueError, match="symmetric"):
            synthesize_forest(1, bad)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_pipeline_soundness(self, k):
        solution = solve_feasible(build_constraints(k))
        triple = scale_to_integers(solution)
        profile = cover_profile_blocks(2 * k + 1, plan_odd(k, triple))
        assert profile.uniform_multiplicity is not None

    def test_solved_k3_materialises_uniform(self):
        triple = scale_to_integers(solve_feasible(build_constraints(3)))
        forest = synthesize_forest(3, triple)
        assert cover_profile(forest).uniform_multiplicity is not None


ORACLE = json.loads((Path(__file__).parent / "fixtures" / "lp_oracle.json").read_text())


def _oracle_rows(k, entries):
    index = {name: i for i, name in enumerate(variable_names(k))}
    rows = []
    for entry in entries:
        coeffs = {index[name]: Fraction(v) for name, v in entry["coeffs"].items()}
        rows.append(make_row(len(index), coeffs, entry["relation"], Fraction(entry["rhs"])))
    return rows


def _solve_counting_pivots(problem, monkeypatch):
    count = 0
    inner = lpsearch._pivot

    def counted(*args):
        nonlocal count
        count += 1
        return inner(*args)

    monkeypatch.setattr(lpsearch, "_pivot", counted)
    return solve_feasible(problem), count


class TestOracleFixture:
    """tests/fixtures/lp_oracle.json holds the answers and pivot counts of
    the earlier Fraction-tableau solver (phase 2 priced the artificials at a
    fixed big-M).  The integer-row solver must reproduce them exactly."""

    @pytest.mark.parametrize("entry", ORACLE["plain"], ids=lambda e: f"k{e['k']}")
    def test_plain_covering_lp(self, entry, monkeypatch):
        k = entry["k"]
        solution, pivots = _solve_counting_pivots(build_constraints(k), monkeypatch)
        triple = scale_to_integers(solution)
        t = solution.assignment[t_index(k)]
        assert str(t) == entry["t"]
        assert [list(triple.x), list(triple.y), list(triple.z)] == [entry["x"], entry["y"], entry["z"]]
        assert pivots == entry["pivots"]

    @pytest.mark.parametrize(
        "entry", ORACLE["extra"], ids=lambda e: f"k{e['k']}-seed{e['seed']}"
    )
    def test_seeded_extra_rows(self, entry, monkeypatch):
        k = entry["k"]
        problem = build_constraints(k, _oracle_rows(k, entry["rows"]))
        solution, pivots = _solve_counting_pivots(problem, monkeypatch)
        assert [str(v) for v in solution.assignment] == entry["assignment"]
        assert pivots == entry["pivots"]


# The third row is the sum of the other two.  Phase 1 ends with its
# artificial basic at zero, and the pivot that drives it out is negative.
DEGENERATE = LpProblem(
    3,
    (
        make_row(3, {0: 2, 1: 3, 2: -2}, rhs=3),
        make_row(3, {0: -2, 1: 1, 2: -2}, rhs=1),
        make_row(3, {1: 4, 2: -4}, rhs=4),
    ),
    objective=(Fraction(1), Fraction(1), Fraction(2)),
)


ORACLE_PROBLEMS = (
    [f"k{k}" for k in range(1, 21)]
    + [f"k{e['k']}-seed{e['seed']}" for e in ORACLE["extra"]]
    + ["degenerate"]
)


def _oracle_problem(name):
    """The plain covering LP at k = 1..20, the fixture's extra-row cases
    and DEGENERATE, by name."""
    if name == "degenerate":
        return DEGENERATE
    entry = next((e for e in ORACLE["extra"] if f"k{e['k']}-seed{e['seed']}" == name), None)
    if entry is None:
        return build_constraints(int(name[1:]))
    return build_constraints(entry["k"], _oracle_rows(entry["k"], entry["rows"]))


def _solve_logging_pivots(problem, monkeypatch):
    """The solution, the (row, column) of every pivot, and whether each
    pivot was a drive-out (no cost row) at a negative entry."""
    log, negative = [], []
    inner = lpsearch._pivot

    def logged(rows, basis, cost, r, c):
        log.append((r, c))
        negative.append(cost is None and rows[r].nums[c] < 0)
        return inner(rows, basis, cost, r, c)

    with monkeypatch.context() as patch:
        patch.setattr(lpsearch, "_pivot", logged)
        return solve_feasible(problem), log, any(negative)


class TestDenseOracle:
    """The sparse row update against a whole-row one
    (``helpers.dense_eliminate``): the same pivots in the same order, and
    the same answer.  The presolve against its dense-round form."""

    @pytest.mark.parametrize("name", ORACLE_PROBLEMS)
    def test_same_pivots_and_answer(self, name, monkeypatch):
        problem = _oracle_problem(name)
        solution, log, negative = _solve_logging_pivots(problem, monkeypatch)
        monkeypatch.setattr(lpsearch._Row, "eliminate", dense_eliminate)
        want, want_log, _ = _solve_logging_pivots(problem, monkeypatch)
        assert solution.feasible and solution == want
        assert log == want_log
        assert negative == (name == "degenerate")

    def test_eliminate_matches_fraction_update(self):
        # Random sparse rows, some a multiple of the pivot plus a few
        # entries, so that the update cancels whole columns.
        rng = random.Random(1618)
        cancelled = 0

        def values():
            cols = rng.sample(range(lpsearch._RHS, 12), rng.randint(1, 6))
            return {j: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for j in cols}

        for _ in range(400):
            c = rng.randrange(12)
            pivot = {**values(), c: Fraction(1)}
            row = values()
            if rng.random() < 0.4:
                scale = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                row = {**{j: scale * v for j, v in pivot.items()}, **values()}
            row[c] = row.get(c) or Fraction(rng.randint(1, 7), rng.randint(1, 5))
            want = {j: row.get(j, ZERO) - row[c] * pivot.get(j, ZERO) for j in {*row, *pivot}}
            want = {j: v for j, v in want.items() if v}
            cancelled += len(want) < len({*row, *pivot}) - 1
            got = lpsearch._Row.exact(row)
            got.eliminate(lpsearch._Row.exact(pivot), c)
            assert {j: Fraction(v, got.den) for j, v in got.nums.items()} == want
            assert 0 not in got.nums.values() and got.den > 0
            assert math.gcd(*got.nums.values(), got.den) == 1
        assert cancelled > 50, cancelled

    def test_rows_never_store_a_zero(self, monkeypatch):
        inner = lpsearch._pivot
        seen = []

        def checked(rows, basis, cost, r, c):
            inner(rows, basis, cost, r, c)
            for row in rows if cost is None else rows + [cost]:
                assert 0 not in row.nums.values()
            seen.append(c)

        monkeypatch.setattr(lpsearch, "_pivot", checked)
        for name in ("k6", "k12", ORACLE_PROBLEMS[20], "degenerate"):
            assert solve_feasible(_oracle_problem(name)).feasible
        assert len(seen) > 100

    @pytest.mark.parametrize("name", ORACLE_PROBLEMS)
    def test_presolve_matches_dense_rounds(self, name):
        problem = _oracle_problem(name)
        assert lpsearch._presolve(problem) == presolve_oracle(problem)

    def test_presolve_on_random_lps(self):
        # Rows that a nonnegative point with repeated values satisfies, or
        # misses by one: fixes, ties, tie chains, folded and false rows.
        rng = random.Random(2718)
        seen = {"infeasible": 0, "fixed": 0, "tied": 0, "rows": 0}
        for _ in range(300):
            num = rng.randint(1, 7)
            point = [rng.randint(0, 2) for _ in range(num)]
            rows = []
            for _ in range(rng.randint(1, 7)):
                cols = rng.sample(range(num), rng.randint(1, min(3, num)))
                if len(cols) == 2 and rng.random() < 0.6:
                    coeffs = {cols[0]: 1, cols[1]: -1}
                else:
                    coeffs = {col: rng.choice((-2, -1, 1, 2, 3)) for col in cols}
                value = sum(c * point[col] for col, c in coeffs.items())
                relation = rng.choice(("=", "=", ">="))
                miss = rng.random() < 0.1
                rows.append(make_row(num, coeffs, relation, value + miss))
            problem = LpProblem(num, tuple(rows))
            got = lpsearch._presolve(problem)
            assert got == presolve_oracle(problem)
            if got is None:
                seen["infeasible"] += 1
            else:
                seen["fixed"] += bool(got.fixed)
                seen["tied"] += any(root != col for col, root in enumerate(got.rep))
                seen["rows"] += bool(got.rows)
        assert min(seen.values()) > 20, seen
