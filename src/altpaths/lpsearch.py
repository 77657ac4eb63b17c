"""Exact-rational LP feasibility search for valid sequence triples.

Variables are the 6k+5 sequence entries plus one common cover target t.
Every spine vertex and edge must be covered by exactly t (the coefficient
rows come verbatim from the covering module), mirrored entries are tied
together, structurally impossible classes are pinned to zero, and the
sequence entries sum to one.  Any feasible rational point scales by the
LCM of its denominators to an integer triple that synthesises into a
uniformly covered forest.

The solver is a two-phase primal simplex with Bland's anti-cycling rule,
so feasibility verdicts are exact and termination is guaranteed.  Tie/fix
rows are eliminated exactly, on sparse rows, before pivoting starts.  Each
tableau row is sparse too: a map from column to nonzero integer numerator
over one positive denominator, in lowest terms, with the right-hand side
under a fixed key, so no per-entry ``Fraction`` work is done and no work
scales with the tableau width.  A pivot scales every other row with a
nonzero in the pivot column by the pivot denominator over its gcd with that
entry, subtracts the matching multiple of the pivot row at the pivot row's
nonzeros only, and puts the row back in lowest terms.  The artificial
columns are deleted once phase 1 has driven them out of the basis, so
phase 2 needs no big-M cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .constructions import LabelledForest, SequenceTriple, materialise, plan_odd
from .covering import cover_target, edge_cover_row, vertex_cover_row


@dataclass(frozen=True)
class LpRow:
    coeffs: tuple[Fraction, ...]
    relation: str            # "=" or ">="
    rhs: Fraction
    kind: str = "extra"      # vertex | edge | tie | fix | norm | extra

    def __post_init__(self):
        if self.relation not in ("=", ">="):
            raise ValueError(f"row relation must be '=' or '>=', not {self.relation!r}")


@dataclass(frozen=True)
class LpProblem:
    num_vars: int
    rows: tuple[LpRow, ...]
    objective: Optional[tuple[Fraction, ...]] = None   # minimised when present
    k: Optional[int] = None

    def row_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row.kind] = counts.get(row.kind, 0) + 1
        return counts


@dataclass(frozen=True)
class LpSolution:
    status: str              # "feasible" | "infeasible"
    assignment: Optional[tuple[Fraction, ...]] = None
    k: Optional[int] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


# -- problem construction ----------------------------------------------------

def variable_layout(k: int) -> dict[tuple[str, int], int]:
    """Column index of each sequence entry; the cover target t is last."""
    layout = {}
    for i in range(2 * k + 2):
        layout[("x", i)] = i
    for i in range(2 * k + 1):
        layout[("y", i)] = 2 * k + 2 + i
    for i in range(2 * k + 2):
        layout[("z", i)] = 4 * k + 3 + i
    return layout


def t_index(k: int) -> int:
    return 6 * k + 5


def variable_names(k: int) -> list[str]:
    names = [""] * (6 * k + 6)
    for (series, i), col in variable_layout(k).items():
        names[col] = f"{series}{i}"
    names[t_index(k)] = "t"
    return names


def build_constraints(k: int, extra: Sequence[LpRow] = ()) -> LpProblem:
    """The covering LP: all cover counts equal t, entries symmetric and
    normalised to sum one, structurally unmappable classes pinned to zero.

    The default objective minimises t, i.e. prefers the smallest uniform
    cover multiplicity.  Caller-supplied extra rows are appended as-is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    layout = variable_layout(k)
    num_vars = 6 * k + 6
    t_col = t_index(k)
    zero = Fraction(0)

    def dense(entries: dict[int, int]) -> tuple[Fraction, ...]:
        coeffs = [zero] * num_vars
        for col, coeff in entries.items():
            coeffs[col] = Fraction(coeff)
        return tuple(coeffs)

    covers = [("vertex", vertex_cover_row(k, idx)) for idx in range(2 * k + 2)]
    covers += [("edge", edge_cover_row(k, idx)) for idx in range(2 * k + 1)]
    rows: list[LpRow] = []
    for kind, cover in covers:
        entries = {layout[key]: coeff for key, coeff in cover.items()}
        rows.append(LpRow(dense({**entries, t_col: -1}), "=", zero, kind))
    ties = [(series, i, 2 * k + 1 - i) for i in range(k + 1) for series in "xz"]
    ties += [("y", i, 2 * k - i) for i in range(k)]
    for series, a, b in ties:
        rows.append(LpRow(dense({layout[(series, a)]: 1, layout[(series, b)]: -1}), "=", zero, "tie"))
    # Classes with no colour-compatible spine image must stay empty:
    # blue leaves at an endpoint (x_0), two-paths at v_0 and v_1 (z_0, z_1).
    for key in (("x", 0), ("z", 0), ("z", 1)):
        rows.append(LpRow(dense({layout[key]: 1}), "=", zero, "fix"))
    rows.append(LpRow(dense(dict.fromkeys(range(t_col), 1)), "=", Fraction(1), "norm"))

    for row in extra:
        if len(row.coeffs) != num_vars:
            raise ValueError("extra row has wrong coefficient count")
        rows.append(LpRow(tuple(map(Fraction, row.coeffs)), row.relation, Fraction(row.rhs), "extra"))

    return LpProblem(num_vars, tuple(rows), dense({t_col: 1}), k)


def row_satisfied(row: LpRow, assignment: Sequence[Fraction]) -> bool:
    lhs = sum(c * v for c, v in zip(row.coeffs, assignment) if c)
    return lhs == row.rhs if row.relation == "=" else lhs >= row.rhs


def witness_assignment(k: int, s: SequenceTriple) -> tuple[Fraction, ...]:
    """The normalised sequence vectors plus matching t, for feasibility
    cross-checks."""
    total = s.total()
    layout = variable_layout(k)
    assignment = [Fraction(0)] * (6 * k + 6)
    for i, v in enumerate(s.x):
        assignment[layout[("x", i)]] = Fraction(v, total)
    for i, v in enumerate(s.y):
        assignment[layout[("y", i)]] = Fraction(v, total)
    for i, v in enumerate(s.z):
        assignment[layout[("z", i)]] = Fraction(v, total)
    assignment[t_index(k)] = Fraction(cover_target(k), total)
    return tuple(assignment)


# -- exact presolve -----------------------------------------------------------

@dataclass(frozen=True)
class Presolved:
    """A problem after exact elimination of fixes and ties.

    rep maps every original column to the column that carries its value;
    fixed maps such columns to constants; live lists the free ones in
    column order; rows are the constraints left over, each as (coefficients
    keyed by column, relation, rhs).
    """

    live: tuple[int, ...]
    rep: tuple[int, ...]
    fixed: dict[int, Fraction]
    rows: tuple[tuple[dict[int, Fraction], str, Fraction], ...]


def _presolve(problem: LpProblem) -> Optional[Presolved]:
    """Eliminate single-variable fixes and two-variable ties exactly.

    Returns None when a fix is negative or a row reduces to a false
    constant, which proves the problem infeasible.
    """
    num = problem.num_vars
    parent = list(range(num))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    fixed: dict[int, Fraction] = {}
    pending = [
        ({col: c for col, c in enumerate(row.coeffs) if c}, row.relation, row.rhs)
        for row in problem.rows
    ]
    changed = True
    while changed:
        changed = False
        next_pending = []
        for coeffs, relation, rhs in pending:
            folded: dict[int, Fraction] = {}
            const = rhs
            for col, c in coeffs.items():
                root = find(col)
                if root in fixed:
                    const -= c * fixed[root]
                else:
                    folded[root] = folded.get(root, Fraction(0)) + c
            folded = {c: v for c, v in folded.items() if v}
            if relation == "=" and len(folded) == 1:
                (col, coeff), = folded.items()
                value = const / coeff
                if value < 0:
                    return None
                fixed[col] = value
                changed = True
                continue
            if relation == "=" and len(folded) == 2 and const == 0:
                (c1, v1), (c2, v2) = sorted(folded.items())
                if v1 == -v2:
                    parent[find(c2)] = find(c1)
                    changed = True
                    continue
            if not folded:
                ok = const == 0 if relation == "=" else const <= 0
                if not ok:
                    return None
                continue
            next_pending.append((folded, relation, const))
        pending = next_pending
    rep = tuple(find(c) for c in range(num))
    live = tuple(sorted(set(rep) - set(fixed)))
    return Presolved(live, rep, fixed, tuple(pending))


# -- simplex core -------------------------------------------------------------

# The key under which a row holds its right-hand side.  Columns are
# numbered from 0, so dropping the artificial columns (keys >= art_at)
# keeps it.
_RHS = -1


class _Row:
    """A tableau row kept exact as integer numerators over one positive
    denominator, in lowest terms: nums maps each column with a nonzero entry
    to its numerator, and the right-hand side sits under ``_RHS``.  A zero
    is never stored."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict[int, int], den: int):
        g = math.gcd(*nums.values(), den)
        if g != 1:
            nums = {j: v // g for j, v in nums.items()}
            den //= g
        self.nums, self.den = nums, den

    @classmethod
    def exact(cls, entries: dict[int, Fraction]) -> "_Row":
        """The row holding the given exact values, and zeros elsewhere."""
        den = math.lcm(*(v.denominator for v in entries.values()))
        nums = {j: v.numerator * (den // v.denominator) for j, v in entries.items() if v}
        return cls(nums, den)

    def eliminate(self, pivot: "_Row", c: int) -> None:
        """Subtract the multiple of pivot, which holds 1 in column c, that
        clears column c.  With f this row's entry in column c, p = pivot.den
        and g = gcd(f, p), the row is scaled by p/g and (f/g) times the
        pivot is subtracted at the pivot's nonzeros only:
        (row*(p/g) - (f/g)*pivot) / (den*(p/g)), then put in lowest terms."""
        nums = self.nums
        p = pivot.den
        g = math.gcd(nums[c], p)
        scale, f = p // g, nums[c] // g
        if scale != 1:
            nums = {j: a * scale for j, a in nums.items()}
        for j, b in pivot.nums.items():
            v = nums.get(j, 0) - f * b
            if v:
                nums[j] = v
            else:
                del nums[j]
        self.__init__(nums, self.den * scale)


def _bland_simplex(rows: list[_Row], basis: list[int], cost: _Row) -> str:
    """Minimise over the rows in place; returns "optimal" or "unbounded".

    cost holds the reduced costs (its rhs = minus the objective value).
    Entering column: lowest index with negative reduced cost.  Leaving row:
    lexicographic (ratio, basis index), where the ratio rhs/a of a row is
    the quotient of its numerators (the row denominator cancels) and is
    compared by cross-multiplication.  Bland's rule, so no cycling.
    """
    while True:
        entering = min((j for j, v in cost.nums.items() if v < 0 and j >= 0), default=-1)
        if entering < 0:
            return "optimal"
        leaving = -1
        best_rhs = best_a = 0
        for r, row in enumerate(rows):
            a = row.nums.get(entering, 0)
            if a > 0:
                rhs = row.nums.get(_RHS, 0)
                if leaving >= 0:
                    lhs, ref = rhs * best_a, best_rhs * a
                    if lhs > ref or (lhs == ref and basis[r] > basis[leaving]):
                        continue
                leaving, best_rhs, best_a = r, rhs, a
        if leaving < 0:
            return "unbounded"
        _pivot(rows, basis, cost, leaving, entering)


def _pivot(rows: list[_Row], basis: list[int], cost: Optional[_Row], r: int, c: int) -> None:
    """Make column c basic in row r.  Rows with 0 in column c are untouched;
    the cost row, when given, is updated like any other row."""
    nums = rows[r].nums
    p = nums[c]
    pivot = rows[r] = _Row(nums if p > 0 else {j: -v for j, v in nums.items()}, abs(p))
    for rr, row in enumerate(rows):
        if rr != r and c in row.nums:
            row.eliminate(pivot, c)
    if cost is not None and c in cost.nums:
        cost.eliminate(pivot, c)
    basis[r] = c


def solve_feasible(problem: LpProblem) -> LpSolution:
    """Exact phase-1 (+ optional phase-2) simplex over the problem rows.

    Phase 1 minimises the sum of one artificial per row.  Artificials still
    basic at zero are then pivoted out (or their redundant rows dropped),
    and the artificial columns are deleted before phase 2 minimises the
    objective over the same basis.
    """
    pre = _presolve(problem)
    if pre is None:
        return LpSolution("infeasible", k=problem.k)
    col_of = {orig: i for i, orig in enumerate(pre.live)}
    n = len(pre.live)
    num_slack = sum(1 for _, relation, _ in pre.rows if relation != "=")
    m = len(pre.rows)
    # Columns: structural, then slack/surplus, then one artificial per row.
    art_at = n + num_slack
    slack_at = n
    rows: list[_Row] = []
    basis: list[int] = []
    for i, (folded, relation, rhs) in enumerate(pre.rows):
        # Rows with a negative rhs are negated, so a >= row becomes <=.
        sign = -1 if rhs < 0 else 1
        entries = {col_of[col]: sign * v for col, v in folded.items()}
        entries[_RHS] = sign * rhs
        if relation != "=":
            entries[slack_at] = -sign
            slack_at += 1
        entries[art_at + i] = 1
        rows.append(_Row.exact(entries))
        basis.append(art_at + i)

    # Phase 1: minimise the sum of artificials, priced out over the basis.
    cost = _Row({art_at + i: 1 for i in range(m)}, 1)
    for row, b in zip(rows, basis):
        cost.eliminate(row, b)
    status = _bland_simplex(rows, basis, cost)
    if status == "unbounded" or _RHS in cost.nums:
        return LpSolution("infeasible", k=problem.k)

    # Drive leftover (necessarily zero-valued) artificials out of the basis.
    for r in range(m - 1, -1, -1):
        if basis[r] >= art_at:
            pivot_col = min((j for j in rows[r].nums if 0 <= j < art_at), default=None)
            if pivot_col is None:
                del rows[r]
                del basis[r]
            else:
                _pivot(rows, basis, None, r, pivot_col)
    rows = [_Row({j: v for j, v in row.nums.items() if j < art_at}, row.den) for row in rows]

    if problem.objective is not None:
        weights: dict[int, Fraction] = {}
        for orig, c in enumerate(problem.objective):
            root = pre.rep[orig]
            if c and root not in pre.fixed:   # fixed columns shift the value only
                weights[col_of[root]] = weights.get(col_of[root], 0) + c
        obj = _Row.exact(weights)
        for row, b in zip(rows, basis):
            if b in obj.nums:
                obj.eliminate(row, b)
        if _bland_simplex(rows, basis, obj) == "unbounded":
            raise ValueError("objective is unbounded below on the feasible region")

    reduced = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            reduced[b] = Fraction(row.nums.get(_RHS, 0), row.den)
    assignment = tuple(
        pre.fixed[root] if root in pre.fixed else reduced[col_of[root]] for root in pre.rep
    )
    solution = LpSolution("feasible", assignment, problem.k)
    for row in problem.rows:
        if not row_satisfied(row, solution.assignment):
            raise ArithmeticError("solver returned an assignment violating a row")
    return solution


# -- scaling and synthesis ----------------------------------------------------

def scale_vector(values: Sequence[Fraction]) -> list[int]:
    """Clear denominators by the LCM; an integral vector is returned as-is."""
    lcm = 1
    for v in values:
        lcm = math.lcm(lcm, Fraction(v).denominator)
    return [int(Fraction(v) * lcm) for v in values]


def scale_to_integers(sol: LpSolution) -> SequenceTriple:
    """Integer sequence triple from a feasible covering-LP solution."""
    if not sol.feasible or sol.assignment is None:
        raise ValueError("cannot scale an infeasible solution")
    if sol.k is None:
        raise ValueError("solution does not carry a covering-LP layout")
    k = sol.k
    scaled = scale_vector(sol.assignment)
    layout = variable_layout(k)
    x = tuple(scaled[layout[("x", i)]] for i in range(2 * k + 2))
    y = tuple(scaled[layout[("y", i)]] for i in range(2 * k + 1))
    z = tuple(scaled[layout[("z", i)]] for i in range(2 * k + 2))
    triple = SequenceTriple(k, x, y, z)
    triple.require_valid()
    return triple


def synthesize_forest(k: int, s: SequenceTriple) -> LabelledForest:
    """The decorated-spine construction applied to an arbitrary valid triple."""
    return materialise(2 * k + 1, plan_odd(k, s))
