"""Exact checks of the path-vs-forest density inequalities on concrete hosts.

Both directions relate t(P, G) and t(H, G) through fractional powers; every
check here first clears the exponents by cross-exponentiation, so each
verdict is a comparison of two explicit rationals with no floating point
anywhere.  Theorem bounds, the circulant tightness family, exhaustive host
sweeps and the finite-n algebraic expansion identity round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .constructions import LabelledForest, alternating_path
from .covering import cover_profile
from .ecgraph import (
    BLUE,
    RED,
    BudgetExceeded,
    EdgeColouredGraph,
    _complete_adjacencies,
    _host_adjacencies,
    host_count,
    host_from_index,
    parallel_map,
    symmetric_residues,
    worker_count,
)
from .homcount import _plan, _plan_hom, density, hom_forest, is_forest


def digits(n: int) -> str:
    """The decimal digits of n, as str(n) gives them.  Decimal is not held
    to Python's int-to-str digit limit (4,300 by default), so an exact count
    or density of any size prints instead of raising ValueError."""
    return str(Decimal(n))


def fraction_text(q: Fraction) -> str:
    return f"{digits(q.numerator)}/{digits(q.denominator)}"


@dataclass(frozen=True)
class InequalityReport:
    name: str
    k: int
    host: str                  # canonical key of the host graph
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs

    def record(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "host": self.host,
            "lhs": fraction_text(self.lhs),
            "rhs": fraction_text(self.rhs),
            "holds": self.holds,
        }


def bound_odd(k: int) -> Fraction:
    """Density ceiling for the odd alternating path: k^k (k+1)^(k+1) / (2k+1)^(2k+1)."""
    if k < 0:
        raise ValueError(f"pattern k must be nonnegative, got {k}")
    return Fraction(k**k * (k + 1) ** (k + 1), (2 * k + 1) ** (2 * k + 1))


def bound_even(k: int) -> Fraction:
    """Density ceiling for the even alternating path: (1/2)^(2k)."""
    if k < 0:
        raise ValueError(f"pattern k must be nonnegative, got {k}")
    return Fraction(1, 4**k)


@lru_cache(maxsize=8)
def _bound_power(k: int, exponent: int) -> Fraction:
    """bound_odd(k)^exponent, the forest-vs-path scale: the same for every
    host and every call on one forest."""
    return bound_odd(k) ** exponent


def _densities(
    h: LabelledForest, k: int, hosts: Iterable[EdgeColouredGraph]
) -> Iterator[tuple[str, int, Fraction, Fraction]]:
    """Per host: its canonical key, e(H), t(P) and t(H)^e(P), the figures
    both density inequalities are formed from.

    Both need a uniformly covering spine homomorphism, checked once, before
    the first host; t(P) and t(H) are counted once per host.
    """
    if h.spine_edges != 2 * k + 1:
        raise ValueError(f"forest spine has {h.spine_edges} edges, expected {2 * k + 1}")
    profile = cover_profile(h)
    if profile.uniform_multiplicity is None:
        raise ValueError(
            "forest covering is not uniform; the density comparison needs a "
            f"uniformly covering spine homomorphism (profile {profile})"
        )
    spine = alternating_path(2 * k + 1)
    e_h = h.graph.num_edges()
    for g in hosts:
        t_p = density(spine, g)
        # Not density(): H must be a forest, and hom() would brute-force a cyclic H.
        t_h = Fraction(hom_forest(h.graph, g), g.n ** h.graph.n)
        yield g.canonical_key(), e_h, t_p, t_h ** (2 * k + 1)


def _path_vs_forest(
    k: int, key: str, e_h: int, t_p: Fraction, t_h_e_p: Fraction
) -> InequalityReport:
    """t(P)^(1/e(P)) <= t(H)^(1/e(H)), checked as t(P)^e(H) <= t(H)^e(P)."""
    return InequalityReport("path-vs-forest", k, key, t_p**e_h, t_h_e_p)


def _forest_vs_path(
    k: int, key: str, e_h: int, t_p: Fraction, t_h_e_p: Fraction
) -> InequalityReport:
    """t(H) <= c^(e(H)-e(P)) t(P), the irrational constant c cleared by
    raising both sides to the power e(P) = 2k+1."""
    e_p = 2 * k + 1
    # The scale's power is costly at large k, and with t(P) = 0 the bound is 0 without it.
    bound = _bound_power(k, e_h - e_p) * t_p**e_p if t_p else Fraction(0)
    return InequalityReport("forest-vs-path", k, key, t_h_e_p, bound)


def check_inequalities(
    h: LabelledForest, k: int, hosts: Iterable[EdgeColouredGraph]
) -> list[InequalityReport]:
    """Both density inequalities on each host, path-vs-forest then
    forest-vs-path per host, from one count of t(P) and t(H) per host."""
    reports = []
    for figures in _densities(h, k, hosts):
        reports += (_path_vs_forest(k, *figures), _forest_vs_path(k, *figures))
    return reports


def check_eq_ph(h: LabelledForest, k: int, g: EdgeColouredGraph) -> InequalityReport:
    """The path-vs-forest half of check_inequalities on one host."""
    return _path_vs_forest(k, *next(_densities(h, k, [g])))


def check_eq_hp(h: LabelledForest, k: int, g: EdgeColouredGraph) -> InequalityReport:
    """The forest-vs-path half of check_inequalities on one host."""
    return _forest_vs_path(k, *next(_densities(h, k, [g])))


def check_theorem_odd(k: int, g: EdgeColouredGraph) -> InequalityReport:
    t_p = density(alternating_path(2 * k + 1), g)
    return InequalityReport("theorem-odd", k, g.canonical_key(), t_p, bound_odd(k))


def check_theorem_even(k: int, g: EdgeColouredGraph) -> InequalityReport:
    t_p = density(alternating_path(2 * k), g)
    return InequalityReport("theorem-even", k, g.canonical_key(), t_p, bound_even(k))


# -- tightness along the circulant family -----------------------------------

@dataclass(frozen=True)
class TightnessPoint:
    n: int
    red_degree: Optional[int]
    density: Optional[Fraction]
    gap: Optional[Fraction]       # bound - density
    note: str = ""

    def record(self) -> dict:
        return {
            "n": self.n,
            "red_degree": self.red_degree,
            "density": None if self.density is None else fraction_text(self.density),
            "gap": None if self.gap is None else fraction_text(self.gap),
            "note": self.note,
        }


def tightness_curve(k: int, n_list: Sequence[int]) -> list[TightnessPoint]:
    """Exact odd-path densities on the best circulant of each size.

    Every vertex of a circulant of red degree d starts d^(k+1) (n-1-d)^k
    alternating walks, so its density d^(k+1) (n-1-d)^k / n^(2k+1) is read
    off that closed form, with no host built; it is unimodal in d with real
    optimum (k+1)(n-1)/(2k+1).  The admissible degrees (those with a
    negation-closed residue set: any degree on even n, even degrees on odd n)
    nearest that optimum on each side are both evaluated, and the one of
    larger density is kept, the lower on a tie.  An n admitting neither is
    reported and skipped.
    """
    bound = bound_odd(k)
    points = []
    for n in n_list:
        optimum = Fraction((k + 1) * (n - 1), 2 * k + 1)
        below, above = math.floor(optimum), math.ceil(optimum)
        while below >= 0 and symmetric_residues(n, below) is None:
            below -= 1
        while above <= n - 1 and symmetric_residues(n, above) is None:
            above += 1
        best = None
        for degree in sorted({below, above}):
            if symmetric_residues(n, degree) is None:
                continue
            t = Fraction(degree ** (k + 1) * (n - 1 - degree) ** k, n ** (2 * k + 1))
            if best is None or t > best[1]:
                best = (degree, t)
        if best is None:
            points.append(TightnessPoint(n, None, None, None, "no valid residue set"))
            continue
        degree, t = best
        points.append(TightnessPoint(n, degree, t, bound - t))
    return points


# -- exhaustive and heuristic extremal search --------------------------------

@dataclass(frozen=True)
class MaxResult:
    density: Fraction
    host: EdgeColouredGraph
    exhaustive: bool
    index: Optional[int]       # counter index of the argmax when exhaustive


def _scan_chunk(args) -> tuple[int, int]:
    """The largest hom over counter indices start..stop-1 and the first index
    attaining it; the scan ends at the first index whose hom is ``target``,
    the maximum over all hosts, since no later index can beat it."""
    pattern, n, start, stop, target = args
    plan = _plan(pattern)
    best_hom = -1
    best_index = -1
    for index, gadj in enumerate(_host_adjacencies(n, start, stop), start):
        value = _plan_hom(plan, gadj)
        if value > best_hom:
            best_hom = value
            best_index = index
            if value == target:
                break
    return best_hom, best_index


def exhaustive_max(
    pattern: EdgeColouredGraph,
    n: int,
    budget: int = 10**8,
    workers: int = 1,
    heuristic: bool = False,
    restarts: int = 40,
    seed: int = 0,
) -> MaxResult:
    """Maximum homomorphism density of the pattern over hosts on n vertices.

    Exhaustive (exact, with deterministic first-attaining argmax) while the
    3^(n(n-1)/2) host count fits the budget; beyond it, a seeded
    random-restart single-pair recolouring climb, flagged non-exhaustive.

    The exhaustive sweep first learns the maximum on the 2^(n(n-1)/2)
    complete 2-coloured hosts.  Colouring an absent pair only adds
    homomorphisms, so that is the maximum over all hosts; the in-order scan
    of the 3-state counter then stops at the first index that attains it.
    """
    if not is_forest(pattern):
        raise ValueError("exhaustive search is implemented for forest patterns")
    total = host_count(n)
    if total <= budget:
        plan = _plan(pattern)
        target = max(_plan_hom(plan, gadj) for gadj in _complete_adjacencies(n))
        chunk_count = worker_count(workers, total)
        bounds = [total * i // chunk_count for i in range(chunk_count + 1)]
        chunks = [
            (pattern, n, bounds[i], bounds[i + 1], target) for i in range(chunk_count)
        ]
        best_hom, best_index = -1, -1
        for value, index in parallel_map(_scan_chunk, chunks, workers):
            if value > best_hom:           # chunk order fixes the tie-break
                best_hom, best_index = value, index
        best_host = host_from_index(n, best_index)
        return MaxResult(density(pattern, best_host), best_host, True, best_index)
    if not heuristic:
        raise BudgetExceeded(
            f"{total} hosts exceed budget {budget}; pass heuristic=True for local search",
            required=total,
        )
    import random

    rng = random.Random(seed)
    from .ecgraph import random_host

    best_hom = -1
    best_host = None
    states = (None, RED, BLUE)
    for _ in range(restarts):
        g = random_host(n, rng)
        pairs = {(u, v): c for u, v, c in g.edges}
        current = hom_forest(pattern, g)
        improved = True
        while improved:
            improved = False
            for u in range(n):
                for v in range(u + 1, n):
                    original = pairs.get((u, v))
                    for state in states:
                        if state == original:
                            continue
                        trial = dict(pairs)
                        if state is None:
                            trial.pop((u, v), None)
                        else:
                            trial[(u, v)] = state
                        candidate = EdgeColouredGraph.from_pairs(n, trial)
                        value = hom_forest(pattern, candidate)
                        if value > current:
                            pairs, current, improved = trial, value, True
        if current > best_hom:
            best_hom = current
            best_host = EdgeColouredGraph.from_pairs(n, pairs)
    return MaxResult(density(pattern, best_host), best_host, False, None)


# -- the algebraic expansion identity ----------------------------------------

@dataclass(frozen=True)
class ExpansionReport:
    n: int
    alt_path: int        # hom of the red-blue-red path
    red_path: int        # hom of the all-red 3-edge path
    red_edge_sq: int     # hom(single red edge)^2
    red_walk: int        # hom of the all-red 2-edge path

    @property
    def holds(self) -> bool:
        return self.alt_path + self.red_path == self.red_edge_sq - self.red_walk

    def record(self) -> dict:
        return {
            "n": self.n,
            "alt_path": self.alt_path,
            "red_path": self.red_path,
            "red_edge_sq": self.red_edge_sq,
            "red_walk": self.red_walk,
            "holds": self.holds,
        }


def expansion_identity(g: EdgeColouredGraph) -> ExpansionReport:
    """Exact finite-n form of the walk-splitting identity on complete hosts.

    Summing red-*-red walks over both middle colours telescopes to all
    ordered red-edge pairs minus the red two-walks through a shared middle
    vertex; that correction is the identity's exact lower-order term.
    """
    if len(g.edges) != g.n * (g.n - 1) // 2:
        raise ValueError("expansion identity requires a complete 2-coloured host")
    red_edge = EdgeColouredGraph.make(2, [(0, 1, RED)])
    red_walk = EdgeColouredGraph.make(3, [(0, 1, RED), (1, 2, RED)])
    red_path3 = EdgeColouredGraph.make(4, [(0, 1, RED), (1, 2, RED), (2, 3, RED)])
    return ExpansionReport(
        g.n,
        hom_forest(alternating_path(3), g),
        hom_forest(red_path3, g),
        hom_forest(red_edge, g) ** 2,
        hom_forest(red_walk, g),
    )
